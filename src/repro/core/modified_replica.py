"""The modified Bayou replica — Algorithm 2 and Appendix A.1.

Three changes relative to Algorithm 1, each with a stated purpose:

1. **Strong operations are broadcast through TOB only** (never RB, never
   placed on the tentative list), so any operation that observes a strong
   operation observes it in its final, committed position — the first half
   of the circular-causality fix.
2. **Weak operations execute immediately on the current state at invocation
   and are then rolled back**; the response is returned from that immediate
   execution. No concurrent operation can slip in front of the first
   (response-generating) execution — the second half of the fix — and weak
   operations become *bounded wait-free* (Appendix A.1.2), at the price of
   losing session guarantees such as read-your-writes.
3. **Weak read-only operations run locally only** (invisible reads): they
   are neither RB- nor TOB-cast and never enter the tentative list.

Footnote 8's optimisation — skip the immediate rollback when the request
lands at the tail of the current order and the engine is idle — is not
implemented. It is observable: a local weak operation invoked before the
re-execution would read the kept state instead of the rolled-back one, so
its response depends on the switch.
"""

from __future__ import annotations

from repro.core.replica import _NO_RESPONSE, BayouReplica
from repro.core.request import Req
from repro.datatypes.base import Operation


class ModifiedBayouReplica(BayouReplica):
    """A Bayou replica running Algorithm 2 (circular-causality-free)."""

    def invoke(self, op: Operation, strong: bool = False) -> Req:
        """Submit an operation per Algorithm 2."""
        req = self._mint_request(op, strong)
        if strong:
            # Lines 13-14: await the committed execution; TOB only.
            self._awaiting[req.dot] = _NO_RESPONSE
            self._persist_invoke(req)
            self.tob.tob_cast(req.dot, req)
            return req

        # Lines 4-7: immediate execution on the current state, immediate
        # (tentative) response, then rollback. The execution suppresses its
        # due checkpoint: a snapshot of a state about to be undone is
        # wasted work under BayouConfig.checkpoint_interval.
        readonly = self.datatype.is_readonly(op)
        if readonly and self.store is not None:
            # Invisible reads leave no replicated state, but their event
            # numbers must still survive a crash: dots key the history, so
            # a recovered replica may never mint a dot twice.
            self.store.put("replica.curr_event_no", self.curr_event_no)
        perceived = self._capture_perceived()
        response = self.state.execute(req, checkpoint=False)
        self.execution_count += 1
        if self.telemetry:
            self._m_execs.inc()
            self.telemetry.op_span(
                self.node.now,
                self.pid,
                "exec.tentative",
                req.dot,
                "exec.tentative",
                "root",
            )
        self._respond(req, response, perceived, stable=False)

        self.state.rollback(req)
        self.rollback_count += 1
        if self.telemetry:
            self._m_rollbacks.inc()

        if not readonly:
            # Lines 8-11: disseminate and speculate only updating requests.
            # (Invisible weak reads are never persisted either: they leave
            # no replicated state for a recovery to rebuild.)
            self._persist_invoke(req)
            self._cast_update(req)
            self.adjust_tentative_order(req)
            self._arm_retransmit()
        return req

    def _cast_update(self, req: Req) -> None:
        """Send a weak update out: RB-cast and TOB-cast it."""
        self.rb.rb_cast(req.dot, req)
        self.tob.tob_cast(req.dot, req)

    def tob_casts(self, req: Req) -> bool:
        """Everything but the invisible weak reads (change 3)."""
        return req.strong or not self.datatype.is_readonly(req.op)

    def _joins_tentative(self, req: Req) -> bool:
        """Strong requests never join the tentative list in Algorithm 2, so
        a recovery rebuild must keep them off it too (they are re-announced
        through TOB instead)."""
        return not req.strong

"""Cross-shard strong operations: client-side prepare/commit staging.

A multi-key operation whose keys live on different shards cannot execute
inside a single TOB. The :class:`CrossShardCoordinator` stages it from
the data type's :class:`~repro.datatypes.base.CrossShardPlan` instead:

1. every *prepare* sub-operation (the guarded steps — e.g. a transfer's
   debit) is submitted **strongly** through its owner shard's TOB;
2. when the last prepare stabilises, ``plan.decide(prepare_values)``
   fixes the outcome — the :class:`CrossShardFuture` responds with the
   plan's combined return value;
3. on success the *commit* sub-operations (the credit) are submitted
   strongly to their owner shards; on failure the *abort* compensations.
   The future stabilises once every staged sub-operation has.

The paper's strong/weak split therefore survives sharding: each staged
sub-operation holds a final TOB position on its shard, and per-key
invariants are enforced by the shard that owns the key. What the
coordinator does **not** give is cross-shard atomic visibility — between
the prepare and commit TOB positions a weak read may observe the moved
quantity "in flight" (E12 measures this as staleness); conservation
holds again at quiescence.

Plans are **epoch-pinned**: :meth:`CrossShardCoordinator.stage` records
the placement epoch the plan was resolved under. A live resharding that
bumps the epoch while a sub-operation is parked (deferred behind a
whole-shard recovery or a key handoff) is handled in two regimes:

- nothing staged yet → **abort-and-replan**: the prepare phase restarts
  from scratch under the new epoch (the stale attempt staged no state,
  so there is nothing to compensate); counted in :attr:`replanned_count`;
- something already staged → the remaining legs are **forwarded** to
  each key's current owner (prepared effects ride the migration's
  snapshot/suffix handoff to the new owner, so compensating would be
  both impossible and unnecessary); counted in :attr:`forwarded_subs`.

The parent operation never appears in any shard's history — shard
histories record the staged sub-operations, the parent lives only in its
future (``RunResult.responses`` still carries it by label).
"""

from __future__ import annotations

from typing import List, Optional, TYPE_CHECKING

from repro.core.session import OpFuture
from repro.datatypes.base import CrossShardPlan, Operation
from repro.errors import MigrationInProgress

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.shard.router import ShardRouter


class CrossShardFuture(OpFuture):
    """The client-side handle of one staged cross-shard operation.

    Same ``pending → responded → stable`` lifecycle as every
    :class:`OpFuture`; ``dot`` stays None (the parent holds no single
    position — its sub-operations each hold one on their shard).
    """

    def __init__(self, op: Operation, *, pid: int = -1) -> None:
        super().__init__(op, strong=True, pid=pid)
        #: Futures of the staged prepare sub-operations, in acceptance
        #: order (a leg parked behind a recovery or handoff lands late;
        #: ``plan.decide`` still sees values in plan order).
        self.prepare_futures: List[OpFuture] = []
        #: Futures of the staged commit (or abort) sub-operations.
        self.commit_futures: List[OpFuture] = []
        #: Whether ``plan.decide`` judged the prepares successful.
        self.committed: Optional[bool] = None
        #: Placement epoch the plan was resolved under (set at staging).
        self.plan_epoch: Optional[int] = None
        #: Second-phase sub-operations not yet stable (set at decision).
        self._pending_subs = 0
        #: Bumped by every abort-and-replan; parked retries from an
        #: earlier staging generation detect the bump and stand down.
        self._stage_generation = 0

    def _respond(self, value, at: float) -> None:
        """Record the decided response (no wire request to attach)."""
        self._respond_value(value, at)


class CrossShardCoordinator:
    """Stages cross-shard plans through the router's shards."""

    def __init__(self, router: "ShardRouter") -> None:
        self.router = router
        #: The deployment's telemetry plane (None when unarmed). Each
        #: staged plan gets its own client-side trace ("xs1", "xs2", …)
        #: since the parent op holds no dot to derive one from.
        self.telemetry = router.telemetry
        #: Total cross-shard operations staged (for experiment reports).
        self.staged_count = 0
        #: How many of them decided to commit / to abort.
        self.committed_count = 0
        self.aborted_count = 0
        #: Sub-operations whose owner shard crash-stopped entirely — they
        #: can never execute, so their plan never completes (the parent
        #: future stays un-stable, like a refused session future).
        self.lost_count = 0
        #: Plans whose prepare phase restarted under a newer epoch.
        self.replanned_count = 0
        #: Sub-operations re-routed to a key's new owner mid-plan.
        self.forwarded_subs = 0
        #: Sub-operations parked behind an in-flight key handoff.
        self.deferred_subs = 0

    def stage(
        self,
        op: Operation,
        plan: CrossShardPlan,
        *,
        pid: int = 0,
        future: Optional[CrossShardFuture] = None,
    ) -> CrossShardFuture:
        """Stage ``op`` per ``plan``; returns its cross-shard future.

        ``pid`` is the *preferred* replica index inside each owner shard
        (shards share one replica-count, so the index is portable). The
        coordinator is crash-resilient the way a real client is: a staged
        sub-operation whose preferred replica is down fails over to a
        live replica of the owner shard; if the whole shard is down it is
        deferred until a replica recovers. Only a shard that crash-
        stopped *entirely* defeats the plan — the sub-operation is
        counted in :attr:`lost_count` and the parent future never
        completes its phase (durably journaling staged plans so they
        survive coordinator loss is a ROADMAP open item).
        """
        self.staged_count += 1
        if future is None:
            future = CrossShardFuture(op, pid=pid)
        future._mark_invoked(None, self.router.sim.now)
        if future.pid < 0:
            future.pid = pid
        future.plan_epoch = self.router.epoch
        if self.telemetry:
            future._trace = self.telemetry.next_trace("xs")
            self.telemetry.counter("repro_xshard_plans", outcome="staged").inc()
            self._plan_span(
                future, "stage", None,
                op=str(op), epoch=future.plan_epoch,
                prepares=len(plan.prepare),
            )
        self._stage_prepares(future, plan)
        return future

    def _plan_span(
        self, future: CrossShardFuture, name: str, parent: Optional[str],
        **attrs,
    ) -> None:
        trace = getattr(future, "_trace", None)
        if not self.telemetry or trace is None:
            return
        self.telemetry.tracer.record(
            self.router.sim.now, future.pid, name, trace, name, parent,
            **attrs,
        )

    def _count_sub(self, event: str) -> None:
        if self.telemetry:
            self.telemetry.counter("repro_xshard_subs", event=event).inc()

    def _stage_prepares(self, future: CrossShardFuture, plan: CrossShardPlan) -> None:
        """Launch (or relaunch, after a replan) the prepare phase."""
        if not plan.prepare:
            # Nothing can fail: decide straight away (commits still staged
            # on their own simulation steps through each shard's pipeline).
            self._decide(future, plan, ())
            return
        # Slotted by plan position: a leg parked behind a crash recovery
        # or a key handoff is accepted *later* than its siblings, but
        # ``plan.decide`` consumes the values positionally and must see
        # them in plan order regardless of acceptance order.
        slots: List[Optional[OpFuture]] = [None] * len(plan.prepare)
        remaining = [len(plan.prepare)]

        def count_down() -> None:
            remaining[0] -= 1
            if remaining[0] == 0:
                self._decide(
                    future, plan, tuple(slot.value for slot in slots)
                )

        def make_deliver(index: int):
            def on_prepared(sub_future: OpFuture) -> None:
                slots[index] = sub_future
                future.prepare_futures.append(sub_future)
                sub_future.add_stable_callback(lambda _f: count_down())

            return on_prepared

        for index, sub in enumerate(plan.prepare):
            self._submit_resilient(
                sub.key,
                sub.op,
                pid=future.pid,
                deliver=make_deliver(index),
                future=future,
                plan=plan,
                phase="prepare",
            )

    def _submit_resilient(
        self,
        key,
        op: Operation,
        *,
        pid: int,
        deliver,
        future: Optional[CrossShardFuture] = None,
        plan: Optional[CrossShardPlan] = None,
        phase: str = "commit",
    ) -> None:
        """Submit one staged sub-operation, surviving owner-shard crashes
        and placement-epoch changes.

        Tries the preferred replica, fails over to any live replica of
        the key's *current* owner shard, parks behind whole-shard
        recoveries and key handoffs, and — when a parked retry wakes up
        under a newer epoch — either replans the whole prepare phase (if
        nothing was staged yet) or forwards this leg to the new owner.
        ``deliver`` is called with the sub-operation's future once it was
        accepted (possibly much later, after a recovery or activation).
        """
        epoch_stale = (
            future is not None
            and future.plan_epoch is not None
            and future.plan_epoch != self.router.epoch
        )
        if epoch_stale:
            if (
                phase == "prepare"
                and plan is not None
                and not future.prepare_futures
                and not future.commit_futures
            ):
                # Abort-and-replan: the stale staging touched no shard, so
                # the clean restart needs no compensation. The generation
                # bump retires every retry the stale attempt parked.
                self.replanned_count += 1
                future._stage_generation += 1
                future.plan_epoch = self.router.epoch
                self._stage_prepares(future, plan)
                return
        try:
            shard_index = self.router.resolve_owner(key)
        except MigrationInProgress as exc:
            self.deferred_subs += 1
            self._count_sub("deferred")
            exc.migration.deferred_ops += 1
            exc.migration.when_complete(
                self._retry(key, op, pid=pid, deliver=deliver,
                            future=future, plan=plan, phase=phase)
            )
            return
        cluster = self.router.deployment.shards[shard_index]
        candidates = [pid] + [
            replica
            for replica in range(cluster.config.n_replicas)
            if replica != pid
        ]
        for candidate in candidates:
            if not cluster.nodes[candidate].crashed:
                if epoch_stale and shard_index != self.router.deployment.shard_maps.owner(
                    key, epoch=future.plan_epoch
                ):
                    # A forward is a leg landing on a *different* shard
                    # than the plan's epoch named — counted only on the
                    # actual submission, so a leg that defers again (or
                    # retries across several epochs) registers at most
                    # one forward, and an epoch bump that left the key's
                    # owner alone registers none.
                    self.forwarded_subs += 1
                    self._count_sub("forwarded")
                deliver(
                    self.router._submit_routed(
                        shard_index, candidate, op, strong=True
                    )
                )
                return
        recoverable = [
            node for node in cluster.nodes if node.crash_mode == "recover"
        ]
        if recoverable:
            # Staged exactly once, at the node's next recovery.
            recoverable[0].on_next_recovery(
                self._retry(key, op, pid=pid, deliver=deliver,
                            future=future, plan=plan, phase=phase)
            )
            return
        self.lost_count += 1
        self._count_sub("lost")

    def _retry(self, key, op, *, pid, deliver, future, plan, phase):
        """A parked re-submission, generation-guarded against replans."""
        generation = future._stage_generation if future is not None else None

        def fire() -> None:
            if future is not None and future._stage_generation != generation:
                return  # a replan already restaged this plan wholesale
            self._submit_resilient(
                key, op, pid=pid, deliver=deliver,
                future=future, plan=plan, phase=phase,
            )

        return fire

    def _decide(
        self,
        future: CrossShardFuture,
        plan: CrossShardPlan,
        values,
    ) -> None:
        """All prepares stable: fix the outcome, stage the second phase.

        ``values`` are the prepare responses in *plan order*. The parent
        responds at the decision and stabilises once every second-phase
        sub-operation has (prepares are strong, hence already stable
        when this runs); a deferred sub-operation keeps the parent
        un-stable until its shard recovered and committed it.
        """
        success, rval = plan.decide(values)
        future.committed = success
        if success:
            self.committed_count += 1
        else:
            self.aborted_count += 1
        if self.telemetry:
            self.telemetry.counter(
                "repro_xshard_plans",
                outcome="committed" if success else "aborted",
            ).inc()
            self._plan_span(future, "decide", "stage", committed=success)
        batch = plan.commit if success else plan.abort
        future._pending_subs = len(batch)

        def on_staged(sub_future: OpFuture) -> None:
            future.commit_futures.append(sub_future)
            sub_future.add_stable_callback(lambda _f: self._sub_stable(future))

        for sub in batch:
            self._submit_resilient(
                sub.key,
                sub.op,
                pid=future.pid,
                deliver=on_staged,
                future=future,
                plan=plan,
                phase="commit",
            )
        future._respond(rval, self.router.sim.now)
        if future._pending_subs == 0:
            self._plan_span(future, "stable", "decide")
            future._mark_stable(self.router.sim.now)

    def _sub_stable(self, future: CrossShardFuture) -> None:
        future._pending_subs -= 1
        if future._pending_subs == 0:
            self._plan_span(future, "stable", "decide")
            future._mark_stable(self.router.sim.now)

"""Experiment E9 (extension) — the session-guarantee cost of Algorithm 2.

Appendix A.1.2: making weak operations bounded wait-free "comes at the cost
of losing some session guarantees, such as read-your-writes". We measure it
with a schedule designed to expose the trade-off:

- a replica is made slow (large per-step cost);
- a client writes and then immediately reads on that replica.

Under the *original* protocol the read waits in the execution queue behind
the write (paying the unbounded-latency price of Section 2.3) and therefore
sees it: read-your-writes holds. Under the *modified* protocol the read
returns immediately from the current state, which does not yet include the
write: read-your-writes is violated — but the response was instant.

Latency and RYW are two sides of the same coin; this experiment reports
both per protocol.
"""

from __future__ import annotations

from repro.core.cluster import MODIFIED, ORIGINAL
from repro.datatypes.rlist import RList
from repro.scenario import Scenario


def session_guarantees_scenario(*, protocol: str = MODIFIED) -> Scenario:
    """Write-then-read on a slow replica, checking the session guarantees;
    the read is labelled ``"ryw-read"``."""
    scenario = (
        Scenario(RList(), name="session-guarantees")
        .replicas(2)
        .protocol(protocol)
        # The client's replica is slow.
        .exec_delay(0.05, overrides={0: 5.0})
        .message_delay(1.0)
        .probes(RList.read)
        .checks(session_guarantees=True)
    )
    # A closed-loop client: the read is issued as soon as the write's
    # response arrives (plus a small think time). Under the original
    # protocol that is *after* the slow replica executed the write (~5s);
    # under the modified protocol it is immediate — and the read misses
    # the still-tentative write.
    scenario.client(0, think_time=1.0).append("w").read(label="ryw-read")
    return scenario


def main() -> None:
    for protocol in (ORIGINAL, MODIFIED):
        result = session_guarantees_scenario(protocol=protocol).run()
        read = result.event("ryw-read")
        verdicts = ", ".join(
            f"{name}={'ok' if check.ok else 'FAIL'}"
            for name, check in result.session_guarantees.items()
        )
        print(
            f"{protocol:8s} read -> {read.rval!r} "
            f"(latency {read.return_time - read.invoke_time:.2f})  [{verdicts}]"
        )

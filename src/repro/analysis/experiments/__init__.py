"""Experiment modules, one per paper artifact or extension.

The catalogue is ``repro.cli.EXPERIMENTS`` (README, *Experiment
catalogue*); run any of them with ``python -m repro <name>``.
"""

#: Ω and Paxos timers shared by every Paxos leg of E11–E13.
PAXOS_TIMERS = dict(
    heartbeat_interval=2.0, failure_timeout=7.0, paxos_retry_interval=4.0
)

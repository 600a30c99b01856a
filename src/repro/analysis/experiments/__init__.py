"""Experiment modules, one per paper artifact or extension.

A module is scenario builders plus one ``main`` fold. A builder (e.g.
``figure1_scenario(...)``) returns the run as a
:class:`~repro.scenario.Scenario`; ``main`` runs each one and folds its
:class:`~repro.scenario.RunResult` (or, for runs sampled while they go,
its :class:`~repro.scenario.LiveRun`) into the printed rows and, for
six experiments, a JSON artifact. Tests and benchmarks read the same
``RunResult``. E10/E15/E16's rigs drive their clusters directly.

The catalogue is ``repro.cli.EXPERIMENTS`` (README, *Experiment
catalogue*); run any of them with ``python -m repro <name>``.
"""

#: Ω and Paxos timers shared by every Paxos leg of E11–E13.
PAXOS_TIMERS = dict(
    heartbeat_interval=2.0, failure_timeout=7.0, paxos_retry_interval=4.0
)

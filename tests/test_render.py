"""Tests for the history/execution renderers."""

from repro.analysis.experiments.figure1 import figure1_scenario
from repro.core.cluster import ORIGINAL
from repro.framework.builder import build_abstract_execution
from repro.framework.impossibility import build_theorem1_history
from repro.framework.render import render_execution, render_history


def test_render_history_lists_all_events():
    history = build_theorem1_history()
    text = render_history(history)
    for eid in ("'a'", "'b'", "'r'", "'c'"):
        assert eid in text
    assert "tobNo" in text
    assert "'bc'" in text


def test_render_execution_shows_visibility_and_notes():
    history = build_theorem1_history()
    execution = build_abstract_execution(history)
    text = render_execution(execution)
    assert "vis⁻¹(e)" in text
    assert "'c'" in text


def test_render_flags_circular_causality():
    result = figure1_scenario(protocol=ORIGINAL).run()
    execution = build_abstract_execution(result.history)
    text = render_execution(execution)
    assert "circular causality present" in text


def test_render_pending_event_as_nabla():
    from repro.core.cluster import BayouCluster
    from repro.core.config import BayouConfig
    from repro.datatypes.counter import Counter
    from repro.net.partition import PartitionSchedule

    partitions = PartitionSchedule(2)
    partitions.split(0.5, [[0], [1]])
    cluster = BayouCluster(
        Counter(),
        BayouConfig(n_replicas=2, sequencer_pid=0),
        partitions=partitions,
    )
    cluster.schedule_invoke(1.0, 1, Counter.read(), strong=True)
    cluster.run(until=50.0)
    history = cluster.build_history(well_formed=False)
    assert "∇" in render_history(history)

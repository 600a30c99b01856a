"""Keep the examples honest: each one must run and tell its story."""

import pathlib
import runpy


EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"


def run_example(name, capsys):
    runpy.run_path(str(EXAMPLES_DIR / f"{name}.py"), run_name="__main__")
    return capsys.readouterr().out


def test_quickstart(capsys):
    out = run_example("quickstart", capsys)
    assert "converged: True" in out
    assert "FEC(weak): SATISFIED" in out
    assert "Seq(strong): SATISFIED" in out


def test_meeting_scheduler(capsys):
    out = run_example("meeting_scheduler", capsys)
    assert out.count("got the room (tentatively!)") == 2   # the conflict
    assert out.count("room belongs to 'bob'") == 2         # the resolution
    assert "converged: True" in out


def test_bank_transfers(capsys):
    out = run_example("bank_transfers", capsys)
    weak_section, strong_section = out.split("--- STRONG withdrawals ---")
    # Weak: both withdrawals tentatively dispensed cash; one answer is later
    # contradicted by the final order.
    assert weak_section.count("dispensed cash") == 2
    assert "answers later contradicted by the final order: 1" in weak_section
    # Strong: exactly one succeeds and nothing is ever contradicted.
    assert strong_section.count("dispensed cash") == 1
    assert strong_section.count("declined") == 1
    assert "answers later contradicted by the final order: 0" in strong_section


def test_collaborative_list(capsys):
    out = run_example("collaborative_list", capsys)
    assert "'aax'" in out      # the paper's tentative response
    assert "'axax'" in out     # the paper's final response
    assert "BEC(weak): VIOLATED" in out
    assert "append(x) -> 'ax'" in out  # the strong variant


def test_partition_demo(capsys):
    out = run_example("partition_demo", capsys)
    assert "PENDING" in out                      # blocked strong op
    assert "converged: True" in out
    assert "minor-strong finally returned" in out

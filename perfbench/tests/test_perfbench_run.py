"""Failure accounting of one benchmark run.

Trial seed ``mix_seed(1, 2, 512, 2)`` (instance 2 under ``--seed 1`` at
N = 512) is an instance on which truncated WF returns a wrong block 3
(block-row misfit 0.15 against about 0.04 for the others). The run keeps
it, and each of its solves counts as failed.
"""

import pytest

from perfbench import runner
from perfbench.runner import Run, Workload


@pytest.fixture
def out(tmp_path, monkeypatch):
    monkeypatch.setattr(runner, "OUT", tmp_path)
    monkeypatch.setattr(runner, "MONO_N", 256)  # a cheaper baseline; it fails all the same
    return tmp_path


def test_a_wrongly_solved_instance_is_kept_and_its_solves_fail(out):
    run = Run(Workload("w", 512, "wf", 1, 3), seed=1, trace=False)
    metrics = run.execute(seconds=0)
    # two rounds, each of three block solves and two baseline solves; the
    # baselines and the solves of instance 2 fail their checks
    assert (run.tally.attempted, run.tally.failed) == (10, 6)
    assert run.tally.correct
    assert set(metrics) == set(runner.E2E_UNITS)
    assert sorted(k for k in run.reference if k != "mono") == [0, 1, 2]
    assert max(run.nmse) > 0.1 and len(run.nmse) == 6


def test_a_run_whose_every_solve_raises_still_reports(out, monkeypatch):
    def broken(*args, **kwargs):
        raise FloatingPointError("diverged")

    monkeypatch.setattr(runner, "block_pr_solve", broken)
    monkeypatch.setattr(runner, "solve_pr", broken)
    run = Run(Workload("w", 256, "wf", 2, 3), seed=1, trace=False)
    metrics = run.execute(seconds=0)
    assert run.tally.attempted == run.tally.failed == 10
    assert run.tally.correct
    assert metrics["nmse_median"] == (1.0, "1")
    assert all(v > 0 for v, _ in (metrics[m] for m in ("solve_s", "solve_peak_mb", "mono_s")))


def test_a_run_whose_every_solve_is_wrong_still_reports(out, monkeypatch):
    real = runner.block_pr_solve

    def zeroed(*args, **kwargs):
        x_hat, report = real(*args, **kwargs)
        return 0 * x_hat, report

    monkeypatch.setattr(runner, "block_pr_solve", zeroed)
    run = Run(Workload("w", 256, "wf", 1, 3), seed=1, trace=True)
    metrics = run.execute(seconds=0)
    # one traced round: three block solves and two baseline solves, each
    # with its traced copy; the baselines fail as always
    assert (run.tally.attempted, run.tally.failed) == (10, 10)
    assert run.tally.correct
    assert "trace.overhead_s" in metrics

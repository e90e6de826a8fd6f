"""The tracer catches every wrapped call and its self times add up."""

import numpy as np
import pytest

import blockpr.pipeline
import blockpr.solvers
from blockpr import APParams, ExperimentConfig, SolverSpec, block_pr_solve, gen_instance
from perfbench.tracing import Span, Tracer, _Tree, _union_length, summarize_solve

SEED = 20240602


@pytest.fixture(scope="module")
def instance():
    return gen_instance(ExperimentConfig(n=256, snr_db=30.0), SEED)[0]


def _traced(instance, spec, parallelism):
    tracer = Tracer()
    with tracer.installed(), tracer.span("solve") as root:
        x_hat, _ = block_pr_solve(instance, spec, None, parallelism)
    return tracer, root, x_hat


def _names(tracer, parent):
    return sorted(sp.name for sp in tracer.spans if sp.parent == parent.sid)


def _accounted(m):
    return (m["pipeline.blocking_self_s"] + m["pipeline.tuning_self_s"]
            + m["solvers.spectral_init_s"] + m["solvers.wf_iter_s"] + m["solvers.ap_iter_s"]
            + m["solvers.factor_s"] + m["solvers.tune_s"] + m["pipeline.build_tuning_s"])


def test_union_length_merges_overlaps():
    assert _union_length([(0, 2), (1, 3), (5, 6)]) == 4
    assert _union_length([(0, 5), (1, 2)]) == 5
    assert _union_length([]) == 0


def test_self_time_subtracts_overlapping_children_once():
    spans = [Span(0, "solve_blocks", None, 1, 0.0, 0.0, 10.0, 0.0),
             Span(1, "solve_pr", 0, 2, 1.0, 0.0, 6.0, 0.0),
             Span(2, "solve_pr", 0, 3, 2.0, 0.0, 7.0, 0.0)]
    assert _Tree(spans, spans[0]).self_time(spans[0]) == pytest.approx(4.0)


@pytest.mark.parametrize("parallelism", [1, 2])
def test_wf_solve_is_traced_layer_by_layer(instance, parallelism):
    spec = SolverSpec("wf_truncated", seed=SEED)
    tracer, root, x_hat = _traced(instance, spec, parallelism)
    k = instance.partition.n_blocks
    assert _names(tracer, root) == ["build_tuning_matrix", "merge", "solve_blocks",
                                    "unit_modulus_tune"]
    (blocking,) = [sp for sp in tracer.spans if sp.name == "solve_blocks"]
    assert _names(tracer, blocking) == ["solve_pr"] * k
    for name in ("wf_solve", "spectral_init", "pinv_factor"):
        assert sum(sp.name == name for sp in tracer.spans) == (1 if name == "pinv_factor" else k)
    m = summarize_solve(tracer.spans, root)
    assert m["solvers.wf_iters"] == sum(sp.attrs["iterations"] for sp in tracer.spans
                                        if sp.name == "wf_solve")
    assert m["solvers.tune_restarts"] == 50
    if parallelism == 1:
        total = m["pipeline.blocking_s"] + m["pipeline.tuning_s"]
        assert _accounted(m) == pytest.approx(total, rel=1e-9)
    # the traced estimate is the untraced one
    assert block_pr_solve(instance, spec, None, parallelism)[0].tobytes() == x_hat.tobytes()


def test_altproj_solve_is_traced(instance):
    spec = SolverSpec("alt_proj", APParams(init="spectral"), seed=SEED)
    tracer, root, _ = _traced(instance, spec, 1)
    k = instance.partition.n_blocks
    m = summarize_solve(tracer.spans, root)
    assert sum(sp.name == "altproj_solve" for sp in tracer.spans) == k
    assert sum(sp.name == "pinv_factor" for sp in tracer.spans) == k + 1
    assert m["solvers.ap_iters"] > 0 and m["solvers.wf_iters"] == 0
    total = m["pipeline.blocking_s"] + m["pipeline.tuning_s"]
    assert _accounted(m) == pytest.approx(total, rel=1e-9)


def test_originals_are_restored(instance):
    before = (blockpr.pipeline.solve_blocks, blockpr.solvers.wf_solve)
    tracer = Tracer()
    with tracer.installed():
        assert blockpr.pipeline.solve_blocks is not before[0]
    assert (blockpr.pipeline.solve_blocks, blockpr.solvers.wf_solve) == before
    assert np.isfinite([sp.duration for sp in tracer.spans]).all()

import os
import signal
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from blockpr import pipeline
from blockpr.bench import ExperimentConfig, gen_instance
from blockpr.core import BlockPartition, BlockPRInstance, PRInstance, split_signal
from blockpr.forward import measure, nmse
from blockpr.pipeline import (
    BlockSolveError,
    block_pr_solve,
    block_seed,
    build_tuning_matrix,
    merge,
    phase_tune,
    solve_blocks,
)
from blockpr.rng import complex_normal, generator, mix_seed
from blockpr.solvers import SolverSpec, WFParams, solve_pr


def make_block_instance(seed, k=4, n_i=32, alpha=6, beta=20.0, snr_db=np.inf):
    cfg = ExperimentConfig(n=k * n_i, k=k, alpha=alpha, beta=beta, snr_db=snr_db, trials=1)
    return gen_instance(cfg, seed)


def _zero_block(instance, index):
    """``instance`` with block ``index``'s measurements zeroed (unsolvable)."""
    y = instance.base.measurements.copy()
    y[instance.partition.row_slices()[index]] = 0.0
    return BlockPRInstance(
        PRInstance(instance.base.operator, y, "intensity"),
        instance.tuning_matrix,
        instance.tuning_measurements,
        instance.beta,
    )


@pytest.fixture
def pool_starts(monkeypatch):
    """Yields the worker count of each pool solve_blocks starts.

    A test that has not finished after 60 s fails instead of hanging.
    """
    started = []

    class CountingPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            started.append(kwargs["max_workers"])
            super().__init__(*args, **kwargs)

    def timed_out(signum, frame):
        raise TimeoutError("solve_blocks with worker processes did not return in 60 s")

    monkeypatch.setattr(pipeline, "ProcessPoolExecutor", CountingPool)
    previous = signal.signal(signal.SIGALRM, timed_out)
    signal.alarm(60)
    try:
        yield started
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def forced_pool(pool_starts, monkeypatch):
    """Make solve_blocks fork two workers, even for small blocks."""
    monkeypatch.setattr(pipeline, "_BLAS_ENV", {"OPENBLAS_NUM_THREADS": "1"})
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(pipeline, "_POOL_MIN_ENTRIES", 0)
    return pool_starts


# ---------------------------------------------------------------- solve_blocks

def test_solve_blocks_k1_matches_base_solver_bitwise():
    instance, x = make_block_instance(101, k=1, n_i=48)
    spec = SolverSpec("wf_truncated", seed=2024)
    [(z_block, rep)] = solve_blocks(instance, spec)
    dense = instance.base.operator.to_dense()
    z_dense, _ = solve_pr(
        PRInstance(dense, instance.base.measurements, "intensity"),
        SolverSpec("wf_truncated", seed=block_seed(2024, 0)),
    )
    assert z_block.tobytes() == z_dense.tobytes()


def test_solve_blocks_per_block_recovery():
    hits = 0
    trials = 100
    for t in range(trials):
        instance, x = make_block_instance(mix_seed(55, t), k=4, n_i=32)
        spec = SolverSpec("wf_truncated", seed=mix_seed(56, t), restarts=3)
        solved = solve_blocks(instance, spec)
        xs = split_signal(x, instance.partition)
        hits += all(nmse(xi, zi) <= 1e-6 for xi, (zi, _) in zip(xs, solved))
    assert hits >= 90


def test_solve_blocks_fault_isolation():
    instance, _ = make_block_instance(77, k=4, n_i=8)
    with pytest.raises(BlockSolveError) as ei:
        solve_blocks(_zero_block(instance, 1), SolverSpec("wf_truncated", seed=1))
    assert set(ei.value.failures) == {1}
    assert set(ei.value.completed) == {0, 2, 3}


def test_solve_blocks_parallel_equals_sequential(forced_pool):
    instance, _ = make_block_instance(88, k=4, n_i=16)
    spec = SolverSpec("wf_truncated", seed=11)
    seq = solve_blocks(instance, spec, parallelism=1)
    assert forced_pool == []
    par = solve_blocks(instance, spec, parallelism=4)
    assert forced_pool == [2]
    for (z1, r1), (z2, r2) in zip(seq, par):
        assert z1.tobytes() == z2.tobytes()
        assert r1.iterations == r2.iterations and r1.stop_reason == r2.stop_reason


# ---------------------------------------------------------------- worker processes

def _count(env, cpus=2, parallelism=10**6, k=16, entries=None, can_fork=True):
    if entries is None:
        entries = pipeline._POOL_MIN_ENTRIES
    return pipeline._worker_count(parallelism, k, entries, cpus, env, can_fork)


def test_worker_count_caps_at_blocks_and_blas_free_cpus():
    assert _count({}) == 1  # OpenBLAS takes both CPUs
    assert _count({"OPENBLAS_NUM_THREADS": "1"}) == 2
    assert _count({"OPENBLAS_NUM_THREADS": "2"}) == 1
    assert _count({"OPENBLAS_NUM_THREADS": "1"}, cpus=1) == 1
    assert _count({}, cpus=1) == 1
    assert _count({"OPENBLAS_NUM_THREADS": "1"}, cpus=64) == 16
    assert _count({"OMP_NUM_THREADS": "8"}, cpus=64) == 8
    assert _count({"OMP_NUM_THREADS": "1"}, cpus=64, parallelism=3) == 3
    assert _count({"OPENBLAS_NUM_THREADS": "1"}, can_fork=False) == 1
    # small problems stay in-process
    assert _count({"OPENBLAS_NUM_THREADS": "1"}, entries=pipeline._POOL_MIN_ENTRIES - 1) == 1


def test_worker_count_reads_blas_vars_in_openblas_order():
    env = {"OPENBLAS_NUM_THREADS": "4", "GOTO_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    assert _count(env, cpus=8, parallelism=8, k=8) == 2
    assert _count({"GOTO_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, cpus=8, parallelism=8, k=8) == 4
    # unset, unparsable or non-positive values fall through to the next variable
    env = {"OPENBLAS_NUM_THREADS": "0", "GOTO_NUM_THREADS": "x", "OMP_NUM_THREADS": "2"}
    assert _count(env, cpus=8, parallelism=8, k=8) == 4
    assert _count({"OPENBLAS_NUM_THREADS": "-1"}, cpus=8, parallelism=8, k=8) == 1
    # OpenBLAS ignores MKL's variable and starts one thread per CPU
    assert _count({"MKL_NUM_THREADS": "1"}) == 1


@given(
    parallelism=st.integers(1, 10**6),
    k=st.integers(1, 64),
    entries=st.integers(0, 2**24),
    cpus=st.integers(1, 128),
    blas=st.one_of(st.none(), st.integers(1, 256)),
    can_fork=st.booleans(),
)
def test_worker_count_never_exceeds_blocks_or_cpus(parallelism, k, entries, cpus, blas, can_fork):
    env = {} if blas is None else {"OPENBLAS_NUM_THREADS": str(blas)}
    n = pipeline._worker_count(parallelism, k, entries, cpus, env, can_fork)
    assert 1 <= n <= min(parallelism, k)
    if n > 1:  # an unset variable means one BLAS thread per CPU
        assert can_fork and entries >= pipeline._POOL_MIN_ENTRIES
        assert n * (blas or cpus) <= cpus


def test_blas_threads_are_read_at_import_not_per_call(pool_starts, monkeypatch):
    # OpenBLAS fixed its thread count when numpy loaded; a later change
    # to the environment must not turn the pool on
    monkeypatch.setattr(pipeline, "_BLAS_ENV", {})
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(pipeline, "_POOL_MIN_ENTRIES", 0)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    instance, _ = make_block_instance(79, k=2, n_i=8)
    solve_blocks(instance, SolverSpec("wf_truncated", seed=1), parallelism=2)
    assert pool_starts == []


def test_worker_processes_isolate_block_faults(forced_pool):
    instance, _ = make_block_instance(77, k=4, n_i=8)
    with pytest.raises(BlockSolveError) as ei:
        solve_blocks(_zero_block(instance, 1), SolverSpec("wf_truncated", seed=1), parallelism=2)
    assert forced_pool == [2]
    assert set(ei.value.failures) == {1}
    assert set(ei.value.completed) == {0, 2, 3}
    z, _ = ei.value.completed[2]
    assert z.shape == (8,)


def test_dead_worker_raises_block_solve_error(forced_pool, monkeypatch):
    parent = os.getpid()
    solve_one = pipeline._solve_one_block

    def dies_on_block_2(*job):
        if job[-1] == 2:
            assert os.getpid() != parent, "block 2 ran in the test process"
            os._exit(3)
        return solve_one(*job)

    monkeypatch.setattr(pipeline, "_solve_one_block", dies_on_block_2)
    instance, _ = make_block_instance(78, k=4, n_i=8)
    with pytest.raises(BlockSolveError) as ei:
        solve_blocks(instance, SolverSpec("wf_truncated", seed=1), parallelism=2)
    assert forced_pool == [2]
    err = ei.value
    assert isinstance(err.failures[2], BrokenProcessPool)
    assert "block 2:" in str(err)
    assert set(err.failures) | set(err.completed) == {0, 1, 2, 3}
    assert not set(err.failures) & set(err.completed)


# ---------------------------------------------------------------- tuning matrix

def test_build_tuning_matrix_identity_like():
    part = BlockPartition((2, 2), (1, 1))
    a = np.eye(2, dtype=complex)
    b = build_tuning_matrix([np.array([3.0 + 0j]), np.array([2j])], a, part)
    assert np.array_equal(b, np.array([[3.0, 0.0], [0.0, 2j]]))


def test_build_tuning_matrix_hand_example():
    part = BlockPartition((2, 1), (2, 1))
    a = np.ones((1, 3), dtype=complex)
    b = build_tuning_matrix([np.array([1.0, 1.0]), np.array([2j])], a, part)
    assert np.array_equal(b, np.array([[2.0, 2j]]))


def test_build_tuning_matrix_consistency_with_truth():
    instance, x = make_block_instance(99, k=3, n_i=8, beta=7.0)
    xs = split_signal(x, instance.partition)
    b = build_tuning_matrix(xs, instance.tuning_matrix, instance.partition)
    lhs = np.abs(b @ np.ones(3))
    rhs = measure(instance.tuning_matrix, x, "magnitude")
    assert np.allclose(lhs, rhs, rtol=1e-10)


def test_build_tuning_matrix_dimension_errors():
    part = BlockPartition((2, 2), (1, 1))
    with pytest.raises(ValueError):
        build_tuning_matrix([np.ones(1), np.ones(1)], np.ones((4, 3), dtype=complex), part)
    with pytest.raises(ValueError):
        build_tuning_matrix([np.ones(2), np.ones(1)], np.ones((4, 2), dtype=complex), part)
    with pytest.raises(ValueError):  # wrong estimate count
        build_tuning_matrix([np.ones(1)] * 3, np.ones((4, 2), dtype=complex), part)


# ---------------------------------------------------------------- phase tuning

def test_phase_tune_already_aligned():
    instance, x = make_block_instance(111, k=4, n_i=16)
    xs = split_signal(x, instance.partition)
    b = build_tuning_matrix(xs, instance.tuning_matrix, instance.partition)
    y_t = measure(instance.tuning_matrix, x, "magnitude")
    d, rep = phase_tune(b, y_t, SolverSpec("unit_modulus_tuner", seed=4, restarts=50))
    merged = merge(xs, d)
    assert nmse(x, merged) <= 1e-10


@pytest.mark.parametrize("k", [2, 4, 8])
def test_phase_tune_recovers_injected_phases(k):
    rng = generator(300 + k)
    instance, x = make_block_instance(mix_seed(222, k), k=k, n_i=16)
    xs = split_signal(x, instance.partition)
    phases = rng.uniform(0, 2 * np.pi, k)
    shifted = [xi * np.exp(1j * p) for xi, p in zip(xs, phases)]
    b = build_tuning_matrix(shifted, instance.tuning_matrix, instance.partition)
    y_t = measure(instance.tuning_matrix, x, "magnitude")
    d, _ = phase_tune(b, y_t, SolverSpec("unit_modulus_tuner", seed=5, restarts=50))
    rel = d * np.conj(d[0])
    target = np.exp(-1j * (phases - phases[0]))
    assert np.max(np.abs(rel - target)) <= 1e-6


def test_phase_tune_beta_one_fails_sometimes():
    # L = K leaves the tuning system underdetermined in practice; the run
    # must flag non-convergence rather than silently pretend success
    non_converged = 0
    for t in range(10):
        instance, x = make_block_instance(mix_seed(333, t), k=4, n_i=16, beta=1.0)
        xs = split_signal(x, instance.partition)
        phases = generator(mix_seed(334, t)).uniform(0, 2 * np.pi, 4)
        shifted = [xi * np.exp(1j * p) for xi, p in zip(xs, phases)]
        b = build_tuning_matrix(shifted, instance.tuning_matrix, instance.partition)
        y_t = measure(instance.tuning_matrix, x, "magnitude")
        d, rep = phase_tune(b, y_t, SolverSpec("unit_modulus_tuner", seed=6, restarts=10))
        err = nmse(x, merge(shifted, d))
        if not rep.converged or err > 1e-6:
            non_converged += 1
    assert non_converged >= 1


def test_phase_tune_with_altproj_solver_renormalizes():
    instance, x = make_block_instance(444, k=2, n_i=16)
    xs = split_signal(x, instance.partition)
    b = build_tuning_matrix(xs, instance.tuning_matrix, instance.partition)
    y_t = measure(instance.tuning_matrix, x, "magnitude")
    d, _ = phase_tune(b, y_t, SolverSpec("alt_proj", seed=7, restarts=10))
    assert np.max(np.abs(np.abs(d) - 1.0)) <= 1e-12


# ---------------------------------------------------------------- merge

def test_merge_all_ones_is_concatenation():
    parts = [np.array([1.0 + 1j, 2.0]), np.array([3j])]
    out = merge(parts, np.ones(2))
    assert np.array_equal(out, [1.0 + 1j, 2.0, 3j])


def test_merge_example():
    out = merge([np.array([1.0 + 0j]), np.array([1.0 + 0j])], np.array([1.0, 1j]))
    assert np.array_equal(out, [1.0, 1j])


def test_merge_perfect_inputs():
    rng = generator(50)
    x = complex_normal(rng, 24)
    part = BlockPartition((12, 12, 24), (6, 6, 12))
    xs = split_signal(x, part)
    phases = rng.uniform(0, 2 * np.pi, 3)
    shifted = [xi * np.exp(1j * p) for xi, p in zip(xs, phases)]
    d = np.exp(-1j * phases) * np.exp(0.3j)  # common phase is allowed
    assert nmse(x, merge(shifted, d)) <= 1e-12


def test_merge_length_mismatch():
    with pytest.raises(ValueError):
        merge([np.ones(2)], np.ones(2))


# ---------------------------------------------------------------- block_pr_solve

def test_block_pr_solve_k1_short_circuit_bitwise():
    instance, x = make_block_instance(600, k=1, n_i=64, snr_db=30.0)
    spec = SolverSpec("wf_truncated", seed=9)
    x_hat, out = block_pr_solve(instance, spec)
    z_dense, _ = solve_pr(
        PRInstance(instance.base.operator.to_dense(), instance.base.measurements, "intensity"),
        SolverSpec("wf_truncated", seed=block_seed(9, 0)),
    )
    assert x_hat.tobytes() == z_dense.tobytes()
    assert np.array_equal(out.d_hat, np.ones(1, dtype=complex))
    assert out.tuning_report.iterations == 0


def test_block_pr_solve_schedule_independence():
    instance, _ = make_block_instance(601, k=4, n_i=32, snr_db=30.0)
    spec = SolverSpec("wf_truncated", seed=10)
    results = [block_pr_solve(instance, spec, parallelism=p)[0] for p in (1, 2, 4)]
    assert results[0].tobytes() == results[1].tobytes() == results[2].tobytes()


def test_block_pr_solve_noiseless_consistency():
    # converged noiseless runs leave no systematic pipeline error
    checked = 0
    for t in range(5):
        instance, x = make_block_instance(mix_seed(602, t), k=4, n_i=32)
        spec = SolverSpec(
            "wf_truncated", params=WFParams(tol=1e-11, max_iters=1000), seed=t, restarts=3
        )
        x_hat, out = block_pr_solve(instance, spec)
        if all(r.final_residual <= 1e-10 for r in out.per_block_reports) and (
            out.tuning_report.final_residual <= 1e-10
        ):
            checked += 1
            assert nmse(x, x_hat) <= 1e-8
    assert checked >= 3


def test_block_pr_solve_phase_gauge_invariance():
    # rotating one true block by e^{j theta} changes nothing the pipeline sees
    # except through the tuning system, and the tuner absorbs it
    instance, x = make_block_instance(603, k=4, n_i=16)
    cfg = ExperimentConfig(n=64, k=4, snr_db=np.inf, trials=1)
    spec = SolverSpec("wf_truncated", seed=20, restarts=3)
    x_hat, _ = block_pr_solve(instance, spec)
    base_err = nmse(x, x_hat)

    theta = 1.234
    x2 = x.copy()
    x2[instance.partition.col_slices()[2]] *= np.exp(1j * theta)
    op = instance.base.operator
    y2 = measure(op, x2, "intensity")
    assert np.allclose(y2, instance.base.measurements, rtol=1e-12)  # blocks blind to theta
    inst2 = BlockPRInstance(
        PRInstance(op, y2, "intensity"),
        instance.tuning_matrix,
        measure(instance.tuning_matrix, x2, "intensity"),
        instance.beta,
    )
    x_hat2, _ = block_pr_solve(inst2, spec)
    assert abs(nmse(x2, x_hat2) - base_err) <= 1e-9


def test_block_pr_solve_propagates_block_failures():
    instance, _ = make_block_instance(604, k=2, n_i=8)
    with pytest.raises(BlockSolveError) as ei:
        block_pr_solve(_zero_block(instance, 0), SolverSpec("wf_truncated", seed=1))
    assert 0 in ei.value.failures
    assert 1 in ei.value.completed


def test_block_pr_solve_stage_times_recorded():
    instance, _ = make_block_instance(605, k=2, n_i=16)
    _, out = block_pr_solve(instance, SolverSpec("wf_truncated", seed=2))
    st = out.stage_times
    assert st.blocking_s > 0
    assert st.tuning_s >= 0
    assert st.merge_s >= 0
    assert st.total_s == pytest.approx(st.blocking_s + st.tuning_s + st.merge_s)


@pytest.mark.skipif((os.cpu_count() or 1) < 4, reason="timing claim needs a >=4-way machine")
def test_block_pr_solve_parallel_blocking_speedup():
    instance, _ = make_block_instance(606, k=4, n_i=256, snr_db=30.0)
    spec = SolverSpec("wf_truncated", seed=3)
    _, seq = block_pr_solve(instance, spec, parallelism=1)
    _, par = block_pr_solve(instance, spec, parallelism=4)
    assert seq.stage_times.blocking_s / par.stage_times.blocking_s > 1.0

import errno
import os
import signal
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from blockpr import pipeline
from blockpr.bench import _LANE_TUNING_MATRIX, _LANE_X, ExperimentConfig, gen_instance
from blockpr.core import BlockPartition, BlockPRInstance, PRInstance
from blockpr.forward import apply, measure, nmse
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
def forked(monkeypatch):
    """Yields the pid of each child process solve_blocks forks.

    A test that has not finished after 60 s fails instead of hanging.
    """
    children = []
    fork = os.fork

    def counting_fork():
        pid = fork()
        if pid:
            children.append(pid)
        return pid

    def timed_out(signum, frame):
        raise TimeoutError("solve_blocks with forked children did not return in 60 s")

    monkeypatch.setattr(os, "fork", counting_fork)
    previous = signal.signal(signal.SIGALRM, timed_out)
    signal.alarm(60)
    try:
        yield children
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def forced_split(forked, monkeypatch):
    """Make solve_blocks split over two processes, even for small blocks."""
    monkeypatch.setattr(pipeline, "_BLAS_ENV", {"OPENBLAS_NUM_THREADS": "1"})
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(pipeline, "_POOL_MIN_ENTRIES", 0)
    return forked


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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
        xs = [x[cs] for cs in instance.partition.col_slices()]
        hits += all(nmse(xi, zi) <= 1e-6 for xi, (zi, _) in zip(xs, solved))
    assert hits >= 90


def test_solve_blocks_fault_isolation():
    instance, _ = make_block_instance(77, k=4, n_i=8)
    with pytest.raises(BlockSolveError) as ei:
        solve_blocks(_zero_block(instance, 1), SolverSpec("wf_truncated", seed=1))
    assert set(ei.value.failures) == {1}
    assert set(ei.value.completed) == {0, 2, 3}


def test_solve_blocks_parallel_equals_sequential(forced_split):
    instance, _ = make_block_instance(88, k=4, n_i=16)
    spec = SolverSpec("wf_truncated", seed=11)
    seq = solve_blocks(instance, spec, parallelism=1)
    assert forced_split == []
    par = solve_blocks(instance, spec, parallelism=4)
    assert len(forced_split) == 1
    for (z1, r1), (z2, r2) in zip(seq, par):
        assert z1.tobytes() == z2.tobytes()
        assert r1.iterations == r2.iterations and r1.stop_reason == r2.stop_reason


@pytest.mark.parametrize("snr_db", [30.0, np.inf])
def test_complex64_blocks_solve_alike_in_forked_workers(forced_split, snr_db):
    # noiseless blocks take WF's complex128 finish, inside the workers too
    instance, _ = make_block_instance(90, k=4, n_i=16, snr_db=snr_db)
    assert {b.dtype for b in instance.base.operator.blocks} == {np.dtype(np.complex64)}
    spec = SolverSpec("wf_truncated", seed=13)
    x_seq, seq = block_pr_solve(instance, spec, parallelism=1)
    x_par, par = block_pr_solve(instance, spec, parallelism=2)
    assert len(forced_split) == 1
    assert x_seq.dtype == np.complex128 and x_seq.tobytes() == x_par.tobytes()
    for z1, z2 in zip(seq.block_estimates, par.block_estimates):
        assert z1.tobytes() == z2.tobytes()
    if snr_db == np.inf:
        assert {r.stop_reason for r in par.per_block_reports} == {"tol"}


def test_report_phase_times_come_back_from_workers(forced_split):
    instance, _ = make_block_instance(89, k=4, n_i=16)
    solved = solve_blocks(instance, SolverSpec("alt_proj", seed=12), parallelism=2)
    assert len(forced_split) == 1
    for _, rep in solved:
        assert rep.init_s > 0 and rep.iter_s > 0 and rep.factor_s > 0
        assert rep.init_s + rep.iter_s + rep.factor_s <= rep.wall_time_seconds


@pytest.mark.parametrize("snr_db", [30.0, np.inf])
def test_altproj_default_start_solves_every_block(snr_db):
    # from a random start, AP left 1-2 of the 8 blocks of each of these
    # instances at block NMSE 1.4-1.9; the default start is spectral
    for t in range(3):
        seed = mix_seed(12345, 1024, t)
        instance, x = gen_instance(ExperimentConfig(n=1024, snr_db=snr_db), seed)
        x_hat, out = block_pr_solve(instance, SolverSpec("alt_proj", seed=seed), parallelism=1)
        xs = [x[cs] for cs in instance.partition.col_slices()]
        assert max(nmse(xi, zi) for xi, zi in zip(xs, out.block_estimates)) <= 1e-2
        assert nmse(x, x_hat) <= (5e-3 if snr_db == 30.0 else 1e-15)


def test_wf_recovers_the_n512_benchmark_instance_its_start_missed():
    # instance 2 of the wf-n512-mono benchmark workload at seed 1: one of its
    # blocks came back wrong from the truncated spectral start, and the
    # estimate read NMSE 0.28 and block-row misfit 0.153, beyond the
    # benchmark's limits (0.01 and 0.079)
    trial = mix_seed(1, 2, 512, 2)
    instance, x = gen_instance(ExperimentConfig(n=512, snr_db=30.0), trial)
    x_hat, _ = block_pr_solve(instance, SolverSpec("wf_truncated", seed=trial))
    a = np.sqrt(instance.base.measurements)
    misfit = np.linalg.norm(np.abs(apply(instance.base.operator, x_hat)) - a) / np.linalg.norm(a)
    assert nmse(x, x_hat) <= 0.01
    assert misfit <= 0.079


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


def test_blas_threads_are_read_at_import_not_per_call(forked, monkeypatch):
    # OpenBLAS fixed its thread count when numpy loaded; a later change
    # to the environment must not turn the pool on
    monkeypatch.setattr(pipeline, "_BLAS_ENV", {})
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(pipeline, "_POOL_MIN_ENTRIES", 0)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    instance, _ = make_block_instance(79, k=2, n_i=8)
    solve_blocks(instance, SolverSpec("wf_truncated", seed=1), parallelism=2)
    assert forked == []


def test_worker_processes_isolate_block_faults(forced_split):
    instance, _ = make_block_instance(77, k=4, n_i=8)
    with pytest.raises(BlockSolveError) as ei:
        solve_blocks(_zero_block(instance, 1), SolverSpec("wf_truncated", seed=1), parallelism=2)
    assert len(forced_split) == 1
    assert set(ei.value.failures) == {1}
    assert set(ei.value.completed) == {0, 2, 3}
    z, _ = ei.value.completed[2]
    assert z.shape == (8,)


def test_dead_worker_raises_block_solve_error(forced_split, monkeypatch):
    parent = os.getpid()
    solve_one = pipeline._solve_one_block

    def dies_on_block_1(*job):
        if job[-1] == 1:
            assert os.getpid() != parent, "block 1 ran in the test process"
            os._exit(3)
        return solve_one(*job)

    monkeypatch.setattr(pipeline, "_solve_one_block", dies_on_block_1)
    instance, _ = make_block_instance(78, k=4, n_i=8)
    with pytest.raises(BlockSolveError) as ei:
        solve_blocks(instance, SolverSpec("wf_truncated", seed=1), parallelism=2)
    assert len(forced_split) == 1
    err = ei.value
    # the child's share is blocks 1 and 3; it returned neither
    assert set(err.failures) == {1, 3}
    for i in (1, 3):
        assert isinstance(err.failures[i], ChildProcessError)
        assert "exit status 3" in str(err.failures[i])
    assert "block 1:" in str(err) and "block 3:" in str(err)
    assert set(err.failures) | set(err.completed) == {0, 1, 2, 3}
    assert not set(err.failures) & set(err.completed)
    _no_child_left()


def test_interrupt_in_the_parent_kills_and_reaps_the_child(forced_split, monkeypatch):
    parent = os.getpid()
    solve_one = pipeline._solve_one_block

    def interrupted(*job):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(90)  # still running when the parent's share raises, and past the alarm
        return solve_one(*job)

    monkeypatch.setattr(pipeline, "_solve_one_block", interrupted)
    instance, _ = make_block_instance(80, k=4, n_i=8)
    with pytest.raises(KeyboardInterrupt):
        solve_blocks(instance, SolverSpec("wf_truncated", seed=1), parallelism=2)
    assert len(forced_split) == 1
    _no_child_left()


def test_unpicklable_block_exception_comes_back_as_a_failure(forced_split, monkeypatch):
    class Unpicklable(Exception):  # a local class cannot be pickled by reference
        pass

    solve_one = pipeline._solve_one_block

    def raises_on_block_1(*job):
        if job[-1] == 1:
            raise Unpicklable("block 1 failed")
        return solve_one(*job)

    monkeypatch.setattr(pipeline, "_solve_one_block", raises_on_block_1)
    instance, _ = make_block_instance(81, k=4, n_i=8)
    with pytest.raises(BlockSolveError) as ei:
        solve_blocks(instance, SolverSpec("wf_truncated", seed=1), parallelism=2)
    assert len(forced_split) == 1
    err = ei.value
    assert set(err.failures) == {1}
    assert type(err.failures[1]) is RuntimeError
    assert "Unpicklable('block 1 failed')" in str(err.failures[1])
    assert set(err.completed) == {0, 2, 3}
    _no_child_left()


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="lists open fds from /proc")
def test_failed_fork_closes_the_pipe(forced_split, monkeypatch):
    def no_fork():
        raise BlockingIOError(errno.EAGAIN, "fork refused")

    monkeypatch.setattr(os, "fork", no_fork)
    instance, _ = make_block_instance(82, k=4, n_i=8)
    fds = set(os.listdir("/proc/self/fd"))
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, [])
    with pytest.raises(BlockingIOError, match="fork refused"):
        solve_blocks(instance, SolverSpec("wf_truncated", seed=1), parallelism=2)
    assert set(os.listdir("/proc/self/fd")) == fds
    assert signal.pthread_sigmask(signal.SIG_BLOCK, []) == mask


def test_signal_mask_is_restored_in_parent_and_child(forced_split, monkeypatch):
    # signals are held off from the fork until the child is recorded
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, [])
    solve_one = pipeline._solve_one_block

    def checks_mask(*job):
        if signal.pthread_sigmask(signal.SIG_BLOCK, []) != mask:
            raise RuntimeError(f"block {job[-1]} ran with signals blocked")
        return solve_one(*job)

    monkeypatch.setattr(pipeline, "_solve_one_block", checks_mask)
    instance, _ = make_block_instance(83, k=4, n_i=8)
    solve_blocks(instance, SolverSpec("wf_truncated", seed=1), parallelism=2)
    assert len(forced_split) == 1
    assert signal.pthread_sigmask(signal.SIG_BLOCK, []) == mask


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
    xs = [x[cs] for cs in instance.partition.col_slices()]
    b = build_tuning_matrix(xs, instance.tuning_matrix, instance.partition)
    lhs = np.abs(b @ np.ones(3))
    rhs = np.abs(apply(instance.tuning_matrix, x))
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
    xs = [x[cs] for cs in instance.partition.col_slices()]
    b = build_tuning_matrix(xs, instance.tuning_matrix, instance.partition)
    y_t = np.abs(apply(instance.tuning_matrix, x))
    d, rep = phase_tune(b, y_t, SolverSpec("unit_modulus_tuner", seed=4, restarts=50))
    merged = merge(xs, d)
    assert nmse(x, merged) <= 1e-10


@pytest.mark.parametrize("k", [2, 4, 8])
def test_phase_tune_recovers_injected_phases(k):
    rng = generator(300 + k)
    instance, x = make_block_instance(mix_seed(222, k), k=k, n_i=16)
    xs = [x[cs] for cs in instance.partition.col_slices()]
    phases = rng.uniform(0, 2 * np.pi, k)
    shifted = [xi * np.exp(1j * p) for xi, p in zip(xs, phases)]
    b = build_tuning_matrix(shifted, instance.tuning_matrix, instance.partition)
    y_t = np.abs(apply(instance.tuning_matrix, x))
    d, _ = phase_tune(b, y_t, SolverSpec("unit_modulus_tuner", seed=5, restarts=50))
    rel = d * np.conj(d[0])
    target = np.exp(-1j * (phases - phases[0]))
    assert np.max(np.abs(rel - target)) <= 1e-6


def test_phase_tune_recovers_injected_phases_at_k64():
    # acceptance criterion 2's draw at K = 64 (N = 8192 runs auto-K 64): a
    # noiseless 1280 x 64 tuning matrix, factored through its Gram matrix.
    # On 20 such draws every run stopped on tol in its first restart, with
    # the phases 2.7e-10 to 6.7e-10 off
    k, n_i = 64, 16
    rng = generator(mix_seed(7_064, 0))
    x = complex_normal(rng, k * n_i)
    a = complex_normal(rng, (20 * k, k * n_i))
    phases = rng.uniform(0, 2 * np.pi, k)
    b = np.stack([a[:, i * n_i:(i + 1) * n_i] @ (x[i * n_i:(i + 1) * n_i] * np.exp(1j * p))
                  for i, p in enumerate(phases)], axis=1)
    d, rep = phase_tune(b, np.abs(a @ x), SolverSpec("unit_modulus_tuner", seed=6, restarts=50))
    assert rep.stop_reason == "tol"
    rel = d * np.conj(d[0])
    assert np.max(np.abs(rel - np.exp(-1j * (phases - phases[0])))) <= 1e-6


def test_phase_tune_beta_one_fails_sometimes():
    # L = K leaves the tuning system underdetermined in practice; the run
    # must flag non-convergence rather than silently pretend success. A
    # config with beta = 1 is below the injectivity bound, so the signal and
    # the tuning rows are drawn directly, from gen_instance's seed lanes
    part = BlockPartition((96,) * 4, (16,) * 4)
    non_converged = 0
    for t in range(10):
        seed = mix_seed(333, t)
        x = complex_normal(generator(mix_seed(seed, _LANE_X, 0)), 64)
        a = complex_normal(generator(mix_seed(seed, _LANE_TUNING_MATRIX, 0)), (4, 64))
        xs = [x[cs] for cs in part.col_slices()]
        phases = generator(mix_seed(334, t)).uniform(0, 2 * np.pi, 4)
        shifted = [xi * np.exp(1j * p) for xi, p in zip(xs, phases)]
        b = build_tuning_matrix(shifted, a, part)
        y_t = np.abs(apply(a, x))
        d, rep = phase_tune(b, y_t, SolverSpec("unit_modulus_tuner", seed=6, restarts=10))
        err = nmse(x, merge(shifted, d))
        if not rep.converged or err > 1e-6:
            non_converged += 1
    assert non_converged >= 1


def test_tuner_restarts_agree_at_the_stop_resolution():
    # on noisy tuning data the tuner's restarts stall on one floor, and they
    # agree at the stop rule's resolution, 1e-3: 2.15 restarts on average
    # here. At 1e-6 all but one ran to the 50-restart cap (47.8 on average)
    cfg = ExperimentConfig(n=512, k="auto", snr_db=30.0, trials=1)
    used = []
    for i in range(20):
        instance, _ = gen_instance(cfg, mix_seed(77, 2, 512, i))
        _, out = block_pr_solve(instance, SolverSpec("wf_truncated", seed=i))
        assert out.tuning_report.stop_reason == "stall", i
        used.append(out.tuning_report.restarts_used)
    assert np.mean(used) <= 3, used


@pytest.mark.parametrize("kind", ["alt_proj", "wf_truncated"])
def test_phase_tune_rejects_other_solvers(kind):
    # the tuning step is the unit-modulus problem; other solvers only renormalized
    instance, x = make_block_instance(444, k=2, n_i=16)
    xs = [x[cs] for cs in instance.partition.col_slices()]
    b = build_tuning_matrix(xs, instance.tuning_matrix, instance.partition)
    y_t = np.abs(apply(instance.tuning_matrix, x))
    with pytest.raises(ValueError, match="unit-modulus tuner only"):
        phase_tune(b, y_t, SolverSpec(kind, seed=7, restarts=10))


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
    xs = [x[cs] for cs in part.col_slices()]
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
    y2 = measure(op, x2)
    assert np.allclose(y2, instance.base.measurements, rtol=1e-12)  # blocks blind to theta
    inst2 = BlockPRInstance(
        PRInstance(op, y2, "intensity"),
        instance.tuning_matrix,
        measure(instance.tuning_matrix, x2),
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

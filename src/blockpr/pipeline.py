"""End-to-end block-based phase retrieval.

The pipeline splits a block-diagonal measurement problem into K
independent sub-problems, solves them with a configurable base solver
(optionally in worker processes), then resolves the K unknown per-block phase
factors from the extra global tuning measurements and merges:

1. blocking step: solve y_i = |H_i x_i| per block -> estimates x_i_hat,
   each correct only up to its own phase e^{j phi_i};
2. phase tuning: solve the K-dimensional problem y_t = |B d| with
   B[:, i] = A_i @ x_i_hat for unit-modulus d (d_i ~ e^{-j phi_i});
3. merge: x_hat = concat(d_0 * x_0_hat, ..., d_{K-1} * x_{K-1}_hat).

Per-block solver seeds are derived from the master seed and the block
index, so the result is a pure function of (instance, specs, seeds): runs
are bitwise identical whether blocks execute sequentially or on any number
of workers.

Parallel block solves run in worker processes forked for each
:func:`solve_blocks` call, not in threads: one WF iteration on a block is a
few dozen numpy calls on arrays of a few hundred entries, and each call
drops and retakes the GIL, so two threads took about twice as long for
twice the work. Forking shares the read-only blocks copy-on-write; each
worker sends back only its (estimate, report) pairs. The worker count is
``min(parallelism, K, usable CPUs // BLAS threads)`` (see
:func:`_worker_count`), so that workers times BLAS threads never exceeds
the CPUs: two forked workers each running a 2-thread OpenBLAS were ~45x
slower than one. BLAS threads are what OpenBLAS, numpy's BLAS, reads from
``OPENBLAS_NUM_THREADS``, ``GOTO_NUM_THREADS`` or ``OMP_NUM_THREADS``, and
one per CPU when none is set, in which case the blocks run in-process, one
after another. OpenBLAS reads these variables once, when numpy loads it,
so this module reads them once too, when it is imported; setting them
later changes neither. Forking costs ~15-27 ms per call (two workers
forked from a 210 MB process on a 2-vCPU VM), more than a second worker
saves on a small problem, so blocks holding fewer than
``_POOL_MIN_ENTRIES`` matrix entries in all are solved in-process too.
Forking a process whose other threads hold locks can deadlock the child,
so do not call with ``parallelism > 1`` while other threads of the
process are running.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from collections.abc import Mapping
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .core import BlockPartition, BlockPRInstance, PRInstance, concat_blocks
from .forward import magnitudes_from_intensity
from .rng import mix_seed
from .solvers import APParams, SolverReport, SolverSpec, solve_pr, unit_modulus_tune

__all__ = [
    "BlockSolveError",
    "BlockSolveOutput",
    "StageTimes",
    "block_pr_solve",
    "block_seed",
    "build_tuning_matrix",
    "merge",
    "phase_tune",
    "solve_blocks",
]

_LANE_BLOCK = 0
_LANE_TUNE = 1

# the variables OpenBLAS reads for its thread count, in its order; with none
# set it starts one thread per CPU. It reads them when numpy loads it, and
# so does this module, at import (importing it loads numpy)
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
_BLAS_ENV = {var: os.environ[var] for var in _BLAS_THREAD_VARS if var in os.environ}
# blocks with fewer matrix entries than this in all are solved in-process:
# with OpenBLAS pinned to 1 thread on 2 CPUs, two workers took 1.0-1.9x as
# long as one process for WF and AP blocking steps at N = 256 (K = 4, up to
# 2^18 entries), 0.65-1.27x at N = 512 (3 * 2^17), and 0.49-0.69x at
# N >= 1024 (3 * 2^18 and more)
_POOL_MIN_ENTRIES = 2**19
_CAN_FORK = "fork" in multiprocessing.get_all_start_methods()


def block_seed(master_seed: int, block_index: int) -> int:
    """Solver seed for one block; fixed function of (master seed, index)."""
    return mix_seed(master_seed, _LANE_BLOCK, block_index)


def tuning_seed(master_seed: int) -> int:
    """Solver seed for the phase-tuning step under a master seed."""
    return mix_seed(master_seed, _LANE_TUNE, 0)


class BlockSolveError(RuntimeError):
    """One or more block solves failed.

    ``failures`` maps block index to the underlying exception; completed
    blocks stay available in ``completed`` (index -> (estimate, report))
    for diagnosis.
    """

    def __init__(self, failures: dict[int, Exception], completed: dict[int, tuple]):
        self.failures = failures
        self.completed = completed
        detail = "; ".join(f"block {i}: {e}" for i, e in sorted(failures.items()))
        super().__init__(f"{len(failures)} block solve(s) failed: {detail}")


@dataclass(frozen=True)
class StageTimes:
    """Wall-clock seconds spent in each pipeline stage."""

    blocking_s: float
    tuning_s: float
    merge_s: float

    @property
    def total_s(self) -> float:
        return self.blocking_s + self.tuning_s + self.merge_s


@dataclass(frozen=True)
class BlockSolveOutput:
    """Everything the pipeline produced besides the merged estimate."""

    block_estimates: tuple[np.ndarray, ...]
    per_block_reports: tuple[SolverReport, ...]
    d_hat: np.ndarray
    tuning_report: SolverReport
    stage_times: StageTimes


def _solve_one_block(block, meas_slice, kind, snr_db, spec, index):
    sub = PRInstance(block, meas_slice, kind, snr_db)
    sub_spec = replace(spec, seed=block_seed(spec.seed, index))
    return solve_pr(sub, sub_spec)


def _blas_threads(environ: Mapping[str, str], cpus: int) -> int:
    """Threads OpenBLAS runs per process when started under ``environ``."""
    for var in _BLAS_THREAD_VARS:
        try:
            n = int(environ.get(var, ""))
        except ValueError:
            continue
        if n >= 1:
            return n
    return cpus


def _worker_count(
    parallelism: int,
    n_blocks: int,
    entries: int,
    cpus: int,
    environ: Mapping[str, str],
    can_fork: bool,
) -> int:
    """Worker processes for a blocking step: min(parallelism, K, cpus // BLAS threads).

    1 (solve in-process) when the platform cannot fork or the K blocks hold
    fewer than ``_POOL_MIN_ENTRIES`` matrix entries in all.
    """
    if not can_fork or entries < _POOL_MIN_ENTRIES:
        return 1
    return max(1, min(parallelism, n_blocks, cpus // _blas_threads(environ, cpus)))


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# the blocking step's jobs; set only in worker processes, by the pool's
# initializer, so tasks need carry nothing but a block index
_worker_jobs: list = []


def _set_worker_jobs(jobs: list) -> None:
    global _worker_jobs
    _worker_jobs = jobs


def _solve_worker_job(index: int):
    return _solve_one_block(*_worker_jobs[index])


def solve_blocks(
    instance: BlockPRInstance,
    spec: SolverSpec,
    parallelism: int = 1,
) -> list[tuple[np.ndarray, SolverReport]]:
    """Solve the K independent per-block sub-problems.

    Block i runs the base solver on (H_i, y_i) with seed
    ``block_seed(spec.seed, i)``. Up to ``parallelism`` blocks are in
    flight at once, each in its own worker process forked for this call;
    the worker count is ``min(parallelism, K, usable CPUs // BLAS
    threads)``, with BLAS threads as the environment gave them when this
    module was imported. With one worker, and for blocks holding fewer
    than ``_POOL_MIN_ENTRIES`` matrix entries in all, the blocks run in
    this process: forking costs ~15-27 ms per call. Do not call with
    ``parallelism > 1`` while other threads of this process are running.
    Results are keyed by block index, so the output does not depend on
    scheduling. If any block fails, all remaining blocks still run and a
    :class:`BlockSolveError` carrying the completed results is raised; a
    worker process that dies fails every block it had not returned.
    """
    if parallelism < 1:
        raise ValueError("parallelism must be >= 1")
    op = instance.base.operator
    part = op.partition
    y = instance.base.measurements
    kind = instance.base.kind
    snr = instance.base.snr_db
    jobs = [
        (op.blocks[i], y[rs], kind, snr, spec, i)
        for i, rs in enumerate(part.row_slices())
    ]

    results: dict[int, tuple] = {}
    failures: dict[int, Exception] = {}
    entries = sum(block.size for block in op.blocks)
    workers = _worker_count(
        parallelism, len(jobs), entries, _usable_cpus(), _BLAS_ENV, _CAN_FORK
    )
    if workers == 1:
        for i, job in enumerate(jobs):
            try:
                results[i] = _solve_one_block(*job)
            except Exception as exc:  # noqa: BLE001 - reported per block
                failures[i] = exc
    else:
        # fork hands the jobs to the workers unpickled
        with ProcessPoolExecutor(
            max_workers=workers,
            mp_context=multiprocessing.get_context("fork"),
            initializer=_set_worker_jobs,
            initargs=(jobs,),
        ) as pool:
            futures = {i: pool.submit(_solve_worker_job, i) for i in range(len(jobs))}
        for i, fut in futures.items():
            try:
                results[i] = fut.result()
            except Exception as exc:  # noqa: BLE001 - incl. BrokenProcessPool
                failures[i] = exc
    if failures:
        raise BlockSolveError(failures, results)
    return [results[i] for i in range(part.n_blocks)]


def build_tuning_matrix(
    block_estimates, tuning_matrix: np.ndarray, partition: BlockPartition
) -> np.ndarray:
    """Compress the L x N tuning matrix to L x K using the block estimates.

    Column i is A_i @ x_i_hat, where A_i is the i-th column slice of the
    tuning matrix under the partition.
    """
    a = np.asarray(tuning_matrix, dtype=np.complex128)
    if a.shape[1] != partition.total_cols:
        raise ValueError(
            f"tuning matrix has {a.shape[1]} columns, partition expects {partition.total_cols}"
        )
    estimates = list(block_estimates)
    if len(estimates) != partition.n_blocks:
        raise ValueError(
            f"got {len(estimates)} estimates for {partition.n_blocks} blocks"
        )
    cols = []
    for est, cs, n_i in zip(estimates, partition.col_slices(), partition.col_sizes):
        est = np.asarray(est, dtype=np.complex128)
        if est.shape != (n_i,):
            raise ValueError(f"block estimate has shape {est.shape}, expected ({n_i},)")
        cols.append(a[:, cs] @ est)
    return np.stack(cols, axis=1)


def phase_tune(
    compressed: np.ndarray, y_t: np.ndarray, spec: SolverSpec
) -> tuple[np.ndarray, SolverReport]:
    """Solve the K-dimensional tuning problem y_t = |B d| for unit-modulus d.

    Delegates to the configured solver; non-constrained solvers get their
    output renormalized entrywise so the returned d is always unit-modulus.
    """
    params = spec.params if isinstance(spec.params, APParams) else APParams()
    if spec.kind == "unit_modulus_tuner":
        return unit_modulus_tune(compressed, y_t, params, spec.seed, spec.restarts)
    inst = PRInstance(compressed, y_t, "magnitude")
    d, report = solve_pr(inst, spec)
    absd = np.abs(d)
    out = np.ones_like(d)
    np.divide(d, absd, out=out, where=absd >= 1e-14)
    return out, report


def merge(block_estimates, d_hat: np.ndarray) -> np.ndarray:
    """Final estimate: concatenate the phase-corrected block estimates."""
    d_hat = np.asarray(d_hat, dtype=np.complex128)
    parts = list(block_estimates)
    if len(parts) != len(d_hat):
        raise ValueError(f"{len(parts)} estimates but {len(d_hat)} phase factors")
    return concat_blocks([d * p for d, p in zip(d_hat, parts)])


def block_pr_solve(
    instance: BlockPRInstance,
    block_spec: SolverSpec,
    tune_spec: SolverSpec | None = None,
    parallelism: int | None = None,
) -> tuple[np.ndarray, BlockSolveOutput]:
    """Run the full pipeline: blocking step, phase tuning, merge.

    ``parallelism`` bounds the number of concurrent block solves (default:
    K, which the CPU count caps); it affects wall time only, never the
    result. The blocks run in forked worker processes when
    :func:`solve_blocks` gets more than one worker (see there: the count is
    ``min(parallelism, K, usable CPUs // BLAS threads)``, and small
    problems stay in-process because forking costs ~15-27 ms per call), so
    do not call with ``parallelism > 1`` while other threads are running.
    With K = 1 the tuning step is vacuous and is skipped (d = [1]), making the
    pipeline bitwise identical to the base solver on the dense problem.
    ``tune_spec`` defaults to the unit-modulus tuner with at most 50
    restarts and a seed derived from the block spec's master seed.
    """
    part = instance.partition
    k = part.n_blocks
    if parallelism is None:
        parallelism = k
    if tune_spec is None:
        tune_spec = SolverSpec(
            kind="unit_modulus_tuner", seed=tuning_seed(block_spec.seed), restarts=50
        )

    t0 = time.perf_counter()
    solved = solve_blocks(instance, block_spec, parallelism)
    t1 = time.perf_counter()
    estimates = tuple(z for z, _ in solved)
    reports = tuple(rep for _, rep in solved)

    if k == 1:
        d_hat = np.ones(1, dtype=np.complex128)
        tuning_report = SolverReport(0, 0.0, 0, 0.0, True, "tol")
        t2 = time.perf_counter()
        x_hat = estimates[0].copy()
    else:
        compressed = build_tuning_matrix(estimates, instance.tuning_matrix, part)
        if instance.base.kind == "intensity":
            y_t = magnitudes_from_intensity(instance.tuning_measurements)
        else:
            y_t = instance.tuning_measurements
        d_hat, tuning_report = phase_tune(compressed, y_t, tune_spec)
        t2 = time.perf_counter()
        x_hat = merge(estimates, d_hat)
    t3 = time.perf_counter()

    out = BlockSolveOutput(
        block_estimates=estimates,
        per_block_reports=reports,
        d_hat=d_hat,
        tuning_report=tuning_report,
        stage_times=StageTimes(blocking_s=t1 - t0, tuning_s=t2 - t1, merge_s=t3 - t2),
    )
    return x_hat, out

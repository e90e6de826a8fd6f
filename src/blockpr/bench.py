"""Experiment harness: instance generation, trials, sweeps, report emission.

Instances follow the standard protocol for this problem family: i.i.d.
zero-mean complex Gaussian signal, measurement blocks and tuning rows,
oversampling alpha = M/N per block, L = beta*K dense global tuning rows,
and Gaussian noise added to the intensity measurements at a configured SNR.

Everything is deterministic given (config, seed): per-trial seeds are
derived from the config seed, so identical configs reproduce identical
NMSE values (timings excluded). Timed trials always run one at a time to
keep wall-clock measurements clean.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Literal, TextIO, get_args

import numpy as np

from .core import BlockPRInstance, KRBDMatrix, PRInstance
from .forward import NoiseSpec, add_noise_intensity, measure, nmse
from .pipeline import _usable_cpus, block_pr_solve, block_seed
from .rng import complex_normal, generator, mix_seed
from .solvers import SolverSpec, StopReason, solve_pr

__all__ = [
    "ExperimentConfig",
    "SweepRow",
    "SweepTable",
    "TrialRecord",
    "emit_report",
    "gen_instance",
    "run_trial",
    "select_k",
    "sweep",
]

# fixed sub-seed lanes (see rng.mix_seed); pipeline uses lanes 0-1
_LANE_TRIAL = 2
_LANE_WARMUP = 3
_LANE_X = 10
_LANE_BLOCK_MATRIX = 11
_LANE_TUNING_MATRIX = 12
_LANE_NOISE_Y = 13
_LANE_NOISE_TUNING = 14

# Empirical best-K law fitted to the reference speedup table: constant
# target block size (128 columns), rounded to a power of two and clamped
# to [4, 64]. Reproduces K = {4,4,8,16,32,64,64} for N = 2^8..2^14.
_EMPIRICAL_BLOCK_COLS = 128.0
_EMPIRICAL_K_MIN = 4
_EMPIRICAL_K_MAX = 64

_STOP_REASONS = get_args(StopReason)

CSV_COLUMNS = [
    "N", "K", "alpha", "beta", "snr_db", "trials", "nmse_median", "nmse_mean",
    "blocking_s", "tuning_s", "total_s",
    *(f"block_{r}" for r in _STOP_REASONS), *(f"tuning_{r}" for r in _STOP_REASONS),
    "monolithic_s", "speedup",
]


def _nearest_pow2(v: float) -> int:
    if v <= 1.0:
        return 1
    return int(2 ** round(math.log2(v)))


def select_k(n: int, mode: Literal["empirical"] = "empirical") -> int:
    """Pick the number of blocks for signal size ``n``.

    Uses the block-size law fitted to the reference table (128 target block
    columns, K clamped to [4, 64]), snapped to a divisor of ``n`` no larger
    than n/4. ``mode`` accepts only "empirical".
    """
    if n < 4:
        raise ValueError("need n >= 4")
    if mode != "empirical":
        raise ValueError(f"unknown mode {mode!r}")
    k = _nearest_pow2(n / _EMPIRICAL_BLOCK_COLS)
    k = min(max(k, _EMPIRICAL_K_MIN), _EMPIRICAL_K_MAX)
    divisors = [d for d in range(1, n // 4 + 1) if n % d == 0]
    return min(divisors, key=lambda d: (abs(math.log(d) - math.log(k)), d))


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment's parameters; JSON files use these exact field names."""

    n: int
    k: int | str = "auto"
    alpha: float = 6.0
    beta: float = 20.0
    snr_db: float = 30.0
    trials: int = 100
    seed: int = 0
    solver: SolverSpec = field(default_factory=lambda: SolverSpec("wf_truncated"))
    noisy_tuning: bool = True
    parallelism: int | None = None
    output_path: str | None = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be positive")
        if self.alpha <= 0 or self.beta <= 0:
            raise ValueError("alpha and beta must be positive")
        if self.k != "auto":
            object.__setattr__(self, "k", int(self.k))
            if self.k < 1:
                raise ValueError("k must be >= 1 or 'auto'")
        if math.isnan(self.snr_db):
            raise ValueError("snr_db must be a number or +inf")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.parallelism is not None and self.parallelism < 1:
            raise ValueError("parallelism must be >= 1")

    def resolved_k(self) -> int:
        """K, with "auto" resolved by :func:`select_k`, checked against n, alpha and beta.

        K must divide n, and leave each block and the tuning step at least
        the measurements :func:`_require_injective` asks for. K is checked
        against n here only, not when the config is built, so a sweep
        template stays valid whatever its points resolve to.
        """
        k = select_k(self.n) if self.k == "auto" else self.k
        if self.n % k:
            raise ValueError(f"n={self.n} is not divisible into k={k} equal blocks")
        m_per = self.alpha * (self.n // k)
        if abs(m_per - round(m_per)) > 1e-9:
            raise ValueError(f"alpha*(n/k) = {m_per} is not integral (k={k})")
        if round(self.beta * k) < 1:
            raise ValueError(f"beta*k = {self.beta}*{k} rounds to no tuning rows")
        _require_injective(round(m_per), self.n // k, f"alpha*(n/k) = {self.alpha}*{self.n // k}")
        _require_injective(round(self.beta * k), k, f"beta*k = {self.beta}*{k}")
        return k


def _require_injective(rows: int, unknowns: int, what: str) -> None:
    """Raise ValueError if ``rows`` intensities are too few for ``unknowns``.

    Generic phase retrieval in C^n is injective only from 4n - 4
    measurements on (Balan, Casazza & Edidin 2006; Conca, Edidin, Hering &
    Vinzant 2015). Below that bound no solver can be right in general, so a
    block needs alpha*n_i >= 4 n_i - 4 rows and the tuning step, with K
    unknown phases, beta*K >= 4K - 4.
    """
    if rows < 4 * unknowns - 4:
        raise ValueError(f"{what} gives {rows} rows for {unknowns} unknowns, below the "
                         f"phase-retrieval injectivity bound 4*{unknowns} - 4 = {4 * unknowns - 4}")


def _draw_matrix(seed: int, shape: tuple[int, int], dtype) -> np.ndarray:
    a = complex_normal(generator(seed), shape).astype(dtype, copy=False)
    a.setflags(write=False)  # KRBDMatrix and BlockPRInstance keep it without a copy
    return a


def _draw_matrices(draws: list[tuple[int, tuple[int, int], type]]) -> list[np.ndarray]:
    """The Gaussian matrix of each (seed, shape, dtype) draw, in order.

    Each is drawn in complex128 and rounded to its dtype on its thread. The
    draws run on threads, largest first, since numpy fills normal
    samples with the GIL released. The pool is joined before this returns:
    the blocking step may fork, and no thread may outlive generation.
    """
    order = sorted(range(len(draws)), key=lambda i: -math.prod(draws[i][1]))
    with ThreadPoolExecutor(max_workers=min(len(draws), _usable_cpus())) as pool:
        futures = {i: pool.submit(_draw_matrix, *draws[i]) for i in order}
    return [futures[i].result() for i in range(len(draws))]


def gen_instance(cfg: ExperimentConfig, trial_seed: int) -> tuple[BlockPRInstance, np.ndarray]:
    """Draw one synthetic problem and its ground truth under ``trial_seed``.

    The blocks are drawn in complex128 and rounded to complex64, the
    precision :class:`~blockpr.core.KRBDMatrix` stores; their intensities
    are measured from the rounded blocks in complex128 arithmetic, so a
    noiseless instance is exact. The tuning matrix stays complex128.
    """
    k = cfg.resolved_k()
    n_i = cfg.n // k
    m_i = math.ceil(cfg.alpha * n_i - 1e-9)
    ell = round(cfg.beta * k)
    x = complex_normal(generator(mix_seed(trial_seed, _LANE_X, 0)), cfg.n)
    draws = [(mix_seed(trial_seed, _LANE_TUNING_MATRIX, 0), (ell, cfg.n), np.complex128)]
    draws += [(mix_seed(trial_seed, _LANE_BLOCK_MATRIX, i), (m_i, n_i), np.complex64)
              for i in range(k)]
    a_mat, *blocks = _draw_matrices(draws)
    op = KRBDMatrix(tuple(blocks))

    y = add_noise_intensity(
        measure(op, x, "intensity"),
        NoiseSpec(cfg.snr_db, mix_seed(trial_seed, _LANE_NOISE_Y, 0)),
    )
    tuning_snr = cfg.snr_db if cfg.noisy_tuning else math.inf
    y_t = add_noise_intensity(
        measure(a_mat, x, "intensity"),
        NoiseSpec(tuning_snr, mix_seed(trial_seed, _LANE_NOISE_TUNING, 0)),
    )
    base = PRInstance(op, y, "intensity", snr_db=cfg.snr_db)
    return BlockPRInstance(base, a_mat, y_t, cfg.beta), x


@dataclass(frozen=True)
class TrialRecord:
    """Outcome of one trial: accuracy, stage timings, optional baseline."""

    n: int
    k: int
    seed: int
    nmse: float
    blocking_s: float
    tuning_s: float
    merge_s: float
    total_s: float
    monolithic_s: float | None = None
    speedup: float | None = None
    converged_blocks: tuple[bool, ...] = ()
    converged_tuning: bool = True
    block_stop_reasons: tuple[str, ...] = ()
    tuning_stop_reason: str = "tol"


def run_trial(cfg: ExperimentConfig, trial_seed: int,
              compare_monolithic: bool = False) -> TrialRecord:
    """Generate an instance, run the block pipeline, optionally time the baseline.

    The monolithic baseline runs the same base solver on the densified
    block-diagonal matrix (without the tuning rows; complex64, as the
    blocks are), seeded as the one-block case so K = 1 comparisons are
    exact.
    """
    instance, x = gen_instance(cfg, trial_seed)
    block_spec = replace(cfg.solver, seed=trial_seed)
    x_hat, out = block_pr_solve(instance, block_spec, None, cfg.parallelism)
    err = nmse(x, x_hat)

    monolithic_s = None
    speedup = None
    if compare_monolithic:
        dense = instance.base.operator.to_dense()
        dense.setflags(write=False)  # avoid a second copy inside PRInstance
        mono = PRInstance(dense, instance.base.measurements, instance.base.kind, cfg.snr_db)
        mono_spec = replace(cfg.solver, seed=block_seed(trial_seed, 0))
        t0 = time.perf_counter()
        solve_pr(mono, mono_spec)
        monolithic_s = time.perf_counter() - t0
        speedup = monolithic_s / out.stage_times.total_s

    return TrialRecord(
        n=cfg.n,
        k=instance.partition.n_blocks,
        seed=trial_seed,
        nmse=err,
        blocking_s=out.stage_times.blocking_s,
        tuning_s=out.stage_times.tuning_s,
        merge_s=out.stage_times.merge_s,
        total_s=out.stage_times.total_s,
        monolithic_s=monolithic_s,
        speedup=speedup,
        converged_blocks=tuple(r.converged for r in out.per_block_reports),
        converged_tuning=out.tuning_report.converged,
        block_stop_reasons=tuple(r.stop_reason for r in out.per_block_reports),
        tuning_stop_reason=out.tuning_report.stop_reason,
    )


@dataclass(frozen=True)
class SweepRow:
    """Aggregates over the trials of one sweep point.

    ``block_stops`` counts the stop reasons of every block solve of every
    trial, and ``tuning_stops`` those of the trials' tuning solves, in the
    order "tol", "stall", "max_iters".
    """

    n: int
    k: int
    alpha: float
    beta: float
    snr_db: float
    trials: int
    nmse_median: float | None = None
    nmse_mean: float | None = None
    blocking_s: float | None = None
    tuning_s: float | None = None
    total_s: float | None = None
    monolithic_s: float | None = None
    speedup: float | None = None
    block_stops: tuple[int, ...] | None = None
    tuning_stops: tuple[int, ...] | None = None
    error: str | None = None

    def as_record(self) -> dict:
        stops = {}
        for stage, counts in (("block", self.block_stops), ("tuning", self.tuning_stops)):
            counts = counts or (None,) * len(_STOP_REASONS)
            stops.update((f"{stage}_{r}", c) for r, c in zip(_STOP_REASONS, counts))
        rec = {
            "N": self.n, "K": self.k, "alpha": self.alpha, "beta": self.beta,
            "snr_db": self.snr_db, "trials": self.trials,
            "nmse_median": self.nmse_median, "nmse_mean": self.nmse_mean,
            "blocking_s": self.blocking_s, "tuning_s": self.tuning_s,
            "total_s": self.total_s, **stops, "monolithic_s": self.monolithic_s,
            "speedup": self.speedup,
        }
        if self.error is not None:
            rec["error"] = self.error
        return rec


@dataclass(frozen=True)
class SweepTable:
    rows: tuple[SweepRow, ...]


def _stop_counts(reasons: list[str]) -> tuple[int, ...]:
    """How many of ``reasons`` are "tol", "stall" and "max_iters"."""
    return tuple(reasons.count(r) for r in _STOP_REASONS)


def _aggregate(cfg: ExperimentConfig, k: int, records: list[TrialRecord]) -> SweepRow:
    errs = [r.nmse for r in records]
    mono = [r.monolithic_s for r in records if r.monolithic_s is not None]
    spd = [r.speedup for r in records if r.speedup is not None]
    return SweepRow(
        n=cfg.n, k=k, alpha=cfg.alpha, beta=cfg.beta, snr_db=cfg.snr_db,
        trials=len(records),
        nmse_median=float(np.median(errs)),
        nmse_mean=float(np.mean(errs)),
        blocking_s=float(np.mean([r.blocking_s for r in records])),
        tuning_s=float(np.mean([r.tuning_s for r in records])),
        total_s=float(np.mean([r.total_s for r in records])),
        monolithic_s=float(np.mean(mono)) if mono else None,
        speedup=float(np.mean(spd)) if spd else None,
        block_stops=_stop_counts([s for r in records for s in r.block_stop_reasons]),
        tuning_stops=_stop_counts([r.tuning_stop_reason for r in records]),
    )


def sweep(cfg_template: ExperimentConfig, *, n_list=None, k_list=None,
          compare_monolithic: bool = False) -> SweepTable:
    """Run ``cfg_template.trials`` trials at each point of an N or K sweep.

    One warm-up trial per point is run and discarded before the timed
    trials. A failing point is recorded with its error message and the
    sweep continues.
    """
    if (n_list is None) == (k_list is None):
        raise ValueError("provide exactly one of n_list or k_list")
    values = list(n_list if n_list is not None else k_list)
    if not values:
        raise ValueError("sweep list is empty")

    rows = []
    for v in values:
        cfg = cfg_template
        try:
            if n_list is not None:
                cfg = replace(cfg_template, n=int(v))
            else:
                cfg = replace(cfg_template, k=int(v))
            k = cfg.resolved_k()
            run_trial(cfg, mix_seed(cfg.seed, _LANE_WARMUP, int(v)), compare_monolithic)
            records = [
                run_trial(cfg, mix_seed(cfg.seed, _LANE_TRIAL, int(v), t), compare_monolithic)
                for t in range(cfg.trials)
            ]
            rows.append(_aggregate(cfg, k, records))
        except Exception as exc:  # noqa: BLE001 - point marked failed, sweep continues
            n_val = int(v) if n_list is not None else cfg_template.n
            if k_list is not None:
                k_val = int(v)
            else:
                k_val = cfg_template.k if isinstance(cfg_template.k, int) else -1
            rows.append(SweepRow(
                n=n_val, k=k_val, alpha=cfg_template.alpha, beta=cfg_template.beta,
                snr_db=cfg_template.snr_db, trials=cfg_template.trials, error=str(exc),
            ))
    return SweepTable(tuple(rows))


def emit_report(table: SweepTable, format: Literal["csv", "json"], path: str | Path) -> None:
    """Write a sweep table to ``path`` as :func:`_write_report` writes it."""
    text = io.StringIO()
    _write_report(table, format, text)
    Path(path).write_text(text.getvalue())


def _write_report(table: SweepTable, format: Literal["csv", "json"], fh: TextIO) -> None:
    """Write a sweep table to a text stream; CSV columns are fixed, JSON mirrors the records."""
    if not table.rows:
        raise ValueError("empty table")
    if format == "csv":
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for row in table.rows:
            rec = row.as_record()
            writer.writerow(["" if rec.get(c) is None else rec.get(c) for c in CSV_COLUMNS])
    elif format == "json":
        json.dump([row.as_record() for row in table.rows], fh, indent=2)
        fh.write("\n")
    else:
        raise ValueError(f"unknown format {format!r}")


"""Pluggable base phase-retrieval solvers.

Three solvers share one calling convention (measurements in, estimate and
:class:`SolverReport` out, explicit seed):

* :func:`wf_solve` -- truncated Wirtinger flow on intensity measurements,
  spectrally initialized. On the Poisson loss each step adds a heavy-ball
  momentum term, 0.6 times the previous step (Polyak 1964), and drops it
  for the next step after the residual rose (an adaptive restart,
  O'Donoghue & Candes 2015); the gaussian loss takes plain gradient steps.
* :func:`altproj_solve` -- alternating projections on the magnitudes, the
  square roots of the intensity measurements, alternating between the data
  modulus constraint and the operator range. The operator is factored
  once, H = Q R, by Cholesky QR (by Householder QR when H is
  ill-conditioned; see :class:`LeastSquaresOperator`), and the iteration
  runs in the coordinates of the orthonormal basis Q, so each step reads Q
  alone and the triangular solve is made once per restart.
* :func:`unit_modulus_tune` -- alternating projections specialized to
  unit-modulus unknowns (the per-block phase factors), through the same
  QR factorization, renormalizing each entry to the unit circle after
  every update.

Every solver is a pure function of (problem, params, seed): restarts use
seeds derived with :func:`blockpr.rng.mix_seed`, the winner is the restart
with the lowest final residual (ties to the lowest restart index), and a
restart that reaches the tolerance stops the restart loop early. Residuals
are the relative magnitude misfit || |H z| - sqrt(y) || / || sqrt(y) || of
an estimate z to the intensities y.

All three share one stop policy (:func:`_stop_reason`): a run ends when its
residual reaches ``tol``, when it stalls (moved by less than 1e-3, relative,
over the last 20 iterations; on noisy data ``tol`` is out of reach and the
plateau is the answer), or at ``max_iters``, and
:class:`SolverReport.stop_reason` says which. A non-finite residual raises
:class:`Diverged`; alternating projections carry a NaN or infinite image
into the residual rather than mapping its phase to 1. The spectral start
ends its power iteration once the unit iterate stops moving, and the phase
tuner ends its restart loop once a restart's final residual agrees with the
best before it. The report also splits the wall time into starting points,
iterations and QR factorization.

The solvers run on dense operators only: the pipeline hands them one
diagonal block at a time, and a :class:`~blockpr.core.KRBDMatrix` raises
``TypeError``.

Precision follows the operator. The spectral start, the WF iteration, the
QR factor and the alternating-projections iteration compute in the
operator's dtype, with float32 real vectors for a complex64 block (the
K-RBD blocks are complex64), since a product of a complex64 matrix with a
complex128 vector would cast the whole matrix. A complex64 block too
ill-conditioned for a single-precision factor is factored, and iterated, in
complex128. WF and alternating projections finish in complex128 once their
residual is at most 1e-5, and every solver returns complex128. The tuner's
matrix is complex128, and so are its factor and iterations.
"""

from __future__ import annotations

import functools
import math
import numbers
import time
from dataclasses import dataclass
from typing import Callable, Literal, NamedTuple, Union, get_args

import numpy as np
import scipy.linalg
from scipy.linalg import blas, lapack

from .core import KRBDMatrix, Operator, PRInstance, as_complex_vector
from .forward import magnitudes_from_intensity
from .rng import complex_normal, generator, mix_seed

__all__ = [
    "APParams",
    "Diverged",
    "NonProgress",
    "RankDeficient",
    "SolverReport",
    "SolverSpec",
    "WFParams",
    "altproj_solve",
    "pinv_factor",
    "solve_pr",
    "spectral_init",
    "unit_modulus_tune",
    "wf_solve",
]

SolverKind = Literal["wf_truncated", "alt_proj", "unit_modulus_tuner"]
StopReason = Literal["tol", "stall", "max_iters"]

# the stall stop: the residual moved by less than _STALL_RTOL, relative, over
# the last _STALL_WINDOW iterations. The spectral start's power iteration ends
# once ||v_k - v_{k-1}|| <= _SPECTRAL_STEP_TOL (unit iterates);
# init_power_iters stays the cap. The three were picked together on the
# benchmark's SNR-30 instances (seeds 1-3: 144 WF blocks at N = 2048, 108 at
# N = 512, 240 AP blocks at N = 1024, and the densified N = 512 baseline):
#
#   window  rtol  spectral  WF iters   power iters  AP iters   baseline    WF NMSE
#                 tol       per block  per start    per block  iters+power per seed
#   50      1e-3  1e-3      111        40           87         120+60      (before)
#   20      1e-3  1e-3       79        40           56          87+60      +0.1..+1.3%
#   50      1e-3  1e-2      110        23           87         128+22      -0.8..+1.6%
#   20      1e-3  1e-2       79        23           56          93+22      -1.3..+2.9%
#   20      1e-3  1.5e-2     80        20           57          95+18      -2.7..+3.1%
#   20      1e-3  2e-2       81        18           58          96+16      +0.1..+3.1%
#   20      1e-3  3e-2       82        16           58         326+14      -1.3..+3.3%
#   20      4e-4  1e-2       86        23           60         109+22      -0.3..+2.8%
#   25      1e-3  1e-2       85        23           62         100+22      -1.2..+2.9%
#   30      1e-3  1e-2       90        23           67         106+22      -1.2..+3.2%
#   15      1e-3  1e-2       74        23           51          85+22      -1.2..+3.9%
#
# AP's NMSE moved by 0.3% at most, and the tuner ran 42 iterations per solve
# at N = 2048 against 70. Paired perfbench runs (wf-n2048-p1, seeds 71-73)
# read a median solve_s of 0.11-0.14 s for every row from 20 to 30 against
# 0.22 s before: too close to rank, so the counts decide. Window 20 runs the
# fewest iterations in 20..30; scaling rtol with the window (4e-4) costs 9%
# more for no NMSE gain; a spectral tol above 1e-2 saves at most 5 power
# iterations per start, and 3e-2 sends the baseline from 93 to 326 WF
# iterations (mono_s 0.37-0.42 s against 0.20-0.22 s).
_STALL_WINDOW = 20
_STALL_RTOL = 1e-3
_SPECTRAL_STEP_TOL = 1e-2
# wf_solve and altproj_solve iterate in their block's precision until the
# residual first reaches this, then finish in complex128. A complex64 iteration
# floors near 1e-7, above either tol, so without the finish a noiseless run
# could not stop on "tol"; at SNR 30 the residual floors near 0.04 and the
# switch never happens
_FINISH_RESID = 1e-5
# beta of wf_solve's heavy-ball step on the Poisson loss. Picked on SNR-30
# instances (trial seeds mix_seed(500, 2, N, i): 30 at N = 2048, 480 blocks;
# 400 at N = 512, 1600 blocks; blocks of 768 x 128) and 20 noiseless N = 256
# instances (80 blocks of 384 x 64), with and without the restart on a
# residual rise:
#
#   beta  restart  N = 2048 iters  block NMSE  N = 512 iters  block NMSE  N = 256
#                  mean    p99     median      mean    p99    median      noiseless
#   0     -        77.8    118     1.186e-3    79.0    119    1.172e-3    254.8
#   0.5   no       50.1     71     1.180e-3    50.3     73    1.161e-3    107.7
#   0.5   yes      51.4     88     1.176e-3    52.2     88    1.166e-3    107.7
#   0.6   no       44.8     61     1.171e-3    45.0     61    1.154e-3     72.6
#   0.6   yes      48.4     83     1.170e-3    48.7     82    1.154e-3     72.6
#   0.7   no       51.5     61     1.175e-3    51.3     61    1.160e-3     98.7
#   0.7   yes      51.9     78     1.177e-3    52.0     78    1.153e-3     96.3
#
# Every SNR-30 block stopped on "stall", every noiseless one on "tol", and
# none diverged. 0.6 runs the fewest iterations. The restart costs 3-4 mean
# iterations here, but it is kept for the harder points: at alpha = 4, the
# injectivity bound's edge (N = 512, 200 blocks), it cut p99 from 303 to 280
# iterations and the "max_iters" stops from 1 to 0 (plain gradient steps: 9).
# At SNR 10 and 20 the two read alike. One case went the other way: at
# step_size 0.4 the restart sent 7 of 200 N = 512 blocks to max_iters, and
# no restart none.
_WF_MOMENTUM = 0.6
# the phase tuner's restart loop ends once a restart's final residual agrees
# with the best so far to this relative tolerance; restarts stays the cap
_TUNE_AGREE_RTOL = 1e-6
# LeastSquaresOperator keeps its Cholesky QR factor only when LAPACK's estimate
# of R's reciprocal 1-norm condition number is at least this. Cholesky QR loses
# orthogonality as cond(H)^2: on 768x128, 320x16 and 48x8 matrices of condition
# 2 to 1e4, the accepted factors had ||Q^H Q - I|| <= 3.8e-12 (cond <= 410),
# against up to 2.8e-10 at 1e-4. A 768x128 Gaussian block reads about 0.05.
_CHOLQR_MIN_RCOND = 1e-3
# the same guard for a complex64 factor, which loses orthogonality as
# cond(H)^2 * 6e-8. On 768x128, 320x16 and 48x8 complex64 matrices of
# condition c, 3 draws each (Q and I compared in complex128):
#
#   c     ctrcon estimate    ||Q^H Q - I||       kept at 5e-3
#   2     4.6e-2 .. 0.34     3.8e-7 .. 2.2e-6    9 of 9
#   10    4.2e-3 .. 5.8e-2   1.6e-6 .. 1.0e-5    8 of 9
#   30    1.3e-3 .. 1.9e-2   8.2e-6 .. 5.1e-5    6 of 9
#   100   4.3e-4 .. 5.5e-3   6.1e-5 .. 3.7e-4    1 of 9 (1.9e-4)
#   300   1.7e-4 .. 1.7e-3   8.8e-4 .. 2.5e-3    0 of 9
#   1e3   5.9e-5 .. 4.9e-4   3.4e-3 .. 2.1e-2    0 of 9
#   1e4   0 .. 5.3e-5        0.26 .. cpotrf fails 0 of 9
#
# Noiseless AP on G C (G Gaussian, so the range and AP's path are G's)
# reached "tol" up to ||Q^H Q - I|| = 4.6e-4, and from 7e-4 up it stalled
# near 1.5e-5, short of the complex128 finish. Gaussian blocks from 4n - 4
# rows (1020x256) to 768x128 read 1.2e-2 to 4.1e-2.
_CHOLQR_MIN_RCOND_SINGLE = 5e-3
# _cholesky_qr forms Q = H R^-1 in place by scipy's trsm for a matrix of at
# least this many entries, and column by column through numpy below it (the
# phase tuner's L x K matrix up to K = 16; AP blocks of 64 columns and more
# are above it). scipy's BLAS is a second OpenBLAS with its own thread pool:
# unpinned, a trsm from about 160 x 8 up leaves its idle worker spinning for
# about 0.13 s, and numpy's BLAS threads in the next trial's blocking step lose
# a CPU to it. On 2 CPUs that doubled a K = 8 blocking step at N = 1024 (0.05
# to 0.09-0.10 s, the median of three 2-trial sweeps), so that it read slower
# than K = 4. The column loop costs about twice trsm's time (0.13 against
# 0.05 ms on 320 x 16, 2.4 against 1.1 ms on a 768 x 128 complex64 block)
_TRSM_MIN_ENTRIES = 2**14


def _is_int(v) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _require_counts(obj, *names: str) -> None:
    """Raise ValueError naming the first of ``obj``'s fields ``names`` that is not an integer."""
    for name in names:
        value = getattr(obj, name)
        if not _is_int(value):
            raise ValueError(f"{name} must be an integer, got {value!r}")


def _require_positive(obj, *names: str) -> None:
    """Raise ValueError naming the first of ``obj``'s fields ``names`` that is not a real > 0.

    A bool is not a real number here, and NaN is not > 0.
    """
    for name in names:
        value = getattr(obj, name)
        if not isinstance(value, numbers.Real) or isinstance(value, bool) or not value > 0:
            raise ValueError(f"{name} must be a positive number, got {value!r}")


class RankDeficient(ValueError):
    """Operator is rank-deficient within the factorization tolerance."""


class NonProgress(RuntimeError):
    """Gradient truncation rejected every measurement for 10 consecutive iterations."""


class Diverged(RuntimeError):
    """A solver's residual became non-finite (NaN or infinite)."""


@dataclass(frozen=True)
class WFParams:
    """Truncated Wirtinger-flow parameters.

    The truncation thresholds and step size follow common TWF conventions
    and are freely tunable; they are not calibrated against any external
    implementation.

    ``loss`` selects the residual weighting: "poisson" divides each
    residual by its own |v_r|^2 (the classical TWF likelihood weight),
    "gaussian" divides by mean(b), which is the variance-matched choice
    when i.i.d. Gaussian noise sits on the intensities and reaches a
    noticeably lower error floor there. The gaussian weighting has a
    stiffer effective curvature; use step_size <= 0.15 with it.
    """

    max_iters: int = 400
    step_size: float = 0.2
    init_power_iters: int = 100
    # keeps rows with b_r <= trunc_y * mean(b); 9 = 3^2, the usual squared-form
    # threshold, which barely truncates exponential-tailed complex intensities
    trunc_y: float = 9.0
    trunc_lb: float = 0.3
    trunc_ub: float = 5.0
    trunc_h: float = 5.0
    tol: float = 1e-8
    loss: Literal["poisson", "gaussian"] = "poisson"

    def __post_init__(self):
        _require_counts(self, "max_iters", "init_power_iters")
        _require_positive(self, "max_iters", "step_size", "init_power_iters", "trunc_y",
                          "trunc_lb", "trunc_ub", "trunc_h", "tol")
        if self.trunc_lb >= self.trunc_ub:
            raise ValueError("trunc_lb must be < trunc_ub")
        if self.loss not in ("poisson", "gaussian"):
            raise ValueError(f"unknown loss {self.loss!r}")


@dataclass(frozen=True)
class APParams:
    """Alternating-projections (and phase-tuner) parameters.

    altproj_solve starts from :func:`spectral_init` on the squared
    magnitudes; ``init`` accepts only "spectral". The tuner ignores
    ``init`` and starts from random unit-modulus phases.
    """

    max_iters: int = 600
    tol: float = 1e-10
    init: Literal["spectral"] = "spectral"

    def __post_init__(self):
        _require_counts(self, "max_iters")
        _require_positive(self, "max_iters", "tol")
        if self.init != "spectral":
            raise ValueError(f"unknown init {self.init!r}; altproj_solve starts spectrally")


SolverParams = Union[WFParams, APParams]


@dataclass(frozen=True)
class SolverSpec:
    """Which base solver to run, with which parameters, seed, and restarts.

    ``params`` must match the kind: :class:`WFParams` for "wf_truncated",
    :class:`APParams` for "alt_proj" and "unit_modulus_tuner"; None means
    that class's defaults.
    """

    kind: SolverKind
    params: SolverParams | None = None
    seed: int = 0
    restarts: int = 1

    def __post_init__(self):
        if self.kind not in get_args(SolverKind):
            raise ValueError(f"unknown solver kind {self.kind!r}")
        want = WFParams if self.kind == "wf_truncated" else APParams
        if self.params is not None and not isinstance(self.params, want):
            raise ValueError(
                f"{self.kind} takes {want.__name__}, got {type(self.params).__name__}"
            )
        _require_counts(self, "restarts")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")


@dataclass(frozen=True)
class SolverReport:
    """Per-run diagnostics of a solver invocation.

    ``final_residual`` is the winning restart's relative misfit
    || |H z| - sqrt(y) || / || sqrt(y) || to the intensities y, and
    ``residuals`` traces it over that restart (entry 0 is the initial
    residual for wf_solve, and each subsequent entry follows one update).
    ``stop_reason`` says why the winning restart stopped: "tol", "stall"
    or "max_iters". ``init_s``, ``iter_s`` and ``factor_s`` split the wall
    time, summed over all restarts run: starting points (spectral or
    random), iterations, and the QR factorization (0 for wf_solve). The
    rest of ``wall_time_seconds`` is set-up and bookkeeping.
    """

    iterations: int
    final_residual: float
    restarts_used: int
    wall_time_seconds: float
    converged: bool
    stop_reason: StopReason
    residuals: tuple[float, ...] = ()
    init_s: float = 0.0
    iter_s: float = 0.0
    factor_s: float = 0.0

    def __post_init__(self):
        if self.final_residual < 0:
            raise ValueError("final_residual must be >= 0")
        if self.stop_reason not in get_args(StopReason):
            raise ValueError(f"unknown stop_reason {self.stop_reason!r}")


_ROW_CHUNK = 256


def _row_norms(h: np.ndarray) -> np.ndarray:
    """Row 2-norms, taken over row chunks so no |h|^2 temporary as large as h is made."""
    return np.concatenate([
        np.linalg.norm(h[i:i + _ROW_CHUNK], axis=1) for i in range(0, h.shape[0], _ROW_CHUNK)
    ])


def _dense(op: Operator, who: str) -> np.ndarray:
    """``op`` itself if dense; a KRBDMatrix raises TypeError."""
    if isinstance(op, KRBDMatrix):
        raise TypeError(f"{who} expects a dense operator; densify or solve per block")
    return op


class _LinOp:
    """Matvec / adjoint-matvec view of a dense operator, with its row norms.

    Computes in the operator's precision: ``real`` is float32 for a
    complex64 operator and float64 for a complex128 one, and the row norms
    are ``real``. Every vector handed to :meth:`matvec` and :meth:`rmatvec`
    must have the operator's dtype, since numpy casts the whole matrix for
    a mixed-precision product. The adjoint is applied as conj(w^H H), so
    no conjugate-transposed copy of the operator is kept.
    """

    def __init__(self, op: np.ndarray):
        self.op = op
        self.shape = op.shape
        self.row_norms = _row_norms(op)
        self.real = self.row_norms.dtype

    def matvec(self, z: np.ndarray) -> np.ndarray:
        return self.op @ z

    def rmatvec(self, w: np.ndarray) -> np.ndarray:
        return (w.conj() @ self.op).conj()

    @functools.cached_property
    def full(self) -> _LinOp:
        """A complex128 copy of this operator, made on first use."""
        return _LinOp(self.op.astype(np.complex128))


def spectral_init(op: np.ndarray | _LinOp, b: np.ndarray, params: WFParams,
                  seed: int) -> np.ndarray:
    """Spectral starting point from intensity measurements.

    Runs power iterations (from a seeded random start) on the truncated
    weighted covariance (1/M) sum_{r in T} b_r h_r h_r^H,
    T = {r : b_r <= trunc_y * mean(b)}, until the unit iterate moves by at
    most 1e-2 in one step, or for ``init_power_iters`` iterations. It then
    scales the unit eigenvector v to ||z0|| = sqrt(N * mean(b) /
    mean(||h_r||^2)) so that ||z0||^2 estimates the signal energy. The
    iteration runs in the operator's precision, and z0 has its dtype.
    """
    lin = op if isinstance(op, _LinOp) else _LinOp(_dense(op, "spectral_init"))
    m, n = lin.shape
    b = np.asarray(b, dtype=np.float64)
    if len(b) != m:
        raise ValueError(f"got {len(b)} measurements for {m} rows")
    mean_b = float(np.mean(b))
    if not np.any(b > 0):
        raise ValueError("zero measurement vector")
    w = (np.where(b <= params.trunc_y * mean_b, b, 0.0) / m).astype(lin.real, copy=False)
    v = complex_normal(generator(seed), n).astype(lin.op.dtype, copy=False)
    v /= np.linalg.norm(v)
    for _ in range(params.init_power_iters):
        v_prev = v
        v = lin.rmatvec(lin.matvec(v) * w)
        nv = np.linalg.norm(v)
        if nv == 0:
            # truncated covariance annihilated the iterate; restart direction
            v = np.ones(n, dtype=lin.op.dtype)
            nv = np.linalg.norm(v)
        v /= nv
        if np.linalg.norm(v - v_prev) <= _SPECTRAL_STEP_TOL:
            break
    scale = math.sqrt(n * mean_b / float(np.mean(lin.row_norms**2)))
    return scale * v


class _Run(NamedTuple):
    """Outcome of one restart."""

    x: np.ndarray
    residual: float
    iterations: int
    trace: list[float]
    reason: StopReason


def _stop_reason(trace: list[float], iterations: int, tol: float,
                 max_iters: int) -> StopReason | None:
    """The stop policy every solver run shares; None means iterate again.

    ``trace`` holds the residuals so far, ``iterations`` the updates made.
    Stops on "tol" once the last residual reaches ``tol``, on "stall" once
    it differs by less than ``_STALL_RTOL`` (relative) from the residual
    ``_STALL_WINDOW`` entries earlier, and on "max_iters" at the cap. A
    residual that keeps growing is not a stall. Raises :class:`Diverged` on
    a non-finite residual.
    """
    resid = trace[-1]
    if not math.isfinite(resid):
        raise Diverged(f"residual became {resid} after {iterations} iterations")
    if resid <= tol:
        return "tol"
    w = _STALL_WINDOW
    if len(trace) > w and abs(trace[-1 - w] - resid) < _STALL_RTOL * trace[-1 - w]:
        return "stall"
    if iterations >= max_iters:
        return "max_iters"
    return None


def _best_restart(start: Callable[[int], np.ndarray], iterate: Callable[[np.ndarray], _Run],
                  restarts: int, agree_rtol: float | None = None
                  ) -> tuple[_Run, int, float, float]:
    """Run restarts 0, 1, ... and return (winner, restarts used, init_s, iter_s).

    Restart r iterates from ``start(r)``; init_s and iter_s sum the seconds
    spent in ``start`` and ``iterate`` over the restarts run. The winner
    has the lowest final residual, ties to the lowest restart index. The
    loop ends after a restart that stopped on "tol" or, with
    ``agree_rtol``, after one whose final residual agrees with the best
    before it to that relative tolerance.
    """
    best = None
    init_s = iter_s = 0.0
    for r in range(restarts):
        t0 = time.perf_counter()
        x0 = start(r)
        t1 = time.perf_counter()
        cur = iterate(x0)
        init_s += t1 - t0
        iter_s += time.perf_counter() - t1
        agrees = (agree_rtol is not None and best is not None
                  and abs(cur.residual - best.residual) <= agree_rtol * best.residual)
        if best is None or cur.residual < best.residual:
            best = cur
        if cur.reason == "tol" or agrees:
            return best, r + 1, init_s, iter_s
    return best, restarts, init_s, iter_s


def _starts(z0: np.ndarray | None, n: int, restarts: int,
            spectral: Callable[[int], np.ndarray]) -> tuple[Callable[[int], np.ndarray], int]:
    """Each restart's starting point and the restart count: ``spectral``'s, or one run from ``z0``."""
    if z0 is None:
        return spectral, restarts
    z0 = as_complex_vector(z0)
    if len(z0) != n:
        raise ValueError(f"z0 has length {len(z0)}, expected {n}")
    return lambda r: z0.copy(), 1


def _finish(t0: float, tol: float, best: _Run, restarts_used: int, init_s: float = 0.0,
            iter_s: float = 0.0, factor_s: float = 0.0):
    report = SolverReport(
        iterations=best.iterations,
        final_residual=best.residual,
        restarts_used=restarts_used,
        wall_time_seconds=time.perf_counter() - t0,
        converged=best.residual <= tol,
        stop_reason=best.reason,
        residuals=tuple(best.trace),
        init_s=init_s,
        iter_s=iter_s,
        factor_s=factor_s,
    )
    return best.x, report


def wf_solve(
    instance: PRInstance,
    params: WFParams | None = None,
    seed: int = 0,
    restarts: int = 1,
    z0: np.ndarray | None = None,
) -> tuple[np.ndarray, SolverReport]:
    """Truncated Wirtinger flow on intensity measurements.

    Heavy-ball update (v = H z_k, b the intensities, mu the step size, beta
    the momentum, 0.6):

        g_k = (1 / M) * sum_{r in E} 2 * (|v_r|^2 - b_r) / |v_r|^2 * v_r * conj(h_r)
        z_{k+1} = z_k - mu * g_k + beta * (z_k - z_{k-1})

    where E keeps row r only if the normalized projection magnitude
    sqrt(N) |v_r| / (||h_r|| ||z||) lies in [trunc_lb, trunc_ub] and the
    data deviation |b_r - |v_r|^2| is at most
    (trunc_h / M) ||b - |Hz|^2||_1 times that magnitude. The momentum term
    keeps the Poisson loss's fixed points. It is dropped from the next step
    when the residual rose (the adaptive restart), when the run has just
    switched to complex128, and when E was empty. With ``loss="gaussian"``
    the |v_r|^2 denominator becomes mean(b) (see :class:`WFParams`) and the
    steps are plain gradient steps, beta = 0. Stops by the shared stop
    policy (module docstring).
    The start and the iteration run in the operator's precision; on a
    complex64 operator the run switches to a complex128 copy of it the
    first time its residual is at most 1e-5, so noiseless runs still reach
    ``tol``. The estimate is complex128. If ``z0`` is given it is used as
    the starting point (restarts collapse to a single run). Raises
    :class:`NonProgress` if E stays empty for 10 iterations and
    :class:`Diverged` if the residual becomes non-finite.
    """
    params = params or WFParams()
    t0 = time.perf_counter()
    b = instance.measurements
    lin = _LinOp(_dense(instance.operator, "wf_solve"))
    m, n = lin.shape
    a = magnitudes_from_intensity(b)
    norm_a = float(np.linalg.norm(a))
    if norm_a == 0:
        raise ValueError("zero measurement vector")
    step = 2 * params.step_size / m
    momentum = _WF_MOMENTUM
    if params.loss == "gaussian":
        step /= float(np.mean(b))
        momentum = 0.0

    start, restarts = _starts(z0, n, restarts,
                              lambda r: spectral_init(lin, b, params, mix_seed(seed, r)))

    def iterate(z: np.ndarray) -> _Run:
        op = lin
        y, mag = b.astype(op.real, copy=False), a.astype(op.real, copy=False)
        row_scale = math.sqrt(n) / op.row_norms
        z = z.astype(op.op.dtype, copy=False)
        v = op.matvec(z)
        trace = []
        iterations = 0
        empty_streak = 0
        move = None  # the last update z_{k-1} - z_k; None drops the momentum term
        while True:
            absv = np.abs(v)
            misfit = absv - mag
            resid = math.sqrt(float(np.dot(misfit, misfit))) / norm_a
            if resid <= _FINISH_RESID and op.real != np.float64:
                # from here on the iterate carries more digits than complex64 holds
                op, y, mag = lin.full, b, a
                row_scale = math.sqrt(n) / op.row_norms
                z = z.astype(np.complex128)
                v = op.matvec(z)
                move = None
                continue
            trace.append(resid)
            reason = _stop_reason(trace, iterations, params.tol, params.max_iters)
            if reason is not None:
                break
            if len(trace) > 1 and resid > trace[-2]:
                move = None  # the adaptive restart: the residual rose
            absv2 = absv * absv
            dev = np.abs(y - absv2)
            znorm = math.sqrt(np.vdot(z, z).real)
            if znorm == 0:
                keep = np.zeros(m, dtype=bool)
            else:
                # the ratio times ||z||, against the band times ||z||: no per-row division
                scaled = absv * row_scale
                keep = scaled >= params.trunc_lb * znorm
                keep &= scaled <= params.trunc_ub * znorm
                keep &= dev <= ((params.trunc_h / m) * float(np.sum(dev)) / znorm) * scaled
            iterations += 1
            if not keep.any():
                empty_streak += 1
                if empty_streak >= 10:
                    raise NonProgress(
                        f"empty truncation set for {empty_streak} consecutive iterations"
                    )
                move = None
                continue
            empty_streak = 0
            # the gradient's factor 2 (and the gaussian 1 / mean(b)) is in the step
            coeff = np.zeros(m, dtype=op.real)
            if params.loss == "poisson":
                np.divide(absv2 - y, absv2, out=coeff, where=keep)
            else:
                np.multiply(absv2 - y, keep, out=coeff)
            update = step * op.rmatvec(coeff * v)
            if move is not None:
                update += momentum * move
            z = z - update
            if momentum:
                move = update
            v = op.matvec(z)
        return _Run(z.astype(np.complex128, copy=False), resid, iterations, trace, reason)

    return _finish(t0, params.tol, *_best_restart(start, iterate, restarts))


def _cholesky_qr(h: np.ndarray, min_rcond: float) -> tuple[np.ndarray, np.ndarray] | None:
    """Q, R of the Fortran-ordered ``h`` by one Cholesky QR pass, in h's precision.

    Q overwrites ``h``. None, with ``h`` left as it was, when the Cholesky
    factorization fails or LAPACK's estimate of R's reciprocal 1-norm
    condition number is below ``min_rcond``.
    """
    herk, trsm = blas.get_blas_funcs(("herk", "trsm"), (h,))
    potrf, trcon = lapack.get_lapack_funcs(("potrf", "trcon"), (h,))
    # herk with trans=2 forms H^H H with no conjugate copy of H; its upper
    # Cholesky factor is R
    r, info = potrf(herk(1.0, h, trans=2), lower=0, clean=1, overwrite_a=1)
    if info != 0 or not trcon(r)[0] >= min_rcond:  # a NaN estimate fails too
        return None
    if h.size < _TRSM_MIN_ENTRIES:
        # column j of Q is column j of H less its part on Q's columns 0..j-1,
        # over r_jj; in place, as trsm, through numpy's BLAS
        for j in range(h.shape[1]):
            h[:, j] -= h[:, :j] @ r[:j, j]
            h[:, j] /= r[j, j]
        return h, r
    return trsm(1.0, r, h, side=1, lower=0, overwrite_b=1), r


class LeastSquaresOperator:
    """Economy QR factor H = Q R of a fixed tall matrix H, for least squares.

    The factor is one pass of Cholesky QR (Fukaya et al. 2014, "CholeskyQR2"):
    R is the Cholesky factor of the Gram matrix H^H H, and Q = H R^-1 is one
    triangular solve (for fewer than 2^14 entries, such as the phase
    tuner's matrix, solved column by column through numpy, which keeps
    scipy's BLAS thread pool idle). Its loss of orthogonality grows as
    cond(H)^2, so it is kept only when the Cholesky factorization succeeds
    and LAPACK's estimate of R's reciprocal condition number is at least a
    threshold. The factor follows H's precision. A complex64 H is copied once, to a
    Fortran-ordered complex64 array that the triangular solve turns into Q
    in place, and is kept in complex64 when that estimate is at least 5e-3
    (||Q^H Q - I|| about 2e-6 on a 768x128 Gaussian block). Otherwise, and
    for any other dtype, H is copied to complex128 and factored the same
    way against a threshold of 1e-3; if that fails too, it is factored by
    Householder QR, which takes about 3x as long on a 768x128 block. A
    complex64 Q is orthonormal only to float32 rounding, so alternating
    projections through it have residuals non-increasing only up to that
    rounding. Vectors handed to :meth:`coords` should have Q's dtype, since
    numpy casts the whole of Q for a mixed-precision product.

    Keeps Q (orthonormal columns) and R (upper triangular) only. The
    least-squares solution of min_z ||H z - v||_2 is z = R^-1 Q^H v, and
    Q^H v is applied as conj(v^H Q), so no conjugate-transposed copy of Q
    is kept. Raises :class:`RankDeficient` when the R diagonal signals rank
    deficiency within 1e-10 relative tolerance.
    """

    def __init__(self, matrix: np.ndarray, overwrite_a: bool = False):
        matrix = np.asarray(matrix)
        if matrix.ndim != 2:
            raise ValueError("expected a 2-D matrix")
        if matrix.shape[0] < matrix.shape[1]:
            raise ValueError(f"need rows >= cols, got {matrix.shape}")
        # with overwrite_a, a Fortran-ordered matrix of the factor's dtype is
        # factored in place instead of copied
        to_f = np.asarray if overwrite_a else np.array
        qr = None
        if matrix.dtype == np.complex64:
            qr = _cholesky_qr(to_f(matrix, order="F"), _CHOLQR_MIN_RCOND_SINGLE)
        if qr is None:
            h = to_f(matrix, dtype=np.complex128, order="F")
            qr = (_cholesky_qr(h, _CHOLQR_MIN_RCOND)
                  or scipy.linalg.qr(h, mode="economic", check_finite=False))
        self.q, self.r = qr
        diag = np.abs(np.diagonal(self.r))
        if diag.min() <= 1e-10 * diag.max():
            raise RankDeficient(
                f"matrix of shape {matrix.shape} is rank-deficient within tolerance"
            )

    def coords(self, v: np.ndarray) -> np.ndarray:
        """Q^H v: the Q-basis coordinates of v's projection onto the range of H."""
        return (v.conj() @ self.q).conj()

    def from_coords(self, u: np.ndarray) -> np.ndarray:
        """R^-1 u: the z with H z = Q u."""
        return scipy.linalg.solve_triangular(self.r, u, lower=False, check_finite=False)


def pinv_factor(op: np.ndarray, overwrite_a: bool = False) -> LeastSquaresOperator:
    """Factor a tall dense matrix once for repeated least-squares solves.

    With ``overwrite_a`` the factor may overwrite ``op`` (as scipy.linalg's
    ``overwrite_a``): pass it only for a copy no one else holds.
    """
    return LeastSquaresOperator(_dense(op, "pinv_factor"), overwrite_a)


def _phases(v: np.ndarray, absv: np.ndarray) -> np.ndarray:
    """v / |v| entrywise, given absv = |v|; phase(0) = 1, and a NaN or infinite entry gives NaN."""
    out = np.ones_like(v)
    np.divide(v, absv, out=out, where=absv != 0)  # NaN != 0, so NaN propagates
    return out


def _unit_modulus(d: np.ndarray) -> np.ndarray:
    """Each entry pulled to the unit circle; entries below 1e-14 in modulus become 1."""
    absd = np.abs(d)
    out = np.ones_like(d)
    np.divide(d, absd, out=out, where=absd >= 1e-14)
    return out


def _project_run(mat: np.ndarray, lsq: LeastSquaresOperator, target: np.ndarray,
                 norm_target: float, x: np.ndarray, params: APParams,
                 project: Callable[[np.ndarray], np.ndarray] | None = None,
                 full: Callable[[], LeastSquaresOperator] | None = None) -> _Run:
    """One alternating-projections run from ``x``, ended by the stop policy.

    Each iteration projects the image ``mat @ x`` onto the modulus set
    |.| = target, then back onto the range of mat = Q R. Without
    ``project`` the run iterates in the Q basis: with u = R x the image is
    Q u, and the range projection is u <- Q^H (target * phase(Q u)), so a
    step reads Q alone; x = R^-1 u is solved once, when the run ends. With
    ``project``, each step returns to x = R^-1 u, applies ``project`` and
    images the result through ``mat``. The first image is taken in
    ``mat``'s precision; the steps run in Q's. On a complex64 Q the run
    switches to the complex128 factor ``full()`` the first time its
    residual is at most 1e-5. The |image| behind each residual also gives
    the next step's phase.
    """
    mag = target.astype(np.finfo(lsq.q.dtype).dtype, copy=False)
    mx = mat @ x.astype(mat.dtype, copy=False)
    absmx = np.abs(mx)
    trace = []
    reason = None
    while reason is None:
        u = lsq.coords(mag * _phases(mx, absmx))
        if project is None:
            mx = lsq.q @ u
        else:
            x = project(lsq.from_coords(u))
            mx = mat @ x
        absmx = np.abs(mx)
        trace.append(float(np.linalg.norm(absmx - mag)) / norm_target)
        reason = _stop_reason(trace, len(trace), params.tol, params.max_iters)
        if reason is None and trace[-1] <= _FINISH_RESID and mag.dtype != np.float64:
            # from here on the image carries more digits than complex64 holds;
            # the complex64 factor is let go first, so full() can free it
            lsq = None
            lsq, mag = full(), target
            mx = mx.astype(np.complex128)
            absmx = np.abs(mx)
    if project is None:
        x = lsq.from_coords(u)
    return _Run(x.astype(np.complex128, copy=False), trace[-1], len(trace), trace, reason)


def _timed_factor(op: np.ndarray, **kwargs) -> tuple[LeastSquaresOperator, float]:
    """:func:`pinv_factor` of ``op`` and the seconds it took."""
    t0 = time.perf_counter()
    lsq = pinv_factor(op, **kwargs)
    return lsq, time.perf_counter() - t0


def altproj_solve(
    instance: PRInstance,
    params: APParams | None = None,
    seed: int = 0,
    restarts: int = 1,
    z0: np.ndarray | None = None,
) -> tuple[np.ndarray, SolverReport]:
    """Alternating projections on the magnitudes a = sqrt(y) of the intensities y.

    Starts from :func:`spectral_init` on a^2 (or from ``z0``) and iterates
    v <- a * phase(H z), z <- argmin ||H z - v|| until the shared stop
    policy ends the run (module docstring). H is factored once by QR,
    H = Q R (:class:`LeastSquaresOperator`), and the iteration runs in the
    Q basis (u = R z, see :func:`_project_run`), so each step reads Q alone
    and z = R^-1 u is solved once per restart. The iteration runs in the
    factor's precision: on a complex64 block that takes a complex64 factor
    it steps with float32 magnitudes and, the first time its residual is at
    most 1e-5, switches to a complex128 factor of the block, so noiseless
    runs still reach ``tol``. That factor is made once per solve, from one
    complex128 copy of the block, after the complex64 one is freed, and
    counted in ``factor_s``; later restarts of the solve iterate on it. The
    residual sequence is non-increasing (each step projects onto the
    modulus set, then onto the operator range), up to float32 rounding on a
    complex64 factor. A NaN or infinite iterate raises
    :class:`Diverged`. An all-zero ``a`` short-circuits to z = 0, converged.
    The estimate is complex128.
    """
    params = params or APParams()
    t0 = time.perf_counter()
    op = _dense(instance.operator, "altproj_solve")
    a = magnitudes_from_intensity(instance.measurements)
    m, n = op.shape
    if float(np.linalg.norm(a)) == 0:
        return _finish(t0, params.tol,
                       _Run(np.zeros(n, dtype=np.complex128), 0.0, 0, [0.0], "tol"), 0)
    lin = _LinOp(op)  # every restart's spectral start reads its row norms
    lsq, factor_s = _timed_factor(op)
    finish_s = 0.0
    norm_a = float(np.linalg.norm(a))

    start, restarts = _starts(z0, n, restarts,
                              lambda r: spectral_init(lin, a * a, WFParams(), mix_seed(seed, r)))

    def full() -> LeastSquaresOperator:
        # the solve switches to complex128 for good: the complex64 factor is
        # freed before the complex128 one is made from one copy of the block
        nonlocal lsq, finish_s
        lsq = None
        lsq, finish_s = _timed_factor(op.astype(np.complex128, order="F"), overwrite_a=True)
        return lsq

    def iterate(z: np.ndarray) -> _Run:
        return _project_run(op, lsq, a, norm_a, z, params, full=full)

    best, used, init_s, iter_s = _best_restart(start, iterate, restarts)
    return _finish(t0, params.tol, best, used, init_s, iter_s - finish_s, factor_s + finish_s)


def unit_modulus_tune(
    tuning_matrix: np.ndarray,
    y_t: np.ndarray,
    params: APParams | None = None,
    seed: int = 0,
    restarts: int = 50,
) -> tuple[np.ndarray, SolverReport]:
    """Recover unit-modulus phase factors d from y_t = |B d|.

    Alternating projections as in :func:`altproj_solve`, through the same
    QR factor of B, but after every least-squares update each entry is
    pulled back to the unit circle (entries with modulus < 1e-14 reset to
    1), so the output always has |d_i| = 1. The restart loop also ends
    once a restart's final residual agrees with the best before it to 1e-6
    (relative): on noisy data restarts land on the same floor, and the cap
    of 50 only matters when they do not. A zero y_t returns all-ones,
    flagged non-converged.
    """
    params = params or APParams()
    b_mat = np.asarray(tuning_matrix, dtype=np.complex128)
    y_t = np.asarray(y_t, dtype=np.float64)
    t0 = time.perf_counter()
    if b_mat.ndim != 2:
        raise ValueError("tuning matrix must be 2-D")
    ell, k = b_mat.shape
    if len(y_t) != ell:
        raise ValueError(f"got {len(y_t)} tuning measurements for {ell} rows")
    norm_y = float(np.linalg.norm(y_t))
    if norm_y == 0:
        # every d fits a zero y_t equally badly: nothing to iterate on
        return _finish(t0, params.tol,
                       _Run(np.ones(k, dtype=np.complex128), math.inf, 0, [], "stall"), 0)
    lsq, factor_s = _timed_factor(b_mat)

    def start(r: int) -> np.ndarray:
        return _unit_modulus(complex_normal(generator(mix_seed(seed, r)), k))

    def iterate(d: np.ndarray) -> _Run:
        return _project_run(b_mat, lsq, y_t, norm_y, d, params, _unit_modulus)

    return _finish(t0, params.tol, *_best_restart(start, iterate, restarts, _TUNE_AGREE_RTOL),
                   factor_s)


def solve_pr(instance: PRInstance, spec: SolverSpec) -> tuple[np.ndarray, SolverReport]:
    """Run the PR solver selected by ``spec`` on the instance's intensities.

    "unit_modulus_tuner" raises ValueError: it solves for unit-modulus
    phase factors, not a signal, and runs only through
    :func:`blockpr.pipeline.phase_tune`.
    """
    if spec.kind == "wf_truncated":
        return wf_solve(instance, spec.params, spec.seed, spec.restarts)
    if spec.kind == "alt_proj":
        return altproj_solve(instance, spec.params, spec.seed, spec.restarts)
    raise ValueError(f"{spec.kind} is the phase tuner, not a PR solver; use phase_tune")

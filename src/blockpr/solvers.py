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
  modulus constraint and the operator range. The Gram matrix G = H^H H is
  factored once, G = R^H R, by Cholesky (R by Householder QR when H is
  ill-conditioned; see :class:`LeastSquaresOperator`), and the iteration
  runs on z itself, z <- G^-1 H^H (a * phase(H z)), with G^-1 kept as one
  n x n matrix and no copy of H.
* :func:`unit_modulus_tune` -- alternating projections specialized to
  unit-modulus unknowns (the per-block phase factors), through the same
  Gram factorization, renormalizing each entry to the unit circle after
  every update.

Every solver is a pure function of (problem, params, seed): restarts use
seeds derived with :func:`blockpr.rng.mix_seed`, the winner is the restart
with the lowest final residual (ties to the lowest restart index), and a
restart that reaches the tolerance stops the restart loop early. Residuals
are the relative magnitude misfit || |H z| - sqrt(y) || / || sqrt(y) || of
an estimate z to the intensities y.

All three share one stop policy (:func:`_stop_reason`): a run ends when its
residual reaches ``tol``, when it stalls (on noisy data ``tol`` is out of
reach and the plateau is the answer), or at ``max_iters``, and
:class:`SolverReport.stop_reason` says which. Momentum WF and alternating
projections stall on a plateau predicted by a geometric extrapolation of
the residuals; the phase tuner and gaussian-loss WF once the residual moved
by less than 1e-3, relative, over the last 20 iterations. A non-finite
residual raises :class:`Diverged`; alternating projections carry a NaN or
infinite image into the residual rather than mapping its phase to 1. The
spectral start ends its power iteration once the unit iterate stops moving,
and the phase tuner ends its restart loop once a restart's final residual
agrees with the best before it. The report also splits the wall time into starting points,
iterations and the Gram factorization.

The solvers run on dense operators only: the pipeline hands them one
diagonal block at a time, and a :class:`~blockpr.core.KRBDMatrix` raises
``TypeError``.

Precision follows the operator. The spectral start, the WF iteration, the
Gram factor and the alternating-projections iteration compute in the
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

# the stall stop (_stop_reason). Momentum WF and alternating projections
# predict their plateau from the residuals _PLATEAU_LAG apart, once more than
# _PLATEAU_MIN exist; the phase tuner and gaussian-loss WF stall once the
# residual moved by less than _STALL_RTOL, relative, over the last
# _STALL_WINDOW iterations. The spectral start's power iteration ends once
# ||v_k - v_{k-1}|| <= _SPECTRAL_STEP_TOL (unit iterates); init_power_iters
# stays the cap. Per block, against the window and the truncated start it
# replaced (weights b_r [b_r <= 9 mean(b)]), on trial seeds mix_seed(S, 2, N, t)
# with solver seeds block_seed(trial, i):
#
#   blocks                      start      stop     iters       power  block     wrong
#                                                   mean / p99  steps  NMSE      (> 0.1)
#   WF, SNR 30, N = 2048,       truncated  window    48.5 / 76  24.7   1.168e-3   0
#   96 of 768 x 128 (S = 900)   truncated  predict   24.2 / 31  24.7   1.199e-3   0
#                               optimal    window    42.8 / 71  24.0   1.150e-3   0
#                               optimal    predict   19.1 / 25  24.0   1.164e-3   0
#   WF, SNR 30, N = 512, alpha  truncated  window   112.5 / 400 25.6   2.634e-3  14
#   4, 200 of 512 x 128 (901)   truncated  predict   73.3 / 166 25.6   2.850e-3  25
#                               optimal    window    68.7 / 133 31.1   2.598e-3   0
#                               optimal    predict   39.6 / 66  31.1   2.744e-3   0
#   AP, SNR 30, N = 1024,       truncated  window    55.3 / 75  24.7   2.067e-3   0
#   80 of 768 x 128 (902)       optimal    predict   24.6 / 41  25.0   2.047e-3   0
#   AP, alpha 4, as WF above    truncated  window   136.1 / 416 25.6   3.970e-3   5
#                               optimal    predict   56.6 / 95  31.1   3.974e-3   0
#   WF, noiseless, N = 256,     truncated  window    73.2 / 95  20.4   3.4e-16    1
#   100 of 384 x 64 (903)       optimal    predict   67.3 / 72  22.1   2.8e-16    0
#
# The noiseless block that the truncated start left wrong stopped on "stall"
# at residual 0.29; with the optimal start all 100 stop on "tol". The densified
# N = 512 baseline ran 53 WF iterations after 22 power steps, and now runs 20
# after 28. With the shift from the Marchenko-Pastur edge of all M rows, not
# only the negative-weight ones, a start took 28.5 power steps at N = 2048
# (36.0 at alpha 4) for the same correlation with the signal (median 0.873,
# minimum 0.821). The predicted stop needs the optimal start: with the
# truncated one it sends 25 blocks wrong at alpha 4, against 14. With the
# predicted stop on gaussian-loss WF and the tuner too, acceptance criterion 4
# read a median NMSE of 9.71e-4 and 1.02e-3 against its 1e-3 gate (8.80e-4 and
# 9.44e-4 with the window), so those keep the window. The window and the
# spectral tolerance were picked together with the truncated start: windows of
# 15 to 30 ran 74 to 90 WF iterations per block, rtol 4e-4 cost 9% more for no
# NMSE gain, and a spectral tolerance above 1e-2 saved at most 5 power steps
# per start while 3e-2 sent the baseline from 93 to 326 WF iterations.
_STALL_WINDOW = 20
_STALL_RTOL = 1e-3
_PLATEAU_LAG = 4
_PLATEAU_MIN = 10
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
# LeastSquaresOperator uses the Cholesky factor R of H^H H only when LAPACK's
# estimate of R's reciprocal 1-norm condition number is at least this. R's
# error grows as cond(H)^2, and so does the orthogonality of Q = H R^-1 (one
# Cholesky QR pass), by which the guard was picked: on 768x128, 320x16 and 48x8
# matrices of condition 2 to 1e4, the accepted factors had ||Q^H Q - I|| <=
# 3.8e-12 (cond <= 410), against up to 2.8e-10 at 1e-4. A 768x128 Gaussian
# block reads about 0.05.
_CHOLQR_MIN_RCOND = 1e-3
# the same guard for a complex64 factor, whose Q = H R^-1 loses orthogonality
# as cond(H)^2 * 6e-8. On 768x128, 320x16 and 48x8 complex64 matrices of
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
# Noiseless AP on G C (G Gaussian, so the range and AP's path are G's), then
# iterating on that Q, reached "tol" up to ||Q^H Q - I|| = 4.6e-4, and from
# 7e-4 up it stalled near 1.5e-5, short of the complex128 finish. Gaussian
# blocks from 4n - 4 rows (1020x256) to 768x128 read 1.2e-2 to 4.1e-2.
_CHOLQR_MIN_RCOND_SINGLE = 5e-3


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
    trunc_lb: float = 0.3
    trunc_ub: float = 5.0
    trunc_h: float = 5.0
    tol: float = 1e-8
    loss: Literal["poisson", "gaussian"] = "poisson"

    def __post_init__(self):
        _require_counts(self, "max_iters", "init_power_iters")
        _require_positive(self, "max_iters", "step_size", "init_power_iters", "trunc_lb",
                          "trunc_ub", "trunc_h", "tol")
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
    random), iterations, and the Gram factorization (0 for wf_solve). The
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


def _norm(v: np.ndarray) -> float:
    """The 2-norm of a vector, at a third of np.linalg.norm's call cost on a 128-vector."""
    return math.sqrt(np.vdot(v, v).real)


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

    Runs power iterations (from a seeded random start) on the preprocessed
    covariance D = sum_r T_r h_r h_r^H, with the optimal preprocessing
    T(y) = 1 - 1/y (Luo, Alghamdi & Lu 2019; Mondelli & Montanari 2017) of
    y = b_r / mean(b), clipped at -1 (y = 1/2) and divided by M. Its
    leading eigenvector correlates with the signal far better than that of
    a truncated weighting (median 0.87 against 0.62 on 768 x 128 blocks at
    SNR 30). D has negative eigenvalues, so the iteration runs on D + sI.
    D's negative part is at most -min T times the largest eigenvalue of
    (1/M) sum_{r : T_r < 0} h_r h_r^H, and s is that with the eigenvalue
    estimated at the Marchenko-Pastur edge of those M_- rows,
    1.1 (sqrt(M_-) + sqrt(N))^2 mean(||h_r||^2) / (M N). On a Gaussian block
    it clears D's least eigenvalue by about half (1.6 against 1.1 on
    768 x 128 blocks). On another operator it can come out too small; a
    Rayleigh quotient below zero shows that, and s becomes
    -min T mean(||h_r||^2), a bound for every operator, since
    lambda_max(H^H H / M) <= trace(H^H H) / M. After 3 plain steps (and
    again after that change) each step also subtracts beta times the
    iterate before, a heavy-ball term with beta = (0.95 lambda)^2 / 4 from
    the Rayleigh quotient lambda (Xu et al. 2018). The iteration ends once
    the unit iterate moves by at most 1e-2 in one step, or after
    ``init_power_iters`` steps. It then scales the unit eigenvector v to
    ||z0|| = sqrt(N * mean(b) / mean(||h_r||^2)) so that ||z0||^2
    estimates the signal energy. The iteration runs in the operator's
    precision, and z0 has its dtype.
    """
    lin = op if isinstance(op, _LinOp) else _LinOp(_dense(op, "spectral_init"))
    m, n = lin.shape
    b = np.asarray(b, dtype=np.float64)
    if len(b) != m:
        raise ValueError(f"got {len(b)} measurements for {m} rows")
    mean_b = float(np.mean(b))
    if not np.any(b > 0):
        raise ValueError("zero measurement vector")
    # T = 1 - mean(b) / b, written so b = 0 divides by mean(b) / 2 and reads -1
    w = np.maximum(b, 0.5 * mean_b)
    np.divide(mean_b, w, out=w)
    np.subtract(1.0, w, out=w)
    energy = float(np.mean(lin.row_norms**2))  # mean ||h_r||^2
    bound = max(0.0, -float(w.min())) * energy  # -min T * trace(H^H H) / M
    negative = int(np.count_nonzero(w < 0))  # M_-
    shift = 1.1 * bound * (math.sqrt(negative) + math.sqrt(n))**2 / (m * n)
    w /= m
    w = w.astype(lin.real, copy=False)
    v = complex_normal(generator(seed), n).astype(lin.op.dtype, copy=False)
    v /= _norm(v)
    v_prev, nu = v, 1.0  # the iterate before v is v_prev / nu, to v's scale
    beta, plain = 0.0, 0
    for _ in range(params.init_power_iters):
        u = lin.rmatvec(lin.matvec(v) * w)
        u += shift * v
        rho = float(np.vdot(v, u).real)  # the Rayleigh quotient of D + sI
        if rho < 0:
            # D + sI has an eigenvalue <= rho < 0, so the estimate was too
            # small: shift by the bound, and start over with plain steps
            u += (bound - shift) * v
            rho += bound - shift
            shift, beta, plain = bound, 0.0, 0
        plain += 1
        if plain == 4:
            beta = (0.95 * rho)**2 / 4
        if beta:
            u -= (beta / nu) * v_prev
        nu = _norm(u)
        if nu == 0:
            # the operator annihilated the iterate; restart direction
            u = np.ones(n, dtype=lin.op.dtype)
            nu, beta, plain = _norm(u), 0.0, 0
        u /= nu
        v_prev, v = v, u
        if _norm(v - v_prev) <= _SPECTRAL_STEP_TOL:
            break
    return math.sqrt(n * mean_b / energy) * v


class _Run(NamedTuple):
    """Outcome of one restart."""

    x: np.ndarray
    residual: float
    iterations: int
    trace: list[float]
    reason: StopReason


def _stop_reason(trace: list[float], iterations: int, tol: float, max_iters: int,
                 predict: bool = False) -> StopReason | None:
    """The stop policy every solver run shares; None means iterate again.

    ``trace`` holds the residuals so far, ``iterations`` the updates made.
    Stops on "tol" once the last residual reaches ``tol``, on "stall" once
    the run has reached its plateau, and on "max_iters" at the cap. With
    ``predict`` (momentum WF and alternating projections) the plateau is
    predicted: once more than 10 residuals exist, with a, b, c the
    residuals 8, 4 and 0 entries back, the run stalls when |b - c| is below
    ``_STALL_RTOL`` c, or when 0 < b - c < a - b and the geometric
    extrapolation of the remaining fall, (b - c)^2 / ((a - b) - (b - c)),
    is below ``_STALL_RTOL`` c. On a geometric decay that extrapolation is
    c itself, so a noiseless run goes on to "tol"; the 4-step lags read a
    period-2 oscillation at one phase. Without ``predict`` (the phase tuner
    and gaussian-loss WF) it stalls once the last residual differs by less
    than ``_STALL_RTOL`` (relative) from the one ``_STALL_WINDOW`` entries
    earlier. A residual that keeps growing is not a stall. Raises
    :class:`Diverged` on a non-finite residual.
    """
    resid = trace[-1]
    if not math.isfinite(resid):
        raise Diverged(f"residual became {resid} after {iterations} iterations")
    if resid <= tol:
        return "tol"
    if predict:
        if len(trace) > _PLATEAU_MIN:
            lag = _PLATEAU_LAG
            a, b = trace[-1 - 2 * lag], trace[-1 - lag]
            fall, before = b - resid, a - b
            if abs(fall) < _STALL_RTOL * resid or (
                    0 < fall < before and fall * fall < _STALL_RTOL * resid * (before - fall)):
                return "stall"
    elif len(trace) > _STALL_WINDOW:
        if abs(trace[-1 - _STALL_WINDOW] - resid) < _STALL_RTOL * trace[-1 - _STALL_WINDOW]:
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
            if not empty_streak:  # an empty set repeats; it ends in NonProgress, not a stall
                reason = _stop_reason(trace, iterations, params.tol, params.max_iters,
                                      predict=bool(momentum))
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


def _gram_cholesky(h: np.ndarray, min_rcond: float) -> np.ndarray | None:
    """R of the Gram matrix H^H H = R^H R, upper triangular, in h's precision.

    None when the Cholesky factorization fails or LAPACK's estimate of R's
    reciprocal 1-norm condition number is below ``min_rcond``.
    """
    herk = blas.get_blas_funcs("herk", (h,))
    potrf, trcon = lapack.get_lapack_funcs(("potrf", "trcon"), (h,))
    # herk on h.T, Fortran-ordered for a C-ordered h, forms h^T conj(h) =
    # conj(H^H H) with no copy of H; its upper Cholesky factor is conj(R)
    r, info = potrf(herk(1.0, h.T), lower=0, clean=1, overwrite_a=1)
    if info != 0 or not trcon(r)[0] >= min_rcond:  # a NaN estimate fails too
        return None
    return np.conjugate(r, out=r)


class LeastSquaresOperator:
    """Least-squares solves with a fixed tall matrix H through its Gram factor.

    :meth:`solve` returns G^-1 H^H v, the z that minimizes ||H z - v||_2,
    where G = H^H H = R^H R and G^-1 = R^-1 R^-H is kept as one n x n
    matrix, ``ginv``: a solve is a product with H^H and one with G^-1. R is
    the Cholesky factor of G (``herk`` + ``potrf``), inverted by ``trtri``.
    These are the seminormal equations, whose error grows as cond(H)^2
    (Bjorck 1987), as one Cholesky QR pass loses orthogonality at that rate
    (Fukaya et al. 2014, "CholeskyQR2"); so R is used only when LAPACK's
    estimate of its reciprocal condition number is at least a threshold. A
    complex64 H is factored in complex64, and kept as it is, not copied,
    when that estimate is at least 5e-3 (a 768x128 Gaussian block reads
    about 0.04). Otherwise, and for any other dtype, H is kept in
    complex128 and factored the same way against a threshold of 1e-3. If
    that fails too, R is taken from Householder QR, and :meth:`solve` adds
    one step of the corrected seminormal equations, z += G^-1 H^H (v - H z),
    which brings it to QR's accuracy. On a complex64 factor a solve carries
    float32 rounding, so alternating projections through it have residuals
    non-increasing only up to that rounding. Vectors handed to
    :meth:`solve` should have ``h``'s dtype, since numpy casts the whole
    matrix for a mixed-precision product.

    Keeps ``h`` (H in the factor's precision), ``ginv`` and ``refine`` (True
    on a Householder R) only; R is read only here. Raises
    :class:`RankDeficient` when the R diagonal signals rank deficiency
    within 1e-10 relative tolerance.
    """

    def __init__(self, matrix: np.ndarray):
        h = np.asarray(matrix)
        if h.ndim != 2:
            raise ValueError("expected a 2-D matrix")
        if h.shape[0] < h.shape[1]:
            raise ValueError(f"need rows >= cols, got {h.shape}")
        r = _gram_cholesky(h, _CHOLQR_MIN_RCOND_SINGLE) if h.dtype == np.complex64 else None
        if r is None:
            h = h.astype(np.complex128, copy=False)
            r = _gram_cholesky(h, _CHOLQR_MIN_RCOND)
        self.refine = r is None
        if self.refine:
            r = scipy.linalg.qr(h, mode="r", check_finite=False)[0][:h.shape[1]]
        diag = np.abs(np.diagonal(r))
        if diag.min() <= 1e-10 * diag.max():
            raise RankDeficient(f"matrix of shape {h.shape} is rank-deficient within tolerance")
        trtri = lapack.get_lapack_funcs("trtri", (r,))
        r_inv = trtri(r, overwrite_c=1)[0]  # in R's place
        self.h, self.ginv = h, r_inv @ r_inv.conj().T

    def solve(self, v: np.ndarray) -> np.ndarray:
        """G^-1 H^H v, with H^H v applied as conj(v^H H): no conjugate-transposed copy of H."""
        z = self.ginv @ (v.conj() @ self.h).conj()
        if self.refine:
            z += self.ginv @ ((v - self.h @ z).conj() @ self.h).conj()
        return z


def pinv_factor(op: np.ndarray) -> LeastSquaresOperator:
    """Factor a tall dense matrix once for repeated least-squares solves."""
    return LeastSquaresOperator(_dense(op, "pinv_factor"))


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


def _project_run(lsq: LeastSquaresOperator, target: np.ndarray, norm_target: float,
                 x: np.ndarray, params: APParams,
                 project: Callable[[np.ndarray], np.ndarray] | None = None,
                 full: Callable[[], LeastSquaresOperator] | None = None,
                 predict: bool = False) -> _Run:
    """One alternating-projections run from ``x``, ended by the stop policy.

    Each iteration projects the image H x onto the modulus set |.| = target,
    then back onto the range of H: x <- ``lsq.solve(target * phase(H x))``,
    then ``project(x)`` if one is given, then the image H x. The run
    computes in the precision of the factor's H; on a complex64 factor it
    switches to the complex128 factor ``full()`` the first time its residual
    is at most 1e-5. The |image| behind each residual also gives the next
    step's phase. ``predict`` selects the stop policy's predicted plateau
    (alternating projections) over its window (the tuner).
    """
    mag = target.astype(np.finfo(lsq.h.dtype).dtype, copy=False)
    mx = lsq.h @ x.astype(lsq.h.dtype, copy=False)
    absmx = np.abs(mx)
    trace = []
    reason = None
    while reason is None:
        x = lsq.solve(mag * _phases(mx, absmx))
        if project is not None:
            x = project(x)
        mx = lsq.h @ x
        absmx = np.abs(mx)
        trace.append(float(np.linalg.norm(absmx - mag)) / norm_target)
        reason = _stop_reason(trace, len(trace), params.tol, params.max_iters, predict=predict)
        if reason is None and trace[-1] <= _FINISH_RESID and mag.dtype != np.float64:
            # from here on the image carries more digits than complex64 holds;
            # the complex64 factor is let go first, so full() can free it
            lsq = None
            lsq, mag = full(), target
            mx = mx.astype(np.complex128)
            absmx = np.abs(mx)
    return _Run(x.astype(np.complex128, copy=False), trace[-1], len(trace), trace, reason)


def _timed_factor(op: np.ndarray) -> tuple[LeastSquaresOperator, float]:
    """:func:`pinv_factor` of ``op`` and the seconds it took."""
    t0 = time.perf_counter()
    lsq = pinv_factor(op)
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
    policy ends the run (module docstring). The Gram matrix G = H^H H is
    factored once (:class:`LeastSquaresOperator`), and each step is
    z <- G^-1 H^H (a * phase(H z)) (see :func:`_project_run`): two products
    with the block and one with the n x n G^-1. The iteration runs in the
    factor's precision: on a complex64 block that takes a complex64 factor
    (the block itself, not a copy) it steps with float32 magnitudes and,
    the first time its residual is at most 1e-5, switches to a complex128
    factor of the block, so noiseless runs still reach ``tol``. That factor
    is made once per solve, from one complex128 copy of the block, after
    the complex64 one is freed, and counted in ``factor_s``; later restarts
    of the solve iterate on it. The residual sequence is non-increasing
    (each step projects onto the modulus set, then onto the operator
    range), up to float32 rounding on a complex64 factor. A NaN or infinite
    iterate raises :class:`Diverged`. An all-zero ``a`` short-circuits to
    z = 0, converged. The estimate is complex128.
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
        lsq, finish_s = _timed_factor(op.astype(np.complex128))
        return lsq

    def iterate(z: np.ndarray) -> _Run:
        return _project_run(lsq, a, norm_a, z, params, full=full, predict=True)

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
    Gram factor of B, in complex128, but after every least-squares update
    each entry is pulled back to the unit circle (entries with modulus
    < 1e-14 reset to 1), so the output always has |d_i| = 1. The restart
    loop also ends once a restart's final residual agrees with the best
    before it to 1e-6 (relative): on noisy data restarts land on the same
    floor, and the cap of 50 only matters when they do not. A zero y_t
    returns all-ones, flagged non-converged.
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
        return _project_run(lsq, y_t, norm_y, d, params, _unit_modulus)

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

"""Measurement models, noise injection, and evaluation metrics.

The measurement map is y = |H x|^2 (intensity), which every problem holds.
Noise is added on the intensity scale: w ~ N(0, sigma^2) i.i.d. real with
sigma^2 = mean(b^2) * 10^(-snr_db/10), negative results clamped to zero.
Error metrics quotient out the global phase ambiguity |H(e^{j theta} x)| =
|H x| that makes x recoverable only up to a unit-modulus factor.

All functions are pure; noise generation is deterministic per seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import KRBDMatrix, Operator, as_complex_vector
from .rng import generator

__all__ = [
    "NoiseSpec",
    "add_noise_intensity",
    "align_global_phase",
    "apply",
    "magnitudes_from_intensity",
    "measure",
    "nmse",
]


@dataclass(frozen=True)
class NoiseSpec:
    """Additive intensity-noise level (dB) and the seed that realizes it.

    ``snr_db = math.inf`` means noiseless.
    """

    snr_db: float
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.snr_db) or self.snr_db == math.inf):
            raise ValueError(f"snr_db must be finite or +inf, got {self.snr_db}")

    @property
    def noiseless(self) -> bool:
        return math.isinf(self.snr_db) and self.snr_db > 0


def apply(op: Operator, x: np.ndarray) -> np.ndarray:
    """Matrix-vector product H @ x; block-diagonal operators multiply blockwise.

    The product is complex128: a complex64 operator is multiplied in
    complex128 arithmetic, so measuring its exact entries loses nothing.
    """
    x = np.asarray(x, dtype=np.complex128)
    if x.ndim != 1:
        raise ValueError(f"expected a 1-D signal, got shape {x.shape}")
    if isinstance(op, KRBDMatrix):
        if len(x) != op.shape[1]:
            raise ValueError(f"operator has {op.shape[1]} columns, signal has {len(x)}")
        out = np.empty(op.shape[0], dtype=np.complex128)
        for b, rs, cs in zip(op.blocks, op.partition.row_slices(), op.partition.col_slices()):
            out[rs] = b @ x[cs]
        return out
    if op.shape[1] != len(x):
        raise ValueError(f"operator has {op.shape[1]} columns, signal has {len(x)}")
    return op @ x


def measure(op: Operator, x: np.ndarray) -> np.ndarray:
    """Noiseless intensities |H x|^2."""
    v = np.abs(apply(op, x))
    return v * v


def add_noise_intensity(b: np.ndarray, spec: NoiseSpec) -> np.ndarray:
    """Add i.i.d. real Gaussian noise to an intensity vector.

    Noise variance is mean(b^2) * 10^(-snr_db/10); negative noisy
    intensities are clamped to 0 so downstream square roots stay real.
    Bit-for-bit reproducible for a fixed seed.
    """
    b = np.asarray(b, dtype=np.float64)
    if np.any(b < 0):
        raise ValueError("intensities must be nonnegative")
    if spec.noiseless:
        return b.copy()
    sigma = math.sqrt(float(np.mean(b * b)) * 10.0 ** (-spec.snr_db / 10.0))
    w = generator(spec.seed).standard_normal(b.shape) * sigma
    return np.maximum(b + w, 0.0)


def magnitudes_from_intensity(b: np.ndarray) -> np.ndarray:
    """sqrt of a (possibly noisy, pre-clamped) intensity vector."""
    b = np.asarray(b, dtype=np.float64)
    return np.sqrt(np.maximum(b, 0.0))


def align_global_phase(x_ref: np.ndarray, x_est: np.ndarray) -> complex:
    """Unit-modulus c minimizing ||x_ref - c * x_est||_2.

    Closed form: c = <x_est, x_ref> / |<x_est, x_ref>| with the inner
    product conjugating its first argument; c = 1 when the inner product
    vanishes (e.g. x_est orthogonal to x_ref).
    """
    x_ref = as_complex_vector(x_ref, check_finite=False)
    x_est = as_complex_vector(x_est, check_finite=False)
    if len(x_ref) != len(x_est):
        raise ValueError("vectors must have equal length")
    p = np.vdot(x_est, x_ref)
    if p == 0:
        return 1.0 + 0.0j
    return complex(p / abs(p))


def nmse(x_ref: np.ndarray, x_est: np.ndarray) -> float:
    """Normalized mean square error after optimal global-phase alignment.

    min over unit-modulus c of ||x_ref - c * x_est||^2 / ||x_ref||^2.
    """
    x_ref = as_complex_vector(x_ref, check_finite=False)
    x_est = as_complex_vector(x_est, check_finite=False)
    ref_energy = float(np.linalg.norm(x_ref)) ** 2
    if ref_energy == 0:
        raise ValueError("reference vector is zero")
    c = align_global_phase(x_ref, x_est)
    return float(np.linalg.norm(x_ref - c * x_est)) ** 2 / ref_energy


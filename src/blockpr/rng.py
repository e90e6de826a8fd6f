"""Deterministic, counter-based random number generation.

Every stochastic operation in this package takes an explicit 64-bit seed;
there is no ambient global RNG. Streams are built on numpy's Philox
counter-based generator, so a seed fully determines the output regardless
of how many other generators run concurrently.

Sub-seeds (per block, per restart, per trial) are derived with
:func:`mix_seed`, a fixed splitmix64-style mixing chain, so results do not
depend on execution order.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix64(x: int) -> int:
    x = (x + _GOLDEN) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def mix_seed(seed: int, *indices: int) -> int:
    """Derive a sub-seed from ``seed`` and one or more stream indices.

    The same (seed, indices) always yields the same 64-bit value, and
    distinct index tuples yield statistically independent streams.
    """
    s = seed & _MASK64
    for i in indices:
        s = _splitmix64(s ^ _splitmix64(i & _MASK64))
    return s


def generator(seed: int) -> np.random.Generator:
    """Philox generator for the given 64-bit seed."""
    return np.random.Generator(np.random.Philox(key=seed & _MASK64))


def complex_normal(rng: np.random.Generator, size: int | tuple[int, ...]) -> np.ndarray:
    """i.i.d. standard circular complex Gaussian CN(0, 1) samples.

    Draws the real parts, then the imaginary parts, straight into one
    complex128 array: the same values as ``(re + 1j * im) / sqrt(2)``, with
    no complex temporaries.
    """
    out = np.empty(size, dtype=np.complex128)
    out.real = rng.standard_normal(size)
    out.imag = rng.standard_normal(size)
    out /= np.sqrt(2.0)
    return out

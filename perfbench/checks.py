"""Correctness checks of blockpr outputs, computed apart from the package.

Every check here uses numpy alone (no blockpr arithmetic) and raises
:class:`CheckFailed` with a one-line reason. Tolerances follow from the
instance's SNR, never from a stored copy of an earlier output:

* NMSE after the closed-form global-phase alignment must not exceed
  ``10 * 10**(-snr/10)``, i.e. 0.01 at 30 dB (a correct solve reads
  about 0.0015, a block left at a wrong relative phase reads 0.06 or more);
* the relative magnitude misfit ``|| |H z| - sqrt(y) || / ||sqrt(y)||`` must
  not exceed ``2.5 * 10**(-snr/20)`` (0.079 at 30 dB), on the block rows and,
  separately, on the tuning rows. The true signal reads about 0.045 at
  30 dB. The tuning-row misfit needs no ground truth, and it rejects wrong
  relative block phases.
"""

from __future__ import annotations

import numpy as np


class CheckFailed(Exception):
    """An output failed one of the benchmark's checks."""


def nmse_limit(snr_db: float) -> float:
    return 10.0 * 10.0 ** (-snr_db / 10.0)


def misfit_limit(snr_db: float) -> float:
    return 2.5 * 10.0 ** (-snr_db / 20.0)


def aligned_nmse(x: np.ndarray, z: np.ndarray) -> float:
    """min over |c| = 1 of ||x - c z||^2 / ||x||^2, in closed form."""
    p = np.vdot(z, x)
    c = p / abs(p) if p != 0 else 1.0
    return float(np.linalg.norm(x - c * z) ** 2 / np.linalg.norm(x) ** 2)


def _check_misfit(rows: str, fitted: np.ndarray, intensities: np.ndarray, snr_db: float) -> float:
    """|| fitted - sqrt(y) || / || sqrt(y) || against the SNR's limit."""
    a = np.sqrt(np.maximum(intensities, 0.0))
    mis = float(np.linalg.norm(fitted - a) / np.linalg.norm(a))
    if not mis <= misfit_limit(snr_db):
        raise CheckFailed(f"{rows} misfit {mis:.4g} exceeds {misfit_limit(snr_db):.4g}")
    return mis


def check_nmse(x, x_hat, snr_db: float) -> float:
    err = aligned_nmse(x, x_hat)
    if not err <= nmse_limit(snr_db):
        raise CheckFailed(f"NMSE {err:.4g} exceeds {nmse_limit(snr_db):.4g}")
    return err


def check_block_misfit(blocks, y, x_hat, snr_db: float) -> float:
    """Misfit of x_hat on the block-diagonal rows, one block at a time."""
    fitted, c0 = [], 0
    for b in blocks:
        fitted.append(np.abs(b @ x_hat[c0:c0 + b.shape[1]]))
        c0 += b.shape[1]
    return _check_misfit("block-row", np.concatenate(fitted), y, snr_db)


def check_tuning_misfit(tuning_matrix, y_t, x_hat, snr_db: float) -> float:
    return _check_misfit("tuning-row", np.abs(tuning_matrix @ x_hat), y_t, snr_db)


def check_merge(x_hat, block_estimates, d_hat) -> None:
    """|d_i| = 1 and x_hat == concat(d_i * x_i_hat), bit for bit."""
    d_hat = np.asarray(d_hat)
    dev = float(np.max(np.abs(np.abs(d_hat) - 1.0)))
    if not dev <= 1e-12:
        raise CheckFailed(f"phase factor off the unit circle by {dev:.3g}")
    merged = np.concatenate([d * est for d, est in zip(d_hat, block_estimates)])
    if merged.tobytes() != np.asarray(x_hat).tobytes():
        raise CheckFailed("x_hat differs from concat(d_i * x_i_hat)")


def check_identical(a, b, what: str) -> None:
    """Two arrays (or sequences of arrays) are equal bit for bit."""
    a = a if isinstance(a, (list, tuple)) else [a]
    b = b if isinstance(b, (list, tuple)) else [b]
    same = len(a) == len(b) and all(
        p.shape == q.shape and p.dtype == q.dtype and p.tobytes() == q.tobytes()
        for p, q in zip(map(np.asarray, a), map(np.asarray, b))
    )
    if not same:
        raise CheckFailed(f"{what} differs")


def check_blockwise_nmse(x, z, col_sizes, snr_db: float) -> list[float]:
    """NMSE with each block aligned on its own phase, for the baseline.

    The densified block-diagonal problem leaves every block's phase free,
    so only per-block alignment is meaningful.
    """
    errs, c0 = [], 0
    for n in col_sizes:
        errs.append(aligned_nmse(x[c0:c0 + n], z[c0:c0 + n]))
        c0 += n
    bad = [i for i, e in enumerate(errs) if not e <= nmse_limit(snr_db)]
    if bad:
        detail = ", ".join(f"block {i}: {errs[i]:.3g}" for i in bad)
        raise CheckFailed(f"per-block NMSE above {nmse_limit(snr_db):.3g} ({detail})")
    return errs


def check_solve(instance, x, x_hat, out, snr_db: float) -> float:
    """Every check of one block_pr_solve output; returns its NMSE."""
    base = instance.base
    check_merge(x_hat, out.block_estimates, out.d_hat)
    check_block_misfit(base.operator.blocks, base.measurements, x_hat, snr_db)
    check_tuning_misfit(instance.tuning_matrix, instance.tuning_measurements, x_hat, snr_db)
    return check_nmse(x, x_hat, snr_db)

"""Each benchmark check accepts correct outputs and rejects a corrupted one."""

import numpy as np
import pytest

from blockpr import ExperimentConfig, SolverSpec, block_pr_solve, gen_instance, load_bpr1, save_bpr1
from perfbench.checks import (
    CheckFailed,
    check_block_misfit,
    check_blockwise_nmse,
    check_identical,
    check_merge,
    check_nmse,
    check_solve,
    check_tuning_misfit,
)

SNR = 30.0


@pytest.fixture(scope="module")
def solved():
    seed = 20240601
    instance, x = gen_instance(ExperimentConfig(n=256, snr_db=SNR), seed)
    x_hat, out = block_pr_solve(instance, SolverSpec("wf_truncated", seed=seed), None, 1)
    return instance, x, x_hat, out


def _split(v, col_sizes):
    return np.split(v, np.cumsum(col_sizes)[:-1])


def _rotate_block(x_hat, out, col_sizes, block, angle):
    """A merged estimate whose ``block`` carries an extra phase ``angle``."""
    d = out.d_hat.copy()
    d[block] *= np.exp(1j * angle)
    return np.concatenate([di * e for di, e in zip(d, out.block_estimates)]), d


def test_checks_accept_the_true_signal(solved):
    instance, x, _, _ = solved
    cols = instance.partition.col_sizes
    assert check_nmse(x, x, SNR) == pytest.approx(0.0, abs=1e-30)
    check_block_misfit(instance.base.operator.blocks, instance.base.measurements, x, SNR)
    check_tuning_misfit(instance.tuning_matrix, instance.tuning_measurements, x, SNR)
    check_merge(x, _split(x, cols), np.ones(len(cols), dtype=np.complex128))
    check_blockwise_nmse(x, x, cols, SNR)


def test_checks_accept_the_pipeline_output(solved):
    instance, x, x_hat, out = solved
    assert check_solve(instance, x, x_hat, out, SNR) < 0.01


def test_rotated_block_phase_is_rejected_without_ground_truth(solved):
    instance, x, x_hat, out = solved
    bad, _ = _rotate_block(x_hat, out, instance.partition.col_sizes, block=2, angle=np.pi / 3)
    # the block rows cannot see a per-block phase ...
    check_block_misfit(instance.base.operator.blocks, instance.base.measurements, bad, SNR)
    # ... the tuning rows can, and so can the NMSE against the truth
    with pytest.raises(CheckFailed, match="tuning-row misfit"):
        check_tuning_misfit(instance.tuning_matrix, instance.tuning_measurements, bad, SNR)
    with pytest.raises(CheckFailed, match="NMSE"):
        check_nmse(x, bad, SNR)


def test_phase_factor_off_the_unit_circle_is_rejected(solved):
    _, _, _, out = solved
    d = out.d_hat.copy()
    d[1] *= 1.0 + 1e-9
    merged = np.concatenate([di * e for di, e in zip(d, out.block_estimates)])
    with pytest.raises(CheckFailed, match="unit circle"):
        check_merge(merged, out.block_estimates, d)


def test_merge_mismatch_is_rejected(solved):
    _, _, x_hat, out = solved
    check_merge(x_hat, out.block_estimates, out.d_hat)
    moved = x_hat.copy()
    moved[0] = np.nextafter(moved[0].real, np.inf) + 1j * moved[0].imag
    with pytest.raises(CheckFailed, match="concat"):
        check_merge(moved, out.block_estimates, out.d_hat)


def test_bpr1_flipped_payload_byte_is_rejected(solved, tmp_path):
    instance, _, _, _ = solved
    path = tmp_path / "a.bpr1"
    save_bpr1(path, instance.tuning_matrix)
    check_identical(instance.tuning_matrix, load_bpr1(path), "BPR1 tuning matrix")
    raw = bytearray(path.read_bytes())
    raw[13 + 1000] ^= 0x01  # 13-byte dense header, then the entries
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckFailed, match="BPR1 tuning matrix differs"):
        check_identical(instance.tuning_matrix, load_bpr1(path), "BPR1 tuning matrix")


def test_identical_rejects_one_ulp(solved):
    _, _, x_hat, _ = solved
    other = x_hat.copy()
    other[-1] = complex(other[-1].real, np.nextafter(other[-1].imag, np.inf))
    check_identical(x_hat, x_hat.copy(), "estimate")
    with pytest.raises(CheckFailed, match="estimate differs"):
        check_identical(x_hat, other, "estimate")


def test_blockwise_nmse_ignores_block_phases_but_not_lost_blocks(solved):
    instance, x, _, _ = solved
    cols = instance.partition.col_sizes
    phases = np.exp(1j * np.array([0.0, 1.0, 2.0, 3.0]))
    rotated = np.concatenate([p * b for p, b in zip(phases, _split(x, cols))])
    check_blockwise_nmse(x, rotated, cols, SNR)
    with pytest.raises(CheckFailed, match="NMSE"):
        check_nmse(x, rotated, SNR)
    lost = x.copy()
    lost[cols[0]:cols[0] + cols[1]] = 0
    with pytest.raises(CheckFailed, match="block 1"):
        check_blockwise_nmse(x, lost, cols, SNR)

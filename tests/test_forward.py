import math

import numpy as np
import pytest

from blockpr.core import KRBDMatrix
from blockpr.forward import (
    NoiseSpec,
    add_noise_intensity,
    align_global_phase,
    apply,
    magnitudes_from_intensity,
    measure,
    nmse,
)
from blockpr.rng import complex_normal, generator


def grid_search_error(x_ref, x_est, n_points=10_000):
    """Independent oracle: best achievable ||x_ref - c x_est|| over a phase grid."""
    thetas = 2 * np.pi * np.arange(n_points) / n_points
    errs = [np.linalg.norm(x_ref - np.exp(1j * t) * x_est) for t in thetas]
    return min(errs)


def test_apply_identity():
    h = np.eye(2, dtype=complex)
    out = apply(h, np.array([3 + 4j, 1]))
    assert np.array_equal(out, [3 + 4j, 1])


def test_apply_hand_example():
    h = np.array([[1, 1], [1, -1]], dtype=complex)
    out = apply(h, np.array([1, 1j]))
    assert np.allclose(out, [1 + 1j, 1 - 1j], atol=0)


def test_apply_krbd_blockwise():
    k = KRBDMatrix([np.array([[2.0]]), np.array([[3.0]])])
    out = apply(k, np.array([1, 1j]))
    assert np.array_equal(out, [2, 3j])


def test_apply_dimension_mismatch():
    with pytest.raises(ValueError):
        apply(np.eye(2, dtype=complex), np.ones(3))


def test_measure_pythagorean():
    h = np.eye(1, dtype=complex)
    x = np.array([3 + 4j])
    assert np.allclose(measure(h, x), [25.0], atol=1e-13)


def test_measure_hand_example():
    h = np.array([[1, 1], [1, -1]], dtype=complex)
    y = measure(h, np.array([1, 1j]))
    assert np.allclose(y, [2.0, 2.0], atol=1e-15)


def test_measure_zero_signal():
    h = complex_normal(generator(0), (6, 3))
    assert np.array_equal(measure(h, np.zeros(3)), np.zeros(6))


def test_measure_intensity_is_squared_magnitude():
    rng = generator(11)
    h = complex_normal(rng, (20, 8))
    x = complex_normal(rng, 8)
    mag = np.abs(apply(h, x))
    inten = measure(h, x)
    assert np.allclose(inten, mag**2, rtol=1e-12)


def test_noiseless_spec_returns_input():
    b = np.arange(5, dtype=float)
    spec = NoiseSpec(math.inf, seed=1)
    assert spec.noiseless
    assert np.array_equal(add_noise_intensity(b, spec), b)


def test_noise_reproducible_bitwise():
    b = np.full(1000, 2.0)
    out1 = add_noise_intensity(b, NoiseSpec(20.0, seed=77))
    out2 = add_noise_intensity(b, NoiseSpec(20.0, seed=77))
    out3 = add_noise_intensity(b, NoiseSpec(20.0, seed=78))
    assert out1.tobytes() == out2.tobytes()
    assert out1.tobytes() != out3.tobytes()


def test_noise_variance_calibration():
    # empirical variance within 5% of sigma^2 = mean(b^2) * 10^(-snr/10)
    b = np.ones(100_000)
    out = add_noise_intensity(b, NoiseSpec(30.0, seed=5))
    w = out - b
    assert abs(np.var(w) / 1e-3 - 1.0) < 0.05


def test_noise_clamps_negatives():
    b = np.zeros(64)
    b[0] = 1.0
    out = add_noise_intensity(b, NoiseSpec(-40.0, seed=3))  # huge noise
    assert np.all(out >= 0)


def test_magnitudes_from_intensity_clamps():
    assert np.array_equal(magnitudes_from_intensity(np.array([4.0, -1.0])), [2.0, 0.0])


def test_align_analytic_minimizer():
    x = complex_normal(generator(21), 16)
    c = align_global_phase(x, 1j * x)
    assert abs(c - (-1j)) < 1e-12
    assert align_global_phase(x, x) == pytest.approx(1.0)


def test_align_zero_inner_product_returns_one():
    x_ref = np.array([1.0 + 0j, 0.0])
    x_est = np.array([0.0, 1.0 + 0j])
    assert align_global_phase(x_ref, x_est) == 1.0 + 0.0j


def test_align_length_mismatch():
    with pytest.raises(ValueError):
        align_global_phase(np.ones(3), np.ones(4))


def test_align_matches_grid_search_near_aligned():
    rng = generator(31)
    x_ref = complex_normal(rng, 32)
    x_ref /= np.linalg.norm(x_ref)
    x_est = np.exp(0.7j) * x_ref + 0.5 * complex_normal(rng, 32) / np.sqrt(32)
    c = align_global_phase(x_ref, x_est)
    achieved = np.linalg.norm(x_ref - c * x_est)
    best_grid = grid_search_error(x_ref, x_est)
    assert achieved <= best_grid + 1e-12
    assert abs(achieved - best_grid) / achieved <= 1e-6


def test_align_matches_grid_search_random_pairs():
    rng = generator(32)
    for _ in range(10):
        x_ref = complex_normal(rng, 24)
        x_est = complex_normal(rng, 24)
        c = align_global_phase(x_ref, x_est)
        achieved = np.linalg.norm(x_ref - c * x_est)
        best_grid = grid_search_error(x_ref, x_est)
        assert achieved <= best_grid + 1e-12
        assert abs(achieved - best_grid) / achieved <= 1e-6


def test_nmse_pure_phase_is_zero():
    x = complex_normal(generator(41), 20)
    assert nmse(x, np.exp(1j * np.pi / 3) * x) <= 1e-24


def test_nmse_zero_estimate_is_one():
    x = complex_normal(generator(42), 20)
    assert nmse(x, np.zeros(20)) == pytest.approx(1.0)


def test_nmse_small_perturbation_bound():
    rng = generator(43)
    x = complex_normal(rng, 20)
    x /= np.linalg.norm(x)
    eps = 1e-3
    e = np.zeros(20, dtype=complex)
    e[4] = 1.0
    assert nmse(x, x + eps * e) <= eps**2 + 1e-18  # alignment can only shrink error


def test_nmse_phase_invariance():
    rng = generator(44)
    x = complex_normal(rng, 30)
    xh = complex_normal(rng, 30)
    base = nmse(x, xh)
    for theta in generator(45).uniform(0, 2 * np.pi, 100):
        assert abs(nmse(x, np.exp(1j * theta) * xh) - base) <= 1e-12


def test_nmse_zero_reference_rejected():
    with pytest.raises(ValueError):
        nmse(np.zeros(4), np.ones(4))


import itertools
import math

import numpy as np
import pytest

from blockpr import solvers
from blockpr.core import KRBDMatrix, PRInstance
from blockpr.forward import NoiseSpec, add_noise_intensity, apply, measure, nmse
from blockpr.rng import complex_normal, generator, mix_seed
from blockpr.solvers import (
    APParams,
    Diverged,
    NonProgress,
    RankDeficient,
    SolverSpec,
    WFParams,
    altproj_solve,
    pinv_factor,
    solve_pr,
    spectral_init,
    unit_modulus_tune,
    wf_solve,
)


def gaussian_instance(seed, n, m, dtype=np.complex128):
    # the intensities of a complex64 operator are measured in complex128, as
    # gen_instance measures its blocks', so they are exact
    rng = generator(seed)
    h = complex_normal(rng, (m, n)).astype(dtype, copy=False)
    x = complex_normal(rng, n)
    return PRInstance(h, measure(h, x), "intensity"), x


def noisy_instance(seed, n, m, snr_db=30.0, dtype=np.complex128):
    rng = generator(seed)
    h = complex_normal(rng, (m, n)).astype(dtype, copy=False)
    x = complex_normal(rng, n)
    b = add_noise_intensity(measure(h, x), NoiseSpec(snr_db, mix_seed(seed, 1)))
    return PRInstance(h, b, "intensity", snr_db), x


def correlation(u, v):
    return abs(np.vdot(u, v)) / (np.linalg.norm(u) * np.linalg.norm(v))


# ---------------------------------------------------------------- stop policy

def _stops(trace):
    """The stop rule on a residual trace that began with the initial residual, as WF's does."""
    return solvers._stop_reason(list(trace), len(trace) - 1, 1e-8, 10**6)


@pytest.mark.parametrize("rate", [0.5, 0.9, 0.99])
def test_predicted_stop_geometric_decay_never_stalls(rate):
    # the extrapolated remaining fall of a geometric decay is the residual
    # itself, so a noiseless run goes on to "tol"
    trace = 0.5 * rate ** np.arange(2000)
    reasons = [_stops(trace[:k]) for k in range(1, len(trace) + 1)]
    assert "tol" in reasons and set(reasons) == {None, "tol"}


@pytest.mark.parametrize("amplitude", [0.4, (0.9**-3 - 1) / (0.9**-3 + 1)],
                         ids=["wide", "flat-at-lag-3"])
def test_predicted_stop_period_two_oscillation_never_stalls(amplitude):
    # momentum WF can zigzag on a geometric decay; the 4-step lags read every
    # other residual, one phase of the oscillation. At the second amplitude
    # every other residual equals the one 3 steps before it, which 3-step
    # lags read as flat. With them the rule stopped the noiseless
    # gaussian_instance(mix_seed(900, 10), 32, 192) on "stall" at residual
    # 7.9e-5 after 36 iterations (test_wf_noiseless_runs_stop_on_tol runs it)
    k = np.arange(2000)
    trace = 0.5 * 0.9 ** k * (1 + amplitude * (-1.0) ** k)
    reasons = [_stops(trace[:j]) for j in range(1, len(trace) + 1)]
    assert "tol" in reasons and set(reasons) == {None, "tol"}


def test_stop_reason_growing_trace_does_not_stop():
    # a slow growth, twice the rule's resolution per _PLATEAU_LAG steps, is
    # still read as growth and not as a flat plateau
    lag, rtol = solvers._PLATEAU_LAG, solvers._STALL_RTOL
    trace = 0.5 * (1 + 2 * rtol) ** (np.arange(200) / lag)
    assert {_stops(trace[:k]) for k in range(1, len(trace) + 1)} == {None}


@pytest.mark.parametrize("rate", [1.01, 1.5])
def test_predicted_stop_growing_trace_does_not_stop(rate):
    # a residual that keeps growing is not a plateau; a diverging run goes on
    # until it raises Diverged (test_wf_diverging_step_raises_diverged)
    trace = 0.5 * rate ** np.arange(200)
    assert {_stops(trace[:k]) for k in range(1, len(trace) + 1)} == {None}


def test_predicted_stop_reads_the_extrapolated_fall():
    # a geometric approach to a floor: c = floor + e q^k. The extrapolated
    # remaining fall is e q^k itself, so the run stalls once that is below
    # 1e-3 of the residual, and not before
    floor, e, q = 0.04, 0.4, 0.8
    trace = floor + e * q ** np.arange(100)
    reasons = [_stops(trace[:k]) for k in range(1, len(trace) + 1)]
    first = reasons.index("stall")  # on trace[:first + 1]
    assert set(reasons[:first]) == {None}
    assert e * q ** first < solvers._STALL_RTOL * trace[first]
    assert e * q ** (first - 1) >= solvers._STALL_RTOL * trace[first - 1]
    # and a flat trace stalls as soon as more than 10 residuals exist
    assert [_stops([0.5] * k) for k in range(1, 12)] == [None] * 10 + ["stall"]


def test_stop_rule_per_solver(monkeypatch):
    # every solver, gaussian-loss WF and the phase tuner among them, stops on
    # the one shared rule: a single restart ends on the reason it last gave
    reasons = []
    stop_reason = solvers._stop_reason
    monkeypatch.setattr(solvers, "_stop_reason",
                        lambda *args: reasons.append(stop_reason(*args)) or reasons[-1])
    inst, _ = noisy_instance(52, 16, 96)
    runs = {
        "wf": lambda: wf_solve(inst, seed=1),
        "ap": lambda: altproj_solve(inst, seed=1),
        "gaussian": lambda: wf_solve(inst, WFParams(loss="gaussian", step_size=0.1), seed=1),
        "tuner": lambda: unit_modulus_tune(complex_normal(generator(53), (40, 4)),
                                           np.ones(40), seed=1, restarts=1),
    }
    for name, run in runs.items():
        reasons.clear()
        _, rep = run()
        assert reasons[:-1] == [None] * (len(reasons) - 1), name
        assert reasons[-1] == rep.stop_reason, name


def _fake_runs(*runs):
    """``_best_restart``'s start and iterate over fixed (residual, reason) outcomes.

    Restart r's estimate is [r], so the winner's index can be read off it.
    """
    def iterate(x0):
        residual, reason = runs[int(x0[0].real)]
        return solvers._Run(x0, residual, 1, [residual], reason)
    return (lambda r: np.array([r], dtype=complex)), iterate


def test_best_restart_ends_on_tol_or_an_agreeing_stall():
    cases = [  # (residual, reason) per restart, restarts used, winning restart
        # "tol" ends the loop
        ([(1e-9, "tol"), (0.5, "stall")], 1, 0),
        ([(0.3, "stall"), (1e-9, "tol"), (0.5, "stall")], 2, 1),
        # a stall within _STALL_RTOL of the best before it agrees with it
        ([(0.3, "stall"), (0.3 * (1 + 0.9e-3), "stall"), (0.1, "stall")], 2, 0),
        ([(0.3, "stall"), (0.3 * (1 - 0.9e-3), "stall"), (0.1, "stall")], 2, 1),
        ([(0.5, "stall"), (0.3, "stall"), (0.3, "stall"), (0.1, "stall")], 3, 1),
        # one further off does not, and the cap ends the loop
        ([(0.3, "stall"), (0.3 * (1 + 1.1e-3), "stall"), (0.4, "stall")], 3, 0),
        # a capped run never agrees, even with an equal residual
        ([(0.3, "max_iters"), (0.3, "max_iters"), (0.3, "max_iters")], 3, 0),
        ([(0.3, "stall"), (0.3, "max_iters"), (0.3, "stall"), (0.1, "stall")], 3, 0),
        # the lowest residual wins, ties to the lowest index
        ([(0.4, "stall"), (0.2, "max_iters"), (0.2, "max_iters")], 3, 1),
    ]
    for runs, used, winner in cases:
        start, iterate = _fake_runs(*runs)
        best, restarts_used, _, _ = solvers._best_restart(start, iterate, len(runs))
        assert (restarts_used, best.x[0]) == (used, winner), runs


# ---------------------------------------------------------------- spectral init

def _count_products(monkeypatch) -> list:
    """A list that gains one entry per ``_LinOp.matvec`` call: one per spectral step."""
    matvec = solvers._LinOp.matvec
    calls = []
    monkeypatch.setattr(solvers._LinOp, "matvec",
                        lambda self, z: calls.append(1) or matvec(self, z))
    return calls


def test_spectral_init_correlation_monte_carlo(monkeypatch):
    # one product pair per Lanczos step; the iteration stops once the Ritz
    # vector stops moving, typically long before the init_power_iters cap
    calls = _count_products(monkeypatch)
    hits = 0
    steps = []
    for t in range(100):
        inst, x = gaussian_instance(mix_seed(800, t), 64, 384)
        calls.clear()
        z0 = spectral_init(inst.operator, inst.measurements, WFParams(), seed=t)
        steps.append(len(calls))
        hits += correlation(z0, x) >= 0.5
    assert hits >= 95
    assert max(steps) <= WFParams().init_power_iters
    assert np.median(steps) < WFParams().init_power_iters / 2


def test_spectral_init_correlation_floor_on_table1_blocks(monkeypatch):
    # the 96 complex64 768 x 128 blocks of six N = 2048 SNR-30 instances, each
    # started as wf_solve's restart 0 starts it in the pipeline. The optimal
    # preprocessing read a minimum of 0.82 (median 0.87); the truncated
    # weighting b_r [b_r <= 9 mean(b)] read 0.455 (median 0.62). Lanczos took
    # 11.8 products per start on average (at most 14); the shifted heavy-ball
    # power iteration before it took 24.0 (at most 35)
    from blockpr.bench import ExperimentConfig, gen_instance
    from blockpr.pipeline import block_seed

    calls = _count_products(monkeypatch)
    cors, products = [], []
    for t in range(6):
        trial = mix_seed(900, 2, 2048, t)
        inst, x = gen_instance(ExperimentConfig(n=2048, snr_db=30.0), trial)
        r0 = c0 = 0
        for i, h in enumerate(inst.base.operator.blocks):
            m, n = h.shape
            calls.clear()
            z0 = spectral_init(h, inst.base.measurements[r0:r0 + m], WFParams(),
                               mix_seed(block_seed(trial, i), 0))
            products.append(len(calls))
            cors.append(correlation(z0, x[c0:c0 + n]))
            r0, c0 = r0 + m, c0 + n
    assert len(cors) == 96
    assert min(cors) >= 0.75
    assert np.mean(products) <= 16 and max(products) <= 24


def test_spectral_init_finds_the_top_eigenvector_of_a_non_marchenko_pastur_spectrum():
    # one column 30x heavier than the rest, and a signal that does not touch
    # it: that column's direction is an eigenvector of D with eigenvalue near
    # -300, far larger in modulus than the top one (about 0.3), so a power
    # iteration without a shift converged to it (correlation 1.0 on every
    # draw here), and the shifted one it replaced, held off that direction,
    # reached only 0.14-0.41 with the top eigenvector. Lanczos targets the
    # largest algebraic eigenvalue, whatever lies below it
    for seed in range(5):
        rng = generator(seed)
        m, n = 96, 16
        h = complex_normal(rng, (m, n))
        h[:, 0] *= 30
        x = complex_normal(rng, n)
        x[0] = 0
        b = measure(h, x)
        weights = np.maximum(1 - b.mean() / b, -1) / m
        lam, vecs = np.linalg.eigh(h.conj().T @ (weights[:, None] * h))
        assert lam[0] < -100 * lam[-1] < 0
        z0 = spectral_init(h, b, WFParams(), seed=seed)
        assert correlation(z0, vecs[:, 0]) <= 0.1, seed
        assert correlation(z0, vecs[:, -1]) >= 0.99, seed
        assert correlation(z0, x) >= 0.7, seed


def test_spectral_init_constant_measurements_stop_after_one_product(monkeypatch):
    # equal intensities weight every row by T(1) = 0, so D = 0: the first
    # step breaks down (beta = 0), and the start is the random unit vector at
    # the documented scale sqrt(N mean(b) / mean ||h_r||^2)
    calls = _count_products(monkeypatch)
    h = complex_normal(generator(63), (48, 8))
    z0 = spectral_init(h, np.full(48, 3.0), WFParams(), seed=2)
    assert len(calls) == 1
    assert np.all(np.isfinite(z0))
    energy = np.mean(np.linalg.norm(h, axis=1)**2)
    assert np.linalg.norm(z0) == pytest.approx(math.sqrt(8 * 3.0 / energy), rel=1e-12)


def test_spectral_init_on_the_dense_baseline_holds_a_small_basis(traced_peak):
    # the benchmark's densified N = 512 baseline (3072 x 512 complex64),
    # started as its wf_solve's restart 0. The Lanczos basis grows with the
    # steps taken (16 rows, then doubling): this start takes 16 steps and
    # peaks at 170-174 KB, of which the basis is 64 KB; a basis allocated to
    # the 100-step cap read 509 KB
    from blockpr.bench import ExperimentConfig, gen_instance
    from blockpr.pipeline import block_seed

    trial = mix_seed(0, 2, 512, 0)
    inst, _ = gen_instance(ExperimentConfig(n=512, snr_db=30.0), trial)
    dense = inst.base.operator.to_dense()
    b = inst.base.measurements
    z0, peak = traced_peak(
        lambda: spectral_init(dense, b, WFParams(), mix_seed(block_seed(trial, 0), 0)))
    assert z0.dtype == np.complex64
    assert peak <= 200 * 1024


def test_spectral_init_zero_measurements():
    with pytest.raises(ValueError):
        spectral_init(np.eye(4, dtype=complex), np.zeros(4), WFParams(), seed=0)


def test_spectral_init_rank_one_case():
    # N=1: the only eigenvector, correlation is 1 by construction
    inst, x = gaussian_instance(3, 1, 8)
    z0 = spectral_init(inst.operator, inst.measurements, WFParams(), seed=0)
    assert correlation(z0, x) == pytest.approx(1.0, abs=1e-12)


def test_spectral_init_scale_estimates_signal_norm():
    inst, x = gaussian_instance(4, 48, 288)
    z0 = spectral_init(inst.operator, inst.measurements, WFParams(), seed=1)
    assert 0.5 <= np.linalg.norm(z0) / np.linalg.norm(x) <= 2.0


# ---------------------------------------------------------------- wf_solve

def test_wf_fixed_point_hook():
    inst, x = gaussian_instance(10, 16, 96)
    z, rep = wf_solve(inst, seed=0, z0=x)
    assert rep.iterations == 0
    assert rep.final_residual == 0.0
    assert rep.converged
    assert np.array_equal(z, x)


def test_wf_noiseless_recovery_monte_carlo():
    from blockpr.forward import nmse

    hits = 0
    for t in range(100):
        inst, x = gaussian_instance(mix_seed(900, t), 32, 192)
        z, rep = wf_solve(inst, seed=mix_seed(901, t), restarts=3)
        hits += nmse(x, z) <= 1e-6
    assert hits >= 90


def test_wf_zero_measurements_rejected():
    inst = PRInstance(np.eye(4, dtype=complex), np.zeros(4), "intensity")
    with pytest.raises(ValueError):
        wf_solve(inst)


def test_wf_noisy_run_stops_on_stall():
    # at SNR 30 the residual plateaus far above tol
    inst, x = noisy_instance(5, 64, 384)
    z, rep = wf_solve(inst, seed=1)
    assert rep.stop_reason == "stall"
    assert rep.iterations < WFParams().max_iters
    assert not rep.converged
    assert nmse(x, z) <= 2e-3


def test_wf_noiseless_runs_stop_on_tol():
    # linear convergence is never mistaken for a stall; on a complex64
    # operator the run reaches tol through its complex128 finish
    for dtype in (np.complex128, np.complex64):
        for t in range(20):
            inst, _ = gaussian_instance(mix_seed(900, t), 32, 192, dtype)
            z, rep = wf_solve(inst, seed=mix_seed(901, t))
            assert rep.stop_reason == "tol" and rep.converged, (dtype, t)
            assert z.dtype == np.complex128


def test_wf_diverging_step_raises_diverged():
    # step_size=3 blows the iterate up to inf; this must not read as a stall,
    # an empty truncation set or a finished run
    inst, _ = gaussian_instance(4, 256, 1536)
    with np.errstate(all="ignore"), pytest.raises(Diverged):
        wf_solve(inst, WFParams(step_size=3.0), seed=0)


def test_wf_non_progress():
    # rows whose normalized projections sit outside a razor-thin truncation band
    h = np.array([[2.0, 0.0], [0.0, 1.0]], dtype=complex)
    inst = PRInstance(h, np.array([1.0, 1.0]), "intensity")
    params = WFParams(trunc_lb=0.99, trunc_ub=1.01)
    with pytest.raises(NonProgress):
        wf_solve(inst, params, z0=np.array([1.0, 2.0], dtype=complex))


def test_wf_final_residual_not_worse_than_initial():
    for t in range(5):
        inst, _ = gaussian_instance(mix_seed(77, t), 24, 144)
        z, rep = wf_solve(inst, seed=t, restarts=2)
        if rep.converged:
            assert rep.residuals[-1] <= rep.residuals[0]


def test_wf_deterministic():
    inst, _ = gaussian_instance(12, 24, 144)
    z1, r1 = wf_solve(inst, seed=42, restarts=2)
    z2, r2 = wf_solve(inst, seed=42, restarts=2)
    z3, _ = wf_solve(inst, seed=43, restarts=2)
    assert z1.tobytes() == z2.tobytes()
    assert r1.final_residual == r2.final_residual
    assert z1.tobytes() != z3.tobytes()


def test_wf_gaussian_loss_variant_converges():
    from blockpr.forward import nmse

    inst, x = gaussian_instance(13, 32, 192)
    params = WFParams(loss="gaussian", step_size=0.1, max_iters=1500)
    z, rep = wf_solve(inst, params, seed=3, restarts=3)
    assert nmse(x, z) <= 1e-6


def test_wf_momentum_cuts_noiseless_iterations(monkeypatch):
    # heavy-ball steps on the Poisson loss reach tol in well under the
    # plain gradient's iterations (about 0.3x on 384 x 64 blocks)
    assert 0 < solvers._WF_MOMENTUM < 1
    for t in range(5):
        inst, _ = gaussian_instance(mix_seed(905, t), 64, 384, np.complex64)
        _, heavy = wf_solve(inst, seed=t)
        with monkeypatch.context() as m:
            m.setattr(solvers, "_WF_MOMENTUM", 0.0)
            _, plain = wf_solve(inst, seed=t)
        assert heavy.stop_reason == plain.stop_reason == "tol", t
        assert heavy.iterations <= 0.6 * plain.iterations, (t, heavy.iterations, plain.iterations)


def test_wf_momentum_restarts_after_a_residual_rise(monkeypatch):
    # record every iterate z_k (each matvec's input) and gradient g_k (each
    # rmatvec's output): on either loss the update z_k - z_{k+1} is step * g_k
    # plus momentum times the update before it, except after a residual rise
    iterates, grads = [], []
    matvec, rmatvec = solvers._LinOp.matvec, solvers._LinOp.rmatvec
    monkeypatch.setattr(solvers._LinOp, "matvec",
                        lambda self, z: iterates.append(z.copy()) or matvec(self, z))
    monkeypatch.setattr(solvers._LinOp, "rmatvec",
                        lambda self, w: grads.append(rmatvec(self, w)) or grads[-1])
    inst, x = noisy_instance(16, 64, 384, snr_db=20.0)
    for params in (WFParams(step_size=0.4), WFParams(loss="gaussian", step_size=0.15)):
        iterates.clear()
        grads.clear()
        _, rep = wf_solve(inst, params, z0=x)
        assert len(iterates) == len(grads) + 1 == rep.iterations + 1
        step, beta = 2 * params.step_size / 384, solvers._WF_MOMENTUM
        if params.loss == "gaussian":
            step /= np.mean(inst.measurements)
        updates = [iterates[k] - iterates[k + 1] for k in range(rep.iterations)]
        trace = rep.residuals
        rises = 0
        for k in range(1, rep.iterations):
            plain = step * grads[k]
            carried = beta * updates[k - 1]
            assert np.linalg.norm(carried) > 1e-3 * np.linalg.norm(updates[k])
            if trace[k] > trace[k - 1]:
                rises += 1
                assert np.allclose(updates[k], plain, rtol=0, atol=1e-12), k
            else:
                assert np.allclose(updates[k], plain + carried, rtol=0, atol=1e-12), k
        assert rises > 0, params.loss


def test_wf_snr30_dense_median_nmse():
    # reference operating point: dense Gaussian, N=256, M=1536, SNR 30 dB
    from blockpr.forward import add_noise_intensity, nmse
    from blockpr.forward import NoiseSpec

    errs = []
    params = WFParams(loss="gaussian", step_size=0.1, max_iters=800, trunc_h=8.0)
    for t in range(11):
        rng = generator(mix_seed(970, t))
        h = complex_normal(rng, (1536, 256))
        x = complex_normal(rng, 256)
        b = add_noise_intensity(measure(h, x), NoiseSpec(30.0, mix_seed(971, t)))
        z, _ = wf_solve(PRInstance(h, b, "intensity", 30.0), params, seed=t)
        errs.append(nmse(x, z))
    assert np.median(errs) <= 1e-3


@pytest.mark.parametrize("solver", ["wf_solve", "spectral_init", "altproj_solve",
                                    "pinv_factor"])
def test_solvers_reject_krbd_operator(solver):
    # the solvers run on one dense block at a time; a KRBD operator is an error
    rng = generator(14)
    op = KRBDMatrix([complex_normal(rng, (48, 8)) for _ in range(2)])
    b = measure(op, complex_normal(rng, 16))
    calls = {
        "wf_solve": lambda: wf_solve(PRInstance(op, b, "intensity"), seed=5),
        "spectral_init": lambda: spectral_init(op, b, WFParams(), seed=5),
        "altproj_solve": lambda: altproj_solve(PRInstance(op, b, "intensity")),
        "pinv_factor": lambda: pinv_factor(op),
    }
    with pytest.raises(TypeError, match=f"{solver} expects a dense operator"):
        calls[solver]()


@pytest.mark.parametrize("dtype, real", [(np.complex64, np.float32),
                                         (np.complex128, np.float64)])
def test_row_norms_take_one_pass_with_no_temporary(dtype, real, traced_peak):
    # the densified N = 512 baseline's shape: the norms read the block's
    # (re, im) float view in place, so nothing near the block's 12.6 MB (or a
    # row chunk's 1 MB of |h|^2) is allocated beside the 12 KB result
    h = complex_normal(generator(62), (3072, 512)).astype(dtype)
    norms, peak = traced_peak(lambda: solvers._row_norms(h))
    assert norms.dtype == real
    assert peak < 64 * 1024
    exact = np.linalg.norm(h.astype(np.complex128), axis=1)
    assert np.max(np.abs(norms - exact) / exact) <= 1e-6


@pytest.fixture(scope="module")
def block64_snr30():
    """A 768 x 128 complex64 block and its intensities at SNR 30."""
    inst, _ = noisy_instance(61, 128, 768, dtype=np.complex64)
    return inst


def test_wf_complex64_solve_copies_no_block(block64_snr30, traced_peak):
    # a product of the block with a complex128 vector casts the whole block,
    # and so would the complex128 finish, which SNR 30 never reaches
    (z, rep), peak = traced_peak(lambda: wf_solve(block64_snr30, seed=1))
    assert rep.stop_reason == "stall" and z.dtype == np.complex128
    assert peak < block64_snr30.operator.nbytes


def test_altproj_complex64_solve_copies_no_block(block64_snr30, traced_peak):
    # the factor keeps the block itself beside G^-1 (n x n), and an SNR-30
    # run never reaches the complex128 finish; the peak read 0.41 MB against
    # the block's 0.79 MB, and 0.96 MB when the factor held the block's Q
    (z, rep), peak = traced_peak(lambda: altproj_solve(block64_snr30, seed=1))
    assert rep.stop_reason == "stall" and z.dtype == np.complex128
    assert peak < block64_snr30.operator.nbytes


def _inverse_error(h, lsq):
    """||G^-1 G - I|| of the factor's G^-1, with G = H^H H, in complex128."""
    h = h.astype(np.complex128)
    return np.linalg.norm(lsq.ginv.astype(np.complex128) @ (h.conj().T @ h) - np.eye(h.shape[1]))


def test_pinv_factor_makes_one_complex128_copy(block64_snr30, traced_peak):
    # a complex128 block is kept as it is, and a complex64 one that fails the
    # single-precision guard is copied once to complex128; beside it the
    # factor holds R^-1 (in R's place), R^-H and G^-1 at most (n x n each),
    # and 16 KiB covers the condition estimate's work vectors and R's diagonal
    h = block64_snr30.operator.astype(np.complex128)
    m, n = h.shape
    lsq, peak = traced_peak(lambda: pinv_factor(h))
    assert lsq.h is h and lsq.ginv.dtype == np.complex128
    assert peak <= 3 * 16 * n * n + 16 * 1024
    assert _inverse_error(h, lsq) <= 1e-13
    # condition 20: a reciprocal condition estimate of 2.1e-3, between the
    # two guards
    v, _ = np.linalg.qr(complex_normal(generator(26), (n, n)))
    h = (h @ (v * np.geomspace(1, 1 / 20, n)) @ v.conj().T).astype(np.complex64)
    lsq, peak = traced_peak(lambda: pinv_factor(h))
    assert lsq.h.dtype == lsq.ginv.dtype == np.complex128 and not lsq.refine
    assert peak <= 16 * m * n + 3 * 16 * n * n + 16 * 1024


def test_spectral_init_complex64_block_stops_before_the_cap(block64_snr30, monkeypatch):
    # the Ritz-vector tolerance, not init_power_iters, ends the Lanczos
    # iteration on a Table-1 block (768 x 128, complex64, SNR 30)
    calls = _count_products(monkeypatch)
    for seed in range(3):
        calls.clear()
        spectral_init(block64_snr30.operator, block64_snr30.measurements, WFParams(), seed)
        assert len(calls) < WFParams().init_power_iters, seed


def test_pinv_factor_keeps_the_complex64_block(block64_snr30, traced_peak):
    # a complex64 block is factored in its own precision and kept, not
    # copied: the factor holds no m x n array of its own, and G^-1 is the
    # only array it adds. ||G^-1 G - I|| read 3.6e-6 to 4.0e-6 on nine
    # 768 x 128 blocks
    h = block64_snr30.operator
    m, n = h.shape
    lsq, peak = traced_peak(lambda: pinv_factor(h))
    assert lsq.h is h and lsq.ginv.dtype == np.complex64
    for name, value in vars(lsq).items():
        if isinstance(value, np.ndarray):
            assert np.shares_memory(value, h) or value.size <= n * n, name
    assert peak <= 3 * 8 * n * n + 16 * 1024
    assert _inverse_error(h, lsq) <= 5e-6


# ---------------------------------------------------------------- pinv_factor

def test_pinv_identity():
    lsq = pinv_factor(np.eye(3, dtype=complex))
    v = np.array([1.0, 2.0, 3.0], dtype=complex)
    assert np.allclose(lsq.solve(v), v, atol=1e-14)


def test_pinv_least_squares_mean():
    lsq = pinv_factor(np.array([[1.0], [1.0]], dtype=complex))
    z = lsq.solve(np.array([1.0, 3.0], dtype=complex))
    assert np.allclose(z, [2.0], atol=1e-14)


def _assert_matches_svd_route(h, lsq, rng, tol=1e-10):
    # independent factorization: numpy lstsq (SVD, in complex128) vs the
    # Gram factor's solve
    for t in range(5):
        v = complex_normal(rng, h.shape[0])
        z_gram = lsq.solve(v)
        z_svd, *_ = np.linalg.lstsq(h, v, rcond=None)
        assert np.linalg.norm(h @ z_gram - h @ z_svd) <= tol * np.linalg.norm(v)


def test_pinv_cross_check_against_svd_route():
    rng = generator(15)
    h = complex_normal(rng, (48, 8))
    _assert_matches_svd_route(h, pinv_factor(h), rng)


def test_pinv_gaussian_block_takes_cholesky_qr(monkeypatch):
    # a well-conditioned block is factored by the Gram matrix's Cholesky
    # factor alone; ||G^-1 G - I|| read 8.0e-15 to 8.8e-15 on six such blocks
    def householder(*args, **kwargs):
        raise AssertionError("Householder QR ran on a well-conditioned block")

    monkeypatch.setattr(solvers.scipy.linalg, "qr", householder)
    rng = generator(18)
    h = complex_normal(rng, (768, 128))
    lsq = pinv_factor(h)
    assert _inverse_error(h, lsq) <= 1e-13 and not lsq.refine
    _assert_matches_svd_route(h, lsq, rng)


def test_pinv_ill_conditioned_falls_back_to_householder():
    # singular values 1 .. 1e-6: one unguarded Cholesky QR pass misses the
    # SVD route by about 2e-6 here, so the condition guard must send this
    # full-rank matrix to Householder QR. Column scaling would not test the
    # guard, because Cholesky QR tolerates it. On the Householder R the plain
    # seminormal step still missed by up to 1.5e-6; with the one refinement
    # step it missed by 5e-12 to 1.9e-11.
    rng = generator(17)
    u, _ = np.linalg.qr(complex_normal(rng, (48, 8)))
    v, _ = np.linalg.qr(complex_normal(rng, (8, 8)))
    h = (u * np.geomspace(1, 1e-6, 8)) @ v.conj().T
    lsq = pinv_factor(h)
    assert lsq.refine
    _assert_matches_svd_route(h, lsq, rng)
    # rounded to complex64, it fails the single-precision guard too and is
    # factored from its exact complex64 entries in complex128
    h = h.astype(np.complex64)
    lsq = pinv_factor(h)
    assert lsq.h.dtype == lsq.ginv.dtype == np.complex128 and lsq.refine
    _assert_matches_svd_route(h, lsq, rng)


def test_pinv_complex64_gaussian_block_takes_single_precision_cholesky_qr(monkeypatch):
    # a well-conditioned complex64 block is factored by one complex64
    # Cholesky factorization of its Gram matrix, with neither the complex128
    # nor the Householder route; ||G^-1 G - I|| read 3.6e-6 to 4.0e-6 on six
    # such blocks
    gram_cholesky = solvers._gram_cholesky

    def single_only(h, min_rcond):
        if h.dtype != np.complex64:
            raise AssertionError("the complex128 route ran on a well-conditioned complex64 block")
        return gram_cholesky(h, min_rcond)

    def householder(*args, **kwargs):
        raise AssertionError("Householder QR ran on a well-conditioned block")

    monkeypatch.setattr(solvers, "_gram_cholesky", single_only)
    monkeypatch.setattr(solvers.scipy.linalg, "qr", householder)
    rng = generator(18)
    h = complex_normal(rng, (768, 128)).astype(np.complex64)
    lsq = pinv_factor(h)
    assert lsq.ginv.dtype == np.complex64 and lsq.h is h
    assert _inverse_error(h, lsq) <= 5e-6
    _assert_matches_svd_route(h, lsq, rng, tol=1e-6)


def test_pinv_complex64_guard_keeps_noiseless_altproj_on_tol():
    # H = G C with G Gaussian and C of condition 300 has G's range, so AP
    # takes G's path; but the Q = H R^-1 of its complex64 Cholesky factor is
    # orthonormal only to about 1e-3, and on three such draws (and this one)
    # noiseless AP on that factor stalled near 1.5e-5, short of the complex128
    # finish. The guard sends it to complex128.
    rng = generator(23)
    v, _ = np.linalg.qr(complex_normal(rng, (16, 16)))
    h = (complex_normal(rng, (96, 16)) @ (v * np.geomspace(1, 1 / 300, 16)) @ v.conj().T)
    h = h.astype(np.complex64)
    assert pinv_factor(h).h.dtype == np.complex128
    inst = PRInstance(h, measure(h, complex_normal(rng, 16)), "intensity")
    _, rep = altproj_solve(inst, seed=1)
    assert rep.stop_reason == "tol"


def test_pinv_rank_deficient():
    rng = generator(16)
    col = complex_normal(rng, 12)
    h = np.stack([col, 2 * col, complex_normal(rng, 12)], axis=1)
    with pytest.raises(RankDeficient):
        pinv_factor(h)


def test_pinv_zero_column_rank_deficient():
    # the Gram matrix is singular, so the Cholesky factorization fails and
    # the rank rule runs on the Householder factor, before R is inverted
    h = complex_normal(generator(19), (48, 8))
    h[:, 3] = 0
    with pytest.raises(RankDeficient):
        pinv_factor(h)


def test_pinv_requires_tall_matrix():
    with pytest.raises(ValueError):
        pinv_factor(np.ones((2, 4), dtype=complex))


# ---------------------------------------------------------------- altproj_solve

def test_altproj_fixed_point_one_iteration():
    x = complex_normal(generator(20), 6)
    inst = PRInstance(np.eye(6, dtype=complex), np.abs(x) ** 2, "intensity")
    z, rep = altproj_solve(inst, seed=0, z0=x)
    assert rep.iterations == 1
    assert rep.converged
    assert np.allclose(z, x, atol=1e-12)


def test_altproj_zero_measurements():
    inst = PRInstance(np.eye(4, dtype=complex), np.zeros(4), "intensity")
    z, rep = altproj_solve(inst)
    assert np.array_equal(z, np.zeros(4))
    assert rep.converged


def test_altproj_noiseless_recovery_monte_carlo():
    from blockpr.forward import nmse

    hits = 0
    for t in range(100):
        inst, x = gaussian_instance(mix_seed(950, t), 16, 96)
        z, rep = altproj_solve(inst, seed=mix_seed(951, t), restarts=10)
        hits += nmse(x, z) <= 1e-8
    assert hits >= 90


def test_altproj_residuals_non_increasing():
    for t in range(5):
        inst, _ = gaussian_instance(mix_seed(960, t), 12, 72)
        _, rep = altproj_solve(inst, seed=t)
        diffs = np.diff(np.asarray(rep.residuals))
        assert np.all(diffs <= 1e-12)
        # a complex64 Q is orthonormal to about 1e-6, so on noisy data a step
        # may raise the residual by float32 rounding: by 6.7e-7 relative at most
        inst, _ = noisy_instance(mix_seed(960, t), 12, 72, dtype=np.complex64)
        _, rep = altproj_solve(inst, seed=t)
        res = np.asarray(rep.residuals)
        assert np.all(np.diff(res) <= 2e-6 * res[:-1])


def test_altproj_non_finite_residual_raises_diverged():
    # a finite start whose image overflows gives a NaN residual
    inst, _ = gaussian_instance(3, 8, 48)
    with np.errstate(all="ignore"), pytest.raises(Diverged):
        altproj_solve(inst, z0=np.full(8, 1e308, dtype=complex))


def test_phases_carry_non_finite_entries():
    # a non-finite image entry must reach the residual and raise Diverged;
    # phase 1 for it would let an AP run quietly recover
    v = np.array([np.nan, complex(np.inf, 1.0), 0.0, 2j, -3.0])
    with np.errstate(invalid="ignore"):
        ph = solvers._phases(v, np.abs(v))
    assert np.isnan(ph[:2]).all()
    assert ph[2:].tolist() == [1.0, 1j, -1.0]


def _xspace_altproj(h, a, z, params):
    """Reference AP: every step solves the least-squares problem by SVD in x."""
    trace = []
    reason = None
    while reason is None:
        z = np.linalg.lstsq(h, a * np.exp(1j * np.angle(h @ z)), rcond=None)[0]
        trace.append(float(np.linalg.norm(np.abs(h @ z) - a) / np.linalg.norm(a)))
        reason = solvers._stop_reason(trace, len(trace), params.tol, params.max_iters)
    return z, len(trace)


def test_altproj_matches_xspace_lstsq_reference():
    # iterating through the Gram factor changes only the rounding of each step
    params = APParams()
    for t in range(5):
        inst, _ = noisy_instance(mix_seed(970, t), 16, 96)
        z0 = complex_normal(generator(mix_seed(971, t)), 16)
        z, rep = altproj_solve(inst, params, z0=z0)
        z_ref, iters = _xspace_altproj(inst.operator, np.sqrt(inst.measurements), z0, params)
        assert rep.iterations == iters
        assert np.linalg.norm(z - z_ref) <= 1e-10 * np.linalg.norm(z_ref)


def test_altproj_and_tuner_factor_once(monkeypatch):
    # one factorization per solve, through the module-level pinv_factor,
    # which the benchmark's tracer wraps to time solvers.factor_s
    calls = []
    factor = solvers.pinv_factor
    monkeypatch.setattr(solvers, "pinv_factor", lambda op: calls.append(op.shape) or factor(op))
    inst, _ = gaussian_instance(48, 12, 72)
    altproj_solve(inst, seed=1, restarts=4)
    assert calls == [(72, 12)]
    # a noisy complex64 block never reaches the complex128 finish
    inst, _ = noisy_instance(48, 12, 72, dtype=np.complex64)
    calls.clear()
    _, rep = altproj_solve(inst, seed=1, restarts=4)
    assert rep.stop_reason == "stall" and calls == [(72, 12)]
    rng = generator(49)
    b_mat = complex_normal(rng, (40, 4))
    y = np.abs(b_mat @ np.exp(1j * rng.uniform(0, 2 * np.pi, 4)))
    calls.clear()
    unit_modulus_tune(b_mat, y, seed=2, restarts=10)
    assert calls == [(40, 4)]


def test_altproj_noiseless_runs_stop_on_tol():
    for t in range(5):
        inst, _ = gaussian_instance(mix_seed(975, t), 16, 96)
        _, rep = altproj_solve(inst, seed=t)
        assert rep.stop_reason == "tol" and rep.converged


def test_altproj_complex64_noiseless_runs_finish_on_a_second_factor(monkeypatch):
    # a complex64 run switches once to a complex128 factor at residual 1e-5,
    # whose seconds count as factorization, not iteration, and reaches tol
    # (1e-10) through it, on 768 x 128 blocks as the pipeline's too
    calls = []
    factor = solvers.pinv_factor
    monkeypatch.setattr(solvers, "pinv_factor",
                        lambda op: calls.append(op.dtype) or factor(op))
    for t, (n, m) in itertools.product(range(5), [(16, 96), (128, 768)]):
        inst, x = gaussian_instance(mix_seed(975, t), n, m, dtype=np.complex64)
        calls.clear()
        z, rep = altproj_solve(inst, seed=t)
        assert rep.stop_reason == "tol" and rep.converged, (t, n)
        assert calls == [np.complex64, np.complex128]
        assert rep.init_s + rep.iter_s + rep.factor_s <= rep.wall_time_seconds
        assert nmse(x, z) <= 1e-15


def test_altproj_complex64_noiseless_finish_holds_one_complex128_copy(traced_peak):
    # a noiseless complex64 run finishes on a complex128 factor: the solve
    # frees its complex64 G^-1, then factors one complex128 copy of the block
    # (1.57 MB), which the factor keeps, with at most three n x n arrays
    # beside it while G^-1 is formed. The peak read 2.39 MB; 1.92 MB when the
    # copy became Q in place, and 4.36 MB when the finish made two copies
    # beside the complex64 factor
    inst, _ = gaussian_instance(61, 128, 768, dtype=np.complex64)
    m, n = inst.operator.shape
    (z, rep), peak = traced_peak(lambda: altproj_solve(inst, seed=1))
    assert rep.stop_reason == "tol"
    assert peak <= 16 * m * n + 3 * 16 * n * n + 0.1e6


def test_altproj_complex64_block_matches_its_complex128_promotion(block64_snr30, traced_peak):
    # the same path to 1e-6 (the estimates differed by 6.5e-7 relative);
    # the peak is bounded by one complex128 copy of the block, which
    # factoring in complex128 would exceed
    inst = block64_snr30
    full = PRInstance(inst.operator.astype(np.complex128), inst.measurements, "intensity",
                      inst.snr_db)
    (z, rep), peak = traced_peak(lambda: altproj_solve(inst, seed=1))
    z_full, rep_full = altproj_solve(full, seed=1)
    assert (rep.stop_reason, rep.iterations) == (rep_full.stop_reason, rep_full.iterations)
    assert z.dtype == np.complex128
    assert np.linalg.norm(z - z_full) <= 1e-5 * np.linalg.norm(z_full)
    assert peak < full.operator.nbytes


def test_altproj_spectral_init():
    from blockpr.forward import nmse

    inst, x = gaussian_instance(22, 16, 96)
    z, rep = altproj_solve(inst, APParams(init="spectral"), seed=1, restarts=3)
    assert nmse(x, z) <= 1e-8


# ---------------------------------------------------------------- unit_modulus_tune

def test_tuner_k1_consistent_system():
    rng = generator(30)
    b_mat = complex_normal(rng, (20, 1))
    d_true = np.array([np.exp(0.37j)])
    y = np.abs(b_mat @ d_true)
    d, rep = unit_modulus_tune(b_mat, y, seed=0)
    assert rep.final_residual <= 1e-10
    assert abs(abs(d[0]) - 1.0) <= 1e-15


def test_tuner_recovers_relative_phases():
    rng = generator(31)
    k, n_i, beta = 4, 8, 20.0
    ell = int(beta * k)
    x = complex_normal(rng, k * n_i)
    a = complex_normal(rng, (ell, k * n_i))
    phases = rng.uniform(0, 2 * np.pi, k)
    cols = []
    for i in range(k):
        xi = x[i * n_i : (i + 1) * n_i]
        cols.append(a[:, i * n_i : (i + 1) * n_i] @ (xi * np.exp(1j * phases[i])))
    b_mat = np.stack(cols, axis=1)
    y = np.abs(a @ x)
    d, rep = unit_modulus_tune(b_mat, y, seed=7)
    rel = d * np.conj(d[0])
    target = np.exp(-1j * (phases - phases[0]))
    assert np.max(np.abs(rel - target)) <= 1e-6


def test_tuner_zero_measurements_degenerate():
    b_mat = complex_normal(generator(32), (8, 2))
    d, rep = unit_modulus_tune(b_mat, np.zeros(8), seed=0)
    assert np.array_equal(d, np.ones(2, dtype=complex))
    assert not rep.converged


def test_tuner_noisy_problem_stops_early():
    # restarts on noisy tuning data land on the same residual floor, so the
    # loop ends long before the 50-restart cap; the phases are still found
    rng = generator(34)
    k, n_i = 4, 16
    x = complex_normal(rng, k * n_i)
    a = complex_normal(rng, (20 * k, k * n_i))
    phases = rng.uniform(0, 2 * np.pi, k)
    b_mat = np.stack([a[:, i * n_i:(i + 1) * n_i] @ (x[i * n_i:(i + 1) * n_i] * np.exp(1j * p))
                      for i, p in enumerate(phases)], axis=1)
    y = np.sqrt(add_noise_intensity(np.abs(a @ x) ** 2, NoiseSpec(30.0, 35)))
    d, rep = unit_modulus_tune(b_mat, y, seed=3)
    assert rep.restarts_used < 50
    assert rep.stop_reason == "stall"
    rel = d * np.conj(d[0])
    assert np.max(np.abs(rel - np.exp(-1j * (phases - phases[0])))) <= 0.1


def test_tuner_non_finite_matrix_raises_diverged():
    b_mat = complex_normal(generator(36), (20, 3))
    b_mat[2, 1] = np.nan  # a block estimate gone non-finite
    with np.errstate(all="ignore"), pytest.raises(Diverged):
        unit_modulus_tune(b_mat, np.ones(20), seed=0)


def test_tuner_output_modulus_exactly_one():
    rng = generator(33)
    b_mat = complex_normal(rng, (40, 4))
    y = np.abs(b_mat @ np.exp(1j * rng.uniform(0, 2 * np.pi, 4)))
    d, _ = unit_modulus_tune(b_mat, y, seed=2, restarts=10)
    assert np.max(np.abs(np.abs(d) - 1.0)) <= 1e-15


# ---------------------------------------------------------------- dispatch

def test_solve_pr_converts_kinds():
    # alternating projections take the square roots of the intensities
    from blockpr.forward import nmse

    inst, x = gaussian_instance(41, 16, 96)
    z, _ = solve_pr(inst, SolverSpec("alt_proj", seed=1, restarts=10))
    assert nmse(x, z) <= 1e-8


def test_solver_spec_validation():
    with pytest.raises(ValueError):
        SolverSpec("unknown_kind")
    with pytest.raises(ValueError):
        SolverSpec("wf_truncated", restarts=0)
    with pytest.raises(ValueError):
        WFParams(trunc_lb=5.0, trunc_ub=0.3)
    with pytest.raises(ValueError):
        WFParams(loss="huber")
    with pytest.raises(ValueError):
        APParams(init="warm")
    # the random start left about one block in eight wrong; AP starts spectrally
    with pytest.raises(ValueError, match="unknown init 'random'"):
        APParams(init="random")
    # params must match the kind; a mismatch used to be dropped for the defaults
    with pytest.raises(ValueError, match="wf_truncated takes WFParams, got APParams"):
        SolverSpec("wf_truncated", params=APParams(max_iters=1))
    for kind in ("alt_proj", "unit_modulus_tuner"):
        with pytest.raises(ValueError, match=f"{kind} takes APParams, got WFParams"):
            SolverSpec(kind, params=WFParams())
    assert SolverSpec("alt_proj", params=APParams(max_iters=3)).params.max_iters == 3
    # counts are integers: a float or a bool is refused by name, not truncated
    for make, field in ((lambda v: SolverSpec("wf_truncated", restarts=v), "restarts"),
                        (lambda v: WFParams(max_iters=v), "max_iters"),
                        (lambda v: WFParams(init_power_iters=v), "init_power_iters"),
                        (lambda v: APParams(max_iters=v), "max_iters")):
        for value in (2.5, 2.0, True):
            with pytest.raises(ValueError, match=f"^{field} must be an integer, got {value!r}$"):
                make(value)
        make(np.int64(2))
    # float fields are positive reals: a bool is refused by name, not read as 1,
    # and NaN, which passed a "<= 0" check, is refused too
    for make, field in ([(lambda v, f=f: WFParams(**{f: v}), f) for f in
                         ("step_size", "trunc_lb", "trunc_ub", "trunc_h", "tol")]
                        + [(lambda v: APParams(tol=v), "tol")]):
        for value in (True, "0.1", 1j, None, float("nan"), np.float32("nan"), 0.0, -1):
            with pytest.raises(ValueError, match=f"^{field} must be a positive number, got "):
                make(value)
    for make, field in ((lambda v: WFParams(max_iters=v), "max_iters"),
                        (lambda v: WFParams(init_power_iters=v), "init_power_iters"),
                        (lambda v: APParams(max_iters=v), "max_iters")):
        with pytest.raises(ValueError, match=f"^{field} must be a positive number, got 0$"):
            make(0)
    assert WFParams(step_size=np.float32(0.3), tol=1).step_size == np.float32(0.3)
    assert APParams(tol=np.float64(1e-9)).tol == 1e-9


def test_solve_pr_rejects_the_tuner():
    inst, _ = gaussian_instance(47, 4, 24)
    with pytest.raises(ValueError, match="phase tuner"):
        solve_pr(inst, SolverSpec("unit_modulus_tuner"))


def test_altproj_and_tuner_deterministic():
    inst, _ = gaussian_instance(45, 12, 72)
    z1, _ = altproj_solve(inst, seed=9, restarts=3)
    z2, _ = altproj_solve(inst, seed=9, restarts=3)
    assert z1.tobytes() == z2.tobytes()

    rng = generator(46)
    b_mat = complex_normal(rng, (24, 3))
    y = np.abs(b_mat @ np.exp(1j * rng.uniform(0, 2 * np.pi, 3)))
    d1, _ = unit_modulus_tune(b_mat, y, seed=4)
    d2, _ = unit_modulus_tune(b_mat, y, seed=4)
    assert d1.tobytes() == d2.tobytes()


def test_report_residual_semantics():
    # a complex64 run reports the residual it computed in complex64 (at SNR
    # 30) or in complex128, after its finish (noiseless)
    for make, dtype, close in [
        (gaussian_instance, np.complex128, {"abs": 1e-15}),
        (gaussian_instance, np.complex64, {"rel": 1e-5}),
        (noisy_instance, np.complex64, {"rel": 1e-5}),
    ]:
        inst, x = make(42, 16, 96, dtype=dtype)
        z, rep = wf_solve(inst, seed=3, restarts=2)
        a = np.sqrt(inst.measurements)
        misfit = np.linalg.norm(np.abs(apply(inst.operator, z)) - a) / np.linalg.norm(a)
        assert rep.final_residual == pytest.approx(misfit, **close)
        assert rep.wall_time_seconds >= 0
        assert rep.restarts_used >= 1
        assert rep.stop_reason in ("tol", "stall", "max_iters")


def test_report_splits_wall_time_by_phase():
    inst, _ = gaussian_instance(43, 16, 96)
    rng = generator(44)
    b_mat = complex_normal(rng, (40, 4))
    y = np.abs(b_mat @ np.exp(1j * rng.uniform(0, 2 * np.pi, 4)))
    reports = {
        "wf": wf_solve(inst, seed=3, restarts=2)[1],
        "ap": altproj_solve(inst, seed=3, restarts=2)[1],
        "tuner": unit_modulus_tune(b_mat, y, seed=3)[1],
    }
    for name, rep in reports.items():
        assert rep.init_s > 0 and rep.iter_s > 0, name
        assert rep.init_s + rep.iter_s + rep.factor_s <= rep.wall_time_seconds, name
    assert reports["wf"].factor_s == 0.0
    assert reports["ap"].factor_s > 0 and reports["tuner"].factor_s > 0

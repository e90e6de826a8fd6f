import json
import math
import threading
from dataclasses import replace

import numpy as np
import pytest

from blockpr import bench, solvers
from blockpr.bench import (
    CSV_COLUMNS,
    ExperimentConfig,
    emit_report,
    gen_instance,
    run_trial,
    select_k,
    sweep,
)
from blockpr.core import KRBDMatrix
from blockpr.forward import NoiseSpec, add_noise_intensity, measure
from blockpr.rng import complex_normal, generator, mix_seed
from blockpr.solvers import SolverSpec, WFParams


def test_gen_instance_shapes():
    cfg = ExperimentConfig(n=8, k=2, alpha=6, beta=20.0, trials=1)
    instance, x = gen_instance(cfg, trial_seed=1)
    op = instance.base.operator
    assert op.partition.n_blocks == 2
    assert all(b.shape == (24, 4) for b in op.blocks)
    assert instance.tuning_matrix.shape == (40, 8)
    assert len(instance.base.measurements) == 48
    assert len(instance.tuning_measurements) == 40
    assert len(x) == 8


def test_gen_instance_noiseless_measurements_exact():
    cfg = ExperimentConfig(n=16, k=2, snr_db=math.inf, trials=1)
    instance, x = gen_instance(cfg, trial_seed=7)
    expected = measure(instance.base.operator, x)
    assert np.array_equal(instance.base.measurements, expected)


def test_gen_instance_deterministic():
    cfg = ExperimentConfig(n=16, k=2, trials=1)
    i1, x1 = gen_instance(cfg, trial_seed=42)
    i2, x2 = gen_instance(cfg, trial_seed=42)
    i3, _ = gen_instance(cfg, trial_seed=43)
    assert x1.tobytes() == x2.tobytes()
    assert i1.base.measurements.tobytes() == i2.base.measurements.tobytes()
    assert i1.tuning_measurements.tobytes() == i2.tuning_measurements.tobytes()
    assert i1.base.measurements.tobytes() != i3.base.measurements.tobytes()


def test_gen_instance_clean_tuning_flag():
    cfg = ExperimentConfig(n=16, k=2, snr_db=20.0, noisy_tuning=False, trials=1)
    instance, x = gen_instance(cfg, trial_seed=5)
    expected = measure(instance.tuning_matrix, x)
    assert np.array_equal(instance.tuning_measurements, expected)
    noisy = measure(instance.base.operator, x)
    assert not np.array_equal(instance.base.measurements, noisy)


@pytest.mark.parametrize("shape", [(), 17, (5, 3), (768, 128)])
@pytest.mark.parametrize("seed", [0, 1, 2**63 + 5])
def test_complex_normal_matches_the_complex_formula(seed, shape):
    # filling one complex array in place gives the same bits as building it
    # from the two real draws
    rng = generator(seed)
    re = rng.standard_normal(shape)
    im = rng.standard_normal(shape)
    want = (re + 1j * im) / np.sqrt(2.0)
    got = complex_normal(generator(seed), shape)
    assert got.shape == np.shape(want) and got.dtype == np.complex128
    assert got.tobytes() == np.asarray(want).tobytes()


def _serial_instance(cfg, seed):
    """gen_instance's arrays drawn one after another from the same seed lanes."""
    k = cfg.resolved_k()
    n_i = cfg.n // k
    x = complex_normal(generator(mix_seed(seed, bench._LANE_X, 0)), cfg.n)
    op = KRBDMatrix(tuple(
        complex_normal(generator(mix_seed(seed, bench._LANE_BLOCK_MATRIX, i)),
                       (round(cfg.alpha * n_i), n_i))
        for i in range(k)
    ))
    a = complex_normal(generator(mix_seed(seed, bench._LANE_TUNING_MATRIX, 0)),
                       (round(cfg.beta * k), cfg.n))
    y = add_noise_intensity(measure(op, x),
                            NoiseSpec(cfg.snr_db, mix_seed(seed, bench._LANE_NOISE_Y, 0)))
    y_t = add_noise_intensity(measure(a, x),
                              NoiseSpec(cfg.snr_db, mix_seed(seed, bench._LANE_NOISE_TUNING, 0)))
    return [*op.blocks, y, a, y_t, x]


@pytest.mark.parametrize("cpus", [1, 2])
def test_gen_instance_threads_match_a_serial_build(monkeypatch, cpus):
    # the draws run on min(draws, CPUs) threads, which are all joined on return
    pools = []
    pool_class = bench.ThreadPoolExecutor

    def recording_pool(max_workers):
        pools.append(max_workers)
        return pool_class(max_workers=max_workers)

    monkeypatch.setattr(bench, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(bench, "ThreadPoolExecutor", recording_pool)
    cfg = ExperimentConfig(n=256, trials=1)
    threads = threading.active_count()
    instance, x = gen_instance(cfg, trial_seed=17)
    assert threading.active_count() == threads
    assert pools == [cpus]
    got = [*instance.base.operator.blocks, instance.base.measurements,
           instance.tuning_matrix, instance.tuning_measurements, x]
    want = _serial_instance(cfg, 17)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


def test_gen_instance_keeps_its_draws_without_a_copy(monkeypatch):
    # each drawn matrix is read-only and rounded on its drawing thread (the
    # blocks to complex64), so the instance holds it as drawn
    drawn = []
    draw = bench._draw_matrix

    def recording_draw(seed, shape, dtype):
        drawn.append(draw(seed, shape, dtype))
        return drawn[-1]

    monkeypatch.setattr(bench, "_draw_matrix", recording_draw)
    instance, _ = gen_instance(ExperimentConfig(n=64, trials=1), trial_seed=3)
    kept = [instance.tuning_matrix, *instance.base.operator.blocks]
    assert sorted(map(id, kept)) == sorted(map(id, drawn))
    assert instance.tuning_matrix.dtype == np.complex128
    assert {b.dtype for b in instance.base.operator.blocks} == {np.dtype(np.complex64)}


def test_config_validation():
    # K is checked against n, alpha and beta once resolved, explicit and auto
    # alike, so a sweep template stays valid and only the failing point fails
    with pytest.raises(ValueError, match="not divisible"):
        ExperimentConfig(n=10, k=3, trials=1).resolved_k()
    with pytest.raises(ValueError, match="is not integral"):
        ExperimentConfig(n=8, k=2, alpha=6.3, trials=1).resolved_k()
    with pytest.raises(ValueError):
        ExperimentConfig(n=8, k=2, trials=0)
    with pytest.raises(ValueError, match="no tuning rows"):
        ExperimentConfig(n=64, k=4, beta=0.01, trials=1).resolved_k()
    with pytest.raises(ValueError, match="is not integral"):
        ExperimentConfig(n=64, alpha=6.1, trials=1).resolved_k()
    cfg = ExperimentConfig(n=1024, k="auto", trials=1)
    assert cfg.resolved_k() == 8


@pytest.mark.parametrize("fields, message", [
    ({"alpha": 3.0}, r"alpha\*\(n/k\) = 3.0\*16 gives 48 rows .* bound 4\*16 - 4 = 60"),
    ({"beta": 2.0}, r"beta\*k = 2.0\*4 gives 8 rows .* bound 4\*4 - 4 = 12"),
], ids=["alpha", "beta"])
def test_config_rejects_problems_below_the_injectivity_bound(fields, message):
    # a block needs alpha*n_i >= 4 n_i - 4 rows, and the tuning step
    # round(beta*K) >= 4K - 4; at the bound itself the config is accepted
    with pytest.raises(ValueError, match=message):
        ExperimentConfig(n=64, k=4, trials=1, **fields).resolved_k()
    assert ExperimentConfig(n=64, k=4, alpha=3.75, beta=3, trials=1).resolved_k() == 4
    assert ExperimentConfig(n=4, k=1, alpha=3, beta=1, trials=1).resolved_k() == 1


def test_sweep_records_points_below_the_injectivity_bound():
    table = sweep(small_cfg(alpha=3), k_list=[8, 4])  # n_i = 4 meets the bound, 8 does not
    assert table.rows[0].error is None
    assert "injectivity bound" in table.rows[1].error


# ---------------------------------------------------------------- select_k

@pytest.mark.parametrize(
    "n,expected",
    [(2**8, 4), (2**9, 4), (2**10, 8), (2**11, 16), (2**12, 32), (2**13, 64), (2**14, 64)],
)
def test_select_k_reference_table(n, expected):
    assert select_k(n, "empirical") == expected


def test_select_k_snaps_to_divisors():
    # 96 = 2^5 * 3: nearest divisor of the law value within [1, 24]
    k = select_k(96, "empirical")
    assert 96 % k == 0
    assert 1 <= k <= 24


def test_select_k_rejects_tiny_n():
    with pytest.raises(ValueError):
        select_k(3)


def test_select_k_has_one_mode():
    with pytest.raises(ValueError, match="unknown mode 'theoretical'"):
        select_k(2**10, "theoretical")


# ---------------------------------------------------------------- run_trial

def test_run_trial_k1_speedup_near_unity():
    # one trial takes milliseconds, so a single reading is noise-bound: the
    # gate reads the median of five
    cfg = ExperimentConfig(n=64, k=1, snr_db=30.0, trials=1, seed=1)
    run_trial(cfg, trial_seed=11, compare_monolithic=True)  # untimed warm-up
    recs = [run_trial(cfg, trial_seed=11, compare_monolithic=True) for _ in range(5)]
    assert all(rec.monolithic_s is not None and rec.k == 1 for rec in recs)
    # same computation modulo skipped tuning
    assert 0.5 <= float(np.median([rec.speedup for rec in recs])) <= 2.0


def test_run_trial_records_fields():
    cfg = ExperimentConfig(n=64, k=2, snr_db=math.inf, trials=1, seed=2,
                           solver=SolverSpec("wf_truncated", restarts=2))
    rec = run_trial(cfg, trial_seed=12)
    assert rec.n == 64 and rec.k == 2
    assert rec.nmse <= 1e-6
    assert rec.total_s == pytest.approx(rec.blocking_s + rec.tuning_s + rec.merge_s)
    assert rec.monolithic_s is None and rec.speedup is None
    assert len(rec.converged_blocks) == 2
    assert rec.block_stop_reasons == ("tol", "tol")
    assert rec.tuning_stop_reason in ("tol", "stall", "max_iters")


def test_run_trial_deterministic_nmse():
    cfg = ExperimentConfig(n=64, k=2, snr_db=25.0, trials=1, seed=3)
    r1 = run_trial(cfg, trial_seed=21)
    r2 = run_trial(cfg, trial_seed=21)
    assert r1.nmse == r2.nmse


# ---------------------------------------------------------------- sweep / reports

def small_cfg(**kw):
    base = dict(n=32, k=2, snr_db=math.inf, trials=3, seed=9,
                solver=SolverSpec("wf_truncated", restarts=2))
    base.update(kw)
    return ExperimentConfig(**base)


def test_sweep_n_monotone_cost():
    # a WF run stalls only once more than _PLATEAU_MIN residuals exist, and
    # 9 iterations leave 10; noisy runs never reach tol, and a restart capped
    # at max_iters never ends the restart loop, so every one of the 50
    # restarts runs exactly 9 iterations and cost grows with N by
    # construction. One sweep's reading is still noise-bound (a scheduler
    # hiccup can swap two neighbouring points, and load on a shared machine
    # drifts between sweeps), so the gate reads each point's median over five
    # timed sweeps that alternate ascending and descending N
    params = WFParams(max_iters=9)
    assert params.max_iters < solvers._PLATEAU_MIN
    cfg = small_cfg(snr_db=30.0, trials=2,
                    solver=SolverSpec("wf_truncated", params, restarts=50))
    n_list = [64, 128, 256]
    sweep(cfg, n_list=n_list)  # untimed warm-up
    tables = [sweep(cfg, n_list=n_list[::1 if i % 2 == 0 else -1]) for i in range(5)]
    assert all(len(t.rows) == 3 for t in tables)
    assert all(r.error is None for t in tables for r in t.rows)
    by_n = [{r.n: r.total_s for r in t.rows} for t in tables]
    totals = np.median([[t[n] for n in n_list] for t in by_n], axis=0)
    assert totals[0] < totals[1] < totals[2]


def test_sweep_n_noiseless_accuracy():
    table = sweep(small_cfg(), n_list=[32, 64])
    assert all(r.error is None for r in table.rows)
    assert all(r.nmse_median <= 1e-6 for r in table.rows)


def test_sweep_k_blocking_time_decreases():
    # the K = 4 -> 8 step has little margin, so one sweep's reading can swap
    # under CPU contention; the gate reads each point's median over three sweeps
    cfg = ExperimentConfig(n=1024, k=2, snr_db=30.0, trials=2, seed=10, parallelism=1)
    tables = [sweep(cfg, k_list=[1, 2, 4, 8]) for _ in range(3)]
    assert all(len(t.rows) == 4 for t in tables)
    assert all(r.error is None for t in tables for r in t.rows)
    blocking = np.median([[r.blocking_s for r in t.rows] for t in tables], axis=0)
    assert all(b1 > b2 for b1, b2 in zip(blocking, blocking[1:]))


@pytest.mark.parametrize("snr_db", [math.inf, 30.0])
def test_sweep_counts_stop_reasons(snr_db):
    # a point counts the stop reasons of its timed trials' block and tuning
    # solves, in the order tol, stall, max_iters; the reports carry them
    cfg = small_cfg(snr_db=snr_db, trials=3)
    (row,) = sweep(cfg, n_list=[64]).rows
    records = [run_trial(replace(cfg, n=64), mix_seed(cfg.seed, bench._LANE_TRIAL, 64, t))
               for t in range(cfg.trials)]
    blocks = [s for r in records for s in r.block_stop_reasons]
    tuning = [r.tuning_stop_reason for r in records]
    reasons = ("tol", "stall", "max_iters")
    assert row.block_stops == tuple(blocks.count(s) for s in reasons)
    assert row.tuning_stops == tuple(tuning.count(s) for s in reasons)
    assert sum(row.block_stops) == cfg.trials * 2 and sum(row.tuning_stops) == cfg.trials
    rec = row.as_record()
    assert [rec[f"block_{s}"] for s in reasons] == list(row.block_stops)
    assert [rec[f"tuning_{s}"] for s in reasons] == list(row.tuning_stops)


def test_sweep_failed_point_has_no_stop_counts():
    (row,) = sweep(small_cfg(), k_list=[5]).rows  # 5 does not divide 32
    assert row.block_stops is None and row.tuning_stops is None
    rec = row.as_record()
    assert all(rec[f"{stage}_{s}"] is None for stage in ("block", "tuning")
               for s in ("tol", "stall", "max_iters"))


def test_sweep_requires_exactly_one_list():
    with pytest.raises(ValueError):
        sweep(small_cfg())
    with pytest.raises(ValueError):
        sweep(small_cfg(), n_list=[32], k_list=[2])
    with pytest.raises(ValueError):
        sweep(small_cfg(), n_list=[])


def test_sweep_marks_failed_points_and_continues():
    table = sweep(small_cfg(), k_list=[2, 5, 4])  # 5 does not divide 32
    assert table.rows[0].error is None
    assert table.rows[1].error is not None
    assert table.rows[1].k == 5
    assert table.rows[2].error is None


def test_emit_report_csv_columns(tmp_path):
    table = sweep(small_cfg(trials=2), n_list=[32])
    path = tmp_path / "out.csv"
    emit_report(table, "csv", path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 2  # header + single row
    assert lines[0] == ",".join(CSV_COLUMNS)
    cells = lines[1].split(",")
    assert int(cells[0]) == 32 and int(cells[1]) == 2
    assert cells[-2] == "" and cells[-1] == ""  # no monolithic comparison


def test_emit_report_json_round_trip(tmp_path):
    table = sweep(small_cfg(trials=2), n_list=[32, 64], compare_monolithic=True)
    path = tmp_path / "out.json"
    emit_report(table, "json", path)
    with path.open() as fh:
        back = json.load(fh)
    assert back == [row.as_record() for row in table.rows]
    # deterministic field order mirrors the CSV columns
    assert list(back[0])[: len(CSV_COLUMNS)] == CSV_COLUMNS


def test_emit_report_empty_table_rejected(tmp_path):
    from blockpr.bench import SweepTable

    with pytest.raises(ValueError):
        emit_report(SweepTable(()), "csv", tmp_path / "x.csv")


def test_emit_report_unwritable_path():
    table = sweep(small_cfg(trials=1), n_list=[32])
    with pytest.raises(OSError):
        emit_report(table, "csv", "/nonexistent-dir/report.csv")


def test_end_to_end_determinism():
    cfg = small_cfg(snr_db=20.0, trials=3)
    t1 = sweep(cfg, n_list=[32, 64])
    t2 = sweep(cfg, n_list=[32, 64])
    for r1, r2 in zip(t1.rows, t2.rows):
        assert r1.nmse_median == r2.nmse_median
        assert r1.nmse_mean == r2.nmse_mean

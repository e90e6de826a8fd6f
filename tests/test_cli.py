import json
import math
import struct

import numpy as np
import pytest

from blockpr.bench import CSV_COLUMNS
from blockpr.cli import _load_instance, main
from blockpr.core import KRBDMatrix
from blockpr.io import load_bpr1, save_bpr1
from blockpr.pipeline import block_pr_solve
from blockpr.rng import complex_normal, generator
from blockpr.solvers import SolverSpec


def run_cli(args):
    return main(args)


def test_gen_writes_instance(tmp_path, capsys):
    out = tmp_path / "inst"
    code = run_cli(["gen", "--n", "16", "--k", "2", "--snr", "inf",
                    "--seed", "3", "--out", str(out)])
    assert code == 0
    for name in ("h.bpr1", "y.bpr1", "a.bpr1", "ty.bpr1", "x.bpr1", "meta.json"):
        assert (out / name).exists()
    meta = json.loads((out / "meta.json").read_text())
    assert meta["n"] == 16 and meta["k"] == 2 and meta["kind"] == "intensity"
    op = load_bpr1(out / "h.bpr1")
    assert op.shape == (96, 16)


def test_gen_then_solve_round_trip(tmp_path, capsys):
    out = tmp_path / "inst"
    assert run_cli(["gen", "--n", "16", "--k", "2", "--snr", "inf",
                    "--seed", "5", "--out", str(out)]) == 0
    capsys.readouterr()
    code = run_cli(["solve", str(out), "--solver", "wf", "--restarts", "3",
                    "--seed", "1", "--out", str(tmp_path / "xhat.bpr1")])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["k"] == 2
    assert report["nmse"] is not None and report["nmse"] <= 1e-6
    assert report["block_stop_reasons"] == ["tol", "tol"]
    assert report["block_restarts_used"] == [1, 1]  # "tol" ends the restart loop
    assert report["tuning_stop_reason"] in ("tol", "stall", "max_iters")
    assert (tmp_path / "xhat.bpr1").exists()
    xh = load_bpr1(tmp_path / "xhat.bpr1")
    assert len(xh) == 16


@pytest.mark.parametrize("solver, kind", [("wf", "wf_truncated"), ("altproj", "alt_proj")])
def test_solve_reports_how_the_restart_rule_ended(tmp_path, capsys, solver, kind):
    # the report carries each block's and the tuner's restarts used, and the
    # tuner's iterations, as the pipeline returns them
    out = tmp_path / "inst"
    assert run_cli(["gen", "--n", "64", "--k", "2", "--snr", "30",
                    "--seed", "5", "--out", str(out)]) == 0
    capsys.readouterr()
    assert run_cli(["solve", str(out), "--solver", solver, "--restarts", "3",
                    "--seed", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    instance, _ = _load_instance(out)
    _, want = block_pr_solve(instance, SolverSpec(kind, seed=1, restarts=3))
    assert report["block_restarts_used"] == [r.restarts_used for r in want.per_block_reports]
    assert report["tuning_iterations"] == want.tuning_report.iterations > 0
    assert report["tuning_restarts_used"] == want.tuning_report.restarts_used
    assert 1 <= report["tuning_restarts_used"] < 50
    assert all(1 <= r <= 3 for r in report["block_restarts_used"])


def test_sweep_n_writes_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    code = run_cli(["sweep-n", "--n-list", "32,64", "--k", "2", "--snr", "inf",
                    "--trials", "2", "--seed", "1", "--restarts", "2",
                    "--out", str(out), "--format", "csv"])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("N,K,alpha,beta,snr_db,trials,nmse_median")
    assert len(lines) == 3


def test_sweep_k_stdout_json(capsys):
    code = run_cli(["sweep-k", "--k-list", "1 2", "--n", "32", "--snr", "inf",
                    "--trials", "1", "--seed", "2", "--format", "json"])
    assert code == 0
    rows = json.loads(capsys.readouterr().out)
    assert [r["K"] for r in rows] == [1, 2]


def test_table1_has_speedups(tmp_path):
    out = tmp_path / "t1.json"
    code = run_cli(["table1", "--n-list", "64", "--snr", "inf", "--trials", "1",
                    "--seed", "3", "--out", str(out), "--format", "json"])
    assert code == 0
    rows = json.loads(out.read_text())
    assert rows[0]["speedup"] is not None


def test_config_file_with_flag_override(tmp_path):
    cfg = {"n": 16, "k": 2, "snr_db": None, "trials": 1, "seed": 4,
           "solver": {"kind": "wf", "restarts": 2}}
    cfg["snr_db"] = math.inf
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "r.csv"
    code = run_cli(["sweep-n", "--config", str(path), "--n-list", "32",
                    "--trials", "1", "--out", str(out)])
    assert code == 0
    row = out.read_text().strip().splitlines()[1]
    assert row.split(",")[0] == "32"  # n-list point, not the config file's n


def test_invalid_config_exit_code():
    assert run_cli(["gen", "--n", "10", "--k", "3", "--out", "/tmp/x"]) == 2
    assert run_cli(["gen", "--out", "/tmp/x"]) == 2  # no signal size at all
    assert run_cli(["sweep-n", "--n-list", "32", "--alpha", "-2"]) == 2
    # unknown solver name
    assert run_cli(["sweep-n", "--n-list", "32", "--solver", "magic"]) == 2


@pytest.mark.parametrize("flags, message", [
    (["--n", "3"], "need n >= 4"),
    (["--n", "64", "--beta", "0.01"], "beta*k = 0.01*4 rounds to no tuning rows"),
    (["--n", "64", "--alpha", "6.1"], "alpha*(n/k) = 97.6 is not integral (k=4)"),
], ids=["tiny-n", "no-tuning-rows", "auto-k-non-integral-alpha"])
def test_gen_invalid_auto_k_config_exit_code(tmp_path, capsys, flags, message):
    # auto-K configs gen cannot draw exit 2 before anything is written
    out = tmp_path / "inst"
    assert run_cli(["gen", *flags, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"invalid config: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["gen", "--n", "64", "--alpha", "3", "--out", "OUT"],
    ["gen", "--n", "2048", "--beta", "1", "--out", "OUT"],
    ["table1", "--n-list", "256,64", "--beta", "2", "--trials", "1", "--out", "OUT"],
], ids=["gen-alpha", "gen-beta", "table1"])
def test_config_below_the_injectivity_bound_exit_code(tmp_path, capsys, command):
    # too few rows per block or tuning rows to determine the signal: exit 2
    # before anything is written or solved
    out = tmp_path / "out"
    assert run_cli([str(out) if tok == "OUT" else tok for tok in command]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid config: ") and "injectivity bound" in err
    assert not out.exists()


def test_gen_has_one_matrix_family(tmp_path, capsys):
    with pytest.raises(SystemExit) as ei:
        run_cli(["gen", "--n", "16", "--matrix-kind", "binary01", "--out", str(tmp_path / "a")])
    assert ei.value.code == 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 16, "matrix_kind": "gaussian"}))
    assert run_cli(["gen", "--config", str(cfg), "--out", str(tmp_path / "b")]) == 2
    assert "unknown config fields: ['matrix_kind']" in capsys.readouterr().err


def test_missing_config_file_is_io_error():
    code = run_cli(["sweep-n", "--n-list", "32", "--config", "/nonexistent/cfg.json"])
    assert code == 3


def test_unwritable_output_exit_code():
    code = run_cli(["sweep-n", "--n-list", "32", "--k", "2", "--snr", "inf",
                    "--trials", "1", "--out", "/nonexistent-dir/out.csv"])
    assert code == 3


@pytest.mark.parametrize("command", [
    ["sweep-n", "--n-list", "64,128", "--trials", "2"],
    ["sweep-k", "--k-list", "2,4", "--n", "64", "--trials", "2"],
    ["table1", "--n-list", "64,128", "--trials", "2"],
], ids=["sweep-n", "sweep-k", "table1"])
def test_missing_output_directory_exits_before_the_first_trial(tmp_path, capsys, monkeypatch,
                                                               command):
    import blockpr.bench

    def no_trial(*args, **kwargs):
        raise AssertionError("a trial ran before --out was checked")

    monkeypatch.setattr(blockpr.bench, "run_trial", no_trial)
    missing = tmp_path / "missing"
    assert run_cli([*command, "--out", str(missing / "x.csv")]) == 3
    assert capsys.readouterr().err == f"i/o error: --out: no directory {missing}\n"


def test_solve_missing_output_directory_exits_before_loading(tmp_path, capsys, monkeypatch):
    import blockpr.cli

    def no_load(*args, **kwargs):
        raise AssertionError("the instance was loaded before --out was checked")

    monkeypatch.setattr(blockpr.cli, "_load_instance", no_load)
    missing = tmp_path / "missing"
    assert run_cli(["solve", str(tmp_path / "inst"), "--out", str(missing / "x.bpr1")]) == 3
    assert capsys.readouterr().err == f"i/o error: --out: no directory {missing}\n"


@pytest.mark.parametrize("solver, field", [
    ({"restarts": 2.7}, "restarts"),
    ({"restarts": True}, "restarts"),
    ({"params": {"max_iters": 2.5}}, "max_iters"),
    ({"params": {"init_power_iters": 2.5}}, "init_power_iters"),
    ({"kind": "altproj", "params": {"max_iters": 2.5}}, "max_iters"),
], ids=["restarts-float", "restarts-bool", "max-iters-float", "power-iters-float",
        "ap-max-iters-float"])
def test_non_integer_solver_count_exits_before_the_first_trial(tmp_path, capsys, monkeypatch,
                                                               solver, field):
    # "restarts": 2.7 ran 2 restarts and true ran 1; max_iters 2.5 ran, and
    # init_power_iters 2.5 failed every block at solve time
    import blockpr.bench

    def no_trial(*args, **kwargs):
        raise AssertionError("a trial ran before the solver config was checked")

    monkeypatch.setattr(blockpr.bench, "run_trial", no_trial)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"solver": solver}))
    assert run_cli(["sweep-n", "--n-list", "64", "--trials", "1", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith(f"invalid config: {field} must be an integer, got ")


@pytest.mark.parametrize("solver, field", [
    ({"params": {"step_size": True, "tol": True}}, "step_size"),
    ({"params": {"tol": True}}, "tol"),
    ({"params": {"trunc_h": "5"}}, "trunc_h"),
    ({"kind": "altproj", "params": {"tol": True}}, "tol"),
    ({"params": {"step_size": float("nan")}}, "step_size"),
    ({"kind": "altproj", "params": {"tol": float("nan")}}, "tol"),
], ids=["wf-step-bool", "wf-tol-bool", "wf-trunc-string", "ap-tol-bool", "wf-step-nan",
        "ap-tol-nan"])
def test_non_real_solver_float_exits_before_the_first_trial(tmp_path, capsys, monkeypatch,
                                                            solver, field):
    # "step_size": true and "tol": true ran with step 1 and tol 1 and exited 0;
    # "step_size": NaN (json reads it) failed every block and exited 1
    import blockpr.bench

    def no_trial(*args, **kwargs):
        raise AssertionError("a trial ran before the solver config was checked")

    monkeypatch.setattr(blockpr.bench, "run_trial", no_trial)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"solver": solver}))
    assert run_cli(["sweep-n", "--n-list", "64", "--trials", "1", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith(
        f"invalid config: {field} must be a positive number, got ")


@pytest.mark.parametrize("argv, field", [
    (["gen", "--n", "64", "--alpha", "inf"], "alpha"),
    (["gen", "--n", "64", "--beta", "inf"], "beta"),
    (["gen", "--n", "64", "--snr=-inf"], "snr_db"),
    (["gen", "--n", "64", "CFG", {"seed": 1.5}], "seed"),
    (["gen", "--n", "64", "CFG", {"k": 3.7}], "k"),
    (["gen", "--n", "64", "CFG", {"noisy_tuning": "no"}], "noisy_tuning"),
    (["sweep-n", "--n-list", "64", "CFG", {"trials": 2.5}], "trials"),
    (["sweep-n", "--n-list", "64", "CFG", {"parallelism": True}], "parallelism"),
], ids=["alpha-inf", "beta-inf", "snr-minus-inf", "seed-float", "k-float", "noisy-tuning-str",
        "trials-float", "parallelism-bool"])
def test_out_of_domain_config_value_exit_code(tmp_path, capsys, argv, field):
    # each of these printed a traceback and exited 1, or ran with a changed value
    if "CFG" in argv:
        (tmp_path / "cfg.json").write_text(json.dumps(argv[-1]))
        argv = [*argv[:-2], "--config", str(tmp_path / "cfg.json")]
    out = tmp_path / "out"
    assert run_cli([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"invalid config: {field} must be ") and "Traceback" not in err
    assert not out.exists()


def test_failed_sweep_point_exit_code(capsys):
    # K=5 does not divide 32: the point fails, sweep completes, exit code 1
    code = run_cli(["sweep-k", "--k-list", "5", "--n", "32", "--snr", "inf",
                    "--trials", "1", "--format", "json"])
    assert code == 1
    assert ("sweep point K=5 failed: n=32 is not divisible into k=5 equal blocks\n"
            in capsys.readouterr().err)


def test_diverged_solve_exit_code(tmp_path, capsys, monkeypatch):
    import blockpr.cli
    from blockpr.solvers import Diverged

    out = tmp_path / "inst"
    assert run_cli(["gen", "--n", "16", "--k", "2", "--seed", "5", "--out", str(out)]) == 0

    def diverging(*args, **kwargs):
        raise Diverged("residual became nan after 3 iterations")

    monkeypatch.setattr(blockpr.cli, "block_pr_solve", diverging)
    assert run_cli(["solve", str(out)]) == 1
    assert "solver failure: residual became nan" in capsys.readouterr().err


@pytest.fixture
def instance_dir(tmp_path, capsys):
    out = tmp_path / "inst"
    assert run_cli(["gen", "--n", "16", "--k", "2", "--seed", "6", "--out", str(out)]) == 0
    capsys.readouterr()
    return out


@pytest.mark.parametrize("solver", ["wf", "altproj"])
def test_solve_reports_block_time_split(instance_dir, capsys, solver):
    # each block's SolverReport time split reaches the JSON; only AP factors its block
    assert run_cli(["solve", str(instance_dir), "--solver", solver]) == 0
    report = json.loads(capsys.readouterr().out)
    for key in ("block_init_s", "block_iter_s", "block_factor_s"):
        assert len(report[key]) == report["k"]
        assert all(t >= 0 for t in report[key])
    if solver == "wf":
        assert report["block_factor_s"] == [0.0] * report["k"]
    else:
        assert all(t > 0 for t in report["block_factor_s"])


def test_solve_rejects_zero_parallelism(instance_dir, capsys):
    with pytest.raises(SystemExit) as ei:
        run_cli(["solve", str(instance_dir), "--parallelism", "0"])
    assert ei.value.code == 2
    assert "--parallelism: must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("flag", [
    ["--config", "CFG"], ["--k", "99"], ["--n", "16"], ["--alpha", "3"], ["--beta", "5"],
    ["--snr", "inf"], ["--trials", "2"], ["--matrix-kind", "binary01"], ["--noisy-tuning"],
    ["--clean-tuning"], ["--baseline-include-tuning-rows"], ["--format", "json"],
])
def test_solve_rejects_experiment_flags(instance_dir, tmp_path, capsys, flag):
    # the instance directory fixes the problem; solve must not accept and drop these
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"solver": {"kind": "altproj"}}))
    flag = [str(cfg) if tok == "CFG" else tok for tok in flag]
    with pytest.raises(SystemExit) as ei:
        run_cli(["solve", str(instance_dir), *flag])
    assert ei.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


@pytest.mark.parametrize("damage", ["trailing", "truncated"])
def test_solve_malformed_bpr1_exit_code(instance_dir, capsys, damage):
    h = instance_dir / "h.bpr1"
    raw = h.read_bytes()
    h.write_bytes(raw + b"\0\0" if damage == "trailing" else raw[:-1])
    assert run_cli(["solve", str(instance_dir)]) == 3
    assert "i/o error: " in capsys.readouterr().err


def _set_meta(path, **changes):
    meta = json.loads((path / "meta.json").read_text())
    meta.update(changes)
    (path / "meta.json").write_text(json.dumps({k: v for k, v in meta.items() if v is not None}))


def _kind_2_blocks(d):
    """Rewrite h.bpr1 as kind 2, in float64 pairs, as written before single-precision blocks."""
    op = load_bpr1(d / "h.bpr1")
    head = struct.pack(f"<IIBI{2 * op.n_blocks}I", *op.shape, 2, op.n_blocks,
                       *(n for b in op.blocks for n in b.shape))
    payload = b"".join(b.astype("<c16").tobytes() for b in op.blocks)
    (d / "h.bpr1").write_bytes(b"BPR1" + head + payload)


@pytest.mark.parametrize("damage, message", [
    (lambda d: _set_meta(d, beta=7), "tuning rows inconsistent with beta*K"),
    (lambda d: (d / "h.bpr1").write_bytes((d / "y.bpr1").read_bytes()), "2-D matrix"),
    (lambda d: (d / "meta.json").write_text("{not json"), "Expecting property name"),
    (lambda d: _set_meta(d, kind=None), "meta.json has no 'kind' entry"),
    (lambda d: _set_meta(d, kind="magnitude"), "must be intensities, got kind 'magnitude'"),
    (lambda d: (d / "x.bpr1").write_bytes((d / "ty.bpr1").read_bytes()), "x.bpr1 has shape"),
    (lambda d: (d / "a.bpr1").write_bytes((d / "h.bpr1").read_bytes()),
     "a.bpr1 holds a KRBD matrix"),
    (_kind_2_blocks, "BPR1 kind 2 (double-precision krbd) is no longer read; "
                     "regenerate the instance with `blockpr gen`"),
], ids=["beta", "vector-operator", "not-json", "no-kind", "magnitude", "short-truth",
        "krbd-tuning", "kind-2-krbd"])
def test_solve_malformed_instance_dir_exit_code(instance_dir, capsys, damage, message):
    # each of these ended in a raw traceback with exit 1
    damage(instance_dir)
    assert run_cli(["solve", str(instance_dir)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"i/o error: {instance_dir}: ") and message in err
    assert err.count("\n") == 1


def _thin_blocks(d):
    """Replace the instance's 48 x 8 blocks by 20 x 8 ones, below 4*8 - 4 = 28 rows."""
    rng = generator(1)
    save_bpr1(d / "h.bpr1", KRBDMatrix(tuple(complex_normal(rng, (20, 8)) for _ in range(2))))
    save_bpr1(d / "y.bpr1", np.ones(40, dtype=complex))


def _few_tuning_rows(d):
    """Keep 3 of the 40 tuning rows, below 4*K - 4 = 4 for K = 2."""
    save_bpr1(d / "a.bpr1", load_bpr1(d / "a.bpr1")[:3])
    save_bpr1(d / "ty.bpr1", load_bpr1(d / "ty.bpr1")[:3])
    _set_meta(d, beta=1.5)


@pytest.mark.parametrize("damage, message", [
    (_thin_blocks, "block 0 of h.bpr1 gives 20 rows for 8 unknowns"),
    (_few_tuning_rows, "the tuning matrix a.bpr1 for K = 2 gives 3 rows for 2 unknowns"),
], ids=["block", "tuning"])
def test_solve_rejects_instance_below_the_injectivity_bound(instance_dir, capsys, damage, message):
    damage(instance_dir)
    assert run_cli(["solve", str(instance_dir)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"i/o error: {instance_dir}: {message}, below the phase-retrieval "
                          f"injectivity bound")


def test_load_instance_holds_each_payload_once(tmp_path, capsys, traced_peak):
    # the loaded tuning matrix is frozen, not copied: 2.6 MB here
    out = tmp_path / "inst"
    assert run_cli(["gen", "--n", "1024", "--seed", "3", "--out", str(out)]) == 0
    payload = sum(f.stat().st_size for f in out.glob("*.bpr1"))
    (instance, x), peak = traced_peak(lambda: _load_instance(out))
    assert peak <= payload + 0.5e6
    assert x is not None and instance.partition.n_blocks == 8


def test_solve_reads_instance_dirs_written_with_matrix_kind(instance_dir, capsys):
    # older instance directories carry a "matrix_kind" meta.json key, which solve does not read
    _set_meta(instance_dir, matrix_kind="gaussian")
    assert run_cli(["solve", str(instance_dir)]) == 0


@pytest.mark.parametrize("n_list", ["6,64", "64,6"])
def test_sweep_explicit_k_fails_only_its_bad_point(capsys, n_list):
    # the template used to check K against the first N, so "6,64" exited 2
    code = run_cli(["sweep-n", "--n-list", n_list, "--k", "4", "--trials", "1",
                    "--snr", "inf", "--format", "json"])
    assert code == 1
    captured = capsys.readouterr()
    rows = json.loads(captured.out)
    expected = [(int(n), n == "6") for n in n_list.split(",")]
    assert [(r["N"], "error" in r) for r in rows] == expected
    assert captured.err == "sweep point N=6 failed: n=6 is not divisible into k=4 equal blocks\n"


def test_csv_sweep_names_failed_point_on_stderr(capsys):
    # the CSV row carries no error column, so the reason goes to stderr
    assert run_cli(["sweep-n", "--n-list", "3", "--trials", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines()[1].startswith("3,-1,")
    assert captured.err == "sweep point N=3 failed: need n >= 4\n"


def test_sweep_k_stdout_csv(capsys):
    code = run_cli(["sweep-k", "--k-list", "1 2", "--n", "32", "--snr", "inf",
                    "--trials", "1", "--seed", "2", "--format", "csv"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert [int(line.split(",")[1]) for line in lines[1:]] == [1, 2]


def test_gen_without_out_exit_code(capsys):
    assert run_cli(["gen", "--n", "16", "--k", "2"]) == 2
    assert "gen requires --out" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["tuner", "unit_modulus_tuner"])
def test_solve_rejects_tuner_as_block_solver(instance_dir, capsys, name):
    # the tuner used to solve each block and exit 0 with an NMSE near 2
    assert run_cli(["solve", str(instance_dir), "--solver", name]) == 2
    assert "--solver" in capsys.readouterr().err


def test_config_rejects_tuner_as_block_solver(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n": 16, "k": 2, "solver": "tuner"}))
    assert run_cli(["gen", "--config", str(path), "--out", str(tmp_path / "inst")]) == 2
    assert "--solver" in capsys.readouterr().err
    assert not (tmp_path / "inst").exists()


def test_unknown_solver_names_flag_and_choices(capsys):
    assert run_cli(["sweep-n", "--n-list", "32", "--solver", "foo"]) == 2
    err = capsys.readouterr().err
    assert "--solver: unknown solver 'foo'" in err
    assert "wf, wf_truncated, ap, altproj, alt_proj" in err


def test_config_rejects_unknown_solver_keys(tmp_path, capsys):
    # these keys were silently dropped, leaving seed 0 and one restart
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n": 16, "k": 2,
                                "solver": {"kind": "wf", "seed": 9, "restart": 4}}))
    assert run_cli(["gen", "--config", str(path), "--out", str(tmp_path / "inst")]) == 2
    assert "unknown solver fields: ['restart', 'seed']" in capsys.readouterr().err
    assert not (tmp_path / "inst").exists()


def test_config_rejects_the_retired_trunc_y(tmp_path, capsys):
    # the truncated spectral start read WFParams.trunc_y; the start that
    # replaced it has no such knob, and a config that still sets it is refused
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"solver": {"kind": "wf", "params": {"trunc_y": 9.0}}}))
    assert run_cli(["sweep-n", "--n-list", "32", "--trials", "1", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid config: unknown WFParams fields: ['trunc_y']")
    assert "Traceback" not in err


def test_noiseless_sweep_stops_every_block_on_tol(tmp_path):
    # with the truncated spectral start, trial 24 of this sweep left one block
    # stalled at residual 0.29 (trial NMSE 0.498), and nmse_mean read 0.0199
    # against a median of 3.8e-16, with exit code 0
    out = tmp_path / "sweep.json"
    assert run_cli(["sweep-n", "--n-list", "256", "--snr", "inf", "--trials", "25",
                    "--seed", "903", "--format", "json", "--out", str(out)]) == 0
    (row,) = json.loads(out.read_text())
    assert row["block_tol"] == 100
    assert row["nmse_mean"] < 1e-10


@pytest.mark.parametrize("value", ["tuner", "wf", "altproj"])
@pytest.mark.parametrize("command", ["solve", "sweep-n"])
def test_tune_solver_flag_is_gone(instance_dir, capsys, command, value):
    # the phase tuner is always the unit-modulus tuner
    args = [str(instance_dir)] if command == "solve" else ["--n-list", "32"]
    with pytest.raises(SystemExit) as ei:
        run_cli([command, *args, "--tune-solver", value])
    assert ei.value.code == 2
    assert "unrecognized arguments: --tune-solver" in capsys.readouterr().err


def test_config_rejects_tune_solver(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n": 16, "k": 2, "tune_solver": "tuner"}))
    assert run_cli(["gen", "--config", str(path), "--out", str(tmp_path / "inst")]) == 2
    assert "unknown config fields: ['tune_solver']" in capsys.readouterr().err


@pytest.mark.parametrize("flag", [
    ["--solver", "wf"], ["--restarts", "2"], ["--parallelism", "2"], ["--trials", "2"],
    ["--format", "json"], ["--tune-solver", "tuner"], ["--baseline-include-tuning-rows"],
])
def test_gen_rejects_solver_and_report_flags(tmp_path, capsys, flag):
    # gen solves nothing; it must not accept and drop these
    with pytest.raises(SystemExit) as ei:
        run_cli(["gen", "--n", "16", "--k", "2", "--out", str(tmp_path / "inst"), *flag])
    assert ei.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
    assert not (tmp_path / "inst").exists()


@pytest.mark.parametrize("command, flag", [("sweep-n", "--n-list"), ("sweep-k", "--k-list"),
                                           ("table1", "--n-list")])
def test_sweep_rejects_empty_list(capsys, command, flag):
    with pytest.raises(SystemExit) as ei:
        run_cli([command, "--n", "32", flag, ""])
    assert ei.value.code == 2
    assert f"argument {flag}: must list at least one value" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["sweep-n", "--n-list", "32", "--n", "64"], "unrecognized arguments: --n 64"),
    (["sweep-k", "--k-list", "2", "--n", "32", "--k", "4"], "unrecognized arguments: --k 4"),
    (["table1", "--n-list", "32", "--n", "64"], "unrecognized arguments: --n 64"),
    (["table1", "--n-list", "32", "--k", "4"], "unrecognized arguments: --k 4"),
], ids=["sweep-n-n", "sweep-k-k", "table1-n", "table1-k"])
def test_sweep_rejects_the_flag_it_sets(capsys, argv, message):
    # the sweep points and table1's automatic K used to override these silently
    with pytest.raises(SystemExit) as ei:
        run_cli(argv)
    assert ei.value.code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv, config, unread", [
    (["gen", "--out", "OUT"], {"n": 16, "k": 2, "trials": 5, "parallelism": 2,
                               "solver": "altproj"}, "['parallelism', 'solver', 'trials']"),
    (["table1", "--n-list", "32", "--trials", "1"], {"n": 64, "k": 8}, "['k']"),
    (["table1", "--n-list", "32", "--trials", "1"], {"N": 64, "K": 8}, "['k']"),
    (["sweep-n", "--n-list", "32", "--trials", "1"],
     {"n": 64, "k": 2, "noisy_tuning": False}, None),
], ids=["gen", "table1", "table1-alias", "sweep-n"])
def test_config_keys_the_command_does_not_read(tmp_path, capsys, argv, config, unread):
    # gen used to drop the last three keys, and table1 ran K = 4 (auto) over k = 8
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    argv = [str(tmp_path / "out") if tok == "OUT" else tok for tok in argv]
    code = run_cli([*argv, "--config", str(path)])
    err = capsys.readouterr().err
    if unread is None:  # every key is read; the sweep list is sweep-n's flag for n
        assert code == 0
    else:
        assert code == 2
        assert f"{argv[0]} does not read config fields {unread}" in err
    assert not (tmp_path / "out").exists()


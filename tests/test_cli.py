import json
import math

import pytest

from blockpr.cli import main
from blockpr.io import load_bpr1


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
    assert report["tuning_stop_reason"] in ("tol", "stall", "max_iters")
    assert (tmp_path / "xhat.bpr1").exists()
    xh = load_bpr1(tmp_path / "xhat.bpr1")
    assert len(xh) == 16


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
    assert run_cli(["gen", "--n", "16", "--k", "2", "--solver", "magic",
                    "--out", "/tmp/x"]) == 2


def test_missing_config_file_is_io_error():
    code = run_cli(["sweep-n", "--n-list", "32", "--config", "/nonexistent/cfg.json"])
    assert code == 3


def test_unwritable_output_exit_code():
    code = run_cli(["sweep-n", "--n-list", "32", "--k", "2", "--snr", "inf",
                    "--trials", "1", "--out", "/nonexistent-dir/out.csv"])
    assert code == 3


def test_failed_sweep_point_exit_code(capsys):
    # K=5 does not divide 32: the point fails, sweep completes, exit code 1
    code = run_cli(["sweep-k", "--k-list", "5", "--n", "32", "--snr", "inf",
                    "--trials", "1", "--format", "json"])
    assert code == 1


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

"""The package's named surface: what the benchmark tracer wraps and what it exports."""

import ast
import dataclasses
import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import blockpr
from blockpr.solvers import WFParams

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.tracing import PIPELINE_NAMES, SOLVER_NAMES  # noqa: E402

MODULES = ["bench", "cli", "core", "forward", "io", "pipeline", "rng", "solvers"]


@pytest.mark.parametrize("module, names", [("pipeline", PIPELINE_NAMES),
                                           ("solvers", SOLVER_NAMES)])
def test_traced_names_are_module_callables(module, names):
    # the tracer replaces these attributes; the pipeline must look them up there
    mod = importlib.import_module(f"blockpr.{module}")
    for name in names:
        assert callable(getattr(mod, name, None)), f"blockpr.{module}.{name}"


@pytest.mark.parametrize("module", MODULES)
def test_module_all_resolves(module):
    mod = importlib.import_module(f"blockpr.{module}")
    for name in getattr(mod, "__all__", ()):
        assert hasattr(mod, name), f"blockpr.{module}.{name}"


@pytest.mark.parametrize("workload", [w["name"] for w in json.loads(
    (ROOT / "BENCHMARK.json").read_text())["workloads"]])
def test_benchmark_smoke_run(workload, tmp_path):
    # the benchmark builds its instances and solves through the public API
    # (gen_instance, PRInstance, BlockPRInstance, load_bpr1, APParams,
    # block_pr_solve with positional arguments), so a break there shows
    # here. A solve that raises counts as failed, not as incorrect, so a run
    # in which every solve failed fails the test too. It runs on a copy, so
    # its record goes to the copy's perfbench/out, not to the checkout's.
    for name in ("src", "perfbench"):
        shutil.copytree(ROOT / name, tmp_path / name,
                        ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run([sys.executable, str(tmp_path / "perfbench" / "run.py"),
                           "--workload", workload, "--seed", "1", "--seconds", "0"],
                          cwd=tmp_path, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True, result
    assert result["failed"] < result["attempted"], result


def test_package_imports_resolve_to_module_exports():
    tree = ast.parse(Path(blockpr.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        mod = importlib.import_module(f"blockpr.{node.module}")
        exported = getattr(mod, "__all__", None)
        for alias in node.names:
            assert hasattr(blockpr, alias.name), f"blockpr.{alias.name}"
            assert exported is None or alias.name in exported, \
                f"blockpr.{node.module}.__all__ lacks {alias.name}"



@pytest.mark.parametrize("path", sorted(Path(blockpr.__file__).parent.glob("[!_]*.py")),
                         ids=lambda p: p.stem)
def test_no_unused_module_level_import(path):
    # a deletion can leave its imports behind (__init__.py imports to
    # re-export, which the test above checks)
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                for t in node.targets):
            used.update(ast.literal_eval(node.value))
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    assert [name for name in bound if name not in used] == []


# a non-default value for every option of the commands, and the extra
# tokens of the run it is compared against
NON_DEFAULT = {
    "--config": (["CFG"], []),
    "--n": (["64"], []),
    "--k": (["4"], []),
    "--alpha": (["5"], []),
    "--beta": (["5"], []),
    "--snr": (["10"], []),
    "--noisy-tuning": ([], ["--clean-tuning"]),
    "--clean-tuning": ([], []),
    "--seed": (["7"], []),
    "--out": (["OUT"], []),
    "--solver": (["altproj"], []),
    "--restarts": (["3"], []),
    "--parallelism": (["2"], []),
    "--trials": (["2"], []),
    "--n-list": (["64"], []),
    "--k-list": (["4"], []),
    "--compare-monolithic": ([], []),
}
# a non-default config-file value for every ExperimentConfig field
NON_DEFAULT_FIELD = {"n": 64, "k": 4, "alpha": 5, "beta": 5, "snr_db": 10, "trials": 2,
                     "seed": 7, "solver": "altproj", "noisy_tuning": False, "parallelism": 2,
                     "output_path": "OUT"}
# read by the command itself, outside the ExperimentConfig and the trials
READ_BY_COMMAND = {"--format"}
BASE_ARGV = {
    "gen": ["gen", "--n", "32", "--k", "2", "--out", "OUT0"],
    "solve": ["solve", "INST"],
    "sweep-n": ["sweep-n", "--n-list", "32", "--k", "2", "--trials", "1"],
    "sweep-k": ["sweep-k", "--k-list", "2", "--n", "32", "--trials", "1"],
    "table1": ["table1", "--n-list", "32", "--trials", "1"],
}
CONFIG_COMMANDS = ["gen", "sweep-n", "sweep-k", "table1"]


def _subparser(command):
    from blockpr.cli import build_parser

    parser = build_parser()
    sub = next(a for a in parser._actions if a.choices and command in a.choices)
    return sub.choices[command]


def _options(command):
    return [opt for action in _subparser(command)._actions if action.option_strings
            for opt in action.option_strings if opt not in ("-h", "--help")]


@pytest.fixture
def run_command(tmp_path, monkeypatch, capsys):
    """Run a command line and record what it runs and writes.

    Returns the exit code, the recorded calls (the sweeps' trials, the files
    gen writes, the arguments of solve's block solve) and whether ``OUT`` was
    written.
    """
    from blockpr import bench, cli

    paths = {"OUT": tmp_path / "out", "OUT0": tmp_path / "out0", "INST": tmp_path / "inst"}
    assert cli.main(["gen", "--n", "16", "--k", "2", "--out", str(paths["INST"])]) == 0
    real_gen, real_solve = cli._cmd_gen, cli.block_pr_solve

    def run(argv):
        calls = []

        def fake_trial(cfg, trial_seed, compare_monolithic=False):
            calls.append((cfg, trial_seed, compare_monolithic))
            return bench.TrialRecord(n=cfg.n, k=cfg.resolved_k(), seed=trial_seed, nmse=0.0,
                                     blocking_s=0.0, tuning_s=0.0, merge_s=0.0, total_s=1.0)

        def recording_gen(args, cfg):
            code = real_gen(args, cfg)
            out = Path(cfg.output_path)
            calls.append((out, {f.name: f.read_bytes() for f in out.iterdir()}))
            shutil.rmtree(out)
            return code

        def recording_solve(instance, *args):
            calls.append(args)
            return real_solve(instance, *args)

        monkeypatch.setattr(bench, "run_trial", fake_trial)
        monkeypatch.setattr(cli, "_cmd_gen", recording_gen)
        monkeypatch.setattr(cli, "block_pr_solve", recording_solve)
        code = cli.main([str(paths.get(tok, tok)) for tok in argv])
        capsys.readouterr()
        wrote = paths["OUT"].exists()
        paths["OUT"].unlink(missing_ok=True)
        return code, calls, wrote

    return run


@pytest.mark.parametrize("command", list(BASE_ARGV))
def test_every_option_reaches_the_run(command, tmp_path, run_command):
    # an option that parses and then changes neither what the command runs
    # (see run_command) nor whether it writes the output file is accepted and dropped
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text('{"alpha": 4}')
    for opt in _options(command):
        if opt in READ_BY_COMMAND:
            continue
        assert opt in NON_DEFAULT, f"{command} {opt}: add a non-default value"
        tokens, against = NON_DEFAULT[opt]
        base = BASE_ARGV[command] + against
        tokens = [str(cfg_file) if tok == "CFG" else tok for tok in tokens]
        code, *changed = run_command(base + [opt, *tokens])
        code_base, *unchanged = run_command(base)
        assert code == code_base == 0, f"{command} {opt}"
        assert changed != unchanged, f"{command} accepts {opt} and drops it"


@pytest.mark.parametrize("solver, code, params", [
    ({"kind": "wf", "params": {"loss": "gaussian", "step_size": 0.1}}, 0,
     WFParams(loss="gaussian", step_size=0.1)),
    ({"kind": "altproj", "params": {"loss": "gaussian"}}, 2, None),
])
def test_config_solver_params_reach_the_run(solver, code, params, tmp_path, run_command):
    # a config file's solver params reach every trial, or exit 2 if they do
    # not fit the solver
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"solver": solver}))
    got, calls, _ = run_command(BASE_ARGV["sweep-n"] + ["--config", str(cfg_file)])
    assert got == code
    assert bool(calls) == (code == 0)
    assert [cfg.solver.params for cfg, *_ in calls] == [params] * len(calls)


@pytest.mark.parametrize("command", CONFIG_COMMANDS)
def test_every_config_field_is_read_or_rejected(command, tmp_path, run_command):
    # a config-file field must change the configs and trial seeds the command
    # runs, or exit 2; a field the command line also sets keeps the flag's value
    from blockpr.bench import ExperimentConfig

    dests = {opt: action.dest for action in _subparser(command)._actions
             for opt in action.option_strings}
    argv = BASE_ARGV[command]
    set_by_flag = {dests[tok].removesuffix("_list") for tok in argv if tok in dests}
    code_base, *unchanged = run_command(argv)
    assert code_base == 0
    dropped, overriding = [], []
    for field in dataclasses.fields(ExperimentConfig):
        assert field.name in NON_DEFAULT_FIELD, f"{field.name}: add a non-default value"
        value = NON_DEFAULT_FIELD[field.name]
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({field.name: str(tmp_path / value)
                                        if value == "OUT" else value}))
        code, *changed = run_command(argv + ["--config", str(cfg_file)])
        if field.name in set_by_flag:
            if (code, changed) != (0, unchanged):
                overriding.append(field.name)
        elif not (code == 2 or (code == 0 and changed != unchanged)):
            dropped.append(field.name)
    assert not dropped, f"{command} accepts these config fields and drops them"
    assert not overriding, f"{command}: these config fields override the flags"

"""The package's named surface: what the benchmark tracer wraps and what it exports."""

import ast
import importlib
import sys
from pathlib import Path

import pytest

import blockpr

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


# a non-default value for every option of the commands that build an
# ExperimentConfig, and the extra tokens of the run it is compared against
NON_DEFAULT = {
    "--config": (["CFG"], []),
    "--n": (["64"], []),
    "--k": (["4"], []),
    "--alpha": (["3"], []),
    "--beta": (["5"], []),
    "--snr": (["10"], []),
    "--matrix-kind": (["binary01"], []),
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
# read by the command itself, outside the ExperimentConfig and the trials
READ_BY_COMMAND = {"--format"}
# set by the command itself; the flag exits 2
SET_BY_COMMAND = {("sweep-n", "--n"), ("sweep-k", "--k"), ("table1", "--n"), ("table1", "--k")}
BASE_ARGV = {
    "gen": ["gen", "--n", "32", "--k", "2", "--out", "OUT0"],
    "sweep-n": ["sweep-n", "--n-list", "32", "--k", "2", "--trials", "1"],
    "sweep-k": ["sweep-k", "--k-list", "2", "--n", "32", "--trials", "1"],
    "table1": ["table1", "--n-list", "32", "--trials", "1"],
}


def _options(command):
    from blockpr.cli import build_parser

    parser = build_parser()
    sub = next(a for a in parser._actions if a.choices and command in a.choices)
    return [opt for action in sub.choices[command]._actions if action.option_strings
            for opt in action.option_strings if opt not in ("-h", "--help")]


@pytest.mark.parametrize("command", list(BASE_ARGV))
def test_every_option_reaches_the_run(command, tmp_path, monkeypatch, capsys):
    # an option that parses and then changes neither the ExperimentConfig the
    # command runs nor its trials is accepted and dropped
    from blockpr import bench, cli

    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text('{"alpha": 4}')
    paths = {"CFG": str(cfg_file), "OUT": str(tmp_path / "out"), "OUT0": str(tmp_path / "out0")}

    def run(argv):
        calls = []

        def fake_trial(cfg, trial_seed, compare_monolithic=False):
            calls.append((cfg, trial_seed, compare_monolithic))
            return bench.TrialRecord(n=cfg.n, k=cfg.resolved_k(), seed=trial_seed, nmse=0.0,
                                     blocking_s=0.0, tuning_s=0.0, merge_s=0.0, total_s=1.0)

        monkeypatch.setattr(bench, "run_trial", fake_trial)
        monkeypatch.setattr(cli, "_cmd_gen", lambda args, cfg: calls.append(cfg) or 0)
        code = cli.main([paths.get(tok, tok) for tok in argv])
        capsys.readouterr()
        return code, calls

    for opt in _options(command):
        if opt in READ_BY_COMMAND:
            continue
        assert opt in NON_DEFAULT, f"{command} {opt}: add a non-default value"
        tokens, against = NON_DEFAULT[opt]
        base = BASE_ARGV[command] + against
        code, changed = run(base + [opt, *tokens])
        if (command, opt) in SET_BY_COMMAND:
            assert code == 2, f"{command} {opt}"
            continue
        code_base, unchanged = run(base)
        assert code == code_base == 0, f"{command} {opt}"
        assert changed != unchanged, f"{command} accepts {opt} and drops it"

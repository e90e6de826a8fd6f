"""Command-line interface.

Subcommands:

* ``gen``      write a synthetic instance (BPR1 files + meta.json) to a directory
* ``solve``    solve one generated instance, print an NMSE/report JSON to stdout
* ``sweep-n``  run trials over a list of signal sizes N
* ``sweep-k``  run trials over a list of block counts K at fixed N
* ``table1``   auto-K speedup table (block pipeline vs densified baseline)

Flags mirror the ExperimentConfig fields; ``--config FILE`` loads a JSON
config with the same field names, and explicit flags override it. ``solve``
reads the problem from the instance directory and takes only the solver
flags (``--seed``, ``--solver``, ``--tune-solver``, ``--restarts``,
``--parallelism``, ``--out``); any other flag is an error.

Exit codes: 0 success, 1 solver failure, 2 invalid config or flag, 3 I/O error
or malformed BPR1 file.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import io as bprio
from .bench import _LANE_TRIAL, ExperimentConfig, emit_report, gen_instance, sweep
from .core import BlockPRInstance, PRInstance
from .pipeline import BlockSolveError, block_pr_solve
from .rng import mix_seed
from .solvers import APParams, Diverged, NonProgress, RankDeficient, SolverSpec, WFParams

EXIT_OK = 0
EXIT_SOLVER = 1
EXIT_CONFIG = 2
EXIT_IO = 3

_SOLVER_ALIASES = {
    "wf": "wf_truncated",
    "wf_truncated": "wf_truncated",
    "ap": "alt_proj",
    "altproj": "alt_proj",
    "alt_proj": "alt_proj",
    "tuner": "unit_modulus_tuner",
    "unit_modulus_tuner": "unit_modulus_tuner",
}


def _solver_spec(value, default_kind="wf_truncated") -> SolverSpec:
    """Build a SolverSpec from a CLI string or a config-file object."""
    if value is None:
        return SolverSpec(default_kind)
    if isinstance(value, SolverSpec):
        return value
    if isinstance(value, str):
        return SolverSpec(_SOLVER_ALIASES[value.lower()])
    kind = _SOLVER_ALIASES[value.get("kind", default_kind).lower()]
    params = value.get("params")
    if params is not None:
        params = WFParams(**params) if kind == "wf_truncated" else APParams(**params)
    return SolverSpec(kind, params=params, restarts=int(value.get("restarts", 1)))


def _parse_snr(s: str) -> float:
    if s.lower() in ("inf", "+inf", "none", "noiseless"):
        return math.inf
    return float(s)


def _int_list(s: str) -> list[int]:
    return [int(tok) for tok in s.replace(",", " ").split()]


def _positive_int(s: str) -> int:
    value = int(s)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_solver_flags(p: argparse.ArgumentParser):
    p.add_argument("--seed", type=int, help="master seed")
    p.add_argument("--solver", help="base solver: wf|altproj")
    p.add_argument("--tune-solver", dest="tune_solver", help="tuning solver: tuner|altproj")
    p.add_argument("--restarts", type=int, help="base solver restarts")
    p.add_argument("--parallelism", type=_positive_int, help="max concurrent block solves")
    p.add_argument("--out", help="output path")


def _add_config_flags(p: argparse.ArgumentParser):
    _add_solver_flags(p)
    p.add_argument("--config", help="JSON config file; flags override its values")
    p.add_argument("--n", type=int, help="signal length N")
    p.add_argument("--k", help="number of blocks, or 'auto'")
    p.add_argument("--alpha", type=float, help="per-block oversampling M/N (default 6)")
    p.add_argument("--beta", type=float, help="tuning rows per block, L = beta*K (default 20)")
    p.add_argument("--snr", help="intensity SNR in dB, or 'inf' (default 30)")
    p.add_argument("--trials", type=int, help="trials per point")
    p.add_argument("--matrix-kind", dest="matrix_kind", choices=["gaussian", "binary01"])
    p.add_argument("--noisy-tuning", dest="noisy_tuning", action="store_true", default=None)
    p.add_argument("--clean-tuning", dest="noisy_tuning", action="store_false")
    p.add_argument("--baseline-include-tuning-rows", dest="baseline_include_tuning_rows",
                   action="store_true", default=None)
    p.add_argument("--format", choices=["csv", "json"], default=None)


def build_config(args: argparse.Namespace) -> ExperimentConfig:
    raw: dict = {}
    if args.config:
        with open(args.config) as fh:
            raw.update(json.load(fh))
    # accept the capitalized aliases used in prose
    for alias, name in (("N", "n"), ("K", "k")):
        if alias in raw:
            raw[name] = raw.pop(alias)
    overrides = {
        "n": args.n,
        "k": args.k,
        "alpha": args.alpha,
        "beta": args.beta,
        "snr_db": _parse_snr(args.snr) if args.snr is not None else None,
        "trials": args.trials,
        "seed": args.seed,
        "matrix_kind": args.matrix_kind,
        "parallelism": args.parallelism,
        "noisy_tuning": args.noisy_tuning,
        "baseline_include_tuning_rows": args.baseline_include_tuning_rows,
        "output_path": args.out,
    }
    raw.update({k: v for k, v in overrides.items() if v is not None})
    if "n" not in raw and getattr(args, "n_list", None):
        raw["n"] = args.n_list[0]  # sweep points override n anyway
    if "n" not in raw:
        raise ValueError("signal size is required (--n or config file)")
    solver = _solver_spec(args.solver if args.solver is not None else raw.get("solver"))
    if args.restarts is not None:
        solver = dataclasses.replace(solver, restarts=args.restarts)
    raw["solver"] = solver
    tune_raw = args.tune_solver if args.tune_solver is not None else raw.get("tune_solver")
    raw["tune_solver"] = (
        _solver_spec(tune_raw, default_kind="unit_modulus_tuner") if tune_raw is not None else None
    )
    known = {f.name for f in dataclasses.fields(ExperimentConfig)}
    unknown = set(raw) - known
    if unknown:
        raise ValueError(f"unknown config fields: {sorted(unknown)}")
    return ExperimentConfig(**raw)


def _cmd_gen(args, cfg: ExperimentConfig) -> int:
    if cfg.output_path is None:
        raise ValueError("gen requires --out DIRECTORY")
    instance, x = gen_instance(cfg, mix_seed(cfg.seed, _LANE_TRIAL, 0))
    out = Path(cfg.output_path)
    out.mkdir(parents=True, exist_ok=True)
    bprio.save_bpr1(out / "h.bpr1", instance.base.operator)
    bprio.save_bpr1(out / "y.bpr1", instance.base.measurements.astype(np.complex128))
    bprio.save_bpr1(out / "a.bpr1", instance.tuning_matrix)
    bprio.save_bpr1(out / "ty.bpr1", instance.tuning_measurements.astype(np.complex128))
    bprio.save_bpr1(out / "x.bpr1", x)
    meta = {
        "kind": instance.base.kind,
        "n": cfg.n,
        "k": instance.partition.n_blocks,
        "alpha": cfg.alpha,
        "beta": cfg.beta,
        "snr_db": cfg.snr_db,
        "seed": cfg.seed,
        "matrix_kind": cfg.matrix_kind,
        "noisy_tuning": cfg.noisy_tuning,
    }
    (out / "meta.json").write_text(json.dumps(meta, indent=2) + "\n")
    print(f"wrote instance (N={cfg.n}, K={meta['k']}) to {out}")
    return EXIT_OK


def _load_instance(path: Path) -> tuple[BlockPRInstance, np.ndarray | None]:
    meta = json.loads((path / "meta.json").read_text())
    op = bprio.load_bpr1(path / "h.bpr1")
    y = np.real(bprio.load_bpr1(path / "y.bpr1"))
    a_mat = bprio.load_bpr1(path / "a.bpr1")
    y_t = np.real(bprio.load_bpr1(path / "ty.bpr1"))
    base = PRInstance(op, y, meta["kind"], meta.get("snr_db"))
    instance = BlockPRInstance(base, a_mat, y_t, meta["beta"])
    x_path = path / "x.bpr1"
    x = bprio.load_bpr1(x_path) if x_path.exists() else None
    return instance, x


def _cmd_solve(args, cfg_solver, tune_solver, parallelism) -> int:
    instance, x = _load_instance(Path(args.instance))
    x_hat, out = block_pr_solve(instance, cfg_solver, tune_solver, parallelism)
    report = {
        "n": instance.base.operator.shape[1],
        "k": instance.partition.n_blocks,
        "nmse": None,
        "blocking_s": out.stage_times.blocking_s,
        "tuning_s": out.stage_times.tuning_s,
        "merge_s": out.stage_times.merge_s,
        "block_iterations": [r.iterations for r in out.per_block_reports],
        "block_residuals": [r.final_residual for r in out.per_block_reports],
        "converged_blocks": [r.converged for r in out.per_block_reports],
        "tuning_converged": out.tuning_report.converged,
        "block_stop_reasons": [r.stop_reason for r in out.per_block_reports],
        "tuning_stop_reason": out.tuning_report.stop_reason,
    }
    if x is not None:
        from .forward import nmse

        report["nmse"] = nmse(x, x_hat)
    json.dump(report, sys.stdout, indent=2)
    print()
    if args.out:
        bprio.save_bpr1(Path(args.out), x_hat)
    return EXIT_OK


def _emit(args, cfg: ExperimentConfig, table) -> int:
    fmt = args.format or "csv"
    if cfg.output_path:
        emit_report(table, fmt, cfg.output_path)
        print(f"wrote {fmt} report to {cfg.output_path}")
    else:
        import tempfile

        with tempfile.TemporaryDirectory() as tmp:
            tmp_path = Path(tmp) / f"report.{fmt}"
            emit_report(table, fmt, tmp_path)
            sys.stdout.write(tmp_path.read_text())
    failed = [r for r in table.rows if r.error is not None]
    return EXIT_SOLVER if failed else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blockpr", description="Block-based phase retrieval benchmark harness"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate an instance in BPR1 format")
    _add_config_flags(p_gen)

    # the instance directory fixes the problem, so solve takes no experiment flags
    p_solve = sub.add_parser("solve", help="solve a generated instance")
    p_solve.add_argument("instance", help="instance directory written by gen")
    _add_solver_flags(p_solve)

    p_sn = sub.add_parser("sweep-n", help="sweep over signal sizes")
    p_sn.add_argument("--n-list", required=True, type=_int_list)
    p_sn.add_argument("--compare-monolithic", action="store_true")
    _add_config_flags(p_sn)

    p_sk = sub.add_parser("sweep-k", help="sweep over block counts")
    p_sk.add_argument("--k-list", required=True, type=_int_list)
    p_sk.add_argument("--compare-monolithic", action="store_true")
    _add_config_flags(p_sk)

    p_t1 = sub.add_parser("table1", help="auto-K speedup table vs monolithic baseline")
    p_t1.add_argument("--n-list", required=True, type=_int_list)
    _add_config_flags(p_t1)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "solve":
            solver = _solver_spec(args.solver)
            if args.restarts is not None:
                solver = dataclasses.replace(solver, restarts=args.restarts)
            if args.seed is not None:
                solver = dataclasses.replace(solver, seed=args.seed)
            tune = _solver_spec(args.tune_solver, "unit_modulus_tuner") if args.tune_solver else None
            parallelism = args.parallelism
        else:
            cfg = build_config(args)
    except (ValueError, TypeError, KeyError, json.JSONDecodeError) as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO

    try:
        if args.command == "gen":
            return _cmd_gen(args, cfg)
        if args.command == "solve":
            return _cmd_solve(args, solver, tune, parallelism)
        if args.command == "sweep-n":
            table = sweep(cfg, n_list=args.n_list, compare_monolithic=args.compare_monolithic)
            return _emit(args, cfg, table)
        if args.command == "sweep-k":
            table = sweep(cfg, k_list=args.k_list, compare_monolithic=args.compare_monolithic)
            return _emit(args, cfg, table)
        if args.command == "table1":
            cfg = dataclasses.replace(cfg, k="auto")
            table = sweep(cfg, n_list=args.n_list, compare_monolithic=True)
            return _emit(args, cfg, table)
        raise AssertionError(f"unhandled command {args.command}")
    except (BlockSolveError, Diverged, NonProgress, RankDeficient) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (OSError, bprio.BPR1Error) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())

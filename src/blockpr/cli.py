"""Command-line interface.

Subcommands:

* ``gen``      write a synthetic instance (BPR1 files + meta.json) to a directory
* ``solve``    solve one generated instance, print an NMSE/report JSON to stdout
* ``sweep-n``  run trials over a list of signal sizes N
* ``sweep-k``  run trials over a list of block counts K at fixed N
* ``table1``   auto-K speedup table (block pipeline vs densified baseline)

Each flag stores the ExperimentConfig field it names, and a subcommand's
parser lists all it reads: any other flag, or a ``--config FILE`` key for a
field it has no flag or sweep list for, is an error. Flags override the file.
``gen`` takes the instance flags, ``solve`` only the solver flags, and the
sweeps and ``table1`` both (less the swept value; ``table1`` sets N and K),
plus ``--trials`` and ``--format``; all take ``--seed`` and ``--out``. The
phase tuner has no flag: it is always the unit-modulus tuner.

Exit codes: 0 success, 1 solver failure, 2 invalid config or flag, 3 I/O error,
malformed BPR1 file or malformed instance directory.
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
from .bench import (_LANE_TRIAL, ExperimentConfig, _require_injective, _write_report, emit_report,
                    gen_instance, sweep)
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
}
_SOLVER_KEYS = ("kind", "params", "restarts")
_FIELDS = {f.name for f in dataclasses.fields(ExperimentConfig)}


def _solver_kind(name: str) -> str:
    try:
        return _SOLVER_ALIASES[name.lower()]
    except KeyError:
        raise ValueError(f"--solver: unknown solver {name!r}; "
                         f"choose one of {', '.join(_SOLVER_ALIASES)}") from None


def _solver_spec(value) -> SolverSpec:
    """The block solver's spec from ``--solver`` or a config-file ``solver`` object."""
    if value is None:
        return SolverSpec("wf_truncated")
    if isinstance(value, str):
        return SolverSpec(_solver_kind(value))
    unknown = set(value) - set(_SOLVER_KEYS)
    if unknown:
        raise ValueError(f"unknown solver fields: {sorted(unknown)}; "
                         f"expected {', '.join(_SOLVER_KEYS)}")
    kind = _solver_kind(value.get("kind", "wf"))
    params = value.get("params")
    if params is not None:
        cls = WFParams if kind == "wf_truncated" else APParams
        unknown = set(params) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise ValueError(f"unknown {cls.__name__} fields: {sorted(unknown)}")
        params = cls(**params)
    return SolverSpec(kind, params=params, restarts=value.get("restarts", 1))


def _parse_snr(s: str) -> float:
    if s.lower() in ("inf", "+inf", "none", "noiseless"):
        return math.inf
    return float(s)


def _int_list(s: str) -> list[int]:
    values = [int(tok) for tok in s.replace(",", " ").split()]
    if not values:
        raise argparse.ArgumentTypeError("must list at least one value")
    return values


def _positive_int(s: str) -> int:
    value = int(s)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_seed_out_flags(p: argparse.ArgumentParser):
    p.add_argument("--seed", type=int, help="master seed")
    p.add_argument("--out", dest="output_path", help="output path")


def _add_solver_flags(p: argparse.ArgumentParser):
    p.add_argument("--solver", help="base solver: wf|altproj")
    p.add_argument("--restarts", type=int, help="most restarts per block solve (a cap)")
    p.add_argument("--parallelism", type=_positive_int, help="max concurrent block solves")


def _add_instance_flags(p: argparse.ArgumentParser, *, n=True, k=True):
    p.add_argument("--config", help="JSON config file; flags override its values")
    if n:
        p.add_argument("--n", type=int, help="signal length N")
    if k:
        p.add_argument("--k", help="number of blocks, or 'auto'")
    p.add_argument("--alpha", type=float, help="per-block oversampling M/N (default 6)")
    p.add_argument("--beta", type=float, help="tuning rows per block, L = beta*K (default 20)")
    p.add_argument("--snr", dest="snr_db", type=_parse_snr,
                   help="intensity SNR in dB, or 'inf' (default 30)")
    p.add_argument("--noisy-tuning", dest="noisy_tuning", action="store_true", default=None)
    p.add_argument("--clean-tuning", dest="noisy_tuning", action="store_false")


def _add_experiment_flags(p: argparse.ArgumentParser, **instance_flags):
    """The sweeps' and table1's flags: instance, seed/out and solver flags, trials, format."""
    _add_instance_flags(p, **instance_flags)
    _add_seed_out_flags(p)
    _add_solver_flags(p)
    p.add_argument("--trials", type=int, help="trials per point")
    p.add_argument("--format", choices=["csv", "json"], default=None)


def _solver(args: argparse.Namespace, config_value=None) -> SolverSpec:
    """The block solver of ``--solver`` and ``--restarts`` over a config-file value."""
    solver = _solver_spec(args.solver if args.solver is not None else config_value)
    if args.restarts is not None:
        solver = dataclasses.replace(solver, restarts=args.restarts)
    return solver


def build_config(args: argparse.Namespace) -> ExperimentConfig:
    """The ExperimentConfig of a gen, sweep or table1 command line, over its config file."""
    flags = vars(args)
    raw: dict = {}
    if args.config:
        with open(args.config) as fh:
            raw.update(json.load(fh))
    # accept the capitalized aliases used in prose
    for alias, name in (("N", "n"), ("K", "k")):
        if alias in raw:
            raw[name] = raw.pop(alias)
    unknown = set(raw) - _FIELDS
    if unknown:
        raise ValueError(f"unknown config fields: {sorted(unknown)}")
    _solver_spec(raw.get("solver"))  # a malformed solver object names its own keys first
    unread = {key for key in raw if key not in flags and f"{key}_list" not in flags}
    if unread:
        raise ValueError(f"{args.command} does not read config fields {sorted(unread)}; "
                         f"it has no flag for them")
    raw.update({name: value for name, value in flags.items()
                if name in _FIELDS and value is not None})
    if "n" not in raw and "n_list" in flags:
        raw["n"] = args.n_list[0]  # sweep points override n anyway
    if "n" not in raw:
        raise ValueError("signal size is required (--n or config file)")
    if "solver" in flags:
        raw["solver"] = _solver(args, raw.get("solver"))
    return ExperimentConfig(**raw)


def _cmd_gen(args, cfg: ExperimentConfig) -> int:
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
        "noisy_tuning": cfg.noisy_tuning,
    }
    (out / "meta.json").write_text(json.dumps(meta, indent=2) + "\n")
    print(f"wrote instance (N={cfg.n}, K={meta['k']}) to {out}")
    return EXIT_OK


class MalformedInstance(ValueError):
    """An instance directory whose files do not make a block PR instance."""


def _load_instance(path: Path) -> tuple[BlockPRInstance, np.ndarray | None]:
    try:
        meta = json.loads((path / "meta.json").read_text())
        op = bprio.load_bpr1(path / "h.bpr1")
        y = np.real(bprio.load_bpr1(path / "y.bpr1"))
        a_mat = bprio.load_bpr1(path / "a.bpr1")
        if not isinstance(a_mat, np.ndarray):
            raise ValueError("a.bpr1 holds a KRBD matrix, expected a dense tuning matrix")
        a_mat.setflags(write=False)  # BlockPRInstance keeps it as loaded, without a copy
        y_t = np.real(bprio.load_bpr1(path / "ty.bpr1"))
        base = PRInstance(op, y, meta["kind"])
        instance = BlockPRInstance(base, a_mat, y_t, meta["beta"])
        part = instance.partition
        for i, (m, n) in enumerate(zip(part.row_sizes, part.col_sizes)):
            _require_injective(m, n, f"block {i} of h.bpr1")
        k = part.n_blocks
        _require_injective(a_mat.shape[0], k, f"the tuning matrix a.bpr1 for K = {k}")
        x = bprio.load_bpr1(path / "x.bpr1") if (path / "x.bpr1").exists() else None
        if x is not None and x.shape != (op.shape[1],):
            raise ValueError(f"x.bpr1 has shape {x.shape}, expected ({op.shape[1]},)")
    except KeyError as exc:
        raise MalformedInstance(f"{path}: meta.json has no {exc} entry") from None
    except (ValueError, TypeError) as exc:  # a JSON syntax error is a ValueError
        raise MalformedInstance(f"{path}: {exc}") from None
    return instance, x


def _cmd_solve(args, solver: SolverSpec) -> int:
    instance, x = _load_instance(Path(args.instance))
    x_hat, out = block_pr_solve(instance, solver, None, args.parallelism)
    report = {
        "n": instance.base.operator.shape[1],
        "k": instance.partition.n_blocks,
        "nmse": None,
        "blocking_s": out.stage_times.blocking_s,
        "tuning_s": out.stage_times.tuning_s,
        "merge_s": out.stage_times.merge_s,
        "block_iterations": [r.iterations for r in out.per_block_reports],
        "block_restarts_used": [r.restarts_used for r in out.per_block_reports],
        "block_residuals": [r.final_residual for r in out.per_block_reports],
        "converged_blocks": [r.converged for r in out.per_block_reports],
        "tuning_converged": out.tuning_report.converged,
        "block_stop_reasons": [r.stop_reason for r in out.per_block_reports],
        "block_init_s": [r.init_s for r in out.per_block_reports],
        "block_iter_s": [r.iter_s for r in out.per_block_reports],
        "block_factor_s": [r.factor_s for r in out.per_block_reports],
        "tuning_stop_reason": out.tuning_report.stop_reason,
        "tuning_iterations": out.tuning_report.iterations,
        "tuning_restarts_used": out.tuning_report.restarts_used,
    }
    if x is not None:
        from .forward import nmse

        report["nmse"] = nmse(x, x_hat)
    json.dump(report, sys.stdout, indent=2)
    print()
    if args.output_path:
        bprio.save_bpr1(Path(args.output_path), x_hat)
    return EXIT_OK


def _emit(args, cfg: ExperimentConfig, table) -> int:
    fmt = args.format or "csv"
    if cfg.output_path:
        emit_report(table, fmt, cfg.output_path)
        print(f"wrote {fmt} report to {cfg.output_path}")
    else:
        _write_report(table, fmt, sys.stdout)
    failed = [r for r in table.rows if r.error is not None]
    for r in failed:
        point = f"K={r.k}" if args.command == "sweep-k" else f"N={r.n}"
        print(f"sweep point {point} failed: {r.error}", file=sys.stderr)
    return EXIT_SOLVER if failed else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blockpr", description="Block-based phase retrieval benchmark harness"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # gen solves nothing, so it takes no solver, trials or format flags
    p_gen = sub.add_parser("gen", help="generate an instance in BPR1 format")
    _add_instance_flags(p_gen)
    _add_seed_out_flags(p_gen)

    # the instance directory fixes the problem, so solve takes no experiment flags
    p_solve = sub.add_parser("solve", help="solve a generated instance")
    p_solve.add_argument("instance", help="instance directory written by gen")
    _add_seed_out_flags(p_solve)
    _add_solver_flags(p_solve)

    # a sweep has no flag for what it sweeps, and table1 none for N or auto-K;
    # without abbreviations, as --n would otherwise stand for --n-list
    p_sn = sub.add_parser("sweep-n", help="sweep over signal sizes", allow_abbrev=False)
    p_sn.add_argument("--n-list", required=True, type=_int_list)
    p_sn.add_argument("--compare-monolithic", action="store_true")
    _add_experiment_flags(p_sn, n=False)

    p_sk = sub.add_parser("sweep-k", help="sweep over block counts", allow_abbrev=False)
    p_sk.add_argument("--k-list", required=True, type=_int_list)
    p_sk.add_argument("--compare-monolithic", action="store_true")
    _add_experiment_flags(p_sk, k=False)

    p_t1 = sub.add_parser("table1", help="auto-K speedup table vs monolithic baseline",
                          allow_abbrev=False)
    p_t1.add_argument("--n-list", required=True, type=_int_list)
    p_t1.set_defaults(compare_monolithic=True)
    _add_experiment_flags(p_t1, n=False, k=False)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "solve":
            solver = _solver(args)
            if args.seed is not None:
                solver = dataclasses.replace(solver, seed=args.seed)
            out = args.output_path
        else:
            cfg = build_config(args)
            out = cfg.output_path
            if args.command == "gen":
                if out is None:
                    raise ValueError("gen requires --out DIRECTORY")
                cfg.resolved_k()  # K is checked against n once resolved
            elif args.command == "table1":
                for n in args.n_list:  # every row is checked before any runs
                    dataclasses.replace(cfg, n=n).resolved_k()
        # gen makes its directory; the others write their file after the last solve
        if args.command != "gen" and out and not Path(out).parent.is_dir():
            raise FileNotFoundError(f"--out: no directory {Path(out).parent}")
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
            return _cmd_solve(args, solver)
        points = {name: v for name, v in vars(args).items() if name in ("n_list", "k_list")}
        table = sweep(cfg, **points, compare_monolithic=args.compare_monolithic)
        return _emit(args, cfg, table)
    except (BlockSolveError, Diverged, NonProgress, RankDeficient) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (OSError, bprio.BPR1Error, MalformedInstance) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())

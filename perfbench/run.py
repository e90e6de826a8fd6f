"""Block-PR benchmark: solve time, memory and accuracy of blockpr's pipeline.

Usage (from the repository root):

    python3 perfbench/run.py --workload wf-n2048-p1 --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones (median solve time, NMSE, peak memory,
the monolithic baseline and set-up time); with ``--trace 1`` they are the
per-layer ones, from traced solves (see tracing.py). The line before it
records the machine, the library versions and the BLAS thread settings.
See README.md for the workloads and what each metric should move.
"""

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p, p.parse_args(argv)


def main(argv=None) -> int:
    parser, args = parse_args(argv)
    for var in THREAD_VARS:  # pin the BLAS/OpenMP pools before numpy is first imported
        os.environ[var] = "1"
    if not (SRC / "blockpr" / "__init__.py").is_file():
        print(f"perfbench: no blockpr sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    import blockpr

    if Path(blockpr.__file__).resolve().parent != SRC / "blockpr":
        print(f"perfbench: imported blockpr from {blockpr.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from perfbench.runner import OUT, WORKLOADS, Run, environment

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    OUT.mkdir(exist_ok=True)
    run = Run(WORKLOADS[args.workload], args.seed, bool(args.trace))
    try:
        metrics = run.execute(args.seconds)
    finally:
        shutil.rmtree(run.workdir, ignore_errors=True)
    result = {
        "correct": run.tally.correct,
        "attempted": run.tally.attempted,
        "failed": run.tally.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    env = environment(THREAD_VARS)
    with open(OUT / "results.jsonl", "a") as fh:
        fh.write(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                             "seconds": args.seconds, "env": env, "samples": run.samples,
                             **result}) + "\n")
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

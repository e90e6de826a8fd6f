"""One benchmark run: set-up, warm-up, measured rounds, checks and metrics.

Imported by run.py once the BLAS thread variables are pinned and the
checkout's ``src`` is on ``sys.path``.

A run sets up ``Workload.instances`` instances from ``--seed`` (generate,
write as BPR1, read back), plus the fixed monolithic-baseline problem.
Untimed warm-up solves of the first instances (three with a thread pool)
and of the baseline come first; with tracing off they run under
tracemalloc for the peak-memory metrics. Then whole rounds run until
``--seconds`` have passed, at least MIN_ROUNDS of them (MIN_TRACED_ROUNDS
with tracing on). A round solves every instance once and then the
baseline MONO_PER_ROUND times; with tracing on, each solve is followed by
a traced copy.
Every instance is kept, whatever its solves return: a solve that raises
or fails a check counts in ``failed``. Only round operations count as
attempted, and a round always holds the same operations, so for a given
seed the share that fails is the same however long the run.
"""

from __future__ import annotations

import os
import platform
import shutil
import sys
import time
import tracemalloc
from dataclasses import dataclass, field, replace
from pathlib import Path
from statistics import median

import numpy as np
import scipy
from blockpr import (APParams, BlockPRInstance, ExperimentConfig, PRInstance, SolverSpec,
                     block_pr_solve, block_seed, gen_instance, load_bpr1, mix_seed, save_bpr1,
                     solve_pr)

from perfbench.checks import (CheckFailed, aligned_nmse, check_blockwise_nmse, check_identical,
                              check_solve)
from perfbench.tracing import Tracer, summarize_mono, summarize_solve

OUT = Path(__file__).resolve().parent / "out"

SNR_DB = 30.0
MIN_ROUNDS = 2  # a round holds at least three block solves
MIN_TRACED_ROUNDS = 1  # a traced round runs every operation twice
MONO_PER_ROUND = 2  # the dense baseline's time varies most from solve to solve
MONO_N = 512
MONO_SEED = 0  # the baseline's input does not depend on --seed (see README)
LANE_TRIAL = 2  # blockpr's trial seed lane, as `blockpr sweep-n` uses it

E2E_UNITS = {
    "solve_s": "s", "nmse_median": "1", "solve_peak_mb": "MB",
    "mono_s": "s", "mono_peak_mb": "MB", "setup_s": "s",
}


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    solver: str  # "wf" or "ap"
    parallelism: int
    instances: int  # enough that the NMSE median is steady across seeds


WORKLOADS = {w.name: w for w in (
    Workload("wf-n2048-p1", 2048, "wf", 1, 3),
    Workload("wf-n2048-p2", 2048, "wf", 2, 3),
    Workload("wf-n512-mono", 512, "wf", 1, 9),
    Workload("ap-n1024-p1", 1024, "ap", 1, 10),
)}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name == "io.mb":
        return "MB"
    if name.endswith("_ratio"):
        return "1"
    return "count"


def environment(thread_vars) -> dict:
    """Machine, library versions and BLAS thread settings of this process."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        **{v: os.environ.get(v) for v in thread_vars},
    }


@dataclass
class Prepared:
    """One instance as read back from BPR1, with its ground truth."""

    instance: BlockPRInstance
    x: np.ndarray
    spec: SolverSpec


@dataclass
class Mono:
    """The densified monolithic baseline problem."""

    problem: PRInstance
    x: np.ndarray
    spec: SolverSpec
    col_sizes: tuple


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    correct: bool = True
    notes: set = field(default_factory=set)

    def note(self, msg: str) -> None:
        if msg not in self.notes:
            self.notes.add(msg)
            print(f"perfbench: {msg}", file=sys.stderr)

    def mismatch(self, msg: str) -> None:
        self.correct = False
        self.note(f"incorrect: {msg}")


class Run:
    def __init__(self, wl: Workload, seed: int, trace: bool):
        self.wl, self.seed, self.trace = wl, seed, trace
        if wl.solver == "wf":
            self.spec = SolverSpec("wf_truncated")
        else:
            self.spec = SolverSpec("alt_proj", APParams(init="spectral"))
        self.tally = Tally()
        self.layers: dict[str, list[float]] = {}
        self.workdir = OUT / f"bpr1-{os.getpid()}"
        # warm-ups: one at p1, where the peak memory repeats; with a pool the
        # peak depends on how the workers' temporaries overlap
        self.warm_ups = min(wl.instances, 1 if wl.parallelism == 1 else 3)
        self.reference: dict = {}  # instance index or "mono" -> its first estimate
        self.nmse: list[float] = []
        self.peaks: list[float] = []
        self.samples: dict[str, list[float]] = {
            "solve": [], "mono": [], "traced_solve": [], "traced_mono": []}

    def record(self, name: str, value: float) -> None:
        self.layers.setdefault(name, []).append(value)

    # ---------------------------------------------------------------- set-up
    def prepare_instance(self, index: int) -> tuple[Prepared, float]:
        trial_seed = mix_seed(self.seed, LANE_TRIAL, self.wl.n, index)
        cfg = ExperimentConfig(n=self.wl.n, snr_db=SNR_DB)
        t0 = time.perf_counter()
        inst, x = gen_instance(cfg, trial_seed)
        t1 = time.perf_counter()
        arrays = {
            "h": inst.base.operator,
            "y": inst.base.measurements.astype(np.complex128),
            "a": inst.tuning_matrix,
            "ty": inst.tuning_measurements.astype(np.complex128),
            "x": x,
        }
        for name, arr in arrays.items():
            save_bpr1(self.workdir / f"{name}.bpr1", arr)
        t2 = time.perf_counter()
        back = {name: load_bpr1(self.workdir / f"{name}.bpr1") for name in arrays}
        loaded = BlockPRInstance(
            PRInstance(back["h"], np.real(back["y"]), "intensity", SNR_DB),
            back["a"], np.real(back["ty"]), cfg.beta,
        )
        t3 = time.perf_counter()
        self.record("bench.gen_s", t1 - t0)
        self.record("io.save_s", t2 - t1)
        self.record("io.load_s", t3 - t2)
        self.record("io.mb", sum((self.workdir / f"{n}.bpr1").stat().st_size for n in arrays) / 1e6)
        try:
            check_identical(inst.base.operator.blocks, loaded.base.operator.blocks, "BPR1 blocks")
            check_identical(inst.base.measurements, loaded.base.measurements, "BPR1 measurements")
            check_identical(inst.tuning_matrix, loaded.tuning_matrix, "BPR1 tuning matrix")
            check_identical(inst.tuning_measurements, loaded.tuning_measurements,
                            "BPR1 tuning measurements")
            check_identical(x, back["x"], "BPR1 signal")
        except CheckFailed as exc:
            self.tally.mismatch(str(exc))
        return Prepared(loaded, back["x"], replace(self.spec, seed=trial_seed)), t3 - t0

    def prepare_mono(self) -> tuple[Mono, float]:
        trial_seed = mix_seed(MONO_SEED, LANE_TRIAL, MONO_N, 0)
        t0 = time.perf_counter()
        inst, x = gen_instance(ExperimentConfig(n=MONO_N, snr_db=SNR_DB), trial_seed)
        t1 = time.perf_counter()
        dense = inst.base.operator.to_dense()
        t2 = time.perf_counter()
        dense.setflags(write=False)  # PRInstance keeps it without a copy
        problem = PRInstance(dense, inst.base.measurements, "intensity", SNR_DB)
        self.record("bench.mono_gen_s", t1 - t0)
        self.record("core.to_dense_s", t2 - t1)
        spec = SolverSpec("wf_truncated", seed=block_seed(trial_seed, 0))
        return Mono(problem, x, spec, inst.partition.col_sizes), t2 - t0

    def setup(self) -> tuple[list[Prepared], Mono, list[float]]:
        """Set up every instance; each set-up also rebuilds the baseline.

        The rebuilt baseline problem must come out bit for bit the same
        each time.
        """
        self.workdir.mkdir(parents=True, exist_ok=True)
        prepared, mono, setup_s = [], None, []
        for index in range(self.wl.instances):
            p, inst_s = self.prepare_instance(index)
            m, mono_s = self.prepare_mono()
            prepared.append(p)
            setup_s.append(inst_s + mono_s)
            if mono is None:
                mono = m
            else:
                try:
                    check_identical(mono.problem.operator, m.problem.operator,
                                    "repeated baseline set-up")
                except CheckFailed as exc:
                    self.tally.mismatch(str(exc))
        shutil.rmtree(self.workdir, ignore_errors=True)
        return prepared, mono, setup_s

    def warm_up(self, what: str, fn):
        """Untimed, uncounted ``fn()``: (its result or None if it raised, peak MB).

        The peak is measured with tracemalloc when tracing is off, whether
        or not ``fn`` raises; a raise is counted when the rounds repeat it.
        """
        if not self.trace:
            tracemalloc.start()
            base = tracemalloc.get_traced_memory()[0]
        try:
            result = fn()
        except Exception as exc:  # noqa: BLE001 - the counted solves report it
            result = None
            self.tally.note(f"warm-up {what} raised {type(exc).__name__}: {exc}")
        if self.trace:
            return result, None
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        return result, (peak - base) / 1e6

    # ---------------------------------------------------------------- operations
    def attempt(self, what: str, fn) -> tuple[float, object]:
        """One counted operation: (wall seconds, its result or None if it raised)."""
        self.tally.attempted += 1
        t0 = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:  # noqa: BLE001 - counted as a failed operation
            result = None
            self.tally.failed += 1
            self.tally.note(f"{what} raised {type(exc).__name__}: {exc}")
        return time.perf_counter() - t0, result

    def same_as_before(self, key, x_hat, what: str) -> None:
        if key not in self.reference:
            self.reference[key] = x_hat
            return
        try:
            check_identical(self.reference[key], x_hat, what)
        except CheckFailed as exc:
            self.tally.mismatch(str(exc))

    def judge_block(self, p: Prepared, index: int, result) -> None:
        """Check one counted block solve; a solve that raised reads NMSE 1."""
        if result is None:
            self.nmse.append(1.0)  # the NMSE of the zero estimate
            return
        x_hat, out = result
        self.nmse.append(aligned_nmse(p.x, x_hat))
        self.same_as_before(index, x_hat, f"instance {index} estimate and its first estimate")
        try:
            check_solve(p.instance, p.x, x_hat, out, SNR_DB)
        except CheckFailed as exc:
            self.tally.failed += 1
            self.tally.note(f"{self.wl.name} instance {index} (trial seed {p.spec.seed}): {exc}")

    def judge_mono(self, m: Mono, result) -> None:
        if result is None:
            return
        z, _ = result
        self.same_as_before("mono", z, "baseline estimate and its first estimate")
        try:
            check_blockwise_nmse(m.x, z, m.col_sizes, SNR_DB)
        except CheckFailed as exc:
            self.tally.failed += 1
            self.tally.note(f"monolithic baseline: {exc}")

    # ---------------------------------------------------------------- the run
    def execute(self, seconds: float) -> dict:
        prepared, mono, setup_s = self.setup()
        par = self.wl.parallelism
        for i, p in enumerate(prepared[:self.warm_ups]):
            result, peak = self.warm_up(f"solve of instance {i}",
                                        lambda: block_pr_solve(p.instance, p.spec, None, par))
            if peak is not None:
                self.peaks.append(peak)
            if result is not None:
                self.same_as_before(i, result[0], f"instance {i} estimate and its warm-up estimate")
        result, mono_peak = self.warm_up("baseline solve", lambda: solve_pr(mono.problem, mono.spec))
        if result is not None:
            self.same_as_before("mono", result[0], "baseline estimate and its warm-up estimate")
        tracer = Tracer()

        def counted(name: str, fn, judge, summarize) -> None:
            """One operation, then (tracing on) its traced copy."""
            elapsed, result = self.attempt(name, fn)
            self.samples[name].append(elapsed)
            judge(result)
            if not self.trace:
                return
            with tracer.installed(), tracer.span(name) as root:
                elapsed, result = self.attempt(f"traced {name}", fn)
            self.samples[f"traced_{name}"].append(elapsed)
            judge(result)
            if result is not None:
                for layer, v in summarize(tracer.spans, root).items():
                    self.record(layer, v)

        start = time.perf_counter()
        rounds = 0
        min_rounds = MIN_TRACED_ROUNDS if self.trace else MIN_ROUNDS
        while rounds < min_rounds or time.perf_counter() - start < seconds:
            for i, p in enumerate(prepared):
                counted("solve", lambda: block_pr_solve(p.instance, p.spec, None, par),
                        lambda res: self.judge_block(p, i, res), summarize_solve)
            for _ in range(MONO_PER_ROUND):
                counted("mono", lambda: solve_pr(mono.problem, mono.spec),
                        lambda res: self.judge_mono(mono, res), summarize_mono)
            rounds += 1

        if par != 1 and 0 in self.reference:  # untimed, uncounted
            p = prepared[0]
            try:
                x_hat, _ = block_pr_solve(p.instance, p.spec, None, 1)
            except Exception as exc:  # noqa: BLE001 - the same solve returned at par
                self.tally.mismatch(f"instance 0 solves at parallelism={par} but at 1 raised "
                                    f"{type(exc).__name__}: {exc}")
            else:
                self.same_as_before(0, x_hat, f"parallelism={par} and parallelism=1 estimates")

        times = self.samples
        if self.trace:
            tracer.write(OUT / f"trace-{self.wl.name}-seed{self.seed}.jsonl")
            self.record("trace.overhead_s", median(times["traced_solve"]) - median(times["solve"]))
            return {name: (median(vals), layer_unit(name))
                    for name, vals in sorted(self.layers.items())}
        metrics = {
            "solve_s": median(times["solve"]),
            "nmse_median": median(self.nmse),
            "solve_peak_mb": max(self.peaks),
            "mono_s": median(times["mono"]),
            "mono_peak_mb": mono_peak,
            "setup_s": median(setup_s),
        }
        return {name: (v, E2E_UNITS[name]) for name, v in metrics.items()}

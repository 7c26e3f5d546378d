#!/usr/bin/env python3
"""Benchmark of sobstab: closed-loop workloads, checked answers, end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload scan-wide --seed 1 --seconds 30 --trace 0

Workloads (one client, one operation at a time):

    scan-wide  in-process `deficit-scan` at K=64, 94 members per operation
    scan-deep  in-process `deficit-scan` at K=384 (M=770), 26 members
    cold-cli   one fresh `python -m sobstab.cli` process per operation

`--trace 0` prints every end-to-end metric of BENCHMARK.json;
`--trace 1` alternates untraced and traced cycles, prints the per-layer
table and the per_layer metrics of BENCHMARK.json, and writes the spans
to .bench_out/.  Every operation's exit code and output are checked
(check.py); a wrong answer is a failed operation, however fast.  The
last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

Machine speed.  On a shared host the CPU runs in speed regimes that
differ by up to 1.7x and last from seconds to minutes, each CPU on its
own.  So a fixed reference kernel shaped like the workload's hot loop
(about 3 ms) runs between operations in a calibration child of its own
(calibrate.py), started before the program is imported: on the CPU the
measuring thread last ran on for in-process operations, on every CPU
for child processes.  Each time is reported at the reference speed:
multiplied by ref_ms / (median kernel time in a window of kernel runs
around it), with ref_ms and the window fixed in spec.json.  That holds for per-layer times
too.  The raw end-to-end values are printed on a line of their own
(`raw {...}`) before the result.

The program is imported from ./src only; without it the run exits 2.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

from calibrate import Calibration  # noqa: E402
from check import check, load_refs, ref_for  # noqa: E402
from workloads import IN_PROCESS, WORKLOADS, cycles, warmup_ops  # noqa: E402


def load_json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


SPEC = load_json(BENCH / "spec.json")
# The workloads leave scan threading and OpenBLAS at their defaults.
UNSET = ("SOBOLEV_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CHILD_TIMEOUT_S = 120


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in UNSET}
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)


def children_cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


# --- environment record ---


def _openblas() -> dict:
    """Version and thread count of the OpenBLAS that numpy loaded."""
    import ctypes
    import glob

    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            try:
                config = getattr(lib, f"{prefix}_get_config{suffix}")
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}")
            except AttributeError:
                continue
            config.restype = ctypes.c_char_p
            threads.restype = ctypes.c_int
            return {"config": config().decode(), "threads": threads()}
    return {"config": "unknown", "threads": None}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(workload: str, seed: int, removed: list[str]) -> dict:
    from importlib.metadata import version

    blas = _openblas()
    return {
        "workload": workload,
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "openblas": blas["config"],
        "openblas_threads": blas["threads"],
        "SOBOLEV_THREADS": "unset",
        "removed_from_env": removed,
        "calibration": "calibrate.py child, OpenBLAS and OpenMP held to 1 thread there only",
        "git_commit": _git_commit(),
    }


# --- measurement ---


@dataclass(frozen=True)
class Sample:
    """One timed operation."""

    traced: bool
    cycle: int
    op_id: int
    kind: str
    wall: float  # seconds
    cpu: float  # seconds of user + system CPU
    work: int
    scale: float  # to the reference machine speed


class Results:
    """Timed samples and check outcomes of one run."""

    def __init__(self, workload: str, calibration: Calibration):
        self.refs, self.tol = load_refs(workload), SPEC["tolerances"]
        self.calibration = calibration
        self.samples: list[Sample] = []
        self.setup: list[tuple[float, float]] = []  # (seconds, scale)
        self.kernel: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, op, rc, text, error) -> None:
        """Check one operation's answer; a wrong one counts as failed."""
        self.attempted += 1
        problems = [error] if error else check(op, rc, text, ref_for(self.refs, op), self.tol)
        if problems:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append(f"{' '.join(op.argv)}: {'; '.join(problems[:3])}")

    def timed(self, traced: bool) -> list[Sample]:
        return [s for s in self.samples if s.traced == traced]

    def state(self) -> dict:
        """What merge() takes, as JSON-ready values."""
        return {"samples": [list(vars(s).values()) for s in self.samples], "setup": self.setup,
                "kernel": self.kernel, "attempted": self.attempted, "failed": self.failed,
                "problems": self.problems}

    def merge(self, state: dict) -> None:
        """Add the samples and outcomes of another process's Results.state()."""
        self.samples += [Sample(*fields) for fields in state["samples"]]
        self.setup += [tuple(x) for x in state["setup"]]
        self.kernel += state["kernel"]
        self.attempted += state["attempted"]
        self.failed += state["failed"]
        self.problems += state["problems"][:5 - len(self.problems)]


def measure(workload: str, seed: int, seconds: float, trace: bool, run_op, results: Results,
            first_cycle: int = 0, first_op: int = 0) -> tuple[int, int]:
    """Issue whole cycles until `seconds` is spent; in trace mode every other cycle is traced.

    The stream starts at cycle `first_cycle`, the operation ids after
    `first_op`; returns the next cycle and the last operation id.
    """
    start = time.perf_counter()
    op_id = first_op
    cal = results.calibration
    kernel = [cal.kernel_s()]  # operation i runs between kernel[i] and kernel[i + 1]
    timed = []
    for n, cycle in itertools.islice(enumerate(cycles(workload, seed)), first_cycle, None):
        traced = trace and n % 2 == 1
        for op in cycle:
            op_id += 1
            wall, cpu, rc, text, error = run_op(op, traced, op_id)
            kernel.append(cal.kernel_s())
            results.record(op, rc, text, error)
            kind = f"{op.kind}/{op.N},{op.s}" if op.kind in IN_PROCESS else op.kind
            timed.append((traced, n, op_id, kind, wall, cpu, op.work))
        elapsed, done = time.perf_counter() - start, n + 1 - first_cycle
        # A traced run needs one untraced and one traced cycle at least.
        if elapsed + elapsed / done > seconds and done > int(trace):
            break
    results.samples += [Sample(*fields, scale)
                        for fields, scale in zip(timed, window_scales(cal, kernel))]
    results.kernel.extend(kernel)
    return n + 1, op_id


def window_scales(cal: Calibration, kernel: list[float]) -> list[float]:
    """Scale of each timing i, made between the kernel runs kernel[i] and kernel[i + 1].

    A single 3 ms kernel time jitters more than the speed regimes it
    tracks, so each timing is scaled by the median of the kernel times in
    a window around it.
    """
    half = SPEC["calibration"]["half_window"]
    return [cal.scale(kernel[max(0, i - half):i + 2 + half]) for i in range(len(kernel) - 1)]


def in_process(workload, seed, seconds, trace, tmp, results, tracer):
    """scan-wide / scan-deep: sobstab.cli.main inside scan workers, one after another.

    Each worker is a fresh process that sets up (one set-up sample) and
    then measures its share of `seconds`, continuing the workload's
    stream where the previous worker stopped.  A process keeps a speed
    of its own for its whole life: on a 2-core Xeon, six processes
    running the same scan-deep operation had medians from 264 to 290 ms,
    while the two halves of each agreed within 2 %.  So a run spreads
    over several of them.
    """
    imports = [import_child(results.calibration) for _ in range(3)] if trace else []
    workers = SPEC["scan_workers"]
    rss_mb, next_cycle, next_op = 0.0, 0, 0
    for k in range(workers):
        out = tmp / f"worker{k}.json"
        argv = [sys.executable, str(BENCH / "child.py"), "scan", workload, str(seed), str(next_cycle),
                str(next_op), repr(seconds / workers), str(int(trace)), str(out)]
        proc = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=seconds / workers + CHILD_TIMEOUT_S)
        if proc.returncode != 0 or not out.is_file():
            raise RuntimeError(f"scan worker exited with code {proc.returncode}:\n{proc.stderr[-2000:]}")
        doc = load_json(out)
        results.merge(doc["results"])
        tracer.load(doc["trace"])
        rss_mb = max(rss_mb, doc["rss_mb"])
        next_cycle, next_op = doc["next_cycle"], doc["next_op"]
    return rss_mb, imports


def scan_worker(workload, seed, first_cycle, first_op, seconds, trace, out: Path) -> None:
    """Body of one scan worker (child.py scan): set up, measure, write the outcome to `out`.

    The set-up sample is the import of sobstab.cli plus one warm-up scan
    per (N, s) pair, which fills the rule, basis and lambda caches; the
    warm-up answers are checked as well, after the clock stops.
    """
    from spans import Tracer

    tracer = Tracer()
    with Calibration(SPEC["calibration"][workload]) as cal:  # before the program is imported
        results = Results(workload, cal)
        # Three kernel runs on each side: a single one can be a spike.
        before = [cal.kernel_s(each_cpu=True) for _ in range(3)]
        t0 = time.perf_counter()
        sys.path.insert(0, str(SRC))
        import sobstab.cli as cli

        run_op = inprocess_runner(cli, out.with_suffix(".op"), tracer)
        warm = [(op, run_op(op, False, 0)[2:]) for op in warmup_ops(workload)]
        setup = time.perf_counter() - t0
        after = [cal.kernel_s(each_cpu=True) for _ in range(3)]
        results.setup.append((setup, cal.scale(before + after)))
        import sobstab

        if Path(sobstab.__file__).resolve().parent != SRC / "sobstab":
            raise RuntimeError(f"sobstab imported from {sobstab.__file__}, not {SRC}")
        for op, answer in warm:
            results.record(op, *answer)
        next_cycle, next_op = measure(workload, seed, seconds, trace, run_op, results,
                                      first_cycle, first_op)
    doc = {"results": results.state(), "trace": tracer.state(), "next_cycle": next_cycle,
           "next_op": next_op, "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    out.write_text(json.dumps(doc))


def inprocess_runner(cli, out: Path, tracer):
    """run_op for measure(): one sobstab.cli.main call writing to `out`."""

    def run_op(op, traced, op_id):
        tracer.op = op_id
        if traced:
            tracer.install()
        error = None
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            rc = cli.main([*op.argv, "--out", str(out)])
        except Exception as exc:  # a crash is a failed operation, not a failed benchmark
            rc, error = None, f"raised {type(exc).__name__}: {exc}"
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        if traced:
            tracer.uninstall()
        text = out.read_text() if out.exists() else ""
        out.unlink(missing_ok=True)
        return wall, cpu, rc, text, error

    return run_op


def cold(workload, seed, seconds, trace, tmp, results, tracer):
    """cold-cli: one `python -m sobstab.cli` child per operation."""
    from spans import import_split

    def import_only() -> float:
        t0 = time.perf_counter()
        proc = run_child([sys.executable, "-c", "import sobstab.cli"])
        if proc.returncode != 0:
            raise RuntimeError(f"import child failed: {proc.stderr.strip()[-300:]}")
        return time.perf_counter() - t0

    if not trace:
        cal = results.calibration
        kernel, durations = [cal.kernel_s(each_cpu=True)], []
        for _ in range(SPEC["setup_repeats"][workload]):
            durations.append(import_only())
            kernel.append(cal.kernel_s(each_cpu=True))
        results.setup += list(zip(durations, window_scales(cal, kernel)))
    imports = {}  # op_id -> raw import split of a traced child
    span_file = tmp / "spans.json"

    def run_op(op, traced, op_id):
        if traced:
            argv = [sys.executable, "-X", "importtime", str(BENCH / "child.py"), "cli",
                    str(span_file), *op.argv]
        else:
            argv = [sys.executable, "-m", "sobstab.cli", *op.argv]
        c0, t0 = children_cpu_s(), time.perf_counter()
        try:
            proc = run_child(argv)
        except subprocess.TimeoutExpired:
            return time.perf_counter() - t0, 0.0, None, "", f"timed out after {CHILD_TIMEOUT_S} s"
        wall, cpu = time.perf_counter() - t0, children_cpu_s() - c0
        if traced:
            imports[op_id] = import_split(proc.stderr)
            if span_file.exists():
                tracer.load(span_file, op_id)
                span_file.unlink()
        return wall, cpu, proc.returncode, proc.stdout, None

    measure(workload, seed, seconds, trace, run_op, results)
    rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    scale = {s.op_id: s.scale for s in results.samples}
    return rss_mb, [{k: ms * scale[op] for k, ms in split.items()} for op, split in imports.items()]


def import_child(cal: Calibration) -> dict:
    """import.*_ms of one `python -X importtime -c "import sobstab.cli"`, at the reference speed."""
    from spans import import_split

    before = cal.kernel_s(each_cpu=True)
    proc = run_child([sys.executable, "-X", "importtime", "-c", "import sobstab.cli"])
    scale = cal.scale([before, cal.kernel_s(each_cpu=True)])
    return {k: ms * scale for k, ms in import_split(proc.stderr).items()}


# --- metrics ---


def percentile(values: list[float], pct: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def cycle_median_ms(samples: list[Sample], scaled: bool) -> float:
    """Median over cycles of the cycle's mean operation time.

    Every cycle issues the same mix once, so this median is not pulled
    between the clusters of the mix's cheap and dear operation kinds, as
    the median of single operations is.
    """
    by_cycle = {}
    for s in samples:
        by_cycle.setdefault(s.cycle, []).append(s.wall * (s.scale if scaled else 1.0))
    return statistics.median(sum(v) / len(v) for v in by_cycle.values()) * 1e3


def end_to_end(workload: str, results: Results, rss_mb: float, scaled: bool) -> dict:
    samples = results.timed(False)
    f = (lambda s: s.scale) if scaled else (lambda s: 1.0)
    walls = [s.wall * f(s) for s in samples]
    return {
        "op_p50_ms": cycle_median_ms(samples, scaled),
        "op_tail_ms": percentile(walls, SPEC["tail_percentile"][workload]) * 1e3,
        "work_per_s": sum(s.work for s in samples) / sum(walls),
        "setup_s": statistics.median(t * (k if scaled else 1.0) for t, k in results.setup),
        "cpu_ms_per_op": sum(s.cpu * f(s) for s in samples) / len(samples) * 1e3,
        "peak_rss_mb": rss_mb,
    }


def per_layer(results: Results, tracer, imports: list[dict]) -> dict:
    """Per-operation layer metrics of the traced cycles, times at the reference speed."""
    from spans import layer_stats, median_split, root_busy_ms

    traced = results.timed(True)
    stats = layer_stats(tracer, {s.op_id: s.scale for s in traced})
    stats.update(median_split(imports))
    members = stats.get("deficit.members", 0.0)
    stats["deficit.golden.evals_per_member"] = (
        stats.get("deficit.golden.evals", 0.0) / members if members else 0.0)
    stats["trace.op_p50_ms"] = cycle_median_ms(traced, scaled=True)
    stats["trace.overhead_ms"] = stats["trace.op_p50_ms"] - cycle_median_ms(results.timed(False), True)
    covered = root_busy_ms(tracer)
    stats["trace.span_coverage"] = 100.0 * statistics.median(
        covered.get(s.op_id, 0.0) / (s.wall * 1e3) for s in traced)
    return stats


def layer_table(stats: dict) -> list[str]:
    """Rows: span, calls, self_ms, busy_ms and self share of the traced op_p50_ms, per operation."""
    p50 = stats["trace.op_p50_ms"]
    names = sorted({k.rsplit(".", 1)[0] for k in stats if k.endswith(".self_ms")},
                   key=lambda n: -stats[f"{n}.self_ms"])
    rows = [f"{'span':34s} {'calls/op':>10s} {'self_ms':>10s} {'busy_ms':>10s} {'self/p50':>9s}"]
    for n in names:
        rows.append(f"{n:34s} {stats[f'{n}.calls']:10.2f} {stats[f'{n}.self_ms']:10.3f} "
                    f"{stats[f'{n}.busy_ms']:10.3f} {100 * stats[f'{n}.self_ms'] / p50:8.1f}%")
    rows.append("counts and others per op: " + ", ".join(
        f"{k} {v:.6g}" for k, v in sorted(stats.items())
        if not k.endswith((".calls", ".self_ms", ".busy_ms"))))
    return rows


# --- entry point ---


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "sobstab" / "cli.py").is_file():
        print(f"error: program source {SRC / 'sobstab'} not found; run from a sobstab checkout",
              file=sys.stderr)
        return 2
    manifest = load_json(ROOT / "BENCHMARK.json")
    removed = [k for k in UNSET if os.environ.pop(k, None) is not None]

    from spans import Tracer

    tmp = ROOT / ".bench_tmp" / f"{args.workload}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    tracer = Tracer()
    # The calibration child starts before this process imports the program.
    calibration = Calibration(SPEC["calibration"][args.workload])
    results = Results(args.workload, calibration)
    try:
        # Compile the program's bytecode before anything is timed.
        compiled = run_child([sys.executable, "-c", "import sobstab.cli"])
        if compiled.returncode != 0:
            print(f"error: cannot import sobstab.cli:\n{compiled.stderr}", file=sys.stderr)
            return 2
        body = in_process if args.workload in IN_PROCESS else cold
        rss_mb, imports = body(args.workload, args.seed, args.seconds, bool(args.trace),
                               tmp, results, tracer)
    finally:
        calibration.close()
        shutil.rmtree(tmp, ignore_errors=True)

    print("env " + json.dumps(environment(args.workload, args.seed, removed)))
    n = len(results.timed(False))
    pct = SPEC["tail_percentile"][args.workload]
    print(f"{args.workload} seed {args.seed}: {results.attempted} operations checked, "
          f"{results.failed} failed (fail_frac {results.failed / max(results.attempted, 1):.4g}); "
          f"{n} timed untraced operations, op_tail_ms = p{pct} with "
          f"{n - 1 - int((n - 1) * pct / 100)} beyond")
    kernel_ms = statistics.median(results.kernel) * 1e3
    print(f"reference kernel: median {kernel_ms:.4g} ms, "
          f"reference {SPEC['calibration'][args.workload]['ref_ms']} ms")
    for problem in results.problems:
        print(f"FAILED {problem}")

    if args.trace:
        values = per_layer(results, tracer, imports)
        for row in layer_table(values):
            print(row)
        print(f"traced {len(results.timed(True))} ops, untraced {n}; tracing overhead "
              f"{values['trace.overhead_ms']:.3f} ms on op_p50_ms")
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.dump(out_dir / f"spans-{args.workload}-seed{args.seed}.json")
        wanted = manifest["per_layer"]
    else:
        values = end_to_end(args.workload, results, rss_mb, scaled=True)
        raw = end_to_end(args.workload, results, rss_mb, scaled=False)
        print(f"{'metric':16s} {'at ref speed':>14s} {'raw':>14s}")
        for m in manifest["end_to_end"]:
            print(f"{m['name']:16s} {values[m['name']]:14.6g} {raw[m['name']]:14.6g} {m['unit']}")
        print("raw " + json.dumps(raw))
        wanted = manifest["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": results.failed == 0, "attempted": results.attempted,
                      "failed": results.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

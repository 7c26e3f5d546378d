#!/usr/bin/env python3
"""Compare two source trees byte for byte on every benchmark operation.

Run from anywhere:

    python3 tools/same_bytes.py SRC_A SRC_B

SRC_A and SRC_B are checkouts of this repository; each is imported from
its `src` directory.  For each tree one child process runs every
operation of `bench/workloads.py` `all_ops`, for all three workloads,
in-process through `sobstab.cli.main`, and records its exit code, stdout
and stderr.  The operations come from this checkout's `bench/`, which
the tool only reads.  Every operation whose exit code, stdout or stderr
differ between the trees is printed, and the exit status is 1 if any
differ.  The `--help` text of the top level and of each subcommand the
operations run is compared the same way, and counted apart; so is a
fixed list (`ERROR_ARGVS`) of refusals, usage errors, a scan that skips
on-manifold members and small scans whose stacked member arrays have
shapes no benchmark scan builds (no mode rows, random members up to
degree K, no near-manifold family), whose records print a number in
each notation the record writer tells apart, of one member, or of one
member whose `+t0` and `-t0` brackets tie, or on a rule of odd size (its
middle node is `t = 0`), and so are the `constants` text and
CSV formats at the benchmark's (N, s) pairs (`FORMAT_ARGVS`; the
operations print JSON): paths that no benchmark operation takes.  Last, since the
in-process runs bypass the modules' `__main__` blocks, `python -m
sobstab.cli` and `python -m sobstab` each run every command of
`ENTRY_ARGVS` as a child process in the tree's `src`: one that loads
numpy and one that loads neither numpy nor the scan modules (`constants
--format csv`).  They are compared and counted the same way.

Each tree's operations are also checked against the committed reference
values, with `bench/check.py` and the `bench/refs/` values at the
`bench/spec.json` tolerances, as the benchmark checks them: a change that
moves last digits must keep every reference.  Each failure is printed by
thread count, tree, operation and field, with a count per tree, and
any failure makes the exit status 1 as well.  For information only, and
without changing the exit status, each tree's worst `|d - eps| / eps`
over its `local:` members is printed by workload, (N, s) and eps: such a
member is `1 + eps v` with `v` orthogonal to the manifold's tangent space
at the constant 1 and `||v||_* = 1`, so its exact distance is eps.

Every operation is compared at two BLAS thread counts, since the last
digits of large products (and LAPACK's divide-and-conquer merges) may
depend on it: at one thread (`OPENBLAS_NUM_THREADS=1`, what the CLI
sets) and at the library default (the BLAS thread variables unset,
which OpenBLAS reads as one thread per CPU).  A count is printed for
each.  The children otherwise inherit the environment and write no
bytecode, so the trees are left as they were.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))
from check import check, load_refs, ref_for  # noqa: E402
from workloads import PAIRS, WORKLOADS, all_ops  # noqa: E402

# The variables OpenBLAS reads its thread count from; unset, it uses one thread per CPU.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
THREADS = {"1 BLAS thread": {"OPENBLAS_NUM_THREADS": "1"}, "default BLAS threads": {}}

_NS = ["--N", "3", "--s", "2"]
_SMALL_SCAN = ["alpha-estimate", *_NS, "--seed", "1", "--n-random", "0"]
ERROR_ARGVS = [
    ["verify-theorem2", *_NS, "--K", "-1"],
    ["verify-theorem2", *_NS, "--cells", "0"],
    ["export-function", *_NS, "--profile", "gaussian", "--K", "-1"],
    ["export-function", *_NS, "--profile", "gaussian", "--K", "-1", "--M", "8"],
    # too few nodes for the degree: refused where the rule builds its basis
    ["export-function", *_NS, "--profile", "gaussian", "--K", "64", "--M", "30"],
    ["export-function", *_NS, "--profile", "gaussian", "--K", "64", "--M", "64"],
    # a profile that is 0.0 at every node, and an extremizer scale whose dilation overflows
    ["verify-theorem2", *_NS, "--profiles", "bump:0.001,1"],
    ["export-function", *_NS, "--K", "16", "--profile", "gaussian:1e300"],
    ["export-function", *_NS, "--K", "16", "--profile", "extremizer:1e200"],
    # a subnormal extremizer scale whose dilation is a normal double
    ["export-function", "--N", "8", "--s", "3.3", "--K", "4", "--profile", "extremizer:1e-320"],
    # a pullback whose |u|^6 underflows at every node: lhs near 1.86e-262, and 0.0 (refused)
    ["verify-theorem2", *_NS, "--profiles", "bump:0.62,300"],
    ["verify-theorem2", *_NS, "--profiles", "bump:0.62,500"],
    # every member's deficit rounds to zero: alpha_hat <= 0 is refused
    [*_SMALL_SCAN, "--eps", "1e-7", "--n-normal", "5", "--bubbles", "0.5"],
    # every member lies on the manifold
    [*_SMALL_SCAN, "--eps", "1e-12", "--n-normal", "1", "--bubbles", ""],
    # half the members lie on the manifold and are skipped (exit 0, n_skipped 4)
    [*_SMALL_SCAN, "--eps", "1e-12,0.1", "--n-normal", "1", "--bubbles", ""],
    # one member's ||u||_*^2 is past the doubles: refused by its label
    ["deficit-scan", *_NS, "--seed", "1", "--eps", "1e300,0.1", "--n-normal", "0",
     "--n-random", "0", "--bubbles", "", "--modes", "2"],
    # random members of degree 0 are constants, on the manifold: refused
    ["deficit-scan", "--N", "8", "--s", "3.3", "--seed", "4", "--max-degree", "0",
     "--n-random", "3", "--n-normal", "0", "--modes", "", "--bubbles", "0.5"],
    # stacked member arrays without mode rows, up to degree K, and without local members
    ["deficit-scan", *_NS, "--seed", "1", "--K", "8", "--modes", "", "--n-normal", "2",
     "--n-random", "1", "--bubbles", "0.5"],
    ["deficit-scan", *_NS, "--seed", "1", "--K", "8", "--max-degree", "20", "--n-normal", "2",
     "--n-random", "2"],
    ["deficit-scan", *_NS, "--seed", "1", "--K", "8", "--eps", "", "--n-random", "2",
     "--bubbles", "0.5"],
    # records in each notation the record writer tells apart: 100000000000000.0 and
    # 78861017137800.0 ('%.12g' writes 1e+14), 1.0 (an integral text), 5.70994266162e-05
    ["deficit-scan", *_NS, "--seed", "1", "--K", "8", "--eps", "1e7,1e-2", "--n-normal", "1",
     "--n-random", "0", "--bubbles", "0.5", "--modes", "2"],
    # a scan of one member, and a lone even member whose +t0 and -t0 brackets
    # tie (the first bracket in order wins)
    ["deficit-scan", *_NS, "--seed", "1", "--K", "8", "--eps", "", "--n-normal", "0",
     "--n-random", "1", "--bubbles", ""],
    ["deficit-scan", "--N", "5", "--s", "0.5", "--seed", "1", "--K", "8", "--eps", "",
     "--n-normal", "0", "--n-random", "0", "--bubbles", "0.8"],
    # a rule of odd size, whose middle node is exactly t = 0
    ["deficit-scan", *_NS, "--seed", "1", "--K", "8", "--M", "19", "--n-normal", "1",
     "--n-random", "2", "--bubbles", "0.5"],
    # a local:e2 ratio at or above local_constant breaks the strict gap
    ["deficit-scan", "--N", "8", "--s", "3.3", "--seed", "1", "--K", "384", "--eps", "1e-4",
     "--n-normal", "0", "--n-random", "0", "--bubbles", ""],
    # the --seed note, the scan flags' parsing and the missing-seed error
    ["constants", *_NS, "--seed", "5"],
    ["deficit-scan", *_NS, "--seed", "1", "--eps", "abc"],
    ["deficit-scan", *_NS, "--seed", "1", "--modes", "2.5"],
    ["alpha-estimate", *_NS, "--seed", "1", "--K", "x"],
    ["alpha-estimate", *_NS],
]
ENTRY_ARGVS = [["export-function", "--N", "2", "--s", "1", "--K", "2", "--profile", "gaussian"],
               ["constants", "--N", "3", "--s", "2", "--format", "csv"]]
ENTRY_MODULES = ("sobstab.cli", "sobstab")
FORMAT_ARGVS = [["constants", "--N", str(N), "--s", s, "--format", fmt]
                for N, s in PAIRS for fmt in ("text", "csv")]

# Reads a JSON list of argv from stdin; writes [exit code, stdout, stderr] per argv.
CHILD = """\
import contextlib, io, json, sys
from pathlib import Path
src = Path(sys.argv[1]).resolve()
sys.path.insert(0, str(src))
import sobstab.cli
if Path(sobstab.cli.__file__).resolve().parent != src / "sobstab":
    raise SystemExit(f"sobstab imported from {sobstab.cli.__file__}, not {src}")
results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = sobstab.cli.main(argv)
        except Exception as exc:
            code = f"raised {type(exc).__name__}: {exc}"
    results.append([code, out.getvalue(), err.getvalue()])
json.dump(results, sys.stdout)
"""


def child_env(threads: dict) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", *BLAS_THREAD_VARS)}
    env.update(threads, PYTHONDONTWRITEBYTECODE="1")
    return env


def start(tree: Path, argvs: list[list[str]], threads: dict) -> subprocess.Popen:
    src = tree / "src"
    if not (src / "sobstab").is_dir():
        raise SystemExit(f"{tree} has no src/sobstab")
    proc = subprocess.Popen([sys.executable, "-c", CHILD, str(src)], stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, text=True, env=child_env(threads))
    proc.stdin.write(json.dumps(argvs))
    proc.stdin.close()
    return proc


def finish(proc: subprocess.Popen, tree: Path) -> list:
    text = proc.stdout.read()
    if proc.wait() != 0:
        raise SystemExit(f"the child for {tree} exited with code {proc.returncode}")
    return json.loads(text)


def entry_points(tree: Path, threads: dict) -> list:
    """[exit code, stdout, stderr] of `python -m MODULE ARGV` per ENTRY_MODULES and ENTRY_ARGVS.

    Run in the tree's `src`, which `-m` puts first on the module path.
    """
    procs = [subprocess.run([sys.executable, "-m", module, *argv], cwd=tree / "src",
                            capture_output=True, text=True, env=child_env(threads))
             for module in ENTRY_MODULES for argv in ENTRY_ARGVS]
    return [[proc.returncode, proc.stdout, proc.stderr] for proc in procs]


def local_deviations(ops, results) -> dict:
    """{workload: {(N, s): {eps: worst |d - eps| / eps}}} over the local members printed."""
    worst = {}
    for (workload, op), (_, out, _) in zip(ops, results):
        if op.kind != workload:  # cold-cli prints no member records
            continue
        by_eps = worst.setdefault(workload, {}).setdefault((op.N, op.s), {})
        for line in out.splitlines():
            record = json.loads(line)
            if record.get("family") == "local" and not record["skipped"]:
                eps = float(record["label"].rsplit("eps=", 1)[1])
                by_eps[eps] = max(by_eps.get(eps, 0.0), abs(record["distance"] - eps) / eps)
    return worst


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("src_a", type=Path)
    parser.add_argument("src_b", type=Path)
    args = parser.parse_args(argv)

    ops = [(workload, op) for workload in WORKLOADS for op in all_ops(workload)]
    argvs = [list(op.argv) for _, op in ops]
    helps = [["--help"], *([command, "--help"] for command in dict.fromkeys(a[0] for a in argvs))]
    groups = {"help texts": helps, "error paths": ERROR_ARGVS, "constants formats": FORMAT_ARGVS}
    runs = argvs + [argv for group in groups.values() for argv in group]
    # the entry points run apart from the child, after its runs
    groups["entry points"] = [["-m", module, *argv]
                              for module in ENTRY_MODULES for argv in ENTRY_ARGVS]
    names = ([f"{workload} {op.kind} {op.key}" for workload, op in ops]
             + [group for group, group_argvs in groups.items() for _ in group_argvs])
    refs = {workload: load_refs(workload) for workload in WORKLOADS}
    tol = json.loads((BENCH / "spec.json").read_text())["tolerances"]
    counts = []
    for label, threads in THREADS.items():
        children = [(start(tree, runs, threads), tree) for tree in (args.src_a, args.src_b)]
        a, b = (finish(proc, tree) + entry_points(tree, threads) for proc, tree in children)
        for tree, results in ((args.src_a, a), (args.src_b, b)):
            failed = 0
            for (workload, op), (code, out, _) in zip(ops, results):
                problems = check(op, code, out, ref_for(refs[workload], op), tol)
                failed += bool(problems)
                for problem in problems:
                    print(f"{label}: {tree}: {workload} {op.kind} {op.key}: {problem}")
            print(f"{label}: {tree}: {len(ops)} operations, {failed} fail their reference checks")
            counts.append(failed)
            for workload, pairs in local_deviations(ops, results).items():
                print(f"{label}: {tree}: {workload}: worst |d - eps|/eps of the local members "
                      "(information only): " + "; ".join(
                          f"({N}, {s}) " + ", ".join(f"eps={eps:g} {dev:.3g}"
                                                     for eps, dev in by_eps.items())
                          for (N, s), by_eps in pairs.items()))
        differ = []
        for name, argv, left, right in zip(names, runs + groups["entry points"], a, b):
            parts = [part for part, x, y in zip(("exit code", "stdout", "stderr"), left, right)
                     if x != y]
            if parts:
                differ.append(name)
                print(f"{label}: {name}: {', '.join(parts)} differ ({' '.join(argv)})")
        counts.append(len(differ))
        n_ops = len(differ) - sum(differ.count(group) for group in groups)
        print(f"{label}: {len(ops)} operations, {n_ops} differ"
              + "".join(f"; {len(group_argvs)} {group}, {differ.count(group)} differ"
                        for group, group_argvs in groups.items()), flush=True)
    return 1 if any(counts) else 0


if __name__ == "__main__":
    sys.exit(main())

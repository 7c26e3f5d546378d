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
differ.

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
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
from workloads import WORKLOADS, all_ops  # noqa: E402

# The variables OpenBLAS reads its thread count from; unset, it uses one thread per CPU.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
THREADS = {"1 BLAS thread": {"OPENBLAS_NUM_THREADS": "1"}, "default BLAS threads": {}}

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


def start(tree: Path, argvs: list[list[str]], threads: dict) -> subprocess.Popen:
    src = tree / "src"
    if not (src / "sobstab").is_dir():
        raise SystemExit(f"{tree} has no src/sobstab")
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", *BLAS_THREAD_VARS)}
    env.update(threads, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.Popen([sys.executable, "-c", CHILD, str(src)], stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, text=True, env=env)
    proc.stdin.write(json.dumps(argvs))
    proc.stdin.close()
    return proc


def finish(proc: subprocess.Popen, tree: Path) -> list:
    text = proc.stdout.read()
    if proc.wait() != 0:
        raise SystemExit(f"the child for {tree} exited with code {proc.returncode}")
    return json.loads(text)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("src_a", type=Path)
    parser.add_argument("src_b", type=Path)
    args = parser.parse_args(argv)

    ops = [(workload, op) for workload in WORKLOADS for op in all_ops(workload)]
    argvs = [list(op.argv) for _, op in ops]
    counts = []
    for label, threads in THREADS.items():
        children = [(start(tree, argvs, threads), tree) for tree in (args.src_a, args.src_b)]
        a, b = (finish(proc, tree) for proc, tree in children)
        differ = 0
        for (workload, op), left, right in zip(ops, a, b):
            parts = [name for name, x, y in zip(("exit code", "stdout", "stderr"), left, right)
                     if x != y]
            if parts:
                differ += 1
                print(f"{label}: {workload} {op.kind} {op.key}: {', '.join(parts)} differ"
                      f" ({' '.join(op.argv)})")
        counts.append(differ)
        print(f"{label}: {len(ops)} operations, {differ} differ", flush=True)
    return 1 if any(counts) else 0


if __name__ == "__main__":
    sys.exit(main())

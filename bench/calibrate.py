#!/usr/bin/env python3
"""Machine-speed calibration for bench/run.py: a reference kernel in a process of its own.

On a shared host the CPU runs in speed regimes that differ by up to
1.7x and last from seconds to minutes, for every kind of code alike, and
each CPU on its own.  run.py therefore times a fixed reference kernel
next to every operation and reports each time at the kernel's reference
speed.  The kernel, a loop of float math and a rows x cols GEMV shaped
like the workload's hot loop, must never change, since reported times
are scaled by it.

It runs here, in a child started before the program is imported, so
that nothing of the measured process (its BLAS thread pool, caches,
threads or allocations) moves the divisor: OpenBLAS is held to one
thread in this child only, and each request pins the child to one CPU.

    python3 bench/calibrate.py '<kernel config JSON>'

reads one CPU number per line from standard input, runs the kernel once
pinned to that CPU and writes its duration in seconds on a line of its
own, until standard input closes.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import subprocess
import sys
import time

# Set for the calibration child only; the program keeps its defaults.
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
CPUS = sorted(os.sched_getaffinity(0))


def serve(cfg: dict) -> None:
    import numpy as np

    a = np.random.default_rng(0).standard_normal((cfg["rows"], cfg["cols"]))
    x = np.ones(cfg["cols"])
    iterations = cfg["iterations"]
    for line in sys.stdin:
        os.sched_setaffinity(0, {int(line)})
        # Untimed first: the measured operation has evicted the kernel's
        # data from the caches, by an amount that depends on the program.
        for _ in range(max(1, iterations // 8)):
            a @ x
        acc = 0.0
        t0 = time.perf_counter()
        for i in range(iterations):
            acc += math.sqrt(i)
            a @ x
        print(repr(time.perf_counter() - t0), flush=True)


def thread_cpu() -> int | None:
    """The CPU the calling thread last ran on, or None where /proc does not say."""
    try:
        with open("/proc/thread-self/stat") as fh:
            # Field 39, counted from the state field that follows "(comm)".
            return int(fh.read().rsplit(")", 1)[1].split()[36])
    except (OSError, IndexError, ValueError):
        return None


class Calibration:
    """Client of the calibration child of one workload; a context manager."""

    def __init__(self, cfg: dict):
        self.ref_s = cfg["ref_ms"] / 1e3
        self.each_cpu = cfg["each_cpu"]
        kernel = {k: cfg[k] for k in ("rows", "cols", "iterations")}
        self.proc = subprocess.Popen([sys.executable, __file__, json.dumps(kernel)],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                                     env={**os.environ, **ONE_THREAD})

    def _on(self, cpu: int) -> float:
        self.proc.stdin.write(f"{cpu}\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"calibration child exited with code {self.proc.wait()}")
        return float(line)

    def kernel_s(self, each_cpu: bool | None = None) -> float:
        """Seconds the kernel takes now.

        With `each_cpu` it runs once on each CPU this run may use and the
        mean is returned: the CPUs change speed independently and a child
        process may run on any of them.  Without, it runs on the CPU the
        calling thread last ran on, where an in-process operation runs.
        """
        cpu = None if (self.each_cpu if each_cpu is None else each_cpu) else thread_cpu()
        cpus = CPUS if cpu is None else [cpu]
        return sum(self._on(c) for c in cpus) / len(cpus)

    def scale(self, kernel_times: list[float]) -> float:
        """Factor that takes a time measured alongside `kernel_times` to the reference speed."""
        return self.ref_s / statistics.median(kernel_times)

    def close(self) -> None:
        try:
            self.proc.stdin.close()
        except BrokenPipeError:
            pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


if __name__ == "__main__":
    serve(json.loads(sys.argv[1]))

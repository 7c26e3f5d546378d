"""Operation streams of the three benchmark workloads.

Every workload is a closed loop: one client issues one operation at a
time.  An operation is the argv of one `sobstab` CLI call; the program
sees nothing but that argv, and the same workload seed always gives the
same stream.

On the scan workloads no scan seed repeats within a run, so that no
cache keyed on the argv or the scan seed is ever hit.  Each (N, s) pair
first issues the scan seeds 1..SCAN_POOL in a seeded order; those have
committed reference values (see `make_refs.py`).  Every later cycle
draws fresh scan seeds from the workload seed, and those operations are
checked by invariants alone.  The warm-up uses scan seed 0, which no
stream issues.  cold-cli draws from fixed pools, each call in a fresh
process.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# (N, s) pairs, cycled by the scan workloads and drawn by cold-cli.
PAIRS = ((3, "2"), (2, "1"), (5, "0.5"), (8, "3.3"))

SCAN_ARGV = {
    # 3 eps x (3 modes + 20 normal) + 20 random + 5 bubbles = 94 members.
    "scan-wide": ["--K", "64", "--n-normal", "20", "--n-random", "20"],
    # 3 eps x (3 modes + 3 normal) + 6 random + 2 bubbles = 26 members, M = 770.
    "scan-deep": ["--K", "384", "--n-normal", "3", "--n-random", "6", "--bubbles", "0.5,0.8"],
}
SCAN_MEMBERS = {"scan-wide": 94, "scan-deep": 26}
# Scan seeds per (N, s) pair that have reference values: 1..SCAN_POOL.
SCAN_POOL = {"scan-wide": 16, "scan-deep": 8}
WARMUP_SEED = 0
FRESH_SEEDS = (1000, 2**31)  # range of the scan seeds drawn after the pool

ALPHA_ARGV = ["--K", "32", "--n-normal", "2", "--n-random", "2", "--bubbles", "0.5"]
ALPHA_POOL = 16
EXPORT_PROFILE = "gaussian:1"

# One cold-cli cycle.  The two verify-theorem2 calls have a pinned
# (N, s); the other kinds draw theirs from PAIRS.
COLD_MIX = ("constants", "eigenvalues", "export", "verify-3-2", "verify-2-1", "alpha")

WORKLOADS = ("scan-wide", "scan-deep", "cold-cli")
IN_PROCESS = ("scan-wide", "scan-deep")


@dataclass(frozen=True)
class Op:
    """One CLI call: its reference key, kind, (N, s) and argv."""

    key: str
    kind: str
    N: int
    s: str
    argv: tuple[str, ...]
    scan_seed: int | None = None

    @property
    def work(self) -> int:
        """Units of work_per_s this call contributes (scan members or one call)."""
        return SCAN_MEMBERS.get(self.kind, 1)


def _ns(N: int, s: str) -> list[str]:
    return ["--N", str(N), "--s", s]


def scan_op(workload: str, N: int, s: str, scan_seed: int) -> Op:
    argv = ["deficit-scan", *_ns(N, s), "--seed", str(scan_seed), *SCAN_ARGV[workload]]
    return Op(f"{N},{s}/seed={scan_seed}", workload, N, s, tuple(argv), scan_seed)


def cold_op(kind: str, N: int = 3, s: str = "2", scan_seed: int = 0) -> Op:
    if kind == "constants":
        argv = ["constants", *_ns(N, s), "--format", "json"]
    elif kind == "eigenvalues":
        argv = ["eigenvalues", *_ns(N, s), "--kmax", "40"]
    elif kind == "export":
        argv = ["export-function", *_ns(N, s), "--K", "128", "--profile", EXPORT_PROFILE]
    elif kind == "verify-3-2":
        N, s = 3, "2"
        argv = ["verify-theorem2", *_ns(N, s)]
    elif kind == "verify-2-1":
        N, s = 2, "1"
        argv = ["verify-theorem2", *_ns(N, s), "--K", "512"]
    elif kind == "alpha":
        argv = ["alpha-estimate", *_ns(N, s), "--seed", str(scan_seed), *ALPHA_ARGV]
        return Op(f"{N},{s}/seed={scan_seed}", kind, N, s, tuple(argv), scan_seed)
    else:
        raise ValueError(f"unknown cold-cli kind {kind!r}")
    return Op(f"{N},{s}", kind, N, s, tuple(argv))


def cycles(workload: str, seed: int):
    """Yield the workload's operations one cycle (a list of Ops) at a time, forever.

    A scan cycle visits every (N, s) pair once with the pair's next scan
    seed: the pool in a seeded order, then fresh seeds that do not repeat.
    A cold-cli cycle issues COLD_MIX once.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload in IN_PROCESS:
        queues = []
        for _ in PAIRS:
            pool = list(range(1, SCAN_POOL[workload] + 1))
            rng.shuffle(pool)
            queues.append(pool)
        drawn = set()
        while True:
            cycle = []
            for (N, s), queue in zip(PAIRS, queues):
                if queue:
                    scan_seed = queue.pop()
                else:
                    scan_seed = rng.randrange(*FRESH_SEEDS)
                    while scan_seed in drawn:
                        scan_seed = rng.randrange(*FRESH_SEEDS)
                    drawn.add(scan_seed)
                cycle.append(scan_op(workload, N, s, scan_seed))
            yield cycle
    elif workload == "cold-cli":
        while True:
            cycle = []
            for kind in COLD_MIX:
                N, s = rng.choice(PAIRS)
                cycle.append(cold_op(kind, N, s, rng.randrange(ALPHA_POOL)))
            yield cycle
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def warmup_ops(workload: str) -> list[Op]:
    """One untimed scan per (N, s) pair: fills the rule, basis and lambda caches."""
    return [scan_op(workload, N, s, WARMUP_SEED) for N, s in PAIRS]


def all_ops(workload: str) -> list[Op]:
    """Every distinct operation the workload can issue (the reference set)."""
    if workload in IN_PROCESS:
        return [scan_op(workload, N, s, k) for N, s in PAIRS
                for k in (WARMUP_SEED, *range(1, SCAN_POOL[workload] + 1))]
    ops = {}
    for kind in COLD_MIX:
        for N, s in PAIRS:
            seeds = range(ALPHA_POOL) if kind == "alpha" else (0,)
            for k in seeds:
                op = cold_op(kind, N, s, k)
                ops[(op.kind, op.key)] = op
    return list(ops.values())

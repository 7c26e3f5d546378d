#!/usr/bin/env python3
"""Write refs/<workload>.json: reference results of every operation a workload can issue.

Run from the repository root at the commit whose answers are the
reference (the seed commit of the benchmark):

    python3 bench/make_refs.py [workload ...]

Each distinct operation of workloads.all_ops() runs once in-process and
its exit code and parsed output are stored; check.py compares later
runs with them.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import sobstab.cli  # noqa: E402

from check import REFS, reference_for  # noqa: E402
from workloads import WORKLOADS, all_ops  # noqa: E402


def references(workload: str) -> dict:
    ops, labels = {}, None
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        for op in all_ops(workload):
            rc = sobstab.cli.main([*op.argv, "--out", str(out)])
            entry = reference_for(op, rc, out.read_text())
            if "labels" in entry:
                if labels not in (None, entry["labels"]):
                    raise RuntimeError("scan labels differ between seeds")
                labels = entry.pop("labels")
            ops[f"{op.kind}/{op.key}"] = entry
            out.unlink()
    doc = {"labels": labels} if labels is not None else {}
    doc["ops"] = ops
    return doc


def main(argv: list[str]) -> int:
    REFS.mkdir(exist_ok=True)
    for workload in argv or WORKLOADS:
        doc = references(workload)
        path = REFS / f"{workload}.json"
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
            fh.write("\n")
        print(f"{path}: {len(doc['ops'])} operations")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

#!/usr/bin/env python3
"""Repeat bench/run.py over seeds and report each end-to-end metric's median and spread.

Run from the repository root:

    python3 bench/proof.py [--runs 10] [--workloads scan-wide,cold-cli] [--traced]
                           [--out FILE] [--label NAME]

For every workload it runs `run.py --trace 0` once per seed (1..runs)
for BENCHMARK.json's run_seconds, then prints, per metric, the median,
the quartiles (statistics.quantiles with n=4) and the spread
(q3 - q1) / median against its limit: a third of the metric's bound in
BENCHMARK.json, and for setup_s, whose set-up children vary more from
run to run, the bound itself.  With --traced it also makes one
`--trace 1` run per workload.  With --out it appends the medians, the
values at reference speed and raw, the environment and the layer split
to a BENCH trajectory file as one point.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict, dict]:
    """Result, environment and raw end-to-end values of one run.py run."""
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")

    def tagged(tag: str) -> dict:
        return next((json.loads(line[len(tag):]) for line in lines if line.startswith(tag)), {})

    return json.loads(lines[-1]), tagged("env "), tagged("raw ")


def main(argv: list[str] | None = None) -> int:
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in manifest["workloads"]))
    parser.add_argument("--traced", action="store_true", help="add one --trace 1 run per workload")
    parser.add_argument("--out", type=Path, default=None, help="BENCH trajectory file to append to")
    parser.add_argument("--label", default="", help="name of the trajectory point")
    args = parser.parse_args(argv)

    seconds = manifest["run_seconds"]
    limits = {m["name"]: m["bound"] if m["name"] == "setup_s" else m["bound"] / 3
              for m in manifest["end_to_end"]}
    point = {"label": args.label, "date": time.strftime("%Y-%m-%d"), "runs": args.runs,
             "run_seconds": seconds, "workloads": {}}
    steady = True
    for workload in args.workloads.split(","):
        values, raws, failed, attempted, env = {}, {}, 0, 0, {}
        for seed in range(1, args.runs + 1):
            result, env, raw = run(workload, seed, seconds, 0)
            failed += result["failed"]
            attempted += result["attempted"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                raws.setdefault(name, []).append(raw.get(name))
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k} {m['value']:.5g}" for k, m in result["metrics"].items()), flush=True)
        entry = {"fail_frac": failed / attempted, "metrics": {}}
        print(f"\n{workload}: {attempted} operations, fail_frac {failed / attempted:.4g}")
        print(f"{'metric':16s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'limit':>8s}")
        for name, xs in values.items():
            med = statistics.median(xs)
            q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else float("inf")
            ok = spread < limits[name]
            steady &= ok
            print(f"{name:16s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} {limits[name]:8.4f}"
                  f"{'' if ok else '  <- too wide'}")
            entry["metrics"][name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                                      "values": xs, "raw_values": raws[name]}
        if args.traced:
            result, _, _ = run(workload, 1, seconds, 1)
            entry["per_layer"] = {k: m["value"] for k, m in result["metrics"].items()}
        entry["env"] = env
        point["workloads"][workload] = entry
        print()
    if args.out:
        doc = json.loads(args.out.read_text()) if args.out.exists() else {"points": []}
        doc["points"].append(point)
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    print("steady" if steady else "NOT steady: some spread is above its limit")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())

"""Correctness checks for every benchmark operation.

`check(op, rc, text, ref, tol)` returns the list of problems found in one
CLI call's exit code and output; an empty list means the answer is
right.  Values pinned by the seed commit are compared with `ref` (from
`refs/<workload>.json`) within the tolerances of `spec.json`.  Fields
that ROADMAP item 1 is meant to move (the deficit and ratio of
near-manifold members, and weak_norm, rhs and margin) are checked only
by invariants, and so is every field of an operation without a
reference (`ref is None`).  Keys the checks do not know are ignored, so
opt-in output fields pass.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from workloads import SCAN_MEMBERS, Op

REFS = Path(__file__).resolve().parent / "refs"

# Member row layout in refs/<scan workload>.json.
ROW = ("skipped", "norm_star_sq", "lq_norm", "distance", "c", "t0", "deficit", "ratio")


def load_refs(workload: str) -> dict:
    """Committed reference values of a workload ({} when there are none)."""
    path = REFS / f"{workload}.json"
    return json.loads(path.read_text()) if path.is_file() else {}


def ref_for(refs: dict, op: Op) -> dict | None:
    """The reference entry of `op`, or None: then only invariants are checked."""
    entry = refs.get("ops", {}).get(f"{op.kind}/{op.key}")
    if entry is not None and "labels" in refs:
        entry = dict(entry, labels=refs["labels"])
    return entry


class _Problems(list):
    def rel(self, name, got, want, tol):
        if not isinstance(got, (int, float)) or isinstance(got, bool) or not math.isfinite(got):
            self.append(f"{name}: {got!r} is not a finite number")
        elif abs(got - want) > tol * abs(want):
            self.append(f"{name}: {got!r} differs from reference {want!r} (rel tol {tol:g})")

    def abs(self, name, got, want, tol):
        if not isinstance(got, (int, float)) or abs(got - want) > tol:
            self.append(f"{name}: {got!r} differs from reference {want!r} (abs tol {tol:g})")

    def equal(self, name, got, want):
        if got != want:
            self.append(f"{name}: {got!r} != expected {want!r}")

    def require(self, cond, message):
        if not cond:
            self.append(message)


def _local_constant(N: int, s: float) -> float:
    return 2.0 * s / (N + s + 2.0)


def check(op: Op, rc: int, text: str, ref: dict | None, tol: dict) -> list[str]:
    """Problems in one operation's result; [] when exit code and output are right."""
    probs = _Problems()
    want_rc = ref["exit"] if ref is not None else 0
    if rc != want_rc:
        return [f"exit code {rc} != expected {want_rc}"]
    try:
        if op.kind in SCAN_MEMBERS:
            _check_scan(op, text, ref, tol, probs)
        elif op.kind == "alpha":
            _check_summary(op, json.loads(text), ref and ref["summary"], tol, probs)
        elif op.kind == "constants":
            _check_constants(op, json.loads(text), ref, tol, probs)
        elif op.kind == "eigenvalues":
            _check_eigenvalues(op, text, ref, tol, probs)
        elif op.kind == "export":
            _check_export(op, json.loads(text), ref, tol, probs)
        else:
            _check_verify(op, json.loads(text), ref, tol, probs)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        probs.append(f"malformed output: {type(exc).__name__}: {exc}")
    return list(probs)


# --- deficit-scan / alpha-estimate ---


def parse_scan(text: str) -> tuple[list[dict], dict]:
    """Member records and the trailing summary record of deficit-scan JSONL."""
    records = [json.loads(line) for line in text.splitlines() if line.strip()]
    if not records:
        raise ValueError("empty scan output")
    return records[:-1], records[-1]


def _check_scan(op: Op, text: str, ref, tol, probs: _Problems) -> None:
    members, summary = parse_scan(text)
    rel, inv = tol["rel"], tol["invariant"]
    probs.equal("member count", len(members), SCAN_MEMBERS[op.kind])
    if ref is not None:
        probs.equal("member count vs reference", len(members), len(ref["members"]))
    ratios = []
    for i, rec in enumerate(members):
        name = f"member {i}"
        probs.equal(f"{name} index", rec["index"], i)
        if ref is not None and i < len(ref["members"]):
            family, label = ref["labels"][i]
            probs.equal(f"{name} family", rec["family"], family)
            probs.equal(f"{name} label", rec["label"], label)
            want = dict(zip(ROW, ref["members"][i]))
            probs.equal(f"{name} skipped", rec["skipped"], want["skipped"])
        else:
            want = None
        if rec["skipped"]:
            continue
        ns2, d, psi, ratio = rec["norm_star_sq"], rec["distance"], rec["deficit"], rec["ratio"]
        nearest = rec["nearest"]
        if want is not None and not want["skipped"]:
            for key in ("norm_star_sq", "lq_norm", "distance"):
                probs.rel(f"{name} {key}", rec[key], want[key], rel[key])
            if want["c"] is None:
                probs.equal(f"{name} nearest", nearest, None)
            else:
                probs.require(nearest is not None, f"{name} nearest: missing")
                if nearest is not None:
                    probs.rel(f"{name} nearest.c", nearest["c"], want["c"], rel["nearest.c"])
                    probs.abs(f"{name} nearest.t0", nearest["t0"], want["t0"],
                              tol["abs"]["nearest.t0"])
            if want["deficit"] is not None:  # far member: not moved by item 1
                probs.rel(f"{name} deficit", psi, want["deficit"], rel["far_member.deficit"])
                probs.rel(f"{name} ratio", ratio, want["ratio"], rel["far_member.ratio"])
        # Invariants, on every member: the stability sandwich
        # -slack <= Psi <= d^2 + slack, ratio = Psi/d^2 and the t0 cap flag.
        slack = inv["sandwich_slack_of_norm_star_sq"] * ns2 + 1e-11 * max(abs(psi), d * d)
        probs.require(-slack <= psi <= d * d + slack,
                      f"{name}: deficit {psi!r} outside [0, distance^2 = {d * d!r}]")
        probs.require(d > 0 and abs(ratio - psi / (d * d)) <= inv["consistency_rel"] * abs(ratio) + 1e-300,
                      f"{name}: ratio {ratio!r} != deficit/distance^2")
        if nearest is not None:
            probs.equal(f"{name} boundary_hit", rec["boundary_hit"],
                        abs(nearest["t0"]) >= summary["t0_cap"] - 1e-6)
        ratios.append(ratio)
    skipped = sum(1 for rec in members if rec["skipped"])
    probs.equal("summary n_members", summary["n_members"], len(members))
    probs.equal("summary n_skipped", summary["n_skipped"], skipped)
    if ratios:
        probs.rel("summary alpha_hat vs min ratio", summary["alpha_hat"], min(ratios),
                  inv["consistency_rel"])
    _check_summary(op, summary, ref and ref["summary"], tol, probs)


def _check_summary(op: Op, summary: dict, want: dict | None, tol, probs: _Problems) -> None:
    s = float(op.s)
    alpha, lc = summary["alpha_hat"], summary["local_constant"]
    probs.equal("summary seed", summary["seed"], op.scan_seed)
    probs.rel("summary local_constant", lc, _local_constant(op.N, s), tol["rel"]["local_constant"])
    bound = _local_constant(op.N, s) + tol["invariant"]["alpha_hat_above_local_constant"]
    probs.require(0.0 < alpha <= bound, f"alpha_hat {alpha!r} outside (0, {bound!r}]")
    if want is None:
        return
    probs.rel("summary alpha_hat", alpha, want["alpha_hat"], tol["rel"]["alpha_hat"])
    for key in want:
        if key not in ("alpha_hat", "local_constant"):
            probs.equal(f"summary {key}", summary.get(key), want[key])


# --- constants / eigenvalues / export-function ---


def _check_constants(op: Op, doc: dict, ref, tol, probs: _Problems) -> None:
    probs.equal("N", doc["N"], op.N)
    probs.rel("local_constant", doc["local_constant"], _local_constant(op.N, float(op.s)),
              tol["rel"]["closed_form"])
    wc = doc["weak_norm_constants"]
    probs.require(0.0 < wc["rho"] < 1.0, f"rho {wc['rho']!r} outside (0, 1)")
    probs.rel("C = C0^-2", wc["C"], wc["C0"] ** -2.0, tol["invariant"]["consistency_rel"])
    if ref is None:
        return
    want = ref["doc"]
    closed = tol["rel"]["closed_form"]
    for key in ("s", "q", "sharp_constant"):
        probs.rel(key, doc[key], want[key], closed)
    probs.equal("eigenvalue count", len(doc["eigenvalues"]), len(want["eigenvalues"]))
    for got, row in zip(doc["eigenvalues"], want["eigenvalues"]):
        probs.equal("eigenvalue k", got["k"], row["k"])
        probs.rel(f"lambda_{row['k']}", got["lambda"], row["lambda"], closed)
        probs.equal(f"multiplicity_{row['k']}", got["multiplicity"], row["multiplicity"])
    for key, value in want["weak_norm_constants"].items():
        probs.rel(f"weak_norm_constants.{key}", wc[key], value, tol["rel"]["weak_norm_constants"])


def parse_eigenvalues(text: str) -> list[list]:
    """Rows [k, lambda, multiplicity] of the text eigenvalue table."""
    rows = []
    for line in text.splitlines():
        k, lam, mult = line.split()
        rows.append([int(k), float(lam), int(mult)])
    return rows


def _check_eigenvalues(op: Op, text: str, ref, tol, probs: _Problems) -> None:
    rows = parse_eigenvalues(text)
    probs.equal("eigenvalue rows", [r[0] for r in rows], list(range(len(rows))))
    probs.require(all(r[1] > 0 for r in rows), "eigenvalues must be positive")
    if ref is None:
        return
    probs.equal("eigenvalue row count", len(rows), len(ref["rows"]))
    for got, want in zip(rows, ref["rows"]):
        probs.rel(f"lambda_{want[0]}", got[1], want[1], tol["rel"]["closed_form"])
        probs.equal(f"multiplicity_{want[0]}", got[2], want[2])


def _check_export(op: Op, doc: dict, ref, tol, probs: _Problems) -> None:
    probs.equal("N", doc["N"], op.N)
    probs.equal("coefficient count", len(doc["coeffs"]), doc["K"] + 1)
    if ref is None:
        return
    want = ref["doc"]
    probs.equal("K", doc["K"], want["K"])
    scale = max(abs(c) for c in want["coeffs"])
    limit = tol["rel"]["export.coeffs_of_max"] * scale
    bad = [k for k, (a, b) in enumerate(zip(doc["coeffs"], want["coeffs"])) if not abs(a - b) <= limit]
    probs.require(not bad, f"coefficients {bad[:5]} differ from reference by more than {limit:.3g}")


# --- verify-theorem2 ---


def _check_verify(op: Op, doc: dict, ref, tol, probs: _Problems) -> None:
    inv = tol["invariant"]
    q = 2.0 * op.N / (op.N - float(op.s))
    probs.equal("N", doc["N"], op.N)
    probs.require(len(doc["cases"]) > 0, "no verification cases")
    for i, case in enumerate(doc["cases"]):
        lhs, rhs, margin, weak = case["lhs"], case["rhs"], case["margin"], case["weak_norm"]
        name = f"case {i}"
        # Invariants: the remainder bound holds, margin = lhs - rhs and
        # rhs = C |Omega|^(-2/q) |u|_w^2.
        probs.require(lhs > 0 and weak > 0 and rhs > 0, f"{name}: lhs, rhs and weak_norm must be positive")
        probs.require(margin >= -inv["margin_floor_of_lhs"] * lhs, f"{name}: margin {margin!r} < -1e-6 lhs")
        probs.require(abs(margin - (lhs - rhs)) <= inv["consistency_rel"] * abs(lhs),
                      f"{name}: margin != lhs - rhs")
        probs.rel(f"{name} rhs", rhs, doc["C"] * case["omega_measure"] ** (-2.0 / q) * weak * weak,
                  inv["consistency_rel"])
    if ref is None:
        return
    want = ref["doc"]
    for key in ("s", "rho", "C1", "C2", "C0", "C"):
        probs.rel(key, doc[key], want[key], tol["rel"]["weak_norm_constants"])
    probs.equal("case count", len(doc["cases"]), len(want["cases"]))
    for i, (case, wcase) in enumerate(zip(doc["cases"], want["cases"])):
        probs.equal(f"case {i} profile", case["profile"], wcase["profile"])
        probs.rel(f"case {i} lhs", case["lhs"], wcase["lhs"], tol["rel"]["verify.lhs"])
        probs.rel(f"case {i} omega_measure", case["omega_measure"], wcase["omega_measure"],
                  tol["rel"]["verify.omega_measure"])


# --- reference extraction (used by make_refs.py) ---


def reference_for(op: Op, rc: int, text: str) -> dict:
    """The reference entry of one operation, from a run at the seed commit."""
    ref = {"exit": rc}
    if op.kind in SCAN_MEMBERS:
        members, summary = parse_scan(text)
        rows = []
        for rec in members:
            if rec["skipped"]:
                rows.append([True])
                continue
            nearest = rec["nearest"] or {"c": None, "t0": None}
            far = rec["family"] != "local"
            rows.append([False, rec["norm_star_sq"], rec["lq_norm"], rec["distance"],
                         nearest["c"], nearest["t0"],
                         rec["deficit"] if far else None, rec["ratio"] if far else None])
        ref["labels"] = [[rec["family"], rec["label"]] for rec in members]
        ref["members"] = rows
        ref["summary"] = summary
    elif op.kind == "alpha":
        ref["summary"] = json.loads(text)
    elif op.kind == "eigenvalues":
        ref["rows"] = parse_eigenvalues(text)
    else:
        ref["doc"] = json.loads(text)
    return ref

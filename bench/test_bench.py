"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest -q bench

They check that tracing leaves the output bytes unchanged, that every
span and counter fires on the workloads spec.json maps it to, that
planted wrong answers are reported as failed operations, and that the
benchmark refuses to run without the program.
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import sobstab.cli as cli  # noqa: E402

import run as bench  # noqa: E402
from calibrate import Calibration  # noqa: E402
from check import check, load_refs, ref_for  # noqa: E402
from spans import Tracer, import_split, layer_stats  # noqa: E402
from workloads import (COLD_MIX, IN_PROCESS, SCAN_POOL, WORKLOADS, cold_op, cycles,  # noqa: E402
                       warmup_ops)

# The package rebinds the name `sobstab.deficit` to the deficit() function.
deficit = importlib.import_module("sobstab.deficit")
TOL = bench.SPEC["tolerances"]
LAYERS = {k: v for k, v in bench.SPEC["layers"].items() if k != "why"}


def fired_metrics(tracer: Tracer, ops) -> set[str]:
    stats = layer_stats(tracer, ops)
    return {name for name in LAYERS if name in stats}


@pytest.fixture(scope="module")
def traced_cycle(tmp_path_factory):
    """Per workload: one cycle run plain and traced -> (outputs differ?, fired metrics)."""
    tmp = tmp_path_factory.mktemp("traced")
    found = {}
    for workload in IN_PROCESS:
        tracer, mismatches = Tracer(), []
        for i, op in enumerate(next(cycles(workload, 7))):
            rc = cli.main([*op.argv, "--out", str(tmp / "plain")])
            tracer.op = i
            tracer.install()
            try:
                rc_traced = cli.main([*op.argv, "--out", str(tmp / "traced")])
            finally:
                tracer.uninstall()
            if (rc, (tmp / "plain").read_bytes()) != (rc_traced, (tmp / "traced").read_bytes()):
                mismatches.append(op.argv)
        found[workload] = (mismatches, fired_metrics(tracer, range(i + 1)))
    tracer, mismatches, env = Tracer(), [], bench.child_env()
    for i, kind in enumerate(COLD_MIX):
        op = cold_op(kind, 5, "0.5", 3)
        plain = subprocess.run([sys.executable, "-m", "sobstab.cli", *op.argv], cwd=ROOT, env=env,
                               capture_output=True, timeout=120)
        span_file = tmp / f"spans{i}.json"
        traced = subprocess.run([sys.executable, str(BENCH / "child.py"), "cli", str(span_file),
                                 *op.argv], cwd=ROOT, env=env, capture_output=True, timeout=120)
        if (traced.returncode, traced.stdout) != (plain.returncode, plain.stdout):
            mismatches.append(op.argv)
        tracer.load(span_file, i)
    found["cold-cli"] = (mismatches, fired_metrics(tracer, range(len(COLD_MIX))))
    return found


# --- tracing leaves the answers alone, and fires where mapped ---


@pytest.mark.parametrize("workload", WORKLOADS)
def test_wrapped_output_is_identical(workload, traced_cycle):
    assert traced_cycle[workload][0] == []
    assert not hasattr(cli.main, "__wrapped__")  # uninstall restored the bindings


@pytest.mark.parametrize("workload", WORKLOADS)
def test_spans_fire_as_mapped(workload, traced_cycle):
    # import.* come from importtime children and trace.* from run.py itself.
    own = {name for name in LAYERS
           if not name.startswith(("import.", "trace.")) and name != "deficit.golden.evals_per_member"}
    expected = {name for name in own if workload in LAYERS[name]["fires_on"]}
    assert traced_cycle[workload][1] == expected


def test_layer_mapping_covers_per_layer_metrics():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(LAYERS) == {m["name"] for m in manifest["per_layer"]}
    assert all(set(v["fires_on"]) <= set(WORKLOADS) for v in LAYERS.values())


def test_import_split_attributes_nested_imports():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy._core",
        "import time:       200 |        300 |   numpy",
        "import time:       400 |        400 |     scipy.linalg",
        "import time:        50 |         50 |     argparse",
        "import time:        10 |        760 |   sobstab.zonal",
        "import time:         5 |        765 | sobstab",
        "import time:         7 |          7 | json",
    ])
    split = import_split(stderr)
    assert split == pytest.approx({"import.numpy_ms": 0.3, "import.scipy_ms": 0.4,
                                   "import.sobstab_ms": 0.065})


# --- planted wrong answers are failed operations ---


def _one_scan_cycle(tmp_path) -> bench.Results:
    with Calibration(bench.SPEC["calibration"]["scan-wide"]) as cal:
        results = bench.Results("scan-wide", cal)
        run_op = bench.inprocess_runner(cli, tmp_path / "op.out", Tracer())
        bench.measure("scan-wide", 1, 0.0, False, run_op, results)
    return results


def test_seed_commit_answers_pass(tmp_path):
    results = _one_scan_cycle(tmp_path)
    assert (results.attempted, results.failed) == (4, 0), results.problems


def test_planted_distance_error_fails(tmp_path, monkeypatch):
    original = deficit.distance

    def off_by_1e6(u, rule, config=None):
        d, nearest = original(u, rule, config)
        return d * (1.0 + 1e-6), nearest

    monkeypatch.setattr(deficit, "distance", off_by_1e6)
    results = _one_scan_cycle(tmp_path)
    assert results.failed == results.attempted == 4
    assert "distance" in results.problems[0]


def test_planted_dropped_member_fails(tmp_path, monkeypatch):
    original = deficit.scan_members
    monkeypatch.setattr(deficit, "scan_members", lambda p, cfg: list(original(p, cfg))[:-1])
    results = _one_scan_cycle(tmp_path)
    assert results.failed == results.attempted == 4


def test_planted_exit_code_fails(tmp_path, monkeypatch):
    original = cli.cmd_deficit_scan
    monkeypatch.setattr(cli, "cmd_deficit_scan", lambda args: original(args) or cli.EXIT_INVARIANT)
    results = _one_scan_cycle(tmp_path)
    assert results.failed == results.attempted == 4
    assert "exit code" in results.problems[0]


def _output(op, tmp_path) -> str:
    assert cli.main([*op.argv, "--out", str(tmp_path / "out")]) == 0
    return (tmp_path / "out").read_text()


def _scale_first(text: str, key: str, factor: float) -> str:
    doc = json.loads(text)
    target = doc["cases"][0] if "cases" in doc and key in doc["cases"][0] else doc
    if key == "coeffs":
        target[key][3] += 1e-6 * max(abs(c) for c in target[key])
    else:
        target[key] *= factor
    return json.dumps(doc)


@pytest.mark.parametrize("kind, key", [
    ("constants", "sharp_constant"), ("verify-3-2", "lhs"), ("verify-2-1", "C2"),
    ("alpha", "alpha_hat"), ("export", "coeffs"),
])
def test_planted_cold_errors_fail(kind, key, tmp_path):
    op = cold_op(kind, 8, "3.3", 5)
    refs = load_refs("cold-cli")
    text = _output(op, tmp_path)
    assert check(op, 0, text, ref_for(refs, op), TOL) == []
    assert check(op, 0, _scale_first(text, key, 1.0 + 1e-4), ref_for(refs, op), TOL)
    assert check(op, 3, text, ref_for(refs, op), TOL)


def test_planted_eigenvalue_error_fails(tmp_path):
    op = cold_op("eigenvalues", 2, "1")
    ref = ref_for(load_refs("cold-cli"), op)
    text = _output(op, tmp_path)
    lines = text.splitlines()
    k, lam, mult = lines[7].split()
    lines[7] = f"{k} {float(lam) * (1 + 1e-6)!r} {mult}"
    assert check(op, 0, text, ref, TOL) == []
    assert check(op, 0, "\n".join(lines) + "\n", ref, TOL)


def test_invariants_only_without_reference(tmp_path):
    op = next(cycles("scan-wide", 1))[0]
    text = _output(op, tmp_path)
    assert check(op, 0, text, None, TOL) == []
    records = [json.loads(line) for line in text.splitlines()]
    records[0]["extra_opt_in_field"] = 1.0  # opt-in keys pass
    assert check(op, 0, "\n".join(json.dumps(r) for r in records), None, TOL) == []
    records[0]["deficit"] = 2.0 * records[0]["distance"] ** 2  # breaks the sandwich
    assert check(op, 0, "\n".join(json.dumps(r) for r in records), None, TOL)
    records[0]["deficit"] = -records[0]["deficit"]
    assert check(op, 0, "\n".join(json.dumps(r) for r in records), None, TOL)


def test_verify_margin_invariant(tmp_path):
    op = cold_op("verify-3-2")
    doc = json.loads(_output(op, tmp_path))
    case = doc["cases"][0]
    case["rhs"] = case["lhs"] * 1.01
    case["margin"] = case["lhs"] - case["rhs"]
    assert any("margin" in p for p in check(op, 0, json.dumps(doc), None, TOL))


# --- streams and refusal ---


@pytest.mark.parametrize("workload", WORKLOADS)
def test_streams_are_seeded(workload):
    first = [op.argv for cycle, _ in zip(cycles(workload, 3), range(6)) for op in cycle]
    again = [op.argv for cycle, _ in zip(cycles(workload, 3), range(6)) for op in cycle]
    other = [op.argv for cycle, _ in zip(cycles(workload, 4), range(6)) for op in cycle]
    assert first == again and first != other


def test_cold_cli_stream_is_referenced():
    refs = load_refs("cold-cli")
    stream = cycles("cold-cli", 11)
    assert all(ref_for(refs, op) is not None for _ in range(40) for op in next(stream))


@pytest.mark.parametrize("workload", IN_PROCESS)
def test_scan_seeds_never_repeat_within_a_run(workload):
    refs, pool = load_refs(workload), SCAN_POOL[workload]
    ops = [op for _, cycle in zip(range(300), cycles(workload, 5)) for op in cycle]
    argvs = [op.argv for op in ops] + [op.argv for op in warmup_ops(workload)]
    assert len(set(argvs)) == len(argvs)
    # The pool's cycles are checked against references, the later ones by invariants alone.
    referenced = [ref_for(refs, op) is not None for op in ops]
    assert referenced == [True] * (pool * 4) + [False] * (len(ops) - pool * 4)
    assert all(ref_for(refs, op) is not None for op in warmup_ops(workload))


def test_calibration_child_times_the_kernel_and_stops():
    with Calibration(bench.SPEC["calibration"]["scan-wide"]) as cal:
        assert cal.kernel_s(each_cpu=False) > 0 and cal.kernel_s(each_cpu=True) > 0
        assert cal.scale([cal.ref_s, cal.ref_s]) == pytest.approx(1.0)
    assert cal.proc.returncode == 0


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_short_scan_run_reports_every_metric(trace, section):
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "scan-wide", "--seed", "1",
                           "--seconds", "1", "--trace", str(trace)], cwd=ROOT, capture_output=True,
                          text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in manifest[section]}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "scan-wide", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

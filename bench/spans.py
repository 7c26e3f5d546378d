"""Spans around the calls into each sobstab layer, recorded from outside.

`Tracer.install()` replaces every module binding of the traced functions
with a wrapper that records a span (name, start, end, parent, operation
id) and the counts named below; `uninstall()` puts the originals back.
A function imported into several modules gets one wrapper per binding,
so a call is traced whichever module makes it.  Spans stay in memory
until `dump()`.

Metric names are `<layer>.<fn>.<stat>`: `calls`, `busy_ms` (inclusive
duration) and `self_ms` (duration minus the time child spans cover),
each per operation, plus the counts `deficit.golden.evals`,
`weaknorm.golden.evals`, `zonal.gauss_jacobi_rule.misses`,
`deficit.members`, `deficit.skipped`, `deficit.boundary_hits` and
`cli.out_bytes`.  Spans emitted by the program itself can later replace
these wrappers under the same names.
"""

from __future__ import annotations

import importlib
import json
import re
import statistics
import time
from collections import defaultdict

# (defining module, attribute) -> span name.  golden_section_min is named
# after the module that calls it, since deficit and weaknorm both do.
TARGETS = {
    ("cli", "main"): "cli.main",
    ("deficit", "run_scan"): "deficit.run_scan",
    ("deficit", "scan_members"): "deficit.scan_members",
    ("deficit", "stability_ratio"): "deficit.stability_ratio",
    ("deficit", "distance"): "deficit.distance",
    ("_util", "golden_section_min"): "{caller}.golden",
    ("zonal", "gauss_jacobi_rule"): "zonal.gauss_jacobi_rule",
    ("zonal", "analyze"): "zonal.analyze",
    ("zonal", "norm_lp"): "zonal.norm_lp",
    ("conformal", "pullback_to_sphere"): "conformal.pullback_to_sphere",
    ("conformal", "manifold_samples"): "conformal.manifold_samples",
    ("weaknorm", "compute_constants"): "weaknorm.compute_constants",
    ("weaknorm", "extremizer_weak_norm"): "weaknorm.extremizer_weak_norm",
    ("weaknorm", "radial_cells"): "weaknorm.radial_cells",
    ("weaknorm", "weak_norm"): "weaknorm.weak_norm",
    ("weaknorm", "verify_theorem2"): "weaknorm.verify_theorem2",
}
MODULES = ("cli", "deficit", "_util", "zonal", "conformal", "weaknorm", "specfun")


class Tracer:
    """In-memory span and count recorder for one process."""

    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent index, op]
        self.counts = defaultdict(float)  # (op, name) -> total
        self.op = 0
        self._stack = []
        self._undo = []

    # --- recording ---

    def count(self, name: str, n: float = 1) -> None:
        self.counts[(self.op, name)] += n

    def _wrap(self, name: str, fn):
        tracer = self
        spans, stack = self.spans, self._stack
        hook = _HOOKS.get("golden" if name.endswith(".golden") else name)

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, time.perf_counter_ns(), None, stack[-1] if stack else -1, tracer.op])
            stack.append(index)
            try:
                if hook is None:
                    return fn(*args, **kwargs)
                return hook(tracer, name, fn, args, kwargs)
            finally:
                spans[index][2] = time.perf_counter_ns()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    # --- installation ---

    def install(self) -> None:
        """Wrap every binding of the traced functions in the sobstab modules."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        mods = {m: importlib.import_module(f"sobstab.{m}") for m in MODULES}
        originals = {getattr(mods[m], attr): name for (m, attr), name in TARGETS.items()}
        for caller, mod in mods.items():
            if caller == "_util":  # defines golden_section_min but never calls it
                continue
            for attr, value in list(vars(mod).items()):
                name = originals.get(value) if callable(value) else None
                if name is not None:
                    self._patch(mod, attr, self._wrap(name.format(caller=caller), value))
        rule_cls = mods["zonal"].QuadratureRule
        self._patch(rule_cls, "basis", self._wrap("zonal.basis", rule_cls.basis))
        cli = mods["cli"]
        write = cli._write_output

        def counted_write(text, out):
            self.count("cli.out_bytes", len(text.encode()))
            return write(text, out)

        self._patch(cli, "_write_output", counted_write)

    def _patch(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # --- output ---

    def state(self) -> dict:
        """Spans and counts as one JSON-ready document."""
        return {"spans": self.spans,
                "counts": [[op, name, n] for (op, name), n in self.counts.items()]}

    def dump(self, path) -> None:
        """Write state() as JSON (one document per process)."""
        with open(path, "w") as fh:
            json.dump(self.state(), fh)

    def load(self, source, op: int | None = None) -> None:
        """Append the spans and counts of another process's state() or dump() file.

        With `op` they all count for that operation, else for their own.
        """
        if not isinstance(source, dict):
            with open(source) as fh:
                source = json.load(fh)
        base = len(self.spans)
        for name, start, end, parent, own in source["spans"]:
            self.spans.append([name, start, end, parent + base if parent >= 0 else -1,
                               own if op is None else op])
        for own, name, n in source["counts"]:
            self.counts[(own if op is None else op, name)] += n


def _golden(tracer, name, fn, args, kwargs):
    f = args[0]

    def counted(x):
        tracer.count(f"{name}.evals")
        return f(x)

    return fn(counted, *args[1:], **kwargs)


def _rule(tracer, name, fn, args, kwargs):
    # gauss_jacobi_rule is lru_cached: a miss builds a new rule.
    before = fn.cache_info().misses
    rule = fn(*args, **kwargs)
    tracer.count(f"{name}.misses", fn.cache_info().misses - before)
    return rule


def _run_scan(tracer, name, fn, args, kwargs):
    result = fn(*args, **kwargs)
    tracer.count("deficit.members", result.n_members)
    tracer.count("deficit.skipped", result.n_skipped)
    return result


def _stability_ratio(tracer, name, fn, args, kwargs):
    report = fn(*args, **kwargs)
    tracer.count("deficit.boundary_hits", int(report.boundary_hit))
    return report


def _scan_members(tracer, name, fn, args, kwargs):
    # A generator: drain it so its work falls inside the span.
    return iter(list(fn(*args, **kwargs)))


_HOOKS = {
    "golden": _golden,
    "zonal.gauss_jacobi_rule": _rule,
    "deficit.run_scan": _run_scan,
    "deficit.stability_ratio": _stability_ratio,
    "deficit.scan_members": _scan_members,
}


def layer_stats(tracer: Tracer, ops) -> dict[str, float]:
    """Per-operation means over `ops` of calls, busy_ms, self_ms and every count.

    `ops` is a collection of operation ids, or a dict that maps each to
    the factor its span durations are multiplied by.
    """
    scale = ops if isinstance(ops, dict) else dict.fromkeys(ops, 1.0)
    n = max(len(scale), 1)
    child = defaultdict(int)
    for name, start, end, parent, op in tracer.spans:
        if parent >= 0:
            child[parent] += end - start
    calls, busy, own = defaultdict(int), defaultdict(float), defaultdict(float)
    for i, (name, start, end, parent, op) in enumerate(tracer.spans):
        if op in scale:
            calls[name] += 1
            busy[name] += (end - start) * scale[op]
            own[name] += (end - start - child[i]) * scale[op]
    stats = {}
    for name in calls:
        stats[f"{name}.calls"] = calls[name] / n
        stats[f"{name}.busy_ms"] = busy[name] / 1e6 / n
        stats[f"{name}.self_ms"] = own[name] / 1e6 / n
    totals = defaultdict(float)
    for (op, name), total in tracer.counts.items():
        if op in scale:
            totals[name] += total
    stats.update({name: total / n for name, total in totals.items()})
    return stats


def root_busy_ms(tracer: Tracer) -> dict[int, float]:
    """Wall time covered by each operation's top-level spans, in ms."""
    out = defaultdict(float)
    for name, start, end, parent, op in tracer.spans:
        if parent < 0:
            out[op] += (end - start) / 1e6
    return dict(out)


_IMPORT_LINE = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|(\s*)(\S+)")


def import_split(stderr: str) -> dict[str, float]:
    """import.{numpy,scipy,sobstab}_ms from `python -X importtime` output.

    Each module's own import time goes to the nearest of numpy, scipy
    and sobstab on its import chain (itself included), so a stdlib module
    that only sobstab.cli pulls in counts as sobstab.
    """
    totals = {"numpy": 0.0, "scipy": 0.0, "sobstab": 0.0}
    entries = []
    for line in stderr.splitlines():
        m = _IMPORT_LINE.match(line)
        if m:
            entries.append((len(m.group(3)), m.group(4).split(".")[0], int(m.group(1)) / 1000.0))
    # importtime prints a module after the imports nested in it; walking
    # backwards reaches every module after its ancestors.
    ancestors = []  # (depth, owning package or None)
    for depth, pkg, self_ms in reversed(entries):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        owner = pkg if pkg in totals else (ancestors[-1][1] if ancestors else None)
        if owner is not None:
            totals[owner] += self_ms
        ancestors.append((depth, owner))
    return {f"import.{pkg}_ms": ms for pkg, ms in totals.items()}


def median_split(splits: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(s[key] for s in splits) for key in splits[0]} if splits else {}

"""Command-line front end: constant tables, stability scans, weak-norm checks.

Subcommands: constants | eigenvalues | deficit-scan | alpha-estimate |
verify-theorem2 | export-function.  Every command accepts a key=value
config file (values overridden by flags), honors --seed whenever
randomness is involved, prints floats with 12 significant digits, and
uses the exit codes 0 (success), 2 (usage), 3 (numerical refusal: a
result the discretization cannot resolve, such as a spectral truncation
too coarse or a stability ratio whose deficit rounds to zero), 4
(invariant violation detected).
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import sys
from json.encoder import encode_basestring_ascii as _json_str
from typing import TYPE_CHECKING, Optional

# Each command imports the numerical modules it runs, so that a call
# loads no module (numpy among them) that its command does not use.
from ._util import PROFILE_GRAMMAR, RefusalError, fmt12, round_floats
from .specfun import (SobolevParams, compute_constants, eigenvalue, local_constant, multiplicity,
                      sharp_constant, unit_ball_radius)

if TYPE_CHECKING:
    from .deficit import ScanConfig, ScanResult

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_REFUSAL = 3
EXIT_INVARIANT = 4


def _write_output(text: str, out: Optional[str]) -> None:
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise _UsageError(f"{out}: cannot write output ({exc.strerror})") from None
    else:
        sys.stdout.write(text)


def _json_text(obj) -> str:
    return json.dumps(round_floats(obj), indent=2) + "\n"


def _jsonl_line(obj) -> str:
    return json.dumps(round_floats(obj)) + "\n"


_RECORD = ('{"index": %d, "family": %s, "label": %s, "skipped": false, "norm_star_sq": %s, '
           '"lq_norm": %s, "deficit": %s, "distance": %s, "nearest": %s, "ratio": %s, '
           '"boundary_hit": %s}\n')
_NEAREST = '{"c": %s, "t0": %s}'
_SKIPPED = '{"index": %d, "family": %s, "label": %s, "skipped": true}\n'


def _member_records(entries) -> list[str]:
    """The deficit-scan member records as `_jsonl_line` prints them: the record schema.

    Each line is json.dumps(round_floats(record)) of its record, in one pass
    over all of them: one '%.12g' formatting rounds every number, and each
    number prints as its text.  That text is the `repr` of the rounded
    float but for notation: no two decimals of at most 15 significant
    digits round to one normal double, so the shortest round-trip digits
    are the 12-digit ones.  An integral text gets the '.0' that `repr`
    appends; json.dumps of the float prints an 'e+' exponent (`repr` writes
    1e12 <= |x| < 1e16 in fixed notation), nan and inf, and a three-digit
    negative exponent (a subnormal keeps fewer digits).
    """
    numbers = [x for *_, r in entries if r is not None
               for x in (r.norm_star_sq, r.lq_norm, r.deficit, r.distance,
                         *(r.nearest or (0.0, 0.0)), r.ratio)]
    texts = [t if "e" not in t and "." in t
             else json.dumps(float(t)) if "e+" in t or "n" in t or t[-5:-2] == "e-3"
             else t if "e" in t else t + ".0"
             for t in ("%.12g " * len(numbers) % tuple(numbers)).split()]
    lines, at = [], 0
    for index, family, label, r in entries:
        if r is None:
            lines.append(_SKIPPED % (index, _json_str(family), _json_str(label)))
            continue
        ns2, lq, psi, d, c, t0, ratio = texts[at:at + 7]
        at += 7
        near = "null" if r.nearest is None else _NEAREST % (c, t0)
        lines.append(_RECORD % (index, _json_str(family), _json_str(label), ns2, lq, psi, d,
                                near, ratio, "true" if r.boundary_hit else "false"))
    return lines


def _summary(result: ScanResult) -> dict:
    """A scan's summary record: `alpha-estimate` prints it, `deficit-scan` extends it."""
    return {"alpha_hat": result.alpha_hat, "local_constant": result.local_constant,
            "n_members": result.n_members, "seed": result.seed, "n_skipped": result.n_skipped}


def _params(args) -> SobolevParams:
    if args.N is None or args.s is None:
        raise _UsageError("--N and --s are required (flags or config file)")
    return SobolevParams(args.N, args.s)


class _UsageError(ValueError):
    pass


def _csv(text: str, kind: type = float) -> tuple:
    try:
        return tuple(kind(x) for x in text.split(",") if x.strip())
    except ValueError as exc:
        what = "integer" if kind is int else "numeric"
        raise _UsageError(f"bad {what} list {text!r}: {exc}") from None


def _eigen_rows(p: SobolevParams, kmax: int) -> list[dict]:
    if kmax < 0:
        raise _UsageError(f"--kmax must be >= 0, got {kmax}")
    return [{"k": k, "lambda": eigenvalue(p, k), "multiplicity": multiplicity(p.N, k)}
            for k in range(kmax + 1)]


def _write_table(args, doc: dict, header: tuple, rows: list[tuple], line) -> None:
    """Write `doc` as JSON, `rows` as CSV under `header`, or each row as text `line(*row)`."""
    if args.format == "json":
        text = _json_text(doc)
    elif args.format == "csv":
        import csv
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows([header, *rows])
        text = buf.getvalue()
    else:
        text = "".join(line(*row) for row in rows)
    _write_output(text, args.out)


def _constants_line(name: str, value) -> str:
    # an eigenvalue and its multiplicity share one text line
    if name.startswith("lambda_"):
        return f"{name:<16s} {value}"
    if name.startswith("multiplicity_"):
        return f"  (multiplicity {value})\n"
    return f"{name:<16s} {value}\n"


# --- subcommand implementations ---


def cmd_constants(args) -> int:
    p = _params(args)
    eigen = _eigen_rows(p, args.kmax)
    weak = compute_constants(p)._asdict()
    doc = {
        "N": p.N,
        "s": p.s,
        "q": p.q,
        "sharp_constant": sharp_constant(p),
        "local_constant": local_constant(p),
        "eigenvalues": eigen,
        "weak_norm_constants": weak,
    }
    rows = [("N", p.N), *((name, fmt12(doc[name]))
                          for name in ("s", "q", "sharp_constant", "local_constant"))]
    for row in eigen:
        rows += [(f"lambda_{row['k']}", fmt12(row["lambda"])),
                 (f"multiplicity_{row['k']}", row["multiplicity"])]
    rows += [(name, fmt12(value)) for name, value in weak.items()]
    _write_table(args, doc, ("name", "value"), rows, _constants_line)
    return EXIT_OK


def cmd_eigenvalues(args) -> int:
    p = _params(args)
    eigen = _eigen_rows(p, args.kmax)
    rows = [(row["k"], fmt12(row["lambda"]), row["multiplicity"]) for row in eigen]
    _write_table(args, {"N": p.N, "s": p.s, "eigenvalues": eigen}, ("k", "lambda", "multiplicity"),
                 rows, "{:<4} {:<20} {}\n".format)
    return EXIT_OK


# The seeded commands, with their help; every other command ignores --seed with a note.
_SCAN_COMMANDS = {"deficit-scan": "seeded stability scan (JSON lines)",
                  "alpha-estimate": "summary record of a stability scan"}

# Their flags: (flag, ScanConfig field, type, item type of a comma-separated list, help).
_SCAN_FLAGS = (
    ("--K", "K", int, None, "truncation degree"),
    ("--M", "M", int, None, "quadrature nodes (default 2K+2)"),
    ("--n-normal", "n_normal", int, None, "random normal-space members per epsilon"),
    ("--n-random", "n_random", int, None, "random coefficient-vector members"),
    ("--eps", "eps_grid", str, float, "epsilon grid for near-manifold members"),
    ("--modes", "normal_modes", str, int, "deterministic pure normal modes"),
    ("--bubbles", "bubble_t0", str, float, "two-bubble separation parameters t0"),
    ("--max-degree", "random_max_degree", int, None, "highest random coefficient degree"),
)


def _scan_config(args) -> ScanConfig:
    """The scan of the given flags; a flag not given keeps its ScanConfig default."""
    from .deficit import ScanConfig

    if args.seed is None:
        raise _UsageError("a --seed is required for scan commands")
    given = {}
    for flag, field, _, item, _ in _SCAN_FLAGS:
        value = getattr(args, flag[2:].replace("-", "_"))  # argparse's dest
        if value is not None:
            given[field] = value if item is None else _csv(value, item)
    return ScanConfig(seed=args.seed, **given)


def cmd_deficit_scan(args) -> int:
    from .deficit import T0_CAP, run_scan

    p = _params(args)
    cfg = _scan_config(args)
    result = run_scan(p, cfg)
    lines = _member_records(result.entries)
    lines.append(_jsonl_line({**_summary(result), "families": cfg.families, "K": cfg.K,
                              "M": cfg.rule_size, "t0_cap": T0_CAP}))
    _write_output("".join(lines), args.out)
    return EXIT_INVARIANT if result.violation else EXIT_OK


def cmd_alpha_estimate(args) -> int:
    from .deficit import run_scan

    result = run_scan(_params(args), _scan_config(args))
    _write_output(_json_text(_summary(result)), args.out)
    return EXIT_INVARIANT if result.violation else EXIT_OK


def cmd_verify_theorem2(args) -> int:
    from .conformal import parse_profile
    from .weaknorm import verify_theorem2

    p = _params(args)
    wc = compute_constants(p)
    if args.profiles:
        profile_specs = [s.strip() for s in args.profiles.split(";") if s.strip()]
    else:
        r0 = unit_ball_radius(p.N)
        profile_specs = [f"bump:{r0!r},{sharp}" for sharp in (1.0, 2.0, 4.0)]
    if not profile_specs:
        raise _UsageError("no profiles selected")
    given = {key: value for key, value in (("K", args.K), ("n_cells", args.cells))
             if value is not None}
    cases = [verify_theorem2(parse_profile(spec_text, p), **given)
             for spec_text in profile_specs]
    doc = {"N": p.N, "s": p.s, "rho": wc.rho, "C1": wc.C1, "C2": wc.C2, "C0": wc.C0, "C": wc.C,
           "cases": [{"profile": c.profile, "lhs": c.lhs, "rhs": c.rhs, "margin": c.margin,
                      "weak_norm": c.weak, "omega_measure": c.omega_measure} for c in cases]}
    _write_output(_json_text(doc), args.out)
    return EXIT_INVARIANT if any(case.violated for case in cases) else EXIT_OK


def cmd_export_function(args) -> int:
    from .conformal import parse_profile, pullback_to_sphere
    from .zonal import default_rule, gauss_jacobi_rule

    p = _params(args)
    if args.profile is None:
        raise _UsageError("--profile is required (flag or config file)")
    profile = parse_profile(args.profile, p)
    rule = default_rule(p.N, args.K) if args.M is None else gauss_jacobi_rule(p.N, args.M)
    u = pullback_to_sphere(profile, rule, args.K)
    _write_output(_json_text({"N": p.N, "s": p.s, "K": u.K, "coeffs": u.coeffs.tolist()}),
                  args.out)
    return EXIT_OK


# --- parser / config plumbing ---


def _add_common(sub: argparse.ArgumentParser) -> None:
    # not argparse-required so they may come from a --config file instead
    sub.add_argument("--N", type=int, default=None, help="dimension (integer >= 1)")
    sub.add_argument("--s", type=float, default=None, help="order, 0 < s < N")
    sub.add_argument("--config", type=str, default=None,
                     help="key=value config file; flags override")
    sub.add_argument("--out", type=str, default=None, help="output path (default stdout)")
    sub.add_argument("--seed", type=int, default=None, help="RNG seed")


def build_parser() -> argparse.ArgumentParser:
    """The top-level parser with one subparser per command."""
    parser = argparse.ArgumentParser(
        prog="sobstab",
        description="Sharp fractional Sobolev constants, deficit scans, and "
                    "weak-norm remainder checks.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        sub = subs.add_parser(name, help=help_text)
        _add_common(sub)
        return sub

    for name, help_text, kmax_help in (
            ("constants", "table of all closed-form constants", "highest eigenvalue index"),
            ("eigenvalues", "operator eigenvalues and multiplicities", None)):
        sub = add(name, help_text)
        sub.add_argument("--kmax", type=int, default=10, help=kmax_help)
        sub.add_argument("--format", choices=("text", "json", "csv"), default="text")

    for name, help_text in _SCAN_COMMANDS.items():
        sub = add(name, help_text)
        # no defaults: a flag not given keeps the ScanConfig field default
        for flag, _, kind, _, flag_help in _SCAN_FLAGS:
            sub.add_argument(flag, type=kind, help=flag_help)

    sub = add("verify-theorem2", "weak-norm remainder bound harness")
    # no defaults: a flag not given keeps the verify_theorem2 default
    sub.add_argument("--K", type=int, help="truncation degree")
    sub.add_argument("--profiles", type=str, default=None,
                     help=f"semicolon-separated profiles ({PROFILE_GRAMMAR}); "
                          "default: bump family on the unit-measure ball")
    sub.add_argument("--cells", type=int, help="radial cells for the weak norm")

    sub = add("export-function", "zonal expansion of a radial profile as JSON")
    sub.add_argument("--profile", type=str, default=None, help=PROFILE_GRAMMAR)
    sub.add_argument("--K", type=int, default=64)
    sub.add_argument("--M", type=int, default=None)

    return parser


# One parser per process, built on first use: parsing does not change it.
_parser = functools.cache(build_parser)


def _load_config(path: str) -> dict[str, str]:
    """The key=value pairs of a config file, keys with '-' read as '_'."""
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise _UsageError(f"{path}: cannot read config file ({exc.strerror})") from None
    values = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise _UsageError(f"{path}:{lineno}: expected key=value, got {raw.rstrip()!r}")
        key, value = line.split("=", 1)
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def main(argv: Optional[list[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _parser()
    try:
        args = parser.parse_args(argv)
        if args.config is not None:
            values = _load_config(args.config)
            for key in values:
                if key not in vars(args) or key in ("command", "config"):
                    raise _UsageError(f"{args.config}: unknown config key {key!r}")
            # Config values become flags placed right after the command, so
            # they pass the same type and choices checks as typed flags, and
            # the flags typed after them override them.
            at = argv.index(args.command) + 1
            flags = [f"--{key.replace('_', '-')}={value}" for key, value in values.items()]
            try:
                args = parser.parse_args(argv[:at] + flags + argv[at:])
            except SystemExit as exc:
                if exc.code:
                    print(f"note: {args.config} supplies {' '.join(flags)}", file=sys.stderr)
                raise
        if args.command not in _SCAN_COMMANDS and args.seed is not None:
            print("note: --seed ignored (command has no randomness)", file=sys.stderr)
        # looked up per call, so that a replaced cmd_* function is the one that runs
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except SystemExit as exc:  # from argparse: 2 on a bad flag or value, 0 after --help
        return exc.code
    except RefusalError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_REFUSAL
    except MemoryError as exc:  # a --K or --M too large to allocate for
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:  # _UsageError among them
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":  # `python -m sobstab.cli`; the commands load numpy in main
    from .__main__ import use_one_blas_thread

    use_one_blas_thread()
    sys.exit(main())

"""Small numpy-free helpers: derivative-free 1-D search, float formatting, CLI vocabulary."""

from __future__ import annotations

import math
from typing import Callable

__all__ = ["golden_section_min", "RefusalError", "PROFILE_GRAMMAR", "fmt12", "round_floats"]

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0  # 1/phi
_INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0  # 1/phi^2

# The grammar of conformal.parse_profile, here so that the CLI's help loads no numpy.
PROFILE_GRAMMAR = (
    "gaussian[:width] | bump[:radius[,sharpness]] | extremizer[:scale] | "
    "mollified_extremizer[:scale[,radius]]"
)


class RefusalError(Exception):
    """A result the discretization cannot resolve; the CLI refuses it (exit 3)."""


def golden_section_min(f: Callable[[float], float], a: float, b: float,
                       tol: float) -> tuple[float, float]:
    """Minimize f on [a, b] by golden-section search.

    Returns (x, f(x)) with the bracket shrunk to at most tol.  Deterministic:
    the evaluation sequence depends only on (a, b, tol) and the values of f.
    tol must exceed 16 ulps of the bracket's ends: then rounding moves a
    point by too little to matter, every step shrinks the bracket to at
    most 3/4 of its width whatever f returns (NaN included), and the
    search ends within ceil(log((b - a) / tol) / log(4/3)) steps.
    """
    if not b > a:
        raise ValueError(f"empty bracket [{a}, {b}]")
    if not tol > 16 * math.ulp(max(abs(a), abs(b))):
        raise ValueError(f"tol={tol} is within 16 ulps of the bracket [{a}, {b}]")
    h = b - a
    c = a + _INVPHI2 * h
    d = a + _INVPHI * h
    fc, fd = f(c), f(d)
    while h > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            h = b - a
            c = a + _INVPHI2 * h
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            h = b - a
            d = a + _INVPHI * h
            fd = f(d)
    if fc < fd:
        return c, fc
    return d, fd


def fmt12(x: float) -> str:
    """Render a float with 12 significant digits (cross-run diffable)."""
    return format(x, ".12g")


def round_floats(obj):
    """Recursively round floats in a JSON-ready structure to 12 significant digits."""
    if isinstance(obj, float):
        return float(fmt12(obj))
    if isinstance(obj, dict):
        return {k: round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round_floats(v) for v in obj]
    return obj

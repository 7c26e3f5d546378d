"""Small numpy-free helpers: derivative-free 1-D search, float formatting, CLI vocabulary."""

from __future__ import annotations

import math
from typing import Callable

__all__ = ["golden_section_min", "OptimizerError", "RefusalError", "PROFILE_GRAMMAR", "fmt12",
           "round_floats"]

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0  # 1/phi
_INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0  # 1/phi^2

# The grammar of conformal.parse_profile, here so that the CLI's help loads no numpy.
PROFILE_GRAMMAR = (
    "gaussian[:width] | bump[:radius[,sharpness]] | extremizer[:scale] | "
    "mollified_extremizer[:scale[,radius]]"
)


class RefusalError(Exception):
    """A result the discretization cannot resolve; the CLI refuses it (exit 3)."""


class OptimizerError(RuntimeError):
    """1-D search did not reach the requested tolerance; carries best-so-far."""

    def __init__(self, message: str, best_x: float, best_f: float):
        super().__init__(message)
        self.best_x = best_x
        self.best_f = best_f


def golden_section_min(f: Callable[[float], float], a: float, b: float,
                       tol: float = 1e-10, max_iter: int = 200) -> tuple[float, float]:
    """Minimize f on [a, b] by golden-section search.

    Returns (x, f(x)) with the bracket shrunk below tol.  Deterministic:
    the evaluation sequence depends only on (a, b, tol).  Raises
    OptimizerError carrying the best point seen if max_iter is exhausted
    before the bracket closes.
    """
    if not b > a:
        raise ValueError(f"empty bracket [{a}, {b}]")
    h = b - a
    c = a + _INVPHI2 * h
    d = a + _INVPHI * h
    fc, fd = f(c), f(d)
    n = 0
    while h > tol:
        if n >= max_iter:
            if fc < fd:
                raise OptimizerError("golden-section search exhausted max_iter", c, fc)
            raise OptimizerError("golden-section search exhausted max_iter", d, fd)
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
        n += 1
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

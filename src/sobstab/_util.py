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


class Frozen:
    """Immutable __slots__ base: `__init__` sets each slot once, by `_set`; equal to itself only.

    The public slots, in order, are the arguments of `__init__`: copies and
    pickles are rebuilt through it, so they are checked (and their arrays
    made read-only) as any new instance is.
    """

    __slots__ = ()

    def _set(self, **slots) -> None:
        for name, value in slots.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable; {name!r} cannot change")

    __delattr__ = __setattr__

    def _public(self) -> list[tuple[str, object]]:
        return [(n, getattr(self, n)) for n in self.__slots__ if not n.startswith("_")]

    def __reduce__(self):
        return type(self), tuple(value for _, value in self._public())

    def __repr__(self) -> str:
        fields = (f"{n}={value!r}" for n, value in self._public())
        return f"{type(self).__name__}({', '.join(fields)})"


def checked_make(cls, iterable):
    """A NamedTuple `_make` that builds through `cls.__new__`, so `_replace` checks too."""
    return cls(*iterable)


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

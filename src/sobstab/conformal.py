"""Stereographic transport between radial functions on R^N and zonal ones on S^N.

The inverse stereographic projection sends |x| = r to the latitude
t = (1 - r^2)/(1 + r^2).  Pulling a function back with the conformal
Jacobian factor J^(1/q) preserves both the L^q norm and the operator
norm ||.||_*, which is what makes the sphere picture usable as the
definition of the R^N seminorm here.  The extremizer family becomes the
axial manifold u_{c,t0}(t) = c (1 - t0 t)^(-(N-s)/2).
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from ._util import PROFILE_GRAMMAR, Frozen, RefusalError, checked_make
from .specfun import SobolevParams, _in_range
from .zonal import QuadratureRule, ZonalFunction, analyze

__all__ = [
    "ManifoldPoint",
    "RadialFunction",
    "pullback_to_sphere",
    "manifold_samples",
    "gaussian_profile",
    "bump_profile",
    "extremizer_profile",
    "mollified_extremizer_profile",
    "parse_profile",
    "PROFILE_GRAMMAR",
]


class ManifoldPoint(NamedTuple("ManifoldPoint", [("c", float), ("t0", float)])):
    """Axial extremizer u_{c,t0}(t) = c (1 - t0 t)^(-(N-s)/2); c != 0, |t0| < 1."""

    __slots__ = ()
    _make = classmethod(checked_make)

    def __new__(cls, c: float, t0: float) -> ManifoldPoint:
        if c == 0.0:
            raise ValueError("amplitude c must be nonzero")
        if not abs(t0) < 1.0:
            raise ValueError(f"axial parameter must satisfy |t0| < 1, got {t0}")
        return super().__new__(cls, c, t0)


class RadialFunction(Frozen):
    """Radial profile r -> u(r) on R^N, zero beyond support_radius (may be inf).

    Immutable and equal only to itself.
    """

    __slots__ = ("params", "profile", "support_radius", "name")

    def __init__(self, params: SobolevParams, profile: Callable[[np.ndarray], np.ndarray],
                 support_radius: float = math.inf, name: str = "") -> None:
        if not support_radius > 0:
            raise ValueError("support_radius must be positive")
        self._set(params=params, profile=profile, support_radius=support_radius, name=name)

    def __call__(self, r) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        inside = r < self.support_radius
        out = np.zeros(r.shape)
        if np.any(inside):
            out[inside] = self.profile(r[inside])
        return out


def pullback_to_sphere(u: RadialFunction, rule: QuadratureRule, K: int) -> ZonalFunction:
    """Zonal v with J^(1/q) v(pi(x)) = u(x); preserves ||.||_* and the L^q norm.

    Sampled at the radii r = sqrt((1-t)/(1+t)) of the node latitudes t and
    projected to degree K.
    The conformal factor ((1+r^2)/2)^((N-s)/2) equals (1+t)^(-(N-s)/2).
    A power that overflows in the profile rounds its sample to 0.0, as it
    should; a profile that is 0.0 at every node is one the rule cannot see,
    and is refused (RefusalError).
    """
    p = u.params
    t = rule.nodes
    with np.errstate(over="ignore"):
        vals = (1.0 + t) ** -p.beta * u(np.sqrt((1.0 - t) / (1.0 + t)))
    if not np.all(np.isfinite(vals)):
        raise ValueError("profile produced non-finite samples at quadrature nodes")
    if not vals.any():
        raise RefusalError(f"profile {u.name or 'radial'} is 0.0 at all {rule.M} quadrature "
                           "nodes, so the rule cannot resolve it")
    return analyze(p, vals, rule, K)


def manifold_samples(params: SobolevParams, c: float, t0: float, t) -> np.ndarray:
    """Pointwise values c (1 - t0 t)^(-(N-s)/2) of the axial extremizer."""
    if not abs(t0) < 1.0:
        raise ValueError(f"axial parameter must satisfy |t0| < 1, got {t0}")
    return c * (1.0 - t0 * np.asarray(t, dtype=float)) ** -params.beta


# --- named radial profiles (CLI grammar: name or name:param[,param...]) ---


def gaussian_profile(params: SobolevParams, width: float = 1.0) -> RadialFunction:
    """exp(-width r^2); infinite support."""
    if not width > 0:
        raise ValueError("gaussian width must be positive")
    return RadialFunction(params, lambda r: np.exp(-width * r * r),
                          name=f"gaussian:{width:g}")


def bump_profile(params: SobolevParams, radius: float = 1.0,
                 sharpness: float = 1.0) -> RadialFunction:
    """Smooth bump exp(-sharpness/(1 - (r/radius)^2)) supported on r < radius."""
    if not (radius > 0 and sharpness > 0):
        raise ValueError("bump radius and sharpness must be positive")

    def profile(r: np.ndarray) -> np.ndarray:
        rho2 = (r / radius) ** 2
        return np.exp(-sharpness / (1.0 - rho2))

    return RadialFunction(params, profile, support_radius=radius,
                          name=f"bump:{radius:g},{sharpness:g}")


def extremizer_profile(params: SobolevParams, scale: float = 1.0) -> RadialFunction:
    """Rescaled extremizer scale * (1 + (mu r)^2)^(-(N-s)/2) with mu = scale^(2/(N-s)).

    A scale, or its mu, that is not a normal double is refused (RefusalError).
    """
    if not scale > 0:
        raise ValueError("extremizer scale must be positive")
    beta = params.beta
    try:
        mu = scale ** (1.0 / beta)
    except OverflowError:
        mu = math.inf
    _in_range(mu, "the dilation scale^(2/(N-s)) of extremizer:{:g}", scale)
    _in_range(scale, "the scale of extremizer:{:g}", scale)
    return RadialFunction(params, lambda r: scale * (1.0 + (mu * r) ** 2) ** -beta,
                          name=f"extremizer:{scale:g}")


def mollified_extremizer_profile(params: SobolevParams, scale: float = 1.0,
                                 radius: float = 1.0) -> RadialFunction:
    """Extremizer times the flat cutoff exp(-(r/radius)^2/(1-(r/radius)^2)).

    Smooth, compactly supported on r < radius; near-extremal for large radius.
    """
    if not radius > 0:
        raise ValueError(f"mollified_extremizer radius must be positive, got {radius:g}")
    base = extremizer_profile(params, scale)

    def profile(r: np.ndarray) -> np.ndarray:
        rho2 = (r / radius) ** 2
        return base.profile(r) * np.exp(-rho2 / (1.0 - rho2))

    return RadialFunction(params, profile, support_radius=radius,
                          name=f"mollified_extremizer:{scale:g},{radius:g}")


_PROFILE_BUILDERS = {
    "gaussian": gaussian_profile,
    "bump": bump_profile,
    "extremizer": extremizer_profile,
    "mollified_extremizer": mollified_extremizer_profile,
}


def parse_profile(text: str, params: SobolevParams) -> RadialFunction:
    """Build a named radial profile from 'name' or 'name:p1[,p2...]'."""
    name, _, args = text.partition(":")
    name = name.strip()
    builder = _PROFILE_BUILDERS.get(name)
    if builder is None:
        raise ValueError(f"unknown profile {name!r}; grammar: {PROFILE_GRAMMAR}")
    values = []
    if args.strip():
        try:
            values = [float(a) for a in args.split(",")]
        except ValueError as exc:
            raise ValueError(f"bad profile parameters in {text!r}: {exc}") from None
    try:
        return builder(params, *values)
    except TypeError:
        raise ValueError(f"wrong number of parameters in {text!r}; grammar: {PROFILE_GRAMMAR}") from None

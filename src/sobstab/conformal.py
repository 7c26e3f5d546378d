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

from ._util import PROFILE_GRAMMAR, Frozen, checked_make
from .specfun import SobolevParams
from .zonal import QuadratureRule, ZonalFunction, analyze, synthesize

__all__ = [
    "ManifoldPoint",
    "RadialFunction",
    "stereo_radius",
    "latitude_of_radius",
    "pullback_to_sphere",
    "radial_node_weights",
    "manifold_samples",
    "manifold_zonal",
    "conformal_shift",
    "dilate",
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


def stereo_radius(t: float) -> float:
    """Radius r = sqrt((1-t)/(1+t)) whose stereographic image has latitude t.

    t = 1 is the pole (r = 0); t = -1 is the point at infinity and returns
    math.inf.  Inverse of latitude_of_radius.
    """
    if t < -1.0 or t > 1.0:
        raise ValueError(f"latitude outside [-1, 1]: {t}")
    if t == -1.0:
        return math.inf
    return math.sqrt((1.0 - t) / (1.0 + t))


def latitude_of_radius(r: float) -> float:
    """Latitude t = (1 - r^2)/(1 + r^2) of the stereographic image of radius r."""
    if r < 0:
        raise ValueError(f"radius must be >= 0, got {r}")
    if math.isinf(r):
        return -1.0
    return (1.0 - r * r) / (1.0 + r * r)


def radial_node_weights(rule: QuadratureRule) -> np.ndarray:
    """Weights W_i with sum_i W_i f(r_i) = integral of f(|x|) over R^N.

    The sphere rule transported through the stereographic change of
    variables; the Jacobian (2/(1+r^2))^N equals (1+t)^N at latitude t.
    """
    return rule.weights * (1.0 + rule.nodes) ** (-rule.N)


def pullback_to_sphere(u: RadialFunction, rule: QuadratureRule, K: int) -> ZonalFunction:
    """Zonal v with J^(1/q) v(pi(x)) = u(x); preserves ||.||_* and the L^q norm.

    Sampled at the nodes' radii (stereo_radius) and projected to degree K.
    The conformal factor ((1+r^2)/2)^((N-s)/2) equals (1+t)^(-(N-s)/2).
    """
    p = u.params
    t = rule.nodes
    vals = (1.0 + t) ** -p.beta * u(np.sqrt((1.0 - t) / (1.0 + t)))
    if not np.all(np.isfinite(vals)):
        raise ValueError("profile produced non-finite samples at quadrature nodes")
    return analyze(p, vals, rule, K)


def manifold_samples(params: SobolevParams, c: float, t0: float, t) -> np.ndarray:
    """Pointwise values c (1 - t0 t)^(-(N-s)/2) of the axial extremizer."""
    if not abs(t0) < 1.0:
        raise ValueError(f"axial parameter must satisfy |t0| < 1, got {t0}")
    return c * (1.0 - t0 * np.asarray(t, dtype=float)) ** -params.beta


def manifold_zonal(params: SobolevParams, point: ManifoldPoint,
                   rule: QuadratureRule, K: int) -> ZonalFunction:
    """Degree-K expansion of the axial extremizer u_{c,t0}.

    Coefficients decay geometrically in k (the nearest singularity sits at
    t = 1/t0), so the truncation saturates the equality case of the sharp
    inequality for moderate K.
    """
    vals = manifold_samples(params, point.c, point.t0, rule.nodes)
    return analyze(params, vals, rule, K)


def conformal_shift(u: ZonalFunction, t0: float, rule: QuadratureRule, K: int) -> ZonalFunction:
    """Axial conformal transform u -> J^(1/q) u(tau(.)), re-expanded at degree K.

    tau moves the latitude by the Moebius map t -> (t - t0)/(1 - t0 t)
    (the sphere conjugate of an R^N dilation) and the Jacobian factor is
    J^(1/q) = (1 - t0^2)^((N-s)/4) (1 - t0 t)^(-(N-s)/2).  Preserves
    ||.||_* and |.|_q up to truncation error, and maps the axial manifold
    into itself; t0 = 0 is the identity.
    """
    if not abs(t0) < 1.0:
        raise ValueError(f"axial parameter must satisfy |t0| < 1, got {t0}")
    p = u.params
    t = rule.nodes
    tau = (t - t0) / (1.0 - t0 * t)
    jac_q = (1.0 - t0 * t0) ** (0.5 * p.beta) * (1.0 - t0 * t) ** -p.beta
    return analyze(p, jac_q * synthesize(u, tau), rule, K)


def dilate(u: RadialFunction, lam: float) -> RadialFunction:
    """Norm-preserving rescaling u_lam(x) = lam * u(lam^(2/(N-s)) x)."""
    if not lam > 0:
        raise ValueError(f"dilation parameter must be positive, got {lam}")
    p = u.params
    mu = lam ** (1.0 / p.beta)
    return RadialFunction(
        params=p,
        profile=lambda r: lam * u.profile(mu * r),
        support_radius=u.support_radius / mu,
        name=f"dilate({u.name or 'profile'},{lam:g})",
    )


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
    """Rescaled extremizer scale * (1 + (scale^(2/(N-s)) r)^2)^(-(N-s)/2)."""
    if not scale > 0:
        raise ValueError("extremizer scale must be positive")
    beta = params.beta
    mu = scale ** (1.0 / beta)
    return RadialFunction(params, lambda r: scale * (1.0 + (mu * r) ** 2) ** -beta,
                          name=f"extremizer:{scale:g}")


def mollified_extremizer_profile(params: SobolevParams, scale: float = 1.0,
                                 radius: float = 1.0) -> RadialFunction:
    """Extremizer times the flat cutoff exp(-(r/radius)^2/(1-(r/radius)^2)).

    Smooth, compactly supported on r < radius; near-extremal for large radius.
    """
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

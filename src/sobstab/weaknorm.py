"""Weak L^(q/2) norms and the explicit remainder constants for bounded domains.

For 0 < s < N and q = 2N/(N-s), the weak norm of u on a finite-measure
set is sup_A |A|^(-s/N) int_A |u|.  For radial monotone |u| the sup runs
over centered balls (bathtub principle), which reduces everything to 1-D
radial integrals.  The module computes the chain of explicit constants
rho, C1, C2, C0, C = C0^(-2) entering the weak-norm remainder bound

    ||u||^2 - S |u|_q^2  >=  C |Omega|^(-2/q) |u|_w^2

for compactly supported u, and provides a verification harness evaluating
both sides for smooth radial test functions.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from ._util import RefusalError
from .conformal import RadialFunction, pullback_to_sphere
from .specfun import SobolevParams, _in_range, _sphere_area, log_gamma, sharp_constant
from .zonal import default_rule, lambdas, norm_lp, norm_star

__all__ = [
    "WeakNormConstants",
    "TruncationError",
    "Theorem2Case",
    "ball_volume",
    "unit_ball_radius",
    "weak_norm",
    "radial_cells",
    "extremizer_weak_norm",
    "extremizer_tail_lq",
    "compute_constants",
    "eq_rho_residual",
    "verify_theorem2",
]


class TruncationError(RefusalError, RuntimeError):
    """Spectral truncation too coarse for the requested computation."""


def ball_volume(N: int) -> float:
    """Volume of the unit ball in R^N."""
    return math.exp(0.5 * N * math.log(math.pi) - log_gamma(0.5 * N + 1.0))


def unit_ball_radius(N: int) -> float:
    """Radius r0 of the ball of measure 1 in R^N."""
    return ball_volume(N) ** (-1.0 / N)


@dataclass(frozen=True)
class WeakNormConstants:
    """The explicit constants of the weak-norm remainder bound.

    rho solves rho/(sqrt(S)(1-rho)) = (tail L^q mass of the extremizer
    outside the unit ball)^(1/q); C = C0^(-2) is the final constant.
    """

    rho: float
    r0: float
    extremizer_weak: float
    C1: float
    C2: float
    C0: float
    C: float

    def to_json_dict(self) -> dict:
        return asdict(self)


def weak_norm(values, measures, p: SobolevParams) -> float:
    """sup over prefix unions of |A|^(-s/N) int_A |u| for cell data.

    `values` are nonnegative cell averages of |u| and `measures` the
    positive cell measures.  Sorting the cells by value realizes the
    bathtub principle: the optimal A of each total measure is a superlevel
    set, so scanning prefixes of the sorted cells attains the sup over all
    unions of cells.  Empty input returns 0.
    """
    vals = np.asarray(values, dtype=float)
    meas = np.asarray(measures, dtype=float)
    if vals.size == 0:
        return 0.0
    if vals.shape != meas.shape:
        raise ValueError("values and measures must have the same shape")
    if np.any(meas <= 0.0):
        raise ValueError("cell measures must be positive")
    if np.any(vals < 0.0):
        raise ValueError("values must be nonnegative (pass |u|)")
    order = np.argsort(-vals, kind="stable")
    cum_measure = np.cumsum(meas[order])
    cum_mass = np.cumsum(vals[order] * meas[order])
    return float(np.max(cum_mass * cum_measure ** (-p.s / p.N)))


_gl_nodes = lru_cache(maxsize=None)(np.polynomial.legendre.leggauss)  # n -> (nodes, weights)


def extremizer_weak_norm(p: SobolevParams) -> float:
    """Weak L^(q/2) norm of the standard extremizer (1 + r^2)^(-(N-s)/2) on R^N.

    Its superlevel sets are centered balls, and the ball ratio
    |B_R|^(-s/N) int_{B_R} |u| rises with R, so the norm is its limit
    |S^(N-1)| |B_1|^(-s/N) / s as R -> infinity.  Proof: with
    beta = (N-s)/2 and I(R) = int_0^R (1 + r^2)^(-beta) r^(N-1) dr, the
    ratio's R-derivative has the sign of h(R) = R^N (1 + R^2)^(-beta) - s I(R),
    and h(0) = 0, h'(R) = (N-s) R^(N-1) (1 + R^2)^(-beta-1) > 0.
    """
    return _sphere_area(p.N - 1) * ball_volume(p.N) ** (-p.s / p.N) / p.s


def extremizer_tail_lq(p: SobolevParams, lam: float, r0: float) -> float:
    """L^q mass of the rescaled extremizer outside the ball of radius r0.

    Equals |S^(N-1)| int_{a}^inf r^(N-1) (1+r^2)^(-N) dr with
    a = lam^(2/(N-s)) r0.  The substitution r = cot(psi) turns the
    integrand into the bounded smooth function 2^(1-N) sin(2 psi)^(N-1)
    on [0, atan(1/a)], an interval free of the cancellation in
    pi/2 - atan(a) when a is large.  Fixed 64-point Gauss-Legendre
    resolves it to ~2e-14 relative for N <= 24 and a <= 1e3.
    """
    if not (lam > 0 and r0 > 0):
        raise ValueError("lam and r0 must be positive")
    N = p.N
    a = lam ** (2.0 / (N - p.s)) * r0
    half = 0.5 * math.atan(1.0 / a)
    gl_x, gl_w = _gl_nodes(64)
    psi = half * (1.0 + gl_x)
    val = half * float(gl_w @ np.sin(2.0 * psi) ** (N - 1))
    return _sphere_area(N - 1) * 2.0 ** (1 - N) * val


def compute_constants(p: SobolevParams) -> WeakNormConstants:
    """All explicit constants of the weak-norm remainder bound for (N, s).

    rho is solved in closed form (its defining equation is Moebius in
    rho), so the residual of the defining equation is pure roundoff.  The
    constants depend only on (N, s), never on a particular domain.  With
    x = tail^(1/q) sqrt(S), 1 - rho = 1/(1+x) keeps its digits as rho -> 1, and
    the bracket |S^(N-1)| / (N (2 r0)^N) is (2 r0^2)^(-N) as |B_1| r0^N = 1.
    """
    N, s, q = p.N, p.s, p.q

    def checked(name: str, value: float) -> float:  # refuses a value outside the normal doubles
        return _in_range(value, "{} at (N, s) = ({}, {})", name, N, s)

    sq_s = math.sqrt(sharp_constant(p))
    # the tail's |S^(N-1)| is refused before r0 divides by an underflowed |B_1|
    x = checked("the L^q tail", extremizer_tail_lq(p, 1.0, 1.0)) ** (1.0 / q) * sq_s
    r0 = checked("r0", unit_ball_radius(N))
    rho = checked("rho", x / (1.0 + x))
    c1 = checked("C1", sq_s / (1.0 + x) * (2.0 * r0 * r0) ** (-0.5 * (N - s)))
    u_weak = checked("the extremizer's weak norm", extremizer_weak_norm(p))
    c2 = checked("C2", (1.0 + rho) / c1 * u_weak + 1.0 / sq_s)
    c0 = checked("C0", max(c2, 1.0 / (rho * sq_s)))
    return WeakNormConstants(rho=rho, r0=r0, extremizer_weak=u_weak, C1=c1, C2=c2, C0=c0,
                             C=checked("C", c0 ** (-2.0)))


def eq_rho_residual(p: SobolevParams, constants: WeakNormConstants) -> float:
    """Residual rho/(sqrt(S)(1-rho)) - tail^(1/q) of the defining equation."""
    tail = extremizer_tail_lq(p, 1.0, 1.0)
    return (constants.rho / (math.sqrt(sharp_constant(p)) * (1.0 - constants.rho))
            - tail ** (1.0 / p.q))


def radial_cells(u: RadialFunction, n_cells: int = 2048,
                 r_max: Optional[float] = None) -> tuple[np.ndarray, np.ndarray]:
    """Cell averages of |u| and cell measures on a uniform radial grid.

    Cells are the annuli of a uniform partition of [0, r_max]; per-cell
    integrals use 8-point Gauss-Legendre, so the cell data reproduce the
    exact ball masses at the grid radii.
    """
    p = u.params
    if n_cells < 1:
        raise ValueError(f"the weak norm needs at least one radial cell, got {n_cells}")
    if r_max is None:
        if not math.isfinite(u.support_radius):
            raise ValueError("r_max required for profiles with unbounded support")
        r_max = u.support_radius
    edges = np.linspace(0.0, r_max, n_cells + 1)
    gl_x, gl_w = _gl_nodes(8)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    r = mid[:, None] + half[:, None] * gl_x[None, :]
    integrand = np.abs(u(r.ravel())).reshape(r.shape) * r ** (p.N - 1)
    cell_mass = _sphere_area(p.N - 1) * half * (integrand @ gl_w)
    measures = ball_volume(p.N) * np.diff(edges ** p.N)
    return cell_mass / measures, measures


@dataclass(frozen=True)
class Theorem2Case:
    """One verification case of the weak-norm remainder bound."""

    profile: str
    lhs: float
    rhs: float
    margin: float
    weak: float
    omega_measure: float
    norm_star_sq: float
    lq_norm: float

    @property
    def violated(self) -> bool:
        """True when the bound fails beyond roundoff: margin < -1e-6 lhs."""
        return self.margin < -1e-6 * self.lhs

    def to_json_dict(self) -> dict:
        return {
            "profile": self.profile,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "margin": self.margin,
            "weak_norm": self.weak,
            "omega_measure": self.omega_measure,
        }


def verify_theorem2(u: RadialFunction, K: int = 384, n_cells: int = 2048) -> Theorem2Case:
    """Evaluate both sides of the weak-norm remainder bound for one profile.

    The left side is the deficit of the degree-K sphere pullback on
    `default_rule(N, K)` (the transport is an isometry for both norms
    involved); the right side is C |Omega|^(-2/q) |u|_w^2 with Omega the
    support ball and |u|_w on `n_cells` radial cells.  Spectral truncation
    is refused when the top coefficient band exceeds 1e-6 of the norm.
    """
    p = u.params
    rule = default_rule(p.N, K)
    if not math.isfinite(u.support_radius):
        raise ValueError("verification requires a compactly supported profile")
    v = pullback_to_sphere(u, rule, K)
    ns2 = norm_star(v) ** 2
    # the share of ||v||_* in the top 8 coefficients
    frac = math.sqrt(float(lambdas(p, K)[-8:] @ (v.coeffs[-8:] ** 2)) / ns2) if ns2 else 0.0
    if frac > 1e-6:
        raise TruncationError(
            f"coefficient tail is {frac:.2e} of the norm; increase K (K={K})")
    lq = norm_lp(v, p.q, rule)
    lhs = ns2 - sharp_constant(p) * lq * lq
    values, measures = radial_cells(u, n_cells=n_cells)
    wk = weak_norm(values, measures, p)
    omega = ball_volume(p.N) * u.support_radius ** p.N
    rhs = compute_constants(p).C * omega ** (-2.0 / p.q) * wk * wk
    return Theorem2Case(
        profile=u.name or "radial",
        lhs=lhs,
        rhs=rhs,
        margin=lhs - rhs,
        weak=wk,
        omega_measure=omega,
        norm_star_sq=ns2,
        lq_norm=lq,
    )

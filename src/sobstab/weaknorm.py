"""Weak L^(q/2) norms and the explicit remainder constants for bounded domains.

For 0 < s < N and q = 2N/(N-s), the weak norm of u on a finite-measure
set is sup_A |A|^(-s/N) int_A |u|.  For radial monotone |u| the sup runs
over centered balls (bathtub principle), which reduces everything to 1-D
radial integrals.  The explicit constants rho, C1, C2, C0, C = C0^(-2) of
the weak-norm remainder bound

    ||u||^2 - S |u|_q^2  >=  C |Omega|^(-2/q) |u|_w^2

for compactly supported u are closed forms in `specfun`, bound here too.
This module provides a verification harness evaluating both sides for
smooth radial test functions.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

import numpy as np

from ._util import RefusalError
from .conformal import RadialFunction, pullback_to_sphere
# the closed forms are bound here too (not in __all__), for callers that look them up here
from .specfun import (SobolevParams, _in_range, _sphere_area, ball_volume, compute_constants,
                      extremizer_weak_norm)
from .zonal import _parts, _stacked, default_rule, gauss_jacobi_rule, lambdas

__all__ = [
    "TruncationError",
    "Theorem2Case",
    "weak_norm",
    "radial_cells",
    "verify_theorem2",
]


class TruncationError(RefusalError, RuntimeError):
    """Spectral truncation too coarse for the requested computation."""


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


def _gl_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre nodes and weights: the rule for N = 2, whose weight is |S^1|."""
    rule = gauss_jacobi_rule(2, n)
    return rule.nodes, rule.weights / _sphere_area(1)


def radial_cells(u: RadialFunction, n_cells: int = 2048,
                 r_max: Optional[float] = None) -> tuple[np.ndarray, np.ndarray]:
    """Cell averages of |u| and cell measures on a uniform radial grid.

    Cells are the annuli of a uniform partition of [0, r_max]; per-cell
    integrals use 8-point Gauss-Legendre, so the cell data reproduce the
    exact ball masses at the grid radii.  No numpy warning escapes: a cell
    whose measure underflows to 0.0 (`bump:1e-300,1`) averages NaN, and
    `weak_norm` refuses its measure.
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
    with np.errstate(all="ignore"):
        integrand = np.abs(u(r.ravel())).reshape(r.shape) * r ** (p.N - 1)
        cell_mass = _sphere_area(p.N - 1) * half * (integrand @ gl_w)
        measures = ball_volume(p.N) * np.diff(edges ** p.N)
        return cell_mass / measures, measures


class Theorem2Case(NamedTuple):
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


def verify_theorem2(u: RadialFunction, K: int = 384, n_cells: int = 2048) -> Theorem2Case:
    """Evaluate both sides of the weak-norm remainder bound for one profile.

    The left side is the deficit of the degree-K sphere pullback on
    `default_rule(N, K)` (the transport is an isometry for both norms
    involved); the right side is C |Omega|^(-2/q) |u|_w^2 with Omega the
    support ball and |u|_w on `n_cells` radial cells.  Spectral truncation
    is refused when the top coefficient band exceeds 1e-6 of the norm.
    The norms, the deficit and that share come from the pullback's
    unit-scale stack, as a scan member's do (`zonal._stacked`,
    `zonal._parts`), so no coefficient square underflows.
    Refused, in order: no compact support, then fewer than one cell
    (`radial_cells`), before the rule is built (ValueError); the coefficient
    tail; a cell measure that underflows (`weak_norm`); last, by a scan
    member's range rule, the first of norm_star_sq, lhs and rhs outside the
    normal doubles, such as the ||v||_*^2 of 0.0 of `bump:0.62,500` at (3, 2).
    """
    p = u.params
    if not math.isfinite(u.support_radius):
        raise ValueError("verification requires a compactly supported profile")
    values, measures = radial_cells(u, n_cells=n_cells)
    rule = default_rule(p.N, K)
    stack = _stacked(pullback_to_sphere(u, rule, K))
    ns, lq, lhs = (x.item() for x in _parts(stack, rule))
    # the share of ||v||_* in the top 8 coefficients
    top, star = stack[1][0, -8:], stack.star.item()
    frac = math.sqrt(float(lambdas(p, K)[-8:] @ (top * top)) / (star * star)) if star else 0.0
    if frac > 1e-6:
        raise TruncationError(
            f"coefficient tail is {frac:.2e} of the norm; increase K (K={K})")
    wk = weak_norm(values, measures, p)
    omega = ball_volume(p.N) * u.support_radius ** p.N
    rhs = compute_constants(p).C * omega ** (-2.0 / p.q) * wk * wk
    ns2, name = ns * ns, u.name or "radial"
    for what, value in (("norm_star_sq", ns2), ("lhs", lhs), ("rhs", rhs)):
        _in_range(value, "profile {}: {}", name, what)
    return Theorem2Case(
        profile=name,
        lhs=lhs,
        rhs=rhs,
        margin=lhs - rhs,
        weak=wk,
        omega_measure=omega,
        norm_star_sq=ns2,
        lq_norm=lq,
    )

"""Deficit functional, distance to the extremizer family, and stability scans.

The deficit Psi(u) = ||u||_*^2 - S |u|_q^2 vanishes exactly on the
extremizer manifold and controls the squared distance to it from both
sides.  This module evaluates Psi and its first two derivative forms,
computes the distance to the axial manifold slice (an upper bound for
the full distance, exact within the axial family), and estimates the
stability constant empirically as the minimum deficit/distance^2 ratio
over seeded scan families.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Optional

import numpy as np

from ._util import OptimizerError, RefusalError, golden_section_min
from .conformal import ManifoldPoint, manifold_samples
from .specfun import SobolevParams, local_constant, sharp_constant
from .zonal import (
    QuadratureRule,
    ZonalFunction,
    analyze,
    constant,
    gauss_jacobi_rule,
    inner_star,
    lambdas,
    node_values,
    norm_lp,
    norm_star,
)

__all__ = [
    "OnManifoldError",
    "OptimizerError",
    "T0_CAP",
    "DeficitReport",
    "ScanConfig",
    "ScanResult",
    "deficit",
    "gradient_form",
    "hessian_form",
    "distance",
    "stability_ratio",
    "scan_members",
    "run_scan",
    "estimate_alpha",
]

logger = logging.getLogger(__name__)


class OnManifoldError(RefusalError, ValueError):
    """Stability ratio requested for a function lying on the manifold."""


# Fixed settings: the t0 search of `distance` and the random scan members.
T0_CAP = 0.95
_T0_TOL = 1e-10
# sorted() of a set, not np.unique, which imports numpy.ma
_T0_GRID = np.array(sorted({*np.linspace(-T0_CAP, T0_CAP, 49).tolist(),
                            -0.8, -0.4, 0.0, 0.4, 0.8}))
_T0_GRID.setflags(write=False)
_T0_BOUNDS = tuple(_T0_GRID.tolist())  # the bracket bounds as floats
_MEMO_BYTES = 2**20  # bound on the g rows an extremizer table memoizes
_RANDOM_DECAY = 0.75  # random members' degree-k coefficients scale as _RANDOM_DECAY**k


@dataclass(frozen=True)
class DeficitReport:
    """Deficit, axial distance (an upper bound for the true one), and their ratio."""

    norm_star_sq: float
    lq_norm: float
    deficit: float
    distance: float
    nearest: Optional[ManifoldPoint]
    ratio: Optional[float]
    boundary_hit: bool = False

    def to_json_dict(self) -> dict:
        return {
            "norm_star_sq": self.norm_star_sq,
            "lq_norm": self.lq_norm,
            "deficit": self.deficit,
            "distance": self.distance,
            "nearest": None if self.nearest is None
            else {"c": self.nearest.c, "t0": self.nearest.t0},
            "ratio": self.ratio,
            "boundary_hit": self.boundary_hit,
        }


def deficit(u: ZonalFunction, rule: QuadratureRule) -> float:
    """Psi(u) = ||u||_*^2 - S |u|_q^2; nonnegative, zero on the manifold."""
    ns = norm_star(u)
    lq = norm_lp(u, u.params.q, rule)
    return ns * ns - sharp_constant(u.params) * lq * lq


def _nonlinear_integrals(u, rule, *extra):
    # Returns |u|_q, the integrals I[z] = int |u|^(q-2) u z for each extra
    # sample set z, and |u|^(q-2) at the nodes.
    q = u.params.q
    uv = node_values(u, rule)
    absu = np.abs(uv)
    lq = float((rule.weights @ absu**q) ** (1.0 / q))
    weight = absu ** (q - 2.0)
    kernel = weight * uv
    return lq, [float(rule.weights @ (kernel * e)) for e in extra], weight


def gradient_form(u: ZonalFunction, v: ZonalFunction, rule: QuadratureRule) -> float:
    """Directional derivative Psi'(u)v = 2<u,v>_* - 2 S |u|_q^(2-q) int |u|^(q-2) u v."""
    if norm_star(u) == 0.0:
        raise ValueError("gradient form undefined at u = 0")
    q = u.params.q
    lq, (iv,), _ = _nonlinear_integrals(u, rule, node_values(v, rule))
    return 2.0 * inner_star(u, v) - 2.0 * sharp_constant(u.params) * lq ** (2.0 - q) * iv


def hessian_form(u: ZonalFunction, v: ZonalFunction, w: ZonalFunction,
                 rule: QuadratureRule) -> float:
    """Second derivative Psi''(u)(v, w); symmetric bilinear in (v, w).

    Half of it is <v,w>_* - S (2-q) |u|_q^(2-2q) I[v] I[w]
    - S (q-1) |u|_q^(2-q) int |u|^(q-2) v w, with I[z] = int |u|^(q-2) u z.
    """
    if norm_star(u) == 0.0:
        raise ValueError("hessian form undefined at u = 0")
    q = u.params.q
    s_const = sharp_constant(u.params)
    vv = node_values(v, rule)
    wv = node_values(w, rule)
    lq, (i_v, i_w), weight = _nonlinear_integrals(u, rule, vv, wv)
    i_vw = float(rule.weights @ (weight * vv * wv))
    half = (inner_star(v, w)
            - s_const * (2.0 - q) * lq ** (2.0 - 2.0 * q) * i_v * i_w
            - s_const * (q - 1.0) * lq ** (2.0 - q) * i_vw)
    return 2.0 * half


class _AxialTable:
    """Member-independent half of the distance search for one (rule, K, (N, s)).

    g = weighted_basis @ g_{t0}(nodes) and gg = ||g_{t0}||_*^2 depend on
    the rule, K and (N, s) only, so the members of a scan share one
    table, which `run_scan` builds and drops with the scan.  `G` and `gg`
    hold the stacked g rows of the t0 grid and their norms, so that one
    product G @ (lam * coeffs) scores a member's whole grid.
    `at(t0) -> (g, gg)` serves the golden-section search: its brackets
    start at grid points, so most t0 values recur; it keeps the most
    recent rows up to _MEMO_BYTES of g (2,016 rows at K = 64, 340 at
    K = 384).  Every row and norm comes from the same expression, built
    in per-table scratch with the operations, in the order, of
    `g = weighted_basis @ (1 - t0 t)**(-beta)` and `lam @ (g * g)`, so a
    table must not be shared between threads.  Every g is a new array,
    and all arrays are read-only.
    """

    def __init__(self, rule: QuadratureRule, K: int, p: SobolevParams) -> None:
        self.key = (rule, K, p)
        lam = self.lam = lambdas(p, K)
        weighted_basis = rule.basis(K) * rule.weights
        t = rule.nodes
        beta = 0.5 * (p.N - p.s)

        power = np.empty_like(t)
        square = np.empty(K + 1)
        basis_dot, lam_dot = weighted_basis.dot, lam.dot

        def extremizer(t0: float) -> tuple[np.ndarray, float]:
            nonlocal power  # `**=` rebinds it, to the same array
            np.multiply(t, t0, out=power)
            np.subtract(1.0, power, out=power)
            power **= -beta  # not np.power: ** keeps the fast scalar powers
            g = basis_dot(power)
            g.setflags(write=False)
            np.multiply(g, g, out=square)
            return g, float(lam_dot(square))

        rows = [extremizer(x) for x in _T0_BOUNDS]
        self.G = np.array([g for g, _ in rows])
        self.gg = np.array([norm for _, norm in rows])
        self.G.setflags(write=False)
        self.gg.setflags(write=False)
        self.at = lru_cache(maxsize=_MEMO_BYTES // square.nbytes)(extremizer)


def distance(u: ZonalFunction, rule: QuadratureRule,
             table: _AxialTable | None = None) -> tuple[float, Optional[ManifoldPoint]]:
    """Distance from u to the axial extremizer family in ||.||_*.

    The amplitude is eliminated in closed form (c* = <u,g>/||g||^2),
    leaving a 1-D minimization of ||u||^2 - <u,g_{t0}>^2/||g_{t0}||^2 over
    t0 in [-T0_CAP, T0_CAP]: a bracketing grid scan followed by
    golden-section refinement of every local optimum.  Returns
    (d, nearest); d is exact within the axial family and an upper bound
    for the distance to the full manifold.  The zero function sits in the
    closure of the family: (0.0, None).

    The extremizer side (g_{t0} in the weighted basis and its norm) comes
    from `table`, which must be built for this rule, u.K and u.params; a
    call without one builds its own.  Per call only <u,g>_* is computed.
    The grid is scored by one product with the stacked grid rows, and
    those values only choose the brackets: every value the golden-section
    search compares, and the returned (d, c, t0), come from the per-point
    product lam_coeffs @ g, so the result does not depend on how the grid
    product rounds.
    """
    if table is None:
        table = _AxialTable(rule, u.K, u.params)
    elif table.key != (rule, u.K, u.params):
        raise ValueError("extremizer table was built for another rule, K or (N, s)")
    ns2 = norm_star(u) ** 2
    if ns2 == 0.0:
        return 0.0, None
    at = table.at
    lam_coeffs = table.lam * u.coeffs
    dot = lam_coeffs.dot

    def neg_projection(t0: float) -> float:
        # -<u,g>_*^2 / ||g||_*^2 at g = g_{t0}
        g, norm = at(t0)
        ug = float(dot(g))
        return -(ug * ug / norm)

    ug = table.G @ lam_coeffs
    values = ug * ug / table.gg
    padded = np.concatenate(([-math.inf], values, [-math.inf]))
    peaks = ~((values < padded[:-2]) | (values < padded[2:]))  # local maxima
    last = len(_T0_BOUNDS) - 1
    projection, t0_best = -math.inf, None
    for i in np.flatnonzero(peaks).tolist():
        t0, neg = golden_section_min(neg_projection, _T0_BOUNDS[max(i - 1, 0)],
                                     _T0_BOUNDS[min(i + 1, last)], tol=_T0_TOL)
        if -neg > projection:
            projection, t0_best = -neg, t0
    d = math.sqrt(max(ns2 - projection, 0.0))
    if t0_best is None:
        return d, None
    g, norm = at(t0_best)
    c_best = float(dot(g)) / norm
    nearest = None if c_best == 0.0 else ManifoldPoint(c_best, t0_best)
    return d, nearest


def stability_ratio(u: ZonalFunction, rule: QuadratureRule,
                    table: _AxialTable | None = None) -> DeficitReport:
    """Full deficit report with ratio = Psi / d^2; errors out on the manifold.

    The ratio never exceeds 1 (up to quadrature slack): the first half of
    the two-sided stability bound, which only strengthens when d is the
    axial upper bound.  `table` is passed on to `distance`.
    """
    ns2 = norm_star(u) ** 2
    lq = norm_lp(u, u.params.q, rule)
    psi = ns2 - sharp_constant(u.params) * lq * lq
    d, nearest = distance(u, rule, table)
    if d <= 1e-9 * math.sqrt(ns2):
        raise OnManifoldError(
            f"distance {d:.3e} is below the on-manifold threshold; ratio undefined")
    boundary = bool(nearest is not None and abs(nearest.t0) >= T0_CAP - 1e-6)
    return DeficitReport(
        norm_star_sq=ns2,
        lq_norm=lq,
        deficit=psi,
        distance=d,
        nearest=nearest,
        ratio=psi / (d * d),
        boundary_hit=boundary,
    )


# --- seeded stability scans ---


@dataclass(frozen=True)
class ScanConfig:
    """Scan families for the empirical stability constant.

    Three families: small perturbations of the constant extremizer along
    the normal space (pure low modes plus random combinations, one member
    per epsilon), fully random coefficient vectors, and symmetric
    two-bubble superpositions.  Everything is drawn up front from one
    seeded generator, so results are reproducible bit for bit.
    """

    seed: int
    K: int = 64
    M: Optional[int] = None
    n_normal: int = 60
    n_random: int = 60
    eps_grid: tuple[float, ...] = (1e-1, 1e-2, 1e-3)
    normal_modes: tuple[int, ...] = (2, 3, 4)
    bubble_t0: tuple[float, ...] = (0.2, 0.35, 0.5, 0.65, 0.8)
    random_max_degree: int = 16

    def __post_init__(self) -> None:
        if self.K < 2:
            raise ValueError("truncation degree K must be >= 2")
        if self.n_normal < 0 or self.n_random < 0:
            raise ValueError("family sizes must be nonnegative")
        if any(eps <= 0 for eps in self.eps_grid):
            raise ValueError("epsilon grid entries must be positive")
        if any(k < 2 for k in self.normal_modes):
            raise ValueError("normal modes start at degree 2")
        if any(not 0 < t0 < 1 for t0 in self.bubble_t0):
            raise ValueError("bubble separations must lie in (0, 1)")
        if self.random_max_degree < 0:
            raise ValueError(f"random_max_degree must be >= 0, got {self.random_max_degree}")
        if self.random_max_degree < 2 and self.n_normal > 0 and self.eps_grid:
            raise ValueError("random normal-space members need random_max_degree >= 2, "
                             f"got {self.random_max_degree}")

    @property
    def rule_size(self) -> int:
        return self.M if self.M is not None else 2 * self.K + 2

    @property
    def n_members(self) -> int:
        return (len(self.eps_grid) * (len(self.normal_modes) + self.n_normal)
                + self.n_random + len(self.bubble_t0))


def scan_members(p: SobolevParams, cfg: ScanConfig) -> Iterator[tuple[str, str, ZonalFunction]]:
    """Yield (family, label, member) in the deterministic scan order."""
    if cfg.n_members == 0:
        raise ValueError("scan configuration is empty")
    rng = np.random.default_rng(cfg.seed)
    rule = gauss_jacobi_rule(p.N, cfg.rule_size)
    K = cfg.K
    lam = lambdas(p, K)
    one = constant(p, 1.0, K).coeffs
    kmax = min(cfg.random_max_degree, K)
    if cfg.normal_modes and max(cfg.normal_modes) > kmax:
        raise ValueError("normal_modes exceed the random_max_degree/K window")

    def near_one(tail: np.ndarray, eps: float) -> ZonalFunction:
        # 1 + eps v with v = the tail at degrees >= 2 at unit ||.||_*: the
        # operations of `one + eps * (v * (1 / norm_star(v)))` in one array
        # (adding all of `one` keeps 0.0 + x, which turns -0.0 into +0.0)
        a = np.zeros(K + 1)
        a[2:2 + tail.size] = tail
        a *= 1.0 / math.sqrt(float(lam.dot(a * a)))
        a *= eps
        a += one
        return ZonalFunction(p, a)

    for eps in cfg.eps_grid:
        for k in cfg.normal_modes:
            tail = np.zeros(kmax - 1)
            tail[k - 2] = 1.0
            yield "local", f"local:e{k}:eps={eps:g}", near_one(tail, eps)
        for j in range(cfg.n_normal):
            tail = rng.standard_normal(kmax - 1) * _RANDOM_DECAY ** np.arange(kmax - 1)
            yield "local", f"local:rand{j}:eps={eps:g}", near_one(tail, eps)

    for j in range(cfg.n_random):
        a = np.zeros(K + 1)
        a[: kmax + 1] = rng.standard_normal(kmax + 1) * _RANDOM_DECAY ** np.arange(kmax + 1)
        yield "random", f"random:{j}", ZonalFunction(p, a)

    for t0 in cfg.bubble_t0:
        vals = (manifold_samples(p, 1.0, t0, rule.nodes)
                + manifold_samples(p, 1.0, -t0, rule.nodes))
        yield "bubble", f"bubble:t0={t0:g}", analyze(p, vals, rule, K)


@dataclass(frozen=True)
class ScanResult:
    """Ordered member reports plus the scan summary."""

    entries: list  # (index, family, label, DeficitReport | None)
    alpha_hat: float
    local_constant: float
    n_members: int
    n_skipped: int
    seed: int

    def summary_dict(self) -> dict:
        return {
            "alpha_hat": self.alpha_hat,
            "local_constant": self.local_constant,
            "n_members": self.n_members,
            "seed": self.seed,
            "n_skipped": self.n_skipped,
        }


def run_scan(p: SobolevParams, cfg: ScanConfig) -> ScanResult:
    """Evaluate every scan member and reduce to the minimum stability ratio.

    Members are generated in a fixed RNG order, evaluated one after the
    other and reduced in member order.  They share one extremizer table,
    which lives as long as the scan.  Raises OnManifoldError when every
    member lies on the manifold.
    """
    rule = gauss_jacobi_rule(p.N, cfg.rule_size)
    members = list(scan_members(p, cfg))
    table = _AxialTable(rule, cfg.K, p)
    entries = []
    for idx, (family, label, u) in enumerate(members):
        try:
            report = stability_ratio(u, rule, table)
        except OnManifoldError:
            report = None
        entries.append((idx, family, label, report))

    ratios = [report.ratio for *_, report in entries if report is not None]
    alpha = min([math.inf] + ratios)  # from inf, so a NaN ratio is never the minimum
    skipped = len(entries) - len(ratios)
    if skipped:
        logger.info("stability scan skipped %d on-manifold member(s)", skipped)
    if not math.isfinite(alpha):
        raise OnManifoldError(
            f"scan produced no usable members: all {len(members)} lie on the "
            "extremizer manifold, so no stability ratio is defined")
    return ScanResult(
        entries=entries,
        alpha_hat=alpha,
        local_constant=local_constant(p),
        n_members=len(members),
        n_skipped=skipped,
        seed=cfg.seed,
    )


def estimate_alpha(p: SobolevParams, cfg: ScanConfig) -> float:
    """Minimum observed ratio Psi/d^2 over the scan; an empirical estimate only."""
    return run_scan(p, cfg).alpha_hat

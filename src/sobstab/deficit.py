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

from ._util import OptimizerError, golden_section_min
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
    "OptConfig",
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


class OnManifoldError(ValueError):
    """Stability ratio requested for a function lying on the manifold."""


@dataclass(frozen=True)
class OptConfig:
    """Settings for the axial distance search.

    A deterministic n_grid-point scan over [-t0_cap, t0_cap] (always
    including the configured starts) brackets every local optimum of the
    projection; each bracket is refined by golden section to t0_tol.
    """

    t0_cap: float = 0.95
    t0_tol: float = 1e-10
    max_iter: int = 200
    starts: tuple[float, ...] = (-0.8, -0.4, 0.0, 0.4, 0.8)
    n_grid: int = 49


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


@lru_cache(maxsize=1)
def _axial_family(rule: QuadratureRule, K: int, p: SobolevParams):
    """Member-independent half of the projection: (lam, at), at(t0) -> (g, gg).

    g = weighted_basis @ g_{t0}(nodes) and gg = ||g_{t0}||_*^2 depend on
    the rule, K and (N, s) only, so the members of a scan share them:
    they search the same t0 grid, and the golden-section brackets start
    at grid points, so most t0 values recur.  g is read-only.  One table
    (it pins the weighted basis, 2.4 MB at K = 384) of at most 256 t0
    values; `run_scan` clears it when the scan ends.
    """
    lam = lambdas(p, K)
    weighted_basis = rule.basis(K) * rule.weights
    t = rule.nodes
    beta = 0.5 * (p.N - p.s)

    @lru_cache(maxsize=256)
    def at(t0: float) -> tuple[np.ndarray, float]:
        g = weighted_basis @ (1.0 - t0 * t) ** (-beta)
        g.setflags(write=False)
        return g, float(lam @ (g * g))

    return lam, at


def _projection(u: ZonalFunction, rule: QuadratureRule):
    """Evaluator t0 -> (<u,g>_*^2 / ||g||_*^2, <u,g>_* / ||g||_*^2) for g = g_{t0}.

    The first value is the squared projection of u onto the ray through
    g_{t0}, the second the optimal amplitude.  Only <u,g>_* is computed
    per member; g and ||g||_*^2 come from the table of `_axial_family`,
    shared by the members of a scan and bounded in size so that a scan's
    peak memory stays put.  The table computes them by the same
    expressions a member would, so every number is bit-identical to an
    unshared evaluation.
    """
    lam, at = _axial_family(rule, u.K, u.params)
    lam_coeffs = lam * u.coeffs

    def proj(t0: float) -> tuple[float, float]:
        g, gg = at(t0)
        ug = float(lam_coeffs @ g)
        return ug * ug / gg, ug / gg

    return proj


@lru_cache(maxsize=8)
def _t0_grid(cfg: OptConfig) -> np.ndarray:
    # The bracketing grid of the distance search (read-only): n_grid
    # equispaced points on [-cap, cap] plus the clipped starts.
    cap = cfg.t0_cap
    grid = np.unique(np.concatenate([
        np.linspace(-cap, cap, cfg.n_grid),
        np.clip(np.asarray(cfg.starts, dtype=float), -cap, cap),
    ]))
    grid.setflags(write=False)
    return grid


def distance(u: ZonalFunction, rule: QuadratureRule,
             config: OptConfig | None = None) -> tuple[float, Optional[ManifoldPoint]]:
    """Distance from u to the axial extremizer family in ||.||_*.

    The amplitude is eliminated in closed form (c* = <u,g>/||g||^2),
    leaving a 1-D minimization of ||u||^2 - <u,g_{t0}>^2/||g_{t0}||^2 over
    t0 in [-cap, cap]: a bracketing grid scan followed by golden-section
    refinement of every local optimum.  Returns (d, nearest); d is exact
    within the axial family and an upper bound for the distance to the
    full manifold.  The zero function sits in the closure of the family:
    (0.0, None).

    The extremizer side of every projection (g_{t0} in the weighted basis
    and its norm) is shared with the other calls on the same rule, K and
    (N, s) through a bounded table, see `_axial_family`; only <u,g>_* is
    computed per call.  The table evaluates exactly the expressions a
    single call would, so sharing it changes no bit of the result.
    """
    cfg = config or OptConfig()
    ns2 = norm_star(u) ** 2
    if ns2 == 0.0:
        return 0.0, None
    proj = _projection(u, rule)
    grid = _t0_grid(cfg)
    values = np.array([proj(x)[0] for x in grid])
    best = (-math.inf, 0.0, 0.0)  # (projection, t0, c*)
    for i, val in enumerate(values):
        left = values[i - 1] if i > 0 else -math.inf
        right = values[i + 1] if i + 1 < values.size else -math.inf
        if val < left or val < right:
            continue  # not a bracketed local maximum
        lo = grid[max(i - 1, 0)]
        hi = grid[min(i + 1, grid.size - 1)]
        if hi > lo:
            t0, neg = golden_section_min(lambda x: -proj(x)[0], lo, hi,
                                         tol=cfg.t0_tol, max_iter=cfg.max_iter)
        else:
            t0, neg = grid[i], -val
        if -neg > best[0]:
            best = (-neg, float(t0), proj(t0)[1])
    projection, t0_best, c_best = best
    d = math.sqrt(max(ns2 - projection, 0.0))
    nearest = None if c_best == 0.0 else ManifoldPoint(c_best, t0_best)
    return d, nearest


def stability_ratio(u: ZonalFunction, rule: QuadratureRule,
                    config: OptConfig | None = None) -> DeficitReport:
    """Full deficit report with ratio = Psi / d^2; errors out on the manifold.

    The ratio never exceeds 1 (up to quadrature slack): the first half of
    the two-sided stability bound, which only strengthens when d is the
    axial upper bound.
    """
    cfg = config or OptConfig()
    ns2 = norm_star(u) ** 2
    lq = norm_lp(u, u.params.q, rule)
    psi = ns2 - sharp_constant(u.params) * lq * lq
    d, nearest = distance(u, rule, cfg)
    if d <= 1e-9 * math.sqrt(ns2):
        raise OnManifoldError(
            f"distance {d:.3e} is below the on-manifold threshold; ratio undefined")
    boundary = bool(nearest is not None and abs(nearest.t0) >= cfg.t0_cap - 1e-6)
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
    random_decay: float = 0.75

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

    @property
    def rule_size(self) -> int:
        return self.M if self.M is not None else 2 * self.K + 2

    @property
    def n_members(self) -> int:
        return (len(self.eps_grid) * (len(self.normal_modes) + self.n_normal)
                + self.n_random + len(self.bubble_t0))


def _normal_direction(p: SobolevParams, coeffs_tail: np.ndarray, K: int) -> ZonalFunction:
    # Normal space at the constant extremizer: degrees >= 2, unit ||.||_*.
    a = np.zeros(K + 1)
    a[2:2 + coeffs_tail.size] = coeffs_tail
    v = ZonalFunction(p, a)
    return v * (1.0 / norm_star(v))


def scan_members(p: SobolevParams, cfg: ScanConfig) -> Iterator[tuple[str, str, ZonalFunction]]:
    """Yield (family, label, member) in the deterministic scan order."""
    if cfg.n_members == 0:
        raise ValueError("scan configuration is empty")
    rng = np.random.default_rng(cfg.seed)
    rule = gauss_jacobi_rule(p.N, cfg.rule_size)
    K = cfg.K
    one = constant(p, 1.0, K)
    kmax = min(cfg.random_max_degree, K)
    if cfg.normal_modes and max(cfg.normal_modes) > kmax:
        raise ValueError("normal_modes exceed the random_max_degree/K window")

    for eps in cfg.eps_grid:
        for k in cfg.normal_modes:
            tail = np.zeros(kmax - 1)
            tail[k - 2] = 1.0
            v = _normal_direction(p, tail, K)
            yield "local", f"local:e{k}:eps={eps:g}", one + eps * v
        for j in range(cfg.n_normal):
            tail = rng.standard_normal(kmax - 1) * cfg.random_decay ** np.arange(kmax - 1)
            v = _normal_direction(p, tail, K)
            yield "local", f"local:rand{j}:eps={eps:g}", one + eps * v

    for j in range(cfg.n_random):
        a = np.zeros(K + 1)
        a[: kmax + 1] = rng.standard_normal(kmax + 1) * cfg.random_decay ** np.arange(kmax + 1)
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


def run_scan(p: SobolevParams, cfg: ScanConfig,
             opt: OptConfig | None = None) -> ScanResult:
    """Evaluate every scan member and reduce to the minimum stability ratio.

    Members are generated in a fixed RNG order, evaluated one after the
    other and reduced in member order.  They share one extremizer table
    (`_axial_family`), which is dropped when the scan ends.  Raises
    OnManifoldError when every member lies on the manifold.
    """
    rule = gauss_jacobi_rule(p.N, cfg.rule_size)
    members = list(scan_members(p, cfg))

    def evaluate(item):
        family, label, u = item
        try:
            return stability_ratio(u, rule, opt)
        except OnManifoldError:
            return None

    try:
        reports = [evaluate(m) for m in members]
    finally:
        _axial_family.cache_clear()

    entries = []
    alpha = math.inf
    skipped = 0
    for idx, ((family, label, _u), report) in enumerate(zip(members, reports)):
        entries.append((idx, family, label, report))
        if report is None:
            skipped += 1
        elif report.ratio < alpha:
            alpha = report.ratio
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


def estimate_alpha(p: SobolevParams, cfg: ScanConfig,
                   opt: OptConfig | None = None) -> float:
    """Minimum observed ratio Psi/d^2 over the scan; an empirical estimate only."""
    return run_scan(p, cfg, opt).alpha_hat

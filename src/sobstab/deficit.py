"""Deficit functional, distance to the extremizer family, and stability scans.

The deficit Psi(u) = ||u||_*^2 - S |u|_q^2 vanishes exactly on the
extremizer manifold and controls the squared distance to it from both
sides.  This module evaluates Psi (its one expression is `zonal._parts`),
computes the distance to the axial manifold slice (an upper bound for
the full distance, exact within the axial family), and estimates the
stability constant empirically as the minimum deficit/distance^2 ratio
over seeded scan families.
"""

from __future__ import annotations

import math
from typing import Iterator, NamedTuple, Optional

import numpy as np

from ._util import _INVPHI, _INVPHI2, RefusalError, checked_make, fmt12
from .conformal import ManifoldPoint, manifold_samples
from .specfun import SobolevParams, _in_range, _normal, local_constant
from .zonal import (
    QuadratureRule,
    ZonalFunction,
    _members,
    _parts,
    _rule_size,
    _stacked,
    _unscaled,
    analyze,
    constant,
    gauss_jacobi_rule,
    lambdas,
)

__all__ = [
    "OnManifoldError",
    "T0_CAP",
    "DeficitReport",
    "ScanConfig",
    "ScanResult",
    "deficit",
    "distance",
    "stability_ratio",
    "scan_members",
    "run_scan",
]


class OnManifoldError(RefusalError, ValueError):
    """Stability ratio requested for a function lying on the manifold."""


# Fixed settings: the t0 search of `distance` and the random scan members.
T0_CAP = 0.95
_T0_TOL = 1e-10
# sorted() of a set, not np.unique, which imports numpy.ma
_T0_GRID = np.array(sorted({*np.linspace(-T0_CAP, T0_CAP, 49).tolist(),
                            -0.8, -0.4, 0.0, 0.4, 0.8}))
_T0_GRID.setflags(write=False)
_RANDOM_DECAY = 0.75  # random members' degree-k coefficients scale as _RANDOM_DECAY**k
_SANDWICH_SLACK = 1e-9  # roundoff allowed in 0 <= Psi <= d^2, relative to ||u||_*^2
_GAP_EPS = 1e-2  # local:e2 members up to this eps must have a ratio below local_constant
_BLOCK_BYTES = 2**19  # weighted_basis bytes per block of `_AxialTable.rows`


class DeficitReport(NamedTuple):
    """Deficit, axial distance (an upper bound for the true one), and their ratio."""

    norm_star_sq: float
    lq_norm: float
    deficit: float
    distance: float
    nearest: Optional[ManifoldPoint]
    ratio: Optional[float]
    boundary_hit: bool = False


def deficit(u: ZonalFunction, rule: QuadratureRule) -> float:
    """Psi(u) = ||u||_*^2 - S |u|_q^2; nonnegative, zero on the manifold."""
    return _parts([u], rule)[2].item()


class _AxialTable:
    """Member-independent half of the distance search for one (rule, K, (N, s)).

    g = weighted_basis @ g_{t0}(nodes) and gg = ||g_{t0}||_*^2 depend on
    the rule, K and (N, s) only, so the members of a scan share one
    table, which `_reports` builds and drops with the search.  `G` and `gg`
    hold the stacked g rows of the t0 grid and their norms, so that one
    product G @ (lam * coeffs) scores a member's whole grid.
    `rows(t0s) -> (g, gg)` builds the rows of any t0 values in one batch;
    each row is bit for bit the plain expression
    `weighted_basis @ (1 - t t0)**(-beta)` and its norm `lam @ (g * g)`.
    The batch runs over `weighted_basis` in blocks of about _BLOCK_BYTES,
    so that each block stays in cache while every t0 of the batch uses
    it.  Every block but the last has a multiple of 16 rows, so BLAS
    groups the rows as in one GEMV over the whole matrix, and the last
    holds the rest, never a lone row (numpy would take a dot for it).
    Below M of about 30,000, no block is large enough for OpenBLAS to
    split between threads, so the rows of one rule do not depend on the
    thread count.
    A table keeps no rows but the grid's, and all its arrays are read-only.
    """

    def __init__(self, rule: QuadratureRule, K: int, p: SobolevParams) -> None:
        self.key = (rule, K, p)
        self.lam = lambdas(p, K)
        self._weighted_basis = rule.basis(K) * rule.weights
        n_rows, M = self._weighted_basis.shape
        height = max(16, _BLOCK_BYTES // (8 * M) // 16 * 16)
        edges = list(range(height, n_rows, height))
        if edges and n_rows - edges[-1] == 1:
            edges.pop()
        self._blocks = [slice(lo, hi) for lo, hi in zip([0, *edges], [*edges, n_rows])]
        self._nodes = rule.nodes
        self._beta = p.beta
        self.G, self.gg = self.rows(_T0_GRID)
        # The unit bubble g_t / ||g_t||_* moves at speed v0 / (1 - t^2) in ||.||_*
        self.v0 = 0.5 * math.sqrt((p.N * p.N - p.s * p.s) / (p.N + 1))

    def rows(self, t0s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # Stacked products: np.matmul runs one GEMV per row and block and one
        # dot per norm, the BLAS calls of the 1-D expressions; a 2-D
        # `G @ lam` would be one GEMV over all rows and round differently.
        power = (1.0 - self._nodes * t0s[:, None]) ** -self._beta
        g = np.empty((t0s.size, self._weighted_basis.shape[0], 1))
        for block in self._blocks:
            np.matmul(self._weighted_basis[block], power[:, :, None], out=g[:, block])
        g = g[:, :, 0]
        gg = np.matmul(self.lam, (g * g)[:, :, None])[:, 0]
        g.setflags(write=False)
        gg.setflags(write=False)
        return g, gg


def _golden_lockstep(table: _AxialTable, lam_coeffs: np.ndarray, norms: np.ndarray,
                     owner: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Minimize -<u,g_{t0}>_*^2 / ||g_{t0}||_*^2 on every bracket [a, b] at once.

    Bracket j belongs to the member whose lam * coeffs is the row
    lam_coeffs[owner[j]] and whose ||u||_* is norms[owner[j]].  Every
    bracket takes exactly the steps of `_util.golden_section_min` with
    tol=_T0_TOL, in the same float operations, so NaN goes right and each
    bracket stops on its own; the brackets only share each round's rows,
    one per distinct t0 (-0.0 is 0.0).
    Only the refinement of every local optimum that can still hold the
    member's nearest bubble runs on.  The unit bubble g_t / ||g_t||_*
    moves at speed v0 / (1 - t^2) (`_AxialTable.v0`), so by Cauchy-Schwarz
    sqrt P(t) <= sqrt P(x) + ||u||_* v0 (b - a) / (1 - max(a^2, b^2))
    on a bracket [a, b] with best point x so far (the max taken on the
    starting bracket, which holds every later one).  Golden section only
    raises a bracket's best value, so a bracket whose bound, at twice the
    reach and with a relative slack of 1e-9, lies below its member's best
    sqrt P so far could never win the strict `>` and stops: every member's
    winner is that of its lone call, bit for bit.  NaN stops nothing.
    Returns (t0, value, <u,g>_*, ||g||_*^2) per bracket as a (4, n) array;
    a stopped bracket holds its best point so far.
    """

    def evaluate(x, lc):
        # One column per point; equal points are neighbours in the sort and share a row
        xs = np.sort(x)
        distinct = xs[np.concatenate(([True], xs[1:] != xs[:-1]))]
        g, gg = table.rows(distinct)
        index = distinct.searchsorted(x)
        ug, gg = np.matmul(lc[:, None, :], g[index][:, :, None])[:, 0, 0], gg[index]
        out = np.empty((4, x.size))
        out[0], out[1], out[2], out[3] = x, -(ug * ug / gg), ug, gg
        return out

    n = a.size
    h = b - a
    lc = lam_coeffs[owner]  # each bracket's row, gathered once
    reach = 2.0 * table.v0 * norms[owner] / (1.0 - np.maximum(a * a, b * b))
    top = np.zeros(len(norms))  # each member's best sqrt P so far
    both = evaluate(np.concatenate((a + _INVPHI2 * h, a + _INVPHI * h)), np.concatenate((lc, lc)))
    c, d = both[:, :n], both[:, n:]
    best = np.empty((4, n))
    live = np.arange(n)
    while True:
        root = np.sqrt(-np.minimum(c[1], d[1]))
        np.maximum.at(top, owner, root)
        keep = (h > _T0_TOL) & ~((root + reach * h) * (1.0 + 1e-9) < top[owner])
        if not keep.all():
            best[:, live[~keep]] = np.where(c[1] < d[1], c, d)[:, ~keep]
            live, owner, lc, reach, a, b, h, c, d = (
                live[keep], owner[keep], lc[keep], reach[keep], a[keep], b[keep], h[keep],
                c[:, keep], d[:, keep])
        if not live.size:
            return best
        # fc < fd: b, d, fd = d, c, fc and c is new; else a, c, fc = c, d, fd and d is new
        left = c[1] < d[1]
        a, b = np.where(left, a, c[0]), np.where(left, d[0], b)
        h = b - a
        new = evaluate(a + np.where(left, _INVPHI2, _INVPHI) * h, lc)
        c, d = np.where(left, new, d), np.where(left, c, new)


def distance(u: ZonalFunction | list[ZonalFunction], rule: QuadratureRule,
             table: _AxialTable | None = None):
    """Distance from u to the axial extremizer family in ||.||_*.

    The amplitude is eliminated in closed form (c* = <u,g>/||g||^2),
    leaving a 1-D minimization of ||u||^2 - <u,g_{t0}>^2/||g_{t0}||^2 over
    t0 in [-T0_CAP, T0_CAP]: a bracketing grid scan followed by
    golden-section refinement of every local optimum that can still hold
    the member's nearest bubble (`_golden_lockstep` stops a bracket once
    the bubbles' speed bounds what it can reach below the member's best
    value so far, a bound that moves no bit of the result).  Returns
    (d, nearest); d is exact within the axial family and an upper bound
    for the distance to the full manifold.  The zero function sits in the
    closure of the family: (0.0, None).  The search runs on the unit-scale
    rows of `zonal._stacked`, and d and c are scaled back exactly, so those
    of 2^k u are 2^k times those of u and t0 is the same, bit for bit.

    `u` is one member, a list of members that share K and (N, s) (else
    ValueError), or the `zonal._Stack` of such a list, whose rows and
    unit-scale ||u||_* the search reuses (a scan passes its norms' stack).
    A list or stack returns (float64 array of d, list of nearest) in
    member order, and every member's result equals its lone call's bit
    for bit: the brackets of all members are refined in lockstep, and
    each round builds the rows of its distinct t0 values in one batch.

    The extremizer side (g_{t0} in the weighted basis and its norm) comes
    from `table`, which must be built for this rule, K and (N, s); a call
    without one builds its own.  Per member only <u,g>_* is computed.
    The grid is scored by one product with the stacked grid rows, and
    those values only choose the brackets: every value the golden-section
    search compares, and the returned (d, c, t0), come from the per-point
    product lam_coeffs @ g, so the result does not depend on how the grid
    product rounds.
    """
    members, coeffs, e = stack = _stacked(u)
    K, p = members[0].K, members[0].params
    rule._check_dimension(p.N)
    if table is None:
        table = _AxialTable(rule, K, p)
    elif table.key != (rule, K, p):
        raise ValueError("extremizer table was built for another rule, K or (N, s)")
    ns2 = [x * x for x in stack.star.tolist()]
    ds, cs, t0_best = [0.0] * len(members), [0.0] * len(members), [0.0] * len(members)
    live = [i for i, x in enumerate(ns2) if x != 0.0]
    if live:
        lam_coeffs = table.lam * coeffs[live]
        ug = np.matmul(table.G, lam_coeffs[:, :, None])[:, :, 0]
        values = ug * ug / table.gg
        edge = np.full((len(live), 1), -math.inf)
        padded = np.hstack((edge, values, edge))
        peaks = ~((values < padded[:, :-2]) | (values < padded[:, 2:]))  # local maxima
        owner, i = np.nonzero(peaks)  # by member, then by ascending t0
        t0s, negs, ugs, ggs = _golden_lockstep(
            table, lam_coeffs, stack.star[live], owner, _T0_GRID[np.maximum(i - 1, 0)],
            _T0_GRID[np.minimum(i + 1, _T0_GRID.size - 1)]).tolist()
        found = [(-math.inf, None)] * len(live)  # (projection, bracket) per member
        for j, member in enumerate(owner.tolist()):
            if -negs[j] > found[member][0]:
                found[member] = (-negs[j], j)
        for member, (projection, j) in zip(live, found):
            ds[member] = math.sqrt(max(ns2[member] - projection, 0.0))
            if j is not None:
                cs[member], t0_best[member] = ugs[j] / ggs[j], t0s[j]
    ds, cs = _unscaled([ds, cs], e)
    # tuple.__new__ skips ManifoldPoint's checks, which hold: c != 0.0, |t0| <= T0_CAP
    nearest = [None if c == 0.0 else tuple.__new__(ManifoldPoint, (c, t0))
               for c, t0 in zip(cs, t0_best)]
    if isinstance(u, ZonalFunction):
        return ds[0], nearest[0]
    return np.array(ds), nearest


def _report(ns2, lq, psi, d, nearest, ratio) -> DeficitReport:
    # The report of one member off the manifold, from its checked values
    boundary = nearest is not None and abs(nearest.t0) >= T0_CAP - 1e-6
    return DeficitReport(ns2, lq, psi, d, nearest, ratio, boundary)


_CHECKED = ("norm_star_sq", "lq_norm", "distance^2")  # in the order a member's are checked


def _reports(labels, us, rule: QuadratureRule) -> list[DeficitReport | None]:
    # The report of each member from one batch of parts and one lockstep
    # search.  A member with a finite ||u||_* and d <= 1e-9 ||u||_* is on the
    # manifold (None).  Of the others, the first in order with a reported
    # value, or the d^2 the ratio divides by, outside the normal doubles is
    # refused by its label and the first such field, without numpy warnings
    stack = _stacked(us)  # one for the norms and the search
    ns, lq, psi = _parts(stack, rule)
    table = _AxialTable(rule, us[0].K, us[0].params)  # dies with the call
    ds, nearest = distance(stack, rule, table)
    with np.errstate(all="ignore"):
        checked = np.stack((ns * ns, lq, ds * ds))
        ratios = psi / checked[2]
        on = (ds <= 1e-9 * ns) & np.isfinite(ns)
        bad = ~_normal(checked) & ~on
    if bad.any():
        j = int(bad.any(axis=0).argmax())
        i = int(bad[:, j].argmax())
        _in_range(checked[i, j].item(), "member {}: {}", labels[j], _CHECKED[i])
    rows = zip(checked[0].tolist(), lq.tolist(), psi.tolist(), ds.tolist(), nearest,
               ratios.tolist())
    return [None if skip else _report(*row) for skip, row in zip(on.tolist(), rows)]


def stability_ratio(u: ZonalFunction, rule: QuadratureRule) -> DeficitReport:
    """Full deficit report with ratio = Psi / d^2; errors out on the manifold.

    The ratio never exceeds 1 (up to quadrature slack): the first half of
    the two-sided stability bound, which only strengthens when d is the
    axial upper bound.  A lone member is a scan of one: `run_scan` builds
    its reports the same way, so a value outside the normal doubles, such
    as the ||u||_*^2 of 1e200 u, is refused (RefusalError, as member u),
    and a member whose ||u||_* is not finite is refused, never taken to be
    on the manifold.
    The ratio and t0 of 2^k u are those of u, bit for bit.
    """
    (report,) = _reports(["u"], [u], rule)
    if report is None:
        raise OnManifoldError("u is on the manifold (d <= 1e-9 ||u||_*); ratio undefined")
    return report


# --- seeded stability scans ---


class _ScanFields(NamedTuple):
    seed: int
    K: int = 64
    M: Optional[int] = None
    n_normal: int = 60
    n_random: int = 60
    eps_grid: tuple[float, ...] = (1e-1, 1e-2, 1e-3)
    normal_modes: tuple[int, ...] = (2, 3, 4)
    bubble_t0: tuple[float, ...] = (0.2, 0.35, 0.5, 0.65, 0.8)
    random_max_degree: int = 16


class ScanConfig(_ScanFields):
    """Scan families for the empirical stability constant.

    Three families: small perturbations of the constant extremizer along
    the normal space (pure low modes plus random combinations, one member
    per epsilon), fully random coefficient vectors, and symmetric
    two-bubble superpositions.  Everything is drawn up front from one
    seeded generator, so results are reproducible bit for bit.  Every
    check of a scan runs here, so an invalid config cannot be built.
    Immutable and equal by value; `_fields` names the settings, and
    `_replace` checks its result as construction does.
    """

    __slots__ = ()
    _make = classmethod(checked_make)

    def __new__(cls, *args, **kwargs) -> ScanConfig:
        self = super().__new__(cls, *args, **kwargs)
        if self.K < 2:
            raise ValueError("truncation degree K must be >= 2")
        _rule_size(self.K, self.M)  # rule.basis would refuse it only mid-scan
        if self.n_normal < 0 or self.n_random < 0:
            raise ValueError("family sizes must be nonnegative")
        if any(not 0 < eps < math.inf for eps in self.eps_grid):
            raise ValueError("epsilon grid entries must be positive and finite")
        if any(k < 2 for k in self.normal_modes):
            raise ValueError("normal modes start at degree 2")
        if any(not 0 < t0 < 1 for t0 in self.bubble_t0):
            raise ValueError("bubble separations must lie in (0, 1)")
        # no two members may share a label: the strict-gap check matches labels
        repeated = [k for i, k in enumerate(self.normal_modes) if k in self.normal_modes[:i]]
        if repeated:
            raise ValueError(f"normal mode {repeated[0]} is listed twice; each labels its members")
        for what, key, values in (("epsilon grid entries", "eps", self.eps_grid),
                                  ("bubble separations", "t0", self.bubble_t0)):
            labels = [f"{key}={value:g}" for value in values]  # as in the members' labels
            shared = [label for i, label in enumerate(labels) if label in labels[:i]]
            if shared:
                raise ValueError(f"{what} share the member label {shared[0]}; "
                                 "labels keep six significant digits")
        if self.random_max_degree < 0:
            raise ValueError(f"random_max_degree must be >= 0, got {self.random_max_degree}")
        if self.random_max_degree < 2 and self.n_normal > 0 and self.eps_grid:
            raise ValueError("random normal-space members need random_max_degree >= 2, "
                             f"got {self.random_max_degree}")
        if self.random_max_degree == 0 and self.n_random > 0:
            raise ValueError("random members need random_max_degree >= 1: of degree 0 they "
                             "are constants, which lie on the manifold")
        if self.n_members == 0:
            raise ValueError("scan configuration selects zero members")
        if self.normal_modes and max(self.normal_modes) > min(self.random_max_degree, self.K):
            raise ValueError("normal_modes exceed the random_max_degree/K window")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        return self

    @property
    def rule_size(self) -> int:
        return _rule_size(self.K, self.M)

    @property
    def families(self) -> dict[str, int]:
        """Member count of each family, in scan order."""
        return {"local": len(self.eps_grid) * (len(self.normal_modes) + self.n_normal),
                "random": self.n_random,
                "bubble": len(self.bubble_t0)}

    @property
    def n_members(self) -> int:
        return sum(self.families.values())


def scan_members(p: SobolevParams, cfg: ScanConfig) -> Iterator[tuple[str, str, ZonalFunction]]:
    """Yield (family, label, member) in the deterministic scan order.

    The near-manifold members of each eps, and the random members, are the
    rows of one coefficient block, copied and checked once (`zonal._members`).
    """
    rng = np.random.default_rng(cfg.seed)
    rule = gauss_jacobi_rule(p.N, cfg.rule_size)
    K = cfg.K
    lam = lambdas(p, K)
    one = constant(p, 1.0, K).coeffs
    kmax = min(cfg.random_max_degree, K)
    modes = list(cfg.normal_modes)

    for eps in cfg.eps_grid:
        # Rows 1 + eps v, v a mode or a random tail at degrees >= 2 at unit
        # ||.||_*: the operations of `one + eps * (v * (1 / norm_star(v)))`
        # (adding all of `one` keeps 0.0 + x, which turns -0.0 into +0.0).
        # One (n_normal, kmax - 1) draw is the stream of n_normal draws.
        a = np.zeros((len(modes) + cfg.n_normal, K + 1))
        a[range(len(modes)), modes] = 1.0
        if cfg.n_normal:
            a[len(modes):, 2:kmax + 1] = (rng.standard_normal((cfg.n_normal, kmax - 1))
                                          * _RANDOM_DECAY ** np.arange(kmax - 1))
        a *= 1.0 / np.sqrt(np.matmul(lam, (a * a)[:, :, None]))
        a *= eps
        a += one
        labels = [f"e{k}" for k in modes] + [f"rand{j}" for j in range(cfg.n_normal)]
        for label, u in zip(labels, _members(p, a)):
            yield "local", f"local:{label}:eps={eps:g}", u

    a = np.zeros((cfg.n_random, K + 1))
    a[:, :kmax + 1] = (rng.standard_normal((cfg.n_random, kmax + 1))
                       * _RANDOM_DECAY ** np.arange(kmax + 1))
    for j, u in enumerate(_members(p, a)):
        yield "random", f"random:{j}", u

    for t0 in cfg.bubble_t0:
        vals = (manifold_samples(p, 1.0, t0, rule.nodes)
                + manifold_samples(p, 1.0, -t0, rule.nodes))
        yield "bubble", f"bubble:t0={t0:g}", analyze(p, vals, rule, K)


class ScanResult(NamedTuple):
    """Ordered member reports plus the scan summary.

    `violation` is True when a member breaks 0 <= Psi <= d^2 beyond
    roundoff (`_sandwich_broken`); `run_scan` decides it once.
    """

    entries: list  # (index, family, label, DeficitReport | None)
    alpha_hat: float
    local_constant: float
    n_members: int
    n_skipped: int
    seed: int
    violation: bool


def _sandwich_broken(reports) -> bool:
    # True when a report breaks 0 <= Psi <= d * d beyond roundoff; NaN breaks it
    return any(not -_SANDWICH_SLACK * r.norm_star_sq <= r.deficit
               <= r.distance * r.distance + _SANDWICH_SLACK * r.norm_star_sq
               for r in reports if r is not None)


def run_scan(p: SobolevParams, cfg: ScanConfig) -> ScanResult:
    """Evaluate every scan member and reduce to the minimum stability ratio.

    Members are generated in a fixed RNG order, and their reports come
    from the one path of a lone `stability_ratio`: every member's deficit
    parts, then one `distance` call that searches all members in lockstep
    with one extremizer table, which lives no longer than the scan.
    Members on the manifold are skipped; the rest are reduced in member
    order.  Raises OnManifoldError when every member lies on the
    manifold, and RefusalError when a member's reported numbers leave the
    normal doubles (naming the first such member) or, unless `violation` is set,
    alpha_hat <= 0, or a `local:e2` member at eps <= _GAP_EPS (N >= 2)
    has a ratio of at least local_constant: König's strict gap puts the
    ratio below it, so the scan cannot resolve alpha at that eps.
    """
    rule = gauss_jacobi_rule(p.N, cfg.rule_size)
    families, labels, members = zip(*scan_members(p, cfg))
    reports = _reports(labels, members, rule)
    ratios = [report.ratio for report in reports if report is not None]
    if not ratios:
        raise OnManifoldError(
            f"scan produced no usable members: all {len(members)} lie on the "
            "extremizer manifold, so no stability ratio is defined")
    result = ScanResult(
        entries=list(zip(range(len(members)), families, labels, reports)),
        alpha_hat=min(ratios),
        local_constant=local_constant(p),
        n_members=len(members),
        n_skipped=len(members) - len(ratios),
        seed=cfg.seed,
        violation=_sandwich_broken(reports),
    )
    if result.violation:
        return result
    if result.alpha_hat <= 0.0:
        raise RefusalError(
            f"minimum stability ratio is {fmt12(result.alpha_hat)}: a member's deficit "
            "rounds to zero, so alpha > 0 cannot be resolved; raise the smallest --eps")
    gap = ({f"local:e2:eps={eps:g}" for eps in cfg.eps_grid if eps <= _GAP_EPS}
           if p.N >= 2 else set())
    for label, report in zip(labels, reports):
        if label in gap and report is not None and not report.ratio < result.local_constant:
            raise RefusalError(
                f"member {label}: stability ratio {fmt12(report.ratio)} is not below "
                f"local_constant {fmt12(result.local_constant)}, where the strict gap puts "
                "it, so alpha cannot be resolved at this eps; raise the smallest --eps")
    return result

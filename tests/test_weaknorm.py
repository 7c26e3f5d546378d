import math
import re

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from sobstab._util import RefusalError
from sobstab.conformal import (
    RadialFunction,
    bump_profile,
    extremizer_profile,
    gaussian_profile,
    mollified_extremizer_profile,
    parse_profile,
)
from sobstab.deficit import deficit, stability_ratio
from sobstab.specfun import SobolevParams, sharp_constant, sphere_area, unit_ball_radius
from sobstab.weaknorm import (
    Theorem2Case,
    TruncationError,
    ball_volume,
    compute_constants,
    extremizer_weak_norm,
    radial_cells,
    verify_theorem2,
    weak_norm,
)
from sobstab.zonal import default_rule, gauss_jacobi_rule
from sobstab.conformal import pullback_to_sphere

from conftest import PARAM_GRID, P32, dilate, eq_rho_residual, extremizer_tail_lq

# Frozen output of the independent oracle for the (N=3, s=2) extremizer
# weak norm: a 1e4-point threshold scan over compactified superlevel radii
# with adaptive radial quadrature.  Matches the analytic large-radius limit
# |S^(N-1)| omega_N^(-s/N) / s = 2.41798793102470446... to 1.5e-15.
U_WEAK_32_ORACLE = 2.4179879310247077


class TestWeakNorm:
    def test_indicator_of_unit_measure_set(self):
        # 40 cells partitioning a set of measure 1, |u| = 1 on all of it
        measures = np.full(40, 1.0 / 40)
        values = np.ones(40)
        assert weak_norm(values, measures, P32) == pytest.approx(1.0, rel=1e-13)

    def test_measure_doubling_scaling(self):
        rng = np.random.default_rng(31)
        values = rng.uniform(0.1, 3.0, size=25)
        measures = rng.uniform(0.01, 0.2, size=25)
        base = weak_norm(values, measures, P32)
        doubled = weak_norm(values, 2.0 * measures, P32)
        assert doubled == pytest.approx(2.0 ** (1.0 - P32.s / P32.N) * base, rel=1e-12)

    def test_empty_and_invalid_input(self):
        assert weak_norm([], [], P32) == 0.0
        with pytest.raises(ValueError):
            weak_norm([1.0], [0.0], P32)
        with pytest.raises(ValueError):
            weak_norm([-1.0], [1.0], P32)
        with pytest.raises(ValueError, match="^values and measures must have the same shape$"):
            weak_norm([1.0, 2.0], [1.0], P32)

    def test_prefix_scan_beats_any_cell_union(self):
        # the sorted prefix certificate dominates random unions
        rng = np.random.default_rng(32)
        values = rng.uniform(0.0, 2.0, size=30)
        measures = rng.uniform(0.05, 0.3, size=30)
        best = weak_norm(values, measures, P32)
        for _ in range(200):
            mask = rng.random(30) < 0.5
            if not np.any(mask):
                continue
            ratio = (values[mask] @ measures[mask]) * measures[mask].sum() ** (-P32.s / P32.N)
            assert ratio <= best * (1 + 1e-12)


class TestRadialCells:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("text", ["mollified_extremizer:1e150,1",
                                      "mollified_extremizer:1e78,1", "bump:1e-300,1"])
    def test_no_warning_escapes(self, text):
        # (mu r)^2 overflows in the first two profiles; the cell measures of
        # the last underflow to 0.0, so its averages are 0/0 = NaN, and
        # weak_norm refuses those measures before a NaN reaches a number
        values, measures = radial_cells(parse_profile(text, P32))
        if text.startswith("bump"):
            assert np.isnan(values).all() and not measures.any()
            with pytest.raises(ValueError, match="^cell measures must be positive$"):
                weak_norm(values, measures, P32)
        else:
            assert np.isfinite(values).all() and (measures > 0).all()

    def test_unbounded_support_needs_r_max(self):
        with pytest.raises(ValueError,
                           match="^r_max required for profiles with unbounded support$"):
            radial_cells(gaussian_profile(P32))
        assert radial_cells(gaussian_profile(P32), 4, r_max=1.0)[0].shape == (4,)


class TestBathtub:
    def test_prefix_scan_equals_ball_scan_for_monotone_profiles(self):
        for profile in (bump_profile(P32, 1.0, 1.0),
                        mollified_extremizer_profile(P32, 1.0, 2.0)):
            values, measures = radial_cells(profile, n_cells=512)
            prefix = weak_norm(values, measures, P32)
            # ball-threshold scan: prefixes in radius order
            cum_mass = np.cumsum(values * measures)
            cum_meas = np.cumsum(measures)
            ball = float(np.max(cum_mass * cum_meas ** (-P32.s / P32.N)))
            assert prefix == pytest.approx(ball, rel=1e-9)

    def test_prefix_scan_dominates_ball_scan_otherwise(self):
        # non-monotone |u|: superlevel sets are annuli, balls are suboptimal
        from sobstab.conformal import RadialFunction

        ring = RadialFunction(P32, lambda r: np.exp(-8 * (r - 0.6) ** 2),
                              support_radius=1.5)
        values, measures = radial_cells(ring, n_cells=512)
        prefix = weak_norm(values, measures, P32)
        cum_mass = np.cumsum(values * measures)
        cum_meas = np.cumsum(measures)
        ball = float(np.max(cum_mass * cum_meas ** (-P32.s / P32.N)))
        assert prefix > ball * (1 + 1e-3)


class TestExtremizerWeakNorm:
    def test_finite_and_positive_on_grid(self):
        for p in PARAM_GRID:
            val = extremizer_weak_norm(p)
            assert math.isfinite(val) and val > 0.0, (p.N, p.s)

    def test_frozen_oracle_value(self):
        assert extremizer_weak_norm(P32) == pytest.approx(U_WEAK_32_ORACLE, rel=1e-8)

    def test_matches_frozen_oracle_to_roundoff(self):
        assert extremizer_weak_norm(P32) == pytest.approx(U_WEAK_32_ORACLE, rel=1e-14)

    # PARAM_GRID holds the four (N, s) pairs of the benchmark workloads too
    @pytest.mark.parametrize("p", PARAM_GRID, ids=lambda p: f"{p.N},{p.s}")
    def test_ball_ratio_rises_to_the_closed_form(self, p):
        # |B_R|^(-s/N) int_{B_R} (1+|x|^2)^(-beta) dx at 40 digits, with
        # int_0^R r^(N-1) (1+r^2)^(-beta) dr = R^N/N 2F1(beta, N/2; N/2+1; -R^2)
        import mpmath

        with mpmath.workdps(40):
            N, s = p.N, mpmath.mpf(p.s)
            half_n = mpmath.mpf(N) / 2
            area = 2 * mpmath.pi ** half_n / mpmath.gamma(half_n)
            vol = mpmath.pi ** half_n / mpmath.gamma(half_n + 1)
            limit = area * vol ** (-s / N) / s
            ratios = []
            for R in map(mpmath.mpf, ("0.01", "0.1", "1", "10", "100", "1e4", "1e6")):
                mass = area * R ** N / N * mpmath.hyp2f1((N - s) / 2, half_n, half_n + 1, -R * R)
                ratios.append((vol * R ** N) ** (-s / N) * mass)
            assert all(a < b for a, b in zip(ratios, ratios[1:]))
            assert ratios[-1] < limit
            assert extremizer_weak_norm(p) == pytest.approx(float(limit), rel=1e-14)

    def test_scaling_under_dilation(self):
        # cells of extremizer_profile(p, lam) on [0, R/mu] are those of the
        # undilated profile on [0, R] rescaled, so the cell evaluator gives
        # 1/lam times its value, and both stay below the closed form
        for p in (P32, SobolevParams(2, 0.5), SobolevParams(5, 3.3)):
            base = extremizer_weak_norm(p)
            unit = weak_norm(*radial_cells(extremizer_profile(p), r_max=1e3), p)
            assert unit < base
            for lam in (0.5, 2.0):
                mu = lam ** (2.0 / (p.N - p.s))
                cells = radial_cells(extremizer_profile(p, lam), r_max=1e3 / mu)
                assert weak_norm(*cells, p) == pytest.approx(unit / lam, rel=1e-12), (p, lam)

    def test_interior_maximum_profiles(self):
        # compact support: the best ball is interior, where the ball ratio's
        # R-derivative changes sign, i.e. R^N u(R) = s int_0^R u r^(N-1) dr
        p = P32
        profile = bump_profile(p, 1.0, 1.0)

        def mass(R):
            return quad(lambda r: float(profile(np.array(r))) * r ** (p.N - 1), 0.0, R,
                        epsabs=0.0, epsrel=1e-13)[0]

        best = brentq(lambda R: R ** p.N * float(profile(np.array(R))) - p.s * mass(R),
                      0.1, 0.999, xtol=1e-14)
        direct = (ball_volume(p.N) * best**p.N) ** (-p.s / p.N) * sphere_area(p.N - 1) * mass(best)
        cells = weak_norm(*radial_cells(profile, n_cells=4096), p)
        assert cells == pytest.approx(direct, rel=1e-6)


class TestTailIntegral:
    def test_full_integral_closed_form(self):
        # N = 3: int_0^inf r^2 (1+r^2)^(-3) dr = pi/16 via the tangent substitution
        val = extremizer_tail_lq(P32, 1e-12, 1.0)
        assert val == pytest.approx(sphere_area(2) * math.pi / 16, rel=1e-10)

    def test_unit_tail_closed_form(self):
        # lower limit 1: int_1^inf r^2 (1+r^2)^(-3) dr = pi/32
        assert extremizer_tail_lq(P32, 1.0, 1.0) == pytest.approx(
            4 * math.pi * math.pi / 32, rel=1e-12)

    def test_strictly_decreasing_in_lambda(self):
        for p in (P32, SobolevParams(4, 1.5)):
            vals = [extremizer_tail_lq(p, lam, 0.7)
                    for lam in (0.25, 0.5, 1.0, 2.0, 4.0)]
            assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_matches_untransformed_adaptive_quadrature(self):
        for p in (P32, SobolevParams(6, 2.5)):
            for lam, r0 in ((0.8, 0.9), (1.7, 1.2)):
                a = lam ** (2.0 / (p.N - p.s)) * r0
                oracle, _ = quad(lambda r: r ** (p.N - 1) * (1 + r * r) ** (-p.N),
                                 a, np.inf, limit=300)
                from sobstab.specfun import _sphere_area
                assert extremizer_tail_lq(p, lam, r0) == pytest.approx(
                    _sphere_area(p.N - 1) * oracle, rel=1e-10)

    def test_matches_incomplete_beta_over_dimensions_and_radii(self):
        # x = r^2/(1+r^2) gives |S^(N-1)| B(x0..1; N/2, N/2) / 2 with
        # x0 = a^2/(1+a^2); at 80 digits the oracle carries no cancellation
        import mpmath

        with mpmath.workdps(80):
            for N in range(1, 25):
                p = SobolevParams(N, 0.5)
                lam = 2.0
                for a in np.geomspace(1e-12, 1e3, 16):
                    r0 = a / lam ** (2.0 / (N - p.s))
                    A = mpmath.mpf(lam) ** (2 / (N - mpmath.mpf(p.s))) * mpmath.mpf(r0)
                    half_n = mpmath.mpf(N) / 2
                    oracle = (mpmath.pi ** half_n / mpmath.gamma(half_n)
                              * mpmath.betainc(half_n, half_n, A * A / (1 + A * A), 1))
                    assert extremizer_tail_lq(p, lam, r0) == pytest.approx(
                        float(oracle), rel=1e-13), (N, a)


class TestConstants:
    def test_rho_in_unit_interval_with_tiny_residual(self):
        for p in PARAM_GRID:
            wc = compute_constants(p)
            assert 0.0 < wc.rho < 1.0
            assert abs(eq_rho_residual(p, wc)) <= 1e-12
            assert wc.C1 > 0 and wc.C2 > 0 and wc.C0 > 0 and wc.C > 0
            assert wc.C0 == max(wc.C2, 1.0 / (wc.rho * math.sqrt(sharp_constant(p))))
            assert wc.C == pytest.approx(wc.C0 ** (-2.0), rel=1e-15)

    @pytest.mark.parametrize("N,s", [(20, 19.9), (30, 27.0), (37, 33.3), (38, 34.2)])
    def test_residual_as_s_nears_n(self, N, s):
        # 1 - rho by subtraction gave -1.28e-5 at (30, 27) and ZeroDivisionError at (38, 34.2)
        p = SobolevParams(N, s)
        assert abs(eq_rho_residual(p, compute_constants(p))) <= 1e-12

    @pytest.mark.parametrize("N", [24, 100])
    def test_residual_is_relative_to_rho(self, N):
        # rho is 1.3e-4 at (24, 1) and 4.8e-34 at (100, 1): an absolute
        # residual of a 1e-9 relative error reads 1.3e-13 and 4.8e-43
        p = SobolevParams(N, 1.0)
        wc = compute_constants(p)
        planted = wc._replace(rho=wc.rho * (1.0 + 1e-9))
        assert abs(eq_rho_residual(p, wc)) <= 1e-12
        assert abs(eq_rho_residual(p, planted)) > 1e-12

    def test_rho_32_against_quadrature_oracle(self):
        # tail = |S^2| (pi/16 - int_0^1), adaptive quadrature as the oracle
        inner, _ = quad(lambda r: r * r * (1 + r * r) ** (-3.0), 0.0, 1.0)
        tail = 4 * math.pi * (math.pi / 16 - inner)
        big_r = tail ** (1.0 / 6.0)
        sq_s = math.sqrt(3 * (math.pi / 2) ** (4 / 3))
        rho_oracle = big_r * sq_s / (1 + big_r * sq_s)
        wc = compute_constants(P32)
        assert wc.rho == pytest.approx(rho_oracle, rel=1e-8)
        assert wc.rho == pytest.approx(0.71, abs=5e-3)

    def test_unit_ball_radius(self):
        assert unit_ball_radius(3) == pytest.approx((3 / (4 * math.pi)) ** (1 / 3), rel=1e-13)
        assert ball_volume(2) == pytest.approx(math.pi, rel=1e-14)

    def test_tail_chain_consistency(self):
        # if the tail mass drops below its unit-ball reference value, the
        # rescaled support crosses the unit ball
        for p in (P32, SobolevParams(4, 1.5)):
            r0 = unit_ball_radius(p.N)
            reference = extremizer_tail_lq(p, 1.0, 1.0)
            for lam in np.logspace(-1, 2, 25):
                if extremizer_tail_lq(p, lam, r0) <= reference:
                    assert lam ** (2.0 / (p.N - p.s)) * r0 >= 1.0 - 1e-12


def _constants_oracle(N, s):
    """compute_constants' chain in 150-digit mpmath, the tail in closed form.

    The tail |S^(N-1)| int_1^inf r^(N-1) (1+r^2)^(-N) dr is half the whole
    integral, |S^(N-1)| B(N/2, N/2) / 4, since r -> 1/r maps the integrand's
    halves onto each other.  1 - rho is formed by subtraction, as the
    chain is written; at (100, 90) it is about 1e-54, so 150 digits leave
    it about 90.
    """
    import mpmath

    with mpmath.workdps(150):
        s = mpmath.mpf(s)
        half_n = mpmath.mpf(N) / 2
        q = 2 * N / (N - s)
        sharp = (2 ** s * mpmath.pi ** (s / 2) * mpmath.gamma((N + s) / 2)
                 / mpmath.gamma((N - s) / 2)
                 * (mpmath.gamma(half_n) / mpmath.gamma(N)) ** (s / N))
        area = 2 * mpmath.pi ** half_n / mpmath.gamma(half_n)
        vol = area / N
        r0 = vol ** (-mpmath.mpf(1) / N)
        x = (area * mpmath.beta(half_n, half_n) / 4) ** (1 / q) * mpmath.sqrt(sharp)
        rho = x / (1 + x)
        c1 = mpmath.sqrt(sharp) * (1 - rho) * (area / (N * (2 * r0) ** N)) ** (1 / q)
        u_weak = area * vol ** (-s / N) / s
        c2 = (1 + rho) / c1 * u_weak + 1 / mpmath.sqrt(sharp)
        c0 = max(c2, 1 / (rho * mpmath.sqrt(sharp)))
        return {"rho": rho, "r0": r0, "extremizer_weak": u_weak, "C1": c1, "C2": c2,
                "C0": c0, "C": c0 ** -2}


class TestConstantsAgainstOracle:
    # s near N cancelled 1 - rho (C 64 % off at (37, 33.3), ZeroDivisionError
    # from (38, 34.2)); the bracket |S^(N-1)| / (N (2 r0)^N) went subnormal
    # from N = 217 and raised from N = 226
    @pytest.mark.parametrize("N,s", [(3, 2.0), (2, 1.0), (5, 0.5), (8, 3.3), (20, 19.9),
                                     (30, 27.0), (37, 33.3), (38, 34.2), (100, 90.0),
                                     (216, 1.0), (225, 1.0), (300, 1.0)])
    def test_every_constant_matches_mpmath(self, N, s):
        got = compute_constants(SobolevParams(N, s))._asdict()
        for name, value in _constants_oracle(N, s).items():
            assert got[name] == pytest.approx(float(value), rel=1e-12), name

    @pytest.mark.parametrize("N,s,what", [
        (331, 1.0, "the L^q tail at (N, s) = (331, 1.0) is "),
        (242, 217.8, "S at (N, s) = (242, 217.8) is inf"),
        (460, 1.0, "|S^459| is 0.0"),
    ])
    def test_constants_outside_the_double_range_are_refused(self, N, s, what):
        from sobstab._util import RefusalError

        with pytest.raises(RefusalError, match=re.escape(what)):
            compute_constants(SobolevParams(N, s))


class TestVerifyTheorem2:
    @pytest.mark.parametrize("N,s", [(3, 2.0), (2, 1.0)])
    def test_bump_family_margins_positive(self, N, s):
        p = SobolevParams(N, s)
        K = 384
        r0 = unit_ball_radius(N)
        for sharp in (1.0, 2.0, 4.0):
            case = verify_theorem2(bump_profile(p, r0, sharp), K)
            assert case.margin >= -1e-6 * case.lhs
            assert case.margin > 0
            assert case.omega_measure == pytest.approx(1.0, rel=1e-12)

    def test_mollified_extremizer_margin_positive(self):
        p = P32
        K = 448
        fractions = []
        for radius in (1.5, 3.0):
            case = verify_theorem2(mollified_extremizer_profile(p, 1.0, radius), K)
            assert case.margin > 0
            fractions.append(case.lhs / case.norm_star_sq)
        # wider cutoff = nearer the extremizer = relatively smaller deficit
        assert fractions[1] < fractions[0]

    def test_margin_invariant_under_rescaling(self):
        p = P32
        K = 384
        u = bump_profile(p, unit_ball_radius(3), 2.0)
        lam = 2.0 ** ((p.N - p.s) / 2.0)  # support shrinks by a factor 2
        base = verify_theorem2(u, K)
        scaled = verify_theorem2(dilate(u, lam), K)
        assert scaled.margin == pytest.approx(base.margin, rel=1e-6)
        assert scaled.omega_measure == pytest.approx(
            base.omega_measure * lam ** (-p.q), rel=1e-10)
        assert scaled.weak == pytest.approx(base.weak / lam, rel=1e-8)

    def test_composes_with_deficit_functional(self):
        # the remainder bound restated through the deficit module
        p = P32
        wc = compute_constants(p)
        K = 384
        rule = default_rule(3, K)
        for sharp in (1.0, 2.0):
            u = bump_profile(p, unit_ball_radius(3), sharp)
            v = pullback_to_sphere(u, rule, K)
            values, measures = radial_cells(u)
            wk = weak_norm(values, measures, p)
            omega = ball_volume(3) * u.support_radius ** 3
            assert deficit(v, rule) >= wc.C * omega ** (-2.0 / p.q) * wk * wk

    def test_refuses_under_resolved_truncation(self):
        p = P32
        with pytest.raises(TruncationError, match="increase K"):
            verify_theorem2(bump_profile(p, unit_ball_radius(3), 1.0), 64)

    def test_rejects_negative_degree(self):
        with pytest.raises(ValueError, match="^truncation degree K must be >= 0, got -1$"):
            verify_theorem2(bump_profile(P32, unit_ball_radius(3), 1.0), -1)

    @pytest.mark.parametrize("scale", [1e-50, 1e-152, 1e-154])
    def test_tail_share_is_taken_on_the_unit_scale(self, scale):
        # the share is 1.455418e-06 at every scale; from the coefficients' own
        # squares it read 1.389874e-06 at 1e-152 and 0 at 1e-154, where they
        # underflow, and 1e-154 was refused only for its subnormal rhs
        u = parse_profile(f"mollified_extremizer:{scale},1", SobolevParams(8, 3.3))
        with pytest.raises(TruncationError, match=r"^coefficient tail is 1\.46e-06 of the norm; "
                                                  r"increase K \(K=384\)$"):
            verify_theorem2(u, 384)

    @pytest.mark.filterwarnings("error")
    def test_profile_whose_norm_overflows_is_refused(self):
        # norm_star(v) ** 2 raised OverflowError; unchecked, lhs is inf - inf
        bump = bump_profile(P32)
        u = RadialFunction(P32, lambda r: 1e160 * bump(r), support_radius=1.0)
        with pytest.raises(RefusalError, match=r"^profile radial: norm_star_sq is inf, "
                                               "outside the range of normal doubles$"):
            verify_theorem2(u, 384)

    def test_parts_are_those_of_a_scan_member(self):
        # one evaluation path: ||v||_*^2 was norm_star(v) ** 2, whose libm pow
        # gave 0x1.bda749356cc57p-1 here, one ulp above the product
        rule = default_rule(3, 384)
        u = parse_profile("bump:0.73625,1", P32)
        case = verify_theorem2(u, 384)
        report = stability_ratio(pullback_to_sphere(u, rule, 384), rule)
        assert case.norm_star_sq == report.norm_star_sq == float.fromhex("0x1.bda749356cc56p-1")
        assert (case.lq_norm, case.lhs) == (report.lq_norm, report.deficit)

    @pytest.mark.parametrize("margin, violated", [(0.5, False), (-5e-7, False), (-2e-6, True)])
    def test_violated_below_the_roundoff_margin(self, margin, violated):
        case = Theorem2Case(profile="p", lhs=1.0, rhs=1.0 - margin, margin=margin, weak=1.0,
                            omega_measure=1.0, norm_star_sq=1.0, lq_norm=1.0)
        assert case.violated is violated

    def test_rejects_unbounded_support(self):
        with pytest.raises(ValueError):
            verify_theorem2(gaussian_profile(P32), 64)

    @pytest.mark.parametrize("make, K, n_cells, message", [
        (gaussian_profile, 997, 2048, "verification requires a compactly supported profile"),
        (bump_profile, 998, 0, "the weak norm needs at least one radial cell, got 0"),
    ], ids=["unbounded-support", "zero-cells"])
    def test_refused_before_the_rule_is_built(self, make, K, n_cells, message):
        # at a K no other test uses, so building its rule first would be a cache miss
        misses = gauss_jacobi_rule.cache_info().misses
        with pytest.raises(ValueError, match=f"^{message}$"):
            verify_theorem2(make(P32), K, n_cells)
        assert gauss_jacobi_rule.cache_info().misses == misses

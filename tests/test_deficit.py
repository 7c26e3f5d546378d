import gc
import json
import math
import os
import re
import subprocess
import sys
import threading
import warnings
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import sobstab.deficit as deficit_module
import sobstab.zonal as zonal_module
from sobstab._util import RefusalError, golden_section_min
from sobstab.conformal import ManifoldPoint
from sobstab.deficit import (
    T0_CAP,
    DeficitReport,
    OnManifoldError,
    ScanConfig,
    _RANDOM_DECAY,
    _T0_GRID,
    _T0_TOL,
    _AxialTable,
    deficit,
    distance,
    gradient_form,
    run_scan,
    scan_members,
    stability_ratio,
)
from sobstab.specfun import SobolevParams, eigenvalue, local_constant, sphere_area
from sobstab.zonal import (
    ZonalFunction,
    _Stack,
    basis_function,
    constant,
    default_rule,
    gauss_jacobi_rule,
    inner_star,
    lambdas,
    norm_lp,
    norm_star,
)

from conftest import (PARAM_GRID, P32, conformal_shift, hessian_form, manifold_zonal, python_env,
                      smooth_random_zonal)


def unit_mode(p, k, K=64):
    e = basis_function(p, k, K)
    return e * (1.0 / norm_star(e))


class TestDeficit:
    def test_vanishes_on_unit_function(self, rule32):
        one = constant(P32, 1.0, 64)
        assert abs(deficit(one, rule32)) < 1e-12 * norm_star(one) ** 2

    def test_vanishes_on_manifold(self, rule32):
        for c, t0 in ((0.5, 0.0), (1.0, 0.3), (3.0, -0.8)):
            v = manifold_zonal(P32, ManifoldPoint(c, t0), rule32, 64)
            assert abs(deficit(v, rule32)) < 1e-9 * norm_star(v) ** 2

    def test_second_order_taylor_along_e2(self, rule32):
        eps = 0.01
        u = constant(P32, 1.0, 64) + eps * basis_function(P32, 2, 64)
        target = eps**2 * (eigenvalue(P32, 2) - eigenvalue(P32, 1))  # 5e-4
        assert deficit(u, rule32) == pytest.approx(target, rel=0.1)

    def test_scale_invariance(self, rule32):
        rng = np.random.default_rng(20)
        for _ in range(5):
            u = smooth_random_zonal(P32, rng)
            base = deficit(u, rule32)
            for c in (0.5, -2.0, 7.0):
                assert deficit(c * u, rule32) == pytest.approx(c * c * base, rel=1e-10)


class TestGradientForm:
    def test_critical_at_unit_function(self, rule32):
        one = constant(P32, 1.0, 64)
        rng = np.random.default_rng(21)
        for _ in range(10):
            v = smooth_random_zonal(P32, rng)
            assert abs(gradient_form(one, v, rule32)) < 1e-12

    def test_euler_homogeneity(self, rule32):
        # both terms of the functional are 2-homogeneous
        rng = np.random.default_rng(22)
        for _ in range(10):
            u = smooth_random_zonal(P32, rng, offset=1.0)
            assert gradient_form(u, u, rule32) == pytest.approx(
                2.0 * deficit(u, rule32), rel=1e-10, abs=1e-12)

    def test_matches_finite_differences(self, rule32):
        rng = np.random.default_rng(23)
        h = 1e-5
        for _ in range(20):
            u = smooth_random_zonal(P32, rng, decay=0.45, offset=1.0)
            v = smooth_random_zonal(P32, rng, decay=0.45)
            g = gradient_form(u, v, rule32)
            fd = (deficit(u + h * v, rule32) - deficit(u - h * v, rule32)) / (2 * h)
            assert g == pytest.approx(fd, rel=1e-5, abs=1e-9)

    def test_zero_function_rejected(self, rule32):
        zero = ZonalFunction(P32, np.zeros(8))
        with pytest.raises(ValueError):
            gradient_form(zero, constant(P32, 1.0, 7), rule32)

    def test_small_member_keeps_its_gradient(self, rule32):
        # |u|^6 underflowed at every node: |u|_q read 0.0, 0.0 ** (2 - q) raised
        # ZeroDivisionError, and later the underflow was refused
        a = np.zeros(65)
        a[0], a[2] = 1e-100, 1e-103
        v = basis_function(P32, 2, 64)
        assert gradient_form(ZonalFunction(P32, a), v, rule32) == pytest.approx(
            1e-100 * gradient_form(ZonalFunction(P32, a * 1e100), v, rule32), rel=1e-13)


class TestHessianForm:
    def test_spectral_gap_at_unit_function(self, rule32):
        one = constant(P32, 1.0, 64)
        lam1 = eigenvalue(P32, 1)
        for k in range(1, 11):
            ek = basis_function(P32, k, 64)
            half = hessian_form(one, ek, ek, rule32) / 2.0
            target = eigenvalue(P32, k) - lam1
            assert half == pytest.approx(target, abs=1e-6 * eigenvalue(P32, k))
        # tangent direction: k = 1 sits exactly at the gap
        e1 = basis_function(P32, 1, 64)
        assert abs(hessian_form(one, e1, e1, rule32)) < 1e-10

    def test_symmetry(self, rule32):
        rng = np.random.default_rng(24)
        for _ in range(10):
            u = smooth_random_zonal(P32, rng, offset=1.0)
            v = smooth_random_zonal(P32, rng)
            w = smooth_random_zonal(P32, rng)
            a = hessian_form(u, v, w, rule32)
            b = hessian_form(u, w, v, rule32)
            assert a == pytest.approx(b, rel=1e-12, abs=1e-12)

    def test_matches_finite_differences(self, rule32):
        rng = np.random.default_rng(25)
        h = 3e-4
        for _ in range(10):
            u = smooth_random_zonal(P32, rng, decay=0.45, offset=1.0)
            v = smooth_random_zonal(P32, rng, decay=0.45)
            w = smooth_random_zonal(P32, rng, decay=0.45)

            def psi(z):
                return deficit(z, rule32)

            def second(z):
                return (psi(u + h * z) - 2 * psi(u) + psi(u - h * z)) / h**2

            fd = (second(v + w) - second(v - w)) / 4.0
            got = hessian_form(u, v, w, rule32)
            assert got == pytest.approx(fd, rel=1e-4, abs=1e-7)


class TestDistance:
    def test_recovers_manifold_point(self, rule32):
        v = manifold_zonal(P32, ManifoldPoint(2.5, 0.3), rule32, 64)
        d, nearest = distance(v, rule32)
        assert d <= 1e-6 * norm_star(v)
        assert nearest.c == pytest.approx(2.5, abs=1e-5)
        assert nearest.t0 == pytest.approx(0.3, abs=1e-4)

    def test_normal_perturbation(self, rule32):
        # nearest point stays at the base point to leading order
        for k in (2, 3, 5):
            eps = 1e-3
            u = constant(P32, 1.0, 64) + eps * basis_function(P32, k, 64)
            d, nearest = distance(u, rule32)
            assert d**2 == pytest.approx(eps**2 * eigenvalue(P32, k), rel=1e-2)
            assert nearest.c == pytest.approx(1.0, abs=1e-4)

    def test_upper_bound_by_norm(self, rule32):
        rng = np.random.default_rng(26)
        for _ in range(20):
            u = smooth_random_zonal(P32, rng, decay=0.8)
            d, _ = distance(u, rule32)
            assert d <= norm_star(u) * (1 + 1e-12)

    def test_zero_function_convention(self, rule32):
        zero = ZonalFunction(P32, np.zeros(65))
        assert distance(zero, rule32) == (0.0, None)
        assert abs(deficit(zero, rule32)) == 0.0

    def test_scaling(self, rule32):
        rng = np.random.default_rng(27)
        u = smooth_random_zonal(P32, rng)
        d, _ = distance(u, rule32)
        for c in (0.5, -3.0):
            dc, _ = distance(c * u, rule32)
            assert dc == pytest.approx(abs(c) * d, rel=1e-10)

    def test_two_bubble_symmetry_breaking(self, rule32):
        # widely separated bubbles: the nearest axial point is off-center,
        # so the search must not get stuck at the symmetric saddle t0 = 0
        va = manifold_zonal(P32, ManifoldPoint(1.0, 0.95), rule32, 64)
        vb = manifold_zonal(P32, ManifoldPoint(1.0, -0.95), rule32, 64)
        u = va + vb
        d, nearest = distance(u, rule32)
        assert d > 0
        assert abs(nearest.t0) > 0.5

        def projection(t0):
            g = manifold_zonal(P32, ManifoldPoint(1.0, t0), rule32, 64)
            return inner_star(u, g) ** 2 / norm_star(g) ** 2

        assert projection(nearest.t0) > projection(0.0)

    @pytest.mark.filterwarnings("error")
    def test_large_member_keeps_its_distance(self, rule32):
        # returned d = nan and a nearest t0 of -0.91 (the true one is about 1.4e-8),
        # with three numpy warnings, and later was refused for its ||u||_*^2
        base = constant(P32, 1.0, 64) + 0.1 * basis_function(P32, 3, 64)
        d, nearest = distance(base, rule32)
        for u in (1e160 * base, [constant(P32, 1.0, 64), 1e160 * base]):
            dc, near = distance(u, rule32)
            if isinstance(u, list):
                dc, near = dc[1], near[1]
            assert dc == pytest.approx(1e160 * d, rel=1e-13)
            assert near.c == pytest.approx(1e160 * nearest.c, rel=1e-13)
            assert near.t0 == pytest.approx(nearest.t0, abs=1e-9)


class TestStabilityRatio:
    def test_sandwich_upper_bound(self, rule32):
        rng = np.random.default_rng(28)
        for _ in range(30):
            u = smooth_random_zonal(P32, rng, decay=0.8)
            rep = stability_ratio(u, rule32)
            assert 0.0 < rep.ratio <= 1.0 + 1e-6
            assert rep.deficit == pytest.approx(
                rep.norm_star_sq - rep.lq_norm**2 * 5.477904089531334, rel=1e-9)
            assert rep.distance <= math.sqrt(rep.norm_star_sq) + 1e-9

    def test_report_deficit_is_deficit(self):
        # one expression of Psi: `ns * ns` and `norm_star(u) ** 2` differ in
        # the last bit for member random:10 of this scan
        p = SobolevParams(5, 0.5)
        cfg = ScanConfig(seed=1, K=64, n_normal=20, n_random=20)
        rule = gauss_jacobi_rule(p.N, cfg.rule_size)
        result = run_scan(p, cfg)
        assert result.n_skipped == 0
        for (_, label, u), (*_, report) in zip(scan_members(p, cfg), result.entries):
            assert deficit(u, rule) == report.deficit, label

    def test_on_manifold_rejected(self, rule32):
        v = manifold_zonal(P32, ManifoldPoint(1.0, 0.4), rule32, 64)
        with pytest.raises(OnManifoldError):
            stability_ratio(v, rule32)

    def test_overflowing_member_is_refused(self, rule32):
        # a lone member is a scan of one: its ||u||_*^2 is past the doubles,
        # and numpy warns of nothing, so -W error still sees the refusal
        a = np.zeros(65)
        a[0] = a[3] = 1e200
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(RefusalError, match="^member u: norm_star_sq is inf, outside "
                                                   "the range of normal doubles$"):
                stability_ratio(ZonalFunction(P32, a), rule32)
        assert [str(w.message) for w in caught] == []

    @pytest.mark.filterwarnings("error")
    def test_underflowing_member_is_refused(self, rule32):
        # at 2^-1000 ||u||_*^2 and d^2 underflow to 0.0, so the ratio would
        # divide by zero; at 2^-513 ||u||_*^2 is subnormal
        u = constant(P32, 1.0, 64) + 0.3 * basis_function(P32, 1, 64)
        for k, value in ((-1000, "0.0"), (-513, "2.105741284203345e-308")):
            with pytest.raises(RefusalError, match=f"^member u: norm_star_sq is {value}, "
                                                   "outside the range of normal doubles$"):
                stability_ratio(2.0 ** k * u, rule32)
        # a value, not a report: Psi(u) times 4^-1000 rounds to 0.0
        assert deficit(2.0 ** -1000 * u, rule32) == 0.0

    @pytest.mark.filterwarnings("error")
    def test_underflowing_squared_distance_is_refused(self, rule32):
        # ||u||_*^2 is a normal double, but d^2, which the ratio divides by, is not
        u = 2.0 ** -511 * (constant(P32, 1.0, 64) + 1e-3 * unit_mode(P32, 2))
        with pytest.raises(RefusalError, match="^member u: distance\\^2 is 2.225073849e-314, "
                                               "outside the range of normal doubles$"):
            stability_ratio(u, rule32)

    @pytest.mark.filterwarnings("error")
    def test_scan_names_the_first_refused_member(self, rule32):
        ok = constant(P32, 1.0, 64) + 0.1 * unit_mode(P32, 2)
        tiny = 2.0 ** -1000 * ok
        huge = ZonalFunction(P32, np.r_[1e200, 0.0, 0.0, 1e200, np.zeros(61)])
        for members, message in (([ok, tiny], "^member b: norm_star_sq is 0.0, "),
                                 ([tiny, huge], "^member a: norm_star_sq is 0.0, "),
                                 ([huge, tiny], "^member a: norm_star_sq is inf, ")):
            with pytest.raises(RefusalError, match=message):
                deficit_module._reports(["a", "b"], members, rule32)

    @pytest.mark.filterwarnings("error")
    def test_member_whose_norm_overflows_is_refused_not_skipped(self):
        # ||u||_* of 1e307 (e_0 + e_5) is inf, and inf <= 1e-9 inf held, so
        # the member passed for one on the manifold: OnManifoldError alone,
        # skipped in a scan, while 1e300 times it was refused.  A non-finite
        # ||u||_* is refused before the manifold test.
        p = SobolevParams(8, 3.3)
        rule = gauss_jacobi_rule(8, 130)
        a = np.zeros(65)
        a[[0, 5]] = 1.0
        zero = ZonalFunction(p, np.zeros(65))
        message = "^member {}: norm_star_sq is inf, outside the range of normal doubles$"
        assert norm_star(ZonalFunction(p, 1e307 * a)) == math.inf
        for scale in (1e307, 1e300):
            u = ZonalFunction(p, scale * a)
            with pytest.raises(RefusalError, match=message.format("u")):
                stability_ratio(u, rule)
            with pytest.raises(RefusalError, match=message.format("b")):
                deficit_module._reports(["a", "b"], [zero, u], rule)
        # the zero function stays on the manifold: skipped
        assert deficit_module._reports(["a"], [zero], rule) == [None]

    def test_local_limit_along_e2(self, rule32):
        ratios = {}
        for eps in (1e-2, 1e-3):
            u = constant(P32, 1.0, 64) + eps * unit_mode(P32, 2)
            ratios[eps] = stability_ratio(u, rule32).ratio
        rich = (10 * ratios[1e-3] - ratios[1e-2]) / 9
        assert rich == pytest.approx(4 / 7, rel=1e-3)

    def test_high_mode_ratio_approaches_one(self, rule32):
        lam1 = eigenvalue(P32, 1)
        for k in (10, 30):
            u = constant(P32, 1.0, 64) + 1e-3 * unit_mode(P32, k)
            rep = stability_ratio(u, rule32)
            assert rep.ratio == pytest.approx(1 - lam1 / eigenvalue(P32, k), rel=1e-2)

    def test_local_constant_convergence_across_grid(self):
        # Richardson-extrapolated e2 ratio within 1% everywhere
        for p in PARAM_GRID:
            rule = default_rule(p.N, 64)
            r2 = stability_ratio(constant(p, 1.0, 64) + 1e-2 * unit_mode(p, 2), rule).ratio
            r3 = stability_ratio(constant(p, 1.0, 64) + 1e-3 * unit_mode(p, 2), rule).ratio
            rich = (10 * r3 - r2) / 9
            assert rich == pytest.approx(local_constant(p), rel=0.01), (p.N, p.s)


class TestConformalInvariance:
    def test_report_quantities_invariant(self, rule32):
        # The distance search runs over the t0-capped family, so invariance
        # holds when the optima (original and shifted) stay interior; random
        # near-manifold inputs keep them centered.  Far-from-manifold inputs
        # can pin the optimum at the cap, which boundary_hit reports.
        rng = np.random.default_rng(29)
        for _ in range(10):
            u = (constant(P32, 1.0, 64)
                 + 0.5 * smooth_random_zonal(P32, rng, max_degree=10))
            base = stability_ratio(u, rule32)
            assert not base.boundary_hit
            for t0 in (0.3, -0.3, 0.7, -0.7):
                shifted = stability_ratio(conformal_shift(u, t0, rule32, 64), rule32)
                assert shifted.deficit == pytest.approx(base.deficit, rel=1e-5)
                assert shifted.distance == pytest.approx(base.distance, rel=1e-5)
                assert shifted.ratio == pytest.approx(base.ratio, rel=1e-5)


class TestScans:
    def test_deterministic(self):
        cfg = ScanConfig(seed=123, n_normal=4, n_random=4, bubble_t0=(0.4,))
        a = run_scan(P32, cfg).alpha_hat
        b = run_scan(P32, cfg).alpha_hat
        assert a == b  # bit-for-bit

    def test_random_members_pinned(self):
        # The coefficients of a seeded random member and a seeded random
        # normal-space member, so that a change of the random families
        # (their seed stream or degree decay) fails here, not only against
        # the benchmark references.
        cfg = ScanConfig(seed=1, K=8, n_normal=1, n_random=1, bubble_t0=())
        members = {label: u.coeffs for _, label, u in scan_members(P32, cfg)}
        pinned = {
            "random:0": [
                -0.275602905299, 0.970547860799, 0.56628242736, -1.14377167081,
                -0.597695597357, -0.0414742366889, -0.0751408227635, 0.0285178976764,
                0.0217567320166],
            "local:rand0:eps=0.1": [
                4.44288293816, 0.0, 0.0070338485444, 0.0125421048953, 0.00378312282619,
                -0.0111897337443, 0.00583046936677, 0.00215598089609, -0.00194510561735],
        }
        for label, coeffs in pinned.items():
            assert members[label] == pytest.approx(coeffs, rel=1e-11, abs=0.0), label

    def test_alpha_bounds(self):
        cfg = ScanConfig(seed=7, n_normal=8, n_random=8)
        alpha = run_scan(P32, cfg).alpha_hat
        assert 0.0 < alpha <= local_constant(P32) + 0.05

    def test_sandwich_across_scan(self):
        cfg = ScanConfig(seed=11, n_normal=6, n_random=6)
        result = run_scan(P32, cfg)
        assert result.n_skipped == 0
        for _idx, _family, _label, rep in result.entries:
            slack = 1e-9 * rep.norm_star_sq
            assert rep.deficit >= -slack
            assert rep.distance**2 >= rep.deficit - slack
            if rep.distance > 1e-4 * math.sqrt(rep.norm_star_sq):
                assert rep.deficit > 0.0

    def test_empty_scan_rejected(self):
        with pytest.raises(ValueError):
            ScanConfig(seed=1, n_normal=0, n_random=0, eps_grid=(),
                       normal_modes=(), bubble_t0=())

    @pytest.mark.parametrize("M", [10, 63, 64])
    def test_rule_too_small_for_K_rejected(self, M):
        # fewer than K + 1 nodes alias degree K: a scan on such a rule would
        # read wrong distances (3.85 for a member at distance 0.1 at M = 10)
        with pytest.raises(ValueError, match=rf"^M={M} nodes cannot resolve degree K=64 "
                                             r"\(need M >= K\+1\)$"):
            ScanConfig(seed=1, M=M)
        assert ScanConfig(seed=1, M=65).rule_size == 65

    @pytest.mark.parametrize("window, outside, inside", [
        ({"K": 8}, (12,), (8,)),
        ({"random_max_degree": 4}, (2, 5), (2, 4)),
    ])
    def test_normal_modes_outside_window_rejected(self, window, outside, inside):
        with pytest.raises(ValueError, match="normal_modes exceed the random_max_degree/K window"):
            ScanConfig(seed=1, normal_modes=outside, **window)
        assert ScanConfig(seed=1, normal_modes=inside, **window).normal_modes == inside

    def test_families_count_the_members(self):
        cfg = ScanConfig(seed=1, K=8, n_normal=2, n_random=3, eps_grid=(0.1, 0.01),
                         normal_modes=(2,), bubble_t0=(0.5,))
        assert cfg.families == {"local": 6, "random": 3, "bubble": 1}
        counted = {}
        for family, _, _ in scan_members(P32, cfg):
            counted[family] = counted.get(family, 0) + 1
        assert counted == cfg.families

    def test_member_count(self):
        cfg = ScanConfig(seed=1, n_normal=3, n_random=2, eps_grid=(0.1, 0.01),
                         normal_modes=(2, 3), bubble_t0=(0.4, 0.6))
        assert cfg.n_members == 2 * (2 + 3) + 2 + 2
        result = run_scan(P32, cfg)
        assert len(result.entries) == cfg.n_members

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ScanConfig(seed=1, n_normal=-1)
        with pytest.raises(ValueError):
            ScanConfig(seed=1, eps_grid=(0.0,))
        with pytest.raises(ValueError):
            ScanConfig(seed=1, normal_modes=(1,))
        with pytest.raises(ValueError):
            ScanConfig(seed=1, bubble_t0=(1.0,))

    @pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf])
    def test_non_finite_epsilon_rejected(self, eps):
        with pytest.raises(ValueError, match="^epsilon grid entries must be positive and finite$"):
            ScanConfig(seed=1, eps_grid=(0.1, eps))

    @pytest.mark.parametrize("grid, label", [((0.01, 0.01), "0.01"),
                                             ((0.01, 0.0100000001), "0.01"),
                                             ((1e-3, 0.1, 0.00100000049), "0.001")])
    def test_epsilons_sharing_a_label_rejected(self, grid, label):
        # members are labelled by eps:g, and the strict-gap check matches labels
        with pytest.raises(ValueError, match=f"share the member label eps={re.escape(label)};"):
            ScanConfig(seed=1, eps_grid=grid)
        assert ScanConfig(seed=1, eps_grid=(0.01, 0.0100001)).eps_grid == (0.01, 0.0100001)

    @pytest.mark.parametrize("fields, message", [
        ({"normal_modes": (2, 3, 2)}, "normal mode 2 is listed twice; each labels its members"),
        ({"bubble_t0": (0.5, 0.50000001)},
         "bubble separations share the member label t0=0.5; labels keep six significant digits"),
        ({"bubble_t0": (0.2, 0.35, 0.2)},
         "bubble separations share the member label t0=0.2; labels keep six significant digits"),
    ], ids=["modes", "bubbles-close", "bubbles-equal"])
    def test_modes_and_bubbles_sharing_a_label_rejected(self, fields, message):
        # `local:e{k}:eps=...` and `bubble:t0={t0:g}` label members as eps does
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ScanConfig(seed=1, **fields)
        cfg = ScanConfig(seed=1, K=8, normal_modes=(3, 2), bubble_t0=(0.5, 0.500001),
                         n_normal=0, n_random=0, random_max_degree=8)
        labels = [label for _, label, _ in scan_members(P32, cfg)]
        assert len(set(labels)) == len(labels) == cfg.n_members

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
            ScanConfig(seed=-1)
        assert ScanConfig(seed=0).seed == 0

    def test_zero_ratio_is_refused(self):
        # at eps = 1e-7 the deficit (~4/7 eps^2) is below the roundoff of
        # ||u||_*^2 ~ 15: run_scan itself refuses, not only the CLI
        cfg = ScanConfig(seed=1, eps_grid=(1e-7,), n_normal=5, n_random=0, bubble_t0=(0.5,))
        with pytest.raises(RefusalError, match=r"^minimum stability ratio is -?[0-9.e-]+: "
                                               "a member's deficit rounds to zero"):
            run_scan(P32, cfg)

    def test_sandwich_break_is_returned_not_refused(self, monkeypatch):
        # a ratio <= 0 from a member outside 0 <= Psi <= d^2 is a violation
        # for the caller to report, not a refusal
        broken = DeficitReport(norm_star_sq=1.0, lq_norm=1.0, deficit=-0.5, distance=0.5,
                               nearest=None, ratio=-2.0)
        monkeypatch.setattr(deficit_module, "_report", lambda *parts: broken)
        cfg = ScanConfig(seed=1, K=8, n_normal=0, n_random=1, eps_grid=(), normal_modes=(),
                         bubble_t0=())
        result = run_scan(P32, cfg)
        assert result.violation
        assert result.alpha_hat == -2.0

    def test_strict_gap_holds_on_the_benchmark_shapes(self):
        # König: for N >= 2 the e2 ratio lies strictly below local_constant
        # at small eps; the benchmark's shapes resolve it, so none is refused
        for N, s in BENCH_PAIRS:
            p = SobolevParams(N, s)
            for K in (32, 64, 384):
                cfg = ScanConfig(seed=1, K=K, n_normal=0, n_random=0, bubble_t0=(),
                                 normal_modes=(2,), eps_grid=(1e-2, 1e-3))
                result = run_scan(p, cfg)
                for _, _, label, report in result.entries:
                    assert report.ratio < result.local_constant, (N, s, K, label)

    def test_strict_gap_comes_after_a_violation(self, monkeypatch):
        # a broken sandwich is reported (exit 4) before the gap is judged
        broken = DeficitReport(norm_star_sq=1.0, lq_norm=1.0, deficit=2.0, distance=0.5,
                               nearest=None, ratio=8.0)
        monkeypatch.setattr(deficit_module, "_report", lambda *parts: broken)
        cfg = ScanConfig(seed=1, K=8, n_normal=0, n_random=0, eps_grid=(1e-3,),
                         normal_modes=(2,), bubble_t0=())
        result = run_scan(P32, cfg)
        assert result.violation and result.alpha_hat == 8.0

    @pytest.mark.parametrize("psi, violation", [
        (0.0, False), (0.25, False), (-1e-10, False), (0.25 + 1e-10, False),
        (-2e-9, True), (0.25 + 2e-9, True), (math.nan, True), (math.inf, True),
    ])
    def test_violation_is_the_sandwich_check(self, psi, violation):
        # 0 <= Psi <= d^2 up to 1e-9 ||u||_*^2; a NaN deficit breaks it.
        # run_scan sets ScanResult.violation from this check, once per scan.
        report = DeficitReport(norm_star_sq=1.0, lq_norm=1.0, deficit=psi, distance=0.5,
                               nearest=None, ratio=psi / 0.25)
        assert deficit_module._sandwich_broken([None, report]) is violation

    @pytest.mark.parametrize("degree, message", [
        (1, "random normal-space members need random_max_degree >= 2, got 1"),
        (-1, "random_max_degree must be >= 0, got -1"),
    ])
    def test_random_degree_below_the_normal_space(self, degree, message):
        # normal-space members have degrees 2..random_max_degree; with none
        # of those degrees their tail would be empty, of norm 0
        with pytest.raises(ValueError, match=message):
            ScanConfig(seed=1, K=8, normal_modes=(), n_normal=1, random_max_degree=degree)
        if degree >= 0:
            for no_normal in ({"n_normal": 0}, {"eps_grid": ()}):
                cfg = ScanConfig(seed=1, K=8, normal_modes=(), random_max_degree=degree,
                                 **no_normal)
                assert len(run_scan(P32, cfg).entries) == cfg.n_members

    def test_random_members_of_degree_zero_are_refused(self):
        # constants lie on the manifold: their d is the roundoff of the
        # cancellation in ||u||_*^2 - projection, and their ratio noise
        message = "random members need random_max_degree >= 1: of degree 0 they are constants"
        with pytest.raises(ValueError, match=message):
            ScanConfig(seed=4, K=64, normal_modes=(), n_normal=0, n_random=3,
                       bubble_t0=(0.5,), random_max_degree=0)
        cfg = ScanConfig(seed=4, K=8, normal_modes=(), n_normal=0, n_random=0,
                         bubble_t0=(0.5,), random_max_degree=0)
        assert len(run_scan(P32, cfg).entries) == 1

    def test_boundary_cap_reported(self, rule32):
        # a bubble pushed past the cap flags the boundary hit
        va = manifold_zonal(P32, ManifoldPoint(1.0, 0.97), rule32, 64)
        rep = stability_ratio(va + 1e-3 * basis_function(P32, 2, 64), rule32)
        assert rep.boundary_hit
        assert rep.nearest.t0 == pytest.approx(T0_CAP, abs=1e-6)

    def test_on_manifold_members_skipped_with_count(self):
        # an epsilon below the on-manifold threshold gets skipped, the rest
        # of the scan still reduces
        cfg = ScanConfig(seed=3, eps_grid=(1e-12,), normal_modes=(2,),
                         n_normal=0, n_random=2, bubble_t0=())
        result = run_scan(P32, cfg)
        assert result.n_skipped == 1
        assert result.n_members == 3
        assert math.isfinite(result.alpha_hat)

    def test_pure_e2_scan_recovers_local_constant(self):
        cfg = ScanConfig(seed=1, eps_grid=(1e-3,), normal_modes=(2,),
                         n_normal=0, n_random=0, bubble_t0=())
        alpha = run_scan(P32, cfg).alpha_hat
        assert alpha == pytest.approx(local_constant(P32), rel=2e-3)


class TestSharedExtremizerTable:
    # The members of a scan share g_{t0} and ||g_{t0}||_*^2 through one
    # _AxialTable that run_scan builds and one lockstep distance call;
    # sharing must not change a single bit of any report.
    CFG = ScanConfig(seed=7, n_normal=2, n_random=3, bubble_t0=(0.5, 0.8))
    ON_MANIFOLD = ScanConfig(seed=1, eps_grid=(1e-12,), normal_modes=(2,),
                             n_normal=0, n_random=0, bubble_t0=())

    def test_scan_reports_equal_unshared_evaluation(self):
        result = run_scan(P32, self.CFG)
        rule = gauss_jacobi_rule(3, self.CFG.rule_size)
        members = list(scan_members(P32, self.CFG))
        assert {family for family, _, _ in members} == {"local", "random", "bubble"}
        for (_, _, _, report), (_, label, u) in zip(result.entries, members):
            alone = stability_ratio(u, rule)  # builds a table of its own
            assert report == alone, label  # ratio, distance, nearest.c and .t0 included

    def test_scan_passes_one_table_to_distance(self, monkeypatch):
        # Wrappers of the module binding `distance` (the benchmark's spans
        # and planted errors) see one call with (stack, rule, table) as three
        # positionals, the stack being that of the members' norms, and what
        # they return is what the scan reports.
        calls = []
        original = deficit_module.distance

        def spy(*args, **kwargs):
            d, nearest = original(*args, **kwargs)
            calls.append((args, kwargs, d))
            return d, nearest

        monkeypatch.setattr(deficit_module, "distance", spy)
        base = run_scan(P32, self.CFG)
        assert len(calls) == 1
        (stack, rule, table), kwargs, d = calls[0]
        assert not kwargs and isinstance(table, _AxialTable) and isinstance(stack, _Stack)
        members, rows, e = stack
        assert len(members) == len(rows) == len(e) == self.CFG.n_members
        for (_, _, u), v, row, k in zip(scan_members(P32, self.CFG), members, rows, e):
            assert np.array_equal(u.coeffs, v.coeffs)
            assert np.array_equal(np.ldexp(row, k), u.coeffs)  # the searched row, unit scale
        assert rule is gauss_jacobi_rule(3, self.CFG.rule_size)
        assert isinstance(d, np.ndarray) and d.dtype == np.float64
        assert d.tolist() == [r.distance for *_, r in base.entries]

        def off_by_1e6(*args, **kwargs):
            d, nearest = original(*args, **kwargs)
            return d * (1.0 + 1e-6), nearest

        monkeypatch.setattr(deficit_module, "distance", off_by_1e6)
        planted = run_scan(P32, self.CFG)
        for (*_, r), (*_, moved) in zip(base.entries, planted.entries):
            assert moved.distance == r.distance * (1.0 + 1e-6) != r.distance

    def test_table_lives_only_as_long_as_the_scan(self, monkeypatch):
        tables = []
        original = deficit_module.distance

        def spy(members, rule, table):
            tables.append(weakref.ref(table))
            return original(members, rule, table)

        def failing(members, rule, table):
            tables.append(weakref.ref(table))
            raise RuntimeError("search failed")

        monkeypatch.setattr(deficit_module, "distance", spy)
        run_scan(P32, self.CFG)
        assert len(tables) == 1
        assert tables[-1]() is None  # freed on return, no collection needed
        with pytest.raises(OnManifoldError):
            run_scan(P32, self.ON_MANIFOLD)
        monkeypatch.setattr(deficit_module, "distance", failing)
        with pytest.raises(RuntimeError):  # raised while the table is in use
            run_scan(P32, self.CFG)
        assert len(tables) == 3
        gc.collect()
        assert all(ref() is None for ref in tables)

    def test_cached_arrays_are_read_only(self, rule32):
        table = _AxialTable(rule32, 64, P32)
        g, gg = table.rows(np.array([0.3, -0.7]))
        for array in (g, gg, table.G, table.gg, table.lam, _T0_GRID):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0.0

    def test_grid_equals_the_unique_construction(self):
        grid = np.unique(np.concatenate([np.linspace(-T0_CAP, T0_CAP, 49),
                                         [-0.8, -0.4, 0.0, 0.4, 0.8]]))
        assert np.array_equal(_T0_GRID, grid)
        assert np.array_equal(np.signbit(_T0_GRID), np.signbit(grid))

    def test_import_leaves_numpy_ma_out(self):
        # a plain np.unique imports numpy.ma; a cold scan command needs neither
        code = ("import sys\n"
                "from sobstab.deficit import ScanConfig, run_scan\n"
                "from sobstab.specfun import SobolevParams\n"
                "run_scan(SobolevParams(3, 2.0), ScanConfig(seed=1, K=8, n_normal=1, n_random=1))\n"
                "print('numpy.ma' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=python_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_grid_block_rows_are_the_table_rows(self, rule32):
        table = _AxialTable(rule32, 64, P32)
        assert _T0_GRID.size == 49 + 4  # the starts +-0.4 and +-0.8 are off the linspace
        for t0, row, norm in zip(_T0_GRID.tolist(), table.G, table.gg.tolist()):
            g, g_norm = table.rows(np.array([t0]))
            assert np.array_equal(row, g[0]) and norm == g_norm[0]

    def test_threads_may_share_a_table(self):
        # At M = 770 numpy's ufuncs release the GIL, so the threads' row
        # builds interleave; a table holds no state they could share.
        p = SobolevParams(5, 0.5)
        cfg = ScanConfig(seed=3, K=384, eps_grid=(1e-2,), n_normal=0, n_random=2,
                         bubble_t0=(0.5,))
        rule = gauss_jacobi_rule(p.N, cfg.rule_size)
        members = [u for _, _, u in scan_members(p, cfg)]
        alone = [stability_ratio(u, rule) for u in members]
        table = _AxialTable(rule, cfg.K, p)
        n = len(members)
        orders = [[(i + shift) % n for i in range(n)] * 2 for shift in (0, 2, 4)]
        start = threading.Barrier(len(orders), timeout=60)

        def reports(order):
            start.wait()
            return [(i, distance(members[i], rule, table)) for i in order]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=len(orders)) as pool:
                runs = [pool.submit(reports, order) for order in orders]
                shared = [pair for run in runs for pair in run.result(timeout=60)]
        finally:
            sys.setswitchinterval(interval)
        assert len(shared) == 2 * n * len(orders)
        for i, (d, nearest) in shared:
            assert (d, nearest) == (alone[i].distance, alone[i].nearest), i

    def test_table_is_keyed_by_degree_and_parameters(self, rule32):
        u = smooth_random_zonal(P32, np.random.default_rng(11), K=64, offset=1.0)
        assert distance(u, rule32, _AxialTable(rule32, 64, SobolevParams(3, 2.0))) \
            == distance(u, rule32)
        for other in (_AxialTable(rule32, 32, P32),
                      _AxialTable(rule32, 64, SobolevParams(3, 1.0)),
                      _AxialTable(gauss_jacobi_rule(3, 100), 64, P32)):
            with pytest.raises(ValueError, match="built for another rule, K or"):
                distance(u, rule32, other)


BENCH_PAIRS = [(3, 2.0), (2, 1.0), (5, 0.5), (8, 3.3)]


def _bits(d, nearest):
    # The bits of a distance result, -0.0 and NaN told apart
    return (np.asarray(d, dtype=float).tobytes(),
            [None if n is None else (n.c.hex(), n.t0.hex()) for n in nearest])


class TestOneStackPerScan:
    # A scan stacks its member rows once, for both norms, and hands that stack
    # to `distance`, which reuses its rows, exponents and unit-scale ||u||_*:
    # one stack and one ||.||_* evaluation per scan, with the results of a
    # list of members and of each lone member, bit for bit.  The benchmark's
    # two scan shapes (scan-wide and scan-deep) at seed 1.
    CONFIGS = {"K=64": ScanConfig(seed=1, K=64, n_normal=20, n_random=20),
               "K=384": ScanConfig(seed=1, K=384, n_normal=3, n_random=6, bubble_t0=(0.5, 0.8))}

    @pytest.mark.parametrize("shape", CONFIGS)
    @pytest.mark.parametrize("N, s", BENCH_PAIRS)
    def test_scan_stacks_and_norms_its_members_once(self, N, s, shape, monkeypatch):
        built, starred, searched = [], [], []
        stacked, star, search = deficit_module._stacked, zonal_module._star, distance

        def spy_stacked(u):
            if not isinstance(u, _Stack):  # a stack comes back as it is
                built.append(u)
            return stacked(u)

        def spy_star(*args):
            starred.append(args)
            return star(*args)

        def spy_distance(*args):
            searched.append(args)
            return search(*args)

        monkeypatch.setattr(deficit_module, "_stacked", spy_stacked)
        for module in (zonal_module, deficit_module):  # every binding of `_star`
            if hasattr(module, "_star"):
                monkeypatch.setattr(module, "_star", spy_star)
        monkeypatch.setattr(deficit_module, "distance", spy_distance)
        cfg = self.CONFIGS[shape]
        result = run_scan(SobolevParams(N, s), cfg)
        monkeypatch.undo()
        assert len(built) == 1 and len(built[0]) == cfg.n_members
        assert len(starred) == 1 and len(starred[0][0]) == cfg.n_members
        (stack, rule, table), = searched
        assert isinstance(stack, _Stack) and stack[0] == list(built[0])
        scanned = _bits([r.distance for *_, r in result.entries],
                        [r.nearest for *_, r in result.entries])
        assert _bits(*distance(stack, rule, table)) == scanned
        assert _bits(*distance(stack[0], rule, table)) == scanned
        alone = [distance(u, rule, table) for u in stack[0]]
        assert _bits(*zip(*alone)) == scanned


class TestExactLocalValues:
    # A local member is u = 1 + eps v with ||v||_* = 1 and v of degrees >= 2
    # only, so eps v is orthogonal to the manifold's tangent space at the
    # constant 1, which is u's nearest manifold point for small eps: d = eps
    # exactly, and ||u||_*^2 = lambda_0 |S^N| + eps^2.  One seed=1 scan per
    # benchmark pair, with the benchmark's near-manifold family at K = 64
    # and K = 384 (the random and bubble members do not change it).
    # The distance's worst |d - eps| / eps is 6.27e-7 at (8, 3.3), eps = 1e-3,
    # K = 64 (2.85e-7 at K = 384): the cancellation in ||u||_*^2 - projection,
    # which a residual form of the distance removes.  Elsewhere it is below
    # 5e-9.  The norm's worst relative error is 4.1e-16.

    @pytest.mark.parametrize("K, n_normal", [(64, 20), (384, 3)])
    @pytest.mark.parametrize("N, s", BENCH_PAIRS)
    def test_local_members_sit_at_distance_eps(self, N, s, K, n_normal):
        p = SobolevParams(N, s)
        cfg = ScanConfig(seed=1, K=K, n_normal=n_normal, n_random=0, bubble_t0=())
        base = eigenvalue(p, 0) * sphere_area(N)
        result = run_scan(p, cfg)
        assert result.n_skipped == 0 and len(result.entries) == cfg.n_members
        for _, family, label, report in result.entries:
            eps = float(label.rsplit("eps=", 1)[1])
            assert family == "local" and eps in cfg.eps_grid
            assert abs(report.distance - eps) <= 1e-6 * eps, label
            expected = base + eps * eps
            assert abs(report.norm_star_sq - expected) <= 1e-15 * expected, label


def unit_normal_directions(p, cfg):
    # (eps, v) of every near-manifold scan member, v at unit ||.||_*, built
    # by the ZonalFunction operators in the scan's RNG order.
    rng = np.random.default_rng(cfg.seed)
    kmax = min(cfg.random_max_degree, cfg.K)
    directions = []
    for eps in cfg.eps_grid:
        tails = [np.eye(kmax - 1)[k - 2] for k in cfg.normal_modes]
        tails += [rng.standard_normal(kmax - 1) * _RANDOM_DECAY ** np.arange(kmax - 1)
                  for _ in range(cfg.n_normal)]
        for tail in tails:
            a = np.zeros(cfg.K + 1)
            a[2:2 + tail.size] = tail
            v = ZonalFunction(p, a)
            directions.append((eps, v * (1.0 / norm_star(v))))
    return directions


class TestBitIdenticalArithmetic:
    # The scan builds each near-manifold member in one array, and each
    # extremizer row with the exponent SobolevParams.beta; both must equal
    # the plain expressions bit for bit, the sign of every zero included.

    @pytest.mark.parametrize("K", [64, 384])
    @pytest.mark.parametrize("N, s", BENCH_PAIRS)
    def test_local_members_equal_the_operator_expression(self, N, s, K):
        p = SobolevParams(N, s)
        # eps = 5e-324 rounds the small negative entries of eps * v to -0.0,
        # which `one + eps * v` turns into +0.0
        cfg = ScanConfig(seed=K + N, K=K, n_normal=8, n_random=0, bubble_t0=(),
                         eps_grid=(0.1, 1e-3, 1e-7, 5e-324))
        local = [u for family, _, u in scan_members(p, cfg) if family == "local"]
        directions = unit_normal_directions(p, cfg)
        assert len(local) == len(directions) == 4 * (3 + 8)
        one = constant(p, 1.0, K)
        negative_zeros = 0
        for u, (eps, v) in zip(local, directions):
            step = (eps * v).coeffs
            negative_zeros += np.count_nonzero(np.signbit(step) & (step == 0.0))
            expected = (one + eps * v).coeffs
            assert np.array_equal(u.coeffs, expected)
            assert np.array_equal(np.signbit(u.coeffs), np.signbit(expected))
        assert negative_zeros > 0

    @pytest.mark.parametrize("K", [64, 384])
    @pytest.mark.parametrize("N, s", BENCH_PAIRS)
    def test_batch_norms_equal_the_lone_calls(self, N, s, K):
        # one norm_star or norm_lp call over a scan's members gives each
        # member's lone call, and the plain one-member expression, bit for bit
        p = SobolevParams(N, s)
        for seed in (1, 2):
            cfg = ScanConfig(seed=seed, K=K, n_normal=20, n_random=20)
            rule = gauss_jacobi_rule(N, cfg.rule_size)
            members = [u for _, _, u in scan_members(p, cfg)]
            lam, basis = lambdas(p, K), rule.basis(K)
            stars, lqs = norm_star(members), norm_lp(members, p.q, rule)
            assert stars == [norm_star(u) for u in members]
            assert stars == [math.sqrt(float(lam.dot(u.coeffs * u.coeffs))) for u in members]
            assert lqs == [norm_lp(u, p.q, rule) for u in members]
            assert lqs == [self.plain_lq(u, p.q, rule.weights, basis) for u in members]

    @staticmethod
    def plain_lq(u, q, weights, basis):
        # m (sum (x / m)^q)^(1/q) with x = w^(1/q) |u| at unit scale, scaled back
        e = math.frexp(float(np.abs(u.coeffs).max()))[1]
        x = weights ** (1.0 / q) * np.abs(np.ldexp(u.coeffs, -e).dot(basis))
        top = float(x.max())
        return math.ldexp(top * float(((x / top) ** q).sum()) ** (1.0 / q), e)

    @pytest.mark.parametrize("N, s", BENCH_PAIRS + [(4, 2.0)])  # N - s = 2: beta = 1
    def test_table_rows_equal_the_power_expression(self, N, s):
        # K + 1 takes every residue mod 4, in one block (K = 64) and in
        # several; at K = 400 the rows end in a lone row past the last
        # full block, which joins the block before it
        p = SobolevParams(N, s)
        beta = 0.5 * (N - s)
        for K in (64, 383, 384, 385, 386, 400):
            rule = gauss_jacobi_rule(N, 2 * K + 2)
            table = _AxialTable(rule, K, p)
            weighted_basis = rule.basis(K) * rule.weights
            t0s = np.random.default_rng(N + K).uniform(-0.95, 0.95, 200)
            rows, norms = table.rows(t0s)
            for t0, g, norm in zip(t0s.tolist(), rows, norms.tolist()):
                ref = weighted_basis.dot((1.0 - t0 * rule.nodes) ** (-beta))
                assert np.array_equal(g, ref), (K, t0)
                assert norm == float(table.lam.dot(ref * ref)), (K, t0)

    @pytest.mark.parametrize("K, sizes", [
        (64, [65]),
        (384, [80, 80, 80, 80, 65]),
        (400, [80, 80, 80, 80, 81]),
        (640, [48] * 13 + [17]),
    ])
    def test_row_blocks_keep_the_gemv_row_groups(self, K, sizes):
        # BLAS takes a GEMV's rows in groups of 4 (8 in wider kernels) and
        # the rest one by one, and numpy takes a one-row product as a dot;
        # blocks of 16k rows, and a last block of more than one row, keep
        # every row in the group it has in one GEMV over the whole matrix
        table = _AxialTable(gauss_jacobi_rule(3, 2 * K + 2), K, P32)
        blocks = table._blocks
        assert [b.stop - b.start for b in blocks] == sizes
        assert blocks[0].start == 0 and blocks[-1].stop == K + 1
        assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
        assert all(size % 16 == 0 for size in sizes[:-1])
        assert len(sizes) == 1 or sizes[-1] > 1
        assert sizes[0] * 8 * (2 * K + 2) <= deficit_module._BLOCK_BYTES

    def test_rows_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        # At K = 640 one GEMV over all 641 rows is large enough for OpenBLAS
        # to split between threads, and the rows at the split round apart
        # from the one-thread product; no block is large enough.  The rule
        # is built once here (its eigensolver depends on the thread count)
        # and read by both children.
        rule = gauss_jacobi_rule(8, 1282)
        np.save(tmp_path / "nodes.npy", rule.nodes)
        np.save(tmp_path / "weights.npy", rule.weights)
        code = (
            "import hashlib, sys\n"
            "from pathlib import Path\n"
            "import numpy as np\n"
            "from sobstab.deficit import _AxialTable\n"
            "from sobstab.specfun import SobolevParams\n"
            "from sobstab.zonal import QuadratureRule\n"
            "d = Path(sys.argv[1])\n"
            "rule = QuadratureRule(8, np.load(d / 'nodes.npy'), np.load(d / 'weights.npy'))\n"
            "table = _AxialTable(rule, 640, SobolevParams(8, 3.3))\n"
            "t0s = np.linspace(-0.95, 0.95, 24)\n"
            "g, gg = table.rows(t0s)\n"
            "weighted_basis = rule.basis(640) * rule.weights\n"
            "ref = [weighted_basis.dot((1.0 - t0 * rule.nodes) ** -2.35) for t0 in t0s]\n"
            "print(hashlib.sha256(g.tobytes() + gg.tobytes()).hexdigest(),\n"
            "      np.array_equal(g, ref))\n"
        )
        out = {}
        for threads in ("1", "2"):
            env = {k: v for k, v in os.environ.items()
                   if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
            env["OPENBLAS_NUM_THREADS"] = threads
            proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                                  capture_output=True, text=True, env=python_env(env))
            assert proc.returncode == 0, proc.stderr
            out[threads] = proc.stdout.split()
        assert out["1"][1] == "True"  # the one-thread product, row by row
        assert out["1"][0] == out["2"][0]


class TestExactHomogeneity:
    # Psi and d^2 are 2-homogeneous and the ratio is scale-free: every member
    # is evaluated at the power of two that brings its largest coefficient
    # into [0.5, 1), so 2^k u reports u's values times exact powers of two.
    # The ratio of 2^40 u differed from u's in the 13th digit, 2^+-400 u was
    # refused, and distance(2^508 u) returned d = 0.0 with numpy warnings.
    KS = (-400, -40, 40, 400, 508)

    @staticmethod
    def member(p):
        return (basis_function(p, 0, 64) + 0.3 * basis_function(p, 1, 64)
                + 0.2 * basis_function(p, 3, 64))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("N, s", BENCH_PAIRS)
    def test_report_scales_by_powers_of_two(self, N, s):
        p = SobolevParams(N, s)
        rule = default_rule(N, 64)
        u = self.member(p)
        base = stability_ratio(u, rule)
        for k in self.KS:
            report = stability_ratio(2.0 ** k * u, rule)
            assert (report.ratio, report.nearest.t0) == (base.ratio, base.nearest.t0), k
            assert report.distance == math.ldexp(base.distance, k), k
            assert report.lq_norm == math.ldexp(base.lq_norm, k), k
            assert report.nearest.c == math.ldexp(base.nearest.c, k), k
            assert report.norm_star_sq == math.ldexp(base.norm_star_sq, 2 * k), k
            assert report.deficit == math.ldexp(base.deficit, 2 * k), k

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("N, s", BENCH_PAIRS)
    def test_gradient_scales_by_powers_of_two(self, N, s):
        p = SobolevParams(N, s)
        rule = default_rule(N, 64)
        u, v = self.member(p), basis_function(p, 2, 64)
        base = gradient_form(u, v, rule)
        for k in self.KS:
            assert gradient_form(2.0 ** k * u, v, rule) == math.ldexp(base, k), k

    @pytest.mark.filterwarnings("error")
    def test_large_member_is_off_the_manifold(self, rule32):
        u = constant(P32, 1.0, 64) + 0.3 * basis_function(P32, 1, 64) + 0.2 * basis_function(
            P32, 3, 64)
        d, nearest = distance(u, rule32)
        assert d == pytest.approx(0.78480, abs=1e-5)
        assert distance(2.0 ** 508 * u, rule32) == (
            math.ldexp(d, 508), ManifoldPoint(math.ldexp(nearest.c, 508), nearest.t0))


class TestUlpSensitiveDistances:
    # At (8, 3.3) the eps = 1e-3 members have ||u||_*^2 ~ 1648 and d ~ 1e-3,
    # so one ulp of the projection moves d by about 1.1e-7 relative: the
    # search's arithmetic must not change by a single rounding.  At K = 64
    # the products run on one BLAS thread whatever the setting, which the
    # children at 1 and 2 threads check.  At K = 384, where the rows are
    # built in several blocks, the quadrature rule's eigensolver rounds
    # differently on two threads, so those bits are pinned at one thread,
    # the CLI's setting.
    CODE = (
        "import json, sys\n"
        "from sobstab.deficit import ScanConfig, run_scan\n"
        "from sobstab.specfun import SobolevParams\n"
        "cfg = ScanConfig(seed=1, K=int(sys.argv[1]), n_normal=2, n_random=0, bubble_t0=())\n"
        "result = run_scan(SobolevParams(8, 3.3), cfg)\n"
        "print(json.dumps({label: [r.distance.hex(), r.nearest.c.hex(), r.nearest.t0.hex()]\n"
        "                  for _, _, label, r in result.entries\n"
        "                  if label.endswith(':eps=0.001')}))\n"
    )
    PINNED = {  # [distance, nearest.c, nearest.t0]
        "local:e2:eps=0.001": ["0x1.0624d8478d442p-10", "0x1.0000000000001p+0",
                               "-0x1.32ace68868d4fp-28"],
        "local:e3:eps=0.001": ["0x1.0624d8478d442p-10", "0x1.0000000000001p+0",
                               "-0x1.32ace688572f5p-28"],
        "local:e4:eps=0.001": ["0x1.0624d8478d442p-10", "0x1.0000000000001p+0",
                               "-0x1.32ace688572f5p-28"],
        "local:rand0:eps=0.001": ["0x1.0624d26b8d175p-10", "0x1.0000000000001p+0",
                                  "-0x1.32ace688572f5p-28"],
        "local:rand1:eps=0.001": ["0x1.0624d8478d442p-10", "0x1.0000000000001p+0",
                                  "-0x1.32ace68347681p-28"],
    }

    PINNED_DEEP = {  # the same at K = 384
        "local:e2:eps=0.001": ["0x1.0624d8478d442p-10", "0x1.0000000000001p+0",
                               "0x1.dfc8823514401p-30"],
        "local:e3:eps=0.001": ["0x1.0624d8478d442p-10", "0x1.0000000000001p+0",
                               "0x1.dfc882259bc05p-30"],
        "local:e4:eps=0.001": ["0x1.0624d8478d442p-10", "0x1.0000000000001p+0",
                               "0x1.dfc8823514401p-30"],
        "local:rand0:eps=0.001": ["0x1.0624d26b8d175p-10", "0x1.0000000000001p+0",
                                  "0x1.dfc882259bc05p-30"],
        "local:rand1:eps=0.001": ["0x1.0624d8478d442p-10", "0x1.0000000000001p+0",
                                  "0x1.dfc8823b2797bp-30"],
    }

    def scan(self, K, threads):
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
        env["OPENBLAS_NUM_THREADS"] = threads
        proc = subprocess.run([sys.executable, "-c", self.CODE, str(K)], capture_output=True,
                              text=True, env=python_env(env))
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_pinned_bits(self, threads):
        assert self.scan(64, threads) == self.PINNED

    def test_pinned_bits_in_blocked_rows(self):
        assert self.scan(384, "1") == self.PINNED_DEEP


def per_point_distance(u, rule):
    # The distance search as it was before the grid product: every grid
    # point is scored by its own projection, g built from scratch.
    lam = lambdas(u.params, u.K)
    weighted_basis = rule.basis(u.K) * rule.weights
    beta = 0.5 * (u.params.N - u.params.s)
    lam_coeffs = lam * u.coeffs

    def proj(t0):
        g = weighted_basis @ (1.0 - t0 * rule.nodes) ** (-beta)
        ug = float(lam_coeffs @ g)
        gg = float(lam @ (g * g))
        return ug * ug / gg, ug / gg

    cap = T0_CAP
    grid = np.unique(np.concatenate([np.linspace(-cap, cap, 49),
                                     np.clip(np.asarray([-0.8, -0.4, 0.0, 0.4, 0.8]), -cap, cap)]))
    values = [proj(x)[0] for x in grid]
    best = (-math.inf, 0.0, 0.0)
    for i, val in enumerate(values):
        left = values[i - 1] if i > 0 else -math.inf
        right = values[i + 1] if i + 1 < len(values) else -math.inf
        if val < left or val < right:
            continue
        t0, neg = golden_section_min(lambda x: -proj(x)[0], grid[max(i - 1, 0)],
                                     grid[min(i + 1, grid.size - 1)], tol=_T0_TOL)
        if -neg > best[0]:
            best = (-neg, float(t0), proj(t0)[1])
    d = math.sqrt(max(norm_star(u) ** 2 - best[0], 0.0))
    return d, ManifoldPoint(best[2], best[1])


class TestGridProduct:
    # distance scores its grid with one product per member; the brackets,
    # and so (d, nearest), must equal those of the per-point scan.

    def test_random_and_local_members(self):
        rng = np.random.default_rng(61)
        for p in (P32, SobolevParams(5, 0.5), SobolevParams(8, 3.3)):
            rule = gauss_jacobi_rule(p.N, 130)
            members = [smooth_random_zonal(p, rng, K=64) for _ in range(4)]
            members += [smooth_random_zonal(p, rng, K=64, offset=1.0) for _ in range(2)]
            members += [constant(p, 1.0, 64) + eps * unit_mode(p, k)
                        for eps in (1e-1, 1e-3) for k in (2, 3)]
            for u in members:
                assert distance(u, rule) == per_point_distance(u, rule)

    @pytest.mark.parametrize("N, s", [(3, 2.0), (5, 0.5), (8, 3.3)])
    def test_even_two_bubble_members(self, N, s):
        # Exactly even members: the nearest points +t0 and -t0 tie, and the
        # sign the per-point search picks must be kept.  At (5, 0.5) and
        # (8, 3.3) the widest pair resolves to two off-center points, and
        # K = 64 picks the negative one.
        p = SobolevParams(N, s)
        cfg = ScanConfig(seed=1, K=64, n_normal=0, n_random=0, eps_grid=(),
                         normal_modes=())
        rule = gauss_jacobi_rule(N, cfg.rule_size)
        for _, label, u in scan_members(p, cfg):
            assert not np.any(u.coeffs[1::2]), label
            d, nearest = distance(u, rule)
            assert (d, nearest) == per_point_distance(u, rule), label
            if label == "bubble:t0=0.8" and N > 3:
                assert nearest.t0 < -0.5


class TestBatchDistance:
    # A list of members is searched in lockstep: every member's (d, nearest)
    # must equal the per-point search's bit for bit, the sign of t0 of the
    # exactly even bubbles included.
    SHAPES = {64: dict(n_random=20), 384: dict(n_random=6, bubble_t0=(0.5, 0.8))}

    @pytest.mark.parametrize("N, s, K, n", [(N, s, K, n) for N, s in BENCH_PAIRS
                                            for K, n in ((64, 20), (384, 3))])
    def test_scan_batch_equals_the_per_point_search(self, N, s, K, n):
        # The benchmark's scan shapes (n normal members per eps) at its four
        # (N, s) pairs, among them the most fragile bits of the search: at
        # (8, 3.3) the eps = 1e-3 distances, where one ulp of the projection
        # moves d by about 1e-7, and at (5, 0.5) and K = 384 the tie of the
        # exactly even bubble:t0=0.8 between its +t0 and -t0 brackets
        p = SobolevParams(N, s)
        cfg = ScanConfig(seed=5, K=K, n_normal=n, **self.SHAPES[K])
        rule = gauss_jacobi_rule(N, cfg.rule_size)
        labels, members = zip(*((label, u) for _, label, u in scan_members(p, cfg)))
        assert {"local:e2:eps=0.001", "bubble:t0=0.8"} <= set(labels)
        ds, nearest = distance(list(members), rule, _AxialTable(rule, K, p))
        assert isinstance(ds, np.ndarray) and ds.dtype == np.float64
        assert len(ds) == len(nearest) == cfg.n_members
        for label, u, d, point in zip(labels, members, ds.tolist(), nearest):
            assert (d, point) == per_point_distance(u, rule), label

    def test_batch_of_one_equals_a_lone_call(self, rule32):
        u = smooth_random_zonal(P32, np.random.default_rng(12), K=64, offset=1.0)
        d, nearest = distance(u, rule32)
        assert type(d) is float
        ds, points = distance([u], rule32)
        assert ds.tolist() == [d] and points == [nearest]

    def test_repeated_members_equal_their_lone_calls(self, rule32):
        # Repeated members put equal t0 values into every round, which share a row
        rng = np.random.default_rng(15)
        u = smooth_random_zonal(P32, rng, K=64, offset=1.0)
        v = smooth_random_zonal(P32, rng, K=64)
        ds, nearest = distance([u, v, u, u], rule32)
        assert list(zip(ds.tolist(), nearest)) == [distance(w, rule32) for w in (u, v, u, u)]

    def test_brackets_that_finish_in_different_rounds(self, rule32):
        # The grid cells beside the inserted starts 0.4 and -0.8 are narrower,
        # so the bracket around such a start takes fewer golden-section steps
        # than one around an equispaced point: members peaked there leave the
        # lockstep before the others, whatever their place in the batch.
        grid = _T0_GRID.tolist()

        def bracket(t0):
            i = grid.index(t0)
            return grid[i - 1], grid[i + 1]

        def steps(t0):
            return TestSearchBound.evaluations(lambda x: x, *bracket(t0), _T0_TOL)

        assert steps(0.4) < steps(0.0) and steps(-0.8) < steps(0.0)
        rng = np.random.default_rng(16)
        starts = (0.0, 0.4, -0.8, grid[40])
        members = [manifold_zonal(P32, ManifoldPoint(1.0, t0), rule32, 64)
                   + 0.01 * smooth_random_zonal(P32, rng) for t0 in starts]
        lone = [distance(u, rule32) for u in members]
        for t0, (_, point) in zip(starts, lone):
            lo, hi = bracket(t0)
            assert lo < point.t0 < hi, t0
        for order in ([0, 1, 2, 3], [1, 3, 0, 2], [3, 2, 1, 0], [2, 2, 0, 1, 1]):
            ds, nearest = distance([members[i] for i in order], rule32)
            assert list(zip(ds.tolist(), nearest)) == [lone[i] for i in order], order

    def test_mixed_batch_is_refused(self, rule32):
        rng = np.random.default_rng(13)
        u = smooth_random_zonal(P32, rng, K=64)
        for other in (smooth_random_zonal(P32, rng, K=32),
                      smooth_random_zonal(SobolevParams(3, 1.0), rng, K=64)):
            with pytest.raises(ValueError, match="must share K and"):
                distance([u, other], rule32)
        with pytest.raises(ValueError, match="at least one member"):
            distance([], rule32)

    def test_zero_member_inside_a_batch(self, rule32):
        rng = np.random.default_rng(14)
        members = [smooth_random_zonal(P32, rng, K=64, offset=1.0),
                   ZonalFunction(P32, np.zeros(65)), smooth_random_zonal(P32, rng, K=64)]
        ds, nearest = distance(members, rule32)
        assert (ds[1], nearest[1]) == (0.0, None)
        for i in (0, 2):
            assert (ds[i], nearest[i]) == distance(members[i], rule32)
        assert distance([members[1]], rule32)[0].tolist() == [0.0]


class TestSearchBound:
    # golden_section_min has no step budget: its precondition (tol above 16
    # ulps of the bracket) makes every step shrink the bracket to at most
    # 3/4, so it ends within ceil(log((b - a) / tol) / log(4/3)) steps.

    @staticmethod
    def evaluations(f, a, b, tol):
        calls = []

        def counted(x):
            calls.append(x)
            return f(x)

        golden_section_min(counted, a, b, tol=tol)
        return len(calls)

    @staticmethod
    def step_bound(a, b, tol):
        return math.ceil(math.log((b - a) / tol) / math.log(4 / 3))

    def test_distance_brackets_take_at_most_45_evaluations(self):
        bounds = _T0_GRID.tolist()
        last = len(bounds) - 1
        for i in range(last + 1):
            a, b = bounds[max(i - 1, 0)], bounds[min(i + 1, last)]
            for f in (lambda x: math.nan, lambda x: x, lambda x: -x,
                      lambda x: (x - 0.3 * a - 0.7 * b) ** 2):
                assert self.evaluations(f, a, b, _T0_TOL) <= 45, (a, b)

    @pytest.mark.parametrize("a, b, tol", [(0.0, 1.0, 1e-20), (0.0, 1.0, 16 * math.ulp(1.0)),
                                           (1e8, 1e8 + 1.0, 1e-8), (0.5, 0.5, 1e-3),
                                           (1.0, 0.0, 1e-3), (0.0, math.nan, 1e-3)])
    def test_unresolvable_search_is_refused(self, a, b, tol):
        with pytest.raises(ValueError):
            golden_section_min(lambda x: (x - 0.3) ** 2, a, b, tol=tol)

    def test_large_brackets_end_within_the_bound(self):
        rng = np.random.default_rng(3)
        for a in (-3e7, 1e5, 123.456, 1e8):
            ulp = math.ulp(abs(a) + 10.0)
            for ulps in (16.5, 40.0, 100.0):
                tol = ulps * ulp
                b = a + 10.0
                for f in (lambda x: math.nan, lambda x: rng.random(),
                          lambda x: (x - a - 3.0) ** 2, lambda x: -x):
                    steps = self.evaluations(f, a, b, tol) - 2
                    assert steps <= self.step_bound(a, b, tol), (a, ulps)

import gc
import json
import math
import os
import subprocess
import sys
import weakref

import numpy as np
import pytest

import sobstab.deficit as deficit_module
from sobstab._util import golden_section_min
from sobstab.conformal import ManifoldPoint, conformal_shift, manifold_zonal
from sobstab.deficit import (
    T0_CAP,
    OnManifoldError,
    OptimizerError,
    ScanConfig,
    _RANDOM_DECAY,
    _T0_GRID,
    _T0_TOL,
    _AxialTable,
    deficit,
    distance,
    estimate_alpha,
    gradient_form,
    hessian_form,
    run_scan,
    scan_members,
    stability_ratio,
)
from sobstab.specfun import SobolevParams, eigenvalue, local_constant
from sobstab.zonal import (
    ZonalFunction,
    basis_function,
    constant,
    default_rule,
    gauss_jacobi_rule,
    inner_star,
    lambdas,
    norm_star,
)

from conftest import PARAM_GRID, P32, python_env, smooth_random_zonal


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

    def test_zero_function_rejected(self, rule32):
        zero = ZonalFunction(P32, np.zeros(8))
        with pytest.raises(ValueError):
            hessian_form(zero, zero, zero, rule32)


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

    def test_on_manifold_rejected(self, rule32):
        v = manifold_zonal(P32, ManifoldPoint(1.0, 0.4), rule32, 64)
        with pytest.raises(OnManifoldError):
            stability_ratio(v, rule32)

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
        a = estimate_alpha(P32, cfg)
        b = estimate_alpha(P32, cfg)
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
        alpha = estimate_alpha(P32, cfg)
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
        cfg = ScanConfig(seed=1, n_normal=0, n_random=0, eps_grid=(),
                         normal_modes=(), bubble_t0=())
        with pytest.raises(ValueError):
            run_scan(P32, cfg)

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
        alpha = estimate_alpha(P32, cfg)
        assert alpha == pytest.approx(local_constant(P32), rel=2e-3)


class TestSharedExtremizerTable:
    # The members of a scan share g_{t0} and ||g_{t0}||_*^2 through one
    # _AxialTable that run_scan builds; sharing must not change a single
    # bit of any report.
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
        # and planted errors) see (u, rule, table) as three positionals.
        calls = []
        original = deficit_module.distance

        def spy(*args, **kwargs):
            calls.append((args, kwargs))
            return original(*args, **kwargs)

        monkeypatch.setattr(deficit_module, "distance", spy)
        run_scan(P32, self.CFG)
        assert len(calls) == self.CFG.n_members
        table = calls[0][0][2]
        assert isinstance(table, _AxialTable)
        for args, kwargs in calls:
            assert len(args) == 3 and not kwargs
            assert args[2] is table

    def test_table_lives_only_as_long_as_the_scan(self, monkeypatch):
        tables = []
        original = deficit_module.distance

        def spy(u, rule, table):
            tables.append(weakref.ref(table))
            return original(u, rule, table)

        def exhausted(f, a, b, **kwargs):
            raise OptimizerError("golden-section search exhausted max_iter", a, f(a))

        monkeypatch.setattr(deficit_module, "distance", spy)
        run_scan(P32, self.CFG)
        assert len(tables) == self.CFG.n_members
        assert tables[-1]() is None  # freed on return, no collection needed
        with pytest.raises(OnManifoldError):
            run_scan(P32, self.ON_MANIFOLD)
        monkeypatch.setattr(deficit_module, "golden_section_min", exhausted)
        with pytest.raises(OptimizerError):  # raised while the table is in use
            run_scan(P32, self.CFG)
        assert len(tables) == self.CFG.n_members + 2
        gc.collect()
        assert all(ref() is None for ref in tables)

    def test_cached_arrays_are_read_only(self, rule32):
        table = _AxialTable(rule32, 64, P32)
        g, _ = table.at(0.3)
        for array in (g, table.G, table.gg, _T0_GRID):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0.0

    def test_grid_equals_the_unique_construction(self):
        grid = np.unique(np.concatenate([np.linspace(-T0_CAP, T0_CAP, 49),
                                         [-0.8, -0.4, 0.0, 0.4, 0.8]]))
        assert np.array_equal(_T0_GRID, grid)
        assert np.array_equal(np.signbit(_T0_GRID), np.signbit(grid))

    def test_import_leaves_numpy_ma_out(self):
        # np.unique imports numpy.ma; a cold scan command needs neither
        code = "import sys, sobstab.deficit\nprint('numpy.ma' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=python_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    @pytest.mark.parametrize("K, rows", [(64, 2016), (384, 340)])
    def test_memo_is_bounded_by_bytes(self, K, rows):
        table = _AxialTable(gauss_jacobi_rule(3, 2 * K + 2), K, P32)
        assert table.at.cache_info().maxsize == rows == deficit_module._MEMO_BYTES // (8 * (K + 1))

    def test_memo_rows_are_fresh_arrays(self, rule32):
        table = _AxialTable(rule32, 64, P32)
        first, norm = table.at(0.3)
        kept = first.copy()
        others = [table.at(t0)[0] for t0 in (-0.7, 0.1, 0.55)]
        assert np.array_equal(first, kept) and table.at(0.3) == (first, norm)
        assert not any(np.shares_memory(first, g) for g in others + [table.G])

    def test_grid_block_rows_are_the_table_rows(self, rule32):
        table = _AxialTable(rule32, 64, P32)
        assert _T0_GRID.size == 49 + 4  # the starts +-0.4 and +-0.8 are off the linspace
        for t0, row, norm in zip(_T0_GRID.tolist(), table.G, table.gg.tolist()):
            g, g_norm = table.at(t0)
            assert np.array_equal(row, g) and norm == g_norm

    def test_table_is_keyed_by_degree_and_parameters(self, rule32):
        u = smooth_random_zonal(P32, np.random.default_rng(11), K=64, offset=1.0)
        assert distance(u, rule32, _AxialTable(rule32, 64, SobolevParams(3, 2.0))) \
            == distance(u, rule32)
        for other in (_AxialTable(rule32, 32, P32),
                      _AxialTable(rule32, 64, SobolevParams(3, 1.0)),
                      _AxialTable(gauss_jacobi_rule(3, 100), 64, P32)):
            for call in (distance, stability_ratio):
                with pytest.raises(ValueError, match="built for another rule, K or"):
                    call(u, rule32, other)


BENCH_PAIRS = [(3, 2.0), (2, 1.0), (5, 0.5), (8, 3.3)]


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
    # The scan builds each near-manifold member in one array and each
    # extremizer row with in-place ufuncs; both must equal the plain
    # expressions bit for bit, the sign of every zero included.

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

    @pytest.mark.parametrize("N, s", BENCH_PAIRS + [(4, 2.0)])  # N - s = 2: beta = 1
    def test_table_rows_equal_the_power_expression(self, N, s):
        p = SobolevParams(N, s)
        K = 64
        rule = gauss_jacobi_rule(N, 2 * K + 2)
        table = _AxialTable(rule, K, p)
        weighted_basis = rule.basis(K) * rule.weights
        beta = 0.5 * (N - s)
        for t0 in np.random.default_rng(N).uniform(-0.95, 0.95, 200).tolist():
            g, norm = table.at(t0)
            ref = weighted_basis.dot((1.0 - t0 * rule.nodes) ** (-beta))
            assert np.array_equal(g, ref), t0
            assert norm == float(table.lam.dot(ref * ref))


class TestUlpSensitiveDistances:
    # At (8, 3.3) the eps = 1e-3 members have ||u||_*^2 ~ 1648 and d ~ 1e-3,
    # so one ulp of the projection moves d by about 1.1e-7 relative: the
    # search's arithmetic must not change by a single rounding.  At K = 64
    # the products run on one BLAS thread whatever the setting, which the
    # children at 1 and 2 threads check.
    CODE = (
        "import json\n"
        "from sobstab.deficit import ScanConfig, run_scan\n"
        "from sobstab.specfun import SobolevParams\n"
        "cfg = ScanConfig(seed=1, K=64, n_normal=2, n_random=0, bubble_t0=())\n"
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

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_pinned_bits(self, threads):
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
        env["OPENBLAS_NUM_THREADS"] = threads
        proc = subprocess.run([sys.executable, "-c", self.CODE], capture_output=True, text=True,
                              env=python_env(env))
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == self.PINNED


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
                                     grid[min(i + 1, grid.size - 1)],
                                     tol=_T0_TOL, max_iter=200)
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


class TestOptimizerBudget:
    def test_exhausted_search_carries_best_point(self):
        from sobstab._util import golden_section_min

        with pytest.raises(OptimizerError) as excinfo:
            golden_section_min(lambda x: (x - 0.3) ** 2, 0.0, 1.0,
                               tol=1e-12, max_iter=3)
        assert abs(excinfo.value.best_x - 0.3) < 0.5
        assert excinfo.value.best_f >= 0.0

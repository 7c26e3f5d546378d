import math
import re

import numpy as np
import pytest

from sobstab._util import RefusalError
from sobstab.conformal import (
    ManifoldPoint,
    RadialFunction,
    bump_profile,
    extremizer_profile,
    gaussian_profile,
    manifold_samples,
    mollified_extremizer_profile,
    parse_profile,
    pullback_to_sphere,
)
from sobstab.specfun import SobolevParams, sphere_area, sharp_constant
from sobstab.zonal import constant, default_rule, norm_lp, norm_star

from conftest import P32, conformal_shift, dilate, manifold_zonal, smooth_random_zonal


class TestPullback:
    def test_extremizer_pulls_back_to_constant(self):
        # the transported unit function is 2^((N-s)/2) times the extremizer
        for p in (P32, SobolevParams(2, 0.5), SobolevParams(5, 3.3)):
            rule = default_rule(p.N, 64)
            v = pullback_to_sphere(extremizer_profile(p), rule, 64)
            target = 2.0 ** (-(p.N - p.s) / 2) * math.sqrt(sphere_area(p.N))
            assert v.coeffs[0] == pytest.approx(target, rel=1e-12)
            assert np.max(np.abs(v.coeffs[1:])) < 1e-12 * abs(v.coeffs[0])

    def test_lq_isometry_on_random_smooth_profiles(self):
        rng = np.random.default_rng(11)
        rule = default_rule(3, 64)
        # the sphere rule through the stereographic Jacobian (2/(1+r^2))^N = (1+t)^N
        weights_rn = rule.weights * (1.0 + rule.nodes) ** (-rule.N)
        radii = np.sqrt((1 - rule.nodes) / (1 + rule.nodes))
        for _ in range(20):
            a, b, c = rng.uniform(0.3, 2.0, size=3)
            u = RadialFunction(P32, lambda r, a=a, b=b, c=c:
                               a * np.exp(-b * r * r) + 0.2 * c / (1 + r**2) ** 2)
            v = pullback_to_sphere(u, rule, 64)
            lq_rn = float((weights_rn @ np.abs(u(radii)) ** P32.q) ** (1 / P32.q))
            assert norm_lp(v, P32.q, rule) == pytest.approx(lq_rn, rel=1e-12)

    def test_rescaled_extremizer_is_manifold_point(self):
        from sobstab.deficit import deficit

        p = P32
        rule = default_rule(3, 64)
        for lam in (0.5, 1.0, 2.0):
            v = pullback_to_sphere(extremizer_profile(p, lam), rule, 64)
            mu2 = lam ** (4.0 / (p.N - p.s))
            t0 = (mu2 - 1.0) / (mu2 + 1.0)
            c = lam * (1.0 + mu2) ** (-(p.N - p.s) / 2)
            w = manifold_zonal(p, ManifoldPoint(c, t0), rule, 64)
            assert np.max(np.abs(v.coeffs - w.coeffs)) < 1e-10
            assert abs(deficit(v, rule)) < 1e-10 * norm_star(v) ** 2

    def test_norm_matches_dirichlet_integral_for_s2(self):
        # s = 2: the transported quadratic form must reproduce the classical
        # radial Dirichlet integral |S^(N-1)| int u'(r)^2 r^(N-1) dr
        from scipy.integrate import quad
        from sobstab.specfun import _sphere_area

        cases = [
            (3, lambda r: np.exp(-r * r), lambda r: -2 * r * np.exp(-r * r)),
            (4, lambda r: np.exp(-r * r) * (1 + 0.5 * r * r),
             lambda r: np.exp(-r * r) * (-r - r**3)),
        ]
        for N, prof, dprof in cases:
            p = SobolevParams(N, 2.0)
            oracle, _ = quad(lambda r: dprof(r) ** 2 * r ** (N - 1), 0, np.inf)
            oracle *= _sphere_area(N - 1)
            v = pullback_to_sphere(RadialFunction(p, prof), default_rule(N, 64), 64)
            assert norm_star(v) ** 2 == pytest.approx(oracle, rel=1e-12)

    def test_norm_invariant_under_dilation(self):
        # the seminorm transported to the sphere does not see rescalings
        for p in (P32, SobolevParams(2, 1.0)):
            K = 96
            rule = default_rule(p.N, K)
            base = gaussian_profile(p, 0.8)
            ref = norm_star(pullback_to_sphere(base, rule, K))
            for lam in (0.7, 1.2, 2.0):
                v = pullback_to_sphere(dilate(base, lam), rule, K)
                assert norm_star(v) == pytest.approx(ref, rel=1e-6)

    def test_non_finite_profile_rejected(self):
        rule = default_rule(3, 16)
        bad = RadialFunction(P32, lambda r: np.full_like(r, np.nan))
        with pytest.raises(ValueError):
            pullback_to_sphere(bad, rule, 8)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("profile", [bump_profile(P32, 0.001), gaussian_profile(P32, 1e300),
                                         mollified_extremizer_profile(P32, 1e150)],
                             ids=lambda u: u.name)
    def test_profile_zero_at_every_node_is_refused(self, profile):
        # each pulled back to the zero function; an overflow that rounds a sample
        # to 0.0 warns of nothing
        message = rf"^profile {re.escape(profile.name)} is 0\.0 at all 34 quadrature nodes"
        with pytest.raises(RefusalError, match=message):
            pullback_to_sphere(profile, default_rule(3, 16), 16)


class TestManifoldZonal:
    def test_axis_free_point_is_constant(self, rule32):
        u = manifold_zonal(P32, ManifoldPoint(2.0, 0.0), rule32, 16)
        assert u.coeffs[0] == pytest.approx(2.0 * math.sqrt(sphere_area(3)), rel=1e-13)
        assert np.max(np.abs(u.coeffs[1:])) < 1e-12

    def test_equality_case(self):
        for p in (P32, SobolevParams(2, 0.5), SobolevParams(6, 3.3)):
            rule = default_rule(p.N, 64)
            s_const = sharp_constant(p)
            for t0 in (-0.8, -0.3, 0.0, 0.3, 0.8):
                for c in (0.5, 1.0, 3.0):
                    v = manifold_zonal(p, ManifoldPoint(c, t0), rule, 64)
                    ns2 = norm_star(v) ** 2
                    lq2 = norm_lp(v, p.q, rule) ** 2
                    assert ns2 == pytest.approx(s_const * lq2, rel=1e-6), (p, c, t0)

    def test_amplitude_negation(self, rule32):
        a = manifold_zonal(P32, ManifoldPoint(1.3, 0.45), rule32, 32)
        b = manifold_zonal(P32, ManifoldPoint(-1.3, 0.45), rule32, 32)
        assert np.array_equal(a.coeffs, -b.coeffs)

    def test_invalid_point(self):
        with pytest.raises(ValueError):
            ManifoldPoint(0.0, 0.3)
        for off in (lambda: ManifoldPoint(1.0, 1.0),
                    lambda: manifold_samples(P32, 1.0, 1.0, np.zeros(3))):
            with pytest.raises(ValueError, match=r"^axial parameter must satisfy \|t0\| < 1, "
                                                 r"got 1\.0$"):
                off()


class TestConformalShift:
    def test_identity_at_zero(self, rule32):
        rng = np.random.default_rng(12)
        u = smooth_random_zonal(P32, rng)
        v = conformal_shift(u, 0.0, rule32, 64)
        assert np.max(np.abs(u.coeffs - v.coeffs)) < 1e-12

    def test_preserves_norms(self, rule32):
        rng = np.random.default_rng(13)
        for _ in range(5):
            u = smooth_random_zonal(P32, rng)
            for t0 in (0.3, -0.3, 0.7, -0.7):
                v = conformal_shift(u, t0, rule32, 64)
                assert norm_star(v) == pytest.approx(norm_star(u), rel=1e-6)
                assert norm_lp(v, P32.q, rule32) == pytest.approx(
                    norm_lp(u, P32.q, rule32), rel=1e-6)

    def test_shift_of_unit_is_manifold_point(self, rule32):
        for t0 in (0.5, -0.25):
            v = conformal_shift(constant(P32, 1.0, 64), t0, rule32, 64)
            c = (1.0 - t0 * t0) ** ((P32.N - P32.s) / 4)
            w = manifold_zonal(P32, ManifoldPoint(c, t0), rule32, 64)
            assert np.max(np.abs(v.coeffs - w.coeffs)) < 1e-12

    def test_maps_manifold_to_manifold(self, rule32):
        from sobstab.deficit import deficit

        u = manifold_zonal(P32, ManifoldPoint(1.5, 0.4), rule32, 64)
        v = conformal_shift(u, -0.6, rule32, 64)
        assert abs(deficit(v, rule32)) < 1e-9 * norm_star(v) ** 2


class TestTangentSpace:
    def test_derivative_spans_first_two_modes(self, rule32):
        # numerical (c, t0)-derivatives of the manifold chart at (1, 0)
        h = 1e-5
        d_c = (manifold_zonal(P32, ManifoldPoint(1 + h, 0.0), rule32, 32).coeffs
               - manifold_zonal(P32, ManifoldPoint(1 - h, 0.0), rule32, 32).coeffs) / (2 * h)
        d_t = (manifold_zonal(P32, ManifoldPoint(1.0, h), rule32, 32).coeffs
               - manifold_zonal(P32, ManifoldPoint(1.0, -h), rule32, 32).coeffs) / (2 * h)
        for vec in (d_c, d_t):
            outside = np.linalg.norm(vec[2:])
            assert outside <= 1e-8 * np.linalg.norm(vec)
        assert abs(d_c[1]) <= 1e-12 * np.linalg.norm(d_c)
        assert abs(d_t[1]) > 0.1 * np.linalg.norm(d_t)


class TestProfiles:
    def test_grammar(self):
        p = P32
        assert parse_profile("gaussian", p).name == "gaussian:1"
        assert parse_profile("bump:2,0.5", p).support_radius == 2.0
        assert parse_profile("extremizer:1.5", p).name == "extremizer:1.5"
        u = parse_profile("mollified_extremizer:1,2.5", p)
        assert u.support_radius == 2.5

    def test_grammar_errors(self):
        with pytest.raises(ValueError):
            parse_profile("unknown", P32)
        with pytest.raises(ValueError):
            parse_profile("bump:1,2,3,4", P32)
        with pytest.raises(ValueError):
            parse_profile("gaussian:abc", P32)
        for radius in ("0", "-2", "nan"):
            with pytest.raises(ValueError, match=rf"^mollified_extremizer radius must be "
                                                 rf"positive, got {radius}$"):
                parse_profile(f"mollified_extremizer:1,{radius}", P32)

    @pytest.mark.parametrize("text, message", [
        ("gaussian:0", "gaussian width must be positive"),
        ("bump:1,-1", "bump radius and sharpness must be positive"),
        ("extremizer:0", "extremizer scale must be positive"),
    ])
    def test_parameter_that_is_not_positive_is_refused(self, text, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            parse_profile(text, P32)

    @pytest.mark.parametrize("scale, mu", [(1e200, "inf"), (1e-320, "0.0"), (1e-160, "1e-320")])
    def test_extremizer_scale_outside_the_doubles_is_refused(self, scale, mu):
        # mu = scale^(2/(N-s)) = scale^2 at (3, 2): an OverflowError, or subnormal samples
        for build in (extremizer_profile, mollified_extremizer_profile):
            with pytest.raises(RefusalError, match=rf"^the dilation .* is {re.escape(mu)}, outside "):
                build(P32, scale)
        assert extremizer_profile(P32, 1e150).profile(np.array([0.0])) == 1e150

    def test_support_masking(self):
        u = bump_profile(P32, 1.0, 1.0)
        r = np.array([0.0, 0.5, 0.999, 1.0, 2.0])
        vals = u(r)
        assert vals[0] == pytest.approx(math.exp(-1.0), rel=1e-12)
        assert vals[3] == 0.0 and vals[4] == 0.0
        assert np.all(np.isfinite(vals))

import math
import subprocess
import sys

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import eigh_tridiagonal
from scipy.special import roots_jacobi

from sobstab import zonal
from sobstab.conformal import manifold_samples
from sobstab.deficit import deficit, distance, stability_ratio
from sobstab.specfun import SobolevParams, eigenvalue, sphere_area, _sphere_area
from sobstab.zonal import (
    QuadratureRule,
    ZonalFunction,
    analyze,
    basis_function,
    constant,
    default_rule,
    gauss_jacobi_rule,
    lambdas,
    norm_lp,
    norm_star,
    _recurrence_sq,
)

from conftest import P32, inner_star, node_values, python_env, smooth_random_zonal


class TestGaussJacobiRule:
    def test_total_measure(self):
        # constant 1 integrates to |S^N| for every dimension and size
        assert gauss_jacobi_rule(2, 7).weights.sum() == pytest.approx(4 * math.pi, rel=1e-13)
        assert gauss_jacobi_rule(1, 9).weights.sum() == pytest.approx(2 * math.pi, rel=1e-13)
        for N in range(1, 9):
            for M in (2, 8, 33, 130):
                rule = gauss_jacobi_rule(N, M)
                assert rule.weights.sum() == pytest.approx(sphere_area(N), rel=1e-10)

    def test_symmetry_and_ordering(self):
        for N in (1, 2, 3, 5, 8):
            rule = gauss_jacobi_rule(N, 24)
            assert np.all(np.diff(rule.nodes) > 0)
            assert np.array_equal(rule.nodes, -rule.nodes[::-1])
            assert np.array_equal(rule.weights, rule.weights[::-1])
            assert np.all(rule.weights > 0)
            assert np.all(np.abs(rule.nodes) < 1)

    def test_latitude_second_moment(self):
        # brute-force 1-D adaptive quadrature as the oracle
        rule = gauss_jacobi_rule(3, 8)
        oracle, _ = quad(lambda t: 4 * math.pi * t**2 * (1 - t**2) ** 0.5, -1, 1)
        got = float(rule.weights @ rule.nodes**2)
        assert got == pytest.approx(oracle, rel=1e-10)
        assert got == pytest.approx(math.pi**2 / 2, rel=1e-12)

    def test_polynomial_exactness_against_adaptive_oracle(self):
        for N in (1, 2, 3, 6):
            M = 6
            rule = gauss_jacobi_rule(N, M)
            area = _sphere_area(N - 1)
            for j in range(M):  # t^(2j), degree up to 2M-2 <= 2M-1
                oracle, _ = quad(
                    lambda t, j=j: area * t ** (2 * j) * (1 - t**2) ** ((N - 2) / 2),
                    -1, 1)
                got = float(rule.weights @ rule.nodes ** (2 * j))
                assert got == pytest.approx(oracle, rel=1e-10), (N, j)

    def test_matches_reference_jacobi_rule(self):
        # scipy's Gauss-Jacobi rule as an independent construction
        for N in (1, 2, 4, 7):
            M = 20
            rule = gauss_jacobi_rule(N, M)
            alpha = (N - 2) / 2.0
            x, w = roots_jacobi(M, alpha, alpha)
            assert np.allclose(rule.nodes, x, rtol=0, atol=5e-13)
            assert np.allclose(rule.weights, _sphere_area(N - 1) * w, rtol=5e-12)

    @staticmethod
    def tridiagonal_rule(N, M):
        # The construction the rule used before the dense solve, kept as
        # the oracle for bit identity: scipy's tridiagonal eigensolver.
        off = np.sqrt([_recurrence_sq(N, n) for n in range(1, M)])
        nodes, vecs = eigh_tridiagonal(np.zeros(M), off)
        weights = _sphere_area(N) * vecs[0, :] ** 2
        return 0.5 * (nodes - nodes[::-1]), 0.5 * (weights + weights[::-1])

    @pytest.mark.parametrize("N, Ms", [
        *[(N, (66, 130, 258, 770, 1026)) for N in (2, 3, 5, 8)],
        *[(N, range(2, 42)) for N in (1, 4, 7)],
    ])
    def test_bit_identical_to_tridiagonal_solver(self, N, Ms):
        # Every (N, M) the benchmark and the CLI defaults build, and small
        # and odd M: the dense solve gives the same bits.
        for M in Ms:
            rule = gauss_jacobi_rule(N, M)
            nodes, weights = self.tridiagonal_rule(N, M)
            assert np.array_equal(rule.nodes, nodes), (N, M)
            assert np.array_equal(rule.weights, weights), (N, M)

    @pytest.mark.parametrize("N, Ms", [
        *[(N, (2, 3, 66, 130, 258, 770, 771, 1026, 1027)) for N in (2, 3, 5, 8)],
        *[(N, range(2, 42)) for N in (1, 4, 7)],
    ])
    def test_lapack_and_dense_fallback_give_the_same_bits(self, N, Ms, monkeypatch):
        # The direct dstedc call against the dense eigh used when numpy's
        # LAPACK exports no dstedc, forced by hiding the symbol.
        build = gauss_jacobi_rule.__wrapped__  # past the cache, which stays clean
        direct = [build(N, M) for M in Ms]
        monkeypatch.setattr(zonal, "_dstedc", lambda: None)
        for M, rule in zip(Ms, direct):
            dense = build(N, M)
            assert np.array_equal(rule.nodes, dense.nodes), (N, M)
            assert np.array_equal(rule.weights, dense.weights), (N, M)

    def test_large_rule_bit_identical_to_tridiagonal_solver(self):
        # M = 2050 (--K 1024), where the dense solve took 1.7 s and 194 MB
        rule = gauss_jacobi_rule.__wrapped__(3, 2050)
        nodes, weights = self.tridiagonal_rule(3, 2050)
        assert np.array_equal(rule.nodes, nodes)
        assert np.array_equal(rule.weights, weights)

    def test_lapack_branch_taken_with_scipy_openblas(self, monkeypatch):
        # numpy wheels link scipy-openblas, which exports dstedc: there the
        # rule must not fall back to the O(M^3) dense solve.
        lapack = np.__config__.CONFIG["Build Dependencies"]["lapack"]["name"]
        if lapack != "scipy-openblas":
            pytest.skip(f"numpy links {lapack}, not scipy-openblas")
        assert zonal._dstedc() is not None

        def dense(*args):
            raise AssertionError("the rule fell back to np.linalg.eigh")

        monkeypatch.setattr(np.linalg, "eigh", dense)
        rule = gauss_jacobi_rule.__wrapped__(3, 66)
        assert np.array_equal(rule.weights, self.tridiagonal_rule(3, 66)[1])

    def test_commands_without_a_rule_resolve_no_lapack_symbol(self):
        code = """\
import contextlib, io
import sobstab.zonal
assert sobstab.zonal._dstedc.cache_info().misses == 0, "import resolved dstedc"
import sobstab.cli
for argv in (["eigenvalues", "--N", "3", "--s", "2"], ["constants", "--N", "3", "--s", "2"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert sobstab.cli.main(argv) == 0, argv
    assert sobstab.zonal._dstedc.cache_info().misses == 0, argv
"""
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=python_env())
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("N, M", [(3, 66), (2, 66), (8, 130)])
    def test_matches_30_digit_newton_rule(self, N, M):
        # Oracle: each node of the lower half (the rule is exactly symmetric)
        # Newton-refined as a root of the Jacobi polynomial P_M^(a,a),
        # a = (N-2)/2, at 30 digits; weights from the Gauss-Jacobi formula
        # 2^(2a+1) G(M+a+1)^2 / (G(M+2a+1) M!) / ((1-x^2) P_M'(x)^2),
        # times |S^(N-1)|.  The rule here is at 2.2e-16 and 1.1e-12.
        rule = gauss_jacobi_rule(N, M)
        with mpmath.workdps(30):
            a = mpmath.mpf(N - 2) / 2
            area = 2 * mpmath.pi ** (mpmath.mpf(N) / 2) / mpmath.gamma(mpmath.mpf(N) / 2)
            scale = (area * 2 ** (2 * a + 1) * mpmath.gamma(M + a + 1) ** 2
                     / (mpmath.gamma(M + 2 * a + 1) * mpmath.factorial(M)))

            def derivative(x):
                return (M + 2 * a + 1) / 2 * mpmath.jacobi(M - 1, a + 1, a + 1, x)

            total = mpmath.mpf(0)
            for node, weight in zip(rule.nodes[: M // 2], rule.weights[: M // 2]):
                x = mpmath.mpf(node)
                for _ in range(8):
                    step = mpmath.jacobi(M, a, a, x) / derivative(x)
                    x -= step
                    if abs(step) < mpmath.mpf(10) ** -27:
                        break
                else:
                    pytest.fail(f"Newton did not converge at node {node}")
                w = scale / ((1 - x * x) * derivative(x) ** 2)
                total += 2 * w
                assert abs(node - x) <= 1e-15, node
                assert abs(weight / w - 1) <= 5e-12, node
            # the oracle itself: the weights carry the whole measure |S^N|
            assert abs(total / _sphere_area(N) - 1) < 1e-14

    def test_rejects_tiny_rule(self):
        with pytest.raises(ValueError):
            gauss_jacobi_rule(3, 1)
        with pytest.raises(ValueError):
            gauss_jacobi_rule(0, 8)

    def test_rejects_asymmetric_rule(self):
        # analyze folds odd coefficients over t -> -t, so the reflection
        # symmetry of a rule must hold bit for bit
        rule = gauss_jacobi_rule(3, 9)
        QuadratureRule(3, rule.nodes.copy(), rule.weights.copy())
        nodes = rule.nodes.copy()
        nodes[0] = np.nextafter(nodes[0], -1.0)
        with pytest.raises(ValueError):
            QuadratureRule(3, nodes, rule.weights.copy())
        weights = rule.weights.copy()
        weights[-1] *= 1.0 + 1e-15
        with pytest.raises(ValueError):
            QuadratureRule(3, rule.nodes.copy(), weights)


class TestBasis:
    def test_constant_mode(self):
        for N in (1, 3, 6):
            e0 = gauss_jacobi_rule(N, 8).basis(0)[0]
            assert e0 == pytest.approx(np.full(8, sphere_area(N) ** -0.5), rel=1e-13)

    def test_degree_one_is_positive_multiple_of_latitude(self):
        for N in (1, 2, 5):
            rule = gauss_jacobi_rule(N, 8)
            t, e1 = rule.nodes, rule.basis(1)[1]
            assert np.all(e1[t > 0] > 0)
            assert e1 == pytest.approx(-e1[::-1], rel=1e-14)
            # linear in t
            assert e1 / t == pytest.approx(np.full(8, e1[-1] / t[-1]), rel=1e-13)

    def test_orthonormality_by_quadrature(self):
        for N in (1, 2, 3, 7):
            K = 12
            rule = gauss_jacobi_rule(N, K + K + 2)
            E = rule.basis(K)
            gram = (E * rule.weights) @ E.T
            assert np.max(np.abs(gram - np.eye(K + 1))) < 1e-10


class TestAnalyzeSynthesize:
    def test_constant_function(self, rule32):
        samples = np.full(rule32.M, 2.5)
        u = analyze(P32, samples, rule32, 16)
        assert u.coeffs[0] == pytest.approx(2.5 * math.sqrt(sphere_area(3)), rel=1e-13)
        assert np.max(np.abs(u.coeffs[1:])) < 1e-12
        assert node_values(u, rule32) == pytest.approx(np.full(rule32.M, 2.5), rel=1e-13)

    def test_recovers_basis_mode(self, rule32):
        samples = rule32.basis(3)[3]
        u = analyze(P32, samples, rule32, 10)
        expected = np.zeros(11)
        expected[3] = 1.0
        assert np.max(np.abs(u.coeffs - expected)) < 1e-12

    def test_round_trip(self, rule32):
        rng = np.random.default_rng(3)
        for _ in range(5):
            u = smooth_random_zonal(P32, rng, K=40, max_degree=40, decay=1.0)
            v = analyze(P32, node_values(u, rule32), rule32, 40)
            assert np.max(np.abs(u.coeffs - v.coeffs)) < 1e-11

    def test_refuses_aliasing(self):
        rule = gauss_jacobi_rule(3, 8)
        with pytest.raises(ValueError):
            analyze(P32, np.ones(8), rule, 8)

    def test_rejects_negative_degree(self, rule32):
        message = "^truncation degree K must be >= 0, got -1$"
        with pytest.raises(ValueError, match=message):
            analyze(P32, np.ones(rule32.M), rule32, -1)
        with pytest.raises(ValueError, match=message):
            default_rule(3, -1)
        assert default_rule(3, 0).M == 2

    def test_rejects_non_finite(self, rule32):
        samples = np.ones(rule32.M)
        samples[0] = math.inf
        with pytest.raises(ValueError):
            analyze(P32, samples, rule32, 4)

    @pytest.mark.parametrize("N, s, M", [(3, 2.0, 130), (3, 2.0, 131), (5, 0.5, 40), (5, 0.5, 41)])
    def test_odd_coefficients_fold_over_parity(self, N, s, M):
        p = SobolevParams(N, s)
        rule = gauss_jacobi_rule(N, M)
        K = (M - 2) // 2
        t = rule.nodes
        full = lambda vals: rule.basis(K) @ (rule.weights * vals)
        even = [np.full(M, 1.0 + 1e-5),
                manifold_samples(p, 1.0, 0.8, t) + manifold_samples(p, 1.0, -0.8, t)]
        for vals in even:
            a = analyze(p, vals, rule, K).coeffs
            assert np.all(a[1::2] == 0.0)
            assert np.array_equal(a[0::2], full(vals)[0::2])
        generic = manifold_samples(p, 1.3, 0.4, t) + np.sin(3.0 * t)
        a = analyze(p, generic, rule, K).coeffs
        ref = full(generic)
        assert np.array_equal(a[0::2], ref[0::2])
        assert np.max(np.abs(a[1::2] - ref[1::2])) <= 1e-14 * np.max(np.abs(ref))
        assert np.max(np.abs(a[1::2])) > 0.1 * np.max(np.abs(ref))

    def test_synthesize_linearity(self, rule32):
        rng = np.random.default_rng(4)
        u = smooth_random_zonal(P32, rng)
        v = smooth_random_zonal(P32, rng)
        lhs = node_values(2.0 * u + (-0.5) * v, rule32)
        rhs = 2.0 * node_values(u, rule32) - 0.5 * node_values(v, rule32)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_unit_mode_synthesis(self, rule32):
        e2 = basis_function(P32, 2, 8)
        assert np.allclose(node_values(e2, rule32), rule32.basis(2)[2], atol=1e-14)


class TestSpectralForms:
    def test_norm_star_of_constant(self):
        for p in (P32, SobolevParams(2, 0.5), SobolevParams(6, 3.3)):
            one = constant(p, 1.0, 12)
            target = eigenvalue(p, 0) * sphere_area(p.N)
            assert norm_star(one) ** 2 == pytest.approx(target, rel=1e-13)

    def test_norm_star_of_modes(self):
        assert norm_star(basis_function(P32, 1, 8)) ** 2 == pytest.approx(3.75, rel=1e-13)
        for k in (0, 2, 7):
            u = basis_function(P32, k, 8)
            assert norm_star(u) ** 2 == pytest.approx(eigenvalue(P32, k), rel=1e-13)

    def test_inner_star(self):
        e2, e5 = basis_function(P32, 2, 8), basis_function(P32, 5, 8)
        assert inner_star(e2, e5) == 0.0
        assert inner_star(e2, e2) == pytest.approx(norm_star(e2) ** 2, rel=1e-14)
        one = constant(P32, 1.0, 8)
        rng = np.random.default_rng(5)
        u = smooth_random_zonal(P32, rng, K=8, max_degree=8)
        target = eigenvalue(P32, 0) * math.sqrt(sphere_area(3)) * u.coeffs[0]
        assert inner_star(u, one) == pytest.approx(target, rel=1e-12)

    def test_cauchy_schwarz(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            u = smooth_random_zonal(P32, rng, decay=0.9)
            v = smooth_random_zonal(P32, rng, decay=0.9)
            assert abs(inner_star(u, v)) <= norm_star(u) * norm_star(v) * (1 + 1e-12)

    def test_operator_reduction_for_s2(self):
        # lambda_k(2) = ((N-2)/2 + k)(N/2 + k), checked against the spectrum
        for N in (3, 5, 8):
            p = SobolevParams(N, 2.0)
            lam = lambdas(p, 50)
            k = np.arange(51)
            target = ((N - 2) / 2 + k) * (N / 2 + k)
            assert np.allclose(lam, target, rtol=1e-12)


class TestNormLp:
    def test_constant(self, rule32):
        u = constant(P32, -3.0, 8)
        for pexp in (1.0, 2.0, P32.q):
            assert norm_lp(u, pexp, rule32) == pytest.approx(
                3.0 * sphere_area(3) ** (1 / pexp), rel=1e-12)

    def test_parseval_cross_check(self, rule32):
        rng = np.random.default_rng(7)
        for _ in range(20):
            u = smooth_random_zonal(P32, rng, K=64, max_degree=63, decay=1.0)
            assert norm_lp(u, 2.0, rule32) == pytest.approx(float(np.linalg.norm(u.coeffs)),
                                                           rel=1e-9)

    def test_rejects_p_below_one(self, rule32):
        with pytest.raises(ValueError):
            norm_lp(constant(P32, 1.0, 4), 0.5, rule32)
        # nor a non-finite one: the quadrature sum cannot give max |u|, which is 3.065
        # at the nodes for this u
        u = 3.0 * constant(P32, 1.0, 8) + 0.1 * basis_function(P32, 2, 8)
        for p in (math.inf, math.nan):
            with pytest.raises(ValueError, match=r"^norm_lp requires 1 <= p < inf, got "):
                norm_lp(u, p, default_rule(3, 8))

    def test_sharp_inequality_has_no_counterexample(self, rule32):
        # randomized search for a violation of ||u||_*^2 >= S |u|_q^2
        from sobstab.specfun import sharp_constant

        s_const = sharp_constant(P32)
        rng = np.random.default_rng(8)
        for _ in range(1000):
            coeffs = rng.standard_normal(65) * rng.uniform(0.5, 1.0) ** np.arange(65)
            u = ZonalFunction(P32, coeffs)
            lq = norm_lp(u, P32.q, rule32)
            assert norm_star(u) ** 2 >= s_const * lq * lq * (1 - 1e-9)

    @staticmethod
    def scaled(scale):
        # (3, 2), K=64: |u|_6 of a[0] = 1, a[2] = 1e-3 is 0.37002, and its
        # quadrature sum of w |u|^6 is 2.6e-3 scale^6
        a = np.zeros(65)
        a[0], a[2] = scale, 1e-3 * scale
        return ZonalFunction(P32, a)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1e-51, 1e-100, 1e-200, 1e-300, 1e100, 1e200, 1e300])
    def test_member_far_from_unit_scale_keeps_its_norm(self, rule32, scale):
        # the node terms |u|^6 underflowed (|u|_q came out 0.0 at 1e-100, and
        # later was refused) or overflowed (refused from 1e100); evaluated at
        # unit scale, each sum of (x / max x)^6 lies in [1, M]
        base = norm_lp(self.scaled(1.0), P32.q, rule32)
        assert norm_lp(self.scaled(scale), P32.q, rule32) == pytest.approx(scale * base,
                                                                           rel=1e-13)
        assert norm_lp([self.scaled(1.0), self.scaled(scale)], P32.q, rule32) == [
            base, norm_lp(self.scaled(scale), P32.q, rule32)]

    @pytest.mark.parametrize("scale", [1e-20, 1e-40, 1e-48])
    def test_small_sum_above_the_bound_keeps_its_norm(self, rule32, scale):
        assert norm_lp(self.scaled(scale), P32.q, rule32) == pytest.approx(
            scale * norm_lp(self.scaled(1.0), P32.q, rule32), rel=1e-13)

    def test_small_sum_of_normal_terms_keeps_its_norm(self, rule32):
        # at 1e-50 the sum, 2.6e-303, is below min/eps, but no node term underflowed
        assert norm_lp(self.scaled(1e-50), P32.q, rule32) == pytest.approx(
            1e-50 * norm_lp(self.scaled(1.0), P32.q, rule32), rel=1e-13)

    @pytest.mark.parametrize("N", [421, 430])
    def test_constant_on_a_small_sphere_keeps_its_norm(self, N):
        # |S^N| < 1e-292, so the plain sum of w |1|^q is below min/eps; at
        # N = 430 some weights are subnormal themselves.  The constant 1e-100
        # was refused as an underflow; w^(1/q) |u| / max keeps its terms normal
        p = SobolevParams(N, 2.0)
        rule = default_rule(N, 8)
        assert sphere_area(N) < 1e-292
        for value in (1.0, 1e-100):
            assert norm_lp(constant(p, value, 8), p.q, rule) == pytest.approx(
                value * sphere_area(N) ** (1 / p.q), rel=1e-14)

    def test_zero_function_has_norm_zero(self, rule32):
        zero = constant(P32, 0.0, 8)
        assert norm_lp(zero, P32.q, rule32) == 0.0
        assert norm_lp([zero, zero], 2.0, rule32) == [0.0, 0.0]


class TestBatchNorms:
    # norm_star and norm_lp take a list of members the way deficit.distance does

    def test_lone_call_returns_a_float(self, rule32):
        u = smooth_random_zonal(P32, np.random.default_rng(10), K=8)
        assert type(norm_star(u)) is float
        assert type(norm_lp(u, P32.q, rule32)) is float
        assert norm_star([u]) == [norm_star(u)]
        assert norm_lp([u], P32.q, rule32) == [norm_lp(u, P32.q, rule32)]

    def test_mixed_batch_is_refused(self, rule32):
        rng = np.random.default_rng(11)
        u = smooth_random_zonal(P32, rng, K=64)
        for other in (smooth_random_zonal(P32, rng, K=32),
                      smooth_random_zonal(SobolevParams(3, 1.0), rng, K=64)):
            for batch in ([u, other], [other, u]):
                with pytest.raises(ValueError, match="must share K and"):
                    norm_star(batch)
                with pytest.raises(ValueError, match="must share K and"):
                    norm_lp(batch, P32.q, rule32)
        with pytest.raises(ValueError, match="at least one member"):
            norm_star([])
        with pytest.raises(ValueError, match="at least one member"):
            norm_lp([], P32.q, rule32)


class TestMemberBlock:
    # zonal._members builds a scan family's members from one copied,
    # finite-checked, read-only block; ZonalFunction(p, a) is its batch of one

    def test_members_equal_their_lone_construction(self):
        rows = np.random.default_rng(12).standard_normal((7, 65))
        rows[3, :4] = [-0.0, 0.0, 5e-324, -1e300]
        members = zonal._members(P32, rows)
        assert len(members) == 7
        for u, row in zip(members, rows):
            alone = ZonalFunction(P32, row)
            assert type(u) is ZonalFunction and u.params == P32 and u.K == 64
            assert u.coeffs.tobytes() == alone.coeffs.tobytes() == row.tobytes()
        assert zonal._members(P32, np.zeros((0, 65))) == []

    def test_members_are_read_only_copies(self):
        rows = np.random.default_rng(13).standard_normal((3, 9))
        before = rows.copy()
        members = zonal._members(P32, rows)
        lone = ZonalFunction(P32, rows[0])
        for u in (*members, lone):
            assert not u.coeffs.flags.writeable
            with pytest.raises(ValueError):
                u.coeffs[0] = 1.0
            with pytest.raises(ValueError):
                u.coeffs.setflags(write=True)
        rows[:] = 7.0  # the source array stays the caller's
        assert all(np.array_equal(u.coeffs, b) for u, b in zip(members, before))
        assert np.array_equal(lone.coeffs, before[0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_block_is_refused(self, bad):
        rows = np.ones((4, 9))
        rows[2, 5] = bad
        with pytest.raises(ValueError, match="^coefficients must be finite$"):
            zonal._members(P32, rows)
        with pytest.raises(ValueError, match="^coefficients must be finite$"):
            ZonalFunction(P32, rows[2])
        for shape in ((), (0,), (2, 3)):
            with pytest.raises(ValueError, match="^coeffs must be a non-empty 1-D array$"):
                ZonalFunction(P32, np.ones(shape))


# Every function that evaluates a member on a rule, as f(u, rule)
EVALUATIONS = {
    "analyze": lambda u, rule: analyze(u.params, np.ones(rule.M), rule, u.K),
    "norm_lp": lambda u, rule: norm_lp(u, u.params.q, rule),
    "deficit": deficit,
    "stability_ratio": stability_ratio,
    "distance": distance,
}


class TestRuleFit:
    """The rule refuses a member it cannot evaluate, whichever function asks."""

    @staticmethod
    def member():
        # 1 + 0.1 e_40 at K = 64: a 30-node rule would alias it to ratio 0.5305 and
        # d = 5.6223, where the default 130-node rule gives 0.9976 and 4.0997
        return constant(P32, 1.0, 64) + 0.1 * basis_function(P32, 40, 64)

    @pytest.mark.parametrize("name", EVALUATIONS)
    @pytest.mark.parametrize("M", [30, 64])
    def test_too_few_nodes_are_refused(self, name, M):
        with pytest.raises(ValueError, match=rf"^M={M} nodes cannot resolve degree K=64 "):
            EVALUATIONS[name](self.member(), gauss_jacobi_rule(3, M))

    @pytest.mark.parametrize("name", EVALUATIONS)
    def test_one_node_more_than_the_degree_evaluates(self, name):
        EVALUATIONS[name](self.member(), gauss_jacobi_rule(3, 65))

    @pytest.mark.parametrize("name", EVALUATIONS)
    def test_rule_of_another_dimension_is_refused(self, name):
        # on this rule distance would find c = 1.2533 for a member whose nearest c is 1
        with pytest.raises(ValueError, match=r"^rule dimension 2 != params dimension 3$"):
            EVALUATIONS[name](self.member(), default_rule(2, 64))

    def test_negative_degree_is_refused(self):
        with pytest.raises(ValueError, match=r"^truncation degree K must be >= 0, got -1$"):
            gauss_jacobi_rule(3, 8).basis(-1)

import math

import mpmath
import pytest

from sobstab._util import RefusalError
from sobstab.specfun import (
    SobolevParams,
    ball_volume,
    eigenvalue,
    local_constant,
    log_gamma,
    multiplicity,
    sharp_constant,
    sphere_area,
    unit_ball_radius,
)

from conftest import PARAM_GRID, P32


class TestLogGamma:
    def test_known_values(self):
        assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-15)
        assert log_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), rel=1e-14)
        assert log_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-14)

    def test_against_high_precision_oracle(self):
        # contract: relative error <= 1e-13 on [0.5, 200]
        mpmath.mp.dps = 40
        x = 0.5
        while x <= 200.0:
            exact = float(mpmath.loggamma(x))
            got = log_gamma(x)
            assert got == pytest.approx(exact, rel=1e-13, abs=1e-14), x
            x *= 1.17
        assert log_gamma(200.0) == pytest.approx(float(mpmath.loggamma(200.0)), rel=1e-13)

    def test_domain_error(self):
        for bad in (0.0, -1.0, -0.5):
            with pytest.raises(ValueError):
                log_gamma(bad)


class TestSphereArea:
    def test_circle_and_two_sphere(self):
        assert sphere_area(1) == pytest.approx(2 * math.pi, rel=1e-14)
        assert sphere_area(2) == pytest.approx(4 * math.pi, rel=1e-14)

    def test_three_sphere_from_high_precision_gamma(self):
        mpmath.mp.dps = 40
        oracle = float(2 * mpmath.pi**2 / mpmath.gamma(2))
        assert sphere_area(3) == pytest.approx(oracle, rel=1e-13)
        assert sphere_area(3) == pytest.approx(2 * math.pi**2, rel=1e-13)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            sphere_area(0)


class TestSobolevParams:
    def test_q_is_derived(self):
        p = SobolevParams(3, 2.0)
        assert p.q == pytest.approx(6.0, rel=1e-15)
        assert SobolevParams(5, 1.0).q == pytest.approx(2.5, rel=1e-15)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            SobolevParams(3, 3.0)
        with pytest.raises(ValueError):
            SobolevParams(3, 0.0)
        with pytest.raises(ValueError):
            SobolevParams(3, -1.0)
        with pytest.raises(ValueError):
            SobolevParams(0, 0.5)

    def test_q_exceeds_two_on_grid(self):
        for p in PARAM_GRID:
            assert p.q > 2.0

    def test_beta_gives_the_bits_of_the_spelled_out_exponents(self):
        # halving is exact, so each exponent rounds where its spelled-out form does
        for p in PARAM_GRID + [SobolevParams(38, 34.2), SobolevParams(300, 1.0)]:
            assert p.beta == 0.5 * (p.N - p.s)
            assert -p.beta == -0.5 * (p.N - p.s)
            assert 1.0 / p.beta == 2.0 / (p.N - p.s)


class TestSharpConstant:
    def test_hand_reduced_closed_forms(self):
        assert sharp_constant(P32) == pytest.approx(3 * (math.pi / 2) ** (4 / 3), rel=1e-12)
        assert sharp_constant(SobolevParams(4, 2.0)) == pytest.approx(
            8 * math.pi / math.sqrt(6), rel=1e-12)

    def test_small_s_limit_is_one(self):
        for n in (2, 3, 6):
            assert sharp_constant(SobolevParams(n, 1e-6)) == pytest.approx(1.0, abs=1e-4)

    def test_against_high_precision_oracle(self):
        mpmath.mp.dps = 40
        for p in PARAM_GRID:
            n, s = mpmath.mpf(p.N), mpmath.mpf(p.s)
            oracle = (2**s * mpmath.pi ** (s / 2)
                      * mpmath.gamma((n + s) / 2) / mpmath.gamma((n - s) / 2)
                      * (mpmath.gamma(n / 2) / mpmath.gamma(n)) ** (s / n))
            assert sharp_constant(p) == pytest.approx(float(oracle), rel=1e-13), (p.N, p.s)

    def test_s2_classical_closed_form(self):
        # the first-order case has the independent form N(N-2)/4 |S^N|^(2/N)
        for n in (3, 4, 5, 7, 8):
            p = SobolevParams(n, 2.0)
            classical = n * (n - 2) / 4 * sphere_area(n) ** (2.0 / n)
            assert sharp_constant(p) == pytest.approx(classical, rel=1e-12)

    def test_continuity_in_s(self):
        h = 1e-6
        for p in PARAM_GRID:
            if p.s + h >= p.N:
                continue
            delta = abs(sharp_constant(SobolevParams(p.N, p.s + h)) - sharp_constant(p))
            assert delta <= 1e-4 * sharp_constant(p)


class TestEigenvalue:
    def test_s2_reduction(self):
        # for s = 2 the eigenvalue reduces to ((N-2)/2 + k)(N/2 + k)
        assert eigenvalue(P32, 0) == pytest.approx(0.75, rel=1e-13)
        assert eigenvalue(P32, 1) == pytest.approx(3.75, rel=1e-13)
        for p in (P32, SobolevParams(5, 2.0), SobolevParams(8, 2.0)):
            for k in range(51):
                target = ((p.N - 2) / 2 + k) * (p.N / 2 + k)
                assert eigenvalue(p, k) == pytest.approx(target, rel=1e-12)

    def test_gamma_recurrence(self):
        for p in PARAM_GRID:
            for k in range(51):
                ratio = eigenvalue(p, k + 1) / eigenvalue(p, k)
                target = ((p.N + p.s) / 2 + k) / ((p.N - p.s) / 2 + k)
                assert ratio == pytest.approx(target, rel=1e-11), (p.N, p.s, k)

    def test_s1_linear_spectrum(self):
        # s = 1: the Gamma ratio telescopes to k + (N-1)/2 exactly
        for n in (2, 3, 5, 8):
            p = SobolevParams(n, 1.0)
            for k in (0, 1, 7, 40):
                assert eigenvalue(p, k) == pytest.approx(k + (n - 1) / 2, rel=1e-13)

    def test_monotone_in_k(self):
        for p in PARAM_GRID:
            prev = eigenvalue(p, 0)
            for k in range(1, 40):
                cur = eigenvalue(p, k)
                assert cur > prev
                prev = cur

    def test_domain_error(self):
        with pytest.raises(ValueError):
            eigenvalue(P32, -1)


class TestDoubleRange:
    # the closed forms used to raise OverflowError or return subnormals
    @pytest.mark.parametrize("call, message", [
        (lambda: eigenvalue(SobolevParams(180, 179.0), 0),
         "lambda_0 at (N, s) = (180, 179.0) is inf, outside the range of normal doubles"),
        (lambda: sharp_constant(SobolevParams(242, 217.8)),
         "S at (N, s) = (242, 217.8) is inf, outside the range of normal doubles"),
        (lambda: sphere_area(438),
         "|S^438| is 3.79883239546487e-309, outside the range of normal doubles"),
        (lambda: sphere_area(455), "|S^455| is 0.0, outside the range of normal doubles"),
        # ball_volume returned 0.0 and unit_ball_radius raised ZeroDivisionError
        (lambda: ball_volume(700), "|B_1| in R^700 is 0.0, outside the range of normal doubles"),
        (lambda: unit_ball_radius(700),
         "|B_1| in R^700 is 0.0, outside the range of normal doubles"),
    ], ids=["eigenvalue", "sharp_constant", "subnormal-area", "zero-area", "ball-volume",
            "ball-radius"])
    def test_refused(self, call, message):
        with pytest.raises(RefusalError) as info:
            call()
        assert str(info.value) == message

    def test_last_normal_values_pass(self):
        oracle = 2 * mpmath.pi ** 219 / mpmath.gamma(219)
        assert sphere_area(437) == pytest.approx(float(oracle), rel=1e-12)
        assert math.isfinite(sharp_constant(SobolevParams(180, 179.0)))

    def test_unit_ball_radius_bits(self):
        # verify-theorem2 prints its default bump radii with repr
        assert unit_ball_radius(2) == float.fromhex("0x1.20dd750429b6dp-1")
        assert unit_ball_radius(3) == float.fromhex("0x1.3d9e945cf0e15p-1")


class TestMultiplicity:
    def test_low_degrees(self):
        for n in range(1, 9):
            assert multiplicity(n, 0) == 1
            assert multiplicity(n, 1) == n + 1
        assert multiplicity(2, 2) == 5  # binom(4,2) - binom(2,2)

    def test_exact_integer_type(self):
        assert isinstance(multiplicity(8, 40), int)
        # consistency with the dimension count of homogeneous harmonics
        assert multiplicity(3, 2) == 9

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            multiplicity(0, 1)
        with pytest.raises(ValueError):
            multiplicity(3, -1)


class TestLocalConstant:
    def test_values(self):
        assert local_constant(P32) == pytest.approx(4 / 7, rel=1e-15)
        assert local_constant(SobolevParams(5, 1.0)) == pytest.approx(0.25, rel=1e-15)

    def test_identity_with_eigenvalue_ratio(self):
        for p in PARAM_GRID:
            target = 1.0 - eigenvalue(p, 1) / eigenvalue(p, 2)
            assert local_constant(p) == pytest.approx(target, rel=1e-12)
            assert 0.0 < local_constant(p) < 1.0

"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s`).

Every tolerance is pinned here, not calibrated elsewhere; runtime bounds
are asserted as part of the criterion.
"""

import json
import math
import time

import numpy as np
import pytest

from sobstab.cli import main as cli_main
from sobstab.conformal import ManifoldPoint, bump_profile
from sobstab.deficit import (
    ScanConfig,
    deficit,
    distance,
    run_scan,
    stability_ratio,
)
from sobstab.specfun import (
    SobolevParams,
    eigenvalue,
    local_constant,
    sharp_constant,
    sphere_area,
    unit_ball_radius,
)
from sobstab.weaknorm import compute_constants, verify_theorem2
from sobstab.zonal import basis_function, constant, default_rule, norm_lp, norm_star

from conftest import (PARAM_GRID, P32, conformal_shift, eq_rho_residual, gradient_form,
                      hessian_form, manifold_zonal, smooth_random_zonal)


class _Criterion:
    def __init__(self, number, description, budget_s):
        self.number = number
        self.description = description
        self.budget_s = budget_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.number:2d} {status} ({elapsed:6.2f} s / "
              f"budget {self.budget_s:g} s): {self.description}")
        if exc_type is None:
            assert elapsed < self.budget_s, (
                f"criterion {self.number} exceeded its runtime budget")
        return False


def _unit_mode(p, k, K=64):
    e = basis_function(p, k, K)
    return e * (1.0 / norm_star(e))


def test_criterion_01_sharp_constant_table():
    with _Criterion(1, "sharp-constant closed forms at (3,2) and (4,2)", 1.0):
        s32 = sharp_constant(P32)
        assert abs(s32 - 3 * (math.pi / 2) ** (4 / 3)) <= 1e-10 * s32
        s42 = sharp_constant(SobolevParams(4, 2.0))
        assert abs(s42 - 8 * math.pi / math.sqrt(6)) <= 1e-10 * s42


def test_criterion_02_spectral_identity():
    with _Criterion(2, "(q-1) S |S^N|^(-s/N) equals the first eigenvalue on the grid", 1.0):
        assert len(PARAM_GRID) >= 20
        for p in PARAM_GRID:
            lam1 = eigenvalue(p, 1)
            lhs = (p.q - 1.0) * sharp_constant(p) * sphere_area(p.N) ** (-p.s / p.N)
            assert abs(lhs - lam1) <= 1e-10 * lam1, (p.N, p.s)


def test_criterion_03_local_stability_constant():
    pairs = [SobolevParams(3, 2.0), SobolevParams(2, 1.0),
             SobolevParams(5, 3.3), SobolevParams(2, 0.5)]
    with _Criterion(3, "deficit/distance^2 ratio converges to 2s/(N+s+2)", 30.0):
        for p in pairs:
            rule = default_rule(p.N, 64)
            ratios = {}
            for eps in (1e-1, 1e-2, 1e-3):
                u = constant(p, 1.0, 64) + eps * _unit_mode(p, 2)
                ratios[eps] = stability_ratio(u, rule).ratio
            richardson = (10 * ratios[1e-3] - ratios[1e-2]) / 9
            target = local_constant(p)
            assert abs(richardson - target) <= 0.01 * target, (p.N, p.s, ratios)


def test_criterion_04_hessian_oracle():
    with _Criterion(4, "spectral gap of the second derivative + FD agreement", 30.0):
        rule = default_rule(3, 64)
        one = constant(P32, 1.0, 64)
        lam1 = eigenvalue(P32, 1)
        for k in range(1, 11):
            lam_k = eigenvalue(P32, k)
            half = hessian_form(one, basis_function(P32, k, 64),
                                basis_function(P32, k, 64), rule) / 2
            assert abs(half - (lam_k - lam1)) <= 1e-6 * lam_k, k

        rng = np.random.default_rng(202)
        for _ in range(20):
            u = smooth_random_zonal(P32, rng, decay=0.45, offset=1.0)
            v = smooth_random_zonal(P32, rng, decay=0.45)
            w = smooth_random_zonal(P32, rng, decay=0.45)

            h = 1e-5
            grad = gradient_form(u, v, rule)
            fd1 = (deficit(u + h * v, rule) - deficit(u - h * v, rule)) / (2 * h)
            assert abs(grad - fd1) <= 1e-4 * max(abs(grad), 1e-9)

            h = 3e-4
            hess = hessian_form(u, v, w, rule)

            def second(z, u=u, h=h, rule=rule):
                return (deficit(u + h * z, rule) - 2 * deficit(u, rule)
                        + deficit(u - h * z, rule)) / h**2

            fd2 = (second(v + w) - second(v - w)) / 4
            assert abs(hess - fd2) <= 1e-4 * max(abs(hess), 1e-6)


def test_criterion_05_equality_case():
    with _Criterion(5, "deficit vanishes on the extremizer family at K=64", 10.0):
        for p in (P32, SobolevParams(2, 1.0)):
            rule = default_rule(p.N, 64)
            for c in (0.5, 1.0, 3.0):
                for t0 in (0.0, 0.3, -0.3, 0.8, -0.8):
                    v = manifold_zonal(p, ManifoldPoint(c, t0), rule, 64)
                    assert abs(deficit(v, rule)) <= 1e-6 * norm_star(v) ** 2, (c, t0)


def test_criterion_06_conformal_invariance():
    with _Criterion(6, "norms, deficit, and axial distance invariant under shifts", 20.0):
        rule = default_rule(3, 64)
        rng = np.random.default_rng(606)
        for _ in range(10):
            u = constant(P32, 1.0, 64) + 0.5 * smooth_random_zonal(P32, rng, max_degree=10)
            ns, lq = norm_star(u), norm_lp(u, P32.q, rule)
            psi = deficit(u, rule)
            d, _ = distance(u, rule)
            for t0 in (0.3, -0.3, 0.7, -0.7):
                v = conformal_shift(u, t0, rule, 64)
                assert abs(norm_star(v) - ns) <= 1e-5 * ns
                assert abs(norm_lp(v, P32.q, rule) - lq) <= 1e-5 * lq
                assert abs(deficit(v, rule) - psi) <= 1e-5 * abs(psi)
                dv, _ = distance(v, rule)
                assert abs(dv - d) <= 1e-5 * d


def test_criterion_07_sandwich_property_scan():
    cfg = ScanConfig(seed=2024, n_normal=110, n_random=155,
                     bubble_t0=(0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8))
    with _Criterion(7, f"two-sided bound over a {cfg.n_members}-member seeded scan", 300.0):
        assert cfg.n_members >= 500
        result = run_scan(P32, cfg)
        for _idx, _family, _label, rep in result.entries:
            if rep is None:
                continue
            slack = 1e-9 * rep.norm_star_sq
            assert rep.deficit >= -slack
            assert rep.distance**2 >= rep.deficit - slack
            if rep.distance > 1e-4 * math.sqrt(rep.norm_star_sq):
                assert rep.deficit > 0.0
        assert result.alpha_hat > 0.0
        assert result.alpha_hat <= local_constant(P32) + 0.05


def test_criterion_08_weak_norm_constants():
    with _Criterion(8, "remainder constants: rho solves its equation; (3,2) pinned", 5.0):
        from scipy.integrate import quad

        for p in PARAM_GRID:
            wc = compute_constants(p)
            assert 0.0 < wc.rho < 1.0
            assert abs(eq_rho_residual(p, wc)) <= 1e-12, (p.N, p.s)
        # (3,2): oracle from the tangent-substitution closed form
        # int_0^inf r^2/(1+r^2)^3 dr = pi/16, tail = |S^2| (pi/16 - int_0^1)
        inner, _ = quad(lambda r: r * r / (1 + r * r) ** 3, 0.0, 1.0)
        big_r = (4 * math.pi * (math.pi / 16 - inner)) ** (1 / 6)
        sq_s = math.sqrt(sharp_constant(P32))
        rho_oracle = big_r * sq_s / (1 + big_r * sq_s)
        assert abs(compute_constants(P32).rho - rho_oracle) <= 1e-8 * rho_oracle


def test_criterion_09_weak_norm_remainder_harness():
    with _Criterion(9, "weak-norm remainder bound on the unit-measure bump family", 60.0):
        for N, s in ((3, 2.0), (2, 1.0)):
            p = SobolevParams(N, s)
            wc = compute_constants(p)
            K = 384
            r0 = unit_ball_radius(N)
            for sharp in (1.0, 2.0, 4.0):
                case = verify_theorem2(bump_profile(p, r0, sharp), K)
                assert case.margin >= -1e-6 * case.lhs, (N, s, sharp)
                assert case.rhs == pytest.approx(
                    wc.C * case.omega_measure ** (-2 / p.q) * case.weak**2, rel=1e-12)


def test_criterion_10_scan_determinism(tmp_path):
    with _Criterion(10, "seeded scans re-run byte-identically", 300.0):
        args = ["deficit-scan", "--N", "3", "--s", "2", "--seed", "7",
                "--n-normal", "20", "--n-random", "20"]
        p1, p2 = tmp_path / "run1.jsonl", tmp_path / "run2.jsonl"
        assert cli_main([*args, "--out", str(p1)]) == 0
        assert cli_main([*args, "--out", str(p2)]) == 0
        b1, b2 = p1.read_bytes(), p2.read_bytes()
        assert b1 == b2 and len(b1) > 0
        # summary record closes the stream
        last = json.loads(b1.decode().splitlines()[-1])
        assert {"alpha_hat", "local_constant", "n_members", "seed"} <= last.keys()

import math
import os
from pathlib import Path

import numpy as np
import pytest

from sobstab import (ManifoldPoint, QuadratureRule, RadialFunction, SobolevParams,
                     WeakNormConstants, ZonalFunction, analyze, constant, default_rule,
                     lambdas, manifold_samples, norm_lp, sharp_constant)
from sobstab.specfun import _sphere_area
from sobstab.weaknorm import _gl_nodes
from sobstab.zonal import _basis_matrix, _stacked, _unscaled

# Desk-scale parameter grid: every (N, s) with N in 1..8, s from the fixed
# menu, s < N.  47 pairs; exercises fractional and integer orders.
S_MENU = (0.3, 0.5, 1.0, 1.5, 2.0, 2.5, 3.3)
PARAM_GRID = [SobolevParams(N, s) for N in range(1, 9) for s in S_MENU if s < N]

P32 = SobolevParams(3, 2.0)

SRC = Path(__file__).resolve().parent.parent / "src"


def python_env(env=None) -> dict:
    """`env` (default: this process's environment) with the package's src first on PYTHONPATH.

    Child Python processes import sobstab from this checkout through it.
    """
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


@pytest.fixture(scope="session")
def rule32():
    return default_rule(3, 64)


def smooth_random_zonal(p: SobolevParams, rng: np.random.Generator, K: int = 64,
                        max_degree: int = 12, decay: float = 0.55,
                        offset: float = 0.0) -> ZonalFunction:
    """Random zonal function with geometrically decaying coefficients.

    Smooth enough that degree-K truncations of its conformal shifts are
    converged well below the tolerances used in the tests.
    """
    kmax = min(max_degree, K)
    a = np.zeros(K + 1)
    a[: kmax + 1] = rng.standard_normal(kmax + 1) * decay ** np.arange(kmax + 1)
    u = ZonalFunction(p, a)
    if offset:
        u = constant(p, offset, K) + u
    return u


# --- oracles: the claims of the paper that the tests check, outside the package ---


def manifold_zonal(params: SobolevParams, point: ManifoldPoint,
                   rule: QuadratureRule, K: int) -> ZonalFunction:
    """Degree-K expansion of the axial extremizer u_{c,t0}."""
    return analyze(params, manifold_samples(params, point.c, point.t0, rule.nodes), rule, K)


def conformal_shift(u: ZonalFunction, t0: float, rule: QuadratureRule, K: int) -> ZonalFunction:
    """Axial conformal transform u -> J^(1/q) u(tau(.)), re-expanded at degree K.

    tau moves the latitude by the Moebius map t -> (t - t0)/(1 - t0 t)
    (the sphere conjugate of an R^N dilation) and the Jacobian factor is
    J^(1/q) = (1 - t0^2)^((N-s)/4) (1 - t0 t)^(-(N-s)/2).  Preserves
    ||.||_* and |.|_q up to truncation error, and maps the axial manifold
    into itself; t0 = 0 is the identity.
    """
    p = u.params
    t = rule.nodes
    tau = (t - t0) / (1.0 - t0 * t)
    jac_q = (1.0 - t0 * t0) ** (0.5 * p.beta) * (1.0 - t0 * t) ** -p.beta
    return analyze(p, jac_q * (u.coeffs @ _basis_matrix(p.N, u.K, tau)), rule, K)


def dilate(u: RadialFunction, lam: float) -> RadialFunction:
    """Norm-preserving rescaling u_lam(x) = lam * u(lam^(2/(N-s)) x)."""
    mu = lam ** (1.0 / u.params.beta)
    return RadialFunction(u.params, lambda r: lam * u.profile(mu * r),
                          support_radius=u.support_radius / mu)


def node_values(u: ZonalFunction, rule: QuadratureRule) -> np.ndarray:
    """Values of u at the rule's nodes (cached basis fast path)."""
    rule._check_dimension(u.params.N)
    return u.coeffs.dot(rule.basis(u.K))


def inner_star(u: ZonalFunction, v: ZonalFunction) -> float:
    """Spectral inner product sum lambda_k a_k b_k; the polarization of norm_star."""
    if u.params != v.params:
        raise ValueError("operands have different (N, s) parameters")
    n = min(u.coeffs.size, v.coeffs.size)
    lam = lambdas(u.params, n - 1)
    return float(lam @ (u.coeffs[:n] * v.coeffs[:n]))


def gradient_form(u: ZonalFunction, v: ZonalFunction, rule: QuadratureRule) -> float:
    """Directional derivative Psi'(u)v = 2<u,v>_* - 2 S |u|_q^(2-q) int |u|^(q-2) u v.

    1-homogeneous in u: evaluated at the unit scale of u (see
    `zonal._stacked`) and scaled back exactly, so that of 2^k u is 2^k times
    that of u, bit for bit.
    """
    _, (row,), (e,) = _stacked(u)
    if not row.any():
        raise ValueError("gradient form undefined at u = 0")
    u = ZonalFunction(u.params, row)
    q = u.params.q
    lq = norm_lp(u, q, rule)
    uv = node_values(u, rule)
    iv = float(rule.weights @ (np.abs(uv) ** (q - 2.0) * uv * node_values(v, rule)))
    return _unscaled(
        2.0 * inner_star(u, v) - 2.0 * sharp_constant(u.params) * lq ** (2.0 - q) * iv, e)


def hessian_form(u: ZonalFunction, v: ZonalFunction, w: ZonalFunction,
                 rule: QuadratureRule) -> float:
    """Second derivative Psi''(u)(v, w); symmetric bilinear in (v, w).

    Half of it is <v,w>_* - S (2-q) |u|_q^(2-2q) I[v] I[w]
    - S (q-1) |u|_q^(2-q) int |u|^(q-2) v w, with I[z] = int |u|^(q-2) u z.
    """
    q = u.params.q
    s_const = sharp_constant(u.params)
    lq = norm_lp(u, q, rule)
    uv, vv, wv = node_values(u, rule), node_values(v, rule), node_values(w, rule)
    weight = np.abs(uv) ** (q - 2.0)
    i_v, i_w, i_vw = (float(rule.weights @ (weight * z)) for z in (uv * vv, uv * wv, vv * wv))
    half = (inner_star(v, w)
            - s_const * (2.0 - q) * lq ** (2.0 - 2.0 * q) * i_v * i_w
            - s_const * (q - 1.0) * lq ** (2.0 - q) * i_vw)
    return 2.0 * half


def extremizer_tail_lq(p: SobolevParams, lam: float, r0: float) -> float:
    """L^q mass of the rescaled extremizer outside the ball of radius r0, by quadrature.

    Equals |S^(N-1)| int_{a}^inf r^(N-1) (1+r^2)^(-N) dr with
    a = lam^(2/(N-s)) r0.  The substitution r = cot(psi) turns the
    integrand into the bounded smooth function 2^(1-N) sin(2 psi)^(N-1)
    on [0, atan(1/a)], an interval free of the cancellation in
    pi/2 - atan(a) when a is large.  Fixed 64-point Gauss-Legendre
    resolves it to ~1e-14 relative for N <= 24 and a <= 1e3.
    `compute_constants` takes the unit-ball tail in closed form, so this
    is an independent check of it.
    """
    N = p.N
    half = 0.5 * math.atan(1.0 / (lam ** (1.0 / p.beta) * r0))
    gl_x, gl_w = _gl_nodes(64)
    psi = half * (1.0 + gl_x)
    val = half * float(gl_w @ np.sin(2.0 * psi) ** (N - 1))
    return _sphere_area(N - 1) * 2.0 ** (1 - N) * val


def eq_rho_residual(p: SobolevParams, constants: WeakNormConstants) -> float:
    """Residual (rho - x/(1+x)) / rho, x = tail^(1/q) sqrt(S), of rho's equation solved for rho.

    Relative to rho, so it checks rho's digits where rho is tiny (4.8e-34
    at (100, 1)).  The tail is by quadrature; no 1 - rho cancels as s -> N.
    """
    x = extremizer_tail_lq(p, 1.0, 1.0) ** (1.0 / p.q) * math.sqrt(sharp_constant(p))
    return (constants.rho - x / (1.0 + x)) / constants.rho

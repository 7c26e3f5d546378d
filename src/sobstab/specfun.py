"""Closed-form constants of the sharp fractional Sobolev inequality.

Everything in this module is an exact formula: sphere areas and ball
volumes, the sharp constant S(N, s), the eigenvalues and multiplicities
of the conformally covariant operator on the sphere, the local stability
constant 2s/(N+s+2), and the explicit constants rho, C1, C2, C0, C of the
weak-norm remainder bound.  All Gamma ratios are differences of
math.lgamma (relative error below 1e-13 on [0.5, 200]), finite for large
arguments; a value that still leaves the range of normal doubles is
refused (RefusalError).  The module loads no numpy.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

from ._util import RefusalError, checked_make

__all__ = [
    "SobolevParams",
    "sphere_area",
    "sharp_constant",
    "eigenvalue",
    "multiplicity",
    "local_constant",
    "WeakNormConstants",
    "ball_volume",
    "unit_ball_radius",
    "extremizer_weak_norm",
    "compute_constants",
]

_LOG_MAX = math.log(sys.float_info.max)


def _normal(x):
    # True where x is a normal double, min <= |x| <= max (false for NaN): the one
    # such test, of a float or elementwise of a numpy array
    a = abs(x)
    return (sys.float_info.min <= a) & (a <= sys.float_info.max)


def _in_range(value: float, what: str, *args) -> float:
    """`value` if a normal, finite double, else RefusalError naming `what.format(*args)`."""
    if not _normal(value):
        raise RefusalError(
            f"{what.format(*args)} is {value!r}, outside the range of normal doubles")
    return value


def _exp_in_range(log_value: float, what: str, *args) -> float:
    # exp(log_value) through _in_range; math.exp would raise OverflowError past the range
    return _in_range(math.exp(log_value) if log_value < _LOG_MAX else math.inf, what, *args)


def _sphere_area(n: int) -> float:
    # Valid down to n = 0 (|S^0| = 2); the public wrapper starts at n = 1.
    return _exp_in_range(math.log(2.0) + 0.5 * (n + 1) * math.log(math.pi)
                         - math.lgamma(0.5 * (n + 1)), "|S^{}|", n)


def sphere_area(n: int) -> float:
    """Surface measure |S^n| = 2 pi^((n+1)/2) / Gamma((n+1)/2) of the unit n-sphere."""
    if n < 1:
        raise ValueError(f"sphere_area requires n >= 1, got {n}")
    return _sphere_area(n)


class SobolevParams(NamedTuple("SobolevParams", [("N", int), ("s", float)])):
    """Dimension N and order s, with 0 < s < N.

    The critical exponent q = 2N/(N-s) and the extremizer exponent
    beta = (N-s)/2 (the optimizers are c (1 - t0 t)^(-beta) on S^N) are
    always recomputed from (N, s), never stored, so they can not drift
    out of sync.  Immutable, hashable and equal by value, so it keys the
    lru_caches.
    """

    __slots__ = ()
    _make = classmethod(checked_make)

    def __new__(cls, N: int, s: float) -> SobolevParams:
        if not isinstance(N, int) or N < 1:
            raise ValueError(f"N must be an integer >= 1, got {N!r}")
        s = float(s)
        if not 0.0 < s < N:
            raise ValueError(f"need 0 < s < N, got s={s}, N={N}")
        return super().__new__(cls, N, s)

    @property
    def q(self) -> float:
        """Critical exponent 2N/(N-s); strictly greater than 2."""
        return 2.0 * self.N / (self.N - self.s)

    @property
    def beta(self) -> float:
        """Extremizer exponent (N-s)/2, rounded once: halving a double is exact."""
        return 0.5 * (self.N - self.s)


def sharp_constant(p: SobolevParams) -> float:
    """Sharp constant S(N, s) of the fractional Sobolev inequality.

    S = 2^s pi^(s/2) * Gamma((N+s)/2)/Gamma((N-s)/2)
        * (Gamma(N/2)/Gamma(N))^(s/N),
    evaluated in log-space.
    """
    N, s = p.N, p.s
    log_s = (s * math.log(2.0) + 0.5 * s * math.log(math.pi)
             + math.lgamma(0.5 * (N + s)) - math.lgamma(0.5 * (N - s))
             + (s / N) * (math.lgamma(0.5 * N) - math.lgamma(float(N))))
    return _exp_in_range(log_s, "S at (N, s) = ({}, {})", N, s)


def eigenvalue(p: SobolevParams, k: int) -> float:
    """k-th eigenvalue Gamma((N+s)/2 + k) / Gamma((N-s)/2 + k); increasing in k."""
    if k < 0:
        raise ValueError(f"eigenvalue index must be >= 0, got {k}")
    return _exp_in_range(math.lgamma(0.5 * (p.N + p.s) + k)
                         - math.lgamma(0.5 * (p.N - p.s) + k),
                         "lambda_{} at (N, s) = ({}, {})", k, p.N, p.s)


def multiplicity(N: int, k: int) -> int:
    """Dimension of the space of degree-k spherical harmonics on S^N.

    Exact integer binom(k+N, N) - binom(k+N-2, N), with the convention
    that binom(m, N) = 0 for m < N.
    """
    if N < 1 or k < 0:
        raise ValueError(f"multiplicity requires N >= 1 and k >= 0, got N={N}, k={k}")

    def _binom(m: int) -> int:
        return math.comb(m, N) if m >= N else 0

    return _binom(k + N) - _binom(k + N - 2)


def local_constant(p: SobolevParams) -> float:
    """Best constant 2s/(N+s+2) of the local quadratic stability bound.

    Algebraically identical to 1 - eigenvalue(p, 1)/eigenvalue(p, 2).
    """
    return 2.0 * p.s / (p.N + p.s + 2.0)


def ball_volume(N: int) -> float:
    """Volume pi^(N/2) / Gamma(N/2 + 1) of the unit ball in R^N."""
    if N < 1:
        raise ValueError(f"ball_volume requires N >= 1, got {N}")
    return _exp_in_range(0.5 * N * math.log(math.pi) - math.lgamma(0.5 * N + 1.0),
                         "|B_1| in R^{}", N)


def unit_ball_radius(N: int) -> float:
    """Radius r0 of the ball of measure 1 in R^N."""
    return ball_volume(N) ** (-1.0 / N)


class WeakNormConstants(NamedTuple):
    """The explicit constants of the weak-norm remainder bound.

    rho solves rho/(sqrt(S)(1-rho)) = (tail L^q mass of the extremizer
    outside the unit ball)^(1/q); C = C0^(-2) is the final constant.
    `_asdict()` gives them in field order, the output schema.
    """

    rho: float
    r0: float
    extremizer_weak: float
    C1: float
    C2: float
    C0: float
    C: float


def extremizer_weak_norm(p: SobolevParams) -> float:
    """Weak L^(q/2) norm of the standard extremizer (1 + r^2)^(-(N-s)/2) on R^N.

    Its superlevel sets are centered balls, and the ball ratio
    |B_R|^(-s/N) int_{B_R} |u| rises with R, so the norm is its limit
    |S^(N-1)| |B_1|^(-s/N) / s as R -> infinity.  Proof: with
    beta = (N-s)/2 and I(R) = int_0^R (1 + r^2)^(-beta) r^(N-1) dr, the
    ratio's R-derivative has the sign of h(R) = R^N (1 + R^2)^(-beta) - s I(R),
    and h(0) = 0, h'(R) = (N-s) R^(N-1) (1 + R^2)^(-beta-1) > 0.
    """
    return _sphere_area(p.N - 1) * ball_volume(p.N) ** (-p.s / p.N) / p.s


def compute_constants(p: SobolevParams) -> WeakNormConstants:
    """All explicit constants of the weak-norm remainder bound for (N, s).

    The extremizer's L^q mass outside the unit ball, |S^(N-1)| times
    int_1^inf r^(N-1) (1+r^2)^(-N) dr, is |S^(N-1)| B(N/2, N/2) / 4, as
    r -> 1/r maps it onto the mass inside.  rho is solved in closed form
    (its defining equation is Moebius in rho).  With x = tail^(1/q) sqrt(S),
    1 - rho = 1/(1+x) keeps its digits as rho -> 1, and the bracket
    |S^(N-1)| / (N (2 r0)^N) is (2 r0^2)^(-N) as |B_1| r0^N = 1.
    """
    N, s, q = p.N, p.s, p.q

    def checked(name: str, value: float) -> float:  # refuses a value outside the normal doubles
        return _in_range(value, "{} at (N, s) = ({}, {})", name, N, s)

    sq_s = math.sqrt(sharp_constant(p))
    # the tail is checked before r0, so a too-large N names |S^(N-1)|, not |B_1|
    tail = _sphere_area(N - 1) * math.exp(2.0 * math.lgamma(0.5 * N) - math.lgamma(N)) / 4.0
    x = checked("the L^q tail", tail) ** (1.0 / q) * sq_s
    r0 = checked("r0", unit_ball_radius(N))
    rho = checked("rho", x / (1.0 + x))
    c1 = checked("C1", sq_s / (1.0 + x) * (2.0 * r0 * r0) ** -p.beta)
    u_weak = checked("the extremizer's weak norm", extremizer_weak_norm(p))
    c2 = checked("C2", (1.0 + rho) / c1 * u_weak + 1.0 / sq_s)
    c0 = checked("C0", max(c2, 1.0 / (rho * sq_s)))
    return WeakNormConstants(rho=rho, r0=r0, extremizer_weak=u_weak, C1=c1, C2=c2, C0=c0,
                             C=checked("C", c0 ** (-2.0)))

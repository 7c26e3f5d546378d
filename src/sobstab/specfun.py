"""Closed-form constants of the sharp fractional Sobolev inequality.

Everything in this module is an exact formula: Gamma-function helpers,
sphere areas, the sharp constant S(N, s), the eigenvalues and
multiplicities of the conformally covariant operator on the sphere, and
the local stability constant 2s/(N+s+2).  All Gamma ratios are evaluated
as differences of log-Gamma to stay finite for large arguments; a value
that still leaves the range of normal doubles is refused (RefusalError).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from ._util import RefusalError

__all__ = [
    "SobolevParams",
    "log_gamma",
    "sphere_area",
    "sharp_constant",
    "eigenvalue",
    "multiplicity",
    "local_constant",
    "lambda1_identity_residual",
]

_LOG_MAX = math.log(sys.float_info.max)


def log_gamma(x: float) -> float:
    """Natural log of Gamma(x) for x > 0.

    Delegates to the C library lgamma (a Lanczos/Stirling evaluation in
    log-space); relative error is below 1e-13 on [0.5, 200].
    """
    if not x > 0:
        raise ValueError(f"log_gamma requires x > 0, got {x!r}")
    return math.lgamma(x)


def _in_range(value: float, what: str, *args) -> float:
    """`value` if a normal, finite double, else RefusalError naming `what.format(*args)`."""
    if not sys.float_info.min <= abs(value) <= sys.float_info.max:
        raise RefusalError(
            f"{what.format(*args)} is {value!r}, outside the range of normal doubles")
    return value


def _exp_in_range(log_value: float, what: str, *args) -> float:
    # exp(log_value) through _in_range; math.exp would raise OverflowError past the range
    return _in_range(math.exp(log_value) if log_value < _LOG_MAX else math.inf, what, *args)


def _sphere_area(n: int) -> float:
    # Valid down to n = 0 (|S^0| = 2); the public wrapper starts at n = 1.
    return _exp_in_range(math.log(2.0) + 0.5 * (n + 1) * math.log(math.pi)
                         - log_gamma(0.5 * (n + 1)), "|S^{}|", n)


def sphere_area(n: int) -> float:
    """Surface measure |S^n| = 2 pi^((n+1)/2) / Gamma((n+1)/2) of the unit n-sphere."""
    if n < 1:
        raise ValueError(f"sphere_area requires n >= 1, got {n}")
    return _sphere_area(n)


@dataclass(frozen=True)
class SobolevParams:
    """Dimension N and order s, with 0 < s < N.

    The critical exponent q = 2N/(N-s) is always recomputed from (N, s),
    never stored, so it can not drift out of sync.
    """

    N: int
    s: float

    def __post_init__(self) -> None:
        if not isinstance(self.N, int) or self.N < 1:
            raise ValueError(f"N must be an integer >= 1, got {self.N!r}")
        object.__setattr__(self, "s", float(self.s))
        if not 0.0 < self.s < self.N:
            raise ValueError(f"need 0 < s < N, got s={self.s}, N={self.N}")

    @property
    def q(self) -> float:
        """Critical exponent 2N/(N-s); strictly greater than 2."""
        return 2.0 * self.N / (self.N - self.s)


def sharp_constant(p: SobolevParams) -> float:
    """Sharp constant S(N, s) of the fractional Sobolev inequality.

    S = 2^s pi^(s/2) * Gamma((N+s)/2)/Gamma((N-s)/2)
        * (Gamma(N/2)/Gamma(N))^(s/N),
    evaluated in log-space.
    """
    N, s = p.N, p.s
    log_s = (s * math.log(2.0) + 0.5 * s * math.log(math.pi)
             + log_gamma(0.5 * (N + s)) - log_gamma(0.5 * (N - s))
             + (s / N) * (log_gamma(0.5 * N) - log_gamma(float(N))))
    return _exp_in_range(log_s, "S at (N, s) = ({}, {})", N, s)


def eigenvalue(p: SobolevParams, k: int) -> float:
    """k-th eigenvalue Gamma((N+s)/2 + k) / Gamma((N-s)/2 + k); increasing in k."""
    if k < 0:
        raise ValueError(f"eigenvalue index must be >= 0, got {k}")
    return _exp_in_range(log_gamma(0.5 * (p.N + p.s) + k) - log_gamma(0.5 * (p.N - p.s) + k),
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


def lambda1_identity_residual(p: SobolevParams) -> float:
    """Residual of (q-1) * S * |S^N|^((2-q)/q) - lambda_1.

    The two sides agree exactly (Gamma duplication); the returned residual
    is pure floating-point noise and is asserted ~0 in the test suite.
    """
    lam1 = eigenvalue(p, 1)
    lhs = (p.q - 1.0) * sharp_constant(p) * sphere_area(p.N) ** ((2.0 - p.q) / p.q)
    return lhs - lam1

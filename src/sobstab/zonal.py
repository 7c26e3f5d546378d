"""Zonal (axially symmetric) spectral calculus on the unit sphere S^N.

A zonal function depends only on the latitude t = xi . pole, so every
integral over S^N reduces to one over t in (-1, 1) against the measure
|S^(N-1)| (1 - t^2)^((N-2)/2) dt.  This module provides:

  * Gauss-Jacobi quadrature for that measure (Golub-Welsch construction),
  * the orthonormal zonal-harmonic basis e_k (normalized ultraspherical
    polynomials with positive leading coefficient),
  * analysis of node samples into coefficients and synthesis at the nodes,
  * L^p norms and the spectral quadratic form sum lambda_k a_k^2 that
    realizes the conformal operator norm ||.||_*.
"""

from __future__ import annotations

import math
from functools import cache, cached_property, lru_cache

import numpy as np

from ._util import Frozen
from .specfun import SobolevParams, _sphere_area, eigenvalue

__all__ = [
    "QuadratureRule",
    "ZonalFunction",
    "gauss_jacobi_rule",
    "default_rule",
    "analyze",
    "norm_star",
    "inner_star",
    "norm_lp",
    "lambdas",
    "constant",
    "basis_function",
]


def _recurrence_sq(N: int, n: int) -> float:
    # Squared off-diagonal coefficient b_n^2 of the monic three-term
    # recurrence for the weight (1-t^2)^((N-2)/2); n >= 1.
    if n == 1:
        return 1.0 / (N + 1.0)
    return n * (n + N - 2.0) / ((2.0 * n + N - 1.0) * (2.0 * n + N - 3.0))


class QuadratureRule(Frozen):
    """Gauss rule on (-1, 1) carrying the full latitudinal sphere measure.

    weights sum to |S^N|; nodes are strictly increasing.  The reflection
    symmetry t -> -t is exact and checked on construction: nodes equal
    -nodes[::-1] and weights equal weights[::-1] bit for bit, which is
    what lets `analyze` fold the odd coefficients.  Immutable, equal only
    to itself; basis matrices are cached per truncation degree.
    """

    __slots__ = ("N", "nodes", "weights", "_basis_cache")

    def __init__(self, N: int, nodes: np.ndarray, weights: np.ndarray) -> None:
        if not (np.array_equal(nodes, -nodes[::-1]) and np.array_equal(weights, weights[::-1])):
            raise ValueError("quadrature rule must be exactly symmetric about t = 0")
        nodes.setflags(write=False)
        weights.setflags(write=False)
        self._set(N=N, nodes=nodes, weights=weights, _basis_cache={})

    @property
    def M(self) -> int:
        return self.nodes.size

    def basis(self, K: int) -> np.ndarray:
        """Matrix e_k(t_i), shape (K+1, M), cached: every evaluation's check of 0 <= K < M."""
        E = self._basis_cache.get(K)
        if E is None:
            _check_degree(K)
            if K >= self.M:
                raise ValueError(f"M={self.M} nodes cannot resolve degree K={K} (need M >= K+1)")
            E = _basis_matrix(self.N, K, self.nodes)
            E.setflags(write=False)
            self._basis_cache[K] = E
        return E

    def _check_dimension(self, N: int) -> None:
        if N != self.N:
            raise ValueError(f"rule dimension {self.N} != params dimension {N}")


@cache
def _dstedc():
    """numpy's own LAPACK `dstedc` as (ctypes function, integer type), or None.

    Spelled as numpy's `dsyevd` is in the same library: `scipy_dsyevd_64_`
    in the scipy-openblas wheels, where `_64_` means 64-bit integers and
    a plain `_` 32-bit ones.  None when no spelling resolves (numpy built
    against another LAPACK); `gauss_jacobi_rule` then falls back to
    `np.linalg.eigh`.
    """
    import ctypes

    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    except (AttributeError, OSError):
        return None
    for prefix in ("scipy_", ""):
        for suffix, c_int in (("_64_", ctypes.c_int64), ("_", ctypes.c_int32)):
            if hasattr(lib, f"{prefix}dsyevd{suffix}"):
                fn = getattr(lib, f"{prefix}dstedc{suffix}", None)
                if fn is None:
                    return None
                p_int, ptr = ctypes.POINTER(c_int), ctypes.c_void_p
                # COMPZ, N, D, E, Z, LDZ, WORK, LWORK, IWORK, LIWORK, INFO, len(COMPZ)
                fn.argtypes = [ctypes.c_char_p, p_int, ptr, ptr, ptr, p_int,
                               ptr, p_int, ptr, p_int, p_int, ctypes.c_size_t]
                fn.restype = None
                return fn, c_int
    return None


def _first_components(off: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Ascending eigenvalues of the symmetric tridiagonal matrix with zero
    # diagonal and subdiagonal `off`, and the first component of each
    # eigenvector; the eigenvector matrix is dropped on return.
    M = off.size + 1
    solver = _dstedc()
    if solver is None:
        nodes, vecs = np.linalg.eigh(np.diag(off, -1))  # reads the lower triangle
        return nodes, vecs[0, :].copy()
    fn, c_int = solver
    nodes, e = np.zeros(M), off.copy()
    # Z is column-major M x M: row j of this C-order array is eigenvector j.
    z = np.empty((M, M))
    work = np.empty(1 + 4 * M + M * M)
    iwork = np.empty(3 + 5 * M, dtype=c_int)
    n, lwork, liwork, info = c_int(M), c_int(work.size), c_int(iwork.size), c_int()
    fn(b"I", n, nodes.ctypes.data, e.ctypes.data, z.ctypes.data, n,
       work.ctypes.data, lwork, iwork.ctypes.data, liwork, info, 1)
    if info.value != 0:
        raise np.linalg.LinAlgError(f"LAPACK dstedc failed with info = {info.value}")
    return nodes, z[:, 0].copy()


@lru_cache(maxsize=None)
def gauss_jacobi_rule(N: int, M: int) -> QuadratureRule:
    """M-point Gauss rule for the weight |S^(N-1)| (1-t^2)^((N-2)/2) on (-1, 1).

    Golub-Welsch: eigenvalues of the symmetric tridiagonal recurrence
    matrix are the nodes, squared first eigenvector components (scaled by
    the total measure |S^N|) the weights.  Exact for polynomial integrands
    of degree <= 2M - 1.

    The tridiagonal matrix goes straight to LAPACK `dstedc`
    (divide and conquer, COMPZ='I'), reached through ctypes in the LAPACK
    that numpy itself links, so numpy stays the only dependency.  The
    bits are those of `np.linalg.eigh` on the dense matrix: its `dsyevd`
    is `dsytrd`, then `dstedc`, then `dormtr`, and on a matrix that is
    already tridiagonal every Householder `tau` is 0, so the reduction
    and the back-transform are exact identities.  They are also the
    bits of `scipy.linalg.eigh_tridiagonal`, whose `dstevd` runs the same
    `dstedc`.  When numpy's LAPACK exports no `dstedc` under the
    spelling of its `dsyevd`, the dense `eigh` is used instead.

    The direct call needs about 2 M^2 doubles at its peak (Z and the
    workspace; the dense solve needs about 5 M^2) and skips the two
    O(M^3) identity steps.  On one Xeon core it is about 4x faster at
    M = 770-1026 (30 ms against 115 ms at M = 770) and 5x at M = 2050
    (0.3 s and a 97 MB process peak against 1.7 s and 194 MB).
    """
    if N < 1:
        raise ValueError(f"dimension N must be >= 1, got {N}")
    if M < 2:
        raise ValueError(f"rule size M must be >= 2, got {M}")
    off = np.sqrt([_recurrence_sq(N, n) for n in range(1, M)])
    nodes, first = _first_components(off)
    weights = _sphere_area(N) * first ** 2
    # eigenvalues come sorted; enforce exact reflection symmetry
    nodes = 0.5 * (nodes - nodes[::-1])
    weights = 0.5 * (weights + weights[::-1])
    return QuadratureRule(N, nodes, weights)


def _check_degree(K: int) -> None:
    if K < 0:
        raise ValueError(f"truncation degree K must be >= 0, got {K}")


def default_rule(N: int, K: int) -> QuadratureRule:
    """Rule with the default node count M = 2K + 2 for truncation degree K >= 0."""
    _check_degree(K)
    return gauss_jacobi_rule(N, 2 * K + 2)


def _basis_matrix(N: int, K: int, t: np.ndarray) -> np.ndarray:
    # Orthonormal recurrence b_{k+1} e_{k+1} = t e_k - b_k e_{k-1};
    # coefficients are O(1/2), so the forward pass is stable for any K.
    t = np.asarray(t, dtype=float)
    out = np.empty((K + 1,) + t.shape)
    out[0] = 1.0 / math.sqrt(_sphere_area(N))
    if K >= 1:
        b_k = math.sqrt(_recurrence_sq(N, 1))
        out[1] = t * out[0] / b_k
        for k in range(1, K):
            b_next = math.sqrt(_recurrence_sq(N, k + 1))
            out[k + 1] = (t * out[k] - b_k * out[k - 1]) / b_next
            b_k = b_next
    return out


@lru_cache(maxsize=None)
def lambdas(params: SobolevParams, K: int) -> np.ndarray:
    """Eigenvalues lambda_0 .. lambda_K as a read-only vector, cached."""
    lam = np.array([eigenvalue(params, k) for k in range(K + 1)])
    lam.setflags(write=False)
    return lam


class ZonalFunction(Frozen):
    """Coefficients a_0..a_K in the orthonormal zonal basis, plus (N, s).

    Parseval: the L^2(S^N) norm is sqrt(sum a_k^2); the conformal-operator
    norm is ||u||_*^2 = sum lambda_k(s) a_k^2.  Immutable (the coefficients
    are a read-only copy, checked finite) and equal only to itself.  A lone
    function is a block of one row; a scan builds a family's members as
    the rows of one block (`_members`).
    """

    __slots__ = ("params", "coeffs")

    def __init__(self, params: SobolevParams, coeffs) -> None:
        arr = np.asarray(coeffs, dtype=float)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("coeffs must be a non-empty 1-D array")
        self._set(params=params, coeffs=_block(arr[None])[0])  # a block of one

    @property
    def K(self) -> int:
        return self.coeffs.size - 1

    def _binary(self, other: "ZonalFunction", sign: float) -> "ZonalFunction":
        if self.params != other.params:
            raise ValueError("operands have different (N, s) parameters")
        n = max(self.coeffs.size, other.coeffs.size)
        a = np.zeros(n)
        a[: self.coeffs.size] = self.coeffs
        a[: other.coeffs.size] += sign * other.coeffs
        return ZonalFunction(self.params, a)

    def __add__(self, other: "ZonalFunction") -> "ZonalFunction":
        return self._binary(other, 1.0)

    def __sub__(self, other: "ZonalFunction") -> "ZonalFunction":
        return self._binary(other, -1.0)

    def __mul__(self, scalar: float) -> "ZonalFunction":
        return ZonalFunction(self.params, self.coeffs * float(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "ZonalFunction":
        return self * -1.0


def _block(rows) -> np.ndarray:
    # A read-only copy of a 2-D block of coefficient rows, refused unless every
    # entry is finite: the one check of every member's coefficients
    block = np.array(rows, dtype=float)
    if not np.isfinite(block).all():
        raise ValueError("coefficients must be finite")
    block.setflags(write=False)
    return block


def _members(params: SobolevParams, rows) -> list[ZonalFunction]:
    # One member per row of a 2-D block, each equal to ZonalFunction(params,
    # row) bit for bit: the rows are views of one checked, read-only copy, so
    # the block costs one copy and one check, not one per member (slots set by descriptor)
    set_params, set_coeffs = ZonalFunction.params.__set__, ZonalFunction.coeffs.__set__
    members = []
    for row in _block(rows):
        u = object.__new__(ZonalFunction)
        set_params(u, params)
        set_coeffs(u, row)
        members.append(u)
    return members


def constant(params: SobolevParams, value: float, K: int) -> ZonalFunction:
    """The constant function `value` on S^N as a degree-K coefficient vector."""
    a = np.zeros(K + 1)
    a[0] = value * math.sqrt(_sphere_area(params.N))
    return ZonalFunction(params, a)


def basis_function(params: SobolevParams, k: int, K: int) -> ZonalFunction:
    """e_k as a ZonalFunction of truncation degree K >= k."""
    if k > K:
        raise ValueError(f"basis degree {k} exceeds truncation {K}")
    a = np.zeros(K + 1)
    a[k] = 1.0
    return ZonalFunction(params, a)


def analyze(params: SobolevParams, samples, rule: QuadratureRule, K: int) -> ZonalFunction:
    """Project node samples onto e_0..e_K: a_k = sum_i w_i f(t_i) e_k(t_i).

    Exact for zonal polynomials of degree <= K whenever M >= K + 1; fewer
    nodes than that (aliasing) and a K below 0 are refused by `rule.basis`.

    The even coefficients come from the full, unfolded product.  The odd
    ones are folded over the exact reflection symmetry of the rule: since
    e_k(-t) = -e_k(t) for odd k, a_k = sum_{i<M/2} w_i e_k(t_i) (f(t_i) -
    f(-t_i)), and a middle node (odd M) sits at t = 0 where e_k vanishes.
    So the odd coefficients of exactly even samples are exactly zero,
    whatever the BLAS summation order.
    """
    rule._check_dimension(params.N)
    E = rule.basis(K)
    vals = np.asarray(samples, dtype=float)
    if vals.shape != (rule.M,):
        raise ValueError(f"expected {rule.M} samples, got shape {vals.shape}")
    if not np.all(np.isfinite(vals)):
        raise ValueError("samples must be finite")
    wv = rule.weights * vals
    h = rule.M // 2
    coeffs = E @ wv
    coeffs[1::2] = E[1::2, :h] @ (wv[:h] - wv[::-1][:h])
    return ZonalFunction(params, coeffs)


def node_values(u: ZonalFunction, rule: QuadratureRule) -> np.ndarray:
    """Values of u at the rule's nodes (cached basis fast path)."""
    rule._check_dimension(u.params.N)
    return u.coeffs.dot(rule.basis(u.K))


class _Stack(tuple):
    # (members, unit-scale rows, exponents) of a batch, as `_stacked` returns
    # it; `star` is the rows' unit-scale ||.||_*, computed once per stack
    @cached_property
    def star(self) -> np.ndarray:
        return _star(self[1], lambdas(self[0][0].params, self[0][0].K))


def _stacked(u) -> _Stack:
    # One member or a list that shares K and (N, s): the members, their
    # coefficient rows divided by the powers of two 2^e that bring each largest
    # |a_k| into [0.5, 1) (e = 0 for the zero function), and e.  The one place
    # a member's scale is decided: u and 2^k u give the same rows, bit for bit.
    # A _Stack is returned as it is, so that the norms and the distance search
    # of one batch share one stack.
    if isinstance(u, _Stack):
        return u
    members = [u] if isinstance(u, ZonalFunction) else list(u)
    if not members:
        raise ValueError("a batch needs at least one member")
    if len({v.params for v in members}) > 1 or len({v.coeffs.size for v in members}) > 1:
        raise ValueError("a batch of members must share K and (N, s)")
    A = np.array([v.coeffs for v in members])
    e = np.frexp(np.abs(A).max(axis=1))[1]
    return _Stack((members, np.ldexp(A, -e[:, None]), e))


def _unscaled(x, e) -> list[float] | float:
    # x * 2^e as Python floats, exact within the doubles; past them inf or
    # a rounded subnormal, as a product would give, and no numpy warning
    with np.errstate(over="ignore"):
        return np.ldexp(x, e).tolist()


def _star(B: np.ndarray, lam: np.ndarray) -> np.ndarray:
    # sqrt(lam @ (b * b)) of each row b, one dot per row as in a lone call
    return np.sqrt(np.matmul(lam, (B * B)[:, :, None])[:, 0])


def norm_star(u: ZonalFunction | list[ZonalFunction]):
    """Spectral norm sqrt(sum lambda_k a_k^2) of the conformal quadratic form.

    Evaluated at the unit scale of the member (see `_stacked`) and scaled
    back exactly.  A list of members that share K and (N, s) gives a list
    of the norms, each its lone call's bit for bit.
    """
    stack = _stacked(u)
    norms = _unscaled(stack.star, stack[2])
    return norms[0] if isinstance(u, ZonalFunction) else norms


def inner_star(u: ZonalFunction, v: ZonalFunction) -> float:
    """Spectral inner product sum lambda_k a_k b_k; the polarization of norm_star."""
    if u.params != v.params:
        raise ValueError("operands have different (N, s) parameters")
    n = min(u.coeffs.size, v.coeffs.size)
    lam = lambdas(u.params, n - 1)
    return float(lam @ (u.coeffs[:n] * v.coeffs[:n]))


def norm_lp(u: ZonalFunction | list[ZonalFunction], p: float, rule: QuadratureRule):
    """L^p(S^N) norm by quadrature of |u|^p at the rule nodes; 1 <= p < inf.

    With x_i = w_i^(1/p) |u(t_i)| at the unit scale of the member (see
    `_stacked`) and m = max x_i, the norm is m (sum (x_i / m)^p)^(1/p),
    scaled back exactly.  The sum lies in [1, M], so no N or p makes it
    underflow or overflow; the zero function has norm 0.0.  A list gives
    a list, as for `norm_star`.  The last power is taken per member, as a
    scalar: numpy's array power rounds some norms otherwise.
    """
    if not 1.0 <= p < math.inf:
        raise ValueError(f"norm_lp requires 1 <= p < inf, got {p}")
    members, B, e = _stacked(u)
    rule._check_dimension(members[0].params.N)
    values = np.abs(np.matmul(B[:, None, :], rule.basis(members[0].K)))[:, 0]
    x = rule.weights ** (1.0 / p) * values
    m = x.max(axis=1, keepdims=True)
    m[m == 0.0] = 1.0  # the zero function: every term is 0.0
    sums = ((x / m) ** p).sum(axis=1).tolist()
    norms = _unscaled([top * s ** (1.0 / p) for top, s in zip(m[:, 0].tolist(), sums)], e)
    return norms[0] if isinstance(u, ZonalFunction) else norms

"""Numerics for the sharp fractional Sobolev inequality and its stability.

Subpackages by concern: closed-form constants (specfun), zonal spectral
calculus on the sphere (zonal), stereographic transport and the
extremizer family (conformal), deficit/distance/stability scans
(deficit), weak-norm remainder constants (weaknorm), and the command
line front end (cli).

The names below are loaded on first use, so importing the package loads
no numpy: `python -m sobstab.cli` must set its BLAS defaults before
numpy starts its BLAS (see `sobstab.__main__`).
"""

import importlib

_EXPORTS = {
    "specfun": (
        "SobolevParams",
        "eigenvalue",
        "lambda1_identity_residual",
        "local_constant",
        "log_gamma",
        "multiplicity",
        "sharp_constant",
        "sphere_area",
    ),
    "zonal": (
        "QuadratureRule",
        "ZonalFunction",
        "analyze",
        "basis_eval",
        "basis_function",
        "constant",
        "default_rule",
        "gauss_jacobi_rule",
        "inner_star",
        "norm_lp",
        "norm_star",
        "synthesize",
    ),
    "conformal": (
        "ManifoldPoint",
        "RadialFunction",
        "conformal_shift",
        "manifold_zonal",
        "parse_profile",
        "pullback_to_sphere",
        "stereo_radius",
    ),
    "deficit": (
        "DeficitReport",
        "OnManifoldError",
        "OptConfig",
        "ScanConfig",
        "deficit",
        "distance",
        "estimate_alpha",
        "gradient_form",
        "hessian_form",
        "run_scan",
        "stability_ratio",
    ),
    "weaknorm": (
        "TruncationError",
        "WeakNormConstants",
        "compute_constants",
        "extremizer_tail_lq",
        "extremizer_weak_norm",
        "verify_theorem2",
        "weak_norm",
    ),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "cli")

__all__ = sorted(_ORIGIN)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_ORIGIN[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})

"""Numerics for the sharp fractional Sobolev inequality and its stability.

Subpackages by concern: closed-form constants, the weak-norm remainder
constants among them (specfun), zonal spectral calculus on the sphere
(zonal), stereographic transport and the extremizer family (conformal),
deficit/distance/stability scans (deficit), weak norms and the
remainder-bound harness (weaknorm), and the command line front end
(cli).

A package name is the first of that name in the `__all__` of specfun,
zonal, conformal, deficit and weaknorm; a submodule name is the module
(`sobstab.deficit.deficit` is the function).  Names load on first use, so
importing the package loads no numpy: `python -m sobstab.cli` must set its
BLAS defaults before numpy starts its BLAS (see `sobstab.__main__`).
"""

import importlib

_MODULES = ("specfun", "zonal", "conformal", "deficit", "weaknorm")
_SUBMODULES = (*_MODULES, "cli")

__version__ = "0.1.0"


def _modules():
    # lazily, so that a name's lookup imports no module listed after its own
    return (importlib.import_module(f".{name}", __name__) for name in _MODULES)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name == "__all__":
        value = sorted({n for module in _modules() for n in module.__all__} - {*_SUBMODULES})
    else:
        # a dunder probe (copy, pickle, inspect) imports nothing
        owners = () if name.startswith("__") else _modules()
        module = next((module for module in owners if name in module.__all__), None)
        if module is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_SUBMODULES, *__getattr__("__all__")})

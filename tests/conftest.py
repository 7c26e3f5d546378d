import os
from pathlib import Path

import numpy as np
import pytest

from sobstab import SobolevParams, ZonalFunction, constant, default_rule

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

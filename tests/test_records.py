"""The contracts of the package's value and record types.

Records are NamedTuples; array holders are immutable __slots__ classes
equal only to themselves; SobolevParams, ManifoldPoint and ScanConfig
are NamedTuples that validate on construction.
"""

import copy
import math
import pickle

import numpy as np
import pytest

from sobstab.conformal import ManifoldPoint, RadialFunction, gaussian_profile
from sobstab.deficit import DeficitReport, ScanConfig, ScanResult, stability_ratio
from sobstab.specfun import SobolevParams, WeakNormConstants, compute_constants
from sobstab.weaknorm import Theorem2Case
from sobstab.zonal import (QuadratureRule, ZonalFunction, constant, gauss_jacobi_rule, lambdas,
                           norm_lp)

from conftest import P32


def instances():
    """One instance of every value and record type, and a field of each."""
    rule = gauss_jacobi_rule(3, 8)
    u = constant(P32, 1.0, 3)
    report = stability_ratio(u + 0.1 * ZonalFunction(P32, [0, 0, 1.0, 0]), rule)
    return {
        SobolevParams: (P32, "s"),
        ManifoldPoint: (ManifoldPoint(1.0, 0.5), "t0"),
        ZonalFunction: (u, "coeffs"),
        QuadratureRule: (rule, "nodes"),
        RadialFunction: (gaussian_profile(P32), "support_radius"),
        ScanConfig: (ScanConfig(seed=1), "K"),
        DeficitReport: (report, "ratio"),
        ScanResult: (ScanResult([], 0.5, 0.5, 1, 0, 1, False), "alpha_hat"),
        Theorem2Case: (Theorem2Case("p", 1.0, 0.5, 0.5, 1.0, 1.0, 2.0, 1.0), "lhs"),
        WeakNormConstants: (compute_constants(P32), "rho"),
    }


@pytest.mark.parametrize("cls", list(instances()), ids=lambda cls: cls.__name__)
def test_attribute_assignment_is_refused(cls):
    obj, field = instances()[cls]
    assert type(obj) is cls
    before = getattr(obj, field)
    for name in (field, "extra"):
        with pytest.raises(AttributeError):
            setattr(obj, name, 1.0)
    with pytest.raises(AttributeError):
        delattr(obj, field)
    assert getattr(obj, field) is before


class TestSobolevParams:
    def test_equal_by_value_and_hashable(self):
        a, b = SobolevParams(3, 2), SobolevParams(3, 2.0)
        assert a == b and hash(a) == hash(b) and a is not b
        assert a != SobolevParams(3, 1.0)
        assert type(a.s) is float
        assert repr(a) == "SobolevParams(N=3, s=2.0)"

    def test_separately_built_params_share_one_cache_entry(self):
        before = lambdas.cache_info()
        first = lambdas(SobolevParams(7, 1.25), 11)
        second = lambdas(SobolevParams(7, 1.25), 11)
        assert second is first
        after = lambdas.cache_info()
        assert (after.misses - before.misses, after.hits - before.hits) == (1, 1)

    def test_replace_and_pickle_check_as_construction_does(self):
        replaced = P32._replace(s=1)
        assert replaced == SobolevParams(3, 1.0) and type(replaced.s) is float
        for fields in ({"s": 5.0}, {"N": 0}):
            with pytest.raises(ValueError):
                P32._replace(**fields)
        assert pickle.loads(pickle.dumps(P32)) == P32 and copy.copy(P32) == P32
        assert ManifoldPoint(1.0, 0.5)._replace(t0=-0.5) == ManifoldPoint(1.0, -0.5)
        for fields in ({"t0": 2.0}, {"c": 0.0}):
            with pytest.raises(ValueError):
                ManifoldPoint(1.0, 0.5)._replace(**fields)

    @pytest.mark.parametrize("N, s", [(0, 0.5), (2.0, 1.0), (3, 0.0), (3, 3.0), (3, -1.0),
                                      (3, math.nan)])
    def test_invalid_pairs_are_refused(self, N, s):
        with pytest.raises(ValueError):
            SobolevParams(N, s)


class TestArrayHolders:
    def test_equal_only_to_themselves(self):
        u = constant(P32, 1.0, 3)
        twin = ZonalFunction(P32, u.coeffs)
        assert u == u and u != twin and hash(u) != hash(twin)
        rule = gauss_jacobi_rule(3, 8)
        twin_rule = QuadratureRule(3, rule.nodes.copy(), rule.weights.copy())
        assert rule == rule and rule != twin_rule

    def test_arithmetic_is_the_functions_not_the_tuples(self):
        u = ZonalFunction(P32, [1.0, 2.0])
        for value, coeffs in ((u + u, [2.0, 4.0]), (u - u, [0.0, 0.0]), (u * 3, [3.0, 6.0]),
                              (3 * u, [3.0, 6.0]), (-u, [-1.0, -2.0])):
            assert type(value) is ZonalFunction
            assert value.coeffs.tolist() == coeffs
        rule = gauss_jacobi_rule(3, 8)
        for op in (lambda: rule + rule, lambda: rule * 2, lambda: len(rule), lambda: iter(rule),
                   lambda: u * u, lambda: len(u)):
            with pytest.raises(TypeError):
                op()

    def test_arrays_are_read_only(self):
        u = ZonalFunction(P32, [1.0, 2.0])
        rule = gauss_jacobi_rule(3, 8)
        for array in (u.coeffs, rule.nodes, rule.weights):
            with pytest.raises(ValueError):
                array[0] = 0.0

    @pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                       lambda obj: pickle.loads(pickle.dumps(obj))],
                             ids=["copy", "deepcopy", "pickle"])
    def test_copies_are_checked_new_instances(self, clone):
        u = ZonalFunction(P32, [1.0, 0.0, 0.5])
        rule = gauss_jacobi_rule(3, 8)
        u2, rule2 = clone(u), clone(rule)
        assert type(u2) is ZonalFunction and u2 != u and u2.params == u.params
        assert type(rule2) is QuadratureRule and rule2 != rule and rule2.N == 3
        for got, want in ((u2.coeffs, u.coeffs), (rule2.nodes, rule.nodes),
                          (rule2.weights, rule.weights)):
            assert got.tobytes() == want.tobytes() and not got.flags.writeable
        assert norm_lp(u2, P32.q, rule2) == norm_lp(u, P32.q, rule)

    def test_repr_names_the_fields(self):
        assert repr(ZonalFunction(P32, [1.0])) == (
            "ZonalFunction(params=SobolevParams(N=3, s=2.0), coeffs=array([1.]))")
        assert repr(ManifoldPoint(2.0, -0.5)) == "ManifoldPoint(c=2.0, t0=-0.5)"

    def test_radial_function_validates(self):
        with pytest.raises(ValueError, match="support_radius must be positive"):
            RadialFunction(P32, np.exp, support_radius=0.0)
        assert RadialFunction(P32, np.exp).support_radius == math.inf


class TestScanConfig:
    @pytest.mark.parametrize("fields, message", [
        ({"K": 1}, "truncation degree K must be >= 2"),
        ({"M": 64}, "M=64 nodes cannot resolve degree K=64"),
        ({"n_normal": -1}, "family sizes must be nonnegative"),
        ({"n_random": -1}, "family sizes must be nonnegative"),
        ({"eps_grid": (0.1, 0.0)}, "epsilon grid entries must be positive and finite"),
        ({"eps_grid": (math.inf,)}, "epsilon grid entries must be positive and finite"),
        ({"normal_modes": (1,)}, "normal modes start at degree 2"),
        ({"bubble_t0": (1.0,)}, "bubble separations must lie in"),
        ({"normal_modes": (2, 3, 2)}, "normal mode 2 is listed twice"),
        ({"eps_grid": (0.01, 0.0100000001)}, "epsilon grid entries share the member label"),
        ({"bubble_t0": (0.5, 0.50000001)}, "bubble separations share the member label"),
        ({"random_max_degree": -1}, "random_max_degree must be >= 0"),
        ({"random_max_degree": 1, "normal_modes": ()}, "random normal-space members need"),
        ({"random_max_degree": 0, "normal_modes": (), "n_normal": 0},
         "random members need random_max_degree >= 1"),
        ({"n_normal": 0, "n_random": 0, "eps_grid": (), "bubble_t0": ()},
         "scan configuration selects zero members"),
        ({"normal_modes": (17,)}, "normal_modes exceed the random_max_degree/K window"),
        ({"seed": -1}, "seed must be >= 0"),
    ])
    def test_every_invalid_config_is_refused(self, fields, message):
        with pytest.raises(ValueError, match=message):
            ScanConfig(**{"seed": 1, **fields})

    def test_replace_checks_as_construction_does(self):
        cfg = ScanConfig(seed=1)
        assert cfg._replace(K=32) == ScanConfig(seed=1, K=32)
        for fields, message in (({"K": 1}, "truncation degree K must be >= 2"),
                                ({"seed": -1}, "seed must be >= 0")):
            with pytest.raises(ValueError, match=message):
                cfg._replace(**fields)

    def test_equal_by_value(self):
        a, b = ScanConfig(seed=1, K=16, eps_grid=(0.5,)), ScanConfig(1, 16, eps_grid=(0.5,))
        assert a == b and hash(a) == hash(b)
        assert a != ScanConfig(seed=2, K=16, eps_grid=(0.5,))
        assert a._fields[:3] == ("seed", "K", "M")


def test_records_keep_their_key_order():
    assert list(compute_constants(P32)._asdict()) == ["rho", "r0", "extremizer_weak", "C1",
                                                      "C2", "C0", "C"]
    assert DeficitReport._fields == ("norm_star_sq", "lq_norm", "deficit", "distance",
                                     "nearest", "ratio", "boundary_hit")

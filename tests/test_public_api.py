"""Names that code outside the package relies on.

The benchmark's traced run (bench/spans.py) patches the leaf methods below
in their class dicts, and reads the listed parameters off each traced call
and the listed attributes off its result, by name, so a rename here breaks
`bench/run.py --trace 1`.
"""

import importlib
import inspect

import pytest

import rhofix

LEAF_METHODS = [
    ("rhofix.modular", "ModularSpec", "evaluate"),
    ("rhofix.modular", "ModularSpec", "evaluate_batch"),
    ("rhofix.modular", "NamedFunctional", "evaluate"),
    ("rhofix.solver", "MapSpec", "apply"),
    ("rhofix.checks", "PointSampler", "points"),
]

TRACED_PARAMETERS = [
    ("rhofix.checks", "check_modular_axioms", "trials"),
    ("rhofix.checks", "check_s_convexity", "trials"),
    ("rhofix.checks", "delta2_type_estimate", "trials"),
    ("rhofix.solver", "verify_contraction", "trials"),
    ("rhofix.solver", "picard_solve", "x0"),
    ("rhofix.solver", "solve_via_power", "x0"),
    ("rhofix.chain", "build_chain", "N"),
    ("rhofix.chain", "verify_order_pairs", "cert"),
    ("rhofix.output", "write_trace", "path"),
    ("rhofix.output", "write_certificate", "path"),
    ("rhofix.output", "write_json", "path"),
]


# attributes bench/spans.py reads off a returned trace or certificate
RESULT_ATTRIBUTES = [
    ("rhofix.solver", "IterationTrace", "iterations"),
    ("rhofix.solver", "IterationTrace", "power"),
    ("rhofix.chain", "ChainCertificate", "length"),
]


def test_every_exported_name_imports():
    missing = [name for name in rhofix.__all__ if not hasattr(rhofix, name)]
    assert missing == []
    assert len(set(rhofix.__all__)) == len(rhofix.__all__)


@pytest.mark.parametrize("module,cls,method", LEAF_METHODS)
def test_leaf_method_in_class_dict(module, cls, method):
    owner = getattr(importlib.import_module(module), cls)
    assert inspect.isfunction(owner.__dict__.get(method))


@pytest.mark.parametrize("module,func,param", TRACED_PARAMETERS)
def test_traced_parameter_name(module, func, param):
    fn = getattr(importlib.import_module(module), func)
    assert inspect.isfunction(fn) and fn.__module__ == module
    assert param in inspect.signature(fn).parameters


@pytest.mark.parametrize("module,cls,attr", RESULT_ATTRIBUTES)
def test_result_attribute_is_an_int(module, cls, attr):
    m, T = rhofix.ModularSpec.p_power(1.0, 1), rhofix.MapSpec.half()
    result = {"IterationTrace": lambda: rhofix.picard_solve(T, m, [1.0], 1e-3, 100),
              "ChainCertificate": lambda: rhofix.build_chain(m, T, [1.0], 0.5, None, 5)}[cls]()
    assert type(result) is getattr(importlib.import_module(module), cls)
    assert type(getattr(result, attr)) is int

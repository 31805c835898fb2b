"""Modular evaluation, the F-norm bisection, and their basic properties."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rhofix import (
    BracketSearchError,
    DimensionMismatch,
    ModularSpec,
    NamedFunctional,
    Phi,
    as_point,
    f_norm,
)

FAMILIES = [
    ModularSpec.p_power(0.5, 3),
    ModularSpec.p_power(1.0, 3),
    ModularSpec.p_power(2.0, 3),
    ModularSpec.weighted_sum(2.0, [0.5, 1.5, 3.0]),
    ModularSpec.orlicz(Phi.POWER, 3, p=2.0),
    ModularSpec.orlicz(Phi.EXP_MINUS_ONE, 3),
    ModularSpec.orlicz(Phi.U_LOG, 3),
]

# coordinates are exact zeros or have magnitude >= 1e-6: below ~1e-161 the
# p = 2 power sum underflows to 0 and the zero-iff identity is unobservable
# in doubles
_coord = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-6, max_value=100.0),
    st.floats(min_value=-100.0, max_value=-1e-6),
)
coords3 = st.lists(_coord, min_size=3, max_size=3)


def test_eval_examples():
    assert ModularSpec.p_power(1.0, 3).evaluate([0.0, 0.0, 0.0]) == 0.0
    assert ModularSpec.p_power(2.0, 2).evaluate([3.0, 4.0]) == 25.0
    assert ModularSpec.orlicz(Phi.EXP_MINUS_ONE, 2).evaluate([0.0, 0.0]) == 0.0
    assert ModularSpec.weighted_sum(1.0, [2.0, 1.0]).evaluate([1.0, -3.0]) == 5.0


def test_eval_orlicz_midpoint_prefactor():
    # constant sample f = 1 integrates phi(1) regardless of the grid
    for n in (1, 4, 16):
        m = ModularSpec.orlicz(Phi.POWER, n, p=2.0)
        assert m.evaluate(np.ones(n)) == pytest.approx(1.0)


def test_eval_overflow_propagates_to_inf():
    m = ModularSpec.p_power(2.0, 1)
    assert m.evaluate([1e200]) == math.inf
    mo = ModularSpec.orlicz(Phi.EXP_MINUS_ONE, 1)
    assert mo.evaluate([1e4]) == math.inf


def test_eval_dimension_mismatch():
    m = ModularSpec.p_power(1.0, 2)
    with pytest.raises(DimensionMismatch):
        m.evaluate([1.0, 2.0, 3.0])


def test_eval_batch_matches_scalar():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(50, 3))
    named = NamedFunctional("l1", lambda a: np.sum(np.abs(a), axis=-1), dim=3)
    for m in FAMILIES + [named]:
        batch = m.evaluate_batch(X)
        rows = np.array([m.evaluate(x) for x in X])
        assert np.array_equal(batch, rows)


def test_spec_validation():
    with pytest.raises(ValueError):
        ModularSpec.p_power(0.0, 2)
    with pytest.raises(ValueError):
        ModularSpec.weighted_sum(1.0, [1.0, 0.0])  # zero weight kills axiom 1
    with pytest.raises(ValueError):
        ModularSpec.orlicz(Phi.POWER, 2)  # missing exponent
    with pytest.raises(ValueError):
        ModularSpec.orlicz(Phi.U_LOG, 0)


def test_as_point_rejects_non_finite_and_empty():
    with pytest.raises(ValueError):
        as_point([1.0, math.nan])
    with pytest.raises(ValueError):
        as_point([math.inf])
    with pytest.raises(ValueError):
        as_point([])
    with pytest.raises(DimensionMismatch):
        as_point([1.0, 2.0], dim=3)
    assert as_point(2.5).shape == (1,)


@given(coords3)
def test_nonnegative_and_zero_iff(coords):
    x = np.array(coords)
    for m in FAMILIES:
        r = m.evaluate(x)
        assert r >= 0.0
        if np.any(x != 0.0):
            assert r > 0.0
        else:
            assert r == 0.0


@given(coords3)
def test_symmetry_bit_exact(coords):
    x = np.array(coords)
    for m in FAMILIES:
        assert m.evaluate(x) == m.evaluate(-x)


@given(coords3, st.floats(min_value=0.0, max_value=1.0))
def test_scaling_monotonicity(coords, a):
    # axiom 3 with y = 0 forces rho(a x) <= rho(x) for a in [0, 1]
    x = np.array(coords)
    for m in FAMILIES:
        assert m.evaluate(a * x) <= m.evaluate(x) * (1.0 + 1e-12) + 1e-300


@given(coords3)
def test_ppower_exact_doubling(coords):
    x = np.array(coords)
    for p in (0.5, 1.0, 2.0):
        m = ModularSpec.p_power(p, 3)
        lhs = m.evaluate(2.0 * x)
        rhs = 2.0**p * m.evaluate(x)
        assert abs(lhs - rhs) <= 4.0 * np.spacing(max(lhs, rhs, 1e-300))


# --- F-norm ----------------------------------------------------------------

def test_f_norm_zero_vector():
    for m in FAMILIES:
        assert f_norm(m, np.zeros(3)) == 0.0


def test_f_norm_dim1_examples():
    m = ModularSpec.p_power(1.0, 1)
    assert f_norm(m, [4.0], 1e-10) == pytest.approx(2.0, abs=1e-9)
    assert f_norm(m, [0.25], 1e-10) == pytest.approx(0.5, abs=1e-9)


@pytest.mark.parametrize("p", [0.5, 1.0, 2.0])
def test_f_norm_matches_closed_form(p):
    # dim-1 p-power: inf{t : |x|**p / t**p <= t} = |x|**(p/(p+1))
    m = ModularSpec.p_power(p, 1)
    for v in np.geomspace(1e-4, 1e4, 25):
        got = f_norm(m, [v], 1e-9)
        assert got == pytest.approx(v ** (p / (p + 1.0)), abs=1e-8)


@given(
    st.lists(st.floats(min_value=0.0, max_value=50.0), min_size=3, max_size=3),
    st.lists(st.floats(min_value=1.0, max_value=4.0), min_size=3, max_size=3),
)
@settings(max_examples=40)
def test_f_norm_monotone_under_magnitude_increase(base, factors):
    x = np.array(base)
    y = x * np.array(factors)
    for m in FAMILIES[:4]:
        assert f_norm(m, x, 1e-8) <= f_norm(m, y, 1e-8) + 2e-8


def test_f_norm_positive_iff_nonzero():
    m = ModularSpec.p_power(2.0, 2)
    assert f_norm(m, [0.0, 1e-3], 1e-10) > 0.0


def test_f_norm_no_bracket_raises():
    spike = NamedFunctional("spike", lambda a: np.where(np.any(a != 0.0, axis=-1), math.inf, 0.0),
                            dim=1)
    with pytest.raises(BracketSearchError):
        f_norm(spike, [1.0], 1e-8)


def test_f_norm_rejects_bad_tol():
    with pytest.raises(ValueError):
        f_norm(FAMILIES[0], np.ones(3), 0.0)

"""Each modular family's in-place formula against the allocating one it replaced.

`_reference` below writes out the earlier `ModularSpec.evaluate_batch`, one
new array per operation. `evaluate_batch`, which runs the formula on one new
array |X|, and `_evaluate_owned`, which overwrites the temporary it is
handed, must both give its float64 bits on every batch: nan payloads,
infinities, signed zeros, subnormals and values whose powers overflow.
`evaluate_batch` never writes its input. The allocation tests pin the
floor: a batch evaluation holds at most one batch-sized array, and a Picard
run its record plus a fixed number of block-sized arrays.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rhofix import MapSpec, ModularSpec, Phi, picard_solve
from rhofix.modular import INF, Family
from rhofix.solver import _BLOCK_MAX

NAN_PAYLOAD = float(np.array([0x7FF8_0000_0000_0123], dtype=np.int64).view(np.float64)[0])
SPECIAL = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, NAN_PAYLOAD, 5e-324, -2.5e-310,
                    2.2250738585072014e-308, 750.0, -1e155, 1e300, -1.7976931348623157e308])
EXPONENTS = (0.25, 0.5, 1.0, 2.0, 3.7, 1100.0)


def _reference(m: ModularSpec, X) -> np.ndarray:
    """The allocating formula: |X|, then each family's terms, then the sums."""
    U = np.abs(np.asarray(X, dtype=float))
    with np.errstate(over="ignore", invalid="ignore"):
        if m.family is Family.PPOWER:
            tot = np.sum(U**m.p, axis=1)
        elif m.family is Family.WEIGHTED_SUM:
            tot = np.sum(np.asarray(m.weights) * U**m.p, axis=1)
        elif m.phi is Phi.POWER:
            tot = np.sum(U**m.p, axis=1) / m.dim
        elif m.phi is Phi.EXP_MINUS_ONE:
            tot = np.sum(np.expm1(U), axis=1) / m.dim
        else:
            tot = np.sum(U * np.log1p(U), axis=1) / m.dim
    return np.where(np.isnan(tot), INF, tot)


def assert_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype == np.float64
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@st.composite
def modulars(draw, d):
    family = draw(st.sampled_from(["ppower", "weighted_sum", "power", "exp_minus_one", "u_log"]))
    p = draw(st.sampled_from(EXPONENTS))
    if family == "ppower":
        return ModularSpec.p_power(p, d)
    if family == "weighted_sum":
        weights = draw(st.lists(st.sampled_from([5e-324, 1e-300, 0.5, 1.0, 3.0, 1e300]),
                                min_size=d, max_size=d))
        return ModularSpec.weighted_sum(p, weights)
    if family == "power":
        return ModularSpec.orlicz(Phi.POWER, d, p)
    return ModularSpec.orlicz(Phi(family), d)


@given(data=st.data())
def test_both_entries_match_the_allocating_formula_bit_for_bit(data):
    d = data.draw(st.integers(1, 6), label="d")
    m = data.draw(modulars(d), label="m")
    n = data.draw(st.one_of(st.just(0), st.just(1), st.integers(2, 300)), label="n")
    share = data.draw(st.sampled_from([0.0, 0.05, 0.5, 1.0]), label="share")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    X = rng.uniform(-3.0, 3.0, (n, d)) * 10.0 ** rng.integers(-3, 4, (n, d))
    special = rng.random((n, d)) < share
    X[special] = SPECIAL[rng.integers(0, SPECIAL.size, int(special.sum()))]
    want, X_bits = _reference(m, X), X.copy()
    assert np.asarray(X, dtype=float) is X  # the case where the formula could reach X itself
    assert_bits(m.evaluate_batch(X), want)
    assert_bits(X, X_bits)  # evaluate_batch never writes its input
    assert_bits(m._evaluate_owned(X.copy()), want)


def _peak(fn) -> tuple[object, int]:
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("phi, arrays", [(Phi.POWER, 1), (Phi.EXP_MINUS_ONE, 1), (Phi.U_LOG, 2)],
                         ids=lambda v: getattr(v, "value", str(v)))
def test_batch_evaluation_holds_at_most_one_batch_array(phi, arrays):
    # evaluate_batch allocates |X| and the row sums; u log(1 + u) adds one
    # scratch array. The owned entry allocates no |X|. The allowance of 32
    # bytes a row covers the sums and the nan mask
    n, d = 10_000, 8
    X = np.random.default_rng(3).uniform(-2.0, 2.0, (n, d))
    m = ModularSpec.orlicz(phi, d, p=1.5 if phi is Phi.POWER else None)
    _, peak = _peak(lambda: m.evaluate_batch(X))
    assert peak <= arrays * X.nbytes + 32 * n
    A = X.copy()
    _, peak = _peak(lambda: m._evaluate_owned(A))
    assert peak <= (arrays - 1) * X.nbytes + 32 * n


def test_picard_run_holds_its_record_and_three_blocks():
    # at each block's modular call a run holds its record so far, the block
    # before (whose last row started this one), this block, and one scratch
    # array of the steps and doubled rows, two blocks long; the record then
    # still lacks this block's rows. The allocating formula held the steps,
    # their magnitudes and their images at once: about 3.4 blocks past the
    # final record here, against 2.4 in place
    d = 256
    m, T = ModularSpec.orlicz(Phi.EXP_MINUS_ONE, d), MapSpec.logistic_damped(0.995)
    x0 = np.random.default_rng(5).uniform(-1.0, 1.0, d)
    trace, peak = _peak(lambda: picard_solve(T, m, x0, 1e-10, 100_000))
    assert trace.converged and trace.iterations > 4 * _BLOCK_MAX
    record = sum(a.nbytes for a in (trace.X, trace.step_mod, trace.residual, trace.doubled_orbit))
    assert peak <= record + 3 * (_BLOCK_MAX + 1) * d * 8

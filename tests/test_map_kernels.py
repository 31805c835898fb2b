"""Each map kind's in-place kernel against the allocating formula it replaced.

`_formula` below writes out the earlier `MapSpec` arithmetic, one new array
per operation, with `_apply_power` and `_orbit` around it as they were. The
kernels behind `apply`, `apply_power` and `orbit` must give the same float64
bits on every input: nan payloads, infinities, signed zeros, subnormals and
affine products that overflow.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from rhofix import MapSpec
from rhofix.solver import MapKind

NAN_PAYLOAD = float(np.array([0x7FF8_0000_0000_0123], dtype=np.int64).view(np.float64)[0])
NEG_NAN_PAYLOAD = float(np.array([0xFFF8_0000_0000_0456], dtype=np.uint64).view(np.float64)[0])
SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, NAN_PAYLOAD, 5e-324, -2.5e-310,
           2.2250738585072014e-308, 1e300, -1e300, 1.7976931348623157e308]
ELEMENTS = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=True, allow_infinity=True))
FINITE = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 1e300, -1e300, 1e-300]),
                   st.floats(-1e3, 1e3), st.floats(allow_nan=False, allow_infinity=False))


def _formula(T):
    """Each kind's allocating formula, one new array per operation."""
    if T.kind is MapKind.AFFINE:
        A, b = T.matrix.T, T.offset
        return lambda x: x @ A + b
    if T.kind is MapKind.HALF:
        return lambda x: 0.5 * x
    if T.kind is MapKind.LOGISTIC_DAMPED:
        lam = T.lam
        return lambda x: lam * x / (1.0 + np.abs(x))
    value = T.value[0] if T.value.size == 1 else T.value
    return lambda x: np.broadcast_to(value, x.shape).astype(float)


def _apply_power(T, x, n):
    x, step = np.asarray(x, dtype=float), _formula(T)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(n):
            x = step(x)
    return x


def _orbit(T, x, steps, power):
    x, step = np.asarray(x, dtype=float), _formula(T)
    X = np.empty((steps + 1, x.size))
    X[0] = x
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(steps):
            y = X[n]
            for _ in range(power):
                y = step(y)
            X[n + 1] = y
    return X


def assert_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype == np.float64
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@st.composite
def maps(draw, d):
    kind = draw(st.sampled_from(list(MapKind)))
    if kind is MapKind.AFFINE:
        return MapSpec.affine(draw(arrays(np.float64, (d, d), elements=FINITE)),
                              draw(arrays(np.float64, d, elements=FINITE)))
    if kind is MapKind.HALF:
        return MapSpec.half()
    if kind is MapKind.LOGISTIC_DAMPED:
        return MapSpec.logistic_damped(draw(st.sampled_from([-0.0, 0.0, 0.5, 0.995, 1.0, 3.0, 1e300])))
    return MapSpec.const(draw(arrays(np.float64, draw(st.sampled_from([1, d])), elements=ELEMENTS)))


@given(data=st.data())
def test_kernels_match_the_allocating_formulas_bit_for_bit(data):
    d = data.draw(st.integers(1, 5), label="d")
    T = data.draw(maps(d), label="T")
    shapes = [(d,), (data.draw(st.integers(1, 4), label="n"), d)]
    if T.dim is None:
        shapes.append(())  # a 0-d point only where the map fixes no width
    x = data.draw(arrays(np.float64, data.draw(st.sampled_from(shapes)), elements=ELEMENTS), label="x")
    x_copy = x.copy()
    assert_bits(T.apply(x), _apply_power(T, x, 1))
    for n in range(4):
        assert_bits(T.apply_power(x, n), _apply_power(T, x, n))
        assert_bits(T.orbit(np.ravel(x)[:d] if x.ndim else x, 3, n),
                    _orbit(T, np.ravel(x)[:d] if x.ndim else x, 3, n))
    assert_bits(x, x_copy)  # the input is never written


def test_affine_map_at_d1_keeps_the_formulas_bits():
    # at d = 1 np.dot sums (-0.0) * 0.0 to -0.0, where matmul starts its sum
    # at +0.0, and a batch's np.dot skips a zero factor, so inf * 0 gave 0
    for a, b in ((0.0, -0.0), (0.0, 0.0), (-0.0, 1.5), (0.5, -0.0)):
        T = MapSpec.affine([[a]], [b])
        for x in (np.array([-0.0]), np.array([[-0.0], [0.0], [np.inf], [-np.inf], [np.nan]])):
            assert_bits(T.apply(x), _apply_power(T, x, 1))
            assert_bits(T.apply_power(x, 3), _apply_power(T, x, 3))
        for x0 in (-0.0, 0.0, np.inf, 2.0):
            assert_bits(T.orbit([x0], 3), _orbit(T, np.array([x0]), 3, 1))


def test_logistic_batch_apply_peaks_no_higher_than_the_formula():
    # the kernel writes the result in place and holds one scratch array of
    # the batch's shape, so it peaks at two batch arrays, as the formula's
    # temporaries did; the allowance covers the call's few Python objects
    x = np.random.default_rng(0).uniform(-3.0, 3.0, (768, 256))
    T = MapSpec.logistic_damped(0.9)

    def peak(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    formula, kernel = peak(lambda: _apply_power(T, x, 1)), peak(lambda: T.apply(x))
    assert formula >= 2 * x.nbytes
    assert kernel <= formula + 4096


BLAS_DIMS = (16, 32, 64, 257)


def _blas_maps(rng, d):
    """One map of each kind at width d; the affine one has row sums below 1."""
    return {MapKind.AFFINE: MapSpec.affine(rng.uniform(-1.0, 1.0, (d, d)) / d, rng.uniform(-1.0, 1.0, d)),
            MapKind.HALF: MapSpec.half(),
            MapKind.LOGISTIC_DAMPED: MapSpec.logistic_damped(0.995),
            MapKind.CONST: MapSpec.const(rng.uniform(-1.0, 1.0, d))}


def _mixed(rng, shape, share):
    """Uniform draws with about `share` of the entries replaced by SPECIAL values."""
    x = rng.uniform(-3.0, 3.0, shape)
    special = rng.random(shape) < share
    x[special] = np.array(SPECIAL)[rng.integers(0, len(SPECIAL), int(special.sum()))]
    return x


@pytest.mark.parametrize("kind", list(MapKind), ids=lambda k: k.value)
@pytest.mark.parametrize("d", BLAS_DIMS)
def test_kernels_match_the_formulas_at_blas_sizes(d, kind):
    # widths where the affine row is a BLAS product; a point with any special
    # entry spreads nan or inf over a whole affine row, so finite points run too
    rng = np.random.default_rng([d, list(MapKind).index(kind)])
    T = _blas_maps(rng, d)[kind]
    for share in (0.0, 0.05, 0.5):
        x = _mixed(rng, d, share)
        x_copy = x.copy()
        assert_bits(T.apply(x), _apply_power(T, x, 1))
        assert_bits(T.apply_power(x, 3), _apply_power(T, x, 3))  # steps in place, out aliases y
        for power in (1, 2, 3):
            assert_bits(T.orbit(x, 6, power), _orbit(T, x, 6, power))
        batch = _mixed(rng, (40, d), share)
        assert_bits(T.apply(batch), _apply_power(T, batch, 1))
        assert_bits(T.apply_power(batch, 3), _apply_power(T, batch, 3))
        assert_bits(x, x_copy)


def test_orbit_holds_no_view_per_row():
    # the loop walks the block with one lazy iterator, so a long orbit peaks
    # at its block X; a list of row views would add about 120 bytes a row.
    # The power path's scratch rows, the sign row of the folded logistic
    # orbit and the buffer of its unfold pass fit in the allowance at d = 256
    T = MapSpec.logistic_damped(0.9)
    for d, steps, power in ((2, 20_000, 1), (2, 20_000, 3), (256, 2_000, 1), (256, 2_000, 3)):
        x = np.random.default_rng(d).uniform(-1.0, 1.0, d)
        tracemalloc.start()
        try:
            X = T.orbit(x, steps, power)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert X.shape == (steps + 1, d)
        assert peak <= X.nbytes + 16 * 1024, (d, power)


# A damped-logistic orbit steps sign-folded values v = s y (s = +-1, the sign
# of the first row) and multiplies each row by s at the end of the block. The
# three tests below pin the cases where that could change a bit.

def _assert_folded_orbit_bits(lam, x):
    T = MapSpec.logistic_damped(lam)
    for power in (1, 2, 3):
        assert_bits(T.orbit(x, 6, power), _orbit(T, x, 6, power))
    return T.orbit(x, 6)


def test_folded_orbit_at_negative_zero_lam():
    # lam = -0.0 flips every sign at each step: the folded values are zeros
    # of either sign, where 1 + v is still 1 + |y|; 0 * inf is a nan
    X = _assert_folded_orbit_bits(-0.0, np.array([0.7, -0.3, 0.0, -0.0, 5e-324, -2.5e-310,
                                                    np.inf, -np.inf]))
    assert np.all(X[1:, :6] == 0.0) and np.all(np.isnan(X[1, 6:]))
    assert np.signbit(X[1, :6]).tolist() == [True, False, True, False, True, False]
    assert np.signbit(X[2, :6]).tolist() == [False, True, False, True, False, True]


def test_folded_orbit_keeps_the_default_nan_of_an_inf_over_inf_row():
    # lam * inf / (1 + inf) is inf / inf, the default nan, whose sign the
    # unfold must not touch; 1e300 * 1e300 overflows and reaches it a step later
    X = _assert_folded_orbit_bits(1e300, np.array([np.inf, -np.inf, 1e300, -1e300, 2.0, -2.0]))
    assert np.all(np.isnan(X[1, :2])) and np.all(np.isnan(X[2, :4]))


def test_folded_orbit_keeps_a_negative_nan_payload():
    # copysign(1, nan) reads the nan's sign bit, and nan * -1 is that nan
    x = np.array([NEG_NAN_PAYLOAD, NAN_PAYLOAD, -1.5, 0.25])
    for lam in (0.0, 0.5, 3.0):
        X = _assert_folded_orbit_bits(lam, x)
        assert np.all(np.isnan(X[1:, :2]))

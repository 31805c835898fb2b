"""PointSampler: its RNG stream pinned bit for bit, a reference sampler
written out here in the form the stream was defined by, and the sampler's
memory bound.

Every sampled check consumes this stream, so a change to it moves every
checker verdict and every report hash. The SHA-256 pins below make such a
change fail here, by name, first.
"""

import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rhofix import PointSampler

SEED = 20240601

_SPECIAL_VALUES = np.array([0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0])


class ReferenceSampler:
    """The sampler's stream, written as the five full draws it is defined by:
    uniform(-1, 1), uniform(-3, 3), the sign draw, the mixture draw, the
    special draw, then `choice` of the special values."""

    def __init__(self, dim, seed):
        self.dim = dim
        self.rng = np.random.default_rng(seed)

    def points(self, n):
        rng = self.rng
        shape = (n, self.dim)
        out = rng.uniform(-1.0, 1.0, shape)
        mags = 10.0 ** rng.uniform(-3.0, 3.0, shape)
        signs = np.where(rng.random(shape) < 0.5, -1.0, 1.0)
        out = np.where(rng.random(shape) < 0.45, out, signs * mags)
        special = rng.random(shape) < 0.10
        k = int(special.sum())
        if k:
            out[special] = rng.choice(_SPECIAL_VALUES, k)
        return out

    def point(self):
        return self.points(1)[0]

    def directions(self, n):
        out = self.points(n)
        sup = np.max(np.abs(out), axis=1)
        while np.any(sup == 0.0):
            bad = sup == 0.0
            out[bad] = self.points(int(bad.sum()))
            sup = np.max(np.abs(out), axis=1)
        return out / sup[:, None]

    def units(self, n):
        return self.rng.uniform(size=n)


def _sha(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(repr(a.shape).encode())
        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return h.hexdigest()


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


# --- pins -------------------------------------------------------------------

# SHA-256 of two consecutive `points(n)` calls on PointSampler(d, SEED)
POINTS_PINS = {
    (0, 3): "b83db400fd228a5abc38495ebdb347841e249a43a22086e30385c92519bed489",
    (1, 1): "1899e9391e28cf210e9c302b521e8224f2c5f90b7123a342e14353d9ce9fd48c",
    (1, 8): "b5beee70e5bd25086f69345b12962d9d7682249c4ee330099e925fb3773f7586",
    (7, 2): "15d8b1ed240a781e66c6345c8e9f8a1e6e3311b50755399c5ec19173dba30e35",
    (512, 3): "6d819aba3558df0903616310122963a649068ffcba1eca04e25d1bd0d7881546",
    (10_000, 1): "36396247d4b99eecf830e88b556437e788954cec876d5e877685dee8be42b15f",
    (545, 32): "d68f2e72d5c14fd1cf5663968d68f63c77e1aec340d333e9fac9cd7f90224414",
}


@pytest.mark.parametrize("n,d", list(POINTS_PINS), ids=lambda v: str(v))
def test_points_stream_is_pinned(n, d):
    s = PointSampler(d, SEED)
    first, second = s.points(n), s.points(n)
    assert first.shape == second.shape == (n, d) and first.dtype == np.float64
    assert _sha(first, second) == POINTS_PINS[n, d]


def test_point_stream_is_pinned():
    # the Fatou check's pattern: 16 single points in a row
    s = PointSampler(3, SEED)
    pts = np.stack([s.point() for _ in range(16)])
    assert _sha(pts) == "1c8ccfa74677000901cadf918eb10fd1ff7e271e5e9f177fe60eae126fd52d42"


def test_directions_stream_is_pinned():
    assert _sha(PointSampler(4, SEED).directions(2000)) == (
        "24fe5fa2883426415985f6ede9cd831a08dccae88dba421b8779dea183b321dc")


def test_units_stream_is_pinned():
    assert _sha(PointSampler(2, SEED).units(100)) == (
        "8e9479c6971281e9acec07240695e5f4b51a52ac6de5b9e44299ee6e0e3198c8")


# --- against the reference ----------------------------------------------------

CALLS = st.sampled_from(["points", "points", "directions", "point", "units"])


@settings(max_examples=60)
@given(
    n=st.integers(0, 3000),
    d=st.integers(1, 300),
    seed=st.integers(0, 2**64 - 1),
    calls=st.lists(CALLS, min_size=1, max_size=3),
)
@example(n=3000, d=300, seed=2**64 - 1, calls=["points", "directions", "units"])
@example(n=0, d=1, seed=0, calls=["points", "point", "points"])
@example(n=1, d=1, seed=1, calls=["directions", "point", "point"])
def test_sampler_matches_reference_bit_for_bit(n, d, seed, calls):
    new, ref = PointSampler(d, seed), ReferenceSampler(d, seed)
    for call in calls:
        if call == "point":
            got, want = new.point(), ref.point()
        elif call == "directions":
            got, want = new.directions(max(n, 1)), ref.directions(max(n, 1))
        else:
            got, want = getattr(new, call)(n), getattr(ref, call)(n)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(_bits(got), _bits(want))
        assert new.rng.bit_generator.state == ref.rng.bit_generator.state


@pytest.mark.parametrize("d", [1, 2, 5])
def test_directions_redraw_zero_rows_like_the_reference(d):
    # at d = 1, about one row in 70 draws the special value 0 and is redrawn
    new, ref = PointSampler(d, 3), ReferenceSampler(d, 3)
    for _ in range(3):
        assert np.array_equal(_bits(new.directions(5000)), _bits(ref.directions(5000)))
        assert new.rng.bit_generator.state == ref.rng.bit_generator.state


# --- memory -------------------------------------------------------------------

@pytest.mark.parametrize("n,d", [(10_000, 8), (512, 256)])
def test_points_peak_memory_is_at_most_four_batches(n, d):
    s = PointSampler(d, SEED)
    s.points(n)  # first call: any one-time allocation is not the sampler's
    tracemalloc.start()
    try:
        s.points(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * n * d * 8

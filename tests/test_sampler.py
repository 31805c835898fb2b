"""PointSampler: its RNG stream pinned bit for bit, a reference decoder
written out here one generator word at a time, the stream's split
invariance and the sampler's memory bound.

Every sampled check consumes this stream, so a change to it moves every
checker verdict and every report hash. The SHA-256 pins below make such a
change fail here, by name, first. The stream is integer and exact float
arithmetic on PCG64 words, with no libm call, so the pins hold at every
numpy CPU dispatch level (`NPY_DISABLE_CPU_FEATURES`).
"""

import hashlib
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rhofix import PointSampler

SEED = 20240601

_SPECIAL_VALUES = (0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0)


def decode(word):
    """One 64-bit generator word as a coordinate, in Python ints and floats:
    bit 63 the sign, bits 57-62 the kind, bits 52-56 the binade, bits 0-51
    the mantissa. Kind < 7 is a special value; kind < 36 is s * [1, 2) - s,
    uniform on (-1, 1); any other kind is s * 2**(binade - 16) * [1, 2)."""
    kind = word >> 57 & 63
    if kind < 7:
        return _SPECIAL_VALUES[kind]
    s = -1.0 if word >> 63 else 1.0
    m = s * (1.0 + (word & (2**52 - 1)) / 2.0**52)  # exact: 52 bits after the point
    if kind < 36:
        return m - s
    return math.ldexp(m, (word >> 52 & 31) - 16)


class ReferenceSampler:
    """The sampler's stream, one `random_raw()` word per coordinate in
    row-major order, each decoded by `decode`."""

    def __init__(self, dim, seed):
        self.dim = dim
        self.rng = np.random.default_rng(seed)

    def points(self, n):
        draw = self.rng.bit_generator.random_raw
        return np.array([decode(draw()) for _ in range(n * self.dim)]).reshape(n, self.dim)

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
    (1, 1): "b23bb15c67f8ae8a7bb32db6ea7689a51ecac3065de818a9c0f5cb55a182163f",
    (1, 8): "c3c71c97b95ea426b1a43451952e02ba399b627416f64dea7b8679ac2c5b12f8",
    (7, 2): "87b136af7bca8039ec886af7936a826d20cf3a912e320b75043808816173a5f9",
    (512, 3): "3f15181170fa7085ff29c17dfb5d14854f23cfc591c3f54455b88f43591f12f0",
    (10_000, 1): "dda0da60e0f9078d1ffbf6734a1f7336c813cc26978efd9fb813c7516bd6fbec",
    (545, 32): "279cc3bbb604b863d19904d0676ebac98e8a309f626d1eae5db1adba1289e809",
}


@pytest.mark.parametrize("n,d", list(POINTS_PINS), ids=lambda v: str(v))
def test_points_stream_is_pinned(n, d):
    s = PointSampler(d, SEED)
    first, second = s.points(n), s.points(n)
    assert first.shape == second.shape == (n, d) and first.dtype == np.float64
    assert _sha(first, second) == POINTS_PINS[n, d]


def test_point_stream_is_pinned():
    # 16 single points in a row: by split invariance, the rows of points(16)
    s = PointSampler(3, SEED)
    pts = np.stack([s.point() for _ in range(16)])
    assert np.array_equal(_bits(pts), _bits(PointSampler(3, SEED).points(16)))
    assert _sha(pts) == "caaf9f07918533163d98daddf46b88ffca8cd64548b18af2413dfde9f17e8eea"


def test_directions_stream_is_pinned():
    assert _sha(PointSampler(4, SEED).directions(2000)) == (
        "84dc11aabd39ade83560796f512d3a770fa4d6a73b2a09414e9da7b3f11832d4")


def test_units_stream_is_pinned():
    assert _sha(PointSampler(2, SEED).units(100)) == (
        "8e9479c6971281e9acec07240695e5f4b51a52ac6de5b9e44299ee6e0e3198c8")


# --- against the reference ----------------------------------------------------

CALLS = st.sampled_from(["points", "points", "directions", "point", "units"])


@settings(max_examples=60)
@given(
    n=st.integers(0, 300),
    d=st.integers(1, 64),
    seed=st.integers(0, 2**64 - 1),
    calls=st.lists(CALLS, min_size=1, max_size=3),
)
@example(n=600, d=300, seed=2**64 - 1, calls=["points", "directions", "units"])
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


@given(
    sizes=st.lists(st.integers(0, 700), min_size=1, max_size=5),
    d=st.integers(1, 40),
    seed=st.integers(0, 2**64 - 1),
)
@example(sizes=[1] * 16, d=3, seed=SEED)
def test_points_do_not_depend_on_how_the_batch_is_split(sizes, d, seed):
    split, whole = PointSampler(d, seed), PointSampler(d, seed)
    parts = [split.points(n) for n in sizes]
    assert np.array_equal(_bits(np.concatenate(parts)), _bits(whole.points(sum(sizes))))
    assert split.rng.bit_generator.state == whole.rng.bit_generator.state


def test_every_kind_and_binade_decodes_as_the_reference():
    # one word per sign, kind, binade and mantissa (the least, a middle one,
    # the greatest), fed to the sampler in place of its generator
    words = np.array([(sign << 63) | (kind << 57) | (binade << 52) | mantissa
                      for sign in (0, 1) for kind in range(64) for binade in range(32)
                      for mantissa in (0, 2**51 + 12345, 2**52 - 1)], dtype=np.uint64)
    s = PointSampler(1, SEED)
    s.rng = SimpleNamespace(bit_generator=SimpleNamespace(random_raw=lambda n: words[:n].copy()))
    got = s.points(words.size)[:, 0]
    assert np.array_equal(_bits(got), _bits([decode(int(w)) for w in words]))
    kind = (words >> np.uint64(57)).astype(int) & 63
    assert set(got[kind < 7].tolist()) == set(_SPECIAL_VALUES)
    assert np.all(np.abs(got[(kind >= 7) & (kind < 36)]) < 1.0)
    mags = np.abs(got[kind >= 36])
    assert mags.min() == 2.0**-16 and mags.max() == np.nextafter(2.0**16, 0.0)


@pytest.mark.parametrize("d", [1, 2, 5])
def test_directions_redraw_zero_rows_like_the_reference(d):
    # at d = 1, about one row in 64 draws the special value 0 and is redrawn
    new, ref = PointSampler(d, 3), ReferenceSampler(d, 3)
    for _ in range(3):
        assert np.array_equal(_bits(new.directions(5000)), _bits(ref.directions(5000)))
        assert new.rng.bit_generator.state == ref.rng.bit_generator.state


# --- memory -------------------------------------------------------------------

@pytest.mark.parametrize("n,d", [(10_000, 8), (512, 256)])
def test_points_peak_memory_is_at_most_two_and_a_half_batches(n, d):
    # the word buffer that becomes the batch, and narrow integer temporaries
    s = PointSampler(d, SEED)
    s.points(n)  # first call: any one-time allocation is not the sampler's
    tracemalloc.start()
    try:
        s.points(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * n * d * 8

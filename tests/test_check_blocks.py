"""The sampled contraction check in row blocks against the one batch it
replaced, bit for bit.

`_one_batch` below is the earlier check written out here: every basis row
and every sampled pair stacked into one batch, each side mapped by one
`T.apply` call, each modular one batch evaluation, and the zero-ratio rows
judged on the images of the whole batch. `solver._ratio_check` now walks
the stacked rows in blocks of at most `_CHECK_VALUES` entries, which must
change no witness, no count, no bit of `max_slack_violation` or
`max_ratio`, and no draw of the sampler. The trial counts put the last row
on a block edge, at the end of the most a last block takes in, and one row
past that. The affine cases map each block with
one `np.dot` over fewer rows than the whole batch, so their bits rest on
BLAS giving a row the same bits in any batch; CI runs this file again
under an older OpenBLAS kernel set and at numpy's baseline SIMD dispatch.
"""

import math
import struct
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from rhofix import (
    MapSpec,
    ModularSpec,
    NamedFunctional,
    Phi,
    PointSampler,
    verify_contraction,
    verify_s_contraction,
)
from rhofix import solver
from rhofix.checks import AxiomReport, _ineq_violations
from rhofix.modular import INF


def _one_batch(T, m, scale, factor, sampler, trials, axiom, scalars) -> AxiomReport:
    """The check as one batch, as `_ratio_check` made it before its blocks."""
    dim = m.dim
    X = np.vstack((np.eye(dim), sampler.points(trials)))
    Y = np.vstack((np.zeros((dim, dim)), sampler.points(trials)))
    d = m.evaluate_batch(X - Y)
    TX, TY = T.apply(X), T.apply(Y)
    lhs = m.evaluate_batch(scale * (TX - TY))
    with np.errstate(invalid="ignore"):
        rhs = np.where(np.isinf(d), INF if factor > 0.0 else 0.0, factor * d)
    rep = AxiomReport(trials=trials)
    i = _ineq_violations(lhs, rhs)
    rep.record_rows(axiom, (X[i], Y[i]), scalars, lhs[i], rhs[i])
    ok = np.flatnonzero((d > 0.0) & (d < INF) & ~np.isinf(lhs))
    if ok.size:
        top = float(np.max(lhs[ok] / d[ok]))
        z = ok[lhs[ok] == 0.0]
        if top == 0.0 and not np.any(np.all(TX[z] == TY[z], axis=-1)):
            top = math.nan
        rep.max_ratio = top
    return rep


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


def assert_same_report(got: AxiomReport, want: AxiomReport):
    assert (got.trials, got.n_violations, got.axiom_counts) == (
        want.trials, want.n_violations, want.axiom_counts)
    assert _bits(got.max_slack_violation) == _bits(want.max_slack_violation)
    assert _bits(got.max_ratio) == _bits(want.max_ratio)
    assert len(got.violations) == len(want.violations)
    for g, w in zip(got.violations, want.violations):
        assert (g.axiom, g.scalars) == (w.axiom, w.scalars)
        assert (_bits(g.lhs), _bits(g.rhs)) == (_bits(w.lhs), _bits(w.rhs))
        assert [p.tobytes() for p in g.points] == [p.tobytes() for p in w.points]


def _cases(d: int):
    """(map, modular, claimed factor) at width d: claims below the true
    factor, so that violations are recorded, and a zero-ratio case."""
    rng = np.random.default_rng(d)
    A = rng.uniform(-1.0, 1.0, (d, d)) / d
    return {
        "logistic-p1": (MapSpec.logistic_damped(0.9), ModularSpec.p_power(1.0, d), 0.2),
        "affine-weighted": (MapSpec.affine(A, rng.uniform(-1.0, 1.0, d)),
                            ModularSpec.weighted_sum(2.0, rng.uniform(0.5, 2.0, d)), 1e-4),
        "half-orlicz": (MapSpec.half(), ModularSpec.orlicz(Phi.EXP_MINUS_ONE, d), 0.3),
        "half-p1100": (MapSpec.half(), ModularSpec.p_power(1100.0, d), 0.5),
        "const-p2": (MapSpec.const(np.linspace(-1.0, 1.0, d)), ModularSpec.p_power(2.0, d), 0.0),
        "named": (MapSpec.logistic_damped(0.7),
                  NamedFunctional("l1", lambda a: np.sum(np.abs(a), axis=-1), dim=d, batched=True),
                  0.2),
    }


# d -> trial counts: one; rows that fill their blocks exactly; a last
# remainder of 1/16 of a block, which the block before takes in; and one
# row more, a block of its own. Blocks are 2,048 rows at d = 8, 496 at
# d = 33 and 64 at d = 256 (four of them basis rows)
TRIALS = {8: [1, 2040, 2168, 2169, 4088], 33: [1, 463, 494, 495, 959], 256: [1, 64, 68, 69, 512]}
CASES = [(d, t, name) for d, ts in TRIALS.items() for t in ts for name in _cases(d)]


def _blocks(monkeypatch, d: int, trials: int) -> list[int]:
    """The rows of each block of a check: one `T.apply` call maps its x."""
    rows, apply = [], MapSpec.apply
    monkeypatch.setattr(MapSpec, "apply", lambda self, x: rows.append(len(x)) or apply(self, x))
    verify_contraction(MapSpec.half(), ModularSpec.p_power(1.0, d), 0.5, PointSampler(d), trials)
    monkeypatch.undo()
    return rows[::2]


def test_the_trial_counts_sit_on_block_edges(monkeypatch):
    assert _blocks(monkeypatch, 8, 2040) == [2048]
    assert _blocks(monkeypatch, 8, 2168) == [2176]  # 128 rows past the edge are taken in
    assert _blocks(monkeypatch, 8, 2169) == [2048, 129]
    assert _blocks(monkeypatch, 8, 4088) == [2048, 2048]
    assert _blocks(monkeypatch, 33, 495) == [496, 32]
    assert _blocks(monkeypatch, 256, 64) == [64] * 5
    assert _blocks(monkeypatch, 256, 68) == [64] * 4 + [68]
    assert _blocks(monkeypatch, 256, 69) == [64] * 5 + [5]
    # the certify_chain d = 32 check, 544 rows of 17,408 entries, is one block
    assert _blocks(monkeypatch, 32, 512) == [544]


@pytest.mark.parametrize("d,trials,name", CASES, ids=[f"d{d}-t{t}-{n}" for d, t, n in CASES])
def test_blocked_check_matches_the_one_batch_check(d, trials, name):
    T, m, c = _cases(d)[name]
    got_sampler, want_sampler = PointSampler(d, seed=7), PointSampler(d, seed=7)
    got = verify_contraction(T, m, c, got_sampler, trials)
    want = _one_batch(T, m, 1.0, c, want_sampler, trials, "contraction", (c,))
    assert_same_report(got, want)
    if name in ("logistic-p1", "affine-weighted"):
        assert got.n_violations > 0
    # the sampler's stream goes on from the same word
    assert got_sampler.points(2).tobytes() == want_sampler.points(2).tobytes()


@pytest.mark.parametrize("d,trials", [(8, 2169), (33, 495), (256, 69)])
def test_blocked_scaled_check_matches_the_one_batch_check(d, trials):
    # the scaled form rho(c (Tx - Ty)) <= k**s rho(x - y), with c > 1
    T, m = MapSpec.logistic_damped(0.9), ModularSpec.p_power(1.0, d)
    c, k, s = 2.0, 0.5, 1.0
    got = verify_s_contraction(T, m, c, k, s, PointSampler(d, seed=3), trials)
    want = _one_batch(T, m, c, k**s, PointSampler(d, seed=3), trials, "s_contraction", (c, k, s))
    assert got.n_violations > 0
    assert_same_report(got, want)


class _Recorded:
    """A bit generator that records its advances."""

    def __init__(self, bits):
        self.bits, self.jumps = bits, []

    def random_raw(self, n):
        return self.bits.random_raw(n)

    def advance(self, delta):
        self.jumps.append(delta)
        self.bits.advance(delta)


def test_blocks_walk_the_samplers_own_generator(monkeypatch):
    # a block's y rows are reached by advancing the sampler's generator, and
    # back to the next block's x rows; a check of one block advances nothing
    made, PCG64 = [], np.random.PCG64
    monkeypatch.setattr(np.random, "PCG64", lambda *args: made.append(args) or PCG64(*args))
    T, m, words = MapSpec.half(), ModularSpec.p_power(1.0, 8), 2169 * 8
    # blocks of 2,048 rows and 129, of which the first 8 are basis rows
    for trials, jumps in ((2168, []), (2169, [129 * 8, -words, 2040 * 8])):
        sampler = PointSampler(8, seed=1)
        bits = _Recorded(sampler.rng.bit_generator)
        sampler.rng = SimpleNamespace(bit_generator=bits)
        verify_contraction(T, m, 0.5, sampler, trials)
        assert bits.jumps == jumps
    assert made == []


def test_the_d256_check_holds_one_block_at_a_time():
    # the solve_long d = 256 check: 768 rows, each batch 1.5 MB when stacked
    d = 256
    T, m = MapSpec.logistic_damped(0.995), ModularSpec.orlicz(Phi.EXP_MINUS_ONE, d)
    sampler = PointSampler(d, seed=11)
    verify_contraction(T, m, 0.995, sampler, 512)  # numpy's own first-call allocations
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        verify_contraction(T, m, 0.995, sampler, 512)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


@pytest.mark.parametrize("zero_column", [True, False])
def test_an_exact_zero_ratio_in_a_later_block_counts(zero_column):
    # under p = 1100 every ratio underflows to 0. At d = 256 the blocks are
    # 64 rows, and with column 200 of A zeroed, basis row 200 (in the fourth
    # block) is the one row with Tx = Ty exactly: its ratio of 0 is measured
    d = 256
    A = 0.5 * np.eye(d)
    if zero_column:
        A[200, 200] = 0.0
    rep = verify_contraction(MapSpec.affine(A, np.zeros(d)), ModularSpec.p_power(1100.0, d), 0.5,
                             PointSampler(d, seed=0), 512)
    assert rep.passed
    if zero_column:
        assert rep.max_ratio == 0.0
    else:
        assert math.isnan(rep.max_ratio)

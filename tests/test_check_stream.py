"""The sampled axiom, s-convexity and doubling checks in row blocks against
the one batch each made before, bit for bit.

The `_one_batch_*` functions below are the earlier checkers written out
here: every stream drawn whole (all x, then all y, then all a; or all
directions, with the zero rows masked), each modular one batch
evaluation, and each axiom's violations recorded in turn. The checkers now
walk their trials in `checks._walk` blocks of max(1, 16,384 // d) rows,
which must change no witness, its order, no count, no bit of a slack or a
doubling estimate, no error, and no draw: the sampler's generator must end
in the same state. The trial counts put the last row one before a block
edge, on it, one past it (a remainder the last block takes in), at the
first count that makes a second block, and several blocks on. CI runs this
file again under an older OpenBLAS kernel set and at numpy's baseline SIMD
dispatch.
"""

import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, strategies as st

from rhofix import (
    InvalidModularError,
    ModularSpec,
    NamedFunctional,
    Phi,
    PointSampler,
    check_modular_axioms,
    check_s_convexity,
    delta2_type_estimate,
    verify_contraction,
)
from rhofix import checks
from rhofix.checks import AxiomReport, INVALID_FUNCTIONALS, _ineq_violations, sine_bump
from rhofix.cli import main
from rhofix.modular import INF

from test_check_blocks import _cases, _one_batch, assert_same_report

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _one_batch_axioms(m, sampler, trials) -> AxiomReport:
    """`check_modular_axioms` as one batch, as it was before its blocks."""
    rho, dim = m.evaluate_batch, m.dim
    rep = AxiomReport(trials=trials)
    zero = np.zeros(dim)
    r0 = float(rho(zero[None, :])[0])
    if r0 != 0.0:
        rep.record("zero_iff", (zero,), (r0,), r0, 0.0)
    xs, ys, a = sampler.points(trials), sampler.points(trials), sampler.units(trials)
    rx, rmx, ry = rho(xs), rho(-xs), rho(ys)
    combo = rho(a[:, None] * xs + (1.0 - a)[:, None] * ys)
    i = np.flatnonzero((rx == 0.0) & np.any(xs != 0.0, axis=1))
    rep.record_rows("zero_iff", (xs[i],), (rx[i],), np.max(np.abs(xs[i]), axis=1),
                    np.zeros(i.size))
    i = np.flatnonzero(rx != rmx)
    r, rm = rx[i], rmx[i]
    rep.record_rows("symmetry", (xs[i],), (r, rm), np.where(rm > r, rm, r),
                    np.where(rm < r, rm, r))
    rhs = rx + ry
    i = _ineq_violations(combo, rhs)
    rep.record_rows("convexity", (xs[i], ys[i]), (a[i], 1.0 - a[i]), combo[i], rhs[i])
    return rep


def _one_batch_s_convexity(m, s, sampler, trials) -> AxiomReport:
    rho = m.evaluate_batch
    rep = AxiomReport(trials=trials)
    xs, ys, a = sampler.points(trials), sampler.points(trials), sampler.units(trials)
    b = (1.0 - a**s) ** (1.0 / s)
    lhs = rho(a[:, None] * xs + b[:, None] * ys)
    with np.errstate(invalid="ignore"):
        rhs = np.where(a == 0.0, 0.0, a**s * rho(xs)) + np.where(b == 0.0, 0.0, b**s * rho(ys))
    i = _ineq_violations(lhs, rhs)
    rep.record_rows("s_convexity", (xs[i], ys[i]), (a[i], b[i], s), lhs[i], rhs[i])
    return rep


def _one_batch_directions(sampler, n) -> tuple[np.ndarray, np.ndarray]:
    """All n rows scaled to unit sup-norm, and the mask of the rows that
    are all zeros: they are left as they are, not redrawn."""
    out = sampler.points(n)
    sup = np.max(np.abs(out), axis=1)
    zero = sup == 0.0
    return out / np.where(zero, 1.0, sup)[:, None], zero


def _one_batch_delta2(m, sampler, trials):
    """(constant, unbounded) of `delta2_type_estimate` as one batch, or the
    text of its InvalidModularError."""
    exps = np.linspace(-3.0, 3.0, trials) if trials > 1 else np.array([-3.0])
    U, zero = _one_batch_directions(sampler, trials)
    X = (10.0**exps)[:, None] * U
    r1 = m.evaluate_batch(X)
    if np.any((r1 == 0.0) & ~zero):
        i = int(np.flatnonzero((r1 == 0.0) & ~zero)[0])
        return (f"rho(x) = 0 at a nonzero point (scale 1e{exps[i]:+.2f}); "
                "no doubling constant exists")
    r2 = m.evaluate_batch(2.0 * X)
    with np.errstate(invalid="ignore"):
        ratio = np.where(np.isinf(r1) | zero, -INF, r2 / r1)
    best = float(np.max(ratio))
    if best == -INF:
        best = 0.0
    unbounded = bool(np.isinf(best))
    if not unbounded:
        top = float(np.max(ratio[exps <= 2.0]))
        if top > 0.0:
            unbounded = best > 1.01 * top
    return struct.pack("<d", best), unbounded


def _delta2(m, sampler, trials):
    try:
        est = delta2_type_estimate(m, sampler, trials)
    except InvalidModularError as exc:
        return str(exc)
    return struct.pack("<d", est.constant), est.unbounded


class _Sampled:
    """m, recording every nonzero row it is evaluated at."""

    def __init__(self, m):
        self.rows = []
        self.m = NamedFunctional("sampled", self._rho, dim=m.dim)
        self._inner = m

    def _rho(self, X):
        self.rows.append(X[np.any(X != 0.0, axis=1)])
        return self._inner.evaluate_batch(X)

    def points(self) -> np.ndarray:
        """The rows, sorted: the points an estimate sampled, however it split them."""
        X = np.concatenate(self.rows)
        return X[np.lexsort(X.T[::-1])]


def assert_same_estimate(m, d, trials, seed):
    """The estimate, the points it sampled and the generator's state after
    it are the one batch's."""
    got, want = _Sampled(m), _Sampled(m)
    got_sampler, want_sampler = PointSampler(d, seed), PointSampler(d, seed)
    assert _delta2(got.m, got_sampler, trials) == _one_batch_delta2(want.m, want_sampler, trials)
    assert got.points().tobytes() == want.points().tobytes()
    _same_state(got_sampler, want_sampler)


def _bumpy(d: int) -> NamedFunctional:
    """sine_bump of the first coordinate, plus |u| / 1000 of the last and
    0.01 where it is positive: convexity and symmetry fail in every block,
    zero_iff at d > 1 only where both coordinates are 0."""
    def fn(X):
        u = X[..., -1]
        return sine_bump(X) + np.abs(u) / 1000.0 + 0.01 * (u > 0.0)
    return NamedFunctional("bumpy", fn, dim=d)


def _far_skewed(X):
    """sine_bump plus 1 at u >= 65,000: convexity fails in about a quarter
    of the rows, symmetry in about one row in 4,500."""
    return sine_bump(X) + (np.asarray(X)[..., 0] >= 65_000.0)


FAR_SKEWED = NamedFunctional("far_skewed", _far_skewed, dim=1)


def _trials(d: int) -> list[int]:
    """One row short of a block, a block, one row past it (taken in), the
    first count with a second block, and several blocks."""
    size = 16_384 // d
    return [size - 1, size, size + 1, size + size // 16 + 1, 3 * size + 7]


CASES = [(d, t) for d in (1, 3, 8, 33) for t in _trials(d)]
IDS = [f"d{d}-t{t}" for d, t in CASES]


def _same_state(got: PointSampler, want: PointSampler):
    assert got.rng.bit_generator.state == want.rng.bit_generator.state


@pytest.mark.parametrize("d,trials", CASES, ids=IDS)
def test_streamed_axioms_match_the_one_batch_check(d, trials):
    m = _bumpy(d)
    got_sampler, want_sampler = PointSampler(d, seed=5), PointSampler(d, seed=5)
    got = check_modular_axioms(m, got_sampler, trials)
    assert got.axiom_counts["symmetry"] > 0 and got.axiom_counts["convexity"] > 0
    assert_same_report(got, _one_batch_axioms(m, want_sampler, trials))
    _same_state(got_sampler, want_sampler)


@pytest.mark.parametrize("d,trials", CASES, ids=IDS)
def test_streamed_s_convexity_matches_the_one_batch_check(d, trials):
    m = ModularSpec.p_power(0.5, d)
    got_sampler, want_sampler = PointSampler(d, seed=6), PointSampler(d, seed=6)
    got = check_s_convexity(m, 0.75, got_sampler, trials)
    assert got.n_violations > 0
    assert_same_report(got, _one_batch_s_convexity(m, 0.75, want_sampler, trials))
    _same_state(got_sampler, want_sampler)


@pytest.mark.parametrize("d,trials", CASES, ids=IDS)
@pytest.mark.parametrize("phi", [Phi.U_LOG, Phi.EXP_MINUS_ONE])
def test_streamed_delta2_matches_the_one_batch_estimate(d, trials, phi):
    assert_same_estimate(ModularSpec.orlicz(phi, d), d, trials, seed=7)


def test_zero_directions_are_masked_and_not_redrawn(monkeypatch):
    # at d = 1 about one direction in 64 is 0: it measures nothing and is
    # not redrawn, so the estimate draws exactly `points(trials)`, here over
    # 3 blocks that each hold some
    trials = 3 * 16_384 + 7
    assert np.any(PointSampler(1, seed=7).points(16_384) == 0.0)
    for m in (ModularSpec.orlicz(Phi.U_LOG, 1), INVALID_FUNCTIONALS["sign_skewed"][0]):
        assert_same_estimate(m, 1, trials, seed=7)
    # dead_zone is 0 on [-1, 1], so every row below scale 1 is at rho 0;
    # with row 0 drawn as 0, the error names row 1's scale. Blocks of 4
    # rows keep the rows' scales apart
    seed = next(s for s in range(1000)
                if np.array_equal(PointSampler(1, s).points(2)[:, 0] == 0.0, [True, False]))
    monkeypatch.setattr(checks, "_CHECK_VALUES", 4)
    m, trials = INVALID_FUNCTIONALS["dead_zone"][0], 40
    got_sampler, want_sampler = PointSampler(1, seed), PointSampler(1, seed)
    got = _delta2(m, got_sampler, trials)
    assert f"(scale 1e{np.linspace(-3.0, 3.0, trials)[1]:+.2f})" in got
    assert got == _one_batch_delta2(m, PointSampler(1, seed), trials)
    want_sampler.points(trials)
    _same_state(got_sampler, want_sampler)


@st.composite
def _edge_counts(draw):
    """(d, trials) with the last row near a block edge, or near the end of
    the most a last block takes in, one to three blocks on; the
    contraction check's d basis rows lead its sampled ones."""
    d = draw(st.integers(1, 4))
    size = 16_384 // d
    edge = draw(st.integers(1, 3)) * size + draw(st.sampled_from([0, size // 16]))
    return d, max(1, edge + draw(st.integers(-d - 2, 2)))


DELTA2_MODULARS = {
    "u_log": lambda d: ModularSpec.orlicz(Phi.U_LOG, d),
    "exp_minus_one": lambda d: ModularSpec.orlicz(Phi.EXP_MINUS_ONE, d),
    "weighted_sum": lambda d: ModularSpec.weighted_sum(1.5, np.linspace(0.5, 2.0, d)),
}


@given(seed=st.integers(0, 2**32 - 1), counts=_edge_counts(),
       modular=st.sampled_from(sorted(DELTA2_MODULARS)),
       case=st.sampled_from(sorted(_cases(1))))
def test_blocked_estimates_and_contraction_checks_match_their_one_batch_references(
        seed, counts, modular, case):
    # at d = 1 about one direction in 64 is 0, so every block holds zero
    # directions, each masked where it is drawn
    d, trials = counts
    assert_same_estimate(DELTA2_MODULARS[modular](d), d, trials, seed)
    T, m, c = _cases(d)[case]
    got_sampler, want_sampler = PointSampler(d, seed), PointSampler(d, seed)
    assert_same_report(verify_contraction(T, m, c, got_sampler, trials),
                       _one_batch(T, m, 1.0, c, want_sampler, trials, "contraction", (c,)))
    _same_state(got_sampler, want_sampler)


def test_witnesses_keep_the_axiom_order_across_blocks():
    # far_skewed breaks symmetry in a few rows of each of 3 blocks, fewer
    # than MAX_WITNESSES in the first, and convexity in thousands: every
    # symmetry witness, later blocks' among them, comes before convexity's
    trials, size = 3 * 16_384 + 7, 16_384
    xs = PointSampler(1, seed=0).points(trials)
    rows = np.flatnonzero(_far_skewed(xs) != _far_skewed(-xs))
    assert 0 < np.count_nonzero(rows < size) < checks.MAX_WITNESSES
    assert np.any(rows >= size)
    got_sampler, want_sampler = PointSampler(1, seed=0), PointSampler(1, seed=0)
    got = check_modular_axioms(FAR_SKEWED, got_sampler, trials)
    assert_same_report(got, _one_batch_axioms(FAR_SKEWED, want_sampler, trials))
    axioms = [v.axiom for v in got.violations]
    assert axioms == ["symmetry"] * rows.size + ["convexity"] * (checks.MAX_WITNESSES - rows.size)
    _same_state(got_sampler, want_sampler)


def _skewed_bump(X):
    """sign_skewed / 100 plus sine_bump plus 0.01: rho(0) = 0.01 is the
    x = 0 row's zero_iff witness, symmetry fails at every nonzero x and
    convexity in about one row in eight."""
    return INVALID_FUNCTIONALS["sign_skewed"][0].fn(X) / 100.0 + sine_bump(X) + 0.01


def test_sign_skewed_symmetry_witnesses_come_before_the_first_blocks_convexity(monkeypatch):
    # blocks of 16 rows: the first block breaks symmetry in fewer rows than
    # MAX_WITNESSES and convexity in some, so witnesses kept in block order
    # would list that convexity before the later blocks' symmetry
    monkeypatch.setattr(checks, "_CHECK_VALUES", 16)
    m, trials = NamedFunctional("skewed_bump", _skewed_bump, dim=1), 50
    sampler = PointSampler(1, seed=0)
    xs, ys, a = sampler.points(trials), sampler.points(trials), sampler.units(trials)
    combo = _skewed_bump(a[:, None] * xs + (1.0 - a)[:, None] * ys)
    assert np.any(_ineq_violations(combo, _skewed_bump(xs) + _skewed_bump(ys)) < 16)
    got_sampler, want_sampler = PointSampler(1, seed=0), PointSampler(1, seed=0)
    got = check_modular_axioms(m, got_sampler, trials)
    assert [v.axiom for v in got.violations] == ["zero_iff"] + ["symmetry"] * 19
    assert got.axiom_counts["convexity"] > 0
    assert_same_report(got, _one_batch_axioms(m, want_sampler, trials))
    _same_state(got_sampler, want_sampler)


def _check_peak(tmp_path, trials: int) -> int:
    """The traced peak of `rhofix check` on orlicz_check.yaml (d = 8) at
    `trials`, once numpy's own first-call allocations are made."""
    tree = yaml.safe_load((CONFIGS / "orlicz_check.yaml").read_text())
    tree["check"]["trials"] = trials
    path = tmp_path / f"orlicz_{trials}.yaml"
    path.write_text(yaml.safe_dump(tree))
    argv = ["check", "--config", str(path), "--out", str(tmp_path / "out"), "--quiet"]
    main(argv)
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_the_orlicz_check_peak_does_not_grow_with_its_trials(tmp_path):
    # the whole batch peaked at about 3 MB at 10**4 trials, and grew with them
    small, large = _check_peak(tmp_path, 10_000), _check_peak(tmp_path, 200_000)
    assert small < 1_000_000 and large < 1_000_000
    assert large < 1.1 * small

"""Sampled checkers: axioms, s-convexity, doubling constants, Fatou."""

import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rhofix import (
    INVALID_FUNCTIONALS,
    MAX_WITNESSES,
    REL_TOL,
    AxiomReport,
    MapSpec,
    DimensionMismatch,
    InvalidModularError,
    ModularSpec,
    NamedFunctional,
    Phi,
    PointSampler,
    Violation,
    builtin_problems,
    check_fatou_sampled,
    check_modular_axioms,
    check_s_convexity,
    certified_factor,
    dead_zone,
    delta2_type_estimate,
    doubling_constant,
    exact_doubling_constant,
    sine_bump,
    sign_skewed,
    slack_tol,
)
from rhofix.checks import _FATOU_DIRECTIONS, _ineq_violations, _zero_at_nonzero
from rhofix.output import report_payload, write_json

VALID = [
    ModularSpec.p_power(0.5, 3),
    ModularSpec.p_power(1.0, 3),
    ModularSpec.p_power(2.0, 3),
    ModularSpec.weighted_sum(2.0, [0.5, 1.5, 3.0]),
    ModularSpec.orlicz(Phi.POWER, 4, p=2.0),
    ModularSpec.orlicz(Phi.EXP_MINUS_ONE, 4),
    ModularSpec.orlicz(Phi.U_LOG, 4),
]


def test_sampler_is_deterministic_per_seed():
    a = PointSampler(3, seed=9).points(100)
    b = PointSampler(3, seed=9).points(100)
    c = PointSampler(3, seed=10).points(100)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sampler_directions_have_unit_sup_norm():
    d = PointSampler(4, seed=1).directions(200)
    assert np.allclose(np.max(np.abs(d), axis=1), 1.0)


@pytest.mark.parametrize("m", VALID, ids=lambda m: f"{m.family.value}-{m.phi or m.p}")
def test_axioms_pass_on_valid_families(m):
    rep = check_modular_axioms(m, PointSampler(m.dim, seed=2024), 10_000)
    assert rep.passed
    assert rep.max_slack_violation == 0.0


@pytest.mark.parametrize("name", sorted(INVALID_FUNCTIONALS))
def test_axioms_catch_planted_invalid(name):
    fn, target = INVALID_FUNCTIONALS[name]
    rep = check_modular_axioms(fn, PointSampler(1, seed=2024), 10_000)
    assert target in rep.violated_axioms()
    assert rep.max_slack_violation > 0.0


def test_hand_witness_sine_bump():
    # x = 0, y = 1, a = 0.5: lhs = 1.05 against rhs = 0.1
    assert sine_bump(np.array([0.5])) == pytest.approx(1.05)
    assert sine_bump(np.array([0.0])) == 0.0
    assert sine_bump(np.array([1.0])) == pytest.approx(0.1)


def test_hand_witness_sign_skewed():
    assert sign_skewed(np.array([1.0])) == 1.0
    assert sign_skewed(np.array([-1.0])) == 2.0


def test_axiom_report_has_witnesses():
    fn, _ = INVALID_FUNCTIONALS["sine_bump"]
    rep = check_modular_axioms(fn, PointSampler(1, seed=7), 5_000)
    v = rep.violations[0]
    assert v.axiom == "convexity"
    assert len(v.points) == 2 and v.lhs > v.rhs


# --- batch-native invalid functionals ---------------------------------------

# the scalar formulas the shipped functionals had before they were batched
REFERENCE = {
    "sine_bump": lambda u: abs(math.sin(math.pi * u)) + abs(u) / 10.0,
    "sign_skewed": lambda u: max(u, 0.0) + 2.0 * max(-u, 0.0),
    "dead_zone": lambda u: max(abs(u) - 1.0, 0.0),
}
EDGE_POINTS = [0.0, -0.0, 1.0, -1.0, 1e3, -1e3, 5e-324]


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


@pytest.mark.parametrize("name", sorted(INVALID_FUNCTIONALS))
def test_batched_invalid_functionals_match_scalar_reference(name):
    fn, _ = INVALID_FUNCTIONALS[name]
    assert fn.batched
    X = np.vstack((PointSampler(1, seed=31).points(5_000), np.array(EDGE_POINTS)[:, None]))
    got = fn.evaluate_batch(X)
    want = np.array([REFERENCE[name](float(u)) for u in X[:, 0]])
    if name == "sine_bump":
        # libm and numpy sin may differ by one ulp on some CPUs
        assert all(abs(g - w) <= slack_tol(g, w) for g, w in zip(got, want))
    else:
        assert np.array_equal(_bits(got), _bits(want))


@pytest.mark.parametrize("name", sorted(INVALID_FUNCTIONALS))
def test_batched_evaluate_is_the_one_row_batch(name):
    fn, _ = INVALID_FUNCTIONALS[name]
    for u in [*PointSampler(1, seed=32).points(200)[:, 0], *EDGE_POINTS]:
        one = fn.evaluate_batch(np.array([[u]]))
        assert one.shape == (1,)
        assert _bits(fn.evaluate(np.array([u]))) == _bits(one[0])
        assert _bits(fn.evaluate(u)) == _bits(one[0])


def test_invalid_functionals_accept_a_point_or_a_list():
    for f in (sine_bump, sign_skewed, dead_zone):
        for x in ([-2.5], np.array([-2.5])):
            v = f(x)
            assert np.ndim(v) == 0
            assert float(v) == pytest.approx(REFERENCE[f.__name__](-2.5))
    assert float(dead_zone([0.5])) == 0.0


@pytest.mark.parametrize("fn", [lambda A: A, lambda A: A[1:, 0]], ids=["n_by_1", "n_minus_1"])
def test_batched_fn_of_wrong_shape_raises(fn):
    m = NamedFunctional("wrong_shape", fn, dim=1, batched=True)
    with pytest.raises(DimensionMismatch):
        m.evaluate_batch(np.ones((4, 1)))
    with pytest.raises(DimensionMismatch):
        m.evaluate([1.0])


def test_scalar_named_functional_keeps_the_row_loop():
    seen = []

    def rho(x):
        seen.append(x.shape)
        return float(np.sum(np.abs(x)))

    m = NamedFunctional("l1", rho, dim=2)
    assert not m.batched
    out = m.evaluate_batch(np.arange(10.0).reshape(5, 2))
    assert seen == [(2,)] * 5
    assert out.tolist() == [1.0, 5.0, 9.0, 13.0, 17.0]


def _per_index_axiom_report(m, seed, trials):
    """check_modular_axioms with one `record` call per violating index."""
    sampler = PointSampler(m.dim, seed)
    rho = m.evaluate_batch
    rep = AxiomReport(trials=trials)
    zero = np.zeros(m.dim)
    r0 = float(rho(zero[None, :])[0])
    if r0 != 0.0:
        rep.record("zero_iff", (zero,), (r0,), r0, 0.0)
    xs, ys, a = sampler.points(trials), sampler.points(trials), sampler.units(trials)
    rx, rmx, ry = rho(xs), rho(-xs), rho(ys)
    combo = rho(a[:, None] * xs + (1.0 - a)[:, None] * ys)
    for i in np.nonzero((rx == 0.0) & np.any(xs != 0.0, axis=1))[0]:
        rep.record("zero_iff", (xs[i],), (rx[i],), float(np.max(np.abs(xs[i]))), 0.0)
    for i in np.nonzero(rx != rmx)[0]:
        rep.record("symmetry", (xs[i],), (rx[i], rmx[i]),
                   max(rx[i], rmx[i]), min(rx[i], rmx[i]))
    rhs = rx + ry
    for i in _ineq_violations(combo, rhs):
        rep.record("convexity", (xs[i], ys[i]), (a[i], 1.0 - a[i]), combo[i], rhs[i])
    return rep


def _nan_left(x):
    """u on u >= 0, nan on u < 0: symmetry witnesses with nan on either side."""
    u = np.asarray(x, dtype=float)[..., 0]
    return np.where(u >= 0.0, u, np.nan)


@pytest.mark.parametrize("fn", [
    INVALID_FUNCTIONALS["sign_skewed"][0],
    INVALID_FUNCTIONALS["dead_zone"][0],
    NamedFunctional("nan_left", _nan_left, dim=1, batched=True),
], ids=lambda fn: fn.name)
def test_bulk_recording_matches_per_index_records(fn):
    bulk = check_modular_axioms(fn, PointSampler(1, seed=2024), 4_000)
    ref = _per_index_axiom_report(fn, 2024, 4_000)
    # every violation counted, the first MAX_WITNESSES kept bit for bit
    assert bulk.n_violations == ref.n_violations > 100
    assert bulk.axiom_counts == ref.axiom_counts
    assert len(bulk.violations) == len(ref.violations) == MAX_WITNESSES
    for b, r in zip(bulk.violations, ref.violations):
        assert b.axiom == r.axiom
        assert len(b.points) == len(r.points)
        assert all(np.array_equal(_bits(p), _bits(q)) for p, q in zip(b.points, r.points))
        assert _bits(b.scalars).tolist() == _bits(r.scalars).tolist()
        assert (_bits(b.lhs), _bits(b.rhs)) == (_bits(r.lhs), _bits(r.rhs))
    assert _bits(bulk.max_slack_violation) == _bits(ref.max_slack_violation)


@pytest.mark.parametrize("m", [
    INVALID_FUNCTIONALS["dead_zone"][0],
    ModularSpec.p_power(2.0, 3),
    ModularSpec.p_power(1100.0, 8),  # |x|**1100 underflows: zero_iff witnesses at d = 8
], ids=["dead_zone", "ppower-2", "ppower-1100"])
def test_zero_iff_witnesses_match_the_full_row_scan(m):
    # only the rows at rho 0 are scanned; the indices, their order and dtype
    # are those of the mask over every row, on sampled points and edge rows
    xs = PointSampler(m.dim, seed=77).points(10_000)
    xs[:6] = np.array([0.0, -0.0, np.nan, 5e-324, -1.0, 0.5])[:, None]
    xs[6] = 0.0
    xs[6, -1] = -5e-324
    rx = m.evaluate_batch(xs)
    want = np.nonzero((rx == 0.0) & np.any(xs != 0.0, axis=1))[0]
    got = _zero_at_nonzero(rx, xs)
    assert got.dtype == want.dtype and got.tolist() == want.tolist()
    assert want.size > 0  # the edge row of one subnormal is a witness in each


def test_record_copies_the_point_and_rows_may_be_bare():
    rep = AxiomReport(trials=1)
    x = np.array([1.0, 2.0])
    rep.record("fatou", (x,), (0.5,), 2.0, 1.0)
    x[0] = 9.0
    assert rep.violations[0].points[0].tolist() == [1.0, 2.0]
    assert rep.max_slack_violation == 1.0
    rep.record_rows("bare", (), (), [3.0, 1.0], [0.5, 0.0])
    assert [(v.points, v.scalars, v.slack) for v in rep.violations[1:]] == [((), (), 2.5), ((), (), 1.0)]
    assert rep.max_slack_violation == 2.5


def test_report_keeps_the_first_witnesses_and_counts_every_violation(tmp_path):
    rep = check_modular_axioms(INVALID_FUNCTIONALS["sign_skewed"][0], PointSampler(1, seed=123),
                               10_000)
    assert len(rep.violations) == MAX_WITNESSES
    # every nonzero x is a witness; the sampler draws x = 0 at about 1 in 64
    assert rep.n_violations == sum(rep.axiom_counts.values()) == 9_818
    assert rep.violated_axioms() == {"symmetry"} and not rep.passed
    # the report's bytes: the count and the first MAX_WITNESSES witnesses
    write_json(tmp_path / "r.json", report_payload("modular_axioms", rep))
    assert hashlib.sha256((tmp_path / "r.json").read_bytes()).hexdigest() == (
        "36b496d2b6f207645a58de394f2f455b94e7ea4208987cf43581184ac80118c9")


def test_witness_cap_spans_calls_and_counts_every_axiom():
    rep = AxiomReport(trials=1)
    rep.record_rows("convexity", (np.arange(15.0)[:, None],), (), np.ones(15), np.zeros(15))
    rep.record_rows("symmetry", (np.arange(10.0)[:, None],), (), np.full(10, 3.0), np.zeros(10))
    rep.record("zero_iff", (np.zeros(1),), (), 9.0, 0.0)
    rep.record_rows("fatou", (), (), [], [])
    assert [v.axiom for v in rep.violations] == ["convexity"] * 15 + ["symmetry"] * 5
    assert [v.points[0][0] for v in rep.violations[15:]] == [0.0, 1.0, 2.0, 3.0, 4.0]
    assert rep.n_violations == 26
    assert rep.axiom_counts == {"convexity": 15, "symmetry": 10, "zero_iff": 1}
    assert rep.violated_axioms() == {"convexity", "symmetry", "zero_iff"}
    assert rep.max_slack_violation == 9.0


def test_max_slack_matches_a_scan_of_each_violation_slack():
    # nan and inf - inf never win; an overflowing difference is +inf; no warning
    # is raised (RuntimeWarning is an error under this suite's settings)
    inf, nan = math.inf, math.nan
    batches = [([nan, inf, -inf, 1.0], [0.0, inf, -inf, nan]),
               ([0.25, -0.0], [0.0, 0.0]),
               ([2.0, 5.0], [1.5, 4.0]),
               ([1e308], [-1e308])]
    rep, best = AxiomReport(trials=1), 0.0
    for lhs, rhs in batches:
        rep.record_rows("a", (), (), lhs, rhs)
        for v in (Violation("a", (), (), left, right) for left, right in zip(lhs, rhs)):
            if v.slack > best:
                best = v.slack
        assert _bits(rep.max_slack_violation) == _bits(best)
    assert best == inf


def test_axioms_require_at_least_one_trial():
    with pytest.raises(ValueError):
        check_modular_axioms(VALID[0], PointSampler(3, 0), 0)


# --- s-convexity -----------------------------------------------------------

def test_s_convexity_holds_for_convex_families():
    for m in (ModularSpec.p_power(1.0, 2), ModularSpec.p_power(2.0, 2)):
        rep = check_s_convexity(m, 1.0, PointSampler(2, seed=5), 10_000)
        assert rep.passed


def test_s_convexity_fails_for_sqrt_power():
    # hand witness: x = 1, y = 0, a = 0.5 gives sqrt(0.5) > 0.5
    m = ModularSpec.p_power(0.5, 1)
    rep = check_s_convexity(m, 1.0, PointSampler(1, seed=5), 10_000)
    assert not rep.passed
    assert rep.violations[0].axiom == "s_convexity"


def test_s_convexity_handles_infinite_rho_samples():
    # the exponential modular overflows to +inf at sampled magnitudes ~1e3;
    # a vanished coefficient must remove its term rather than produce nan
    m = ModularSpec.orlicz(Phi.EXP_MINUS_ONE, 2)
    rep = check_s_convexity(m, 1.0, PointSampler(2, seed=8), 5_000)
    assert rep.passed


def test_s_convexity_validates_s():
    with pytest.raises(ValueError):
        check_s_convexity(VALID[0], 0.0, PointSampler(3, 0), 10)
    with pytest.raises(ValueError):
        check_s_convexity(VALID[0], 1.5, PointSampler(3, 0), 10)


# --- doubling constant -----------------------------------------------------

@pytest.mark.parametrize("p", [0.5, 1.0, 2.0])
def test_delta2_exact_for_p_power(p):
    m = ModularSpec.p_power(p, 3)
    est = delta2_type_estimate(m, PointSampler(3, seed=3), 2_000)
    assert est.constant == pytest.approx(2.0**p, abs=1e-6)
    assert not est.unbounded


def test_delta2_flags_exponential_orlicz():
    m = ModularSpec.orlicz(Phi.EXP_MINUS_ONE, 4)
    est = delta2_type_estimate(m, PointSampler(4, seed=3), 2_000)
    assert est.unbounded


def test_delta2_u_log_bounded_near_four():
    m = ModularSpec.orlicz(Phi.U_LOG, 4)
    est = delta2_type_estimate(m, PointSampler(4, seed=3), 2_000)
    assert not est.unbounded
    assert est.constant < 4.0 + 1e-9


def test_delta2_invalid_modular_raises():
    fn, _ = INVALID_FUNCTIONALS["dead_zone"]
    with pytest.raises(InvalidModularError):
        delta2_type_estimate(fn, PointSampler(1, seed=3), 500)


def test_exact_doubling_constant():
    assert exact_doubling_constant(ModularSpec.p_power(2.0, 2)) == 4.0
    assert exact_doubling_constant(ModularSpec.weighted_sum(1.0, [1.0, 2.0])) == 2.0
    assert exact_doubling_constant(ModularSpec.orlicz(Phi.POWER, 2, p=3.0)) == 8.0
    assert exact_doubling_constant(ModularSpec.orlicz(Phi.U_LOG, 2)) == 4.0


@pytest.mark.parametrize("m", [
    ModularSpec.p_power(1100.0, 1),
    ModularSpec.weighted_sum(1100.0, [1.0]),
    ModularSpec.orlicz(Phi.POWER, 1, p=1100.0),
], ids=["ppower", "weighted_sum", "orlicz_power"])
def test_exact_doubling_constant_past_the_largest_double_is_inf(m):
    # 2**1100 overflows a double: no OverflowError, no RuntimeWarning
    assert exact_doubling_constant(m) == math.inf


def test_exact_doubling_constant_of_exponential_orlicz_is_unbounded():
    # phi(2u) / phi(u) = e**u + 1 grows without bound
    assert exact_doubling_constant(ModularSpec.orlicz(Phi.EXP_MINUS_ONE, 2)) == math.inf


@pytest.mark.parametrize("m,k", [
    (ModularSpec.p_power(0.5, 3), 2.0**0.5),
    (ModularSpec.weighted_sum(2.0, [0.5, 1.5]), 4.0),
    (ModularSpec.orlicz(Phi.POWER, 4, p=3.0), 8.0),
])
def test_doubling_constant_exact_families(m, k):
    sampler = PointSampler(m.dim, seed=3)
    state = sampler.rng.bit_generator.state
    assert doubling_constant(m, sampler, 500) == k
    assert sampler.rng.bit_generator.state == state


def test_doubling_constant_exponential_orlicz_is_none_without_sampling():
    sampler = PointSampler(4, seed=3)
    state = sampler.rng.bit_generator.state
    assert doubling_constant(ModularSpec.orlicz(Phi.EXP_MINUS_ONE, 4), sampler, 2_000) is None
    assert sampler.rng.bit_generator.state == state


def test_doubling_constant_u_log_is_four_without_sampling():
    # phi(2u) / phi(u) = 2 log(1 + 2u) / log(1 + u) <= 4, with limit 4 at
    # u -> 0; the sampled estimate stays below it, so it is no bound
    m = ModularSpec.orlicz(Phi.U_LOG, 4)
    sampler = PointSampler(4, seed=3)
    state = sampler.rng.bit_generator.state
    assert doubling_constant(m, sampler, 2_000) == 4.0
    assert sampler.rng.bit_generator.state == state
    assert delta2_type_estimate(m, PointSampler(4, seed=3), 2_000).constant < 4.0


def test_doubling_constant_of_a_named_functional_is_the_estimate():
    m = NamedFunctional("l1", lambda a: np.sum(np.abs(a), axis=-1), dim=4, batched=True)
    k = doubling_constant(m, PointSampler(4, seed=3), 2_000)
    assert k == delta2_type_estimate(m, PointSampler(4, seed=3), 2_000).constant
    assert k == pytest.approx(2.0)


def test_doubling_constant_invalid_modular_is_none():
    fn, _ = INVALID_FUNCTIONALS["dead_zone"]
    assert doubling_constant(fn, PointSampler(1, seed=3), 500) is None


def test_doubling_constant_zero_estimate_is_none():
    # infinite at every nonzero point: every sampled ratio is inf / inf
    fn = NamedFunctional("inf_off_zero", lambda x: np.where(x[..., 0] == 0.0, 0.0, np.inf),
                         dim=1, batched=True)
    assert delta2_type_estimate(fn, PointSampler(1, seed=3), 500) == (0.0, False)
    assert doubling_constant(fn, PointSampler(1, seed=3), 500) is None


# --- Fatou -----------------------------------------------------------------

def test_fatou_constant_sequence_is_equality():
    m = ModularSpec.p_power(1.0, 2)
    rep = check_fatou_sampled(m, [1.0, 2.0], [0.5, 0.5], 0.5, 20,
                              directions=[(np.zeros(2), np.zeros(2))])
    assert rep.passed


def test_fatou_closed_form_decreasing_sequence():
    # p = 2, x = 1, y = 0, u = 1, v = 0: rho(x_n - y_n) = (1 + 0.5**n)**2 -> 1
    m = ModularSpec.p_power(2.0, 1)
    rep = check_fatou_sampled(m, [1.0], [0.0], 0.5, 30, directions=[([1.0], [0.0])])
    assert rep.passed


def test_fatou_zero_gap_trivial():
    m = ModularSpec.p_power(1.0, 1)
    rep = check_fatou_sampled(m, [2.0], [2.0], 0.5, 10, directions=[([1.0], [1.0])])
    assert rep.passed


@pytest.mark.parametrize("m", VALID, ids=lambda m: f"{m.family.value}-{m.phi or m.p}")
def test_fatou_sampled_passes_on_valid_families(m):
    s = PointSampler(m.dim, seed=17)
    rep = check_fatou_sampled(m, s.point(), s.point(), 0.5, 24, sampler=s)
    assert rep.passed


def test_fatou_catches_planted_jump():
    # rho jumps up exactly at |u| = 1, so a sequence approaching from above
    # has liminf 1 while rho at the limit is 2: a genuine Fatou failure
    def heavy_core(x):
        u = abs(float(x[0]))
        return 2.0 * u if u <= 1.0 else u

    fn = NamedFunctional("heavy_core", heavy_core, dim=1)
    rep = check_fatou_sampled(fn, [1.0], [0.0], 0.5, 20, directions=[([1.0], [0.0])])
    assert not rep.passed
    assert rep.violations[0].axiom == "fatou"


def _reference_fatou(m, x, y, ratio, steps, directions):
    """The per-direction loop `check_fatou_sampled` ran before it batched
    its sequences: one modular call per direction."""
    xa, ya = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    gap = xa - ya
    lhs = m.evaluate(gap)
    rep = AxiomReport(trials=len(directions))
    powers = ratio ** np.arange(1, steps + 1)
    tail = math.ceil(steps / 2)
    for u, v in directions:
        ua, va = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
        seq = m._evaluate_owned(gap + powers[:, None] * (ua - va))
        liminf_proxy = float(np.min(seq[-tail:]))
        if lhs > liminf_proxy + slack_tol(lhs, liminf_proxy):
            rep.record("fatou", (ua, va), (ratio, float(steps)), lhs, liminf_proxy)
    return rep


def _assert_same_report(got: AxiomReport, want: AxiomReport):
    assert (got.trials, got.n_violations, got.axiom_counts) == (
        want.trials, want.n_violations, want.axiom_counts)
    assert _bits(got.max_slack_violation) == _bits(want.max_slack_violation)
    assert _bits(got.max_ratio) == _bits(want.max_ratio)
    assert len(got.violations) == len(want.violations)
    for g, w in zip(got.violations, want.violations):
        assert g.axiom == w.axiom and len(g.points) == len(w.points)
        assert all(np.array_equal(_bits(a), _bits(b)) for a, b in zip(g.points, w.points))
        assert np.array_equal(_bits(g.scalars), _bits(w.scalars))
        assert np.array_equal(_bits([g.lhs, g.rhs, g.slack]), _bits([w.lhs, w.rhs, w.slack]))


def _heavy_core_batch(x):
    # rho jumps up at |u| = 1, as in `test_fatou_catches_planted_jump`
    u = np.abs(np.asarray(x, dtype=float)[..., 0])
    return np.where(u <= 1.0, 2.0 * u, u)


@pytest.mark.parametrize("m", VALID + [
    NamedFunctional("l1-batched", lambda a: np.sum(np.abs(a), axis=-1), dim=3, batched=True),
    NamedFunctional("heavy_core-batched", _heavy_core_batch, dim=1, batched=True),
], ids=lambda m: getattr(m, "name", None) or f"{m.family.value}-{m.phi or m.p}")
def test_fatou_batch_matches_the_per_direction_loop(m):
    # sampled directions, their negatives (sequences from below, which the
    # tail undershoots) and zero: passing and violating rows in one batch
    s = PointSampler(m.dim, seed=23)
    x, y = s.point(), s.point()
    if m.dim == 1:
        x, y = np.array([1.0]), np.array([0.0])  # the planted jump's limit
    dirs = [(s.point(), s.point()) for _ in range(6)]
    dirs += [(-u, -v) for u, v in dirs] + [(np.zeros(m.dim), np.zeros(m.dim))]
    dirs += [(x - y, np.zeros(m.dim)), (y - x, np.zeros(m.dim))]
    for ratio, steps in ((0.5, 20), (0.9, 7), (0.25, 1)):
        want = _reference_fatou(m, x, y, ratio, steps, dirs)
        got = check_fatou_sampled(m, x, y, ratio, steps, directions=dirs)
        _assert_same_report(got, want)
    assert not check_fatou_sampled(m, x, y, 0.5, 20, directions=dirs).passed


def _spike_at(gap):
    # 2 at the gap itself and 1 elsewhere: every sequence that moves violates Fatou
    return NamedFunctional("spike", lambda a: np.where(np.all(a == gap, axis=-1), 2.0, 1.0),
                           dim=gap.size, batched=True)


@pytest.mark.parametrize("x,y", [([1.0], [0.0]), ([0.5, -2.0, 3.0], [0.5, 1.0, -1.0])],
                         ids=["d1", "d3-zero-gap-coordinate"])
def test_fatou_one_draw_matches_a_point_pair_per_direction(x, y):
    # the sampled directions as 16 point() calls made them: v, then w, per
    # direction, with w sign-aligned to the gap where the gap is nonzero
    x, y = np.array(x), np.array(y)
    ref = PointSampler(x.size, seed=29)
    signs = np.sign(x - y)
    dirs = []
    for _ in range(_FATOU_DIRECTIONS):
        v, w = ref.point(), ref.point()
        dirs.append((v + np.where(signs != 0.0, signs * np.abs(w), w), v))
    m = _spike_at(x - y)
    sampler = PointSampler(x.size, seed=29)
    got = check_fatou_sampled(m, x, y, 0.5, 12, sampler=sampler)
    # every direction that moves (w != 0) is a witness
    assert got.n_violations == sum(bool(np.any(u != v)) for u, v in dirs) > 0
    _assert_same_report(got, check_fatou_sampled(m, x, y, 0.5, 12, directions=dirs))
    assert sampler.rng.bit_generator.state == ref.rng.bit_generator.state


def test_fatou_with_no_directions_evaluates_no_sequence():
    rep = check_fatou_sampled(VALID[0], np.ones(3), np.zeros(3), 0.5, 10, directions=[])
    assert rep.passed and rep.trials == 0


def test_fatou_validates_ratio():
    with pytest.raises(ValueError):
        check_fatou_sampled(VALID[0], np.ones(3), np.zeros(3), 1.0, 10,
                            directions=[(np.ones(3), np.ones(3))])


# --- certified contraction factors ---------------------------------------------

def test_certified_factor_closed_forms():
    W = ModularSpec.weighted_sum(1.0, [2.0, 1.0, 0.5])
    assert certified_factor(MapSpec.const([0.3]), ModularSpec.orlicz(Phi.EXP_MINUS_ONE, 2)) == (0.0, True)
    c, tight = certified_factor(MapSpec.half(), ModularSpec.p_power(2.0, 2))
    assert tight and 0.25 <= c <= 0.25 * (1 + 1e-14)
    c, tight = certified_factor(MapSpec.logistic_damped(0.8), W)
    assert tight and 0.8 < c <= 0.8 * (1 + 1e-14)
    # columns of |A| weighted: (2 * 0.5 + 1 * 0.25) / 2 and (2 * 0.1 + 1 * 0.3) / 1
    A = MapSpec.affine([[0.5, 0.1], [0.25, 0.3]], [0.0, 0.0])
    c, _ = certified_factor(A, ModularSpec.weighted_sum(1.0, [2.0, 1.0]))
    assert c == pytest.approx(0.625, rel=1e-14) and c >= 0.625
    c, _ = certified_factor(MapSpec.affine([[0.0, 0.6], [0.0, 0.0]], [0.0, 0.0]),
                            ModularSpec.p_power(2.0, 2))
    assert c == pytest.approx(0.36, rel=1e-13) and c >= 0.36


def test_builtin_factors_are_their_certified_factors_rounded_down():
    # `certified_factor` rounds up past its own rounding, so it reads up to
    # a few ulps above the hand-written exact `c` and cannot replace it
    for prob in builtin_problems():
        c, tight = certified_factor(prob.map, prob.modular)
        assert tight and prob.c <= c <= prob.c * (1 + 1e-14), prob.name


def test_certified_factor_stays_an_upper_bound_when_it_underflows():
    # 2**-1100 computes to 0.0, below the true factor
    c, tight = certified_factor(MapSpec.half(), ModularSpec.p_power(1100.0, 1))
    assert tight and 0.0 < c < 1e-300


@given(data=st.data(), dim=st.integers(1, 6))
def test_certified_factor_bounds_the_exact_column_sums(data, dim):
    # p = 1: each column sum is exact in rationals, and the float sums
    # round below it about half the time; the returned factor never is
    rows = st.lists(st.floats(-1, 1), min_size=dim, max_size=dim)
    A = data.draw(st.lists(rows, min_size=dim, max_size=dim))
    w = data.draw(st.lists(st.floats(0.1, 4.0), min_size=dim, max_size=dim))
    exact = max(sum(Fraction(w[i]) * abs(Fraction(A[i][j])) for i in range(dim)) / Fraction(w[j])
                for j in range(dim))
    c, _ = certified_factor(MapSpec.affine(A, [0.0] * dim), ModularSpec.weighted_sum(1.0, w))
    assert exact <= Fraction(c) and c <= float(exact) * (1 + 1e-12) + 1e-300


@pytest.mark.parametrize("T,m", [
    (MapSpec.logistic_damped(1.5), ModularSpec.p_power(2000.0, 1)),
    (MapSpec.affine([[1e200, 0.0], [0.0, 1.0]], [0.0, 0.0]), ModularSpec.p_power(2.0, 2)),
    (MapSpec.affine([[1e300, 1.0], [1.0, 1.0]], [0.0, 0.0]), ModularSpec.weighted_sum(2.0, [1e300, 1e-300])),
], ids=["logistic", "affine-p2", "affine-p2-weighted"])
def test_certified_factor_past_the_largest_double_is_inf(T, m):
    # no OverflowError, no RuntimeWarning
    assert certified_factor(T, m) == (math.inf, True)


@pytest.mark.parametrize("T,m", [
    # phi(u) = u**0.5 is not convex: u -> u/2 contracts it by 2**-0.5 only
    (MapSpec.half(), ModularSpec.orlicz(Phi.POWER, 2, p=0.5)),
    # lam > 1: u -> lam u / (1 + |u|) is not a contraction near 0
    (MapSpec.logistic_damped(1.5), ModularSpec.orlicz(Phi.EXP_MINUS_ONE, 2)),
    (MapSpec.affine([[0.5, 0.1], [0.2, 0.3]], [0.0, 0.0]), ModularSpec.orlicz(Phi.U_LOG, 2)),
    (MapSpec.affine([[0.5, 0.1], [0.2, 0.3]], [0.0, 0.0]), ModularSpec.p_power(1.5, 2)),
    (MapSpec.half(), NamedFunctional("l1", lambda x: float(np.sum(np.abs(x))), dim=2)),
    (MapSpec.const([1.0]), NamedFunctional("l1", lambda x: float(np.sum(np.abs(x))), dim=2)),
], ids=["orlicz-half", "orlicz-logistic", "orlicz-affine", "affine-p1.5", "named-half",
        "named-const"])
def test_certified_factor_is_none_without_a_closed_form(T, m):
    assert certified_factor(T, m) is None


@pytest.mark.parametrize("phi,p", [(Phi.EXP_MINUS_ONE, None), (Phi.U_LOG, None),
                                   (Phi.POWER, 1.0), (Phi.POWER, 2.5)])
def test_orlicz_rows_are_half_and_lam_and_not_tight(phi, p):
    m = ModularSpec.orlicz(phi, 3, p=p)
    assert certified_factor(MapSpec.half(), m) == (0.5, False)
    assert certified_factor(MapSpec.logistic_damped(0.8), m) == (0.8, False)
    assert certified_factor(MapSpec.logistic_damped(1.0), m) == (1.0, False)


def _ratios(T, m, X, Y):
    """rho(Tx - Ty) / rho(x - y) over the pairs with 0 < rho(x - y) < inf."""
    d = m.evaluate_batch(X - Y)
    lhs = m.evaluate_batch(T.apply(X) - T.apply(Y))
    ok = (d > 0.0) & np.isfinite(d)
    return lhs[ok] / d[ok]


_CONVEX_PHIS = st.sampled_from([(Phi.EXP_MINUS_ONE, None), (Phi.U_LOG, None)]) | st.tuples(
    st.just(Phi.POWER), st.floats(1.0, 4.0))


@st.composite
def _certified_problems(draw):
    """A (map, modular) pair that `certified_factor` covers. An affine map's
    offset drops out of Tx - Ty; it is 0 here, so no cancellation against
    it enters the sampled ratio. A third of the draws are the Orlicz rows:
    `half` or `logistic_damped` with lam <= 1 under a convex phi."""
    dim = draw(st.integers(1, 4))
    if draw(st.integers(0, 2)) == 0:
        phi, p = draw(_CONVEX_PHIS)
        lam = draw(st.floats(0.0, 1.0))
        return draw(st.sampled_from([MapSpec.half(), MapSpec.logistic_damped(lam)])), \
            ModularSpec.orlicz(phi, dim, p=p)
    kind = draw(st.sampled_from(["const", "half", "logistic_damped", "affine"]))
    p = draw(st.floats(0.3, 1.0) | st.just(2.0)) if kind == "affine" else draw(st.floats(0.3, 4.0))
    if draw(st.booleans()):
        m = ModularSpec.p_power(p, dim)
    else:
        m = ModularSpec.weighted_sum(p, draw(st.lists(st.floats(0.1, 4.0), min_size=dim, max_size=dim)))
    if kind == "const":
        T = MapSpec.const(draw(st.lists(st.floats(-4, 4), min_size=dim, max_size=dim)))
    elif kind == "half":
        T = MapSpec.half()
    elif kind == "logistic_damped":
        T = MapSpec.logistic_damped(draw(st.floats(0.0, 1.5)))
    else:
        rows = st.lists(st.floats(-1, 1), min_size=dim, max_size=dim)
        T = MapSpec.affine(draw(st.lists(rows, min_size=dim, max_size=dim)), np.zeros(dim))
    return T, m


@given(problem=_certified_problems(), seed=st.integers(0, 2**32 - 1))
def test_sampled_ratio_never_exceeds_the_certified_factor(problem, seed):
    T, m = problem
    c, _ = certified_factor(T, m)
    sampler = PointSampler(m.dim, seed)
    X, Y = sampler.points(200), sampler.points(200)
    assert np.all(_ratios(T, m, X, Y) <= c * (1.0 + REL_TOL))


def _witness(T, m):
    """A point x near 0 whose ratio rho(Tx - T0) / rho(x) approaches the
    certified factor: a tight factor is not loose. (An affine map's ratio
    is the same at every scale; its offset is 0 in the cases below, since
    T x - T 0 would cancel against it.)"""
    w = np.asarray(m.weights) if m.weights is not None else np.ones(m.dim)
    if T.kind.value in ("half", "logistic_damped"):
        return 1e-9 * np.eye(m.dim)[0]
    if m.p <= 1.0:  # the worst column's basis vector
        return 1e-9 * np.eye(m.dim)[np.argmax((w[:, None] * np.abs(T.matrix) ** m.p).sum(axis=0) / w)]
    root = np.sqrt(w)  # the top right singular vector of W^1/2 A W^-1/2, mapped back
    _, _, vt = np.linalg.svd(root[:, None] * T.matrix / root)
    return 1e-9 * vt[0] / root


@pytest.mark.parametrize("T,m", [
    (MapSpec.half(), ModularSpec.p_power(3.0, 2)),
    (MapSpec.half(), ModularSpec.weighted_sum(0.5, [2.0, 0.25])),
    (MapSpec.logistic_damped(0.8), ModularSpec.p_power(1.0, 3)),
    (MapSpec.logistic_damped(0.6), ModularSpec.weighted_sum(2.5, [2.0, 1.0, 0.5])),
    (MapSpec.affine([[0.5, -0.4, 0.1], [0.2, 0.3, -0.3], [0.05, 0.1, 0.2]], [0.0] * 3),
     ModularSpec.p_power(0.5, 3)),
    (MapSpec.affine([[0.5, -0.4], [0.2, 0.3]], [0.0, 0.0]), ModularSpec.weighted_sum(1.0, [3.0, 0.5])),
    (MapSpec.affine([[0.5, -0.4], [0.2, 0.3]], [0.0, 0.0]), ModularSpec.weighted_sum(2.0, [3.0, 0.5])),
], ids=["half-ppower", "half-weighted", "logistic-ppower", "logistic-weighted", "affine-p0.5",
        "affine-weighted-p1", "affine-weighted-p2"])
def test_tight_certified_factor_has_a_witness_near_zero(T, m):
    c, tight = certified_factor(T, m)
    x = _witness(T, m)
    (ratio,) = _ratios(T, m, x[None], np.zeros((1, m.dim)))
    assert tight and c * (1.0 - 1e-8) <= ratio <= c * (1.0 + REL_TOL)

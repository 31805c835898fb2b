"""Sampled checkers: axioms, s-convexity, doubling constants, Fatou."""

import math

import numpy as np
import pytest

from rhofix import (
    INVALID_FUNCTIONALS,
    AxiomReport,
    DimensionMismatch,
    InvalidModularError,
    ModularSpec,
    NamedFunctional,
    Phi,
    PointSampler,
    check_fatou_sampled,
    check_modular_axioms,
    check_s_convexity,
    dead_zone,
    delta2_type_estimate,
    exact_doubling_constant,
    sine_bump,
    sign_skewed,
    slack_tol,
)
from rhofix.checks import _ineq_violations

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
    assert len(bulk.violations) == len(ref.violations) > 100
    for b, r in zip(bulk.violations, ref.violations):
        assert b.axiom == r.axiom
        assert len(b.points) == len(r.points)
        assert all(np.array_equal(_bits(p), _bits(q)) for p, q in zip(b.points, r.points))
        assert _bits(b.scalars).tolist() == _bits(r.scalars).tolist()
        assert (_bits(b.lhs), _bits(b.rhs)) == (_bits(r.lhs), _bits(r.rhs))
    assert _bits(bulk.max_slack_violation) == _bits(ref.max_slack_violation)


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
    assert exact_doubling_constant(ModularSpec.orlicz(Phi.U_LOG, 2)) is None


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


def test_fatou_validates_ratio():
    with pytest.raises(ValueError):
        check_fatou_sampled(VALID[0], np.ones(3), np.zeros(3), 1.0, 10,
                            directions=[(np.ones(3), np.ones(3))])

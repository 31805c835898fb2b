"""Contraction verification, Picard iteration, and the power path."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rhofix import (
    DimensionMismatch,
    DivergenceError,
    InconsistentContractionError,
    IterationTrace,
    MapSpec,
    ModularSpec,
    ModularUnderflowError,
    NamedFunctional,
    Phi,
    PointSampler,
    build_chain,
    builtin_problems,
    picard_solve,
    power_index,
    random_affine_contraction,
    solve_via_power,
    verify_contraction,
    verify_s_contraction,
)

P1 = ModularSpec.p_power(1.0, 1)
P2 = ModularSpec.p_power(2.0, 1)


# --- map specs ---------------------------------------------------------------

def test_map_apply_shapes():
    T = MapSpec.affine([[0.5, 0.0], [0.0, 0.5]], [1.0, 1.0])
    assert np.allclose(T.apply(np.array([2.0, 4.0])), [2.0, 3.0])
    assert np.allclose(MapSpec.half().apply(np.array([3.0, -1.0])), [1.5, -0.5])
    assert np.allclose(MapSpec.const([0.7]).apply(np.array([9.0, 9.0])), [0.7, 0.7])
    lam = MapSpec.logistic_damped(0.8)
    assert np.allclose(lam.apply(np.array([1.0])), [0.4])


@pytest.mark.parametrize("T", [MapSpec.half(), MapSpec.logistic_damped(0.8), MapSpec.const([2.0])],
                         ids=["half", "logistic_damped", "const"])
def test_map_of_any_shape_keeps_the_shape(T):
    # a 0-d point maps to a 0-d point, a point and a batch row by row alike
    for x in (np.float64(3.0), np.array([3.0, -1.0, 0.5]), np.array([[3.0, -1.0], [0.5, 4.0]])):
        for n in (1, 3):
            y = T.apply_power(x, n)
            assert y.shape == np.shape(x)
            assert np.array_equal(np.ravel(y), T.apply_power(np.ravel(x), n))
        assert np.array_equal(T.apply(x), T.apply_power(x, 1))


def test_map_spec_holds_the_map_alone():
    # a contraction factor depends on the modular too; every function takes it
    assert [f.name for f in dataclasses.fields(MapSpec)] == ["kind", "matrix", "offset", "lam", "value"]


def test_map_validation():
    with pytest.raises(ValueError):
        MapSpec.affine([[1.0, 0.0]], [1.0])  # not square
    with pytest.raises(DimensionMismatch):
        MapSpec.affine([[0.5]], [0.0]).apply(np.zeros(2))


# --- verify_contraction ------------------------------------------------------

def _underflowed_ratio_checks(d: int):
    # under p = 1100 each ratio 2**-1100 underflows, as do most rho(Tx - Ty)
    m = ModularSpec.p_power(1100.0, d)
    rep = verify_contraction(MapSpec.half(), m, 0.5, PointSampler(d, seed=0), 512)
    assert rep.passed and math.isnan(rep.max_ratio)
    # a constant map's exact 0 (Tx = Ty) still counts
    target = np.resize([0.3, 0.1], d)
    rep = verify_contraction(MapSpec.const(target), m, 0.5, PointSampler(d, seed=0), 512)
    assert rep.max_ratio == 0.0


def test_underflowed_ratios_give_no_max_ratio():
    _underflowed_ratio_checks(2)


def test_underflowed_ratios_over_several_blocks_give_no_max_ratio():
    # d = 64: the check walks its 576 rows in blocks of 256
    _underflowed_ratio_checks(64)


def test_contraction_half_exact_ratio():
    rep = verify_contraction(MapSpec.half(), P1, 0.5, PointSampler(1, seed=1), 2_000)
    assert rep.passed
    assert rep.max_ratio == pytest.approx(0.5, abs=1e-12)


def test_contraction_half_p2_quarter():
    rep = verify_contraction(MapSpec.half(), P2, 0.25, PointSampler(1, seed=1), 2_000)
    assert rep.passed
    assert rep.max_ratio == pytest.approx(0.25, abs=1e-12)


def test_contraction_violated_when_claim_too_strong():
    # 0.9-scaling claims 0.5: every unequal pair is a witness, ratio ~0.9
    T = MapSpec.affine(0.9 * np.eye(2), np.zeros(2))
    rep = verify_contraction(T, ModularSpec.p_power(1.0, 2), 0.5, PointSampler(2, seed=1), 500)
    assert not rep.passed
    assert rep.max_ratio == pytest.approx(0.9, abs=1e-9)
    assert rep.violations[0].axiom == "contraction"


def test_contraction_basis_probe_pins_l1_norm():
    A = np.array([[0.1, 0.6], [0.2, 0.1]])  # column sums 0.3 and 0.7
    T = MapSpec.affine(A, np.zeros(2))
    rep = verify_contraction(T, ModularSpec.p_power(1.0, 2), 0.9, PointSampler(2, seed=1), 100)
    assert rep.passed
    assert rep.max_ratio == pytest.approx(0.7, abs=1e-12)


def test_s_contraction_boundary_and_violation():
    s = PointSampler(1, seed=2)
    rep = verify_s_contraction(MapSpec.half(), P1, 1.5, 0.75, 1.0, s, 2_000)
    assert rep.passed  # lhs sits exactly on the k**s boundary
    rep2 = verify_s_contraction(MapSpec.half(), P1, 3.0, 0.75, 1.0, PointSampler(1, seed=2), 2_000)
    assert not rep2.passed


def test_s_contraction_preconditions():
    with pytest.raises(ValueError):
        verify_s_contraction(MapSpec.half(), P1, 0.9, 0.75, 1.0, PointSampler(1, 0), 10)


# --- orbit bound -------------------------------------------------------------

def test_orbit_bound_const_map():
    cert = build_chain(P1, MapSpec.const([0.5]), [10.0], 0.5, None, 20)
    assert cert.orbit_sup == pytest.approx(1.0)  # rho(2 * 0.5)
    assert cert.orbit_stabilized


def test_orbit_bound_half_max_at_first_step():
    cert = build_chain(P1, MapSpec.half(), [1.0], 0.5, None, 50)
    assert cert.orbit_sup == pytest.approx(1.0)
    assert cert.orbit_stabilized


def test_orbit_bound_affine_converging():
    T = MapSpec.affine(0.5 * np.eye(2), [1.0, 1.0])
    cert = build_chain(ModularSpec.p_power(1.0, 2), T, [0.0, 0.0], 0.5, None, 40)
    assert math.isfinite(cert.orbit_sup) and cert.orbit_sup <= 8.0 + 1e-9
    assert cert.orbit_stabilized


def test_orbit_bound_still_growing_is_not_stabilized():
    # rho(2 x_n) = 200 (1 - 0.99**n) grows 1.95x over the last half of 10 steps
    cert = build_chain(P1, MapSpec.affine([[0.99]], [1.0]), [0.0], 0.99, None, 10)
    assert cert.orbit_sup == pytest.approx(200.0 * (1.0 - 0.99**10))
    assert not cert.orbit_stabilized


def test_orbit_bound_overflow():
    # the orbit stays at 400, inside the space; its modular rho(800) = e**800 - 1 overflows
    m = ModularSpec.orlicz(Phi.EXP_MINUS_ONE, 1)
    cert = build_chain(m, MapSpec.const([400.0]), [400.0], 0.5, None, 20)
    assert (cert.orbit_sup, cert.orbit_stabilized) == (math.inf, False)


# --- picard ------------------------------------------------------------------

def test_picard_const_converges_immediately():
    # the orbit lands on b after one application; the double stopping rule
    # needs the following step (zero step modular) to certify it
    T = MapSpec.const([0.25, -0.5])
    tr = picard_solve(T, ModularSpec.p_power(1.0, 2), [9.0, 9.0], 1e-12, 50)
    assert tr.converged and tr.iterations == 2
    assert np.array_equal(tr.fixed_point, [0.25, -0.5])
    assert np.array_equal(tr.X[1], [0.25, -0.5])
    assert tr.residual[1] == 0.0


def test_picard_half_closed_form_steps():
    tr = picard_solve(MapSpec.half(), P1, [1.0], 1e-10, 100)
    assert tr.converged
    assert 30 <= tr.iterations <= 36
    assert abs(tr.fixed_point[0]) <= 1e-9
    for n in range(1, len(tr.X)):
        assert tr.step_mod[n] == 2.0 ** -n  # dyadic orbit is exact in floats


def test_picard_affine_geometric_error():
    T = MapSpec.affine([[0.5]], [1.0])
    tr = picard_solve(T, P1, [0.0], 1e-12, 100)
    assert tr.converged
    for n in range(20):
        assert abs(tr.X[n, 0] - 2.0) == 2.0 * 2.0 ** -n


def test_picard_records_step_residual_and_iterate():
    assert IterationTrace.dtype(3).names == ("step_mod", "residual", "x")
    tr = picard_solve(MapSpec.half(), P1, [1.0], 1e-10, 100)
    assert tr.table.dtype == IterationTrace.dtype(1)
    for x, residual in zip(tr.X[:, 0], tr.residual):
        assert residual == abs(x / 2.0 - x)
    assert tr.residual[-1] <= 1e-10


def test_picard_step_mod_decays_once_contraction_holds():
    for prob in builtin_problems():
        tr = picard_solve(prob.map, prob.modular, prob.x0, 1e-10, 10_000)
        assert tr.converged, prob.name
        prev = None
        for step_mod in tr.step_mod[1:]:
            if prev is not None and prev > 0.0:
                assert step_mod <= prob.c * prev * (1.0 + 1e-9) + 1e-300, prob.name
            prev = step_mod


def test_picard_divergence_carries_partial_trace():
    T = MapSpec.affine([[2.0]], [0.0])
    with pytest.raises(DivergenceError) as err:
        picard_solve(T, P1, [1.0], 1e-10, 5_000)
    trace = err.value.trace
    assert trace is not None and not trace.converged
    assert len(trace.X) > 10


@pytest.mark.parametrize("x0,step", [(1.0, 1), (128.0, 8)], ids=["first-block", "block-boundary"])
def test_picard_stop_on_an_underflowed_modular_is_not_convergence(x0, step):
    # under p = 1100 a step of 0.5 has modular 2**-1100, below the least
    # double: it reads 0 at a nonzero difference. From 128 the steps halve
    # from 64 and reach 0.5 at step 8, the first row of the second block
    with pytest.raises(ModularUnderflowError, match=f"underflow at step {step}:") as err:
        picard_solve(MapSpec.half(), ModularSpec.p_power(1100.0, 1), [x0], 1e-10, 100)
    trace = err.value.trace
    assert not trace.converged and trace.fixed_point is None and trace.iterations == step
    assert trace.step_mod[-1] == 0.0 and trace.X[-1][0] != trace.X[-2][0]


def test_picard_stop_on_a_zero_step_at_the_fixed_point_is_convergence():
    # the step from 1.25 has modular 1; then the orbit sits at 0.25 exactly
    tr = picard_solve(MapSpec.const([0.25]), ModularSpec.p_power(1100.0, 1), [1.25], 1e-10, 100)
    assert tr.converged and tr.iterations == 2 and tr.fixed_point[0] == 0.25


def test_picard_zero_iterations_records_initial_point_only():
    tr = picard_solve(MapSpec.half(), P1, [1.0], 1e-10, 0)
    assert not tr.converged
    assert len(tr.X) == len(tr.step_mod) == 1
    assert math.isnan(tr.step_mod[0])


def test_picard_rejects_bad_args():
    with pytest.raises(ValueError):
        picard_solve(MapSpec.half(), P1, [1.0], 0.0, 10)
    with pytest.raises(ValueError):
        picard_solve(MapSpec.half(), P1, [1.0], 1e-10, -1)


def test_picard_matches_direct_elimination():
    rng = np.random.default_rng(11)
    for dim in (2, 4, 8):
        T = random_affine_contraction(rng, dim, 0.8)
        m = ModularSpec.p_power(1.0, dim)
        tr = picard_solve(T, m, np.zeros(dim), 1e-10, 10_000)
        assert tr.converged
        x_hat = np.linalg.solve(np.eye(dim) - T.matrix, T.offset)
        assert m.evaluate(tr.fixed_point - x_hat) <= 1e-9


def test_picard_uniqueness_probe():
    for prob in builtin_problems():
        tr1 = picard_solve(prob.map, prob.modular, prob.x0, 1e-10, 10_000)
        far = np.asarray(prob.x0, dtype=float) + 1.0
        assert prob.modular.evaluate(far - prob.x0) >= 1.0
        tr2 = picard_solve(prob.map, prob.modular, far, 1e-10, 10_000)
        gap = prob.modular.evaluate(tr1.fixed_point - tr2.fixed_point)
        assert gap <= 1e-9, prob.name


# --- power index and power path ----------------------------------------------

def test_power_index_examples():
    assert power_index(0.4, 1.0) == 1
    assert power_index(0.9, 4.0) == 20
    assert power_index(0.0, 123.0) == 1


def test_power_index_rejects_unbounded_k():
    with pytest.raises(ValueError):
        power_index(0.5, math.inf)
    with pytest.raises(ValueError):
        power_index(1.0, 2.0)


@given(
    st.floats(min_value=0.01, max_value=0.99),
    st.floats(min_value=0.01, max_value=1e6),
)
def test_power_index_is_minimal(c, k):
    n = power_index(c, k)
    assert c**n * k < 0.5
    if n > 1:
        assert c ** (n - 1) * k >= 0.5


def test_solve_via_power_trivial_when_ck_small():
    # c * k = 0.4 * 1 < 1/2 already: identical to plain picard
    tr_pow = solve_via_power(MapSpec.half(), P1, 0.2, [1.0], 1e-10, 100, k=1.0)
    tr_pic = picard_solve(MapSpec.half(), P1, [1.0], 1e-10, 100)
    assert tr_pow.power == 1
    assert tr_pow.iterations == tr_pic.iterations
    assert np.array_equal(tr_pow.fixed_point, tr_pic.fixed_point)


def test_solve_via_power_half_p2():
    # k = 4 exactly, c = 0.5: power_index(0.5, 4) = 4
    tr = solve_via_power(MapSpec.half(), P2, 0.5, [1.0], 1e-10, 500)
    assert tr.power == 4 and tr.k_used == 4.0
    assert tr.converged
    assert P2.evaluate(tr.fixed_point) <= 1e-9


def test_solve_via_power_affine_p2():
    # empirical c = 0.25 under p = 2, k = 4: n = 2, fixed point (2)
    T = MapSpec.affine([[0.5]], [1.0])
    tr = solve_via_power(T, P2, 0.25, [0.0], 1e-10, 500)
    assert tr.power == 2
    assert tr.converged
    assert P2.evaluate(tr.fixed_point - np.array([2.0])) <= 1e-9


L1 = NamedFunctional("l1", lambda a: np.sum(np.abs(a), axis=-1), dim=1)


def test_solve_via_power_takes_the_callers_k():
    # l1 doubles exactly: k = 2, and c**2 k = 1/2 is not below 1/2
    tr = solve_via_power(MapSpec.half(), L1, 0.5, [1.0], 1e-10, 500, k=2.0)
    assert tr.converged and tr.k_used == 2.0 and tr.power == 3


@pytest.mark.parametrize("phi,reason", [(Phi.EXP_MINUS_ONE, "unbounded")])
def test_solve_via_power_without_k_needs_an_exact_finite_one(phi, reason):
    with pytest.raises(ValueError, match=reason):
        solve_via_power(MapSpec.half(), ModularSpec.orlicz(phi, 1), 0.5, [1.0], 1e-10, 500)


def test_solve_via_power_without_k_needs_a_closed_form():
    with pytest.raises(ValueError, match="pass k"):
        solve_via_power(MapSpec.half(), L1, 0.5, [1.0], 1e-10, 500)


def test_solve_via_power_takes_the_closed_form_k_of_u_log():
    # c = 0.5 with k = 4: c**3 k = 1/2 is not below 1/2, so the power is 4
    tr = solve_via_power(MapSpec.half(), ModularSpec.orlicz(Phi.U_LOG, 1), 0.5, [1.0], 1e-10, 500)
    assert tr.converged and tr.k_used == 4.0 and tr.power == 4


def test_solve_via_power_detects_false_claim_on_periodic_orbit():
    # x -> -x has a 2-cycle; claiming c = 0.3 under p = 1 gives k = 2, n = 2,
    # and T^2 = identity "converges" instantly at a non-fixed point
    T = MapSpec.affine([[-1.0]], [0.0])
    with pytest.raises(InconsistentContractionError):
        solve_via_power(T, P1, 0.3, [1.0], 1e-10, 50)


def test_power_and_plain_agree_on_builtin_problems():
    for prob in builtin_problems():
        tr_pic = picard_solve(prob.map, prob.modular, prob.x0, 1e-10, 20_000)
        tr_pow = solve_via_power(prob.map, prob.modular, prob.c, prob.x0, 1e-10, 20_000)
        assert tr_pic.converged and tr_pow.converged, prob.name
        gap = prob.modular.evaluate(tr_pic.fixed_point - tr_pow.fixed_point)
        assert gap <= 1e-9, prob.name


def test_cauchy_tail_bound_on_power_trace():
    # once the composite satisfies c**n k < 1/2, every recorded pair beyond
    # the first sub-eps step stays within eps (checked on stored iterates)
    for m, c in ((P1, 0.5), (P2, 0.25)):
        tr = solve_via_power(MapSpec.half(), m, c, [1.0], 1e-12, 1_000)
        for eps in (1e-2, 1e-4, 1e-6):
            below = np.flatnonzero(tr.step_mod[1:] < eps)
            if not below.size:
                continue
            tail = tr.X[below[0] + 2:]  # the rows n > n_eps
            for i, xi in enumerate(tail):
                for xj in tail[i + 1:]:
                    assert m.evaluate(xi - xj) < eps

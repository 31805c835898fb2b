"""Chain certificates: admissible alpha, order inequalities, Cauchy table."""

import math

import numpy as np
import pytest

from rhofix import (
    ALPHA_MARGIN,
    INVALID_FUNCTIONALS,
    InvalidModularError,
    MapSpec,
    ModularSpec,
    UnboundedOrbitError,
    build_chain,
    cauchy_modulus,
    picard_solve,
    verify_order_pairs,
)

P1 = ModularSpec.p_power(1.0, 1)
HALF = MapSpec.half()
AFFINE = MapSpec.affine([[0.5]], [1.0])


def _alpha(T, omega, c, N):
    """The level build_chain computes when it is given none."""
    return build_chain(P1, T, omega, c, None, N).alpha


def test_chain_alpha_fixed_base_point_degenerates():
    # omega = 0 is already fixed for halving: every orbit modular is 0
    assert _alpha(HALF, [0.0], 0.5, 10) == 0.0


def test_chain_alpha_half_unit_ratio():
    # rho(omega - T^n omega) = 1 - 2**-n = (1 - c**n): the ratio is exactly 1
    alpha = _alpha(HALF, [1.0], 0.5, 30)
    assert alpha == pytest.approx(1.0 + ALPHA_MARGIN, rel=1e-12)


def test_chain_alpha_affine_ratio_two():
    alpha = _alpha(AFFINE, [0.0], 0.5, 30)
    assert alpha == pytest.approx(2.0 * (1.0 + ALPHA_MARGIN), rel=1e-12)


def test_chain_alpha_unbounded_orbit_raises():
    T = MapSpec.affine([[3.0]], [0.0])
    with pytest.raises(UnboundedOrbitError):
        _alpha(T, [1e200], 0.5, 400)


@pytest.mark.parametrize("c,N", [(0.5, 30), (0.9, 40), (0.0, 5), (0.3, 1), (0.7, 0)])
def test_chain_alpha_is_the_least_admissible_level(c, N):
    # (1 + margin) * max_n rho(omega - T^n omega) / (1 - c**n) over n = 1..max(1, N),
    # written out per n; N = 0 still reads n = 1
    T, omega = AFFINE, [0.0]
    x, levels = np.array(omega), []
    for n in range(1, max(1, N) + 1):
        x = T.apply(x)
        levels.append(P1.evaluate(np.array(omega) - x) / (1.0 - c**n))
    assert _alpha(T, omega, c, N) == pytest.approx((1.0 + ALPHA_MARGIN) * max(levels), rel=1e-15)


def test_build_chain_singleton_is_vacuous():
    cert = build_chain(P1, HALF, [1.0], 0.5, 1.0, 0)
    assert cert.all_pass
    assert cert.pair_check == math.inf
    assert len(cert.X) == 1


def test_build_chain_half_passes():
    cert = build_chain(P1, HALF, [1.0], 0.5, None, 30)
    assert cert.all_pass
    assert cert.pair_check > 0.0
    assert cert.max_check > 0.0


def test_build_chain_halved_alpha_fails():
    alpha = _alpha(HALF, [1.0], 0.5, 30)
    cert = build_chain(P1, HALF, [1.0], 0.5, alpha / 2.0, 30)
    assert not cert.all_pass
    assert cert.pair_check < 0.0


def test_alpha_levels_strictly_decrease():
    cert = build_chain(P1, HALF, [1.0], 0.5, 1.0, 20)
    alphas = cert.alphas
    assert np.all(np.diff(alphas) < 0.0)


def test_corrupted_node_reports_offending_pair():
    cert = build_chain(P1, HALF, [1.0], 0.5, None, 20)
    cert.X[5] += 1.0
    check = verify_order_pairs(cert, P1)
    assert check.worst_slack < 0.0
    assert 5 in check.index


def test_maximum_element_fixed_omega():
    cert = build_chain(P1, HALF, [0.0], 0.5, 0.0, 10)
    # omega already fixed: limit candidate is omega and every rho is 0
    assert (cert.max_check, cert.worst_node) == (0.0, 0)
    assert cert.all_pass


def test_node_modular_vanishing_off_zero_raises_naming_the_node():
    dead_zone = INVALID_FUNCTIONALS["dead_zone"][0]  # max(|u| - 1, 0)
    # x_n = 4 * 2**-n against x_10 ~ 0.004: nodes 0 and 1 sit above the dead zone
    with pytest.raises(InvalidModularError, match="at node n = 2, a nonzero difference"):
        build_chain(dead_zone, HALF, [4.0], 0.5, 10.0, 10)
    with pytest.raises(InvalidModularError, match="at node n = 1,"):
        build_chain(ModularSpec.p_power(1100.0, 2), HALF, [1.0, 0.7], 0.5, None, 30)
    # a zero modular at a zero difference is no fault: the limit node itself, a fixed omega
    cert = build_chain(dead_zone, HALF, [0.0], 0.5, None, 10)
    assert cert.all_pass and np.array_equal(cert.slacks, np.zeros(11))


def test_maximum_element_closed_forms():
    cert = build_chain(P1, HALF, [1.0], 0.5, None, 30)
    # rho(x_n - limit) = 2**-n - 2**-30 <= alpha_n with alpha > 1
    assert cert.max_check >= 0.0
    assert np.array_equal(cert.slacks, cert.alphas - P1.evaluate_batch(cert.X - cert.X[-1]))
    assert cert.max_check == cert.slacks[cert.worst_node] == cert.slacks.min()

    cert2 = build_chain(P1, AFFINE, [0.0], 0.5, None, 30)
    assert cert2.max_check >= 0.0
    assert cert2.limit_candidate[0] == pytest.approx(2.0, abs=1e-8)


def test_telescoping_slack_identity():
    # for the halving chain the pairwise slack is exactly
    # margin * (c**p - c**q) (base ratio 1); verified to a few ulps
    cert = build_chain(P1, HALF, [1.0], 0.5, None, 30)
    rho = P1.evaluate
    for q in range(1, 31):
        for p in range(q):
            xp, ap = cert.X[p], cert.alphas[p]
            xq, aq = cert.X[q], cert.alphas[q]
            slack = (ap - aq) - rho(xp - xq)
            expected = ALPHA_MARGIN * (0.5**p - 0.5**q)
            assert abs(slack - expected) <= 8.0 * np.spacing(ap - aq)


def test_cauchy_modulus_examples():
    cert = build_chain(P1, HALF, [1.0], 0.5, 1.0, 40)
    table = dict(cauchy_modulus(cert))
    assert table[1e-3] == 10  # 2**-10 < 1e-3 <= 2**-9

    # eps above alpha: index 0 qualifies immediately
    cert_small = build_chain(P1, HALF, [1.0], 0.5, 0.05, 40)
    assert dict(cauchy_modulus(cert_small))[1e-1] == 0

    # c = 0 collapses the chain at index 1
    cert_const = build_chain(P1, MapSpec.const([0.3]), [1.0], 0.0, 1.0, 5)
    rows = dict(cauchy_modulus(cert_const))
    assert all(rows[eps] == 1 for eps in rows)


def test_cauchy_modulus_unreached_eps_is_none():
    cert = build_chain(P1, HALF, [1.0], 0.5, 1.0, 5)
    table = dict(cauchy_modulus(cert))
    assert table[1e-8] is None  # 2**-5 is still above 1e-8


def test_certificate_soundness_direct_recheck():
    cert = build_chain(P1, HALF, [1.0], 0.5, None, 30)
    assert cert.all_pass
    for eps, n_eps in cauchy_modulus(cert):
        if n_eps is None:
            continue
        xs = cert.X[n_eps:]
        for i in range(len(xs)):
            for j in range(i + 1, len(xs)):
                assert P1.evaluate(xs[i] - xs[j]) < eps


def test_monotone_consistency_in_chain_length():
    for N in (5, 10, 20, 40):
        cert = build_chain(P1, AFFINE, [0.0], 0.5, None, N)
        assert cert.all_pass, N


def test_limit_candidate_agrees_with_solver():
    for T, omega, c in ((HALF, [1.0], 0.5), (AFFINE, [0.0], 0.5)):
        cert = build_chain(P1, T, omega, c, None, 40)
        tr = picard_solve(T, P1, omega, 1e-10, 1_000)
        assert tr.converged
        assert P1.evaluate(cert.limit_candidate - tr.fixed_point) <= 1e-9


def test_build_chain_validates_args():
    with pytest.raises(ValueError):
        build_chain(P1, HALF, [1.0], 0.5, -1.0, 5)
    with pytest.raises(ValueError):
        build_chain(P1, HALF, [1.0], 1.0, 1.0, 5)
    with pytest.raises(ValueError):
        build_chain(P1, HALF, [1.0], 0.5, None, -1)

"""Batched checkers against scalar reference loops written out here.

Each reference redraws the checker's points from a PointSampler with the
same seed, in the order the checker consumes the stream (basis probes,
then every x, then every y), and evaluates one pair at a time with the
scalar `evaluate` and a per-point `apply`.
"""

import numpy as np
import pytest

from rhofix import (
    MAX_WITNESSES,
    MapSpec,
    ModularSpec,
    NamedFunctional,
    Phi,
    PointSampler,
    build_chain,
    slack_tol,
    verify_contraction,
    verify_order_pairs,
    verify_s_contraction,
)

DIM = 3
FAMILIES = [
    ModularSpec.p_power(0.5, DIM),
    ModularSpec.p_power(1.0, DIM),
    ModularSpec.p_power(2.0, DIM),
    ModularSpec.weighted_sum(2.0, [0.5, 1.5, 3.0]),
    ModularSpec.orlicz(Phi.POWER, DIM, p=2.0),
    ModularSpec.orlicz(Phi.EXP_MINUS_ONE, DIM),
    ModularSpec.orlicz(Phi.U_LOG, DIM),
    NamedFunctional("l1", lambda x: float(np.sum(np.abs(x))), dim=DIM),
]
IDS = ["ppower-0.5", "ppower-1", "ppower-2", "weighted_sum", "orlicz-power", "orlicz-exp",
       "orlicz-ulog", "named"]

# a contraction whose pairwise ratio varies with the pair, so a claim taken
# from the ratios themselves holds on some pairs and fails on others
MAP = MapSpec.logistic_damped(0.9)
TRIALS = 300


def reference_pairs(m, scale, seed):
    """Scalar loop: the rows, and per pair rho(x - y) and rho(scale (Tx - Ty))."""
    sampler = PointSampler(DIM, seed)
    X = np.vstack((np.eye(DIM), sampler.points(TRIALS)))
    Y = np.vstack((np.zeros((DIM, DIM)), sampler.points(TRIALS)))
    d = [m.evaluate(x - y) for x, y in zip(X, Y)]
    lhs = [m.evaluate(scale * (MAP.apply(x) - MAP.apply(y))) for x, y in zip(X, Y)]
    return X, Y, d, lhs


def split_claim(d, lhs):
    """A factor that splits the pairs: the median of the finite ratios,
    strictly between the least and the greatest of them."""
    ratios = [b / a for a, b in zip(d, lhs) if 0.0 < a < np.inf and np.isfinite(b)]
    claim = float(np.median(ratios))
    assert min(ratios) < claim < max(ratios)
    return claim


def assert_matches_reference(rep, X, Y, d, lhs, factor):
    bad, best = [], np.nan
    for i, (a, b) in enumerate(zip(d, lhs)):
        rhs = factor * a if np.isfinite(a) else (np.inf if factor > 0 else 0.0)
        if b > rhs + slack_tol(b, rhs):
            bad.append(i)
        if 0.0 < a < np.inf and np.isfinite(b):
            best = np.fmax(best, b / a)
    assert 0 < len(bad) < len(X)  # the claim splits the pairs
    assert abs(rep.max_ratio - best) <= slack_tol(best)
    # every violation counted, the first MAX_WITNESSES kept as witnesses
    assert rep.n_violations == len(bad)
    assert len(rep.violations) == min(len(bad), MAX_WITNESSES)
    for v, i in zip(rep.violations, bad):
        assert np.array_equal(v.points[0], X[i]) and np.array_equal(v.points[1], Y[i])


@pytest.mark.parametrize("m", FAMILIES, ids=IDS)
def test_contraction_matches_scalar_loop(m):
    pairs = reference_pairs(m, 1.0, 17)
    claim = split_claim(*pairs[2:])
    rep = verify_contraction(MAP, m, claim, PointSampler(DIM, 17), TRIALS)
    assert_matches_reference(rep, *pairs, claim)


@pytest.mark.parametrize("m", FAMILIES, ids=IDS)
def test_scaled_form_matches_scalar_loop(m):
    # rho(1.5 (Tx - Ty)) <= k**1 rho(x - y): the same check on 1.5 T
    pairs = reference_pairs(m, 1.5, 18)
    k = split_claim(*pairs[2:])
    rep = verify_s_contraction(MAP, m, 1.5, k, 1.0, PointSampler(DIM, 18), TRIALS)
    assert_matches_reference(rep, *pairs, k)


@pytest.mark.parametrize("m", FAMILIES, ids=IDS)
def test_order_pairs_match_double_loop(m):
    # 40 nodes; half the admissible level, so the worst slack is negative
    cert = build_chain(m, MAP, [1.0, -2.0, 0.5], 0.9, None, 39)
    cert = build_chain(m, MAP, [1.0, -2.0, 0.5], 0.9, cert.alpha / 2.0, 39)
    assert len(cert.X) == 40
    worst, where = np.inf, None
    for q in range(1, len(cert.X)):
        xq, aq = cert.X[q], cert.alphas[q]
        for p in range(q):
            xp, ap = cert.X[p], cert.alphas[p]
            slack = (ap - aq) - m.evaluate(xp - xq)
            if slack < worst:
                worst, where = slack, (p, q)
    check = verify_order_pairs(cert, m)
    assert worst < 0.0
    assert check.worst_slack == worst and check.index == where

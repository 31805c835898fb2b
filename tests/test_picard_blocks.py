"""Block Picard against the per-step loop it replaced, bit for bit.

`_reference_picard` below is the earlier solver loop written out here: one
`apply_power` and one 3-row batch rho call (step, residual, doubled orbit)
per step. The solver now walks the orbit in blocks and evaluates each
block's modulars in one batch call, which must change no recorded bit:
every trace field, the stopping step, the divergence message and the
partial trace. The first block has 8 rows; each later one is sized from
the decay of the residuals before it, so the tests read the boundaries off
the schedule that `MapSpec.orbit` records, and stop runs on a block's last
row and on the next block's first row.
"""

import math

import numpy as np
import pytest

from rhofix import (
    DimensionMismatch,
    DivergenceError,
    InconsistentContractionError,
    IterationTrace,
    MapSpec,
    ModularSpec,
    NamedFunctional,
    Phi,
    UnboundedOrbitError,
    build_chain,
    orbit_bound_check,
    picard_solve,
    power_index,
    solve_via_power,
)
from rhofix.modular import INF, as_point
from rhofix.solver import _BLOCK_MIN

DIM = 3
X0 = [1.0, -2.0, 0.5]
FAMILIES = [
    ModularSpec.p_power(0.5, DIM),
    ModularSpec.p_power(1.0, DIM),
    ModularSpec.p_power(2.0, DIM),
    ModularSpec.weighted_sum(2.0, [0.5, 1.5, 3.0]),
    ModularSpec.orlicz(Phi.POWER, DIM, p=2.0),
    ModularSpec.orlicz(Phi.EXP_MINUS_ONE, DIM),
    ModularSpec.orlicz(Phi.U_LOG, DIM),
    NamedFunctional("l1", lambda x: float(np.sum(np.abs(x))), dim=DIM),
    NamedFunctional("l1-batched", lambda a: np.sum(np.abs(a), axis=-1), dim=DIM, batched=True),
]
FAMILY_IDS = ["ppower-0.5", "ppower-1", "ppower-2", "weighted_sum", "orlicz-power",
              "orlicz-exp", "orlicz-ulog", "named", "named-batched"]
MAPS = [
    MapSpec.affine([[0.3, -0.2, 0.1], [0.25, 0.35, -0.1], [0.0, 0.2, 0.4]], [0.5, -1.0, 0.25]),
    MapSpec.logistic_damped(0.9),
    MapSpec.half(),
    MapSpec.const([0.7, -0.3, 0.1]),
]
MAP_IDS = ["affine", "logistic", "half", "const"]
P1 = ModularSpec.p_power(1.0, 1)


@pytest.mark.parametrize("n", [0, 1, 2, 7, 138])
@pytest.mark.parametrize("T", MAPS + [MapSpec.affine(2.0 * np.eye(DIM), [0.0, 0.0, 0.0])],
                         ids=MAP_IDS + ["expanding"])
def test_apply_power_is_n_fold_apply_bit_for_bit(T, n):
    batch = np.array([X0, [1e300, -1e-300, 0.0], [math.inf, math.nan, -0.0]])
    for x in (np.array(X0), batch):
        want = x
        for _ in range(n):
            want = T.apply(want)
        assert np.array_equal(T.apply_power(x, n).view(np.int64), want.view(np.int64))


EXPANDING = MapSpec.affine(2.0 * np.eye(DIM), [0.0, 0.0, 0.0])


@pytest.mark.parametrize("power", [1, 2, 138])
@pytest.mark.parametrize("T", MAPS + [EXPANDING], ids=MAP_IDS + ["expanding"])
def test_orbit_is_rowwise_apply_power_bit_for_bit(T, power):
    """`orbit` picks the step once and runs it per row; each row must equal
    one `apply_power` of the row before, down to the sign of zero and the
    nan payload, also on rows that overflow to inf and nan. The suite turns
    any RuntimeWarning into an error, so the orbit raises none either."""
    for x0 in (X0, [1e300, -1e-300, 0.0], [math.inf, math.nan, -0.0]):
        want = [np.array(x0)]
        for _ in range(6):
            want.append(T.apply_power(want[-1], power))
        got = T.orbit(np.array(x0), 6, power)
        assert np.array_equal(got.view(np.int64), np.array(want).view(np.int64))


@pytest.mark.parametrize("T", [MAPS[0], MAPS[3]], ids=["affine", "const"])
def test_wrong_width_point_raises_dimension_mismatch(T):
    for x in (np.ones(DIM + 1), np.ones(DIM - 1), np.ones((2, DIM + 1))):
        for call in (lambda: T.apply(x), lambda: T.apply_power(x, 1),
                     lambda: T.apply_power(x, 7), lambda: T.orbit(x.ravel(), 3, 2)):
            with pytest.raises(DimensionMismatch, match=f"map is {DIM}-dimensional"):
                call()


def _reference_picard(T, m, x0, tol, max_iter, power):
    """The per-step loop: one 3-row batch rho call per step."""
    rho = m.evaluate_batch
    x = prev = as_point(x0, m.dim).copy()
    steps = []

    def record(**kwargs):
        X, step_mod, residual, doubled = (np.array(col) for col in zip(*steps))
        return IterationTrace(X, step_mod, residual, doubled, power=power, **kwargs)

    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(max_iter + 1):
            fx = T.apply_power(x, power)
            ok = bool(np.all(np.isfinite(fx)))
            rows = np.stack((x - prev, fx - x if ok else np.zeros_like(x), 2.0 * x))
            step_mod, residual, doubled = (float(v) for v in rho(rows))
            step_mod = step_mod if n else math.nan
            residual = residual if ok else INF
            steps.append((x, step_mod, residual, doubled))
            if step_mod <= tol and residual <= tol:
                return record(converged=True, fixed_point=x.copy())
            if not ok and max_iter:
                raise DivergenceError(f"non-finite iterate at step {n + 1}", trace=record())
            prev, x = x, fx
    return record()


def _reference_power(T, m, c, x0, tol, max_iter, k):
    """The power path around the reference loop, as `solve_via_power` does it."""
    trace = _reference_picard(T, m, x0, tol, max_iter, power_index(c, k))
    trace.k_used = float(k)
    if trace.converged:
        x_star = trace.fixed_point
        res = m.evaluate(T.apply(x_star) - x_star)
        if res > tol:
            raise InconsistentContractionError(
                f"composite fixed point is not fixed for the map itself "
                f"(residual {res:.3e} > tol {tol:.3e}); the claimed factor c = {c} is false",
                trace=trace,
            )
    return trace


def _outcome(fn, *args, **kwargs):
    """(trace, error text): the returned trace, or the one an error carries."""
    try:
        return fn(*args, **kwargs), None
    except (DivergenceError, InconsistentContractionError) as exc:
        return exc.trace, f"{type(exc).__name__}: {exc}"


def assert_same(got, want):
    (tg, eg), (tw, ew) = got, want
    assert eg == ew
    assert (tg.converged, tg.power, tg.k_used, tg.iterations) == (
        tw.converged, tw.power, tw.k_used, tw.iterations)
    for field in ("X", "step_mod", "residual", "doubled_orbit"):
        va, vb = getattr(tg, field), getattr(tw, field)
        assert va.shape == vb.shape and va.tobytes() == vb.tobytes(), field
    if tw.fixed_point is None:
        assert tg.fixed_point is None
    else:
        assert tg.fixed_point.tobytes() == tw.fixed_point.tobytes()


def _plain(T, m, x0, tol, max_iter):
    return (_outcome(picard_solve, T, m, x0, tol, max_iter),
            _outcome(_reference_picard, T, m, x0, tol, max_iter, 1))


def _power(T, m, c, x0, tol, max_iter, k):
    return (_outcome(solve_via_power, T, m, c, x0, tol, max_iter, k=k),
            _outcome(_reference_power, T, m, c, x0, tol, max_iter, k))


# --- every family and map -----------------------------------------------------

@pytest.mark.parametrize("T", MAPS, ids=MAP_IDS)
@pytest.mark.parametrize("m", FAMILIES, ids=FAMILY_IDS)
def test_plain_path_matches_reference(m, T):
    got, want = _plain(T, m, X0, 1e-10, 10_000)
    assert_same(got, want)
    assert want[0].converged


@pytest.mark.parametrize("T", MAPS, ids=MAP_IDS)
@pytest.mark.parametrize("m", FAMILIES, ids=FAMILY_IDS)
def test_power_path_matches_reference(m, T):
    # c = 0.9 with k = 2 gives the composite T^14
    got, want = _power(T, m, 0.9, X0, 1e-10, 10_000, 2.0)
    assert got[0].power == 14
    assert_same(got, want)


@pytest.mark.parametrize("T", MAPS, ids=MAP_IDS)
@pytest.mark.parametrize("m", FAMILIES, ids=FAMILY_IDS)
def test_residual_is_next_step_modular(m, T):
    tr = picard_solve(T, m, X0, 1e-10, 10_000)
    assert tr.converged
    assert tr.residual[:-1].tobytes() == tr.step_mod[1:].tobytes()


def test_trace_rows_are_blocks_of_one_orbit():
    T = MapSpec.logistic_damped(0.95)
    tr = picard_solve(T, FAMILIES[1], X0, 1e-10, 10_000)
    assert tr.converged and tr.iterations > 256
    x = np.asarray(X0)
    for row in tr.X:
        assert row.tobytes() == x.tobytes()
        x = T.apply(x)
    assert tr.fixed_point.base is None  # a copy, not a view into a block


# --- block boundaries and max_iter --------------------------------------------

# stops at assorted steps (the boundaries of an earlier fixed schedule);
# the recorded-boundary tests below stop at the current schedule's
BOUNDARY_STEPS = [1, 6, 7, 8, 9, 22, 23, 24, 25, 55, 56, 57, 119, 120, 247, 248, 503, 504,
                  759, 760, 1015, 1016]


@pytest.mark.parametrize("n", BOUNDARY_STEPS)
def test_convergence_around_block_boundaries(n):
    # halving under p = 1 from 1: step_mod 2**-k, residual 2**-(k+1), so
    # tol 2**-n stops exactly at step n
    got, want = _plain(MapSpec.half(), P1, [1.0], 2.0**-n, 10_000)
    assert want[0].iterations == n and want[0].converged
    assert_same(got, want)


@pytest.mark.parametrize("n", [1, 7, 8, 9, 23, 24, 25, 119, 120, 300])
def test_power_path_convergence_around_block_boundaries(n):
    # c = 0.5, k = 2 picks T^3: step_mod 7 * 2**-3k, so tol 7 * 2**-3n stops at n
    got, want = _power(MapSpec.half(), P1, 0.5, [1.0], 7.0 * 2.0 ** (-3 * n), 10_000, 2.0)
    assert want[0].power == 3 and want[0].iterations == n
    assert_same(got, want)


def _recorded_blocks(monkeypatch) -> list[int]:
    """A list that collects the rows of every `MapSpec.orbit` call from now on."""
    blocks, orbit = [], MapSpec.orbit

    def recorded(self, x, steps, power=1):
        blocks.append(steps)
        return orbit(self, x, steps, power)

    monkeypatch.setattr(MapSpec, "orbit", recorded)
    return blocks


def _stops_at_recorded_boundaries(monkeypatch, run, probe_n):
    """Stop `run(n)` (a (got, want) pair that stops at row n) on each block's
    last row and the next block's first row, as recorded in a run to probe_n."""
    blocks = _recorded_blocks(monkeypatch)
    run(probe_n)
    last_rows = np.cumsum(blocks)[:-1] - 1
    assert len(last_rows) >= 2
    for b in last_rows.tolist():
        for n in (b, b + 1):
            blocks.clear()
            got, want = run(n)
            assert want[0].iterations == n and want[0].converged
            assert_same(got, want)
            # the stopping block ends at row b, or starts at row b + 1
            assert (sum(blocks) - 1 if n == b else sum(blocks[:-1])) == n


def test_convergence_at_recorded_block_boundaries(monkeypatch):
    # halving from 1 under p = 1: tol 2**-n stops exactly at step n
    _stops_at_recorded_boundaries(
        monkeypatch, lambda n: _plain(MapSpec.half(), P1, [1.0], 2.0**-n, 10_000), 1016)


def test_power_path_convergence_at_recorded_block_boundaries(monkeypatch):
    # the composite T^3: tol 7 * 2**-3n stops exactly at step n
    _stops_at_recorded_boundaries(
        monkeypatch,
        lambda n: _power(MapSpec.half(), P1, 0.5, [1.0], 7.0 * 2.0 ** (-3 * n), 10_000, 2.0), 340)


@pytest.mark.parametrize("power", [1, 2])
def test_blocks_map_few_rows_past_the_stop(monkeypatch, power):
    # a slow solve of thousands of rows: lam = 0.995 at d = 16 under p = 1,
    # plain or on T^2 (c = lam / 2 with k = 2). Sized blocks stop near the
    # stopping row; a last block of 256 rows can overshoot by up to 255
    T, m = MapSpec.logistic_damped(0.995), ModularSpec.p_power(1.0, 16)
    x0 = np.random.default_rng(1).uniform(-1.0, 1.0, 16)
    blocks = _recorded_blocks(monkeypatch)
    if power == 1:
        tr = picard_solve(T, m, x0, 1e-10, 100_000)
    else:
        tr = solve_via_power(T, m, 0.4975, x0, 1e-10, 100_000, k=2.0)
    assert tr.converged and tr.power == power and tr.iterations > 1_000
    needed = tr.iterations + 1  # every kept row and the image that gives its residual
    past = sum(blocks) - needed
    assert 0 <= past <= max(_BLOCK_MIN, blocks[-1] // 8)
    assert sum(blocks) <= 1.03 * needed


MAX_ITERS = [0, 1, 7, 8, 9, 255, 256, 257]


@pytest.mark.parametrize("max_iter", MAX_ITERS)
def test_max_iter_caps_the_trace(max_iter):
    got, want = _plain(MapSpec.logistic_damped(0.999), FAMILIES[1], X0, 1e-10, max_iter)
    assert not want[0].converged and want[0].iterations == max_iter
    assert len(want[0].X) == max_iter + 1
    assert_same(got, want)


@pytest.mark.parametrize("max_iter", MAX_ITERS)
def test_max_iter_at_and_around_convergence(max_iter):
    for n in (max_iter - 1, max_iter, max_iter + 1):
        if n >= 1:
            assert_same(*_plain(MapSpec.half(), P1, [1.0], 2.0**-n, max_iter))


@pytest.mark.parametrize("max_iter", MAX_ITERS)
def test_max_iter_with_divergence_on_the_last_image(max_iter):
    # x -> 2**k x from 1 leaves the space at step ceil(1024 / k)
    for k in (205, 147, 128, 64, 43, 41, 5, 4):
        got, want = _plain(MapSpec.affine([[2.0**k]], [0.0]), P1, [1.0], 1e-10, max_iter)
        assert_same(got, want)
    # T x0 itself is non-finite: max_iter = 0 records x0 alone and raises nothing
    got, want = _plain(MapSpec.affine([[1e10]], [0.0]), P1, [1e300], 1e-10, max_iter)
    assert (want[1] is None) == (max_iter == 0)
    assert want[0].residual[0] == INF
    assert_same(got, want)


# --- divergence and the inconsistent-claim path --------------------------------

@pytest.mark.parametrize("k,step", [(205, 5), (147, 7), (128, 8), (64, 16), (43, 24),
                                    (41, 25), (5, 205), (1, 1024)])
def test_divergence_mid_block(k, step):
    got, want = _plain(MapSpec.affine([[2.0**k]], [0.0]), P1, [1.0], 1e-10, 5_000)
    assert want[1] == f"DivergenceError: non-finite iterate at step {step}"
    assert want[0].iterations == step - 1 and want[0].residual[-1] == INF
    assert_same(got, want)


def test_divergence_past_overflow_raises_no_warning():
    # after the overflow the block keeps mapping inf - inf = nan rows; the
    # RuntimeWarning filter of the test suite turns any warning into a failure
    T = MapSpec.affine([[2.0**64, -(2.0**64)], [1.0, 2.0**64]], [0.0, 0.0])
    m = ModularSpec.orlicz(Phi.EXP_MINUS_ONE, 2)
    got, want = _plain(T, m, [1.0, -1.0], 1e-10, 5_000)
    assert want[1].startswith("DivergenceError")
    assert_same(got, want)
    got, want = _plain(MapSpec.logistic_damped(1e200), P1, [1e200], 1e-10, 5_000)
    assert_same(got, want)


def test_power_path_divergence_matches_reference():
    got, want = _power(MapSpec.affine([[2.0**20]], [0.0]), P1, 0.9, [1.0], 1e-10, 5_000, 2.0)
    assert want[1].startswith("DivergenceError")
    assert_same(got, want)


def test_inconsistent_contraction_matches_reference():
    # x -> -x: T^2 is the identity and "converges" at a point T does not fix
    got, want = _power(MapSpec.affine([[-1.0]], [0.0]), P1, 0.3, [1.0], 1e-10, 50, 2.0)
    assert want[1].startswith("InconsistentContractionError")
    assert_same(got, want)


# --- chain orbits -------------------------------------------------------------

def _reference_orbit_error(omega, factor, steps):
    """The message the step-by-step chain orbit raised, or None."""
    x = np.asarray(omega, dtype=float)
    for n in range(1, steps + 1):
        with np.errstate(over="ignore"):
            x = x * factor
        if not np.all(np.isfinite(x)):
            return f"orbit left the space at step {n}"
    return None


@pytest.mark.parametrize("omega,factor,step", [([1.0], 2.0**64, 16), ([1.0], 2.0**43, 24),
                                               ([1e200], 1e100, 2), ([1e300], 1e10, 1)])
def test_chain_orbits_leave_the_space_at_the_same_step(omega, factor, step):
    T = MapSpec.affine([[factor]], [0.0])
    for N in (0, 1, 2, step - 1, step, 30):
        walked = max(2, N)
        want = _reference_orbit_error(omega, factor, walked)
        if want is None:
            build_chain(P1, T, omega, 0.5, 1.0, N)
        else:
            assert want == f"orbit left the space at step {step}"
            with pytest.raises(UnboundedOrbitError, match=f"^{want}$"):
                build_chain(P1, T, omega, 0.5, None, N)
        if N >= 2:
            bound = orbit_bound_check(T, P1, omega, N)
            if _reference_orbit_error(omega, factor, N) is not None:
                assert bound == (math.inf, False)
            else:
                assert math.isfinite(bound.sup)


def test_orbit_primitive_rows_and_power():
    T = MapSpec.affine([[0.5]], [1.0])
    X = T.orbit([0.0], 5, power=2)
    assert X.shape == (6, 1)
    x = np.zeros(1)
    for row in X:
        assert row.tobytes() == x.tobytes()
        x = T.apply(T.apply(x))
    assert T.orbit([3.0], 0).tolist() == [[3.0]]
    # non-finite rows are kept and mapped on, never raised
    Y = MapSpec.affine([[2.0**600]], [0.0]).orbit([1.0], 4)
    assert Y[1, 0] == 2.0**600 and np.all(np.isinf(Y[2:]))

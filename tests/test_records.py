"""The trace and certificate records: orbit rows X plus named float columns.

A trace is its rows `X` and one column per modular, all of one length, and
is read by those columns. The certificate's `omega`, `alpha` and
`limit_candidate` are read off its record, bit for bit, and the record is
all a solve or a chain keeps.
"""

import math
import tracemalloc

import numpy as np
import pytest

from rhofix import DivergenceError, MapSpec, ModularSpec, build_chain, picard_solve

P1 = ModularSpec.p_power(1.0, 3)
HALF = MapSpec.half()
OMEGA = [1.0, -2.0, 0.5]


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


def _converged():
    return picard_solve(MapSpec.logistic_damped(0.5), ModularSpec.p_power(2.0, 4),
                        [1.0, -0.5, 0.25, 3.0], 1e-12, 10_000)


def _diverged():
    # x -> 2x under the p = 2 modular: rho overflows to +inf long before x does
    with pytest.raises(DivergenceError) as err:
        picard_solve(MapSpec.affine(2.0 * np.eye(2), [0.0, 0.0]), ModularSpec.p_power(2.0, 2),
                     [1.0, -3.0], 1e-10, 5_000)
    return err.value.trace


def _zero_iterations():
    return picard_solve(HALF, P1, OMEGA, 1e-10, 0)


TRACES = {"converged": _converged, "diverged": _diverged, "max_iter_0": _zero_iterations}
COLUMNS = ("step_mod", "residual")


@pytest.mark.parametrize("case", sorted(TRACES))
def test_trace_columns_are_float64_rows_of_the_record(case):
    tr = TRACES[case]()
    assert tr.X.ndim == 2 and tr.X.dtype == np.float64
    for name in COLUMNS:
        col = getattr(tr, name)
        assert col.shape == (len(tr.X),) == (tr.iterations + 1,) and col.dtype == np.float64
    assert math.isnan(tr.step_mod[0])  # no step into row 0


def test_divergence_partial_trace_is_whole():
    tr = _diverged()
    assert [len(getattr(tr, name)) for name in COLUMNS] == [len(tr.X)] * len(COLUMNS)
    assert tr.X.shape[1] == 2 and tr.iterations == len(tr.X) - 1
    assert tr.residual[-1] == math.inf and not tr.converged and tr.fixed_point is None


@pytest.mark.parametrize("c,alpha,N", [(0.5, None, 30), (0.9, 1.7, 40), (0.0, 1.0, 5),
                                       (0.3, 2.0, 0), (0.7, None, 1)])
def test_alphas_are_the_levels_bit_for_bit(c, alpha, N):
    cert = build_chain(P1, HALF, OMEGA, c, alpha, N)
    if alpha is None:
        alpha = cert.alpha
    assert np.array_equal(_bits(cert.alphas), _bits([c**n * alpha for n in range(N + 1)]))


@pytest.mark.parametrize("N", [0, 1, 30])
def test_certificate_ends_are_read_off_the_record(N):
    cert = build_chain(P1, HALF, OMEGA, 0.5, None, N)
    assert cert.length == len(cert.X) - 1 == len(cert.alphas) - 1 == N
    assert cert.omega.tobytes() == cert.X[0].tobytes() == np.array(OMEGA).tobytes()
    assert type(cert.alpha) is float and _bits(cert.alpha) == _bits(cert.alphas[0])
    assert cert.limit_candidate.tobytes() == cert.X[-1].tobytes()
    assert cert.X.base is not None  # a view of the certificate's table
    assert cert.table.base is None  # the nodes are a copy, not a slice of the orbit
    for name in ("omega", "alpha", "limit_candidate"):
        with pytest.raises(AttributeError):
            setattr(cert, name, None)


def _retained(fn):
    """(result, bytes still allocated when fn returns), after a warm-up call."""
    fn()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()


def test_solve_retains_only_its_record():
    m = ModularSpec.p_power(1.0, 4)
    tr, retained = _retained(lambda: picard_solve(MapSpec.logistic_damped(0.995), m,
                                                  [1.0, -0.5, 0.25, 3.0], 1e-10, 10_000))
    assert tr.converged and len(tr.X) == 2757
    assert retained <= 1.1 * sum(getattr(tr, name).nbytes for name in ("X",) + COLUMNS)


def test_chain_retains_only_its_record():
    m = ModularSpec.p_power(1.0, 4)
    cert, retained = _retained(lambda: build_chain(m, MapSpec.logistic_damped(0.995), [1.0] * 4,
                                                   0.995, None, 2000))
    assert cert.length == 2000
    # the record: the nodes, their levels and their maximum-element slacks
    assert retained <= 1.1 * (cert.X.nbytes + cert.alphas.nbytes + cert.slacks.nbytes)

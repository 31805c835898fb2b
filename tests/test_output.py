"""Trace and certificate CSVs: byte identity with a csv.writer reference and
bit-exact round trips."""

import csv
import math
import tracemalloc

import numpy as np
import pytest

from rhofix import (
    DivergenceError,
    IterationTrace,
    MapSpec,
    ModularSpec,
    TraceStep,
    build_chain,
    picard_solve,
)
from rhofix.chain import ChainCertificate, node_slacks
from rhofix.output import (
    read_certificate,
    read_trace,
    reverify_trace,
    write_certificate,
    write_trace,
)

EXTREMES = [-0.0, 5e-324, 1.7976931348623157e308]


def _reference_rows(path, header, rows):
    """The csv.writer writer: the integer n, then each float via format(v, ".17g")."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for n, *values in rows:
            w.writerow([n] + [format(float(v), ".17g") for v in values])


def _reference_trace(path, trace):
    dim = trace.steps[0].x.size if trace.steps else 0
    _reference_rows(path, ["n", "step_mod", "residual", "doubled_orbit"]
                    + [f"x{i}" for i in range(dim)],
                    ([s.n, s.step_mod, s.residual, s.doubled_orbit, *s.x] for s in trace.steps))


def _reference_certificate(path, cert, m):
    slacks = node_slacks(cert, m)
    _reference_rows(path, ["n", "alpha", "slack"] + [f"x{i}" for i in range(cert.omega.size)],
                    ([n, a, slacks[n], *x] for n, (x, a) in enumerate(cert.nodes)))


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


def _extremes():
    x = np.array(EXTREMES)
    return IterationTrace(steps=[
        TraceStep(0, x, math.nan, math.inf, -math.inf),
        TraceStep(1, -x, -0.0, 5e-324, 1.7976931348623157e308),
    ])


def _zero_iterations():
    return picard_solve(MapSpec.half(), ModularSpec.p_power(1.0, 3), [1.0, 2.0, 3.0], 1e-10, 0)


TRACES = {"converged": _converged, "diverged": _diverged, "extremes": _extremes,
          "max_iter_0": _zero_iterations}


@pytest.mark.parametrize("case", sorted(TRACES))
def test_write_trace_matches_csv_writer_bytes(tmp_path, case):
    trace = TRACES[case]()
    write_trace(tmp_path / "new.csv", trace)
    _reference_trace(tmp_path / "ref.csv", trace)
    data = (tmp_path / "new.csv").read_bytes()
    assert data == (tmp_path / "ref.csv").read_bytes()
    assert data.count(b"\r\n") == len(trace.steps) + 1


def test_trace_cases_hold_the_special_values():
    div = _diverged().steps
    assert math.isnan(div[0].step_mod)
    assert sum(math.isinf(s.residual) and s.residual > 0 for s in div) > 1
    assert len(_zero_iterations().steps) == 1


@pytest.mark.parametrize("case", sorted(TRACES))
def test_read_trace_returns_stored_doubles_bit_for_bit(tmp_path, case):
    trace = TRACES[case]()
    write_trace(tmp_path / "t.csv", trace)
    data = read_trace(tmp_path / "t.csv")
    assert data["n"].tolist() == [s.n for s in trace.steps]
    for col in ("step_mod", "residual", "doubled_orbit"):
        assert np.array_equal(_bits(data[col]), _bits([getattr(s, col) for s in trace.steps]))
    assert np.array_equal(_bits(data["x"]), _bits([s.x for s in trace.steps]))


def test_read_header_only_trace_keeps_the_column_count(tmp_path):
    write_trace(tmp_path / "t.csv", IterationTrace())
    data = read_trace(tmp_path / "t.csv")
    assert data["n"].shape == (0,) and data["n"].dtype.kind == "i"
    assert data["residual"].shape == (0,)
    assert data["x"].shape == (0, 0)


def test_read_trace_memory_stays_near_the_result_size(tmp_path):
    rng = np.random.default_rng(5)
    X = rng.standard_normal((500, 64)) * 10.0 ** rng.uniform(-30, 30, (500, 64))
    write_trace(tmp_path / "t.csv", IterationTrace(steps=[
        TraceStep(n, x, 1.0 / (n + 1), 2.0 / (n + 1), 3.0) for n, x in enumerate(X)]))
    tracemalloc.start()
    try:
        data = read_trace(tmp_path / "t.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(_bits(data["x"]), _bits(X))
    result_bytes = 500 * (4 + 64) * 8
    assert peak < 3 * result_bytes


def test_reverify_written_traces_is_exact(tmp_path):
    write_trace(tmp_path / "c.csv", _converged())
    assert reverify_trace(tmp_path / "c.csv", ModularSpec.p_power(2.0, 4),
                          MapSpec.logistic_damped(0.5)) == 0.0
    write_trace(tmp_path / "d.csv", _diverged())
    assert reverify_trace(tmp_path / "d.csv", ModularSpec.p_power(2.0, 2),
                          MapSpec.affine(2.0 * np.eye(2), [0.0, 0.0])) == 0.0


def _certificates():
    m = ModularSpec.p_power(1.0, 3)
    T = MapSpec.half()
    omega = [1.0, -2.0, 0.5]
    x = np.array(EXTREMES)
    hand = ChainCertificate(omega=x, c=0.5, alpha=1.0, nodes=[(x, 1.0), (-x, -0.0)],
                            limit_candidate=np.zeros(3))
    return m, {"N30": build_chain(m, T, omega, 0.5, None, 30),
               "N0": build_chain(m, T, omega, 0.5, None, 0),
               "extremes": hand}


@pytest.mark.parametrize("case", ["N30", "N0", "extremes"])
def test_write_certificate_matches_csv_writer_bytes(tmp_path, case):
    m, certs = _certificates()
    cert = certs[case]
    write_certificate(tmp_path / "new.csv", cert, m)
    _reference_certificate(tmp_path / "ref.csv", cert, m)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    data = read_certificate(tmp_path / "new.csv")
    assert np.array_equal(_bits(data["alpha"]), _bits([a for _, a in cert.nodes]))
    assert np.array_equal(_bits(data["x"]), _bits([x for x, _ in cert.nodes]))

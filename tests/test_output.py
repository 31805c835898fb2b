"""Trace and certificate tables: byte identity with an `np.save` reference,
bit-exact round trips, bounded writer memory, and no unpickling on read."""

import math
import re
import tracemalloc

import numpy as np
import pytest

from rhofix import (
    DivergenceError,
    IterationTrace,
    MapSpec,
    ModularSpec,
    ModularUnderflowError,
    build_chain,
    picard_solve,
)
from rhofix.chain import ChainCertificate
from rhofix.output import (
    read_certificate,
    read_trace,
    reverify_certificate,
    reverify_trace,
    write_certificate,
    write_trace,
)

EXTREMES = [-0.0, 5e-324, 1.7976931348623157e308]


def _reference_rows(path, fields, X, *cols):
    """The unblocked writer: the whole table built at once and saved by `np.save`."""
    dtype = np.dtype([(name, "<f8") for name in fields] + [("x", "<f8", (X.shape[1],))])
    table = np.empty(len(X), dtype)
    for name, col in zip(fields, cols):
        table[name] = col
    table["x"] = X
    with open(path, "wb") as fh:
        np.save(fh, table)


def _reference_trace(path, trace):
    _reference_rows(path, ["step_mod", "residual"], trace.X, trace.step_mod, trace.residual)


def _node_slacks(cert, m):
    """The per-node slacks alpha_n - rho(x_n - x_N), by their formula."""
    return cert.alphas - m.evaluate_batch(cert.X - cert.X[-1])


def _reference_certificate(path, cert, m):
    _reference_rows(path, ["alpha", "slack"], cert.X, cert.alphas, _node_slacks(cert, m))


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


def _table(record, X, *cols):
    """A hand-built record table: the rows X and one column per field before
    `x`, in the record's own layout."""
    X = np.array(X, dtype=float)
    table = np.empty(len(X), record.dtype(X.shape[1]))
    for name, col in zip(table.dtype.names, (*cols, X)):
        table[name] = col
    return table


def _trace(*columns):
    """A hand-built record from X, step_mod and residual."""
    return IterationTrace(_table(IterationTrace, *columns))


def _extremes():
    x = np.array(EXTREMES)
    return _trace([x, -x], [math.nan, -math.inf], [math.inf, 5e-324])


def _zero_iterations():
    return picard_solve(MapSpec.half(), ModularSpec.p_power(1.0, 3), [1.0, 2.0, 3.0], 1e-10, 0)


TRACES = {"converged": _converged, "diverged": _diverged, "extremes": _extremes,
          "max_iter_0": _zero_iterations}


@pytest.mark.parametrize("case", sorted(TRACES))
def test_write_trace_matches_np_save_bytes(tmp_path, case):
    trace = TRACES[case]()
    write_trace(tmp_path / "new.npy", trace)
    _reference_trace(tmp_path / "ref.npy", trace)
    data = (tmp_path / "new.npy").read_bytes()
    assert data == (tmp_path / "ref.npy").read_bytes()
    assert np.load(tmp_path / "new.npy").shape == (len(trace.X),)


def test_trace_cases_hold_the_special_values():
    div = _diverged()
    assert math.isnan(div.step_mod[0])
    assert np.count_nonzero(div.residual == math.inf) > 1
    assert len(_zero_iterations().X) == 1


@pytest.mark.parametrize("case", sorted(TRACES))
def test_read_trace_returns_stored_doubles_bit_for_bit(tmp_path, case):
    trace = TRACES[case]()
    write_trace(tmp_path / "t.npy", trace)
    data = read_trace(tmp_path / "t.npy")
    assert data["n"].tolist() == list(range(len(trace.X)))
    for col in ("step_mod", "residual"):
        assert np.array_equal(_bits(data[col]), _bits(getattr(trace, col)))
    assert np.array_equal(_bits(data["x"]), _bits(trace.X))


def test_read_header_only_trace_keeps_the_column_count(tmp_path):
    write_trace(tmp_path / "t.npy", _trace(np.empty((0, 0)), [], []))
    data = read_trace(tmp_path / "t.npy")
    assert data["n"].shape == (0,) and data["n"].dtype.kind == "i"
    assert data["residual"].shape == (0,)
    assert data["x"].shape == (0, 0)


def test_read_trace_memory_stays_near_the_result_size(tmp_path):
    rng = np.random.default_rng(5)
    X = rng.standard_normal((500, 64)) * 10.0 ** rng.uniform(-30, 30, (500, 64))
    n = np.arange(500)
    write_trace(tmp_path / "t.npy", _trace(X, 1.0 / (n + 1), 2.0 / (n + 1)))
    tracemalloc.start()
    try:
        data = read_trace(tmp_path / "t.npy")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(_bits(data["x"]), _bits(X))
    result_bytes = 500 * (4 + 64) * 8
    assert peak < 3 * result_bytes


def _underflowed():
    # 2**-n under the p = 1100 power modular is 0 long before the step is
    with pytest.raises(ModularUnderflowError) as err:
        picard_solve(MapSpec.half(), ModularSpec.p_power(1100.0, 1), [1.0], 1e-10, 10_000)
    return err.value.trace


def test_reverify_written_traces_is_exact(tmp_path):
    # (trace, modular, map, tol, the replay's verdict)
    runs = {
        "converged": (_converged(), ModularSpec.p_power(2.0, 4), MapSpec.logistic_damped(0.5),
                      1e-12, True),
        "diverged": (_diverged(), ModularSpec.p_power(2.0, 2),
                     MapSpec.affine(2.0 * np.eye(2), [0.0, 0.0]), 1e-10, False),
        "underflowed": (_underflowed(), ModularSpec.p_power(1100.0, 1), MapSpec.half(), 1e-10,
                        False),
        "max_iter_0": (_zero_iterations(), ModularSpec.p_power(1.0, 3), MapSpec.half(), 1e-10,
                       False),
    }
    for name, (trace, m, T, tol, converged) in runs.items():
        write_trace(tmp_path / f"{name}.npy", trace)
        assert reverify_trace(tmp_path / f"{name}.npy", m, T, trace.X[0], tol) == {
            "replayed": True, "converged": converged}, name
    # a hand-built record is no run of the map
    write_trace(tmp_path / "hand.npy", _extremes())
    assert not reverify_trace(tmp_path / "hand.npy", ModularSpec.p_power(1.0, 3), MapSpec.half(),
                              EXTREMES, 1e-10)["replayed"]


def _certificates():
    m = ModularSpec.p_power(1.0, 3)
    T = MapSpec.half()
    omega = [1.0, -2.0, 0.5]
    x = np.array(EXTREMES)
    # the last node is the limit candidate; a hand-built certificate sets its own slacks
    hand = ChainCertificate(0.5, _table(ChainCertificate, [x, -x, np.zeros(3)], [1.0, -0.0, 0.0],
                                        np.zeros(3)))
    hand.slacks[:] = _node_slacks(hand, m)
    return m, {"N30": build_chain(m, T, omega, 0.5, None, 30),
               "N0": build_chain(m, T, omega, 0.5, None, 0),
               "extremes": hand}


@pytest.mark.parametrize("case", ["N30", "N0", "extremes"])
def test_write_certificate_matches_np_save_bytes(tmp_path, case):
    m, certs = _certificates()
    cert = certs[case]
    write_certificate(tmp_path / "new.npy", cert)
    _reference_certificate(tmp_path / "ref.npy", cert, m)
    assert (tmp_path / "new.npy").read_bytes() == (tmp_path / "ref.npy").read_bytes()
    data = read_certificate(tmp_path / "new.npy")
    assert np.array_equal(_bits(data["alpha"]), _bits(cert.alphas))
    assert np.array_equal(_bits(data["x"]), _bits(cert.X))


def test_write_certificate_writes_the_slacks_the_chain_computed(tmp_path, monkeypatch):
    m, certs = _certificates()
    cert = certs["N30"]
    assert np.array_equal(_bits(cert.slacks), _bits(_node_slacks(cert, m)))
    _reference_certificate(tmp_path / "ref.npy", cert, m)

    def recomputed(self, X):
        raise AssertionError("write_certificate evaluated the modular")

    monkeypatch.setattr(ModularSpec, "evaluate_batch", recomputed)
    write_certificate(tmp_path / "new.npy", cert)
    assert (tmp_path / "new.npy").read_bytes() == (tmp_path / "ref.npy").read_bytes()


def _random_bits(rng, shape):
    return rng.integers(0, 2**64, shape, dtype=np.uint64).view(np.float64)


def test_write_trace_round_trips_random_bit_patterns(tmp_path):
    rng = np.random.default_rng(17)
    X, step_mod, residual = _random_bits(rng, (3000, 256)), *_random_bits(rng, (2, 3000))
    write_trace(tmp_path / "t.npy", _trace(X, step_mod, residual))
    data = read_trace(tmp_path / "t.npy")
    assert list(data) == ["n", "step_mod", "residual", "x"]
    assert np.array_equal(data["n"], np.arange(3000))
    for got, want in zip(list(data.values())[1:], (step_mod, residual, X)):
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_write_certificate_round_trips_random_bit_patterns(tmp_path):
    rng = np.random.default_rng(19)
    X, alphas, slacks = _random_bits(rng, (3000, 257)), *_random_bits(rng, (2, 3000))
    write_certificate(tmp_path / "c.npy",
                      ChainCertificate(0.5, _table(ChainCertificate, X, alphas, slacks)))
    data = read_certificate(tmp_path / "c.npy")
    assert list(data) == ["n", "alpha", "slack", "x"]
    assert np.array_equal(data["n"], np.arange(3000))
    for got, want in zip(list(data.values())[1:], (alphas, slacks, X)):
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_writer_memory_does_not_grow_with_the_rows(tmp_path):
    # the table is written as it is held: no copy of it, nor of a block of
    # its rows (8,192 values alone are 64 KiB), at any length or width
    rng = np.random.default_rng(23)
    path = tmp_path / "t.npy"
    for d in (16, 256):
        peaks = []
        for rows in (2_000, 16_000):
            trace = _trace(rng.standard_normal((rows, d)), *rng.standard_normal((2, rows)))
            tracemalloc.start()
            try:
                write_trace(path, trace)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        with path.open("rb") as fh:
            np.lib.format.read_magic(fh)
            np.lib.format.read_array_header_1_0(fh)
            header = fh.tell()
        assert path.stat().st_size == header + 16_000 * (2 + d) * 8
        assert peaks[1] < 1.2 * peaks[0]
        assert max(peaks) < 64 * 1024, (d, peaks)


class _Unpickled(Exception):
    pass


def _refuse():
    raise _Unpickled("read_trace unpickled a file")


class _Trap:
    def __reduce__(self):
        return _refuse, ()


def test_read_trace_never_unpickles(tmp_path):
    np.save(tmp_path / "t.npy", np.array([_Trap()], dtype=object), allow_pickle=True)
    with pytest.raises(ValueError, match="allow_pickle"):
        read_trace(tmp_path / "t.npy")


FIELDS = {"trace": ("step_mod", "residual", "x"), "certificate": ("alpha", "slack", "x")}

READERS = {  # name -> (the call on a path, the record it reads)
    "read_trace": (read_trace, "trace"),
    "reverify_trace": (lambda path: reverify_trace(path, ModularSpec.p_power(2.0, 4),
                                                   MapSpec.logistic_damped(0.5),
                                                   [1.0, -0.5, 0.25, 3.0], 1e-12), "trace"),
    "read_certificate": (read_certificate, "certificate"),
    "reverify_certificate": (lambda path: reverify_certificate(path, ModularSpec.p_power(1.0, 3),
                                                               MapSpec.half(), [1.0, -2.0, 0.5],
                                                               0.5), "certificate"),
}


@pytest.mark.parametrize("reader", sorted(READERS))
def test_readers_refuse_a_plain_array_and_the_other_record(tmp_path, reader):
    read, own = READERS[reader]
    other = "certificate" if own == "trace" else "trace"
    m, certs = _certificates()
    paths = {name: tmp_path / f"{name}.npy" for name in ("plain", "trace", "certificate")}
    np.save(paths["plain"], np.zeros((3, 4)))
    write_trace(paths["trace"], _converged())
    write_certificate(paths["certificate"], certs["N30"])
    expected = f"fields {', '.join(FIELDS[own])}; found "
    with pytest.raises(ValueError, match=re.escape(expected + "float64")):
        read(paths["plain"])
    with pytest.raises(ValueError, match=re.escape(expected + str(FIELDS[other]))):
        read(paths[other])
    read(paths[own])  # its own record reads back


@pytest.mark.parametrize("reader", ["read_trace", "reverify_trace"])
def test_trace_readers_refuse_the_layout_with_a_doubled_orbit_field(tmp_path, reader):
    # a trace written while rows also stored rho(2 x_n), between the residual
    # and x, is not read as if it held the present fields: it must be regenerated
    trace = _converged()
    old = np.zeros(len(trace.X), [("step_mod", "<f8"), ("residual", "<f8"),
                                  ("doubled_orbit", "<f8"), ("x", "<f8", (4,))])
    for name in trace.table.dtype.names:
        old[name] = trace.table[name]
    np.save(tmp_path / "old.npy", old)
    expected = "fields step_mod, residual, x; found ('step_mod', 'residual', 'doubled_orbit', 'x')"
    with pytest.raises(ValueError, match=re.escape(expected)):
        READERS[reader][0](tmp_path / "old.npy")


def test_read_table_refuses_a_table_whose_fields_are_not_float64(tmp_path):
    table = np.zeros(2, [("alpha", "<f8"), ("slack", "<f4"), ("x", "<f8", (3,))])
    np.save(tmp_path / "c.npy", table)
    with pytest.raises(ValueError, match="float64 fields alpha, slack, x"):
        read_certificate(tmp_path / "c.npy")


def test_reverify_certificate_of_a_table_with_no_rows_names_the_file(tmp_path):
    # read_certificate accepts a header-only table, but the audit needs a
    # first node to replay from
    path = tmp_path / "empty.npy"
    np.save(path, np.empty(0, [("alpha", "<f8"), ("slack", "<f8"), ("x", "<f8", (3,))]))
    assert len(read_certificate(path)["x"]) == 0
    with pytest.raises(ValueError, match=re.escape(f"{path}: the certificate table has no rows")):
        reverify_certificate(path, ModularSpec.p_power(1.0, 3), MapSpec.half(), [1.0, 2.0, 3.0],
                             0.5)


def test_reverify_trace_of_a_table_with_no_rows_names_the_file(tmp_path):
    # an empty file has no run to replay: no verdict, not an exact one
    path = tmp_path / "empty.npy"
    write_trace(path, _trace(np.empty((0, 3)), [], []))
    assert len(read_trace(path)["x"]) == 0
    with pytest.raises(ValueError, match=re.escape(f"{path}: the trace table has no rows")):
        reverify_trace(path, ModularSpec.p_power(1.0, 3), MapSpec.half(), [1.0, 2.0, 3.0], 1e-10)

"""Trace and certificate CSVs: byte identity with a csv.writer reference and
bit-exact round trips, and the %.17g kernel against '%.17g' itself."""

import csv
import math
import tracemalloc
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rhofix import (
    DivergenceError,
    IterationTrace,
    MapSpec,
    ModularSpec,
    build_chain,
    picard_solve,
)
from rhofix import output
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
                    ([n, a, slacks[n], *x] for n, (x, a) in enumerate(zip(cert.X, cert.alphas))))


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


def _trace(*columns):
    """A hand-built record from X, step_mod, residual and doubled_orbit."""
    return IterationTrace(*(np.array(c, dtype=float) for c in columns))


def _extremes():
    x = np.array(EXTREMES)
    return _trace([x, -x], [math.nan, -0.0], [math.inf, 5e-324],
                  [-math.inf, 1.7976931348623157e308])


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
    write_trace(tmp_path / "t.csv", _trace(np.empty((0, 0)), [], [], []))
    data = read_trace(tmp_path / "t.csv")
    assert data["n"].shape == (0,) and data["n"].dtype.kind == "i"
    assert data["residual"].shape == (0,)
    assert data["x"].shape == (0, 0)


def test_read_trace_memory_stays_near_the_result_size(tmp_path):
    rng = np.random.default_rng(5)
    X = rng.standard_normal((500, 64)) * 10.0 ** rng.uniform(-30, 30, (500, 64))
    n = np.arange(500)
    write_trace(tmp_path / "t.csv", _trace(X, 1.0 / (n + 1), 2.0 / (n + 1), np.full(500, 3.0)))
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
    # the last node is the limit candidate
    hand = ChainCertificate(0.5, np.array([x, -x, np.zeros(3)]), np.array([1.0, -0.0, 0.0]))
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
    assert np.array_equal(_bits(data["alpha"]), _bits(cert.alphas))
    assert np.array_equal(_bits(data["x"]), _bits(cert.X))


# --- the %.17g kernel ----------------------------------------------------------

def _kernel_text(values) -> list[str]:
    """The kernel's text for each value, tiled up to the kernel's smallest
    array so that the vectorized path runs, not the per-value one."""
    v = np.asarray(values, dtype=float)
    tiled = np.resize(v, max(v.size, output._SMALL))
    text = output._g17_fields(tiled).tobytes().translate(None, b"\0").decode()
    return text.split(",")[: v.size]


def _assert_matches_format(values):
    assert _kernel_text(values) == ["%.17g" % x for x in np.asarray(values, dtype=float).tolist()]


@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                min_size=1, max_size=50))
def test_kernel_matches_format_on_floats(xs):
    _assert_matches_format(xs)


@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=50))
def test_kernel_matches_format_on_bit_patterns(patterns):
    _assert_matches_format(np.array(patterns, dtype=np.uint64).view(np.float64))


def _is_tie(x: float) -> bool:
    """True when x lies exactly halfway between two 17-digit decimals."""
    digits = Decimal(x).as_tuple().digits
    return len(digits) == 18 and digits[-1] == 5


POWERS = [float(f"1e{k}") for k in range(-323, 309)]
HARD = (
    # every power of ten and its neighbours one ulp away
    POWERS + [np.nextafter(p, 0.0) for p in POWERS] + [np.nextafter(p, np.inf) for p in POWERS]
    # 17 nines: the rounding carries into the next power
    + [float(f"9.9999999999999999e{k}") for k in range(-300, 300, 7)]
    + [float(f"9.99999999999999995e{k}") for k in range(-300, 300, 7)]
    # exact ties at the 18th digit, to even either way
    + [2.0**50 + i + f for i in (0, 1, 12345) for f in (0.25, 0.75)]
    + [a + 2.0**-17 for a in (1.0, 3.0, 7.0)] + [0.5 + 2.0**-18]
    + [5e-324, -5e-324, 0.0, -0.0, 2.0**53, 2.0**53 + 2, 1.7976931348623157e308,
       2.2250738585072014e-308, 2.225073858507201e-308]
    # the decimal exponent X at the fixed/scientific switch: -5, -4, 16 and 17
    + [1.5e-5, 1e-5, 1.5e-4, 1e-4, 1.5e16, 1e16, 1.5e17, 1e17, 123.0, 0.5, -0.25]
)


def test_kernel_matches_format_on_hard_cases():
    assert sum(map(_is_tie, HARD)) >= 8
    _assert_matches_format(HARD)
    _assert_matches_format(np.negative(HARD))


@pytest.fixture
def fallback_rows(monkeypatch):
    """The number of values each kernel call hands to its per-value fallback."""
    counts = []
    format_each = output._format_each

    def spy(v, F, rows):
        counts.append(rows.size)
        return format_each(v, F, rows)

    monkeypatch.setattr(output, "_format_each", spy)
    return counts


def test_kernel_fallback_is_rare_on_hard_cases(fallback_rows):
    # the exponent guess is off near every power of ten: the corrections
    # settle it, and only undecided roundings are left to the fallback
    _assert_matches_format(HARD)
    assert fallback_rows[-1] <= 0.03 * len(HARD)


def test_kernel_fallback_formats_undecided_values(monkeypatch, fallback_rows):
    # treat every power of ten as inexact and widen the undecided band to
    # [1/4, 3/4): about half of the values must then take the fallback
    monkeypatch.setattr(output, "_P10_EXACT", np.zeros_like(output._P10_EXACT))
    monkeypatch.setattr(output, "_BAND", np.uint64(1 << 62))
    values = np.random.default_rng(3).standard_normal(1000) * 10.0 ** np.arange(-20, 30, 0.05)
    _assert_matches_format(values)
    assert 250 < fallback_rows[-1] < 750


def _random_bits(rng, shape):
    return rng.integers(0, 2**64, shape, dtype=np.uint64).view(np.float64)


def test_write_trace_matches_csv_writer_on_random_bit_patterns(tmp_path):
    rng = np.random.default_rng(17)
    trace = _trace(_random_bits(rng, (3000, 256)), *_random_bits(rng, (3, 3000)))
    write_trace(tmp_path / "new.csv", trace)
    _reference_trace(tmp_path / "ref.csv", trace)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_write_certificate_matches_csv_writer_on_random_bit_patterns(tmp_path, monkeypatch):
    rng = np.random.default_rng(19)
    X, alphas, slacks = _random_bits(rng, (3000, 257)), *_random_bits(rng, (2, 3000))
    monkeypatch.setattr(output, "node_slacks", lambda cert, m: slacks)
    write_certificate(tmp_path / "new.csv", ChainCertificate(0.5, X, alphas), None)
    _reference_rows(tmp_path / "ref.csv", ["n", "alpha", "slack"] + [f"x{i}" for i in range(257)],
                    ([n, alphas[n], slacks[n], *X[n]] for n in range(3000)))
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_writer_memory_does_not_grow_with_the_rows(tmp_path):
    rng = np.random.default_rng(23)
    peaks = []
    for rows in (2_000, 16_000):
        trace = _trace(rng.standard_normal((rows, 16)), *rng.standard_normal((3, rows)))
        tracemalloc.start()
        try:
            write_trace(tmp_path / "t.csv", trace)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # the 16,000-row file alone is over 5 MB of text
    assert (tmp_path / "t.csv").stat().st_size > 5e6
    assert peaks[1] < 1.2 * peaks[0]

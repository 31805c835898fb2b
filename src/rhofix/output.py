"""Binary trace/certificate tables and JSON report summaries.

Each record is one `.npy` file, the bytes `np.save` writes for its table:
a structured float64 array, one row per orbit row, laid out by
`IterationTrace.dtype` or `ChainCertificate.dtype`, where `x` is a
subarray of the d coordinates. A certificate is saved by `np.save`; a
trace goes through `trace_file`, which owns its header, from `write_trace`
or block by block from the solver. The row index is n; it is not stored. The
doubles are stored as they are, so reading a file back gives the recorded
values bit for bit (nan, +-inf, -0.0 and subnormals included) and recorded
slacks can be re-verified losslessly.
Each stored figure has one producer, and its audit replays that producer
from the problem's start point x0 and compares bit for bit, row 0
included: `reverify_trace` replays the solver's Picard loop with the
summary's tol and power, and `reverify_certificate` replays
`chain.build_chain` from x0 and the stored first level (it reports the
full pair scan of the stored rows apart).
Reading never unpickles: `np.load` runs with `allow_pickle=False`. A file
whose array is not in the record's layout is a ValueError.

JSON reports are strict JSON: a non-finite float is written as the string
"nan", "inf" or "-inf". `report_payload` is a checker report's summary;
the CLI builds every other summary itself.
"""

from __future__ import annotations

import io
import json
import math
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .chain import ChainCertificate, build_chain, verify_order_pairs
from .checks import MAX_WITNESSES, AxiomReport
from .errors import SolveError
from .modular import ModularLike
from .solver import IterationTrace, MapSpec, _run_picard

__all__ = [
    "trace_file",
    "write_trace",
    "read_trace",
    "write_certificate",
    "read_certificate",
    "write_json",
    "report_payload",
    "reverify_trace",
    "reverify_certificate",
]

def _read_table(path, record) -> np.ndarray:
    """The table of a `.npy` file, once its layout is `record.dtype(d)` for
    its width d. Any other array is a ValueError naming the fields."""
    table = np.load(path)
    dtype = getattr(table, "dtype", None)  # an .npz loads as an archive, not an array
    names = record.dtype(1).names
    if (dtype is None or dtype.names != names or table.ndim != 1 or dtype["x"].ndim != 1
            or dtype != record.dtype(dtype["x"].shape[0])):
        raise ValueError(f"{path}: expected a table of float64 fields {', '.join(names)}; "
                         f"found {getattr(dtype, 'names', None) or dtype}")
    return table


def _columns(table: np.ndarray) -> dict:
    """The row index as "n", then each field of the table."""
    return {"n": np.arange(len(table)), **{name: table[name] for name in table.dtype.names}}


def _npy_header(dtype: np.dtype, rows: int) -> bytes:
    """The header `np.save` writes before a table of `rows` rows of `dtype`."""
    fmt, buf = np.lib.format, io.BytesIO()
    fmt.write_array_header_1_0(buf, {"descr": fmt.dtype_to_descr(dtype),
                                     "fortran_order": False, "shape": (rows,)})
    return buf.getvalue()


@contextmanager
def trace_file(path, d: int):
    """Yield a trace file open after `np.save`'s header for 0 rows of
    `IterationTrace.dtype(d)`. However the `with` block ends, the header is
    rewritten, in place, for the rows written, so the file is `np.save` of
    them: numpy pads a row count to 21 digits, more rows than a disk holds."""
    dtype = IterationTrace.dtype(d)
    header = _npy_header(dtype, 0)
    with open(path, "wb") as file:
        file.write(header)
        try:
            yield file
        finally:
            rows = (file.seek(0, io.SEEK_END) - len(header)) // dtype.itemsize
            file.truncate(len(header) + rows * dtype.itemsize)  # no part of a row
            file.seek(0)
            file.write(_npy_header(dtype, rows))


def write_trace(path, trace: IterationTrace) -> None:
    """Trace table: the trace's own `table` (`IterationTrace.dtype`), of a
    run that kept its rows in memory. The trace of a run given a `file`
    holds its last row alone, since the file has its rows: a ValueError,
    raised before `path` is opened."""
    if trace.rows != len(trace.table):
        raise ValueError(f"the trace holds {len(trace.table)} of its {trace.rows} rows; "
                         "the run wrote them to its file")
    with trace_file(path, trace.X.shape[1]) as file:
        file.write(np.ascontiguousarray(trace.table))


def read_trace(path) -> dict:
    """Read a trace table back into arrays: n, step_mod, residual, x. A table
    in the earlier layout with a `doubled_orbit` field is refused like any
    other layout (a ValueError naming the expected fields)."""
    return _columns(_read_table(path, IterationTrace))


def write_certificate(path, cert: ChainCertificate) -> None:
    """Certificate table: the certificate's own `table` (`ChainCertificate.dtype`)."""
    with open(path, "wb") as fh:
        np.save(fh, cert.table)


def read_certificate(path) -> dict:
    """Read a certificate table back into arrays: n, alpha, slack, x."""
    return _columns(_read_table(path, ChainCertificate))


def write_json(path, payload: dict) -> None:
    """Write the payload as strict JSON (RFC 8259): non-finite floats are
    written as the strings "nan", "inf" and "-inf"."""
    Path(path).write_text(json.dumps(_jsonable(payload), indent=2, allow_nan=False) + "\n")


def _jsonable(obj):
    """The payload with numpy arrays and scalars as Python values and every
    non-finite float as its string."""
    if isinstance(obj, dict):
        return {key: _jsonable(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(value) for value in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return str(obj)
    return obj


def report_payload(checker: str, report: AxiomReport, extra: dict | None = None) -> dict:
    """Machine-readable summary of one checker run."""
    payload = {
        "checker": checker,
        "trials": report.trials,
        "passed": report.passed,
        "n_violations": report.n_violations,
        "max_slack_violation": report.max_slack_violation,
        "violated_axioms": sorted(report.violated_axioms()),
        "violations": [
            {
                "axiom": v.axiom,
                "points": [p.tolist() for p in v.points],
                "scalars": list(v.scalars),
                "lhs": v.lhs,
                "rhs": v.rhs,
                "slack": v.slack,
            }
            for v in report.violations[:MAX_WITNESSES]
        ],
    }
    if not math.isnan(report.max_ratio):
        payload["max_ratio"] = report.max_ratio
    if extra:
        payload.update(extra)
    return payload


def _same_bytes(new: np.ndarray, old: np.ndarray) -> bool:
    """Whether the replayed table holds the stored one's bytes, bit for bit."""
    return new.dtype == old.dtype and np.array_equal(new.view(np.uint8), old.view(np.uint8))


def reverify_trace(path, m: ModularLike, T: MapSpec, x0, tol: float, power: int = 1) -> dict:
    """Replay the solver (`solver._run_picard`) from the problem's start
    point `x0`, with the summary's `tol` and `power`, for as many steps as
    the table has rows after its first, and compare. That many steps clip
    no block before the last and stop on the stored last row, after a
    convergence, a run out of steps, a divergence or an underflow (a
    `SolveError`'s trace is compared). Returns `replayed` (the rows, x0's
    row among them, steps and residuals equal the stored ones bit for bit)
    and `converged`, the replay's verdict. A table with no rows, or one not
    in the `IterationTrace.dtype` layout (such as the earlier one with a
    `doubled_orbit` field), is a ValueError naming the file."""
    stored = _read_table(path, IterationTrace)
    if not len(stored):
        raise ValueError(f"{path}: the trace table has no rows")
    try:
        trace = _run_picard(T, m, x0, tol, len(stored) - 1, power)
    except SolveError as err:
        trace = err.trace
    return {"replayed": _same_bytes(trace.table, stored), "converged": trace.converged}


def reverify_certificate(path, m: ModularLike, T: MapSpec, x0, c: float) -> dict:
    """Replay `build_chain` from the problem's start point `x0` and a stored
    certificate's first level, with the `c` it was built with (the
    summary's), and compare.

    Returns the rebuilt verdict (`pairs`, `pair_check`, `all_pass`),
    `replayed` (the rebuilt rows, x0's row among them, levels and slacks
    equal the stored ones bit for bit), `max_node_slack_diff`, and
    `scan_pair_check`: the full pair scan of the stored table, which
    measures the stored points. A table with no rows has no first level: a
    ValueError naming the file.
    """
    stored = ChainCertificate(c, _read_table(path, ChainCertificate))
    if not len(stored.table):
        raise ValueError(f"{path}: the certificate table has no rows")
    cert = build_chain(m, T, x0, c, stored.alpha, stored.length)
    return {
        "replayed": _same_bytes(cert.table, stored.table),
        "max_node_slack_diff": float(np.max(np.abs(cert.slacks - stored.slacks))),
        "pairs": cert.pairs,
        "pair_check": cert.pair_check,
        "all_pass": cert.all_pass,
        "scan_pair_check": verify_order_pairs(stored, m).worst_slack,
    }

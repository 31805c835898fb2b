"""Binary trace/certificate tables and JSON report summaries.

Each record is one `.npy` file holding a structured float64 array, one row
per orbit row, its fields in record order: `step_mod`, `residual`,
`doubled_orbit` and `x` for a trace, `alpha`, `slack` and `x` for a
certificate, where `x` is a subarray of the d coordinates. The row index
is n; it is not stored. The doubles are stored as they are, so reading a
file back gives the recorded values bit for bit (nan, +-inf, -0.0 and
subnormals included) and recorded slacks can be re-verified losslessly.
Each stored figure has one producer, and its audit replays that producer
from the problem's start point x0 and compares bit for bit, row 0
included: `reverify_trace` replays the solver's Picard loop with the
summary's tol and power, and `reverify_certificate` replays
`chain.build_chain` from x0 and the stored first level (it reports the
full pair scan of the stored rows apart).
Reading never unpickles: `np.load` runs with `allow_pickle=False`. A file
whose array is not the record's table is a ValueError.

JSON reports are strict JSON: a non-finite float is written as the string
"nan", "inf" or "-inf". `report_payload` is a checker report's summary;
the CLI builds every other summary itself.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .chain import build_chain, verify_order_pairs
from .checks import MAX_WITNESSES, AxiomReport
from .errors import SolveError
from .modular import ModularLike
from .solver import IterationTrace, MapSpec, _run_picard

if TYPE_CHECKING:
    from .chain import ChainCertificate

__all__ = [
    "write_trace",
    "read_trace",
    "write_certificate",
    "read_certificate",
    "write_json",
    "report_payload",
    "reverify_trace",
    "reverify_certificate",
]

_BLOCK_VALUES = 1 << 13  # values packed per written block: bounds the writer's memory


def _table_dtype(fields: tuple[str, ...], d: int) -> np.dtype:
    """A table row: a float64 field per name in `fields`, then the d coordinates as "x"."""
    return np.dtype([(name, "<f8") for name in fields] + [("x", "<f8", (d,))])


def _write_table(path, X: np.ndarray, **cols: np.ndarray) -> None:
    """Write an `.npy` table: one row per row of X, a float64 field per
    entry of `cols` in order, then X as the subarray field "x".

    The header is written once; rows are packed into blocks of at most
    `_BLOCK_VALUES` values (at least one row), so the writer's memory does
    not grow with the rows. The bytes are those of `np.save` of the table.
    """
    rows, d = X.shape
    dtype = _table_dtype(tuple(cols), d)
    step = max(1, _BLOCK_VALUES // (len(cols) + d))
    with Path(path).open("wb") as fh:
        np.lib.format.write_array_header_1_0(fh, {
            "descr": np.lib.format.dtype_to_descr(dtype), "fortran_order": False, "shape": (rows,),
        })
        for start in range(0, rows, step):
            block = np.empty(min(step, rows - start), dtype)
            for name, col in cols.items():
                block[name] = col[start:start + len(block)]
            block["x"] = X[start:start + len(block)]
            fh.write(block)


def _read_table(path, fields: tuple[str, ...]) -> dict:
    """Read a table written with these `fields`: the row index as "n", then
    each field and "x". Any other array is a ValueError naming the fields."""
    table = np.load(path)
    dtype = getattr(table, "dtype", None)  # an .npz loads as an archive, not an array
    if (dtype is None or dtype.names != fields + ("x",) or table.ndim != 1
            or dtype["x"].ndim != 1 or dtype != _table_dtype(fields, dtype["x"].shape[0])):
        raise ValueError(f"{path}: expected a table of float64 fields {', '.join(fields)}, x; "
                         f"found {getattr(dtype, 'names', None) or dtype}")
    return {"n": np.arange(len(table)), **{name: table[name] for name in dtype.names}}


def write_trace(path, trace: IterationTrace) -> None:
    """Trace table: step_mod, residual, doubled_orbit, then the coordinates x."""
    _write_table(path, trace.X, step_mod=trace.step_mod, residual=trace.residual,
                 doubled_orbit=trace.doubled_orbit)


def read_trace(path) -> dict:
    """Read a trace table back into arrays: n, step_mod, residual, doubled_orbit, x."""
    return _read_table(path, ("step_mod", "residual", "doubled_orbit"))


def write_certificate(path, cert: ChainCertificate) -> None:
    """Certificate table: one node per row: alpha_n, slack_n, then the coordinates x.

    The slacks are the certificate's own `cert.slacks`, as `build_chain`
    computed them; a certificate without them is a ValueError."""
    if cert.slacks is None:
        raise ValueError("write_certificate: the certificate has no slacks (cert.slacks is None)")
    _write_table(path, cert.X, alpha=cert.alphas, slack=cert.slacks)


def read_certificate(path) -> dict:
    """Read a certificate table back into arrays: n, alpha, slack, x."""
    return _read_table(path, ("alpha", "slack"))


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
    if isinstance(obj, (np.floating, np.integer)):
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


def _same_bits(new: tuple, old: tuple) -> bool:
    """Whether each replayed array holds the stored one's float64 bits."""
    return all(np.array_equal(a.view(np.int64), b.view(np.int64)) for a, b in zip(new, old))


def reverify_trace(path, m: ModularLike, T: MapSpec, x0, tol: float, power: int = 1) -> dict:
    """Replay the solver (`solver._run_picard`) from the problem's start
    point `x0`, with the summary's `tol` and `power`, for as many steps as
    the table has rows after its first, and compare. That many steps clip
    no block before the last and stop on the stored last row, after a
    convergence, a run out of steps, a divergence or an underflow (a
    `SolveError`'s trace is compared). Returns `replayed` (the rows, x0's
    row among them, steps, residuals and doubled-orbit modulars equal the
    stored ones bit for bit) and `converged`, the replay's verdict. A table
    with no rows is a ValueError naming the file."""
    data = read_trace(path)
    X = data["x"]
    if not len(X):
        raise ValueError(f"{path}: the trace table has no rows")
    try:
        trace = _run_picard(T, m, x0, tol, len(X) - 1, power)
    except SolveError as err:
        trace = err.trace
    return {
        "replayed": _same_bits((trace.X, trace.step_mod, trace.residual, trace.doubled_orbit),
                               (X, data["step_mod"], data["residual"], data["doubled_orbit"])),
        "converged": trace.converged,
    }


def reverify_certificate(path, m: ModularLike, T: MapSpec, x0, c: float) -> dict:
    """Replay `build_chain` from the problem's start point `x0` and a stored
    certificate's first level, with the `c` it was built with (the
    summary's), and compare.

    Returns the rebuilt verdict (`pairs`, `pair_check`, `all_pass`),
    `replayed` (the rebuilt rows, x0's row among them, levels and slacks
    equal the stored ones bit for bit), `max_node_slack_diff`, and
    `scan_pair_check`: the full pair scan of the stored rows, which
    measures the stored points. A table with no rows has no first level: a
    ValueError naming the file.
    """
    data = read_certificate(path)
    X, alphas, slacks = data["x"], data["alpha"], data["slack"]
    if not len(X):
        raise ValueError(f"{path}: the certificate table has no rows")
    cert = build_chain(m, T, x0, c, float(alphas[0]), len(X) - 1)
    verdict = {
        "replayed": _same_bits((cert.X, cert.alphas, cert.slacks), (X, alphas, slacks)),
        "max_node_slack_diff": float(np.max(np.abs(cert.slacks - slacks))),
        "pairs": cert.pairs,
        "pair_check": cert.pair_check,
        "all_pass": cert.all_pass,
    }
    cert.X, cert.alphas = X, alphas  # the scan measures the stored rows, not the replayed ones
    verdict["scan_pair_check"] = verify_order_pairs(cert, m).worst_slack
    return verdict

"""Binary trace/certificate tables and JSON report summaries.

Each record is one `.npy` file holding a structured float64 array, one row
per orbit row, its fields in record order: `step_mod`, `residual`,
`doubled_orbit` and `x` for a trace, `alpha`, `slack` and `x` for a
certificate, where `x` is a subarray of the d coordinates. The row index
is n; it is not stored. The doubles are stored as they are, so reading a
file back gives the recorded values bit for bit (nan, +-inf, -0.0 and
subnormals included) and recorded slacks can be re-verified losslessly.
A certificate's figures have one producer, `chain.build_chain`:
`write_certificate` writes its levels and slacks as they are, and
`reverify_certificate` replays `build_chain` from the stored first node and
level, and compares; it reports the full pair scan of the stored rows apart.
Reading never unpickles: `np.load` runs with `allow_pickle=False`. A file
whose array is not the record's table is a ValueError.

JSON reports are strict JSON: a non-finite float is written as the string
"nan", "inf" or "-inf".
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .chain import build_chain, verify_order_pairs
from .checks import MAX_WITNESSES, AxiomReport, Delta2Result
from .modular import ModularLike
from .solver import IterationTrace, MapSpec

if TYPE_CHECKING:
    from .chain import ChainCertificate

__all__ = [
    "write_trace",
    "read_trace",
    "write_certificate",
    "read_certificate",
    "write_json",
    "report_payload",
    "trace_payload",
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


def delta2_payload(result: Delta2Result) -> dict:
    return {
        "checker": "delta2_type_estimate",
        "constant": result.constant,
        "unbounded": result.unbounded,
    }


def trace_payload(trace: IterationTrace, extra: dict | None = None) -> dict:
    rows = len(trace.X)
    payload = {
        "converged": trace.converged,
        "iterations": trace.iterations,
        "power": trace.power,
        "k_used": trace.k_used,
        "final_step_mod": float(trace.step_mod[-1]) if rows else None,
        "final_residual": float(trace.residual[-1]) if rows else None,
        "fixed_point": None if trace.fixed_point is None else trace.fixed_point.tolist(),
    }
    if extra:
        payload.update(extra)
    return payload


def reverify_trace(path, m: ModularLike, T: MapSpec, power: int = 1) -> float:
    """Recompute every recorded modular of a stored trace from its iterates.

    `power` must match the composite the solver stepped (the trace summary
    records it): residuals in a power-path trace are composite residuals.
    Returns the max absolute discrepancy between recorded and recomputed
    values (step, residual, doubled-orbit). The table stores the doubles
    themselves, so this is exact up to re-evaluation order. Rows where both
    values are +inf (a diverging last step) count as agreeing.
    """
    data = read_trace(path)
    xs, rho = data["x"], m._evaluate_owned
    with np.errstate(over="ignore", invalid="ignore"):
        # one batch per column: stacking all three would triple the trace in memory
        recomputed = np.concatenate((rho(xs[1:] - xs[:-1]), rho(T.apply_power(xs, power) - xs),
                                     rho(2.0 * xs)))
        recorded = np.concatenate((data["step_mod"][1:], data["residual"], data["doubled_orbit"]))
        diffs = np.abs(recomputed - recorded)
    return float(np.max(diffs, initial=0.0, where=~np.isnan(diffs)))


def reverify_certificate(path, m: ModularLike, T: MapSpec, c: float) -> dict:
    """Replay `build_chain` from a stored certificate's first node and level
    with the `c` it was built with (the summary's), and compare.

    Returns the rebuilt verdict (`pairs`, `pair_check`, `all_pass`),
    `replayed` (the rebuilt rows, levels and slacks equal the stored ones
    bit for bit), `max_node_slack_diff`, and `scan_pair_check`: the full
    pair scan of the stored rows, which measures the stored points. A table
    with no rows has no first node: a ValueError naming the file.
    """
    data = read_certificate(path)
    X, alphas, slacks = data["x"], data["alpha"], data["slack"]
    if not len(X):
        raise ValueError(f"{path}: the certificate table has no rows")
    cert = build_chain(m, T, X[0], c, float(alphas[0]), len(X) - 1)
    verdict = {
        "replayed": all(np.array_equal(new.view(np.int64), old.view(np.int64)) for new, old
                        in zip((cert.X, cert.alphas, cert.slacks), (X, alphas, slacks))),
        "max_node_slack_diff": float(np.max(np.abs(cert.slacks - slacks))),
        "pairs": cert.pairs,
        "pair_check": cert.pair_check,
        "all_pass": cert.all_pass,
    }
    cert.X, cert.alphas = X, alphas  # the scan measures the stored rows, not the replayed ones
    verdict["scan_pair_check"] = verify_order_pairs(cert, m).worst_slack
    return verdict

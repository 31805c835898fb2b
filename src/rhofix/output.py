"""Delimited trace/certificate files and JSON report summaries.

All floats are written with 17 significant digits, so reading a file back
reproduces the stored doubles exactly and recorded slacks can be
re-verified losslessly. Both CSVs are written by one row formatter: a
header line, then one `%` format per record, lines ending in CRLF as
`csv.writer` ends them.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .chain import ChainCertificate, node_slacks, verify_order_pairs
from .checks import AxiomReport, Delta2Result
from .modular import ModularLike
from .solver import IterationTrace, MapSpec

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

MAX_WITNESSES = 20


def _write_rows(path, lead: list[str], X: np.ndarray, *cols: np.ndarray) -> None:
    """Write a trace or certificate CSV: a header of the `lead` column names
    and x0..x{d-1}, then one record per row of X: its index n, its entry in
    each column of `cols`, and its coordinates.

    Each record is one `%` format on a template built once, with 17
    significant digits per float; the bytes equal what `csv.writer` writes
    for `format(v, ".17g")` fields, CRLF line ends included. Rows are
    formatted one at a time, so a long trace is never held as text.
    """
    header = ",".join(lead + [f"x{i}" for i in range(X.shape[1])])
    line = "%d," + ",".join(["%.17g"] * (len(cols) + X.shape[1])) + "\r\n"
    values = zip(*(c.tolist() for c in cols))
    with Path(path).open("w", newline="") as fh:
        fh.write(header + "\r\n")
        fh.writelines(line % (n, *v, *x.tolist()) for n, (v, x) in enumerate(zip(values, X)))


def write_trace(path, trace: IterationTrace) -> None:
    """CSV trace: n, step_mod, residual, doubled_orbit, then coordinates."""
    _write_rows(path, ["n", "step_mod", "residual", "doubled_orbit"], trace.X,
                trace.step_mod, trace.residual, trace.doubled_orbit)


def _read_csv(path, lead: int) -> dict:
    """Read a trace or certificate CSV: `lead` named columns (the first is
    the integer n), then the coordinates as "x".

    The body is parsed straight into one float array by `np.loadtxt`, so
    memory stays near the size of the result, and the 17-digit floats
    (nan, inf and -0.0 included) parse bit-exactly. A header with no rows
    gives zero rows of the header's width.
    """
    with Path(path).open() as fh:
        header = fh.readline().rstrip("\n").split(",")
        body = fh.tell()
        if fh.readline():
            fh.seek(body)
            table = np.loadtxt(fh, delimiter=",", ndmin=2)
        else:  # loadtxt would warn and return shape (0, 1)
            table = np.empty((0, len(header)))
    out = {name: table[:, j] for j, name in enumerate(header[:lead])}
    out["n"] = out["n"].astype(int)
    out["x"] = table[:, lead:]
    return out


def read_trace(path) -> dict:
    """Read a trace CSV back into arrays: n, step_mod, residual, doubled_orbit, x."""
    return _read_csv(path, 4)


def write_certificate(path, cert: ChainCertificate, m: ModularLike) -> None:
    """CSV certificate: one node per record: n, alpha_n, slack_n, coords."""
    _write_rows(path, ["n", "alpha", "slack"], cert.X, cert.alphas, node_slacks(cert, m))


def read_certificate(path) -> dict:
    """Read a certificate CSV back into arrays: n, alpha, slack, x."""
    return _read_csv(path, 3)


def write_json(path, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, default=_jsonable) + "\n")


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"not JSON-serializable: {type(obj)}")


def report_payload(checker: str, report: AxiomReport, extra: dict | None = None) -> dict:
    """Machine-readable summary of one checker run."""
    payload = {
        "checker": checker,
        "trials": report.trials,
        "passed": report.passed,
        "n_violations": len(report.violations),
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
    values (step, residual, doubled-orbit); with 17-digit formatting this
    is a bit-exact round trip up to re-evaluation order. Rows where both
    values are +inf (a diverging last step) count as agreeing.
    """
    data = read_trace(path)
    xs, rho = data["x"], m.evaluate_batch
    with np.errstate(over="ignore", invalid="ignore"):
        # one batch per column: stacking all three would triple the trace in memory
        recomputed = np.concatenate((rho(xs[1:] - xs[:-1]), rho(T.apply_power(xs, power) - xs),
                                     rho(2.0 * xs)))
        recorded = np.concatenate((data["step_mod"][1:], data["residual"], data["doubled_orbit"]))
        diffs = np.abs(recomputed - recorded)
    return float(np.max(diffs, initial=0.0, where=~np.isnan(diffs)))


def reverify_certificate(csv_path, m: ModularLike) -> dict:
    """Recompute a stored certificate's slacks from its nodes.

    Returns the recomputed worst pair slack and the max absolute
    discrepancy against the recorded per-node slacks.
    """
    data = read_certificate(csv_path)
    cert = ChainCertificate(math.nan, data["x"], data["alpha"])
    recomputed = node_slacks(cert, m)
    pair = verify_order_pairs(cert, m)
    return {
        "max_node_slack_diff": float(np.max(np.abs(recomputed - data["slack"]))),
        "pair_check": pair.worst_slack,
        "node_slacks": recomputed,
    }

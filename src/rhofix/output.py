"""Delimited trace/certificate files and JSON report summaries.

All floats are written with 17 significant digits, as '%.17g' writes them,
so reading a file back reproduces the stored doubles exactly and recorded
slacks can be re-verified losslessly. Both CSVs are written by one row
writer: a header line, then one record per row, lines ending in CRLF as
`csv.writer` ends them.

The text comes from a numpy kernel that formats a block of values at once
and gives the bytes of '%.17g' for each. It splits |v| into m 2^e with m
normalized to 64 bits and multiplies m by a 64-bit mantissa of 10^(16 - k),
k = floor(log10 |v|), from a table built at import: the integer part of
that 128-bit product, rounded half to even, is the 17 digits. For
0 <= 16 - k <= 27 the power is exact and so is the rounding; otherwise the
product's error is below 2^-7.5, and a value whose fraction lies within
2^-7 of one half is formatted by '%.17g' itself. So are nan and +-inf,
values whose exponent has not settled after two corrections of k, and
arrays too small to repay numpy's per-call cost. The digits are then laid
out by %g's rules (fixed notation for -4 <= X < 17, trailing zeros
stripped, exponents of at least two digits). Which path formats a value
never shows in the bytes: tests pin both against '%.17g' itself and
against a `csv.writer` reference.

JSON reports are strict JSON: a non-finite float is written as the string
"nan", "inf" or "-inf", as in the CSVs.
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


# -- the %.17g kernel --------------------------------------------------------
#
# |v| = m 2^e with m normalized to 64 bits. With k = floor(log10 |v|), the
# 17 digits are D = round(|v| 10^(16 - k)), in [10^16, 10^17]; 10^17 is the
# carry into k + 1. 10^q is held as a 64-bit mantissa and a binary
# exponent, so |v| 10^q is one 64x64 -> 128-bit product, shifted.

_Q_LO, _Q_HI = -294, 342  # q = 16 - k for every finite double, +-2 for corrections
_HALF, _BAND = np.uint64(1 << 63), np.uint64(1 << 57)  # one half; 2^-7, in 2^-64 units
_LO32 = np.uint64(0xFFFFFFFF)
_E8, _E16, _E17 = np.uint64(10**8), np.uint64(10**16), np.uint64(10**17)


def _pow10_table() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For q in [_Q_LO, _Q_HI]: 10^q ~ mant 2^exp with mant in [2^63, 2^64),
    rounded to nearest, and whether that is exact (0 <= q <= 27)."""
    mant, exp, exact = [], [], []
    for q in range(_Q_LO, _Q_HI + 1):
        num, den = (10**q, 1) if q >= 0 else (1, 10**-q)
        e = num.bit_length() - den.bit_length() - 64
        while True:
            a, b = (num, den << e) if e >= 0 else (num << -e, den)
            P, r = divmod(a, b)
            if P < 1 << 64:
                break
            e += 1
        P += 2 * r >= b
        if P == 1 << 64:
            P, e = 1 << 63, e + 1
        mant.append(P)
        exp.append(e)
        exact.append(r == 0)
    return np.array(mant, np.uint64), np.array(exp, np.int64), np.array(exact)


def _round17(m, e, k):
    """S = m 2^e 10^(16 - k): its integer part, whether it rounds up (half
    to even), and where that cannot be decided: 10^(16 - k) is inexact and
    the computed fraction lies within 2^-7 of one half, while the product's
    error is below 2^-7.5 for S < 10^17."""
    i = 16 - k - _Q_LO
    P, exact = _P10_MANT[i], _P10_EXACT[i]
    t = (-64 - e - _P10_EXP[i]).astype(np.uint64)  # the integer part is hi >> t
    m1, m0, p1, p0 = m >> 32, m & _LO32, P >> 32, P & _LO32
    ll, lh, hl = m0 * p0, m0 * p1, m1 * p0
    mid = (ll >> 32) + (lh & _LO32) + (hl & _LO32)
    lo = (ll & _LO32) | (mid << 32)
    hi = m1 * p1 + (lh >> 32) + (hl >> 32) + (mid >> 32)
    D = hi >> t
    frac = (hi << (64 - t)) | (lo >> t)  # top 64 bits of the fraction
    below = (lo << (64 - t)) != 0        # fraction bits past those 64
    up = (frac > _HALF) | ((frac == _HALF) & (below | ~exact | (D & 1).astype(bool)))
    undecided = ~exact & (frac - (_HALF - _BAND) < 2 * _BAND)
    return D, up, undecided


# One value's text is laid out in six 8-byte words of fixed byte positions:
#   [sign, "0.000" (the lead of -4 <= X < 0), d0, point]
#   four words [d, point, d, point, d, point, d, point] of digits 1..16
#   ["e", the exponent's sign, its two or three digits, NULs, ",", NUL],
#     with NULs for the exponent in fixed notation
# Each point slot holds ".", and one AND mask per shape (X in fixed
# notation, or scientific, and the last digit kept) clears what that
# shape does not print: all but one point, the trailing zeros and the
# lead. The NULs left are dropped when the block is joined.
_WIDTH = 48
_SMALL = 200  # values; see _g17_fields
_FIXED_X = range(-4, 17)  # %g's fixed notation: -4 <= X < 17
_X_LO, _X_HI = -400, 400  # beyond every double's exponent


def _shape_masks() -> np.ndarray:
    """AND masks of the first five words, by shape key: (X + 4) * 17 + keep
    in fixed notation, 21 * 17 + keep in scientific, where digits 0..keep
    are printed."""
    masks = np.zeros((22, 17, 40), np.uint8)
    for s, x in enumerate(list(_FIXED_X) + [None]):
        for keep in range(17):
            row = masks[s, keep]
            row[0] = 0xFF  # the sign
            if x is not None and x < 0:
                row[1:2 - x] = 0xFF  # "0.", then -x - 1 zeros
            row[6:7 + 2 * keep:2] = 0xFF
            point = 0 if x is None else x
            if 0 <= point < keep:
                row[7 + 2 * point] = 0xFF
    return masks.reshape(-1, 40).view("<u8")


def _exponent_words() -> np.ndarray:
    """The last word of the field for each decimal exponent X."""
    words = [(b"" if x in _FIXED_X else b"e%+03d" % x).ljust(6, b"\0") + b",\0"
             for x in range(_X_LO, _X_HI + 1)]
    return np.frombuffer(b"".join(words), "<u8")


_P10_MANT, _P10_EXP, _P10_EXACT = _pow10_table()
_LEAD = np.frombuffer(b"\0" + b"0.000" + b"0.", "<u8")[0]  # d0 and the sign go over it
_MASKS = _shape_masks()
_EXPONENTS = _exponent_words()
_GROUP = np.arange(10_000, dtype=np.uint16)[:, None] // np.array([1000, 100, 10, 1], np.uint16)
_GROUP = (_GROUP % 10).astype(np.uint8)  # the 4 decimal digits of each g < 10^4
# _DIGITS4[g]: the 4 digits of "%04d" % g in ASCII, each followed by a point slot
_DIGITS4 = np.full((10_000, 4, 2), ord("."), np.uint8)
_DIGITS4[:, :, 0] = _GROUP + ord("0")
_DIGITS4 = _DIGITS4.reshape(-1, 8).view("<u8").ravel()
# _LAST4[g]: the length of "%04d" % g with its trailing zeros stripped
_LAST4 = np.max((_GROUP > 0) * np.arange(1, 5, dtype=np.int8), axis=1)


def _g17_fields(v: np.ndarray) -> np.ndarray:
    """The text of '%.17g' % x for each x of the 1-D float array v, as
    (len(v), _WIDTH) bytes holding NULs at fixed positions, the separator
    ',' in the last two.

    nan, +-inf, undecided roundings and exponents that do not settle in
    two corrections are formatted by '%.17g' itself, one value each; so
    are all values of an array smaller than _SMALL, where numpy's per-call
    cost would exceed that of '%.17g'.
    """
    n = v.size
    if n < _SMALL:
        return _format_each(v, np.empty((n, _WIDTH), np.uint8), np.arange(n))
    a = np.abs(v)
    ok = np.isfinite(a) & (a > 0.0)
    a = np.where(ok, a, 1.0)
    k = np.floor(np.log10(a)).astype(np.int64)
    sub = a < 2.2250738585072014e-308  # subnormal: scale by 2^64 exactly
    bits = (a * np.where(sub, 2.0**64, 1.0)).view(np.uint64)
    m = ((bits & np.uint64(2**52 - 1)) | np.uint64(2**52)) << np.uint64(11)
    e = (bits >> np.uint64(52)).astype(np.int64) - (1075 + 11) - 64 * sub
    D, up, undecided = _round17(m, e, k)
    # k from log10 can be off by one near powers of ten: S must be in [10^16, 10^17)
    todo = np.flatnonzero((D < _E16) | (D >= _E17))
    for _ in range(2):
        if not todo.size:
            break
        k[todo] += np.where(D[todo] >= _E17, 1, -1)
        D[todo], up[todo], undecided[todo] = _round17(m[todo], e[todo], k[todo])
        todo = todo[(D[todo] < _E16) | (D[todo] >= _E17)]
    D += up
    carry = D == _E17
    D[carry | ~ok] = _E16
    X = np.where(ok, k + carry, 0)  # the decimal exponent; 0 for +-0

    W = np.empty((n, 6), "<u8")
    F = W.view(np.uint8)
    W[:, 0] = _LEAD
    F[:, 0] = np.signbit(v) * np.uint8(ord("-"))
    d0 = D // _E16
    F[:, 6] = (d0 * ok).astype(np.uint8) + np.uint8(ord("0"))
    rest = D - d0 * _E16
    hi8 = (rest // _E8).astype(np.uint32)
    lo8 = (rest - hi8 * _E8).astype(np.uint32)
    g1, g3 = hi8 // 10_000, lo8 // 10_000
    g2, g4 = hi8 - g1 * 10_000, lo8 - g3 * 10_000
    W[:, 1:5] = _DIGITS4.take(np.stack((g1, g2, g3, g4), axis=1))
    W[:, 5] = _EXPONENTS.take(np.clip(X, _X_LO, _X_HI) - _X_LO)
    # the last nonzero digit, from the last nonzero group
    last = np.where(g4, 12 + _LAST4.take(g4), np.where(
        g3, 8 + _LAST4.take(g3), np.where(g2, 4 + _LAST4.take(g2), _LAST4.take(g1))))
    fixed = (X >= -4) & (X < 17)
    keep = np.maximum(last, np.where(fixed, X, -1))
    W[:, :5] &= _MASKS.take(np.where(fixed, X + 4, 21) * 17 + keep, axis=0)

    slow = undecided | ~np.isfinite(v)
    slow[todo] = True
    return _format_each(v, F, np.flatnonzero(slow))


def _format_each(v: np.ndarray, F: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Write the fields of v[rows] into F by '%.17g', one value at a time."""
    if rows.size:
        text = b"".join((b"%.17g" % x).ljust(_WIDTH - 2, b"\0") + b",\0" for x in v[rows].tolist())
        F[rows] = np.frombuffer(text, np.uint8).reshape(-1, _WIDTH)
    return F


_BLOCK_VALUES = 1 << 13  # values formatted per block: bounds the writer's memory


def _write_rows(path, lead: list[str], X: np.ndarray, *cols: np.ndarray) -> None:
    """Write a trace or certificate CSV: a header of the `lead` column names
    and x0..x{d-1}, then one record per row of X: its index n, its entry in
    each column of `cols`, and its coordinates.

    The bytes are those of `csv.writer` with `format(v, ".17g")` fields,
    CRLF line ends included. Rows are formatted in blocks of about
    `_BLOCK_VALUES` values by `_g17_fields`; n is formatted as a float,
    whose %.17g text is the integer's own. Dropping the NULs from a block's
    fields leaves its records.
    """
    rows, d = X.shape
    width = 1 + len(cols) + d
    header = ",".join(lead + [f"x{i}" for i in range(d)]) + "\r\n"
    step = max(1, _BLOCK_VALUES // width)
    with Path(path).open("wb") as fh:
        fh.write(header.encode())
        for start in range(0, rows, step):
            stop = min(start + step, rows)
            V = np.empty((stop - start, width))
            V[:, 0] = np.arange(start, stop)
            for j, c in enumerate(cols, 1):
                V[:, j] = c[start:stop]
            V[:, 1 + len(cols):] = X[start:stop]
            F = _g17_fields(V.ravel()).reshape(stop - start, width * _WIDTH)
            F[:, -2:] = (ord("\r"), ord("\n"))
            fh.write(F.tobytes().translate(None, b"\0"))


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
    """Write the payload as strict JSON (RFC 8259): non-finite floats are
    written as the strings "nan", "inf" and "-inf", their CSV spellings."""
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

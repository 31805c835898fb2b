"""Contraction verification and Picard fixed-point iteration under a modular.

Picard iterates x_{n+1} = T x_n and tracks two modulars per step: the
step modular rho(x_n - x_{n-1}) and the residual rho(T x_n - x_n).
Convergence requires BOTH below tol, which guards against declaring
victory on a slowly moving orbit. The orbit depends on T alone, so it is
computed first, in blocks (`MapSpec.orbit`, each row written in place by
the map's step kernel) written straight into the tail of the trace's
table, the one `output.write_trace` saves (`IterationTrace.dtype`), or,
given an open trace file, into one block-sized table whose kept rows are
appended to the file as `np.save` would write them; each block's
modulars are then one batch call, evaluated in place over the rows
X[1:] - X[:-1] (residuals and steps alike). The first block has 8 rows.
Each later one is sized from the geometric decay of the residuals over the
block before: the rows left until tol, plus a small margin; it doubles
instead while they do not decay. It holds at least 8 rows and at most
max(256, 65,536 // d), so no block has more entries than 256 rows at
d = 256.

`solve_via_power` implements the doubling-constant shortcut: pick the
smallest n with c**n k < 1/2 (k the doubling constant rho(2x) <= k rho(x)),
iterate the n-fold composite, then confirm the point is fixed for the
single map. k comes from the caller or a closed form, never from samples
(`checks.doubling_constant` resolves it once per solve).
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from enum import Enum
import numpy as np

from .checks import AxiomReport, PointSampler, _ineq_violations, exact_doubling_constant
from .errors import (
    DimensionMismatch,
    DivergenceError,
    InconsistentContractionError,
    ModularUnderflowError,
)
from .modular import INF, ModularLike, as_point

__all__ = [
    "MapKind",
    "MapSpec",
    "IterationTrace",
    "verify_contraction",
    "verify_s_contraction",
    "picard_solve",
    "power_index",
    "solve_via_power",
]


class MapKind(Enum):
    AFFINE = "affine"            # x -> A x + b
    HALF = "half"                # coordinatewise u -> u / 2
    LOGISTIC_DAMPED = "logistic_damped"  # coordinatewise u -> lam * u / (1 + |u|)
    CONST = "const"              # coordinatewise u -> constant


_UNFOLD_BUFSIZE = 256  # ufunc buffer entries for the unfold pass: 2 KiB


@dataclass
class MapSpec:
    """A self-map of the space: affine, or a named 1-D map per coordinate.

    It holds no contraction factor: rho(Tx - Ty) <= c rho(x - y) is a
    property of the map and the modular together (u -> u/2 has factor
    2**-p under the p-power modular), so every function that needs a
    factor takes it as an argument and checks it there.
    """

    kind: MapKind
    matrix: np.ndarray | None = None
    offset: np.ndarray | None = None
    lam: float | None = None
    value: np.ndarray | None = None

    @classmethod
    def affine(cls, matrix, offset) -> "MapSpec":
        a = np.atleast_2d(np.asarray(matrix, dtype=float))
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"matrix must be square, got shape {a.shape}")
        b = as_point(offset, a.shape[0])
        if not np.all(np.isfinite(a)):
            raise ValueError("matrix entries must be finite")
        return cls(MapKind.AFFINE, matrix=a, offset=b)

    @classmethod
    def half(cls) -> "MapSpec":
        return cls(MapKind.HALF)

    @classmethod
    def logistic_damped(cls, lam: float) -> "MapSpec":
        if not lam >= 0:
            raise ValueError("lam must be >= 0")
        return cls(MapKind.LOGISTIC_DAMPED, lam=float(lam))

    @classmethod
    def const(cls, value) -> "MapSpec":
        return cls(MapKind.CONST, value=np.atleast_1d(np.asarray(value, dtype=float)))

    @property
    def dim(self) -> int | None:
        """The width a point must have (affine maps, vector constants); else None."""
        if self.kind is MapKind.AFFINE:
            return self.matrix.shape[0]
        if self.kind is MapKind.CONST and self.value.size > 1:
            return self.value.size
        return None

    def _checked(self, x) -> np.ndarray:
        """x as floats, once its last axis fits the map's fixed dimension."""
        x = np.asarray(x, dtype=float)
        dim = self.dim
        if dim is not None and x.shape[-1:] != (dim,):
            raise DimensionMismatch(f"map is {dim}-dimensional, point has shape {x.shape}")
        return x

    def _kernel(self, shape: tuple, folded: bool = False):
        """The map's formula as an in-place kernel `step(y, out)` on arrays of
        `shape`: the one place each kind's arithmetic is written. `out` may be
        `y`: each kernel reads y before it overwrites it. A damped-logistic
        kernel holds one scratch array of `shape`. A step makes only the calls
        its arithmetic needs: scalars are 0-d float64 arrays bound once, so no
        call promotes a Python float (same values, same bits), and an affine
        row is `np.dot` (one multiply at d = 1), matmul's BLAS product and bits
        without its gufunc dispatch, which buffers an output that overlaps its
        input.

        With `folded`, the damped-logistic step takes sign-folded values
        v = s y (s = +-1 per coordinate, the sign of the orbit's first row)
        and returns s T(y): lam v / (1 + v) in three calls, with no
        `absolute`, since 1 + v = 1 + |y| wherever v is a magnitude, a zero
        or a nan (see `orbit`). Other kinds ignore `folded`."""
        # the ufuncs are bound once, so a step makes no module attribute lookups
        if self.kind is MapKind.AFFINE:
            # b's -0.0 entries are made +0.0: matmul's sums start at +0.0 and
            # never end at -0.0, where a d = 1 product can, so either way the
            # sum plus b has the formula's x @ A.T + b bits
            b, add = self.offset + 0.0, np.add
            if self.matrix.shape == (1, 1):
                # at d = 1 a batch's np.dot skips a zero factor (inf * 0 gives
                # 0, not nan); the one product is matmul's one multiply
                a, multiply = np.array(self.matrix[0, 0]), np.multiply

                def step(y, out):
                    multiply(y, a, out)
                    add(out, b, out)
            else:
                A, dot = self.matrix.T, np.dot

                def step(y, out):
                    dot(y, A, out)
                    add(out, b, out)
        elif self.kind is MapKind.HALF:
            half, multiply = np.array(0.5), np.multiply

            def step(y, out):
                multiply(half, y, out)
        elif self.kind is MapKind.LOGISTIC_DAMPED:
            lam, one, t = np.array(self.lam), np.array(1.0), np.empty(shape)
            absolute, add, multiply, divide = np.absolute, np.add, np.multiply, np.divide
            if folded:
                def step(v, out):
                    add(one, v, t)
                    multiply(lam, v, out)
                    divide(out, t, out)
            else:
                def step(y, out):
                    absolute(y, t)
                    add(one, t, t)
                    multiply(lam, y, out)
                    divide(out, t, out)
        else:
            # a one-entry target is a scalar, so a 0-d point maps to a 0-d point
            value = self.value[0] if self.value.size == 1 else self.value

            def step(y, out):
                np.copyto(out, value)
        return step

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Apply the map to a point, or row-wise to an (n, dim) batch.

        Overflow is not an error here; the solver watches iterates for
        non-finite values and raises DivergenceError with the trace.
        """
        return self.apply_power(x, 1)

    def apply_power(self, x: np.ndarray, n: int) -> np.ndarray:
        """The composite T^n, by n-fold application, to a point or a batch,
        stepped in place in one new array (n = 0 returns x)."""
        x = self._checked(x)
        if n < 1:
            return x
        out = np.empty(x.shape)
        step = self._kernel(x.shape)
        with np.errstate(over="ignore", invalid="ignore"):
            step(x, out)
            for _ in range(n - 1):
                step(out, out)
        return out

    def orbit(self, x, steps: int, power: int = 1, out: np.ndarray | None = None) -> np.ndarray:
        """Rows x, T^power x, ..., T^(power * steps) x, each `power` steps of
        the row before, each written in its slot (with power > 1, the steps
        before the last alternate between two scratch rows), of `out` when
        it is given (a float64 (steps + 1, d) array, which x may be the
        first row of), else of a new array. Non-finite rows are kept; the
        caller decides what they mean.

        A damped-logistic orbit is stepped on sign-folded values: with
        s = copysign(1, x) it starts from v = s x and ends with one pass
        X[1:] *= s. The bits are the unfolded orbit's: multiplying by +-1 is
        exact and commutes with lam *, so v_k = s y_k at every step, and
        1 + v_k = 1 + |y_k| where v_k is a magnitude or a zero (lam = -0.0
        makes zeros of either sign). A nan times +-1 is that nan, and a nan
        numerator is the quotient whatever the denominator, so a payload of
        either sign, and the default nan of an inf / inf row, keep their
        bits."""
        x = self._checked(x)
        X = np.empty((steps + 1, x.size)) if out is None else out
        X[0] = x
        if power < 1:  # T^0 is the identity
            X[1:] = X[0]
            return X
        folded = self.kind is MapKind.LOGISTIC_DAMPED
        step, (s, t) = self._kernel(X[0].shape, folded), np.empty((2, x.size))
        with np.errstate(over="ignore", invalid="ignore"):
            rows = iter(X)  # one view per row, made as the loop reaches it
            y = next(rows)
            if folded:
                sign = np.copysign(1.0, y)
                y = np.multiply(sign, y, t)  # the folded first row; X[0] keeps x's bits
            inner = range(power - 1)  # bound once: a row makes no range of its own
            for out in rows:
                for _ in inner:
                    step(y, s)
                    y, s, t = s, t, s
                step(y, out)
                y = out
            if folded:
                # one pass; a broadcast operand makes the ufunc buffer
                # min(bufsize, X.size) entries, so a small bufsize keeps that
                # buffer off a long block's peak
                bufsize = np.setbufsize(_UNFOLD_BUFSIZE)
                try:
                    np.multiply(X[1:], sign, X[1:])
                finally:
                    np.setbufsize(bufsize)
        return X


@dataclass
class IterationTrace:
    """Record of one Picard run: one row per iterate x_n, laid out as
    `dtype(d)`. `table` holds every row the blocks were walked in, or the
    last row alone when the run streamed its rows to a trace file; `rows`
    counts them either way. `X` and the modulars are views of the table's
    fields, read through properties, so none of them can be reassigned."""

    table: np.ndarray
    converged: bool = False
    fixed_point: np.ndarray | None = None
    power: int = 1              # the composite T^power the engine stepped
    k_used: float | None = None  # doubling constant behind the power choice
    rows: int | None = None     # the run's row count; None takes len(table)

    step_mod = property(lambda self: self.table["step_mod"])  # rho(x_n - x_{n-1}); nan at n = 0
    residual = property(lambda self: self.table["residual"])  # rho(T x_n - x_n)
    X = property(lambda self: self.table["x"])  # (rows, d) iterates

    def __post_init__(self):
        if self.rows is None:
            self.rows = len(self.table)

    @staticmethod
    def dtype(d: int) -> np.dtype:
        """A trace row: its two modulars, then x_n's d coordinates."""
        return np.dtype([("step_mod", "<f8"), ("residual", "<f8"), ("x", "<f8", (d,))])

    @property
    def iterations(self) -> int:
        return self.rows - 1


def _map_dim(T: MapSpec, m: ModularLike, x0) -> int:
    dims = {d for d in (T.dim, m.dim, np.atleast_1d(np.asarray(x0)).size) if d is not None}
    if len(dims) > 1:
        raise DimensionMismatch(f"map/modular/point dimensions disagree: {sorted(dims)}")
    return dims.pop()


def _check_scaled(c: float | None, k: float | None, s: float) -> tuple[str, str] | None:
    """Preconditions of the scaled form rho(c (Tx - Ty)) <= k**s rho(x - y):
    None when they hold, else the parameter at fault ("c", "k" or "s") and why."""
    if c is None or k is None or not (k >= 0.0 and c > max(1.0, k)):
        at_fault = "c" if c is None or (k is not None and k >= 0.0) else "k"
        return at_fault, f"requires c > max(1, k) and k >= 0; got c = {c}, k = {k}"
    if not 0.0 < s <= 1.0:
        return "s", "s must lie in (0, 1]"
    return None


_CHECK_VALUES = 16_384  # entries of a contraction-check block: 128 KiB per float64 array


def _ratio_check(
    T: MapSpec, m: ModularLike, scale: float, factor: float,
    sampler: PointSampler, trials: int, axiom: str, scalars: tuple,
) -> AxiomReport:
    """Sampled check of rho(scale (Tx - Ty)) <= factor rho(x - y).

    The rows are every canonical basis vector against the origin, then
    `trials` sampled pairs: all x are the sampler's next trials * d words,
    then all y the words after them. The stacked rows are walked in blocks
    of max(1, _CHECK_VALUES // d) rows, the last of which takes in a
    remainder of up to 1/16 of a block (so the 544 rows of d = 32 at 512
    trials are one block); each block's x and y are mapped by one
    `T.apply` call each, its modulars are one batch evaluation each, and
    its violations are recorded in row order. Only rho(x - y) and
    rho(scale (Tx - Ty)) of every row are kept. A block draws its x rows,
    advances the sampler's generator to its y rows and, unless it is the
    last, back to the next block's x rows, so the draws are those of one
    x batch and one y batch whatever the blocks; a check of one block
    draws the two batches in turn and advances nothing.

    The report carries the largest observed ratio
    rho(scale (Tx - Ty)) / rho(x - y) over the rows where both modulars
    measure something: a 0 at x != y, or at Tx != Ty, is an underflow, and
    so is a ratio of 0 between two positive modulars. Whether Tx = Ty on a
    row whose modular reads 0 is read off the block's own images.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    dim = _map_dim(T, m, np.zeros(sampler.dim))
    total, size = dim + trials, max(1, _CHECK_VALUES // dim)
    ends = [*range(size, total - size // 16, size), total]
    rhos, lhss = [], []  # each block's rho(x - y) and rho(scale (Tx - Ty))
    rep, tied = AxiomReport(trials=trials), False
    bits, words = sampler.rng.bit_generator, trials * dim
    for at, end in zip([0, *ends], ends):
        X = np.eye(max(0, min(end, dim) - at), dim, at)  # the block's basis rows, if any
        Y = np.zeros(X.shape)
        if end > dim:  # and its sampled rows
            n = end - max(at, dim)
            xs = sampler.points(n)
            X = xs if at >= dim else np.vstack((X, xs))
            if n < trials:
                bits.advance(words - n * dim)  # from the x rows past this block to its y rows
            ys = sampler.points(n)
            Y = ys if at >= dim else np.vstack((Y, ys))
            if end < total:
                bits.advance(-words)  # back to the next block's x rows
            del xs, ys
        db = m._evaluate_owned(X - Y)
        TX, TY = T.apply(X), T.apply(Y)
        diff = np.subtract(TX, TY)  # scale (Tx - Ty) is formed in its own buffer
        lb = m._evaluate_owned(np.multiply(scale, diff, out=diff))
        rhos.append(db)
        lhss.append(lb)
        with np.errstate(invalid="ignore"):  # 0 * inf: a zero factor bounds an infinite gap by 0
            rhs = np.where(np.isinf(db), INF if factor > 0.0 else 0.0, factor * db)
        i = _ineq_violations(lb, rhs)
        rep.record_rows(axiom, (X[i], Y[i]), scalars, lb[i], rhs[i])
        if not tied and np.count_nonzero(lb) < lb.size:
            # a ratio of 0 counts only where Tx = Ty exactly: at Tx != Ty
            # rho(Tx - Ty), or the ratio itself, underflowed
            z = np.flatnonzero((lb == 0.0) & (db > 0.0) & (db < INF))
            tied = bool(np.any(np.all(TX[z] == TY[z], axis=-1)))
        del X, Y, TX, TY, diff  # before the next block's draws
    d, lhs = (v[0] if len(v) == 1 else np.concatenate(v) for v in (rhos, lhss))
    ok = np.flatnonzero((d > 0.0) & (d < INF) & ~np.isinf(lhs))
    if ok.size:
        top = float(np.max(lhs[ok] / d[ok]))
        rep.max_ratio = math.nan if top == 0.0 and not tied else top
    return rep


def verify_contraction(
    T: MapSpec, m: ModularLike, c: float, sampler: PointSampler, trials: int
) -> AxiomReport:
    """Sampled check of rho(Tx - Ty) <= c rho(x - y).

    Alongside random pairs, every canonical basis vector is probed against
    the origin; for affine maps under a sum-type modular that pins the max
    ratio to the worst coordinate direction. The report carries the largest
    observed ratio rho(Tx - Ty) / rho(x - y) -- an empirical figure, usable
    as an auto-filled factor, never a proof.
    """
    if not 0.0 <= c < 1.0:
        raise ValueError("c must lie in [0, 1)")
    return _ratio_check(T, m, 1.0, c, sampler, trials, "contraction", (c,))


def verify_s_contraction(
    T: MapSpec,
    m: ModularLike,
    c: float,
    k: float,
    s: float,
    sampler: PointSampler,
    trials: int,
) -> AxiomReport:
    """Sampled check of the scaled form rho(c (Tx - Ty)) <= k**s rho(x - y):
    the contraction check applied to c T with factor k**s."""
    fault = _check_scaled(c, k, s)
    if fault:
        raise ValueError(fault[1])
    return _ratio_check(T, m, c, k**s, sampler, trials, "s_contraction", (c, k, s))


_BLOCK_MIN, _BLOCK_MAX, _BLOCK_VALUES = 8, 256, 65_536  # Picard orbit block rows, entries


def _block_cap(d: int) -> int:
    """The most rows of an orbit block of width d: _BLOCK_MAX, or as many as
    hold _BLOCK_VALUES entries (256 rows at d = 256) where that is more."""
    return max(_BLOCK_MAX, _BLOCK_VALUES // d)


def _block_size(res: np.ndarray, tol: float, cap: int) -> int:
    """Rows for the next orbit block, from the last block's residuals `res`.
    While they decay, their mean geometric rate gives the rows left until
    step and residual reach tol, and the block is those rows plus a margin
    of 1/16 and one row. Otherwise the block doubles. Either way it stays
    within _BLOCK_MIN..cap (`_block_cap` of the orbit's width)."""
    first, last = float(res[0]), float(res[-1])
    if 0.0 < last < first < INF:
        rate = (math.log(last) - math.log(first)) / (len(res) - 1)  # log decay per row
        if rate < 0.0:
            # the next block's row i has step modular last * e**(rate i), so it
            # stops at the first i where that is <= tol and must map rows 0..i
            need = math.ceil(max(0.0, (math.log(tol) - math.log(last)) / rate)) + 1
            return min(max(need + need // 16 + 1, _BLOCK_MIN), cap)
    return min(2 * len(res), cap)


_MOVE_BYTES = 1 << 20  # bytes moved at a time when a trace file's header shrinks


def _npy_header(dtype: np.dtype, rows: int) -> bytes:
    """The header `np.save` writes before a table of `rows` rows of `dtype`."""
    fmt, buf = np.lib.format, io.BytesIO()
    fmt.write_array_header_1_0(buf, {"descr": fmt.dtype_to_descr(dtype),
                                     "fortran_order": False, "shape": (rows,)})
    return buf.getvalue()


def _end_table(file, start: int, reserved: int, header: bytes, nbytes: int) -> None:
    """Put `header` in front of the `nbytes` of rows written at `start` after
    a header of `reserved` bytes, and cut the file after them. Its row count
    is at most the reserved one, so the header is never longer. numpy pads
    a row count of up to 21 digits to one width, so it is as long, unless
    the reserved count had more digits: the rows then move forward in
    chunks of _MOVE_BYTES, each read before it is overwritten."""
    end = start + len(header) + nbytes
    if len(header) < reserved:
        for at in range(0, nbytes, _MOVE_BYTES):
            file.seek(start + reserved + at)
            chunk = file.read(min(_MOVE_BYTES, nbytes - at))
            file.seek(start + len(header) + at)
            file.write(chunk)
    file.truncate(end)
    file.seek(start)
    file.write(header)
    file.seek(end)


def _run_picard(
    T: MapSpec, m: ModularLike, x0, tol: float, max_iter: int, power: int, file=None
) -> IterationTrace:
    """Picard on T^power from x0, for `picard_solve`, `solve_via_power` and
    `output.reverify_trace`. The orbit is walked in `MapSpec.orbit` blocks,
    8 rows first, then `_block_size` rows up to `_block_cap(d)`. A block is
    tested for finite entries as a whole and its steps are one modular
    call. A trace row depends only on the rows before it, so block sizes
    change no bit, stop or error.

    Without `file` every block is written into the trace table's tail: the
    table grows by the block, whose first row is the last block's last, and
    shrinks to the kept rows at the end. With `file`, an open binary file
    (readable, writable and seekable) at the point where the table is to
    start, the blocks are walked in one table, grown to the largest block
    so far plus two rows (at most `_block_cap(d) + 2`): row 0 holds the row
    before the block (the underflow test reads it), and each block's kept
    rows are appended to the file as they are judged.
    The file starts with `np.save`'s header for max_iter + 1 rows; however
    the run ends, that header is rewritten for the rows written
    (`_end_table`), so the file is `np.save` of the rows judged so far, and
    the trace holds the last row alone."""
    if tol <= 0:
        raise ValueError("tol must be > 0")
    if max_iter < 0:
        raise ValueError("max_iter must be >= 0")
    if power < 1:  # T^0 fixes every point, so any x0 would pass as converged
        raise ValueError("power must be >= 1")
    rho = m._evaluate_owned
    x = as_point(x0, _map_dim(T, m, x0))
    dtype, error = IterationTrace.dtype(x.size), None
    n, step, size, cap = 0, math.nan, _BLOCK_MIN, _block_cap(x.size)
    if file is None:
        table, o = np.empty(1, dtype), 0  # table[o] holds x_n
    else:
        table, o = np.empty(2, dtype), 1
        start, reserved = file.tell(), _npy_header(dtype, max_iter + 1)
        file.write(reserved)
    table["x"][o] = x
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            while n <= max_iter:
                # X[i] = x_{n+i}, in the table grown by the block while no view
                # of it is alive (README "Performance notes"); X[rows] starts
                # the next block. Row i's residual rho(X[i+1] - X[i]) is row
                # i+1's step; a non-finite image gives +inf
                rows = min(size, max_iter + 1 - n)
                if file is None:
                    table.resize(n + rows + 1, refcheck=False)
                    o = n
                elif len(table) < rows + 2:
                    table.resize(rows + 2, refcheck=False)
                X = T.orbit(table["x"][o], rows, power, out=table["x"][o : o + rows + 1])
                fin = rows + 1  # leading rows in the space
                if not np.isfinite(X).all():  # the first row with a non-finite entry
                    fin = int(np.argmin(np.isfinite(X).all(axis=1)))
                res = np.full(min(rows, fin), INF)
                if fin > 1:  # a batched functional is never handed an empty batch
                    res[: fin - 1] = rho(np.subtract(X[1:fin], X[: fin - 1]))
                del X
                step_mods = np.concatenate(([step], res[:-1]))
                hit = np.flatnonzero((step_mods <= tol) & (res <= tol))
                k = int(hit[0]) + 1 if hit.size else res.size
                kept = table[o : o + k]
                kept["step_mod"], kept["residual"] = step_mods[:k], res[:k]
                under = hit.size and _underflows(table["x"], o + k - 1, step_mods[k - 1], res[k - 1])
                if file is not None:
                    file.write(kept)
                    table[:2] = table[k : k + 2]  # the last kept row and the next
                del kept
                n += k  # the rows kept so far
                if hit.size:
                    if under:
                        error = ModularUnderflowError(
                            f"modular underflow at step {n - 1}: rho is 0 at a nonzero step or "
                            f"residual, so the stopping test (tol {tol:.3e}) measured nothing")
                    break
                if fin <= rows and max_iter:  # max_iter = 0 records x0 alone, whatever T x0 is
                    error = DivergenceError(f"non-finite iterate at step {n}")
                    break
                step, size = float(res[-1]), _block_size(res, tol, cap)
    finally:
        if file is not None:
            _end_table(file, start, len(reserved), _npy_header(dtype, n), n * dtype.itemsize)
    if file is None:
        table.resize(n, refcheck=False)  # drops the image past the last kept row
    else:
        table = table[:1].copy()  # the last kept row
    trace = IterationTrace(table, power=power, rows=n)
    if error is not None:
        error.trace = trace
        raise error
    if hit.size:
        trace.converged, trace.fixed_point = True, trace.X[-1].copy()
    return trace


def _underflows(X: np.ndarray, i: int, step: float, res: float) -> bool:
    """Whether the stopping row X[i] passed on a modular of 0 at a nonzero
    difference: its step from X[i - 1] or its residual X[i + 1] - X[i].
    Only this row is judged (row 0 has no step: its step modular is nan)."""
    x = X[i]
    return bool((step == 0.0 and np.any(x != X[i - 1])) or (res == 0.0 and np.any(X[i + 1] != x)))


def picard_solve(
    T: MapSpec, m: ModularLike, x0, tol: float, max_iter: int, *, file=None
) -> IterationTrace:
    """Iterate x_{n+1} = T x_n until step and residual modulars are <= tol.

    Records every step; `fixed_point` is set only on convergence. A
    non-finite iterate raises DivergenceError carrying the partial trace.
    A stop on a step or residual modular of 0 at a nonzero difference (an
    underflow, e.g. 2**-1100 under the p = 1100 power modular) raises
    ModularUnderflowError carrying the trace up to that row.
    With max_iter = 0 the trace holds only the initial point.
    With `file` (a binary file open for reading and writing) the rows are
    streamed into it as `np.save` of the trace table, and the returned
    trace holds the last row alone (`_run_picard`).
    """
    return _run_picard(T, m, x0, tol, max_iter, 1, file)


def power_index(c: float, k: float) -> int:
    """Smallest n >= 1 with c**n * k < 1/2.

    `k` is a doubling constant, any finite positive value is accepted;
    an unbounded (infinite) k has no applicable index and raises.
    """
    if not 0.0 <= c < 1.0:
        raise ValueError("c must lie in [0, 1)")
    if not k > 0.0:
        raise ValueError("k must be > 0")
    if math.isinf(k):
        raise ValueError("doubling constant is unbounded; power selection not applicable")
    if c * k < 0.5:
        return 1
    # analytic first guess, then settle the boundary exactly in floats
    n = max(1, math.ceil(math.log(0.5 / k) / math.log(c)))
    while c**n * k >= 0.5:
        n += 1
    while n > 1 and c ** (n - 1) * k < 0.5:
        n -= 1
    return n


def solve_via_power(
    T: MapSpec, m: ModularLike, c: float, x0, tol: float, max_iter: int, *,
    k: float | None = None, file=None,
) -> IterationTrace:
    """Picard on the composite T^n with n = power_index(c, k), then confirm
    the result is fixed for T itself.

    Without `k` the family's exact doubling constant is used; ValueError
    when it has none (pass k, e.g. from `checks.doubling_constant`) or it is
    unbounded. The composite is applied by n-fold application per step. A
    composite fixed point whose single-map residual exceeds tol raises
    InconsistentContractionError: the contraction claim c is then false
    (e.g. the map has a periodic orbit). `file` streams the rows as in
    `picard_solve`.
    """
    if k is None:
        k = exact_doubling_constant(m)
    if k is None:
        raise ValueError("no exact doubling constant for this modular; pass k "
                         "(checks.doubling_constant estimates one)")
    n = power_index(c, float(k))
    trace = _run_picard(T, m, x0, tol, max_iter, n, file)
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

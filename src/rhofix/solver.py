"""Contraction verification and Picard fixed-point iteration under a modular.

Picard iterates x_{n+1} = T x_n and tracks two modulars per step: the
step modular rho(x_n - x_{n-1}) and the residual rho(T x_n - x_n).
Convergence requires BOTH below tol, which guards against declaring
victory on a slowly moving orbit. The orbit depends on T alone, so it is
computed first, in blocks (`MapSpec.orbit`, each row written in place by
the map's step kernel) walked in one block-sized table laid out as a trace
row (`IterationTrace.dtype`); each block's modulars are then one batch
call, evaluated in place over the rows X[1:] - X[:-1] (residuals and
steps alike), and its kept rows are written to the run's `file` (such as
`output.trace_file`'s) or to the table the returned trace holds. The
first block has 8 rows. Each later one is sized from the geometric decay
of the residuals over the block before: the rows left until tol, plus a
small margin; it doubles instead while they do not decay. It holds at
least 8 rows and at most max(256, 65,536 // d), so no block has more
entries than 256 rows at d = 256.

`solve_via_power` implements the doubling-constant shortcut: pick the
smallest n with c**n k < 1/2 (k the doubling constant rho(2x) <= k rho(x)),
iterate the n-fold composite, then confirm the point is fixed for the
single map. k comes from the caller or a closed form, never from samples
(`checks.doubling_constant` resolves it once per solve).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
import numpy as np

from .checks import (AxiomReport, PointSampler, _ineq_violations, _walk,
                     exact_doubling_constant)
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
        kernel holds one scratch array of `shape`; with `folded`, its step
        takes sign-folded values v = s y and returns s T(y) (see `orbit`).
        Other kinds ignore `folded`. README "Performance notes" says how a
        step keeps the formula's bits in fewer calls."""
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
        caller decides what they mean. A damped-logistic orbit is stepped on
        the sign-folded values s x, s = copysign(1, x), and unfolded with one
        X[1:] *= s pass, with the unfolded orbit's bits (README "Performance
        notes" has the proof)."""
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
    `dtype(d)`. `table` holds every row, or the last row alone for a run
    given a `file` (so `X` is that row alone then); `rows` counts the run's
    rows either way. `X` and the modulars are views of the table's fields,
    read through properties, so none of them can be reassigned."""

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


def _ratio_check(
    T: MapSpec, m: ModularLike, scale: float, factor: float,
    sampler: PointSampler, trials: int, axiom: str, scalars: tuple,
) -> AxiomReport:
    """Sampled check of rho(scale (Tx - Ty)) <= factor rho(x - y).

    The rows are every canonical basis vector against the origin, then
    `trials` sampled pairs: all x are the sampler's next trials * d words,
    then all y the words after them. The stacked rows are walked in
    `checks._walk` blocks of max(1, _CHECK_VALUES // d) rows, the last of
    which takes in a remainder of up to 1/16 of a block (so the 544 rows of
    d = 32 at 512 trials are one block); each block's x and y are mapped by
    one `T.apply` call each, its modulars are one batch evaluation each,
    and its violations are recorded in row order. Only rho(x - y) and
    rho(scale (Tx - Ty)) of every row are kept.

    The report carries the largest observed ratio
    rho(scale (Tx - Ty)) / rho(x - y) over the rows where both modulars
    measure something: a 0 at x != y, or at Tx != Ty, is an underflow, and
    so is a ratio of 0 between two positive modulars. Whether Tx = Ty on a
    row whose modular reads 0 is read off the block's own images.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    dim = _map_dim(T, m, np.zeros(sampler.dim))
    rhos, lhss = [], []  # each block's rho(x - y) and rho(scale (Tx - Ty))
    rep, tied = AxiomReport(trials=trials), False

    def judge(at, end, draw):
        nonlocal tied
        X = np.eye(max(0, min(end, dim) - at), dim, at)  # the block's basis rows, if any
        Y = np.zeros(X.shape)
        if end > dim:  # and its sampled rows
            X = draw() if at >= dim else np.vstack((X, draw()))
            Y = draw() if at >= dim else np.vstack((Y, draw()))
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

    _walk(sampler, trials, ((sampler.points, dim),) * 2, judge, lead=dim)
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


class _Rows:
    """The rows of a run given no file: a table grown by each write."""

    def __init__(self, dtype: np.dtype):
        self.table = np.empty(0, dtype)

    def write(self, rows: np.ndarray) -> None:
        n = len(self.table)
        self.table.resize(n + len(rows), refcheck=False)
        self.table[n:] = rows


def _run_picard(
    T: MapSpec, m: ModularLike, x0, tol: float, max_iter: int, power: int, file=None
) -> IterationTrace:
    """Picard on T^power from x0, for `picard_solve`, `solve_via_power` and
    `output.reverify_trace`. The orbit is walked in `MapSpec.orbit` blocks,
    8 rows first, then `_block_size` rows up to `_block_cap(d)`. A block is
    tested for finite entries as a whole and its steps are one modular
    call. A trace row depends only on the rows before it, so block sizes
    change no bit, stop or error.

    The blocks are walked in one table, grown to the largest block so far
    plus two rows (at most `_block_cap(d) + 2`): row 0 holds the row before
    the block (the underflow test reads it). Each block's kept rows go to
    `file.write` as they are judged, so however the run ends `file` has
    every row judged so far; given no `file`, to a `_Rows` table, which the
    trace holds (given one, the trace holds the last row alone)."""
    if tol <= 0:
        raise ValueError("tol must be > 0")
    if max_iter < 0:
        raise ValueError("max_iter must be >= 0")
    if power < 1:  # T^0 fixes every point, so any x0 would pass as converged
        raise ValueError("power must be >= 1")
    rho = m._evaluate_owned
    x = as_point(x0, _map_dim(T, m, x0))
    dtype, error = IterationTrace.dtype(x.size), None
    sink = _Rows(dtype) if file is None else file
    n, step, size, cap = 0, math.nan, _BLOCK_MIN, _block_cap(x.size)
    table = np.empty(2, dtype)
    table["x"][1] = x
    with np.errstate(over="ignore", invalid="ignore"):
        while n <= max_iter:
            # X[i] = x_{n+i}, in the table grown to the block while no view of
            # it is alive (README "Performance notes"); X[rows] starts the
            # next block. Row i's residual rho(X[i+1] - X[i]) is row i+1's
            # step; a non-finite image gives +inf
            rows = min(size, max_iter + 1 - n)
            if len(table) < rows + 2:
                table.resize(rows + 2, refcheck=False)
            X = T.orbit(table["x"][1], rows, power, out=table["x"][1 : rows + 2])
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
            kept = table[1 : k + 1]
            kept["step_mod"], kept["residual"] = step_mods[:k], res[:k]
            under = hit.size and _underflows(table["x"], k, step_mods[k - 1], res[k - 1])
            sink.write(kept)
            del kept
            table[:2] = table[k : k + 2]  # the last kept row and the next
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
    trace = IterationTrace(sink.table if file is None else table[:1].copy(), power=power, rows=n)
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
    With `file`, anything whose `write` takes a table of trace rows (such as
    `output.trace_file`'s), each block's kept rows are written to it in
    order, and the returned trace holds the last row alone.
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

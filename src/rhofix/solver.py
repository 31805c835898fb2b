"""Contraction verification and Picard fixed-point iteration under a modular.

Picard iterates x_{n+1} = T x_n and tracks three modulars per step: the
step modular rho(x_n - x_{n-1}), the residual rho(T x_n - x_n) and the
doubled-orbit modular rho(2 x_n). Convergence requires BOTH the step and
residual modulars below tol, which guards against declaring victory on a
slowly moving orbit. The orbit depends on T alone, so it is computed first,
in blocks (`MapSpec.orbit`, each row written in place by the map's step
kernel); each block's modulars are then one batch call, evaluated in place
over the rows X[1:] - X[:-1] (residuals and steps alike) and 2 X. The first
block has 8 rows. Each later one is sized from the geometric decay of the
residuals over the block before: the rows left until tol, plus a small
margin, within 8..256 rows; it doubles instead while they do not decay.
Each block's kept rows are copied into one record as the run goes: the rows
`X` and one float column per modular.

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

    def _kernel(self, shape: tuple):
        """The map's formula as an in-place kernel `step(y, out)` on arrays of
        `shape`: the one place each kind's arithmetic is written. `out` may be
        `y`: each kernel reads y before it overwrites it. A damped-logistic
        kernel holds one scratch array of `shape`. A step makes only the calls
        its arithmetic needs: scalars are 0-d float64 arrays bound once, so no
        call promotes a Python float (same values, same bits), and an affine
        row is `np.dot`, matmul's BLAS product and bits without its gufunc
        dispatch, which buffers an output that overlaps its input."""
        # the ufuncs are bound once, so a step makes no module attribute lookups
        if self.kind is MapKind.AFFINE:
            A, b, dot, add = self.matrix.T, self.offset, np.dot, np.add

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

    def orbit(self, x, steps: int, power: int = 1) -> np.ndarray:
        """Rows x, T^power x, ..., T^(power * steps) x, each `power` steps of
        the row before, each written in its slot (with power > 1, the steps
        before the last alternate between two scratch rows). Non-finite rows
        are kept; the caller decides what they mean."""
        x = self._checked(x)
        X = np.empty((steps + 1, x.size))
        X[0] = x
        if power < 1:  # T^0 is the identity
            X[1:] = X[0]
            return X
        step, (s, t) = self._kernel(X[0].shape), np.empty((2, x.size))
        with np.errstate(over="ignore", invalid="ignore"):
            rows = iter(X)  # one view per row, made as the loop reaches it
            y = next(rows)
            for out in rows:
                for _ in range(power - 1):
                    step(y, s)
                    y, s, t = s, t, s
                step(y, out)
                y = out
        return X


@dataclass
class IterationTrace:
    """Full record of one Picard run: the iterates as rows of `X`, one column per modular."""

    X: np.ndarray              # (rows, d)
    step_mod: np.ndarray       # rho(x_n - x_{n-1}); nan at n = 0
    residual: np.ndarray       # rho(T x_n - x_n)
    doubled_orbit: np.ndarray  # rho(2 x_n)
    converged: bool = False
    fixed_point: np.ndarray | None = None
    power: int = 1              # the composite T^power the engine stepped
    k_used: float | None = None  # doubling constant behind the power choice

    @property
    def iterations(self) -> int:
        return len(self.X) - 1


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
    `trials` sampled pairs: all x are drawn as one batch, then all y. Each
    side is mapped by one `T.apply` call and every modular is one batch
    evaluation. The report carries the largest observed ratio
    rho(scale (Tx - Ty)) / rho(x - y) over the rows where both modulars
    measure something: a 0 at x != y, or at Tx != Ty, is an underflow, and
    so is a ratio of 0 between two positive modulars.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    dim = _map_dim(T, m, np.zeros(sampler.dim))
    X = np.vstack((np.eye(dim), sampler.points(trials)))
    Y = np.vstack((np.zeros((dim, dim)), sampler.points(trials)))
    d = m._evaluate_owned(X - Y)
    TX = T.apply(X)
    np.subtract(TX, T.apply(Y), out=TX)  # scale (Tx - Ty) is formed in TX's buffer
    lhs = m._evaluate_owned(np.multiply(scale, TX, out=TX))
    with np.errstate(invalid="ignore"):  # 0 * inf: a zero factor bounds an infinite gap by 0
        rhs = np.where(np.isinf(d), INF if factor > 0.0 else 0.0, factor * d)
    rep = AxiomReport(trials=trials)
    i = _ineq_violations(lhs, rhs)
    rep.record_rows(axiom, (X[i], Y[i]), scalars, lhs[i], rhs[i])
    ok = np.flatnonzero((d > 0.0) & (d < INF) & ~np.isinf(lhs))
    if ok.size:
        top = float(np.max(lhs[ok] / d[ok]))
        if top == 0.0:
            # a ratio of 0 counts only where Tx = Ty exactly: at Tx != Ty
            # rho(Tx - Ty), or the ratio itself, underflowed. The images are
            # mapped again here, so the usual case holds no batch of them
            z = ok[lhs[ok] == 0.0]
            if not np.any(np.all(T.apply(X)[z] == T.apply(Y)[z], axis=-1)):
                top = math.nan
        rep.max_ratio = top
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


_BLOCK_MIN, _BLOCK_MAX = 8, 256  # rows per Picard orbit block


def _block_size(res: np.ndarray, tol: float) -> int:
    """Rows for the next orbit block, from the last block's residuals `res`.
    While they decay, their mean geometric rate gives the rows left until
    step and residual reach tol, and the block is those rows plus a margin
    of 1/16 and one row. Otherwise the block doubles. Either way it stays
    within _BLOCK_MIN.._BLOCK_MAX."""
    first, last = float(res[0]), float(res[-1])
    if 0.0 < last < first < INF:
        rate = (math.log(last) - math.log(first)) / (len(res) - 1)  # log decay per row
        if rate < 0.0:
            # the next block's row i has step modular last * e**(rate i), so it
            # stops at the first i where that is <= tol and must map rows 0..i
            need = math.ceil(max(0.0, (math.log(tol) - math.log(last)) / rate)) + 1
            return min(max(need + need // 16 + 1, _BLOCK_MIN), _BLOCK_MAX)
    return min(2 * len(res), _BLOCK_MAX)


def _run_picard(
    T: MapSpec, m: ModularLike, x0, tol: float, max_iter: int, power: int
) -> IterationTrace:
    if tol <= 0:
        raise ValueError("tol must be > 0")
    if max_iter < 0:
        raise ValueError("max_iter must be >= 0")
    rho = m._evaluate_owned
    x = as_point(x0, _map_dim(T, m, x0))
    # the rows X and their step, residual and doubled-orbit columns, grown block by block
    record, error = [np.empty((0, x.size)), np.empty(0), np.empty(0), np.empty(0)], None
    n, step, size = 0, math.nan, _BLOCK_MIN
    with np.errstate(over="ignore", invalid="ignore"):
        while n <= max_iter:
            # X[i] = x_{n+i}; X[rows] starts the next block. Row i's residual
            # rho(X[i+1] - X[i]) is row i+1's step; a non-finite image gives +inf
            rows = min(size, max_iter + 1 - n)
            X = T.orbit(x, rows, power)
            left = np.flatnonzero(~np.isfinite(X).all(axis=1))
            fin = int(left[0]) if left.size else rows + 1  # leading rows in the space
            res = np.full(min(rows, fin), INF)
            # one modular call: the fin - 1 steps, then the rows of res doubled,
            # in one array that is freed before `_append` (see there)
            S = np.empty((fin - 1 + res.size, x.size))
            np.subtract(X[1:fin], X[: fin - 1], out=S[: fin - 1])
            np.multiply(2.0, X[: res.size], out=S[fin - 1 :])
            mods = rho(S)
            del S
            res[: fin - 1] = mods[: fin - 1]
            step_mods = np.concatenate(([step], res[:-1]))
            hit = np.flatnonzero((step_mods <= tol) & (res <= tol))
            k = int(hit[0]) + 1 if hit.size else res.size
            if hit.size and _underflows(X[: k + 1], record[0], step_mods[k - 1], res[k - 1]):
                error = ModularUnderflowError(
                    f"modular underflow at step {n + k - 1}: rho is 0 at a nonzero step or "
                    f"residual, so the stopping test (tol {tol:.3e}) measured nothing")
            _append(record, (X[:k], step_mods[:k], res[:k], mods[fin - 1 : fin - 1 + k]))
            if hit.size:
                break
            if fin <= rows and max_iter:  # max_iter = 0 records x0 alone, whatever T x0 is
                error = DivergenceError(f"non-finite iterate at step {n + fin}")
                break
            n, x, step, size = n + rows, X[rows], float(res[-1]), _block_size(res, tol)
    trace = IterationTrace(*record, power=power)
    if error is not None:
        error.trace = trace
        raise error
    if hit.size:
        trace.converged, trace.fixed_point = True, trace.X[-1].copy()
    return trace


def _underflows(X: np.ndarray, before: np.ndarray, step: float, res: float) -> bool:
    """Whether the stopping row X[-2] passed on a modular of 0 at a nonzero
    difference: its step from the row before (X[-3], else the record's last
    row `before`) or its residual X[-1] - X[-2]. Only this row is judged."""
    x, prev = X[-2], X[-3] if len(X) > 2 else before[-1]
    return bool((step == 0.0 and np.any(x != prev)) or (res == 0.0 and np.any(X[-1] != x)))


def _append(record: list[np.ndarray], block: tuple[np.ndarray, ...]) -> None:
    """Append a block's rows to the record arrays, in place. `resize`
    reallocs: an mmapped buffer is remapped and a heap buffer extends into
    free space above it, neither copied; else glibc copies a heap record
    past its mmap threshold into a new mapping and keeps the old pages
    (3 MB at d = 256). So the block's scratch is freed first, leaving that
    space at the heap top. Growing by more than the block would commit the
    slack too, since `resize` zero-fills it. No view of a record array may
    exist while it grows (hence refcheck=False)."""
    for a, part in zip(record, block):
        n = len(a)
        a.resize((n + len(part), *a.shape[1:]), refcheck=False)
        a[n:] = part


def picard_solve(T: MapSpec, m: ModularLike, x0, tol: float, max_iter: int) -> IterationTrace:
    """Iterate x_{n+1} = T x_n until step and residual modulars are <= tol.

    Records every step; `fixed_point` is set only on convergence. A
    non-finite iterate raises DivergenceError carrying the partial trace.
    A stop on a step or residual modular of 0 at a nonzero difference (an
    underflow, e.g. 2**-1100 under the p = 1100 power modular) raises
    ModularUnderflowError carrying the trace up to that row.
    With max_iter = 0 the trace holds only the initial point.
    """
    return _run_picard(T, m, x0, tol, max_iter, power=1)


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
    T: MapSpec, m: ModularLike, c: float, x0, tol: float, max_iter: int, *, k: float | None = None
) -> IterationTrace:
    """Picard on the composite T^n with n = power_index(c, k), then confirm
    the result is fixed for T itself.

    Without `k` the family's exact doubling constant is used; ValueError
    when it has none (pass k, e.g. from `checks.doubling_constant`) or it is
    unbounded. The composite is applied by n-fold application per step. A
    composite fixed point whose single-map residual exceeds tol raises
    InconsistentContractionError: the contraction claim c is then false
    (e.g. the map has a periodic orbit).
    """
    if k is None:
        k = exact_doubling_constant(m)
    if k is None:
        raise ValueError("no exact doubling constant for this modular; pass k "
                         "(checks.doubling_constant estimates one)")
    n = power_index(c, float(k))
    trace = _run_picard(T, m, x0, tol, max_iter, power=n)
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

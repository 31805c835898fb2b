"""Contraction verification and Picard fixed-point iteration under a modular.

The central loop iterates x_{n+1} = T x_n and tracks three modulars per
step: the step modular rho(x_n - x_{n-1}), the residual rho(T x_n - x_n),
and the doubled-orbit modular rho(2 x_n). Convergence requires BOTH the
step and residual modulars below tol, which guards against declaring
victory on a slowly moving orbit.

`solve_via_power` implements the doubling-constant shortcut: pick the
smallest n with c**n k < 1/2 (k the doubling constant rho(2x) <= k rho(x)),
iterate the n-fold composite, then confirm the point is fixed for the
single map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
import numpy as np

from .checks import (
    AxiomReport,
    PointSampler,
    _ineq_violations,
    delta2_type_estimate,
    exact_doubling_constant,
)
from .errors import (
    DimensionMismatch,
    DivergenceError,
    InconsistentContractionError,
)
from .modular import INF, ModularLike, as_point

__all__ = [
    "MapKind",
    "MapSpec",
    "TraceStep",
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

    `c` is the claimed factor for rho(Tx - Ty) <= c rho(x - y); the triple
    (c, k, s) instead describes the scaled form rho(c (Tx - Ty)) <= k**s
    rho(x - y) whenever `s` is set. Claims are verified empirically by
    `verify_contraction` / `verify_s_contraction`, never trusted.
    """

    kind: MapKind
    matrix: np.ndarray | None = None
    offset: np.ndarray | None = None
    lam: float | None = None
    value: np.ndarray | None = None
    c: float | None = None
    k: float | None = None
    s: float | None = None

    @classmethod
    def affine(cls, matrix, offset, c: float | None = None) -> "MapSpec":
        a = np.atleast_2d(np.asarray(matrix, dtype=float))
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"matrix must be square, got shape {a.shape}")
        b = as_point(offset, a.shape[0])
        if not np.all(np.isfinite(a)):
            raise ValueError("matrix entries must be finite")
        return cls(MapKind.AFFINE, matrix=a, offset=b, c=_check_c(c))

    @classmethod
    def half(cls, c: float | None = 0.5) -> "MapSpec":
        return cls(MapKind.HALF, c=_check_c(c))

    @classmethod
    def logistic_damped(cls, lam: float, c: float | None = None) -> "MapSpec":
        if not lam >= 0:
            raise ValueError("lam must be >= 0")
        return cls(MapKind.LOGISTIC_DAMPED, lam=float(lam), c=_check_c(c))

    @classmethod
    def const(cls, value, c: float | None = 0.0) -> "MapSpec":
        return cls(MapKind.CONST, value=np.atleast_1d(np.asarray(value, dtype=float)), c=_check_c(c))

    @property
    def dim(self) -> int | None:
        """Fixed dimension for affine maps; None for coordinatewise maps."""
        if self.kind is MapKind.AFFINE:
            return self.matrix.shape[0]
        if self.kind is MapKind.CONST and self.value.size > 1:
            return self.value.size
        return None

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Apply the map to a point, or row-wise to an (n, dim) batch.

        Overflow is not an error here; the solver watches iterates for
        non-finite values and raises DivergenceError with the trace.
        """
        x = np.asarray(x, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            if self.kind is MapKind.AFFINE:
                if x.shape[-1] != self.matrix.shape[0]:
                    raise DimensionMismatch(
                        f"map is {self.matrix.shape[0]}-dimensional, point has shape {x.shape}"
                    )
                return x @ self.matrix.T + self.offset
            if self.kind is MapKind.HALF:
                return 0.5 * x
            if self.kind is MapKind.LOGISTIC_DAMPED:
                return self.lam * x / (1.0 + np.abs(x))
            if self.value.size not in (1, x.shape[-1]):
                raise DimensionMismatch(
                    f"constant map target has dim {self.value.size}, point has shape {x.shape}"
                )
            return np.broadcast_to(self.value, x.shape).astype(float)

    def apply_power(self, x: np.ndarray, n: int) -> np.ndarray:
        """The composite T^n, by n-fold application, to a point or a batch."""
        for _ in range(n):
            x = self.apply(x)
        return x


def _check_c(c: float | None) -> float | None:
    if c is None:
        return None
    c = float(c)
    if not 0.0 <= c < 1.0:
        raise ValueError(f"claimed contraction factor must lie in [0, 1), got {c}")
    return c


@dataclass
class TraceStep:
    n: int
    x: np.ndarray
    step_mod: float       # rho(x_n - x_{n-1}); nan at n = 0
    residual: float       # rho(T x_n - x_n)
    doubled_orbit: float  # rho(2 x_n)


@dataclass
class IterationTrace:
    """Full record of one Picard run."""

    steps: list[TraceStep] = field(default_factory=list)
    converged: bool = False
    fixed_point: np.ndarray | None = None
    power: int = 1              # the composite T^power the engine stepped
    k_used: float | None = None  # doubling constant behind the power choice

    @property
    def iterations(self) -> int:
        return self.steps[-1].n if self.steps else 0


def _map_dim(T: MapSpec, m: ModularLike, x0) -> int:
    dims = {d for d in (T.dim, m.dim, np.atleast_1d(np.asarray(x0)).size) if d is not None}
    if len(dims) > 1:
        raise DimensionMismatch(f"map/modular/point dimensions disagree: {sorted(dims)}")
    return dims.pop()


def _check_scaled(c: float | None, k: float | None, s: float) -> None:
    """Preconditions of the scaled form rho(c (Tx - Ty)) <= k**s rho(x - y)."""
    if c is None or k is None or not (k >= 0.0 and c > max(1.0, k)):
        raise ValueError(f"requires c > max(1, k) and k >= 0; got c = {c}, k = {k}")
    if not 0.0 < s <= 1.0:
        raise ValueError("s must lie in (0, 1]")


def _ratio_check(
    T: MapSpec, m: ModularLike, scale: float, factor: float,
    sampler: PointSampler, trials: int, axiom: str, scalars: tuple,
) -> AxiomReport:
    """Sampled check of rho(scale (Tx - Ty)) <= factor rho(x - y).

    The rows are every canonical basis vector against the origin, then
    `trials` sampled pairs: all x are drawn as one batch, then all y. Each
    side is mapped by one `T.apply` call and every modular is one batch
    evaluation. The report carries the largest observed ratio
    rho(scale (Tx - Ty)) / rho(x - y).
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    dim = _map_dim(T, m, np.zeros(sampler.dim))
    rho = m.evaluate_batch
    X = np.vstack((np.eye(dim), sampler.points(trials)))
    Y = np.vstack((np.zeros((dim, dim)), sampler.points(trials)))
    d = rho(X - Y)
    lhs = rho(scale * (T.apply(X) - T.apply(Y)))
    with np.errstate(invalid="ignore"):  # 0 * inf: a zero factor bounds an infinite gap by 0
        rhs = np.where(np.isinf(d), INF if factor > 0.0 else 0.0, factor * d)
    rep = AxiomReport(trials=trials)
    i = _ineq_violations(lhs, rhs)
    rep.record_rows(axiom, (X[i], Y[i]), scalars, lhs[i], rhs[i])
    ok = (d > 0.0) & (d < INF) & ~np.isinf(lhs)
    if np.any(ok):
        rep.max_ratio = float(np.max(lhs[ok] / d[ok]))
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
    _check_scaled(c, k, s)
    return _ratio_check(T, m, c, k**s, sampler, trials, "s_contraction", (c, k, s))


def _run_picard(
    T: MapSpec, m: ModularLike, x0, tol: float, max_iter: int, power: int
) -> IterationTrace:
    if tol <= 0:
        raise ValueError("tol must be > 0")
    if max_iter < 0:
        raise ValueError("max_iter must be >= 0")
    rho = m.evaluate_batch
    # apply_power returns a fresh array each step, so only x0 needs a copy
    x = prev = as_point(x0, _map_dim(T, m, x0)).copy()
    trace = IterationTrace(power=power)
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(max_iter + 1):
            fx = T.apply_power(x, power)
            ok = bool(np.all(np.isfinite(fx)))
            # step, residual and doubled-orbit modulars in one batch call; a
            # non-finite image is not evaluated and gives residual +inf
            rows = np.stack((x - prev, fx - x if ok else np.zeros_like(x), 2.0 * x))
            step_mod, residual, doubled = (float(v) for v in rho(rows))
            step_mod = step_mod if n else math.nan
            residual = residual if ok else INF
            trace.steps.append(TraceStep(n, x, step_mod, residual, doubled))
            if step_mod <= tol and residual <= tol:
                trace.converged = True
                trace.fixed_point = x.copy()
                break
            if not ok and max_iter:  # max_iter = 0 records x0 alone, whatever T x0 is
                raise DivergenceError(f"non-finite iterate at step {n + 1}", trace=trace)
            prev, x = x, fx
    return trace


def picard_solve(T: MapSpec, m: ModularLike, x0, tol: float, max_iter: int) -> IterationTrace:
    """Iterate x_{n+1} = T x_n until step and residual modulars are <= tol.

    Records every step; `fixed_point` is set only on convergence. A
    non-finite iterate raises DivergenceError carrying the partial trace.
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
    T: MapSpec,
    m: ModularLike,
    c: float,
    x0,
    tol: float,
    max_iter: int,
    *,
    k: float | None = None,
    sampler: PointSampler | None = None,
    trials: int = 256,
) -> IterationTrace:
    """Picard on the composite T^n with n = power_index(c, k), then confirm
    the result is fixed for T itself.

    The doubling constant k is taken exactly where the family scales
    exactly, otherwise estimated from samples (a sampler is then required).
    The composite is applied by n-fold application per step. A composite
    fixed point whose single-map residual exceeds tol raises
    InconsistentContractionError: the contraction claim c is then false
    (e.g. the map has a periodic orbit).
    """
    if k is None:
        k = exact_doubling_constant(m)
    if k is None:
        if sampler is None:
            raise ValueError("sampler required to estimate the doubling constant")
        est = delta2_type_estimate(m, sampler, trials)
        if est.unbounded:
            raise ValueError("doubling constant unbounded; power path not applicable")
        k = est.constant
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

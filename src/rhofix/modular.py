"""Modular functionals on finite-dimensional vectors and the associated F-norm.

A modular is a functional rho: X -> [0, +inf] with

    (1)  rho(x) = 0  iff  x = 0,
    (2)  rho(x) = rho(-x),
    (3)  rho(a x + b y) <= rho(x) + rho(y)   for a, b >= 0, a + b = 1.

Three concrete families are shipped, all on d-dimensional real vectors:

    PPOWER        rho(x) = sum_i |x_i|**p                        (p > 0)
    ORLICZ        rho(f) = (1/N) sum_i phi(|f_i|), the midpoint rule on N
                  cells of [0, 1] with the coordinates read as cell samples
    WEIGHTED_SUM  rho(x) = sum_i w_i |x_i|**p                    (w_i > 0)

Values may overflow to +inf; that is legal (the codomain includes +inf) and
is propagated rather than raised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Union

import numpy as np

from .errors import BracketSearchError, DimensionMismatch

__all__ = [
    "REL_TOL",
    "ABS_TOL",
    "slack_tol",
    "as_point",
    "Family",
    "Phi",
    "ModularSpec",
    "NamedFunctional",
    "ModularLike",
    "f_norm",
]

# Slack policy for every inequality check: double-precision rounding across
# sums of up to ~1e4 terms.
REL_TOL = 1e-9
ABS_TOL = 1e-12

INF = float("inf")


def slack_tol(*values: float) -> float:
    """Allowed numeric slack for an inequality among `values`."""
    scale = 0.0
    for v in values:
        if math.isfinite(v):
            scale = max(scale, abs(v))
    return ABS_TOL + REL_TOL * scale


def as_point(x, dim: int | None = None) -> np.ndarray:
    """Validate `x` as a point of the space: a finite 1-D float vector.

    Scalars are promoted to dim-1 vectors. When `dim` is given, a mismatch
    raises DimensionMismatch.
    """
    a = np.asarray(x, dtype=float)
    if a.ndim == 0:
        a = a.reshape(1)
    if a.ndim != 1 or a.size < 1:
        raise ValueError(f"point must be a 1-D vector with dim >= 1, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("point coordinates must be finite")
    if dim is not None and a.size != dim:
        raise DimensionMismatch(f"expected a point of dim {dim}, got dim {a.size}")
    return a


class Family(Enum):
    PPOWER = "ppower"
    ORLICZ = "orlicz"
    WEIGHTED_SUM = "weighted_sum"


class Phi(Enum):
    """Young-type integrands for the ORLICZ family."""

    POWER = "power"            # phi(u) = u**p
    EXP_MINUS_ONE = "exp_minus_one"  # phi(u) = e**u - 1
    U_LOG = "u_log"            # phi(u) = u * log(1 + u)


@dataclass(frozen=True)
class ModularSpec:
    """One concrete modular functional with a fixed dimension.

    Use the factories `p_power`, `orlicz`, `weighted_sum` rather than the
    raw constructor; they validate the parameter set for the family.
    """

    family: Family
    dim: int
    p: float | None = None
    phi: Phi | None = None
    weights: tuple[float, ...] | None = None
    quadrature_nodes: int | None = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.family is Family.PPOWER:
            if self.p is None or not self.p > 0:
                raise ValueError("PPOWER requires exponent p > 0")
        elif self.family is Family.WEIGHTED_SUM:
            if self.p is None or not self.p > 0:
                raise ValueError("WEIGHTED_SUM requires exponent p > 0")
            if self.weights is None or len(self.weights) != self.dim:
                raise DimensionMismatch("WEIGHTED_SUM needs one weight per coordinate")
            # a zero weight would give rho(x) = 0 at a nonzero x
            if not all(w > 0 for w in self.weights):
                raise ValueError("WEIGHTED_SUM weights must all be > 0")
        elif self.family is Family.ORLICZ:
            if self.quadrature_nodes is None or self.quadrature_nodes < 1:
                raise ValueError("ORLICZ requires quadrature_nodes >= 1")
            if self.quadrature_nodes != self.dim:
                raise DimensionMismatch("ORLICZ coordinates are cell samples: dim must equal quadrature_nodes")
            if self.phi is None:
                raise ValueError("ORLICZ requires an integrand phi")
            if self.phi is Phi.POWER and (self.p is None or not self.p > 0):
                raise ValueError("ORLICZ POWER integrand requires exponent p > 0")
        if self.weights is not None:
            object.__setattr__(self, "_w", np.asarray(self.weights, dtype=float))

    @classmethod
    def p_power(cls, p: float, dim: int) -> "ModularSpec":
        return cls(Family.PPOWER, dim=dim, p=float(p))

    @classmethod
    def orlicz(cls, phi: Phi, quadrature_nodes: int, p: float | None = None) -> "ModularSpec":
        return cls(
            Family.ORLICZ,
            dim=quadrature_nodes,
            phi=phi,
            p=None if p is None else float(p),
            quadrature_nodes=quadrature_nodes,
        )

    @classmethod
    def weighted_sum(cls, p: float, weights) -> "ModularSpec":
        w = tuple(float(v) for v in weights)
        return cls(Family.WEIGHTED_SUM, dim=len(w), p=float(p), weights=w)

    def evaluate(self, x) -> float:
        """rho(x) per the family formula; exactly 0 at the zero vector.

        Overflow (and any non-finite magnitude fed in by a caller that
        tracks divergence itself) propagates to +inf. The formula lives in
        `evaluate_batch` alone, so a point and a one-row batch agree bit
        for bit.
        """
        a = np.atleast_1d(np.asarray(x, dtype=float))
        if a.ndim != 1 or a.size != self.dim:
            raise DimensionMismatch(f"expected a point of dim {self.dim}, got shape {a.shape}")
        return float(self.evaluate_batch(a[None])[0])

    def evaluate_batch(self, X) -> np.ndarray:
        """rho of every row of an (n, dim) array, with overflow to +inf."""
        A = np.asarray(X, dtype=float)
        if A.ndim != 2 or A.shape[1] != self.dim:
            raise DimensionMismatch(f"expected an (n, {self.dim}) batch, got shape {A.shape}")
        U = np.abs(A)
        with np.errstate(over="ignore", invalid="ignore"):
            if self.family is Family.PPOWER:
                tot = np.sum(U**self.p, axis=1)
            elif self.family is Family.WEIGHTED_SUM:
                tot = np.sum(self._w * U**self.p, axis=1)
            else:
                tot = np.sum(self._phi_values(U), axis=1) / self.quadrature_nodes
        return np.where(np.isnan(tot), INF, tot)

    def _phi_values(self, u: np.ndarray) -> np.ndarray:
        if self.phi is Phi.POWER:
            return u**self.p
        if self.phi is Phi.EXP_MINUS_ONE:
            return np.expm1(u)
        return u * np.log1p(u)


@dataclass(frozen=True)
class NamedFunctional:
    """An arbitrary named functional with an explicit dimension.

    Used for the shipped deliberately-invalid test functionals and for any
    caller-supplied rho; the checkers treat it like a ModularSpec.

    By default `fn` maps one point to one value and `evaluate_batch` loops
    over rows. `batched=True` declares that `fn` also maps an (n, dim)
    array to its n values in one call; `evaluate_batch` then makes that one
    call and `evaluate` is its one-row case, so the two agree bit for bit.
    """

    name: str
    fn: Callable[[np.ndarray], float | np.ndarray]
    dim: int
    batched: bool = False

    def evaluate(self, x) -> float:
        a = np.atleast_1d(np.asarray(x, dtype=float))
        if a.size != self.dim:
            raise DimensionMismatch(f"expected a point of dim {self.dim}, got dim {a.size}")
        if self.batched:
            return float(self.evaluate_batch(a.reshape(1, self.dim))[0])
        return float(self.fn(a))

    def evaluate_batch(self, X) -> np.ndarray:
        """rho of every row of an (n, dim) array: one `fn` call when
        `batched`, else a plain row loop."""
        A = np.asarray(X, dtype=float)
        if A.ndim != 2 or A.shape[1] != self.dim:
            raise DimensionMismatch(f"expected an (n, {self.dim}) batch, got shape {A.shape}")
        if not self.batched:
            return np.array([self.evaluate(row) for row in A], dtype=float)
        out = np.asarray(self.fn(A), dtype=float)
        if out.shape != (A.shape[0],):
            raise DimensionMismatch(
                f"batched {self.name!r} returned shape {out.shape} for {A.shape[0]} rows")
        return out


ModularLike = Union[ModularSpec, NamedFunctional]


# bracket doublings and bisection steps `f_norm` may take
_MAX_DOUBLINGS, _MAX_BISECT = 200, 128


def f_norm(m: ModularLike, x, tol: float = 1e-10) -> float:
    """The F-norm inf{t > 0 : rho(x / t) <= t}, by bracketed bisection.

    g(t) = rho(x / t) - t is nonincreasing minus increasing, hence strictly
    decreasing where finite, so a sign bracket pins the infimum and
    bisection converges unconditionally. The upper end is found by doubling
    from t = 1; failing to bracket within `_MAX_DOUBLINGS` doublings raises
    BracketSearchError. Returns 0 for the zero vector, and a value within
    `tol` of the infimum otherwise.
    """
    if tol <= 0:
        raise ValueError("tol must be > 0")
    rho = m.evaluate
    a = as_point(x, m.dim)
    if not np.any(a):
        return 0.0

    def g(t: float) -> float:
        return rho(a / t) - t

    hi = 1.0
    if g(hi) > 0:
        for _ in range(_MAX_DOUBLINGS):
            hi *= 2.0
            if g(hi) <= 0:
                break
        else:
            raise BracketSearchError(
                f"rho(x/t) stayed above t after {_MAX_DOUBLINGS} doublings (t = {hi:.3e})"
            )
        lo = hi / 2.0
    else:
        # infimum <= 1: halve down to a positive lower bracket
        lo = 0.5
        while g(lo) <= 0:
            lo *= 0.5
            if lo <= tol / 4.0:
                # the infimum is pinned below tol already
                return lo
        hi = 2.0 * lo

    for _ in range(_MAX_BISECT):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        if g(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)

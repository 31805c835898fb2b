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
        return cls(Family.ORLICZ, dim=quadrature_nodes, phi=phi, p=None if p is None else float(p))

    @classmethod
    def weighted_sum(cls, p: float, weights) -> "ModularSpec":
        w = tuple(float(v) for v in weights)
        return cls(Family.WEIGHTED_SUM, dim=len(w), p=float(p), weights=w)

    def evaluate(self, x) -> float:
        """rho(x) per the family formula; exactly 0 at the zero vector.

        Overflow (and any non-finite magnitude fed in by a caller that
        tracks divergence itself) propagates to +inf. The formula lives in
        `_rho` alone, so a point and a one-row batch agree bit for bit.
        """
        a = np.atleast_1d(np.asarray(x, dtype=float))
        if a.ndim != 1 or a.size != self.dim:
            raise DimensionMismatch(f"expected a point of dim {self.dim}, got shape {a.shape}")
        return float(self.evaluate_batch(a[None])[0])

    def evaluate_batch(self, X) -> np.ndarray:
        """rho of every row of an (n, dim) array, with overflow to +inf.
        X is never written: the formula runs on one new array, |X|."""
        return self._rho(np.abs(np.asarray(X, dtype=float)))

    def _evaluate_owned(self, A: np.ndarray) -> np.ndarray:
        """`evaluate_batch` of a C-contiguous float64 (n, dim) temporary
        that the caller gives up: A is overwritten, and nothing is allocated
        beyond the row sums."""
        return self._rho(np.abs(A, out=A))

    def _rho(self, U: np.ndarray) -> np.ndarray:
        """The family's formula on U = |X|, which it overwrites: the one
        place each family's arithmetic is written. Each step is the ufunc
        of the allocating expression, same operands in the same order, so
        the bits are its bits; `**=` keeps numpy's scalar-exponent fast
        paths (sqrt at 0.5, square at 2), and u**1 is u."""
        if U.ndim != 2 or U.shape[1] != self.dim:
            raise DimensionMismatch(f"expected an (n, {self.dim}) batch, got shape {U.shape}")
        with np.errstate(over="ignore", invalid="ignore"):
            if self.family is not Family.ORLICZ or self.phi is Phi.POWER:
                if self.p != 1.0:
                    U **= self.p
            elif self.phi is Phi.EXP_MINUS_ONE:
                np.expm1(U, out=U)
            else:
                np.multiply(U, np.log1p(U), out=U)
            if self.family is Family.WEIGHTED_SUM:
                np.multiply(self._w, U, out=U)
            tot = U.sum(axis=1)
            if self.family is Family.ORLICZ:
                tot /= self.dim
        tot[np.isnan(tot)] = INF
        return tot


@dataclass(frozen=True)
class NamedFunctional:
    """An arbitrary named functional with an explicit dimension.

    Used for the shipped deliberately-invalid test functionals and for any
    caller-supplied rho; the checkers treat it like a ModularSpec.

    `fn` maps an (n, dim) array to its n values in one call; `evaluate` is
    the one-row case of `evaluate_batch`, so the two agree bit for bit.
    """

    name: str
    fn: Callable[[np.ndarray], np.ndarray]
    dim: int

    def evaluate(self, x) -> float:
        a = np.atleast_1d(np.asarray(x, dtype=float))
        if a.size != self.dim:
            raise DimensionMismatch(f"expected a point of dim {self.dim}, got dim {a.size}")
        return float(self.evaluate_batch(a.reshape(1, self.dim))[0])

    def evaluate_batch(self, X) -> np.ndarray:
        """rho of every row of an (n, dim) array, in one `fn` call."""
        A = np.asarray(X, dtype=float)
        if A.ndim != 2 or A.shape[1] != self.dim:
            raise DimensionMismatch(f"expected an (n, {self.dim}) batch, got shape {A.shape}")
        out = np.asarray(self.fn(A), dtype=float)
        if out.shape != (A.shape[0],):
            raise DimensionMismatch(
                f"{self.name!r} returned shape {out.shape} for {A.shape[0]} rows")
        return out

    _evaluate_owned = evaluate_batch  # `fn` may not write its argument


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

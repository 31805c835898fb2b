"""Randomized checkers for modular axioms, s-convexity, doubling, and Fatou.

All checkers are deterministic for a given sampler seed and never raise on a
mathematical violation: findings are collected into an AxiomReport, which
counts every violation and keeps the first MAX_WITNESSES with full
witnesses. The only exceptions are usage errors and the invalid-modular
condition in `delta2_type_estimate`. Trials are drawn and evaluated in
batches; a report is independent of how the batches were split.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, InvalidModularError
from .modular import (
    ABS_TOL,
    INF,
    REL_TOL,
    Family,
    ModularLike,
    ModularSpec,
    NamedFunctional,
    Phi,
    as_point,
    slack_tol,
)

__all__ = [
    "MAX_WITNESSES",
    "PointSampler",
    "Violation",
    "AxiomReport",
    "check_modular_axioms",
    "check_s_convexity",
    "Delta2Result",
    "delta2_type_estimate",
    "exact_doubling_constant",
    "doubling_constant",
    "certified_factor",
    "check_fatou_sampled",
    "sine_bump",
    "sign_skewed",
    "dead_zone",
    "INVALID_FUNCTIONALS",
]

# coordinates the sampler snaps to occasionally; inequality failures tend to
# sit on round points and sign boundaries
_SPECIAL_VALUES = np.array([0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0])

MAX_WITNESSES = 20        # violations a report keeps as witnesses
_LOG_RANGE = (-3.0, 3.0)  # log10 of the least and greatest log-uniform magnitude
_FATOU_DIRECTIONS = 8     # direction pairs the Fatou check samples
_EPS = float(np.finfo(float).eps)
_TINY = math.ulp(0.0)     # the least subnormal double


def _row_sup(x: np.ndarray) -> np.ndarray:
    """Each row's sup-norm, one column at a time: a row-wise reduction runs
    one short inner loop per row."""
    a = np.abs(x)
    sup = a[:, 0].copy()
    for col in a.T[1:]:
        np.maximum(sup, col, out=sup)
    return sup


class PointSampler:
    """Seeded point generator used by every randomized checker.

    Coordinates are a mixture of uniform[-1, 1] draws, log-uniform
    magnitudes in [1e-3, 1e3] with random sign, and a sprinkle of special
    values (0, +-0.5, +-1, +-2): axiom and doubling failures often appear
    only at extreme scales or on round points.
    """

    def __init__(self, dim: int, seed: int = 0):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        self.dim = int(dim)
        self.seed = seed
        self.rng = np.random.default_rng(seed)

    def points(self, n: int) -> np.ndarray:
        """An (n, dim) batch of mixture-sampled points.

        The stream is five full (n, dim) draws in turn -- uniform(-1, 1),
        uniform(-3, 3) for log10 magnitudes, a sign draw, a mixture draw
        (the uniform value where < 0.45) and a special draw (a special
        value where < 0.10) -- then the special values' indices. Each draw
        is consumed before the next is made, so three (n, dim) buffers
        hold them all.
        """
        rng = self.rng
        shape = (n, self.dim)
        out = rng.uniform(-1.0, 1.0, shape)
        draw = rng.uniform(*_LOG_RANGE, shape)
        mags = np.power(10.0, draw)
        rng.random(out=draw)
        np.subtract(draw, 0.5, out=draw)
        np.copysign(mags, draw, out=mags)
        rng.random(out=draw)
        take = draw < 0.45
        # the mixture as a 64-bit blend, m ^ ((u ^ m) * take): exact and
        # branch-free, where np.where mispredicts on a random mask
        u, m, blend = out.view(np.int64), mags.view(np.int64), draw.view(np.int64)
        np.bitwise_xor(u, m, out=blend)
        np.multiply(blend, take, out=u)
        np.bitwise_xor(u, m, out=u)
        rng.random(out=draw)
        special = draw < 0.10
        k = np.count_nonzero(special)
        if k:
            # the draw rng.choice(_SPECIAL_VALUES, k) makes, without its argument checks
            out[special] = _SPECIAL_VALUES[rng.integers(0, _SPECIAL_VALUES.size, k)]
        return out

    def point(self) -> np.ndarray:
        return self.points(1)[0]

    def directions(self, n: int) -> np.ndarray:
        """An (n, dim) batch rescaled to unit sup-norm per row; a row that
        is all zeros is redrawn."""
        out = self.points(n)
        sup = _row_sup(out)
        redraw = np.flatnonzero(sup == 0.0)
        while redraw.size:
            out[redraw] = self.points(redraw.size)
            sup[redraw] = _row_sup(out[redraw])
            redraw = redraw[sup[redraw] == 0.0]
        return np.divide(out, sup[:, None], out=out)

    def units(self, n: int) -> np.ndarray:
        return self.rng.uniform(size=n)


@dataclass
class Violation:
    """One failed inequality with its witness.

    `slack` is the offense magnitude: lhs - rhs for inequality axioms, the
    absolute modular gap for symmetry, and the sup-norm of the offending
    point for the zero-iff axiom.
    """

    axiom: str
    points: tuple[np.ndarray, ...]
    scalars: tuple[float, ...]
    lhs: float
    rhs: float

    @property
    def slack(self) -> float:
        return self.lhs - self.rhs


@dataclass
class AxiomReport:
    """Outcome of a sampled checker run.

    `violations` keeps the first `MAX_WITNESSES` witnesses in record order;
    `n_violations` and `axiom_counts` count every recorded violation.
    `max_slack_violation` is 0 when no violation was recorded, else the
    largest offense. `max_ratio` is filled by the contraction checkers only.
    """

    trials: int
    violations: list[Violation] = field(default_factory=list)
    max_slack_violation: float = 0.0
    max_ratio: float = math.nan
    n_violations: int = 0
    axiom_counts: dict[str, int] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.n_violations == 0

    def record(self, axiom: str, points, scalars, lhs: float, rhs: float) -> None:
        """Record one violation: the one-row case of `record_rows`."""
        self.record_rows(axiom, tuple(np.asarray(p, dtype=float)[None] for p in points),
                         tuple([s] for s in scalars), [lhs], [rhs])

    def record_rows(self, axiom: str, points, scalars, lhs, rhs) -> None:
        """Record one violation per row, in row order.

        `points` holds one (n, dim) array per witness point and `scalars`
        one length-n column (or a constant) per scalar; `lhs` and `rhs` are
        length n. Witness points are copied, so the arrays may be reused.
        """
        lhs = np.asarray(lhs, dtype=float)
        rhs = np.asarray(rhs, dtype=float)
        n = lhs.size
        if n == 0:
            return
        keep = min(n, MAX_WITNESSES - len(self.violations))
        if keep > 0:
            rows = list(zip(*(np.array(p[:keep], dtype=float) for p in points))) or [()] * keep
            cols = (np.broadcast_to(np.asarray(c, dtype=float), (n,))[:keep].tolist()
                    for c in scalars)
            svals = list(zip(*cols)) or [()] * keep
            self.violations.extend(map(Violation, repeat(axiom), rows, svals,
                                       lhs[:keep].tolist(), rhs[:keep].tolist()))
        self.n_violations += n
        self.axiom_counts[axiom] = self.axiom_counts.get(axiom, 0) + n
        with np.errstate(over="ignore", invalid="ignore"):
            slack = lhs - rhs  # each row's Violation.slack
        # a nan slack (inf - inf among them) never wins, as in a `>` scan
        best = float(np.max(slack, initial=-INF, where=~np.isnan(slack)))
        if best > self.max_slack_violation:
            self.max_slack_violation = best

    def violated_axioms(self) -> set[str]:
        return set(self.axiom_counts)


def _resolve(m: ModularLike, sampler: PointSampler):
    if m.dim != sampler.dim:
        raise DimensionMismatch(f"sampler dim {sampler.dim} does not match modular dim {m.dim}")
    return m.evaluate_batch, m.dim


def _ineq_violations(lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Indices where lhs > rhs beyond the numeric slack (inf-safe)."""
    scale = np.maximum(
        np.where(np.isfinite(lhs), np.abs(lhs), 0.0),
        np.where(np.isfinite(rhs), np.abs(rhs), 0.0),
    )
    with np.errstate(invalid="ignore"):  # inf > inf compares False anyway
        bad = lhs > rhs + (ABS_TOL + REL_TOL * scale)
    return np.nonzero(bad)[0]


def check_modular_axioms(m: ModularLike, sampler: PointSampler, trials: int) -> AxiomReport:
    """Sampled check of the three modular axioms.

    Per trial draws x, y and a convex pair (a, 1-a), then checks

        zero_iff   rho(x) = 0 iff x = 0  (at x = 0 once, and at every x)
        symmetry   rho(x) = rho(-x) exactly
        convexity  rho(a x + (1-a) y) <= rho(x) + rho(y)  up to slack

    Violations are recorded with witnesses; nothing is raised.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rho, dim = _resolve(m, sampler)
    rep = AxiomReport(trials=trials)

    zero = np.zeros(dim)
    r0 = float(rho(zero[None, :])[0])
    if r0 != 0.0:
        rep.record("zero_iff", (zero,), (r0,), r0, 0.0)

    xs = sampler.points(trials)
    ys = sampler.points(trials)
    a = sampler.units(trials)

    rx = rho(xs)
    rmx = m._evaluate_owned(-xs)
    ry = rho(ys)
    combo = m._evaluate_owned(a[:, None] * xs + (1.0 - a)[:, None] * ys)

    i = np.nonzero((rx == 0.0) & np.any(xs != 0.0, axis=1))[0]
    xi = xs[i]
    rep.record_rows("zero_iff", (xi,), (rx[i],), np.max(np.abs(xi), axis=1), np.zeros(i.size))
    i = np.nonzero(rx != rmx)[0]
    r, rm = rx[i], rmx[i]
    # Python's max/min: the first argument unless the second is strictly
    # larger (smaller); this keeps ties and nan as the scalar checker had them
    rep.record_rows("symmetry", (xs[i],), (r, rm),
                    np.where(rm > r, rm, r), np.where(rm < r, rm, r))
    rhs = rx + ry
    i = _ineq_violations(combo, rhs)
    rep.record_rows("convexity", (xs[i], ys[i]), (a[i], 1.0 - a[i]), combo[i], rhs[i])
    return rep


def check_s_convexity(m: ModularLike, s: float, sampler: PointSampler, trials: int) -> AxiomReport:
    """Check rho(a x + b y) <= a**s rho(x) + b**s rho(y) over a**s + b**s = 1."""
    if not 0.0 < s <= 1.0:
        raise ValueError("s must lie in (0, 1]")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rho, _ = _resolve(m, sampler)
    rep = AxiomReport(trials=trials)

    xs = sampler.points(trials)
    ys = sampler.points(trials)
    a = sampler.units(trials)
    b = (1.0 - a**s) ** (1.0 / s)

    lhs = m._evaluate_owned(a[:, None] * xs + b[:, None] * ys)
    # a vanished coefficient removes its term even against an infinite rho
    with np.errstate(invalid="ignore"):
        rhs = np.where(a == 0.0, 0.0, a**s * rho(xs)) + np.where(b == 0.0, 0.0, b**s * rho(ys))
    i = _ineq_violations(lhs, rhs)
    rep.record_rows("s_convexity", (xs[i], ys[i]), (a[i], b[i], s), lhs[i], rhs[i])
    return rep


class Delta2Result(NamedTuple):
    constant: float
    unbounded: bool


def exact_doubling_constant(m: ModularLike) -> float | None:
    """The doubling constant where a closed form gives it, else None: 2**p
    for the families where rho(2x) = 2**p rho(x) holds identically, +inf
    for the Orlicz integrand e**u - 1, whose phi(2u) / phi(u) = e**u + 1 is
    unbounded, and 4 for u log(1 + u), whose phi(2u) / phi(u) =
    2 log(1 + 2u) / log(1 + u) is at most 4, since (1 + u)**2 >= 1 + 2u,
    and tends to 4 as u -> 0. A 2**p past the largest double is +inf too."""
    if isinstance(m, ModularSpec):
        orlicz = m.family is Family.ORLICZ
        if m.family in (Family.PPOWER, Family.WEIGHTED_SUM) or (orlicz and m.phi is Phi.POWER):
            try:
                return 2.0**m.p
            except OverflowError:
                return INF
        if orlicz and m.phi is Phi.EXP_MINUS_ONE:
            return INF
        if orlicz and m.phi is Phi.U_LOG:
            return 4.0
    return None


def _rounded_up(value, ops: int) -> float:
    """An upper bound of a nonnegative quantity that was computed as `value`
    in `ops` rounded operations, each within one ulp (pow's error bound):
    `value` raised by a relative 2 eps and by one subnormal step per
    operation (an underflow to 0 loses the whole quantity), then by one
    more ulp for the rounding of that raise."""
    return float(np.nextafter(value * (1.0 + 2.0 * ops * _EPS) + ops * _TINY, INF))


def certified_factor(T, m: ModularLike) -> tuple[float, bool] | None:
    """A true contraction factor of the map T under m where a closed form
    gives one, as (c, tight), else None.

    rho(Tx - Ty) <= c rho(x - y) holds for every pair, and `tight` says no
    smaller factor does. The closed forms, with w = 1 for the p-power
    family:

    - `const` under any shipped family: 0, since Tx - Ty = 0;
    - `half` under `ppower` / `weighted_sum`: 2**-p (rho(x/2) = 2**-p rho(x));
    - `logistic_damped` under `ppower` / `weighted_sum`: lam**p, since
      u -> lam u / (1 + |u|) is lam-Lipschitz, with slope lam at 0;
    - `affine` x -> A x + b with p <= 1 under `ppower` / `weighted_sum`:
      max_j sum_i w_i |a_ij|**p / w_j, by |s + t|**p <= |s|**p + |t|**p,
      attained at the basis vector e_j;
    - `affine` with p = 2: the largest squared singular value of
      W**(1/2) A W**(-1/2), attained at its top singular vector (computed
      as the top eigenvalue of B^T B, B that matrix).

    Every case here is tight. The returned c is rounded up past the
    rounding of its computation (`_rounded_up`), so it stays an upper
    bound: 2**-1100 computes to 0.0, and is returned as a subnormal above
    it. A factor past the largest double is +inf.
    """
    if not isinstance(m, ModularSpec):
        return None
    kind = T.kind.value  # MapKind lives in solver, which imports this module
    if kind == "const":
        return 0.0, True
    if m.family not in (Family.PPOWER, Family.WEIGHTED_SUM):
        return None
    p = m.p
    with np.errstate(over="ignore", invalid="ignore"):
        if kind == "half":
            return _rounded_up(np.power(0.5, p), 1), True
        if kind == "logistic_damped":
            return _rounded_up(np.power(T.lam, p), 1), True
        if kind != "affine" or not (p <= 1.0 or p == 2.0):
            return None
        A, d = T.matrix, T.matrix.shape[0]
        w = np.ones(d) if m.weights is None else np.asarray(m.weights)
        if p <= 1.0:
            columns = (w[:, None] * np.abs(A) ** p).sum(axis=0) / w
            return _rounded_up(np.max(columns), d + 2), True
        root = np.sqrt(w)
        B = root[:, None] * A / root
        # the top eigenvalue of B^T B is sigma_max**2, and at least each of
        # its entries, so one past the largest double makes it +inf. Forming
        # the product and LAPACK's backward-stable eigensolver each err by
        # O(d**2) ulps of it at most; the count of roundings covers both
        M = B.T @ B
        top = np.linalg.eigvalsh(M)[-1] if np.all(np.isfinite(M)) else INF
        return _rounded_up(top, d * d + 4), True


def delta2_type_estimate(m: ModularLike, sampler: PointSampler, trials: int) -> Delta2Result:
    """Estimate the least K with rho(2x) <= K rho(x) by sampled ratios.

    Samples sweep sup-norm scales from 1e-3 to 1e3 in increasing order. The
    unbounded flag is set when any ratio overflows, or when the running max
    still grows by more than 1% over the top decade of scales. A sample
    with rho(x) = 0 at nonzero x raises InvalidModularError: no finite K
    can exist for such a functional.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rho, _ = _resolve(m, sampler)
    exps = np.linspace(-3.0, 3.0, trials) if trials > 1 else np.array([-3.0])
    X = (10.0**exps)[:, None] * sampler.directions(trials)
    r1 = rho(X)
    if np.any(r1 == 0.0):
        i = int(np.nonzero(r1 == 0.0)[0][0])
        raise InvalidModularError(
            f"rho(x) = 0 at a nonzero point (scale 1e{exps[i]:+.2f}); no doubling constant exists"
        )
    r2 = m._evaluate_owned(2.0 * X)
    with np.errstate(invalid="ignore"):
        ratio = np.where(np.isinf(r1), -INF, r2 / r1)  # both-inf samples are indeterminate
    best = float(np.max(ratio))
    if best == -INF:
        best = 0.0
    unbounded = math.isinf(best)
    if not unbounded:
        early = ratio[exps <= 2.0]
        best_before_top = float(np.max(early)) if early.size else 0.0
        if best_before_top > 0.0:
            unbounded = best > 1.01 * best_before_top
    return Delta2Result(best, unbounded)


def doubling_constant(m: ModularLike, sampler: PointSampler, trials: int) -> float | None:
    """The doubling constant a solve relies on: the exact one where known, else
    the `delta2_type_estimate` constant (the only use of the sampler). None
    when no finite k > 0 exists: k is unbounded, every sample was infinite
    (estimate 0), or rho vanishes off zero (InvalidModularError)."""
    k = exact_doubling_constant(m)
    if k is None:
        try:
            est = delta2_type_estimate(m, sampler, trials)
        except InvalidModularError:
            return None
        k = INF if est.unbounded else est.constant
    return k if 0.0 < k < INF else None


def check_fatou_sampled(
    m: ModularLike,
    x,
    y,
    ratio: float,
    steps: int,
    *,
    sampler: PointSampler | None = None,
    directions: list[tuple] | None = None,
) -> AxiomReport:
    """Finite surrogate check of the Fatou inequality.

    Builds x_n = x + ratio**n u and y_n = y + ratio**n v for each direction
    pair (u, v) -- sequences that converge under every shipped family --
    and checks rho(x - y) against the minimum of the tail half of
    rho(x_n - y_n). The tail minimum is a finite liminf proxy: an
    approximation, not a proof.

    Sampled pairs are drawn with u - v sign-aligned to x - y, so the
    constructed sequences approach their limit from above and the finite
    tail stays a sound proxy; a truncated from-below sequence would
    undershoot any finite tail by its remaining geometric term. Explicit
    `directions` are taken verbatim.
    """
    if not 0.0 < ratio < 1.0:
        raise ValueError("ratio must lie in (0, 1)")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    xa = as_point(x, m.dim)
    ya = as_point(y, xa.size)
    if directions is None:
        if sampler is None:
            raise ValueError("either directions or a sampler is required")
        directions = []
        gap_signs = np.sign(xa - ya)
        for _ in range(_FATOU_DIRECTIONS):
            v = sampler.point()
            w = sampler.point()
            aligned = np.where(gap_signs != 0.0, gap_signs * np.abs(w), w)
            directions.append((v + aligned, v))

    gap = xa - ya
    lhs = m.evaluate(gap)
    rep = AxiomReport(trials=len(directions))
    powers = ratio ** np.arange(1, steps + 1)
    tail = math.ceil(steps / 2)
    for u, v in directions:
        ua = as_point(u, xa.size)
        va = as_point(v, xa.size)
        seq = m._evaluate_owned(gap + powers[:, None] * (ua - va))
        liminf_proxy = float(np.min(seq[-tail:]))
        if lhs > liminf_proxy + slack_tol(lhs, liminf_proxy):
            rep.record("fatou", (ua, va), (ratio, float(steps)), lhs, liminf_proxy)
    return rep


# ---------------------------------------------------------------------------
# Deliberately invalid dim-1 functionals, one per targeted axiom. They ship
# so checkers and the CLI can be exercised against known failures. Each reads
# u = x[..., 0], so it maps a point to one value and an (n, 1) batch to n.

def sine_bump(x) -> np.ndarray:
    """|sin(pi u)| + |u| / 10: symmetric, vanishes only at 0, not convex."""
    u = np.asarray(x, dtype=float)[..., 0]
    return np.abs(np.sin(np.pi * u)) + np.abs(u) / 10.0


def sign_skewed(x) -> np.ndarray:
    """max(u, 0) + 2 max(-u, 0): convex but asymmetric."""
    u = np.asarray(x, dtype=float)[..., 0]
    return np.maximum(u, 0.0) + 2.0 * np.maximum(-u, 0.0)


def dead_zone(x) -> np.ndarray:
    """max(|u| - 1, 0): convex and symmetric but zero on a whole interval."""
    u = np.asarray(x, dtype=float)[..., 0]
    return np.maximum(np.abs(u) - 1.0, 0.0)


#: name -> (functional, axiom its violation targets)
INVALID_FUNCTIONALS: dict[str, tuple[NamedFunctional, str]] = {
    "sine_bump": (NamedFunctional("sine_bump", sine_bump, dim=1, batched=True), "convexity"),
    "sign_skewed": (NamedFunctional("sign_skewed", sign_skewed, dim=1, batched=True), "symmetry"),
    "dead_zone": (NamedFunctional("dead_zone", dead_zone, dim=1, batched=True), "zero_iff"),
}

"""Randomized checkers for modular axioms, s-convexity, doubling, and Fatou.

All checkers are deterministic for a given sampler seed and never raise on a
mathematical violation: findings are collected into an AxiomReport, which
counts every violation and keeps the first MAX_WITNESSES with full
witnesses. The only exceptions are usage errors and the invalid-modular
condition in `delta2_type_estimate`. The axiom, s-convexity and doubling
checkers (and `solver`'s contraction check) walk their trials in blocks of
at most `_CHECK_VALUES` entries (`_walk`), and a report does not depend on
where the blocks end.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from itertools import accumulate, repeat
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
_CHECK_VALUES = 16_384    # entries of a sampled-check block: 128 KiB per float64 array
_FATOU_DIRECTIONS = 8     # direction pairs the Fatou check samples
_EPS = float(np.finfo(float).eps)
_TINY = math.ulp(0.0)     # the least subnormal double
# a word's top 16 bits (sign, kind, binade, 4 mantissa bits) in its int16 view
_TOP = 3 if sys.byteorder == "little" else 0


def _row_sup(x: np.ndarray) -> np.ndarray:
    """Each row's sup-norm, one column at a time: a row-wise reduction runs
    one short inner loop per row."""
    a = np.abs(x)
    sup = a[:, 0].copy()
    for col in a.T[1:]:
        np.maximum(sup, col, out=sup)
    return sup


def _unit_rows(out: np.ndarray) -> np.ndarray:
    """Rescale each row of `out` to unit sup-norm, in place, and return the
    indices of the rows that are all zeros, which are left as they are."""
    sup = _row_sup(out)
    zero = np.flatnonzero(sup == 0.0)
    sup[zero] = 1.0
    np.divide(out, sup[:, None], out=out)
    return zero


class PointSampler:
    """Seeded point generator used by every randomized checker.

    Each coordinate is one 64-bit word of the seed's PCG64 stream, decoded
    into a mixture: a special value (0, +-0.5, +-1, +-2) with probability
    7/64, a uniform value on (-1, 1) with probability 29/64, and a magnitude
    in [2**-16, 2**16), uniform in its binade's mantissa, with random sign,
    with probability 28/64. Axiom and doubling failures often appear only at
    extreme scales or on round points.
    """

    def __init__(self, dim: int, seed: int = 0):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        self.dim = int(dim)
        self.seed = seed
        self.rng = np.random.default_rng(seed)

    def points(self, n: int) -> np.ndarray:
        """An (n, dim) batch of mixture-sampled points.

        The batch is n * dim words of `rng.bit_generator.random_raw`, one
        per coordinate in row-major order, so `points(a)` then `points(b)`
        equals `points(a + b)`. Word w decodes with integer and exact float
        operations only: bit 63 is the sign, bits 0-51 the mantissa, bits
        57-62 the kind and bits 52-56 the binade. Kind < 7 is
        `_SPECIAL_VALUES[kind]`; kind < 36 is +-[1, 2) from the sign and
        mantissa, minus the sign; any other kind is +-2**(binade - 16) *
        [1, 2). The batch is the word buffer itself, viewed as float64.
        """
        words = self.rng.bit_generator.random_raw(n * self.dim)
        top = words.view(np.int16)[_TOP::4]
        hi = top.copy()
        key = np.bitwise_and(hi, 0x7FFF)  # kind << 9 | binade << 4 | ..., the sign cleared
        # masks as arithmetic shifts, -1 where kind < 7 (special), then where
        # kind < 36 (uniform), else 0: comparisons and bool products would
        # each touch one more numpy kernel, whose code then stays resident
        mask = np.subtract(key, 7 << 9)
        mask >>= 15
        special = np.flatnonzero(mask.astype(bool))
        kinds = words[special]
        kinds <<= np.uint64(1)  # the sign shifted out
        kinds >>= np.uint64(58)
        uniform = np.subtract(key, 36 << 9, out=mask)
        uniform >>= 15
        del key
        # the exponent field 1007 + binade, or 1023 where uniform: the latter
        # adds uniform & (0x100 - (binade << 4)), branch-free
        step = np.bitwise_and(hi, 0x01F0)
        np.subtract(0x0100, step, out=step)
        step &= uniform
        hi &= -0x7E01  # 0x81FF: the sign, binade and mantissa bits
        hi += 0x3EF0  # 1007 << 4
        hi += step
        del step
        top[...] = hi
        # x - s where uniform, s = +-1 the sign of x; x - 0 elsewhere
        sign = hi
        sign >>= 15
        sign |= 1
        sign &= uniform
        out = words.view(np.float64)
        out -= sign
        out[special] = _SPECIAL_VALUES[kinds]
        return out.reshape(n, self.dim)

    def point(self) -> np.ndarray:
        return self.points(1)[0]

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


def _ineq_violations(lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Indices where lhs > rhs beyond the numeric slack (inf-safe)."""
    scale = np.maximum(
        np.where(np.isfinite(lhs), np.abs(lhs), 0.0),
        np.where(np.isfinite(rhs), np.abs(rhs), 0.0),
    )
    with np.errstate(invalid="ignore"):  # inf > inf compares False anyway
        bad = lhs > rhs + (ABS_TOL + REL_TOL * scale)
    return np.nonzero(bad)[0]


def _zero_at_nonzero(rx: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Ascending indices i with rx[i] == 0 at a row xs[i] != 0: the zero_iff
    witnesses. Only the rows at rho 0 are scanned for a nonzero entry."""
    i = np.flatnonzero(rx == 0.0)
    return i[np.any(xs[i] != 0.0, axis=1)]


def _walk(sampler: PointSampler, trials: int, streams, judge, lead: int = 0) -> None:
    """Walk a sampled check's `lead` rows of its own, then its `trials`
    sampled rows, in blocks of max(1, _CHECK_VALUES // dim) rows; the last
    block takes in a remainder of up to 1/16 of a block, so the 544 rows of
    the d = 32 contraction check at 512 trials are one block.

    `streams` are pairs (draw, words per row), such as (sampler.points,
    dim) or (sampler.units, 1): the sampler's stream is one whole draw of
    each, in turn. `judge(at, end, draw)` judges rows [at, end), and its
    i-th `draw()` returns the block's sampled rows of stream i: the
    generator is advanced (`advance`) to the words the whole draw gave
    them. So neither the draws nor the generator's state after the walk
    depend on the blocks, and a walk of one block advances nothing.

    Every check keeps one rule: a block draws its rows, is judged, folds
    into the report (in row order) and running maxima, and is dropped
    before the next block draws. So a check holds one block whatever
    `trials` is, and its result is the one-batch result bit for bit.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    bits, size = sampler.rng.bit_generator, max(1, _CHECK_VALUES // sampler.dim)
    total, pos = lead + trials, 0  # pos: the words drawn so far, across the streams
    starts = [0, *accumulate(trials * words for _, words in streams)]
    cut = total - size // 16  # a block ending at or past it takes in the rest
    for at in range(0, max(cut, 1), size):
        end = at + size if at + size < cut else total
        lo, hi, each = max(at - lead, 0), end - lead, iter(zip(starts, streams))

        def draw():
            nonlocal pos
            start, (sample, words) = next(each)
            if pos != start + lo * words:
                bits.advance(start + lo * words - pos)
            pos = start + hi * words
            return sample(hi - lo)

        judge(at, end, draw)


def _joined(trials: int, parts) -> AxiomReport:
    """One report of the reports `parts`, in turn: their witnesses, up to
    MAX_WITNESSES, counts and largest offense."""
    rep = AxiomReport(trials=trials)
    for part in parts:
        rep.violations += part.violations[: MAX_WITNESSES - len(rep.violations)]
        rep.n_violations += part.n_violations
        for axiom, n in part.axiom_counts.items():
            rep.axiom_counts[axiom] = rep.axiom_counts.get(axiom, 0) + n
        rep.max_slack_violation = max(rep.max_slack_violation, part.max_slack_violation)
    return rep


def check_modular_axioms(m: ModularLike, sampler: PointSampler, trials: int) -> AxiomReport:
    """Sampled check of the three modular axioms.

    Per trial draws x, y and a convex pair (a, 1-a), then checks

        zero_iff   rho(x) = 0 iff x = 0  (at x = 0 once, and at every x)
        symmetry   rho(x) = rho(-x) exactly
        convexity  rho(a x + (1-a) y) <= rho(x) + rho(y)  up to slack

    Violations are recorded with witnesses; nothing is raised. All x are
    the sampler's next trials * dim words, all y the words after them and
    all a the `units` after those. The trials are judged in `_walk` blocks,
    each axiom's violations in row order into a report of its own; the
    report returned joins them: zero_iff, symmetry, then convexity.
    """
    rho, dim = m.evaluate_batch, m.dim
    zero_iff, symmetry, convexity = (AxiomReport(trials=trials) for _ in range(3))

    zero = np.zeros(dim)
    r0 = float(rho(zero[None, :])[0])
    if r0 != 0.0:
        zero_iff.record("zero_iff", (zero,), (r0,), r0, 0.0)

    def judge(at, end, draw):
        xs, ys, a = draw(), draw(), draw()
        rx = rho(xs)
        rmx = m._evaluate_owned(-xs)
        ry = rho(ys)
        combo = m._evaluate_owned(a[:, None] * xs + (1.0 - a)[:, None] * ys)

        i = _zero_at_nonzero(rx, xs)
        xi = xs[i]
        zero_iff.record_rows("zero_iff", (xi,), (rx[i],), np.max(np.abs(xi), axis=1),
                             np.zeros(i.size))
        i = np.nonzero(rx != rmx)[0]
        r, rm = rx[i], rmx[i]
        # Python's max/min: the first argument unless the second is strictly
        # larger (smaller); this keeps ties and nan as the scalar checker had them
        symmetry.record_rows("symmetry", (xs[i],), (r, rm),
                             np.where(rm > r, rm, r), np.where(rm < r, rm, r))
        with np.errstate(over="ignore"):
            rhs = rx + ry
        i = _ineq_violations(combo, rhs)
        convexity.record_rows("convexity", (xs[i], ys[i]), (a[i], 1.0 - a[i]), combo[i], rhs[i])

    _walk(sampler, trials, ((sampler.points, dim), (sampler.points, dim), (sampler.units, 1)),
          judge)
    return _joined(trials, (zero_iff, symmetry, convexity))


def check_s_convexity(m: ModularLike, s: float, sampler: PointSampler, trials: int) -> AxiomReport:
    """Check rho(a x + b y) <= a**s rho(x) + b**s rho(y) over a**s + b**s = 1,
    on the draws of `check_modular_axioms`, in its blocks."""
    if not 0.0 < s <= 1.0:
        raise ValueError("s must lie in (0, 1]")
    rho, dim = m.evaluate_batch, m.dim
    rep = AxiomReport(trials=trials)

    def judge(at, end, draw):
        xs, ys, a = draw(), draw(), draw()
        b = (1.0 - a**s) ** (1.0 / s)
        lhs = m._evaluate_owned(a[:, None] * xs + b[:, None] * ys)
        # a vanished coefficient removes its term even against an infinite rho
        with np.errstate(over="ignore", invalid="ignore"):
            rhs = (np.where(a == 0.0, 0.0, a**s * rho(xs))
                   + np.where(b == 0.0, 0.0, b**s * rho(ys)))
        i = _ineq_violations(lhs, rhs)
        rep.record_rows("s_convexity", (xs[i], ys[i]), (a[i], b[i], s), lhs[i], rhs[i])

    _walk(sampler, trials, ((sampler.points, dim), (sampler.points, dim), (sampler.units, 1)),
          judge)
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
      as the top eigenvalue of B^T B, B that matrix);
    - `half` under `orlicz` with a convex phi (`exp_minus_one`, `u_log`,
      `power` with p >= 1): 1/2, and `logistic_damped` with lam <= 1: lam.
      Such a phi is increasing with phi(0) = 0, so phi(t u) <= t phi(u)
      for t <= 1 (Khamsi & Kozlowski, 2015), and each map is coordinatewise
      Lipschitz with its factor.

    The Orlicz rows are exact and not marked tight (`power` with p > 1
    halves by 2**-p); every other case is tight, and its c is rounded up
    past the rounding of its computation (`_rounded_up`), so it stays an
    upper bound: 2**-1100 computes to 0.0, and is returned as a subnormal
    above it. A factor past the largest double is +inf.
    """
    if not isinstance(m, ModularSpec):
        return None
    kind = T.kind.value  # MapKind lives in solver, which imports this module
    if kind == "const":
        return 0.0, True
    if m.family is Family.ORLICZ:
        lam = 0.5 if kind == "half" else T.lam if kind == "logistic_damped" else INF
        convex = m.phi is not Phi.POWER or m.p >= 1.0
        return (lam, False) if convex and lam <= 1.0 else None
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


def _exps(trials: int, rows: np.ndarray) -> np.ndarray:
    """np.linspace(-3, 3, trials)[rows] for ascending row indices, bit for
    bit: row i is i * (6 / (trials - 1)) - 3, and the last row is 3."""
    if trials == 1:
        return np.full(len(rows), -3.0)
    exps = np.multiply(rows, 6.0 / (trials - 1), dtype=float)
    exps -= 3.0
    if rows[-1] == trials - 1:
        exps[-1] = 3.0
    return exps


def delta2_type_estimate(m: ModularLike, sampler: PointSampler, trials: int) -> Delta2Result:
    """Estimate the least K with rho(2x) <= K rho(x) by sampled ratios.

    Samples sweep sup-norm scales from 1e-3 to 1e3 in increasing order. The
    unbounded flag is set when any ratio overflows, or when the running max
    still grows by more than 1% over the top decade of scales. A sample
    with rho(x) = 0 at nonzero x raises InvalidModularError: no finite K
    can exist for such a functional.

    The directions are `sampler.points(trials)`, each row scaled to unit
    sup-norm and judged in its `_walk` block; a row that is all zeros, one
    in 64**d, measures nothing and is masked.
    """
    rho, dim = m.evaluate_batch, m.dim
    top = np.full(2, -INF)  # the largest ratio, and the largest at exps <= 2
    first = trials  # the first row at rho(x) = 0, if it is below trials

    def judge(at, end, draw):
        nonlocal first
        U = draw()
        hold = _unit_rows(U)
        exps = _exps(trials, np.arange(at, end))
        X = np.multiply((10.0**exps)[:, None], U, out=U)
        r1 = rho(X)
        zero = _zero_at_nonzero(r1, X)
        if zero.size:
            first = min(first, at + int(zero[0]))
            return
        r2 = m._evaluate_owned(2.0 * X)
        with np.errstate(invalid="ignore"):  # inf / inf, or 0 / 0 at an all-zero row
            ratio = np.where(np.isinf(r1), -INF, r2 / r1)  # both-inf samples are indeterminate
        ratio[hold] = -INF
        early = np.searchsorted(exps, 2.0, side="right")  # the rows at exps <= 2 lead
        np.maximum(top, (np.max(ratio), np.max(ratio[:early], initial=-INF)), out=top)

    _walk(sampler, trials, ((sampler.points, dim),), judge)
    if first < trials:
        raise InvalidModularError(
            f"rho(x) = 0 at a nonzero point (scale 1e{_exps(trials, [first])[0]:+.2f}); "
            "no doubling constant exists"
        )
    best, best_before_top = top.tolist()
    if best == -INF:
        best = 0.0
    unbounded = math.isinf(best)
    if not unbounded and best_before_top > 0.0:
        unbounded = best > 1.01 * best_before_top
    return Delta2Result(best, unbounded)


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
    gap = xa - ya
    if directions is not None:
        UV = np.array([(as_point(u, xa.size), as_point(v, xa.size)) for u, v in directions])
        U, V = UV.reshape(len(directions), 2, xa.size).transpose(1, 0, 2)
    elif sampler is None:
        raise ValueError("either directions or a sampler is required")
    elif sampler.dim != xa.size:
        raise DimensionMismatch(f"expected a point of dim {xa.size}, got dim {sampler.dim}")
    else:
        # one draw whose rows alternate v, w: the stream of a point() pair
        # per direction, since the sampler's stream does not depend on how
        # it is split
        VW = sampler.points(2 * _FATOU_DIRECTIONS)
        V, W = VW[0::2], VW[1::2]
        gap_signs = np.sign(gap)
        U = V + np.where(gap_signs != 0.0, gap_signs * np.abs(W), W)

    lhs = m.evaluate(gap)
    rep = AxiomReport(trials=len(U))
    if not len(U):
        return rep
    tail = math.ceil(steps / 2)
    # the tail's powers sliced from all steps', so each keeps its bits
    powers = (ratio ** np.arange(1, steps + 1))[-tail:]
    # every direction's tail in one (directions * tail, d) batch: row (j, n)
    # is gap + ratio**n (u_j - v_j), the same operations per entry
    seqs = gap + powers[:, None] * (U - V)[:, None, :]
    mods = m._evaluate_owned(seqs.reshape(-1, xa.size)).reshape(len(U), tail)
    liminf_proxy = np.min(mods, axis=1)  # one per direction
    lhs = np.full(liminf_proxy.shape, lhs)
    i = _ineq_violations(lhs, liminf_proxy)
    rep.record_rows("fatou", (U[i], V[i]), (ratio, float(steps)), lhs[i], liminf_proxy[i])
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
    "sine_bump": (NamedFunctional("sine_bump", sine_bump, dim=1), "convexity"),
    "sign_skewed": (NamedFunctional("sign_skewed", sign_skewed, dim=1), "symmetry"),
    "dead_zone": (NamedFunctional("dead_zone", dead_zone, dim=1), "zero_iff"),
}

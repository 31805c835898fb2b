"""Finite chain certificates for contraction orbits.

For a contraction T with factor c and base point omega, the chain

    (x_n, alpha_n) = (T^n omega, c**n alpha),   n = 0..N

is totally ordered by the relation "rho(x - y) <= alpha - beta" once alpha
is chosen large enough that rho(omega - T^n omega) <= alpha - c**n alpha
for every n. `build_chain` is the one producer of a certificate's figures:
it walks the orbit once and reads off it the level alpha, the verdict on
the pairwise order inequalities, the per-node slacks of the final iterate
as a stand-in maximum element at level 0, and the orbit bound
(`orbit_sup`, `orbit_stabilized`); nothing else computes them.
`cauchy_modulus` tabulates how fast the alphas (hence all pairwise
modulars) fall below each tolerance.

The pairs are checked in one of two ways, recorded as `pairs`. When the
map has a certified factor (`checks.certified_factor`), the shift
argument proves all N(N+1)/2 of them from the N pairs (0, j) in O(N):
rho(x_p - x_q) <= c**p rho(x_0 - x_(q-p)) and alpha_p - alpha_q =
c**p (alpha_0 - alpha_(q-p)). Otherwise, or when that bound is negative
somewhere, every pair is evaluated (`verify_order_pairs`, O(N**2)). The
auditor, `output.reverify_certificate`, replays `build_chain` from the
problem's start point and a stored certificate's first level, and reports
the full scan of the stored rows separately.

The stand-in maximum is a surrogate: the genuine maximum element exists by
a non-constructive argument, while the certificate only exhibits finite
witnesses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .checks import certified_factor
from .errors import InvalidModularError, UnboundedOrbitError
from .modular import INF, ModularLike, as_point, slack_tol
from .solver import MapSpec

__all__ = [
    "ALPHA_MARGIN",
    "EPS_GRID",
    "ChainCertificate",
    "SlackCheck",
    "build_chain",
    "verify_order_pairs",
    "cauchy_modulus",
]

# relative headroom applied to the minimal admissible alpha so the
# certificate is robust to rounding
ALPHA_MARGIN = 1e-6

# tolerance rows of the Cauchy-modulus table
EPS_GRID = tuple(10.0**-j for j in range(1, 9))


@dataclass
class ChainCertificate:
    """The chain (T^n omega, c**n alpha) with its verification results.

    `pair_check` is the worst slack (alpha_p - alpha_q) - rho(x_p - x_q)
    over pairs p < q, or a lower bound of it that the shift argument
    proves (see `build_chain`); `max_check` the worst slack of the
    maximum-element inequality rho(x_n - limit) <= alpha_n. `all_pass`
    holds when both worst slacks clear -eps_num. `orbit_sup` and
    `orbit_stabilized` are the orbit-boundedness figure (see
    `_orbit_bound`), read off the same orbit the chain is built on.
    `pairs` says how the pairs were checked, "shift" (proved from the
    certified factor `c_certified`) or "scan" (every pair evaluated). The
    nodes are one `table` row each, laid out as `dtype(d)`; `alphas`,
    `slacks` (of the maximum-element check) and `X` are views of its
    fields, as the trace's are, and `omega`, `alpha` and `limit_candidate`
    read `X[0]`, `alphas[0]` and `X[-1]`.
    """

    c: float
    table: np.ndarray
    pair_check: float = math.nan
    max_check: float = math.nan
    all_pass: bool = False
    worst_pair: tuple[int, int] | None = None
    worst_node: int | None = None
    orbit_sup: float = math.nan
    orbit_stabilized: bool = False
    pairs: str | None = None
    c_certified: float | None = None

    alphas = property(lambda self: self.table["alpha"])  # levels c**n alpha
    slacks = property(lambda self: self.table["slack"])  # alpha_n - rho(x_n - x_N)
    X = property(lambda self: self.table["x"])  # rows T^n omega, n = 0..N

    @staticmethod
    def dtype(d: int) -> np.dtype:
        """A node row: its level and slack, then x_n's d coordinates."""
        return np.dtype([("alpha", "<f8"), ("slack", "<f8"), ("x", "<f8", (d,))])

    @property
    def omega(self) -> np.ndarray:
        return self.X[0]

    @property
    def alpha(self) -> float:
        return float(self.alphas[0])

    @property
    def limit_candidate(self) -> np.ndarray:
        return self.X[-1]

    @property
    def length(self) -> int:
        return len(self.table) - 1


class SlackCheck(NamedTuple):
    worst_slack: float
    index: object  # pair (p, q) or node index; None when vacuous


def _checked_orbit(T: MapSpec, omega: np.ndarray, steps: int) -> np.ndarray:
    """Rows omega, T omega, ..., T^steps omega, all inside the space."""
    xs = T.orbit(omega, steps)
    left = np.flatnonzero(~np.isfinite(xs).all(axis=1))
    if left.size:
        raise UnboundedOrbitError(f"orbit left the space at step {left[0]}")
    return xs


def _base_modulars(m: ModularLike, xs: np.ndarray, N: int) -> np.ndarray:
    """r_n = rho(omega - T^n omega) for n = 1..N."""
    return m._evaluate_owned(xs[0] - xs[1 : N + 1])


def _admissible_alpha(r: np.ndarray, powers: np.ndarray) -> float:
    """Least admissible level, (1 + ALPHA_MARGIN) * max_n r_n / (1 - c**n),
    from r_n = rho(omega - T^n omega) and the chain's c**n, n = 1..len(r)."""
    if np.any(np.isinf(r)):
        n = int(np.argmax(np.isinf(r))) + 1
        raise UnboundedOrbitError(f"rho(omega - T^{n} omega) is infinite")
    levels = r / (1.0 - powers)
    return (1.0 + ALPHA_MARGIN) * float(np.max(levels))


def _orbit_bound(m: ModularLike, xs: np.ndarray) -> tuple[float, bool]:
    """The orbit-boundedness figure of the rows xs = T^n omega, n = 0..N
    (N >= 2): sup, the max of rho(2 T^n omega) over n = 1..N, and
    `stabilized`, True when the running max did not grow by more than 1%
    over the last ceil(N/2) steps (the same convention as the doubling
    estimate; a monotone orbit converging to its bound keeps inching up
    forever, so exact equality would never hold). A modular that overflows
    gives (+inf, False)."""
    vals = m._evaluate_owned(2.0 * xs[1:])
    sup = float(np.max(vals))
    if math.isinf(sup):
        return INF, False
    # N >= 2 values; the first floor(N/2) precede the last ceil(N/2) steps
    return sup, sup <= 1.01 * float(np.max(vals[: len(vals) // 2]))


def build_chain(
    m: ModularLike, T: MapSpec, omega, c: float, alpha: float | None, N: int
) -> ChainCertificate:
    """Materialize the chain of length N and verify its order inequalities.

    The orbit is computed once, max(2, N) steps long; an orbit that leaves
    the space within those steps raises UnboundedOrbitError; the table
    keeps a copy of its first N + 1 rows. With `alpha`
    None the level is the least admissible one over n = 1..max(1, N),
    (1 + ALPHA_MARGIN) * max_n rho(omega - T^n omega) / (1 - c**n), so
    the order inequalities with omega hold strictly; an already fixed base
    point gives alpha = 0, and an infinite modular raises
    UnboundedOrbitError. The certificate records the orbit bound
    (`_orbit_bound`) over max(2, N) steps, read off the same orbit. The
    final iterate T^N omega stands in for the maximum element at level 0:
    `slacks` holds alpha_n - rho(x_n - x_N) per node, `max_check` and
    `worst_node` the least of them. A node modular of 0 at x_n != x_N
    means rho vanishes off zero (or underflowed) and raises
    InvalidModularError naming the node. N = 0 gives a singleton chain
    that passes vacuously.

    The pairs are proved by the shift argument when `certified_factor`
    gives a factor c* for (T, m). With c_m = max(c, c*), which keeps the
    proof when the claim c and the computed c* differ by rounding, and
    r_j = rho(omega - T^j omega) (the modulars the level is read off), every
    pair (p, q) with gap j = q - p has slack at least
    c**p (alpha_0 - alpha_j) - c_m**p r_j. Since c_m >= c, this bound is
    nonincreasing in p while it is nonnegative, so when it is nonnegative
    at p = N - j it is so at every p, and least there:

        L_j = c**(N-j) (alpha_0 - alpha_j) - c_m**(N-j) r_j.

    When every L_j >= 0, `pair_check` is min L_j, `worst_pair` its
    (N - j, N), and `pairs` is "shift". Otherwise, or without c*, every
    pair is evaluated (`verify_order_pairs`) and `pairs` is "scan". Both
    pass under the same rule, a worst slack >= -slack_tol(alpha).

    The two can disagree where the scan measures rounding, not order. Under
    the p = 0.5 power modular the modular of a difference of a few ulps is
    about 1e-8, so near the fixed point the scan can read a slack of -8e-8
    on a pair that the exact chain orders, and fail a true factor. The
    shift proof reads only the r_j, which are far from that noise, and
    passes it. `output.reverify_certificate` replays this function, so it
    reaches the same verdict, and reports the full scan of the stored rows
    beside it as a measurement of the computed points.
    """
    if alpha is not None and not alpha >= 0.0:
        raise ValueError("alpha must be >= 0")
    if not 0.0 <= c < 1.0:
        raise ValueError("c must lie in [0, 1)")
    if N < 0:
        raise ValueError("N must be >= 0")
    xs = _checked_orbit(T, as_point(omega, m.dim), max(2, N))
    certified = certified_factor(T, m)
    r = _base_modulars(m, xs, max(1, N)) if alpha is None or certified is not None else None
    powers = np.array([c**n for n in range(max(1, N) + 1)], dtype=float)  # N = 0 reads c**1
    if alpha is None:
        alpha = _admissible_alpha(r, powers[1:])
    cert = ChainCertificate(float(c), np.empty(N + 1, ChainCertificate.dtype(xs.shape[1])))
    cert.alphas[:], cert.X[:] = powers[: N + 1] * alpha, xs[: N + 1]
    diffs = cert.X - cert.limit_candidate
    node_mods = m.evaluate_batch(diffs)
    vanished = np.flatnonzero((node_mods == 0.0) & np.any(diffs != 0.0, axis=1))
    if vanished.size:
        raise InvalidModularError(f"rho(x_n - x_N) = 0 at node n = {vanished[0]}, a nonzero "
                                  "difference: rho vanishes off zero or underflowed")
    cert.slacks[:] = cert.alphas - node_mods
    cert.orbit_sup, cert.orbit_stabilized = _orbit_bound(m, xs)
    del xs  # the table holds its own copy of the nodes
    pair = None
    if certified is not None:
        cert.c_certified = certified[0]
        pair = _shift_check(cert, powers, r[:N], max(c, certified[0]))
    cert.pairs = "scan" if pair is None else "shift"
    if pair is None:
        pair = verify_order_pairs(cert, m)
    node = int(np.argmin(cert.slacks))
    cert.pair_check, cert.worst_pair = pair.worst_slack, pair.index
    cert.max_check, cert.worst_node = float(cert.slacks[node]), node
    thr = slack_tol(cert.alpha, 1.0)
    cert.all_pass = cert.pair_check >= -thr and cert.max_check >= -thr
    return cert


def _shift_check(cert: ChainCertificate, powers: np.ndarray, r: np.ndarray,
                 c_m: float) -> SlackCheck | None:
    """The shift argument's least bound L_j over the gaps j = 1..N, at its
    pair (N - j, N), or None when some L_j is negative (or nan): then it
    proves nothing. `powers` are the chain's c**n, `r` the r_j."""
    N = cert.length
    gap = np.arange(N - 1, -1, -1)  # N - j for j = 1..N
    # c_m**n by the scalar pow the chain's powers use: numpy's vector power
    # rounds by the CPU's SIMD kernels, so its bits vary between hosts
    c_m_powers = np.array([c_m**n for n in range(N)], dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        bounds = powers[gap] * (cert.alphas[0] - cert.alphas[1:]) - c_m_powers[gap] * r
    if not np.all(bounds >= 0.0):
        return None
    if N == 0:
        return SlackCheck(INF, None)
    j = int(np.argmin(bounds)) + 1
    return SlackCheck(float(bounds[j - 1]), (N - j, N))


def verify_order_pairs(cert: ChainCertificate, m: ModularLike) -> SlackCheck:
    """Worst slack of (alpha_p - alpha_q) - rho(x_p - x_q) over pairs p < q.

    A worst slack >= -eps_num certifies the chain is totally ordered by
    "rho(x - y) <= alpha - beta" (equivalently the |alpha - beta| membership
    bound, since the levels decrease). Singleton chains are vacuous and
    report +inf. Each q costs one batch evaluation over the rows p < q; the
    full pair block is never built, so memory stays O(N d). This is the
    O(N**2) scan that `build_chain` falls back to when the shift argument
    proves nothing; `output.reverify_certificate` also runs it over the
    stored rows, beside its replay of the verdict.
    """
    xs, alphas = cert.X, cert.alphas
    worst, where = INF, None
    for q in range(1, len(xs)):
        slacks = (alphas[:q] - alphas[q]) - m._evaluate_owned(xs[:q] - xs[q])
        p = int(np.argmin(slacks))
        if slacks[p] < worst:
            worst, where = float(slacks[p]), (p, q)
    return SlackCheck(worst, where)


def cauchy_modulus(cert: ChainCertificate) -> list[tuple[float, int | None]]:
    """For each eps of EPS_GRID, the least index N with alpha_N < eps (None if never).

    Once the order inequalities hold, every pairwise modular beyond that
    index sits below eps as well: rho(x_m - x_n) <= alpha_min(m,n) < eps.
    """
    alphas = cert.alphas
    rows: list[tuple[float, int | None]] = []
    for eps in EPS_GRID:
        hit = np.nonzero(alphas < eps)[0]
        rows.append((float(eps), int(hit[0]) if hit.size else None))
    return rows

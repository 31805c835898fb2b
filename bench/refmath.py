"""Bare-numpy reference arithmetic: modulars, maps and their fixed points.

The benchmark checks rhofix's outputs with these formulas instead of
rhofix's own, and times the same arithmetic as a Picard floor. Every
distance is a modular of a difference, never a norm. Inputs are the
problem trees of the YAML files the benchmark runs.
"""

from __future__ import annotations

import time

import numpy as np


def rho_fn(space: dict, dim: int):
    """rho for the families the workloads solve: ppower, weighted_sum, orlicz e^u - 1."""
    family = space["family"]
    if family == "ppower":
        p = float(space["p"])
        return lambda v: float(np.sum(np.abs(v) ** p))
    if family == "weighted_sum":
        p = float(space["p"])
        w = np.asarray(space["weights"], dtype=float)
        return lambda v: float(np.sum(w * np.abs(v) ** p))
    if family == "orlicz" and space["phi"] == "exp_minus_one":
        return lambda v: float(np.sum(np.expm1(np.abs(v)))) / dim
    raise ValueError(f"no reference modular for {space!r}")


def map_fn(tree: dict):
    kind = tree["kind"]
    if kind == "affine":
        A = np.asarray(tree["matrix"], dtype=float)
        b = np.asarray(tree["offset"], dtype=float)
        return lambda x: A @ x + b
    if kind == "half":
        return lambda x: 0.5 * x
    if kind == "logistic_damped":
        lam = float(tree["lam"])
        return lambda x: lam * x / (1.0 + np.abs(x))
    raise ValueError(f"no reference map for {tree!r}")


def fixed_point(tree: dict, dim: int) -> np.ndarray:
    """The analytic fixed point: (I - A)^-1 b for affine maps, 0 for halving
    and the damped logistic map."""
    if tree["kind"] == "affine":
        A = np.asarray(tree["matrix"], dtype=float)
        return np.linalg.solve(np.eye(dim) - A, np.asarray(tree["offset"], dtype=float))
    if tree["kind"] in ("half", "logistic_damped"):
        return np.zeros(dim)
    raise ValueError(f"no analytic fixed point for {tree!r}")


def solve_bound(tol: float, c: float, p: float) -> float:
    """rho tolerance for a converged solve against the analytic fixed point.

    With rho^(1/p) a norm and rho(Tx - Ty) <= c rho(x - y), the residual
    bound rho(Tx - x) <= tol gives rho(x - x*) <= tol / (1 - c^(1/p))^p.
    The factor 2 covers rounding and the near-linear Orlicz e^u - 1 at
    tiny arguments.
    """
    return 2.0 * tol / (1.0 - c ** (1.0 / p)) ** p


def chain_bound(c: float, n: int, start_gap: float) -> float:
    """rho tolerance for T^n x0 against x*: c^n rho(x0 - x*) plus slack."""
    return c**n * start_gap + 1e-9 * start_gap + 1e-12


def picard_floor_seconds(problem: dict, power: int, iterations: int) -> float:
    """Time of a bare loop doing the Picard arithmetic of one solve.

    Per step: the map applied `power` times, then the step, residual and
    doubled-orbit modulars, as the solver does; no trace is kept.
    """
    x = np.asarray(problem["initial_point"], dtype=float)
    rho = rho_fn(problem["space"], x.size)
    step = map_fn(problem["map"])
    t0 = time.perf_counter()
    fx = x
    for _ in range(power):
        fx = step(fx)
    rho(fx - x)
    rho(2.0 * x)
    for _ in range(iterations):
        x_new = fx
        fx_new = x_new
        for _ in range(power):
            fx_new = step(fx_new)
        rho(x_new - x)
        rho(fx_new - x_new)
        rho(2.0 * x_new)
        x, fx = x_new, fx_new
    return time.perf_counter() - t0


# The speed yardstick. Every end-to-end timing is scaled to the CPU speed
# at which this loop takes REFERENCE_NOMINAL_S: a shared virtual machine
# can run 1.5-2 times slower for minutes at a time (seen on a 2-vCPU KVM
# guest, Xeon host), which no number of repeats averages out. The loop's
# small-vector numpy steps slow down with the host as rhofix's do, and it
# calls no rhofix code, so a change to rhofix moves the scaled time in
# proportion to the raw one.
REFERENCE_NOMINAL_S = 0.003
_REFERENCE_X = np.linspace(-1.0, 1.0, 64)


def reference_seconds() -> float:
    """Time of the fixed reference loop: the CPU speed right now."""
    t0 = time.perf_counter()
    y = _REFERENCE_X
    for _ in range(300):
        y = 0.99 * y / (1.0 + np.abs(y))
        float(np.sum(np.abs(y)))
    return time.perf_counter() - t0

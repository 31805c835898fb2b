"""Shipped example problems: verified contractions with known fixed points.

These pairs (modular, map) back the test suite, the demo scripts, and the
cross-checks between the plain and power solver paths. Every `c` below is
an exact contraction factor for the stated modular, not just an empirical
estimate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .modular import ModularSpec
from .solver import MapSpec

__all__ = ["Problem", "builtin_problems", "random_affine_contraction", "l1_operator_norm"]


@dataclass(frozen=True)
class Problem:
    name: str
    modular: ModularSpec
    map: MapSpec
    x0: np.ndarray
    c: float
    fixed_point: np.ndarray | None = None  # analytic, where known


def l1_operator_norm(matrix: np.ndarray) -> float:
    """Max absolute column sum: the contraction factor of x -> Ax under the
    coordinate-sum modular (p = 1)."""
    return float(np.max(np.sum(np.abs(matrix), axis=0)))


def builtin_problems() -> list[Problem]:
    """The standard example set, from 1-D halving to mixed affine maps."""
    p1 = lambda d: ModularSpec.p_power(1.0, d)
    p2 = lambda d: ModularSpec.p_power(2.0, d)
    problems = [
        Problem(
            "half_p1",
            p1(1),
            MapSpec.half(),
            np.array([1.0]),
            c=0.5,
            fixed_point=np.array([0.0]),
        ),
        Problem(
            "half_p2",
            p2(1),
            MapSpec.half(),
            np.array([1.0]),
            c=0.25,
            fixed_point=np.array([0.0]),
        ),
        Problem(
            "affine_half_p1",
            p1(1),
            MapSpec.affine([[0.5]], [1.0]),
            np.array([0.0]),
            c=0.5,
            fixed_point=np.array([2.0]),
        ),
        Problem(
            "affine_half_p2",
            p2(1),
            MapSpec.affine([[0.5]], [1.0]),
            np.array([0.0]),
            c=0.25,
            fixed_point=np.array([2.0]),
        ),
        Problem(
            "affine_diag_2d",
            p1(2),
            MapSpec.affine([[0.5, 0.0], [0.0, 0.5]], [1.0, 1.0]),
            np.array([0.0, 0.0]),
            c=0.5,
            fixed_point=np.array([2.0, 2.0]),
        ),
        Problem(
            "logistic_p1",
            p1(2),
            MapSpec.logistic_damped(0.8),
            np.array([1.0, -2.0]),
            c=0.8,
            fixed_point=np.array([0.0, 0.0]),
        ),
        Problem(
            "const_p1",
            p1(2),
            MapSpec.const([0.7, -0.3]),
            np.array([5.0, 5.0]),
            c=0.0,
            fixed_point=np.array([0.7, -0.3]),
        ),
    ]
    # a full (non-diagonal) affine contraction; c is its exact l1 factor
    A = np.array([[0.30, -0.20], [0.25, 0.35]])
    b = np.array([0.5, -1.0])
    problems.append(
        Problem(
            "affine_mixed_2d",
            p1(2),
            MapSpec.affine(A, b),
            np.array([0.0, 0.0]),
            c=l1_operator_norm(A),
            fixed_point=np.linalg.solve(np.eye(2) - A, b),
        )
    )
    return problems


def random_affine_contraction(
    rng: np.random.Generator, dim: int, target: float
) -> MapSpec:
    """Random affine map rescaled so its l1 operator norm equals `target`.

    With target < 1 this is a genuine contraction under the coordinate-sum
    modular; the spectral radius is bounded by the same figure.
    """
    if not 0.0 < target < 1.0:
        raise ValueError("target factor must lie in (0, 1)")
    A = rng.normal(size=(dim, dim))
    A *= target / l1_operator_norm(A)
    b = rng.uniform(-1.0, 1.0, dim)
    return MapSpec.affine(A, b)

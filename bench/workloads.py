"""The benchmark's workloads: fixed command lists generated from a seed.

Each workload is a closed loop with one caller: a pass runs its commands
through `rhofix.cli.main` one after another, each starting when the last
returned. Problem sizes are fixed per workload; the seed draws only the
data (points, weights, matrices, checker seeds), so the work in a pass
barely moves with it. Every command carries the exit code it must give
and a reference check of what it wrote, made with `refmath`.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import yaml

import refmath

WORKLOADS = ("shipped_configs", "solve_long", "certify_chain")

# Supported (subcommand, shipped config) pairs. The first doubles as the
# warm-up command, so it is a cheap one.
SHIPPED_PAIRS = (
    [("check", name) for name in
     ("affine_p2", "bad_functional", "half_p1", "orlicz_check", "weighted_logistic")]
    + [(sub, name) for sub in ("solve", "certificate")
       for name in ("affine_p2", "half_p1", "weighted_logistic")]
)
SHIPPED_SEEDS_PER_PASS = 4

# solve_long cases: (space family, dimension, lam); lam None is the affine
# map with l1 factor 0.99. Cheapest first (the warm-up); costs are about
# 2x apart so that the median command is always the same one.
SOLVE_LONG = (
    ("affine", 16, None),
    ("weighted_sum", 16, 0.995),
    ("orlicz", 16, 0.997),
    ("ppower", 128, 0.997),
    ("orlicz", 256, 0.995),
)
SOLVE_LONG_TINY = (
    ("affine", 4, None),
    ("orlicz", 4, 0.9),
    ("ppower", 4, 0.9),
    ("weighted_sum", 4, 0.9),
)
AFFINE_FACTOR = 0.99
SOLVE_TOL = 1e-10

# certify_chain cases: (dimension, chain length N), cheapest first and
# about 1.5x apart in cost.
CERTIFY_CHAIN = ((2, 100), (16, 150), (32, 200), (8, 300), (4, 400))
CERTIFY_CHAIN_TINY = ((2, 20), (4, 30), (8, 20))
CHAIN_FACTOR = 0.9


@dataclass
class Command:
    """One `rhofix.cli.main` call (without --out) and how to judge it."""

    argv: list[str]
    expect_exit: int = 0
    check: Callable[[Path], str | None] | None = None
    problem: dict | None = None  # the problem tree, for the Picard floor

    def verify(self, rc, out: Path) -> str | None:
        """None when the command behaved, else the reason it did not."""
        if rc != self.expect_exit:
            return f"exit code {rc}, expected {self.expect_exit}"
        if self.check is None:
            return None
        try:
            return self.check(out)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return f"unreadable output: {exc!r}"


def _summary(out: Path, name: str) -> dict:
    return json.loads((out / name).read_text())


def violated(axiom: str):
    def check(out: Path) -> str | None:
        got = _summary(out, "report_axioms.json")["violated_axioms"]
        return None if axiom in got else f"{axiom} not among violated axioms {got}"
    return check


def doubling_unbounded(out: Path) -> str | None:
    d2 = _summary(out, "report_delta2.json")
    return None if d2.get("unbounded") is True else f"doubling estimate not unbounded: {d2}"


def solved(problem: dict, c: float, p: float):
    """The fixed point lies within `refmath.solve_bound` of the analytic one."""
    x0 = np.asarray(problem["initial_point"], dtype=float)
    rho = refmath.rho_fn(problem["space"], x0.size)
    x_star = refmath.fixed_point(problem["map"], x0.size)
    bound = refmath.solve_bound(float(problem["solve"]["tol"]), c, p)

    def check(out: Path) -> str | None:
        s = _summary(out, "solve_summary.json")
        if s["converged"] is not True or s["fixed_point"] is None:
            return "solve did not converge"
        gap = rho(np.asarray(s["fixed_point"], dtype=float) - x_star)
        return None if gap <= bound else f"rho(x - x*) = {gap:.3e} > {bound:.3e}"
    return check


def certified(problem: dict, c: float):
    """all_pass, and the limit candidate T^N x0 within c^N rho(x0 - x*) of x*."""
    x0 = np.asarray(problem["initial_point"], dtype=float)
    rho = refmath.rho_fn(problem["space"], x0.size)
    x_star = refmath.fixed_point(problem["map"], x0.size)
    bound = refmath.chain_bound(c, int(problem["chain"]["N"]), rho(x0 - x_star))

    def check(out: Path) -> str | None:
        s = _summary(out, "certificate_summary.json")
        if s.get("all_pass") is not True:
            return "certificate did not pass"
        gap = rho(np.asarray(s["limit_candidate"], dtype=float) - x_star)
        return None if gap <= bound else f"rho(limit - x*) = {gap:.3e} > {bound:.3e}"
    return check


def _shipped(root: Path, rng: np.random.Generator, tiny: bool) -> list[Command]:
    seeds = rng.integers(0, 2**63 - 1, 1 if tiny else SHIPPED_SEEDS_PER_PASS)
    commands = []
    for seed in seeds:
        for sub, name in SHIPPED_PAIRS:
            path = root / "configs" / f"{name}.yaml"
            problem = yaml.safe_load(path.read_text())
            cmd = Command([sub, "--config", str(path), "--seed", str(int(seed)), "--quiet"],
                          problem=problem)
            if sub == "check" and name == "bad_functional":
                cmd.expect_exit, cmd.check = 1, violated("convexity")
            elif sub == "check" and name == "orlicz_check":
                cmd.check = doubling_unbounded
            elif sub in ("solve", "certificate"):
                # every shipped map claims its exact factor under its modular
                c = float(problem["map"]["c"])
                p = float(problem["space"]["p"])
                cmd.check = solved(problem, c, p) if sub == "solve" else certified(problem, c)
            commands.append(cmd)
    return commands


def _write(problems: Path, name: str, tree: dict) -> str:
    path = problems / f"{name}.yaml"
    path.write_text(yaml.safe_dump(tree))
    return str(path)


def _solve_long(problems: Path, rng: np.random.Generator, tiny: bool) -> list[Command]:
    commands = []
    for i, (family, d, lam) in enumerate(SOLVE_LONG_TINY if tiny else SOLVE_LONG):
        if lam is None:
            # nonnegative columns summing to the factor: l1 norm and spectral
            # radius both 0.99, so the orbit converges slowly; power path n = 138
            M = rng.uniform(0.0, 1.0, (d, d))
            A = AFFINE_FACTOR * M / M.sum(axis=0)
            space = {"family": "ppower", "p": 1.0}
            tmap = {"kind": "affine", "matrix": A.tolist(),
                    "offset": rng.uniform(-1.0, 1.0, d).tolist(), "c": AFFINE_FACTOR}
            c = AFFINE_FACTOR
        else:
            tmap = {"kind": "logistic_damped", "lam": lam}
            if family == "orlicz":
                # unbounded doubling constant: the plain Picard path
                space = {"family": "orlicz", "phi": "exp_minus_one", "quadrature_nodes": d}
                tmap["c"] = lam
            elif family == "ppower":
                space = {"family": "ppower", "p": 1.0}
            else:
                space = {"family": "weighted_sum", "p": 1.0,
                         "weights": rng.uniform(0.5, 2.0, d).tolist()}
            c = lam  # the map's true factor; c is auto-filled off Orlicz
        problem = {
            "space": space,
            "map": tmap,
            "initial_point": rng.uniform(-1.0, 1.0, d).tolist(),
            "solve": {"tol": SOLVE_TOL, "max_iter": 100_000},
            "seed": int(rng.integers(0, 2**32)),
        }
        path = _write(problems, f"solve{i}_{family}_d{d}", problem)
        commands.append(Command(["solve", "--config", path, "--quiet"],
                                check=solved(problem, c, 1.0), problem=problem))
    return commands


def _certify_chain(problems: Path, rng: np.random.Generator, tiny: bool) -> list[Command]:
    from rhofix.problems import random_affine_contraction

    commands = []
    for i, (d, n) in enumerate(CERTIFY_CHAIN_TINY if tiny else CERTIFY_CHAIN):
        T = random_affine_contraction(rng, d, CHAIN_FACTOR)
        problem = {
            "space": {"family": "ppower", "p": 1.0},
            "map": {"kind": "affine", "matrix": T.matrix.tolist(),
                    "offset": T.offset.tolist(), "c": CHAIN_FACTOR},
            "initial_point": rng.uniform(-1.0, 1.0, d).tolist(),
            "chain": {"N": n},
            "seed": int(rng.integers(0, 2**32)),
        }
        path = _write(problems, f"cert{i}_d{d}_n{n}", problem)
        commands.append(Command(["certificate", "--config", path, "--quiet"],
                                check=certified(problem, CHAIN_FACTOR), problem=problem))
    return commands


def build(name: str, root: Path, seed: int, work: Path, tiny: bool = False) -> list[Command]:
    """The workload's command list; generated problem files go under `work`."""
    rng = np.random.default_rng(seed)
    if name == "shipped_configs":
        return _shipped(root, rng, tiny)
    problems = work / "problems"
    problems.mkdir(parents=True, exist_ok=True)
    if name == "solve_long":
        return _solve_long(problems, rng, tiny)
    if name == "certify_chain":
        return _certify_chain(problems, rng, tiny)
    raise ValueError(f"unknown workload {name!r}")


def import_rhofix(root: Path):
    """Import rhofix.cli from the checkout's src/, never from elsewhere."""
    src = (root / "src").resolve()
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import rhofix.cli

    if Path(rhofix.cli.__file__).resolve().parent != src / "rhofix":
        raise RuntimeError(f"rhofix imported from {rhofix.cli.__file__}, not {src}")
    return rhofix.cli


def set_up(name: str, root: Path, seed: int, work: Path, tiny: bool = False):
    """Import rhofix, generate the problem files, run one warm-up command.

    Returns the cli module and the command list. This is what `setup_s`
    times.
    """
    cli = import_rhofix(root)
    commands = build(name, root, seed, work, tiny)
    cli.main(commands[0].argv + ["--out", str(work / "warmup")])
    return cli, commands

"""Problem files: a YAML tree describing the space, the map, and the run.

Recognized keys (dotted = nested):

    space.family            ppower | orlicz | weighted_sum, or one of the
                            named test functionals (sine_bump, sign_skewed,
                            dead_zone)
    space.p                 exponent for ppower / weighted_sum / orlicz power
    space.phi               power | exp_minus_one | u_log   (orlicz only)
    space.weights           list of positive weights        (weighted_sum)
    space.quadrature_nodes  grid cells on [0, 1]            (orlicz)
    map.kind                affine | half | logistic_damped | const
    map.matrix, map.offset  affine data; offset doubles as the const target
    map.lam                 damping factor (logistic_damped)
    map.c, map.k, map.s     claimed factors; (c, k, s) selects the scaled form,
                            and map.k is read only with map.s
    initial_point           list of reals; fixes the space dimension
    solve.tol, solve.max_iter
    check.trials, check.s   s triggers the s-convexity checker
    check.fatou_ratio, check.fatou_steps
    chain.N, chain.alpha    alpha overrides the computed admissible level
    seed                    64-bit unsigned
    out_dir                 report/trace output directory

Anything malformed raises ConfigError naming the offending key. That
includes an unknown key and a known one that the chosen family, integrand
or map kind never reads ("not used by ...").
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from .checks import INVALID_FUNCTIONALS
from .errors import ConfigError
from .modular import ModularLike, ModularSpec, Phi
from .solver import MapKind, MapSpec, _check_scaled

__all__ = ["ProblemConfig", "load_config"]

_DEFAULTS = {
    "tol": 1e-10,
    "max_iter": 10_000,
    "trials": 10_000,
    "chain_n": 30,
    "seed": 0,
    "out_dir": "out",
    "fatou_ratio": 0.5,
    "fatou_steps": 20,
}


# the keys each space family and each map kind reads (an Orlicz family reads
# `p` only for the power integrand); any other key would have no effect
_SPACE_READS = {
    "ppower": {"family", "p"},
    "weighted_sum": {"family", "p", "weights"},
    "orlicz": {"family", "phi", "quadrature_nodes", "p"},
    **{name: {"family"} for name in INVALID_FUNCTIONALS},
}
_MAP_READS = {
    MapKind.AFFINE: {"kind", "matrix", "offset", "c", "k", "s"},
    MapKind.HALF: {"kind", "c", "k", "s"},
    MapKind.LOGISTIC_DAMPED: {"kind", "lam", "c", "k", "s"},
    MapKind.CONST: {"kind", "offset", "c", "k", "s"},
}


# the keys each section allows, "" being the top level; any other key is an error
_KEYS = {
    "": {"space", "map", "initial_point", "solve", "check", "chain", "seed", "out_dir"},
    "space": set().union(*_SPACE_READS.values()),
    "map": set().union(*_MAP_READS.values()),
    "solve": {"tol", "max_iter"},
    "check": {"trials", "s", "fatou_ratio", "fatou_steps"},
    "chain": {"N", "alpha"},
}


@dataclass
class ProblemConfig:
    space: ModularLike
    map: MapSpec | None
    initial_point: np.ndarray
    tol: float = _DEFAULTS["tol"]
    max_iter: int = _DEFAULTS["max_iter"]
    trials: int = _DEFAULTS["trials"]
    chain_n: int = _DEFAULTS["chain_n"]
    seed: int = _DEFAULTS["seed"]
    out_dir: Path = field(default_factory=lambda: Path(_DEFAULTS["out_dir"]))
    s: float | None = None
    fatou_ratio: float = _DEFAULTS["fatou_ratio"]
    fatou_steps: int = _DEFAULTS["fatou_steps"]
    chain_alpha: float | None = None

    @property
    def dim(self) -> int:
        return self.initial_point.size


def _get(tree: dict, key: str, path: str, required: bool = False, default=None):
    if key not in tree:
        if required:
            raise ConfigError(f"{path}.{key}" if path else key, "missing required key")
        return default
    return tree[key]


def _as_float(value, path: str) -> float:
    try:
        out = float(value)
    except (TypeError, ValueError):
        out = math.nan
    if not math.isfinite(out):
        raise ConfigError(path, f"expected a finite number, got {value!r}")
    return out


def _optional_float(tree: dict, key: str, section: str) -> float | None:
    """tree[key] as a finite float, or None when it is absent or null."""
    value = tree.get(key)
    return None if value is None else _as_float(value, f"{section}.{key}")


def _as_int(value, path: str, minimum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(path, f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(path, f"must be >= {minimum}, got {value}")
    return value


def _as_vector(value, path: str) -> np.ndarray:
    try:
        arr = np.atleast_1d(np.asarray(value, dtype=float))
    except (TypeError, ValueError):
        raise ConfigError(path, f"expected a list of numbers, got {value!r}") from None
    if arr.ndim != 1 or arr.size < 1 or not np.all(np.isfinite(arr)):
        raise ConfigError(path, "expected a nonempty list of finite numbers")
    return arr


def _check_keys(tree: dict, section: str, allowed: set | None = None,
                why: str = "unknown key") -> None:
    for key in tree:
        if key not in (_KEYS[section] if allowed is None else allowed):
            raise ConfigError(f"{section}.{key}" if section else str(key), why)


def _subtree(tree: dict, key: str) -> dict:
    sub = {} if tree.get(key) is None else tree[key]
    if not isinstance(sub, dict):
        raise ConfigError(key, f"expected a mapping, got {sub!r}")
    _check_keys(sub, key)
    return sub


def _load_space(tree: dict, dim: int) -> ModularLike:
    family = _get(tree, "family", "space", required=True)
    if not isinstance(family, str) or family not in _SPACE_READS:
        raise ConfigError("space.family", f"unknown family {family!r}")
    _check_keys(tree, "space", _SPACE_READS[family], f"not used by {family}")
    if family in INVALID_FUNCTIONALS:
        fn, _ = INVALID_FUNCTIONALS[family]
        if dim != fn.dim:
            raise ConfigError("initial_point", f"{family} is {fn.dim}-dimensional")
        return fn

    try:
        if family == "orlicz":
            phi_name = _get(tree, "phi", "space", required=True)
            try:
                phi = Phi(phi_name)
            except ValueError:
                raise ConfigError("space.phi", f"unknown integrand {phi_name!r}") from None
            nodes = _as_int(_get(tree, "quadrature_nodes", "space", default=dim),
                            "space.quadrature_nodes", 1)
            if nodes != dim:
                raise ConfigError("space.quadrature_nodes", f"must match the point dimension {dim}")
            p = _get(tree, "p", "space", required=phi is Phi.POWER)
            if p is not None and phi is not Phi.POWER:
                raise ConfigError("space.p", f"not used by orlicz {phi.value}")
            return ModularSpec.orlicz(phi, nodes, p=None if p is None else _as_float(p, "space.p"))
        p = _as_float(_get(tree, "p", "space", required=True), "space.p")
        if family == "ppower":
            return ModularSpec.p_power(p, dim)
        w = _as_vector(_get(tree, "weights", "space", required=True), "space.weights")
        if w.size != dim:
            raise ConfigError("space.weights", f"expected {dim} weights, got {w.size}")
        return ModularSpec.weighted_sum(p, w)
    except ConfigError:
        raise
    except ValueError as exc:  # factory-level validation
        raise ConfigError("space", str(exc)) from None


def _load_map(tree: dict, dim: int) -> MapSpec | None:
    if not tree:
        return None
    kind_name = _get(tree, "kind", "map", required=True)
    try:
        kind = MapKind(kind_name)
    except ValueError:
        raise ConfigError("map.kind", f"unknown map kind {kind_name!r}") from None
    _check_keys(tree, "map", _MAP_READS[kind], f"not used by {kind.value}")
    c, k, s = (_optional_float(tree, key, "map") for key in "cks")
    if "k" in tree and s is None:
        raise ConfigError("map.k", "not used without map.s")
    claimed = None if s is not None else c  # with s set, (c, k, s) is the scaled form

    try:
        if s is not None:
            _check_scaled(c, k, s)
        if kind is MapKind.AFFINE:
            matrix = _get(tree, "matrix", "map", required=True)
            offset = _get(tree, "offset", "map", required=True)
            try:
                A = np.asarray(matrix, dtype=float)
            except (TypeError, ValueError):
                raise ConfigError("map.matrix", f"expected rows of numbers, got {matrix!r}") from None
            if A.ndim != 2 or A.shape != (dim, dim):
                raise ConfigError("map.matrix", f"expected a {dim}x{dim} matrix, got shape {A.shape}")
            b = _as_vector(offset, "map.offset")
            if b.size != dim:
                raise ConfigError("map.offset", f"expected {dim} entries, got {b.size}")
            spec = MapSpec.affine(A, b, c=claimed)
        elif kind is MapKind.HALF:
            spec = MapSpec.half(c=0.5 if claimed is None else claimed)
        elif kind is MapKind.LOGISTIC_DAMPED:
            lam = _as_float(_get(tree, "lam", "map", required=True), "map.lam")
            spec = MapSpec.logistic_damped(lam, c=claimed)
        else:
            v = _as_vector(_get(tree, "offset", "map", required=True), "map.offset")
            if v.size not in (1, dim):
                raise ConfigError("map.offset", f"constant target must have dim 1 or {dim}")
            spec = MapSpec.const(v, c=0.0 if claimed is None else claimed)
    except ConfigError:
        raise
    except ValueError as exc:  # factory-level validation
        raise ConfigError("map", str(exc)) from None
    spec.k, spec.s = k, s
    if s is not None:
        spec.c = c  # scaled-form c may exceed 1 legitimately
    return spec


def load_config(path) -> ProblemConfig:
    """Parse a YAML problem file into a validated ProblemConfig."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(str(path), f"cannot read config: {exc}") from None
    try:
        tree = yaml.load(text, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except yaml.YAMLError as exc:
        raise ConfigError(str(path), f"invalid YAML: {exc}") from None
    if not isinstance(tree, dict):
        raise ConfigError(str(path), "expected a top-level mapping of config keys")
    _check_keys(tree, "")

    point = _as_vector(_get(tree, "initial_point", "", required=True), "initial_point")
    dim = point.size
    space = _load_space(_subtree(tree, "space"), dim)
    map_spec = _load_map(_subtree(tree, "map"), dim)

    solve = _subtree(tree, "solve")
    check = _subtree(tree, "check")
    chain = _subtree(tree, "chain")

    tol = _as_float(solve.get("tol", _DEFAULTS["tol"]), "solve.tol")
    if tol <= 0:
        raise ConfigError("solve.tol", f"must be > 0, got {tol}")
    max_iter = _as_int(solve.get("max_iter", _DEFAULTS["max_iter"]), "solve.max_iter", 0)
    trials = _as_int(check.get("trials", _DEFAULTS["trials"]), "check.trials", 1)
    chain_n = _as_int(chain.get("N", _DEFAULTS["chain_n"]), "chain.N", 0)
    chain_alpha = _optional_float(chain, "alpha", "chain")
    if chain_alpha is not None and chain_alpha < 0:
        raise ConfigError("chain.alpha", f"must be >= 0, got {chain_alpha}")

    seed = _as_int(_get(tree, "seed", "", default=_DEFAULTS["seed"]), "seed", 0)
    if seed >= 2**64:
        raise ConfigError("seed", "must fit in 64 bits")

    s = _optional_float(check, "s", "check")
    if s is not None and not 0.0 < s <= 1.0:
        raise ConfigError("check.s", f"must lie in (0, 1], got {s}")
    fatou_ratio = _as_float(check.get("fatou_ratio", _DEFAULTS["fatou_ratio"]), "check.fatou_ratio")
    if not 0.0 < fatou_ratio < 1.0:
        raise ConfigError("check.fatou_ratio", f"must lie in (0, 1), got {fatou_ratio}")
    fatou_steps = _as_int(check.get("fatou_steps", _DEFAULTS["fatou_steps"]), "check.fatou_steps", 1)

    out_dir = _get(tree, "out_dir", "", default=_DEFAULTS["out_dir"])
    if not isinstance(out_dir, str) or not out_dir:
        raise ConfigError("out_dir", f"expected a path string, got {out_dir!r}")

    return ProblemConfig(
        space=space,
        map=map_spec,
        initial_point=point,
        tol=tol,
        max_iter=max_iter,
        trials=trials,
        chain_n=chain_n,
        seed=seed,
        out_dir=Path(out_dir),
        s=s,
        fatou_ratio=fatou_ratio,
        fatou_steps=fatou_steps,
        chain_alpha=chain_alpha,
    )

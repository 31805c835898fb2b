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
    map.c                   claimed factor in [0, 1); omit to auto-fill
    map.k, map.s            with map.s, (c, k, s) is the scaled form and no
                            factor is claimed; map.k is read only with map.s
    initial_point           list of reals; fixes the space dimension
    solve.tol, solve.max_iter
    check.trials, check.s   s triggers the s-convexity checker
    check.fatou_ratio, check.fatou_steps
    chain.N, chain.alpha    alpha overrides the computed admissible level
    seed                    64-bit unsigned
    out_dir                 report/trace output directory

Anything malformed raises ConfigError naming the offending key. That
includes an unknown key, a known one that the chosen family, integrand
or map kind never reads ("not used by ..."), and a size key (check.trials,
check.fatou_steps, chain.N) whose arrays numpy could not make at any
memory size.
A factor belongs to the map and the modular together: the claim keys go to
`ProblemConfig.c_claimed` and `.scaled_form`, never into the `MapSpec`.

The file is read from the event stream of PyYAML's `CSafeLoader` (libyaml),
or of `SafeLoader` without libyaml, into the tree `yaml.load` builds with
that loader: the same types and float bits. A sequence of plain scalars
all spelled as digits, a dot and digits (`-0.25`, `1.`) or as a dot and
digits (`.5`), each with an optional signed exponent (`e-3`), becomes its
floats in one pass of float(); every other scalar and every key goes
through the loader's `resolve` and `construct_object`. Numbers are YAML
1.1's: `1e3`, `1.5e10` and `+.5` are strings, `0x10`, `017`, `1_000` and
`1:30` are integers, and `.inf`, `.nan` and `1_0.5` are floats; `yes`,
`off` and the like are booleans, which no real accepts. A document the
builder does not handle (an anchor or alias, a merge key, a tag on a
collection, an error) goes to `yaml.load` whole, so an aliased tree and
the error for an undefined anchor are `yaml.load`'s own.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from .checks import INVALID_FUNCTIONALS
from .errors import ConfigError
from .modular import ModularLike, ModularSpec, Phi
from .solver import MapKind, MapSpec, _check_scaled

__all__ = ["ProblemConfig", "load_config", "check_seed"]

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
    c_claimed: float | None = None  # map.c without map.s
    scaled_form: tuple[float, float, float] | None = None  # (map.c, map.k, map.s)

    @property
    def dim(self) -> int:
        return self.initial_point.size


def _get(tree: dict, key: str, path: str, required: bool = False, default=None):
    if key not in tree:
        if required:
            raise ConfigError(f"{path}.{key}" if path else key, "missing required key")
        return default
    return tree[key]


def _holds_bool(value) -> bool:
    """Whether value is a bool or a list holding one at any depth: YAML 1.1
    reads yes/no/on/off as booleans, which no real may take as 1.0 or 0.0."""
    if not isinstance(value, list):
        return isinstance(value, bool)
    types = set(map(type, value))
    return bool in types or (list in types and any(map(_holds_bool, value)))


def _as_float(value, path: str) -> float:
    try:
        out = math.nan if isinstance(value, bool) else float(value)
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


# numpy's largest array in bytes; a larger one raises "array is too big"
_MAX_ARRAY_BYTES = int(np.iinfo(np.intp).max)


def _as_size(value, path: str, minimum: int, dim: int) -> int:
    """An integer key that counts rows of `dim` floats (sampled trials,
    Fatou steps, the chain's nodes). A value whose value + 1 rows numpy
    could not hold in one array is refused here, not met as a traceback
    later."""
    n = _as_int(value, path, minimum)
    if (n + 1) * dim * 8 > _MAX_ARRAY_BYTES:
        raise ConfigError(path, f"{n} is too large: {n + 1} rows of {dim} floats "
                                f"exceed numpy's largest array ({_MAX_ARRAY_BYTES} bytes)")
    return n


def _as_vector(value, path: str) -> np.ndarray:
    try:
        if _holds_bool(value):
            raise TypeError
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
        p = None if p is None else _as_float(p, "space.p")
        return _build("space.p", ModularSpec.orlicz, phi, nodes, p)
    p = _as_float(_get(tree, "p", "space", required=True), "space.p")
    if family == "ppower":
        return _build("space.p", ModularSpec.p_power, p, dim)
    w = _as_vector(_get(tree, "weights", "space", required=True), "space.weights")
    if w.size != dim:
        raise ConfigError("space.weights", f"expected {dim} weights, got {w.size}")
    return _build("space", ModularSpec.weighted_sum, p, w)  # p or a weight


def _build(key: str, factory, *args):
    """factory(*args), with the factory's own validation error named as `key`."""
    try:
        return factory(*args)
    except ValueError as exc:
        raise ConfigError(key, str(exc)) from None


def _load_map(tree: dict, dim: int) -> MapSpec | None:
    if not tree:
        return None
    kind_name = _get(tree, "kind", "map", required=True)
    try:
        kind = MapKind(kind_name)
    except ValueError:
        raise ConfigError("map.kind", f"unknown map kind {kind_name!r}") from None
    _check_keys(tree, "map", _MAP_READS[kind], f"not used by {kind.value}")
    if kind is MapKind.HALF:
        return MapSpec.half()
    if kind is MapKind.LOGISTIC_DAMPED:
        lam = _as_float(_get(tree, "lam", "map", required=True), "map.lam")
        return _build("map.lam", MapSpec.logistic_damped, lam)
    if kind is MapKind.CONST:
        v = _as_vector(_get(tree, "offset", "map", required=True), "map.offset")
        if v.size not in (1, dim):
            raise ConfigError("map.offset", f"constant target must have dim 1 or {dim}")
        return MapSpec.const(v)
    matrix = _get(tree, "matrix", "map", required=True)
    offset = _get(tree, "offset", "map", required=True)
    try:
        if _holds_bool(matrix):
            raise TypeError
        A = np.asarray(matrix, dtype=float)
    except (TypeError, ValueError):
        raise ConfigError("map.matrix", f"expected rows of numbers, got {matrix!r}") from None
    if A.ndim != 2 or A.shape != (dim, dim):
        raise ConfigError("map.matrix", f"expected a {dim}x{dim} matrix, got shape {A.shape}")
    b = _as_vector(offset, "map.offset")
    if b.size != dim:
        raise ConfigError("map.offset", f"expected {dim} entries, got {b.size}")
    return _build("map.matrix", MapSpec.affine, A, b)


def _load_claim(tree: dict) -> tuple[float | None, tuple[float, float, float] | None]:
    """map.c, map.k and map.s as (c_claimed, scaled_form); a scaled-form c may exceed 1."""
    c, k, s = (_optional_float(tree, key, "map") for key in "cks")
    if s is None:
        if "k" in tree:
            raise ConfigError("map.k", "not used without map.s")
        if c is not None and not 0.0 <= c < 1.0:
            raise ConfigError("map.c", f"claimed contraction factor must lie in [0, 1), got {c}")
        return c, None
    fault = _check_scaled(c, k, s)
    if fault:
        raise ConfigError(f"map.{fault[0]}", fault[1])
    return None, (c, k, s)


def check_seed(seed) -> int:
    """The seed rule, for a problem file and the command line alike."""
    if not 0 <= _as_int(seed, "seed") < 2**64:
        raise ConfigError("seed", f"must fit in 64 bits unsigned, got {seed}")
    return seed


# A plain scalar spelled like this resolves to a float under PyYAML's YAML 1.1
# rules (the float pattern is tried first for its leading characters), and
# float() of it is construct_yaml_float's value: no "_", ":", inf or nan.
_PLAIN_FLOAT = re.compile(r"(?:[-+]?[0-9]+\.[0-9]*|\.[0-9]+)(?:[eE][-+][0-9]+)?")


class _Unsupported(Exception):
    """A document construct that _TreeBuilder leaves to `yaml.load`."""


class _TreeBuilder:
    """The tree `yaml.load(text, Loader=loader_class)` gives, built from the
    loader's event stream. A sequence of plain float spellings becomes its
    floats in one pass of float(); every other scalar goes through the
    loader's own `resolve` and `construct_object`. Anchors and aliases, tags
    on collections, non-scalar keys, path resolvers and a second document
    raise `_Unsupported`; a merge key ("<<") or value key ("=") has no
    constructor of its own, so `construct_object` raises on it."""

    def __init__(self, loader):
        if loader.yaml_path_resolvers:
            raise _Unsupported
        self.loader = loader
        self.next = loader.get_event

    def document(self):
        self.next()  # StreamStart
        if isinstance(self.next(), yaml.StreamEndEvent):
            return None
        data = self.node(self.next())
        self.next()  # DocumentEnd
        if not isinstance(self.next(), yaml.StreamEndEvent):
            raise _Unsupported
        return data

    def node(self, event):
        if event.anchor is not None:  # an alias event carries its anchor's name
            raise _Unsupported
        if isinstance(event, yaml.ScalarEvent):
            return self.scalar(event)
        if event.tag is not None:
            raise _Unsupported
        if isinstance(event, yaml.SequenceStartEvent):
            return self.sequence()
        return self.mapping()

    def scalar(self, event):
        tag = event.tag
        if tag is None or tag == "!":
            tag = self.loader.resolve(yaml.ScalarNode, event.value, event.implicit)
        node = yaml.ScalarNode(tag, event.value, event.start_mark, event.end_mark, event.style)
        return self.loader.construct_object(node, deep=True)

    def sequence(self) -> list:
        floats = []
        event = self.next()
        # implicit[0] with no tag is a plain scalar; libyaml reports its style
        # as "" and the pure-Python parser as None, so style cannot tell
        while (isinstance(event, yaml.ScalarEvent) and event.implicit[0] and event.tag is None
               and event.anchor is None and _PLAIN_FLOAT.fullmatch(event.value)):
            floats.append(event)
            event = self.next()
        if isinstance(event, yaml.SequenceEndEvent):
            return [float(e.value) for e in floats]
        data = [self.scalar(e) for e in floats]
        while not isinstance(event, yaml.SequenceEndEvent):
            data.append(self.node(event))
            event = self.next()
        return data

    def mapping(self) -> dict:
        data = {}
        event = self.next()
        while not isinstance(event, yaml.MappingEndEvent):
            if not isinstance(event, yaml.ScalarEvent) or event.anchor is not None:
                raise _Unsupported
            key = self.scalar(event)
            data[key] = self.node(self.next())
            event = self.next()
        return data


def _parse_yaml(text: str, loader_class):
    """`yaml.load(text, Loader=loader_class)`, built from the event stream where
    _TreeBuilder can. Any other document goes to `yaml.load` whole: an
    invalid one, so that its errors are the reference's own, and one nested
    past the recursion limit, which libyaml's composer handles."""
    loader = loader_class(text)
    try:
        return _TreeBuilder(loader).document()
    except (_Unsupported, yaml.YAMLError, RecursionError):
        return yaml.load(text, Loader=loader_class)
    finally:
        loader.dispose()


def load_config(path) -> ProblemConfig:
    """Parse a YAML problem file into a validated ProblemConfig."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(str(path), f"cannot read config: {exc}") from None
    try:
        tree = _parse_yaml(text, getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except yaml.YAMLError as exc:
        raise ConfigError(str(path), f"invalid YAML: {exc}") from None
    if not isinstance(tree, dict):
        raise ConfigError(str(path), "expected a top-level mapping of config keys")
    _check_keys(tree, "")

    point = _as_vector(_get(tree, "initial_point", "", required=True), "initial_point")
    dim = point.size
    space = _load_space(_subtree(tree, "space"), dim)
    map_tree = _subtree(tree, "map")
    map_spec = _load_map(map_tree, dim)
    c_claimed, scaled_form = _load_claim(map_tree)

    solve = _subtree(tree, "solve")
    check = _subtree(tree, "check")
    chain = _subtree(tree, "chain")

    tol = _as_float(solve.get("tol", _DEFAULTS["tol"]), "solve.tol")
    if tol <= 0:
        raise ConfigError("solve.tol", f"must be > 0, got {tol}")
    max_iter = _as_int(solve.get("max_iter", _DEFAULTS["max_iter"]), "solve.max_iter", 0)
    trials = _as_size(check.get("trials", _DEFAULTS["trials"]), "check.trials", 1, dim)
    chain_n = _as_size(chain.get("N", _DEFAULTS["chain_n"]), "chain.N", 0, dim)
    chain_alpha = _optional_float(chain, "alpha", "chain")
    if chain_alpha is not None and chain_alpha < 0:
        raise ConfigError("chain.alpha", f"must be >= 0, got {chain_alpha}")

    seed = check_seed(_get(tree, "seed", "", default=_DEFAULTS["seed"]))

    s = _optional_float(check, "s", "check")
    if s is not None and not 0.0 < s <= 1.0:
        raise ConfigError("check.s", f"must lie in (0, 1], got {s}")
    fatou_ratio = _as_float(check.get("fatou_ratio", _DEFAULTS["fatou_ratio"]), "check.fatou_ratio")
    if not 0.0 < fatou_ratio < 1.0:
        raise ConfigError("check.fatou_ratio", f"must lie in (0, 1), got {fatou_ratio}")
    fatou_steps = _as_size(check.get("fatou_steps", _DEFAULTS["fatou_steps"]), "check.fatou_steps",
                           1, dim)

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
        c_claimed=c_claimed,
        scaled_form=scaled_form,
    )

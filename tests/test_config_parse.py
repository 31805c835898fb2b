"""The event-stream tree builder against its reference, `yaml.load`.

`config._parse_yaml(text, L)` must give what `yaml.load(text, Loader=L)`
gives, for both loader classes: the same types, the same float bits, the
same aliased objects, and the same error when there is one. `load_config`
on top of it must then give bit-identical arrays or the same ConfigError.
"""

import dataclasses
import math
import struct
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import yaml
from hypothesis import given, strategies as st

from rhofix import config, load_config
from rhofix.errors import ConfigError
from rhofix.problems import random_affine_contraction

LOADERS = [yaml.SafeLoader] + ([yaml.CSafeLoader] if hasattr(yaml, "CSafeLoader") else [])
LOADER_IDS = [L.__name__ for L in LOADERS]
CONFIGS = sorted((Path(__file__).parents[1] / "configs").glob("*.yaml"))
FLOAT_TAG = "tag:yaml.org,2002:float"

# plain spellings the bulk path turns into floats ...
FAST = ["0.25", "-1.5", "1.", "-0.0", "+2.5", "1.5e+10", "1.5E-3", ".5", "5.0e-324",
        "1.0e+300", "0.1", "3.0"]
# ... and spellings that must each go through the loader's resolver
OTHER = ["1e3", "1.5e10", "+.5", ".inf", "-.INF", ".nan", "0x10", "017", "1_000", "1_0.5",
         "1:30.5", "~", "yes", "off", "'0.5'", "!!float 1", "!!str 0.5", "2", "1e0", "'1e0'"]


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


def assert_same_tree(a, b, pairs=None):
    """a and b have the same types, float bits and shape of aliasing."""
    pairs = {} if pairs is None else pairs
    assert type(a) is type(b), (a, b)
    if isinstance(a, float):
        assert _bits(a) == _bits(b) or (math.isnan(a) and math.isnan(b)), (a, b)
        return
    if isinstance(a, (list, dict)):  # a container met again must be met again in b
        key_a, key_b = ("a", id(a)), ("b", id(b))
        if key_a in pairs or key_b in pairs:
            assert pairs.get(key_a) == id(b) and pairs.get(key_b) == id(a), "aliasing differs"
            return
        pairs[key_a], pairs[key_b] = id(b), id(a)
    if isinstance(a, list):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert_same_tree(x, y, pairs)
    elif isinstance(a, dict):
        assert [type(k) for k in a] == [type(k) for k in b] and repr(list(a)) == repr(list(b))
        for x, y in zip(a.values(), b.values()):
            assert_same_tree(x, y, pairs)
    else:
        assert a == b or repr(a) == repr(b), (a, b)


def _reference(text, loader_class):
    return yaml.load(text, Loader=loader_class)


def _outcome(parse):
    try:
        return parse()
    except yaml.YAMLError as exc:
        return type(exc), str(exc)


def assert_same_parse(text, loader_class):
    built = _outcome(lambda: config._parse_yaml(text, loader_class))
    ref = _outcome(lambda: _reference(text, loader_class))
    assert_same_tree(built, ref)
    assert repr(built) == repr(ref)


def assert_same_config(a, b):
    """Two load_config results: equal fields, arrays and floats bit for bit."""
    assert type(a) is type(b)
    if isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    elif isinstance(a, float):
        assert _bits(a) == _bits(b)
    elif isinstance(a, (tuple, list)):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert_same_config(x, y)
    elif dataclasses.is_dataclass(a) and a is not b:
        for f in dataclasses.fields(a):
            assert_same_config(getattr(a, f.name), getattr(b, f.name))
    else:
        assert a is b or a == b, (a, b)


def _load(path, loader_class, parse):
    """load_config(path) with its YAML parsed by `parse` under `loader_class`."""
    with mock.patch.object(config, "_parse_yaml", lambda text, _: parse(text, loader_class)):
        try:
            return load_config(path)
        except ConfigError as exc:
            return exc.key, str(exc)


def assert_same_load(path, loader_class):
    built = _load(path, loader_class, config._parse_yaml)
    ref = _load(path, loader_class, _reference)
    assert_same_config(built, ref)
    return built


# --- problem texts over the awkward spellings -------------------------------------

_fast_seq = st.lists(st.sampled_from(FAST), min_size=1, max_size=4)
_any_seq = st.lists(st.sampled_from(FAST + OTHER), max_size=4)
# mostly plain floats with one other spelling at some place
_one_odd = st.builds(lambda xs, x, i: xs[:i] + [x] + xs[i:], _fast_seq,
                     st.sampled_from(FAST + OTHER), st.integers(0, 4))
_seq = st.one_of(_fast_seq, _fast_seq, _one_odd, _any_seq)
_odd = st.sampled_from(FAST + OTHER)
_rarely = st.sampled_from([False] * 4 + [True])  # True one time in five
# scalars that mostly pass validation, so that most texts load
_float = st.one_of(st.sampled_from(["0.25", ".5", "0.1", "'0.5'", "2.5e-1", "1e-1"]), _odd)
_int = st.one_of(st.sampled_from(["5", "0x10", "017", "1_000", "1:30", "+3"]), _odd)


def _vector(d):
    return st.one_of(*[st.lists(st.sampled_from(FAST), min_size=d, max_size=d)] * 3, _seq)


def _render_seq(items, flow):
    if flow or not items:
        return " [" + ", ".join(items) + "]"
    return "".join(f"\n  - {item}" for item in items)


@st.composite
def problem_texts(draw):
    flow = draw(st.booleans())
    point = draw(_vector(draw(st.integers(1, 4))))
    if draw(_rarely):  # an anchored scalar and its alias
        point = [f"&a {draw(st.sampled_from(FAST))}", "*a"] + point
    d = len(point)
    lines = []
    merge = draw(_rarely)
    if merge:  # an earlier space section that the later one merges
        lines.append("space: &base {family: ppower, p: 1.0}")
    p = draw(_float)
    lines.append(f"space: {{<<: *base, p: {p}}}" if merge else f"space: {{family: ppower, p: {p}}}")
    anchor_point = draw(st.booleans())
    lines.append(f"initial_point:{' &pt' if anchor_point else ''}{_render_seq(point, flow)}")
    kind = draw(st.sampled_from(["affine", "affine", "const", "half"]))
    claim = f", c: {draw(_float)}" if draw(st.booleans()) else ""
    if kind == "affine":
        rows = [draw(_vector(d)) for _ in range(d)]
        matrix = "[" + ", ".join("[" + ", ".join(r) + "]" for r in rows) + "]"
        offset = ("*pt" if anchor_point and draw(st.booleans())
                  else "[" + ", ".join(draw(_vector(d))) + "]")
        lines.append(f"map: {{kind: affine, matrix: {matrix}, offset: {offset}{claim}}}")
    elif kind == "const":
        offset = " *pt" if anchor_point else _render_seq(draw(_vector(d)), flow)
        lines.append("map:\n  kind: const\n  offset:" + offset.replace("\n", "\n  "))
    else:
        lines.append(f"map: {{kind: half{claim}}}")
    shared = draw(st.booleans())
    lines.append(f"chain: {{N: {'&n ' if shared else ''}{draw(_int)}}}")
    lines.append(f"check: {{fatou_steps: {'*n' if shared else draw(_int)}, "
                 f"fatou_ratio: {draw(_float)}}}")
    lines.append(f"solve: {{tol: {draw(_float)}}}")
    if draw(st.booleans()):
        lines.append(f"seed: {draw(_int)}")
    if draw(_rarely):  # a key spelled like a number
        lines.append(f"{draw(_odd)}: 1")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("loader_class", LOADERS, ids=LOADER_IDS)
@given(text=problem_texts())
def test_builder_matches_yaml_load(tmp_path_factory, loader_class, text):
    assert_same_parse(text, loader_class)
    path = tmp_path_factory.mktemp("cfg") / "problem.yaml"
    path.write_text(text)
    assert_same_load(path, loader_class)


@pytest.mark.parametrize("loader_class", LOADERS, ids=LOADER_IDS)
@pytest.mark.parametrize("text", [
    "", "---\n", "~\n", "[1.0, 2]\n", "a: []\n", "a: &x [1.0, 2.0]\nb: *x\n",
    "a: &x [*x]\n", "a: *x\n", "a: &x 1\nb: &x 2\n", "a: 1\n---\nb: 2\n", "a: [1.0\n",
    "base: &b {p: 1.5}\nspace: {<<: *b, q: 2.5}\n", "=: 1.0\n", "a: =\n", "? [1.0]\n: 2\n",
    "a: !!seq [1.0]\n", "a: !!set {x}\n", "a: !!omap [x: 1.0]\n", "!!float 1: 2.0\n",
    "a: !!float [1.0]\n", "a: ! 1.5\n", "a: [! 1.5, 2.5]\n", "a: [1.0, !!str 2.0]\n",
    "a: [1.5e10, 1.5e+10, 1.5E+10]\n", "a: ['1.0', \"2.0\", 3.0]\n", "a: [1.0, &y 2.0, *y]\n",
    "a: [- 1.0]\n", "a: [+.5]\n", "a: [-.5, 1.5]\n", "a: [1.0, &x 2.0, &x 3.0]\n",
    "a: [1.0, '2.0']\n", "a:\n- 1.0\n- 2.0\nb: [.inf, -.Inf, .NaN]\n", "&r a: 1.0\n",
])
def test_builder_matches_yaml_load_on_edge_documents(loader_class, text):
    assert_same_parse(text, loader_class)


@pytest.mark.parametrize("loader_class", LOADERS, ids=LOADER_IDS)
@pytest.mark.parametrize("path", CONFIGS, ids=[p.stem for p in CONFIGS])
def test_builder_matches_yaml_load_on_shipped_configs(loader_class, path):
    assert_same_parse(path.read_text(), loader_class)
    assert not isinstance(assert_same_load(path, loader_class), tuple)


@pytest.mark.parametrize("loader_class", LOADERS, ids=LOADER_IDS)
@pytest.mark.parametrize("line, key", [
    ("chain: {N: 1e3}", "chain.N"),  # 1e3 is a string in YAML 1.1
    ("space: {family: ppower, p: 1e0}", None),  # the string '1e0' goes through float()
    ("initial_point: [1.0, '1e0']", None),
])
def test_number_spellings_keep_their_outcome(tmp_path, loader_class, line, key):
    tree = {"space": {"family": "ppower", "p": 1.0}, "map": {"kind": "half"},
            "initial_point": [1.0, 0.5]}
    text = yaml.safe_dump(tree) + line + "\n"
    path = tmp_path / "problem.yaml"
    path.write_text(text)
    out = assert_same_load(path, loader_class)
    if key is None:
        assert not isinstance(out, tuple)
    else:
        assert out == (key, f"{key}: expected an integer, got '1e3'")


# --- the fast path is taken ------------------------------------------------------

@pytest.mark.parametrize("loader_class", LOADERS, ids=LOADER_IDS)
def test_matrix_entries_skip_the_float_constructor(tmp_path, loader_class):
    """A bench-shaped d = 32 file: no matrix entry reaches construct_yaml_float."""
    rng = np.random.default_rng(16)
    T = random_affine_contraction(rng, 32, 0.9)
    matrix = T.matrix.copy()
    matrix[0, :3] = [-0.0, 5e-324, 1e300]
    point = rng.uniform(-1.0, 1.0, 32)
    point[:2] = [1e300, -0.0]
    tree = {"space": {"family": "ppower", "p": 1.0},
            "map": {"kind": "affine", "matrix": matrix.tolist(), "offset": T.offset.tolist(),
                    "c": 0.9},
            "initial_point": point.tolist(), "chain": {"N": 200}, "seed": 5}
    text = yaml.safe_dump(tree)
    assert "5.0e-324" in text and "1.0e+300" in text and "- -0.0" in text
    path = tmp_path / "problem.yaml"
    path.write_text(text)

    seen = []
    construct = loader_class.yaml_constructors[FLOAT_TAG]
    spy = {FLOAT_TAG: lambda loader, node: seen.append(node.value) or construct(loader, node)}
    with mock.patch.dict(loader_class.yaml_constructors, spy):
        cfg = _load(path, loader_class, config._parse_yaml)
    assert sorted(seen) == ["0.9", "1.0"]  # map.c and space.p, mapping values
    assert cfg.map.matrix.tobytes() == matrix.tobytes()
    assert cfg.initial_point.tobytes() == point.tobytes()
    assert_same_config(cfg, _load(path, loader_class, _reference))


def test_path_resolvers_leave_the_document_to_yaml_load():
    class Loader(yaml.SafeLoader):
        pass

    Loader.add_path_resolver("tag:yaml.org,2002:str", ["a"], yaml.ScalarNode)
    assert_same_parse("a: [1.5, 2.5]\nb: [1.5, 2.5]\n", Loader)


@pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="PyYAML built without libyaml")
def test_nesting_past_the_recursion_limit_goes_to_libyaml():
    assert_same_parse("a: " + "[" * 700 + "1.0" + "]" * 700 + "\n", yaml.CSafeLoader)

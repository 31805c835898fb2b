"""A claimed contraction factor that the certified factor proves draws no
sample: `solve` and `certificate` settle it in closed form, leave the
sampler's PCG64 where it was and write what the sampled path writes, but
for the solve summary's `c_empirical: null` and `c_certified`. A claim the
certified factor does not prove is sampled as before."""

import hashlib
import json
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import yaml
from hypothesis import event, example, given, strategies as st

from rhofix import MapSpec, ModularSpec, Phi, PointSampler, certified_factor, cli, load_config

CONFIGS = Path(__file__).parents[1] / "configs"
RUNNERS = {"solve": cli.run_solve, "certificate": cli.run_certificate}


def _quiet(msg):
    pass


def _run(command, config: Path, out: Path) -> tuple[PointSampler, dict]:
    """Run a subcommand's stages on `config` with a sampler of its own;
    returns the sampler and its generator's state before the run."""
    cfg = load_config(config)
    out.mkdir(exist_ok=True)
    sampler = PointSampler(cfg.dim, cfg.seed)
    state = sampler.rng.bit_generator.state
    assert RUNNERS[command](cfg, out, sampler, _quiet) == 0
    return sampler, state


@pytest.mark.parametrize("command", sorted(RUNNERS))
@pytest.mark.parametrize("name", ["affine_p2", "half_p1", "weighted_logistic"])
def test_a_shipped_proved_claim_consumes_no_rng_words(tmp_path, command, name):
    sampler, state = _run(command, CONFIGS / f"{name}.yaml", tmp_path)
    assert sampler.rng.bit_generator.state == state
    if command == "solve":
        summary = json.loads((tmp_path / "solve_summary.json").read_text())
        assert summary["c_empirical"] is None and summary["contraction_violations"] == 0
        assert summary["c_effective"] == summary["c_claimed"] <= summary["c_certified"]


def test_an_orlicz_logistic_claim_is_proved_at_d16(tmp_path):
    # exp(u) - 1 is convex, so the damped logistic map has factor lam
    rng = np.random.default_rng(16)
    tree = {"space": {"family": "orlicz", "phi": "exp_minus_one", "quadrature_nodes": 16},
            "map": {"kind": "logistic_damped", "lam": 0.95, "c": 0.95},
            "initial_point": rng.uniform(-1.0, 1.0, 16).tolist(), "seed": 9}
    config = tmp_path / "problem.yaml"
    config.write_text(yaml.safe_dump(tree))
    sampler, state = _run("solve", config, tmp_path / "out")
    assert sampler.rng.bit_generator.state == state
    summary = json.loads((tmp_path / "out" / "solve_summary.json").read_text())
    assert summary["converged"] and summary["solver"] == "picard"
    assert (summary["c_empirical"], summary["c_certified"]) == (None, 0.95)


def _space_tree(m: ModularSpec) -> dict:
    if m.family.value == "orlicz":
        tree = {"family": "orlicz", "phi": m.phi.value, "quadrature_nodes": m.dim}
        return tree if m.p is None else {**tree, "p": m.p}
    tree = {"family": m.family.value, "p": m.p}
    return tree if m.weights is None else {**tree, "weights": list(m.weights)}


def _map_tree(T: MapSpec) -> dict:
    if T.kind.value == "affine":
        return {"kind": "affine", "matrix": T.matrix.tolist(), "offset": T.offset.tolist()}
    return {"kind": T.kind.value} if T.lam is None else {"kind": T.kind.value, "lam": T.lam}


@st.composite
def _proved_problems(draw):
    """A problem file whose claimed c the certified factor proves: the
    factor itself, or a claim above it, under each family with a row."""
    dim = draw(st.integers(1, 4))
    family = draw(st.sampled_from(["ppower", "weighted_sum", "orlicz"]))
    if family == "orlicz":
        phi, p = draw(st.sampled_from([(Phi.EXP_MINUS_ONE, None), (Phi.U_LOG, None),
                                       (Phi.POWER, 1.0), (Phi.POWER, 2.0)]))
        m = ModularSpec.orlicz(phi, dim, p=p)
        kinds = ["half", "logistic_damped"]
    else:
        p = draw(st.sampled_from([0.5, 1.0, 2.0]))
        m = (ModularSpec.p_power(p, dim) if family == "ppower" else
             ModularSpec.weighted_sum(p, draw(st.lists(st.floats(0.25, 4.0), min_size=dim,
                                                       max_size=dim))))
        kinds = ["half", "logistic_damped", "affine"]
    kind = draw(st.sampled_from(kinds))
    if kind == "half":
        T = MapSpec.half()
    elif kind == "logistic_damped":
        T = MapSpec.logistic_damped(draw(st.floats(0.05, 0.95)))
    else:
        rows = st.lists(st.floats(-1, 1), min_size=dim, max_size=dim)
        A = np.array(draw(st.lists(rows, min_size=dim, max_size=dim)))
        c_star = certified_factor(MapSpec.affine(A, np.zeros(dim)), m)[0]
        if c_star > 0.95:  # scale down to a factor of at most 0.95
            A *= (0.95 / c_star) ** (1.0 / p)
        T = MapSpec.affine(A, draw(st.lists(st.floats(-4, 4), min_size=dim, max_size=dim)))
    c_star = certified_factor(T, m)[0]
    c = min(draw(st.sampled_from([c_star, c_star * (1 + 1e-3), 0.97])), 0.97)
    return {"space": _space_tree(m), "map": {**_map_tree(T), "c": max(c, c_star)},
            "initial_point": draw(st.lists(st.floats(-3, 3), min_size=dim, max_size=dim)),
            "chain": {"N": draw(st.integers(1, 40))}, "seed": draw(st.integers(0, 2**32 - 1))}


def _written(out: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}


@given(tree=_proved_problems())
# the sample rejects this true claim: a x + 1 - (a y + 1) rounds at 1, far
# above a (x - y), and the p = 0.5 power raises its relative error
@example(tree={"space": {"family": "ppower", "p": 0.5},
               "map": {"kind": "affine", "matrix": [[5.960464477539063e-08]], "offset": [1.0],
                       "c": 0.0002441406250000004},
               "initial_point": [0.0], "chain": {"N": 1}, "seed": 0})
def test_a_proved_claim_writes_the_sampled_paths_certificate(tree):
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "problem.yaml"
        config.write_text(yaml.safe_dump(tree))
        cfg = load_config(config)
        assert certified_factor(cfg.map, cfg.space)[0] <= cfg.c_claimed  # proved
        proved, sampled = Path(tmp) / "proved", Path(tmp) / "sampled"
        argv = ["certificate", "--config", str(config), "--quiet", "--out"]
        code = cli.main(argv + [str(proved)])
        with mock.patch.object(cli, "certified_factor", lambda T, m: None):
            assert cli.main(argv + [str(sampled)]) == code
        if (proved / "certificate.npy").exists():
            kept = json.loads((sampled / "certificate_summary.json").read_text())["c"]
            if kept != cfg.c_claimed:
                # the sample read the rounding of the computed map (an affine
                # offset cancels in Tx - Ty) as a violation of a true claim and
                # auto-filled a ratio above it; the proof keeps the claim
                event("the sample rejected a proved claim")
                assert kept > cfg.c_claimed
                assert json.loads((proved / "certificate_summary.json").read_text())["c"] \
                    == cfg.c_claimed
                return
            assert _written(proved) == _written(sampled)
            return
        # a failed chain (a vanishing node modular) writes only its summary,
        # whose c_empirical the proof did not sample
        summaries = [json.loads((out / "certificate_summary.json").read_text())
                     for out in (proved, sampled)]
        assert summaries[0].pop("c_empirical") is None
        summaries[1].pop("c_empirical")  # null too where every sampled ratio underflowed
        assert summaries[0] == summaries[1]


# SHA-256 of the outputs of `configs/weighted_logistic.yaml` with the claim
# c = 0.7, below its tight certified factor 0.8: the claim is sampled (its
# 512 pairs at seed 3 top out at 0.6435, so it passes them), as before the
# proof path, and the summaries are the sampled path's
UNPROVED_GOLDEN = {
    "solve": {
        "solve_summary.json": "651ec93fec523c518c8e5138577188fff36b035150973aef43f2b78078700fe8",
        "trace.npy": "49a5d5ae6f555bb3e2185fc4faacc2d65d53c153908dd71997c6612e48f9aaaa",
    },
    "certificate": {
        "certificate.npy": "a2e7481766a037d190cd354ec34eb2a3faa308903dfeb4ba26d777e344e8202c",
        "certificate_summary.json": "9ed14c1839e5f0ced3dfdfb7208a13933557182e67ab69a3f9ac0848dcf5d194",
    },
}


@pytest.mark.parametrize("command", sorted(UNPROVED_GOLDEN))
def test_an_unproved_claim_is_sampled_with_the_same_bytes(tmp_path, command):
    tree = yaml.safe_load((CONFIGS / "weighted_logistic.yaml").read_text())
    tree["map"]["c"] = 0.7
    config = tmp_path / "problem.yaml"
    config.write_text(yaml.safe_dump(tree))
    assert cli.main([command, "--config", str(config), "--quiet", "--out",
                     str(tmp_path / "out")]) == 0
    assert _written(tmp_path / "out") == UNPROVED_GOLDEN[command]
    sampler, state = _run(command, config, tmp_path / "again")
    assert sampler.rng.bit_generator.state != state
    if command == "solve":
        summary = json.loads((tmp_path / "out" / "solve_summary.json").read_text())
        assert "c_certified" not in summary
        assert summary["c_effective"] == 0.7 and 0.64 < summary["c_empirical"] < 0.7

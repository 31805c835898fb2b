"""CLI: config parsing, exit codes, determinism, and file round-trips."""

import json
import os
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, strategies as st

import rhofix
from rhofix import ConfigError, ModularSpec, cli, config, load_config, slack_tol
from rhofix.cli import build_parser, main
from rhofix.output import read_certificate, read_trace, reverify_certificate, reverify_trace


def write_cfg(path, tree):
    path.write_text(yaml.safe_dump(tree))
    return str(path)


def half_cfg(tmp_path, **overrides):
    tree = {
        "space": {"family": "ppower", "p": 1.0},
        "map": {"kind": "half", "c": 0.5},
        "initial_point": [1.0],
        "solve": {"tol": 1e-10, "max_iter": 10_000},
        "check": {"trials": 4_000},
        "chain": {"N": 30},
        "seed": 42,
        "out_dir": str(tmp_path / "out"),
    }
    for key, value in overrides.items():
        tree[key] = value
    return write_cfg(tmp_path / "problem.yaml", tree)


# --- config parsing ----------------------------------------------------------

def test_empty_config_exits_2(tmp_path, capsys):
    p = tmp_path / "empty.yaml"
    p.write_text("")
    assert main(["check", "--config", str(p)]) == 2
    assert "config error" in capsys.readouterr().err


def test_unknown_family_names_key(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "c.yaml", {"space": {"family": "nope"}, "initial_point": [1.0]})
    assert main(["check", "--config", cfg]) == 2
    assert "space.family" in capsys.readouterr().err


def test_bad_matrix_shape_names_key(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "c.yaml", {
        "space": {"family": "ppower", "p": 1.0},
        "map": {"kind": "affine", "matrix": [[0.5, 0.1]], "offset": [0.0]},
        "initial_point": [1.0],
    })
    assert main(["solve", "--config", cfg]) == 2
    assert "map.matrix" in capsys.readouterr().err


def test_non_numeric_matrix_names_key(tmp_path, capsys):
    cfg = half_cfg(tmp_path, map={"kind": "affine", "matrix": {"a": 1}, "offset": [0.0]})
    assert main(["solve", "--config", cfg, "--quiet"]) == 2
    assert "config error: map.matrix: " in capsys.readouterr().err


def test_missing_map_for_solve_exits_2(tmp_path, capsys):
    # certificate too; both refuse before the output directory (the file's or --out) is made
    cfg = write_cfg(tmp_path / "c.yaml", {
        "space": {"family": "ppower", "p": 1.0},
        "initial_point": [1.0],
        "out_dir": str(tmp_path / "out"),
    })
    for command in ("solve", "certificate"):
        assert main([command, "--config", cfg]) == 2
        assert main([command, "--config", cfg, "--out", str(tmp_path / "flag")]) == 2
        captured = capsys.readouterr()
        assert captured.err == 2 * f"config error: map: required for {command}\n"
        assert captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.yaml"]


def test_load_config_defaults_and_types(tmp_path):
    cfg = load_config(half_cfg(tmp_path))
    assert isinstance(cfg.space, ModularSpec)
    assert cfg.tol == 1e-10 and cfg.seed == 42
    assert cfg.dim == 1 and cfg.fatou_steps == 20


def test_weights_dimension_checked(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "c.yaml", {
        "space": {"family": "weighted_sum", "p": 1.0, "weights": [1.0, 2.0]},
        "initial_point": [1.0, 2.0, 3.0],
    })
    assert main(["check", "--config", cfg]) == 2
    assert "space.weights" in capsys.readouterr().err


def test_bad_map_key_named_once(tmp_path, capsys):
    cfg = half_cfg(tmp_path, map={"kind": "logistic_damped", "lam": float("inf")})
    assert main(["certificate", "--config", cfg, "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.count("map.lam") == 1
    assert err.startswith("config error: map.lam: ")


@pytest.mark.parametrize("section,key", [("", "sead"), ("space", "familly"), ("map", "lamda"),
                                         ("solve", "tolerance"), ("check", "trails"),
                                         ("chain", "n")])
def test_unknown_key_exits_2_naming_it(tmp_path, capsys, section, key):
    tree = yaml.safe_load(Path(half_cfg(tmp_path)).read_text())
    (tree[section] if section else tree)[key] = 3
    cfg = write_cfg(tmp_path / "typo.yaml", tree)
    assert main(["certificate", "--config", cfg, "--quiet"]) == 2
    name = f"{section}.{key}" if section else key
    assert capsys.readouterr().err == f"config error: {name}: unknown key\n"


def test_keys_without_effect_exit_2(tmp_path, capsys):
    """Six keys the chosen family and kind never read: the first is named."""
    cfg = half_cfg(tmp_path,
                   space={"family": "ppower", "p": 1.0, "weights": [5.0], "phi": "u_log",
                          "quadrature_nodes": 3},
                   map={"kind": "half", "c": 0.5, "matrix": [[9.0]], "lam": 7.0, "k": 0.3})
    assert main(["solve", "--config", cfg, "--quiet"]) == 2
    assert capsys.readouterr().err == "config error: space.phi: not used by ppower\n"


@pytest.mark.parametrize("section,tree,key,user", [
    ("space", {"family": "ppower", "p": 1.0, "phi": "u_log"}, "phi", "ppower"),
    ("space", {"family": "ppower", "p": 1.0, "weights": [5.0]}, "weights", "ppower"),
    ("space", {"family": "ppower", "p": 1.0, "quadrature_nodes": 1}, "quadrature_nodes", "ppower"),
    ("space", {"family": "weighted_sum", "p": 1.0, "weights": [1.0], "phi": "power"},
     "phi", "weighted_sum"),
    ("space", {"family": "weighted_sum", "p": 1.0, "weights": [1.0], "quadrature_nodes": 1},
     "quadrature_nodes", "weighted_sum"),
    ("space", {"family": "orlicz", "phi": "exp_minus_one", "p": 1.0}, "p", "orlicz exp_minus_one"),
    ("space", {"family": "orlicz", "phi": "u_log", "p": 2.0}, "p", "orlicz u_log"),
    ("space", {"family": "orlicz", "phi": "power", "p": 2.0, "weights": [1.0]},
     "weights", "orlicz"),
    ("space", {"family": "sine_bump", "p": 1.0}, "p", "sine_bump"),
    ("map", {"kind": "half", "c": 0.5, "matrix": [[9.0]]}, "matrix", "half"),
    ("map", {"kind": "half", "c": 0.5, "offset": [1.0]}, "offset", "half"),
    ("map", {"kind": "half", "c": 0.5, "lam": 7.0}, "lam", "half"),
    ("map", {"kind": "logistic_damped", "lam": 0.5, "offset": [1.0]}, "offset", "logistic_damped"),
    ("map", {"kind": "affine", "matrix": [[0.5]], "offset": [1.0], "lam": 0.5}, "lam", "affine"),
    ("map", {"kind": "const", "offset": [1.0], "matrix": [[0.5]]}, "matrix", "const"),
    ("map", {"kind": "const", "offset": [1.0], "lam": 0.5}, "lam", "const"),
])
def test_key_the_choice_never_reads_exits_2_naming_it(tmp_path, capsys, section, tree, key, user):
    cfg = half_cfg(tmp_path, **{section: tree})
    assert main(["solve", "--config", cfg, "--quiet"]) == 2
    assert capsys.readouterr().err == f"config error: {section}.{key}: not used by {user}\n"


@pytest.mark.parametrize("tree", [
    {"kind": "half", "c": 0.5, "k": 0.3},
    {"kind": "affine", "matrix": [[0.5]], "offset": [1.0], "k": 2.0},
    {"kind": "logistic_damped", "lam": 0.5, "k": 0.3, "s": None},
], ids=["half", "affine", "s-null"])
def test_map_k_without_s_exits_2(tmp_path, capsys, tree):
    cfg = half_cfg(tmp_path, map=tree)
    assert main(["solve", "--config", cfg, "--quiet"]) == 2
    assert capsys.readouterr().err == "config error: map.k: not used without map.s\n"


@pytest.mark.parametrize("override", [
    {"space": {"family": [1]}},
    {"space": {"family": "ppower", "p": -1}},
    {"space": {"family": "orlicz", "phi": "power", "p": 0}},
    {"space": {"family": "ppower", "p": float("inf")}},
    {"solve": {"tol": float("nan")}},
], ids=["family-list", "p-negative", "orlicz-power-p0", "p-inf", "tol-nan"])
def test_malformed_space_and_solve_exit_2(tmp_path, capsys, override):
    cfg = half_cfg(tmp_path, **override)
    assert main(["solve", "--config", cfg, "--quiet"]) == 2
    assert "config error:" in capsys.readouterr().err


# --- check -------------------------------------------------------------------

SIZE_KEYS = [("check", "check", "trials"), ("check", "check", "fatou_steps"),
             ("certificate", "chain", "N")]


@pytest.mark.parametrize("command, section, key", SIZE_KEYS)
def test_a_size_past_numpys_largest_array_exits_2_naming_it(tmp_path, capsys, command, section, key):
    # 2**62 rows of floats are past numpy's largest array, so the file is
    # refused while it loads and nothing is allocated
    cfg = half_cfg(tmp_path, **{section: {key: 2**62}})
    assert main([command, "--config", cfg, "--quiet"]) == 2
    err = capsys.readouterr().err
    assert f"config error: {section}.{key}: " in err and "Traceback" not in err


@pytest.mark.parametrize("section, key", [("check", "trials"), ("chain", "N")])
def test_the_largest_size_numpy_can_make_loads(tmp_path, section, key):
    # (n + 1) rows of d floats in at most np.iinfo(np.intp).max bytes
    d = 3
    n = np.iinfo(np.intp).max // (8 * d) - 1
    tree = {"space": {"family": "ppower", "p": 1.0}, "initial_point": [1.0] * d}
    assert getattr(load_config(write_cfg(tmp_path / "ok.yaml", {**tree, section: {key: n}})),
                   "trials" if key == "trials" else "chain_n") == n
    with pytest.raises(ConfigError) as exc:
        load_config(write_cfg(tmp_path / "big.yaml", {**tree, section: {key: n + 1}}))
    assert exc.value.key == f"{section}.{key}"


@pytest.mark.parametrize("command, targets, named", [
    ("check", ["check_modular_axioms"], "check.trials = 4000, check.fatou_steps = 20"),
    ("check", ["check_fatou_sampled"], "check.trials = 4000, check.fatou_steps = 20"),
    ("solve", ["picard_solve", "solve_via_power"], "len(initial_point) = 1, check.trials = 4000"),
    ("certificate", ["build_chain"], "chain.N = 30"),
])
def test_a_run_out_of_memory_exits_2_naming_its_size_keys(tmp_path, capsys, monkeypatch,
                                                          command, targets, named):
    # a runner's MemoryError is stood in for, never provoked by a real allocation
    def out_of_memory(*args, **kwargs):
        raise MemoryError

    for target in targets:
        monkeypatch.setattr(cli, target, out_of_memory)
    assert main([command, "--config", half_cfg(tmp_path), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {named}: ") and "Traceback" not in err


def test_check_valid_space_exits_0(tmp_path):
    cfg = half_cfg(tmp_path, space={"family": "ppower", "p": 2.0})
    assert main(["check", "--config", cfg, "--quiet"]) == 0
    report = json.loads((tmp_path / "out" / "report_delta2.json").read_text())
    assert abs(report["constant"] - 4.0) < 1e-6
    assert not report["unbounded"]


def test_check_planted_bad_functional_exits_1(tmp_path):
    cfg = write_cfg(tmp_path / "bad.yaml", {
        "space": {"family": "sine_bump"},
        "initial_point": [1.0],
        "check": {"trials": 10_000},
        "seed": 5,
        "out_dir": str(tmp_path / "out"),
    })
    assert main(["check", "--config", cfg, "--quiet"]) == 1
    report = json.loads((tmp_path / "out" / "report_axioms.json").read_text())
    assert "convexity" in report["violated_axioms"]
    assert report["violations"][0]["lhs"] > report["violations"][0]["rhs"]


def test_shipped_bad_functional_verdict_is_pinned(tmp_path):
    # same seed, same verdicts: the shipped config at its own seed (123)
    tree = yaml.safe_load((Path(__file__).parents[1] / "configs" / "bad_functional.yaml").read_text())
    assert tree["seed"] == 123
    cfg = write_cfg(tmp_path / "bad.yaml", dict(tree, out_dir=str(tmp_path / "out")))
    assert main(["check", "--config", cfg, "--quiet"]) == 1
    report = json.loads((tmp_path / "out" / "report_axioms.json").read_text())
    assert report["n_violations"] == 1278
    assert report["violated_axioms"] == ["convexity"]
    want = 0.950281132463663
    assert abs(report["max_slack_violation"] - want) <= slack_tol(want)


# --- solve -------------------------------------------------------------------

def test_solve_half_converges_exit_0(tmp_path):
    cfg = half_cfg(tmp_path)
    assert main(["solve", "--config", cfg, "--quiet"]) == 0
    summary = json.loads((tmp_path / "out" / "solve_summary.json").read_text())
    assert summary["converged"]
    assert summary["final_residual"] <= 1e-10
    trace = read_trace(tmp_path / "out" / "trace.npy")
    assert trace["n"][0] == 0 and np.isnan(trace["step_mod"][0])


def test_solve_expanding_map_exits_1(tmp_path):
    cfg = half_cfg(tmp_path, map={"kind": "affine", "matrix": [[1.1]], "offset": [0.0]},
                   solve={"tol": 1e-10, "max_iter": 400})
    assert main(["solve", "--config", cfg, "--quiet"]) == 1
    summary = json.loads((tmp_path / "out" / "solve_summary.json").read_text())
    assert not summary["converged"]


def test_solve_zero_iterations_trace_has_only_x0(tmp_path):
    cfg = half_cfg(tmp_path, solve={"tol": 1e-10, "max_iter": 0})
    assert main(["solve", "--config", cfg, "--quiet"]) == 1
    trace = read_trace(tmp_path / "out" / "trace.npy")
    assert len(trace["n"]) == 1
    assert trace["x"][0][0] == 1.0


def test_solve_divergence_writes_partial_trace(tmp_path):
    cfg = half_cfg(tmp_path, map={"kind": "affine", "matrix": [[2.0]], "offset": [0.0]},
                   solve={"tol": 1e-10, "max_iter": 5_000})
    assert main(["solve", "--config", cfg, "--quiet"]) == 1
    summary = json.loads((tmp_path / "out" / "solve_summary.json").read_text())
    assert "error" in summary and not summary["converged"]
    trace = read_trace(tmp_path / "out" / "trace.npy")
    assert len(trace["n"]) > 10


def test_solve_power_path_reported(tmp_path):
    # p = 2 gives k = 4; c = 0.25 -> c * k = 1 >= 1/2 selects the power path
    cfg = half_cfg(tmp_path,
                   space={"family": "ppower", "p": 2.0},
                   map={"kind": "affine", "matrix": [[0.5]], "offset": [1.0], "c": 0.25})
    assert main(["solve", "--config", cfg, "--quiet"]) == 0
    summary = json.loads((tmp_path / "out" / "solve_summary.json").read_text())
    assert summary["solver"] == "power"
    assert summary["power"] == 2
    assert abs(summary["fixed_point"][0] - 2.0) < 1e-4


def test_exponential_orlicz_solve_takes_picard_without_an_estimate(tmp_path, monkeypatch):
    # exp(u) - 1 has an unbounded doubling constant in closed form: solve estimates none
    import rhofix.checks
    import rhofix.cli

    def no_estimate(*args, **kwargs):
        raise AssertionError("delta2_type_estimate called")

    for module in (rhofix.checks, rhofix.cli):
        monkeypatch.setattr(module, "delta2_type_estimate", no_estimate)
    cfg = half_cfg(tmp_path, space={"family": "orlicz", "phi": "exp_minus_one"},
                   map={"kind": "logistic_damped", "lam": 0.8, "c": 0.8},
                   initial_point=[0.5, -0.25, 0.1, 0.0])
    assert main(["solve", "--config", cfg, "--quiet"]) == 0
    summary = json.loads((tmp_path / "out" / "solve_summary.json").read_text())
    assert summary["solver"] == "picard" and summary["k_used"] is None
    assert summary["converged"]


def test_solve_with_overflowing_doubling_constant_gives_a_verdict(tmp_path, capsys):
    # 2**1100 overflows a double: k is unbounded, so the solve takes Picard
    cfg = half_cfg(tmp_path, space={"family": "ppower", "p": 1100.0})
    assert main(["solve", "--config", cfg, "--quiet"]) in (0, 1)
    summary = json.loads((tmp_path / "out" / "solve_summary.json").read_text())
    assert summary["solver"] == "picard" and summary["k_used"] is None
    assert "Traceback" not in capsys.readouterr().err


def test_solve_on_an_underflowed_modular_exits_1(tmp_path):
    # rho(x_1 - x_0) = 0.5**1100 underflows to 0: no convergence at n = 1
    cfg = write_cfg(tmp_path / "problem.yaml", {
        "space": {"family": "ppower", "p": 1100}, "map": {"kind": "half", "c": 0.5},
        "initial_point": [1.0], "out_dir": str(tmp_path / "out")})
    assert main(["solve", "--config", cfg, "--quiet"]) == 1
    summary = json.loads((tmp_path / "out" / "solve_summary.json").read_text())
    assert summary["converged"] is False and summary["fixed_point"] is None
    assert summary["iterations"] == 1
    assert summary["error"].startswith("modular underflow at step 1:")


def test_solve_scaled_form_recorded_not_claimed(tmp_path):
    # x -> 2x with (c, k, s) = (3, 0.5, 1): c belongs to the scaled form, which
    # fails (rho(3 (Tx - Ty)) = 6 rho(x - y)); no factor below 1 is claimed
    cfg = half_cfg(tmp_path, map={"kind": "affine", "matrix": [[2.0]], "offset": [0.0],
                                  "c": 3, "k": 0.5, "s": 1})
    assert main(["solve", "--config", cfg, "--quiet"]) == 1
    summary = json.loads((tmp_path / "out" / "solve_summary.json").read_text())
    assert summary["c_claimed"] is None
    assert summary["c_empirical"] == pytest.approx(2.0)
    scaled = summary["scaled_form"]
    assert {k: scaled[k] for k in ("c", "k", "s", "passed")} == {
        "c": 3.0, "k": 0.5, "s": 1.0, "passed": False}
    assert scaled["max_ratio"] == pytest.approx(6.0)
    assert scaled["n_violations"] > 0


def test_certificate_records_passing_scaled_form(tmp_path):
    cfg = half_cfg(tmp_path, map={"kind": "half", "c": 1.5, "k": 0.75, "s": 1})
    assert main(["certificate", "--config", cfg, "--quiet"]) == 0
    summary = json.loads((tmp_path / "out" / "certificate_summary.json").read_text())
    assert summary["scaled_form"]["passed"] and summary["scaled_form"]["n_violations"] == 0
    assert summary["c"] == pytest.approx(0.5)


def test_scaled_form_needs_c_and_k(tmp_path, capsys):
    cfg = half_cfg(tmp_path, map={"kind": "half", "s": 1})
    assert main(["solve", "--config", cfg, "--quiet"]) == 2
    assert "map" in capsys.readouterr().err


def test_half_without_claim_takes_the_true_factor(tmp_path, capsys):
    # under p = 2 the halving map contracts by 1/4, and k = 4 gives power 2;
    # nothing is claimed, so nothing is filled in or warned about
    cfg = half_cfg(tmp_path, space={"family": "ppower", "p": 2.0}, map={"kind": "half"})
    assert main(["solve", "--config", cfg]) == 0
    summary = json.loads((tmp_path / "out" / "solve_summary.json").read_text())
    assert summary["c_claimed"] is None
    assert summary["c_effective"] == summary["c_empirical"] == pytest.approx(0.25)
    assert summary["solver"] == "power" and summary["power"] == 2
    assert "warning" not in capsys.readouterr().out


def test_unclaimed_factor_is_not_warned_about(tmp_path, capsys):
    cfg = half_cfg(tmp_path, space={"family": "sine_bump"}, map={"kind": "half"})
    main(["solve", "--config", cfg])
    assert "warning" not in capsys.readouterr().out
    summary = json.loads((tmp_path / "out" / "solve_summary.json").read_text())
    assert summary["c_claimed"] is None


def test_const_without_claim_claims_nothing(tmp_path):
    cfg = half_cfg(tmp_path, map={"kind": "const", "offset": [0.3]})
    assert main(["solve", "--config", cfg, "--quiet"]) == 0
    summary = json.loads((tmp_path / "out" / "solve_summary.json").read_text())
    assert summary["c_claimed"] is None
    assert summary["c_effective"] == summary["c_empirical"] == 0.0


@pytest.mark.parametrize("section,tree,key", [
    ("map", {"kind": "half", "c": 1.0}, "map.c"),
    ("map", {"kind": "half", "c": -0.5}, "map.c"),
    ("map", {"kind": "half", "c": 1.5, "k": 2.0, "s": 1}, "map.c"),
    ("map", {"kind": "half", "k": 0.5, "s": 1}, "map.c"),
    ("map", {"kind": "half", "c": 1.5, "s": 1}, "map.k"),
    ("map", {"kind": "half", "c": 1.5, "k": -0.5, "s": 1}, "map.k"),
    ("map", {"kind": "half", "c": 1.5, "k": 0.75, "s": 1.5}, "map.s"),
    ("map", {"kind": "logistic_damped", "lam": -1.0}, "map.lam"),
    ("map", {"kind": "affine", "matrix": [[float("inf")]], "offset": [0.0]}, "map.matrix"),
    ("space", {"family": "ppower", "p": -1.0}, "space.p"),
    ("space", {"family": "orlicz", "phi": "power", "p": 0.0}, "space.p"),
], ids=["c-1", "c-negative", "scaled-c-below-k", "scaled-no-c", "scaled-no-k", "scaled-k-negative",
        "scaled-s-above-1", "lam-negative", "matrix-inf", "ppower-p", "orlicz-p"])
def test_value_error_names_its_key(tmp_path, capsys, section, tree, key):
    cfg = half_cfg(tmp_path, **{section: tree})
    assert main(["solve", "--config", cfg, "--quiet"]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {key}: ")


@pytest.mark.parametrize("key,section", [
    ("space.p", "space: {family: ppower, p: yes}"),
    ("space.p", "space: {family: orlicz, phi: power, p: On}"),
    ("space.weights", "space: {family: weighted_sum, p: 1.0, weights: [off]}"),
    ("map.matrix", "map: {kind: affine, matrix: [[off]], offset: [1.0]}"),
    ("map.offset", "map: {kind: affine, matrix: [[0.5]], offset: [on]}"),
    ("map.offset", "map: {kind: const, offset: [NO]}"),
    ("map.lam", "map: {kind: logistic_damped, lam: true}"),
    ("map.c", "map: {kind: half, c: no}"),
    ("map.k", "map: {kind: half, c: 1.5, k: Off, s: 1}"),
    ("map.s", "map: {kind: half, c: 1.5, k: 0.75, s: True}"),
    ("initial_point", "initial_point: [yes]"),
    ("initial_point", "initial_point: off"),
    ("solve.tol", "solve: {tol: on}"),
    ("check.s", "check: {s: yes}"),
    ("check.fatou_ratio", "check: {fatou_ratio: off}"),
    ("chain.alpha", "chain: {alpha: true}"),
])
def test_a_boolean_is_no_real_number(tmp_path, capsys, key, section):
    # YAML 1.1 reads yes/no/on/off/true/false as booleans, which float() takes as 1.0 and 0.0
    tree = yaml.safe_load(Path(half_cfg(tmp_path)).read_text())
    del tree[section.split(":")[0]]
    cfg = tmp_path / "problem.yaml"
    cfg.write_text(yaml.safe_dump(tree) + section + "\n")
    assert main(["solve", "--config", str(cfg), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {key}: expected ") and ("True" in err or "False" in err)


# --- certificate ---------------------------------------------------------------

def test_certificate_pass_and_files(tmp_path):
    cfg = half_cfg(tmp_path)
    assert main(["certificate", "--config", cfg, "--quiet"]) == 0
    summary = json.loads((tmp_path / "out" / "certificate_summary.json").read_text())
    assert summary["all_pass"]
    assert summary["N"] == 30
    assert dict(map(tuple, summary["cauchy_modulus"]))  # table present
    data = read_certificate(tmp_path / "out" / "certificate.npy")
    assert len(data["n"]) == 31


def test_certificate_expanding_orbit_exits_1(tmp_path):
    cfg = half_cfg(tmp_path, map={"kind": "affine", "matrix": [[1.5]], "offset": [1.0]})
    assert main(["certificate", "--config", cfg, "--quiet"]) == 1


def test_certificate_chain_zero_is_vacuous_pass(tmp_path):
    cfg = half_cfg(tmp_path, chain={"N": 0})
    assert main(["certificate", "--config", cfg, "--quiet"]) == 0


def test_certificate_corrupted_alpha_exits_1(tmp_path):
    # the admissible level for the halving chain is ~1; half of it fails
    cfg = half_cfg(tmp_path, chain={"N": 30, "alpha": 0.5})
    assert main(["certificate", "--config", cfg, "--quiet"]) == 1
    summary = json.loads((tmp_path / "out" / "certificate_summary.json").read_text())
    assert not summary["all_pass"]
    assert summary["pair_check"] < 0.0


def test_certificate_without_factor_below_1_writes_summary(tmp_path):
    # x -> 2x with (c, k, s) = (3, 0.5, 1): no claim, empirical ratio 2
    cfg = half_cfg(tmp_path, map={"kind": "affine", "matrix": [[2.0]], "offset": [0.0],
                                  "c": 3, "k": 0.5, "s": 1})
    assert main(["certificate", "--config", cfg, "--quiet"]) == 1
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["certificate_summary.json"]
    summary = json.loads((tmp_path / "out" / "certificate_summary.json").read_text())
    assert set(summary) == {"all_pass", "error", "c_empirical", "scaled_form", "seed"}
    assert summary["all_pass"] is False
    assert "below 1" in summary["error"]
    assert summary["c_empirical"] == pytest.approx(2.0)
    assert summary["scaled_form"]["passed"] is False
    assert summary["seed"] == 42


def test_certificate_unbounded_orbit_writes_the_same_summary(tmp_path):
    # omega - T^2 omega = 750 and exp(750) overflows: the orbit is unbounded
    cfg = half_cfg(tmp_path, space={"family": "orlicz", "phi": "exp_minus_one",
                                    "quadrature_nodes": 1}, initial_point=[1000.0])
    assert main(["certificate", "--config", cfg, "--quiet"]) == 1
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["certificate_summary.json"]
    summary = json.loads((tmp_path / "out" / "certificate_summary.json").read_text())
    assert set(summary) == {"all_pass", "error", "c_empirical", "scaled_form", "seed"}
    assert summary["all_pass"] is False
    assert summary["error"] == "rho(omega - T^2 omega) is infinite"
    assert summary["scaled_form"] is None
    assert summary["seed"] == 42


VANISHING = {  # rho vanishes off zero on the chain: dead_zone below 1, 0.5**1100 underflows
    "dead_zone": ({"family": "dead_zone"}, [0.5], {}, 0, {}),
    "dead_zone_alpha_1": ({"family": "dead_zone"}, [0.5], {"alpha": 1.0}, 0, {}),
    # claimed: every sampled ratio underflows too, so auto-fill has no factor
    "ppower_1100": ({"family": "ppower", "p": 1100}, [1.0, 0.7], {}, 1, {"c": 0.5}),
}


@pytest.mark.parametrize("case", sorted(VANISHING))
def test_certificate_on_a_vanishing_modular_exits_1(tmp_path, capsys, case):
    space, omega, chain, node, claim = VANISHING[case]
    tree = {"space": space, "map": {"kind": "half", **claim}, "initial_point": omega,
            "out_dir": str(tmp_path / "out")}
    if chain:
        tree["chain"] = chain
    assert main(["certificate", "--config", write_cfg(tmp_path / "problem.yaml", tree)]) == 1
    assert "certificate: invalid modular (" in capsys.readouterr().out
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["certificate_summary.json"]
    summary = json.loads((tmp_path / "out" / "certificate_summary.json").read_text())
    assert set(summary) == {"all_pass", "error", "c_empirical", "scaled_form", "seed"}
    assert summary["all_pass"] is False
    assert summary["error"] == (f"rho(x_n - x_N) = 0 at node n = {node}, a nonzero difference: "
                                "rho vanishes off zero or underflowed")
    # solve on the same problem stops on the same defect
    assert main(["solve", "--config", str(tmp_path / "problem.yaml"), "--quiet"]) == 1


def test_underflowed_sampled_ratios_give_no_empirical_factor(tmp_path, capsys):
    # under p = 1100 every sampled rho(Tx - Ty) of x -> x/2, or its ratio
    # 2**-1100 to rho(x - y), underflows to 0: no ratio measures the factor
    tree = {"space": {"family": "ppower", "p": 1100}, "map": {"kind": "half"},
            "initial_point": [1.0, 0.7], "out_dir": str(tmp_path / "out")}
    cfg = write_cfg(tmp_path / "problem.yaml", tree)
    assert main(["certificate", "--config", cfg]) == 1
    assert capsys.readouterr().out == "certificate: no contraction factor below 1 (empirical nan)\n"
    summary = json.loads((tmp_path / "out" / "certificate_summary.json").read_text())
    assert summary["c_empirical"] is None
    assert summary["error"] == "no contraction factor below 1 (empirical nan)"
    tree["map"]["c"] = 0.5
    cfg = write_cfg(tmp_path / "problem.yaml", tree)
    assert main(["solve", "--config", cfg, "--quiet"]) == 1
    summary = json.loads((tmp_path / "out" / "solve_summary.json").read_text())
    assert summary["c_empirical"] is None and summary["c_effective"] == 0.5


@pytest.mark.parametrize("command", ["solve", "certificate"])
def test_an_unmeasured_claim_is_warned_about(tmp_path, capsys, command):
    # the claim c = 0.5 passes a check in which no row measured a ratio
    tree = {"space": {"family": "ppower", "p": 1100}, "map": {"kind": "half", "c": 0.5},
            "initial_point": [1.0, 0.7]}
    cfg = write_cfg(tmp_path / "problem.yaml", tree)
    summaries = []
    for out, quiet in (("loud", []), ("quiet", ["--quiet"])):
        assert main([command, "--config", cfg, "--out", str(tmp_path / out)] + quiet) == 1
        summaries.append((tmp_path / out / f"{command}_summary.json").read_bytes())
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "warning: claimed factor c = 0.5 not measured " \
                       "(every sampled ratio underflowed)"
    assert sum("warning" in line for line in lines) == 1  # none under --quiet
    assert summaries[0] == summaries[1]
    summary = json.loads(summaries[0])
    assert summary["c_empirical"] is None
    if command == "solve":
        assert summary["contraction_violations"] == 0


# --- determinism and round-trips ----------------------------------------------

def test_solve_deterministic_for_fixed_seed(tmp_path):
    cfg = half_cfg(tmp_path)
    assert main(["solve", "--config", cfg, "--quiet", "--out", str(tmp_path / "a")]) == 0
    assert main(["solve", "--config", cfg, "--quiet", "--out", str(tmp_path / "b")]) == 0
    sa = json.loads((tmp_path / "a" / "solve_summary.json").read_text())
    sb = json.loads((tmp_path / "b" / "solve_summary.json").read_text())
    assert sa == sb
    assert (tmp_path / "a" / "trace.npy").read_bytes() == (tmp_path / "b" / "trace.npy").read_bytes()


def test_seed_override_recorded(tmp_path):
    cfg = half_cfg(tmp_path)
    assert main(["solve", "--config", cfg, "--quiet", "--seed", "7"]) == 0
    summary = json.loads((tmp_path / "out" / "solve_summary.json").read_text())
    assert summary["seed"] == 7


@pytest.mark.parametrize("seed", [-1, 2**64], ids=["negative", "past-64-bits"])
def test_seed_rule_is_one_for_file_and_flag(tmp_path, capsys, seed):
    assert main(["solve", "--config", half_cfg(tmp_path), "--quiet", "--seed", str(seed)]) == 2
    from_flag = capsys.readouterr().err
    assert main(["solve", "--config", half_cfg(tmp_path, seed=seed), "--quiet"]) == 2
    assert capsys.readouterr().err == from_flag
    assert from_flag.startswith("config error: seed: must fit in 64 bits")


def _reverify_solve(out, cfg, power_shift=0):
    """`reverify_trace` on a solve's stored trace, with the summary's tol and
    power (shifted by `power_shift`)."""
    loaded = load_config(cfg)
    summary = json.loads((out / "solve_summary.json").read_text())
    return reverify_trace(out / "trace.npy", loaded.space, loaded.map, loaded.initial_point,
                          summary["tol"], power=summary["power"] + power_shift)


def test_trace_roundtrip_reverifies(tmp_path):
    cfg = half_cfg(tmp_path)
    assert main(["solve", "--config", cfg, "--quiet"]) == 0
    assert _reverify_solve(tmp_path / "out", cfg) == {"replayed": True, "converged": True}


def _bits(x) -> bytes:
    """The float64 bits of a summary figure ("inf" and "nan" are written as strings)."""
    return struct.pack("<d", float(x))


def _assert_certificate_replays(out, cfg):
    """`reverify_certificate` on a stored certificate, with the summary's c,
    replays it bit for bit to the summary's verdict."""
    loaded = load_config(cfg)
    summary = json.loads((out / "certificate_summary.json").read_text())
    result = reverify_certificate(out / "certificate.npy", loaded.space, loaded.map,
                                  loaded.initial_point, summary["c"])
    assert result["replayed"] and result["max_node_slack_diff"] == 0.0
    assert (result["pairs"], result["all_pass"]) == (summary["pairs"], summary["all_pass"])
    assert _bits(result["pair_check"]) == _bits(summary["pair_check"])


def test_certificate_roundtrip_reverifies(tmp_path):
    cfg = half_cfg(tmp_path)
    assert main(["certificate", "--config", cfg, "--quiet"]) == 0
    _assert_certificate_replays(tmp_path / "out", cfg)


@pytest.mark.parametrize("name", ["affine_p2", "half_p1", "weighted_logistic"])
def test_shipped_solve_and_certificate_replay_bit_for_bit(tmp_path, name):
    cfg = str(CONFIGS[0].parent / f"{name}.yaml")
    for command in ("solve", "certificate"):
        assert main([command, "--config", cfg, "--quiet", "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "solve_summary.json").read_text())
    assert _reverify_solve(tmp_path, cfg) == {"replayed": True, "converged": summary["converged"]}
    _assert_certificate_replays(tmp_path, cfg)


def _flip_low_bit(path, field, row):
    """Rewrite the table at `path` with the lowest bit of `field` flipped at
    `row` (in its first coordinate, for "x")."""
    table = np.load(path)
    entry = table[field][row : row + 1].view(np.int64)
    entry[(0,) * entry.ndim] ^= 1
    np.save(path, table)


@pytest.mark.parametrize("tamper", ["row", "row 0", "residual", "power"])
@pytest.mark.parametrize("name", ["affine_p2", "weighted_logistic"])
def test_tampered_trace_does_not_replay(tmp_path, name, tamper):
    cfg = str(CONFIGS[0].parent / f"{name}.yaml")
    assert main(["solve", "--config", cfg, "--quiet", "--out", str(tmp_path)]) == 0
    path = tmp_path / "trace.npy"
    # "row 0" is x0's row: on affine_p2, 0.0 -> 5e-324, which the next step
    # (0.5 x + 1) rounds away, so only the comparison with x0 sees it
    row = 0 if tamper == "row 0" else len(read_trace(path)["x"]) // 2
    if tamper != "power":
        _flip_low_bit(path, "x" if tamper.startswith("row") else tamper, row)
    result = _reverify_solve(tmp_path, cfg, power_shift=int(tamper == "power"))
    assert result["replayed"] is False


@pytest.mark.parametrize("name", ["affine_p2", "weighted_logistic"])
def test_certificate_with_a_tampered_first_row_does_not_replay(tmp_path, name):
    cfg = str(CONFIGS[0].parent / f"{name}.yaml")
    assert main(["certificate", "--config", cfg, "--quiet", "--out", str(tmp_path)]) == 0
    _flip_low_bit(tmp_path / "certificate.npy", "x", 0)
    loaded = load_config(cfg)
    summary = json.loads((tmp_path / "certificate_summary.json").read_text())
    result = reverify_certificate(tmp_path / "certificate.npy", loaded.space, loaded.map,
                                  loaded.initial_point, summary["c"])
    assert result["replayed"] is False


@pytest.mark.parametrize("command,where", [
    ("solve", "--out file"), ("certificate", "--out file/sub"), ("check", "out_dir: file"),
])
def test_output_dir_that_is_a_file_exits_2(tmp_path, capsys, command, where):
    blocker = tmp_path / "afile"
    blocker.write_text("not a directory\n")
    target = blocker / "sub" if where.endswith("/sub") else blocker
    if where.startswith("--out"):
        argv = ["--config", half_cfg(tmp_path), "--out", str(target)]
    else:
        argv = ["--config", half_cfg(tmp_path, out_dir=str(target))]
    assert main([command, *argv, "--quiet"]) == 2
    assert "out_dir" in capsys.readouterr().err
    assert blocker.read_text() == "not a directory\n"


def _files(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_back_to_back_calls_write_what_separate_runs_write(tmp_path):
    # check, solve and certificate, each with its own --seed and --out: one
    # after another in this process, then each in a fresh interpreter
    cfg = half_cfg(tmp_path)
    argvs = [[cmd, "--config", cfg, "--seed", seed, "--quiet"]
             for cmd, seed in [("check", "5"), ("solve", "6"), ("certificate", "7")]]
    for i, argv in enumerate(argvs):
        assert main([*argv, "--out", str(tmp_path / "one" / str(i))]) == 0
    env = {**os.environ, "PYTHONPATH": str(Path(rhofix.__file__).resolve().parents[1])}
    for i, argv in enumerate(argvs):
        run = [sys.executable, "-m", "rhofix", *argv, "--out", str(tmp_path / "each" / str(i))]
        assert subprocess.run(run, env=env).returncode == 0
    assert _files(tmp_path / "one") == _files(tmp_path / "each")
    assert len(_files(tmp_path / "one")) == 7  # 3 check reports, 2 + 2 records


def test_usage_error_then_a_good_call(tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        main(["solve", "--seed", "3"])  # no --config
    assert err.value.code == 2
    assert "--config" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["nope"])
    cfg = half_cfg(tmp_path)
    assert main(["solve", "--config", cfg, "--quiet", "--seed", "9"]) == 0
    assert json.loads((tmp_path / "out" / "solve_summary.json").read_text())["seed"] == 9


def test_quiet_suppresses_stdout(tmp_path, capsys):
    cfg = half_cfg(tmp_path)
    main(["check", "--config", cfg, "--quiet"])
    assert capsys.readouterr().out == ""



# --- progress lines, summary keys and the shared preamble ---------------------

# each shipped (subcommand, config) pair at the config's own seed: exit code, stdout
PROGRESS = {
    ("check", "affine_p2"): (0, "axioms: ok (10000 trials)\ndoubling constant: 4\nfatou: ok\n"),
    ("check", "bad_functional"): (1, "axioms: 1278 violation(s) (10000 trials)\n"
                                     "doubling constant: 2\nfatou: ok\n"),
    ("check", "half_p1"): (0, "axioms: ok (10000 trials)\ns-convexity (s=1.0): ok\n"
                              "doubling constant: 2\nfatou: ok\n"),
    ("check", "orlicz_check"): (0, "axioms: ok (10000 trials)\n"
                                   "doubling constant: inf (unbounded)\nfatou: ok\n"),
    ("check", "weighted_logistic"): (0, "axioms: ok (10000 trials)\ndoubling constant: 2\n"
                                        "fatou: ok\n"),
    ("solve", "affine_p2"): (0, "solve [power]: converged at n=10 "
                                "(step=3.27e-11, residual=2.05e-12)\n"),
    ("solve", "half_p1"): (0, "solve [power]: converged at n=13 "
                              "(step=1.27e-11, residual=1.59e-12)\n"),
    ("solve", "weighted_logistic"): (0, "solve [power]: converged at n=16 "
                                        "(step=3.12e-11, residual=6.55e-12)\n"),
    ("certificate", "affine_p2"): (0, "certificate: PASS "
                                      "(alpha=4.00000399, pair=6.94e-18, max=3.47e-18)\n"),
    ("certificate", "half_p1"): (0, "certificate: PASS "
                                    "(alpha=1.000001, pair=9.31e-16, max=9.31e-10)\n"),
    ("certificate", "weighted_logistic"): (0, "certificate: PASS "
                                              "(alpha=18.5833519, pair=1.76e-08, max=0.0702)\n"),
}


@pytest.mark.parametrize("command,name", sorted(PROGRESS),
                         ids=[f"{c}-{n}" for c, n in sorted(PROGRESS)])
def test_progress_lines_are_pinned_and_quiet_prints_none(tmp_path, capsys, command, name):
    code, lines = PROGRESS[command, name]
    cfg = str(Path(__file__).parents[1] / "configs" / f"{name}.yaml")
    assert main([command, "--config", cfg, "--out", str(tmp_path / "loud")]) == code
    assert capsys.readouterr().out == lines
    assert main([command, "--config", cfg, "--out", str(tmp_path / "quiet"), "--quiet"]) == code
    assert capsys.readouterr().out == ""
    assert _files(tmp_path / "loud") == _files(tmp_path / "quiet")


DIVERGING = {"map": {"kind": "affine", "matrix": [[2.0]], "offset": [0.0]},
             "solve": {"tol": 1e-10, "max_iter": 5_000}}
UNBOUNDED = {"space": {"family": "orlicz", "phi": "exp_minus_one", "quadrature_nodes": 1},
             "initial_point": [1000.0]}
NO_FACTOR = {"map": {"kind": "affine", "matrix": [[2.0]], "offset": [0.0],
                     "c": 3, "k": 0.5, "s": 1}}
VANISHES = {"space": {"family": "dead_zone"}, "map": {"kind": "half"}, "initial_point": [0.5]}

FAILURE_LINES = {  # case -> (command, overrides of half_cfg, exit code, stdout)
    "solve divergence": ("solve", DIVERGING, 1, "solve [picard]: did not converge at n=1023 "
                                                "(step=4.49e+307, residual=inf)\n"),
    "false claim": ("solve", {"map": {"kind": "half", "c": 0.1}}, 0,
                    "warning: claimed factor c = 0.1 violated (max observed ratio 0.5)\n"
                    "solve [power]: converged at n=13 (step=1.27e-11, residual=1.59e-12)\n"),
    "unbounded orbit": ("certificate", UNBOUNDED, 1, "certificate: unbounded orbit "
                                                     "(rho(omega - T^2 omega) is infinite)\n"),
    "no factor below 1": ("certificate", NO_FACTOR, 1,
                          "warning: scaled form (c, k, s) = (3.0, 0.5, 1.0) violated\n"
                          "certificate: no contraction factor below 1 (empirical 2)\n"),
    "vanishing modular": ("certificate", VANISHES, 1,
                          "certificate: invalid modular (rho(x_n - x_N) = 0 at node n = 0, a "
                          "nonzero difference: rho vanishes off zero or underflowed)\n"),
}


@pytest.mark.parametrize("case", sorted(FAILURE_LINES))
def test_failure_lines_are_pinned(tmp_path, capsys, case):
    command, overrides, code, lines = FAILURE_LINES[case]
    assert main([command, "--config", half_cfg(tmp_path, **overrides)]) == code
    assert capsys.readouterr().out == lines


SOLVE_KEYS = ["converged", "iterations", "power", "k_used", "final_step_mod", "final_residual",
              "fixed_point", "c_claimed", "scaled_form", "c_effective", "c_empirical",
              "contraction_violations", "solver", "tol", "seed"]
FAILED_CERTIFICATE_KEYS = ["all_pass", "error", "c_empirical", "scaled_form", "seed"]

SUMMARY_KEYS = {  # case -> (command, overrides of half_cfg, file, its keys in order)
    "solve converged": ("solve", {}, "solve_summary.json", SOLVE_KEYS),
    "solve diverged": ("solve", DIVERGING, "solve_summary.json", SOLVE_KEYS + ["error"]),
    "certificate pass": ("certificate", {}, "certificate_summary.json", [
        "alpha", "c", "c_certified", "N", "pairs", "pair_check", "max_check", "all_pass",
        "worst_pair", "worst_node", "orbit_sup", "orbit_stabilized", "scaled_form",
        "limit_candidate", "cauchy_modulus", "seed"]),
    "certificate, no factor": ("certificate", NO_FACTOR, "certificate_summary.json",
                               FAILED_CERTIFICATE_KEYS),
    "certificate, unbounded orbit": ("certificate", UNBOUNDED, "certificate_summary.json",
                                     FAILED_CERTIFICATE_KEYS),
    "delta2 estimate": ("check", {}, "report_delta2.json",
                        ["checker", "constant", "unbounded"]),
    "delta2 invalid modular": ("check", VANISHES, "report_delta2.json", ["checker", "error"]),
}


@pytest.mark.parametrize("case", sorted(SUMMARY_KEYS))
def test_summary_keys_are_pinned_in_order(tmp_path, case):
    command, overrides, name, keys = SUMMARY_KEYS[case]
    main([command, "--config", half_cfg(tmp_path, **overrides), "--quiet"])
    assert list(json.loads((tmp_path / "out" / name).read_text())) == keys


# --- fuzzed problem files -----------------------------------------------------

def _keys(required, optional=None):
    return st.fixed_dictionaries(required, optional=optional or {})


def _valid_tree(dim):
    """A well-formed problem of dimension `dim`, kept cheap: trials,
    max_iter and chain.N small."""
    vec = st.lists(st.floats(-4, 4), min_size=dim, max_size=dim)
    claim = {"c": st.floats(0, 0.99)}
    return _keys({
        "space": st.one_of(
            _keys({"family": st.just("ppower"), "p": st.floats(0.5, 4)}),
            _keys({"family": st.just("weighted_sum"), "p": st.floats(0.5, 4),
                   "weights": st.lists(st.floats(0.1, 4), min_size=dim, max_size=dim)}),
            _keys({"family": st.just("orlicz"), "phi": st.just("power"), "p": st.floats(1, 3)}),
            _keys({"family": st.just("orlicz"), "phi": st.sampled_from(["exp_minus_one", "u_log"])}),
            _keys({"family": st.sampled_from(["sine_bump", "sign_skewed", "dead_zone"])}),
        ),
        "map": st.one_of(
            _keys({"kind": st.just("half")}, claim),
            _keys({"kind": st.just("logistic_damped"), "lam": st.floats(0, 1.5)}, claim),
            _keys({"kind": st.just("affine"), "offset": vec,
                   "matrix": st.lists(st.lists(st.floats(-1, 1), min_size=dim, max_size=dim),
                                      min_size=dim, max_size=dim)}, claim),
            _keys({"kind": st.just("const"), "offset": vec}),
            _keys({"kind": st.just("half"), "c": st.floats(1.5, 3), "k": st.floats(0, 1.4),
                   "s": st.floats(0.1, 1)}),
        ),
        "initial_point": vec,
        "solve": _keys({"tol": st.floats(1e-12, 1e-3), "max_iter": st.integers(0, 30)}),
        "check": _keys({"trials": st.integers(1, 32)},
                       {"s": st.floats(0.1, 1), "fatou_ratio": st.floats(0.1, 0.9),
                        "fatou_steps": st.integers(1, 4)}),
        "chain": _keys({"N": st.integers(0, 10)}, {"alpha": st.floats(0, 10)}),
        "seed": st.integers(0, 2**64 - 1),
    })


_DELETE = object()
_scalar_junk = st.one_of(st.booleans(), st.integers(-3, 3), st.floats(), st.text(max_size=4),
                         st.lists(st.floats(-4, 4), max_size=3))
_junk = st.one_of(st.none(), _scalar_junk,
                  st.dictionaries(st.text(max_size=3), st.integers(-2, 2), max_size=2))
# a missing or null solve/check section (or max_iter/trials key) falls back to
# the 10,000-step defaults, so those are only ever replaced by small junk
_edit = st.one_of(
    st.tuples(st.sampled_from([("space",), ("map",), ("initial_point",), ("chain",), ("seed",),
                               ("out_dir",), ("space", "family"), ("space", "p"),
                               ("space", "phi"), ("space", "weights"),
                               ("space", "quadrature_nodes"), ("map", "kind"),
                               ("map", "matrix"), ("map", "offset"), ("map", "lam"),
                               ("map", "c"), ("map", "k"), ("map", "s"), ("solve", "tol"),
                               ("check", "s"), ("check", "fatou_ratio"),
                               ("check", "fatou_steps"), ("chain", "N"), ("chain", "alpha")]),
              _junk | st.just(_DELETE)),
    st.tuples(st.sampled_from([("solve",), ("check",), ("solve", "max_iter"),
                               ("check", "trials")]), _scalar_junk),
)


def _apply_edits(tree, edits):
    for path, value in edits:
        parent = tree
        for key in path[:-1]:
            parent = parent.get(key)
        if not isinstance(parent, dict):
            continue  # an earlier edit replaced the section
        if value is _DELETE:
            parent.pop(path[-1], None)
        else:
            parent[path[-1]] = value
    return tree


_problem = st.builds(_apply_edits, st.integers(1, 3).flatmap(_valid_tree),
                     st.lists(_edit, max_size=2))


@given(tree=_problem, command=st.sampled_from(["check", "solve", "certificate"]))
def test_fuzzed_problem_files_exit_0_1_or_2(tree, command):
    """Any tree over the known keys exits 0, 1 or 2 and never raises."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg = write_cfg(Path(tmp) / "problem.yaml", tree)
        code = main([command, "--config", cfg, "--quiet", "--out", str(Path(tmp) / "out")])
    assert code in (0, 1, 2)


# --- YAML loaders ------------------------------------------------------------

CONFIGS = sorted((Path(__file__).parents[1] / "configs").glob("*.yaml"))
_needs_libyaml = pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="PyYAML built without libyaml")


def _both_loaders(text):
    return yaml.load(text, Loader=yaml.SafeLoader), yaml.load(text, Loader=yaml.CSafeLoader)


def _loader_used(monkeypatch) -> type:
    """The class of the loader whose events built a shipped config's tree."""
    used, start = [], config._TreeBuilder.__init__
    monkeypatch.setattr(config._TreeBuilder, "__init__",
                        lambda self, loader: used.append(type(loader)) or start(self, loader))
    monkeypatch.setattr(yaml, "load", lambda *args, **kwargs: pytest.fail("fell back to yaml.load"))
    cfg = load_config(CONFIGS[0])
    assert used and cfg.dim >= 1
    return used[-1]


@_needs_libyaml
def test_config_parser_is_libyaml_when_available(monkeypatch):
    assert _loader_used(monkeypatch) is yaml.CSafeLoader


def test_config_parser_falls_back_to_pure_python(monkeypatch):
    monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    assert _loader_used(monkeypatch) is yaml.SafeLoader


@_needs_libyaml
@pytest.mark.parametrize("path", CONFIGS, ids=[p.stem for p in CONFIGS])
def test_loaders_agree_on_shipped_configs(path):
    pure, fast = _both_loaders(path.read_text())
    assert pure == fast and isinstance(pure, dict)


@pytest.mark.parametrize("path", CONFIGS, ids=[p.stem for p in CONFIGS])
def test_shipped_configs_load(path):
    assert load_config(path).dim >= 1


@_needs_libyaml
@given(tree=_problem, flow=st.sampled_from([None, True, False]))
def test_loaders_agree_on_problem_trees(tree, flow):
    text = yaml.safe_dump(tree, default_flow_style=flow)
    pure, fast = _both_loaders(text)
    assert repr(pure) == repr(fast)  # repr: nan == nan fails, and -0.0 == 0.0 passes


@pytest.mark.parametrize("text", [
    "space: {family: ppower, p: 1.0\ninitial_point: [1.0]\n",
    "initial_point: [1.0, 2.0\n",
    "space:\n\tfamily: ppower\ninitial_point: [1.0]\n",
    "initial_point: [1.0]\x00\n",
], ids=["unclosed-brace", "unclosed-bracket", "tab-indent", "nul-byte"])
def test_malformed_yaml_exits_2_naming_the_file(tmp_path, capsys, text):
    path = tmp_path / "broken.yaml"
    path.write_text(text)
    assert main(["solve", "--config", str(path), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "invalid YAML" in err and str(path) in err


# --- strict JSON ----------------------------------------------------------------

def _not_json(token):
    raise ValueError(f"{token} is not JSON (RFC 8259)")


SHIPPED_COMMANDS = ([("check", p.stem) for p in CONFIGS]
                    + [(sub, name) for sub in ("solve", "certificate")
                       for name in ("affine_p2", "half_p1", "weighted_logistic")])


def test_every_json_report_is_strict_json(tmp_path):
    runs = {f"{sub}-{name}": [sub, "--config", str(CONFIGS[0].parent / f"{name}.yaml")]
            for sub, name in SHIPPED_COMMANDS}
    runs["max_iter_0"] = ["solve", "--config", half_cfg(tmp_path, solve={"tol": 1e-10, "max_iter": 0})]
    runs["diverging"] = ["solve", "--config", write_cfg(tmp_path / "div.yaml", {
        "space": {"family": "ppower", "p": 2.0},
        "map": {"kind": "affine", "matrix": [[2.0]], "offset": [0.0]},
        "initial_point": [1.0], "solve": {"tol": 1e-10, "max_iter": 5_000}})]
    written = {}
    for run, argv in runs.items():
        assert main(argv + ["--quiet", "--out", str(tmp_path / run)]) in (0, 1)
        for path in (tmp_path / run).glob("*.json"):
            written[run, path.name] = json.loads(path.read_text(), parse_constant=_not_json)
    assert {run for run, _ in written} == set(runs)
    # the non-finite values are spelled as Python spells them: str(float)
    assert written["check-orlicz_check", "report_delta2.json"]["constant"] == "inf"
    assert written["max_iter_0", "solve_summary.json"]["final_step_mod"] == "nan"
    assert written["diverging", "solve_summary.json"]["final_residual"] == "inf"

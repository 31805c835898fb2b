"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Tolerances are fixed here, not calibrated elsewhere.
"""

import json
import struct
import time

import numpy as np
import yaml

from rhofix import (
    INVALID_FUNCTIONALS,
    MapSpec,
    ModularSpec,
    Phi,
    PointSampler,
    build_chain,
    builtin_problems,
    cauchy_modulus,
    check_modular_axioms,
    delta2_type_estimate,
    f_norm,
    load_config,
    picard_solve,
    power_index,
    random_affine_contraction,
    solve_via_power,
    verify_contraction,
)
from rhofix.cli import main
from rhofix.output import reverify_certificate

SEED = 20240915
TOL = 1e-10

VALID_FAMILIES = [
    ModularSpec.p_power(0.5, 3),
    ModularSpec.p_power(1.0, 3),
    ModularSpec.p_power(2.0, 3),
    ModularSpec.weighted_sum(2.0, [0.5, 1.5, 3.0]),
    ModularSpec.orlicz(Phi.POWER, 4, p=2.0),
    ModularSpec.orlicz(Phi.EXP_MINUS_ONE, 4),
    ModularSpec.orlicz(Phi.U_LOG, 4),
]


def report(num: int, ok: bool, desc: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {desc}")
    assert ok, f"criterion {num}: {desc}"


def _affine_suite():
    """10 seeded affine contractions (d <= 8, factor <= 0.9 bounds the
    spectral radius) with their verified empirical factors and traces."""
    rng = np.random.default_rng(SEED)
    dims = [2, 3, 4, 5, 6, 7, 8, 3, 5, 8]
    targets = np.linspace(0.30, 0.88, 10)
    runs = []
    for dim, target in zip(dims, targets):
        T = random_affine_contraction(rng, dim, float(target))
        m = ModularSpec.p_power(1.0, dim)
        ver = verify_contraction(T, m, float(target), PointSampler(dim, SEED), 300)
        tr = picard_solve(T, m, np.zeros(dim), TOL, 10_000)
        runs.append((T, m, ver, tr))
    return runs


def test_criterion_1_axiom_suite():
    t0 = time.perf_counter()
    ok = True
    for m in VALID_FAMILIES:
        rep = check_modular_axioms(m, PointSampler(m.dim, SEED), 10_000)
        ok &= rep.passed
    for name, (fn, target) in INVALID_FUNCTIONALS.items():
        rep = check_modular_axioms(fn, PointSampler(1, SEED), 10_000)
        ok &= target in rep.violated_axioms()
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 10.0
    report(1, ok, f"axiom suite: 7 valid families clean, 3 planted invalid caught "
                  f"({elapsed:.2f}s)")


def test_criterion_2_f_norm_oracle():
    t0 = time.perf_counter()
    worst = 0.0
    grid = np.geomspace(1e-4, 1e4, 100)
    for p in (0.5, 1.0, 2.0):
        m = ModularSpec.p_power(p, 1)
        exponent = p / (p + 1.0)
        for v in grid:
            got = f_norm(m, [v], 1e-9)
            worst = max(worst, abs(got - v**exponent))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 1.0
    report(2, ok, f"F-norm bisection vs closed form |x|^(p/(p+1)): "
                  f"max |diff| = {worst:.2e} ({elapsed:.2f}s)")


def test_criterion_3_delta2_exactness():
    t0 = time.perf_counter()
    ok = True
    for p in (0.5, 1.0, 2.0):
        est = delta2_type_estimate(ModularSpec.p_power(p, 3), PointSampler(3, SEED), 2_000)
        ok &= abs(est.constant - 2.0**p) <= 1e-6 and not est.unbounded
    est = delta2_type_estimate(ModularSpec.orlicz(Phi.EXP_MINUS_ONE, 4),
                               PointSampler(4, SEED), 2_000)
    ok &= est.unbounded
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 5.0
    report(3, ok, f"doubling constants exact at 2^p, exponential flagged unbounded "
                  f"({elapsed:.2f}s)")


def test_criterion_4_affine_end_to_end():
    t0 = time.perf_counter()
    runs = _affine_suite()
    ok = True
    for T, m, _, tr in runs:
        ok &= tr.converged
        x_hat = np.linalg.solve(np.eye(T.matrix.shape[0]) - T.matrix, T.offset)
        ok &= m.evaluate(tr.fixed_point - x_hat) <= 10.0 * TOL
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 5.0
    report(4, ok, f"10 random affine contractions converge and match direct "
                  f"elimination within 10*tol ({elapsed:.2f}s)")
    test_criterion_4_affine_end_to_end.runs = runs


def test_criterion_5_geometric_decay():
    runs = getattr(test_criterion_4_affine_end_to_end, "runs", None) or _affine_suite()
    ok = True
    for _, _, ver, tr in runs:
        c_emp = ver.max_ratio
        prev = None
        for step_mod in tr.step_mod[1:]:
            if prev is not None:
                ok &= step_mod <= c_emp * prev * (1.0 + 1e-9)
            prev = step_mod
    report(5, ok, "step modulars decay by the verified empirical factor in every trace")


def test_criterion_6_power_path():
    ok = power_index(0.9, 4.0) == 20
    # direct computation cross-check of the selection boundary
    ok &= 0.9**20 * 4.0 < 0.5 <= 0.9**19 * 4.0
    for prob in builtin_problems():
        tr_pic = picard_solve(prob.map, prob.modular, prob.x0, TOL, 20_000)
        tr_pow = solve_via_power(prob.map, prob.modular, prob.c, prob.x0, TOL, 20_000)
        ok &= tr_pic.converged and tr_pow.converged
        gap = prob.modular.evaluate(tr_pic.fixed_point - tr_pow.fixed_point)
        ok &= gap <= 10.0 * TOL
    report(6, ok, "power_index(0.9, 4) = 20 and the power path meets plain "
                  "Picard on every shipped example")


def test_criterion_7_chain_certificate():
    t0 = time.perf_counter()
    P1 = ModularSpec.p_power(1.0, 1)
    ok = True
    for T, omega in ((MapSpec.half(), [1.0]), (MapSpec.affine([[0.5]], [1.0]), [0.0])):
        cert = build_chain(P1, T, omega, 0.5, None, 30)
        ok &= cert.all_pass
        ok &= not build_chain(P1, T, omega, 0.5, cert.alpha / 2.0, 30).all_pass
    unit_chain = build_chain(P1, MapSpec.half(), [1.0], 0.5, 1.0, 30)
    ok &= dict(cauchy_modulus(unit_chain))[1e-3] == 10
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    report(7, ok, f"chain certificates pass at computed alpha, fail at alpha/2, "
                  f"N(1e-3) = 10 ({elapsed:.2f}s)")


def test_criterion_8_uniqueness_probe():
    t0 = time.perf_counter()
    ok = True
    for prob in builtin_problems():
        far = np.asarray(prob.x0, dtype=float) + 1.0
        ok &= prob.modular.evaluate(far - prob.x0) >= 1.0
        tr1 = picard_solve(prob.map, prob.modular, prob.x0, TOL, 20_000)
        tr2 = picard_solve(prob.map, prob.modular, far, TOL, 20_000)
        ok &= tr1.converged and tr2.converged
        ok &= prob.modular.evaluate(tr1.fixed_point - tr2.fixed_point) <= 10.0 * TOL
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    report(8, ok, f"distant starts reach the same fixed point on every shipped "
                  f"contraction ({elapsed:.2f}s)")


def test_criterion_9_cli_determinism_and_roundtrip(tmp_path):
    cfg_tree = {
        "space": {"family": "ppower", "p": 1.0},
        "map": {"kind": "half", "c": 0.5},
        "initial_point": [1.0],
        "solve": {"tol": 1e-10, "max_iter": 10_000},
        "check": {"trials": 2_000},
        "chain": {"N": 30},
        "seed": 42,
        "out_dir": str(tmp_path / "out"),
    }
    cfg = tmp_path / "problem.yaml"
    cfg.write_text(yaml.safe_dump(cfg_tree))

    ok = main(["solve", "--config", str(cfg), "--quiet", "--out", str(tmp_path / "a")]) == 0
    ok &= main(["solve", "--config", str(cfg), "--quiet", "--out", str(tmp_path / "b")]) == 0
    sa = json.loads((tmp_path / "a" / "solve_summary.json").read_text())
    sb = json.loads((tmp_path / "b" / "solve_summary.json").read_text())
    ok &= sa == sb
    ok &= sa["iterations"] == sb["iterations"] and sa["converged"] == sb["converged"]

    ok &= main(["certificate", "--config", str(cfg), "--quiet"]) == 0
    summary = json.loads((tmp_path / "out" / "certificate_summary.json").read_text())
    loaded = load_config(cfg)
    rt = reverify_certificate(tmp_path / "out" / "certificate.npy", loaded.space, loaded.map,
                              loaded.initial_point, summary["c"])
    ok &= rt["replayed"] and rt["max_node_slack_diff"] == 0.0
    ok &= (rt["pairs"], rt["all_pass"]) == (summary["pairs"], summary["all_pass"])
    ok &= struct.pack("<d", rt["pair_check"]) == struct.pack("<d", float(summary["pair_check"]))
    report(9, ok, "same seed reproduces the solve verdict and iteration count; "
                  "the stored certificate replays bit for bit to the summary's verdict")

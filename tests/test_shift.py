"""The shift argument: chain certificates whose order pairs are proved from
a certified factor in O(N), against the full O(N**2) scan."""

import json
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, strategies as st

from rhofix import (
    InvalidModularError,
    MapSpec,
    ModularSpec,
    Phi,
    build_chain,
    certified_factor,
    load_config,
    random_affine_contraction,
    slack_tol,
    verify_order_pairs,
)
from rhofix.cli import main
from rhofix.output import reverify_certificate, write_certificate

CONFIGS = Path(__file__).parents[1] / "configs"


@st.composite
def _certified_chains(draw):
    """A certified (map, modular) pair with a factor below 1, a base point
    and a chain length; the claimed c is the certified factor or above it."""
    dim = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["half", "logistic_damped", "affine"]))
    p = draw(st.floats(0.5, 1.0) | st.just(2.0)) if kind == "affine" else draw(st.floats(0.5, 3.0))
    if draw(st.booleans()):
        m = ModularSpec.p_power(p, dim)
    else:
        m = ModularSpec.weighted_sum(p, draw(st.lists(st.floats(0.25, 4.0), min_size=dim, max_size=dim)))
    if kind == "half":
        T = MapSpec.half()
    elif kind == "logistic_damped":
        T = MapSpec.logistic_damped(draw(st.floats(0.05, 0.95)))
    else:
        A = np.array(draw(st.lists(st.lists(st.floats(-1, 1), min_size=dim, max_size=dim),
                                   min_size=dim, max_size=dim)))
        T = MapSpec.affine(A, draw(st.lists(st.floats(-4, 4), min_size=dim, max_size=dim)))
        c_star = certified_factor(T, m)[0]
        if c_star > 1e-3:  # rescale to a factor in [0.1, 0.95]
            scale = draw(st.floats(0.1, 0.95)) / c_star
            T = MapSpec.affine(A * scale ** (1.0 / p), T.offset)
    c_star = certified_factor(T, m)[0]
    c = min(draw(st.sampled_from([c_star, c_star * (1 + 1e-3), 0.97])), 0.97)
    omega = draw(st.lists(st.floats(-3, 3), min_size=dim, max_size=dim))
    return m, T, omega, max(c, 0.0), draw(st.integers(1, 60))


def _bits(x) -> bytes:
    """The float64 bits of a figure ("inf" and "nan" are written as strings in a summary)."""
    return struct.pack("<d", float(x))


def _assert_replays(out: Path, cfg: Path) -> None:
    """The audit of a `certificate` run's record reaches its summary's verdict bit for bit."""
    loaded = load_config(cfg)
    summary = json.loads((out / "certificate_summary.json").read_text())
    audit = reverify_certificate(out / "certificate.npy", loaded.space, loaded.map,
                                 loaded.initial_point, summary["c"])
    assert audit["replayed"] and audit["max_node_slack_diff"] == 0.0
    assert (audit["pairs"], audit["all_pass"]) == (summary["pairs"], summary["all_pass"])
    assert _bits(audit["pair_check"]) == _bits(summary["pair_check"])


def _vanishing_node(m, T, omega, N) -> bool:
    """Whether some node modular rho(x_n - x_N) is 0 at x_n != x_N, from
    the chain's orbit walked here (a subnormal squared underflows to 0)."""
    X = T.orbit(np.asarray(omega, dtype=float), max(2, N))[: N + 1]
    return bool(np.any((m.evaluate_batch(X - X[-1]) == 0.0) & np.any(X != X[-1], axis=1)))


@given(chain=_certified_chains())
# the squared subnormal node modulars underflow to 0
@example(chain=(ModularSpec.p_power(2.0, 1), MapSpec.half(), [2.2250738585e-313], 0.25, 1))
def test_shift_verdict_agrees_with_the_scan(chain):
    m, T, omega, c, N = chain
    if _vanishing_node(m, T, omega, N):
        with pytest.raises(InvalidModularError, match="at node n = "):
            build_chain(m, T, omega, c, None, N)
        return
    cert = build_chain(m, T, omega, c, None, N)
    scan = verify_order_pairs(cert, m)
    thr = slack_tol(cert.alpha, 1.0)
    if scan.worst_slack >= -thr:
        assert cert.pairs == "shift" and cert.all_pass
    if cert.pairs == "shift":
        # min L_j bounds every pair's slack from below
        assert cert.pair_check <= scan.worst_slack + thr


def test_computed_factor_above_the_claim_still_takes_the_shift():
    # after the YAML round trip the l1 factor of this matrix computes above
    # 0.9 even before rounding up; c_m = max(c, c*) keeps the proof
    rng = np.random.default_rng(1)
    for _ in range(20):
        T = random_affine_contraction(rng, 8, 0.9)
        T = MapSpec.affine(yaml.safe_load(yaml.safe_dump(T.matrix.tolist())), T.offset)
        if np.max(np.abs(T.matrix).sum(axis=0)) > 0.9:
            break
    else:
        pytest.fail("no matrix computed above its claim")
    m = ModularSpec.p_power(1.0, 8)
    cert = build_chain(m, T, rng.uniform(-1.0, 1.0, 8), 0.9, None, 300)
    assert cert.c_certified > 0.9
    assert cert.pairs == "shift" and cert.all_pass


def _p_half_case():
    """p = 0.5, d = 4: a true factor the scan fails on rounding noise."""
    rng = np.random.default_rng(0)
    A = rng.normal(size=(4, 4))
    A *= (0.9 / np.max((np.abs(A) ** 0.5).sum(axis=0))) ** 2
    T = MapSpec.affine(A, 10 * rng.uniform(-1, 1, 4))
    omega = rng.uniform(-1, 1, 4)
    c = float(np.max((np.abs(A) ** 0.5).sum(axis=0)))
    return ModularSpec.p_power(0.5, 4), T, omega, c


def test_shift_passes_the_case_the_scan_fails_on_rounding(tmp_path):
    m, T, omega, c = _p_half_case()
    assert c == 0.9000000000000001
    cert = build_chain(m, T, omega, c, None, 400)
    assert cert.pairs == "shift" and cert.all_pass
    assert cert.worst_pair == (399, 400) and cert.pair_check >= 0.0
    # the audit replays the proof and passes with its bits; the scan of the
    # stored rows, reported apart, reads the noise near the fixed point
    write_certificate(tmp_path / "certificate.npy", cert)
    audit = reverify_certificate(tmp_path / "certificate.npy", m, T, omega, c)
    assert audit["replayed"] and audit["max_node_slack_diff"] == 0.0
    assert audit["pairs"] == "shift" and audit["all_pass"]
    assert _bits(audit["pair_check"]) == _bits(cert.pair_check)
    assert audit["scan_pair_check"] < -slack_tol(cert.alpha, 1.0)


def test_false_factor_falls_back_to_the_scan_and_fails(tmp_path):
    # without map.c the auto-filled factor is the sampled 0.644 against the
    # true lam = 0.8: the shift bound goes negative, and the scan fails
    tree = yaml.safe_load((CONFIGS / "weighted_logistic.yaml").read_text())
    del tree["map"]["c"]
    tree["chain"]["N"] = 200
    cfg = tmp_path / "problem.yaml"
    cfg.write_text(yaml.safe_dump(tree))
    assert main(["certificate", "--config", str(cfg), "--quiet", "--out", str(tmp_path / "out")]) == 1
    summary = json.loads((tmp_path / "out" / "certificate_summary.json").read_text())
    assert summary["c"] == pytest.approx(0.644, abs=1e-3)
    assert summary["c_certified"] == pytest.approx(0.8, rel=1e-12)
    assert summary["pairs"] == "scan" and summary["pair_check"] < 0.0


@pytest.mark.parametrize("d,N", [(2, 100), (16, 150), (32, 200), (8, 300), (4, 400)])
def test_certify_chain_shapes_take_the_shift(tmp_path, d, N):
    # the shapes of the certify_chain benchmark: a fall back to the O(N**2)
    # scan fails here, not only in timings
    rng = np.random.default_rng(d * 1000 + N)
    T = random_affine_contraction(rng, d, 0.9)
    cfg = tmp_path / "problem.yaml"
    cfg.write_text(yaml.safe_dump({
        "space": {"family": "ppower", "p": 1.0},
        "map": {"kind": "affine", "matrix": T.matrix.tolist(), "offset": T.offset.tolist(), "c": 0.9},
        "initial_point": rng.uniform(-1.0, 1.0, d).tolist(),
        "chain": {"N": N},
        "seed": 1,
    }))
    assert main(["certificate", "--config", str(cfg), "--quiet", "--out", str(tmp_path / "out")]) == 0
    summary = json.loads((tmp_path / "out" / "certificate_summary.json").read_text())
    assert summary["all_pass"] is True and summary["pairs"] == "shift" and summary["N"] == N
    _assert_replays(tmp_path / "out", cfg)


# pair_check of the certify_chain benchmark's five problems at its seed 11,
# drawn in turn from one generator as the benchmark draws them. At (32, 200)
# numpy's vector power of c_m once gave 0x1.5557087f00000p-46 with its
# AVX-512 kernels and 0x1.5557087e00000p-46 at its baseline dispatch
CHAIN_SEED_11 = [((2, 100), "0x1.a38204aa00000p-35"), ((16, 150), "0x1.54f9af0800000p-40"),
                 ((32, 200), "0x1.5557087e00000p-46"), ((8, 300), "0x1.b34f3c2e00000p-64"),
                 ((4, 400), "0x1.2c7b16d000000p-80")]


def test_shift_bounds_do_not_depend_on_numpy_simd_dispatch():
    """The shift bound's c_m**(N - j) is Python's scalar pow, as the chain's
    c**n are, so pair_check has the same bits at any SIMD dispatch level:
    it equals the least bound computed in scalars, and its pins hold (CI
    runs this test again with numpy held to its baseline dispatch)."""
    rng = np.random.default_rng(11)
    for (d, N), pinned in CHAIN_SEED_11:
        T = random_affine_contraction(rng, d, 0.9)
        x0 = rng.uniform(-1.0, 1.0, d)
        rng.integers(0, 2**32)  # the problem's seed
        m = ModularSpec.p_power(1.0, d)
        cert = build_chain(m, T, x0, 0.9, None, N)
        assert cert.pairs == "shift" and cert.all_pass
        c_m, a = max(0.9, cert.c_certified), cert.alphas.tolist()
        r = m.evaluate_batch(cert.X[0] - cert.X[1:]).tolist()
        bounds = [0.9 ** (N - j) * (a[0] - a[j]) - c_m ** (N - j) * r[j - 1] for j in range(1, N + 1)]
        assert cert.pair_check.hex() == min(bounds).hex() == pinned


@pytest.mark.parametrize("name", ["affine_p2", "half_p1", "weighted_logistic"])
def test_shipped_certificates_take_the_shift(tmp_path, name):
    cfg = CONFIGS / f"{name}.yaml"
    assert main(["certificate", "--config", str(cfg), "--quiet", "--out", str(tmp_path / "out")]) == 0
    summary = json.loads((tmp_path / "out" / "certificate_summary.json").read_text())
    assert summary["pairs"] == "shift" and summary["c_certified"] >= summary["c"]
    _assert_replays(tmp_path / "out", cfg)


def test_without_a_certified_factor_the_scan_runs():
    m = ModularSpec.orlicz(Phi.POWER, 2, p=2.0)
    cert = build_chain(m, MapSpec.half(), [1.0, -0.5], 0.5, None, 20)
    assert cert.c_certified is None and cert.pairs == "scan" and cert.all_pass
    assert (cert.pair_check, cert.worst_pair) == verify_order_pairs(cert, m)


@st.composite
def _scanned_chains(draw):
    """An Orlicz power modular, which has no certified factor, under a
    half or damped logistic map: the chain is settled by the scan."""
    dim = draw(st.integers(1, 4))
    m = ModularSpec.orlicz(Phi.POWER, dim, p=draw(st.floats(1.0, 3.0)))
    T = draw(st.sampled_from([MapSpec.half(), MapSpec.logistic_damped(0.8)]))
    omega = draw(st.lists(st.floats(-3, 3), min_size=dim, max_size=dim))
    return m, T, omega, draw(st.floats(0.5, 0.95)), draw(st.integers(1, 40))


@given(chain=_certified_chains() | _scanned_chains())
def test_the_audit_replays_the_builders_verdict(chain):
    m, T, omega, c, N = chain
    if _vanishing_node(m, T, omega, N):
        return
    cert = build_chain(m, T, omega, c, None, N)
    with tempfile.TemporaryDirectory() as tmp:
        write_certificate(Path(tmp) / "certificate.npy", cert)
        audit = reverify_certificate(Path(tmp) / "certificate.npy", m, T, omega, c)
    assert audit["replayed"] and audit["max_node_slack_diff"] == 0.0
    assert (audit["pairs"], audit["all_pass"]) == (cert.pairs, cert.all_pass)
    assert _bits(audit["pair_check"]) == _bits(cert.pair_check)
    assert _bits(audit["scan_pair_check"]) == _bits(verify_order_pairs(cert, m).worst_slack)


@pytest.mark.parametrize("field", ["x", "alpha", "slack"])
@pytest.mark.parametrize("row", [0, 15, 30])
def test_a_tampered_table_does_not_replay(tmp_path, field, row):
    m, T, omega, c = ModularSpec.p_power(1.0, 2), MapSpec.half(), [1.0, -2.0], 0.5
    path = tmp_path / "certificate.npy"
    write_certificate(path, build_chain(m, T, omega, c, None, 30))
    assert reverify_certificate(path, m, T, omega, c)["replayed"]
    table = np.load(path)
    column = table["x"][:, 0] if field == "x" else table[field]  # views into the table
    column[row] = np.nextafter(column[row], np.inf)  # one ulp
    np.save(path, table)
    assert not reverify_certificate(path, m, T, omega, c)["replayed"]

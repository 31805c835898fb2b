"""Golden output bytes of `solve` and `certificate` on three shipped configs,
of `check` on all five, and of `solve` on two inline Orlicz problems.

Each file a command writes (trace or certificate table, JSON summary or
report) is pinned by its SHA-256, so a change that alters any output byte
fails here, not only one that alters a verdict. The configs run at their
own seeds. Their maps and modulars are affine, halving and damped-logistic
maps under p-power and weighted-sum modulars: no libm transcendental
enters the traces or certificates. Every shipped map claims its factor,
and the certified factor proves each claim, so no contraction pair is
sampled and the solve summaries hold `c_empirical: null`. All six
summaries hold that certified factor, `pow` of the halving and
damped-logistic factors and a LAPACK eigenvalue for the affine map (of a
1 x 1 matrix, so exact); the certificate summaries also hold the shift
bound `pair_check` built from it.

The `check` reports rest on more libm than that: `orlicz_check`'s
modular is the Orlicz integrand exp(u) - 1, evaluated by `expm1`, and
`bad_functional`'s is |sin(pi u)| + |u| / 10, so a platform whose `expm1`
or `sin` rounds differently could move the witnesses and constants in
their reports.

The inline Orlicz solves cover the two paths the shipped configs miss: an
unbounded doubling constant (Picard), on a claim that the Orlicz row of
the certified factor proves, and a closed-form one (the power path), on
an unclaimed map whose empirical factor is sampled from PCG64 words
decoded with integer and exact float operations. Their traces are Orlicz
modulars, evaluated by `expm1` for exp(u) - 1 and by `log1p` for
u log(1 + u); a platform whose `pow`, `expm1` or `log1p` rounds
differently could move their bytes.
"""

import hashlib
from pathlib import Path

import pytest

from rhofix.cli import main

CONFIGS = Path(__file__).parents[1] / "configs"

GOLDEN = {
    ("solve", "affine_p2"): {
        "solve_summary.json": "0ac935faea2cf8c125edd317f6bf21ced1cd2f9e5cd5ce2a5ac917b7037ee77e",
        "trace.npy": "2bd0f35b48690e09524b8a5b242641ca29acbd1a04049c18c4abe332d8b1656d",
    },
    ("solve", "half_p1"): {
        "solve_summary.json": "e238be4d0f23cc93cbbde95225b842d3213f7f81acd0e8bfd79d05d119a47561",
        "trace.npy": "48cc3257b38366e4eb660fdde2dad9995e8043436d4752418d5b98ad616d1724",
    },
    ("solve", "weighted_logistic"): {
        "solve_summary.json": "d54060315530288790021b3c7e336b7fdf88bfd81648154c56f0f6747233bf52",
        "trace.npy": "ed3a4bc3413e1980be43d04814ba78cf2c52065651cab2cb83177aab5601c8ce",
    },
    ("certificate", "affine_p2"): {
        "certificate.npy": "4963429798d06c8bc94f905fe863fe0a0dbaf6968772e06dab69ad8b44fbee4c",
        "certificate_summary.json": "1a237ac41df763723cc53a2ccd8a3b38d99bac0dac7ce4c1193e3deeb3e80029",
    },
    ("certificate", "half_p1"): {
        "certificate.npy": "a49072d86cedafc238fe8845cb0977216c9afc2ad2db526c8f637c08174d13b3",
        "certificate_summary.json": "e1f7c7647c151a6d9806fa71fee5ba74f9fc694d3dfc3156864322d0f4f3093b",
    },
    ("certificate", "weighted_logistic"): {
        "certificate.npy": "a271c1798f22fe5fa9b6e95ce75f9b1ccd70569929a8086281cb14cf5809d733",
        "certificate_summary.json": "524e2b641f7c570d739d6676b21f1d2224b2dc3ba3f83d402ae2379e5fbbca43",
    },
}


# (config, exit code) -> report file -> SHA-256 of `check`'s output
CHECK_GOLDEN = {
    ("affine_p2", 0): {
        "report_axioms.json": "e53c7e4d559dd0122c5d5f2cf83c9a58a78f06ae79414ef1b0c7161ff626be4b",
        "report_delta2.json": "f1bd66888bd4217a2ef8aa474a79ca56c7e69206586f90c9d991b03b02b86899",
        "report_fatou.json": "0dd07b9db5a3072a3cf834ee5c6cec2c9b520f4c5a199e44bd447aebed3f066c",
    },
    ("bad_functional", 1): {
        "report_axioms.json": "e0ec4855ddf1dc816c3f1f4dab6fe1e8fa3b7feb801f1afa8d9aeabe036c4fe3",
        "report_delta2.json": "d2efa3cfd92c34ca32cbd3df6a0673e07ce2a8b31c8bde685562f8ffeb000d7a",
        "report_fatou.json": "0dd07b9db5a3072a3cf834ee5c6cec2c9b520f4c5a199e44bd447aebed3f066c",
    },
    ("half_p1", 0): {
        "report_axioms.json": "e53c7e4d559dd0122c5d5f2cf83c9a58a78f06ae79414ef1b0c7161ff626be4b",
        "report_delta2.json": "d2efa3cfd92c34ca32cbd3df6a0673e07ce2a8b31c8bde685562f8ffeb000d7a",
        "report_fatou.json": "0dd07b9db5a3072a3cf834ee5c6cec2c9b520f4c5a199e44bd447aebed3f066c",
        "report_s_convexity.json": "50d6b26dfd011f2372cc7e8f21a49d484a45098d0c22963bca85981f88ccd7ae",
    },
    ("orlicz_check", 0): {
        "report_axioms.json": "e53c7e4d559dd0122c5d5f2cf83c9a58a78f06ae79414ef1b0c7161ff626be4b",
        "report_delta2.json": "6ec848d49026bffa9597597c81c4c302900b89bd996d8b49888ce043b24f283c",
        "report_fatou.json": "0dd07b9db5a3072a3cf834ee5c6cec2c9b520f4c5a199e44bd447aebed3f066c",
    },
    ("weighted_logistic", 0): {
        "report_axioms.json": "e53c7e4d559dd0122c5d5f2cf83c9a58a78f06ae79414ef1b0c7161ff626be4b",
        "report_delta2.json": "d2efa3cfd92c34ca32cbd3df6a0673e07ce2a8b31c8bde685562f8ffeb000d7a",
        "report_fatou.json": "0dd07b9db5a3072a3cf834ee5c6cec2c9b520f4c5a199e44bd447aebed3f066c",
    },
}


# inline problem (flow YAML) -> file -> SHA-256 of `solve`'s output
INLINE_SOLVE_GOLDEN = {
    # unbounded doubling constant: Picard, 86 iterations, k_used null
    "{space: {family: orlicz, phi: exp_minus_one}, map: {kind: logistic_damped, lam: 0.8, c: 0.8},"
    " initial_point: [0.5, -0.25, 0.1, 0.0], seed: 5}": {
        "solve_summary.json": "6b357694697f6af0100edba603ae2b0f2a488f0aacbf504b6c7524ccf7fa037c",
        "trace.npy": "d6a3fb655c8c8d71575b09a7a96d82cdccd35eca761911705454d19027d0e925",
    },
    # closed-form doubling constant 4: the power path with T^3 (the sampled
    # 3.998151127820284 picked the same power, so only k_used moved)
    "{space: {family: orlicz, phi: u_log}, map: {kind: half}, initial_point: [1.0, 2.0], seed: 5}": {
        "solve_summary.json": "fafc7224253962d946c44968bcaca38ec82ff70bf6a43fdd0eab9f4ac005257f",
        "trace.npy": "734efce31d0c85bb688d3c3fcb00f6373a993ecdcbf2574834523896d0192da0",
    },
}


def _written(out: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}


@pytest.mark.parametrize("command,name", sorted(GOLDEN), ids=[f"{c}-{n}" for c, n in sorted(GOLDEN)])
def test_output_bytes_are_pinned(tmp_path, command, name):
    out = tmp_path / "out"
    assert main([command, "--config", str(CONFIGS / f"{name}.yaml"), "--quiet", "--out", str(out)]) == 0
    assert _written(out) == GOLDEN[command, name]


@pytest.mark.parametrize("name,code", sorted(CHECK_GOLDEN), ids=[n for n, _ in sorted(CHECK_GOLDEN)])
def test_check_report_bytes_are_pinned(tmp_path, name, code):
    out = tmp_path / "out"
    assert main(["check", "--config", str(CONFIGS / f"{name}.yaml"), "--quiet", "--out", str(out)]) == code
    assert _written(out) == CHECK_GOLDEN[name, code]


@pytest.mark.parametrize("problem", list(INLINE_SOLVE_GOLDEN), ids=["exp_picard", "u_log_power"])
def test_inline_orlicz_solve_bytes_are_pinned(tmp_path, problem):
    config, out = tmp_path / "problem.yaml", tmp_path / "out"
    config.write_text(problem + "\n")
    assert main(["solve", "--config", str(config), "--quiet", "--out", str(out)]) == 0
    assert _written(out) == INLINE_SOLVE_GOLDEN[problem]

"""Command-line front end: `rhofix check | solve | certificate`.

Each subcommand loads a YAML problem file, runs the corresponding
operations, and writes reports/traces into the output directory.

Exit codes: 0 success (no violations / converged / certificate passed),
1 mathematical failure (violations, divergence, failed certificate),
2 usage or config parse error.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from .chain import build_chain, cauchy_modulus
from .checks import (
    PointSampler,
    check_fatou_sampled,
    check_modular_axioms,
    check_s_convexity,
    delta2_type_estimate,
    exact_doubling_constant,
)
from .config import ProblemConfig, check_seed, load_config
from .errors import (
    ConfigError,
    DivergenceError,
    InconsistentContractionError,
    InvalidModularError,
    UnboundedOrbitError,
)
from .output import (
    delta2_payload,
    report_payload,
    trace_payload,
    write_certificate,
    write_json,
    write_trace,
)
from .solver import picard_solve, solve_via_power, verify_contraction, verify_s_contraction

__all__ = ["main", "console", "run_check", "run_solve", "run_certificate"]

EXIT_OK = 0
EXIT_MATH = 1
EXIT_USAGE = 2

# trials used for the pre-solve empirical contraction check
VERIFY_TRIALS = 512


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rhofix",
        description="Modular-space contraction toolkit: checkers, Picard solver, chain certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("check", "run the modular axiom / s-convexity / doubling / Fatou checkers"),
        ("solve", "verify the contraction empirically and run Picard iteration"),
        ("certificate", "build and verify a finite chain certificate"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="YAML problem file")
        p.add_argument("--seed", type=int, default=None, help="override the config seed (u64)")
        p.add_argument("--out", default=None, help="override the output directory")
        p.add_argument("--quiet", action="store_true", help="suppress progress output")
    return parser


def _say(quiet: bool, msg: str) -> None:
    if not quiet:
        print(msg)


def _effective_c(cfg: ProblemConfig, sampler: PointSampler, quiet: bool):
    """Claimed factor if present, else the empirical max ratio (auto-fill).
    With `map.s` set, c belongs to the scaled form, whose verdict is returned
    as a summary entry (None without `s`)."""
    T, claimed = cfg.map, cfg.c_claimed
    probe_c = claimed if claimed is not None else 1.0 - 1e-12
    report = verify_contraction(T, cfg.space, probe_c, sampler, VERIFY_TRIALS)
    c_emp = report.max_ratio
    if claimed is not None and not report.passed:
        _say(quiet, f"warning: claimed factor c = {claimed} violated "
                    f"(max observed ratio {c_emp:.6g})")
    c_eff = claimed if claimed is not None and report.passed else c_emp
    scaled = None
    if cfg.scaled_form is not None:
        c, k, s = cfg.scaled_form
        rep_s = verify_s_contraction(T, cfg.space, c, k, s, sampler, VERIFY_TRIALS)
        scaled = {"c": c, "k": k, "s": s, "passed": rep_s.passed,
                  "max_ratio": None if math.isnan(rep_s.max_ratio) else rep_s.max_ratio,
                  "n_violations": len(rep_s.violations)}
        if not rep_s.passed:
            _say(quiet, f"warning: scaled form (c, k, s) = ({c}, {k}, {s}) violated")
    return c_eff, c_emp, report, scaled


def run_check(cfg: ProblemConfig, quiet: bool = False) -> int:
    out = cfg.out_dir
    out.mkdir(parents=True, exist_ok=True)
    sampler = PointSampler(cfg.dim, cfg.seed)
    failed = False

    rep = check_modular_axioms(cfg.space, sampler, cfg.trials)
    write_json(out / "report_axioms.json", report_payload("modular_axioms", rep))
    _say(quiet, f"axioms: {'ok' if rep.passed else f'{len(rep.violations)} violation(s)'} "
                f"({cfg.trials} trials)")
    failed |= not rep.passed

    if cfg.s is not None:
        rep_s = check_s_convexity(cfg.space, cfg.s, sampler, cfg.trials)
        write_json(out / "report_s_convexity.json",
                   report_payload("s_convexity", rep_s, {"s": cfg.s}))
        _say(quiet, f"s-convexity (s={cfg.s}): "
                    f"{'ok' if rep_s.passed else f'{len(rep_s.violations)} violation(s)'}")
        failed |= not rep_s.passed

    try:
        d2 = delta2_type_estimate(cfg.space, sampler, cfg.trials)
        write_json(out / "report_delta2.json", delta2_payload(d2))
        _say(quiet, f"doubling constant: {d2.constant:.9g}"
                    f"{' (unbounded)' if d2.unbounded else ''}")
    except InvalidModularError as exc:
        write_json(out / "report_delta2.json",
                   {"checker": "delta2_type_estimate", "error": str(exc)})
        _say(quiet, f"doubling constant: invalid modular ({exc})")
        failed = True

    rep_f = check_fatou_sampled(
        cfg.space, cfg.initial_point, np.zeros(cfg.dim),
        cfg.fatou_ratio, cfg.fatou_steps, sampler=sampler,
    )
    write_json(out / "report_fatou.json", report_payload("fatou_sampled", rep_f, {
        "ratio": cfg.fatou_ratio, "steps": cfg.fatou_steps,
    }))
    _say(quiet, f"fatou: {'ok' if rep_f.passed else f'{len(rep_f.violations)} violation(s)'}")
    failed |= not rep_f.passed

    return EXIT_MATH if failed else EXIT_OK


def run_solve(cfg: ProblemConfig, quiet: bool = False) -> int:
    if cfg.map is None:
        raise ConfigError("map", "required for solve")
    out = cfg.out_dir
    out.mkdir(parents=True, exist_ok=True)
    sampler = PointSampler(cfg.dim, cfg.seed)
    c_eff, c_emp, report, scaled = _effective_c(cfg, sampler, quiet)

    k = exact_doubling_constant(cfg.space)
    if k is None:
        try:
            est = delta2_type_estimate(cfg.space, sampler, min(cfg.trials, 2048))
            k = None if est.unbounded else est.constant
        except InvalidModularError:
            k = None

    power_path = (
        k is not None
        and not math.isnan(c_eff)
        and 0.0 <= c_eff < 1.0
        and c_eff * k >= 0.5
    )
    extra = {
        "c_claimed": cfg.c_claimed,
        "scaled_form": scaled,
        "c_effective": None if math.isnan(c_eff) else c_eff,
        "c_empirical": None if math.isnan(c_emp) else c_emp,
        "contraction_violations": len(report.violations),
        "solver": "power" if power_path else "picard",
        "tol": cfg.tol,
        "seed": cfg.seed,
    }

    status = EXIT_OK
    try:
        if power_path:
            trace = solve_via_power(
                cfg.map, cfg.space, c_eff, cfg.initial_point, cfg.tol, cfg.max_iter, k=k
            )
        else:
            trace = picard_solve(cfg.map, cfg.space, cfg.initial_point, cfg.tol, cfg.max_iter)
        if not trace.converged:
            status = EXIT_MATH
    except (DivergenceError, InconsistentContractionError) as exc:
        trace = exc.trace
        extra["error"] = str(exc)
        status = EXIT_MATH

    write_trace(out / "trace.csv", trace)
    write_json(out / "solve_summary.json", trace_payload(trace, extra))
    _say(quiet, f"solve [{extra['solver']}]: "
                f"{'converged' if trace.converged else 'did not converge'} at "
                f"n={trace.iterations} (step={trace.step_mod[-1]:.3g}, "
                f"residual={trace.residual[-1]:.3g})")
    return status


def run_certificate(cfg: ProblemConfig, quiet: bool = False) -> int:
    if cfg.map is None:
        raise ConfigError("map", "required for certificate")
    out = cfg.out_dir
    out.mkdir(parents=True, exist_ok=True)
    sampler = PointSampler(cfg.dim, cfg.seed)
    c_eff, c_emp, _, scaled = _effective_c(cfg, sampler, quiet)
    failure = {  # the summary of either failure exit, once "error" is filled in
        "all_pass": False,
        "error": None,
        "c_empirical": None if math.isnan(c_emp) else c_emp,
        "scaled_form": scaled,
        "seed": cfg.seed,
    }
    if math.isnan(c_eff) or not 0.0 <= c_eff < 1.0:
        failure["error"] = f"no contraction factor below 1 (empirical {c_emp:.6g})"
        write_json(out / "certificate_summary.json", failure)
        _say(quiet, f"certificate: {failure['error']}")
        return EXIT_MATH

    try:
        cert = build_chain(cfg.space, cfg.map, cfg.initial_point, c_eff, cfg.chain_alpha, cfg.chain_n)
    except UnboundedOrbitError as exc:
        failure["error"] = str(exc)
        write_json(out / "certificate_summary.json", failure)
        _say(quiet, f"certificate: unbounded orbit ({exc})")
        return EXIT_MATH

    write_certificate(out / "certificate.csv", cert, cfg.space)
    write_json(out / "certificate_summary.json", {
        "alpha": cert.alpha,
        "c": cert.c,
        "N": cert.length,
        "pair_check": cert.pair_check,
        "max_check": cert.max_check,
        "all_pass": cert.all_pass,
        "worst_pair": cert.worst_pair,
        "worst_node": cert.worst_node,
        "orbit_sup": cert.orbit_sup,
        "orbit_stabilized": cert.orbit_stabilized,
        "scaled_form": scaled,
        "limit_candidate": cert.limit_candidate.tolist(),
        "cauchy_modulus": [[eps, n] for eps, n in cauchy_modulus(cert)],
        "seed": cfg.seed,
    })
    _say(quiet, f"certificate: {'PASS' if cert.all_pass else 'FAIL'} "
                f"(alpha={cert.alpha:.9g}, pair={cert.pair_check:.3g}, max={cert.max_check:.3g})")
    return EXIT_OK if cert.all_pass else EXIT_MATH


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg.seed = check_seed(args.seed)
        if args.out is not None:
            cfg.out_dir = Path(args.out)
        runner = {"check": run_check, "solve": run_solve, "certificate": run_certificate}
        return runner[args.command](cfg, quiet=args.quiet)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def console() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console()

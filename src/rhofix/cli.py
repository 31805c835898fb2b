"""Command-line front end: `rhofix check | solve | certificate`.

`main` runs the preamble every subcommand shares, once: it loads the YAML
problem file and applies `--seed` / `--out`, requires a map for `solve`
and `certificate`, makes the output directory, builds the `PointSampler`
and picks `say` (`print`, or a no-op under `--quiet`). Each runner,
`run_check | run_solve | run_certificate(cfg, out, sampler, say)`, then
holds only its stages: it builds its summaries here and writes them with
the reports and records of `output` into the output directory; `solve`
opens `trace.npy` with `output.trace_file` and hands it to the solver,
which writes each block's kept rows into it as it judges them.

Exit codes: 0 success (no violations / converged / certificate passed),
1 mathematical failure (violations, divergence, failed certificate),
2 usage or config parse error, a run whose arrays do not fit in memory
(naming the subcommand's size keys and their values) or an output file
that cannot be written (naming it and the reason).
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path

import numpy as np

from .chain import build_chain, cauchy_modulus
from .checks import (
    PointSampler,
    certified_factor,
    check_fatou_sampled,
    check_modular_axioms,
    check_s_convexity,
    delta2_type_estimate,
    doubling_constant,
)
from .config import ProblemConfig, check_seed, load_config
from .errors import ConfigError, InvalidModularError, SolveError, UnboundedOrbitError
from .modular import REL_TOL
from .output import report_payload, trace_file, write_certificate, write_json
from .solver import (picard_solve, power_index, solve_via_power, verify_contraction,
                     verify_s_contraction)

__all__ = ["main", "console", "run_check", "run_solve", "run_certificate"]

EXIT_OK = 0
EXIT_MATH = 1
EXIT_USAGE = 2

# trials used for the pre-solve empirical contraction check
VERIFY_TRIALS = 512

# the keys that size each subcommand's arrays, as (key, ProblemConfig field).
# The sampled checks walk their trials in blocks of at most 16,384 entries;
# per trial they keep only the doubling estimate's rows whose direction was
# all zeros, held for their redraw after the last trial (one row in 64**d,
# so about check.trials / 64 at d = 1). A solve's estimate takes at most
# 2,048 trials and its trace streams to its file, so its arrays are blocks
# of points, as wide as the initial point
_SIZE_KEYS = {
    "check": (("check.trials", "trials"), ("check.fatou_steps", "fatou_steps")),
    "solve": (("len(initial_point)", "dim"),),
    "certificate": (("chain.N", "chain_n"),),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="rhofix",
        description="Modular-space contraction toolkit: checkers, Picard solver, chain certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("check", "run the modular axiom / s-convexity / doubling / Fatou checkers"),
        ("solve", "prove or sample the contraction factor and run Picard iteration"),
        ("certificate", "build and verify a finite chain certificate"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="YAML problem file")
        p.add_argument("--seed", type=int, default=None, help="override the config seed (u64)")
        p.add_argument("--out", default=None, help="override the output directory")
        p.add_argument("--quiet", action="store_true", help="suppress progress output")
    return parser


def _out_dir(cfg: ProblemConfig) -> Path:
    """The output directory, made if missing; a path that cannot be one is a config error."""
    try:
        cfg.out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError("out_dir", f"cannot make directory {cfg.out_dir}: {exc.strerror}") from None
    return cfg.out_dir


def _effective_c(cfg: ProblemConfig, sampler: PointSampler, say):
    """(c_eff, c_emp, violations, c_certified, scaled). A claimed c with
    `certified_factor` c* <= c (1 + REL_TOL), the sampled check's allowance,
    is proved: c_eff is c, c_certified c*, and nothing is sampled (c_emp
    nan), so the sampler's stream stays put. Otherwise the contraction is
    sampled, c_certified is None and c_eff is the claim if no sampled pair
    violates it, else the empirical max ratio (auto-fill). With `map.s` set,
    c belongs to the scaled form, whose verdict is returned as a summary
    entry (None without `s`)."""
    T, claimed = cfg.map, cfg.c_claimed
    if claimed is not None:
        certified = certified_factor(T, cfg.space)
        if certified is not None and certified[0] <= claimed * (1.0 + REL_TOL):
            return claimed, math.nan, 0, certified[0], None
    probe_c = claimed if claimed is not None else 1.0 - 1e-12
    report = verify_contraction(T, cfg.space, probe_c, sampler, VERIFY_TRIALS)
    c_emp = report.max_ratio
    if claimed is not None and not report.passed:
        say(f"warning: claimed factor c = {claimed} violated (max observed ratio {c_emp:.6g})")
    elif claimed is not None and math.isnan(c_emp):
        say(f"warning: claimed factor c = {claimed} not measured "
            "(every sampled ratio underflowed)")
    c_eff = claimed if claimed is not None and report.passed else c_emp
    scaled = None
    if cfg.scaled_form is not None:
        c, k, s = cfg.scaled_form
        rep_s = verify_s_contraction(T, cfg.space, c, k, s, sampler, VERIFY_TRIALS)
        scaled = {"c": c, "k": k, "s": s, "passed": rep_s.passed,
                  "max_ratio": None if math.isnan(rep_s.max_ratio) else rep_s.max_ratio,
                  "n_violations": rep_s.n_violations}
        if not rep_s.passed:
            say(f"warning: scaled form (c, k, s) = ({c}, {k}, {s}) violated")
    return c_eff, c_emp, report.n_violations, None, scaled


def _report(out: Path, say, name: str, checker: str, report, label: str,
            extra: dict | None = None, suffix: str = "") -> bool:
    """Write one checker's `report_<name>.json` and print its verdict line;
    returns whether the check failed."""
    write_json(out / f"report_{name}.json", report_payload(checker, report, extra))
    say(f"{label}: {'ok' if report.passed else f'{report.n_violations} violation(s)'}{suffix}")
    return not report.passed


def run_check(cfg: ProblemConfig, out: Path, sampler: PointSampler, say) -> int:
    failed = _report(out, say, "axioms", "modular_axioms",
                     check_modular_axioms(cfg.space, sampler, cfg.trials), "axioms",
                     suffix=f" ({cfg.trials} trials)")
    if cfg.s is not None:
        failed |= _report(out, say, "s_convexity", "s_convexity",
                          check_s_convexity(cfg.space, cfg.s, sampler, cfg.trials),
                          f"s-convexity (s={cfg.s})", {"s": cfg.s})
    try:
        d2 = delta2_type_estimate(cfg.space, sampler, cfg.trials)
        delta2 = {"constant": d2.constant, "unbounded": d2.unbounded}
        line = f"{d2.constant:.9g}{' (unbounded)' if d2.unbounded else ''}"
    except InvalidModularError as exc:
        delta2, line, failed = {"error": str(exc)}, f"invalid modular ({exc})", True
    write_json(out / "report_delta2.json", {"checker": "delta2_type_estimate", **delta2})
    say(f"doubling constant: {line}")
    rep_f = check_fatou_sampled(cfg.space, cfg.initial_point, np.zeros(cfg.dim),
                                cfg.fatou_ratio, cfg.fatou_steps, sampler=sampler)
    failed |= _report(out, say, "fatou", "fatou_sampled", rep_f, "fatou",
                      {"ratio": cfg.fatou_ratio, "steps": cfg.fatou_steps})
    return EXIT_MATH if failed else EXIT_OK


def run_solve(cfg: ProblemConfig, out: Path, sampler: PointSampler, say) -> int:
    c_eff, c_emp, violations, c_certified, scaled = _effective_c(cfg, sampler, say)
    k = doubling_constant(cfg.space, sampler, min(cfg.trials, 2048))
    power = power_index(c_eff, k) if k is not None and 0.0 <= c_eff < 1.0 else 1
    error = None
    with trace_file(out / "trace.npy", cfg.dim) as file:
        try:
            if power > 1:
                trace = solve_via_power(cfg.map, cfg.space, c_eff, cfg.initial_point, cfg.tol,
                                        cfg.max_iter, k=k, file=file)
            else:
                trace = picard_solve(cfg.map, cfg.space, cfg.initial_point, cfg.tol,
                                     cfg.max_iter, file=file)
        except SolveError as exc:
            trace, error = exc.trace, str(exc)
    summary = {
        "converged": trace.converged,
        "iterations": trace.iterations,
        "power": trace.power,
        "k_used": trace.k_used,
        "final_step_mod": float(trace.step_mod[-1]),  # every trace holds its x0 row
        "final_residual": float(trace.residual[-1]),
        "fixed_point": None if trace.fixed_point is None else trace.fixed_point.tolist(),
        "c_claimed": cfg.c_claimed,
        "scaled_form": scaled,
        "c_effective": None if math.isnan(c_eff) else c_eff,
        "c_empirical": None if math.isnan(c_emp) else c_emp,
        # only a proved claim has the key, so a sampled summary keeps its keys
        **({} if c_certified is None else {"c_certified": c_certified}),
        "contraction_violations": violations,
        "solver": "power" if power > 1 else "picard",
        "tol": cfg.tol,
        "seed": cfg.seed,
    }
    if error is not None:
        summary["error"] = error
    write_json(out / "solve_summary.json", summary)
    say(f"solve [{summary['solver']}]: "
        f"{'converged' if trace.converged else 'did not converge'} at "
        f"n={trace.iterations} (step={trace.step_mod[-1]:.3g}, "
        f"residual={trace.residual[-1]:.3g})")
    return EXIT_OK if trace.converged and error is None else EXIT_MATH


def run_certificate(cfg: ProblemConfig, out: Path, sampler: PointSampler, say) -> int:
    c_eff, c_emp, _, _, scaled = _effective_c(cfg, sampler, say)
    cert = None
    if math.isnan(c_eff) or not 0.0 <= c_eff < 1.0:
        error = line = f"no contraction factor below 1 (empirical {c_emp:.6g})"
    else:
        try:
            cert = build_chain(cfg.space, cfg.map, cfg.initial_point, c_eff, cfg.chain_alpha,
                               cfg.chain_n)
        except (UnboundedOrbitError, InvalidModularError) as exc:
            kind = "unbounded orbit" if isinstance(exc, UnboundedOrbitError) else "invalid modular"
            error, line = str(exc), f"{kind} ({exc})"
    if cert is None:
        write_json(out / "certificate_summary.json", {
            "all_pass": False,
            "error": error,
            "c_empirical": None if math.isnan(c_emp) else c_emp,
            "scaled_form": scaled,
            "seed": cfg.seed,
        })
        say(f"certificate: {line}")
        return EXIT_MATH

    write_certificate(out / "certificate.npy", cert)
    write_json(out / "certificate_summary.json", {
        "alpha": cert.alpha,
        "c": cert.c,
        "c_certified": cert.c_certified,
        "N": cert.length,
        "pairs": cert.pairs,
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
    say(f"certificate: {'PASS' if cert.all_pass else 'FAIL'} "
        f"(alpha={cert.alpha:.9g}, pair={cert.pair_check:.3g}, max={cert.max_check:.3g})")
    return EXIT_OK if cert.all_pass else EXIT_MATH


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg.seed = check_seed(args.seed)
        if args.out is not None:
            cfg.out_dir = Path(args.out)
        if args.command != "check" and cfg.map is None:
            raise ConfigError("map", f"required for {args.command}")
        out = _out_dir(cfg)
        sampler = PointSampler(cfg.dim, cfg.seed)
        say = (lambda msg: None) if args.quiet else print
        # looked up per call, so that a patched module binding is the one run
        runner = {"check": run_check, "solve": run_solve, "certificate": run_certificate}
        try:
            return runner[args.command](cfg, out, sampler, say)
        except MemoryError:
            sizes = ", ".join(f"{key} = {getattr(cfg, field)}"
                              for key, field in _SIZE_KEYS[args.command])
            raise ConfigError(sizes, "the arrays these sizes imply do not fit in memory") from None
        except OSError as exc:  # every runner's I/O writes its outputs
            raise ConfigError("out_dir", f"cannot write {exc.filename or out}: "
                              f"{exc.strerror or exc}") from None
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def console() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console()

#!/usr/bin/env python3
"""End-to-end demo on a shipped problem: checkers, solver, chain certificate.

Usage:
    python scripts/demo_contraction.py [--problem half_p1] [--seed 0] [--list]
"""

import argparse

from rhofix import (
    PointSampler,
    build_chain,
    builtin_problems,
    cauchy_modulus,
    check_modular_axioms,
    doubling_constant,
    picard_solve,
    solve_via_power,
    verify_contraction,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--problem", default="half_p1")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--tol", type=float, default=1e-10)
    parser.add_argument("--chain", type=int, default=30)
    parser.add_argument("--list", action="store_true", help="list problems and exit")
    args = parser.parse_args()

    problems = {p.name: p for p in builtin_problems()}
    if args.list:
        for name in problems:
            print(name)
        return
    prob = problems[args.problem]
    m, T = prob.modular, prob.map
    dim = m.dim

    print(f"== problem {prob.name}: {T.kind.value} map under {m.family.value} "
          f"(dim {dim}) ==")

    rep = check_modular_axioms(m, PointSampler(dim, args.seed), 10_000)
    print(f"axioms: {'ok' if rep.passed else 'VIOLATED'} over {rep.trials} trials")

    k = doubling_constant(m, PointSampler(dim, args.seed), 2_000)
    print(f"doubling constant: {k:.6g}")

    ver = verify_contraction(T, m, prob.c, PointSampler(dim, args.seed), 1_000)
    print(f"contraction at c = {prob.c}: {'ok' if ver.passed else 'VIOLATED'} "
          f"(max ratio {ver.max_ratio:.6g})")

    tr = picard_solve(T, m, prob.x0, args.tol, 10_000)
    print(f"picard: converged={tr.converged} at n={tr.iterations}, "
          f"fixed point {tr.fixed_point}")
    tr_pow = solve_via_power(T, m, prob.c, prob.x0, args.tol, 10_000, k=k)
    gap = m.evaluate(tr.fixed_point - tr_pow.fixed_point)
    print(f"power path: composite T^{tr_pow.power}, n={tr_pow.iterations}, "
          f"rho-gap to picard {gap:.3g}")

    # one orbit gives the admissible alpha, the orbit bound and the chain
    cert = build_chain(m, T, prob.x0, prob.c, None, args.chain)
    print(f"orbit bound: sup rho(2 T^n x0) = {cert.orbit_sup:.6g} "
          f"(stabilized: {cert.orbit_stabilized})")
    print(f"chain certificate: alpha={cert.alpha:.9g}, all_pass={cert.all_pass} "
          f"(pair {cert.pair_check:.3g}, max {cert.max_check:.3g})")
    print("cauchy modulus:")
    for eps, n in cauchy_modulus(cert):
        print(f"  eps={eps:.0e}  N={'-' if n is None else n}")


if __name__ == "__main__":
    main()

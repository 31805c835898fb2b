"""Benchmark of `rhofix check | solve | certificate`, end to end and per layer.

Run from the root of a rhofix checkout:

    python3 bench/run.py --workload shipped_configs --seed 1 --seconds 40 --trace 0

Workloads (see workloads.py): shipped_configs, solve_long, certify_chain.
Every command runs in this one process through `rhofix.cli.main`, and
its exit code and outputs are checked against a reference.

--trace 0 repeats untraced passes over the workload's command list for
--seconds and reports the end-to-end metrics: setup_s (median of one
fresh-interpreter set-up per pass), wall_s (one pass: the sum over its
commands of each command's median latency), cmd_ms_p50 (the median of
those per-command medians) and peak_rss_mb. The three timings are scaled
to a fixed reference CPU speed (refmath.reference_seconds), because the
host's speed drifts. --trace 1 alternates untraced and traced passes and
reports the per-layer metrics instead, in unscaled time; the end-to-end
figures are never taken from a traced pass.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. The line before it records the run
environment, the sample count of each metric and failed_frac. A copy of
both, and the spans of a traced run, go to .bench_runs/results/.
"""

from __future__ import annotations

import os

# One thread per process: numpy must not start BLAS or OpenMP workers.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import refmath  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent

END_TO_END = {"setup_s": "s", "wall_s": "s", "cmd_ms_p50": "ms", "peak_rss_mb": "MB"}
PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in spans.LAYERS},
    "modular.evaluate.calls": "count",
    "modular.us_per_eval": "us",
    "modular.evaluate_batch.rows": "count",
    "modular.us_per_row": "us",
    "checks.trials": "count",
    "checks.us_per_trial": "us",
    "solver.verify_contraction.trials": "count",
    "solver.verify_contraction.us_per_trial": "us",
    "solver.picard.iterations": "count",
    "solver.picard.us_per_iter": "us",
    "solver.picard.rho_evals_per_iter": "ratio",
    "solver.picard.floor_us_per_iter": "us",
    "solver.apply.calls": "count",
    "solver.power_path_share": "ratio",
    "solver.trace_bytes": "bytes",
    "chain.pairs": "count",
    "chain.us_per_pair": "us",
    "chain.orbit_reuse": "ratio",
    "output.bytes_written": "bytes",
    "output.write_trace.self_s": "s",
    "trace.overhead_frac": "ratio",
}
FLOOR_REPEATS = 3


def call_main(cli, argv: list[str]):
    """Exit code of one command; None when it raised."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code
    except Exception:
        traceback.print_exc()
        return None


def run_pass(cli, commands, out: Path, tracer=None):
    """One pass over the command list: its wall time, each command's
    latency scaled to the reference CPU speed, and (index, reason) for
    every command that failed its check.

    The reference loop runs between commands; a command's scale is the
    mean of the loop times just before and just after it.
    """
    scaled, codes = [], []
    t0 = perf_counter()
    ref = refmath.reference_seconds()
    for i, cmd in enumerate(commands):
        if tracer is not None:
            tracer.cmd = i
        c0 = perf_counter()
        codes.append(call_main(cli, cmd.argv + ["--out", str(out / f"c{i:03d}")]))
        latency = perf_counter() - c0
        ref_after = refmath.reference_seconds()
        scaled.append(latency * refmath.REFERENCE_NOMINAL_S / (0.5 * (ref + ref_after)))
        ref = ref_after
    wall = perf_counter() - t0
    failures = []
    for i, (cmd, rc) in enumerate(zip(commands, codes)):
        reason = cmd.verify(rc, out / f"c{i:03d}")
        if reason is not None:
            failures.append((i, reason))
    shutil.rmtree(out, ignore_errors=True)
    return wall, scaled, failures


def probe_setup(root: Path, args, work: Path) -> float:
    """Seconds of one set-up in a fresh interpreter (see setup_probe.py)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), args.workload, str(args.seed),
         str(work), "1" if args.tiny else "0"],
        cwd=root, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    shutil.rmtree(work, ignore_errors=True)
    return float(proc.stdout.split()[-1])


def floor_us_per_iter(commands, traced: list[spans.Span]) -> float:
    """Bare-numpy time per Picard step for the solves of one traced pass."""
    solves = [(commands[s.cmd].problem, s.info["power"], s.info["iterations"])
              for s in traced if s.name in spans.SOLVES and "iterations" in s.info]
    iters = sum(n for _, _, n in solves)
    if not iters:
        return 0.0
    totals = [sum(refmath.picard_floor_seconds(*solve) for solve in solves)
              for _ in range(FLOOR_REPEATS)]
    return 1e6 * statistics.median(totals) / iters


def measure(cli, commands, work: Path, seconds: float, trace: bool, probe=None) -> dict:
    """Passes until the next one would overrun `seconds` (at least one).

    Keeps each pass's scaled per-command latencies, untraced and (for a
    traced run, alternating) traced, the spans of each traced pass, and every
    failure. `probe`, when given, times one set-up after each pass, so
    set-up is sampled across the run rather than in one burst.
    """
    runs = {"walls": [], "untraced": [], "traced": [], "spans": [], "failures": [],
            "attempted": 0, "setup": []}
    deadline = perf_counter() + seconds
    n = 0
    while True:
        wall, lat, fails = run_pass(cli, commands, work / f"pass{n}")
        runs["walls"].append(wall)
        runs["untraced"].append(lat)
        runs["failures"] += fails
        runs["attempted"] += len(commands)
        if trace:
            tracer = spans.Tracer()
            tracer.install()
            try:
                traced_wall, lat, fails = run_pass(cli, commands, work / f"traced{n}", tracer)
            finally:
                tracer.restore()
            wall += traced_wall
            runs["traced"].append(lat)
            runs["spans"].append(tracer.spans)
            runs["failures"] += fails
            runs["attempted"] += len(commands)
        if probe is not None:
            runs["setup"].append(probe(work / f"probe{n}"))
            wall += runs["setup"][-1]
        n += 1
        if perf_counter() + wall > deadline:
            return runs


def per_command_median(passes: list[list[float]]) -> list[float]:
    return [statistics.median(lat) for lat in zip(*passes)]


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit(root: Path) -> str:
    """HEAD of the checkout's git repository, read without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def source_sha256(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "rhofix").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(root: Path, args) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "commit": git_commit(root),
        "source_sha256": source_sha256(root),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measurement time of the run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="smallest sizes, for the smoke test")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "rhofix" / "__init__.py").is_file():
        print("bench: no src/rhofix here; run from the root of a rhofix checkout", file=sys.stderr)
        return 2
    results = root / ".bench_runs" / "results"
    work = root / ".bench_runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        cli, commands = workloads.set_up(args.workload, root, args.seed, work / "run", args.tiny)
        probe = None if args.trace else lambda d: probe_setup(root, args, d)
        runs = measure(cli, commands, work / "passes", args.seconds, bool(args.trace), probe)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failures, attempted = runs["failures"], runs["attempted"]
    untraced = per_command_median(runs["untraced"])
    passes = len(runs["untraced"])
    if args.trace:
        per_pass = [spans.layer_metrics(s) for s in runs["spans"]]
        # counts repeat exactly from pass to pass; times are medians
        values = {k: per_pass[0][k] if PER_LAYER[k] in ("count", "bytes")
                  else statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
        values["solver.picard.floor_us_per_iter"] = floor_us_per_iter(commands, runs["spans"][0])
        values["trace.overhead_frac"] = sum(per_command_median(runs["traced"])) / sum(untraced) - 1.0
        units = PER_LAYER
        samples = {k: len(per_pass) for k in units}
        samples["solver.picard.floor_us_per_iter"] = FLOOR_REPEATS
    else:
        values = {
            "setup_s": statistics.median(runs["setup"]),
            "wall_s": sum(untraced),
            "cmd_ms_p50": 1e3 * statistics.median(untraced),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
        # wall_s and cmd_ms_p50 take the median of `passes` samples per command
        samples = {"setup_s": len(runs["setup"]), "wall_s": passes, "cmd_ms_p50": passes,
                   "peak_rss_mb": 1}

    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    info = {
        "env": environment(root, args),
        "samples": samples,
        "commands_per_pass": len(commands),
        "pass_walls_unscaled_s": runs["walls"],  # reference loops included
        "cmd_ms": [1e3 * t for t in untraced],
        "failed_frac": len(failures) / attempted,
        "failures": [{"command": " ".join(commands[i].argv), "reason": r} for i, r in failures[:20]],
    }
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": metrics}

    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps({**info, **result}, indent=2) + "\n")
    if args.trace:
        with (results / f"{stem}-spans.jsonl").open("w") as fh:
            for n, pass_spans in enumerate(runs["spans"]):
                for s in pass_spans:
                    fh.write(json.dumps({"pass": n, **s.record()}) + "\n")

    print(f"{args.workload} seed={args.seed}: " + ", ".join(
        f"{k}={metrics[k]['value']:.6g} {metrics[k]['unit']}" for k in metrics)
        + f", failed_frac={info['failed_frac']:.6g} ({len(failures)}/{attempted})")
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

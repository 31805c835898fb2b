"""Traces the solver streams into their file, against `np.save` of the
trace table a run without a file keeps in memory, byte for byte.

With `file`, `_run_picard` walks its blocks in one table of at most
`_block_cap(d) + 2` rows, appends each block's kept rows to the file and,
however the run ends, rewrites the header it reserved for max_iter + 1
rows for the rows written, moving the rows where the header's padded
length changed. The file must then be `np.save` of the rows judged so
far: after a convergence, a run out of steps, each `SolveError` and any
other exception. The run's returned trace holds the last row alone, with
the row count. CI runs this file again under an older OpenBLAS kernel set
and at numpy's baseline SIMD dispatch.
"""

import io
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import yaml

from rhofix import (
    MapSpec,
    ModularSpec,
    NamedFunctional,
    Phi,
    SolveError,
    load_config,
    picard_solve,
    solve_via_power,
)
from rhofix import solver
from rhofix.cli import main
from rhofix.output import read_trace
from rhofix.solver import _npy_header, _run_picard

from test_golden import CONFIGS, GOLDEN, INLINE_SOLVE_GOLDEN

P1 = ModularSpec.p_power(1.0, 1)
X0 = [1.0, -2.0, 0.5]


def _saved(table: np.ndarray) -> bytes:
    buf = io.BytesIO()
    np.save(buf, table)
    return buf.getvalue()


def _outcome(fn, *args, **kwargs):
    """(trace, error text): the returned trace, or the one an error carries."""
    try:
        return fn(*args, **kwargs), None
    except SolveError as exc:
        return exc.trace, f"{type(exc).__name__}: {exc}"


def _streamed(tmp_path, fn, *args, **kwargs):
    """(file bytes, trace, error text) of a run streamed into a fresh file."""
    path = tmp_path / "trace.npy"
    with open(path, "w+b") as file:
        trace, error = _outcome(fn, *args, file=file, **kwargs)
        assert file.tell() == path.stat().st_size  # left at the end of the table
    return path.read_bytes(), trace, error


def assert_streamed_as_kept(streamed, kept):
    """The streamed run wrote the kept run's table and returned its last row."""
    (data, got, got_error), (want, want_error) = streamed, kept
    assert data == _saved(want.table)
    assert got_error == want_error
    assert (got.converged, got.power, got.k_used, got.iterations, got.rows) == (
        want.converged, want.power, want.k_used, want.iterations, len(want.table))
    assert len(got.table) == 1 and got.table.tobytes() == want.table[-1:].tobytes()
    if want.fixed_point is None:
        assert got.fixed_point is None
    else:
        assert got.fixed_point.tobytes() == want.fixed_point.tobytes()


# --- every golden solve -----------------------------------------------------

GOLDEN_SOLVES = [("config", name) for command, name in sorted(GOLDEN) if command == "solve"] + [
    ("inline", problem) for problem in INLINE_SOLVE_GOLDEN]


@pytest.mark.parametrize("kind,problem", GOLDEN_SOLVES,
                         ids=[p if k == "config" else f"inline{i}"
                              for i, (k, p) in enumerate(GOLDEN_SOLVES)])
def test_golden_solves_stream_np_save_of_the_kept_table(tmp_path, kind, problem):
    if kind == "config":
        config = CONFIGS / f"{problem}.yaml"
    else:
        config = tmp_path / "problem.yaml"
        config.write_text(problem + "\n")
    out = tmp_path / "out"
    assert main(["solve", "--config", str(config), "--quiet", "--out", str(out)]) == 0
    summary = json.loads((out / "solve_summary.json").read_text())
    cfg = load_config(config)
    kept, _ = _outcome(_run_picard, cfg.map, cfg.space, cfg.initial_point, cfg.tol,
                       cfg.max_iter, summary["power"])
    assert (out / "trace.npy").read_bytes() == _saved(kept.table)
    assert summary["iterations"] == kept.iterations


# --- every way a run ends -----------------------------------------------------

ENDINGS = {
    # halving under p = 1 from 1: tol 2**-300 stops at step 300, past three blocks
    "converged": (MapSpec.half(), P1, [1.0], 2.0**-300, 10_000, 1),
    "out of steps": (MapSpec.logistic_damped(0.999), ModularSpec.p_power(1.0, 3), X0, 1e-10, 1_000, 1),
    "max_iter 0": (MapSpec.logistic_damped(0.999), ModularSpec.p_power(1.0, 3), X0, 1e-10, 0, 1),
    "diverged": (MapSpec.affine([[2.0**5]], [0.0]), P1, [1.0], 1e-10, 5_000, 1),
    "diverged on T^3": (MapSpec.affine([[2.0**5]], [0.0]), P1, [1.0], 1e-10, 5_000, 3),
    # from 128 the steps halve and reach 0.5, whose modular 2**-1100
    # underflows, at step 8: the first row of the second block
    "underflowed": (MapSpec.half(), ModularSpec.p_power(1100.0, 1), [128.0], 1e-10, 100, 1),
    "orlicz T^2": (MapSpec.logistic_damped(0.9), ModularSpec.orlicz(Phi.EXP_MINUS_ONE, 3), X0,
                   1e-12, 10_000, 2),
}


@pytest.mark.parametrize("case", list(ENDINGS))
def test_a_streamed_run_writes_np_save_of_the_kept_table(tmp_path, case):
    T, m, x0, tol, max_iter, power = ENDINGS[case]
    kept = _outcome(_run_picard, T, m, x0, tol, max_iter, power)
    assert_streamed_as_kept(_streamed(tmp_path, _run_picard, T, m, x0, tol, max_iter, power), kept)


def test_the_public_solvers_stream_as_they_keep(tmp_path):
    T, m = MapSpec.logistic_damped(0.95), ModularSpec.p_power(1.0, 3)
    assert_streamed_as_kept(_streamed(tmp_path, picard_solve, T, m, X0, 1e-10, 10_000),
                            _outcome(picard_solve, T, m, X0, 1e-10, 10_000))
    assert_streamed_as_kept(_streamed(tmp_path, solve_via_power, T, m, 0.95, X0, 1e-10, 10_000, k=2.0),
                            _outcome(solve_via_power, T, m, 0.95, X0, 1e-10, 10_000, k=2.0))
    # x -> -x: T^2 is the identity, an InconsistentContractionError
    T = MapSpec.affine([[-1.0]], [0.0])
    kept = _outcome(solve_via_power, T, P1, 0.3, [1.0], 1e-10, 50, k=2.0)
    assert kept[1].startswith("InconsistentContractionError")
    assert_streamed_as_kept(_streamed(tmp_path, solve_via_power, T, P1, 0.3, [1.0], 1e-10, 50, k=2.0),
                            kept)


def test_a_stop_on_a_blocks_first_row_reads_the_row_before(tmp_path):
    # x -> S x, S the shift down of 7 coordinates: the orbit is 0 from x_7 on,
    # so row 8, the first row of the second block, stops on a step of 0 at
    # x_8 = x_7: a convergence, which only the row before it can tell from an
    # underflow
    T = MapSpec.affine(np.eye(7, k=-1), np.zeros(7))
    m = ModularSpec.p_power(1.0, 7)
    kept = _outcome(picard_solve, T, m, np.arange(1.0, 8.0), 1e-10, 100)
    assert kept[1] is None and kept[0].converged and kept[0].iterations == 8
    assert_streamed_as_kept(_streamed(tmp_path, picard_solve, T, m, np.arange(1.0, 8.0), 1e-10, 100),
                            kept)


def test_a_run_ended_by_another_exception_leaves_the_rows_judged(tmp_path):
    # the modular's second call raises: the first block's 8 rows were judged
    calls = []

    def failing(a):
        calls.append(len(a))
        if len(calls) == 2:
            raise RuntimeError("functional failed")
        return np.sum(np.abs(a), axis=-1)

    T = MapSpec.logistic_damped(0.999)
    m = NamedFunctional("l1", failing, dim=3, batched=True)
    path = tmp_path / "trace.npy"
    with open(path, "w+b") as file, pytest.raises(RuntimeError, match="functional failed"):
        picard_solve(T, m, X0, 1e-10, 10_000, file=file)
    m = NamedFunctional("l1", lambda a: np.sum(np.abs(a), axis=-1), dim=3, batched=True)
    full = picard_solve(T, m, X0, 1e-10, 10_000)
    assert path.read_bytes() == _saved(full.table[:solver._BLOCK_MIN])
    assert read_trace(path)["n"].size == solver._BLOCK_MIN


@pytest.mark.parametrize("move_bytes", [solver._MOVE_BYTES, 1000])
def test_a_shorter_final_header_moves_the_rows(tmp_path, monkeypatch, move_bytes):
    # numpy pads a header's row count to 21 digits, and a count of more
    # digits lengthens it: 301 rows under a header reserved for 10**k + 1
    # rows, k the least that crosses a 64-byte boundary of the padded
    # header. The rows move in one chunk, or in 1,000-byte chunks
    monkeypatch.setattr(solver, "_MOVE_BYTES", move_bytes)
    d, dtype = 3, solver.IterationTrace.dtype(3)
    max_iter = next(10**k for k in range(21, 100)
                    if len(_npy_header(dtype, 301)) < len(_npy_header(dtype, 10**k + 1)))
    T, m, x0 = MapSpec.half(), ModularSpec.p_power(1.0, d), np.ones(d)
    kept = _outcome(picard_solve, T, m, x0, d * 2.0**-300, max_iter)
    assert kept[0].iterations == 300
    assert_streamed_as_kept(_streamed(tmp_path, picard_solve, T, m, x0, d * 2.0**-300, max_iter),
                            kept)


def test_numpy_pads_the_header_to_one_length():
    # up to 21 digits of rows the reserved header is rewritten in place
    dtype = solver.IterationTrace.dtype(16)
    assert len(_npy_header(dtype, 1)) == len(_npy_header(dtype, 100_001))


def test_a_solve_writes_its_trace_file_whatever_ends_it(tmp_path):
    # the CLI's file after a divergence: the rows up to the non-finite iterate
    cfg = tmp_path / "problem.yaml"
    cfg.write_text(yaml.safe_dump({
        "space": {"family": "ppower", "p": 1.0},
        "map": {"kind": "affine", "matrix": [[32.0]], "offset": [0.0], "c": 0.5},
        "initial_point": [1.0],
    }))
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg), "--quiet", "--out", str(out)]) == 1
    summary = json.loads((out / "solve_summary.json").read_text())
    assert summary["error"].startswith("non-finite iterate")
    kept, _ = _outcome(_run_picard, MapSpec.affine([[32.0]], [0.0]), P1, [1.0], 1e-10, 10_000, 1)
    assert (out / "trace.npy").read_bytes() == _saved(kept.table)


# --- memory ---------------------------------------------------------------------

def _peak(fn) -> int:
    """The tracemalloc peak of fn() above the memory traced at its start."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_a_streamed_solves_peak_does_not_grow_with_its_rows(tmp_path):
    # a slow orbit at d = 16 run out of steps: 8,000 rows and then 40,000;
    # kept in memory the record alone would be 1.2 and 5.8 MB
    T, m = MapSpec.logistic_damped(0.99999), ModularSpec.p_power(1.0, 16)
    x0 = np.random.default_rng(1).uniform(-1.0, 1.0, 16)

    def run(max_iter):
        with open(tmp_path / "trace.npy", "w+b") as file:
            trace = picard_solve(T, m, x0, 1e-10, max_iter, file=file)
        assert trace.iterations == max_iter

    run(8_000)  # numpy's own first-call allocations
    short, long = _peak(lambda: run(8_000)), _peak(lambda: run(40_000))
    assert long <= short + 65_536  # the 32,000 more rows are 4.6 MB


def test_a_streamed_d256_solve_holds_under_a_block_and_a_half(tmp_path):
    # the solve_long d = 256 Orlicz solve: about 2,500 rows, 5 MB on disk
    d = 256
    T, m = MapSpec.logistic_damped(0.995), ModularSpec.orlicz(Phi.EXP_MINUS_ONE, d)
    x0 = np.random.default_rng(7).uniform(-1.0, 1.0, d)

    def run():
        with open(tmp_path / "trace.npy", "w+b") as file:
            assert picard_solve(T, m, x0, 1e-10, 100_000, file=file).converged

    run()
    assert _peak(run) < 1_500_000
    assert Path(tmp_path / "trace.npy").stat().st_size > 4_000_000

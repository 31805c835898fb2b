"""Span tracing of rhofix from outside: wrappers around each layer's public
functions, installed for a traced pass and removed afterwards.

A span records name, start, end, parent span and the id of the command
it ran under. The hottest calls (modular evaluations, map applications,
point sampling) are leaves: each adds a count and a total time to the
span it ran in, instead of a span of its own. Spans stay in memory until
the run writes them out.

Names are patched where they are looked up: `rhofix.cli` imports
`picard_solve`, the checkers and others by name, so every module binding
of a wrapped function is replaced, not only the defining one.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
from time import perf_counter

import numpy as np

LAYERS = ("cli", "config", "modular", "checks", "solver", "chain", "output")

# Public helpers too small to be a layer boundary (their time counts
# toward the caller), and `console`, which only the shell entry point calls.
HELPERS = {"slack_tol", "as_point", "modular_fn", "modular_batch_fn", "modular_dim", "console"}

# (layer, class, method) traced as leaves.
LEAVES = (
    ("modular", "ModularSpec", "evaluate"),
    ("modular", "ModularSpec", "evaluate_batch"),
    ("modular", "NamedFunctional", "evaluate"),
    ("solver", "MapSpec", "apply"),
    ("checks", "PointSampler", "points"),
)
SCALAR_EVALS = ("modular.ModularSpec.evaluate", "modular.NamedFunctional.evaluate")
BATCH_EVAL = "modular.ModularSpec.evaluate_batch"
APPLY = "solver.MapSpec.apply"

CHECKERS = ("checks.check_modular_axioms", "checks.check_s_convexity",
            "checks.delta2_type_estimate", "checks.check_fatou_sampled")
SOLVES = ("solver.picard_solve", "solver.solve_via_power")
ORBIT_PASSES = ("solver.orbit_bound_check", "chain.compute_alpha", "chain.build_chain")
WRITERS = ("output.write_trace", "output.write_certificate", "output.write_json")


class Span:
    __slots__ = ("id", "parent", "cmd", "name", "layer", "start", "end", "child_s",
                 "leaves", "info")

    def __init__(self, sid, parent, cmd, name, layer):
        self.id, self.parent, self.cmd, self.name, self.layer = sid, parent, cmd, name, layer
        self.start = self.end = 0.0
        self.child_s = 0.0      # time covered by child spans and leaves
        self.leaves = {}        # leaf name -> [calls, seconds, rows]
        self.info = {}          # counts read off arguments and results

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def record(self) -> dict:
        return {"id": self.id, "parent": self.parent, "cmd": self.cmd, "name": self.name,
                "start": self.start, "end": self.end, "leaves": self.leaves, "info": self.info}


def _trace_of(result, exc):
    if result is not None:
        return result
    return getattr(exc, "trace", None)


def _info_trials(info, args, result, exc):
    info["trials"] = int(args["trials"])


def _info_fatou(info, args, result, exc):
    if result is not None:
        info["trials"] = int(result.trials)


def _info_solve(info, args, result, exc):
    trace = _trace_of(result, exc)
    if trace is not None:
        info["iterations"] = int(trace.iterations)
        info["power"] = int(trace.power)
        info["dim"] = int(np.size(args["x0"]))


def _info_chain(info, args, result, exc):
    info["N"] = int(args["N"])


def _info_pairs(info, args, result, exc):
    n = args["cert"].length
    info["pairs"] = n * (n + 1) // 2


def _info_written(info, args, result, exc):
    path = os.fspath(args["path"])
    if os.path.exists(path):
        info["bytes"] = os.path.getsize(path)


INFO = {
    "checks.check_modular_axioms": _info_trials,
    "checks.check_s_convexity": _info_trials,
    "checks.delta2_type_estimate": _info_trials,
    "checks.check_fatou_sampled": _info_fatou,
    "solver.verify_contraction": _info_trials,
    "solver.picard_solve": _info_solve,
    "solver.solve_via_power": _info_solve,
    "chain.build_chain": _info_chain,
    "chain.verify_order_pairs": _info_pairs,
    **{name: _info_written for name in WRITERS},
}


class Tracer:
    """Installs span and leaf wrappers into the loaded rhofix modules."""

    def __init__(self):
        self.spans: list[Span] = []
        self.cmd = -1
        self._stack: list[Span] = []
        self._in_leaf = False
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def _span_wrapper(self, layer: str, name: str, fn):
        tracer, info_fn = self, INFO.get(name)
        sig = inspect.signature(fn) if info_fn else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            span = Span(len(tracer.spans), parent.id if parent else None, tracer.cmd, name, layer)
            tracer.spans.append(span)
            stack.append(span)
            result = exc = None
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                exc = e
                raise
            finally:
                span.end = perf_counter()
                stack.pop()
                if parent is not None:
                    parent.child_s += span.end - span.start
                if info_fn is not None:
                    info_fn(span.info, sig.bind(*args, **kwargs).arguments, result, exc)

        return wrapper

    def _leaf_wrapper(self, name: str, fn, rows: bool):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._in_leaf or not tracer._stack:  # inside a leaf: counted by the outer one
                return fn(*args, **kwargs)
            tracer._in_leaf = True
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                tracer._in_leaf = False
                top = tracer._stack[-1]
                agg = top.leaves.get(name)
                if agg is None:
                    agg = top.leaves[name] = [0, 0.0, 0]
                agg[0] += 1
                agg[1] += dt
                if rows:
                    agg[2] += len(args[1])
                top.child_s += dt

        return wrapper

    # -- install / restore ------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every public function of each layer module, at every
        rhofix module binding, and the leaf methods."""
        mods = {n: m for n, m in sys.modules.items() if n == "rhofix" or n.startswith("rhofix.")}
        for layer in LAYERS:
            mod = mods[f"rhofix.{layer}"]
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or attr in HELPERS or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapper = self._span_wrapper(layer, f"{layer}.{attr}", fn)
                for m in mods.values():
                    for bound_name, value in list(vars(m).items()):
                        if value is fn:
                            self._patch(m, bound_name, wrapper)
        for layer, cls_name, meth in LEAVES:
            cls = getattr(mods[f"rhofix.{layer}"], cls_name)
            name = f"{layer}.{cls_name}.{meth}"
            self._patch(cls, meth, self._leaf_wrapper(name, cls.__dict__[meth], name == BATCH_EVAL))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def leaf_layer(name: str) -> str:
    return name.split(".", 1)[0]


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced pass. Ratios with nothing to divide
    by (no Picard solve in the workload, say) read 0."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)

    def inclusive(span: Span, leaves: tuple[str, ...]) -> int:
        n = sum(span.leaves[k][0] for k in leaves if k in span.leaves)
        return n + sum(inclusive(c, leaves) for c in children.get(span.id, ()))

    def leaf_total(names, field):
        return sum(s.leaves[k][field] for s in spans for k in names if k in s.leaves)

    def named(names):
        return [s for s in spans if s.name in names]

    def ratio(a, b, scale=1.0):
        return scale * a / b if b else 0.0

    out: dict[str, float] = {}
    self_s = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        self_s[s.layer] += s.seconds - s.child_s
        for k, (_, secs, _) in s.leaves.items():
            self_s[leaf_layer(k)] += secs
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s[layer]

    evals, eval_s = leaf_total(SCALAR_EVALS, 0), leaf_total(SCALAR_EVALS, 1)
    rows, batch_s = leaf_total((BATCH_EVAL,), 2), leaf_total((BATCH_EVAL,), 1)
    out["modular.evaluate.calls"] = evals
    out["modular.us_per_eval"] = ratio(eval_s, evals, 1e6)
    out["modular.evaluate_batch.rows"] = rows
    out["modular.us_per_row"] = ratio(batch_s, rows, 1e6)

    checkers = named(CHECKERS)
    trials = sum(s.info.get("trials", 0) for s in checkers)
    out["checks.trials"] = trials
    out["checks.us_per_trial"] = ratio(sum(s.seconds for s in checkers), trials, 1e6)

    verify = named(("solver.verify_contraction",))
    v_trials = sum(s.info["trials"] for s in verify)
    out["solver.verify_contraction.trials"] = v_trials
    out["solver.verify_contraction.us_per_trial"] = ratio(sum(s.seconds for s in verify), v_trials, 1e6)

    solves = named(SOLVES)
    iters = sum(s.info.get("iterations", 0) for s in solves)
    out["solver.picard.iterations"] = iters
    out["solver.picard.us_per_iter"] = ratio(sum(s.seconds for s in solves), iters, 1e6)
    out["solver.picard.rho_evals_per_iter"] = ratio(sum(inclusive(s, SCALAR_EVALS) for s in solves), iters)
    out["solver.apply.calls"] = leaf_total((APPLY,), 0)
    out["solver.power_path_share"] = ratio(len(named(("solver.solve_via_power",))), len(solves))
    out["solver.trace_bytes"] = sum(s.info.get("iterations", 0) * s.info.get("dim", 0) * 8
                                    for s in solves)

    pairs_spans = named(("chain.verify_order_pairs",))
    pairs = sum(s.info["pairs"] for s in pairs_spans)
    out["chain.pairs"] = pairs
    out["chain.us_per_pair"] = ratio(sum(s.seconds for s in pairs_spans), pairs, 1e6)
    chain_n = sum(s.info["N"] for s in named(("chain.build_chain",)))
    orbit_applies = sum(inclusive(s, (APPLY,)) for s in named(ORBIT_PASSES))
    out["chain.orbit_reuse"] = ratio(chain_n, orbit_applies)

    out["output.bytes_written"] = sum(s.info.get("bytes", 0) for s in named(WRITERS))
    out["output.write_trace.self_s"] = sum(s.seconds - s.child_s for s in named(("output.write_trace",)))
    return out

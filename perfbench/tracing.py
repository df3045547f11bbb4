"""Per-layer spans recorded from outside the program.

``Tracer.install()`` replaces each listed public function with a wrapper
that records a span (layer, start, end, parent span, operation id, counts)
in every ``mimdp`` module that binds it by name -- ``mimdp.synthesis``, for
one, imports ``build_model``, ``instantiate``, ``reach_prob``,
``expected_cost``, ``solve_lp`` and ``transform_all`` into its own
namespace.  ``uninstall()`` puts every original back.  Spans stay in
memory; ``layer_metrics()`` reduces them at the end.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict


def _product(values) -> int:
    out = 1
    for v in values:
        out *= len(v)
    return out


def _lp_counts(args, kwargs, result):
    lp = args[0]
    return {"vars": lp.num_vars, "rows": len(lp.constraints),
            "infeasible": int(result.status == "infeasible")}


def _build_counts(args, kwargs, result):
    return {"states": result.num_states, "transitions": result.num_transitions}


def _wd_counts(args, kwargs, result):
    return {"valuations": _product(args[0].parameters.values()), "kept": len(result)}


def _sweep_counts(args, kwargs, result):
    return {"sweeps": result[0].iterations}


def _cbr_counts(args, kwargs, result):
    bound = args[2] if len(args) > 2 else kwargs["bound"]
    return {"product_states": args[0].num_states * (bound + 1)}


def _transform_counts(args, kwargs, result):
    return {"fresh_actions": len(result[1].fresh_actions)}


def _parse_counts(args, kwargs, result):
    return {"bytes": len(args[0].encode("utf-8"))}


def _enumerate_counts(args, kwargs, result):
    return {"configs": len(result.table),
            "feasible": sum(1 for e in result.table if e.feasible),
            "flags": len(result.flags)}


def _flag_counts(args, kwargs, result):
    return {"flags": len(result.flags)}


# (module, public function) -> (layer, counts taken from arguments and result)
SPANNED = {
    ("mimdp.parser", "parse_program"): ("parser", _parse_counts),
    ("mimdp.shipyard", "generate_program"): ("shipyard", None),
    ("mimdp.transform", "transform_all"): ("transform", _transform_counts),
    ("mimdp.transform", "transform_rewards"): ("transform", None),
    ("mimdp.transform", "transform_probabilities"): ("transform", None),
    ("mimdp.transform", "add_control"): ("transform", None),
    ("mimdp.models", "build_model"): ("models.build", _build_counts),
    ("mimdp.models", "instantiate"): ("models.instantiate", None),
    ("mimdp.models", "well_defined_valuations"): ("models.wd", _wd_counts),
    ("mimdp.checking", "reach_prob"): ("checking.reach", _sweep_counts),
    ("mimdp.checking", "expected_cost"): ("checking.ec", _sweep_counts),
    ("mimdp.checking", "cost_bounded_reach"): ("checking.cbr", _cbr_counts),
    ("mimdp.lp", "solve_lp"): ("lp", _lp_counts),
    ("mimdp.synthesis", "constrained_mdp_lp"): ("synthesis.lp", None),
    ("mimdp.synthesis", "synthesize_enumerate"): ("synthesis.enumerate", _enumerate_counts),
    ("mimdp.synthesis", "synthesize_transformed"): ("synthesis.transformed", _flag_counts),
    ("mimdp.synthesis", "synthesize"): ("synthesis", None),
}

# eval_expr recurses through its own module, so only the top-level calls
# made by these modules are counted, and without spans: there are millions
COUNTED = {("mimdp.expressions", "eval_expr"): ("mimdp.models", "mimdp.synthesis")}

OP_LAYER = "op"
SETUP_LAYERS = ("parser", "shipyard")

# per-layer metric -> (unit, better); counts and times are per operation,
# parser and shipyard ones per set-up, *_max over the run
METRICS = {
    "lp.calls": ("count", "lower"),
    "lp.self_s": ("s", "lower"),
    "lp.vars_max": ("count", "lower"),
    "lp.rows_max": ("count", "lower"),
    "lp.infeasible": ("count", "lower"),
    "synthesis.lp.calls": ("count", "lower"),
    "synthesis.lp.self_s": ("s", "lower"),
    "synthesis.transformed.nodes": ("count", "lower"),
    "synthesis.transformed.self_s": ("s", "lower"),
    "synthesis.flags": ("count", "lower"),
    "synthesis.enumerate.configs": ("count", "lower"),
    "synthesis.enumerate.feasible_ratio": ("ratio", "higher"),
    "synthesis.enumerate.self_s": ("s", "lower"),
    "models.build.calls": ("count", "lower"),
    "models.build.self_s": ("s", "lower"),
    "models.build.states": ("count", "lower"),
    "models.build.transitions": ("count", "lower"),
    "models.instantiate.calls": ("count", "lower"),
    "models.instantiate.self_s": ("s", "lower"),
    "expressions.eval_calls": ("count", "lower"),
    "models.wd.self_s": ("s", "lower"),
    "models.wd.valuations": ("count", "lower"),
    "models.wd.kept_ratio": ("ratio", "higher"),
    "checking.reach.calls": ("count", "lower"),
    "checking.reach.self_s": ("s", "lower"),
    "checking.reach.sweeps": ("count", "lower"),
    "checking.ec.calls": ("count", "lower"),
    "checking.ec.self_s": ("s", "lower"),
    "checking.ec.sweeps": ("count", "lower"),
    "checking.cbr.calls": ("count", "lower"),
    "checking.cbr.self_s": ("s", "lower"),
    "checking.cbr.product_states": ("count", "lower"),
    "transform.self_s": ("s", "lower"),
    "transform.fresh_actions": ("count", "lower"),
    "parser.self_s": ("s", "lower"),
    "parser.bytes": ("bytes", "lower"),
    "shipyard.generate_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}


def _mimdp_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "mimdp" or name.startswith("mimdp."))]


class Tracer:
    """Spans as lists [layer, start, end, parent, op, counts]."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.op = -1  # -1 while setting up
        self.eval_calls: dict = defaultdict(int)
        self.patched: list = []  # (module, attribute, original)

    # -- recording

    def open(self, layer: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([layer, time.perf_counter(), None, parent, self.op, None])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        popped = self.stack.pop()
        assert popped == index, "spans closed out of order"

    def _spanning(self, layer, counter, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.open(layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(index)
                raise
            self.close(index)
            if counter is not None:
                self.spans[index][5] = counter(args, kwargs, result)
            return result

        return wrapper

    def _counting(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.eval_calls[self.op] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching

    def _patch(self, original, replacement, modules) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self.patched.append((module, attr, original))

    def install(self) -> None:
        if self.patched:
            raise RuntimeError("tracer already installed")
        try:
            for (mod_name, fn_name), (layer, counter) in SPANNED.items():
                original = getattr(importlib.import_module(mod_name), fn_name)
                self._patch(original, self._spanning(layer, counter, original),
                            _mimdp_modules())
            for (mod_name, fn_name), users in COUNTED.items():
                original = getattr(importlib.import_module(mod_name), fn_name)
                self._patch(original, self._counting(original),
                            [importlib.import_module(u) for u in users])
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self.patched:
            module, attr, original = self.patched.pop()
            setattr(module, attr, original)

    # -- reduction

    def self_times(self) -> list:
        """Each span's duration minus the time its child spans cover
        (children of one span never overlap: the program is single-threaded)."""
        out = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                out[s[3]] -= s[2] - s[1]
        return out

    def layer_metrics(self, ops: int, setups: int, overhead_frac: float) -> dict:
        selfs = self.self_times()
        calls = defaultdict(int)
        self_s = defaultdict(float)
        sums = defaultdict(float)
        maxes = defaultdict(float)
        nodes_per_query = []
        for i, (layer, _, _, parent, op, counts) in enumerate(self.spans):
            in_setup = op < 0
            if in_setup != (layer in SETUP_LAYERS):
                continue
            calls[layer] += 1
            self_s[layer] += selfs[i]
            for key, value in (counts or {}).items():
                sums[f"{layer}.{key}"] += value
                maxes[f"{layer}.{key}"] = max(maxes[f"{layer}.{key}"], value)
            if layer == "synthesis.lp":
                # attribute the node to the innermost enclosing transformed query
                j = parent
                while j >= 0 and self.spans[j][0] != "synthesis.transformed":
                    j = self.spans[j][3]
                if j >= 0:
                    sums["nodes"] += 1
        queries = calls["synthesis.transformed"]

        def per_op(x):
            return x / ops if ops else 0.0

        def per_setup(x):
            return x / setups if setups else 0.0

        def ratio(a, b):
            return a / b if b else 0.0

        m = {
            "lp.calls": per_op(calls["lp"]),
            "lp.self_s": per_op(self_s["lp"]),
            "lp.vars_max": maxes["lp.vars"],
            "lp.rows_max": maxes["lp.rows"],
            "lp.infeasible": per_op(sums["lp.infeasible"]),
            "synthesis.lp.calls": per_op(calls["synthesis.lp"]),
            "synthesis.lp.self_s": per_op(self_s["synthesis.lp"]),
            "synthesis.transformed.nodes": ratio(sums["nodes"], queries),
            "synthesis.transformed.self_s": per_op(self_s["synthesis.transformed"]),
            "synthesis.flags": per_op(sums["synthesis.transformed.flags"]
                                      + sums["synthesis.enumerate.flags"]),
            "synthesis.enumerate.configs": per_op(sums["synthesis.enumerate.configs"]),
            "synthesis.enumerate.feasible_ratio": ratio(
                sums["synthesis.enumerate.feasible"], sums["synthesis.enumerate.configs"]),
            "synthesis.enumerate.self_s": per_op(self_s["synthesis.enumerate"]),
            "models.build.calls": per_op(calls["models.build"]),
            "models.build.self_s": per_op(self_s["models.build"]),
            "models.build.states": per_op(sums["models.build.states"]),
            "models.build.transitions": per_op(sums["models.build.transitions"]),
            "models.instantiate.calls": per_op(calls["models.instantiate"]),
            "models.instantiate.self_s": per_op(self_s["models.instantiate"]),
            "expressions.eval_calls": per_op(sum(
                n for op, n in self.eval_calls.items() if op >= 0)),
            "models.wd.self_s": per_op(self_s["models.wd"]),
            "models.wd.valuations": per_op(sums["models.wd.valuations"]),
            "models.wd.kept_ratio": ratio(sums["models.wd.kept"], sums["models.wd.valuations"]),
            "checking.reach.calls": per_op(calls["checking.reach"]),
            "checking.reach.self_s": per_op(self_s["checking.reach"]),
            "checking.reach.sweeps": per_op(sums["checking.reach.sweeps"]),
            "checking.ec.calls": per_op(calls["checking.ec"]),
            "checking.ec.self_s": per_op(self_s["checking.ec"]),
            "checking.ec.sweeps": per_op(sums["checking.ec.sweeps"]),
            "checking.cbr.calls": per_op(calls["checking.cbr"]),
            "checking.cbr.self_s": per_op(self_s["checking.cbr"]),
            "checking.cbr.product_states": per_op(sums["checking.cbr.product_states"]),
            "transform.self_s": per_op(self_s["transform"]),
            "transform.fresh_actions": per_op(sums["transform.fresh_actions"]),
            "parser.self_s": per_setup(self_s["parser"]),
            "parser.bytes": per_setup(sums["parser.bytes"]),
            "shipyard.generate_s": per_setup(self_s["shipyard"]),
            "trace.overhead_frac": overhead_frac,
        }
        assert tuple(m) == tuple(METRICS)
        return m

    def self_time_shares(self) -> dict:
        """Self seconds per layer inside the operations, harness root included."""
        out = defaultdict(float)
        for span, own in zip(self.spans, self.self_times()):
            if span[4] >= 0:
                out[span[0]] += own
        return dict(out)

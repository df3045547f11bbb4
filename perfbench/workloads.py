"""The benchmark workloads.

``SETUPS[name](seed)`` generates, parses and builds a workload's inputs and
loads its references; it returns a ``Workload`` whose ``ops`` make one round
of the closed loop.  Each op calls the library through its module attribute
at call time, so the tracer's patched bindings are the ones that run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, List

from mimdp import checking, models, parser, program, shipyard, synthesis, transform

import gen
import oracle

ROOT = Path(__file__).resolve().parent.parent
RETRY_MODEL = ROOT / "models" / "retry_channel.mgcl"
RETRY_RETRIES = 200
RETRY_COST_LIMIT = 20
SHIPYARD_MISSIONS = 1
SHIPYARD_FAMILIES = {"shipyard-uniform": False, "shipyard-per-sensor": True}
# shipyard-family keeps two of the eight false-positive rates: 360 of the
# 1440 per-sensor configurations, so a run repeats each operation often
FAMILY_FP = ("0.2", "0.9")
RANDOM_PROGRAMS = 100


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], None]  # raises oracle.Mismatch on a wrong answer
    answer: Callable[[Any], Any]  # a comparable summary of the result


@dataclass
class Workload:
    name: str
    ops: List[Op]
    inputs: dict = field(default_factory=dict)


def shipyard_text(per_sensor: bool) -> str:
    config = shipyard.ShipyardConfig(missions=SHIPYARD_MISSIONS)
    return shipyard.generate_program(config, parametric=True, per_sensor_grades=per_sensor)


def synthesis_answer(result) -> tuple:
    valuation = None
    if result.valuation is not None:
        valuation = tuple((p, str(v)) for p, v in result.valuation.items())
    return (result.method, result.feasible, valuation, result.expected_cost,
            result.reach_probability, tuple(result.flags))


def restrict_fp(text: str, keep=FAMILY_FP) -> str:
    """The model with its ``fp`` domain cut to ``keep``; every configuration
    left is built and checked exactly as in the whole family."""
    line = next((l for l in text.splitlines() if l.startswith("param fp in {")), None)
    if line is None:
        raise ValueError("the shipyard model declares no 'param fp in {...};'")
    return text.replace(line, "param fp in {" + ", ".join(keep) + "};")


def _shipyard(name: str, seed: int, per_sensor: bool, method: str, lam_range,
              fp=None) -> Workload:
    rng = random.Random(seed)
    family = "shipyard-per-sensor" if per_sensor else "shipyard-uniform"
    text = shipyard_text(per_sensor)
    table = oracle.load_table(family, text)
    if fp is not None:
        text = restrict_fp(text, fp)
        table = [row for row in table if row[0]["fp"] in {Fraction(v) for v in fp}]
    prog = parser.parse_program(text)
    lam = Fraction(rng.randint(*lam_range), 1000)
    if oracle.optimum(table, float(lam)) is None:
        raise ValueError(f"bound {lam} has no feasible configuration")
    query = synthesis.SynthesisQuery("failure", lam, "done", method)

    if method == "transformed":
        def run():
            return synthesis.synthesize_transformed(prog, query)

        def check(result):
            oracle.check_answer(result, table, float(lam))
    else:
        def run():
            return synthesis.synthesize_enumerate(prog, query)

        def check(result):
            oracle.check_answer(result, table, float(lam))
            oracle.check_table(result, table, float(lam))

    op = Op(f"{method} lambda={lam}", run, check, synthesis_answer)
    return Workload(name, [op], {"lambda": str(lam), "configurations": len(table)})


def shipyard_transformed(seed: int) -> Workload:
    # bounds from 0.018 up leave the unconstrained optimum (failure
    # probability 0.01765) feasible: nine LPs per query at any drawn bound
    return _shipyard("shipyard-transformed", seed, False, "transformed", (18, 60))


def shipyard_family(seed: int) -> Workload:
    # every bound from 0.003 up has a feasible configuration
    return _shipyard("shipyard-family", seed, True, "enumerate", (3, 60), FAMILY_FP)


def retry_text(retries: int = RETRY_RETRIES) -> str:
    text = RETRY_MODEL.read_text(encoding="utf-8")
    scaled = text.replace("const retries = 40;", f"const retries = {retries};")
    if scaled == text:
        raise ValueError(f"{RETRY_MODEL} does not declare 'const retries = 40;'")
    return scaled


def capturing(fn_name: str, call: Callable[[], Any]):
    """Run ``call()`` while recording each (model, per-state values) that
    ``checking.<fn_name>`` returns inside it; returns (result, records).
    ``check_spec`` and ``cost_bounded_reach`` look the function up in the
    checking module at call time, so patching that one binding suffices."""
    inner = getattr(checking, fn_name)
    records = []

    def capture(model, *args, **kwargs):
        vec, strategy = inner(model, *args, **kwargs)
        records.append((model, vec.values))
        return vec, strategy

    setattr(checking, fn_name, capture)
    try:
        return call(), records
    finally:
        setattr(checking, fn_name, inner)


def retry_check(seed: int, retries: int = RETRY_RETRIES) -> Workload:
    rng = random.Random(seed)
    prog = parser.parse_program(retry_text(retries))
    loss_values = prog.parameters["loss"]
    loss = rng.choice(loss_values)
    chain = models.build_model(prog, {"loss": loss})
    controlled, _ = transform.transform_all(prog)
    mdp = models.build_model(controlled, on_deadlock="absorb")
    expected = oracle.retry_closed_forms(loss, retries, RETRY_COST_LIMIT, loss_values)

    ops = []
    for (kind, prop), form in expected.items():
        model = chain if kind == "chain" else mdp
        spec = checking.parse_property(prop)
        name = f"{kind} {prop}"
        # the per-state values come from the solver call the check makes
        # (for the cost-bounded property, on the budget product)
        solver = "expected_cost" if prop.startswith("EC") else "reach_prob"

        def run(model=model, spec=spec, solver=solver):
            return capturing(solver, lambda: checking.check_spec(model, spec)[1])

        def check(out, form=form, name=name, solver=solver):
            value, records = out
            if len(records) != 1:
                raise oracle.Mismatch(f"{name}: {len(records)} calls of {solver}, expected 1")
            solved, values = records[0]
            initial = dict(zip(solved.var_names, solved.states[solved.initial]))
            oracle.check_value(value, form(initial), name)
            oracle.check_vector(solved, values, form, name)

        ops.append(Op(name, run, check, lambda out: out[0]))
    inputs = {"loss": str(loss), "retries": retries,
              "chain_states": chain.num_states, "mdp_states": mdp.num_states}
    return Workload("retry-check", ops, inputs)


def _check_synthesis(results, query) -> None:
    enum = results[0]
    best = oracle.optimum(
        [(e.valuation, e.expected_cost, e.reach_probability) for e in enum.table],
        float(query.bound),
    )
    oracle.check_answer(enum, [best] if best else [], float(query.bound))
    if enum.feasible and not enum.reach_probability <= float(query.bound) + oracle.AGREEMENT_TOL:
        raise oracle.Mismatch(f"answer exceeds the bound {query.bound}")


def random_synth(seed: int, count: int = RANDOM_PROGRAMS) -> Workload:
    ops = []
    for i, (generated, query) in enumerate(gen.random_corpus(seed, count)):
        prog = parser.parse_program(program.pretty(generated))

        def run(prog=prog, query=query):
            return synthesis.synthesize(prog, query)

        def check(results, query=query):
            _check_synthesis(results, query)

        def answer(results):
            return tuple(synthesis_answer(r) for r in results)

        ops.append(Op(f"program {i} lambda={query.bound}", run, check, answer))
    return Workload("random-synth", ops, {"programs": count})


SETUPS = {
    "shipyard-transformed": shipyard_transformed,
    "shipyard-family": shipyard_family,
    "retry-check": retry_check,
    "random-synth": random_synth,
}

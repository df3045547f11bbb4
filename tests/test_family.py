"""Differential tests of the batched check of chain families: enumeration
checks each support group of a chain family as one stack and must return
exactly what the former route, which instantiated and checked every
configuration on its own (``oracles.seed_synthesize_enumerate``), returns."""

import random
from dataclasses import replace
from fractions import Fraction as F

import numpy as np
import pytest

import oracles
from generators import random_mimdp_program
from mimdp import checking, models, shipyard, synthesis
from mimdp.checking import expected_cost, reach_prob
from mimdp.models import build_model, instantiate, well_defined_entries
from mimdp.parser import parse_program
from mimdp.synthesis import SynthesisQuery, synthesize_enumerate


def _outcome(route, program, query):
    try:
        return route(program, query)
    except Exception as e:  # the error itself is part of the outcome
        return type(e), str(e)


def _same_as_the_former_route(program, query):
    got = _outcome(synthesize_enumerate, program, query)
    want = _outcome(oracles.seed_synthesize_enumerate, program, query)
    assert got == want
    return got


def _is_chain_family(program) -> bool:
    return all(len(row) == 1 for row in build_model(program).choices)


def _random_families():
    """20 random chain families and 20 random MDP families."""
    rng = random.Random(31)
    chains, mdps = [], []
    while len(chains) < 20 or len(mdps) < 20:
        program, query = random_mimdp_program(rng, max_states=rng.choice((6, 14)))
        pool = chains if _is_chain_family(program) else mdps
        if len(pool) < 20:
            pool.append((program, query))
    return chains + mdps


def _queries(query):
    yield query
    for lam in (F(1), F(1, 10)):
        yield SynthesisQuery(query.target, lam, query.goal)


def test_random_families_equal_the_former_route():
    feasible = chains = 0
    for program, query in _random_families():
        chains += _is_chain_family(program)
        for q in _queries(query):
            got = _same_as_the_former_route(program, q)
            feasible += not isinstance(got, tuple) and got.feasible
    assert chains == 20 and feasible > 40


def test_random_mdp_families_synthesise_as_the_former_routes(monkeypatch):
    """On the random MDP families, ``synthesize(method="both")`` gives
    exactly what it gives with the former enumeration route patched in and
    the former LP answering branch-and-bound's nodes."""
    feasible = nodes = 0

    def former_lp(*args, check=True):  # the former LP checks at every node
        nonlocal nodes
        nodes += 1
        return oracles.seed_occupation_lp(*args)

    for program, query in _random_families():
        if _is_chain_family(program):
            continue
        for q in _queries(query):
            got = _outcome(synthesis.synthesize, program, q)
            with monkeypatch.context() as former:
                former.setattr(synthesis, "synthesize_enumerate", oracles.seed_synthesize_enumerate)
                former.setattr(synthesis, "_occupation_lp", former_lp)
                assert _outcome(synthesis.synthesize, program, q) == got
            feasible += not isinstance(got, tuple) and got[0].feasible
    assert feasible > 20 and nodes > 20


def test_bundled_families_equal_the_former_route(two_stage, die):
    for lam in ("0.1", "0.2", "0.5", "1"):
        _same_as_the_former_route(two_stage, SynthesisQuery("s2", F(lam), "absorb"))
    for lam in ("0.1", "0.15", "0.2", "1"):
        _same_as_the_former_route(die, SynthesisQuery("one", F(lam), "rolled"))


def _shipyard(per_sensor: bool):
    text = shipyard.generate_program(
        shipyard.ShipyardConfig(missions=1), True, per_sensor_grades=per_sensor
    )
    if per_sensor:
        line = next(l for l in text.splitlines() if l.startswith("param fp in {"))
        text = text.replace(line, "param fp in {0.2, 0.9};")
    return parse_program(text)


@pytest.mark.parametrize("per_sensor", [False, True], ids=["uniform", "per-sensor-fp-cut"])
def test_shipyard_families_equal_the_former_route(per_sensor):
    program = _shipyard(per_sensor)
    for lam in ("0.003", "0.03"):
        got = _same_as_the_former_route(program, SynthesisQuery("failure", F(lam), "done"))
        assert got.feasible and len(got.table) == 360


# a branch whose probability is zero for some valuations: two support
# groups, and in one of them the goal is not reached almost surely
VARYING_SUPPORT = """
param p in {0, 0.5, 0.25};
module m
  s : [0..2] init 0;
  [] s=0 -> p:(s'=1) + 1-p:(s'=2);
  [] s>0 -> true;
endmodule
rewards
  s=0 : 1 + p;
endrewards
label "t" = s=1;
label "g" = s=2;
"""

# with p = 0.9997 value iteration stops far from the fixpoint, so the
# former checker, which iterated chains, rejected both polish steps and kept
# the iteration values; with p = 0.5 it accepted them.  A chain is now
# solved, and both configurations get their exact values
SLOW_SELF_LOOP = """
param p in {0.5, 0.9997};
module m
  s : [0..2] init 0;
  [] s=0 -> p:(s'=0) + (1-p)/2:(s'=1) + (1-p)/2:(s'=2);
  [] s>0 -> true;
endmodule
rewards
  s=0 : 1;
endrewards
label "t" = s=1;
label "g" = s>0;
"""

DIVIDES_BY_ZERO = """
param p in {0.5, 0};
module m
  s : [0..1] init 0;
  [] s=0 -> p/(2*p):(s'=1) + 1/2:(s'=0);
  [] s=1 -> true;
endmodule
label "t" = s=1;
"""

NOTHING_WELL_DEFINED = """
param p in {0.3, 0.6};
module m
  s : [0..1] init 0;
  [] s=0 -> p:(s'=1) + p:(s'=0);
  [] s=1 -> true;
endmodule
label "t" = s=1;
"""


def test_a_varying_support_and_an_undefined_cost_group():
    program = parse_program(VARYING_SUPPORT)
    model = build_model(program)
    supports = {tuple(p != 0 for p, _ in probs) for _, probs, _ in well_defined_entries(model)}
    assert len(supports) == 2
    for lam in ("0.5", "1"):
        got = _same_as_the_former_route(program, SynthesisQuery("t", F(lam), "g"))
        costs = [e.expected_cost for e in got.table]
        assert costs == [1.0, np.inf, np.inf]
    assert got.valuation == {"p": F(0)}


def test_one_rejected_polish_next_to_accepted_ones():
    # the configuration whose polish the former checker rejected, next to
    # one whose polish it accepted: both are exact up to rounding
    got = _same_as_the_former_route(parse_program(SLOW_SELF_LOOP), SynthesisQuery("t", F(1), "g"))
    accepted, rejected = got.table
    assert accepted.reach_probability == 0.5 and accepted.expected_cost == 2.0
    assert abs(rejected.reach_probability - 0.5) <= 1e-12 * 0.5
    want = 1 / (1 - F("0.9997"))  # 10000/3 visits of s=0
    assert abs(rejected.expected_cost - float(want)) <= 1e-12 * float(want)


def test_each_row_of_a_stack_stops_where_its_configuration_alone_stops():
    # one support group whose rows the former checker iterated for about
    # 30, 180 and 1800 sweeps: each row is solved, as its configuration
    # alone is
    model = build_model(parse_program(SLOW_SELF_LOOP.replace("0.5, 0.9997", "0.5, 0.9, 0.99")))
    entries = list(oracles.fraction_entries(model))
    support = tuple(map(bool, entries[0][1]))
    probs = [[float(p) for p, edge in zip(row, support) if edge] for _, row, _ in entries]
    arr = checking._Arrays(model, support, probs)
    cost = np.array([[float(c) for c in costs] for _, _, costs in entries])
    target, goal = checking._target_set(model, "t"), checking._target_set(model, "g")
    stacks = [
        (checking._reach(arr, target, "max", True, len(entries), checking.DEFAULT_TOL),
         reach_prob, "t"),
        (checking._expected(model, arr, goal, cost, "min", True, checking.DEFAULT_TOL),
         expected_cost, "g"),
    ]
    for (x, sweeps, residual, polished, _), alone, label in stacks:
        assert (sweeps, residual, polished) == (0, 0.0, True)
        for row, (u, _, _) in enumerate(entries):
            vec, _ = alone(instantiate(model, u), label)
            assert np.array_equal(x[row], vec.values)
            assert (vec.iterations, vec.residual, vec.polished) == (0, 0.0, True)


@pytest.mark.parametrize("source", [DIVIDES_BY_ZERO, NOTHING_WELL_DEFINED])
def test_errors_equal_the_former_route(source):
    got = _same_as_the_former_route(parse_program(source), SynthesisQuery("t", F(1), "t"))
    assert isinstance(got, tuple)


def test_a_parameter_free_chain_equals_the_former_route():
    fixed = parse_program(VARYING_SUPPORT.replace("param p in {0, 0.5, 0.25};", "const p = 1/2;"))
    assert build_model(fixed).kind == "mc"
    for lam in ("0.1", "1"):
        _same_as_the_former_route(fixed, SynthesisQuery("t", F(lam), "g"))


def test_chain_families_are_checked_once_per_support_group(monkeypatch):
    built = []

    class Counted(checking._Arrays):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    def per_configuration(*_, **__):
        raise AssertionError("a chain family is not checked per configuration")

    reads = []
    inner_read = models._Entries.read

    def counted_read(self, *args):
        reads.append(args)
        return inner_read(self, *args)

    monkeypatch.setattr(checking, "_Arrays", Counted)
    monkeypatch.setattr(models._Entries, "read", counted_read)
    monkeypatch.setattr(synthesis, "reach_prob", per_configuration)
    monkeypatch.setattr(synthesis, "expected_cost", per_configuration)
    varying = parse_program(VARYING_SUPPORT)
    synthesize_enumerate(varying, SynthesisQuery("t", F(1), "g"))
    assert len(built) == 2 and len(reads) == 3
    # a second query, at another bound and with other labels, reads the
    # kept stacks: it builds no arrays and reads no entry
    built.clear()
    reads.clear()
    synthesize_enumerate(varying, SynthesisQuery("g", F("0.5"), "t"))
    assert built == [] and reads == []
    shipyard_family = _shipyard(True)
    result = synthesize_enumerate(shipyard_family, SynthesisQuery("failure", F("0.03"), "done"))
    assert len(built) == 1 and len(result.table) == 360 and len(reads) == 360
    built.clear()
    reads.clear()
    again = synthesize_enumerate(shipyard_family, SynthesisQuery("failure", F("0.01"), "done"))
    assert built == [] and reads == [] and len(again.table) == 360


def test_stacked_polish_in_chunks_and_sparse_equals_one_system(monkeypatch):
    program = _shipyard(True)
    query = SynthesisQuery("failure", F("0.03"), "done")
    whole = synthesize_enumerate(program, query)
    # regions of 2 and 3 states: at most 16 and 7 systems stacked at a time
    monkeypatch.setattr(checking, "_POLISH_DENSE_LIMIT", 8)
    assert synthesize_enumerate(program, query) == whole
    monkeypatch.setattr(checking, "_POLISH_DENSE_LIMIT", 0)
    sparse = synthesize_enumerate(program, query)
    assert sparse.valuation == whole.valuation
    for a, b in zip(sparse.table, whole.table):
        assert abs(a.expected_cost - b.expected_cost) <= 1e-9 * b.expected_cost
        assert abs(a.reach_probability - b.reach_probability) <= 1e-12


def test_blocks_of_configurations_equal_one_block(monkeypatch):
    program = _shipyard(False)
    query = SynthesisQuery("failure", F("0.03"), "done")
    whole = synthesize_enumerate(program, query)
    solved = []
    inner = checking._reach

    def counted(arr, target, direction, chain, k, *args):
        solved.append(k)
        return inner(arr, target, direction, chain, k, *args)

    monkeypatch.setattr(checking, "_reach", counted)
    assert synthesize_enumerate(program, query) == whole
    assert solved == [len(whole.table)]
    # a fresh program: the kept stacks of the first are not read
    solved.clear()
    monkeypatch.setattr(checking, "_FAMILY_BLOCK", 1)
    assert synthesize_enumerate(replace(program), query) == whole
    assert solved == [1] * len(whole.table)

"""Enumeration keeps each query's results as arrays: ``SynthesisResult.table``
is a read-only sequence that makes an entry, with a copy of its valuation,
each time one is read, and ``to_json_dict`` reads the arrays.  Results must
equal, print and serialise exactly as the eager route's
(``oracles.eager_synthesize_enumerate``); the best pick is the first
configuration whose cost is within ``TIE_TOL`` of the least feasible cost,
the transformed route's rule too; an MDP family runs the improper-model
check once per support stack and raises the same error at the same
configuration; and a strategy with one positive weight at a state is
normalised exactly as the former rational normalisation does it
(``oracles.eager_strategy_choice_probs``)."""

import copy
import importlib.util
import json
import math
import random
import warnings
from collections import abc
from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

import oracles
from mimdp import shipyard, synthesis
from mimdp.models import ModelError, Strategy, build_model
from mimdp.parser import parse_file, parse_program
from mimdp.synthesis import (
    TIE_TOL,
    ImproperModelError,
    SynthesisQuery,
    TableEntry,
    synthesize,
    synthesize_enumerate,
)
from generators import zero_valued_programs
from test_family import _random_families

ROOT = Path(__file__).resolve().parent.parent
MODELS = ROOT / "models"

# the bundled models' synthesis queries of the golden CLI files, at the
# bound of their emit-nilp case and at zero
GOLDEN = {"two_stage": ("s2", "absorb"), "die": ("one", "rolled"),
          "retry_channel": ("gaveup", "stopped")}

# three configurations whose costs fall by 0.6e-9 each: the second is the
# first within TIE_TOL of the least, while the former sequential rule kept the
# first over the second and took the third, more than TIE_TOL below the first
TIES = """
param c in {1, 0.9999999994, 0.9999999988};
module m
  s : [0..1] init 0;
  {commands}
  [] s=1 -> true;
endmodule
rewards
  s=0 : c;
endrewards
label "t" = s=1;
label "g" = s=1;
"""
TIES_CHAIN = TIES.replace("{commands}", "[] s=0 -> (s'=1);")
TIES_MDP = TIES.replace("{commands}", "[a] s=0 -> (s'=1);\n  [b] s=0 -> 0.5:(s'=1) + 0.5:(s'=0);")

# in family order: (0, 0) never reaches the goal (cost inf, probability 0),
# (0, 1) reaches it directly at cost 3, (1, q) through the target at cost 1
DETOUR = """
param p in {0, 1};
param q in {0, 1};
module m
  s : [0..3] init 0;
  {commands}
  [] s=1 -> (s'=2);
  [] s>=2 -> true;
endmodule
rewards
  s=0 : 3 - 2*p;
endrewards
label "t" = s=1;
label "g" = s=2;
"""
DETOUR_CHAIN = DETOUR.replace("{commands}", "[] s=0 -> p:(s'=1) + (1-p)*q:(s'=2) + (1-p)*(1-q):(s'=3);")
DETOUR_MDP = DETOUR.replace(
    "{commands}", "[a] s=0 -> p:(s'=1) + (1-p)*q:(s'=2) + (1-p)*(1-q):(s'=3);\n"
             "  [b] s=0 -> p:(s'=1) + (1-p)*q:(s'=2) + (1-p)*(1-q):(s'=3);")

# with p = 0 choice a loops at s=0 forever, while b still leaves it: the
# second configuration's support stack is improper, the first's is not
IMPROPER = """
param p in {VALUES};
module m
  s : [0..1] init 0;
  [a] s=0 -> p:(s'=1) + (1-p):(s'=0);
  [b] s=0 -> (s'=1);
  [] s=1 -> true;
endmodule
rewards
  s=0 : 1;
endrewards
label "t" = s=1;
label "g" = s=1;
"""


def _gen():
    """The benchmark's random program generator, ``perfbench/gen.py``."""
    spec = importlib.util.spec_from_file_location("perfbench_gen", ROOT / "perfbench" / "gen.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _shipyard(per_sensor: bool):
    return parse_program(shipyard.generate_program(
        shipyard.ShipyardConfig(missions=1), True, per_sensor_grades=per_sensor))


def _corpus(part: str) -> list:
    """(program, queries) pairs; every query asks for enumeration."""
    if part == "golden":
        return [(parse_file(MODELS / f"{name}.mgcl"),
                 [SynthesisQuery(target, F(lam), goal, "enumerate") for lam in ("0.2", "0")])
                for name, (target, goal) in GOLDEN.items()]
    if part == "shipyard":
        return [(_shipyard(per_sensor),
                 [SynthesisQuery("failure", F(lam), "done", "enumerate")
                  for lam in ("3/100", "3/1000", "1")])
                for per_sensor in (False, True)]
    return [(program, [replace(query, method="enumerate"),
                       SynthesisQuery(query.target, F(1), query.goal, "enumerate")])
            for program, query in (_gen().random_corpus(int(part)) if part.isdigit()
                                   else zero_valued_programs())]


def _outcome(route, program, query):
    """The result with its JSON text and repr, or the error's type and text."""
    try:
        result = route(program, query)
    except Exception as e:  # the error itself is part of the answer
        return None, (type(e).__name__, str(e))
    return result, (json.dumps(result.to_json_dict(), sort_keys=True), repr(result))


# ---------------------------------------------------------------------------
# the lazy table against the eager one


@pytest.mark.parametrize("part", ["golden", "1", "2", "3", "shipyard", "zeros"])
def test_the_lazy_table_equals_the_eager_one(part):
    results = feasible = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for program, queries in _corpus(part):
            for query in queries:
                got, got_text = _outcome(synthesize_enumerate, program, query)
                want, want_text = _outcome(oracles.eager_synthesize_enumerate, program, query)
                assert got_text == want_text
                if got is None:
                    continue
                assert got == want and want == got
                assert not isinstance(got.table, list) and isinstance(got.table, abc.Sequence)
                assert list(got.table) == want.table
                results += 1
                feasible += got.feasible
    assert results and feasible


def test_two_reads_of_a_row_are_equal_and_distinct(two_stage):
    program = replace(two_stage)
    result = synthesize_enumerate(program, SynthesisQuery("s2", F("0.2"), "absorb"))
    table = result.table
    entries = list(table)
    assert len(table) == len(entries) > 2 and bool(table)
    first = table[0]
    assert first == table[0] and first is not table[0]
    assert first.valuation == table[0].valuation and first.valuation is not table[0].valuation
    for e in entries + [table[0], table[-1]]:
        assert type(e) is TableEntry and type(e.expected_cost) is float
        assert type(e.reach_probability) is float and type(e.feasible) is bool
    # negative indices, slices, out of range, no assignment
    assert table[-1] == entries[-1] and table[-len(entries)] == entries[0]
    assert table[1:3] == entries[1:3] and table[::-2] == entries[::-2] and table[5:1] == []
    with pytest.raises(IndexError):
        table[len(entries)]
    with pytest.raises(IndexError):
        table[-len(entries) - 1]
    with pytest.raises(TypeError):
        table[0] = first
    assert repr(table) == repr(entries) and table == entries and entries == table


def test_changing_a_read_entry_or_the_valuation_changes_nothing_kept(two_stage):
    program = replace(two_stage)
    query = SynthesisQuery("s2", F("0.2"), "absorb")
    result = synthesize_enumerate(program, query)
    text = json.dumps(result.to_json_dict())
    kept = copy.deepcopy(build_model(program)._family.valuations)
    entry = result.table[0]
    entry.valuation.clear()
    entry.expected_cost = -1.0
    best = result.valuation
    best.clear()
    best["p"] = F(7)
    assert result.table[0].valuation and result.table[0].expected_cost != -1.0
    for e in result.table:
        e.valuation.clear()
    for e in result.table[1:]:
        e.valuation.clear()
    assert all(e.valuation for e in result.table) and all(e.valuation for e in result.table[:])
    result.valuation = dict(synthesize_enumerate(program, query).valuation)
    assert json.dumps(result.to_json_dict()) == text
    assert build_model(program)._family.valuations == kept
    again = synthesize_enumerate(program, query)
    assert json.dumps(again.to_json_dict()) == text and again == result


# ---------------------------------------------------------------------------
# the tie rule


def test_the_best_pick_is_the_first_row_within_tie_tol_of_the_least():
    ecs = np.array([1.0, 1.0 - 0.6e-9, 1.0 - 1.2e-9])
    assert ecs[1] - ecs.min() < TIE_TOL < ecs[0] - ecs.min()
    assert synthesis._best(ecs, np.ones(3, dtype=bool)) == 1
    # the former sequential rule took row 2
    table = [TableEntry({}, ec, 0.0, True) for ec in ecs.tolist()]
    assert oracles.eager_best(table) == 2


def test_infeasible_and_unbounded_rows_are_never_picked():
    best = synthesis._best
    assert best(np.array([0.5, np.inf, 2.0]), np.array([False, False, True])) == 2
    assert best(np.array([np.inf, 0.1]), np.array([False, False])) is None
    assert best(np.zeros(0), np.zeros(0, dtype=bool)) is None
    # a feasible row below an infeasible cheaper one, and a later feasible
    # row within TIE_TOL of it
    ecs = np.array([1.0, 3.0, 0.5, 3.0 - 0.5e-9, 2.0])
    feasible = np.array([False, True, False, True, True])
    assert best(ecs, feasible) == 4


def _first_within_tie(ecs: list, feasible: list):
    """The rule, walked row by row: the first feasible row whose cost is
    within ``TIE_TOL`` of the least feasible cost, or None."""
    costs = [ec for ec, f in zip(ecs, feasible) if f]
    if not costs:
        return None
    least = min(costs)
    return next(i for i, (ec, f) in enumerate(zip(ecs, feasible))
                if f and ec <= least + TIE_TOL)


def test_random_best_picks_equal_the_sequential_walk():
    """``_best`` equals the rule walked row by row and, wherever no two
    feasible costs are a near tie (apart by more than 0 and at most
    ``TIE_TOL``), the former sequential rule (``oracles.eager_best``)."""
    rng = random.Random(5)
    near = apart = 0
    for _ in range(600):
        n = rng.randint(0, 12)
        # no two costs differ by within 0.05e-9 of TIE_TOL, where float
        # rounding alone could tell the rules apart
        ecs = [rng.choice((1.0, 1.0 - 0.6e-9, 1.0 - 1.25e-9, 1.0 - 2.5e-9, 2.0, 0.5, math.inf))
               + rng.choice((0.0, 0.0, 0.15e-9, -0.15e-9)) for _ in range(n)]
        feasible = [math.isfinite(ec) and rng.random() < 0.7 for ec in ecs]
        got = synthesis._best(np.array(ecs, dtype=float), np.array(feasible, dtype=bool))
        assert got == _first_within_tie(ecs, feasible)
        costs = [ec for ec, f in zip(ecs, feasible) if f]
        if any(0 < abs(a - b) <= TIE_TOL for a in costs for b in costs):
            near += 1
            continue
        apart += 1
        assert got == oracles.eager_best([TableEntry({}, ec, 0.0, f) for ec, f in zip(ecs, feasible)])
    assert near > 100 and apart > 100


@pytest.mark.parametrize("text", [TIES_CHAIN, TIES_MDP], ids=["chain", "mdp"])
def test_a_family_picks_the_first_configuration_within_tie_tol(text):
    program = parse_program(text)
    query = SynthesisQuery("t", F(1), "g", "enumerate")
    result = synthesize_enumerate(program, query)
    assert result.valuation == {"c": F("0.9999999994")}
    costs = [e.expected_cost for e in result.table]
    assert costs[1] - min(costs) < TIE_TOL < costs[0] - min(costs)
    assert result.expected_cost == costs[1]
    # the table is the former code's; the former sequential rule took the third row
    former = oracles.eager_synthesize_enumerate(program, query)
    assert list(result.table) == former.table
    assert former.valuation == {"c": F("0.9999999988")}
    # the transformed route answers by the same rule
    enumerated, transformed = synthesize(program, replace(query, method="both"))
    assert enumerated.valuation == transformed.valuation == result.valuation


def test_a_chain_family_picks_no_infeasible_or_unbounded_row():
    program = parse_program(DETOUR_CHAIN)
    query = SynthesisQuery("t", F("0.5"), "g", "enumerate")
    result = synthesize_enumerate(program, query)
    # the first row meets the bound but never reaches the goal; the target
    # rows cost least but miss the bound
    rows = [(e.expected_cost, e.reach_probability, e.feasible) for e in result.table]
    assert rows == [(math.inf, 0.0, False), (3.0, 0.0, True), (1.0, 1.0, False), (1.0, 1.0, False)]
    assert result.valuation == {"p": F(0), "q": F(1)} and result.expected_cost == 3.0
    assert result == oracles.eager_synthesize_enumerate(program, query)


def test_an_mdp_family_picks_no_infeasible_row():
    program = parse_program(DETOUR_MDP)
    query = SynthesisQuery("t", F("0.5"), "g", "enumerate")
    result = synthesize_enumerate(program, query)
    # the LP's cost runs until absorption, so the first row costs 3 as well;
    # no strategy of the target rows meets the bound
    rows = [(e.expected_cost, e.feasible) for e in result.table]
    assert rows == [(3.0, True), (3.0, True), (math.inf, False), (math.inf, False)]
    assert result.valuation == {"p": F(0), "q": F(0)} and result.expected_cost == 3.0
    assert result == oracles.eager_synthesize_enumerate(program, query)


# ---------------------------------------------------------------------------
# one improper-model check per support stack


def _counting_prob1_min(monkeypatch) -> list:
    calls = []
    inner = synthesis._prob1_min

    def counted(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(synthesis, "_prob1_min", counted)
    return calls


def test_an_mdp_family_checks_once_per_stack(monkeypatch):
    calls = _counting_prob1_min(monkeypatch)
    runs = fewer = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for program, query in _random_families()[20:] + [(parse_program(TIES_MDP), None)]:
            if query is None:
                query = SynthesisQuery("t", F(1), "g")
            model = build_model(program)
            for lam in (query.bound, F(1)):
                del calls[:]
                try:
                    synthesize_enumerate(program, replace(query, bound=lam))
                except (ImproperModelError, synthesis.SynthesisError, ModelError):
                    continue
                stacks = model._family.stacks
                assert len(calls) == len(stacks)
                runs += 1
                fewer += len(stacks) < len(model._family.valuations)
                # the eager route checked every configuration
                del calls[:]
                oracles.eager_synthesize_enumerate(program, replace(query, bound=lam))
                assert len(calls) == len(model._family.valuations)
    assert runs > 10 and fewer > 5


@pytest.mark.parametrize("values, at", [("0.5, 0", 2), ("0, 0.5", 1), ("0.5, 0.25, 0", 3)])
def test_an_improper_family_raises_the_same_error_at_the_same_configuration(
        monkeypatch, values, at):
    text = IMPROPER.replace("VALUES", values)
    lps = []
    inner = synthesis._occupation_lp

    def counted(*args, **kwargs):
        lps.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(synthesis, "_occupation_lp", counted)
    query = SynthesisQuery("t", F(1), "g", "enumerate")
    errors = []
    for route in (synthesize_enumerate, oracles.eager_synthesize_enumerate):
        del lps[:]
        with pytest.raises(ImproperModelError) as err:
            route(parse_program(text), query)
        errors.append((str(err.value), len(lps)))
    assert errors[0] == errors[1] == (
        "absorption is not almost-sure under every strategy (state (s=0))", at)


# ---------------------------------------------------------------------------
# the one-weight fast path of the strategy normalisation


def _normalised(normalise, dists):
    try:
        probs = normalise(copy.deepcopy(dists))
    except Exception as e:  # the error itself is part of the answer
        return type(e), str(e)
    assert all(type(w) is F for dist in probs for w in dist.values())
    return [list(dist.items()) for dist in probs]


def _weight(rng):
    kind = rng.randrange(4)
    if kind == 0:
        return rng.randint(-2, 3)
    if kind == 1:
        return rng.choice((0.0, -0.5, rng.uniform(-1, 2), rng.uniform(0, 1e-9)))
    if kind == 2:
        return F(rng.randint(-3, 7), rng.randint(1, 9))
    return 0


def test_strategy_normalisation_equals_the_former_one():
    rng = random.Random(11)
    single = several = errors = 0
    for _ in range(3000):
        dists = [{rng.randrange(6): _weight(rng) for _ in range(rng.randint(1, 4))}
                 for _ in range(rng.randint(1, 4))]
        got = _normalised(lambda d: Strategy(d).choice_probs, dists)
        assert got == _normalised(oracles.eager_strategy_choice_probs, dists)
        if isinstance(got, tuple):
            errors += 1
            continue
        single += any(len(dist) == 1 for dist in got)
        several += any(len(dist) > 1 for dist in got)
    assert single > 300 and several > 300 and errors > 300


@pytest.mark.parametrize("dists", [
    [{0: math.inf}],
    [{0: 1, 1: math.inf}],
    [{0: math.nan}],
    [{0: math.nan, 1: 2.5}],
    [{3: 0.25}, {}],
    [{0: -1, 1: 0}],
])
def test_strategy_normalisation_raises_as_the_former_one(dists):
    got = _normalised(lambda d: Strategy(d).choice_probs, dists)
    assert got == _normalised(oracles.eager_strategy_choice_probs, dists)
    assert isinstance(got, tuple) or dists == [{0: math.nan, 1: 2.5}]

"""Branch-and-bound skips the LPs whose outcome it already knows, and an MDP
family solves each distinct configuration once.

A certification step takes a value without its LP when the current
outcome's support commits the parameter to that value, or not at all, and
the joint fixing is extendable; it checks for an improper model at the root
alone; enumeration reuses the outcome of an earlier configuration whose
entries are bit for bit the same (``checking._Stack.first``); and the LP's
strategy normalises a state's weights when that state is read.  Every
answer must be exactly the former code's (``oracles.resolving_branch_and_bound``,
``oracles.resolving_evaluate``, ``oracles.eager_strategy_choice_probs``),
with no more LPs."""

import importlib.util
import json
import random
import warnings
from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

import oracles
from mimdp import models, shipyard, synthesis
from mimdp.models import Strategy, build_model
from mimdp.parser import parse_file, parse_program
from mimdp.synthesis import (
    SUPPORT_TOL,
    TIE_TOL,
    ConstrainedSolution,
    ImproperModelError,
    SynthesisQuery,
    constrained_mdp_lp,
    recover_valuation,
    synthesize,
    synthesize_enumerate,
    synthesize_transformed,
)
from mimdp.transform import transform_all
from generators import zero_valued_programs
from test_family import _random_families

ROOT = Path(__file__).resolve().parent.parent
MODELS = ROOT / "models"

# the bundled models' synthesis queries of the golden CLI files, at the
# bound of their emit-nilp case and at zero
GOLDEN = {"two_stage": ("s2", "absorb"), "die": ("one", "rolled"),
          "retry_channel": ("gaveup", "stopped")}

# c = 0.9999999995 is cheaper than c = 1 by less than TIE_TOL and reaches
# the target with probability 1/2 + d/2 instead of 1, so the root LP's
# secondary objective commits it; certification must still take c = 1,
# the earlier value within the tie
TIE = """
param c in {1, 0.9999999995};
param d in {0.5, 0.25};
module m
  s : [0..3] init 0;
  [] s=0 -> (1-(1-c)*1000000000):(s'=2) + (1-c)*1000000000:(s'=1);
  [] s=1 -> d:(s'=2) + (1-d):(s'=3);
  [] s>=2 -> true;
endmodule
rewards
  s=0 : c;
endrewards
label "t" = s=2;
label "g" = s>=2;
"""

# the root's support commits c = 0 at s=1 and c = 24 at s=2, so
# branch-and-bound branches on c; with c fixed, the cost is
# 1 + (20 - c)e-10: 1 + 2e-9, 1 + 1.2e-9, 1 + 0.5e-9 and 1 - 0.4e-9, each
# within TIE_TOL of the next.  The least is 1 - 0.4e-9 and c = 15 the first
# within TIE_TOL of it; the former sequential pick among the branches was
# c = 15 at 1 + 0.5e-9, which let the certification take c = 8
MIXED = """
param c in {0, 8, 15, 24};
module m
  s : [0..3] init 0;
  [] s=0 -> 0.5:(s'=1) + 0.5:(s'=2);
  [] s=1 -> (s'=3);
  [] s=2 -> (s'=3);
  [] s=3 -> true;
endmodule
rewards
  s=1 : 1 + (20 - c)*0.0000000001 + c*0.01;
  s=2 : 1 + (20 - c)*0.0000000001 - c*0.01;
endrewards
label "t" = s=3;
label "g" = s=3;
"""

# q, the first parameter, is committed only at s=1, which no strategy
# reaches under p = 0: the root's support never commits it
UNCOMMITTED = """
param q in {0.25, 0.75};
param p in {0, 0.5};
module m
  s : [0..3] init 0;
  [] s=0 -> p:(s'=1) + (1-p):(s'=2);
  [] s=1 -> q:(s'=3) + (1-q):(s'=2);
  [] s>=2 -> true;
endmodule
rewards
  s=0 : 1;
endrewards
label "t" = s=3;
label "g" = s>=2;
"""

# p*q + p*(1-q) is p whatever q is: the configurations (p, 0) and (p, 1)
# have the same entries, bit for bit
REPEATED = """
param p in {0.5, 0.25};
param q in {0, 1};
module m
  s : [0..2] init 0;
  [a] s=0 -> p*q + p*(1-q):(s'=1) + (1-p):(s'=2);
  [b] s=0 -> 0.5:(s'=1) + 0.5:(s'=2);
  [] s>0 -> true;
endmodule
rewards
  s=0 : 1;
endrewards
label "t" = s=1;
label "g" = s>0;
"""

# with p = 0 choice a loops at s=0 forever, while b still leaves it
IMPROPER = """
param p in {0.5, 0};
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
    """(program, queries) pairs."""
    if part == "golden":
        return [(parse_file(MODELS / f"{name}.mgcl"),
                 [SynthesisQuery(target, F(lam), goal) for lam in ("0.2", "0")])
                for name, (target, goal) in GOLDEN.items()]
    if part in ("uniform", "per-sensor"):
        return [(_shipyard(part == "per-sensor"),
                 [SynthesisQuery("failure", F(13, 500), "done", "transformed")])]
    return [(program, [query, replace(query, bound=F(1))])
            for program, query in (_gen().random_corpus(int(part)) if part.isdigit()
                                   else zero_valued_programs())]


def _outcome(program, query):
    """The results, with their JSON bytes, reprs and flags, or the error's
    type and text."""
    try:
        results = synthesize(program, query)
    except Exception as e:  # the error itself is part of the answer
        return None, (type(e).__name__, str(e))
    return results, [(json.dumps(r.to_json_dict(), sort_keys=True).encode(), repr(r), r.flags)
                     for r in results]


def _counting(monkeypatch, module, name) -> list:
    calls = []
    inner = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def _former(monkeypatch):
    """The former branch-and-bound and MDP family loop, patched in."""
    monkeypatch.setattr(synthesis, "_branch_and_bound", oracles.resolving_branch_and_bound)
    monkeypatch.setattr(synthesis, "_evaluate", oracles.resolving_evaluate)


def _same_as_the_former_code(monkeypatch, program, query) -> tuple:
    """The answer, which must be the former code's, and the LPs each took."""
    lps = _counting(monkeypatch, synthesis, "solve_lp")
    got, got_text = _outcome(program, query)
    count = len(lps)
    del lps[:]
    with monkeypatch.context() as former:
        _former(former)
        want, want_text = _outcome(program, query)
    assert got_text == want_text
    assert got == want and want == got
    return got, count, len(lps)


# ---------------------------------------------------------------------------
# the answers are the former code's, from no more LPs


# the LPs of both shipyard transformed queries, and the former code's
SHIPYARD_LPS = {"uniform": [(6, 9)], "per-sensor": [(44, 47)]}


@pytest.mark.parametrize("part", ["golden", "1", "2", "3", "uniform", "per-sensor", "zeros"])
def test_answers_equal_the_former_code_with_no_more_lps(monkeypatch, part):
    answers = feasible = 0
    counts = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for program, queries in _corpus(part):
            for query in queries:
                got, lps, former_lps = _same_as_the_former_code(monkeypatch, program, query)
                assert lps <= former_lps
                counts.append((lps, former_lps))
                if got is not None:
                    answers += 1
                    feasible += got[-1].feasible
    assert answers and feasible and any(lps < former for lps, former in counts)
    assert SHIPYARD_LPS.get(part, counts) == counts


# programs 67 of seed 2 and 38 of seeds 3 and 7: certification without the
# extendability test takes a value its outcome's support cannot extend
@pytest.mark.parametrize("seed, index", [(2, 67), (3, 38), (7, 38)])
def test_a_proof_needs_an_extendable_joint_fixing(monkeypatch, seed, index):
    program, query = _gen().random_corpus(seed)[index]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        got, _, _ = _same_as_the_former_code(monkeypatch, program, query)
    assert got is not None and got[1].feasible


def test_an_earlier_value_within_the_tie_is_still_chosen(monkeypatch):
    # the root LP commits the cheaper c = 0.9999999995
    controlled, report = transform_all(parse_program(TIE))
    model = build_model(controlled, on_deadlock="absorb")
    root = constrained_mdp_lp(model, "t", F(1), "g")
    assert recover_valuation(model, report, root.strategy)[0]["c"] == F("0.9999999995")
    query = SynthesisQuery("t", F(1), "g")
    got, lps, former_lps = _same_as_the_former_code(monkeypatch, parse_program(TIE), query)
    enumerated, transformed = got
    assert enumerated.valuation == transformed.valuation == {"c": F(1), "d": F(1, 2)}
    assert transformed.expected_cost == 1.0
    # a chain family: the LPs are the root, c = 1 (solved, as the root
    # commits the other value) and d
    assert lps == former_lps == 3


def test_branches_within_tie_tol_certify_the_enumerated_configuration():
    program = parse_program(MIXED)
    controlled, report = transform_all(program)
    model = build_model(controlled, on_deadlock="absorb")
    root = constrained_mdp_lp(model, "t", F(1), "g")
    with pytest.raises(synthesis.SynthesisError, match="conflicting commitments for parameter 'c'"):
        recover_valuation(model, report, root.strategy)
    enumerated, transformed = synthesize(program, SynthesisQuery("t", F(1), "g"))
    costs = [e.expected_cost for e in enumerated.table]
    assert all(0 < a - b < TIE_TOL for a, b in zip(costs, costs[1:]))
    assert enumerated.valuation == transformed.valuation == {"c": F(15)}
    assert transformed.expected_cost == pytest.approx(costs[2], abs=1e-12)


def test_a_parameter_the_root_never_commits_takes_its_first_value(monkeypatch):
    query = SynthesisQuery("t", F(1, 10), "g", "transformed")
    got, lps, former_lps = _same_as_the_former_code(monkeypatch, parse_program(UNCOMMITTED), query)
    # the root, then p; q is proved by the root's support
    assert (lps, former_lps) == (2, 3)
    assert got[0].valuation == {"q": F(1, 4), "p": F(0)}
    assert got[0].flags == ("parameter 'q' never committed on the support",)


# ---------------------------------------------------------------------------
# one improper-model check per branch-and-bound call


def test_one_branch_and_bound_call_checks_once(monkeypatch):
    checks = _counting(monkeypatch, synthesis, "_prob1_min")
    lps = _counting(monkeypatch, synthesis, "solve_lp")
    calls = nodes = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        two_stage = parse_file(MODELS / "two_stage.mgcl")
        programs = [(two_stage, SynthesisQuery("s2", F("0.2"), "absorb"))] + _random_families()
        for program, query in programs:
            for lam in (query.bound, F(1)):
                del checks[:], lps[:]
                try:
                    synthesize_transformed(program, replace(query, bound=lam))
                except (synthesis.SynthesisError, models.ModelError):
                    continue
                assert len(checks) == 1
                calls += 1
                nodes += len(lps) > 1
    assert calls > 20 and nodes > 10


def test_an_improper_controlled_model_raises_the_former_error(monkeypatch):
    query = SynthesisQuery("t", F(1), "g", "transformed")
    errors = []
    for patch in (lambda m: None, _former):
        with monkeypatch.context() as m:
            patch(m)
            with pytest.raises(ImproperModelError) as err:
                synthesize_transformed(parse_program(IMPROPER), query)
            errors.append(str(err.value))
    assert errors[0] == errors[1] == (
        "absorption is not almost-sure under every strategy (state (s=0,_q_p_0=0,_q_p_1=0))")


# ---------------------------------------------------------------------------
# identical configurations share one solve


def test_the_first_identical_row_of_every_stack():
    stacks = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for program in [p for p, _ in _random_families()] + [parse_program(REPEATED)]:
            try:
                family = synthesis._kept_family(build_model(program))
            except (models.ModelError, synthesis.SynthesisError):
                continue
            for stack in family.stacks:
                rows = [a.tobytes() + b.tobytes() for a, b in zip(stack.arr.probs, stack.cost)]
                members = stack.members.tolist()
                assert stack.first == tuple(members[rows.index(row)] for row in rows)
                stacks += 1
    assert stacks > 20


@pytest.mark.parametrize("lam, solves", [("1", "_occupation_lp"), ("0.1", "_reach")])
def test_two_configurations_with_the_same_entries_share_one_solve(monkeypatch, lam, solves):
    program = parse_program(REPEATED)
    query = SynthesisQuery("t", F(lam), "g", "enumerate")
    calls = _counting(monkeypatch, synthesis, solves)
    got = synthesize_enumerate(program, query)
    # (1/2, 0) and (1/2, 1) repeat each other, as do (1/4, 0) and (1/4, 1)
    assert [(u["p"], u["q"]) for u in got.table.valuations] == [
        (F(1, 2), 0), (F(1, 2), 1), (F(1, 4), 0), (F(1, 4), 1)]
    assert len(calls) == 2
    rows = [(e.expected_cost, e.reach_probability, e.feasible) for e in got.table]
    assert rows[0] == rows[1] and rows[2] == rows[3] and rows[0] != rows[2]
    assert got.feasible == (lam == "1")
    with monkeypatch.context() as former:
        _former(former)
        assert synthesize_enumerate(program, query) == got
    assert len(calls) == 2 + 4


# ---------------------------------------------------------------------------
# the LP's strategy is normalised state by state, when read


def _random_flows(rng):
    """An LP's flows: per state none or some variables, in state order and
    choice order, with zero, tiny, integral and float flows."""
    n = rng.randint(1, 6)
    states, choices, y = [], [], []
    for s in range(n):
        for ci in sorted(rng.sample(range(5), rng.randint(0, 3))):
            states.append(s)
            choices.append(ci)
            y.append(rng.choice((0.0, 1e-10, float(rng.randint(1, 3)), rng.uniform(0, 1))))
    return n, np.array(states, dtype=np.int64), np.array(choices, dtype=np.int64), np.array(y)


def test_lazy_strategies_equal_the_former_normalisation():
    rng = random.Random(27)
    single = several = 0
    for _ in range(2000):
        solution = ConstrainedSolution(_random_flows(rng), 0.0, 0.0)
        want = oracles.eager_strategy_choice_probs(
            oracles.eager_solution_strategy(solution).choice_probs)
        probs = solution.strategy.choice_probs
        assert isinstance(probs, models.LazySequence) and len(probs) == len(want)
        # states read in any order, and twice, give the former dicts
        for s in rng.sample(range(len(want)), len(want)):
            assert list(probs[s].items()) == list(want[s].items())
            assert all(type(w) is F for w in probs[s].values())
        assert list(probs) == want and probs == want
        assert solution.strategy is solution.strategy
        single += any(len(dist) == 1 for dist in want)
        several += any(len(dist) > 1 for dist in want)
    assert single > 300 and several > 300


def test_per_state_reads_equal_the_former_walk_over_every_variable():
    """A solution reads a state's variables when that state is read; its
    supports and ``choice_probs`` are, bit for bit, those the former walk
    over every variable made (``oracles.former_weights``), with states
    read in any order, zero-flow states and states without variables."""
    rng = random.Random(28)
    bare = zero_flow = 0
    for _ in range(2000):
        flows = _random_flows(rng)
        n, states, _, y = flows
        solution = ConstrainedSolution(flows, 0.0, 0.0)
        weights = oracles.former_weights(solution)
        support, probs = solution.support, solution.strategy.choice_probs
        for s in rng.sample(range(n), n):
            assert support[s] == tuple(ci for ci, _ in weights[s])
            want = Strategy.normalized(weights[s])
            assert list(probs[s].items()) == list(want.items())
            assert all(type(w) is F for w in probs[s].values())
        assert list(support) == [tuple(ci for ci, _ in pairs) for pairs in weights]
        assert list(probs) == [Strategy.normalized(pairs) for pairs in weights]
        bare += len(set(states.tolist())) < n
        zero_flow += any((states == s).any() and not (y[states == s] > SUPPORT_TOL).any()
                         for s in range(n))
    assert bare > 500 and zero_flow > 500


def test_a_lazy_sequence_iterates_its_items_in_order():
    made = []

    def item(i):
        made.append(i)
        return i * i

    seq = models.LazySequence(5, item)
    assert list(iter(seq)) == [0, 1, 4, 9, 16] and made == [0, 1, 2, 3, 4]
    assert list(models.LazySequence(0, item)) == []
    assert list(zip(seq, "ab")) == [(0, "a"), (1, "b")]

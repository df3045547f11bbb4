"""Enumeration keeps what no query changes on the base model:
``synthesize_enumerate`` reads the well-defined configurations' entries
once and keeps them, as float stacks per support group, in
``ExplicitModel._family``, and drops the model's compiled entries.  A
sweep of bounds and labels on one program must give what each query gives
on a freshly parsed program and what the route that read the family on
every call gives (``oracles.percall_synthesize_enumerate``); the kept
stacks must hold the floats that route made, bit for bit; a family whose
build raises keeps nothing and raises the same error again; and
``synthesize(method="both")`` reads each entry once.  Last,
branch-and-bound's choice masks, support walks and ``extendable``
answers, read off the kept commitment table and index matrix, must equal
the former scans'."""

import importlib.util
import json
import warnings
from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

import oracles
from mimdp import checking, models, shipyard, synthesis
from mimdp.expressions import Binary, ExprError, Name, Num
from mimdp.models import (
    ModelError,
    all_valuations,
    build_model,
    instantiate,
    well_defined_entries,
    well_defined_valuations,
)
from mimdp.parser import parse_program
from mimdp.program import pretty
from mimdp.synthesis import (
    ImproperModelError,
    SynthesisError,
    SynthesisQuery,
    synthesize,
    synthesize_enumerate,
    synthesize_transformed,
)
from test_constrained_lp import SINK
from test_family import DIVIDES_BY_ZERO, NOTHING_WELL_DEFINED, VARYING_SUPPORT, _random_families

ROOT = Path(__file__).resolve().parent.parent
MODELS = ROOT / "models"
REFERENCE = ROOT / "perfbench" / "reference"
BOUNDS = ("1", "3/100", "1/100", "1/1000", "3/100")


def _gen():
    """The benchmark's random program generator, ``perfbench/gen.py``."""
    spec = importlib.util.spec_from_file_location("perfbench_gen", ROOT / "perfbench" / "gen.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _outcome(route, program, query) -> str:
    try:
        result = route(program, query)
    except Exception as e:  # the error itself is part of the answer
        return json.dumps([type(e).__name__, str(e)])
    return json.dumps(result.to_json_dict(), sort_keys=True)


def _shipyard_text(per_sensor: bool) -> str:
    return shipyard.generate_program(
        shipyard.ShipyardConfig(missions=1), True, per_sensor_grades=per_sensor
    )


def _corpus(part: str) -> list:
    """(source text, (target, goal), second (target, goal)) per program."""
    if part == "bundled":
        text = {name: (MODELS / f"{name}.mgcl").read_text(encoding="utf-8")
                for name in ("two_stage", "die", "retry_channel")}
        return [
            (text["two_stage"], ("s2", "absorb"), ("absorb", "absorb")),
            (text["die"], ("one", "rolled"), ("six", "rolled")),
            (text["retry_channel"], ("gaveup", "stopped"), ("delivered", "stopped")),
            (VARYING_SUPPORT, ("t", "g"), ("g", "t")),
            (SINK.format(param="param p in {0, 0.5};", loop="(1-p):(s'=1) + p:(s'=3)"),
             ("t", "g"), ("g", "g")),
        ]
    if part == "generators":
        # ten chain families and ten MDP families
        families = _random_families()
        programs = [p for p, _ in families[:10] + families[20:30]]
    elif part == "shipyard":
        return [(_shipyard_text(per_sensor), ("failure", "done"), ("done", "done"))
                for per_sensor in (False, True)]
    else:
        programs = [p for p, _ in _gen().random_corpus(int(part))]
    return [(pretty(p), ("bad", "goal"), ("goal", "goal")) for p in programs]


def _queries(pair, second) -> list:
    queries = [SynthesisQuery(pair[0], F(lam), pair[1], "enumerate") for lam in BOUNDS]
    return queries + [SynthesisQuery(second[0], F(lam), second[1], "enumerate")
                      for lam in ("1", "3/100")]


# ---------------------------------------------------------------------------
# a sweep on one program equals fresh programs and the per-call route


@pytest.mark.parametrize("part", ["bundled", "generators", "1", "2", "3", "shipyard"])
def test_sweeps_on_one_program_equal_fresh_programs_and_the_per_call_route(part):
    answers, kept = set(), 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for text, pair, second in _corpus(part):
            queries = _queries(pair, second)
            program = parse_program(text)
            got = [_outcome(synthesize_enumerate, program, q) for q in queries]
            fresh = {q: _outcome(synthesize_enumerate, parse_program(text), q)
                     for q in set(queries)}
            assert got == [fresh[q] for q in queries]
            # the former route, on a fresh program of its own
            former = parse_program(text)
            for q, answer in zip(queries, got):
                if q.bound in (1, F(3, 100)):
                    assert _outcome(oracles.percall_synthesize_enumerate, former, q) == answer
            model = build_model(program)
            if model._family is not None:
                kept += 1
                assert len(model._family.valuations) == len(list(well_defined_entries(model)))
            answers.update(got)
    assert kept > 0
    # feasible and infeasible answers both occur
    assert any('"feasible": true' in a for a in answers)
    assert any('"feasible": false' in a for a in answers)


@pytest.mark.parametrize("name, per_sensor, rows", [
    ("shipyard-uniform", False, 360),
    ("shipyard-per-sensor", True, 1440),
])
def test_shipyard_tables_equal_the_reference_on_a_first_and_a_repeated_call(name, per_sensor,
                                                                         rows):
    text = _shipyard_text(per_sensor)
    reference = json.loads((REFERENCE / f"{name}.json").read_text(encoding="utf-8"))["table"]
    assert len(reference) == rows
    program = parse_program(text)
    for lam in ("0.03", "0.01"):
        result = synthesize_enumerate(program, SynthesisQuery("failure", F(lam), "done"))
        table = result.to_json_dict()["table"]
        assert [(r["valuation"], r["ec"], r["pr"]) for r in table] == \
            [(r["valuation"], r["ec"], r["pr"]) for r in reference]
    assert build_model(program)._family is not None


def test_changing_a_reported_valuation_changes_no_later_answer(two_stage):
    program = replace(two_stage)
    query = SynthesisQuery("s2", F("0.2"), "absorb", "enumerate")
    first = synthesize_enumerate(program, query)
    want = json.dumps(first.to_json_dict(), sort_keys=True)
    first.valuation["p"] = F(1, 3)
    for entry in first.table:
        entry.valuation.clear()
    assert json.dumps(synthesize_enumerate(program, query).to_json_dict(), sort_keys=True) == want


def test_both_routes_read_each_entry_once(monkeypatch, two_stage):
    # the transformed route takes its admissible valuations from the family
    # enumeration kept, not from a second read of every entry
    reads = []
    inner_read = models._Entries.read

    def counted_read(self, *args):
        reads.append(args)
        return inner_read(self, *args)

    def second_read(*_, **__):
        raise AssertionError("the valuations were read again")

    monkeypatch.setattr(models._Entries, "read", counted_read)
    monkeypatch.setattr(synthesis, "well_defined_valuations", second_read)
    for program, query in [
        (replace(two_stage), SynthesisQuery("s2", F("0.2"), "absorb", "both")),
        (parse_program(_shipyard_text(False)),
         SynthesisQuery("failure", F("0.03"), "done", "both")),
    ]:
        reads.clear()
        enum, transformed = synthesize(program, query)
        model = build_model(program)
        assert len(reads) == len(list(all_valuations(model)))
        assert synthesis._controlled(program, query).admissible is model._family.valuations
        assert transformed.valuation == enum.valuation


# ---------------------------------------------------------------------------
# the kept stacks are the floats the per-call route made


def _percall_stacks(entries) -> list:
    """Per support group, in the order the per-call route met them: the
    members, the support, and the probability and cost rows it made."""
    groups: dict = {}
    for i, (_, probs, _) in enumerate(entries):
        groups.setdefault(tuple(p != 0 for p, _ in probs), []).append(i)
    return [
        (members, support,
         np.array([[p / q for (p, q), edge in zip(entries[i][1], support) if edge]
                   for i in members]),
         np.array([[p / q for p, q in entries[i][2]] for i in members]))
        for support, members in groups.items()
    ]


def _bits(a) -> bytes:
    return np.ascontiguousarray(a, dtype=np.float64).tobytes()


def test_kept_stacks_equal_the_per_call_floats_bit_for_bit():
    programs = [p for p, _ in _random_families()]
    programs += [parse_program(_shipyard_text(per_sensor)) for per_sensor in (False, True)]
    programs += [parse_program(VARYING_SUPPORT), parse_program((MODELS / "die.mgcl").read_text())]
    rows = 0
    for program in programs:
        model = build_model(program)
        label = next(iter(model.labels))
        synthesize_enumerate(program, SynthesisQuery(label, F(1), label))
        family = model._family
        entries = list(well_defined_entries(model))
        assert family.valuations == [u for u, _, _ in entries]
        want = _percall_stacks(entries)
        assert len(family.stacks) == len(want)
        for stack, (members, support, probs, cost) in zip(family.stacks, want):
            assert stack.members.tolist() == members
            assert stack.arr.probs.shape == probs.shape and stack.cost.shape == cost.shape
            assert _bits(stack.arr.probs) == _bits(probs) and _bits(stack.cost) == _bits(cost)
            # the structure is that of the support's own arrays
            alone = checking._Arrays(model, support, probs)
            for name in ("choice_state", "choice_start", "branch_start", "targets",
                         "pred_choice", "pred_start"):
                assert np.array_equal(getattr(stack.arr, name), getattr(alone, name))
            # each configuration's row holds the floats the per-call route
            # gave its own arrays and LP
            for row, i in enumerate(members):
                _, probs_i, costs_i = entries[i]
                want_probs = [p / q for p, q in probs_i if p != 0]
                assert _bits(stack.arr.rows(row).probs) == _bits(want_probs)
                assert _bits(stack.cost[row]) == _bits([p / q for p, q in costs_i])
                rows += 1
    assert rows > 2000


def test_a_kept_family_drops_the_compiled_entries_which_compile_again_as_before():
    programs = [p for p, _ in _random_families()[::4]]
    programs += [parse_program(_shipyard_text(True)), parse_program(VARYING_SUPPORT)]
    for program in programs:
        model = build_model(program)
        label = next(iter(model.labels))
        synthesize_enumerate(program, SynthesisQuery(label, F(1), label))
        assert model._family is not None and model._memo is None
        fresh = build_model(replace(program))
        entries = list(well_defined_entries(model))
        assert entries == list(well_defined_entries(fresh))
        assert [u for u, _, _ in entries] == model._family.valuations
        # compiled again, the tables hold what a fresh model's hold
        assert model._memo.exprs.tables() == fresh._memo.exprs.tables()
        for u, _, _ in entries[:3]:
            assert instantiate(model, u) == instantiate(fresh, u)


# ---------------------------------------------------------------------------
# a family whose build raises keeps nothing


def _boolean_entry():
    """A chain family with the branch probability ``p < 1``: a program the
    parser refuses, marked checked, so that the boolean reaches the
    compiled entries."""
    program = parse_program(DIVIDES_BY_ZERO.replace("p/(2*p)", "p"))
    (module,) = program.modules
    command = module.commands[0]
    (_, first), second = command.branches
    boolean = replace(command, branches=((Binary("<", Name("p"), Num(F(1))), first), second))
    module = replace(module, commands=(boolean,) + module.commands[1:])
    program = replace(program, modules=(module,))
    object.__setattr__(program, "_checked", True)
    return program


BIG_COST = DIVIDES_BY_ZERO.replace("p/(2*p)", "p").replace(
    "label", "rewards\n  s=0 : p*1" + "0" * 400 + ";\nendrewards\nlabel")

# the first configuration's LP finds a strategy that stays at s=0 forever;
# the second one's entry divides by zero.  The per-call route solved the
# first before it read the second and raised the improper LP; enumeration
# reads the whole family first and raises the entry's error
IMPROPER_THEN_DIVISION = DIVIDES_BY_ZERO.replace(
    "[] s=1 -> true;", "[] s=0 -> (s'=0);\n  [] s=1 -> true;")


@pytest.mark.parametrize("make, error, text, former", [
    (_boolean_entry, ModelError, "boolean where a number was expected: p < 1", None),
    (lambda: parse_program(DIVIDES_BY_ZERO), ExprError, "division by zero", None),
    (lambda: parse_program(BIG_COST), OverflowError, "too large for a float", None),
    (lambda: parse_program(IMPROPER_THEN_DIVISION), ExprError, "division by zero",
     (ImproperModelError, "state (s=0)")),
], ids=["boolean", "division", "overflow", "improper-first"])
def test_a_failing_build_keeps_nothing_and_fails_again(make, error, text, former):
    program = make()
    query = SynthesisQuery("t", F(1), "t")
    outcomes = []
    for _ in range(2):
        with pytest.raises(error) as err:
            synthesize_enumerate(program, query)
        outcomes.append((type(err.value), str(err.value)))
        assert build_model(program)._family is None
    assert outcomes[0] == outcomes[1] and text in outcomes[0][1]
    with pytest.raises(error) as err:
        synthesize_enumerate(make(), query)
    assert (type(err.value), str(err.value)) == outcomes[0]
    # the per-call route raised the same, or, where an earlier
    # configuration's LP failed, that LP's error
    former_error, former_text = former or (error, text)
    with pytest.raises(former_error) as err:
        oracles.percall_synthesize_enumerate(make(), query)
    assert former_text in str(err.value)
    if former is None:
        assert (type(err.value), str(err.value)) == outcomes[0]


def test_a_transformed_only_call_keeps_the_family_and_drops_the_compiled_entries(two_stage):
    # the admissible valuations come from the kept family alone, in the
    # order of the former scan of every entry, which kept the compiled
    # entries' value tables of every configuration
    want = well_defined_valuations(build_model(replace(two_stage)))
    program = replace(two_stage)
    query = SynthesisQuery("s2", F("0.2"), "absorb", "transformed")
    synthesize(program, query)
    model = build_model(program)
    assert model._family is not None and model._memo is None
    assert synthesis._controlled(program, query).admissible is model._family.valuations
    assert model._family.valuations == want
    # a family whose floats overflow raises what the scan and the cost
    # conversion after it raised, and keeps nothing
    big = parse_program(BIG_COST)
    for _ in range(2):
        with pytest.raises(OverflowError) as err:
            synthesize(big, SynthesisQuery("t", F(1), "t", "transformed"))
        assert str(err.value) == "integer division result too large for a float"
        assert build_model(big)._family is None


def test_labels_are_looked_up_before_the_family_is_read():
    program = parse_program(DIVIDES_BY_ZERO)
    with pytest.raises(ModelError, match='no label "nope"'):
        synthesize_enumerate(program, SynthesisQuery("nope", F(1), "t"))
    assert build_model(program)._memo is None and build_model(program)._family is None


def test_a_family_with_no_well_defined_valuation_is_kept_and_refused_again():
    program = parse_program(NOTHING_WELL_DEFINED)
    for _ in range(2):
        with pytest.raises(SynthesisError, match="no well-defined valuation exists"):
            synthesize_enumerate(program, SynthesisQuery("t", F(1), "t"))
    family = build_model(program)._family
    assert family.valuations == [] and family.stacks == []


# ---------------------------------------------------------------------------
# branch-and-bound reads each node off the commitment table


def _bundled_queries() -> list:
    """The bundled models with their targets and goals, at two bounds."""
    out = []
    for name, target, goal in (("two_stage", "s2", "absorb"), ("die", "one", "rolled"),
                               ("retry_channel", "gaveup", "stopped")):
        text = (MODELS / f"{name}.mgcl").read_text(encoding="utf-8")
        out += [(parse_program(text), SynthesisQuery(target, F(lam), goal))
                for lam in ("0.2", "1")]
    return out


@pytest.mark.parametrize("seed", [1, 2, 3, "bundled"])
def test_disabled_sets_equal_the_former_scan_on_every_node(monkeypatch, seed):
    """On every branch-and-bound node, the choice mask is the complement of
    the former scan's disabled actions, the support walk finds what the
    former walk over ``Choice`` objects found (these controlled models
    have no zero-probability branch), and ``extendable`` answers what the
    full scan of the admissible valuations answers."""
    nodes = fixed_nodes = walks = asked = 0
    current = {}
    init, enabled, extendable = (synthesis._Controlled.__init__, synthesis._Controlled.enabled,
                                 synthesis._Controlled.extendable)
    walk = synthesis._support_commitments

    def kept(problem, program, model, report):
        init(problem, program, model, report)
        current.update(program=program, model=model, report=report)

    def named(fixed) -> dict:
        params = current["program"].parameters.items()
        return {p: vs[k] for (p, vs), k in zip(params, fixed) if k >= 0}

    def checked_enabled(problem, fixed):
        nonlocal nodes, fixed_nodes
        mask = enabled(problem, fixed)
        disabled = oracles.disabled_actions(current["report"].fresh_actions, named(fixed))
        actions = [ch.action for row in problem.model.choices for ch in row]
        assert mask.tolist() == [a not in disabled for a in actions]
        nodes += 1
        fixed_nodes += any(k >= 0 for k in fixed)
        return mask

    def checked_extendable(problem, fixed):
        nonlocal asked
        got = extendable(problem, fixed)
        assert got == oracles.extendable(problem.admissible, named(fixed))
        asked += 1
        return got

    def checked_walk(arr, table, initial, support):
        nonlocal walks
        got = walk(arr, table, initial, support)
        params = current["program"].parameters.items()
        assert {p: {vs[k] for k in ks} for (p, vs), ks in zip(params, got) if ks} \
            == oracles.former_support_commitments(current["model"], current["report"], support)
        walks += 1
        return got

    monkeypatch.setattr(synthesis._Controlled, "__init__", kept)
    monkeypatch.setattr(synthesis._Controlled, "enabled", checked_enabled)
    monkeypatch.setattr(synthesis._Controlled, "extendable", checked_extendable)
    monkeypatch.setattr(synthesis, "_support_commitments", checked_walk)
    corpus = _bundled_queries() if seed == "bundled" else _gen().random_corpus(seed)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for program, query in corpus:
            try:
                synthesize_transformed(program, query)
            except SynthesisError:
                pass
    assert nodes > fixed_nodes > (0 if seed == "bundled" else 50)
    assert walks > 0 and asked > 0

"""The base model is explored once per program: ``build_model`` keeps it on
the ``Program`` it was given, keyed by ``(state_cap, on_deadlock)``, with
the compiled entries and arrays it memoises.  A cached model must be the
model a fresh build gives, field for field, however often it has been
queried; a failing build keeps nothing; derived programs start empty; and
a query asked of one program many times gives what it gives on a freshly
parsed program."""

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
from generators import random_mimdp_program, zero_valued_programs
from mimdp import checking, models, shipyard
from mimdp.checking import expected_cost, reach_prob, stack_family
from mimdp.expressions import ExprError
from mimdp.models import (
    DeadlockError,
    ModelError,
    StateCapExceeded,
    WellDefinednessError,
    build_model,
    compose,
    instantiate,
    well_defined_entries,
)
from mimdp.parser import parse_program
from mimdp.program import pretty
from mimdp.synthesis import SynthesisQuery, synthesize, synthesize_enumerate
from mimdp.transform import transform_all, transform_probabilities, transform_rewards
from test_family import VARYING_SUPPORT
from test_models import ZERO_BRANCHES

ROOT = Path(__file__).resolve().parent.parent
MODELS = ROOT / "models"


def _gen():
    """The benchmark's random program generator, ``perfbench/gen.py``."""
    spec = importlib.util.spec_from_file_location("perfbench_gen", ROOT / "perfbench" / "gen.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _shipyard_text(per_sensor: bool) -> str:
    return shipyard.generate_program(
        shipyard.ShipyardConfig(missions=1), True, per_sensor_grades=per_sensor
    )


def _outcome(call):
    try:
        return call()
    except Exception as e:  # the error itself is part of the outcome
        return type(e), str(e)


def _fields(model) -> tuple:
    return (model.kind, model.var_names, list(model.states), model.initial, model.choices,
            model.costs, model.labels, model.parameters, model.deadlocks)


# the flat transition fields of a model, and the rest
_FLAT = ("actions", "choice_start", "branch_start", "targets", "probs")
_REST = ("kind", "var_names", "states", "initial", "costs", "labels", "parameters", "deadlocks")


def _use(model) -> None:
    """Query ``model`` so that it memoises what queries memoise: the
    compiled entries of a family, the arrays of a concrete model."""
    if model.kind == "mimdp":
        entries = list(well_defined_entries(model))
        if entries:
            instantiate(model, entries[0][0])
    else:
        try:
            reach_prob(model, next(iter(model.labels)) if model.labels else [])
            expected_cost(model, list(range(model.num_states)))
        except ModelError:
            pass


def _programs():
    programs = [parse_program(path.read_text(encoding="utf-8"))
                for path in sorted(MODELS.glob("*.mgcl"))]
    rng = random.Random(11)
    programs += [random_mimdp_program(rng)[0] for _ in range(20)]
    gen = _gen()
    for seed in (1, 2, 3):
        programs += [parse_program(pretty(p)) for p, _ in gen.random_corpus(seed)]
    programs += [parse_program(_shipyard_text(per_sensor)) for per_sensor in (False, True)]
    return programs


def test_a_cached_build_equals_a_fresh_build():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for program in _programs():
            for mode in ("error", "absorb"):
                first = build_model(program, on_deadlock=mode)
                _use(first)
                again = build_model(program, on_deadlock=mode)
                assert again is first
                assert program._models[(models.DEFAULT_STATE_CAP, mode)] is first
                fresh = build_model(replace(program), on_deadlock=mode)
                assert fresh is not first
                assert _fields(again) == _fields(fresh)
                assert again == fresh


def test_a_smaller_state_cap_still_raises():
    program = parse_program((MODELS / "retry_channel.mgcl").read_text(encoding="utf-8"))
    full = build_model(program)
    n = full.num_states
    for cap in (n - 1, 1):
        for _ in range(2):
            with pytest.raises(StateCapExceeded, match=f"^state cap of {cap} states exceeded$"):
                build_model(program, state_cap=cap)
            with pytest.raises(StateCapExceeded, match=f"^state cap of {cap} states exceeded$"):
                build_model(program, {"loss": F(1, 10)}, state_cap=cap)
    assert build_model(program, state_cap=n) == full
    assert build_model(program) is full
    assert set(program._models) == {(models.DEFAULT_STATE_CAP, "error"), (n, "error")}


DEADLOCK = """
module m
  s : [0..2] init 0;
  [] s=0 -> 0.5:(s'=1) + 0.5:(s'=2);
  [] s=1 -> true;
endmodule
label "t" = s=1;
"""

BAD_LABEL = """
const z = 0;
module m
  s : [0..1] init 0;
  [] s=0 -> (s'=1);
  [] s=1 -> true;
endmodule
label "t" = 1/z = s;
"""


@pytest.mark.parametrize("source, error", [
    (DEADLOCK, DeadlockError),
    (BAD_LABEL, ExprError),
], ids=["deadlock", "label"])
def test_a_failing_build_caches_nothing(source, error):
    program = parse_program(source)
    first = _outcome(lambda: build_model(program))
    assert first[0] is not None and issubclass(first[0], error)
    assert program._models == {}
    assert _outcome(lambda: build_model(program)) == first
    assert program._models == {}
    # the failure belongs to its key alone
    if error is DeadlockError:
        absorbed = build_model(program, on_deadlock="absorb")
        assert absorbed.deadlocks == frozenset({2})
        assert list(program._models) == [(models.DEFAULT_STATE_CAP, "absorb")]
        assert _outcome(lambda: build_model(program)) == first


TWO_MODULES = """
param p in {0.25, 0.5};
module a
  x : [0..1] init 0;
  [go] x=0 -> p:(x'=1) + (1-p):(x'=0);
  [] x=1 -> true;
endmodule
module b
  y : [0..1] init 0;
  [go] y=0 -> (y'=1);
  [go] y=1 -> true;
endmodule
rewards
  x=0 : p;
endrewards
label "t" = x=1;
label "g" = x=1;
"""


def test_derived_programs_start_empty(two_stage):
    program = parse_program(TWO_MODULES)
    base = build_model(program)
    _use(base)
    assert list(program._models) == [(models.DEFAULT_STATE_CAP, "error")]
    composed = compose(program)
    assert composed is not program and composed._checked == program._checked
    assert composed._models == {}
    assert replace(program)._models == {}
    assert build_model(composed) == base and build_model(composed) is not base

    build_model(two_stage)
    assert two_stage._models
    rewritten = [transform_rewards(two_stage)[0], transform_probabilities(two_stage)[0]]
    rewritten.append(transform_all(two_stage)[0])
    for out in rewritten:
        assert out is not two_stage and out._models == {}
    assert replace(two_stage)._models == {}


def test_valuation_builds_are_not_cached_and_fail_as_before(two_stage):
    program = replace(two_stage)
    well = {"p": F("0.4"), "q": F("0.3"), "r": F("0.6"), "s": F("0.7")}
    cases = [
        {"p": F("0.4")},  # missing parameters come first ...
        {"p": F("0.5"), "q": F("0.3")},
        {**well, "p": F("0.5")},  # ... then a value outside its set ...
        {**well, "p": F("0.5"), "r": F("0.4")},
        {**well, "r": F("0.4")},  # ... then well-definedness
        {**well, "q": F("0.7"), "s": F("0.7")},
    ]
    want = [_outcome(lambda: build_model(replace(two_stage), u)) for u in cases]
    assert [w[0] for w in want] == [ModelError] * 4 + [WellDefinednessError] * 2
    assert want[0][1] == "valuation missing parameter(s): q, r, s"
    assert want[3][1] == "value 0.5 not in the declared set of 'p'"
    assert want[4][1] == (
        "well-definedness violation at state (loc=0), action tau: probabilities sum to 0.8"
    )
    # a cold program, then the same program warm, fail alike
    assert [_outcome(lambda: build_model(program, u)) for u in cases] == want
    assert list(program._models) == [(models.DEFAULT_STATE_CAP, "error")]
    base = build_model(program)
    _use(base)
    assert [_outcome(lambda: build_model(program, u)) for u in cases] == want
    # an instance is made per call from the cached base, and kept nowhere
    instance = build_model(program, well)
    assert instance is not build_model(program, well) and instance is not base
    assert instance == build_model(replace(two_stage), well) == instantiate(base, well)
    assert instance.kind == "mc" and list(program._models) == [(models.DEFAULT_STATE_CAP, "error")]


# ---------------------------------------------------------------------------
# the routes ask the cached model


def _explorations(monkeypatch) -> list:
    """Record the ``on_deadlock`` mode of every exploration."""
    inner, calls = models._explore, []

    def explore(program, state_cap, on_deadlock):
        calls.append(on_deadlock)
        return inner(program, state_cap, on_deadlock)

    monkeypatch.setattr(models, "_explore", explore)
    return calls


def test_both_routes_explore_the_base_program_once(monkeypatch, two_stage):
    program = replace(two_stage)
    calls = _explorations(monkeypatch)
    query = SynthesisQuery("s2", F("0.2"), "absorb", "both")
    first = synthesize(program, query)
    # the base model once, shared by both routes, and the controlled model
    assert calls == ["error", "absorb"]
    again = synthesize(program, query)
    # the controlled model is kept on the program: the second call explores nothing
    assert calls == ["error", "absorb"]
    assert [r.to_json_dict() for r in again] == [r.to_json_dict() for r in first]


def test_enumeration_compiles_the_entries_once(monkeypatch, two_stage):
    program = replace(two_stage)
    compiled = []

    class Counted(models._Entries):
        def __init__(self, model):
            compiled.append(model)
            super().__init__(model)

    monkeypatch.setattr(models, "_Entries", Counted)
    results = [synthesize_enumerate(program, SynthesisQuery("s2", F(lam), "absorb"))
               for lam in ("0.2", "1")]
    assert len(compiled) == 1 and compiled[0] is build_model(program)
    assert [r.feasible for r in results] == [True, True]


# ---------------------------------------------------------------------------
# a sweep of bounds on one program equals the sweep on fresh programs


def _answer(route, program, query) -> str:
    try:
        results = route(program, query)
    except Exception as e:  # the error itself is part of the answer
        return json.dumps([type(e).__name__, str(e)])
    if not isinstance(results, list):
        results = [results]
    return json.dumps([r.to_json_dict() for r in results], sort_keys=True)


def _same_sweep(route, text, queries) -> set:
    """The answers to ``queries``, asked descending and then ascending of
    one program, equal the answers on a freshly parsed program each."""
    fresh = {q: _answer(route, parse_program(text), q) for q in queries}
    program = parse_program(text)
    for q in list(queries) + list(reversed(queries)):
        assert _answer(route, program, q) == fresh[q], q
    return set(fresh.values())


def test_a_sweep_of_bounds_on_one_random_program_equals_fresh_programs():
    answers = set()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for generated, query in _gen().random_corpus(1):
            text = pretty(generated)
            queries = [replace(query, bound=F(lam)) for lam in ("1", "1/10")]
            answers |= _same_sweep(synthesize, text, queries)
    # feasible and infeasible answers both occur
    assert any('"feasible": true' in a for a in answers)
    assert any('"feasible": false' in a for a in answers)


def test_a_sweep_of_bounds_on_the_per_sensor_shipyard_family_equals_fresh_programs():
    queries = [SynthesisQuery("failure", F(lam), "done", "enumerate")
               for lam in ("1", "3/100", "1/100", "1/1000")]
    answers = _same_sweep(synthesize_enumerate, _shipyard_text(True), queries)
    assert len(answers) == 4
    assert sum('"feasible": true' in a for a in answers) == 3


# ---------------------------------------------------------------------------
# exploration writes the flat fields: the former code on ``Choice`` rows


def _assert_same_model(new, former):
    """``new`` equals ``former``, made by the former code through
    ``ExplicitModel.from_rows``, field for field: offsets and targets as
    read-only int64 arrays, exact probabilities of the same types, and the
    rows of ``Choice``s read through the view."""
    for name in _REST + ("actions", "probs"):
        a, b = getattr(new, name), getattr(former, name)
        assert a == b and list(map(type, a if isinstance(a, list) else [a])) == \
            list(map(type, b if isinstance(b, list) else [b])), name
    for name in ("choice_start", "branch_start", "targets"):
        a, b = getattr(new, name), getattr(former, name)
        assert a.dtype == b.dtype == np.int64 and np.array_equal(a, b), name
        assert not a.flags.writeable, name
    assert new.choices == former.choices and new == former
    assert new.num_transitions == former.num_transitions


def _assert_same_arrays(new, former):
    """Every field of two ``checking._Arrays``, bit for bit."""
    assert vars(new).keys() == vars(former).keys()
    for name, a in vars(new).items():
        b = getattr(former, name)
        if isinstance(a, np.ndarray):
            assert a.dtype == b.dtype and a.shape == b.shape, name
            assert a.tobytes() == b.tobytes(), name
        elif isinstance(a, checking._Split):
            # each its own holder of components, none computed yet
            assert a is not b and type(b) is checking._Split, name
            assert [getattr(s, f) for s in (a, b) for f in s.__slots__] == [None] * 2 * len(
                a.__slots__), name
        else:
            assert a == b, name


def _with_former(programs):
    """Per program, its base model and its controlled model with those the
    former exploration makes."""
    cap = models.DEFAULT_STATE_CAP
    for program in programs:
        yield build_model(program), oracles.former_explore(compose(program), cap, "error")
        controlled = transform_all(program)[0]
        yield (build_model(controlled, on_deadlock="absorb"),
               oracles.former_explore(compose(controlled), cap, "absorb"))


def _flat_corpus():
    """The bundled models, both shipyard families and ``random_corpus``
    seeds 1-3, with the former exploration's models (``_with_former``)."""
    programs = [parse_program(path.read_text(encoding="utf-8"))
                for path in sorted(MODELS.glob("*.mgcl"))]
    programs += [parse_program(_shipyard_text(per_sensor)) for per_sensor in (False, True)]
    gen = _gen()
    for seed in (1, 2, 3):
        programs += [parse_program(pretty(p)) for p, _ in gen.random_corpus(seed)]
    # families with zero-probability branches and more than one support
    programs += [parse_program(text) for text in (ZERO_BRANCHES, VARYING_SUPPORT)]
    return _with_former(programs)


def _assert_same_as_the_former(model, former, checked: dict) -> list:
    """``model`` is the former exploration's ``former``; for a family, three
    instances and every support stack equal the former ones too.  Counts
    into ``checked``; returns a family's well-defined entries."""
    _assert_same_model(model, former)
    if model.kind != "mimdp":
        checked["controlled"] += 1
        _assert_same_arrays(checking._Arrays(model), oracles.FormerArrays(model))
        return []
    checked["base"] += 1
    entries = list(well_defined_entries(model))
    for _, probs, costs in entries[:2] + entries[-1:]:
        fractions = [F(*p) for p in probs]
        inst = models._instance(model, fractions, [F(*c) for c in costs])
        want = oracles.former_instance(model, fractions, [F(*c) for c in costs])
        _assert_same_model(inst, want)
        for name in ("choice_start", "branch_start", "targets"):
            assert getattr(inst, name) is getattr(model, name)
        _assert_same_arrays(checking._Arrays(inst), oracles.FormerArrays(inst))
        checked["instances"] += 1
    # every support stack of the family, against the former walk with
    # that support and the stack's own probability rows
    for stack in stack_family(model, [(p, c) for _, p, c in entries]):
        probs = entries[stack.members[0]][1]
        support = tuple(p != 0 for p, _ in probs)
        _assert_same_arrays(stack.arr, oracles.FormerArrays(model, support, stack.arr.probs))
        checked["stacks"] += 1
    return entries


def test_exploration_instances_and_arrays_equal_the_former_object_built_ones():
    checked = {"base": 0, "controlled": 0, "instances": 0, "stacks": 0}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for model, former in _flat_corpus():
            _assert_same_as_the_former(model, former, checked)
    assert checked == {"base": 307, "controlled": 307, "instances": 921, "stacks": 309}


def test_zero_valued_families_equal_the_former_object_built_ones():
    """Random families in which some parameter takes the value 0: branches
    of probability 0, masked by the arrays, and several support stacks."""
    checked = {"base": 0, "controlled": 0, "instances": 0, "stacks": 0}
    zero = several = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for model, former in _with_former(p for p, _ in zero_valued_programs()):
            stacks = checked["stacks"]
            entries = _assert_same_as_the_former(model, former, checked)
            zero += any(p == 0 for _, probs, _ in entries for p, _ in probs)
            several += checked["stacks"] - stacks > 1
    assert checked["base"] == checked["controlled"] == 40
    assert zero >= 5 and several >= 5


def test_no_choice_is_made_on_the_hot_paths(monkeypatch):
    """Exploration, instantiation, both routes and the checker read the
    flat fields: a cold and then a warm ``synthesize(method="both")`` on the
    per-sensor shipyard model and on three ``random_corpus`` seed-1
    programs, and ``check_spec`` on the benchmark's retry-channel
    properties, make no ``Choice``."""
    made = []

    class Counted(models.Choice):
        def __init__(self, *args, **kwargs):
            made.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(models, "Choice", Counted)
    assert build_model(parse_program(DEADLOCK), on_deadlock="absorb").choices[0] and made
    made.clear()

    runs = [(parse_program(_shipyard_text(True)), SynthesisQuery("failure", F(3, 100), "done"))]
    runs += [(parse_program(pretty(p)), q) for p, q in _gen().random_corpus(1, 3)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for program, query in runs:
            for _ in ("cold", "warm"):
                results = synthesize(program, replace(query, method="both"))
                assert [r.method for r in results] == ["enumerate", "transformed"]
                assert made == []

    text = (MODELS / "retry_channel.mgcl").read_text(encoding="utf-8")
    program = parse_program(text.replace("const retries = 40;", "const retries = 200;"))
    chain = build_model(program, {"loss": F(2, 5)})
    mdp = build_model(transform_all(program)[0], on_deadlock="absorb")
    props = [(chain, 'Pmax=? [F "gaveup"]'), (chain, 'ECmin=? [F "stopped"]'),
             (chain, 'P=? [F{C<20} "delivered"]'), (mdp, 'Pmax=? [F "gaveup"]'),
             (mdp, 'Pmin=? [F "gaveup"]')]
    for model, prop in props:
        for _ in ("cold", "warm"):
            checking.check_spec(model, checking.parse_property(prop))
    assert made == []

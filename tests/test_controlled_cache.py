"""The transformed route keeps what no bound changes on the base program:
``synthesize_transformed`` transforms the program and explores the
controlled MDP once, and keeps that model with its arrays, its commitment
table and the well-defined valuations in ``Program._controlled``.  A sweep
of bounds on one program must give what each bound gives on a freshly
parsed program; the kept model must be the model a fresh build gives,
field for field; the kept index matrix must spell the kept valuations; and
a call that raises keeps nothing."""

import importlib.util
import json
import warnings
from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path

import pytest

import oracles
from mimdp import models, synthesis
from mimdp.expressions import ExprError
from mimdp.models import DeadlockError, StateCapExceeded, build_model
from mimdp.parser import parse_file, parse_program
from mimdp.program import pretty
from mimdp.synthesis import (
    SynthesisError,
    SynthesisQuery,
    synthesize,
    synthesize_transformed,
)
from mimdp.transform import TransformError, transform_all
from test_constrained_lp import SINK

ROOT = Path(__file__).resolve().parent.parent
MODELS = ROOT / "models"
BOUNDS = ("1", "1/10", "0", "1")


def _gen():
    """The benchmark's random program generator, ``perfbench/gen.py``."""
    spec = importlib.util.spec_from_file_location("perfbench_gen", ROOT / "perfbench" / "gen.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _fields(model) -> tuple:
    return (model.kind, model.var_names, list(model.states), model.initial, model.choices,
            model.costs, model.labels, model.parameters, model.deadlocks)


def _answer(program, query) -> str:
    try:
        results = synthesize(program, query)
    except Exception as e:  # the error itself is part of the answer
        return json.dumps([type(e).__name__, str(e)])
    return json.dumps([r.to_json_dict() for r in results], sort_keys=True)


def _corpus(part: str) -> list:
    """(source text, target, goal) of the bundled two-stage and die models
    and the sink family, or of the benchmark's random programs of a seed."""
    if part == "bundled":
        return [((MODELS / "two_stage.mgcl").read_text(encoding="utf-8"), "s2", "absorb"),
                ((MODELS / "die.mgcl").read_text(encoding="utf-8"), "one", "rolled"),
                (SINK.format(param="param p in {0, 0.5};", loop="(1-p):(s'=1) + p:(s'=3)"),
                 "t", "g")]
    return [(pretty(p), q.target, q.goal) for p, q in _gen().random_corpus(int(part))]


def _swept(text: str, target: str, goal: str):
    """Sweep ``BOUNDS`` on one program, each bound with method 'both' and
    then 'transformed', against a freshly parsed program per answer;
    return the program and its answers."""
    queries = [SynthesisQuery(target, F(lam), goal, method)
               for lam in BOUNDS for method in ("both", "transformed")]
    fresh = {q: _answer(parse_program(text), q) for q in set(queries)}
    program = parse_program(text)
    answers = [_answer(program, q) for q in queries]
    assert answers == [fresh[q] for q in queries]
    return program, answers


# ---------------------------------------------------------------------------
# one transform and one controlled exploration per program


def test_three_bounds_on_one_program_transform_and_explore_once(monkeypatch):
    transforms, explored = [], []
    inner_transform, inner_explore = synthesis.transform_all, models._explore

    def transform(program):
        transforms.append(program)
        return inner_transform(program)

    def explore(program, state_cap, on_deadlock):
        explored.append(on_deadlock)
        return inner_explore(program, state_cap, on_deadlock)

    monkeypatch.setattr(synthesis, "transform_all", transform)
    monkeypatch.setattr(models, "_explore", explore)
    program = parse_file(MODELS / "two_stage.mgcl")
    lams = ("1", "0.2", "0.1")
    results = [synthesize_transformed(program, SynthesisQuery("s2", F(lam), "absorb"))
               for lam in lams + lams[::-1]]
    assert transforms == [program]
    assert explored.count("absorb") == 1 and explored == ["absorb", "error"]
    assert [r.feasible for r in results] == [True, True, False, False, True, True]
    assert results[0].to_json_dict() == results[-1].to_json_dict()
    assert isinstance(program._controlled, synthesis._Controlled)


# ---------------------------------------------------------------------------
# a sweep on one program equals fresh programs; the kept model a fresh build


@pytest.mark.parametrize("part", ["bundled", "1", "2", "3"])
def test_sweeps_on_one_program_equal_fresh_programs_and_the_kept_problem_a_fresh_one(part):
    answers, asked = set(), 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for text, target, goal in _corpus(part):
            program, got = _swept(text, target, goal)
            answers.update(got)
            kept = program._controlled
            if kept is None:
                # no call returned, so nothing is kept
                assert all(a.startswith('["') for a in got[1::2])
                continue
            # branch-and-bound reads the kept model's own arrays
            assert kept.arr is kept.model._arrays is not None
            fresh = build_model(transform_all(replace(program))[0], on_deadlock="absorb")
            assert _fields(kept.model) == _fields(fresh)
            assert kept.model == fresh
            params = program.parameters.items()
            assert kept.valuations.shape == (len(kept.admissible), len(params))
            for u, row in zip(kept.admissible, kept.valuations.tolist()):
                assert u == {p: vs[k] for (p, vs), k in zip(params, row)}
                assert kept.extendable(tuple(row)) and oracles.extendable(kept.admissible, u)
                asked += 1
    # feasible and infeasible answers both occur
    assert any('"feasible": true' in a for a in answers)
    assert any('"feasible": false' in a for a in answers)
    assert asked > 0


# ---------------------------------------------------------------------------
# a call that raises keeps nothing


OVERLAP = """
param p in {1, 2};
module m
  s : [0..1] init 0;
  [] s=0 -> (s'=1);
  [] s=1 -> true;
endmodule
rewards
  s=0 : p;
  s<=1 : p;
endrewards
label "t" = s=1;
"""

DEADLOCK = """
param p in {0.25, 0.5};
module m
  s : [0..2] init 0;
  [] s=0 -> p:(s'=1) + (1-p):(s'=2);
  [] s=1 -> true;
endmodule
label "t" = s=1;
"""

BAD_LABEL = """
const z = 0;
param p in {0.25, 0.5};
module m
  s : [0..1] init 0;
  [] s=0 -> p:(s'=1) + (1-p):(s'=0);
  [] s=1 -> true;
endmodule
label "t" = 1/z = s;
"""

# each command is well-defined under one value of p, but not the same one
ILL_DEFINED = """
param p in {0.25, 0.5, 0.75};
module m
  s : [0..2] init 0;
  [] s=0 -> p:(s'=1) + 0.5:(s'=0);
  [] s=1 -> (1-p):(s'=2) + 0.75:(s'=0);
  [] s=2 -> true;
endmodule
label "t" = s=2;
"""


def _small_cap(monkeypatch, cap: int) -> None:
    """The controlled build under a state cap of ``cap`` states."""
    inner = synthesis.build_model

    def build(program, *args, **kwargs):
        if kwargs.get("on_deadlock") == "absorb":
            kwargs["state_cap"] = cap
        return inner(program, *args, **kwargs)

    monkeypatch.setattr(synthesis, "build_model", build)


@pytest.mark.parametrize("source, target, error, text", [
    (OVERLAP, "t", TransformError, "parametric reward guards 1 and 2 overlap"),
    (DEADLOCK, "t", DeadlockError, "deadlock"),
    (BAD_LABEL, "t", ExprError, "division by zero"),
    (ILL_DEFINED, "t", SynthesisError, "no well-defined valuation exists"),
    ((MODELS / "two_stage.mgcl").read_text(encoding="utf-8"), "nope", models.ModelError,
     "nope"),
    ((MODELS / "two_stage.mgcl").read_text(encoding="utf-8"), "s2", StateCapExceeded,
     "state cap of 3 states exceeded"),
], ids=["transform", "base-deadlock", "label-value", "no-valuation", "missing-label", "cap"])
def test_a_failing_call_keeps_nothing_and_fails_again(monkeypatch, source, target, error, text):
    if error is StateCapExceeded:
        _small_cap(monkeypatch, 3)
    program = parse_program(source)
    query = SynthesisQuery(target, F(1), target)
    outcomes = []
    for _ in range(2):
        with pytest.raises(error) as err:
            synthesize_transformed(program, query)
        outcomes.append((type(err.value), str(err.value)))
        assert program._controlled is None
    assert outcomes[0] == outcomes[1] and text in outcomes[0][1]
    with pytest.raises(error) as err:
        synthesize_transformed(parse_program(source), query)
    assert (type(err.value), str(err.value)) == outcomes[0]


def test_a_failing_bound_keeps_what_an_earlier_call_kept(two_stage):
    program = replace(two_stage)
    synthesize_transformed(program, SynthesisQuery("s2", F(1), "absorb"))
    kept = program._controlled
    assert kept is not None
    with pytest.raises(models.ModelError):
        synthesize_transformed(program, SynthesisQuery("nope", F(1), "absorb"))
    assert program._controlled is kept

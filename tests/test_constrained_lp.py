"""Differential tests of the constrained LP read off the checker's arrays.

``constrained_mdp_lp`` must return exactly what the former LP returns
(``oracles.seed_constrained_mdp_lp``, which copied the model with absorbing
targets and goals and flattened a restricted copy again): the same expected
cost, target probability and strategy, or the same error.  One change is
intended: a state whose every choice has one positive branch, back to the
state itself, is a sink whether or not a choice also has zero-probability
branches, as zero-probability branches are not edges for the checker.
"""

import itertools
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction as F

import pytest

import oracles
from generators import random_mdp
from mimdp import checking, models, synthesis
from mimdp.expressions import Name
from mimdp.models import build_model
from mimdp.parser import parse_file, parse_program
from mimdp.synthesis import (
    ImproperModelError,
    SynthesisQuery,
    constrained_mdp_lp,
    synthesize,
    synthesize_enumerate,
    synthesize_transformed,
)
from mimdp.transform import transform_all


def _outcome(lp, *args, **kwargs):
    try:
        res = lp(*args, **kwargs)
    except Exception as e:  # the error itself is part of the outcome
        return type(e), str(e)
    return res.expected_cost, res.reach_probability, res.strategy.choice_probs


def _same_as_the_former_lp(model, targets, bound, goals, disabled=frozenset()):
    got = _outcome(constrained_mdp_lp, model, targets, bound, goals, disabled_actions=disabled)
    want = _outcome(
        oracles.seed_constrained_mdp_lp, model, targets, bound, goals, disabled_actions=disabled
    )
    assert got == want
    return got


def _random_cases(count: int, seed: int):
    """Random MDPs (some with deadlock-marked states) with random target and
    goal sets, bounds and disabled actions."""
    rng = random.Random(seed)
    for _ in range(count):
        model = random_mdp(rng, max_states=rng.choice((5, 12, 30)))
        n = model.num_states
        if rng.random() < 0.2:
            model = replace(
                model, deadlocks=frozenset(s for s in range(n) if rng.random() < 0.15)
            )
        targets = {s for s in range(n) if rng.random() < 0.15}
        goals = {s for s in range(n) if rng.random() < 0.1}
        if rng.random() < 0.8:
            goals |= model.labels["stop"]
        disabled = frozenset(a for a in ("a0", "a1", "a2", "a3") if rng.random() < 0.25)
        bound = F(rng.choice(("0", "0.1", "0.3", "0.7", "1")))
        yield model, targets, bound, goals, disabled


def test_random_mdps_equal_the_former_lp():
    kinds = Counter()
    for case in _random_cases(600, 8):
        got = _same_as_the_former_lp(*case)
        kinds[got[0].__name__ if isinstance(got[0], type) else "optimal"] += 1
    assert kinds["optimal"] > 150
    assert kinds["InfeasibleError"] > 30
    assert kinds["ImproperModelError"] > 30


def _disabled_sets(program, report):
    """The disabled actions of every branch-and-bound node that fixes each
    parameter to one value or leaves it free."""
    params = program.parameters
    for fixed in itertools.product(*([None, *vs] for vs in params.values())):
        yield frozenset(
            a
            for a, commits in report.fresh_actions.items()
            for p, v in zip(params, fixed)
            if v is not None and any(cp == p and cv != v for cp, cv in commits)
        )


@pytest.mark.parametrize(
    "name, target, goal",
    [("two_stage", "s2", "absorb"), ("die", "one", "rolled"),
     ("retry_channel", "gaveup", "stopped")],
)
def test_transformed_bundled_models_equal_the_former_lp(models_dir, name, target, goal):
    program = parse_file(models_dir / f"{name}.mgcl")
    transformed, report = transform_all(program)
    model = build_model(transformed, on_deadlock="absorb")
    solved = 0
    for disabled in _disabled_sets(program, report):
        for lam in ("0", "0.2", "1"):
            got = _same_as_the_former_lp(model, target, F(lam), goal, disabled)
            solved += not isinstance(got[0], type)
    assert solved > 0


def test_branch_and_bound_nodes_share_one_set_of_arrays(monkeypatch, two_stage):
    built, lps = [], []

    class Counted(checking._Arrays):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    def counted_lp(model, arr, *args, **kwargs):
        enabled = args[-1]
        lps.append((oracles.masked_actions(model, enabled), arr))
        return occupation_lp(model, arr, *args, **kwargs)

    occupation_lp = synthesis._occupation_lp
    monkeypatch.setattr(checking, "_Arrays", Counted)
    monkeypatch.setattr(synthesis, "_occupation_lp", counted_lp)
    # a copy: the session's two_stage may have kept its controlled model already
    program = replace(two_stage)
    query = SynthesisQuery("s2", F("0.2"), "absorb")
    res = synthesize_transformed(program, query)
    assert res.feasible
    # one set for the controlled model; the others are the stacks of the
    # base model's family, which holds the admissible valuations
    controlled = program._controlled.model
    family = build_model(program)._family
    assert [args[0] is controlled for args in built] == [False] * len(family.stacks) + [True]
    assert len({disabled for disabled, _ in lps}) > 1
    arrays = controlled._arrays
    assert all(arr is arrays for _, arr in lps)
    # a second call reads the kept model's arrays and builds none
    del lps[:]
    assert synthesize_transformed(program, query).feasible
    assert len({disabled for disabled, _ in lps}) > 1 and len(built) == len(family.stacks) + 1
    assert all(arr is arrays for _, arr in lps)


def test_a_state_out_of_range_raises_as_in_reach_prob():
    model = build_model(parse_program(SINK.format(param="", loop="1:(s'=1)")))
    for targets, goals, bad in (({3, 4}, {2}, 4), ({3}, {-1, 2}, -1)):
        with pytest.raises(models.ModelError, match=rf"^target state {bad} out of range$"):
            constrained_mdp_lp(model, targets, F(1), goals)
    with pytest.raises(models.ModelError, match=r"^target state 4 out of range$"):
        checking.reach_prob(model, {3, 4})


def _costed(cost):
    # state 0 picks between state 1 and a half-half split into 1 and 2
    choices = [
        [models.Choice("a", ((F(1), 1),)), models.Choice("b", ((F(1, 2), 1), (F(1, 2), 2)))],
        [models.Choice(None, ((F(1), 1),))],
        [models.Choice(None, ((F(1), 2),))],
    ]
    return models.ExplicitModel.from_rows(
        kind="mdp", var_names=("s",), states=[(0,), (1,), (2,)], initial=0, choices=choices,
        costs=[cost, F(0), F(0)], labels={"t": frozenset({1}), "g": frozenset({1, 2})},
        parameters={},
    )


def test_the_lp_reads_state_costs_as_expected_cost_does():
    # a negative cost: the LP answered ec = -1.0, which expected_cost refuses
    negative = _costed(F(-1))
    for call in (lambda: constrained_mdp_lp(negative, "t", F(1), "g"),
                 lambda: checking.expected_cost(negative, "g")):
        with pytest.raises(models.ModelError, match="^negative cost at state 0$"):
            call()
    # a symbolic cost: the LP raised a bare TypeError from float()
    symbolic = _costed(Name("c"))
    for call in (lambda: constrained_mdp_lp(symbolic, "t", F(1), "g"),
                 lambda: checking.expected_cost(symbolic, "g")):
        with pytest.raises(models.ModelError, match="^expected cost needs concrete state costs$"):
            call()
    # a concrete nonnegative cost is read as before
    res = constrained_mdp_lp(_costed(F(3)), "t", F("0.75"), "g")
    assert (res.expected_cost, res.reach_probability) == (3.0, 0.5)


# one nondeterministic state and a state s=1 that loops back with
# probability one; in the family it does so under p = 0 only
SINK = """
{param}
module m
  s : [0..3] init 0;
  [a] s=0 -> 0.5:(s'=1) + 0.5:(s'=2);
  [b] s=0 -> 0.2:(s'=1) + 0.8:(s'=3);
  [] s=1 -> {loop};
  [] s>=2 -> true;
endmodule
rewards
  s=0 : 1;
endrewards
label "t" = s=3;
label "g" = s=2;
"""


def test_a_zero_probability_branch_does_not_keep_a_sink_transient():
    with_zero = build_model(parse_program(SINK.format(param="", loop="1:(s'=1) + 0:(s'=3)")))
    without = build_model(parse_program(SINK.format(param="", loop="1:(s'=1)")))
    assert len(with_zero.choices[1][0].branches) == 2
    for lam in ("0", "0.1", "1"):
        got = _outcome(constrained_mdp_lp, with_zero, "t", F(lam), "g")
        assert got == _outcome(constrained_mdp_lp, without, "t", F(lam), "g")
        assert got[:2] == (1.0, 0.0)
    # the former LP counted the zero branch, kept s=1 transient and failed
    with pytest.raises(ImproperModelError):
        oracles.seed_constrained_mdp_lp(with_zero, "t", F(1), "g")


def test_a_family_with_a_sink_under_one_valuation_synthesises_on_both_routes():
    program = parse_program(
        SINK.format(param="param p in {0, 0.5};", loop="(1-p):(s'=1) + p:(s'=3)")
    )
    for lam in ("0", "0.1", "1"):
        # "both" raises unless the routes agree
        enum, transformed = synthesize(program, SynthesisQuery("t", F(lam), "g"))
        assert enum.feasible and transformed.feasible
        assert enum.valuation == transformed.valuation == {"p": F(0)}
        assert [e.feasible for e in enum.table] == [True, lam == "1"]


def test_an_mdp_family_builds_no_instance(monkeypatch):
    program = parse_program(
        SINK.format(param="param p in {0.25, 0.5};", loop="(1-p):(s'=1) + p:(s'=3)")
    )

    def no_instance(*_, **__):
        raise AssertionError("an MDP family is not instantiated per configuration")

    want = oracles.seed_synthesize_enumerate(program, SynthesisQuery("t", F("0.1"), "g"))
    monkeypatch.setattr(models, "_instance", no_instance)
    got = synthesize_enumerate(program, SynthesisQuery("t", F("0.1"), "g"))
    assert got == want and len(got.table) == 2

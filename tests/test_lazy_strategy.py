"""The occupation LP's solution keeps the LP's flows and builds its exact
``Strategy`` only when ``strategy`` is read; branch-and-bound reads the
support instead.  The strategy read must equal the former LP's
(``oracles.seed_constrained_mdp_lp``), the support must be that strategy's,
and a synthesis call builds the strategy of its answer alone."""

import random
import warnings
from fractions import Fraction as F

import oracles
from generators import random_mimdp_program
from mimdp import models
from mimdp.models import build_model, instantiate, well_defined_valuations
from mimdp.parser import parse_file
from mimdp.checking import _model_arrays
from mimdp.synthesis import (
    _commitment_table,
    _support_commitments,
    constrained_mdp_lp,
    synthesize_enumerate,
    synthesize_transformed,
)
from mimdp.transform import transform_all


def _mdp_families(count=12, seed=41):
    """Random families whose instances are MDPs, with their queries."""
    rng = random.Random(seed)
    families = []
    while len(families) < count:
        program, query = random_mimdp_program(rng, max_states=rng.choice((6, 14)))
        if any(len(row) > 1 for row in build_model(program).choices):
            families.append((program, query))
    return families


def _node_disabled_sets(program, report):
    """No action disabled, and the actions disabled by fixing each
    parameter to each of its values on its own."""
    yield frozenset()
    for p, values in program.parameters.items():
        for v in values:
            yield frozenset(
                a for a, commits in report.fresh_actions.items()
                if any(cp == p and cv != v for cp, cv in commits)
            )


def _outcome(lp, *args, **kwargs):
    try:
        res = lp(*args, **kwargs)
    except Exception as e:  # the error itself is part of the outcome
        return type(e), str(e)
    return res


def _same_strategy(model, target, bound, goal, disabled=frozenset()):
    """The LP's solution against the former LP's; its support, read before
    its strategy is built, against that strategy.  The solution, or None."""
    got = _outcome(constrained_mdp_lp, model, target, bound, goal, disabled_actions=disabled)
    want = _outcome(
        oracles.seed_constrained_mdp_lp, model, target, bound, goal, disabled_actions=disabled
    )
    if isinstance(want, tuple):
        assert got == want
        return None
    support = got.support
    assert (got.expected_cost, got.reach_probability) == (want.expected_cost, want.reach_probability)
    assert got.strategy.choice_probs == want.strategy.choice_probs
    assert support == [tuple(dist) for dist in got.strategy.choice_probs]
    assert got.support is support
    return got


def _controlled(program):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        transformed, report = transform_all(program)
        return build_model(transformed, on_deadlock="absorb"), report


def test_strategies_of_random_mdp_families_equal_the_former_lp():
    solved = randomized = 0
    for program, query in _mdp_families():
        family = build_model(program)
        for u in well_defined_valuations(family):
            for bound in (query.bound, F(1)):
                res = _same_strategy(instantiate(family, u), query.target, bound, query.goal)
                solved += res is not None
        model, report = _controlled(program)
        table = _commitment_table(model, report, program.parameters)
        for disabled in _node_disabled_sets(program, report):
            for bound in (query.bound, F(1)):
                res = _same_strategy(model, query.target, bound, query.goal, disabled)
                if res is None:
                    continue
                solved += 1
                randomized += any(len(ci) > 1 for ci in res.support)
                # the commitments branch-and-bound reads off the support are
                # those of the built strategy
                walks = [
                    _support_commitments(_model_arrays(model), table, model.initial, support)
                    for support in (res.support, res.strategy.choice_probs)
                ]
                assert walks[0] == walks[1]
    assert solved > 100 and randomized > 0


def test_strategies_of_the_bundled_models_equal_the_former_lp(models_dir):
    for name, target, goal in (("two_stage", "s2", "absorb"), ("die", "one", "rolled"),
                               ("retry_channel", "gaveup", "stopped")):
        program = parse_file(models_dir / f"{name}.mgcl")
        model, report = _controlled(program)
        solved = 0
        for disabled in _node_disabled_sets(program, report):
            for bound in ("0", "0.2", "1"):
                solved += _same_strategy(model, target, F(bound), goal, disabled) is not None
        assert solved > 0


def _counting_strategies(monkeypatch) -> list:
    """The strategies built from now on, normalised when built
    (``Strategy.__post_init__``) or state by state when read
    (``Strategy.lazy``, as the LP's solution builds its strategy)."""
    built = []
    post_init, lazy = models.Strategy.__post_init__, models.Strategy.lazy.__func__

    def counting(self):
        built.append(self)
        post_init(self)

    def counting_lazy(cls, *args):
        built.append(lazy(cls, *args))
        return built[-1]

    monkeypatch.setattr(models.Strategy, "__post_init__", counting)
    monkeypatch.setattr(models.Strategy, "lazy", classmethod(counting_lazy))
    return built


def test_a_synthesis_call_builds_only_the_strategy_it_reports(monkeypatch):
    built = _counting_strategies(monkeypatch)
    feasible = 0
    for program, query in _mdp_families():
        built.clear()
        res = synthesize_enumerate(program, query)
        if res.feasible:
            assert len(res.table) > 1 and len(built) == 1 and res.strategy is built[0]
            assert isinstance(res.strategy.choice_probs, models.LazySequence)
            feasible += 1
        else:
            assert built == []
        built.clear()
        res = synthesize_transformed(program, query)
        assert len(built) <= 1
        if built:
            assert res.strategy is built[0]
    assert feasible > 5

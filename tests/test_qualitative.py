"""Differential tests of the checker's graph searches, greedy pick and
policy polish against the fixpoint code they replaced (``oracles``)."""

import random
from dataclasses import replace

import numpy as np
import pytest

import oracles
from generators import random_mc, random_mdp
from mimdp import checking
from mimdp.checking import ExpectedCostUndefined, expected_cost, reach_prob

QUALITATIVE = ("_prob0_max", "_prob1_max", "_prob0_min", "_prob1_min")


def _corpus():
    rng = random.Random(2024)
    models = [random_mdp(rng) for _ in range(240)]
    mc_rng = random.Random(42)
    models += [random_mc(mc_rng) for _ in range(50)]
    return models


CORPUS = _corpus()


def _target_sets(model, rng):
    for label in model.labels:
        yield set(model.label_states(label))
    yield set()
    yield {rng.randrange(model.num_states) for _ in range(rng.randint(1, 4))}


def test_corpus_covers_the_graph_corner_cases():
    mdps = [m for m in CORPUS if m.kind == "mdp"]
    assert len(mdps) >= 200
    self_loops = sum(
        any(t == s for ch in row for _, t in ch.branches)
        for m in mdps for s, row in enumerate(m.choices) if len(row) > 1
    )
    unreachable = sum(
        len(oracles._reachable_from(oracles.SeedArrays(m), m.initial)) < m.num_states
        for m in mdps
    )
    several = sum(any(len(row) > 1 for row in m.choices) for m in mdps)
    sinks = sum(
        any(row == [row[0]] and row[0].branches == ((1, s),) and s not in m.labels["target"]
            for s, row in enumerate(m.choices))
        for m in mdps
    )
    assert self_loops and unreachable > 20 and several > 150 and sinks > 20


def test_graph_sets_equal_the_former_fixpoints():
    rng = random.Random(7)
    for model in CORPUS:
        arr = oracles.SeedArrays(model)
        for targets in _target_sets(model, rng):
            for name in QUALITATIVE:
                new = getattr(checking, name)(arr, set(targets))
                old = getattr(oracles, name)(arr, set(targets))
                assert new == old, (name, model.choices, targets)


def _former_predecessors(arr):
    return [[c for _, c in into] for into in oracles._predecessors(arr)]


def test_predecessor_lists_equal_the_former_per_branch_lists():
    # ascending choices, each listed once per branch into the state, for
    # every construction: a model, a family's support and the budget product
    rng = random.Random(12)
    repeated = 0  # a choice with two branches into one state
    for model in CORPUS:
        arr = checking._Arrays(model)
        assert arr.predecessors == _former_predecessors(arr)
        repeated += any(len(set(cs)) < len(cs) for cs in arr.predecessors)
        support = [rng.random() < 0.7 or j == 0 for row in model.choices for ch in row
                   for j in range(len(ch.branches))]
        family = checking._Arrays(model, support, np.ones((2, sum(support))))
        assert family.predecessors == _former_predecessors(family)
        target = checking._mask(model.num_states, {rng.randrange(model.num_states)})
        cost = np.array([rng.randint(0, 2) for _ in range(model.num_states)])
        for width in (1, 3):
            product = checking._product_arrays(arr, target, cost, width)
            assert product.predecessors == _former_predecessors(product)
    assert repeated > 20


def _restricted(model, on):
    """The model with only the choices ``on`` (a flat mask) left."""
    flags = iter(on.tolist())
    return replace(model, choices=[[ch for ch in row if next(flags)] for row in model.choices])


def test_masked_searches_equal_the_former_fixpoints_on_the_restricted_model():
    rng = random.Random(11)
    np_rng = np.random.default_rng(11)
    choiceless = 0  # states left with no enabled choice, summed over the cases
    for model in CORPUS:
        arr = oracles.SeedArrays(model)
        for share in (0.3, 0.7, 1.0):
            on = np_rng.random(arr.num_choices) < share
            restricted = oracles.SeedArrays(_restricted(model, on))
            choiceless += int(np.sum(np.diff(restricted.choice_start) == 0))
            for targets in _target_sets(model, rng):
                zero = checking._prob0_min(arr, set(targets), on)
                assert zero == oracles._prob0_min(restricted, set(targets))
                assert checking._prob1_min(arr, set(targets), enabled=on) == \
                    oracles._prob1_min(restricted, set(targets))
                for stop in (frozenset(), frozenset(targets)):
                    assert checking._backward(arr, zero, stop, on) == \
                        checking._backward(restricted, zero, stop)
    assert choiceless > 500


def test_greedy_equals_the_former_per_state_argmax():
    rng = random.Random(8)
    pool = (0.0, 0.25, 0.5, 1.0, np.inf)  # few values: many exact ties
    for model in CORPUS:
        arr = oracles.SeedArrays(model)
        for _ in range(3):
            x = np.array([rng.choice(pool) for _ in range(arr.num_states)])
            cost = np.array([float(rng.randint(0, 2)) for _ in range(arr.num_states)])
            for direction in ("min", "max"):
                for state_cost in (None, cost):
                    new = checking._greedy(arr, x, direction, state_cost)
                    old = oracles._greedy(arr, x, direction, state_cost)
                    assert new.tolist() == old


def test_greedy_picks_the_first_nan_like_argmax():
    model = random_mdp(random.Random(3))
    arr = oracles.SeedArrays(model)
    x = np.zeros(arr.num_states)
    x[0] = np.nan
    for direction in ("min", "max"):
        assert checking._greedy(arr, x, direction).tolist() == oracles._greedy(arr, x, direction)


def _same_result(new, old):
    vec, strategy = new
    (values, iterations, residual), seed_strategy = old
    assert np.array_equal(vec.values, values)
    assert vec.iterations == iterations and vec.residual == residual
    assert strategy.choice_probs == seed_strategy.choice_probs


def test_reach_prob_and_expected_cost_equal_the_former_checker():
    rng = random.Random(9)
    polished = {True: 0, False: 0}
    defined = 0
    for model in CORPUS:
        reach_label = "bad" if model.kind == "mc" else "target"
        cost_label = "goal" if model.kind == "mc" else "stop"
        directions = ("max",) if model.kind == "mc" else ("min", "max")
        for direction in directions:
            new = reach_prob(model, reach_label, direction)
            _same_result(new, oracles.seed_reach_prob(model, reach_label, direction))
            polished[new[0].polished] += 1
            for label in (reach_label, cost_label):
                try:
                    old = oracles.seed_expected_cost(model, label, direction)
                except ExpectedCostUndefined:
                    with pytest.raises(ExpectedCostUndefined):
                        expected_cost(model, label, direction)
                else:
                    _same_result(expected_cost(model, label, direction), old)
                    defined += 1
        targets = {rng.randrange(model.num_states)}
        _same_result(reach_prob(model, targets, "max"),
                     oracles.seed_reach_prob(model, targets, "max"))
    assert polished[True] > 200 and polished[False] > 5 and defined > 200


def test_sparse_polish_agrees_with_the_dense_solve(monkeypatch):
    dense = []
    for model in CORPUS[:120]:
        dense.append(reach_prob(model, "target", "max")[0])
    monkeypatch.setattr(checking, "_POLISH_DENSE_LIMIT", 0)
    for model, want in zip(CORPUS[:120], dense):
        got = reach_prob(model, "target", "max")[0]
        assert got.polished == want.polished
        assert np.max(np.abs(got.values - want.values)) < 1e-12


def test_chains_skip_the_nested_fixpoint(monkeypatch):
    def nested(*_):
        raise AssertionError("a chain needs no nested fixpoint")

    monkeypatch.setattr(checking, "_prob1_max", nested)
    for model in CORPUS[240:250]:
        for direction in ("min", "max"):
            _same_result(reach_prob(model, "bad", direction),
                         oracles.seed_reach_prob(model, "bad", "max"))


def test_min_sets_compute_the_zero_set_once(monkeypatch):
    calls = []
    real = checking._prob0_min

    def counted(arr, targets):
        calls.append(targets)
        return real(arr, targets)

    monkeypatch.setattr(checking, "_prob0_min", counted)
    # chains in both directions (the former checker took the max path on
    # them) and MDPs in the min direction
    cases = [(m, "bad", d, "max") for m in CORPUS[240:250] for d in ("min", "max")]
    cases += [(m, "target", "min", "min") for m in CORPUS[:10]]
    for model, label, direction, seed_direction in cases:
        calls.clear()
        got = reach_prob(model, label, direction)
        assert len(calls) == 1
        _same_result(got, oracles.seed_reach_prob(model, label, seed_direction))

"""The one-pass solve of an acyclic free region (``checking._one_pass``)
against the sweeps of value iteration, which a ``trace`` keeps, and the
strongly connected components and successors-first order it rests on
(``checking._split_components``), against scipy's strong search.

Where the sweeps end at residual 0.0 they have reached their fixed point,
and the pass must give it bit for bit: values, picks and polish flag.
Where they stop earlier, at the tolerance, the checked values must agree
within 1e-9."""

import random

import numpy as np
import pytest

from generators import random_acyclic_mdp, random_mdp
from mimdp import checking, synthesis
from mimdp.checking import ExpectedCostUndefined, expected_cost, reach_prob
from mimdp.models import build_model
from mimdp.parser import parse_file, parse_program
from mimdp.program import pretty
from mimdp.transform import transform_all
from test_certification import _gen
from test_qualitative import MDPS, _bits, _iterate_calls, _retry_mdp, _wide_mdp


def _acyclic():
    rng = random.Random(30)
    return [random_acyclic_mdp(rng) for _ in range(150)]


ACYCLIC = _acyclic()


def _controlled(path):
    controlled, _ = transform_all(parse_file(path))
    return build_model(controlled, on_deadlock="absorb")


def _cases(models_dir):
    """Every MDP of the tier-1 corpora, the random acyclic ones, the
    bundled models controlled and the controlled retry channel at 40 and
    200 retries, each with its labels and one random state."""
    rng = random.Random(31)
    models = MDPS + [_wide_mdp()] + ACYCLIC
    models += [_controlled(models_dir / f"{name}.mgcl") for name in ("die", "two_stage")]
    models += [_retry_mdp(models_dir, 40), _retry_mdp(models_dir, 200)]
    return [(m, [*m.labels, {rng.randrange(m.num_states)}]) for m in models]


def _run(fn, model, targets, direction, **kwargs):
    try:
        return fn(model, targets, direction, **kwargs)
    except ExpectedCostUndefined:
        return None


def _widest(arr, free_mask):
    """The most branches a choice of a free state has."""
    free = np.flatnonzero(free_mask)
    choices = np.concatenate([np.arange(arr.choice_start[s], arr.choice_start[s + 1])
                              for s in free] or [np.zeros(0, dtype=np.int64)])
    return int(np.diff(arr.branch_start)[choices].max(initial=0))


def test_the_pass_gives_the_fixed_point_of_the_sweeps(monkeypatch, models_dir):
    seen = {"acyclic": 0, "cyclic": 0, "cost": 0, "compiled": 0, 1: 0, 2: 0, 3: 0, 8: 0}
    for model, targets in _cases(models_dir):
        for target in targets:
            for direction in ("min", "max"):
                for fn in (reach_prob, expected_cost):
                    calls = _iterate_calls(monkeypatch, lambda: fn(model, target, direction))
                    for arr, x, free_mask, direction_, tol, cost in calls:
                        got, want = x.copy(), x.copy()
                        result = checking._iterate(arr, got, free_mask, direction_, tol, cost)
                        if checking._acyclic_order(arr, free_mask) is None:
                            # a cyclic region keeps the sweeps, with or without a trace
                            assert result == checking._iterate(arr, want, free_mask, direction_,
                                                               tol, cost, [])
                            assert _bits(got) == _bits(want)
                            seen["cyclic"] += 1
                            continue
                        assert result == (1, 0.0)
                        sweeps, residual = checking._iterate(arr, want, free_mask, direction_,
                                                             0.0, cost, [])
                        assert residual == 0.0 and sweeps >= 1
                        assert _bits(got) == _bits(want)
                        seen["acyclic"] += 1
                        seen["cost"] += cost is not None
                        seen["compiled"] += arr.num_states >= checking._SEARCH_LIMIT
                        if free_mask.any():
                            widest = _widest(arr, free_mask)
                            seen[min(widest, 3) if widest < 8 else 8] += 1
    assert seen["acyclic"] > 1500 and seen["cyclic"] > 500 and seen["cost"] > 300, seen
    # the widest choice of a region: 1, 2, 3 to 7 or at least 8 branches
    assert min(seen[2], seen[3], seen[8]) > 50 and seen[1] > 10, seen
    assert seen["compiled"] >= 4, seen


def _same_checked(got, forced, seen):
    """``got``, the checker's result, against ``forced``, the one its
    sweeps give: bit for bit where they end at residual 0.0 or ran in both
    (a cyclic region), else values within 1e-9."""
    (vec, strategy), (want, want_strategy) = got, forced
    ran = (vec.iterations, vec.residual)
    if want.residual == 0.0 or ran == (want.iterations, want.residual):
        assert ran in ((1, 0.0), (want.iterations, want.residual))
        assert _bits(vec.values) == _bits(want.values)
        assert vec.polished == want.polished
        assert strategy.choice_probs == want_strategy.choice_probs
        seen["exact"] += 1
    else:
        assert ran == (1, 0.0)
        np.testing.assert_allclose(vec.values, want.values, rtol=1e-9, atol=1e-9)
        seen["stopped early"] += 1
        seen["values differ"] += _bits(vec.values) != _bits(want.values)
        seen["picks differ"] += strategy.choice_probs != want_strategy.choice_probs


def test_checked_results_equal_those_of_the_sweeps(models_dir):
    seen = {"exact": 0, "stopped early": 0, "values differ": 0, "picks differ": 0}
    for model, targets in _cases(models_dir):
        for target in targets:
            for direction in ("min", "max"):
                for fn in (reach_prob, expected_cost):
                    got = _run(fn, model, target, direction)
                    forced = _run(fn, model, target, direction, trace=[])
                    assert (got is None) == (forced is None)
                    if got is not None:
                        _same_checked(got, forced, seen)
    # the sweeps of an acyclic region stop at the tolerance, before their
    # fixed point, only on the 200-retry channel (delivered and stopped,
    # both directions, both checks), where the polish gives the same values
    # and one tie at the initial state is picked differently
    assert seen == {"exact": seen["exact"], "stopped early": 8, "values differ": 0,
                    "picks differ": 1}, seen
    assert seen["exact"] > 3000, seen


class _Picks:
    """Picks as ``_same_checked`` reads a strategy."""

    def __init__(self, picks):
        self.choice_probs = picks.tolist()


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_mdp_families_of_the_random_corpus_check_as_with_the_sweeps(monkeypatch, seed):
    # the configurations enumeration solves by value iteration (those that
    # meet no bound), each against its own sweeps
    calls = []
    inner = synthesis._reach

    def capture(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(synthesis, "_reach", capture)
    for program, query in _gen().random_corpus(seed):
        synthesis.synthesize(parse_program(pretty(program)), query)
    seen = {"exact": 0, "stopped early": 0, "values differ": 0, "picks differ": 0}
    acyclic = 0
    for args in calls:
        x, sweeps, residual, polished, picks = checking._reach(*args)
        want = checking._reach(*args, trace=[])
        acyclic += (sweeps, residual) == (1, 0.0) != (want[1], want[2])
        got = (checking.ValueVector(x[0], sweeps, residual, polished), _Picks(picks))
        _same_checked(got, (checking.ValueVector(want[0][0], *want[1:4]), _Picks(want[4])), seen)
    assert acyclic > 5 and seen["stopped early"] == 0, (acyclic, seen)


def test_the_split_is_computed_once_per_model_and_shared_by_row_copies(monkeypatch):
    fills = []
    inner = checking._split_components
    monkeypatch.setattr(checking, "_split_components",
                        lambda arr, split: fills.append(arr) or inner(arr, split))
    model = random_acyclic_mdp(random.Random(33))
    for direction in ("min", "max"):
        reach_prob(model, "target", direction)
        expected_cost(model, "stop", direction)
    assert fills == [checking._model_arrays(model)]
    fills.clear()
    cyclic = _wide_mdp()
    for direction in ("min", "max"):
        assert reach_prob(cyclic, "t", direction)[0].iterations > 1
    assert fills == [checking._model_arrays(cyclic)]
    fills.clear()
    probs = np.array([float(p) for p in model.probs])
    stack = checking._Arrays(model, np.ones(len(probs), dtype=bool), [probs, probs / 2])
    first, second = stack.rows(0), stack.rows(1)
    assert first.split is second.split is stack.split
    free = np.ones(model.num_states, dtype=bool)
    free[-2:] = False
    orders = [checking._acyclic_order(arr, free) for arr in (first, second, stack)]
    assert len(fills) == 1 and all(np.array_equal(o, orders[0]) for o in orders)
    # every transient state, each after the states it has edges into
    assert sorted(orders[0].tolist()) == list(range(model.num_states - 2))
    at = np.empty(model.num_states, dtype=np.int64)
    at[orders[0]] = np.arange(len(orders[0]))
    for s in orders[0].tolist():
        for c in range(model.choice_start[s], model.choice_start[s + 1]):
            for t in model.targets[model.branch_start[c]:model.branch_start[c + 1]].tolist():
                assert not free[t] or at[t] < at[s]


def _canonical(labels):
    """Each state's component named by its least state."""
    labels = np.asarray(labels)
    least = np.full(labels.max(initial=-1) + 1, len(labels))
    np.minimum.at(least, labels, np.arange(len(labels)))
    return least[labels]


def _runs(label, order):
    """Per state, its run along ``order``: a new number wherever the
    component (``label``) changes, so a component split into two runs gets
    two numbers."""
    along = label[order]
    runs = np.cumsum(np.append(0, along[1:] != along[:-1]))
    out = np.empty(len(order), dtype=np.int64)
    out[order] = runs
    return out


def test_the_split_equals_scipys_strong_components(models_dir):
    # scipy's strong search as an oracle of the components; the order and
    # the states alone are checked against them
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    rng = random.Random(32)
    models = MDPS + [random_mdp(rng, 60) for _ in range(100)]
    models += [_retry_mdp(models_dir, 200), _retry_mdp(models_dir, 3000)]
    seen = {"loops": 0, "repeats": 0, "cycles": 0, "large": 0}
    for model in models:
        arr = checking._model_arrays(model)
        n, start = arr.num_states, arr.branch_start[arr.choice_start]
        owner = np.repeat(np.arange(n), np.diff(start))
        graph = csr_matrix((np.ones(len(arr.targets)), (owner, arr.targets)), shape=(n, n))
        # scipy's strong search does not return on a row that repeats a column
        graph.sum_duplicates()
        count, label = connected_components(graph, directed=True, connection="strong")
        worklist = checking._worklist_components(start.tolist(), arr.targets.tolist())
        assert worklist[0] == count
        assert _canonical(worklist[1]).tolist() == _canonical(label).tolist()
        split = checking._Split()
        checking._split_components(arr, split)
        assert sorted(split.order.tolist()) == list(range(n))
        # each component is one run of the order
        assert _canonical(_runs(label, split.order)).tolist() == _canonical(label).tolist()
        # successors first: an edge between components goes back in the order
        at = np.empty(n, dtype=np.int64)
        at[split.order] = np.arange(n)
        cross = label[owner] != label[arr.targets]
        assert (at[arr.targets[cross]] < at[owner[cross]]).all()
        loops = np.zeros(n, dtype=bool)
        loops[owner[arr.targets == owner]] = True
        sizes = np.bincount(label)[label]
        assert split.alone.tolist() == ((sizes == 1) & ~loops).tolist()
        seen["loops"] += bool(loops.any())
        seen["repeats"] += len(np.unique(owner * n + arr.targets)) < len(arr.targets)
        seen["cycles"] += bool((sizes > 1).any())
        seen["large"] += n > 1000
    assert min(seen["loops"], seen["repeats"], seen["cycles"]) > 200 and seen["large"] == 2, seen


def test_the_tolerance_does_not_change_an_acyclic_region(models_dir):
    model = _retry_mdp(models_dir, 40)
    for label in ("delivered", "gaveup"):
        for direction in ("min", "max"):
            results = [reach_prob(model, label, direction, tol=tol) for tol in (0.0, 1e-8, 1e-3)]
            for vec, strategy in results:
                assert (vec.iterations, vec.residual) == (1, 0.0)
                assert _bits(vec.values) == _bits(results[0][0].values)
                assert strategy.choice_probs == results[0][1].choice_probs


def test_a_budget_product_is_swept(monkeypatch, models_dir):
    # made for one call, it keeps no components: its acyclic regions are
    # swept to the tolerance, as the former checker swept them
    model = _retry_mdp(models_dir, 40)
    calls = _iterate_calls(
        monkeypatch, lambda: checking.cost_bounded_reach(model, "delivered", 20, "max"))
    (arr, x, free_mask, direction, tol, cost), = calls
    assert arr.split is None and checking._acyclic_order(arr, free_mask) is None
    got, want = x.copy(), x.copy()
    sweeps, residual = checking._iterate(arr, got, free_mask, direction, tol, cost)
    assert (sweeps, residual) == checking._iterate(arr, want, free_mask, direction, tol, cost, [])
    assert sweeps > 1 and _bits(got) == _bits(want)

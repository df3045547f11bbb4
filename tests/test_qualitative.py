"""Differential tests of the checker's graph searches, greedy pick,
value iteration, policy polish and once-per-model cost checks against the
code they replaced (``oracles``), and of the checker that solves chains
without value iteration against the former one, which iterated chains
too."""

import random
from dataclasses import replace
from fractions import Fraction

import numpy as np

import oracles
from generators import random_mc, random_mdp
from mimdp import checking
from mimdp.checking import ExpectedCostUndefined, cost_bounded_reach, expected_cost, reach_prob
from mimdp.expressions import Name
from mimdp.models import (
    Choice, ExplicitModel, ModelError, Strategy, build_model, instantiate, well_defined_entries,
)
from mimdp.parser import parse_program
from mimdp.transform import transform_all
from test_family import SLOW_SELF_LOOP, VARYING_SUPPORT, _random_families, _shipyard

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


def _same_states(mask, states, n):
    """``mask`` is the boolean mask over ``n`` states of the set ``states``."""
    assert mask.dtype == bool and mask.shape == (n,)
    assert np.flatnonzero(mask).tolist() == sorted(states)


def test_graph_sets_equal_the_former_fixpoints():
    # the searches on masks against the former searches on sets, and those
    # against the fixpoints before them
    rng = random.Random(7)
    for model in CORPUS:
        n = model.num_states
        arr = oracles.PredecessorArrays(model)
        seed = oracles.SeedArrays(model)
        for targets in _target_sets(model, rng):
            mask = oracles.set_mask(n, targets)
            for name in QUALITATIVE:
                new = getattr(checking, name)(arr, mask)
                former = getattr(oracles, "set" + name)(arr, set(targets))
                _same_states(new, former, n)
                assert former == getattr(oracles, name)(seed, set(targets)), (name, targets)


def _former_predecessors(arr):
    return [[c for _, c in into] for into in oracles._predecessors(arr)]


def _csr_lists(arr):
    """The predecessor graph of ``arr`` as one list per state."""
    pred, start = arr.pred_choice.tolist(), arr.pred_start.tolist()
    return [pred[lo:hi] for lo, hi in zip(start, start[1:])]


def _former_lists(arr):
    """The per-state predecessor lists the former ``_fill`` built from the
    flat arrays of ``arr``."""
    former = oracles.PredecessorArrays.__new__(oracles.PredecessorArrays)
    former._fill(arr.num_states, arr.choice_state, arr.choice_start, arr.branch_start,
                 arr.targets, arr.probs)
    return former.predecessors


def test_predecessor_lists_equal_the_former_per_branch_lists():
    # ascending choices, each listed once per branch into the state, for
    # every construction: a model, a family's support and the budget product
    rng = random.Random(12)
    repeated = 0  # a choice with two branches into one state
    for model in CORPUS:
        arr = checking._Arrays(model)
        lists = _csr_lists(arr)
        assert lists == _former_lists(arr) == _former_predecessors(arr)
        repeated += any(len(set(cs)) < len(cs) for cs in lists)
        support = [rng.random() < 0.7 or j == 0 for row in model.choices for ch in row
                   for j in range(len(ch.branches))]
        family = checking._Arrays(model, support, np.ones((2, sum(support))))
        assert _csr_lists(family) == _former_lists(family) == _former_predecessors(family)
        target = oracles.set_mask(model.num_states, {rng.randrange(model.num_states)})
        cost = np.array([rng.randint(0, 2) for _ in range(model.num_states)])
        for width in (1, 3):
            product = checking._product_arrays(arr, target, cost, width)
            assert _csr_lists(product) == _former_lists(product) == _former_predecessors(product)
    assert repeated > 20


def _restricted(model, on):
    """The model with only the choices ``on`` (a flat mask) left."""
    flags = iter(on.tolist())
    return ExplicitModel.from_rows(
        model.kind, model.var_names, model.states, model.initial,
        [[ch for ch in row if next(flags)] for row in model.choices],
        model.costs, model.labels, model.parameters, model.deadlocks)


def test_masked_searches_equal_the_former_fixpoints_on_the_restricted_model():
    # the searches on masks, with some choices disabled, against the former
    # searches on sets with the same choices disabled, and those against
    # the fixpoints before them on the model without those choices
    rng = random.Random(11)
    np_rng = np.random.default_rng(11)
    choiceless = 0  # states left with no enabled choice, summed over the cases
    for model in CORPUS:
        n = model.num_states
        arr = oracles.PredecessorArrays(model)
        for share in (0.3, 0.7, 1.0):
            on = np_rng.random(arr.num_choices) < share
            restricted = oracles.SeedArrays(_restricted(model, on))
            choiceless += int(np.sum(np.diff(restricted.choice_start) == 0))
            for targets in _target_sets(model, rng):
                mask = oracles.set_mask(n, targets)
                zero = checking._prob0_min(arr, mask, on)
                former_zero = oracles.set_prob0_min(arr, set(targets), on)
                _same_states(zero, former_zero, n)
                assert former_zero == oracles._prob0_min(restricted, set(targets))
                former_one = oracles.set_prob1_min(arr, set(targets), enabled=on)
                _same_states(checking._prob1_min(arr, mask, enabled=on), former_one, n)
                assert former_one == oracles._prob1_min(restricted, set(targets))
                for stop, stop_mask in ((frozenset(), None), (frozenset(targets), mask)):
                    got = checking._backward(arr, zero, stop_mask, on)
                    _same_states(got, oracles.set_backward(arr, former_zero, stop, on), n)
                    assert np.array_equal(got, checking._backward(restricted, zero, stop_mask))
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


def _refusal(fn, *args, tol=checking.DEFAULT_TOL):
    """``fn(*args, tol=tol)``, or the message of the
    ``ExpectedCostUndefined`` it raises."""
    try:
        return fn(*args, tol=tol)
    except ExpectedCostUndefined as e:
        return str(e)


def _same_result(new, old, chain, acyclic=False):
    """The values and strategy of ``new`` are those of the older checker's
    result ``old``; a chain is solved, with no sweep, an acyclic free
    region of an MDP in one pass, and on any other MDP the sweeps and the
    residual are the older checker's."""
    vec, strategy = new
    (values, iterations, residual), seed_strategy = old
    assert np.array_equal(vec.values, values)
    assert strategy.choice_probs == seed_strategy.choice_probs
    if chain:
        assert (vec.iterations, vec.residual, vec.polished) == (0, 0.0, True)
    else:
        assert (vec.iterations, vec.residual) == ((1, 0.0) if acyclic else (iterations, residual))


def _checked(monkeypatch, run):
    """``run()``, and whether its value iteration took the one pass over
    an acyclic free region (``checking._acyclic_order`` found an order)."""
    orders = []
    inner = checking._acyclic_order

    def order(arr, free_mask):
        orders.append(inner(arr, free_mask))
        return orders[-1]

    with monkeypatch.context() as patch:
        patch.setattr(checking, "_acyclic_order", order)
        result = run()
    return result, any(o is not None for o in orders)


def test_reach_prob_and_expected_cost_equal_the_former_checker(monkeypatch):
    rng = random.Random(9)
    polished = {True: 0, False: 0}
    defined = 0
    acyclic = {True: 0, False: 0}
    for model in CORPUS:
        chain = model.kind == "mc"
        reach_label = "bad" if chain else "target"
        cost_label = "goal" if chain else "stop"
        directions = ("max",) if chain else ("min", "max")
        for direction in directions:
            # an acyclic region against the older checker's fixed point
            new, one_pass = _checked(monkeypatch, lambda: reach_prob(model, reach_label, direction))
            tol = 0.0 if one_pass else checking.DEFAULT_TOL
            _same_result(new, oracles.seed_reach_prob(model, reach_label, direction, tol=tol),
                         chain, one_pass)
            polished[new[0].polished] += 1
            acyclic[one_pass] += not chain
            for label in (reach_label, cost_label):
                try:
                    old = oracles.seed_expected_cost(model, label, direction)
                except ExpectedCostUndefined:
                    # refused as before, or defined now where only states
                    # past a goal lack probability one, as the older checker
                    # finds with the goals absorbing
                    absorbed = oracles.seed_absorb(model, set(model.label_states(label)))
                    got = _refusal(expected_cost, model, label, direction)
                    want = _refusal(oracles.seed_expected_cost, absorbed, label, direction)
                    assert isinstance(got, str) == isinstance(want, str)
                    if not isinstance(got, str):
                        assert np.array_equal(got[0].values, want[0][0])
                else:
                    new, one_pass = _checked(
                        monkeypatch, lambda: expected_cost(model, label, direction))
                    if one_pass:
                        old = oracles.seed_expected_cost(model, label, direction, tol=0.0)
                    _same_result(new, old, chain, one_pass)
                    defined += 1
                    acyclic[one_pass] += not chain
        targets = {rng.randrange(model.num_states)}
        new, one_pass = _checked(monkeypatch, lambda: reach_prob(model, targets, "max"))
        tol = 0.0 if one_pass else checking.DEFAULT_TOL
        _same_result(new, oracles.seed_reach_prob(model, targets, "max", tol=tol), chain, one_pass)
    assert polished[True] > 200 and polished[False] > 5 and defined > 200
    assert min(acyclic.values()) > 100, acyclic


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
                         oracles.seed_reach_prob(model, "bad", "max"), True)


def test_min_sets_compute_the_zero_set_once(monkeypatch):
    calls = []

    def counted(name):
        real = getattr(checking, name)

        def search(arr, targets):
            calls.append(name)
            return real(arr, targets)
        return search

    for name in ("_prob0_min", "_prob0_max"):
        monkeypatch.setattr(checking, name, counted(name))
    # chains in both directions (the former checker took the max path on
    # them), whose zero set is one backward search, and MDPs in the min
    # direction, whose zero set is the counting search
    cases = [(m, "bad", d, "max") for m in CORPUS[240:250] for d in ("min", "max")]
    cases += [(m, "target", "min", "min") for m in CORPUS[:10]]
    for model, label, direction, seed_direction in cases:
        calls.clear()
        got = reach_prob(model, label, direction)
        assert calls == ["_prob0_max" if model.kind == "mc" else "_prob0_min"]
        _same_result(got, oracles.seed_reach_prob(model, label, seed_direction),
                     model.kind == "mc")


# ---------------------------------------------------------------------------
# value iteration over the free states of one MDP configuration against the
# former whole-model sweeps


def _bits(a):
    a = np.asarray(a)
    return a.shape, a.dtype.str, a.tobytes()


def _iterate_calls(monkeypatch, run) -> list:
    """The arguments of every ``_iterate`` call ``run()`` makes, as they
    were on entry."""
    calls = []
    inner = checking._iterate

    def capture(arr, x, free_mask, direction, tol, state_cost=None, trace=None):
        calls.append((arr, x.copy(), free_mask.copy(), direction, tol, state_cost))
        return inner(arr, x, free_mask, direction, tol, state_cost, trace)

    with monkeypatch.context() as patch:
        patch.setattr(checking, "_iterate", capture)
        try:
            run()
        except ExpectedCostUndefined:
            pass
    return calls


def _sweeps_equal_the_former(arr, x, free_mask, direction, tol, state_cost):
    """The loop from the values ``x`` and the former loop from the stack of
    them alone: the final values, the sweeps and the residual, and the
    values after every sweep are equal bit for bit.  Returns the sweeps and
    the residual."""
    new_x, new_trace, old_trace = x.copy(), [], []
    sweeps, residual = checking._iterate(arr, new_x, free_mask, direction, tol, state_cost,
                                         new_trace)
    old_x, old_sweeps, old_residual = oracles.stacked_iterate(
        arr, x[None].copy(), free_mask, direction, tol,
        None if state_cost is None else state_cost[None], old_trace,
    )
    assert _bits(new_x) == _bits(old_x[0])
    assert (sweeps, _bits(residual)) == (old_sweeps[0], _bits(old_residual[0]))
    assert [_bits(a) for a in new_trace] == [_bits(a[0]) for a in old_trace]
    return sweeps, residual


def _shape(arr, free_mask):
    """Whether some free choice has more than two branches, and whether
    some free state has more than one choice."""
    free = np.flatnonzero(free_mask)
    choices = np.diff(arr.choice_start)[free]
    wide = any(
        np.diff(arr.branch_start)[arr.choice_start[s]:arr.choice_start[s + 1]].max() > 2
        for s in free
    )
    return wide, bool((choices > 1).any())


def _wide_mdp():
    """Twelve transient states, each with two choices of twelve branches of
    uneven weights (sums long enough for pairwise summation), and two
    absorbing states."""
    rows = []
    for s in range(12):
        rows.append([
            Choice(None, tuple((Fraction(j + 1, 78), (s + j + shift + 1) % 14) for j in range(12)))
            for shift in (0, 1)
        ])
    rows += [[Choice(None, ((Fraction(1), s),))] for s in (12, 13)]
    return ExplicitModel.from_rows(
        kind="mdp", var_names=("s",), states=[(s,) for s in range(14)], initial=0,
        choices=rows, costs=[Fraction(s % 5) for s in range(12)] + [Fraction(0)] * 2,
        labels={"t": frozenset({12}), "g": frozenset({12, 13})}, parameters={},
    )


MDPS = [m for m in CORPUS if m.kind == "mdp"]


def test_value_iteration_equals_the_former_sweeps_on_the_corpus(monkeypatch):
    rng = random.Random(14)
    seen = {"wide": 0, "narrow": 0, "several": 0, "infinite": 0, "reach": 0, "cost": 0}
    for model in MDPS + [_wide_mdp()]:
        for targets in _target_sets(model, rng):
            for direction in ("min", "max"):
                for kind, run in (("reach", reach_prob), ("cost", expected_cost)):
                    calls = _iterate_calls(monkeypatch, lambda: run(model, targets, direction))
                    for arr, x, free_mask, *rest in calls:
                        _sweeps_equal_the_former(arr, x, free_mask, *rest)
                        wide, several = _shape(arr, free_mask)
                        seen[kind] += 1
                        seen["wide" if wide else "narrow"] += 1
                        seen["several"] += several
                        seen["infinite"] += bool(np.isinf(x).any() and free_mask.any())
    assert seen["reach"] > 1500 and seen["cost"] > 400, seen
    assert min(seen["wide"], seen["narrow"], seen["several"]) > 500, seen
    assert seen["infinite"] > 100, seen


def test_rows_of_a_family_stack_stop_at_their_own_sweeps_as_before():
    # value iteration runs on one configuration at a time: each row of a
    # stack the former loop ran, with its own probabilities and costs,
    # iterated alone stops where it stopped in the stack, after about 30,
    # 180 and 1800 sweeps
    model = build_model(parse_program(SLOW_SELF_LOOP.replace("0.5, 0.9997", "0.5, 0.9, 0.99")))
    entries = list(oracles.fraction_entries(model))
    support = tuple(map(bool, entries[0][1]))
    probs = [[float(p) for p, edge in zip(row, support) if edge] for _, row, _ in entries]
    stack = checking._Arrays(model, support, probs)
    target, goal = checking._target_set(model, "t"), checking._target_set(model, "g")
    one = checking._prob1_min(stack, target)
    sure = checking._prob1_min(stack, goal)
    cost = np.array([[float(c) for c in costs] for _, _, costs in entries])
    starts = [
        (np.where(one, 1.0, 0.0), ~(one | checking._prob0_min(stack, target)), None),
        (np.where(sure, 0.0, np.inf), sure & ~goal, np.where(goal, 0.0, cost)),
    ]
    for start, free, state_cost in starts:
        x = np.tile(start, (3, 1))
        _, iterations, _ = oracles.stacked_iterate(stack, x.copy(), free, "max", 1e-8, state_cost)
        assert len(set(iterations.tolist())) == 3
        for row, p in enumerate(probs):
            arr = checking._Arrays(model, support, p)
            row_cost = None if state_cost is None else state_cost[row]
            sweeps, _ = _sweeps_equal_the_former(arr, x[row], free, "max", 1e-8, row_cost)
            assert sweeps == iterations[row]


def test_an_empty_free_set_takes_one_sweep_as_before(monkeypatch):
    model = CORPUS[0]
    arr = checking._Arrays(model)
    none = np.zeros(arr.num_states, dtype=bool)
    x = np.random.default_rng(3).random((3, arr.num_states))
    x[1, 0] = np.inf
    for direction in ("min", "max"):
        for cost in (None, np.ones(arr.num_states)):
            for row in x:
                assert _sweeps_equal_the_former(arr, row, none, direction, 1e-8, cost) == (1, 0.0)
    every = set(range(model.num_states))
    calls = _iterate_calls(monkeypatch, lambda: reach_prob(model, every))
    (arr, x, free_mask, *rest), = calls
    assert not free_mask.any()
    _sweeps_equal_the_former(arr, x, free_mask, *rest)


def _retry_mdp(models_dir, retries=40):
    """The retry channel with ``retries`` retries, controlled: an MDP."""
    text = (models_dir / "retry_channel.mgcl").read_text(encoding="utf-8")
    text = text.replace("const retries = 40;", f"const retries = {retries};")
    controlled, _ = transform_all(parse_program(text))
    return build_model(controlled, on_deadlock="absorb")


def test_value_iteration_on_budget_products_equals_the_former_sweeps(monkeypatch, models_dir):
    rng = random.Random(15)
    cases = []
    for model in CORPUS[:240:4]:  # the MDPs, whose costs are integers
        target = {rng.randrange(model.num_states)}
        for bound in (1, 4):
            for direction in ("min", "max"):
                cases.append((model, target, bound, direction))
    cases.append((_retry_mdp(models_dir), "delivered", 20, "max"))
    products = 0
    for model, target, bound, direction in cases:
        calls = _iterate_calls(
            monkeypatch, lambda: cost_bounded_reach(model, target, bound, direction)
        )
        for arr, x, free_mask, *rest in calls:
            assert arr.num_states == model.num_states * (bound + 1)
            _sweeps_equal_the_former(arr, x, free_mask, *rest)
            products += 1
    assert products > 100


def test_the_residual_equals_the_former_on_odd_entries():
    # zeros of both signs, values below the 1e-300 floor, negatives,
    # infinities and NaNs, each row of a stack of one to three rows on its
    # own
    rng = np.random.default_rng(16)
    pool = np.array([0.0, -0.0, 1e-310, 1e-300, 3e-300, 0.5, 1.0, 3.0, -2.0,
                     np.inf, -np.inf, np.nan])
    odd = 0
    for _ in range(3000):
        k, n = int(rng.integers(1, 4)), int(rng.integers(0, 6))
        new, old = rng.choice(pool, (k, n)), rng.choice(pool, (k, n))
        free = np.flatnonzero(rng.random(n) < 0.7)
        with np.errstate(all="ignore"):
            want = oracles._stacked_sweep_residual(new, old, free)
            for row in range(k):
                got = checking._sweep_residual(new[row].take(free), old[row].take(free))
                assert _bits(got) == _bits(want[row]), (new, old, free)
        odd += not np.isfinite(new.take(free, axis=1)).all()
    assert odd > 1000


# ---------------------------------------------------------------------------
# the checker against the former one, which iterated chains too


def _same_as_the_former(new, former, acyclic=False):
    """Values, polish flag and picks, bit for bit, and so are the sweeps
    and the residual, but for an acyclic free region, solved in one pass
    (one sweep, residual 0.0)."""
    (vec, strategy), (want, want_strategy) = new, former
    assert _bits(vec.values) == _bits(want.values)
    ran = (1, 0.0) if acyclic else (want.iterations, want.residual)
    assert (vec.iterations, _bits(vec.residual), vec.polished) == (
        ran[0], _bits(ran[1]), want.polished)
    assert strategy.choice_probs == want_strategy.choice_probs


def test_mdps_check_as_with_the_former_checker(monkeypatch, models_dir):
    rng = random.Random(17)
    cases = [(m, ["target", "stop", {rng.randrange(m.num_states)}]) for m in MDPS]
    cases.append((_retry_mdp(models_dir, 200), ["delivered", "gaveup", "stopped"]))
    seen = {"rejected": 0, "defined": 0, "undefined": 0, "past goal": 0, "acyclic": 0}
    for model, labels in cases:
        for label in labels:
            for direction in ("min", "max"):
                # an acyclic region against the former checker's fixed point
                new, one_pass = _checked(monkeypatch, lambda: reach_prob(model, label, direction))
                tol = 0.0 if one_pass else checking.DEFAULT_TOL
                _same_as_the_former(
                    new, oracles.former_reach_prob(model, label, direction, tol=tol), one_pass)
                seen["rejected"] += not new[0].polished
                seen["acyclic"] += one_pass
                got, one_pass = _checked(
                    monkeypatch, lambda: _refusal(expected_cost, model, label, direction))
                tol = 0.0 if one_pass else checking.DEFAULT_TOL
                former = _refusal(oracles.former_expected_cost, model, label, direction, tol=tol)
                if not isinstance(former, str):
                    _same_as_the_former(got, former, one_pass)
                    seen["defined"] += 1
                elif isinstance(got, str):
                    assert got == former
                    seen["undefined"] += 1
                else:
                    # defined now: the former refused when a state reached
                    # only past a goal lacked probability one (see
                    # test_expected_cost_equals_the_former_with_absorbing_goals)
                    seen["past goal"] += 1
    assert min(seen.values()) > 5, seen


def _exact_or_former(got, former, exact):
    """A chain's values: bit for bit the former checker's where it
    accepted its polish, else within 1e-12 relative of the exact solution
    ``exact()`` (inf where that is None).  Returns whether the former
    polish was rejected."""
    if former is not None and former.polished:
        assert _bits(got) == _bits(former.values)
        return False
    want = np.array([np.inf if v is None else float(v) for v in exact()])
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
    return True


def _check_chain(model, target, goal):
    """``reach_prob`` and ``expected_cost`` on the chain ``model`` against
    the former checker and the exact solution.  Returns how many former
    polishes were rejected."""
    vec, strategy = reach_prob(model, target)
    assert (vec.iterations, vec.residual, vec.polished) == (0, 0.0, True)
    assert strategy.choice_probs == Strategy.deterministic([0] * model.num_states).choice_probs
    former, _ = oracles.former_reach_prob(model, target)
    rejected = _exact_or_former(vec.values, former,
                                lambda: oracles.mc_reach_exact(model, target))
    got = _refusal(expected_cost, model, goal)
    former = _refusal(oracles.former_expected_cost, model, goal)
    exact = lambda: oracles.mc_expected_cost_exact(model, goal)  # noqa: E731
    if isinstance(got, str):
        assert got == former and exact()[model.initial] is None
    else:
        vec, _ = got
        assert (vec.iterations, vec.residual, vec.polished) == (0, 0.0, True)
        former = None if isinstance(former, str) else former[0]
        rejected += _exact_or_former(vec.values, former, exact)
    return rejected


def test_corpus_chains_equal_the_former_checker_or_the_exact_solution():
    rng = random.Random(18)
    for model in CORPUS[240:]:
        for target in ("ok", "bad", {rng.randrange(model.num_states)}):
            for goal in ("goal", "ok"):
                _check_chain(model, target, goal)


def _family_cases():
    cases = [(parse_program(text), "t", "g") for text in (SLOW_SELF_LOOP, VARYING_SUPPORT)]
    cases.append((_shipyard(True), "failure", "done"))
    for program, query in _random_families()[:20]:  # the chain families
        cases.append((program, query.target, query.goal))
    return cases


def test_chain_family_stacks_equal_the_former_checker_or_the_exact_solution():
    # each row of a stack is its configuration's instance checked alone,
    # and that is the former checker's value where it accepted its polish
    # (the former stacks equalled it row for row), else the exact one
    rejected = configurations = 0
    for program, target, goal in _family_cases():
        model = build_model(program)
        assert all(len(row) == 1 for row in model.choices)
        entries = list(well_defined_entries(model))
        stacks = checking.stack_family(model, [(p, c) for _, p, c in entries])
        pr, ec = checking.solve_stacks(model, stacks, checking._target_set(model, target),
                                       checking._target_set(model, goal))
        for (u, _, _), got_pr, got_ec in zip(entries, pr, ec):
            inst = instantiate(model, u)
            vec, _ = reach_prob(inst, target)
            assert _bits(got_pr) == _bits(vec.values[inst.initial])
            got = _refusal(expected_cost, inst, goal)
            want_ec = np.inf if isinstance(got, str) else got[0].values[inst.initial]
            assert _bits(got_ec) == _bits(want_ec)
            rejected += _check_chain(inst, target, goal)
            configurations += 1
    # the 0.9997 configuration of SLOW_SELF_LOOP, in both queries
    assert rejected >= 2 and configurations > 400, (rejected, configurations)


def test_the_budget_product_of_the_retry_chain_equals_the_former_checker(monkeypatch,
                                                                        models_dir):
    text = (models_dir / "retry_channel.mgcl").read_text(encoding="utf-8")
    chain = build_model(parse_program(text.replace("const retries = 40;", "const retries = 200;")),
                        {"loss": Fraction(2, 5)})
    inner = checking.reach_prob
    calls = []

    def record(model, targets, *args, **kwargs):
        calls.append((model, targets))
        return inner(model, targets, *args, **kwargs)

    monkeypatch.setattr(checking, "reach_prob", record)
    value = cost_bounded_reach(chain, "delivered", 20)
    (product, goal), = calls
    assert product.kind == "mc" and product.num_states == 401 * 21
    vec, strategy = inner(product, goal)
    want, want_strategy = oracles.former_reach_prob(product, goal)
    assert want.polished and want.iterations > 0
    assert _bits(vec.values) == _bits(want.values)
    assert (vec.iterations, vec.residual, vec.polished) == (0, 0.0, True)
    assert strategy.choice_probs == want_strategy.choice_probs
    assert value == want.values[product.initial]


def test_the_former_checker_runs_none_of_the_current_one(monkeypatch):
    def current(*_, **__):
        raise AssertionError("the former checker called the current one")

    for name in ("_iterate", "_sweep_residual", "_polish", "_reach", "_expected",
                 "reach_prob", "expected_cost", "stack_family", "solve_stacks"):
        monkeypatch.setattr(checking, name, current)
    model = build_model(parse_program(SLOW_SELF_LOOP))
    entries = [(p, c) for _, p, c in oracles.fraction_entries(model)]
    pr, ec = oracles.former_chain_family(model, entries, "t", "g")
    assert pr[0] == 0.5 and 0.5 - pr[1] > 1e-5  # the former rows, one short
    chain = instantiate(model, {"p": Fraction(1, 2)})
    assert oracles.former_reach_prob(chain, "t")[0].iterations > 0
    assert oracles.former_expected_cost(chain, "g")[0].iterations > 0
    assert oracles.former_reach_prob(MDPS[0], "target", "min")[0].iterations > 0


def test_expected_cost_equals_the_former_with_absorbing_goals():
    # the former checker refused when any state reachable from the initial
    # one, past the goals too, lacked probability one; with every goal
    # absorbing, only the states reached before a goal are reachable
    rng = random.Random(19)
    seen = {"defined": 0, "undefined": 0, "past goal": 0}
    for model in CORPUS:
        chain = model.kind == "mc"
        labels = ["goal", "ok"] if chain else ["stop", "target"]
        for label in labels + [{rng.randrange(model.num_states)}]:
            goals = set(model.label_states(label)) if isinstance(label, str) else label
            absorbed = oracles.seed_absorb(model, goals)
            for direction in ("max",) if chain else ("min", "max"):
                got = _refusal(expected_cost, model, label, direction)
                want = _refusal(oracles.former_expected_cost, absorbed, label, direction)
                if isinstance(want, str):
                    assert got == want
                    seen["undefined"] += 1
                    continue
                assert _bits(got[0].values) == _bits(want[0].values)
                seen["defined"] += 1
                former = _refusal(oracles.former_expected_cost, model, label, direction)
                seen["past goal"] += isinstance(former, str)
    assert min(seen.values()) > 5, seen


# ---------------------------------------------------------------------------
# the two forms of the backward search: scipy's compiled breadth-first
# search, which runs from _SEARCH_LIMIT states, and the worklist loop below


def _with_lists(arr):
    """``arr`` with the former per-state predecessor lists, which the set
    searches of ``oracles`` walk."""
    out = oracles.PredecessorArrays.__new__(oracles.PredecessorArrays)
    out._fill(arr.num_states, arr.choice_state, arr.choice_start, arr.branch_start,
              arr.targets, arr.probs)
    return out


def _search_forms_agree(arr, seeds, rng):
    """Both forms of the search from ``seeds`` (a set), with and without a
    stop set and a mask of enabled choices, against each other, element
    for element, and against the former set search.  Returns how many
    states the searches found in all."""
    n = arr.num_states
    mask = oracles.set_mask(n, seeds)
    on = np.array([rng.random() < 0.6 for _ in range(arr.num_choices)], dtype=bool)
    blocked = {s for s in range(n) if rng.random() < 0.2}
    found = 0
    for stop in (frozenset(), frozenset(seeds), frozenset(blocked)):
        stop_mask = oracles.set_mask(n, stop) if stop else None
        for enabled in (None, on):
            got = checking._compiled_backward(arr, mask, stop_mask, enabled)
            assert _bits(got) == _bits(checking._worklist_backward(arr, mask, stop_mask, enabled))
            _same_states(got, oracles.set_backward(arr, set(seeds), stop, enabled), n)
            found += int(got.sum())
    return found


BACKWARD = checking._backward  # the search that picks its form by size


def _sets_by(monkeypatch, search, arr, mask, on):
    """The qualitative sets of ``mask`` with ``search`` as the backward
    search, with every choice and with only the choices ``on``."""
    monkeypatch.setattr(checking, "_backward", search)
    zero = checking._prob0_min(arr, mask, on)
    return [checking._prob0_max(arr, mask), checking._prob1_max(arr, mask),
            checking._prob1_min(arr, mask), checking._prob1_min(arr, mask, zero, on)]


def _qualitative_forms_agree(monkeypatch, arr, seeds, rng):
    """The qualitative sets of ``seeds`` (a set) with either form of the
    search, against each other and against the former set searches."""
    n = arr.num_states
    mask = oracles.set_mask(n, seeds)
    on = np.array([rng.random() < 0.7 for _ in range(arr.num_choices)], dtype=bool)
    got = _sets_by(monkeypatch, checking._compiled_backward, arr, mask, on)
    loop = _sets_by(monkeypatch, checking._worklist_backward, arr, mask, on)
    live = _sets_by(monkeypatch, BACKWARD, arr, mask, on)
    former = [oracles.set_prob0_max(arr, set(seeds)), oracles.set_prob1_max(arr, set(seeds)),
              oracles.set_prob1_min(arr, set(seeds)),
              oracles.set_prob1_min(arr, set(seeds), enabled=on)]
    for a, b, c, want in zip(got, loop, live, former):
        assert _bits(a) == _bits(b) == _bits(c)
        _same_states(a, want, n)


def test_both_search_forms_equal_the_former_set_search_on_the_corpus(monkeypatch):
    rng = random.Random(23)
    found = 0
    for model in CORPUS:
        arr = oracles.PredecessorArrays(model)
        assert arr.num_states < checking._SEARCH_LIMIT
        for targets in _target_sets(model, rng):
            found += _search_forms_agree(arr, targets, rng)
            _qualitative_forms_agree(monkeypatch, arr, targets, rng)
    assert found > 1000


def _large_mdp(rng, n):
    """A random MDP of ``n`` states, for searches above the limit: one to
    three choices per state, one to four branches per choice, mostly to
    nearby states (so paths are long) and some of probability zero, which
    are not edges; about one state in fifteen is a deadlock closed with a
    self-loop, as ``build_model`` closes one under ``absorb``."""
    rows = []
    for s in range(n):
        if rng.random() < 1 / 15:
            rows.append([Choice(None, ((Fraction(1), s),))])
            continue
        row = []
        for _ in range(rng.randint(1, 3)):
            succ = [min(max(s + rng.randint(-3, 3), 0), n - 1) if rng.random() < 0.9
                    else rng.randrange(n) for _ in range(rng.randint(1, 4))]
            weights = [0 if i and rng.random() < 0.25 else rng.randint(1, 4)
                       for i in range(len(succ))]
            total = sum(weights)
            row.append(Choice(f"a{len(row)}", tuple(
                (Fraction(w, total), t) for w, t in zip(weights, succ))))
        rows.append(row)
    target = frozenset(rng.sample(range(n), 3))
    return ExplicitModel.from_rows(kind="mdp", var_names=("s",), states=[(i,) for i in range(n)],
                                   initial=0, choices=rows, costs=[Fraction(0)] * n,
                                   labels={"target": target}, parameters={})


def _large_cases(models_dir):
    """Graphs above the limit, each with its seed sets: the ``C<20``
    product of the 200-retry chain, the controlled 200-retry MDP and
    random MDPs of two to four times the limit."""
    text = (models_dir / "retry_channel.mgcl").read_text(encoding="utf-8")
    chain = build_model(parse_program(text.replace("const retries = 40;", "const retries = 200;")),
                        {"loss": Fraction(2, 5)})
    target = checking._target_set(chain, "delivered")
    cost = np.array([int(c) for c in chain.costs])
    product = checking._product_arrays(checking._model_arrays(chain), target, cost, 21)
    goal = (target[:, None] & (np.arange(21) > 0)).ravel()
    yield product, [set(np.flatnonzero(goal).tolist()), {product.num_states - 1}]
    mdp = _retry_mdp(models_dir, 200)
    yield checking._model_arrays(mdp), [set(mdp.label_states(label))
                                        for label in ("delivered", "gaveup", "stopped")]
    rng = random.Random(29)
    for factor in (2, 3, 4):
        for _ in range(2):
            model = _large_mdp(rng, factor * checking._SEARCH_LIMIT + rng.randrange(50))
            yield checking._model_arrays(model), [
                set(model.labels["target"]), {rng.randrange(model.num_states)},
                set(rng.sample(range(model.num_states), model.num_states // 100)), set()]


def test_both_search_forms_agree_above_the_limit(monkeypatch, models_dir):
    rng = random.Random(31)
    sizes = []
    zero_branches = 0
    for arr, seed_sets in _large_cases(models_dir):
        assert arr.num_states >= checking._SEARCH_LIMIT
        sizes.append(arr.num_states)
        arr = _with_lists(arr)
        for seeds in seed_sets:
            _search_forms_agree(arr, seeds, rng)
            _qualitative_forms_agree(monkeypatch, arr, seeds, rng)
    assert sizes[:2] == [401 * 21, 1201]
    assert min(sizes[2:]) >= 2 * checking._SEARCH_LIMIT and max(sizes) >= 4 * checking._SEARCH_LIMIT


def test_the_large_random_mdps_have_zero_branches_and_deadlocks():
    rng = random.Random(29)
    model = _large_mdp(rng, 2 * checking._SEARCH_LIMIT)
    arr = checking._model_arrays(model)
    branches = sum(len(ch.branches) for row in model.choices for ch in row)
    loops = sum(row == [Choice(None, ((Fraction(1), s),))] for s, row in enumerate(model.choices))
    assert len(arr.targets) < branches - 500 and loops > 50
    unreached = ~checking._backward(arr, oracles.set_mask(model.num_states, {0}))
    assert unreached.any()  # not every state reaches state 0


def test_a_chain_zero_set_is_one_backward_search(models_dir):
    # with one choice per state, the states that avoid the targets under
    # some strategy (_prob0_min) are those that cannot reach them
    # (_prob0_max): on the corpus chains and on every support of the chain
    # families, and on the C<20 product of the 200-retry chain
    rng = random.Random(37)
    cases = 0
    for model in CORPUS[240:]:
        arr = checking._Arrays(model)
        for targets in _target_sets(model, rng):
            mask = oracles.set_mask(model.num_states, targets)
            assert _bits(checking._prob0_max(arr, mask)) == _bits(checking._prob0_min(arr, mask))
            cases += 1
    for program, target, goal in _family_cases():
        model = build_model(program)
        supports = {tuple(p != 0 for p, _ in probs) for _, probs, _ in well_defined_entries(model)}
        for support in supports:
            arr = checking._Arrays(model, support, np.ones((1, sum(support))))
            for label in (target, goal):
                mask = checking._target_set(model, label)
                assert _bits(checking._prob0_max(arr, mask)) == _bits(checking._prob0_min(arr, mask))
                cases += 1
    product, seed_sets = next(_large_cases(models_dir))
    for seeds in seed_sets:
        mask = oracles.set_mask(product.num_states, seeds)
        assert _bits(checking._prob0_max(product, mask)) == _bits(checking._prob0_min(product, mask))
    assert cases > 250


def _cost_faults(model, rng):
    """``model`` and copies with one state's cost made faulty for either
    check: a parameter expression, a negative integer, a fraction, a
    negative fraction, and a cost too large for int64."""
    yield model
    for bad in (Name("p"), Fraction(-2), Fraction(3, 2), Fraction(-1, 2), Fraction(10**30)):
        costs = list(model.costs)
        costs[rng.randrange(len(costs))] = bad
        yield replace(model, costs=costs)


def _attempt(call):
    try:
        return "value", call()
    except ModelError as e:
        return "error", type(e), str(e)


def test_costs_are_checked_once_as_the_former_loops_checked_them():
    """The costs ``expected_cost`` and ``cost_bounded_reach`` compute on,
    made once per model, equal those of the loops they ran on every call,
    and so do the first fault each reports (type, text and state), on the
    corpus and on copies with one faulty cost.  A second read gives the
    same again, from the model's arrays."""
    rng = random.Random(61)
    faults = set()
    for model in CORPUS:
        for case in _cost_faults(model, rng):
            for _ in range(2):
                got = _attempt(lambda: checking._model_costs(case).real())
                want = _attempt(lambda: oracles.former_real_costs(case))
                if want[0] == "value":
                    assert got[0] == "value" and got[1].dtype == np.float64
                    assert np.array_equal(got[1], want[1])
                else:
                    assert got == want
                    faults.add(want[2])
                for width in (1, 3, 10**9):
                    got = _attempt(lambda: np.minimum(checking._model_costs(case).integral(), width))
                    want = _attempt(lambda: oracles.former_integral_costs(case, width)[1])
                    if want[0] == "value":
                        assert got[0] == "value" and got[1].dtype == np.int64
                        assert np.array_equal(got[1], want[1])
                    else:
                        assert got == want
                        faults.add(want[2])
            assert case._arrays.costs is checking._model_costs(case)
    assert {f.split(" at state")[0] for f in faults} >= {
        "expected cost needs concrete state costs", "negative cost",
        "cost-bounded reachability needs concrete costs", "non-integer cost 3/2",
        "non-integer cost -1/2",
    }


def test_cost_faults_reach_the_caller_as_before():
    """Through ``expected_cost`` and ``cost_bounded_reach``, a faulty cost
    raises what the former loops raised, before any solve, and on every
    call; a parametric model still gets the checker's own error."""
    rng = random.Random(67)
    raised = 0
    for model in CORPUS[::10]:
        goal, target = ("stop", "target") if model.kind == "mdp" else ("goal", "ok")
        for case in list(_cost_faults(model, rng))[1:]:
            for call, former in (
                (lambda: expected_cost(case, goal), lambda: oracles.former_real_costs(case)),
                (lambda: cost_bounded_reach(case, target, 3),
                 lambda: oracles.former_integral_costs(case, 4)),
            ):
                want = _attempt(former)
                if want[0] == "error":
                    raised += 1
                    assert _attempt(call) == _attempt(call) == want
    assert raised > 100
    parametric = replace(CORPUS[0], kind="mimdp")
    for call in (lambda m: cost_bounded_reach(m, "target", 3), lambda m: expected_cost(m, "stop")):
        assert _attempt(lambda: call(parametric))[2] == (
            "model checking needs a concrete model; instantiate first"
        )
    costs = list(parametric.costs)
    costs[0] = Name("p")
    assert _attempt(lambda: cost_bounded_reach(replace(parametric, costs=costs), "target", 3))[2] == (
        "cost-bounded reachability needs concrete costs"
    )

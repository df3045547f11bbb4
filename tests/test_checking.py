import random
import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest

from mimdp.checking import (
    CostBoundQuery,
    ExpectedCostQuery,
    ExpectedCostUndefined,
    ReachabilityBound,
    ReachabilityQuery,
    check_spec,
    cost_bounded_reach,
    expected_cost,
    parse_property,
    reach_prob,
)
from mimdp.models import Choice, ExplicitModel, ModelError, build_model, instantiate
from mimdp.parser import parse_program

from generators import random_mc
from oracles import mc_expected_cost_exact, mc_reach_exact

U3 = {"p": F("0.6"), "q": F("0.3"), "r": F("0.4"), "s": F("0.7")}
U1 = {"p": F("0.4"), "q": F("0.3"), "r": F("0.6"), "s": F("0.7")}


def test_initial_state_in_target_has_probability_one(two_stage):
    model = instantiate(build_model(two_stage), U3)
    vec, _ = reach_prob(model, {0})
    assert vec.values[0] == 1.0


def test_two_step_chain_probability(two_stage):
    model = instantiate(build_model(two_stage), U3)
    vec, _ = reach_prob(model, "s2")
    assert abs(vec.at_initial(model) - 0.42) < 1e-12


def test_fair_die_uniform(die):
    model = build_model(die, {"p": F("0.5")})
    for outcome in ("one", "two", "three", "four", "five", "six"):
        vec, _ = reach_prob(model, outcome)
        assert abs(vec.at_initial(model) - 1 / 6) < 1e-8


def test_biased_die_matches_closed_forms(die):
    p = F("0.7")
    model = build_model(die, {"p": p})
    den_left = 1 - p * (1 - p)
    den_right = 1 - (1 - p) ** 2
    expected = {
        "one": p * p * (1 - p) / den_left,
        "two": p * (1 - p) ** 2 / den_left,
        "three": (1 - p) ** 3 / den_left,
        "four": p ** 3 / den_right,
        "five": p * p * (1 - p) / den_right,
        "six": p * p * (1 - p) / den_right,
    }
    for outcome, want in expected.items():
        vec, _ = reach_prob(model, outcome)
        assert abs(vec.at_initial(model) - float(want)) < 1e-9


def test_prob0_and_prob1_are_exact(two_stage):
    model = instantiate(build_model(two_stage), U3)
    vec, _ = reach_prob(model, "s2")
    # s3 cannot reach s2; s2 is the target
    s2 = next(iter(model.labels["s2"]))
    s3 = next(iter(i for i in range(4) if model.states[i] == (3,)))
    assert vec.values[s2] == 1.0
    assert vec.values[s3] == 0.0


def test_value_iteration_iterates_are_monotone(two_stage):
    model = instantiate(build_model(two_stage), U1)
    trace = []
    reach_prob(model, "s2", trace=trace)
    for earlier, later in zip(trace, trace[1:]):
        assert np.all(later >= earlier - 1e-15)


def test_expected_cost_zero_cost_model():
    src = """
    module m
      x : [0..1] init 0;
      [] x=0 -> 0.5:(x'=1) + 0.5:(x'=0);
      [] x=1 -> true;
    endmodule
    label "g" = x=1;
    """
    model = build_model(parse_program(src))
    vec, _ = expected_cost(model, "g")
    assert np.all(vec.values[np.isfinite(vec.values)] == 0.0)


def test_expected_cost_two_stage(two_stage):
    model = instantiate(build_model(two_stage), U1)
    vec, _ = expected_cost(model, "absorb")
    assert abs(vec.at_initial(model) - 1.02) < 1e-9


def test_expected_cost_undefined_when_goal_unreachable():
    src = """
    module m
      x : [0..2] init 0;
      [] x=0 -> 0.5:(x'=1) + 0.5:(x'=0);
      [] x=1 -> true;
      [] x=2 -> true;
    endmodule
    label "never" = x=2;
    """
    model = build_model(parse_program(src))
    with pytest.raises(ExpectedCostUndefined):
        expected_cost(model, "never")


def test_zero_probability_branch_is_not_an_edge():
    src = """
    module m
      s : [0..2] init 0;
      [] s=0 -> 1:(s'=1) + 0:(s'=2);
      [] s>0 -> true;
    endmodule
    rewards
      s=0 : 1;
    endrewards
    label "goal" = s=1;
    label "stuck" = s=2;
    """
    model = build_model(parse_program(src))
    assert check_spec(model, parse_property('ECmin=? [F "goal"]')) == (None, 1.0)
    vec, _ = reach_prob(model, "stuck")
    assert vec.at_initial(model) == 0.0


def test_choice_of_only_zero_branches_is_rejected():
    model = ExplicitModel(
        kind="mc",
        var_names=("x",),
        states=[(0,), (1,)],
        initial=0,
        choices=[[Choice(None, ((F(0), 1),))], [Choice(None, ((F(1), 1),))]],
        costs=[F(0), F(0)],
        labels={"t": frozenset({1})},
        parameters={},
    )
    with pytest.raises(ModelError, match="no positive branch"):
        reach_prob(model, "t")


def test_mc_agrees_with_exact_elimination_on_random_corpus():
    rng = random.Random(42)
    for _ in range(50):
        model = random_mc(rng)
        vec, _ = reach_prob(model, "bad")
        exact = mc_reach_exact(model, "bad")
        for s in range(model.num_states):
            assert abs(vec.values[s] - float(exact[s])) < 1e-7
        cvec, _ = expected_cost(model, "goal")
        cexact = mc_expected_cost_exact(model, "goal")
        for s in range(model.num_states):
            assert cexact[s] is not None
            assert abs(cvec.values[s] - float(cexact[s])) < 1e-7


def test_expected_cost_scaling_by_constant():
    rng = random.Random(11)
    for _ in range(10):
        model = random_mc(rng, max_states=20)
        scaled = type(model)(
            kind=model.kind,
            var_names=model.var_names,
            states=list(model.states),
            initial=model.initial,
            choices=model.choices,
            costs=[7 * c for c in model.costs],
            labels=model.labels,
            parameters={},
        )
        base, sa = expected_cost(model, "goal")
        seven, sb = expected_cost(scaled, "goal")
        finite = np.isfinite(base.values)
        assert np.max(np.abs(seven.values[finite] - 7 * base.values[finite])) < 1e-9
        assert sa.choice_probs == sb.choice_probs


# --- strategies ---------------------------------------------------------------

def _mdp_text():
    return """
    module m
      x : [0..3] init 0;
      [risky] x=0 -> 0.9:(x'=2) + 0.1:(x'=3);
      [safe] x=0 -> 0.5:(x'=2) + 0.5:(x'=1);
      [] x=1 -> (x'=2);
      [] x>=2 -> true;
    endmodule
    label "win" = x=2;
    label "end" = x>=2;
    """


def test_mdp_directions_and_strategies():
    model = build_model(parse_program(_mdp_text()))
    hi, s_hi = reach_prob(model, "win", "max")
    lo, s_lo = reach_prob(model, "win", "min")
    assert abs(hi.at_initial(model) - 1.0) < 1e-9  # safe: 0.5 + 0.5 via x=1
    assert abs(lo.at_initial(model) - 0.9) < 1e-9
    assert s_hi.pick(0) == 1 and s_lo.pick(0) == 0


def test_lowest_index_tie_break():
    src = """
    module m
      x : [0..2] init 0;
      [a] x=0 -> (x'=1);
      [b] x=0 -> (x'=2);
      [] x>0 -> true;
    endmodule
    label "t" = x>=1;
    """
    model = build_model(parse_program(src))
    _, strat = reach_prob(model, "t", "max")
    assert strat.pick(0) == 0


# --- cost-bounded reachability -------------------------------------------------

def _unit_chain(n_states=4):
    src = """
    module m
      x : [0..3] init 0;
      [] x<3 -> (x'=x+1);
      [] x=3 -> true;
    endmodule
    rewards
      x<3 : 1;
    endrewards
    label "t" = x=3;
    """
    return build_model(parse_program(src))


def test_unit_cost_chain_strict_bound():
    model = _unit_chain()
    assert cost_bounded_reach(model, "t", 3) == 0.0
    assert abs(cost_bounded_reach(model, "t", 4) - 1.0) < 1e-9


def test_zero_budget_is_zero():
    model = _unit_chain()
    assert cost_bounded_reach(model, "t", 0) == 0.0


def _two_branch():
    src = """
    module m
      loc : [0..3] init 0;
      [] loc=0 -> 0.5:(loc'=1) + 0.5:(loc'=2);
      [] loc=1 -> (loc'=3);
      [] loc=2 -> (loc'=3);
      [] loc=3 -> true;
    endmodule
    rewards
      loc=1 : 1;
      loc=2 : 5;
    endrewards
    label "t" = loc=3;
    """
    return build_model(parse_program(src))


def test_cheap_and_expensive_paths():
    model = _two_branch()
    assert abs(cost_bounded_reach(model, "t", 3) - 0.5) < 1e-9
    assert abs(cost_bounded_reach(model, "t", 6) - 1.0) < 1e-9


def test_cost_bounded_is_nondecreasing_and_converges():
    model = _two_branch()
    values = [cost_bounded_reach(model, "t", n) for n in range(0, 10)]
    assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))
    full, _ = reach_prob(model, "t")
    assert abs(values[-1] - full.at_initial(model)) < 1e-9


def test_non_integer_costs_are_rejected():
    src = """
    module m
      x : [0..1] init 0;
      [] x=0 -> (x'=1);
      [] x=1 -> true;
    endmodule
    rewards
      x=0 : 0.5;
    endrewards
    label "t" = x=1;
    """
    model = build_model(parse_program(src))
    with pytest.raises(ModelError, match="non-integer"):
        cost_bounded_reach(model, "t", 2)


# --- specifications -------------------------------------------------------------

def test_property_parsing():
    assert parse_property('P<=0.3 [F "t"]') == ReachabilityBound("t", F("0.3"))
    assert parse_property('Pmin=? [F "t"]') == ReachabilityQuery("t", "min")
    assert parse_property('Pmax=? [F "t"]') == ReachabilityQuery("t", "max")
    assert parse_property('ECmin=? [F "g"]') == ExpectedCostQuery("g", "min")
    assert parse_property('P=? [F{C<10} "t"]') == CostBoundQuery("t", 10, None)
    with pytest.raises(ValueError):
        parse_property('EC<=3 [F "g"]')
    with pytest.raises(ValueError):
        parse_property("nonsense")


def test_check_spec_verdicts(two_stage):
    model = instantiate(build_model(two_stage), U3)
    verdict, value = check_spec(model, parse_property('P<=0.3 [F "s2"]'))
    assert verdict is False and abs(value - 0.42) < 1e-9
    verdict, _ = check_spec(model, parse_property('P<=1 [F "s2"]'))
    assert verdict is True
    verdict, value = check_spec(model, parse_property('ECmin=? [F "absorb"]'))
    assert verdict is None and abs(value - 1.62) < 1e-9


def test_check_spec_universal_vs_existential():
    model = build_model(parse_program(_mdp_text()))
    spec = parse_property('P<=0.95 [F "win"]')
    universal, _ = check_spec(model, spec)
    existential, _ = check_spec(model, spec, existential=True)
    assert universal is False and existential is True


def test_check_spec_rejects_parametric_models(two_stage):
    model = build_model(two_stage)
    with pytest.raises(ModelError):
        reach_prob(model, "s2")


# --- policy polish ----------------------------------------------------------------

def test_polish_records_a_rejected_polish():
    # choice a loops on state 0, choice b reaches the target with 1/2: both
    # are worth 1/2 under Pmax, the lowest-index pick (the loop) makes
    # I - P singular, and the raw iteration values are kept
    src = """
    module m
      x : [0..2] init 0;
      [a] x=0 -> true;
      [b] x=0 -> 0.5:(x'=1) + 0.5:(x'=2);
      [] x>0 -> true;
    endmodule
    label "t" = x=1;
    """
    model = build_model(parse_program(src))
    vec, _ = reach_prob(model, "t", "max")
    assert not vec.polished
    assert abs(vec.at_initial(model) - 0.5) < 1e-9
    vec, _ = reach_prob(model, "t", "min")
    assert vec.polished and vec.at_initial(model) == 0.0


def test_polish_is_reported_when_accepted(two_stage):
    model = instantiate(build_model(two_stage), U1)
    assert reach_prob(model, "s2")[0].polished
    assert expected_cost(model, "absorb")[0].polished


def _birth_death(n, a=F(1, 4), b=F(3, 10), c=F(1, 5)):
    """States 1..n step up with b, down with c, into the target ``n + 2``
    with a and into the sink 0 with the rest; ``n + 1`` is a target too."""
    fail, top, done = 0, n + 1, n + 2
    rows = [[Choice(None, ((F(1), fail),))]]
    for i in range(1, n + 1):
        rows.append([Choice(None, ((a, done), (b, i + 1), (c, i - 1), (1 - a - b - c, fail)))])
    rows += [[Choice(None, ((F(1), top),))], [Choice(None, ((F(1), done),))]]
    return ExplicitModel(
        kind="mc",
        var_names=("i",),
        states=[(i,) for i in range(n + 3)],
        initial=1,
        choices=rows,
        costs=[F(0)] * (n + 3),
        labels={"t": frozenset({top, done})},
        parameters={},
    )


def test_large_polish_stays_sparse_and_exact():
    n = 5000
    a, b, c = 0.25, 0.3, 0.2
    model = _birth_death(n)
    tracemalloc.start()
    try:
        vec, _ = reach_prob(model, "t")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one dense n x n float matrix alone would be 200 MB
    assert peak < 50e6
    assert vec.polished
    # x_i = a + b x_{i+1} + c x_{i-1}, x_0 = 0, x_{n+1} = 1: a constant plus
    # the two geometric solutions, anchored at either end to stay finite
    k = a / (1 - b - c)
    disc = np.sqrt(1 - 4 * b * c)
    r1, r2 = (1 - disc) / (2 * b), (1 + disc) / (2 * b)
    m = np.array([[1.0, r2 ** -(n + 1)], [r1 ** (n + 1), 1.0]])
    lo, hi = np.linalg.solve(m, [-k, 1 - k])
    i = np.arange(1, n + 1)
    want = k + lo * r1 ** i + hi * r2 ** (i - n - 1.0)
    assert np.max(np.abs(vec.values[1:n + 1] - want)) < 1e-9

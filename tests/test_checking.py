import random
import tracemalloc
from dataclasses import replace
from fractions import Fraction as F

import numpy as np
import pytest

from mimdp import checking, shipyard
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
from mimdp.expressions import Name
from mimdp.models import (
    Choice, ExplicitModel, ModelError, StateCapExceeded, Strategy, build_model, instantiate,
)
from mimdp.parser import parse_program
from mimdp.synthesis import SynthesisQuery, constrained_mdp_lp, synthesize_enumerate
from mimdp.transform import transform_all

import oracles
from generators import random_mc, random_mdp
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
    # value iteration runs on MDPs: the controlled two-stage family
    model = build_model(transform_all(two_stage)[0])
    assert model.kind == "mdp"
    for direction in ("min", "max"):
        trace = []
        vec, _ = reach_prob(model, "s2", direction, trace=trace)
        assert len(trace) == vec.iterations > 1
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


PAST_THE_GOAL = """
module m
  s : [0..2] init 0;
  [] s=0 -> 1:(s'=1);
  [] s=1 -> 1:(s'=2);
  [] s=2 -> true;
endmodule
rewards
  s=0 : 1;
endrewards
label "g" = s=1;
"""


def test_expected_cost_is_defined_where_only_states_past_the_goal_lack_it():
    # s=2 never reaches the goal, but it is reached only through the goal
    model = build_model(parse_program(PAST_THE_GOAL))
    for direction in ("min", "max"):
        vec, _ = expected_cost(model, "g", direction)
        assert vec.values.tolist() == [1.0, 0.0, np.inf]
    verdict, value = check_spec(model, parse_property('ECmin=? [F "g"]'))
    assert (verdict, value) == (None, 1.0)
    # refused where the initial state lacks it, naming the initial state
    shifted = replace(model, initial=2)
    with pytest.raises(ExpectedCostUndefined, match=r"from state \(s=2\)$"):
        expected_cost(shifted, "g")


def _three_states():
    return _hand_model([[_ch((1, 1))], [_ch((1, 2))], [_ch((1, 2))]], [1, 1, 0], kind="mc")


def test_a_mask_of_another_length_is_refused():
    model = _three_states()
    wrong = np.array([False, False, True, False])
    calls = [
        lambda t: reach_prob(model, t),
        lambda t: expected_cost(model, t),
        lambda t: cost_bounded_reach(model, t, 3),
        lambda t: constrained_mdp_lp(model, t, 1, t),
    ]
    for call in calls:
        with pytest.raises(ModelError, match=r"state mask of shape \(4,\) for a model of 3 states"):
            call(wrong)
        with pytest.raises(ModelError):
            call(wrong[:2])
        # a mask of the model's length, and state indices, as before
        mask = call(np.array([False, False, True]))
        listed = call([2])
        if isinstance(mask, tuple):
            assert np.array_equal(mask[0].values, listed[0].values)
        elif isinstance(mask, float):
            assert mask == listed == 1.0
        else:
            assert (mask.expected_cost, mask.reach_probability) == (
                listed.expected_cost, listed.reach_probability)
    assert reach_prob(model, [2])[0].values.tolist() == [1.0, 1.0, 1.0]


def test_a_list_of_bools_is_not_read_as_states(die):
    # the mask of "one" (state 7) as a list was read as the states 0 and
    # 1, so reaching it had probability 1.0; the mask itself gives 0.0797
    model = instantiate(build_model(die), {"p": F(3, 10)})
    mask = np.zeros(model.num_states, dtype=bool)
    mask[sorted(model.label_states("one"))] = True
    assert np.flatnonzero(mask).tolist() == [7]
    assert round(reach_prob(model, mask)[0].values[model.initial], 4) == 0.0797
    calls = [
        lambda t: reach_prob(model, t),
        lambda t: expected_cost(model, t),
        lambda t: cost_bounded_reach(model, t, 3),
        lambda t: constrained_mdp_lp(model, t, 1, "rolled"),
        lambda t: constrained_mdp_lp(model, "one", 1, t),
    ]
    for call in calls:
        for targets in (mask.tolist(), list(mask), [7, True], (np.bool_(False),)):
            with pytest.raises(ModelError, match=r"^target state (True|False) is a bool"):
                call(targets)
    # numpy integers are state indices, as before
    assert reach_prob(model, np.array([7]))[0].values[model.initial] == \
        reach_prob(model, mask)[0].values[model.initial]


TOL_MDP = """\
module m
  s : [0..5] init 0;
  [a] s=0 -> (s'=1);
  [b] s=0 -> 0.5:(s'=4) + 0.5:(s'=5);
  [] s=1 -> (s'=2);
  [] s=2 -> (s'=3);
  [] s=3 -> 0.9:(s'=4) + 0.1:(s'=5);
  [] s>=4 -> true;
endmodule
rewards
  s<4 : 1;
endrewards
label "t" = s=4;
label "g" = s>=4;
"""


def test_a_tolerance_that_is_not_a_finite_nonnegative_number_is_refused(die):
    # value iteration stopped after one sweep under a NaN or infinite
    # tolerance, and ran to its sweep limit under a negative one
    mdp = build_model(parse_program(TOL_MDP))
    chain = instantiate(build_model(die), {"p": F(1, 2)})
    calls = [
        lambda tol: reach_prob(mdp, "t", "max", tol=tol),
        lambda tol: expected_cost(mdp, "g", "min", tol=tol),
        lambda tol: cost_bounded_reach(mdp, "t", 5, "max", tol=tol),
        lambda tol: reach_prob(chain, "rolled", tol=tol),
        lambda tol: expected_cost(chain, "rolled", tol=tol),
        lambda tol: cost_bounded_reach(chain, "rolled", 5, tol=tol),
        lambda tol: check_spec(mdp, parse_property('Pmax=? [F "t"]'), tol=tol),
    ]
    for tol in (float("nan"), float("inf"), -float("inf"), -1.0, -1e-300, "1e-8", None):
        for call in calls:
            with pytest.raises(ValueError, match="tolerance must be a finite number >= 0"):
                call(tol)
    # 0 iterates until the values stop changing
    for tol in (0, 0.0, 1e-8):
        vec, _ = reach_prob(mdp, "t", "max", tol=tol)
        assert vec.at_initial(mdp) == pytest.approx(0.9, rel=1e-12) and vec.polished
    assert reach_prob(mdp, "t", "max", tol=0.0)[0].residual == 0.0


def test_chains_are_solved_without_value_iteration(monkeypatch, models_dir, die):
    def iterate(*_, **__):
        raise AssertionError("value iteration ran on a chain")

    chain, _ = _retry_models(models_dir, 200)
    program = parse_program(shipyard.generate_program(
        shipyard.ShipyardConfig(missions=1), True, per_sensor_grades=True))
    monkeypatch.setattr(checking, "_iterate", iterate)
    for tol in (1e-8, 1e-2):
        trace = []
        vec, _ = reach_prob(chain, "gaveup", tol=tol, trace=trace)
        assert trace == [] and (vec.iterations, vec.residual, vec.polished) == (0, 0.0, True)
        assert abs(vec.at_initial(chain) - 0.1 ** 200) <= 1e-12 * 0.1 ** 200
        vec, _ = expected_cost(chain, "stopped", tol=tol, trace=trace)
        assert trace == [] and (vec.iterations, vec.residual, vec.polished) == (0, 0.0, True)
        assert abs(vec.at_initial(chain) - 1 / 0.9) <= 1e-12
    value = cost_bounded_reach(chain, "delivered", 20)
    assert abs(value - (1 - 0.1 ** 20)) <= 1e-12
    result = synthesize_enumerate(program, SynthesisQuery("failure", F("0.03"), "done"))
    assert len(result.table) == 1440 and result.feasible
    assert check_spec(instantiate(build_model(die), {"p": F(1, 2)}),
                      parse_property('ECmin=? [F "rolled"]'))[1] == pytest.approx(11 / 3, rel=1e-12)


def test_a_chain_whose_system_cannot_be_solved_raises():
    # two branches of probability 1e-400, which is 0.0 as a float: the
    # chain's graph reaches both states, its floating-point system is
    # singular, and the exact value is 1/2
    tiny = F(1, 10 ** 400)
    model = _hand_model(
        [[_ch((1 - 2 * tiny, 0), (tiny, 1), (tiny, 2))], [_ch((1, 1))], [_ch((1, 2))]],
        [1, 0, 0], kind="mc",
    )
    assert mc_reach_exact(model, {1})[0] == F(1, 2)
    for call in (lambda: reach_prob(model, {1}), lambda: expected_cost(model, {1, 2})):
        with pytest.raises(ModelError, match="linear system could not be solved") as error:
            call()
        assert not isinstance(error.value, ExpectedCostUndefined)


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
    model = ExplicitModel.from_rows(
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
        scaled = type(model).from_rows(
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


TWO_STATE_CHAIN = """
module m
  x : [0..1] init 0;
  [] x=0 -> (x'=1);
  [] x=1 -> true;
endmodule
rewards
  x=0 : 1;
endrewards
label "t" = x=1;
"""

# a budget product of 2 x (10^7 + 1) states: at the state cap of 10^7 it
# is refused before any of its arrays are allocated, where building them
# would take gigabytes
OVER_THE_CAP = (
    "cost-bounded product of 20000002 states (2 states x 10000001 budgets) "
    "exceeds the state cap of 10000000 states"
)


def test_a_budget_product_over_the_state_cap_is_refused():
    model = build_model(parse_program(TWO_STATE_CHAIN))
    spec = parse_property('P=? [F{C<10000000} "t"]')
    with pytest.raises(ModelError) as refused:
        check_spec(model, spec)
    assert str(refused.value) == OVER_THE_CAP
    assert isinstance(refused.value, StateCapExceeded)
    # it is refused on every call, and the model checks as before
    with pytest.raises(StateCapExceeded):
        cost_bounded_reach(model, "t", 10**7, "min")
    assert cost_bounded_reach(model, "t", 2) == 1.0


def test_the_budget_product_cap_counts_states_times_budgets(monkeypatch):
    model = build_model(parse_program(TWO_STATE_CHAIN))
    monkeypatch.setattr(checking, "DEFAULT_STATE_CAP", 10)
    assert cost_bounded_reach(model, "t", 4) == 1.0  # 2 x 5 states
    with pytest.raises(StateCapExceeded, match="^cost-bounded product of 12 states "
                       r"\(2 states x 6 budgets\) exceeds the state cap of 10 states$"):
        cost_bounded_reach(model, "t", 5)
    # a negative bound is refused first, and the cap before the label is read
    with pytest.raises(ValueError, match="cost bound must be nonnegative"):
        cost_bounded_reach(model, "t", -1)
    with pytest.raises(StateCapExceeded):
        cost_bounded_reach(model, "no such label", 5)


def test_a_cost_bound_that_is_not_an_integer_is_refused(monkeypatch):
    # 2.5 failed inside numpy (arrays used as indices must be of integer
    # type); the refusal comes before the product is built
    model = build_model(parse_program(TWO_STATE_CHAIN))
    monkeypatch.setattr(checking, "_product_arrays", lambda *args: pytest.fail("built"))
    for bound in (2.5, 2.0, F(5, 2), F(2), "2", None):
        with pytest.raises(ValueError) as refused:
            cost_bounded_reach(model, "t", bound)
        assert str(refused.value) == f"cost bound must be an integer, got {bound!r}"
    monkeypatch.undo()
    assert cost_bounded_reach(model, "t", np.int64(2)) == cost_bounded_reach(model, "t", 2) == 1.0


def test_a_boolean_cost_bound_is_refused():
    # True was read as the bound 1
    model = build_model(parse_program(TWO_STATE_CHAIN))
    for bound in (True, False):
        with pytest.raises(ValueError, match=f"^cost bound must be an integer, got {bound}$"):
            cost_bounded_reach(model, "t", bound)


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


@pytest.mark.parametrize("text", ['Pmin<=0.3 [F "t"]', 'Pmax<=0.3 [F "t"]', 'Pmin <= 1 [F "t"]'])
def test_a_bound_with_a_direction_is_refused(text):
    # check_spec reads a bound under every strategy, or under some with
    # existential=True: a direction written beside it would be ignored
    with pytest.raises(ValueError, match="--existential"):
        parse_property(text)


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
    return ExplicitModel.from_rows(
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


def test_a_mid_size_polish_peaks_below_one_dense_matrix():
    import scipy.sparse.linalg  # noqa: F401  (its import is not the polish's memory)

    n = 598
    model = _birth_death(n)
    reach_prob(model, "t")  # the model's arrays are built once, outside the count
    tracemalloc.start()
    try:
        vec, _ = reach_prob(model, "t")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert vec.polished
    assert peak < n * n * 8


def _solves(monkeypatch, model, prop):
    """The value vectors of the solver calls ``check_spec`` makes, and the
    size of every region the polish solves."""
    vectors, sizes = [], []
    with monkeypatch.context() as m:
        for name in ("reach_prob", "expected_cost"):
            def solve(*args, inner=getattr(checking, name), **kwargs):
                vec, strategy = inner(*args, **kwargs)
                vectors.append(vec)
                return vec, strategy

            m.setattr(checking, name, solve)
        inner_stack = checking._solve_stack

        def solve_stack(rows, cols, probs, rhs, *out):
            sizes.append(rhs.shape[1])
            inner_stack(rows, cols, probs, rhs, *out)

        m.setattr(checking, "_solve_stack", solve_stack)
        check_spec(model, parse_property(prop))
    return vectors, sizes


def test_the_sparse_polish_agrees_with_the_former_dense_one(monkeypatch, models_dir):
    """On the retry channel scaled to 200 retries, the regions the polish
    now hands to the sparse LU give the polished flags and, within 1e-12
    relative, the values of the former dense solve (dense up to 3000
    states)."""
    program = parse_program(
        (models_dir / "retry_channel.mgcl").read_text(encoding="utf-8")
        .replace("const retries = 40;", "const retries = 200;")
    )
    controlled, _ = transform_all(program)
    mdp = build_model(controlled, on_deadlock="absorb")
    cases = [(mdp, 'Pmax=? [F "gaveup"]'), (mdp, 'Pmin=? [F "gaveup"]')]
    for loss in ("0.1", "0.2", "0.4"):
        chain = build_model(program, {"loss": F(loss)})
        cases += [(chain, 'Pmax=? [F "gaveup"]'), (chain, 'ECmin=? [F "stopped"]'),
                  (chain, 'P=? [F{C<20} "delivered"]')]
    for model, prop in cases:
        got, sizes = _solves(monkeypatch, model, prop)
        assert max(sizes) > checking._POLISH_DENSE_LIMIT, prop
        with monkeypatch.context() as m:
            m.setattr(checking, "_POLISH_DENSE_LIMIT", 3000)
            want, _ = _solves(monkeypatch, model, prop)
        assert len(got) == len(want) == 1
        assert got[0].polished == want[0].polished, prop
        np.testing.assert_allclose(got[0].values, want[0].values, rtol=1e-12, atol=0, err_msg=prop)


# --- the array-built cost-bounded product against the former object-built one ---

_ARRAY_FIELDS = ("choice_state", "choice_start", "branch_start", "targets", "probs",
                 "pred_choice", "pred_start")
_LIST_FIELDS = ("num_states", "num_choices")


def _recording(monkeypatch, module, products):
    """Patch ``module.reach_prob`` to record the model it is given."""
    inner = module.reach_prob

    def record(model, *args, **kwargs):
        products.append(model)
        return inner(model, *args, **kwargs)

    monkeypatch.setattr(module, "reach_prob", record)


def _outcome(fn, *args):
    try:
        return "value", fn(*args)
    except Exception as e:  # the error's type and text must match too
        return "error", type(e), str(e)


def _assert_same_arrays(a, b):
    for name in _LIST_FIELDS:
        assert getattr(a, name) == getattr(b, name), name
    for name in _ARRAY_FIELDS:
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.shape == y.shape, name
        assert np.array_equal(x, y), name


def _assert_same_cbr(monkeypatch, model, targets, bound, direction="max"):
    """``cost_bounded_reach`` and the former code give bit-identical values
    or identical errors, and hand ``reach_prob`` the same product: the same
    states, arrays and (read lazily) rows, which are now the former rows
    without their zero-probability branches, as the product's structure is
    its arrays'."""
    new, old = [], []
    with monkeypatch.context() as m:
        _recording(m, checking, new)
        _recording(m, oracles, old)
        got = _outcome(checking.cost_bounded_reach, model, targets, bound, direction)
        want = _outcome(oracles.seed_cost_bounded_reach, model, targets, bound, direction)
    assert got == want
    assert len(new) == len(old) <= 1
    for a, b in zip(new, old):
        assert (a.kind, a.var_names, a.initial) == (b.kind, b.var_names, b.initial)
        assert list(a.states) == b.states and a.costs == b.costs
        assert len(a.choices) == len(b.choices)
        positive = [[Choice(ch.action, tuple((p, t) for p, t in ch.branches if p)) for ch in row]
                    for row in b.choices]
        assert list(a.choices) == positive
        assert a.num_transitions == sum(len(ch.branches) for row in positive for ch in row)
        if got[0] == "value":
            _assert_same_arrays(a._arrays, checking._Arrays(b))
    return got


def _integer_costs(model):
    return replace(model, costs=[F(round(c)) for c in model.costs])


def test_array_built_product_equals_the_former_on_random_models(monkeypatch):
    rng = random.Random(17)
    cases = [(random_mdp(rng), label) for _ in range(30) for label in ("target", "stop")]
    cases += [(_integer_costs(random_mc(rng, 20)), label) for _ in range(15)
              for label in ("ok", "goal")]
    values = set()
    for model, label in cases:
        for bound in range(9):
            for direction in ("min", "max"):
                outcome = _assert_same_cbr(monkeypatch, model, label, bound, direction)
                assert outcome[0] == "value"
                values.add(outcome[1])
    assert len(values) > 50  # the corpus is not degenerate


def _retry_models(models_dir, retries=40):
    program = parse_program(
        (models_dir / "retry_channel.mgcl").read_text(encoding="utf-8")
        .replace("const retries = 40;", f"const retries = {retries};")
    )
    chain = build_model(program, {"loss": F("0.1")})
    controlled, _ = transform_all(program)
    return chain, build_model(controlled, on_deadlock="absorb")


def test_array_built_product_equals_the_former_on_the_retry_channel(monkeypatch, models_dir):
    chain, mdp = _retry_models(models_dir)
    for model in (chain, mdp):
        for label in ("delivered", "gaveup"):
            for bound in range(9):
                for direction in ("min", "max"):
                    _assert_same_cbr(monkeypatch, model, label, bound, direction)
    assert _assert_same_cbr(monkeypatch, chain, "delivered", 20)[0] == "value"


def test_the_goal_mask_checks_as_the_former_goal_set(monkeypatch, models_dir):
    """``cost_bounded_reach`` hands ``reach_prob`` the product's goal as a
    boolean mask, made with array operations; the former goal set, built
    state by state, gives bit-identical values and the same strategy."""
    rng = random.Random(29)
    chain, _ = _retry_models(models_dir)
    cases = [(chain, "delivered", 20, "max")]
    cases += [(random_mdp(rng), "target", rng.randint(1, 8), direction)
              for _ in range(40) for direction in ("min", "max")]
    inner = checking.reach_prob
    calls = []

    def record(model, targets, *args, **kwargs):
        calls.append((model, targets))
        return inner(model, targets, *args, **kwargs)

    monkeypatch.setattr(checking, "reach_prob", record)
    for model, label, bound, direction in cases:
        calls.clear()
        value = cost_bounded_reach(model, label, bound, direction)
        width = bound + 1
        former = {s * width + b for s in model.label_states(label) for b in range(1, width)}
        if not former:  # no target: no product is checked
            assert (calls, value) == ([], 0.0)
            continue
        (product, goal), = calls
        assert goal.dtype == bool and goal.shape == (product.num_states,)
        assert np.flatnonzero(goal).tolist() == sorted(former)
        vec, strategy = inner(product, goal, direction)
        want, want_strategy = inner(product, former, direction)
        assert vec.values.tobytes() == want.values.tobytes()
        assert (vec.iterations, vec.residual, vec.polished) == \
            (want.iterations, want.residual, want.polished)
        assert strategy.choice_probs == want_strategy.choice_probs
        assert value == float(want.values[product.initial])


def _same_items(new, former):
    """``new`` reads as the former lazy sequence ``former``: item for item,
    from either end, with ``IndexError`` past either end, and a slice as
    the list of its items."""
    n = len(former)
    assert len(new) == n
    assert [new[i] for i in range(-n, n)] == [former[i] for i in range(-n, n)]
    items = [former[i] for i in range(n)]
    for part in (slice(0, 2), slice(None, None, -1), slice(-3, None), slice(n, None)):
        assert new[part] == items[part]
    for i in (n, -n - 1):
        for seq in (new, former):
            with pytest.raises(IndexError):
                seq[i]
    assert new == list(former)


def test_the_lazy_sequences_equal_the_former_ones(monkeypatch, models_dir):
    """The budget product's states and rows, and the picks of the
    strategies ``reach_prob`` returns, against the former hand-written
    sequences (``oracles``): on the C<20 product of the 200-retry chain, a
    unit-cost chain's product and the controlled 200-retry MDP."""
    chain, mdp = _retry_models(models_dir, retries=200)
    products, made = [], []
    real = Strategy.deterministic.__func__

    def deterministic(cls, picks):
        strategy = real(cls, picks)
        made.append((list(picks), strategy))
        return strategy

    # the hand model's last state is a target that leaves: its product rows
    # are self-loops on the index read, normalized when read from the end
    hand = _hand_model([[_ch((1, 1))], [_ch((0.5, 0), (0.5, 2))], [_ch((1, 0), action="a")]],
                       [1, 2, 0])
    cases = [(chain, "delivered", 20), (_unit_chain(), "t", 4), (hand, "t", 3)]
    with monkeypatch.context() as m:
        _recording(m, checking, products)
        m.setattr(Strategy, "deterministic", classmethod(deterministic))
        for model, target, bound in cases:
            cost_bounded_reach(model, target, bound)
        for direction in ("min", "max"):
            reach_prob(mdp, "gaveup", direction)
    assert len(products) == 3 and len(products[0].states) == 8421
    for product, (model, target, bound) in zip(products, cases):
        width = bound + 1
        tset = oracles.set_target_set(model, target)
        costs = [int(c) for c in model.costs]
        _same_items(product.states, oracles._ProductStates(model.states, width))
        _same_items(product.choices, oracles._ProductRows(model, tset, costs, width))
    assert [len(picks) for picks, _ in made] == [8421, 20, 12, mdp.num_states, mdp.num_states]
    for picks, strategy in made:
        former = oracles._Picks(picks)
        _same_items(strategy.choice_probs, former)
        assert repr(strategy.choice_probs) == repr(former)
    # picks are converted to int when read
    lazy = Strategy.deterministic(np.array(made[-1][0]))
    assert all(type(a) is int for dist in lazy.choice_probs for a in dist)
    _same_items(lazy.choice_probs, oracles._Picks(np.array(made[-1][0])))


def _hand_model(rows, costs, kind="mdp"):
    n = len(rows)
    return ExplicitModel.from_rows(
        kind=kind,
        var_names=("s",),
        states=[(i,) for i in range(n)],
        initial=0,
        choices=rows,
        costs=[c if isinstance(c, Name) else F(c) for c in costs],
        labels={"t": frozenset({n - 1}), "both": frozenset({n - 2, n - 1})},
        parameters={},
    )


def _ch(*branches, action=None):
    return Choice(action, tuple((F(p), t) for p, t in branches))


# zero-probability branches, a branch repeated into one target, self-loops
# on and off the target, a free state and a costly one
_CORNERS = [
    [_ch(("0", 1), ("1/2", 2), ("1/2", 2)), _ch((1, 0), action="stay")],
    [_ch(("1/3", 1), ("2/3", 3), ("0", 0)), _ch(("1/4", 2), ("3/4", 2))],
    [_ch(("1/2", 3), ("1/2", 0)), _ch(("0", 3), (1, 2))],
    [_ch(("0", 0), (1, 3))],
]


def test_array_built_product_equals_the_former_on_corner_cases(monkeypatch):
    for costs in ([1, 0, 2, 0], [0, 0, 0, 0], [3, 1, 9, 5]):
        model = _hand_model(_CORNERS, costs)
        for label in ("t", "both"):
            for bound in range(9):
                for direction in ("min", "max"):
                    assert _assert_same_cbr(
                        monkeypatch, model, label, bound, direction
                    )[0] == "value"


def test_errors_equal_the_former(monkeypatch):
    dead = _ch(("0", 1), ("0", 0))
    # a choice with no positive branch raises the checker's error on the base
    # model, naming the base state (the former code named the product state
    # "(s=1,_budget=0)")
    faulty = _hand_model([[_ch((1, 1))], [_ch((1, 2)), dead], [_ch((1, 2))]], [1, 1, 0])
    with pytest.raises(ModelError, match=r"^choice with no positive branch at state \(s=1\)$"):
        cost_bounded_reach(faulty, "t", 3)
    # ... also where the state is a target, as reach_prob on the same model
    # does (the former code returned a value: the target's row is a loop)
    on_target = _hand_model([[_ch((1, 1))], [_ch((1, 2))], [dead]], [1, 1, 0])
    for fn in (lambda m: cost_bounded_reach(m, "t", 3), lambda m: reach_prob(m, "t")):
        with pytest.raises(ModelError, match=r"^choice with no positive branch at state \(s=2\)$"):
            fn(on_target)
    # a negative cost (which build_model never makes) is rejected as by
    # expected_cost, also at bound 0, where no budget leaves a goal
    for costs in ([-1, 1, 0], [-3, 0, 0], [1, -1, 0]):
        chain = _hand_model([[_ch((1, 1))], [_ch(("1/2", 2), ("1/2", 0))], [_ch((1, 2))]], costs)
        state = costs.index(min(costs))
        for bound in range(4):
            with pytest.raises(ModelError, match=f"^negative cost at state {state}$"):
                cost_bounded_reach(chain, "t", bound)
    # states without choices (which build_model never makes), the last a
    # target: its loop copies nothing from the base arrays
    bare = _hand_model([[_ch(("1/2", 1), ("1/2", 2))], [], []], [1, 0, 0])
    for label in ("t", "both"):
        for bound in range(4):
            _assert_same_cbr(monkeypatch, bare, label, bound)
    unit = _hand_model([[_ch((1, 1))], [_ch((1, 1))]], [1, 0], kind="mc")
    cases = [
        (_hand_model([[_ch((1, 1))], [_ch((1, 1))]], ["1/2", 0]), "t", 3, "max"),
        (_hand_model([[_ch((1, 1))], [_ch((1, 1))]], [Name("c"), 0]), "t", 3, "max"),
        (unit, "t", -1, "max"),
        (unit, "t", 3, "sideways"),
        (unit, "t", 0, "sideways"),
        (unit, {5}, 3, "max"),
        (unit, "missing", 3, "max"),
        (unit, set(), 3, "max"),
    ]
    outcomes = [_assert_same_cbr(monkeypatch, *case) for case in cases]
    assert [o[0] for o in outcomes] == ["error"] * 4 + ["value"] + ["error"] * 2 + ["value"]
    assert outcomes[4] == outcomes[7] == ("value", 0.0)


def test_a_parametric_model_raises_as_before_and_caches_nothing(monkeypatch, die, two_stage):
    die_model, two_stage_model = build_model(die), build_model(two_stage)
    # the die's costs are concrete: at bound 0 no budget leaves a goal, and
    # the value is 0.0 as before; at bound 3 the checker's error is raised,
    # as in reach_prob (the former code raised a TypeError from float() on a
    # parametric probability)
    assert _assert_same_cbr(monkeypatch, die_model, "rolled", 0) == ("value", 0.0)
    for _ in range(2):
        with pytest.raises(ModelError, match="^model checking needs a concrete model; instantiate first$"):
            cost_bounded_reach(die_model, "rolled", 3)
    # two_stage's costs are parametric: the cost check raises first, as before
    for bound in (0, 3):
        got = _assert_same_cbr(monkeypatch, two_stage_model, "s2", bound)
        assert got == ("error", ModelError, "cost-bounded reachability needs concrete costs")
    for model, label in ((die_model, "rolled"), (two_stage_model, "s2")):
        assert model.kind == "mimdp"
        for _ in range(2):
            with pytest.raises(ModelError, match="concrete model"):
                reach_prob(model, label)
        assert model._arrays is None


def test_arrays_are_built_once_per_model(monkeypatch, models_dir):
    built = []

    class Counted(checking._Arrays):
        def __init__(self, *args, **kwargs):
            built.append(args[0])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(checking, "_Arrays", Counted)
    chain, mdp = _retry_models(models_dir, 10)
    for model in (chain, mdp):
        reach_prob(model, "delivered", "min")
        reach_prob(model, "gaveup", "max")
        expected_cost(model, "stopped")
        cost_bounded_reach(model, "delivered", 5)
        check_spec(model, parse_property('Pmax=? [F{C<4} "delivered"]'))
    assert built == [chain, mdp]


def test_a_cached_model_checks_as_a_fresh_one(models_dir):
    rng = random.Random(23)
    chain, mdp = _retry_models(models_dir, 12)
    models = [(chain, "delivered", "stopped"), (mdp, "delivered", "stopped")]
    models += [(random_mc(rng, 15), "ok", "goal") for _ in range(5)]
    for model, target, goal in models:
        fresh = replace(model)
        assert fresh._arrays is None
        for run in range(2):
            for direction in ("min", "max"):
                for fn, label in ((reach_prob, target), (expected_cost, goal)):
                    vec, strategy = fn(model, label, direction)
                    again, again_strategy = fn(replace(fresh), label, direction)
                    assert np.array_equal(vec.values, again.values)
                    assert (vec.iterations, vec.residual, vec.polished) == (
                        again.iterations, again.residual, again.polished)
                    assert strategy.choice_probs == again_strategy.choice_probs
            if model.costs and all(c.denominator == 1 for c in model.costs):
                assert cost_bounded_reach(model, target, 6) == cost_bounded_reach(
                    replace(fresh), target, 6)
        assert model._arrays is not None

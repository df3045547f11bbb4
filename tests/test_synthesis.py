import random
from fractions import Fraction as F

import pytest

import oracles
from mimdp import shipyard, synthesis
from mimdp.checking import expected_cost, reach_prob
from mimdp.models import (
    ModelError,
    Strategy,
    WellDefinednessError,
    build_model,
    induced_mc,
    instantiate,
    well_defined_valuations,
)
from mimdp.parser import parse_program
from mimdp.synthesis import (
    InfeasibleError,
    SynthesisError,
    SynthesisQuery,
    check_nilp_assignment,
    constrained_mdp_lp,
    emit_nilp,
    nilp_witness,
    recover_valuation,
    synthesize,
    synthesize_enumerate,
    synthesize_transformed,
)
from mimdp.transform import transform_all

from generators import random_mimdp_program

U_BEST_TIGHT = {"p": F("0.4"), "q": F("0.7"), "r": F("0.6"), "s": F("0.3")}
U_BEST_LOOSE = {"p": F("0.4"), "q": F("0.3"), "r": F("0.6"), "s": F("0.7")}


def _query(lam, method="both"):
    return SynthesisQuery("s2", F(lam), "absorb", method)


# --- enumeration route -------------------------------------------------------

def test_enumeration_tight_bound(two_stage):
    res = synthesize_enumerate(two_stage, _query("0.2"))
    assert res.feasible
    assert res.valuation == U_BEST_TIGHT
    assert abs(res.expected_cost - 1.42) < 1e-6
    assert abs(res.reach_probability - 0.12) < 1e-6


def test_enumeration_loose_bound(two_stage):
    res = synthesize_enumerate(two_stage, _query("1"))
    assert res.valuation == U_BEST_LOOSE
    assert abs(res.expected_cost - 1.02) < 1e-6


def test_enumeration_infeasible(two_stage):
    res = synthesize_enumerate(two_stage, _query("0.1"))
    assert not res.feasible
    assert res.valuation is None
    assert len(res.table) == 4


def test_enumeration_table_values(two_stage):
    res = synthesize_enumerate(two_stage, _query("1"))
    table = {
        tuple(str(v) for v in e.valuation.values()): (
            round(e.reach_probability, 9),
            round(e.expected_cost, 9),
        )
        for e in res.table
    }
    assert table == {
        ("2/5", "3/10", "3/5", "7/10"): (0.28, 1.02),
        ("2/5", "7/10", "3/5", "3/10"): (0.12, 1.42),
        ("3/5", "3/10", "2/5", "7/10"): (0.42, 1.62),
        ("3/5", "7/10", "2/5", "3/10"): (0.18, 2.02),
    }


# --- the constrained LP -------------------------------------------------------

def _gadget():
    src = """
    module m
      loc : [0..3] init 0;
      [a] loc=0 -> (loc'=1);
      [b] loc=0 -> (loc'=2);
      [] loc=1 -> true;
      [] loc=2 -> (loc'=3);
      [] loc=3 -> true;
    endmodule
    rewards
      loc=2 : 10;
    endrewards
    label "t" = loc=1;
    label "g" = loc=1 | loc=3;
    """
    return build_model(parse_program(src))


def test_lp_hand_example_randomizes_half_half():
    model = _gadget()
    res = constrained_mdp_lp(model, "t", F("0.5"), "g")
    assert abs(res.reach_probability - 0.5) < 1e-9
    assert abs(res.expected_cost - 5.0) < 1e-9
    weights = {k: float(v) for k, v in res.strategy.choice_probs[0].items()}
    assert weights == {0: 0.5, 1: 0.5}


def test_lp_inactive_constraint_matches_unconstrained_optimum():
    model = _gadget()
    res = constrained_mdp_lp(model, "t", F(1), "g")
    vec, _ = expected_cost(model, "g", "min")
    assert abs(res.expected_cost - vec.at_initial(model)) < 1e-9
    assert abs(res.expected_cost - 0.0) < 1e-9


def test_lp_zero_bound_with_unavoidable_target_is_infeasible():
    src = """
    module m
      loc : [0..1] init 0;
      [a] loc=0 -> 0.5:(loc'=1) + 0.5:(loc'=0);
      [b] loc=0 -> 0.9:(loc'=1) + 0.1:(loc'=0);
      [] loc=1 -> true;
    endmodule
    label "t" = loc=1;
    label "g" = loc=1;
    """
    model = build_model(parse_program(src))
    with pytest.raises(InfeasibleError):
        constrained_mdp_lp(model, "t", F(0), "g")


def test_lp_recovery_reproduces_objective_and_constraint(two_stage):
    model = instantiate(build_model(two_stage), U_BEST_LOOSE)
    res = constrained_mdp_lp(model, "s2", F(1), "absorb")
    absorbed = oracles.seed_absorb(model, model.labels["s2"] | model.labels["absorb"])
    chain = induced_mc(absorbed, res.strategy)
    vec, _ = reach_prob(chain, "s2")
    cvec, _ = expected_cost(chain, "absorb")
    assert abs(vec.at_initial(chain) - res.reach_probability) < 1e-7
    assert abs(cvec.at_initial(chain) - res.expected_cost) < 1e-7


def test_lp_recovery_on_gadget_mixture():
    model = _gadget()
    res = constrained_mdp_lp(model, "t", F("0.25"), "g")
    absorbed = oracles.seed_absorb(model, model.labels["t"] | model.labels["g"])
    chain = induced_mc(absorbed, res.strategy)
    vec, _ = reach_prob(chain, "t")
    cvec, _ = expected_cost(chain, "g")
    assert abs(vec.at_initial(chain) - res.reach_probability) < 1e-7
    assert abs(cvec.at_initial(chain) - res.expected_cost) < 1e-7


# --- transformed route ---------------------------------------------------------

def test_transformed_route_matches_enumeration(two_stage):
    for lam, ec in (("0.2", 1.42), ("1", 1.02)):
        a = synthesize_enumerate(two_stage, _query(lam))
        b = synthesize_transformed(two_stage, _query(lam))
        assert b.feasible
        assert abs(b.expected_cost - ec) < 1e-6
        assert abs(a.expected_cost - b.expected_cost) < 1e-6
        assert abs(a.reach_probability - b.reach_probability) < 1e-6
        assert a.valuation == b.valuation
        assert not b.flags


def test_transformed_route_infeasible(two_stage):
    res = synthesize_transformed(two_stage, _query("0.1"))
    assert not res.feasible


def test_transformed_route_on_parameter_free_program():
    src = """
    module m
      loc : [0..1] init 0;
      [] loc=0 -> 0.5:(loc'=1) + 0.5:(loc'=0);
      [] loc=1 -> true;
    endmodule
    label "t" = loc=1;
    label "g" = loc=1;
    """
    prog = parse_program(src)
    a = synthesize_enumerate(prog, SynthesisQuery("t", F(1), "g"))
    b = synthesize_transformed(prog, SynthesisQuery("t", F(1), "g"))
    assert a.feasible and b.feasible
    assert abs(a.expected_cost - b.expected_cost) < 1e-9
    assert a.valuation == b.valuation == {}


def test_recover_valuation_membership(two_stage):
    transformed, report = transform_all(two_stage)
    model = build_model(transformed, on_deadlock="absorb")
    res = constrained_mdp_lp(model, "s2", F(1), "absorb")
    # unconstrained: the optimum is deterministic, so the support is pure
    valuation, flags = recover_valuation(model, report, res.strategy)
    wd = [
        {"p": F("0.4"), "q": F("0.3"), "r": F("0.6"), "s": F("0.7")},
        {"p": F("0.4"), "q": F("0.7"), "r": F("0.6"), "s": F("0.3")},
        {"p": F("0.6"), "q": F("0.3"), "r": F("0.4"), "s": F("0.7")},
        {"p": F("0.6"), "q": F("0.7"), "r": F("0.4"), "s": F("0.3")},
    ]
    assert valuation in wd
    assert not flags


def test_synthesize_both_raises_on_divergence_never_here(two_stage):
    results = synthesize(two_stage, _query("0.2", "both"))
    assert len(results) == 2


def test_both_routes_agree_on_a_zero_probability_configuration():
    # at p=0 the branch into the absorbing non-goal state has probability
    # zero: it is no edge, so the goal is reached almost surely and the
    # expected cost is defined (enumeration used to reject p=0)
    src = """
    param p in {0, 0.5};
    module m
      s : [0..2] init 0;
      [] s=0 -> p:(s'=1) + (1-p):(s'=2);
      [] s>0 -> true;
    endmodule
    rewards
      s=0 : p + 1;
    endrewards
    label "bad" = s=1;
    label "goal" = s=2;
    """
    program = parse_program(src)
    for lam in ("0", "0.25", "1"):
        results = synthesize(program, SynthesisQuery("bad", F(lam), "goal", "both"))
        for res in results:
            assert res.feasible and res.valuation == {"p": F(0)}
            assert res.expected_cost == 1.0 and res.reach_probability == 0.0


def test_both_routes_reject_a_sum_short_of_one_by_1e_10():
    # well-definedness is exact: a row summing to 0.9999999999 is no
    # distribution on either route (enumeration used to accept it)
    src = """
    param p in {0.3333333333, 0.3333333334};
    module m
      s : [0..2] init 0;
      [] s=0 -> p:(s'=1) + 0.6666666666:(s'=2);
      [] s>0 -> true;
    endmodule
    rewards
      s=0 : p;
    endrewards
    label "one" = s=1;
    label "stop" = s>0;
    """
    program = parse_program(src)
    results = synthesize(program, SynthesisQuery("one", F(1), "stop", "both"))
    for res in results:
        assert res.feasible and res.valuation == {"p": F("0.3333333334")}
    assert [e.valuation for e in results[0].table] == [{"p": F("0.3333333334")}]
    with pytest.raises(WellDefinednessError, match="sum to 0.9999999999"):
        build_model(program, {"p": "0.3333333333"})


# --- the differential property (mini version; the full 100 runs in acceptance)

def test_differential_on_random_mimdps():
    rng = random.Random(2024)
    for _ in range(15):
        program, query = random_mimdp_program(rng)
        a = synthesize_enumerate(program, query)
        b = synthesize_transformed(program, query)
        assert a.feasible == b.feasible
        if a.feasible:
            assert abs(a.expected_cost - b.expected_cost) < 1e-6
            assert abs(a.reach_probability - b.reach_probability) < 1e-6
            assert a.valuation == b.valuation


def test_bounds_property_on_random_corpus():
    # min/max over the uncontrolled transformed MDP bracket the optimum
    from mimdp.transform import transform_probabilities, transform_rewards

    rng = random.Random(77)
    checked = 0
    for _ in range(12):
        program, query = random_mimdp_program(rng)
        res = synthesize_enumerate(
            program, SynthesisQuery(query.target, F(1), query.goal)
        )
        if not res.feasible:
            continue
        p1, _ = transform_rewards(program)
        p2, _ = transform_probabilities(p1)
        model = build_model(p2)
        lo, _ = expected_cost(model, query.goal, "min")
        hi, _ = expected_cost(model, query.goal, "max")
        assert lo.at_initial(model) - 1e-6 <= res.expected_cost <= hi.at_initial(model) + 1e-6
        checked += 1
    assert checked >= 5


# --- the nonlinear integer encoding ---------------------------------------------

import re

# a plain sum of characteristic variables pinned to one (no coefficients)
_ONEHOT = re.compile(r"^\s*\w+:\s*x\[u\d+\]( \+ x\[u\d+\])* = 1\s*$")


def test_emitted_encoding_structure(two_stage):
    text = emit_nilp(two_stage, _query("0.2"))
    assert text.count("MINIMIZE") == 1
    assert "SUBJECT TO" in text and "BOUNDS" in text and "BINARY" in text
    onehot_rows = [line for line in text.splitlines() if _ONEHOT.match(line)]
    assert len(onehot_rows) == 1
    assert _vars_of(onehot_rows[0]) == ["x[u0]", "x[u1]", "x[u2]", "x[u3]"]
    binaries = [l.strip() for l in text.split("BINARY")[1].splitlines() if l.strip().startswith("x[")]
    assert binaries == ["x[u0]", "x[u1]", "x[u2]", "x[u3]"]


def _vars_of(line):
    return re.findall(r"[a-z]+\[[^\]]*\]", line.split(":", 1)[1]) if ":" in line else []


def test_oracle_optimum_satisfies_every_constraint(two_stage):
    query = _query("0.2")
    text = emit_nilp(two_stage, query)
    res = synthesize_enumerate(two_stage, query)
    assignment = nilp_witness(two_stage, query, res.valuation)
    assert check_nilp_assignment(text, assignment, tol=1e-9) == []


def test_loose_bound_witness_also_satisfies(two_stage):
    query = _query("1")
    text = emit_nilp(two_stage, query)
    res = synthesize_enumerate(two_stage, query)
    assignment = nilp_witness(two_stage, query, res.valuation)
    assert check_nilp_assignment(text, assignment, tol=1e-9) == []


def test_wrong_assignment_is_flagged(two_stage):
    query = _query("0.2")
    text = emit_nilp(two_stage, query)
    res = synthesize_enumerate(two_stage, query)
    assignment = nilp_witness(two_stage, query, res.valuation)
    assignment["p[s0]"] = 0.99  # violates the bound row and the p-recursion
    assert check_nilp_assignment(text, assignment, tol=1e-9)


def test_parameter_free_encoding_degenerates(two_stage):
    src = """
    module m
      loc : [0..1] init 0;
      [] loc=0 -> 0.5:(loc'=1) + 0.5:(loc'=0);
      [] loc=1 -> true;
    endmodule
    label "t" = loc=1;
    label "g" = loc=1;
    """
    prog = parse_program(src)
    text = emit_nilp(prog, SynthesisQuery("t", F(1), "g"))
    assert "onehot: x[u0] = 1" in text
    assert "x[u1]" not in text


def test_emitted_encoding_equals_the_former_emitter(two_stage, die):
    cfg = shipyard.ShipyardConfig(missions=1)
    uniform = parse_program(shipyard.generate_program(cfg, True))
    cases = [
        (two_stage, _query("0.2")),
        (die, SynthesisQuery("one", F("0.15"), "rolled")),
        (uniform, SynthesisQuery("failure", F("0.2"), "done")),
    ]
    # families with several choices per state, where a choice's entries
    # do not start at its state's first branch
    rng = random.Random(12)
    while len(cases) < 9:
        program, query = random_mimdp_program(rng, max_states=8)
        model = build_model(program)
        if any(len(row) > 1 for row in model.choices) and well_defined_valuations(model):
            cases.append((program, query))
    for program, query in cases:
        assert emit_nilp(program, query) == oracles.seed_emit_nilp(program, query)


def test_size_header_reports_dominant_terms(two_stage):
    text = emit_nilp(two_stage, _query("0.2"))
    header = [l for l in text.splitlines() if l.startswith("#")]
    size_line = next(l for l in header if "problem size" in l)
    stated = int(size_line.rsplit("=", 1)[1].strip())
    model = build_model(two_stage)
    num_sa = sum(len(r) for r in model.choices)
    rows = sum(
        1 for l in text.splitlines() if ":" in l and not l.startswith("#")
        and l.strip().split(":")[0] not in ("MINIMIZE",)
        and not l.strip().startswith(("0 <=", "c[", "x[", "p[", "sig["))
    )
    # rows grow like |S|*|A| plus the valuation blocks; the header's size
    # expression must dominate them up to a small constant factor
    assert rows <= 4 * stated + 10
    assert stated >= model.num_states * num_sa


# --- scaling invariance -----------------------------------------------------------

def test_cost_scaling_leaves_valuation_and_scales_ec(two_stage):
    from mimdp.expressions import Binary, Num
    from mimdp.program import Program, RewardDecl

    scaled = Program(
        constants=dict(two_stage.constants),
        parameters=dict(two_stage.parameters),
        modules=two_stage.modules,
        rewards=tuple(
            RewardDecl(r.guard, Binary("*", Num(F(7)), r.cost)) for r in two_stage.rewards
        ),
        labels=dict(two_stage.labels),
    )
    for method in (synthesize_enumerate, synthesize_transformed):
        base = method(two_stage, _query("0.2"))
        seven = method(scaled, _query("0.2"))
        assert seven.valuation == base.valuation
        assert abs(seven.expected_cost - 7 * base.expected_cost) < 1e-9


def test_recover_valuation_flags_uncommitted_parameters():
    # the parametric branch is avoidable; a strategy that never takes it
    # commits nothing, and the parameter falls back to its first value
    src = """
    param p in {0.4, 0.6};
    module m
      loc : [0..2] init 0;
      [safe] loc=0 -> (loc'=2);
      [gamble] loc=0 -> p:(loc'=1) + 1-p:(loc'=2);
      [] loc>0 -> true;
    endmodule
    label "t" = loc=1;
    label "g" = loc>0;
    """
    prog = parse_program(src)
    transformed, report = transform_all(prog)
    model = build_model(transformed, on_deadlock="absorb")
    safe_only = []
    for row in model.choices:
        picks = [ci for ci, ch in enumerate(row) if ch.action == "safe"]
        safe_only.append(picks[0] if picks else 0)
    valuation, flags = recover_valuation(model, report, Strategy.deterministic(safe_only))
    assert valuation == {"p": F("0.4")}
    assert any("never committed" in f for f in flags)


def test_recover_valuation_reads_the_first_commitment():
    src = """
    param p in {0.4, 0.6};
    module m
      loc : [0..1] init 0;
      [] loc=0 -> p:(loc'=1) + 1-p:(loc'=0);
      [] loc=1 -> true;
    endmodule
    label "t" = loc=1;
    label "g" = loc=1;
    """
    prog = parse_program(src)
    transformed, report = transform_all(prog)
    model = build_model(transformed, on_deadlock="absorb")
    # pick the row action committing p = 0.6 at the initial state
    rows = model.choices[model.initial]
    pick = next(
        ci for ci, ch in enumerate(rows)
        if dict(report.fresh_actions.get(ch.action, ())).get("p") == F("0.6")
    )
    picks = [0] * model.num_states
    picks[model.initial] = pick
    valuation, flags = recover_valuation(model, report, Strategy.deterministic(picks))
    assert valuation == {"p": F("0.6")}
    assert flags == ()


def test_recover_valuation_refuses_conflicting_commitments():
    # both rows of p at the initial state, half and half: a mixture of two
    # configurations, which no valuation realizes
    src = """
    param p in {0.4, 0.6};
    module m
      loc : [0..1] init 0;
      [] loc=0 -> p:(loc'=1) + 1-p:(loc'=0);
      [] loc=1 -> true;
    endmodule
    label "t" = loc=1;
    label "g" = loc=1;
    """
    prog = parse_program(src)
    transformed, report = transform_all(prog)
    model = build_model(transformed, on_deadlock="absorb")
    rows = model.choices[model.initial]
    both = [ci for ci, ch in enumerate(rows) if ch.action in report.fresh_actions]
    assert len(both) == 2
    probs = [{0: 1}] * model.num_states
    probs[model.initial] = {ci: F(1, 2) for ci in both}
    with pytest.raises(SynthesisError, match=r"^conflicting commitments for parameter 'p': 0\.4, 0\.6$"):
        recover_valuation(model, report, Strategy(probs))
    # a choice index past the state's own choices names no choice
    probs[model.initial] = {len(rows): 1}
    with pytest.raises(ModelError, match="strategy does not fit"):
        recover_valuation(model, report, Strategy(probs))


# under p = 0 the branch into s=1 has probability zero: s=1, where q is
# committed, is not reachable, so no strategy commits q
ZERO_PROBABILITY_ROW = """
param p in {0, 0.5};
param q in {0.25, 0.75};
module m
  s : [0..3] init 0;
  [] s=0 -> p:(s'=1) + (1-p):(s'=2);
  [] s=1 -> q:(s'=3) + (1-q):(s'=2);
  [] s>=2 -> true;
endmodule
rewards
  s=0 : 1;
endrewards
label "t" = s=3;
label "g" = s>=2;
"""


@pytest.mark.parametrize("lam", ["0", "0.1", "1"])
def test_zero_probability_rows_commit_nothing(monkeypatch, lam):
    lps = []
    inner = synthesis.solve_lp

    def counted(*args, **kwargs):
        lps.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(synthesis, "solve_lp", counted)
    query = SynthesisQuery("t", F(lam), "g", "transformed")
    transformed = synthesize_transformed(parse_program(ZERO_PROBABILITY_ROW), query)
    # the root LP, then the last parameter's certification: the root's
    # support commits p alone and proves its value; the walk does not
    # follow the zero-probability branch, so q conflicts nowhere
    assert len(lps) == 2
    assert transformed.flags == ("parameter 'q' never committed on the support",)
    enumerated, both = synthesize(parse_program(ZERO_PROBABILITY_ROW),
                                  SynthesisQuery("t", F(lam), "g", "both"))
    assert both.to_json_dict() == transformed.to_json_dict()
    assert enumerated.valuation == transformed.valuation == {"p": F(0), "q": F(1, 4)}
    assert (enumerated.expected_cost, enumerated.reach_probability) == (1.0, 0.0)
    assert (transformed.expected_cost, transformed.reach_probability) == (1.0, 0.0)


def test_the_root_strategy_of_a_zero_probability_row_recovers_a_valuation():
    controlled, report = transform_all(parse_program(ZERO_PROBABILITY_ROW))
    model = build_model(controlled, on_deadlock="absorb")
    res = constrained_mdp_lp(model, "t", F(1), "g")
    valuation, flags = recover_valuation(model, report, res.strategy)
    assert valuation == {"p": F(0), "q": F(1, 4)}
    assert flags == ("parameter 'q' never committed on the support",)


def test_synthesis_on_the_retry_channel(models_dir):
    from mimdp.parser import parse_file

    program = parse_file(models_dir / "retry_channel.mgcl")
    query = SynthesisQuery("gaveup", F("0.000001"), "stopped", "both")
    a = synthesize_enumerate(program, query)
    b = synthesize_transformed(program, query)
    assert a.feasible == b.feasible is True
    assert a.valuation == b.valuation == {"loss": F("0.1")}
    assert abs(a.expected_cost - b.expected_cost) < 1e-6
    # expected attempts under the chosen rate: sum of loss^k over the budget
    want = sum(0.1 ** k for k in range(0, 41))
    assert abs(a.expected_cost - want) < 1e-6


def test_a_parsed_program_is_checked_once(monkeypatch, models_dir):
    from mimdp import program as program_module

    checked = []
    inner = program_module.check_program

    def counting(prog):
        checked.append(prog)
        return inner(prog)

    monkeypatch.setattr(program_module, "check_program", counting)
    program = parse_program((models_dir / "two_stage.mgcl").read_text(encoding="utf-8"))
    assert checked == [program]
    synthesize(program, SynthesisQuery("s2", F("0.2"), "absorb", "both"))
    # both routes build the parsed program without checking it again, and
    # the transformed program of a checked program is marked as checked
    assert checked == [program]

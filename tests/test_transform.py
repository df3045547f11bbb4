import random
from fractions import Fraction as F

import pytest

import oracles
from mimdp import shipyard
from mimdp.expressions import DivisionByZero, ExprError
from mimdp.models import build_model
from mimdp.parser import parse_program
from mimdp.program import pretty
from mimdp.transform import (
    TransformError,
    add_control,
    transform_all,
    transform_probabilities,
    transform_rewards,
)

from generators import random_mimdp_program


# --- rewards (selection of parametric cost rows) ----------------------------

def test_reward_rows_for_the_coupled_chain(two_stage):
    out, report = transform_rewards(two_stage)
    # cost p+q has 4 joint rows, cost 2*p has 2
    assert sorted(report.fresh_variables.values()) == [(0, 2), (0, 4)]
    concrete = [r.cost.value for r in out.rewards]
    assert sorted(concrete) == sorted(
        [F("0.7"), F("1.1"), F("0.9"), F("1.3"), F("0.8"), F("1.2")]
    )
    # four selector commands for the first stage, two for the second
    selectors = [a for a in report.fresh_actions if a.startswith("_set")]
    assert len(selectors) == 6


def test_reward_row_values_follow_declaration_order(two_stage):
    out, report = transform_rewards(two_stage)
    first_four = [r.cost.value for r in out.rewards[:4]]
    assert first_four == [F("0.7"), F("1.1"), F("0.9"), F("1.3")]


def test_concrete_rewards_pass_through():
    src = """
    module m
      x : [0..1] init 0;
      [] x=0 -> (x'=1);
      [] x=1 -> true;
    endmodule
    rewards
      x=0 : 2;
    endrewards
    """
    prog = parse_program(src)
    out, report = transform_rewards(prog)
    assert out.rewards == prog.rewards
    assert report.fresh_actions == {}
    assert report.fresh_variables == {}


def test_transformed_chain_gains_states(two_stage):
    base = build_model(two_stage)
    out, _ = transform_rewards(two_stage)
    grown = build_model(out)
    assert grown.num_states > base.num_states


def test_overlapping_parametric_reward_guards_are_rejected():
    src = """
    param p in {0.4, 0.6};
    module m
      x : [0..1] init 0;
      [] x=0 -> p:(x'=1) + 1-p:(x'=0);
      [] x=1 -> true;
    endmodule
    rewards
      x=0 : p;
      x<1 : 2*p;
    endrewards
    """
    with pytest.raises(TransformError, match="overlap"):
        transform_rewards(parse_program(src))


def test_unanchored_parametric_reward_is_rejected():
    src = """
    param p in {0.4, 0.6};
    module m
      x : [0..1] init 0;
      [] x<=1 -> p:(x'=1) + 1-p:(x'=0);
    endmodule
    rewards
      x=1 : 2*p;
    endrewards
    """
    with pytest.raises(TransformError, match="anchors"):
        transform_rewards(parse_program(src))


# --- probabilities (row expansion) ------------------------------------------

def test_die_row_expansion_counts(die):
    out, report = transform_probabilities(die)
    model = build_model(out)
    assert (model.num_states, model.num_transitions) == (13, 48)
    assert model.kind == "mdp"
    # 7 parametric commands x 3 rows, each committing p to one value
    assert len(report.fresh_actions) == 21
    assert all(len(commits) == 1 for commits in report.fresh_actions.values())


def test_parameter_free_command_is_unchanged(die):
    out, report = transform_probabilities(die)
    module = out.single_module()
    passthrough = [c for c in module.commands if c.action is None]
    assert len(passthrough) == 1  # the final self-loop


def test_locally_ill_defined_rows_are_dropped(two_stage):
    _, report = transform_probabilities(two_stage)
    first_stage = [
        dict(commits)
        for commits in report.fresh_actions.values()
        if any(cp == "p" for cp, _ in commits)
    ]
    assert {(d["p"], d["r"]) for d in first_stage} == {
        (F("0.4"), F("0.6")),
        (F("0.6"), F("0.4")),
    }


def test_command_with_no_well_defined_row_is_an_error():
    src = """
    param p in {0.4, 0.6};
    module m
      x : [0..1] init 0;
      [] x=0 -> p:(x'=1) + 0.1:(x'=0);
      [] x=1 -> true;
    endmodule
    """
    with pytest.raises(TransformError, match="no well-defined"):
        transform_probabilities(parse_program(src))


def _rows(expand, program):
    """The row expansion, or the type and text of what it raises."""
    try:
        out, report = expand(program)
    except (TransformError, ExprError) as e:
        return type(e), str(e)
    return pretty(out), report


def test_memoised_rows_equal_the_former_expansion(two_stage, die):
    rng = random.Random(17)
    programs = [random_mimdp_program(rng)[0] for _ in range(40)] + [two_stage, die]
    config = shipyard.ShipyardConfig(missions=1)
    text = shipyard.generate_program(config, True, per_sensor_grades=True)
    line = next(l for l in text.splitlines() if l.startswith("param fp in {"))
    programs.append(parse_program(text.replace(line, "param fp in {0.2, 0.9};")))
    programs.append(parse_program(shipyard.generate_program(config, True)))
    programs.append(parse_program("""
    param p in {0, 0.5};
    module m
      s : [0..1] init 0;
      [] s=0 -> p/(2*p):(s'=1) + 1/2:(s'=0);
      [] s=1 -> true;
    endmodule
    """))
    outcomes = [_rows(transform_probabilities, program) for program in programs]
    assert outcomes == [_rows(oracles.seed_transform_probabilities, p) for p in programs]
    assert outcomes[-1][0] is DivisionByZero


def test_row_expansion_preserves_the_reachable_state_set(die):
    base = build_model(die)
    out, _ = transform_probabilities(die)
    expanded = build_model(out)
    assert set(base.states) == set(expanded.states)


# --- control module -----------------------------------------------------------

def test_control_blocks_conflicting_commitments():
    src = """
    param p in {0.4, 0.6};
    module m
      x : [0..2] init 0;
      [] x=0 -> p:(x'=1) + 1-p:(x'=0);
      [] x=1 -> p:(x'=2) + 1-p:(x'=1);
      [] x=2 -> true;
    endmodule
    """
    prog = parse_program(src)
    out, report = transform_all(prog)
    model = build_model(out, on_deadlock="absorb")
    # walk every path: after a value of p is committed, only consistent rows
    commit_of = {
        a: dict(c)["p"] for a, c in report.fresh_actions.items()
    }
    rng = random.Random(3)
    for _ in range(200):
        state = model.initial
        committed = None
        for _step in range(40):
            row = model.choices[state]
            ch = rng.choice(row)
            if ch.action in commit_of:
                v = commit_of[ch.action]
                assert committed is None or committed == v
                committed = v
            targets = [t for _, t in ch.branches]
            weights = [float(p) for p, _ in ch.branches]
            state = rng.choices(targets, weights)[0]


def test_single_valued_parameter_control_never_blocks():
    src = """
    param p in {0.5};
    module m
      x : [0..1] init 0;
      [] x=0 -> p:(x'=1) + 1-p:(x'=0);
      [] x=1 -> true;
    endmodule
    """
    out, report = transform_all(parse_program(src))
    model = build_model(out, on_deadlock="absorb")
    assert not model.deadlocks
    assert len(model.labels) == 0
    # one committing action, no conflicting value to block
    assert len(report.fresh_actions) == 1


def test_parameter_free_program_needs_no_control():
    src = """
    module m
      x : [0..1] init 0;
      [] x=0 -> (x'=1);
      [] x=1 -> true;
    endmodule
    """
    prog = parse_program(src)
    out, report = transform_all(prog)
    assert len(out.modules) == 1
    assert report.fresh_actions == {}


def test_control_module_report_mismatch_is_detected(two_stage):
    from mimdp.transform import TransformReport

    composed, _ = transform_probabilities(two_stage)
    bogus = TransformReport(fresh_actions={"_ghost": (("p", F("0.4")),)})
    with pytest.raises(TransformError, match="does not occur"):
        add_control(composed, bogus)


def test_controlled_die_counts(die):
    out, _ = transform_all(die)
    model = build_model(out, on_deadlock="absorb")
    transformed, _ = transform_probabilities(die)
    tmodel = build_model(transformed)
    assert model.num_states > tmodel.num_states
    # with the pair-boolean encoding the controlled die lands on 37/60
    assert (model.num_states, model.num_transitions) == (37, 60)


def test_transformations_are_deterministic(two_stage, die):
    for prog in (two_stage, die):
        a, _ = transform_all(prog)
        b, _ = transform_all(prog)
        assert pretty(a) == pretty(b)


def test_pipeline_output_reparses_cleanly(two_stage, die):
    for prog in (two_stage, die):
        out, _ = transform_all(prog)
        reparsed = parse_program(pretty(out))
        assert pretty(reparsed) == pretty(out)


def test_transform_all_on_random_corpus_builds():
    rng = random.Random(5)
    for _ in range(10):
        program, _ = random_mimdp_program(rng)
        out, report = transform_all(program)
        model = build_model(out, on_deadlock="absorb")
        assert model.num_states >= 1


GUARD_POOL = """
const two = 2;
module m
  loc : [0..3] init 0;
  x : [-1..2] init 0;
  [] loc = 3 -> true;
  [] 0 = loc & x = -1 -> true;
  [] loc = 4 -> true;
  [] x = -2 -> true;
  [] loc = 1/2 -> true;
  [] loc = 1 & x < 2 & loc = 2 -> true;
  [] loc = two & x = 2 -> true;
  [] x > 0 & loc = 0 -> true;
  [] !(loc = 1) -> true;
  [] true -> true;
endmodule
rewards
  loc = 3 : 1;
  loc < 2 : 1;
  x = 2 | loc = 0 : 1;
  loc = 1 & x / loc > 0 : 1;
  x / loc > 0 : 1;
endrewards
"""


def test_implication_checks_equal_the_former_checks_on_every_pair_of_guards():
    # literals at, outside and between the domain bounds, contradicting
    # equalities, and reward guards that divide by zero at loc = 0; each
    # pair twice, so the second answer comes from the kept analysis
    from mimdp import transform

    program = parse_program(GUARD_POOL)
    guards = [c.guard for c in program.single_module().commands]
    guards += [r.guard for r in program.rewards]

    def outcome(fn, g, h, *known):
        try:
            return fn(g, h, program, *known)
        except ExprError as e:
            return type(e), str(e)

    known: dict = {}
    kinds = set()
    for _ in range(2):
        for g in guards:
            for h in guards:
                for new, former in ((transform._guard_implies, oracles.seed_guard_implies),
                                    (transform._guards_overlap, oracles.seed_guards_overlap)):
                    got = outcome(new, g, h, known)
                    assert got == outcome(former, g, h)
                    kinds.add(got if isinstance(got, bool) else got[0])
    assert kinds == {True, False, DivisionByZero}

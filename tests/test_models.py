import random
from fractions import Fraction as F

import pytest

import oracles
from mimdp import shipyard
from mimdp.models import (
    BlockedActionWarning,
    DeadlockError,
    ModelError,
    StateCapExceeded,
    Strategy,
    WellDefinednessError,
    all_valuations,
    build_model,
    compose,
    induced_mc,
    instantiate,
    to_dot,
    well_defined_valuations,
)
from mimdp.parser import parse_program
from mimdp.program import ModuleDecl, Program

from generators import random_mimdp_program


def _models_equal(a, b):
    if (a.var_names, a.states, a.initial, a.costs) != (b.var_names, b.states, b.initial, b.costs):
        return False
    if a.labels != b.labels:
        return False
    if len(a.choices) != len(b.choices):
        return False
    for ra, rb in zip(a.choices, b.choices):
        if [(c.action, c.branches) for c in ra] != [(c.action, c.branches) for c in rb]:
            return False
    return True


# --- composition -----------------------------------------------------------

def test_compose_single_module_is_identity(two_stage):
    assert compose(two_stage) is two_stage


def test_compose_without_shared_actions_concatenates_commands():
    src = """
    module a
      x : [0..1] init 0;
      [] x=0 -> (x'=1);
      [] x=1 -> true;
    endmodule
    module b
      y : [0..1] init 0;
      [] y=0 -> (y'=1);
      [] y=1 -> true;
      [] y>=0 -> true;
    endmodule
    """
    prog = parse_program(src)
    composed = compose(prog)
    assert len(composed.modules) == 1
    assert len(composed.modules[0].commands) == 2 + 3


def test_compose_synchronization_multiplies_branches():
    src = """
    module a
      x : [0..2] init 0;
      [go] x=0 -> 0.5:(x'=1) + 0.5:(x'=2);
      [] x>0 -> true;
    endmodule
    module b
      y : [0..2] init 0;
      [go] y=0 -> 0.25:(y'=1) + 0.75:(y'=2);
      [] y>0 -> true;
    endmodule
    """
    prog = parse_program(src)
    composed = compose(prog).modules[0]
    sync = [c for c in composed.commands if c.action == "go"]
    assert len(sync) == 1
    assert len(sync[0].branches) == 4
    probs = sorted(p.value for p, _ in sync[0].branches)
    assert probs == [F("0.125"), F("0.125"), F("0.375"), F("0.375")]


def test_blocked_action_warns_and_drops():
    src = """
    module a
      x : [0..1] init 0;
      [go] x=0 -> (x'=1);
      [] x>=0 -> true;
    endmodule
    """
    prog = parse_program(src)
    blocked = ModuleDecl("b", (), frozenset({"go"}), ())
    prog2 = Program(
        constants={},
        parameters={},
        modules=(prog.modules[0], blocked),
        rewards=(),
        labels={},
    )
    with pytest.warns(BlockedActionWarning):
        composed = compose(prog2)
    assert all(c.action != "go" for c in composed.modules[0].commands)


def _canonical(model):
    """Order-independent structural fingerprint of an explicit model."""
    names = model.var_names
    index = {i: dict(zip(names, st)) for i, st in enumerate(model.states)}

    def key(i):
        return tuple(sorted(index[i].items()))

    rows = []
    for i in range(model.num_states):
        row = frozenset(
            (
                c.action,
                frozenset((F(p), key(t)) for p, t in c.branches),
            )
            for c in model.choices[i]
        )
        rows.append((key(i), row, F(model.costs[i])))
    return (key(model.initial), frozenset(rows))


def test_compose_is_associative_up_to_relabeling():
    src = """
    module a
      x : [0..1] init 0;
      [go] x=0 -> 0.5:(x'=1) + 0.5:(x'=0);
      [] x=1 -> true;
    endmodule
    module b
      y : [0..1] init 0;
      [go] y=0 -> (y'=1);
      [] y=1 -> true;
    endmodule
    module c
      z : [0..1] init 0;
      [] z=0 -> 0.25:(z'=1) + 0.75:(z'=0);
      [] z=1 -> true;
    endmodule
    """
    prog = parse_program(src)
    a, b, c = prog.modules

    def wrap(*mods):
        return Program({}, {}, tuple(mods), (), {})

    left = compose(wrap(compose(wrap(a, b)).modules[0], c))
    right = compose(wrap(a, compose(wrap(b, c)).modules[0]))
    ml = build_model(left)
    mr = build_model(right)
    assert _canonical(ml) == _canonical(mr)


# --- explicit-state construction --------------------------------------------

def test_two_stage_builds_to_four_states_six_transitions(two_stage):
    model = build_model(two_stage)
    assert model.kind == "mimdp"
    assert model.num_states == 4
    assert model.num_transitions == 6


def test_die_builds_to_thirteen_states_twenty_transitions(die):
    model = build_model(die)
    assert (model.num_states, model.num_transitions) == (13, 20)


def test_initial_state_violating_domain_is_an_error():
    src = """
    module m
      x : [0..3] init 0;
      [] x<3 -> (x'=x+5);
      [] x=3 -> true;
    endmodule
    """
    with pytest.raises(ModelError, match="leaves domain"):
        build_model(parse_program(src))


def test_deadlock_detection_and_absorb_mode():
    src = """
    module m
      x : [0..1] init 0;
      [] x=0 -> (x'=1);
    endmodule
    """
    prog = parse_program(src)
    with pytest.raises(DeadlockError):
        build_model(prog)
    model = build_model(prog, on_deadlock="absorb")
    assert model.deadlocks == frozenset({1})
    assert model.choices[1][0].branches == ((F(1), 1),)


def test_state_cap():
    src = """
    module m
      x : [0..1000] init 0;
      [] x<1000 -> (x'=x+1);
      [] x=1000 -> true;
    endmodule
    """
    with pytest.raises(StateCapExceeded):
        build_model(parse_program(src), state_cap=10)


def test_bfs_indexing_is_deterministic(die):
    a = build_model(die)
    b = build_model(die)
    assert a.states == b.states


# --- instantiation and the filter -------------------------------------------

U_OK = {"p": F("0.4"), "q": F("0.7"), "r": F("0.6"), "s": F("0.3")}


def test_instantiate_well_defined(two_stage):
    model = build_model(two_stage)
    inst = instantiate(model, U_OK)
    assert inst.kind == "mc"
    assert all(
        sum(p for p, _ in ch.branches) == 1 for row in inst.choices for ch in row
    )


def test_instantiate_ill_defined(two_stage):
    model = build_model(two_stage)
    with pytest.raises(WellDefinednessError, match="well-definedness"):
        instantiate(model, {"p": F("0.4"), "q": F("0.3"), "r": F("0.4"), "s": F("0.7")})


def test_instantiate_is_identity_without_parameters(die):
    model = build_model(die, {"p": F("0.5")})
    assert instantiate(model, {}) is model


def test_well_defined_valuations_two_stage(two_stage):
    model = build_model(two_stage)
    got = well_defined_valuations(model)
    expected = [
        {"p": F("0.4"), "q": F("0.3"), "r": F("0.6"), "s": F("0.7")},
        {"p": F("0.4"), "q": F("0.7"), "r": F("0.6"), "s": F("0.3")},
        {"p": F("0.6"), "q": F("0.3"), "r": F("0.4"), "s": F("0.7")},
        {"p": F("0.6"), "q": F("0.7"), "r": F("0.4"), "s": F("0.3")},
    ]
    assert got == expected


def test_lone_parametric_branch_has_no_well_defined_valuation():
    src = """
    param p in {0.4, 0.6};
    module m
      x : [0..1] init 0;
      [] x=0 -> p:(x'=1);
      [] x=1 -> true;
    endmodule
    """
    model = build_model(parse_program(src))
    assert well_defined_valuations(model) == []


def test_build_then_instantiate_commutes_with_instantiate_then_build(two_stage):
    model = build_model(two_stage)
    for u in well_defined_valuations(model):
        direct = build_model(two_stage, u)
        late = instantiate(model, u)
        assert _models_equal(direct, late)


def test_commutation_on_random_corpus():
    rng = random.Random(7)
    for _ in range(15):
        program, _ = random_mimdp_program(rng)
        model = build_model(program)
        for u in well_defined_valuations(model)[:4]:
            assert _models_equal(build_model(program, u), instantiate(model, u))


def test_instantiation_rejects_partial_valuations(two_stage):
    model = build_model(two_stage)
    with pytest.raises(ModelError, match="missing parameter"):
        instantiate(model, {"p": F("0.4")})


# --- differential: the memoised instantiation path against the former code ---

def _families(two_stage, die):
    rng = random.Random(11)
    programs = [random_mimdp_program(rng)[0] for _ in range(40)]
    programs += [two_stage, die]
    cfg = shipyard.ShipyardConfig(missions=1)
    programs.append(parse_program(shipyard.generate_program(cfg, True)))
    return programs


def _same_outcome(model, u):
    """``instantiate`` on ``model`` (its memo warm from earlier valuations)
    returns what the former code returns, or raises the same error."""
    try:
        want = oracles.seed_instantiate(model, u)
    except WellDefinednessError as e:
        with pytest.raises(WellDefinednessError) as got:
            instantiate(model, u)
        assert (str(got.value), got.value.state, got.value.action) == (str(e), e.state, e.action)
        return None
    inst = instantiate(model, u)
    assert (inst.choices, inst.costs, inst.kind) == (want.choices, want.costs, want.kind)
    assert inst == want
    return inst


def test_instantiation_equals_the_former_code(two_stage, die):
    ill_defined = 0
    for program in _families(two_stage, die):
        model = build_model(program)
        kept = []
        for u in all_valuations(model):
            inst = _same_outcome(model, u)
            if inst is None:
                ill_defined += 1
            else:
                kept.append((u, inst))
        assert kept == list(oracles.seed_well_defined_instances(model))
        assert well_defined_valuations(model) == oracles.seed_well_defined_valuations(model)
    assert ill_defined > 50


def test_the_valuation_filter_builds_no_instance(monkeypatch, two_stage, die):
    from mimdp import models

    programs = _families(two_stage, die)
    want = [well_defined_valuations(build_model(p)) for p in programs]

    def no_instance(*_):
        raise AssertionError("the filter reads entries only")

    monkeypatch.setattr(models, "_instance", no_instance)
    assert [well_defined_valuations(build_model(p)) for p in programs] == want


def test_equal_subexpressions_share_memo_tables():
    # the per-sensor shipyard family cut to fp in {0.2, 0.9}: 360
    # configurations; keyed per node object, the tables held 22969 entries
    config = shipyard.ShipyardConfig(missions=1)
    text = shipyard.generate_program(config, True, per_sensor_grades=True)
    line = next(l for l in text.splitlines() if l.startswith("param fp in {"))
    model = build_model(parse_program(text.replace(line, "param fp in {0.2, 0.9};")))
    assert len(well_defined_valuations(model)) == 360
    # the former memo's counts: one table per distinct compound
    # subexpression, and no value computed twice
    tables = model._memo.exprs.tables()
    assert (len(tables), sum(map(len, tables))) == (680, 11411)


# --- induced chains ----------------------------------------------------------

def _tiny_mdp():
    src = """
    module m
      x : [0..2] init 0;
      [a] x=0 -> (x'=1);
      [b] x=0 -> (x'=2);
      [] x>0 -> true;
    endmodule
    """
    return build_model(parse_program(src))


def test_induced_mc_deterministic_strategy_copies_rows():
    model = _tiny_mdp()
    mc = induced_mc(model, Strategy.deterministic([1, 0, 0]))
    assert mc.kind == "mc"
    assert mc.choices[0][0].branches == ((F(1), 2),)


def test_induced_mc_uniform_strategy_mixes():
    model = _tiny_mdp()
    strat = Strategy([{0: F(1, 2), 1: F(1, 2)}, {0: F(1)}, {0: F(1)}])
    mc = induced_mc(model, strat)
    assert dict((t, p) for p, t in mc.choices[0][0].branches) == {1: F(1, 2), 2: F(1, 2)}


def test_induced_rows_sum_to_one_and_state_set_is_preserved(two_stage):
    model = instantiate(build_model(two_stage), U_OK)
    strat = Strategy([{0: F(1)} for _ in range(model.num_states)])
    mc = induced_mc(model, strat)
    assert mc.states == model.states and mc.initial == model.initial
    for row in mc.choices:
        assert sum(p for p, _ in row[0].branches) == 1


def test_induced_mc_rejects_disabled_actions():
    model = _tiny_mdp()
    with pytest.raises(ModelError, match="disabled"):
        induced_mc(model, Strategy([{5: F(1)}, {0: F(1)}, {0: F(1)}]))


def test_dot_export_mentions_states_and_labels(two_stage):
    model = build_model(two_stage)
    dot = to_dot(model)
    assert "digraph" in dot and "loc=2" in dot and "->" in dot


def test_parameter_free_model_has_the_single_empty_valuation(die):
    model = build_model(die, {"p": F("0.5")})
    assert well_defined_valuations(model) == [{}]

"""Differential tests of the equality-indexed guards: ``build_model`` and
the transform's implication checks against the former code (``oracles``),
which evaluates every guard at every state or domain point."""

import random
import warnings

import pytest

import oracles
from generators import random_mimdp_program
from mimdp import models, shipyard, transform
from mimdp.expressions import DivisionByZero, ExprError, SortError, equality_conjuncts
from mimdp.models import ModelError, build_model
from mimdp.parser import parse_file, parse_program
from mimdp.program import pretty
from mimdp.transform import TransformError, transform_all


def _outcome(fn, *args, **kwargs):
    """What a call returns, or the type and text of what it raises."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            return fn(*args, **kwargs)
        except (ModelError, TransformError, ExprError) as e:
            return type(e), str(e)


def _same_build(program, **kwargs):
    got = _outcome(build_model, program, **kwargs)
    assert got == _outcome(oracles.seed_build_model, program, **kwargs)
    return got


def _former_transform_all(program):
    saved = transform._guard_implies, transform._guards_overlap
    transform._guard_implies = oracles.seed_guard_implies
    transform._guards_overlap = oracles.seed_guards_overlap
    try:
        return transform_all(program)
    finally:
        transform._guard_implies, transform._guards_overlap = saved


def _same_transform(program):
    got = _outcome(transform_all, program)
    want = _outcome(_former_transform_all, program)
    if isinstance(want[0], type):
        assert got == want
        return None
    assert pretty(got[0]) == pretty(want[0])
    assert got[1] == want[1]
    return got[0]


def _same_pipeline(program):
    """The program and its controlled program build, and the program
    transforms, exactly as under the former code; the controlled model."""
    _same_build(program)
    controlled = _same_transform(program)
    return None if controlled is None else _same_build(controlled, on_deadlock="absorb")


def _restrict(text, name, values):
    line = next(l for l in text.splitlines() if l.startswith(f"param {name} in {{"))
    return text.replace(line, f"param {name} in {{{', '.join(values)}}};")


@pytest.fixture(scope="module")
def uniform_shipyard():
    cfg = shipyard.ShipyardConfig(missions=1)
    return parse_program(shipyard.generate_program(cfg, True))


def test_random_programs_and_their_controlled_programs():
    rng = random.Random(5)
    controlled = 0
    for _ in range(40):
        program, _ = random_mimdp_program(rng)
        controlled += _same_pipeline(program) is not None
    assert controlled == 40


def test_bundled_models(models_dir):
    for path in sorted(models_dir.glob("*.mgcl")):
        _same_pipeline(parse_file(path))


def test_uniform_shipyard_controlled_model(uniform_shipyard):
    assert _same_pipeline(uniform_shipyard).num_states == 1459


def test_per_sensor_shipyard_controlled_model():
    # the former build of the whole per-sensor family takes minutes; two
    # false-positive rates and one altitude deviation keep every grade
    text = shipyard.generate_program(shipyard.ShipyardConfig(missions=1), True, True)
    text = _restrict(_restrict(text, "fp", ("0.2", "0.9")), "dalt", ("0",))
    assert _same_pipeline(parse_program(text)).num_states == 361


ADVERSARIAL = """
const two = 2;
module m
  loc : [0..3] init 0;
  x : [0..2] init 0;
  [] 3 = loc -> (loc'=0);
  [] loc = 1 & loc = 2 -> (loc'=3);
  [] x < 2 & loc = 0 -> (x'=x+1);
  [] loc = 0 & x = 2 -> (loc'=1);
  [] loc = two & x = 2 -> (loc'=3);
  [] true -> (x'=0);
  [] loc = 1/2 -> (loc'=3);
  [] !(loc = 1) & (loc = 1 | x = 0) -> (loc'=2);
endmodule
rewards
  3 = loc : 1;
  x = 1 & loc = 1 & loc = 0 : 5;
  true : 1/4;
endrewards
label "three" = loc = 3;
"""


def test_adversarial_guards_build_as_before():
    program = parse_program(ADVERSARIAL)
    model = _same_build(program)
    assert model.num_states > 4
    module = program.single_module()
    var_names = ("loc", "x")
    fixed = [equality_conjuncts(c.guard, var_names, program.constants) for c in module.commands]
    assert fixed[0] == {"loc": 3}
    assert fixed[1] is None
    assert fixed[2] == {"loc": 0}  # an equality after a non-equality conjunct
    assert fixed[4] == {"x": 2}  # a constant is not a literal
    assert fixed[5] == {}
    assert fixed[6] == {"loc": 0.5}  # never met by an integer state
    assert fixed[7] == {}  # no top-level equality


def _raise_site(module, fn, program, monkeypatch):
    """The error ``fn(program)`` raises and the environment of the top-level
    evaluation that raised it."""
    envs = []
    real = module.eval_expr

    def spy(expr, env):
        envs.append(env)
        return real(expr, env)

    with monkeypatch.context() as m:
        m.setattr(module, "eval_expr", spy)
        with pytest.raises(DivisionByZero) as err:
            fn(program)
    return str(err.value), envs[-1]


def _division_program(guard, extra=""):
    # y = 1 until loc = 2, so x / (y - 1) divides by zero at the initial state
    return parse_program(f"""
    module m
      loc : [0..2] init 0;
      x : [0..1] init 1;
      y : [0..1] init 1;
      [] loc < 2 -> (loc'=loc+1);
      [] loc = 2 & y = 1 -> (y'=0);
      [] {guard} -> true;
    endmodule
    {extra}
    """)


@pytest.mark.parametrize("guard, rewards", [
    ("x / (y - 1) > 0 & loc = 2", ""),
    ("loc = 2 & x / (y - 1) > 0", ""),
    ("loc = 2 & (x / (y - 1) > 0 & y = 0)", ""),
    ("true", "rewards loc = 2 & 1 / (y - 1) > 0 : 1; endrewards"),
    ("true", "rewards 1 / (y - 1) > 0 & loc = 2 : 1; endrewards"),
])
def test_a_failing_guard_raises_the_same_error_at_the_same_state(
        guard, rewards, monkeypatch):
    program = _division_program(guard, rewards)
    got = _raise_site(models, build_model, program, monkeypatch)
    want = _raise_site(oracles, oracles.seed_build_model, program, monkeypatch)
    assert got == want


def test_the_first_failing_label_is_raised():
    # "b" fails at the initial state, "a" only at loc = 2: the labels are
    # still raised in declaration order
    program = _division_program(
        "true", 'label "a" = x / (y + loc - 3) > 0; label "b" = 1 / loc > 0;')
    got = _same_build(program)
    assert got == (DivisionByZero, "division by zero in x / (y + loc - 3)")


def test_implication_checks_skip_only_points_where_the_guard_is_false():
    # the reward guard divides by zero at loc = 0; only the anchoring check
    # of a command enabled there evaluates it, before and after
    src = """
    param p in {1, 2};
    module m
      loc : [0..2] init 0;
      [] loc = 1 -> (loc'=2);
      [] loc = 2 -> true;
      [] loc = 0 -> (loc'=1);
    endmodule
    rewards
      1 / loc > 0 : p;
    endrewards
    """
    program = parse_program(src)
    want = _outcome(_former_transform_all, program)
    assert want[0] is DivisionByZero
    assert _outcome(transform_all, program) == want


def test_an_unchecked_guard_fails_where_its_equality_does_not_hold():
    # "loc" is no boolean: the first conjunct raises a sort error at
    # loc = 0 and holds at loc = 1, so the equality after it must not
    # narrow the points of an unchecked program
    src = """
    param p in {1, 2};
    module m
      loc : [0..1] init 0;
      [] (loc = 1 | loc) & loc = 1 -> true;
      [] loc = 0 -> (loc'=1);
    endmodule
    rewards
      loc = 1 : p;
    endrewards
    """
    program = parse_program(src, check=False)
    assert equality_conjuncts(program.single_module().commands[0].guard, ("loc",), ()) == {}
    want = _outcome(_former_transform_all, program)
    assert want[0] is SortError
    assert _outcome(transform_all, program) == want


def test_an_oversized_implication_check_is_refused_as_before():
    src = """
    param p in {1, 2};
    module m
      a : [0..999] init 0;
      b : [0..999] init 0;
      c : [0..1] init 0;
      [] a = 0 & b = 0 & c = 0 -> (c'=1);
      [] c = 1 -> true;
    endmodule
    rewards
      a < 5 & b < 5 & c = 0 : p;
    endrewards
    """
    program = parse_program(src)
    want = _outcome(_former_transform_all, program)
    assert want[0] is TransformError and "cap" in want[1]
    assert _outcome(transform_all, program) == want


def test_the_build_evaluates_only_candidate_guards(uniform_shipyard, monkeypatch):
    controlled, _ = transform_all(uniform_shipyard)
    fixed = {}  # id of a guard of the composed program -> its equality conjuncts
    real_compose, real_eval = models.compose, models.eval_expr

    def compose(program):
        composed = real_compose(program)
        var_names = tuple(composed.variables())
        for c in composed.single_module().commands:
            fixed[id(c.guard)] = equality_conjuncts(c.guard, var_names, composed.constants)
        return composed

    evaluated = []

    def spy(expr, env):
        if id(expr) in fixed:
            evaluated.append((fixed[id(expr)], env))
        return real_eval(expr, env)

    monkeypatch.setattr(models, "compose", compose)
    monkeypatch.setattr(models, "eval_expr", spy)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model = build_model(controlled, on_deadlock="absorb")
    for eqs, env in evaluated:
        assert eqs is not None and all(env[v] == c for v, c in eqs.items())
    pairs = model.num_states * len(fixed)
    assert pairs > 500_000
    assert len(evaluated) * 100 < pairs

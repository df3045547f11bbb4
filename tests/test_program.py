from dataclasses import replace
from fractions import Fraction as F

import pytest

from mimdp.expressions import Binary, Name, Num, TRUE
from mimdp.parser import ParseError, parse_program
from mimdp.program import (
    CommandDecl,
    ModuleDecl,
    Program,
    VarDecl,
    check_program,
)
from mimdp.models import ModelError, build_model


def _cmd(guard=TRUE, branches=((Num(F(1)), ()),), action=None):
    return CommandDecl(action, guard, branches)


def test_shared_variable_across_modules_is_an_error():
    v = VarDecl("x", 0, 1, 0)
    prog = Program(
        constants={},
        parameters={},
        modules=(
            ModuleDecl("a", (v,), frozenset(), (_cmd(),)),
            ModuleDecl("b", (v,), frozenset(), (_cmd(),)),
        ),
        rewards=(),
        labels={},
    )
    messages = [d.message for d in check_program(prog)]
    assert any("more than one module" in m for m in messages)


def test_empty_parameter_value_set_is_an_error():
    prog = Program(
        constants={},
        parameters={"p": ()},
        modules=(ModuleDecl("m", (VarDecl("x", 0, 1, 0),), frozenset(), (_cmd(),)),),
        rewards=(),
        labels={},
    )
    messages = [d.message for d in check_program(prog)]
    assert any("empty value set" in m for m in messages)


def test_duplicate_parameter_values_are_an_error():
    prog = Program(
        constants={},
        parameters={"p": (F("0.4"), F("0.4"))},
        modules=(ModuleDecl("m", (VarDecl("x", 0, 1, 0),), frozenset(), (_cmd(),)),),
        rewards=(),
        labels={},
    )
    assert any("duplicate values" in d.message for d in check_program(prog))


def test_initial_value_outside_domain():
    prog = Program(
        constants={},
        parameters={},
        modules=(ModuleDecl("m", (VarDecl("x", 0, 1, 5),), frozenset(), (_cmd(),)),),
        rewards=(),
        labels={},
    )
    assert any("outside" in d.message for d in check_program(prog))


def test_well_formed_die_program_has_no_diagnostics(die):
    assert check_program(die) == []


def test_well_formed_two_stage_program_has_no_diagnostics(two_stage):
    assert check_program(two_stage) == []


def test_parameter_in_guard_is_rejected():
    prog = parse_program(
        """
        param p in {0.4, 0.6};
        module m
          x : [0..1] init 0;
          [] x=0 -> p:(x'=1) + 1-p:(x'=0);
          [] x=1 -> true;
        endmodule
        """,
        check=False,
    )
    module = prog.modules[0]
    bad = CommandDecl(None, Binary("<", Name("p"), Num(F(1))), ((Num(F(1)), ()),))
    prog2 = Program(
        constants={},
        parameters=dict(prog.parameters),
        modules=(ModuleDecl("m", module.variables, module.actions, (bad,)),),
        rewards=(),
        labels={},
    )
    assert any("not allowed in guard" in d.message for d in check_program(prog2))


def test_state_variable_in_probability_is_rejected():
    src = """
    module m
      x : [0..3] init 0;
      [] x<3 -> x/3:(x'=3) + 1-x/3:(x'=0);
      [] x=3 -> true;
    endmodule
    """
    prog = parse_program(src, check=False)
    assert any("not allowed in probability" in d.message for d in check_program(prog))


def test_concrete_probabilities_must_sum_to_one():
    src = """
    module m
      x : [0..1] init 0;
      [] x=0 -> 0.5:(x'=1) + 0.4:(x'=0);
      [] x=1 -> true;
    endmodule
    """
    prog = parse_program(src, check=False)
    assert any("sum to" in d.message for d in check_program(prog))


def test_double_assignment_in_one_branch():
    cmd = CommandDecl(
        None,
        TRUE,
        ((Num(F(1)), (("x", Num(F(0))), ("x", Num(F(1))))),),
    )
    prog = Program(
        constants={},
        parameters={},
        modules=(ModuleDecl("m", (VarDecl("x", 0, 1, 0),), frozenset(), (cmd,)),),
        rewards=(),
        labels={},
    )
    assert any("assigned twice" in d.message for d in check_program(prog))


def test_literal_update_outside_domain():
    cmd = CommandDecl(None, TRUE, ((Num(F(1)), (("x", Num(F(7))),)),))
    prog = Program(
        constants={},
        parameters={},
        modules=(ModuleDecl("m", (VarDecl("x", 0, 1, 0),), frozenset(), (cmd,)),),
        rewards=(),
        labels={},
    )
    assert any("leaves" in d.message for d in check_program(prog))


def test_undeclared_action_label():
    cmd = CommandDecl("sync", TRUE, ((Num(F(1)), ()),))
    prog = Program(
        constants={},
        parameters={},
        modules=(ModuleDecl("m", (VarDecl("x", 0, 1, 0),), frozenset(), (cmd,)),),
        rewards=(),
        labels={},
    )
    assert any("not in the module alphabet" in d.message for d in check_program(prog))


def test_only_a_program_found_well_formed_is_marked_as_checked():
    src = """
    module m
      x : [0..1] init 0;
      [] x=0 -> 0.5:(x'=1) + 0.4:(x'=0);
      [] x=1 -> true;
    endmodule
    """
    bad = parse_program(src, check=False)
    for _ in range(2):  # a failed check leaves no mark: the error is raised again
        with pytest.raises(ModelError, match="program is not well-formed: .*sum to"):
            build_model(bad)
    good = parse_program(src.replace("0.4", "0.5"), check=False)
    assert not good._checked
    build_model(good)
    assert good._checked
    assert parse_program(src.replace("0.4", "0.5"))._checked
    copy = replace(good, labels={})
    assert copy == good and not copy._checked


# --- probabilities that name only constants -----------------------------------

def _constant_rows(*rows):
    body = "\n".join(f"      [] s={i} -> {row};" for i, row in enumerate(rows))
    return f"""
    const h = 0.6;
    const big = 3/2;
    module m
      s : [0..{len(rows)}] init 0;
{body}
      [] s={len(rows)} -> true;
    endmodule
    """


def test_a_constant_probability_row_must_sum_to_one():
    src = _constant_rows("h:(s'=1) + h:(s'=0)")
    messages = [d.message for d in check_program(parse_program(src, check=False))]
    assert messages == ["branch probabilities of command 1 of module 'm' sum to 1.2, not 1"]
    with pytest.raises(ParseError, match="sum to 1.2, not 1"):
        parse_program(src)
    with pytest.raises(ModelError, match="program is not well-formed: .*sum to 1.2, not 1"):
        build_model(parse_program(src, check=False))


def test_a_constant_probability_must_lie_in_the_unit_interval():
    src = _constant_rows("big:(s'=1) + (1-big):(s'=0)")
    messages = [d.message for d in check_program(parse_program(src, check=False))]
    assert messages == [
        "probability 1.5 outside [0,1] in command 1 of module 'm'",
        "probability -0.5 outside [0,1] in command 1 of module 'm'",
    ]
    with pytest.raises(ModelError, match=r"probability 1\.5 outside \[0,1\]"):
        build_model(parse_program(src, check=False))


def test_a_valid_constant_probability_row_builds_the_literal_model():
    named = parse_program(_constant_rows("h:(s'=1) + (1-h):(s'=0)", "h*h:(s'=2) + 1-h*h:(s'=0)"))
    literal = parse_program(_constant_rows("0.6:(s'=1) + 0.4:(s'=0)", "0.36:(s'=2) + 0.64:(s'=0)"))
    model = build_model(named)
    assert model == build_model(literal)
    assert model.kind == "mc" and model.num_states == 3
    assert [p for p, _ in model.choices[1][0].branches] == [F(9, 25), F(16, 25)]


def test_a_constant_probability_that_divides_by_zero_is_reported():
    src = """
    const c = 1;
    module m
      s : [0..1] init 0;
      [] s=0 -> 1/(c-1):(s'=1) + (1-1/(c-1)):(s'=0);
      [] s=1 -> true;
    endmodule
    """
    message = "division by zero in 1 / (c - 1) in probability in command 1 of module 'm'"
    assert [d.message for d in check_program(parse_program(src, check=False))] == [message] * 2
    with pytest.raises(ParseError, match=r"division by zero in 1 / \(c - 1\) in probability"):
        parse_program(src)
    with pytest.raises(ModelError, match="program is not well-formed: .*division by zero"):
        build_model(parse_program(src, check=False))
    # a sort error is reported once, by the sort check
    mixed = src.replace("1/(c-1):(s'=1) + (1-1/(c-1)):(s'=0)", "(c+true):(s'=1) + 0:(s'=0)")
    assert [d.message for d in check_program(parse_program(mixed, check=False))] == [
        "arithmetic on non-numbers in c + true in probability in command 1 of module 'm'"
    ]

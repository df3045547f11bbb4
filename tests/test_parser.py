import random
from fractions import Fraction as F

import pytest

from mimdp.expressions import Binary, ExprError
from mimdp.parser import ParseError, _Parser, parse_program, tokenize
from mimdp.program import pretty


def test_parameter_declaration():
    prog = parse_program(
        """
        param p in {0.4, 0.6};
        module m
          x : [0..1] init 0;
          [] x=0 -> p:(x'=1) + 1-p:(x'=0);
          [] x=1 -> true;
        endmodule
        """
    )
    assert prog.parameters == {"p": (F("0.4"), F("0.6"))}


def test_empty_module_is_valid():
    prog = parse_program("module empty endmodule")
    assert prog.modules[0].commands == ()


def test_unknown_identifier_in_guard_is_diagnosed():
    with pytest.raises(ParseError, match="unknown identifier 'y'"):
        parse_program(
            """
            module m
              x : [0..1] init 0;
              [] y=0 -> (x'=1);
              [] x=1 -> true;
            endmodule
            """
        )


def test_syntax_error_reports_position_and_expectation():
    with pytest.raises(ParseError) as exc:
        parse_program("module m\n  x : [0..1 init 0;\nendmodule")
    assert exc.value.line == 2
    assert exc.value.expected


def test_duplicate_declarations_rejected():
    with pytest.raises(ParseError, match="duplicate parameter"):
        parse_program("param p in {0.1}; param p in {0.2};")
    with pytest.raises(ParseError, match="duplicate constant"):
        parse_program("const c = 1; const c = 2;")
    with pytest.raises(ParseError, match="duplicate variable"):
        parse_program("module m x : [0..1] init 0; x : [0..2] init 0; endmodule")


def test_constants_fold_in_declarations():
    prog = parse_program(
        """
        const k = 3;
        const half = 1/2;
        module m
          x : [0..k] init 0;
          [] x<k -> half:(x'=x+1) + 1-half:(x'=0);
          [] x=k -> true;
        endmodule
        """
    )
    assert prog.constants["half"] == F(1, 2)
    assert prog.modules[0].variables[0].hi == 3


def test_comments_and_labels():
    prog = parse_program(
        """
        // a comment
        module m
          x : [0..1] init 0;  // trailing comment
          [] true -> (x'=1);
        endmodule
        label "done" = x = 1;
        """
    )
    assert "done" in prog.labels


def test_tau_and_single_update_sugar():
    prog = parse_program(
        """
        module m
          x : [0..2] init 0;
          [] x=0 -> (x'=1);
          [step] x>=1 -> 0.5:(x'=2) + 0.5:true;
        endmodule
        """
    )
    cmds = prog.modules[0].commands
    assert cmds[0].action is None
    assert cmds[0].branches[0][0] == __import__("mimdp").expressions.Num(F(1))
    assert cmds[1].action == "step"
    assert cmds[1].branches[1][1] == ()


def test_round_trip_two_stage(two_stage):
    assert parse_program(pretty(two_stage)) == two_stage


def test_round_trip_die(die):
    assert parse_program(pretty(die)) == die


def test_parse_determinism(two_stage):
    from mimdp.program import pretty as pp

    text = pp(two_stage)
    assert parse_program(text) == parse_program(text)
    assert pp(parse_program(text)) == text


def test_parameter_values_keep_declaration_order():
    prog = parse_program(
        "param r in {0.6, 0.4};\nmodule m\n x : [0..1] init 0;\n [] true -> r:(x'=1)+1-r:(x'=0);\nendmodule"
    )
    assert prog.parameters["r"] == (F("0.6"), F("0.4"))


def test_rewards_block_round_trips():
    src = """
    module m
      x : [0..1] init 0;
      [] x=0 -> (x'=1);
      [] x=1 -> true;
    endmodule
    rewards
      x=0 : 5/18;
    endrewards
    """
    prog = parse_program(src)
    assert parse_program(pretty(prog)) == prog
    assert prog.rewards[0].cost == __import__("mimdp").expressions.Num(F(5, 18))


def test_min_max_round_trip():
    src = """
    module m
      x : [0..5] init 0;
      [] x < 5 -> 0.5:(x'=min(x+2, 5)) + 0.5:(x'=max(x-1, 0));
      [] x=5 -> true;
    endmodule
    """
    prog = parse_program(src)
    assert parse_program(pretty(prog)) == prog


def test_internal_action_prints_as_empty_brackets(two_stage):
    lines = [l.strip() for l in pretty(two_stage).splitlines()]
    assert any(l.startswith("[] loc = 0 ->") for l in lines)


def test_round_trip_on_the_random_corpus():
    import random

    from generators import random_mimdp_program

    rng = random.Random(99)
    for _ in range(20):
        program, _ = random_mimdp_program(rng)
        assert parse_program(pretty(program)) == program


# --- folding on construction, one level at a time ---------------------------------

_LEAVES = ("0", "1", "2", "1/2", "0.25", "x", "p", "true", "false")
_OPERATORS = ("+", "-", "*", "/", "&", "|", "=", "!=", "<", "<=", ">", ">=")


def _random_text(rng, depth):
    """Expression text mixing literals, names, every operator, unary signs,
    parentheses and extrema; some of it fails to fold (1/0, 1 + true)."""
    if depth == 0 or rng.random() < 0.2:
        return rng.choice(_LEAVES)
    kind = rng.randrange(4)
    if kind == 0:
        return rng.choice(("-", "!")) + _random_text(rng, depth - 1)
    if kind == 1:
        text = _random_text(rng, depth - 1)
        for _ in range(rng.randint(1, 4)):
            text += f" {rng.choice(_OPERATORS)} {_random_text(rng, depth - 1)}"
        return text if rng.random() < 0.5 else f"({text})"
    if kind == 2:
        args = ", ".join(_random_text(rng, depth - 1) for _ in range(rng.randint(1, 3)))
        return f"{rng.choice(('min', 'max'))}({args})"
    return f"({_random_text(rng, depth - 1)})"


def _parse_outcome(parser_class, text):
    try:
        return "value", parser_class(tokenize(text)).expression()
    except Exception as e:  # the error's type and text must match too
        return "error", type(e), str(e)


def test_parse_equals_the_former_fold_on_construction(models_dir):
    from generators import random_mimdp_program
    from mimdp import shipyard
    from oracles import seed_parse_program

    texts = [path.read_text(encoding="utf-8") for path in sorted(models_dir.glob("*.mgcl"))]
    config = shipyard.ShipyardConfig(missions=1)
    texts += [shipyard.generate_program(config, True, per_sensor)
              for per_sensor in (False, True)]
    rng = random.Random(41)
    texts += [pretty(random_mimdp_program(rng)[0]) for _ in range(40)]
    for text in texts:
        assert parse_program(text, check=False) == seed_parse_program(text)


def test_expression_parse_equals_the_former_on_random_texts():
    from oracles import SeedParser

    rng = random.Random(7)
    outcomes = []
    folds = 0
    for _ in range(600):
        text = _random_text(rng, 4)
        outcome = _parse_outcome(_Parser, text)
        former = _parse_outcome(SeedParser, text)
        if former[0] == "error" and issubclass(former[1], ExprError):
            # a fold that fails is now a ParseError at its operator
            line, col = map(int, outcome[2].split(":")[:2])
            assert line == 1 and text[col - 1] in "+-*/&|=!<>", (text, outcome)
            former = ("error", ParseError, f"{line}:{col}: {former[2]}")
            folds += 1
        assert outcome == former, text
        outcomes.append(outcome[0])
    assert 50 < outcomes.count("error") < 550 and folds > 20


def test_a_long_sum_parses_with_linear_fold_visits(monkeypatch):
    from mimdp import expressions, parser

    visits = []
    for name in ("fold", "_fold_binary", "_fold_unary", "_fold_extremum"):
        for module in (expressions, parser):
            inner = getattr(module, name, None)
            if inner is not None:
                def counted(*args, _inner=inner):
                    visits.append(1)
                    return _inner(*args)
                monkeypatch.setattr(module, name, counted)
    n = 2000
    text = " + ".join(f"{k % 7} * x" for k in range(n))
    e = _Parser(tokenize(text)).expression()
    assert len(visits) <= 2 * n
    terms = 1
    while isinstance(e, Binary) and e.op == "+":
        terms, e = terms + 1, e.left
    assert terms == n


@pytest.mark.parametrize("expr, col, message", [
    ("(1+true)", 15, "expected a number, got a boolean in 1 + true"),
    ("(1/0)", 15, "division by zero in 1 / 0"),
    ("(true & 2)", 19, "expected a boolean, got a number in true & 2"),
])
def test_a_fold_that_fails_is_a_parse_error_at_its_operator(expr, col, message):
    text = (
        "module m\n  s : [0..1] init 0;\n"
        f"  [] s=0 -> {expr}:(s'=1) + 0:(s'=0);\n  [] s=1 -> true;\nendmodule\n"
    )
    with pytest.raises(ParseError) as exc:
        parse_program(text)
    assert (exc.value.line, exc.value.col, exc.value.message) == (3, col, message)

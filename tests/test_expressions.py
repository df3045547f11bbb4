from fractions import Fraction as F

import pytest

import oracles

from mimdp.expressions import (
    FALSE,
    TRUE,
    Binary,
    BoolLit,
    CompiledExprs,
    DivisionByZero,
    ExprError,
    Extremum,
    Name,
    Num,
    SortError,
    UnboundName,
    Unary,
    eval_expr,
    expr_value_set,
    fold,
    format_fraction,
    infer_sort,
    names_in,
    substitute,
    to_text,
)


def test_sum_of_parameters_evaluates_exactly():
    e = Binary("+", Name("p"), Name("q"))
    assert eval_expr(e, {"p": F("0.1"), "q": F("0.3")}) == F("0.4")


def test_literal_is_its_own_value():
    assert eval_expr(Num(F(1)), {}) == 1


def test_affine_combination_hits_the_upper_endpoint():
    e = Binary("+", Name("p"), Binary("*", Num(F(2)), Name("q")))
    assert eval_expr(e, {"p": F("0.2"), "q": F("0.4")}) == F(1)


def test_division_by_zero_raises():
    e = Binary("/", Num(F(1)), Binary("-", Name("p"), Name("p")))
    with pytest.raises(DivisionByZero):
        eval_expr(e, {"p": F("0.5")})


def test_unbound_name_raises():
    with pytest.raises(UnboundName):
        eval_expr(Name("q"), {"p": F("0.5")})


def test_value_set_of_a_sum():
    e = Binary("+", Name("p"), Name("q"))
    domains = {"p": (F("0.1"), F("0.2")), "q": (F("0.3"), F("0.4"))}
    assert expr_value_set(e, domains) == [F("0.4"), F("0.5"), F("0.6")]


def test_value_set_of_a_constant():
    assert expr_value_set(Num(F("0.5")), {}) == [F("0.5")]


def test_value_set_of_a_scaled_parameter():
    e = Binary("*", Num(F(2)), Name("p"))
    assert expr_value_set(e, {"p": (F("0.4"), F("0.6"))}) == [F("0.8"), F("1.2")]


def test_value_set_rejects_state_variables():
    e = Binary("+", Name("p"), Name("x"))
    with pytest.raises(Exception, match="non-parameter"):
        expr_value_set(e, {"p": (F("0.4"),)})


def test_value_set_order_is_ascending_with_duplicates_removed():
    e = Binary("+", Name("p"), Name("q"))
    domains = {"p": (F("0.2"), F("0.1")), "q": (F("0.4"), F("0.3"))}
    assert expr_value_set(e, domains) == [F("0.4"), F("0.5"), F("0.6")]


def test_fold_collapses_literal_arithmetic():
    assert fold(Binary("/", Num(F(5)), Num(F(18)))) == Num(F(5, 18))
    assert fold(Binary("*", Name("p"), Num(F(1)))) == Binary("*", Name("p"), Num(F(1)))


def test_min_max():
    e = Extremum("min", (Num(F(3)), Name("p")))
    assert eval_expr(e, {"p": F(1)}) == 1
    assert eval_expr(fold(Extremum("max", (Num(F(3)), Num(F(5))))), {}) == 5


def test_sort_checking():
    good = Binary("&", Binary("<", Name("x"), Num(F(3))), Binary("=", Name("y"), Num(F(1))))
    assert infer_sort(good, {"x": "num", "y": "num"}) == "bool"
    with pytest.raises(SortError):
        infer_sort(Binary("+", Num(F(1)), Binary("<", Num(F(1)), Num(F(2)))), {})
    with pytest.raises(UnboundName):
        infer_sort(Name("zz"), {})


def test_names_in():
    e = Binary("+", Name("p"), Binary("*", Name("q"), Num(F(2))))
    assert names_in(e) == {"p", "q"}


def test_substitute_partially():
    e = Binary("+", Name("p"), Name("q"))
    r = substitute(e, {"q": F("0.25")})
    assert r == Binary("+", Name("p"), Num(F("0.25")))
    assert substitute(r, {"p": F("0.5")}) == Num(F("0.75"))


@pytest.mark.parametrize(
    "value,text",
    [
        (F(3), "3"),
        (F(-3), "-3"),
        (F("0.4"), "0.4"),
        (F("-0.125"), "-0.125"),
        (F(5, 18), "5/18"),
        (F(1, 3), "1/3"),
        (F("0.000045"), "0.000045"),
    ],
)
def test_fraction_formatting(value, text):
    assert format_fraction(value) == text


def test_to_text_precedence():
    e = Binary("*", Binary("+", Name("p"), Name("q")), Num(F(2)))
    assert to_text(e) == "(p + q) * 2"
    e2 = Binary("|", Binary("&", Name_eq("x", 1), Name_eq("y", 2)), Name_eq("z", 3))
    assert to_text(e2) == "x = 1 & y = 2 | z = 3"


def Name_eq(n, v):
    return Binary("=", Name(n), Num(F(v)))


# --- the compiled evaluator against eval_expr and the former memo -------------

X, Y, B = Name("x"), Name("y"), Name("b")
ONE = Num(F(1))

EVALUATOR_CASES = [
    Binary("+", TRUE, ONE),
    Binary("/", X, Num(F(0))),
    Binary("/", X, Y),
    Extremum("min", (TRUE, ONE)),
    Extremum("min", (ONE, TRUE, Binary("/", X, Y))),
    Extremum("max", (X, Binary("*", X, X), Num(F(-1)))),
    Binary("-", Binary("/", X, Num(F(3))), Binary("*", X, X)),
    Binary("&", FALSE, Binary("+", TRUE, ONE)),
    Binary("|", B, Name("nope")),
    Binary("&", B, Binary("<", X, Y)),
    Binary("&", X, TRUE),
    Binary("=", TRUE, TRUE),
    Unary("-", TRUE),
    Unary("!", ONE),
    Unary("!", B),
    Unary("-", Binary("+", X, Num(F(1, 3)))),
    Name("nope"),
    # equal subtrees (distinct objects) share one node
    Binary("+", Binary("*", X, Y), Binary("*", X, Y)),
    Binary("-", Binary("/", X, Y), Binary("/", X, Y)),
    Extremum("max", (Binary("-", X, ONE), Binary("-", X, ONE), Binary("/", ONE, Y))),
    # names equal up to their source position
    Binary("&", Binary("<", Name("x", pos=(1, 1)), Y), Binary(">", Name("x", pos=(2, 7)), Y)),
    Binary("/", Name("x", pos=(1, 1)), Binary("-", Name("x", pos=(1, 5)), X)),
    Binary("|", Unary("!", BoolLit(1)), Unary("!", TRUE)),
] + [Binary(op, X, Num(F(2))) for op in ("=", "!=", "<", "<=", ">", ">=")]


def _outcome(evaluate, e, env):
    try:
        v = evaluate(e, env)
    except ExprError as ex:
        return type(ex), str(ex)
    return type(v), v


@pytest.mark.parametrize("e", EVALUATOR_CASES, ids=to_text)
def test_memo_evaluator_returns_or_raises_what_eval_expr_does(e):
    env = {"x": F(2), "y": F(0), "b": True}
    want = _outcome(eval_expr, e, env)
    seed = oracles.SeedMemoEvaluator(["x", "y", "b"])
    assert _outcome(seed.eval, e, env) == want
    exprs = CompiledExprs({"x": [F(1), F(2)], "y": [F(0), F(3)], "b": [False, True]})

    def compiled(e, env):
        node = exprs.add(e)
        return exprs.at(env)(node)

    assert _outcome(compiled, e, env) == want
    assert _outcome(compiled, e, env) == want  # answered from the tables


def test_memo_evaluator_shares_tables_between_equal_subtrees():
    # built twice: equal, but no node object is shared
    def poly():
        return Binary("+", Binary("*", X, Y), Binary("/", X, Binary("-", Y, ONE)))

    first, second = poly(), Unary("-", poly())
    exprs = CompiledExprs({"x": [F(1), F(2)], "y": [F(0), F(1), F(3)]})
    nodes = [exprs.add(e) for e in (first, second)]
    assert exprs.add(second.operand) == nodes[0]
    points = list(exprs.points(["x", "y"]))
    assert [env for env, _ in points] == [{"x": F(a), "y": F(b)} for a in (1, 2) for b in (0, 1, 3)]
    for e, node in zip((first, second), nodes):
        for env, value in points:
            assert _outcome(lambda n, _: value(n), node, env) == _outcome(eval_expr, e, env)
    # poly, its three inner nodes and the negation: five tables; the
    # second poly is the first one's node
    tables = exprs.tables()
    assert len(tables) == 5
    # x * y and y - 1 hold every value they take; y = 1 divides by zero,
    # which is never stored, so the division, the sum and the negation
    # hold four values each: the former memo's counts, so no value is
    # computed twice
    assert sorted(map(len, tables)) == [3, 4, 4, 4, 6]


def test_equal_literals_evaluate_alike():
    assert BoolLit(1) == TRUE and BoolLit(1).value is True
    assert eval_expr(Unary("!", BoolLit(1)), {}) is False

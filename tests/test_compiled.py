"""Differential tests of the compiled, hash-consed parametric entries
(``expressions.CompiledExprs``, ``models._Entries``) against the former
memoised evaluator and plain ``eval_expr``, and of the identity-preserving
``fold``/``substitute`` against the former rebuilding ones."""

import random
from fractions import Fraction as F

import pytest

import oracles
from mimdp import shipyard
from mimdp.expressions import (
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
    fold,
    joint_valuations,
    substitute,
)
from mimdp.models import (
    Choice,
    ExplicitModel,
    ModelError,
    WellDefinednessError,
    _instance,
    all_valuations,
    build_model,
    instantiate,
    well_defined_entries,
)
from mimdp.parser import parse_program
from mimdp.program import pretty
from mimdp.transform import TransformError, transform_probabilities, transform_rewards

from generators import random_mimdp_program
from test_expressions import EVALUATOR_CASES

DOMAINS = {
    "x": [F(-1), F(0), F(1, 2), F(2)],
    "y": [F(0), F(1), F(3)],
    "z": [F(1, 3), F(1)],
    "b": [False, True],
}
CONSTANTS = {"k": F(3)}


def _outcome(evaluate, *args):
    try:
        v = evaluate(*args)
    except ExprError as ex:
        return type(ex), str(ex)
    return type(v), v


# --- a seeded random expression corpus ---------------------------------------

_NUM_OPS = ("+", "-", "*", "/")
_CMP_OPS = ("=", "!=", "<", "<=", ">", ">=")


def _expr(rng: random.Random, depth: int, sort: str, pool: list):
    """A random expression of ``sort`` ('num' or 'bool'), with a small
    chance of the wrong sort at every node (sort errors), unbound names,
    divisions that hit zero for some valuations, and subtrees drawn twice
    from one seed in ``pool`` (equal, but distinct objects)."""
    if rng.random() < 0.08:
        sort = "bool" if sort == "num" else "num"
    if depth == 0 or rng.random() < 0.2:
        if rng.random() < 0.03:
            return Name("nope")
        if sort == "bool":
            return Name("b") if rng.random() < 0.6 else BoolLit(rng.random() < 0.5)
        roll = rng.random()
        if roll < 0.55:
            return Name(rng.choice("xyzk"))
        return Num(F(rng.randint(-2, 4), rng.choice((1, 2, 3))))
    if pool and rng.random() < 0.12:
        # the same subtree built again from its seed
        seed = rng.choice(pool)
        return _expr(random.Random(seed), depth - 1, sort, [])
    if sort == "num":
        roll = rng.random()
        if roll < 0.6:
            op = rng.choice(_NUM_OPS)
            return Binary(op, _expr(rng, depth - 1, "num", pool), _expr(rng, depth - 1, "num", pool))
        if roll < 0.8:
            args = tuple(_expr(rng, depth - 1, "num", pool) for _ in range(rng.randint(1, 3)))
            return Extremum(rng.choice(("min", "max")), args)
        return Unary("-", _expr(rng, depth - 1, "num", pool))
    roll = rng.random()
    if roll < 0.45:
        op = rng.choice(("&", "|"))
        return Binary(op, _expr(rng, depth - 1, "bool", pool), _expr(rng, depth - 1, "bool", pool))
    if roll < 0.85:
        op = rng.choice(_CMP_OPS)
        return Binary(op, _expr(rng, depth - 1, "num", pool), _expr(rng, depth - 1, "num", pool))
    return Unary("!", _expr(rng, depth - 1, "bool", pool))


def _corpus(seed: int = 5, count: int = 300) -> list:
    rng = random.Random(seed)
    pool = [rng.randrange(10**6) for _ in range(12)]
    out = [_expr(rng, rng.randint(1, 5), rng.choice(("num", "bool")), pool) for _ in range(count)]
    # a subtree shared by two expressions, each built separately
    shared = [_expr(random.Random(s), 3, "num", []) for s in pool[:4]]
    out += [Binary("+", a, Unary("-", _expr(random.Random(s), 3, "num", [])))
            for a, s in zip(shared, pool[:4])]
    x, y, b = Name("x"), Name("y"), Name("b")
    one = Num(F(1))
    out += [
        # division by zero where y = 0 only
        Binary("/", x, y),
        Binary("+", Binary("/", one, y), Binary("/", one, y)),
        # a sort error behind a short-circuit: only where b is false
        Binary("|", b, Binary("<", Binary("+", x, BoolLit(True)), one)),
        Binary("&", Unary("!", b), Binary("=", Binary("*", x, b), one)),
        # lazy min/max: the sort error stops evaluation before 1/y
        Extremum("min", (x, b, Binary("/", one, y))),
        Extremum("max", (Binary("/", one, y), b)),
        # unbound names, reached or not
        Binary("|", b, Name("nope")),
        Binary("+", x, Name("nope")),
    ]
    return out


def _points():
    names = list(DOMAINS)
    return [dict(u) for u in joint_valuations(names, DOMAINS)]


def test_random_corpus_matches_eval_expr_and_the_former_memo():
    corpus = _corpus()
    exprs = CompiledExprs(DOMAINS, CONSTANTS)
    nodes = [exprs.add(e) for e in corpus]
    seed = oracles.SeedMemoEvaluator(list(DOMAINS))
    points = list(exprs.points(list(DOMAINS)))
    assert [row for row, _ in points] == _points()
    kinds = set()
    for row, value in points:
        env = {**CONSTANTS, **row}
        for e, node in zip(corpus, nodes):
            want = _outcome(eval_expr, e, env)
            assert _outcome(seed.eval, e, env) == want
            assert _outcome(value, node) == want
            assert _outcome(value, node) == want  # from the tables, or raised again
            kinds.add(want[0])
    assert {DivisionByZero, SortError, UnboundName, F, bool} <= kinds
    # the same values are held: no subexpression is computed twice, and
    # an error is never stored
    compiled = sorted(len(t) for t in exprs.tables() if t)
    former = sorted(len(t) for _, t in seed._tables.values() if t)
    assert compiled == former
    # equal subtrees are one node
    assert len(exprs.tables()) == len({s for e in corpus for s in _compound_subtrees(e)})


def _compound_subtrees(e):
    stack = [e]
    while stack:
        n = stack.pop()
        if isinstance(n, Unary):
            yield n
            stack.append(n.operand)
        elif isinstance(n, Binary):
            yield n
            stack += [n.left, n.right]
        elif isinstance(n, Extremum):
            yield n
            stack += list(n.args)


def test_every_expression_evaluates_alike_at_every_point_of_a_small_product():
    exprs = CompiledExprs({"x": [F(2), F(0)], "y": [F(0), F(1)], "b": [True, False]})
    cases = [(e, exprs.add(e)) for e in EVALUATOR_CASES]
    for row, value in exprs.points(["x", "y", "b"]):
        for e, node in cases:
            assert _outcome(value, node) == _outcome(eval_expr, e, row)


def test_a_parameter_outside_the_point_is_unbound():
    exprs = CompiledExprs({"x": [F(1)], "y": [F(2)]})
    node = exprs.add(Binary("+", Name("x"), Name("y")))
    [(row, value)] = exprs.points(["x"])
    assert row == {"x": F(1)}
    with pytest.raises(UnboundName, match="'y'"):
        value(node)


def test_a_value_outside_the_domain_is_evaluated_and_not_stored():
    exprs = CompiledExprs({"x": [F(1), F(2)]})
    node = exprs.add(Binary("*", Name("x"), Name("x")))
    assert exprs.at({"x": F(3)})(node) == 9
    assert exprs.tables() == [{}]
    assert exprs.at({"x": F(2)})(node) == 4
    assert exprs.tables() == [{1: F(4)}]


# --- fold and substitute ------------------------------------------------------

def test_fold_and_substitute_equal_the_former_code_and_keep_unchanged_subtrees():
    envs = [{}, {"x": F(2)}, {"y": F(0), "b": True}, {"x": F(1, 2), "y": F(3), "z": F(1)}]
    corpus = _corpus(seed=8, count=200)
    corpus.append(Binary("+", Name("x"), Binary("*", Num(F(2)), Num(F(3)))))
    corpus.append(Unary("-", Num(F(3))))
    corpus.append(Extremum("max", (Num(F(1)), Num(F(2)))))
    kept = changed = 0
    for e in corpus:
        want = _outcome(oracles.seed_fold, e)
        got = _outcome(fold, e)
        assert got == want
        if want[0] not in (DivisionByZero, SortError):
            assert (got[1] is e) == (want[1] == e)
            kept += got[1] is e
            changed += got[1] is not e
        for env in envs:
            want = _outcome(oracles.seed_substitute, e, env)
            got = _outcome(substitute, e, env)
            assert got == want
            if want[0] not in (DivisionByZero, SortError) and want[1] == e:
                assert got[1] is e
    assert kept > 20 and changed > 20


# --- models: entries, instances and errors ------------------------------------

def _per_sensor_cut():
    config = shipyard.ShipyardConfig(missions=1)
    text = shipyard.generate_program(config, True, per_sensor_grades=True)
    line = next(l for l in text.splitlines() if l.startswith("param fp in {"))
    return parse_program(text.replace(line, "param fp in {0.2, 0.9};"))


_ERROR_PROGRAMS = [
    # division by zero in a probability, for one value only
    """
    param p in {0, 1/2, 1};
    module m
      s : [0..1] init 0;
      [] s=0 -> p/(2*p):(s'=1) + 1/2:(s'=0);
      [] s=1 -> true;
    endmodule
    """,
    # a negative cost for some values, and a division in a cost
    """
    param p in {1/4, 1/2, 3/4};
    param q in {0, 1};
    module m
      s : [0..1] init 0;
      [] s=0 -> p:(s'=1) + 1-p:(s'=0);
      [] s=1 -> true;
    endmodule
    rewards
      s=0 : p - 1/2;
      s=1 : 1/q;
    endrewards
    """,
    # a row that is no distribution next to a good one
    """
    param p in {1/4, 1/2};
    param q in {1/4, 1/2};
    module m
      s : [0..2] init 0;
      [] s=0 -> p:(s'=1) + 1/2:(s'=2);
      [] s=1 -> q:(s'=2) + 1-q:(s'=0);
      [] s=2 -> true;
    endmodule
    """,
]


def _families(two_stage, die):
    rng = random.Random(23)
    programs = [random_mimdp_program(rng)[0] for _ in range(40)]
    programs += [two_stage, die]
    programs.append(parse_program(shipyard.generate_program(shipyard.ShipyardConfig(missions=1), True)))
    programs.append(_per_sensor_cut())
    programs += [parse_program(src) for src in _ERROR_PROGRAMS]
    return programs


def _instance_outcome(instantiate_fn, model, u):
    try:
        inst = instantiate_fn(model, u)
    except ModelError as e:
        return type(e), str(e), getattr(e, "state", None), getattr(e, "action", None)
    except ExprError as e:
        return type(e), str(e)
    return inst.kind, inst.choices, inst.costs, inst


def test_entries_and_instances_equal_the_former_memo(two_stage, die):
    failed = 0
    for program in _families(two_stage, die):
        model = build_model(program)
        got = _outcome(lambda: list(well_defined_entries(model)))
        want = _outcome(lambda: list(oracles.seed_memo_well_defined_entries(model)))
        assert got == want
        if got[0] is list:
            types = [[type(v) for v in p + c] for _, p, c in got[1]]
            assert types == [[type(v) for v in p + c] for _, p, c in want[1]]
        memo = oracles.SeedMemoEvaluator(list(model.parameters))

        def former(model, u):
            return _instance(model, *oracles.seed_memo_entries(model, u, memo))

        for u in all_valuations(model):
            outcome = _instance_outcome(instantiate, model, u)
            assert outcome == _instance_outcome(former, model, u)
            failed += not isinstance(outcome[0], str)
    assert failed > 50


def test_errors_of_expressions_are_raised_by_the_instance_and_never_stored():
    model = build_model(parse_program(_ERROR_PROGRAMS[1]))
    for u in all_valuations(model):
        a = _instance_outcome(instantiate, model, u)
        b = _instance_outcome(instantiate, model, u)
        assert a == b
    outcomes = {_instance_outcome(instantiate, model, u)[0] for u in all_valuations(model)}
    assert outcomes == {"mc", WellDefinednessError, DivisionByZero}


def test_a_concrete_choice_that_is_no_distribution_fails_every_valuation_at_its_place():
    half = F(1, 2)
    p = Name("p")
    model = ExplicitModel(
        kind="mimdp",
        var_names=("s",),
        states=[(0,), (1,), (2,)],
        initial=0,
        choices=[
            [Choice("a", ((p, 1), (Binary("-", Num(F(1)), p), 2)))],
            [Choice("b", ((half, 1), (F(1, 3), 2)))],
            [Choice("c", ((Binary("/", Num(F(1)), p), 2),))],
        ],
        costs=[F(0), F(0), F(0)],
        labels={},
        parameters={"p": (F(0), half, F(2))},
    )
    for u in all_valuations(model):
        got = _instance_outcome(instantiate, model, u)
        memo = oracles.SeedMemoEvaluator(["p"])
        want = _instance_outcome(
            lambda m, v: _instance(m, *oracles.seed_memo_entries(m, v, memo)), model, u
        )
        assert got == want
    # p = 2 fails at state 0 first, the others at state 1
    assert [_instance_outcome(instantiate, model, u)[2] for u in all_valuations(model)] == [1, 1, 0]
    assert list(well_defined_entries(model)) == []


def test_instantiating_outside_the_declared_values_matches_the_former_code(two_stage):
    model = build_model(two_stage)
    list(well_defined_entries(model))
    sizes = [len(t) for t in model._memo.exprs.tables()]
    u = {"p": F(1, 7), "q": F(3, 10), "r": F(6, 7), "s": F(7, 10)}
    got = _instance_outcome(instantiate, model, u)
    assert got[0] == "mc" and got[2][0] == F(1, 7) + F(3, 10)
    assert got == _instance_outcome(oracles.seed_instantiate, model, u)
    assert [len(t) for t in model._memo.exprs.tables()] == sizes


def test_a_boolean_entry_raises_the_former_error():
    model = ExplicitModel(
        kind="mimdp",
        var_names=("s",),
        states=[(0,)],
        initial=0,
        choices=[[Choice(None, ((Binary("<", Name("p"), Num(F(1))), 0),))]],
        costs=[F(0)],
        labels={},
        parameters={"p": (F(0), F(1))},
    )
    memo = oracles.SeedMemoEvaluator(["p"])
    for u in all_valuations(model):
        got = _instance_outcome(instantiate, model, u)
        assert got[0] is ModelError and "boolean where a number was expected: p < 1" in got[1]
        assert got == _instance_outcome(
            lambda m, v: _instance(m, *oracles.seed_memo_entries(m, v, memo)), model, u
        )


# --- transformations ----------------------------------------------------------

def _expanded(transform, program):
    try:
        out, report = transform(program)
    except (TransformError, ExprError) as e:
        return type(e), str(e)
    return pretty(out), report


_REWARD_ERRORS = [
    """
    param p in {1/4, 3/4};
    module m
      s : [0..1] init 0;
      [] s=0 -> (s'=1);
      [] s=1 -> true;
    endmodule
    rewards
      s=0 : p - 1/2;
    endrewards
    """,
    """
    param p in {0, 1};
    module m
      s : [0..1] init 0;
      [] s=0 -> (s'=1);
      [] s=1 -> true;
    endmodule
    rewards
      s=0 : 1/p;
    endrewards
    """,
]


def test_row_expansions_equal_the_former_code(two_stage, die):
    programs = _families(two_stage, die) + [parse_program(src) for src in _REWARD_ERRORS]
    for transform, former in (
        (transform_probabilities, oracles.seed_transform_probabilities),
        (transform_rewards, oracles.seed_transform_rewards),
    ):
        outcomes = [_expanded(transform, p) for p in programs]
        assert outcomes == [_expanded(former, p) for p in programs]
    kinds = {type(o[0]) for o in (_expanded(transform_rewards, p) for p in programs)}
    assert kinds == {str, type}

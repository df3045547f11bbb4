"""Differential tests of the compiled, hash-consed parametric entries
(``expressions.CompiledExprs``, ``models._Entries``) against the former
memoised evaluator and the former ``Fraction`` ``eval_expr``
(``oracles.eval_expr``), of ``eval_expr`` itself against that one, and of
the identity-preserving ``fold``/``substitute`` against the former
rebuilding ones and the former ``Fraction`` ones."""

import random
import warnings
from fractions import Fraction as F

import pytest

import oracles
from mimdp import models, shipyard
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
    pair_distribution_fault,
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
            want = _outcome(oracles.eval_expr, e, env)
            assert _outcome(eval_expr, e, env) == want
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
            want = _outcome(oracles.eval_expr, e, row)
            assert _outcome(value, node) == want
            assert _outcome(eval_expr, e, row) == want


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


def _unfolded(e, env):
    """``e`` with the names bound in ``env`` replaced by literals, unfolded."""
    if isinstance(e, Name) and e.ident in env:
        v = env[e.ident]
        return BoolLit(v) if isinstance(v, bool) else Num(v)
    if isinstance(e, Unary):
        return Unary(e.op, _unfolded(e.operand, env))
    if isinstance(e, Binary):
        return Binary(e.op, _unfolded(e.left, env), _unfolded(e.right, env))
    if isinstance(e, Extremum):
        return Extremum(e.op, tuple(_unfolded(a, env) for a in e.args))
    return e


def _fold_outcome(rewrite, e, *env):
    """What ``rewrite`` returns for ``e``, or the type and text of the
    error it raises (``min()`` of nothing raises a plain ``ValueError``)."""
    try:
        v = rewrite(e, *env)
    except ValueError as ex:
        return type(ex), str(ex)
    return type(v), v


def test_fold_and_substitute_equal_the_former_fraction_code_on_the_corpus():
    corpus = _corpus()
    # literal-only trees, unfolded: every operator folds, or raises
    rows = [{**CONSTANTS, **row, "nope": F(-2)} for row in _points()[::17]]
    corpus += [_unfolded(e, row) for row in rows for e in _corpus()]
    corpus += [Extremum("min", ()), Unary("-", BoolLit(True)), Unary("!", Num(F(1)))]
    envs = [{}, CONSTANTS] + [{**CONSTANTS, **row} for row in _points()[::7]]
    kinds = set()
    for e in corpus:
        for rewrite, former, env in [(fold, oracles.fold, ())] + [
                (substitute, oracles.substitute, (env,)) for env in envs]:
            want = _fold_outcome(former, e, *env)
            got = _fold_outcome(rewrite, e, *env)
            assert got == want
            if not issubclass(want[0], Exception):
                assert (got[1] is e) == (want[1] is e)
            kinds.add(want[0])
    assert {DivisionByZero, SortError, ValueError, Num, BoolLit, Binary, Unary, Extremum} <= kinds


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
        got = _outcome(lambda: list(oracles.fraction_entries(model)))
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


def _pairs(values) -> list:
    return [(v.numerator, v.denominator) for v in values]


def _entries_outcome(read, model, u):
    try:
        return read(model, u)
    except (ModelError, ExprError) as e:
        return type(e), str(e)


def test_entry_pairs_equal_the_former_fraction_entries():
    # pair for pair, and valuation for valuation with the same errors, on
    # the bundled models, 20 random families, the benchmark's random
    # programs of seeds 1-3 and both shipyard families
    from test_model_cache import _programs

    faults = configurations = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # composition warns of blocked actions
        built = [build_model(program) for program in _programs()]
    for model in built:
        got = list(well_defined_entries(model))
        want = oracles.seed_memo_well_defined_entries(model)
        assert got == [(u, _pairs(probs), _pairs(costs)) for u, probs, costs in want]
        assert all(type(p) is int and type(q) is int
                   for _, probs, costs in got for p, q in probs + costs)
        configurations += len(got)
        if model.kind != "mimdp":
            continue
        memo = oracles.SeedMemoEvaluator(list(model.parameters))

        def former(model, u):
            probs, costs = oracles.seed_memo_entries(model, u, memo)
            return _pairs(probs), _pairs(costs)

        for u in all_valuations(model):
            outcome = _entries_outcome(models._entries, model, u)
            assert outcome == _entries_outcome(former, model, u)
            faults += outcome[0] is WellDefinednessError
    assert faults > 400 and configurations > 3000, (faults, configurations)


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
    model = ExplicitModel.from_rows(
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
    model = ExplicitModel.from_rows(
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


# --- the integer-pair kernel --------------------------------------------------

def _node_outcome(value, node):
    outcome = _outcome(value, node)
    if outcome[0] is F:
        # the held pair is the Fraction's normalized numerator and denominator
        held = value.pair(node)
        assert held == (outcome[1].numerator, outcome[1].denominator) and held[1] > 0
    return outcome


def _agree_with_the_former_fraction_dag(exprs, seed, names):
    """Every node of ``exprs`` at every point of ``names``, against the
    former ``Fraction`` DAG ``seed`` (entered in node order): values, their
    types and every error's type and message, then the tables."""
    for node in range(len(exprs._kind)):
        assert seed.add(exprs.expr(node)) == node
    points = list(exprs.points(names))
    former = list(seed.points(names))
    assert [row for row, _ in points] == [row for row, _ in former]
    kinds = set()
    for (_, value), (_, want) in zip(points, former):
        for node in range(len(exprs._kind)):
            outcome = _node_outcome(value, node)
            assert outcome == _outcome(want, node)
            kinds.add(outcome[0])
    got, held = exprs.tables(), seed.tables()
    assert got == held
    assert [[type(v) for v in t.values()] for t in got] == [[type(v) for v in t.values()] for t in held]
    return kinds


def test_every_node_at_every_point_equals_the_former_fraction_dag():
    exprs = CompiledExprs(DOMAINS, CONSTANTS)
    for e in _corpus():
        exprs.add(e)
    seed = oracles.SeedCompiledExprs(DOMAINS, CONSTANTS)
    kinds = _agree_with_the_former_fraction_dag(exprs, seed, list(DOMAINS))
    assert {DivisionByZero, SortError, UnboundName, F, bool} <= kinds


def test_the_shipyard_entries_equal_the_former_fraction_dag():
    from mimdp.models import _Entries

    model = build_model(_per_sensor_cut())
    exprs = _Entries(model).exprs
    assert len(exprs.tables()) == 680  # one per distinct compound subexpression
    seed = oracles.SeedCompiledExprs(model.parameters)
    kinds = _agree_with_the_former_fraction_dag(exprs, seed, list(model.parameters))
    assert kinds == {F}


def _single(expr, domains, names=None):
    """The outcomes of ``expr`` at every point, with the held pairs."""
    exprs = CompiledExprs(domains)
    node = exprs.add(expr)
    out = []
    for row, value in exprs.points(names or list(domains)):
        outcome = _node_outcome(value, node)
        assert outcome == _outcome(oracles.eval_expr, expr, row)
        assert _outcome(eval_expr, expr, row) == outcome
        out.append((outcome, value.pair(node) if outcome[0] is F else None))
    return out


def test_division_by_a_negative_number_keeps_the_denominator_positive():
    x = Name("x")
    got = _single(Binary("/", x, Num(F(-4))), {"x": [F(-3), F(2), F(1, 3)]})
    assert [held for _, held in got] == [(3, 4), (-1, 2), (-1, 12)]
    got = _single(Binary("/", Num(F(3, 5)), x), {"x": [F(-6), F(-3, 10), F(1, 2)]})
    assert [held for _, held in got] == [(-1, 10), (-2, 1), (6, 5)]


def test_comparisons_between_negative_values():
    x, y = Name("x"), Name("y")
    domains = {"x": [F(-3, 2), F(-1, 3), F(-1)], "y": [F(-1), F(-2, 3)]}
    for op in ("<", ">=", "<=", ">", "=", "!="):
        got = _single(Binary(op, x, y), domains)
        assert {outcome for outcome, _ in got} == {(bool, True), (bool, False)}
    assert [o[1] for o, _ in _single(Binary("<", x, Num(F(-1))), domains, ["x"])] == [True, False, False]


def test_min_and_max_over_equal_values():
    x = Name("x")
    twice = Binary("/", Binary("*", Num(F(2)), x), Num(F(2)))
    for op in ("min", "max"):
        got = _single(Extremum(op, (x, twice, x)), {"x": [F(-2, 3), F(0), F(5)]})
        assert [o for o, _ in got] == [(F, F(-2, 3)), (F, F(0)), (F, F(5))]


def test_negative_zero_is_zero():
    x = Name("x")
    for e in (Unary("-", Num(F(0))), Unary("-", Binary("-", x, x)), Binary("*", Num(F(-1)), Binary("*", x, Num(F(0))))):
        assert [held for _, held in _single(e, {"x": [F(-1, 2), F(3)]})] == [(0, 1), (0, 1)]


def test_a_boolean_in_a_numeric_position_raises_the_former_sort_error():
    x, b = Name("x"), Name("b")
    cases = [
        Binary("*", Binary("+", x, b), Num(F(2))),
        Binary("-", b, x),
        Unary("-", Binary("<", x, Num(F(1)))),
        Extremum("max", (x, Binary("=", x, x))),
        Binary("<", Num(F(1)), BoolLit(True)),
    ]
    for e in cases:
        got = _single(e, {"x": [F(1, 2)], "b": [True]})
        assert got[0][0][0] is SortError and "expected a number, got a boolean in" in got[0][0][1]


def test_a_division_by_zero_behind_a_short_circuit_is_not_reached():
    b, y = Name("b"), Name("y")
    guarded = Binary(">", Binary("/", Num(F(1)), y), Num(F(0)))
    got = _single(Binary("&", b, guarded), {"b": [False, True], "y": [F(0), F(-1)]})
    assert [o for o, _ in got] == [
        (bool, False), (bool, False), (DivisionByZero, "division by zero in 1 / y"), (bool, False)
    ]
    got = _single(Binary("|", Unary("!", b), guarded), {"b": [False, True], "y": [F(0)]})
    assert [o for o, _ in got] == [(bool, True), (DivisionByZero, "division by zero in 1 / y")]


def test_a_valuation_outside_the_domain_is_evaluated_exactly_and_not_stored():
    x, y = Name("x"), Name("y")
    exprs = CompiledExprs({"x": [F(1), F(2)], "y": [F(1, 3)]})
    node = exprs.add(Binary("/", Binary("-", x, y), Num(F(-2))))
    value = exprs.at({"x": F(-7, 2), "y": F(1, 3)})
    assert value(node) == F(23, 12) and value.pair(node) == (23, 12)
    assert exprs.tables() == [{}, {}]
    assert exprs.at({"x": F(2), "y": F(1, 3)})(node) == F(-5, 6)
    assert exprs.tables() == [{1: F(5, 3)}, {1: F(-5, 6)}]


def test_tables_hold_fractions_and_bools_under_the_former_keys():
    x, y = Name("x"), Name("y")
    domains = {"x": [F(1), F(2)], "y": [F(1, 2), F(3)]}
    exprs = CompiledExprs(domains)
    seed = oracles.SeedCompiledExprs(domains)
    corpus = [Binary("*", x, y), Binary("<", Binary("+", x, y), Num(F(3))), Unary("-", y)]
    for e in corpus:
        assert exprs.add(e) == seed.add(e)
    for (_, value), (_, want) in zip(exprs.points(["x", "y"]), seed.points(["x", "y"])):
        for node in range(len(exprs._kind)):
            assert value.pair(node) is not None and value(node) == want(node)
    tables = exprs.tables()
    assert tables == seed.tables()
    assert tables[0] == {0: F(1, 2), 1: F(1), 2: F(3), 3: F(6)}
    assert {type(v) for t in tables for v in t.values()} == {F, bool}


def test_distribution_faults_on_pairs_equal_the_former_fraction_sums():
    rng = random.Random(11)
    values = [F(0), F(1), F(-1, 3), F(1, 3), F(2, 3), F(1, 2), F(3, 2), F(1, 10), F(9, 10), F(7, 4)]
    faults = set()
    for _ in range(3000):
        probs = [rng.choice(values) for _ in range(rng.randint(0, 4))]
        want = oracles.seed_distribution_fault(probs)
        assert oracles.distribution_fault(probs) == want
        assert pair_distribution_fault([(p.numerator, p.denominator) for p in probs]) == want
        faults.add(want and want.split()[0])
    assert faults == {None, "probability", "probabilities"}

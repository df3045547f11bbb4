"""Expression trees over program identifiers.

All numeric literals are exact rationals (``fractions.Fraction``); evaluation
is exact, and floats only appear once a caller converts results for a numeric
solver.  Expressions are immutable and compare structurally, which the
round-trip guarantee of the pretty printer relies on.

Each operator is written once, in one kernel on exact, normalized
``(numerator, denominator)`` pairs of ints and bools, with its sort and
division-by-zero checks.  Three traversals apply it: ``eval_pairs``, the
tree walk on pair environments (``eval_expr`` is that walk with its
environment and value converted from and to ``Fraction``s at the
boundary), ``fold``/``substitute``, which fold literal subtrees through
it, and ``CompiledExprs``, which evaluates many expressions at many points
of a parameter product and makes ``Fraction``s only where values leave it.
Each keeps only its own short-circuit of ``&`` and ``|``, so values, error
types and messages agree.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Container, Iterable, Iterator, Mapping, Optional, Sequence, Tuple, Union

Value = Union[Fraction, bool]


class ExprError(ValueError):
    """Base class for expression evaluation / analysis failures."""


class DivisionByZero(ExprError):
    pass


class UnboundName(ExprError):
    def __init__(self, name: str):
        super().__init__(f"unbound name '{name}'")
        self.name = name


class SortError(ExprError):
    """Boolean/arithmetic sort mismatch."""


@dataclass(frozen=True)
class Expr:
    """Base node; concrete nodes below."""


@dataclass(frozen=True)
class Num(Expr):
    value: Fraction

    def __post_init__(self):
        if not isinstance(self.value, Fraction):
            object.__setattr__(self, "value", Fraction(self.value))


@dataclass(frozen=True)
class BoolLit(Expr):
    value: bool

    def __post_init__(self):
        # equal literals must evaluate alike (``CompiledExprs`` shares one
        # node between equal subexpressions), so ``BoolLit(1)`` is ``TRUE``
        if not isinstance(self.value, bool):
            object.__setattr__(self, "value", bool(self.value))


@dataclass(frozen=True)
class Name(Expr):
    ident: str
    # source position, irrelevant for structural equality
    pos: Optional[tuple] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Unary(Expr):
    op: str  # '-' or '!'
    operand: Expr


@dataclass(frozen=True)
class Binary(Expr):
    op: str  # + - * / = != < <= > >= & |
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Extremum(Expr):
    op: str  # 'min' or 'max'
    args: tuple


TRUE = BoolLit(True)
FALSE = BoolLit(False)

_ARITH_BIN = {"+", "-", "*", "/"}
_CMP_BIN = {"=", "!=", "<", "<=", ">", ">="}


# ---------------------------------------------------------------------------
# the operator kernel, on values in pair form: a number is an exact,
# normalized ``(numerator, denominator)`` pair of ints with a positive
# denominator, a boolean is a bool.  ``e`` is the node applied: errors name it.

def _as_number(v, e: Expr):
    if v.__class__ is bool:
        raise SortError(f"expected a number, got a boolean in {to_text(e)}")
    return v


def _as_bool(v, e: Expr) -> bool:
    if v.__class__ is not bool:
        raise SortError(f"expected a boolean, got a number in {to_text(e)}")
    return v


def _unary_op(op: str, x, e: Expr):
    """``-x`` or ``!x``."""
    if op == "-":
        p, q = _as_number(x, e)
        return -p, q
    return not _as_bool(x, e)


_COMPARE = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def _binary_op(op: str, x, y, e: Expr):
    """An arithmetic or comparison operator: one ``gcd`` per arithmetic
    result, cross products for a comparison (the denominators are
    positive)."""
    if x.__class__ is bool or y.__class__ is bool:
        _as_number(x, e)
        _as_number(y, e)
    (p, q), (r, s) = x, y
    if op == "*":
        p, q = p * r, q * s
    elif op == "+":
        p, q = (p + r, q) if q == s else (p * s + r * q, q * s)
    elif op == "-":
        p, q = (p - r, q) if q == s else (p * s - r * q, q * s)
    elif op == "/":
        if r == 0:
            raise DivisionByZero(f"division by zero in {to_text(e)}")
        p, q = (p * s, q * r) if r > 0 else (-p * s, -q * r)
    else:
        return _COMPARE[op](p * s, r * q)
    d = gcd(p, q)
    return p // d, q // d


def _extremum_op(op: str, values: Iterable, e: Expr) -> Tuple[int, int]:
    """``min`` or ``max`` of ``values``, the first of equal ones.  They may
    be lazy: a sort error stops evaluation at its argument."""
    v = None
    for x in values:
        p, q = x = _as_number(x, e)
        if v is None or ((p * v[1] < v[0] * q) if op == "min" else (p * v[1] > v[0] * q)):
            v = x
    if v is None:
        return (min if op == "min" else max)(())  # raises as on an empty list
    return v


def _pair(v):
    """A value in pair form: a bool as it is, a number (``Fraction``, int
    or float) as its normalized ``(numerator, denominator)`` pair."""
    if v.__class__ is bool:
        return v
    if not isinstance(v, Fraction):
        v = Fraction(v)
    return v.numerator, v.denominator


def _fraction(v) -> Value:
    """A value in pair form as a ``Fraction`` or a bool."""
    return v if v.__class__ is bool else Fraction(*v)


def eval_pairs(expr: Expr, env: Mapping[str, object]):
    """Exact evaluation of ``expr`` in pair form: ``env`` maps names to
    pairs and bools, and the value is a pair or a bool.  ``&`` and ``|``
    short-circuit; a name missing from ``env`` raises ``UnboundName``."""
    if isinstance(expr, (Num, BoolLit)):
        return _pair(expr.value)
    if isinstance(expr, Name):
        try:
            return env[expr.ident]
        except KeyError:
            raise UnboundName(expr.ident) from None
    if isinstance(expr, Binary):
        op = expr.op
        if op == "&":
            return _as_bool(eval_pairs(expr.left, env), expr) and _as_bool(eval_pairs(expr.right, env), expr)
        if op == "|":
            return _as_bool(eval_pairs(expr.left, env), expr) or _as_bool(eval_pairs(expr.right, env), expr)
        return _binary_op(op, eval_pairs(expr.left, env), eval_pairs(expr.right, env), expr)
    if isinstance(expr, Unary):
        return _unary_op(expr.op, eval_pairs(expr.operand, env), expr)
    if isinstance(expr, Extremum):
        return _extremum_op(expr.op, (eval_pairs(a, env) for a in expr.args), expr)
    raise TypeError(f"not an expression: {expr!r}")


def pair_env(env: Mapping[str, Union[Fraction, int, bool]]) -> dict:
    """``env`` (name -> rational/int/bool) in pair form, for ``eval_pairs``."""
    return {name: _pair(v) for name, v in env.items()}


def eval_expr(expr: Expr, env: Mapping[str, Union[Fraction, int, bool]]) -> Value:
    """Exact evaluation of ``expr`` under ``env`` (name -> rational/int/bool):
    ``eval_pairs``, with ``env`` and the value converted at the boundary."""
    return _fraction(eval_pairs(expr, pair_env(env)))


def names_in(expr: Expr) -> frozenset:
    """All identifiers referenced by ``expr``."""
    out = set()
    stack = [expr]
    while stack:
        e = stack.pop()
        if isinstance(e, Name):
            out.add(e.ident)
        elif isinstance(e, Unary):
            stack.append(e.operand)
        elif isinstance(e, Binary):
            stack.append(e.left)
            stack.append(e.right)
        elif isinstance(e, Extremum):
            stack.extend(e.args)
    return frozenset(out)


def equality_conjuncts(guard: Expr, variables: Container[str]) -> Optional[dict]:
    """The state variables ``guard`` fixes to literals, as ``{v: c}`` for
    every ``v = c`` or ``c = v`` conjunct of its top-level ``&`` chain with
    ``v`` in ``variables``, or None when two conjuncts fix one variable to
    different values.

    ``guard`` is a guard of a well-formed program (``check_program``): it
    is boolean-sorted over bound names, so evaluating it can raise only at
    a division.  Only the prefix of the chain before the first conjunct
    with a division is read.  So wherever some ``v`` differs from its
    ``c``, the guard evaluates to False without raising, and a caller may
    skip it there; under None it is False everywhere.
    """
    fixed: dict = {}
    for c in _conjuncts(guard):
        if any(isinstance(e, Binary) and e.op == "/" for e in _nodes(c)):
            break
        if not (isinstance(c, Binary) and c.op == "="):
            continue
        if isinstance(c.right, Name) and isinstance(c.left, Num):
            var, value = c.right.ident, c.left.value
        elif isinstance(c.left, Name) and isinstance(c.right, Num):
            var, value = c.left.ident, c.right.value
        else:
            continue
        if var not in variables:
            continue
        if fixed.setdefault(var, value) != value:
            return None
    return fixed


def _conjuncts(expr: Expr) -> list:
    """The operands of a top-level ``&`` chain, in evaluation order."""
    if isinstance(expr, Binary) and expr.op == "&":
        return _conjuncts(expr.left) + _conjuncts(expr.right)
    return [expr]


def _nodes(expr: Expr) -> Iterator[Expr]:
    stack = [expr]
    while stack:
        e = stack.pop()
        yield e
        if isinstance(e, Unary):
            stack.append(e.operand)
        elif isinstance(e, Binary):
            stack.extend((e.left, e.right))
        elif isinstance(e, Extremum):
            stack.extend(e.args)


def fold(expr: Expr) -> Expr:
    """Fold literal-only subtrees into literals (bottom-up, exact):
    ``substitute`` with nothing to replace.

    The parser folds on construction, so programmatically built expressions
    should be folded too when textual round-tripping matters.  A subtree
    with nothing to fold is returned as it is, the same object.
    """
    return substitute(expr, {})


# one level of ``fold``: ``expr`` with its children replaced by the folded
# ones given, itself when they are the children it has and nothing folds.
# A node over literals is folded by ``eval_pairs``, except that a unary
# operator or ``min``/``max`` over a literal of the wrong sort is kept.


def _literal(v) -> Expr:
    return BoolLit(v) if v.__class__ is bool else Num(Fraction(*v))


def _fold_unary(expr: Unary, inner: Expr) -> Expr:
    if inner is not expr.operand:
        expr = Unary(expr.op, inner)
    if isinstance(inner, Num if expr.op == "-" else BoolLit):
        return _literal(eval_pairs(expr, {}))
    return expr


def _fold_binary(expr: Binary, left: Expr, right: Expr) -> Expr:
    if left is not expr.left or right is not expr.right:
        expr = Binary(expr.op, left, right)
    if isinstance(left, (Num, BoolLit)) and isinstance(right, (Num, BoolLit)):
        return _literal(eval_pairs(expr, {}))
    return expr


def _fold_extremum(expr: Extremum, args: tuple) -> Expr:
    if any(a is not b for a, b in zip(args, expr.args)):
        expr = Extremum(expr.op, args)
    if all(isinstance(a, Num) for a in args):
        return _literal(eval_pairs(expr, {}))
    return expr


def substitute(expr: Expr, env: Mapping[str, Union[Fraction, int, bool]]) -> Expr:
    """Replace bound names by literals and fold; unbound names stay symbolic.
    A subtree with nothing to replace or fold is returned as it is."""
    if isinstance(expr, (Num, BoolLit)):
        return expr
    if isinstance(expr, Name):
        if expr.ident in env:
            return _literal(_pair(env[expr.ident]))
        return expr
    if isinstance(expr, Unary):
        return _fold_unary(expr, substitute(expr.operand, env))
    if isinstance(expr, Binary):
        return _fold_binary(expr, substitute(expr.left, env), substitute(expr.right, env))
    if isinstance(expr, Extremum):
        return _fold_extremum(expr, tuple(substitute(a, env) for a in expr.args))
    raise TypeError(f"not an expression: {expr!r}")


def joint_valuations(
    names: Sequence[str], domains: Mapping[str, Sequence[Fraction]]
) -> Iterator[dict]:
    """Cartesian product over ``names`` (given order, declared value order)."""
    pools = [domains[n] for n in names]
    for combo in itertools.product(*pools):
        yield dict(zip(names, combo))


_LIT, _PARAM, _UNBOUND, _UNARY, _BINARY, _AND, _OR, _EXTREMUM = range(8)
_KIND = {"&": _AND, "|": _OR}


class CompiledExprs:
    """Expressions over a finite product of parameter values, compiled once
    into a hash-consed DAG and evaluated lazily at points of the product.

    ``add`` enters an expression bottom-up.  Each distinct subexpression is
    one node, keyed on its kind, its operator or literal and the ids of its
    children, which are canonical already, so no tree is hashed; equal
    subtrees anywhere share one node, and an expression object seen before
    is found by its ``id``.  A compound node keeps the parameters below it
    and their mixed-radix strides.  At a point, given as one value index
    per parameter, its value is stored under the int
    ``sum(index[p] * stride[p])``, so it is computed once per combination
    of the parameters it mentions, and only the values computed are held.

    Inside the DAG a number is an exact, normalized ``(numerator,
    denominator)`` pair of ints with a positive denominator, and a boolean
    is a bool.  Literals and constants become pairs when they are compiled,
    parameter values when the evaluator of a point is made.  Operators are
    the kernel's (``_binary_op``, ``_unary_op``, ``_extremum_op``), as in
    ``eval_pairs``.  Each compound node keeps one value table, in pair
    form, and an evaluator's ``pair`` gives a value as the DAG holds it.
    ``Fraction``s are made only where a caller asks for them: an evaluator
    called with a node, and ``tables``, give ``Fraction``s and bools, made
    anew on each call.

    Evaluation is exact and lazy: ``&`` and ``|`` short-circuit and
    ``min``/``max`` stop at a sort error, as in ``eval_expr``.  An error is
    never stored: it is raised, each time, by the node being evaluated,
    through the kernel, so its type and message are the ones ``eval_expr``
    gives (equal expressions render alike).  Names bound in ``constants``
    are literals; a name that is neither raises ``UnboundName`` when it is
    reached.  An evaluator (``points``, ``at``) evaluates the nodes added
    before it.
    """

    def __init__(
        self,
        domains: Mapping[str, Sequence[Value]],
        constants: Optional[Mapping[str, Union[Fraction, int, bool]]] = None,
    ):
        self._names = list(domains)
        self._domains = [list(domains[p]) for p in self._names]
        self._pairs = [[_pair(v) for v in d] for d in self._domains]
        self._position = {p: i for i, p in enumerate(self._names)}
        self._constants = constants or {}
        self._canon: dict = {}  # (kind, op or literal, child ids) -> node
        self._by_id: dict = {}  # id(expr) -> (node, expr); the expr pins its id
        # per node: kind, representative expression, children, datum (a
        # literal's pair or bool, a parameter's position, an unbound name or
        # a compound node's operator), parameter group and value table
        # (pairs and bools by key)
        self._kind: list = []
        self._expr: list = []
        self._args: list = []
        self._datum: list = []
        self._group: list = []
        self._tables: list = []
        self._groups: dict = {}  # parameter positions -> group
        self._positions: list = []  # per group: its parameter positions
        self._strides: list = []  # per group: the stride of each position

    def add(self, e: Expr) -> int:
        """The node of ``e``, compiling what is new below it."""
        hit = self._by_id.get(id(e))
        if hit is not None:
            return hit[0]
        if isinstance(e, Num):
            key = (_LIT, "num", e.value)
        elif isinstance(e, BoolLit):
            key = (_LIT, "bool", e.value)
        elif isinstance(e, Name):
            key = (_PARAM, e.ident)
        elif isinstance(e, Unary):
            key = (_UNARY, e.op, self.add(e.operand))
        elif isinstance(e, Binary):
            key = (_KIND.get(e.op, _BINARY), e.op, self.add(e.left), self.add(e.right))
        elif isinstance(e, Extremum):
            key = (_EXTREMUM, e.op, tuple(self.add(a) for a in e.args))
        else:
            raise TypeError(f"not an expression: {e!r}")
        node = self._canon.get(key)
        if node is None:
            node = self._canon[key] = self._new(e, key)
        self._by_id[id(e)] = (node, e)
        return node

    def _new(self, e: Expr, key: tuple) -> int:
        kind, group, table, args = key[0], -1, None, ()
        if kind == _LIT:
            datum = _pair(e.value)
        elif kind == _PARAM:
            if e.ident in self._position:
                datum = self._position[e.ident]
            elif e.ident in self._constants:
                kind, datum = _LIT, _pair(self._constants[e.ident])
            else:
                kind, datum = _UNBOUND, e.ident
        else:
            args = key[2] if kind == _EXTREMUM else key[2:]
            datum, table, group = e.op, {}, self._group_of(args)
        self._kind.append(kind)
        self._expr.append(e)
        self._args.append(args)
        self._datum.append(datum)
        self._group.append(group)
        self._tables.append(table)
        return len(self._kind) - 1

    def _group_of(self, args: tuple) -> int:
        """The group of the parameters below the children ``args``."""
        below = set()
        for a in args:
            if self._kind[a] == _PARAM:
                below.add(self._datum[a])
            elif self._group[a] >= 0:
                below.update(self._positions[self._group[a]])
        positions = tuple(sorted(below))
        group = self._groups.get(positions)
        if group is None:
            group = self._groups[positions] = len(self._positions)
            strides, stride = [], 1
            for p in positions:
                strides.append(stride)
                stride *= len(self._domains[p])
            self._positions.append(positions)
            self._strides.append(tuple(strides))
        return group

    def tables(self) -> list:
        """The value table of every compound node, keyed by the mixed-radix
        index of its parameters' values, with the values an evaluator gives
        (``Fraction``s and bools)."""
        return [
            {key: _fraction(v) for key, v in table.items()}
            for table in self._tables if table is not None
        ]

    def expr(self, node: int) -> Expr:
        """The first expression entered as ``node``."""
        return self._expr[node]

    def points(self, names: Sequence[str]) -> Iterator[Tuple[dict, "_Point"]]:
        """Every joint valuation of the parameters ``names``, in
        ``joint_valuations`` order, with the evaluator of nodes there.  A
        parameter outside ``names`` is unbound."""
        positions = [self._position[p] for p in names]
        domains = [self._domains[p] for p in positions]
        pairs = [self._pairs[p] for p in positions]
        index = [0] * len(self._names)
        for combo in itertools.product(*(range(len(d)) for d in domains)):
            held: list = [None] * len(self._names)
            row = {}
            for name, p, domain, held_domain, i in zip(names, positions, domains, pairs, combo):
                index[p] = i
                row[name] = domain[i]
                held[p] = held_domain[i]
            yield row, _Point(self, tuple(index), held, self._tables)

    def at(self, valuation: Mapping[str, Value]) -> "_Point":
        """The evaluator of nodes under ``valuation``, which binds every
        parameter.  A value outside its parameter's domain has no index:
        then nothing is stored, and values are kept for this call only."""
        values = [valuation[name] for name in self._names]
        held = [_pair(v) for v in values]
        if all(v in domain for v, domain in zip(values, self._domains)):
            index = tuple(domain.index(v) for v, domain in zip(values, self._domains))
            return _Point(self, index, held, self._tables)
        tables = [None if t is None else {} for t in self._tables]
        return _Point(self, (0,) * len(values), held, tables)


class _Point:
    """The nodes of a ``CompiledExprs`` at one point of the product: called
    with a node, its value as a ``Fraction`` or a bool; ``pair`` gives it as
    the DAG holds it.  An object rather than a closure: a recursive closure
    is a reference cycle, which would hold every table until the garbage
    collector ran."""

    __slots__ = ("kinds", "exprs", "args", "data", "groups", "positions", "strides",
                 "names", "index", "pairs", "tables", "keys")

    def __init__(self, dag: CompiledExprs, index: tuple, pairs: list, tables: list):
        self.kinds, self.exprs, self.args = dag._kind, dag._expr, dag._args
        self.data, self.groups = dag._datum, dag._group
        self.positions, self.strides = dag._positions, dag._strides
        self.names = dag._names
        self.index, self.pairs, self.tables = index, pairs, tables
        self.keys: list = [None] * len(dag._strides)  # per group, on first use

    def _key(self, g: int) -> int:
        indices = map(self.index.__getitem__, self.positions[g])
        key = self.keys[g] = sum(map(operator.mul, indices, self.strides[g]))
        return key

    def __call__(self, n: int) -> Value:
        return _fraction(self.pair(n))

    def pair(self, n: int):
        """The value of node ``n`` as the DAG holds it: a normalized
        ``(numerator, denominator)`` pair, or a bool."""
        kind = self.kinds[n]
        if kind == _LIT:
            return self.data[n]
        if kind == _PARAM:
            v = self.pairs[self.data[n]]
            if v is None:
                raise UnboundName(self.names[self.data[n]])
            return v
        if kind == _UNBOUND:
            raise UnboundName(self.data[n])
        key = self.keys[self.groups[n]]
        if key is None:
            key = self._key(self.groups[n])
        table = self.tables[n]
        v = table.get(key)
        if v is not None:
            return v
        op, a, e = self.data[n], self.args[n], self.exprs[n]
        if kind == _BINARY:
            v = _binary_op(op, self.pair(a[0]), self.pair(a[1]), e)
        elif kind == _UNARY:
            v = _unary_op(op, self.pair(a[0]), e)
        elif kind == _AND:
            v = _as_bool(self.pair(a[0]), e) and _as_bool(self.pair(a[1]), e)
        elif kind == _OR:
            v = _as_bool(self.pair(a[0]), e) or _as_bool(self.pair(a[1]), e)
        else:
            v = _extremum_op(op, map(self.pair, a), e)
        table[key] = v
        return v


def expr_value_set(expr: Expr, param_domains: Mapping[str, Sequence[Fraction]]) -> list:
    """The finite set of values ``expr`` can take over its parameters.

    Enumerates the joint valuations of the parameters occurring in ``expr``,
    deduplicates, and returns the values in ascending order.  Raises if the
    expression mentions a name that is not a declared parameter.
    """
    free = names_in(expr)
    missing = sorted(free - set(param_domains))
    if missing:
        raise ExprError(
            f"expression {to_text(expr)} references non-parameter name(s) {', '.join(missing)}"
        )
    exprs = CompiledExprs({n: param_domains[n] for n in param_domains if n in free})
    node = exprs.add(expr)
    points = exprs.points([n for n in param_domains if n in free])
    return sorted({_as_number(value(node), expr) for _, value in points})


# ---------------------------------------------------------------------------
# sort (type) inference

SORT_NUM = "num"
SORT_BOOL = "bool"


def infer_sort(expr: Expr, name_sorts: Optional[Mapping[str, str]] = None) -> str:
    """Return 'num' or 'bool'; raise SortError/UnboundName on inconsistency.

    ``name_sorts`` maps identifiers to their sort; by default every known
    identifier is numeric (variables, parameters and constants all are).
    Unknown identifiers raise UnboundName when ``name_sorts`` is given.
    """
    def sort_of(e: Expr) -> str:
        if isinstance(e, Num):
            return SORT_NUM
        if isinstance(e, BoolLit):
            return SORT_BOOL
        if isinstance(e, Name):
            if name_sorts is None:
                return SORT_NUM
            try:
                return name_sorts[e.ident]
            except KeyError:
                raise UnboundName(e.ident) from None
        if isinstance(e, Unary):
            want = SORT_NUM if e.op == "-" else SORT_BOOL
            if sort_of(e.operand) != want:
                raise SortError(f"operand of '{e.op}' has the wrong sort in {to_text(e)}")
            return want
        if isinstance(e, Binary):
            ls, rs = sort_of(e.left), sort_of(e.right)
            if e.op in _ARITH_BIN:
                if ls != SORT_NUM or rs != SORT_NUM:
                    raise SortError(f"arithmetic on non-numbers in {to_text(e)}")
                return SORT_NUM
            if e.op in _CMP_BIN:
                if ls != SORT_NUM or rs != SORT_NUM:
                    raise SortError(f"comparison of non-numbers in {to_text(e)}")
                return SORT_BOOL
            if ls != SORT_BOOL or rs != SORT_BOOL:
                raise SortError(f"boolean connective on non-booleans in {to_text(e)}")
            return SORT_BOOL
        if isinstance(e, Extremum):
            for a in e.args:
                if sort_of(a) != SORT_NUM:
                    raise SortError(f"min/max over non-numbers in {to_text(e)}")
            return SORT_NUM
        raise TypeError(f"not an expression: {e!r}")

    return sort_of(expr)


# ---------------------------------------------------------------------------
# printing

def format_fraction(x: Fraction) -> str:
    """Exact textual form: integer, finite decimal, or 'n/d'."""
    if x.denominator == 1:
        return str(x.numerator)
    d = x.denominator
    e2 = e5 = 0
    while d % 2 == 0:
        d //= 2
        e2 += 1
    while d % 5 == 0:
        d //= 5
        e5 += 1
    if d == 1:
        k = max(e2, e5)
        digits = abs(x.numerator) * 10 ** k // x.denominator
        s = str(digits).rjust(k + 1, "0")
        body = s[:-k] + "." + s[-k:]
        return ("-" if x.numerator < 0 else "") + body
    return f"{x.numerator}/{x.denominator}"


# precedence levels, loosest first
_PREC = {"|": 1, "&": 2}
_PREC.update({op: 4 for op in _CMP_BIN})
_PREC.update({"+": 5, "-": 5})
_PREC.update({"*": 6, "/": 6})
_PREC_NOT = 3
_PREC_NEG = 7
_PREC_ATOM = 9


def to_text(expr: Expr) -> str:
    """Render an expression; the parser accepts the output verbatim."""
    text, _ = _render(expr)
    return text


def _render(e: Expr) -> tuple:
    if isinstance(e, Num):
        s = format_fraction(e.value)
        # negative literals and fraction literals bind like unary minus / division
        if s.startswith("-"):
            return s, _PREC_NEG
        if "/" in s:
            return s, _PREC["/"]
        return s, _PREC_ATOM
    if isinstance(e, BoolLit):
        return ("true" if e.value else "false"), _PREC_ATOM
    if isinstance(e, Name):
        return e.ident, _PREC_ATOM
    if isinstance(e, Unary):
        inner, prec = _render(e.operand)
        myprec = _PREC_NEG if e.op == "-" else _PREC_NOT
        if prec < myprec:
            inner = f"({inner})"
        return f"{e.op}{inner}", myprec
    if isinstance(e, Binary):
        myprec = _PREC[e.op]
        lt, lp = _render(e.left)
        rt, rp = _render(e.right)
        # left associative: right operand needs strictly higher precedence;
        # comparisons do not chain, parenthesize both sides when equal
        if lp < myprec or (lp == myprec and e.op in _CMP_BIN):
            lt = f"({lt})"
        if rp < myprec or (rp == myprec and e.op not in ("&", "|")):
            rt = f"({rt})"
        return f"{lt} {e.op} {rt}", myprec
    if isinstance(e, Extremum):
        parts = ", ".join(_render(a)[0] for a in e.args)
        return f"{e.op}({parts})", _PREC_ATOM
    raise TypeError(f"not an expression: {e!r}")


def conjoin(*parts: Expr) -> Expr:
    """Conjunction of the given boolean expressions, dropping literal trues."""
    terms = [p for p in parts if p != TRUE]
    if not terms:
        return TRUE
    out = terms[0]
    for t in terms[1:]:
        out = Binary("&", out, t)
    return out

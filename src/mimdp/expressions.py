"""Expression trees over program identifiers.

All numeric literals are exact rationals (``fractions.Fraction``); evaluation
is exact, and floats only appear once a caller converts results for a numeric
solver.  Expressions are immutable and compare structurally, which the
round-trip guarantee of the pretty printer relies on.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence, Tuple, Union

Rational = Fraction
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
_BOOL_BIN = {"&", "|"}


def num(x) -> Num:
    return Num(Fraction(x))


def _as_fraction(v: Value, ctx: Expr) -> Fraction:
    if isinstance(v, bool):
        raise SortError(f"expected a number, got a boolean in {to_text(ctx)}")
    return v


def _as_bool(v: Value, ctx: Expr) -> bool:
    if not isinstance(v, bool):
        raise SortError(f"expected a boolean, got a number in {to_text(ctx)}")
    return v


def _lookup(expr: Name, env: Mapping[str, Union[Fraction, int, bool]]) -> Value:
    try:
        v = env[expr.ident]
    except KeyError:
        raise UnboundName(expr.ident) from None
    return v if isinstance(v, (Fraction, bool)) else Fraction(v)


def _unary(expr: Unary, v: Value) -> Value:
    return -_as_fraction(v, expr) if expr.op == "-" else not _as_bool(v, expr)


_OPS = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def _binary(expr: Binary, lv: Value, rv: Value) -> Value:
    """An arithmetic or comparison operator applied to evaluated operands."""
    a, b = _as_fraction(lv, expr), _as_fraction(rv, expr)
    if expr.op == "/" and b == 0:
        raise DivisionByZero(f"division by zero in {to_text(expr)}")
    return _OPS[expr.op](a, b)


def _extremum(expr: Extremum, values: Iterable[Value]) -> Fraction:
    # ``values`` may be lazy: a sort error stops evaluation at its argument
    vals = [_as_fraction(v, expr) for v in values]
    return min(vals) if expr.op == "min" else max(vals)


def eval_expr(expr: Expr, env: Mapping[str, Union[Fraction, int, bool]]) -> Value:
    """Exact evaluation of ``expr`` under ``env`` (name -> rational/int/bool)."""
    if isinstance(expr, (Num, BoolLit)):
        return expr.value
    if isinstance(expr, Name):
        return _lookup(expr, env)
    if isinstance(expr, Unary):
        return _unary(expr, eval_expr(expr.operand, env))
    if isinstance(expr, Binary):
        op = expr.op
        if op == "&":
            return _as_bool(eval_expr(expr.left, env), expr) and _as_bool(eval_expr(expr.right, env), expr)
        if op == "|":
            return _as_bool(eval_expr(expr.left, env), expr) or _as_bool(eval_expr(expr.right, env), expr)
        return _binary(expr, eval_expr(expr.left, env), eval_expr(expr.right, env))
    if isinstance(expr, Extremum):
        return _extremum(expr, (eval_expr(a, env) for a in expr.args))
    raise TypeError(f"not an expression: {expr!r}")


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


def equality_conjuncts(
    guard: Expr, variables: Iterable[str], constants: Iterable[str]
) -> Optional[dict]:
    """The state variables ``guard`` fixes to literals, as ``{v: c}`` for
    every ``v = c`` or ``c = v`` conjunct of its top-level ``&`` chain, or
    None when two conjuncts fix one variable to different values.

    Only the prefix of the chain that cannot raise is read: conjuncts free
    of division that sort-check as booleans over ``variables`` and
    ``constants`` (all numeric).  So wherever some ``v`` differs from its
    ``c``, the guard evaluates to False without raising, and a caller may
    skip it there; under None it is False everywhere.
    """
    variables = set(variables)
    sorts = {n: SORT_NUM for n in itertools.chain(variables, constants)}
    fixed: dict = {}
    for c in _conjuncts(guard):
        if any(isinstance(e, Binary) and e.op == "/" for e in _nodes(c)):
            break
        try:
            if infer_sort(c, sorts) != SORT_BOOL:
                break
        except ExprError:
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
    """Fold literal-only subtrees into literals (bottom-up, exact).

    The parser folds on construction, so programmatically built expressions
    should be folded too when textual round-tripping matters.  A subtree
    with nothing to fold is returned as it is, the same object.
    """
    if isinstance(expr, (Num, BoolLit, Name)):
        return expr
    if isinstance(expr, Unary):
        return _fold_unary(expr, fold(expr.operand))
    if isinstance(expr, Binary):
        return _fold_binary(expr, fold(expr.left), fold(expr.right))
    if isinstance(expr, Extremum):
        return _fold_extremum(expr, tuple(fold(a) for a in expr.args))
    raise TypeError(f"not an expression: {expr!r}")


# one level of ``fold``: ``expr`` with its children replaced by the folded
# ones given, itself when they are the children it has and nothing folds


def _fold_unary(expr: Unary, inner: Expr) -> Expr:
    if expr.op == "-" and isinstance(inner, Num):
        return Num(-inner.value)
    if expr.op == "!" and isinstance(inner, BoolLit):
        return BoolLit(not inner.value)
    return expr if inner is expr.operand else Unary(expr.op, inner)


def _fold_binary(expr: Binary, left: Expr, right: Expr) -> Expr:
    if left is not expr.left or right is not expr.right:
        expr = Binary(expr.op, left, right)
    if isinstance(left, (Num, BoolLit)) and isinstance(right, (Num, BoolLit)):
        v = eval_expr(expr, {})
        return Num(v) if isinstance(v, Fraction) else BoolLit(v)
    return expr


def _fold_extremum(expr: Extremum, args: tuple) -> Expr:
    if all(isinstance(a, Num) for a in args):
        vals = [a.value for a in args]
        return Num(min(vals) if expr.op == "min" else max(vals))
    if all(a is b for a, b in zip(args, expr.args)):
        return expr
    return Extremum(expr.op, args)


def substitute(expr: Expr, env: Mapping[str, Union[Fraction, int, bool]]) -> Expr:
    """Replace bound names by literals and fold; unbound names stay symbolic.
    A subtree with nothing to replace or fold is returned as it is."""
    if isinstance(expr, (Num, BoolLit)):
        return expr
    if isinstance(expr, Name):
        if expr.ident in env:
            v = env[expr.ident]
            if isinstance(v, bool):
                return BoolLit(v)
            return Num(v if isinstance(v, Fraction) else Fraction(v))
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

    Evaluation is exact and lazy: ``&`` and ``|`` short-circuit and
    ``min``/``max`` stop at a sort error, as in ``eval_expr``.  An error is
    never stored: it is raised, each time, by the node being evaluated
    (equal expressions render alike, so its message is the one
    ``eval_expr`` gives).  Names bound in ``constants`` are literals; a
    name that is neither raises ``UnboundName`` when it is reached.  An
    evaluator (``points``, ``at``) evaluates the nodes added before it.
    """

    def __init__(
        self,
        domains: Mapping[str, Sequence[Value]],
        constants: Optional[Mapping[str, Union[Fraction, int, bool]]] = None,
    ):
        self._names = list(domains)
        self._domains = [list(domains[p]) for p in self._names]
        self._position = {p: i for i, p in enumerate(self._names)}
        self._constants = constants or {}
        self._canon: dict = {}  # (kind, op or literal, child ids) -> node
        self._by_id: dict = {}  # id(expr) -> (node, expr); the expr pins its id
        # per node: kind, representative expression, children, literal value
        # or parameter position or name, parameter group, value table
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
        kind, group, table = key[0], -1, None
        if kind == _LIT:
            args, datum = (), e.value
        elif kind == _PARAM:
            args = ()
            if e.ident in self._position:
                datum = self._position[e.ident]
            elif e.ident in self._constants:
                kind, datum = _LIT, _lookup(e, self._constants)
            else:
                kind, datum = _UNBOUND, e.ident
        else:
            args = key[2] if kind == _EXTREMUM else key[2:]
            datum, table, group = None, {}, self._group_of(args)
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
        index of its parameters' values."""
        return [t for t in self._tables if t is not None]

    def expr(self, node: int) -> Expr:
        """The first expression entered as ``node``."""
        return self._expr[node]

    def points(self, names: Sequence[str]) -> Iterator[Tuple[dict, Callable[[int], Value]]]:
        """Every joint valuation of the parameters ``names``, in
        ``joint_valuations`` order, with the evaluator of nodes there.  A
        parameter outside ``names`` is unbound."""
        positions = [self._position[p] for p in names]
        domains = [self._domains[p] for p in positions]
        index = [0] * len(self._names)
        for combo in itertools.product(*(range(len(d)) for d in domains)):
            values: list = [None] * len(self._names)
            row = {}
            for name, p, domain, i in zip(names, positions, domains, combo):
                index[p] = i
                values[p] = row[name] = domain[i]
            yield row, self._evaluator(tuple(index), values, self._tables)

    def at(self, valuation: Mapping[str, Value]) -> Callable[[int], Value]:
        """The evaluator of nodes under ``valuation``, which binds every
        parameter.  A value outside its parameter's domain has no index:
        then nothing is stored, and values are kept for this call only."""
        values = [valuation[name] for name in self._names]
        if all(v in domain for v, domain in zip(values, self._domains)):
            index = tuple(domain.index(v) for v, domain in zip(values, self._domains))
            return self._evaluator(index, values, self._tables)
        scratch = [None if t is None else {} for t in self._tables]
        return self._evaluator((0,) * len(values), values, scratch)

    def _evaluator(self, index: tuple, values: list, tables: list) -> Callable[[int], Value]:
        return _Point(self, index, values, tables).value


class _Point:
    """The nodes of a ``CompiledExprs`` at one point of the product.  A
    method rather than a closure: a recursive closure is a reference cycle,
    which would hold every table until the garbage collector ran."""

    __slots__ = ("kinds", "exprs", "args", "data", "groups", "positions", "strides",
                 "names", "index", "values", "tables", "keys")

    def __init__(self, dag: CompiledExprs, index: tuple, values: list, tables: list):
        self.kinds, self.exprs, self.args = dag._kind, dag._expr, dag._args
        self.data, self.groups = dag._datum, dag._group
        self.positions, self.strides = dag._positions, dag._strides
        self.names = dag._names
        self.index, self.values, self.tables = index, values, tables
        self.keys: list = [None] * len(dag._strides)  # per group, on first use

    def value(self, n: int) -> Value:
        kind = self.kinds[n]
        if kind == _LIT:
            return self.data[n]
        if kind == _PARAM:
            v = self.values[self.data[n]]
            if v is None:
                raise UnboundName(self.names[self.data[n]])
            return v
        if kind == _UNBOUND:
            raise UnboundName(self.data[n])
        g = self.groups[n]
        key = self.keys[g]
        if key is None:
            indices = map(self.index.__getitem__, self.positions[g])
            key = self.keys[g] = sum(map(operator.mul, indices, self.strides[g]))
        table = self.tables[n]
        v = table.get(key)
        if v is None:
            e, a = self.exprs[n], self.args[n]
            if kind == _BINARY:
                v = _binary(e, self.value(a[0]), self.value(a[1]))
            elif kind == _UNARY:
                v = _unary(e, self.value(a[0]))
            elif kind == _AND:
                v = _as_bool(self.value(a[0]), e) and _as_bool(self.value(a[1]), e)
            elif kind == _OR:
                v = _as_bool(self.value(a[0]), e) or _as_bool(self.value(a[1]), e)
            else:
                v = _extremum(e, map(self.value, a))
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
    return sorted({_as_fraction(value(node), expr) for _, value in points})


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

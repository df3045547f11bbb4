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
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union

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
        # equal literals must evaluate alike (``MemoEvaluator`` shares the
        # tables of equal subexpressions), so ``BoolLit(1)`` is ``TRUE``
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
    should be folded too when textual round-tripping matters.
    """
    if isinstance(expr, (Num, BoolLit, Name)):
        return expr
    if isinstance(expr, Unary):
        inner = fold(expr.operand)
        if expr.op == "-" and isinstance(inner, Num):
            return Num(-inner.value)
        if expr.op == "!" and isinstance(inner, BoolLit):
            return BoolLit(not inner.value)
        return Unary(expr.op, inner)
    if isinstance(expr, Binary):
        left, right = fold(expr.left), fold(expr.right)
        folded = Binary(expr.op, left, right)
        if isinstance(left, (Num, BoolLit)) and isinstance(right, (Num, BoolLit)):
            v = eval_expr(folded, {})
            return Num(v) if isinstance(v, Fraction) else BoolLit(v)
        return folded
    if isinstance(expr, Extremum):
        args = tuple(fold(a) for a in expr.args)
        if all(isinstance(a, Num) for a in args):
            vals = [a.value for a in args]
            return Num(min(vals) if expr.op == "min" else max(vals))
        return Extremum(expr.op, args)
    raise TypeError(f"not an expression: {expr!r}")


def substitute(expr: Expr, env: Mapping[str, Union[Fraction, int, bool]]) -> Expr:
    """Replace bound names by literals and fold; unbound names stay symbolic."""
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
        return fold(Unary(expr.op, substitute(expr.operand, env)))
    if isinstance(expr, Binary):
        return fold(Binary(expr.op, substitute(expr.left, env), substitute(expr.right, env)))
    if isinstance(expr, Extremum):
        return fold(Extremum(expr.op, tuple(substitute(a, env) for a in expr.args)))
    raise TypeError(f"not an expression: {expr!r}")


def joint_valuations(
    names: Sequence[str], domains: Mapping[str, Sequence[Fraction]]
) -> Iterator[dict]:
    """Cartesian product over ``names`` (given order, declared value order)."""
    pools = [domains[n] for n in names]
    for combo in itertools.product(*pools):
        yield dict(zip(names, combo))


class MemoEvaluator:
    """Evaluate expressions repeatedly over a product of parameter values.

    Every subexpression is memoized on the values of the parameters it
    actually mentions, so shared factors (a polynomial in two of four
    parameters, say) are computed once per relevant combination rather than
    once per full valuation.  Tables are keyed on the subexpression's
    structure, so equal subtrees anywhere in the evaluated expressions share
    one table.  Equal expressions evaluate alike (source positions are not
    part of equality), and an error is never stored: it is raised, each
    time, by the node being evaluated.
    """

    def __init__(self, param_order: Sequence[str]):
        self._rank = {p: i for i, p in enumerate(param_order)}
        self._tables: dict = {}  # subexpression -> (names, value table)
        # id(node) -> (names, value table, node): skips hashing a tree on
        # every visit; the node reference pins its id
        self._by_id: dict = {}

    def _entry(self, e: Expr):
        entry = self._by_id.get(id(e))
        if entry is None:
            shared = self._tables.get(e)
            if shared is None:
                names = sorted(names_in(e) & self._rank.keys(), key=self._rank.__getitem__)
                shared = self._tables[e] = (tuple(names), {})
            entry = self._by_id[id(e)] = (*shared, e)
        return entry

    def eval(self, e: Expr, u: Mapping[str, Fraction]) -> Value:
        if isinstance(e, (Num, BoolLit)):
            return e.value
        if isinstance(e, Name):
            return _lookup(e, u)
        names, table, _ = self._entry(e)
        key = tuple(u[p] for p in names)
        v = table.get(key)
        if v is None:
            v = self._apply(e, u)
            table[key] = v
        return v

    def _apply(self, e: Expr, u) -> Value:
        if isinstance(e, Unary):
            return _unary(e, self.eval(e.operand, u))
        if isinstance(e, Binary):
            op = e.op
            if op == "&":
                return _as_bool(self.eval(e.left, u), e) and _as_bool(self.eval(e.right, u), e)
            if op == "|":
                return _as_bool(self.eval(e.left, u), e) or _as_bool(self.eval(e.right, u), e)
            return _binary(e, self.eval(e.left, u), self.eval(e.right, u))
        if isinstance(e, Extremum):
            return _extremum(e, (self.eval(a, u) for a in e.args))
        raise TypeError(f"not an expression: {e!r}")


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
    occurring = [n for n in param_domains if n in free]
    values = set()
    for u in joint_valuations(occurring, param_domains):
        values.add(_as_fraction(eval_expr(expr, u), expr))
    return sorted(values)


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

"""Front-end for the guarded-command modelling language (``.mgcl``).

Hand-rolled lexer and recursive-descent parser.  Numeric literals become
exact rationals.  Literal-only arithmetic is folded at parse time, so
``5/18`` is the rational 5/18, which is what lets the pretty printer
round-trip values whose denominator is not a power of ten.

Syntax summary::

    const c = 0.5;                      // rational constant
    param p in {0.4, 0.6};              // finite-valued parameter
    module name
      x : [0..7] init 0;                // bounded integer variable
      [act] guard -> e1: (x'=1) + e2: (x'=2);
      [] guard -> true;                 // internal action, self-loop
    endmodule
    rewards
      guard : costExpr;
    endrewards
    label "goal" = x = 7;
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import List

from .expressions import (
    Binary,
    BoolLit,
    Expr,
    ExprError,
    Extremum,
    Name,
    Num,
    TRUE,
    Unary,
    _fold_binary,
    _fold_extremum,
    _fold_unary,
)
from .program import (
    CommandDecl,
    ModuleDecl,
    Program,
    RewardDecl,
    VarDecl,
    program_errors,
)

KEYWORDS = {
    "const",
    "param",
    "module",
    "endmodule",
    "rewards",
    "endrewards",
    "label",
    "init",
    "in",
    "true",
    "false",
    "min",
    "max",
}


class ParseError(ValueError):
    """Syntax or resolution failure, with a source position."""

    def __init__(self, message: str, line: int, col: int, expected=None, diagnostics=None):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col
        self.expected = tuple(expected or ())
        self.diagnostics = list(diagnostics or [])


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>[ \t\r]+)
  | (?P<comment>//[^\n]*)
  | (?P<newline>\n)
  | (?P<number>\d+(\.\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<string>"[^"\n]*")
  | (?P<sym>->|\.\.|!=|<=|>=|[{}()\[\];:,'=<>+\-*/&|!])
    """,
    re.VERBOSE,
)


class Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col

    def __repr__(self):
        return f"Token({self.kind}, {self.text!r}, {self.line}:{self.col})"


def tokenize(text: str) -> List[Token]:
    tokens = []
    line, col, pos = 1, 1, 0
    n = len(text)
    while pos < n:
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        lexeme = m.group()
        if kind == "newline":
            line += 1
            col = 1
        elif kind in ("ws", "comment"):
            col += len(lexeme)
        else:
            if kind == "ident" and lexeme in KEYWORDS:
                tokens.append(Token(lexeme, lexeme, line, col))
            elif kind == "sym":
                tokens.append(Token(lexeme, lexeme, line, col))
            else:
                tokens.append(Token(kind, lexeme, line, col))
            col += len(lexeme)
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
    return tokens


# The parser's operands come out folded already, so folding the one new node
# folds the whole expression; ``fold`` would walk the operands again, which
# makes a chain of n operators cost O(n^2).

def _binary_node(op: Token, left: Expr, right: Expr) -> Expr:
    """The folded node of the operator token ``op``; a fold that fails
    (``1 + true``, ``1 / 0``) is a ``ParseError`` at the operator."""
    try:
        return _fold_binary(Binary(op.kind, left, right), left, right)
    except ExprError as e:
        raise ParseError(str(e), op.line, op.col) from None


def _unary_node(op: str, operand: Expr) -> Expr:
    return _fold_unary(Unary(op, operand), operand)


class _Parser:
    def __init__(self, tokens: List[Token]):
        self.tokens = tokens
        self.i = 0

    # --- token plumbing ---------------------------------------------------

    def peek(self, k=0) -> Token:
        return self.tokens[min(self.i + k, len(self.tokens) - 1)]

    def advance(self) -> Token:
        tok = self.tokens[self.i]
        if tok.kind != "eof":
            self.i += 1
        return tok

    def at(self, *kinds) -> bool:
        return self.peek().kind in kinds

    def expect(self, kind, what=None) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            found = repr(tok.text) if tok.text else "end of input"
            raise ParseError(
                f"expected {what or kind}, found {found}",
                tok.line,
                tok.col,
                expected=(kind,),
            )
        return self.advance()

    def fail(self, message, expected=()):
        tok = self.peek()
        raise ParseError(message, tok.line, tok.col, expected=expected)

    # --- program structure ------------------------------------------------

    def parse_program(self) -> Program:
        constants: dict = {}
        parameters: dict = {}
        modules: list = []
        rewards: list = []
        labels: dict = {}

        def declare(table, name_tok, what):
            if name_tok.text in table:
                raise ParseError(
                    f"duplicate {what} declaration '{name_tok.text}'",
                    name_tok.line,
                    name_tok.col,
                )

        while not self.at("eof"):
            if self.at("const"):
                self.advance()
                name = self.expect("ident", "constant name")
                declare(constants, name, "constant")
                self.expect("=")
                constants[name.text] = self._const_number(constants)
                self.expect(";")
            elif self.at("param"):
                self.advance()
                name = self.expect("ident", "parameter name")
                declare(parameters, name, "parameter")
                self.expect("in")
                self.expect("{")
                values = [self._const_number(constants)]
                while self.at(","):
                    self.advance()
                    values.append(self._const_number(constants))
                self.expect("}")
                self.expect(";")
                parameters[name.text] = tuple(values)
            elif self.at("label"):
                self.advance()
                name = self.expect("string", "label name")
                text = name.text[1:-1]
                if text in labels:
                    raise ParseError(f"duplicate label \"{text}\"", name.line, name.col)
                self.expect("=")
                labels[text] = self.expression()
                self.expect(";")
            elif self.at("module"):
                modules.append(self._module(constants))
            elif self.at("rewards"):
                rewards.extend(self._rewards())
            else:
                self.fail(
                    f"expected a declaration, found {self.peek().text!r}",
                    expected=("const", "param", "label", "module", "rewards"),
                )

        seen_modules = set()
        for m in modules:
            if m.name in seen_modules:
                raise ParseError(f"duplicate module '{m.name}'", 1, 1)
            seen_modules.add(m.name)

        return Program(
            constants=constants,
            parameters=parameters,
            modules=tuple(modules),
            rewards=tuple(rewards),
            labels=labels,
        )

    def _const_number(self, constants) -> Fraction:
        """A literal rational: number, const name, or folded literal arithmetic."""
        tok = self.peek()
        e = self.expression()
        from .expressions import eval_expr, names_in

        free = names_in(e)
        unknown = free - set(constants)
        if unknown:
            raise ParseError(
                f"expected a literal value, found name '{sorted(unknown)[0]}'",
                tok.line,
                tok.col,
            )
        try:
            v = eval_expr(e, constants)
        except ExprError as ex:
            raise ParseError(str(ex), tok.line, tok.col) from None
        if isinstance(v, bool):
            raise ParseError("expected a number, found a boolean", tok.line, tok.col)
        return v

    def _const_int(self, constants, what) -> int:
        tok = self.peek()
        v = self._const_number(constants)
        if v.denominator != 1:
            raise ParseError(f"{what} must be an integer", tok.line, tok.col)
        return int(v)

    def _module(self, constants) -> ModuleDecl:
        self.expect("module")
        name = self.expect("ident", "module name").text
        variables = []
        commands = []
        while not self.at("endmodule"):
            if self.at("ident") and self.peek(1).kind == ":":
                var = self.advance()
                if any(v.name == var.text for v in variables):
                    raise ParseError(
                        f"duplicate variable '{var.text}'", var.line, var.col
                    )
                self.expect(":")
                self.expect("[")
                lo = self._const_int(constants, "domain bound")
                self.expect("..")
                hi = self._const_int(constants, "domain bound")
                self.expect("]")
                self.expect("init")
                init = self._const_int(constants, "initial value")
                self.expect(";")
                variables.append(VarDecl(var.text, lo, hi, init))
            elif self.at("["):
                commands.append(self._command())
            elif self.at("eof"):
                self.fail("unterminated module, expected 'endmodule'")
            else:
                self.fail(
                    f"expected a variable or command, found {self.peek().text!r}",
                    expected=("ident", "["),
                )
        self.expect("endmodule")
        actions = frozenset(c.action for c in commands if c.action is not None)
        return ModuleDecl(name, tuple(variables), actions, tuple(commands))

    def _command(self) -> CommandDecl:
        self.expect("[")
        action = None
        if self.at("ident"):
            action = self.advance().text
        self.expect("]")
        guard = self.expression()
        self.expect("->")
        branches = [self._branch()]
        while self.at("+"):
            self.advance()
            branches.append(self._branch())
        self.expect(";")
        return CommandDecl(action, guard, tuple(branches))

    def _branch(self):
        # either "prob: update" or a bare update (probability one)
        if self._at_update():
            return (Num(Fraction(1)), self._update())
        prob = self.expression()
        self.expect(":")
        return (prob, self._update())

    def _at_update(self) -> bool:
        if self.at("true"):
            return self.peek(1).kind in (";", "+", "&")
        return self.at("(") and self.peek(1).kind == "ident" and self.peek(2).kind == "'"

    def _update(self):
        if self.at("true"):
            self.advance()
            return ()
        assignments = [self._assignment()]
        while self.at("&"):
            self.advance()
            assignments.append(self._assignment())
        return tuple(assignments)

    def _assignment(self):
        self.expect("(")
        var = self.expect("ident", "variable name")
        self.expect("'")
        self.expect("=")
        rhs = self.expression()
        self.expect(")")
        return (var.text, rhs)

    def _rewards(self):
        self.expect("rewards")
        if self.at("string"):  # optional structure name, ignored
            self.advance()
        decls = []
        while not self.at("endrewards"):
            if self.at("eof"):
                self.fail("unterminated rewards block, expected 'endrewards'")
            guard = self.expression()
            self.expect(":")
            cost = self.expression()
            self.expect(";")
            decls.append(RewardDecl(guard, cost))
        self.expect("endrewards")
        return decls

    # --- expressions (precedence climbing) --------------------------------

    def expression(self) -> Expr:
        return self._or()

    def _or(self) -> Expr:
        e = self._and()
        while self.at("|"):
            e = _binary_node(self.advance(), e, self._and())
        return e

    def _and(self) -> Expr:
        e = self._not()
        while self.at("&"):
            e = _binary_node(self.advance(), e, self._not())
        return e

    def _not(self) -> Expr:
        if self.at("!"):
            self.advance()
            return _unary_node("!", self._not())
        return self._comparison()

    def _comparison(self) -> Expr:
        e = self._additive()
        if self.at("=", "!=", "<", "<=", ">", ">="):
            e = _binary_node(self.advance(), e, self._additive())
        return e

    def _additive(self) -> Expr:
        e = self._multiplicative()
        while self.at("+", "-"):
            e = _binary_node(self.advance(), e, self._multiplicative())
        return e

    def _multiplicative(self) -> Expr:
        e = self._unary()
        while self.at("*", "/"):
            e = _binary_node(self.advance(), e, self._unary())
        return e

    def _unary(self) -> Expr:
        if self.at("-"):
            self.advance()
            return _unary_node("-", self._unary())
        return self._atom()

    def _atom(self) -> Expr:
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            return Num(Fraction(tok.text))
        if tok.kind == "true":
            self.advance()
            return TRUE
        if tok.kind == "false":
            self.advance()
            return BoolLit(False)
        if tok.kind in ("min", "max"):
            self.advance()
            self.expect("(")
            args = [self.expression()]
            while self.at(","):
                self.advance()
                args.append(self.expression())
            self.expect(")")
            args = tuple(args)
            return _fold_extremum(Extremum(tok.kind, args), args)
        if tok.kind == "ident":
            self.advance()
            return Name(tok.text, pos=(tok.line, tok.col))
        if tok.kind == "(":
            self.advance()
            e = self.expression()
            self.expect(")")
            return e
        found = repr(tok.text) if tok.text else "end of input"
        self.fail(
            f"expected an expression, found {found}",
            expected=("number", "ident", "("),
        )


def parse_program(text: str, *, check: bool = True) -> Program:
    """Parse ``.mgcl`` source into a Program.

    Raises ParseError with line/column on syntax errors; with ``check`` (the
    default) semantic diagnostics from ``check_program`` are attached and
    raised as well, so a returned program is well-formed, and it is marked
    as checked (``program_errors``), so ``build_model`` does not check it
    again.
    """
    program = _Parser(tokenize(text)).parse_program()
    if check:
        diags = program_errors(program)
        if diags:
            first = diags[0]
            raise ParseError(
                first.message,
                first.line if first.line is not None else 1,
                first.col if first.col is not None else 1,
                diagnostics=diags,
            )
    return program


def parse_file(path, *, check: bool = True) -> Program:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_program(fh.read(), check=check)

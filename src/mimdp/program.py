"""Program AST for the guarded-command language, well-formedness checks and
the pretty printer.

A program consists of rational constants, parameters with finite value sets,
modules owning bounded integer variables and guarded commands, reward
declarations, and named boolean labels.  ``parse_program(pretty(p))`` is
structurally equal to ``p`` for every well-formed program.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .expressions import (
    SORT_BOOL,
    SORT_NUM,
    Expr,
    ExprError,
    Name,
    Num,
    SortError,
    UnboundName,
    _nodes,
    eval_expr,
    format_fraction,
    infer_sort,
    names_in,
    to_text,
)

TAU = None  # internal, non-synchronizing action


@dataclass(frozen=True)
class VarDecl:
    name: str
    lo: int
    hi: int
    init: int


# one probabilistic branch: (probability expression, assignments)
Update = tuple  # tuple[(varname, Expr), ...]
Branch = tuple  # (Expr, Update)


@dataclass(frozen=True)
class CommandDecl:
    action: Optional[str]  # None is the internal action
    guard: Expr
    branches: tuple  # tuple[Branch, ...], non-empty


@dataclass(frozen=True)
class ModuleDecl:
    name: str
    variables: tuple  # tuple[VarDecl, ...]
    actions: frozenset  # synchronizing alphabet
    commands: tuple  # tuple[CommandDecl, ...]


@dataclass(frozen=True)
class RewardDecl:
    guard: Expr
    cost: Expr


@dataclass(frozen=True)
class Program:
    constants: dict  # name -> Fraction, declaration order
    parameters: dict  # name -> tuple[Fraction, ...], declaration order
    modules: tuple  # tuple[ModuleDecl, ...]
    rewards: tuple  # tuple[RewardDecl, ...]
    labels: dict  # name -> Expr, declaration order
    # set by ``program_errors`` once ``check_program`` found no error, kept
    # by ``models.compose`` and set by each rewrite of ``transform`` on its
    # output; a copy made with ``dataclasses.replace`` starts unmarked
    _checked: bool = field(default=False, init=False, compare=False, repr=False)
    # the explored base model per ``(state_cap, on_deadlock)``, with the
    # memos it carries, kept by ``models.build_model`` for the lifetime of
    # the program; ``compose``, ``dataclasses.replace`` and the rewrites of
    # ``transform`` give new programs an empty one.  Like ``_checked``, it
    # assumes that a program's dicts are not mutated after its first build
    _models: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    # the bound-independent part of the transformed route, set by
    # ``synthesis.synthesize_transformed`` on its first call that returns,
    # with the lifetime and the assumption of ``_models``: the explored
    # controlled model with its arrays and costs, its commitment table and
    # the well-defined valuations (``synthesis._Controlled``).  The
    # controlled program is not kept
    _controlled: object = field(default=None, init=False, compare=False, repr=False)

    def variables(self) -> dict:
        """All variables in module order as name -> VarDecl."""
        out = {}
        for m in self.modules:
            for v in m.variables:
                out[v.name] = v
        return out

    def single_module(self) -> ModuleDecl:
        if len(self.modules) != 1:
            raise ValueError(f"expected a single module, found {len(self.modules)}")
        return self.modules[0]


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # 'error' | 'warning'
    message: str
    line: Optional[int] = None
    col: Optional[int] = None

    def __str__(self):
        pos = f"{self.line}:{self.col}: " if self.line is not None else ""
        return f"{pos}{self.severity}: {self.message}"


def _pos_of(expr: Expr):
    """First source position found in the expression, if any."""
    for n in _nodes(expr):
        if isinstance(n, Name) and n.pos is not None:
            return n.pos
    return None


def program_errors(program: Program) -> list:
    """The error diagnostics of ``check_program``.  A program found without
    errors is marked, and a marked program is not checked again: a Program
    is immutable once built."""
    if program._checked:
        return []
    errors = [d for d in check_program(program) if d.severity == "error"]
    if not errors:
        object.__setattr__(program, "_checked", True)
    return errors


def check_program(program: Program) -> list:
    """Well-formedness diagnostics; the empty list means well-formed.

    Beyond name/sort resolution this enforces the modelling discipline the
    rest of the toolkit depends on: guards, updates, label and reward guards
    are parameter-free (one topology for all instantiations), probability and
    cost expressions are state-variable-free, and literal update targets lie
    in the variable's domain.  Per-state domain/deadlock checks happen during
    model construction.
    """
    diags: list = []

    def err(msg: str, at=None):
        line, col = (at if at is not None else (None, None))
        diags.append(Diagnostic("error", msg, line, col))

    consts = set(program.constants)
    params = set(program.parameters)
    variables = {}
    for m in program.modules:
        for v in m.variables:
            if v.name in variables:
                err(f"variable '{v.name}' declared in more than one module")
            variables[v.name] = v
    var_names = set(variables)

    for a, b, what in (
        (consts, params, "constant/parameter"),
        (consts, var_names, "constant/variable"),
        (params, var_names, "parameter/variable"),
    ):
        for clash in sorted(a & b):
            err(f"{what} name clash: '{clash}'")

    for name, values in program.parameters.items():
        if len(values) == 0:
            err(f"parameter '{name}' has an empty value set")
        if len(set(values)) != len(values):
            err(f"parameter '{name}' has duplicate values")

    for v in variables.values():
        if v.lo > v.hi:
            err(f"variable '{v.name}' has an empty domain [{v.lo}..{v.hi}]")
        if not (v.lo <= v.init <= v.hi):
            err(f"initial value {v.init} of '{v.name}' outside [{v.lo}..{v.hi}]")

    sorts = {n: SORT_NUM for n in itertools.chain(consts, params, var_names)}

    def check_expr(e: Expr, want: str, ctx: str, *, no_params=False, no_vars=False):
        try:
            got = infer_sort(e, sorts)
        except UnboundName as ex:
            err(f"unknown identifier '{ex.name}' in {ctx}", _pos_of(e))
            return
        except ExprError as ex:
            err(f"{ex} in {ctx}", _pos_of(e))
            return
        if got != want:
            err(f"{ctx} must be {want}-sorted", _pos_of(e))
        free = names_in(e)
        if no_params:
            for p in sorted(free & params):
                err(f"parameter '{p}' not allowed in {ctx}", _pos_of(e))
        if no_vars:
            for v in sorted(free & var_names):
                err(f"state variable '{v}' not allowed in {ctx}", _pos_of(e))

    for m in program.modules:
        owned = {v.name for v in m.variables}
        for ci, cmd in enumerate(m.commands):
            where = f"command {ci + 1} of module '{m.name}'"
            if cmd.action is not None and cmd.action not in m.actions:
                err(f"action '{cmd.action}' of {where} not in the module alphabet")
            if not cmd.branches:
                err(f"{where} has no branches")
            check_expr(cmd.guard, SORT_BOOL, f"guard of {where}", no_params=True)
            total = Fraction(0)
            all_concrete = True
            for prob, update in cmd.branches:
                ctx = f"probability in {where}"
                check_expr(prob, SORT_NUM, ctx, no_vars=True)
                if names_in(prob) - program.constants.keys():
                    all_concrete = False
                else:
                    try:
                        v = eval_expr(prob, program.constants)
                    except SortError:  # check_expr reported it
                        all_concrete = False
                    except ExprError as ex:
                        err(f"{ex} in {ctx}", _pos_of(prob))
                        all_concrete = False
                    else:
                        total += v
                        if not (0 <= v <= 1):
                            err(f"probability {format_fraction(v)} outside [0,1] in {where}")
                seen = set()
                for var, rhs in update:
                    if var not in owned:
                        err(f"update of non-owned variable '{var}' in {where}")
                    if var in seen:
                        err(f"variable '{var}' assigned twice in one branch of {where}")
                    seen.add(var)
                    check_expr(rhs, SORT_NUM, f"update of '{var}' in {where}", no_params=True)
                    if isinstance(rhs, Num) and var in variables:
                        d = variables[var]
                        val = rhs.value
                        if val.denominator != 1 or not (d.lo <= val <= d.hi):
                            err(
                                f"update '{var}' = {format_fraction(val)} leaves "
                                f"[{d.lo}..{d.hi}] in {where}"
                            )
            if all_concrete and cmd.branches and total != 1:
                err(f"branch probabilities of {where} sum to {format_fraction(total)}, not 1")

    for ri, r in enumerate(program.rewards):
        where = f"reward declaration {ri + 1}"
        check_expr(r.guard, SORT_BOOL, f"guard of {where}", no_params=True)
        check_expr(r.cost, SORT_NUM, f"cost of {where}", no_vars=True)

    for name, e in program.labels.items():
        check_expr(e, SORT_BOOL, f"label \"{name}\"", no_params=True)

    return diags


# ---------------------------------------------------------------------------
# pretty printing

def _print_update(update: Update) -> str:
    if not update:
        return "true"
    return " & ".join(f"({var}'={to_text(rhs)})" for var, rhs in update)


def _print_command(cmd: CommandDecl) -> str:
    head = f"[{cmd.action or ''}]"
    branches = " + ".join(
        f"{to_text(prob)}: {_print_update(update)}" for prob, update in cmd.branches
    )
    return f"  {head} {to_text(cmd.guard)} -> {branches};"


def pretty(program: Program) -> str:
    """Source text that parses back to a structurally equal program."""
    lines = []
    for name, value in program.constants.items():
        lines.append(f"const {name} = {format_fraction(value)};")
    for name, values in program.parameters.items():
        vals = ", ".join(format_fraction(v) for v in values)
        lines.append(f"param {name} in {{{vals}}};")
    if lines:
        lines.append("")
    for m in program.modules:
        lines.append(f"module {m.name}")
        for v in m.variables:
            lines.append(f"  {v.name} : [{v.lo}..{v.hi}] init {v.init};")
        for cmd in m.commands:
            lines.append(_print_command(cmd))
        lines.append("endmodule")
        lines.append("")
    if program.rewards:
        lines.append("rewards")
        for r in program.rewards:
            lines.append(f"  {to_text(r.guard)} : {to_text(r.cost)};")
        lines.append("endrewards")
        lines.append("")
    for name, e in program.labels.items():
        lines.append(f'label "{name}" = {to_text(e)};')
    return "\n".join(lines).rstrip() + "\n"

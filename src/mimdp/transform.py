"""Program-to-program transformations that relay parameter choices to
nondeterminism.

Three rewrites over a composed (single-module) program:

1. ``transform_rewards``: a parametric reward expression becomes a
   nondeterministic selection among its joint parameter rows.  A fresh
   selector variable is zero outside selection; each affected command is
   anchored behind "selector set" and resets it, so a selection is consumed
   by exactly one firing and the intermediate state carries the selected
   concrete cost.

2. ``transform_probabilities``: a command with parametric branch
   probabilities becomes one concrete command per joint parameter row,
   each under a fresh action label; rows that do not form a probability
   distribution are dropped on the spot.

3. ``add_control``: a control module with one boolean per (parameter, value)
   pair synchronizes with every fresh action and records its commitments;
   the committing commands are guarded so that no parameter can ever commit
   to two different values along a path.

Transformations are deterministic: identical input programs yield
byte-identical pretty-printed output.

Whether a command anchors a parametric reward (its guard implies the
reward guard) and whether two parametric reward guards overlap is decided
by enumerating the domains of the variables the two guards mention, under
a cap on the size of that product.  Points where an equality conjunct of
the first guard fails (``equality_conjuncts``) are skipped: the first guard
is False there without raising, and the second is never evaluated, so the
answer and any error are those of the full enumeration.  Each row-expanded
and selector command is itself guarded by such an equality, which is what
makes the controlled model cheap to explore (``models.build_model``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Tuple

from .expressions import (
    Binary,
    CompiledExprs,
    Expr,
    Name,
    Num,
    TRUE,
    conjoin,
    equality_conjuncts,
    eval_expr,
    format_fraction,
    names_in,
)
from .models import compose, distribution_fault
from .program import CommandDecl, ModuleDecl, Program, RewardDecl, VarDecl

IMPLICATION_CAP = 1_000_000


class TransformError(ValueError):
    pass


@dataclass
class TransformReport:
    """Bookkeeping of fresh names introduced by the transformations."""

    fresh_variables: Dict[str, Tuple[int, int]] = field(default_factory=dict)
    # fresh action -> ((parameter, committed value), ...)
    fresh_actions: Dict[str, Tuple[Tuple[str, Fraction], ...]] = field(default_factory=dict)
    # original command index -> indices of the produced commands
    command_mapping: Dict[int, Tuple[int, ...]] = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "fresh_variables": {k: list(v) for k, v in self.fresh_variables.items()},
            "fresh_actions": {
                a: [[p, format_fraction(v)] for p, v in commits]
                for a, commits in self.fresh_actions.items()
            },
            "command_mapping": {str(k): list(v) for k, v in self.command_mapping.items()},
        }


def _chain(first: TransformReport, second: TransformReport) -> TransformReport:
    mapping = {}
    for orig, mids in first.command_mapping.items():
        out: list = []
        for mid in mids:
            out.extend(second.command_mapping.get(mid, (mid,)))
        mapping[orig] = tuple(out)
    return TransformReport(
        fresh_variables={**first.fresh_variables, **second.fresh_variables},
        fresh_actions={**first.fresh_actions, **second.fresh_actions},
        command_mapping=mapping,
    )


def _fresh(base: str, taken: set) -> str:
    name = base
    while name in taken:
        name = "_" + name
    taken.add(name)
    return name


def _domain_points(g: Expr, h: Expr, program: Program):
    """The variables ``g`` and ``h`` mention, sorted, and the points of
    their domains in lexicographic order, less those where an equality
    conjunct of ``g`` fails: there ``g`` is False without raising, so
    neither caller evaluates ``h``.  The cap applies to the full product."""
    variables = program.variables()
    used = sorted((names_in(g) | names_in(h)) & set(variables))
    decls = [variables[v] for v in used]
    sizes = 1
    for d in decls:
        sizes *= d.hi - d.lo + 1
        if sizes > IMPLICATION_CAP:
            raise TransformError(
                "guard implication check exceeds the enumeration cap; "
                "simplify the reward guards"
            )
    fixed = equality_conjuncts(g, variables, program.constants)
    if fixed is None:
        return used, ()
    ranges = [
        [x for x in range(d.lo, d.hi + 1) if d.name not in fixed or x == fixed[d.name]]
        for d in decls
    ]
    return used, itertools.product(*ranges)


def _guard_implies(g: Expr, h: Expr, program: Program) -> bool:
    """g |= h, decided by enumerating the domains of the mentioned variables."""
    consts = program.constants
    used, points = _domain_points(g, h, program)
    for combo in points:
        env = dict(consts)
        env.update(zip(used, combo))
        if eval_expr(g, env) and not eval_expr(h, env):
            return False
    return True


def _guards_overlap(g: Expr, h: Expr, program: Program) -> bool:
    consts = program.constants
    used, points = _domain_points(g, h, program)
    for combo in points:
        env = dict(consts)
        env.update(zip(used, combo))
        if eval_expr(g, env) and eval_expr(h, env):
            return True
    return False


def _prune_parameters(program: Program) -> Program:
    """Drop parameter declarations no expression references any more."""
    used: set = set()
    for m in program.modules:
        for cmd in m.commands:
            for prob, _ in cmd.branches:
                used |= names_in(prob)
    for r in program.rewards:
        used |= names_in(r.cost)
    kept = {p: v for p, v in program.parameters.items() if p in used}
    if len(kept) == len(program.parameters):
        return program
    return Program(
        constants=dict(program.constants),
        parameters=kept,
        modules=program.modules,
        rewards=program.rewards,
        labels=dict(program.labels),
    )


# ---------------------------------------------------------------------------
# transformation 1: parametric rewards

def transform_rewards(program: Program) -> Tuple[Program, TransformReport]:
    """Replace parametric reward expressions by nondeterministic selection.

    For each reward declaration whose cost mentions parameters, the joint
    valuations of those parameters are enumerated as rows 1..m.  Every
    command whose guard implies the reward guard gains m selector commands
    (guarded by "selector = 0") and is itself re-guarded behind
    "selector >= 1" with a reset appended to every branch; the declaration
    is replaced by m concrete declarations guarded by the selector value.
    Parametric reward guards must be pairwise disjoint.
    """
    program = compose(program)
    module = program.single_module()
    params = program.parameters

    parametric = [
        (ri, decl)
        for ri, decl in enumerate(program.rewards)
        if names_in(decl.cost) & set(params)
    ]
    if not parametric:
        return program, TransformReport(
            command_mapping={ci: (ci,) for ci in range(len(module.commands))}
        )

    for (ri, a), (rj, b) in itertools.combinations(parametric, 2):
        if _guards_overlap(a.guard, b.guard, program):
            raise TransformError(
                f"parametric reward guards {ri + 1} and {rj + 1} overlap; "
                "selection would double-accrue"
            )

    taken = set(program.constants) | set(params) | set(program.variables())
    taken_actions = set(module.actions)

    selectors = []  # (decl index, decl, selector var, row valuations, row values)
    exprs = CompiledExprs(params, program.constants)
    for k, (ri, decl) in enumerate(parametric):
        occurring = [p for p in params if p in names_in(decl.cost)]
        node = exprs.add(decl.cost)
        rows, values = [], []
        for row, value in exprs.points(occurring):
            rows.append(row)
            v = value(node)
            if isinstance(v, bool):
                raise TransformError(f"reward {ri + 1} is boolean-sorted")
            if v < 0:
                raise TransformError(
                    f"reward {ri + 1} evaluates to {format_fraction(v)} < 0"
                )
            values.append(v)
        var = _fresh(f"_sel{k}", taken)
        selectors.append((ri, decl, var, rows, values))

    anchored: Dict[int, list] = {}
    for ci, cmd in enumerate(module.commands):
        for entry in selectors:
            if _guard_implies(cmd.guard, entry[1].guard, program):
                anchored.setdefault(ci, []).append(entry)

    for ri, decl, var, rows, values in selectors:
        if not any(
            any(e[0] == ri for e in entries) for entries in anchored.values()
        ):
            raise TransformError(
                f"no command anchors parametric reward {ri + 1}; "
                "its cost would be lost under selection"
            )

    report = TransformReport()
    for _, _, var, rows, _ in selectors:
        report.fresh_variables[var] = (0, len(rows))

    commands: List[CommandDecl] = []
    for ci, cmd in enumerate(module.commands):
        if ci not in anchored:
            report.command_mapping[ci] = (len(commands),)
            commands.append(cmd)
            continue
        produced = []
        entries = anchored[ci]
        for ri, decl, var, rows, values in entries:
            for i, row in enumerate(rows, start=1):
                action = _fresh(f"_set{ci}_{var}_{i}", taken_actions)
                # one selector action per (command, reward, row)
                report.fresh_actions[action] = tuple(
                    (p, row[p]) for p in row
                )
                guard = conjoin(cmd.guard, Binary("=", Name(var), Num(Fraction(0))))
                produced.append(
                    CommandDecl(action, guard, ((Num(Fraction(1)), ((var, Num(Fraction(i))),)),))
                )
        guard = cmd.guard
        resets = []
        for ri, decl, var, rows, values in entries:
            guard = conjoin(guard, Binary(">=", Name(var), Num(Fraction(1))))
            resets.append((var, Num(Fraction(0))))
        branches = tuple(
            (prob, update + tuple(resets)) for prob, update in cmd.branches
        )
        produced.append(CommandDecl(cmd.action, guard, branches))
        report.command_mapping[ci] = tuple(
            range(len(commands), len(commands) + len(produced))
        )
        commands.extend(produced)

    selector_zero = [
        Binary("=", Name(var), Num(Fraction(0))) for _, _, var, _, _ in selectors
    ]
    rewards: List[RewardDecl] = []
    by_index = {ri: (decl, var, rows, values) for ri, decl, var, rows, values in selectors}
    for ri, decl in enumerate(program.rewards):
        if ri not in by_index:
            rewards.append(RewardDecl(conjoin(decl.guard, *selector_zero), decl.cost))
            continue
        _, var, rows, values = by_index[ri]
        for i, value in enumerate(values, start=1):
            rewards.append(
                RewardDecl(Binary("=", Name(var), Num(Fraction(i))), Num(value))
            )

    variables = module.variables + tuple(
        VarDecl(var, 0, len(rows), 0) for _, _, var, rows, _ in selectors
    )
    actions = module.actions | frozenset(report.fresh_actions)
    new_module = ModuleDecl(module.name, variables, actions, tuple(commands))
    new_program = Program(
        constants=dict(program.constants),
        parameters=dict(program.parameters),
        modules=(new_module,),
        rewards=tuple(rewards),
        labels=dict(program.labels),
    )
    return _prune_parameters(new_program), report


# ---------------------------------------------------------------------------
# transformation 2: parametric transition probabilities

def transform_probabilities(program: Program) -> Tuple[Program, TransformReport]:
    """Expand each command with parametric branch probabilities into one
    concrete command per joint parameter row, under fresh action labels.

    Rows whose probabilities leave [0,1] or do not sum to one are dropped
    (the local well-definedness filter); a command losing all rows is an
    error, since no instantiation of the program would be well-defined.
    The probabilities of all commands are compiled into one
    ``CompiledExprs``, so equal subexpressions share one node and each is
    computed once per combination of the parameters it mentions, across
    rows and commands.
    """
    program = compose(program)
    module = program.single_module()
    params = program.parameters
    consts = program.constants
    taken_actions = set(module.actions)

    report = TransformReport()
    commands: List[CommandDecl] = []
    exprs = CompiledExprs(params, consts)
    for ci, cmd in enumerate(module.commands):
        mentioned = frozenset().union(*(names_in(prob) for prob, _ in cmd.branches))
        occurring = [p for p in params if p in mentioned]
        if not occurring:
            report.command_mapping[ci] = (len(commands),)
            commands.append(cmd)
            continue
        produced = []
        nodes = [exprs.add(prob) for prob, _ in cmd.branches]
        for i, (row, value) in enumerate(exprs.points(occurring), start=1):
            probs = [value(n) for n in nodes]
            if any(isinstance(v, bool) for v in probs) or distribution_fault(probs) is not None:
                continue
            action = _fresh(f"_row{ci}_{i}", taken_actions)
            report.fresh_actions[action] = tuple((p, row[p]) for p in row)
            branches = tuple(
                (Num(v), update) for v, (_, update) in zip(probs, cmd.branches)
            )
            produced.append(CommandDecl(action, cmd.guard, branches))
        if not produced:
            raise TransformError(
                f"command {ci + 1} has no well-defined parameter row; "
                "no instantiation of the program is well-defined"
            )
        report.command_mapping[ci] = tuple(
            range(len(commands), len(commands) + len(produced))
        )
        commands.extend(produced)

    actions = frozenset(c.action for c in commands if c.action is not None)
    new_module = ModuleDecl(module.name, module.variables, actions, tuple(commands))
    new_program = Program(
        constants=dict(consts),
        parameters=dict(params),
        modules=(new_module,),
        rewards=tuple(program.rewards),
        labels=dict(program.labels),
    )
    return _prune_parameters(new_program), report


# ---------------------------------------------------------------------------
# transformation 3: the consistency control module

def add_control(program: Program, report: TransformReport) -> Program:
    """Attach the control module enforcing consistent parameter commitments.

    One boolean per (parameter, value) pair appearing in the report; every
    fresh action synchronizes with a control command raising its pair
    booleans, and the committing command is additionally guarded by the
    negation of all conflicting pair booleans.
    """
    if not report.fresh_actions:
        return program
    module = program.single_module()

    for action in report.fresh_actions:
        if action not in module.actions:
            raise TransformError(
                f"report action '{action}' does not occur in the program"
            )

    # committed value sets per parameter, in first-appearance order; the
    # transformed program no longer declares the original parameters
    params: Dict[str, list] = {}
    for commits in report.fresh_actions.values():
        for p, v in commits:
            values = params.setdefault(p, [])
            if v not in values:
                values.append(v)

    committed_pairs = []  # (param, value) in appearance order
    for p, values in params.items():
        for v in values:
            committed_pairs.append((p, v))

    taken = set(program.constants) | set(params) | set(program.variables())
    flag: Dict[Tuple[str, Fraction], str] = {}
    flag_decls = []
    for p, v in committed_pairs:
        vi = list(params[p]).index(v)
        name = _fresh(f"_q_{p}_{vi}", taken)
        flag[(p, v)] = name
        flag_decls.append(VarDecl(name, 0, 1, 0))

    def conflict_guard(commits) -> Expr:
        terms = []
        for p, v in commits:
            for v2 in params[p]:
                if v2 != v and (p, v2) in flag:
                    terms.append(Binary("=", Name(flag[(p, v2)]), Num(Fraction(0))))
        return conjoin(*terms)

    new_commands = []
    for cmd in module.commands:
        if cmd.action in report.fresh_actions:
            extra = conflict_guard(report.fresh_actions[cmd.action])
            new_commands.append(
                CommandDecl(cmd.action, conjoin(cmd.guard, extra), cmd.branches)
            )
        else:
            new_commands.append(cmd)
    main = ModuleDecl(module.name, module.variables, module.actions, tuple(new_commands))

    control_cmds = []
    for action, commits in report.fresh_actions.items():
        update = tuple(
            (flag[(p, v)], Num(Fraction(1))) for p, v in commits if (p, v) in flag
        )
        control_cmds.append(
            CommandDecl(action, TRUE, ((Num(Fraction(1)), update),))
        )
    control = ModuleDecl(
        "_control",
        tuple(flag_decls),
        frozenset(report.fresh_actions),
        tuple(control_cmds),
    )
    return Program(
        constants=dict(program.constants),
        parameters=dict(program.parameters),
        modules=(main, control),
        rewards=tuple(program.rewards),
        labels=dict(program.labels),
    )


def transform_all(program: Program) -> Tuple[Program, TransformReport]:
    """compose, then rewards, then probabilities, then the control module."""
    composed = compose(program)
    p1, r1 = transform_rewards(composed)
    p2, r2 = transform_probabilities(p1)
    report = _chain(r1, r2)
    if report.fresh_actions:
        return add_control(p2, report), report
    return p2, report

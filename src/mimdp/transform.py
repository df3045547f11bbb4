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
byte-identical pretty-printed output.  Each rewrite takes only a
well-formed program: it raises ``TransformError`` with the diagnostics of
``check_program`` otherwise, a check that costs nothing for a program
marked as checked (``program.program_errors``).  Its output is well-formed
again (fresh names, selector values inside their domains, literal
probabilities only from rows that form distributions) and is marked as
checked, so ``models.build_model`` does not check it again.

Whether a command anchors a parametric reward (its guard implies the
reward guard) and whether two parametric reward guards overlap is decided
by enumerating the domains of the variables the two guards mention, under
a cap on the size of that product.  Points where an equality conjunct of
the first guard fails (``equality_conjuncts``) are skipped: the first guard
is False there without raising, and the second is never evaluated, so the
answer and any error are those of the full enumeration.  Each guard's
mentioned variables and equality conjuncts are worked out once per
rewrite (``_guard_facts``), not once per pair of guards.  Each row-expanded
and selector command is itself guarded by such an equality, which is what
makes the controlled model cheap to explore (``models.build_model``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
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
    eval_pairs,
    format_fraction,
    names_in,
    pair_env,
)
from .models import compose, pair_distribution_fault
from .program import CommandDecl, ModuleDecl, Program, RewardDecl, VarDecl, program_errors

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

    def committed_values(self) -> Dict[str, List[Fraction]]:
        """Per parameter, the values the fresh actions commit it to, in
        first-appearance order: fresh actions in report order, and each
        action's commitments in order.  Parameters no fresh action commits
        are absent."""
        values: Dict[str, List[Fraction]] = {}
        for commits in self.fresh_actions.values():
            for p, v in commits:
                seen = values.setdefault(p, [])
                if v not in seen:
                    seen.append(v)
        return values

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


def _require_well_formed(program: Program) -> None:
    """Raise ``TransformError`` with the diagnostics of ``check_program``
    unless ``program`` is well-formed; a marked program is not checked
    again (``program.program_errors``)."""
    diags = program_errors(program)
    if diags:
        raise TransformError("program is not well-formed: " + "; ".join(map(str, diags)))


def _derive(program: Program, **changes) -> Program:
    """``program`` with ``changes``, marked as checked: a rewrite takes a
    well-formed program and keeps it well-formed."""
    out = replace(program, **changes)
    object.__setattr__(out, "_checked", True)
    return out


def _guard_facts(g: Expr, program: Program, known: dict):
    """The variables of ``program`` that ``g`` mentions, and the points of
    those ``g`` fixes (``equality_conjuncts``): per fixed variable, its
    literal as an int where that is an integer inside the domain, else no
    point; None where two equalities contradict.  Worked out once per guard
    and kept in ``known``, which its caller owns, under the guard's id."""
    # an entry holds its guard, so no other expression can take its id
    facts = known.get(id(g))
    if facts is None:
        variables = program.variables()
        fixed = equality_conjuncts(g, variables)
        if fixed is not None:
            fixed = {
                v: [c.numerator] if c.denominator == 1
                and variables[v].lo <= c.numerator <= variables[v].hi else []
                for v, c in fixed.items()
            }
        facts = known[id(g)] = (g, names_in(g) & variables.keys(), fixed)
    return facts[1], facts[2]


def _domain_points(g: Expr, h: Expr, program: Program, known: dict):
    """The variables ``g`` and ``h`` mention, sorted, and the points of
    their domains in lexicographic order, less those where an equality
    conjunct of ``g`` fails: there ``g`` is False without raising, so
    ``_guard_witness`` does not evaluate ``h``.  The cap applies to the
    full product."""
    variables = program.variables()
    mentioned, fixed = _guard_facts(g, program, known)
    used = sorted(mentioned | _guard_facts(h, program, known)[0])
    decls = [variables[v] for v in used]
    sizes = 1
    for d in decls:
        sizes *= d.hi - d.lo + 1
        if sizes > IMPLICATION_CAP:
            raise TransformError(
                "guard implication check exceeds the enumeration cap; "
                "simplify the reward guards"
            )
    if fixed is None:
        return used, ()
    ranges = [fixed[d.name] if d.name in fixed else range(d.lo, d.hi + 1) for d in decls]
    return used, itertools.product(*ranges)


def _guard_witness(g: Expr, h: Expr, program: Program, known: dict, h_value: bool) -> bool:
    """Whether some point of the mentioned variables' domains satisfies
    ``g`` and gives ``h`` the truth value ``h_value`` (``h`` is evaluated
    only where ``g`` holds).  ``known`` keeps the guards' analysis
    (``_guard_facts``)."""
    env = pair_env(program.constants)
    used, points = _domain_points(g, h, program, known)
    for combo in points:
        env.update(zip(used, [(x, 1) for x in combo]))
        if eval_pairs(g, env) and eval_pairs(h, env) is h_value:
            return True
    return False


def _guard_implies(g: Expr, h: Expr, program: Program, known: dict) -> bool:
    """g |= h, decided by enumerating the domains of the mentioned variables."""
    return not _guard_witness(g, h, program, known, False)


def _guards_overlap(g: Expr, h: Expr, program: Program, known: dict) -> bool:
    return _guard_witness(g, h, program, known, True)


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
    return _derive(program, parameters=kept)


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

    The implication checks analyse each guard once (``_guard_facts``); the
    analysis is dropped when the rewrite ends.  Raises ``TransformError``
    on a program that is not well-formed.
    """
    _require_well_formed(program)
    program = compose(program)
    known: dict = {}  # id(guard) -> the guard's analysis (``_guard_facts``)
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
        if _guards_overlap(a.guard, b.guard, program, known):
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
        for row, point in exprs.points(occurring):
            rows.append(row)
            if point.pair(node)[0] < 0:
                raise TransformError(
                    f"reward {ri + 1} evaluates to {format_fraction(point(node))} < 0"
                )
            values.append(point(node))
        var = _fresh(f"_sel{k}", taken)
        selectors.append((ri, decl, var, rows, values))

    anchored: Dict[int, list] = {}
    for ci, cmd in enumerate(module.commands):
        for entry in selectors:
            if _guard_implies(cmd.guard, entry[1].guard, program, known):
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
    new_program = _derive(program, modules=(new_module,), rewards=tuple(rewards))
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
    rows and commands.  A row is checked on the exact pairs the compiled
    expressions hold, and only a kept row's probabilities become literals.
    Raises ``TransformError`` on a program that is not well-formed.
    """
    _require_well_formed(program)
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
        for i, (row, point) in enumerate(exprs.points(occurring), start=1):
            held = [point.pair(n) for n in nodes]
            if pair_distribution_fault(held) is not None:
                continue
            action = _fresh(f"_row{ci}_{i}", taken_actions)
            report.fresh_actions[action] = tuple((p, row[p]) for p in row)
            branches = tuple(
                (Num(Fraction(*h)), update) for h, (_, update) in zip(held, cmd.branches)
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
    return _prune_parameters(_derive(program, modules=(new_module,))), report


# ---------------------------------------------------------------------------
# transformation 3: the consistency control module

def add_control(program: Program, report: TransformReport) -> Program:
    """Attach the control module enforcing consistent parameter commitments.

    One boolean per (parameter, value) pair appearing in the report; every
    fresh action synchronizes with a control command raising its pair
    booleans, and the committing command is additionally guarded by the
    negation of all conflicting pair booleans.  Raises ``TransformError``
    on a program that is not well-formed.
    """
    _require_well_formed(program)
    if not report.fresh_actions:
        return program
    module = program.single_module()

    for action in report.fresh_actions:
        if action not in module.actions:
            raise TransformError(
                f"report action '{action}' does not occur in the program"
            )

    # the transformed program no longer declares the original parameters
    params = report.committed_values()
    taken = (set(program.constants) | set(program.parameters) | set(params)
             | set(program.variables()))
    flag: Dict[Tuple[str, Fraction], str] = {}
    flag_decls = []
    # per commitment, the terms saying no other value of its parameter is
    # committed: built once here, not per fresh action
    conflicts: Dict[Tuple[str, Fraction], Tuple[Expr, ...]] = {}
    for p, values in params.items():
        unset = []
        for vi, v in enumerate(values):
            name = _fresh(f"_q_{p}_{vi}", taken)
            flag[(p, v)] = name
            flag_decls.append(VarDecl(name, 0, 1, 0))
            unset.append(Binary("=", Name(name), Num(Fraction(0))))
        for vi, v in enumerate(values):  # the values are distinct
            conflicts[(p, v)] = tuple(unset[:vi] + unset[vi + 1:])

    new_commands = []
    for cmd in module.commands:
        if cmd.action in report.fresh_actions:
            commits = report.fresh_actions[cmd.action]
            extra = conjoin(*(t for pv in commits for t in conflicts[pv]))
            new_commands.append(
                CommandDecl(cmd.action, conjoin(cmd.guard, extra), cmd.branches)
            )
        else:
            new_commands.append(cmd)
    main = ModuleDecl(module.name, module.variables, module.actions, tuple(new_commands))

    control_cmds = []
    for action, commits in report.fresh_actions.items():
        update = tuple((flag[(p, v)], Num(Fraction(1))) for p, v in commits)
        control_cmds.append(
            CommandDecl(action, TRUE, ((Num(Fraction(1)), update),))
        )
    control = ModuleDecl(
        "_control",
        tuple(flag_decls),
        frozenset(report.fresh_actions),
        tuple(control_cmds),
    )
    return _derive(program, modules=(main, control))


def transform_all(program: Program) -> Tuple[Program, TransformReport]:
    """compose, then rewards, then probabilities, then the control module.

    An unmarked well-formed program is checked once, by the first rewrite;
    the output of each is marked as checked, and so is the result.
    """
    p1, r1 = transform_rewards(program)
    p2, r2 = transform_probabilities(p1)
    report = _chain(r1, r2)
    return add_control(p2, report), report

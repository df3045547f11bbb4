"""Explicit-state model construction and instantiation.

Parallel composition of modules, breadth-first state exploration, parameter
instantiation, the well-definedness filter over parameter valuations, and
strategy-induced chains.  Probabilities are exact rationals or residual
parameter expressions; a model is immutable once built.

There is one path from a family to its configurations: the exact entries
of a valuation, read off the model's entries compiled once (``_Entries``,
kept on the model) and checked for well-definedness.  ``instantiate``
builds the instance from them; a concrete build is the parametric build
instantiated.  One pass of ``well_defined_entries`` yields every
well-defined valuation with its entries and builds no instance: the
valuation filter, the enumeration route (which checks chain families in
batches and solves an MDP family's LP on arrays built from the entries) and
the integer-program emitter all read them.  The compiled entries are
one hash-consed ``expressions.CompiledExprs``: equal subexpressions are one
node, and a node's value is computed once per combination of the values of
the parameters it mentions.  Well-definedness is exact: probabilities are
rationals, and a distribution has entries in [0,1] summing to exactly one
(``distribution_fault``).
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Tuple, Union

from .expressions import (
    CompiledExprs,
    Expr,
    ExprError,
    Num,
    equality_conjuncts,
    eval_expr,
    format_fraction,
    joint_valuations,
    substitute,
    to_text,
)
from .program import CommandDecl, ModuleDecl, Program, check_program

Valuation = dict  # parameter name -> Fraction, in declaration order
Prob = Union[Fraction, Expr]

DEFAULT_STATE_CAP = 10**7


class ModelError(ValueError):
    pass


class StateCapExceeded(ModelError):
    pass


class DeadlockError(ModelError):
    pass


class WellDefinednessError(ModelError):
    """A valuation induces a non-distribution at some state/action."""

    def __init__(self, message, state=None, action=None):
        super().__init__(message)
        self.state = state
        self.action = action


class BlockedActionWarning(UserWarning):
    """A module declares a synchronizing action but provides no command."""


@dataclass(frozen=True)
class Choice:
    action: Optional[str]
    branches: tuple  # tuple[(Prob, target index), ...]


@dataclass
class ExplicitModel:
    kind: str  # 'mc' | 'mdp' | 'mimdp'
    var_names: tuple
    states: list  # list[tuple[int, ...]]
    initial: int
    choices: list  # per state: list[Choice]
    costs: list  # per state: Fraction | Expr
    labels: dict  # label -> frozenset[int]
    parameters: dict  # residual parameter domains (mimdp only)
    deadlocks: frozenset = frozenset()
    # the compiled entries of a parametric model, with every subexpression
    # value computed so far, shared across valuations (``_compiled``)
    _memo: Optional[_Entries] = field(default=None, init=False, compare=False, repr=False)
    # the checker's flat arrays of a concrete model, built on first use
    # (``checking._model_arrays``)
    _arrays: Optional[object] = field(default=None, init=False, compare=False, repr=False)

    @property
    def num_states(self) -> int:
        return len(self.states)

    @property
    def num_transitions(self) -> int:
        return sum(len(ch.branches) for row in self.choices for ch in row)

    def state_text(self, index: int) -> str:
        return _fmt(self.var_names, self.states[index])

    def label_states(self, label: str) -> frozenset:
        try:
            return self.labels[label]
        except KeyError:
            raise ModelError(f"model has no label \"{label}\"") from None


@dataclass
class Strategy:
    """Memoryless strategy: per state, weights over that state's choices.

    Weights are normalized to exact rationals summing to one, so induced
    chains stay row-stochastic exactly.
    """

    choice_probs: list  # per state: dict[choice index, Fraction]

    def __post_init__(self):
        normalized = []
        for s, dist in enumerate(self.choice_probs):
            items = [(a, Fraction(w)) for a, w in dist.items() if w > 0]
            if not items:
                raise ModelError(f"strategy assigns no action at state {s}")
            total = sum(w for _, w in items)
            normalized.append({a: w / total for a, w in items})
        self.choice_probs = normalized

    @classmethod
    def deterministic(cls, picks: Sequence[int]) -> "Strategy":
        # a single weight of exactly one is already normalized: skip the
        # per-state rational arithmetic of __post_init__
        one = Fraction(1)
        strategy = cls.__new__(cls)
        strategy.choice_probs = [{int(a): one} for a in picks]
        return strategy

    def pick(self, state: int) -> int:
        """The single chosen index (deterministic strategies only)."""
        dist = self.choice_probs[state]
        if len(dist) != 1:
            raise ModelError(f"strategy is randomized at state {state}")
        return next(iter(dist))


# ---------------------------------------------------------------------------
# parallel composition

def compose(program: Program) -> Program:
    """Collapse all modules into one by standard parallel composition.

    Internal commands and commands whose action belongs to a single module
    pass through; commands sharing a synchronizing action are combined with
    conjoined guards, multiplied branch probabilities and concatenated
    updates.  A module that lists an action in its alphabet but has no
    command for it blocks the action: the partner commands are dropped with
    a BlockedActionWarning.
    """
    if len(program.modules) <= 1:
        return program

    modules = program.modules
    commands: list = []
    # pass-through: internal actions and actions private to one module
    action_owners: dict = {}
    for m in modules:
        for a in m.actions:
            action_owners.setdefault(a, []).append(m.name)
    for m in modules:
        for cmd in m.commands:
            if cmd.action is None or len(action_owners[cmd.action]) == 1:
                commands.append(cmd)

    shared = [a for a in _stable_action_order(modules) if len(action_owners[a]) > 1]
    for action in shared:
        participants = [m for m in modules if action in m.actions]
        rows = [[c for c in m.commands if c.action == action] for m in participants]
        blockers = [m.name for m, r in zip(participants, rows) if not r]
        if blockers:
            warnings.warn(
                f"action '{action}' is blocked by module(s) {', '.join(blockers)}; "
                "synchronized commands dropped",
                BlockedActionWarning,
                stacklevel=2,
            )
            continue
        for combo in itertools.product(*rows):
            commands.append(_combine(action, combo))

    variables = tuple(v for m in modules for v in m.variables)
    actions = frozenset(c.action for c in commands if c.action is not None)
    name = "_".join(m.name for m in modules)
    composed = ModuleDecl(name, variables, actions, tuple(commands))
    return replace(program, modules=(composed,))


def _stable_action_order(modules) -> list:
    seen = []
    for m in modules:
        for c in m.commands:
            if c.action is not None and c.action not in seen:
                seen.append(c.action)
        for a in sorted(m.actions):
            if a not in seen:
                seen.append(a)
    return seen


def _combine(action: str, commands: Sequence[CommandDecl]) -> CommandDecl:
    guard = commands[0].guard
    from .expressions import Binary

    for c in commands[1:]:
        guard = Binary("&", guard, c.guard)
    branches = [(Num(Fraction(1)), ())]
    for c in commands:
        nxt = []
        for prob0, upd0 in branches:
            for prob1, upd1 in c.branches:
                assigned = {v for v, _ in upd0}
                for v, _ in upd1:
                    # impossible with disjoint ownership, guard anyway
                    assert v not in assigned, f"update conflict on '{v}' in action '{action}'"
                p = _mul_probs(prob0, prob1)
                nxt.append((p, upd0 + tuple(upd1)))
        branches = nxt
    return CommandDecl(action, guard, tuple(branches))


def _mul_probs(a: Expr, b: Expr) -> Expr:
    from .expressions import Binary, fold

    if isinstance(a, Num) and a.value == 1:
        return b
    if isinstance(b, Num) and b.value == 1:
        return a
    return fold(Binary("*", a, b))


# ---------------------------------------------------------------------------
# explicit-state exploration

def build_model(
    program: Program,
    valuation: Optional[Mapping[str, Fraction]] = None,
    *,
    state_cap: int = DEFAULT_STATE_CAP,
    on_deadlock: str = "error",
) -> ExplicitModel:
    """Breadth-first exploration of the reachable variable valuations.

    Without a ``valuation`` the result is a multi-instance MDP whose
    transition entries are residual parameter expressions; with a total one
    it is that model passed through ``instantiate``, a fully concrete MC/MDP
    whose every distribution is validated.  State indices follow BFS
    discovery order, so builds are deterministic.  ``on_deadlock`` is
    'error' or 'absorb' (add a marked internal self-loop; used for
    transformed models whose dead ends encode inconsistent parameter
    commitments).

    Guards are indexed on their equality conjuncts (``v = c`` with ``v`` a
    state variable and ``c`` a literal, see ``equality_conjuncts``): before
    the exploration, each command and reward declaration is entered, per
    variable it fixes, under the value it fixes.  At a state only the
    commands whose fixed values all match are candidates, and only their
    guards are evaluated, in ascending command order.  Every skipped guard
    would be False there without raising, so the model, and any error, is
    the one a full scan of the guards gives.  Labels are evaluated once per
    state on that state's environment.
    """
    diags = [d for d in check_program(program) if d.severity == "error"]
    if diags:
        raise ModelError("program is not well-formed: " + "; ".join(map(str, diags)))
    if on_deadlock not in ("error", "absorb"):
        raise ValueError("on_deadlock must be 'error' or 'absorb'")

    program = compose(program)
    module = program.single_module()
    var_decls = list(program.variables().values())
    var_names = tuple(v.name for v in var_decls)
    domains = {v.name: (v.lo, v.hi) for v in var_decls}

    if valuation is not None:
        missing = sorted(set(program.parameters) - set(valuation))
        if missing:
            raise ModelError(f"valuation missing parameter(s): {', '.join(missing)}")
        for p, values in program.parameters.items():
            v = Fraction(valuation[p])
            if v not in values:
                raise ModelError(
                    f"value {format_fraction(v)} not in the declared set of '{p}'"
                )

    base_env = dict(program.constants)
    initial = tuple(v.init for v in var_decls)
    index = {initial: 0}
    states = [initial]
    rows: list = []
    costs: list = []
    deadlocks = set()
    queue = [0]
    qhead = 0

    def var_env(state) -> dict:
        env = dict(base_env)
        env.update(zip(var_names, (Fraction(x) for x in state)))
        return env

    def prob_value(expr: Expr, env_consts) -> Prob:
        # guards/updates are parameter-free; probabilities/costs may not be
        reduced = substitute(expr, env_consts)
        return reduced.value if isinstance(reduced, Num) else reduced

    commands, rewards = module.commands, program.rewards
    command_index = _guard_index([c.guard for c in commands], var_names, program.constants)
    reward_index = _guard_index([r.guard for r in rewards], var_names, program.constants)
    label_exprs = list(program.labels.values())
    members: list = [[] for _ in label_exprs]
    label_errors: dict = {}  # label position -> error at its first failing state

    while qhead < len(queue):
        si = queue[qhead]
        qhead += 1
        state = states[si]
        env = var_env(state)
        out: list = []
        for ci in _candidates(command_index, state):
            cmd = commands[ci]
            if not eval_expr(cmd.guard, env):
                continue
            merged: dict = {}
            order: list = []
            for prob, update in cmd.branches:
                p = prob_value(prob, env)
                target = list(state)
                for var, rhs in update:
                    val = eval_expr(rhs, env)
                    if isinstance(val, bool) or val.denominator != 1:
                        raise ModelError(
                            f"non-integer update of '{var}' at state {_fmt(var_names, state)}"
                        )
                    lo, hi = domains[var]
                    iv = int(val)
                    if not (lo <= iv <= hi):
                        raise ModelError(
                            f"update leaves domain: {var}'={iv} not in [{lo}..{hi}] "
                            f"at state {_fmt(var_names, state)}"
                        )
                    target[var_names.index(var)] = iv
                tkey = tuple(target)
                if tkey not in merged:
                    merged[tkey] = p
                    order.append(tkey)
                else:
                    merged[tkey] = _add_probs(merged[tkey], p)
            # an all-concrete row is a product of distributions that
            # check_program validated exactly, so it needs no check here
            branches = []
            for tkey in order:
                if tkey not in index:
                    if len(states) >= state_cap:
                        raise StateCapExceeded(
                            f"state cap of {state_cap} states exceeded"
                        )
                    index[tkey] = len(states)
                    states.append(tkey)
                    queue.append(index[tkey])
                branches.append((merged[tkey], index[tkey]))
            out.append(Choice(cmd.action, tuple(branches)))
        if not out:
            if on_deadlock == "error":
                raise DeadlockError(
                    f"deadlock state {_fmt(var_names, state)}: no command enabled"
                )
            deadlocks.add(si)
            out.append(Choice(None, ((Fraction(1), si),)))
        rows.append(out)
        # state cost: sum of reward declarations whose guard holds
        cost: Prob = Fraction(0)
        for ri in _candidates(reward_index, state):
            r = rewards[ri]
            if eval_expr(r.guard, env):
                c = prob_value(r.cost, env)
                cost = _add_probs(cost, c)
        if isinstance(cost, Fraction) and cost < 0:
            raise ModelError(f"negative cost at state {_fmt(var_names, state)}")
        costs.append(cost)
        # labels share the state's environment; a failing label is raised
        # after the exploration, the first in declaration order, as if the
        # labels were evaluated one after another over all states
        for k, lexpr in enumerate(label_exprs):
            if k in label_errors:
                continue
            try:
                if eval_expr(lexpr, env):
                    members[k].append(si)
            except ExprError as e:
                label_errors[k] = e

    if label_errors:
        raise label_errors[min(label_errors)]
    labels = {label: frozenset(m) for label, m in zip(program.labels, members)}

    parametric = len(program.parameters) > 0
    if parametric:
        kind = "mimdp"
    else:
        kind = "mc" if all(len(row) == 1 for row in rows) else "mdp"
    model = ExplicitModel(
        kind=kind,
        var_names=var_names,
        states=states,
        initial=0,
        choices=rows,
        costs=costs,
        labels=labels,
        parameters=dict(program.parameters) if parametric else {},
        deadlocks=frozenset(deadlocks),
    )
    return model if valuation is None else instantiate(model, valuation)


def _guard_index(guards: Sequence[Expr], var_names: tuple, constants) -> tuple:
    """Bit sets over guard indices for ``_candidates``: the guards that can
    hold at all, and per state position that some guard's equality
    conjuncts fix, a table from each fixed value to the guards that admit
    it, with the guards fixing nothing there as the default.  A guard whose
    conjuncts contradict each other never holds and is in no set."""
    every = 0
    fixing: dict = {}  # position -> {value: guards fixing that value}
    for i, guard in enumerate(guards):
        fixed = equality_conjuncts(guard, var_names, constants)
        if fixed is None:
            continue
        every |= 1 << i
        for var, value in fixed.items():
            table = fixing.setdefault(var_names.index(var), {})
            table[value] = table.get(value, 0) | 1 << i
    columns = []
    for position, table in sorted(fixing.items()):
        free = every
        for bits in table.values():
            free &= ~bits
        columns.append((position, {v: bits | free for v, bits in table.items()}, free))
    return every, columns


def _candidates(index: tuple, state: tuple) -> list:
    """Ascending indices of the guards whose equality conjuncts ``state``
    satisfies: every other guard is False there without raising."""
    bits, columns = index
    for position, table, free in columns:
        bits &= table.get(state[position], free)
    found = []
    while bits:
        low = bits & -bits
        found.append(low.bit_length() - 1)
        bits ^= low
    return found


def _fmt(var_names, state) -> str:
    return "(" + ",".join(f"{n}={v}" for n, v in zip(var_names, state)) + ")"


def _add_probs(a: Prob, b: Prob) -> Prob:
    from .expressions import Binary, fold

    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a + b
    ea = Num(a) if isinstance(a, Fraction) else a
    eb = Num(b) if isinstance(b, Fraction) else b
    if isinstance(ea, Num) and ea.value == 0:
        return b
    if isinstance(eb, Num) and eb.value == 0:
        return a
    return fold(Binary("+", ea, eb))


def distribution_fault(probs: Sequence[Fraction]) -> Optional[str]:
    """Why the exact values ``probs`` are not a probability distribution, or
    None when every entry lies in [0,1] and they sum to exactly one."""
    for p in probs:
        if not (0 <= p <= 1):
            return f"probability {format_fraction(p)}"
    total = sum(probs, Fraction(0))
    if total != 1:
        return f"probabilities sum to {format_fraction(total)}"
    return None


# ---------------------------------------------------------------------------
# instantiation and the well-definedness filter

def instantiate(model: ExplicitModel, valuation: Mapping[str, Fraction]) -> ExplicitModel:
    """Replace every residual expression by its value under ``valuation``.

    Every distribution is checked to have entries in [0,1] summing to
    exactly one; a violation raises WellDefinednessError naming the state
    and action.  Values come from the model's compiled entries, which are
    built on first use and kept on the model, so instantiating one model
    under many valuations evaluates each distinct subexpression once per
    combination of the values of the parameters it mentions.  A value
    outside its parameter's declared set is evaluated but not kept.
    """
    if model.kind != "mimdp":
        return model
    missing = sorted(set(model.parameters) - set(valuation))
    if missing:
        raise ModelError(f"valuation missing parameter(s): {', '.join(missing)}")
    return _instance(model, *_entries(model, valuation))


def _entries(model: ExplicitModel, valuation: Mapping[str, Fraction]) -> Tuple[list, list]:
    """The exact branch probabilities of every choice, flat in model order,
    and the state costs of ``model`` under ``valuation``, read off the
    model's compiled entries.  Raises what ``instantiate`` raises, in the
    same order."""
    entries = _compiled(model)
    env = {p: Fraction(valuation[p]) for p in model.parameters}
    return entries.read(model, entries.exprs.at(env))


def _compiled(model: ExplicitModel) -> _Entries:
    if model._memo is None:
        model._memo = _Entries(model)
    return model._memo


class _Entries:
    """The entries of a parametric model, compiled once: every parametric
    branch probability and state cost is a node of one ``CompiledExprs``
    over the model's parameters, whose tables keep each subexpression value
    for every valuation read.  A choice whose branches are all concrete has
    the same verdict under every valuation, so it is checked here, once."""

    def __init__(self, model: ExplicitModel):
        self.exprs = CompiledExprs(model.parameters)
        # (state, action, nodes, values, fault): the nodes of a parametric
        # choice, or the values and verdict of a concrete one
        self.steps: list = []
        for si, row in enumerate(model.choices):
            for ch in row:
                probs = [p for p, _ in ch.branches]
                if all(isinstance(p, Fraction) for p in probs):
                    step = (si, ch.action, None, probs, distribution_fault(probs))
                else:
                    step = (si, ch.action, tuple(map(self._node, probs)), None, None)
                self.steps.append(step)
        self.costs = [self._node(c) for c in model.costs]

    def _node(self, p: Prob) -> int:
        return self.exprs.add(Num(p) if isinstance(p, Fraction) else p)

    def _number(self, value, node: int) -> Fraction:
        v = value(node)
        if isinstance(v, bool):
            raise ModelError(
                f"boolean where a number was expected: {to_text(self.exprs.expr(node))}"
            )
        return v

    def read(self, model: ExplicitModel, value) -> Tuple[list, list]:
        """The entries under the evaluator ``value`` (``CompiledExprs``),
        checked choice by choice in model order, then cost by cost."""
        probs: list = []
        for si, action, nodes, values, fault in self.steps:
            if nodes is not None:
                values = [self._number(value, n) for n in nodes]
                fault = distribution_fault(values)
            if fault is not None:
                raise WellDefinednessError(
                    f"well-definedness violation at state {model.state_text(si)}, "
                    f"action {action or 'tau'}: {fault}",
                    state=si,
                    action=action,
                )
            probs.extend(values)
        costs = []
        for si, node in enumerate(self.costs):
            v = self._number(value, node)
            if v < 0:
                raise WellDefinednessError(
                    f"negative cost {format_fraction(v)} at state {model.state_text(si)}",
                    state=si,
                )
            costs.append(v)
        return probs, costs


def _instance(model: ExplicitModel, probs: Sequence[Fraction], costs: list) -> ExplicitModel:
    """The concrete model with the flat branch probabilities ``probs``."""
    values = iter(probs)
    new_rows = [
        [Choice(ch.action, tuple((next(values), t) for _, t in ch.branches)) for ch in row]
        for row in model.choices
    ]
    kind = "mc" if all(len(row) == 1 for row in new_rows) else "mdp"
    return ExplicitModel(
        kind=kind,
        var_names=model.var_names,
        states=list(model.states),
        initial=model.initial,
        choices=new_rows,
        costs=costs,
        labels=dict(model.labels),
        parameters={},
        deadlocks=model.deadlocks,
    )


def all_valuations(model: ExplicitModel) -> Iterable[Valuation]:
    """Cartesian product of the declared value sets, lexicographic by
    parameter declaration order, then value index."""
    names = list(model.parameters)
    return joint_valuations(names, model.parameters)


def well_defined_entries(model: ExplicitModel) -> Iterator[Tuple[Valuation, list, list]]:
    """Every well-defined valuation in ``all_valuations`` order, with the
    exact entries of its instance: the branch probabilities of every choice,
    flat in model order (the shared structure of the family), and the state
    costs.  No instance is built.  A parameter-free model yields its own
    entries under the empty valuation (the empty product)."""
    if model.kind != "mimdp":
        probs = [p for row in model.choices for ch in row for p, _ in ch.branches]
        yield {}, probs, list(model.costs)
        return
    entries = _compiled(model)
    for u, value in entries.exprs.points(list(model.parameters)):
        try:
            probs, costs = entries.read(model, value)
        except WellDefinednessError:
            continue
        yield u, probs, costs


def well_defined_valuations(model: ExplicitModel) -> list:
    """All valuations under which ``instantiate`` succeeds: every induced
    distribution sums to exactly one and no cost is negative."""
    return [u for u, _, _ in well_defined_entries(model)]


# ---------------------------------------------------------------------------
# induced chains

def induced_mc(model: ExplicitModel, strategy: Strategy) -> ExplicitModel:
    """The Markov chain obtained by mixing each state's choices under the
    strategy; preserves the state set and initial state."""
    if model.kind == "mimdp":
        raise ModelError("instantiate the model before inducing a chain")
    if len(strategy.choice_probs) != model.num_states:
        raise ModelError("strategy does not cover every state")
    rows = []
    for si, row in enumerate(model.choices):
        dist = strategy.choice_probs[si]
        for a in dist:
            if a < 0 or a >= len(row):
                raise ModelError(
                    f"strategy puts mass on disabled action {a} at state {si}"
                )
        merged: dict = {}
        order: list = []
        action = row[strategy_support_first(dist)].action if row else None
        for a, w in dist.items():
            for p, t in row[a].branches:
                q = w * p
                if t not in merged:
                    merged[t] = q
                    order.append(t)
                else:
                    merged[t] += q
        rows.append([Choice(action, tuple((merged[t], t) for t in order))])
    return ExplicitModel(
        kind="mc",
        var_names=model.var_names,
        states=list(model.states),
        initial=model.initial,
        choices=rows,
        costs=list(model.costs),
        labels=dict(model.labels),
        parameters={},
        deadlocks=model.deadlocks,
    )


def strategy_support_first(dist: Mapping[int, Fraction]) -> int:
    return min(dist)


# ---------------------------------------------------------------------------
# DOT export

def to_dot(model: ExplicitModel, name: str = "model") -> str:
    """Graphviz rendering; states show variable valuations, edges show the
    action and the probability or residual expression."""
    lines = [f"digraph {name} {{", "  rankdir=LR;", "  node [shape=box];"]
    label_index: dict = {}
    for lbl, members in model.labels.items():
        for s in members:
            label_index.setdefault(s, []).append(lbl)
    for i in range(model.num_states):
        extra = ""
        if i in label_index:
            extra = "\\n{" + ",".join(sorted(label_index[i])) + "}"
        shape = ' peripheries=2' if i == model.initial else ""
        lines.append(f'  s{i} [label="{model.state_text(i)}{extra}"{shape}];')
    for i, row in enumerate(model.choices):
        for ci, ch in enumerate(row):
            tag = ch.action or "tau"
            for p, t in ch.branches:
                ptext = format_fraction(p) if isinstance(p, Fraction) else to_text(p)
                lines.append(f'  s{i} -> s{t} [label="{tag}:{ptext}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"

"""Explicit-state model construction and instantiation.

Parallel composition of modules, breadth-first state exploration, parameter
instantiation, the well-definedness filter over parameter valuations, and
strategy-induced chains.  A model holds its transitions once, in flat
fields (``ExplicitModel``); probabilities are exact rationals or residual
parameter expressions; a model is immutable once built.

There is one path from a family to its configurations: the exact entries
of a valuation, read off the model's entries compiled once (``_Entries``,
kept on the model) and checked for well-definedness.  ``instantiate``
builds the instance from them; a concrete build is the parametric build
instantiated.  One pass of ``well_defined_entries`` yields every
well-defined valuation with its entries and builds no instance: the
valuation filter, the enumeration route and the integer-program emitter
all read them.  The enumeration route reads them once per model: it keeps
the well-defined valuations and their entries as floats, stacked per
support group, on the model (``_family``, see ``synthesis._Family``),
solves those stacks for each query, and drops the compiled entries, which
a later reader compiles again.  The compiled entries are
one hash-consed ``expressions.CompiledExprs``: equal subexpressions are one
node, and a node's value is computed once per combination of the values of
the parameters it mentions.  Well-definedness is exact: probabilities are
rationals, and a distribution has entries in [0,1] summing to exactly one
(``pair_distribution_fault``).  Entries stay the exact, normalized
``(numerator, denominator)`` pairs the compiled form holds, from the check
to the checker's floats; ``Fraction``s are made only by ``instantiate``,
for the instance it builds, and to name a fault.
"""

from __future__ import annotations

import itertools
import warnings
from collections import abc
from dataclasses import dataclass, field, fields, replace
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .expressions import (
    Binary,
    CompiledExprs,
    Expr,
    ExprError,
    Num,
    equality_conjuncts,
    eval_pairs,
    fold,
    format_fraction,
    joint_valuations,
    pair_env,
    substitute,
    to_text,
)
from .program import CommandDecl, ModuleDecl, Program, program_errors

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
    """An explicit model, its transitions held flat, in the row-grouped CSR
    form: state ``s`` has the choices ``choice_start[s]:choice_start[s + 1]``,
    choice ``c`` the action ``actions[c]`` (None for an internal one) and
    the branches ``branch_start[c]:branch_start[c + 1]``, and branch ``j``
    goes to state ``targets[j]`` with the exact probability ``probs[j]``, a
    ``Fraction`` or, in a parametric model, an ``Expr``.  Zero-probability
    branches are kept.  The offsets and targets are read-only int64 arrays,
    which instances of one model share.  ``choices`` is a read-only view:
    per state, its row of ``Choice``s, made when it is read.  Rows of
    ``Choice``s become a model through ``from_rows``."""

    kind: str  # 'mc' | 'mdp' | 'mimdp'
    var_names: tuple
    states: list  # list[tuple[int, ...]]
    initial: int
    actions: Sequence  # per choice: str | None
    choice_start: np.ndarray  # per state, and one past the last choice
    branch_start: np.ndarray  # per choice, and one past the last branch
    targets: np.ndarray  # per branch: its target state
    probs: Sequence  # per branch: Fraction | Expr
    costs: list  # per state: Fraction | Expr
    labels: dict  # label -> frozenset[int]
    parameters: dict  # residual parameter domains (mimdp only)
    deadlocks: frozenset = frozenset()
    # the compiled entries of a parametric model, with every subexpression
    # value computed so far, shared across valuations (``_compiled``);
    # dropped when enumeration keeps the family below
    _memo: Optional[_Entries] = field(default=None, init=False, compare=False, repr=False)
    # the checker's flat arrays of a concrete model, built on first use
    # (``checking._model_arrays``)
    _arrays: Optional[object] = field(default=None, init=False, compare=False, repr=False)
    # the well-defined configurations' float stacks, per support group, made
    # by the first enumeration that reads them (``synthesis._Family``)
    _family: Optional[object] = field(default=None, init=False, compare=False, repr=False)

    @classmethod
    def from_rows(cls, kind: str, var_names: tuple, states: list, initial: int,
                  choices: Iterable[Sequence[Choice]], costs: list, labels: dict,
                  parameters: dict, deadlocks: frozenset = frozenset()) -> "ExplicitModel":
        """The model whose state ``s`` has the row of ``Choice``s
        ``choices[s]``, its branches kept as they are."""
        rows = [list(row) for row in choices]
        flat = [ch for row in rows for ch in row]
        branches = [b for ch in flat for b in ch.branches]
        return cls(kind, var_names, states, initial, [ch.action for ch in flat],
                   _index([0, *itertools.accumulate(map(len, rows))]),
                   _index([0, *itertools.accumulate(len(ch.branches) for ch in flat)]),
                   _index([t for _, t in branches]), [p for p, _ in branches], costs, labels,
                   parameters, deadlocks)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExplicitModel):
            return NotImplemented
        pairs = ((getattr(self, f.name), getattr(other, f.name)) for f in fields(self) if f.compare)
        return all(np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b for a, b in pairs)

    @property
    def choices(self) -> LazySequence:
        return LazySequence(self.num_states, self._row)

    def _row(self, s: int) -> list:
        lo, hi = self.choice_start[s:s + 2].tolist()
        bounds = self.branch_start[lo:hi + 1].tolist()
        return [Choice(self.actions[c], tuple(zip(self.probs[b:e], self.targets[b:e].tolist())))
                for c, b, e in zip(range(lo, hi), bounds, bounds[1:])]

    @property
    def num_states(self) -> int:
        return len(self.states)

    @property
    def num_transitions(self) -> int:
        return int(self.branch_start[-1])

    def choice_states(self) -> np.ndarray:
        """Per choice, its state."""
        return np.repeat(np.arange(self.num_states), np.diff(self.choice_start))

    def single_choices(self) -> bool:
        """Whether every state has exactly one choice."""
        return bool((np.diff(self.choice_start) == 1).all())

    def state_text(self, index: int) -> str:
        return _fmt(self.var_names, self.states[index])

    def label_states(self, label: str) -> frozenset:
        try:
            return self.labels[label]
        except KeyError:
            raise ModelError(f"model has no label \"{label}\"") from None


def _index(values) -> np.ndarray:
    """``values`` as a read-only int64 array."""
    out = np.array(values, dtype=np.int64)
    out.flags.writeable = False
    return out


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
            normalized.append(self.normalized(items))
        self.choice_probs = normalized

    @staticmethod
    def normalized(pairs: Sequence[tuple]) -> dict:
        """One state's (choice, positive weight) pairs as exact rationals summing to one."""
        if len(pairs) == 1:  # w / w is exactly one
            return {pairs[0][0]: Fraction(1)}
        total = sum(Fraction(w) for _, w in pairs)
        return {a: Fraction(w) / total for a, w in pairs}

    @classmethod
    def deterministic(cls, picks: Sequence[int]) -> "Strategy":
        """The strategy taking choice ``picks[s]`` at each state ``s``.

        A single weight of exactly one is already normalized, so the
        per-state rational arithmetic of ``__post_init__`` is skipped, and
        ``choice_probs`` keeps only the picks: each ``{pick: Fraction(1)}``
        is built when it is read.  It compares equal to, and prints as, the
        list of those dicts."""
        picks, one = list(picks), Fraction(1)
        return cls.lazy(len(picks), lambda s: {int(picks[s]): one})

    @classmethod
    def lazy(cls, length: int, item: Callable[[int], dict]) -> "Strategy":
        """The strategy whose ``choice_probs`` is ``LazySequence(length, item)``:
        ``item(s)`` must be normalized as ``__post_init__`` normalizes."""
        strategy = cls.__new__(cls)
        strategy.choice_probs = LazySequence(length, item)
        return strategy

    def pick(self, state: int) -> int:
        """The single chosen index (deterministic strategies only)."""
        dist = self.choice_probs[state]
        if len(dist) != 1:
            raise ModelError(f"strategy is randomized at state {state}")
        return next(iter(dist))


class LazySequence(abc.Sequence):
    """The read-only sequence of ``length`` items whose item ``i`` is
    ``item(i)``, made each time it is read.  Negative indices count from
    the end, an index out of range raises ``IndexError``, and a slice is
    the list of its items.  It is equal to, and prints as, the list of its
    items."""

    def __init__(self, length: int, item: Callable[[int], object]):
        self._length, self._item = length, item

    def __len__(self) -> int:
        return self._length

    def __iter__(self):
        return map(self._item, range(self._length))

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self._item(j) for j in range(self._length)[i]]
        return self._item(range(self._length)[i])

    def __eq__(self, other) -> bool:
        if isinstance(other, (list, LazySequence)):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return repr(list(self))


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
    composed = replace(program, modules=(ModuleDecl(name, variables, actions, tuple(commands)),))
    # composing keeps a program well-formed: one module owns every
    # variable and action, guards are conjoined, and each combined
    # distribution is a product of distributions
    object.__setattr__(composed, "_checked", program._checked)
    return composed


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
    commitments).  A model of more than ``state_cap`` states raises
    ``StateCapExceeded``; a cap below 1, which not even the initial state
    meets, raises ``ValueError`` before anything is explored.  The
    exploration writes the model's flat fields (``ExplicitModel``)
    directly: per choice its action, per branch its target and exact
    probability, zero-probability branches included, and the offsets that
    delimit them.

    The base model is explored once per program: it is kept on ``program``
    (``Program._models``), keyed by ``(state_cap, on_deadlock)``, for as
    long as the program lives, so a later call with the same key returns
    the same model object, with the compiled entries and arrays it has
    memoised since.  That relies on a program's dicts not being mutated
    after its first build, which the check-once mark already assumes.  A
    ``valuation`` is validated first (missing parameters, then values
    outside their declared sets), and the cached base model instantiated;
    instances are not kept.  A build that raises keeps nothing, so the
    next call raises the same error again.  Programs made by ``compose``,
    ``dataclasses.replace`` or a rewrite of ``transform`` start with no
    model.

    Guards are indexed on their equality conjuncts (``v = c`` with ``v`` a
    state variable and ``c`` a literal, see ``equality_conjuncts``): before
    the exploration, each command and reward declaration is entered, per
    variable it fixes, under the value it fixes.  At a state only the
    commands whose fixed values all match are candidates, and only their
    guards are evaluated, in ascending command order.  Every skipped guard
    would be False there without raising, so the model, and any error, is
    the one a full scan of the guards gives.  Guards, updates, reward
    guards and labels are evaluated by ``expressions.eval_pairs`` on one
    environment per state in pair form: the constants, converted once per
    build, and the state's values.  Labels are evaluated once per state.

    The program is checked with ``check_program`` first, unless it is
    marked as checked already (``program.program_errors``): one that
    ``parse_program``, an earlier build or a rewrite found well-formed, the
    composition of such a one, or the output of a rewrite of ``transform``,
    which takes only well-formed programs and keeps them well-formed.
    """
    diags = program_errors(program)
    if diags:
        raise ModelError("program is not well-formed: " + "; ".join(map(str, diags)))
    if on_deadlock not in ("error", "absorb"):
        raise ValueError("on_deadlock must be 'error' or 'absorb'")
    if state_cap < 1:
        raise ValueError(f"state cap must be at least 1, got {state_cap}")
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

    key = (state_cap, on_deadlock)
    model = program._models.get(key)
    if model is None:
        model = _explore(compose(program), state_cap, on_deadlock)
        program._models[key] = model
    return model if valuation is None else instantiate(model, valuation)


def _explore(program: Program, state_cap: int, on_deadlock: str) -> ExplicitModel:
    """The base model of the composed ``program`` (see ``build_model``)."""
    module = program.single_module()
    var_decls = list(program.variables().values())
    var_names = tuple(v.name for v in var_decls)
    domains = {v.name: (v.lo, v.hi) for v in var_decls}

    constants = program.constants
    base_env = pair_env(constants)
    initial = tuple(v.init for v in var_decls)
    index = {initial: 0}
    states = [initial]
    actions: list = []
    targets: list = []
    probs: list = []
    choice_start, branch_start = [0], [0]
    costs: list = []
    deadlocks = set()
    queue = [0]
    qhead = 0

    def prob_value(expr: Expr) -> Prob:
        # probabilities and costs mention no state variable, and may
        # mention parameters, which stay symbolic
        reduced = substitute(expr, constants)
        return reduced.value if isinstance(reduced, Num) else reduced

    commands, rewards = module.commands, program.rewards
    command_index = _guard_index([c.guard for c in commands], var_names)
    reward_index = _guard_index([r.guard for r in rewards], var_names)
    label_exprs = list(program.labels.values())
    members: list = [[] for _ in label_exprs]
    label_errors: dict = {}  # label position -> error at its first failing state

    while qhead < len(queue):
        si = queue[qhead]
        qhead += 1
        state = states[si]
        env = dict(base_env)
        env.update(zip(var_names, [(x, 1) for x in state]))
        for ci in _candidates(command_index, state):
            cmd = commands[ci]
            if not eval_pairs(cmd.guard, env):
                continue
            merged: dict = {}
            for prob, update in cmd.branches:
                p = prob_value(prob)
                target = list(state)
                for var, rhs in update:
                    val = eval_pairs(rhs, env)
                    if val.__class__ is bool or val[1] != 1:
                        raise ModelError(
                            f"non-integer update of '{var}' at state {_fmt(var_names, state)}"
                        )
                    lo, hi = domains[var]
                    iv = val[0]
                    if not (lo <= iv <= hi):
                        raise ModelError(
                            f"update leaves domain: {var}'={iv} not in [{lo}..{hi}] "
                            f"at state {_fmt(var_names, state)}"
                        )
                    target[var_names.index(var)] = iv
                tkey = tuple(target)
                if tkey not in merged:
                    merged[tkey] = p
                else:
                    merged[tkey] = _add_probs(merged[tkey], p)
            # an all-concrete row is a product of distributions that
            # check_program validated exactly, so it needs no check here
            for tkey, p in merged.items():
                if tkey not in index:
                    if len(states) >= state_cap:
                        raise StateCapExceeded(
                            f"state cap of {state_cap} states exceeded"
                        )
                    index[tkey] = len(states)
                    states.append(tkey)
                    queue.append(index[tkey])
                targets.append(index[tkey])
                probs.append(p)
            actions.append(cmd.action)
            branch_start.append(len(targets))
        if len(actions) == choice_start[-1]:
            if on_deadlock == "error":
                raise DeadlockError(
                    f"deadlock state {_fmt(var_names, state)}: no command enabled"
                )
            deadlocks.add(si)
            actions.append(None)
            targets.append(si)
            probs.append(Fraction(1))
            branch_start.append(len(targets))
        choice_start.append(len(actions))
        # state cost: sum of reward declarations whose guard holds
        cost: Prob = Fraction(0)
        for ri in _candidates(reward_index, state):
            r = rewards[ri]
            if eval_pairs(r.guard, env):
                c = prob_value(r.cost)
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
                if eval_pairs(lexpr, env):
                    members[k].append(si)
            except ExprError as e:
                label_errors[k] = e

    if label_errors:
        raise label_errors[min(label_errors)]
    labels = {label: frozenset(m) for label, m in zip(program.labels, members)}

    parametric = len(program.parameters) > 0
    model = ExplicitModel(
        kind="mimdp",
        var_names=var_names,
        states=states,
        initial=0,
        actions=actions,
        choice_start=_index(choice_start),
        branch_start=_index(branch_start),
        targets=_index(targets),
        probs=probs,
        costs=costs,
        labels=labels,
        parameters=dict(program.parameters) if parametric else {},
        deadlocks=frozenset(deadlocks),
    )
    if not parametric:
        model.kind = "mc" if model.single_choices() else "mdp"
    return model


def _guard_index(guards: Sequence[Expr], var_names: tuple) -> tuple:
    """Bit sets over guard indices for ``_candidates``: the guards that can
    hold at all, and per state position that some guard's equality
    conjuncts fix, a table from each fixed value to the guards that admit
    it, with the guards fixing nothing there as the default.  A guard whose
    conjuncts contradict each other never holds and is in no set."""
    every = 0
    fixing: dict = {}  # position -> {value: guards fixing that value}
    for i, guard in enumerate(guards):
        fixed = equality_conjuncts(guard, var_names)
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
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a + b
    ea = Num(a) if isinstance(a, Fraction) else a
    eb = Num(b) if isinstance(b, Fraction) else b
    if isinstance(ea, Num) and ea.value == 0:
        return b
    if isinstance(eb, Num) and eb.value == 0:
        return a
    return fold(Binary("+", ea, eb))


def pair_distribution_fault(pairs: Sequence[Tuple[int, int]]) -> Optional[str]:
    """Why the exact values ``pairs``, given as ``(numerator, denominator)``
    pairs with positive denominators, are not a probability distribution,
    or None when every entry lies in [0,1] and they sum to exactly one.
    The sum is exact and unreduced, and a ``Fraction`` is made only to name
    a fault."""
    for p, q in pairs:
        if p < 0 or p > q:
            return f"probability {format_fraction(Fraction(p, q))}"
    total, common = 0, 1
    for p, q in pairs:
        if q == common:
            total += p
        else:
            total, common = total * q + p * common, common * q
    if total != common:
        return f"probabilities sum to {format_fraction(Fraction(total, common))}"
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
    combination of the values of the parameters it mentions (once more
    after enumeration has dropped them).  A value outside its parameter's
    declared set is evaluated but not kept.  The
    instance's ``Fraction``s are made from the entries' pairs.
    """
    if model.kind != "mimdp":
        return model
    missing = sorted(set(model.parameters) - set(valuation))
    if missing:
        raise ModelError(f"valuation missing parameter(s): {', '.join(missing)}")
    probs, costs = _entries(model, valuation)
    return _instance(model, [Fraction(*p) for p in probs], [Fraction(*c) for c in costs])


def _entries(model: ExplicitModel, valuation: Mapping[str, Fraction]) -> Tuple[list, list]:
    """The exact branch probabilities of every choice, flat in model order,
    and the state costs of ``model`` under ``valuation``, as ``(numerator,
    denominator)`` pairs read off the model's compiled entries.  Raises
    what ``instantiate`` raises, in the same order."""
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
    the same verdict under every valuation, so it is checked here, once,
    and its pairs are made here, once."""

    def __init__(self, model: ExplicitModel):
        self.exprs = CompiledExprs(model.parameters)
        # (state, action, nodes, pairs, fault): the nodes of a parametric
        # choice, or the pairs and verdict of a concrete one
        self.steps: list = []
        bounds = model.branch_start.tolist()
        owners = model.choice_states().tolist()
        for si, action, lo, hi in zip(owners, model.actions, bounds, bounds[1:]):
            probs = model.probs[lo:hi]
            if all(isinstance(p, Fraction) for p in probs):
                pairs = [(p.numerator, p.denominator) for p in probs]
                step = (si, action, None, pairs, pair_distribution_fault(pairs))
            else:
                step = (si, action, tuple(map(self._node, probs)), None, None)
            self.steps.append(step)
        self.costs = [self._node(c) for c in model.costs]

    def _node(self, p: Prob) -> int:
        return self.exprs.add(Num(p) if isinstance(p, Fraction) else p)

    def _number(self, point, node: int) -> Tuple[int, int]:
        v = point.pair(node)
        if v.__class__ is bool:
            raise ModelError(
                f"boolean where a number was expected: {to_text(self.exprs.expr(node))}"
            )
        return v

    def read(self, model: ExplicitModel, point) -> Tuple[list, list]:
        """The entries at the evaluator ``point`` (``CompiledExprs``),
        checked choice by choice in model order, then cost by cost: the
        exact pairs the evaluator holds, each read once.  A fault is
        formatted from a ``Fraction`` made for it."""
        probs: list = []
        for si, action, nodes, values, fault in self.steps:
            if nodes is not None:
                values = [self._number(point, n) for n in nodes]
                fault = pair_distribution_fault(values)
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
            cost = p, q = self._number(point, node)
            if p < 0:
                raise WellDefinednessError(
                    f"negative cost {format_fraction(Fraction(p, q))} at state {model.state_text(si)}",
                    state=si,
                )
            costs.append(cost)
        return probs, costs


def _instance(model: ExplicitModel, probs: Sequence[Fraction], costs: list) -> ExplicitModel:
    """The concrete model with the flat branch probabilities ``probs``: it
    shares the actions, offsets and targets of ``model``."""
    return replace(model, kind="mc" if model.single_choices() else "mdp",
                   states=list(model.states), probs=probs, costs=costs,
                   labels=dict(model.labels), parameters={})


def all_valuations(model: ExplicitModel) -> Iterable[Valuation]:
    """Cartesian product of the declared value sets, lexicographic by
    parameter declaration order, then value index."""
    names = list(model.parameters)
    return joint_valuations(names, model.parameters)


def well_defined_entries(model: ExplicitModel) -> Iterator[Tuple[Valuation, list, list]]:
    """Every well-defined valuation in ``all_valuations`` order, with the
    exact entries of its instance as normalized ``(numerator,
    denominator)`` pairs: the branch probabilities of every choice, flat in
    model order (the shared structure of the family), and the state costs.
    No instance is built.  A parameter-free model yields its own entries
    under the empty valuation (the empty product)."""
    if model.kind != "mimdp":
        probs = [(p.numerator, p.denominator) for p in model.probs]
        yield {}, probs, [(c.numerator, c.denominator) for c in model.costs]
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
    choice_start, branch_start = model.choice_start.tolist(), model.branch_start.tolist()
    targets = model.targets.tolist()
    for si, (first, end) in enumerate(zip(choice_start, choice_start[1:])):
        dist = strategy.choice_probs[si]
        for a in dist:
            if a < 0 or a >= end - first:
                raise ModelError(
                    f"strategy puts mass on disabled action {a} at state {si}"
                )
        merged: dict = {}
        action = model.actions[first + min(dist)] if end > first else None
        for a, w in dist.items():
            lo, hi = branch_start[first + a:first + a + 2]
            for p, t in zip(model.probs[lo:hi], targets[lo:hi]):
                q = w * p
                if t not in merged:
                    merged[t] = q
                else:
                    merged[t] += q
        rows.append([Choice(action, tuple((p, t) for t, p in merged.items()))])
    return ExplicitModel.from_rows(
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
    owners = model.choice_states().tolist()
    bounds = model.branch_start.tolist()
    for i, action, lo, hi in zip(owners, model.actions, bounds, bounds[1:]):
        tag = action or "tau"
        for p, t in zip(model.probs[lo:hi], model.targets[lo:hi].tolist()):
            ptext = format_fraction(p) if isinstance(p, Fraction) else to_text(p)
            lines.append(f'  s{i} -> s{t} [label="{tag}:{ptext}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"

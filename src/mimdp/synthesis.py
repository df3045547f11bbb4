"""Configuration synthesis: pick one value per parameter and a strategy so
that the target-reachability bound holds and the expected cost to the goal
is minimal.

Two independent routes:

* ``synthesize_enumerate`` checks every well-defined valuation and
  builds no instance.  The family is read once per base model: the first
  call stacks the valuations' entries as floats, one set of checker arrays
  per support group (``_Family``, ``checking.stack_family``), and keeps
  the stacks on the model.  Each query solves them: a family of chains
  one stacked batch per group (``checking.solve_stacks``), an MDP family
  the constrained occupation-measure LP once per distinct valuation, on
  its group's arrays with its own row.  This is the oracle route.

* ``synthesize_transformed`` rewrites the program into the controlled MDP,
  where each parameter value is an action, and solves the constrained LP
  there.  One commitment table, a row per choice and a column per
  parameter, says which value each choice commits; every branch-and-bound
  node reads the model's one set of arrays with a choice mask made from
  that table, and reads its strategy's commitments off the table along
  the support's positive branches.  A randomized LP optimum may split its
  mass between different values of one parameter (a mixture of
  configurations, which no single valuation realizes); when that happens
  we branch on the conflicted parameter, and a final lexicographic pass
  pins the answer.  Both routes answer the first configuration, in
  ``all_valuations`` order, whose expected cost is within ``TIE_TOL`` of
  the least feasible cost.

``emit_nilp`` writes the direct nonlinear integer encoding (binary
characteristic variable per well-defined valuation, bilinear probability
and cost recursions, well-definedness rows) as text; it is emitted, not
solved, and ``check_nilp_assignment`` verifies a candidate assignment
against every emitted constraint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .checking import (
    DEFAULT_TOL,
    FEASIBILITY_TOL,
    _Arrays,
    _branches,
    _model_arrays,
    _prob1_min,
    _reach,
    _target_set,
    expected_cost,
    reach_prob,
    solve_stacks,
    stack_family,
)
from .expressions import Expr, format_fraction
from .lp import LinearProgram, solve_lp
from .models import (
    ExplicitModel,
    LazySequence,
    ModelError,
    Strategy,
    build_model,
    instantiate,
    well_defined_entries,
    well_defined_valuations,
)
from .program import Program
from .transform import TransformReport, transform_all

TIE_TOL = 1e-9
AGREEMENT_TOL = 1e-6
SUPPORT_TOL = 1e-9


class SynthesisError(ValueError):
    pass


class InfeasibleError(SynthesisError):
    """No strategy meets the probability bound."""


class ImproperModelError(SynthesisError):
    """Absorption is not almost-sure under some strategy."""


class MethodDisagreement(SynthesisError):
    pass


@dataclass(frozen=True)
class SynthesisQuery:
    target: str
    bound: Fraction
    goal: str
    method: str = "both"  # 'enumerate' | 'transformed' | 'both'

    def __post_init__(self):
        if not (0 <= Fraction(self.bound) <= 1):
            raise ValueError("probability bound must lie in [0,1]")
        if self.method not in ("enumerate", "transformed", "both"):
            raise ValueError(f"unknown method {self.method!r}")


@dataclass
class TableEntry:
    valuation: dict
    expected_cost: float
    reach_probability: float
    feasible: bool


class _Table(LazySequence):
    """Enumeration's read-only table: per configuration, in the family's
    order, its kept valuation, cost, probability and feasibility, as arrays.
    An entry, with a copy of its valuation, is made each time one is read."""

    def __init__(self, valuations: list, ecs: np.ndarray, prs: np.ndarray, feasible: np.ndarray):
        self._length = len(valuations)
        self.valuations, self.ecs, self.prs, self.feasible = valuations, ecs, prs, feasible

    def _item(self, i: int) -> TableEntry:
        return TableEntry(dict(self.valuations[i]), float(self.ecs[i]), float(self.prs[i]),
                          bool(self.feasible[i]))

    def __iter__(self):
        return map(TableEntry, map(dict, self.valuations), *self.columns()[1:])

    def columns(self) -> tuple:
        return self.valuations, self.ecs.tolist(), self.prs.tolist(), self.feasible.tolist()


@dataclass
class SynthesisResult:
    method: str
    feasible: bool
    valuation: Optional[dict]
    strategy: Optional[Strategy]
    expected_cost: float
    reach_probability: Optional[float]
    table: Sequence[TableEntry] = field(default_factory=list)
    flags: tuple = ()

    def to_json_dict(self) -> dict:
        def val_dict(u):
            return {p: format_fraction(v) for p, v in u.items()}

        out = {
            "method": self.method,
            "feasible": self.feasible,
            "valuation": val_dict(self.valuation) if self.valuation is not None else None,
            "ec": self.expected_cost if math.isfinite(self.expected_cost) else None,
            "pr": self.reach_probability,
            "flags": list(self.flags),
        }
        if self.strategy is not None:
            out["strategy"] = [
                {str(a): float(w) for a, w in dist.items()}
                for dist in self.strategy.choice_probs
            ]
        rows = zip(*self.table.columns()) if isinstance(self.table, _Table) else (
            (e.valuation, e.expected_cost, e.reach_probability, e.feasible) for e in self.table)
        out["table"] = [{"valuation": val_dict(u), "ec": ec if math.isfinite(ec) else None,
                         "pr": pr, "feasible": feasible} for u, ec, pr, feasible in rows]
        return out


class ConstrainedSolution:
    """An optimum of the occupation LP: its expected cost, its probability
    of reaching the targets, and its strategy.

    ``support[s]`` holds the choice indices the strategy takes at state
    ``s``, in choice order; branch-and-bound reads only these.  The
    solution keeps the LP's ``flows``, the number of states and per LP
    variable its state, its choice index there and its flow, as arrays in
    variable order, which is state order.  ``support`` and the strategy's
    ``choice_probs``, each made once, are read-only sequences that read a
    state's variables when that state is read (``_pairs``), so a walk pays
    only for the states it reaches, and the rational normalisation only
    for a strategy that is reported.
    """

    __slots__ = ("expected_cost", "reach_probability", "_strategy", "_support", "_flows")

    def __init__(self, flows: tuple, expected_cost: float, reach_probability: float):
        self.expected_cost = expected_cost
        self.reach_probability = reach_probability
        self._strategy = None
        self._support = None
        self._flows = flows

    def _pairs(self, s: int):
        """The (choice index, weight) pairs of the strategy at state ``s``:
        the flows above ``SUPPORT_TOL``, or one each on all of the state's
        own choices where none has such a flow; the first choice at a state
        without variables."""
        _, states, choices, y = self._flows
        lo, hi = np.searchsorted(states, (s, s + 1)).tolist()
        if lo == hi:
            return ((0, 1),)
        pairs = list(zip(choices[lo:hi].tolist(), y[lo:hi].tolist()))
        return [(ci, w) for ci, w in pairs if w > SUPPORT_TOL] or [(ci, 1) for ci, _ in pairs]

    @property
    def support(self) -> LazySequence:
        if self._support is None:
            self._support = LazySequence(self._flows[0],
                                         lambda s: tuple(ci for ci, _ in self._pairs(s)))
        return self._support

    @property
    def strategy(self) -> Strategy:
        if self._strategy is None:
            self._strategy = Strategy.lazy(self._flows[0],
                                           lambda s: Strategy.normalized(self._pairs(s)))
        return self._strategy


# ---------------------------------------------------------------------------
# the occupation-measure LP

def constrained_mdp_lp(
    model: ExplicitModel,
    targets,
    bound,
    goals,
    *,
    disabled_actions: FrozenSet[str] = frozenset(),
) -> ConstrainedSolution:
    """Minimize expected cost subject to Pr(reach targets) <= bound.

    Occupation-measure formulation: variables y[s,a] >= 0 for transient
    states, flow conservation with a unit source at the initial state, the
    bound as one row over the flow into the target set, and the cost-
    weighted flow as objective.  The recovered strategy is y-proportional
    (uniform where no mass flows).  Targets and goals are absorbing, as are
    sinks (states whose every choice is one positive branch back to the
    state itself; zero-probability branches are not edges); absorption must
    be almost-sure under every remaining strategy.

    Dead ends (deadlock-marked states and states whose every choice is
    disabled) stay *transient*: their conservation rows have no outflow
    variables, which forces their inflow to zero — strategies must avoid
    them entirely rather than park probability mass there.

    ``targets`` and ``goals`` are labels, boolean masks over the model's
    states or sets of states; a state out of range raises ``ModelError``,
    as in ``reach_prob``.  The LP is read off the model's flat arrays
    (``checking._model_arrays``, built once per model); the disabled
    actions only switch choices off.
    """
    if model.kind == "mimdp":
        raise ModelError("instantiate or transform the model before the LP")
    lam = float(bound)
    target = _target_set(model, targets)
    goal = _target_set(model, goals)
    arr = _model_arrays(model)
    enabled = np.fromiter((a not in disabled_actions for a in model.actions),
                          dtype=bool, count=arr.num_choices)
    costs = [float(c) for c in model.costs]
    return _occupation_lp(model, arr, costs, target, goal, lam, enabled)


def _occupation_lp(model: ExplicitModel, arr: _Arrays, costs, target: np.ndarray,
                   goal: np.ndarray, lam: float, enabled: np.ndarray,
                   check: bool = True) -> ConstrainedSolution:
    """``constrained_mdp_lp`` on the arrays ``arr`` of a configuration of
    ``model`` (which gives the states, initial state and deadlocks), its
    state costs as floats and the mask of enabled choices; ``target`` and
    ``goal`` are masks over the model's states.  The LP is one dense matrix, a
    column per variable: a conservation row per transient state, then the
    bound row.  With ``check`` false the caller has made the improper-model
    check on the same graph, targets, goals and mask already.

    The solution keeps the LP's flows, from which it reads its support;
    the exact ``Strategy`` is built only if the solution's ``strategy`` is
    read (``ConstrainedSolution``)."""
    n = arr.num_states
    owner = arr.choice_state
    closed = target | goal  # mass may rest here
    live = np.bincount(owner[enabled], minlength=n) > 0
    dead = _target_set(model, model.deadlocks) | ~(closed | live)
    loop = (np.diff(arr.branch_start) == 1) & (arr.targets[arr.branch_start[:-1]] == owner)
    closed |= (np.bincount(owner[~loop], minlength=n) == 0) & ~dead  # sinks
    terminal = closed | dead

    unsure = np.flatnonzero(~_prob1_min(arr, terminal, enabled=enabled)) if check else ()
    if len(unsure):
        raise ImproperModelError(
            "absorption is not almost-sure under every strategy "
            f"(state {model.state_text(int(unsure[0]))})"
        )

    init = model.initial
    if closed[init]:
        pr = 1.0 if target[init] else 0.0
        if pr > lam + FEASIBILITY_TOL:
            raise InfeasibleError("initial state lies in the target set")
        none = np.zeros(0, dtype=np.int64)  # no variable: the first choice everywhere
        return ConstrainedSolution((n, none, none, none), 0.0, pr)

    transient = np.flatnonzero(~closed)
    m = len(transient)  # conservation rows; the bound row is row m
    row_of = np.full(n, -1)
    row_of[transient] = np.arange(m)
    # one variable per enabled choice of a transient state that is not a
    # dead end, in state order, then choice order
    variables = np.flatnonzero(enabled & ~terminal[owner])
    states = owner[variables]
    var, succ, probs = _branches(arr, variables)

    # a variable's flow leaves its own state's row and enters its
    # transient successors' rows; the flow into the targets is bounded.
    # Summed per entry in variable, then branch, order, as floats
    a = np.zeros((m + 1, len(variables)))
    a[row_of[states], np.arange(len(variables))] = 1.0
    into_t = target[succ]
    row = np.where(into_t, m, row_of[succ])
    kept = row >= 0
    np.add.at(a, (row[kept], var[kept]), np.where(into_t, probs, -probs)[kept])
    rhs = np.append(np.where(transient == init, 1.0, 0.0), lam)
    cost = np.array(costs)[states]
    bound_row = a[m]

    # among cost-minimal strategies, canonicalize to the one with the
    # smallest target probability (the cost optimum alone can be a flat face
    # on which the probability varies, and both synthesis routes must agree)
    sol = solve_lp(LinearProgram(cost, a, ["="] * m + ["<="], rhs), secondary=bound_row)
    if sol.status == "infeasible":
        raise InfeasibleError(f"no strategy meets the bound {lam}")
    if sol.status != "optimal":
        raise SynthesisError(f"unexpected LP status {sol.status}")

    y = sol.x
    into = np.flatnonzero(bound_row)  # summed in variable order, as a float
    pr = float(sum(bound_row[into] * y[into]))
    ec = float(sol.objective)
    flows = (n, states, variables - arr.choice_start[states], y)
    return ConstrainedSolution(flows, ec, pr)


# ---------------------------------------------------------------------------
# route 1: exhaustive enumeration

# configurations of one support group solved at once: bounds the value
# stacks of one chain solve by about this many numbers
_FAMILY_BLOCK = 1 << 20


class _Family:
    """What enumeration reads of a family and no query changes, kept on its
    base model (``ExplicitModel._family``) by the first call of either
    route whose build returns: the well-defined valuations, in
    ``all_valuations`` order, and their entries as floats, stacked per
    support group by ``checking.stack_family`` (``stacks``).  ``entries``
    yields what ``well_defined_entries`` yields and is read once."""

    __slots__ = ("valuations", "stacks")

    def __init__(self, model: ExplicitModel, entries):
        self.valuations: list = []

        def pairs():
            for u, probs, costs in entries:
                self.valuations.append(u)
                yield probs, costs

        self.stacks = stack_family(model, pairs())


def _kept_family(model: ExplicitModel) -> _Family:
    """The family kept on ``model``, or a new one, then kept.  A build that
    raises keeps nothing, so the next call raises the same error.  Once the
    family is kept, the model's compiled entries are dropped: enumeration
    and the transformed route's admissible valuations read the kept family
    from then on, and the entries' value tables would hold every
    configuration's values a second time.  Another reader of the entries
    (``instantiate``, ``well_defined_entries``) compiles them again."""
    if model._family is None:
        family = _Family(model, well_defined_entries(model))
        model._family = family
        model._memo = None
    return model._family


def _chain_block(model: ExplicitModel) -> int:
    return max(1, _FAMILY_BLOCK // (model.num_transitions + model.num_states))


def _evaluate(model: ExplicitModel, family: _Family, chains: bool, target: np.ndarray,
              goal: np.ndarray, lam: float) -> Tuple[_Table, Optional[list]]:
    """The table of ``family`` under the query, and on an MDP family the LP
    solution per configuration (None where no strategy meets the bound).
    A chain family's stacks are solved by ``checking.solve_stacks``, at
    most ``_chain_block`` configurations at a time; an MDP family's LPs
    run in the family's order, once per distinct row (``_Stack.first``):
    a repeated configuration shares its first one's outcome."""
    if chains:
        prs, ecs = solve_stacks(model, family.stacks, target, goal, _chain_block(model))
        feasible = (prs <= lam + FEASIBILITY_TOL) & np.isfinite(ecs)
        return _Table(family.valuations, ecs, prs, feasible), None
    where = {i: (stack, row) for stack in family.stacks  # configuration -> its stack and row
             for row, i in enumerate(stack.members.tolist())}
    outcomes = []
    for i, (stack, row) in sorted(where.items()):
        same = stack.first[row]
        outcomes.append(outcomes[same] if same < i else _evaluate_mdp(model, stack, row, target, goal, lam))
    ecs, prs, solutions = zip(*outcomes) if outcomes else ((), (), ())
    feasible = [res is not None for res in solutions]
    return _Table(family.valuations, *map(np.array, (ecs, prs, feasible))), list(solutions)


def _evaluate_mdp(model: ExplicitModel, stack, row: int, target: np.ndarray, goal: np.ndarray,
                  lam: float):
    """One configuration of an MDP family, row ``row`` of its support
    group's ``stack``: its cost, its probability of reaching the targets and
    the LP's solution on the group's arrays with that row, or, where no
    strategy meets the bound, inf, its minimal probability and None.  The
    rows of a stack share one graph, so only the first, the first in the
    family's order, checks that absorption is almost-sure."""
    arr = stack.arr.rows(row)
    try:
        res = _occupation_lp(model, arr, stack.cost[row], target, goal, lam,
                             np.ones(arr.num_choices, dtype=bool), check=row == 0)
    except InfeasibleError:
        x = _reach(arr, target, "min", False, 1, DEFAULT_TOL)[0]
        return math.inf, float(x[0, model.initial]), None
    return res.expected_cost, res.reach_probability, res


def _best(ecs: np.ndarray, feasible: np.ndarray) -> Optional[int]:
    """The first feasible row whose cost is within ``TIE_TOL`` of the least
    feasible cost, or None: the rule the transformed route's certification
    applies too."""
    rows = np.flatnonzero(feasible)
    if not len(rows):
        return None
    costs = ecs[rows]
    return int(rows[np.argmax(costs <= costs.min() + TIE_TOL)])


def synthesize_enumerate(program: Program, query: SynthesisQuery) -> SynthesisResult:
    """The oracle route: evaluate every well-defined valuation and return
    the first, in ``all_valuations`` order, whose expected cost is within
    ``TIE_TOL`` of the least feasible cost (``_best``).

    Guards and updates are parameter-free, so all configurations share
    one state graph and one kind, and each is read off its entries alone.
    No query changes those entries: the first call on a model whose build
    returns reads them once and keeps them on the base model as floats,
    stacked per support group (``_Family``, ``ExplicitModel._family``), and
    every later call, at any bound or label, re-reads the stacks and reads
    no entry; the model's compiled entries are dropped once the family is
    kept (``_kept_family``).  A build that raises keeps nothing, so the
    next call raises the same error again; the query's labels are looked
    up before it.  Per call, a family of chains is solved one stack per
    support group (``checking.solve_stacks``), and every configuration's
    strategy is the chain's one choice per state.  An MDP family solves the
    constrained LP once per distinct configuration, on its group's arrays
    with its own row, and builds the exact strategy of the reported one.
    The table keeps the results as arrays (``_Table``) and makes an entry
    when it is read; the reported valuation is a copy.
    """
    model = build_model(program)
    target = _target_set(model, query.target)
    goal = _target_set(model, query.goal)
    lam = float(query.bound)

    chains = model.single_choices()
    family = _kept_family(model)
    table, solutions = _evaluate(model, family, chains, target, goal, lam)
    if not table:
        raise SynthesisError("no well-defined valuation exists")

    best = _best(table.ecs, table.feasible)
    if best is None:
        return SynthesisResult(
            "enumerate", False, None, None, math.inf, None, table
        )
    if chains:
        strategy = Strategy.deterministic([0] * model.num_states)
    else:
        strategy = solutions[best].strategy
    entry = table[best]
    return SynthesisResult(
        "enumerate",
        True,
        entry.valuation,
        strategy,
        entry.expected_cost,
        entry.reach_probability,
        table,
    )


# ---------------------------------------------------------------------------
# route 2: the controlled transformed MDP

def _commitment_table(model: ExplicitModel, report: TransformReport,
                      params: Mapping[str, Sequence]) -> np.ndarray:
    """What each choice of the controlled ``model`` commits: one row per
    choice, in model order, and one column per parameter of ``params``,
    holding the index in ``params[p]`` of the value the choice's fresh
    action commits ``p`` to, or -1."""
    names = list(params)
    blank = [-1] * len(names)
    rows = {}
    for a, commits in report.fresh_actions.items():
        row = rows[a] = list(blank)
        for p, v in commits:
            row[names.index(p)] = params[p].index(v)
    table = [rows.get(a, blank) for a in model.actions]
    return np.array(table, dtype=np.int32).reshape(len(table), len(names))


def _support_commitments(arr: _Arrays, table: np.ndarray, initial: int, support) -> list:
    """Per column of the commitment ``table``, the sorted value indices the
    choices of a strategy commit on its support reachable from ``initial``:
    ``support[s]`` iterates over the choice indices the strategy takes at
    state ``s`` with positive weight (as ``ConstrainedSolution.support``
    and a normalized ``Strategy.choice_probs`` entry do).  The walk follows
    the edges of ``arr``, the positive branches alone, as the strategy's
    occupation measure does."""
    choice_start, branch_start, targets = arr.choice_start, arr.branch_start, arr.targets
    seen = {initial}
    stack = [initial]
    taken = []
    while stack:
        s = stack.pop()
        for ci in support[s]:
            c = choice_start[s] + ci
            taken.append(c)
            for t in targets[branch_start[c]:branch_start[c + 1]].tolist():
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
    return [sorted(set(col.tolist()) - {-1}) for col in table[taken].T]


def recover_valuation(
    model: ExplicitModel, report: TransformReport, strategy: Strategy
) -> Tuple[dict, tuple]:
    """Read the committed parameter values off the strategy's support.

    The parameters and their values are those the report's fresh actions
    commit (``TransformReport.committed_values``), and the support is
    walked over the model's positive branches only.  A parameter never
    committed on the support falls back to its first value and is
    flagged; a parameter committed to two values raises ``SynthesisError``,
    and a strategy with a choice the model does not have ``ModelError``.
    """
    probs = strategy.choice_probs
    counts = np.diff(model.choice_start).tolist()
    if len(probs) != model.num_states or any(
            not 0 <= ci < k for k, dist in zip(counts, probs) for ci in dist):
        raise ModelError("strategy does not fit the model's choices")
    params = report.committed_values()
    table = _commitment_table(model, report, params)
    commits = _support_commitments(_model_arrays(model), table, model.initial, probs)
    valuation = {}
    flags = []
    for (p, values), got in zip(params.items(), commits):
        if len(got) > 1:
            shown = ", ".join(format_fraction(v) for v in sorted(values[k] for k in got))
            raise SynthesisError(f"conflicting commitments for parameter '{p}': {shown}")
        if got:
            valuation[p] = values[got[0]]
        else:
            valuation[p] = values[0]
            flags.append(f"parameter '{p}' never committed on the support")
    return valuation, tuple(flags)


class _Controlled:
    """What the transformed route reads and no bound changes, kept on the
    base program (``Program._controlled``) by the first call that returns.

    ``model`` is the explored controlled MDP, ``arr`` its arrays (the ones
    kept on the model), which every LP reads, and ``costs`` its state
    costs as floats.  ``table`` is its commitment table over the program's
    declared parameters and values (``_commitment_table``), read by every
    node's choice mask (``enabled``) and by the support walk;
    ``occurring`` lists its columns that some fresh action of the report
    commits, in declaration order, whether or not the model reaches a
    choice of that action.  ``admissible`` holds the well-defined
    valuations of the base model, in its order: the list of its kept
    ``_Family`` (``_kept_family``), which neither reader changes.
    ``valuations`` holds the same as declared-value indices, one row each,
    read by ``agreeing`` and ``extendable``.  A fixing is a tuple with one
    declared-value index per parameter, -1 where the parameter is free.
    """

    __slots__ = ("model", "arr", "costs", "table", "occurring", "admissible", "valuations")

    def __init__(self, program: Program, model: ExplicitModel, report: TransformReport):
        # valuations a reported answer may come from: a strategy can avoid
        # every state where some parameter matters, in which case its value
        # must still be completed consistently with global well-definedness
        admissible = _kept_family(build_model(program)).valuations
        if not admissible:
            raise SynthesisError("no well-defined valuation exists")
        params = program.parameters
        self.model = model
        self.arr = _model_arrays(model)
        self.costs = np.array([float(c) for c in model.costs])
        self.table = _commitment_table(model, report, params)
        committed = report.committed_values()
        self.occurring = [j for j, p in enumerate(params) if p in committed]
        self.admissible = admissible
        self.valuations = np.array(
            [[vs.index(u[p]) for p, vs in params.items()] for u in admissible], dtype=np.int32
        ).reshape(len(admissible), len(params))

    def enabled(self, fixed: tuple) -> np.ndarray:
        """The mask of the choices that commit no parameter of ``fixed``
        to another value than the fixed one."""
        f = np.array(fixed)
        return ~((self.table != f) & (self.table >= 0) & (f >= 0)).any(axis=1)

    def agreeing(self, fixed: tuple) -> np.ndarray:
        """The mask of the admissible valuations that agree with ``fixed``."""
        f = np.array(fixed)
        return ((self.valuations == f) | (f < 0)).all(axis=1)

    def extendable(self, fixed: tuple) -> bool:
        """Whether some admissible valuation agrees with ``fixed``."""
        return bool(self.agreeing(fixed).any())


def _controlled(program: Program, query: SynthesisQuery) -> _Controlled:
    """The kept ``_Controlled`` of ``program``, or a new one, not yet kept.
    A new one transforms the program, explores the controlled model
    (absorbing deadlocks, under the default state cap), checks that the
    query's labels exist, reads the base model's family for the
    well-defined valuations (``_kept_family``) and builds the controlled
    model's arrays, in that order: the first of these that fails gives the
    error."""
    if program._controlled is not None:
        return program._controlled
    transformed, report = transform_all(program)
    model = build_model(transformed, on_deadlock="absorb")
    model.label_states(query.target)
    model.label_states(query.goal)
    return _Controlled(program, model, report)


def synthesize_transformed(program: Program, query: SynthesisQuery) -> SynthesisResult:
    """Transform, then optimize on the controlled MDP.

    Solves the constrained LP; branches (depth-first, declaration order)
    whenever the optimum mixes a parameter's values on its support or its
    joint commitments extend to no well-defined valuation, keeping the least
    cost admissible pure outcome (the first on exact ties); then certifies,
    parameter by parameter, the configuration enumeration picks (``_best``).
    A certification step solves no LP for a value its
    current outcome proves: the support commits the parameter to it or not
    at all, and the joint fixing is extendable; the last parameter's LP is
    always solved, as its solution is reported.  The nodes read only their
    solutions' supports, walked over positive branches; the exact strategy
    is built for the reported solution alone, and only the root checks for
    an improper model, as a node only switches choices off.

    No bound changes the controlled MDP, its arrays and costs, its
    commitment table or the well-defined valuations: they are made by the
    first call on ``program`` that returns and kept on it
    (``Program._controlled``, see ``_Controlled``), and every later call
    re-reads them.  A call that raises keeps nothing, so the next call
    raises the same error again.  The target and goal masks, the LPs, the
    node cache and the certification are made per call; each node solves
    the LP on the kept arrays with the choices that commit a fixed
    parameter to another value switched off (``_Controlled.enabled``).
    """
    problem = _controlled(program, query)
    result = _branch_and_bound(problem, program, query)
    object.__setattr__(program, "_controlled", problem)
    return result


def _branch_and_bound(problem: _Controlled, program: Program,
                      query: SynthesisQuery) -> SynthesisResult:
    """``synthesize_transformed`` on the controlled problem of ``program``."""
    model, arr, table = problem.model, problem.arr, problem.table
    extendable = problem.extendable
    target = _target_set(model, query.target)
    goal = _target_set(model, query.goal)
    lam = float(query.bound)
    params = list(program.parameters.items())

    def fixing(fixed: tuple, j: int, k: int) -> tuple:
        return fixed[:j] + (k,) + fixed[j + 1:]

    cache: Dict[tuple, Optional[tuple]] = {}

    def solve_fixed(fixed: tuple) -> Optional[tuple]:
        """Best well-defined-valuation outcome under the partial fixing.

        Branches when the LP optimum mixes a parameter's values on its
        support, and also when the support's joint commitments extend to no
        well-defined valuation (the strategy may avoid the very command
        whose distribution couples the parameters, which no admissible
        valuation can imitate).  Branch values are restricted to those
        extendable under the current fixing, so every leaf corresponds to a
        well-defined valuation.
        """
        if fixed in cache:
            return cache[fixed]
        try:
            res = _occupation_lp(model, arr, problem.costs, target, goal, lam,
                                 problem.enabled(fixed), check=fixed == free)
        except InfeasibleError:
            cache[fixed] = None
            return None
        commits = _support_commitments(arr, table, model.initial, res.support)
        branch_on = next((j for j, got in enumerate(commits) if len(got) > 1), None)
        if branch_on is None:
            joint = tuple(got[0] if f < 0 and got else f
                          for f, got in zip(fixed, commits))
            if extendable(joint):
                cache[fixed] = (res, commits)
                return cache[fixed]
            branch_on = next(j for j, f in enumerate(fixed) if joint[j] != f)
        best = None
        for k in range(len(params[branch_on][1])):
            if not extendable(fixing(fixed, branch_on, k)):
                continue
            sub = solve_fixed(fixing(fixed, branch_on, k))
            if sub is None:
                continue
            if best is None or sub[0].expected_cost < best[0].expected_cost:
                best = sub
        cache[fixed] = best
        return best

    def proves(outcome: tuple, fixed: tuple, j: int, k: int) -> bool:
        """Whether the leaf ``outcome`` under ``fixed`` is a leaf with ``j``
        fixed to ``k`` too: feasible there at its cost, pure and extendable."""
        commits = outcome[1]
        return commits[j] in ([], [k]) and extendable(tuple(
            got[0] if f < 0 and got else f for f, got in zip(fixing(fixed, j, k), commits)))

    free = fixed = (-1,) * len(params)
    root = solve_fixed(fixed)
    if root is None:
        return SynthesisResult("transformed", False, None, None, math.inf, None)
    best_value = root[0].expected_cost

    # lexicographic certification: fix the occurring parameters one by one
    # to the earliest declared value that still lies under some well-defined
    # valuation and still achieves the optimum within TIE_TOL
    final = root
    for j in problem.occurring:
        for k in range(len(params[j][1])):
            if not extendable(fixing(fixed, j, k)):
                continue
            proved = j != problem.occurring[-1] and proves(final, fixed, j, k)
            sub = final if proved else solve_fixed(fixing(fixed, j, k))
            if sub is not None and sub[0].expected_cost <= best_value + TIE_TOL:
                break
        else:
            # never reached: ``final`` (first the root) is a pure leaf with an
            # extendable joint fixing, within TIE_TOL of ``best_value``; it stays
            # feasible at its cost with j fixed to the value it commits (to an
            # agreeing admissible valuation's if none), so that value passes
            raise SynthesisError("lexicographic certification lost the optimum")
        fixed = fixing(fixed, j, k)
        final = sub

    res, commits = final
    valuation = dict(problem.admissible[int(np.argmax(problem.agreeing(fixed)))])
    flags = tuple(f"parameter '{params[j][0]}' never committed on the support"
                  for j in problem.occurring if not commits[j])
    return SynthesisResult(
        "transformed",
        True,
        valuation,
        res.strategy,
        res.expected_cost,
        res.reach_probability,
        [],
        flags,
    )


def synthesize(program: Program, query: SynthesisQuery) -> List[SynthesisResult]:
    """Dispatch on the query's method; 'both' runs the two routes and raises
    MethodDisagreement if they differ beyond tolerance."""
    results = []
    if query.method in ("enumerate", "both"):
        results.append(synthesize_enumerate(program, query))
    if query.method in ("transformed", "both"):
        results.append(synthesize_transformed(program, query))
    if query.method == "both":
        a, b = results
        if a.feasible != b.feasible:
            raise MethodDisagreement(
                f"feasibility differs: enumerate={a.feasible}, transformed={b.feasible}"
            )
        if a.feasible:
            if abs(a.expected_cost - b.expected_cost) > AGREEMENT_TOL:
                raise MethodDisagreement(
                    f"expected cost differs: {a.expected_cost} vs {b.expected_cost}"
                )
            if abs((a.reach_probability or 0) - (b.reach_probability or 0)) > AGREEMENT_TOL:
                raise MethodDisagreement(
                    f"reach probability differs: {a.reach_probability} vs {b.reach_probability}"
                )
            if a.valuation != b.valuation:
                raise MethodDisagreement(
                    f"valuations differ: {a.valuation} vs {b.valuation}"
                )
    return results


# ---------------------------------------------------------------------------
# the nonlinear integer encoding

def _coef(x) -> str:
    # repr is the shortest string that parses back to the same double, so
    # the substitution checker sees exactly the emitted coefficient
    return repr(float(x))


def emit_nilp(program: Program, query: SynthesisQuery) -> str:
    """Text of the direct encoding.

    Sections MINIMIZE / SUBJECT TO / BOUNDS / BINARY; one constraint per
    line, products written ``sig[s,a] * x[u] * p[s']``.  One binary
    characteristic variable per *well-defined* valuation with a single
    one-hot row; the probability/cost recursions are emitted for non-target
    and non-goal states respectively (targets and goals carry their fixed
    rows instead); well-definedness rows appear for every state/action pair
    with a parametric entry.
    """
    model = build_model(program)
    tset = sorted(model.label_states(query.target))
    gset = sorted(model.label_states(query.goal))
    # every value below is read off the entries of its valuation, exact
    # (numerator, denominator) pairs: branch probabilities flat in model
    # order, as the model's branches, and state costs
    entries = [(probs, costs) for _, probs, costs in well_defined_entries(model)]
    if not entries:
        raise SynthesisError("no well-defined valuation exists")
    choice_start, branch_start = model.choice_start.tolist(), model.branch_start.tolist()
    targets = model.targets.tolist()
    parametric = [isinstance(p, Expr) for p in model.probs]

    values = set()
    num_sa = len(model.actions)
    for j in np.flatnonzero(parametric).tolist():
        values.update(probs[j] for probs, _ in entries)
    for s, c in enumerate(model.costs):
        if isinstance(c, Expr):
            values.update(costs[s] for _, costs in entries)
    value_count = len(values)
    size_expr = model.num_states * num_sa + value_count ** 2

    lines = [
        "# structured-synthesis integer program",
        f"# states: {model.num_states}  state-action pairs: {num_sa}  "
        f"expression values: {value_count}  well-defined valuations: {len(entries)}",
        f"# problem size |S|*|A| + |Val(L)|^2 = {model.num_states}*{num_sa} + {value_count}^2 = {size_expr}",
        f"# bound: Pr(F \"{query.target}\") <= {format_fraction(Fraction(query.bound))}"
        f"   objective: EC(F \"{query.goal}\")",
        "MINIMIZE",
        f"  c[s{model.initial}]",
        "SUBJECT TO",
        f"  bound: p[s{model.initial}] <= {_coef(Fraction(query.bound))}",
    ]
    lines += [f"  target_s{s}: p[s{s}] = 1" for s in tset]
    lines += [f"  goal_s{s}: c[s{s}] = 0" for s in gset]
    onehot = " + ".join(f"x[u{k}]" for k in range(len(entries)))
    lines.append(f"  onehot: {onehot} = 1")

    def terms_join(terms: List[str]) -> str:
        out = terms[0]
        for t in terms[1:]:
            out += (" - " + t[1:]) if t.startswith("-") else (" + " + t)
        return out

    def choices(s: int):
        # per choice of state s: its index there and its branches' range
        first, end = choice_start[s], choice_start[s + 1]
        return ((a, range(branch_start[c], branch_start[c + 1]))
                for a, c in enumerate(range(first, end)))

    def recursion(s: int, var: str) -> str:
        # the probability (``p``) or expected-cost (``c``) recursion of s
        terms = [f"{var}[s{s}]"]
        for a, branches in choices(s):
            for k, (probs, costs) in enumerate(entries):
                p, q = costs[s]
                if var == "c" and p != 0:
                    terms.append(f"-{_coef(p / q)} sig[s{s},a{a}] * x[u{k}]")
                for j in branches:
                    p, q = probs[j]
                    if p != 0:
                        terms.append(
                            f"-{_coef(p / q)} sig[s{s},a{a}] * x[u{k}] * {var}[s{targets[j]}]")
        return terms_join(terms)

    states = range(model.num_states)
    tset_set, gset_set = set(tset), set(gset)
    lines += [f"  pdef_s{s}: {recursion(s, 'p')} = 0" for s in states if s not in tset_set]
    lines += [f"  cdef_s{s}: {recursion(s, 'c')} = 0" for s in states if s not in gset_set]
    for s in states:
        for a, branches in choices(s):
            if not any(parametric[j] for j in branches):
                continue
            terms = [f"{_coef(p / q)} x[u{k}]" for j in branches
                     for k, (p, q) in enumerate(probs[j] for probs, _ in entries)]
            lines.append(f"  wd_s{s}_a{a}: {terms_join(terms)} = 1")
    for s in states:
        row = " + ".join(f"sig[s{s},a{a}]" for a, _ in choices(s))
        lines.append(f"  strat_s{s}: {row} = 1")

    lines.append("BOUNDS")
    lines += [f"  0 <= p[s{s}] <= 1" for s in states]
    lines += [f"  c[s{s}] >= 0" for s in states]
    lines += [f"  0 <= sig[s{s},a{a}] <= 1" for s in states for a, _ in choices(s)]
    lines.append("BINARY")
    lines += [f"  x[u{k}]" for k in range(len(entries))]
    lines.append("END")
    return "\n".join(lines) + "\n"


def nilp_witness(program: Program, query: SynthesisQuery, valuation: Mapping) -> dict:
    """Variable assignment induced by a valuation whose instance is a chain:
    per-state reachability and expected-cost values, unit strategy weights,
    and the one-hot characteristic vector."""
    model = build_model(program)
    if model.kind == "mimdp":
        valuations = well_defined_valuations(model)
        inst = instantiate(model, dict(valuation))
    else:
        valuations = [{}]
        inst = model
    if inst.kind != "mc":
        raise SynthesisError("witness construction expects a chain instance")
    tset = model.label_states(query.target)
    gset = model.label_states(query.goal)
    pvec, _ = reach_prob(inst, tset, "max")
    cvec, _ = expected_cost(inst, gset, "min")
    assignment = {}
    for s in range(model.num_states):
        assignment[f"p[s{s}]"] = float(pvec.values[s])
        assignment[f"c[s{s}]"] = float(cvec.values[s])
        for a in range(model.choice_start[s + 1] - model.choice_start[s]):
            assignment[f"sig[s{s},a{a}]"] = 1.0
    target = dict(valuation)
    for k, u in enumerate(valuations):
        assignment[f"x[u{k}]"] = 1.0 if u == target else 0.0
    return assignment


def check_nilp_assignment(text: str, assignment: Mapping[str, float], tol: float = 1e-9) -> list:
    """Violations of the emitted constraints under the assignment.

    Returns a list of (constraint name, violation magnitude); empty means
    every SUBJECT TO row and every bound holds within the tolerance.
    """
    violations = []
    section = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line in ("MINIMIZE", "SUBJECT TO", "BOUNDS", "BINARY", "END"):
            section = line
            continue
        if section == "SUBJECT TO":
            name, rest = line.split(":", 1)
            lhs_text, sense, rhs_text = _split_relation(rest.strip())
            value = _eval_terms(lhs_text, assignment)
            rhs = float(rhs_text)
            if sense == "<=":
                gap = value - rhs
            elif sense == ">=":
                gap = rhs - value
            else:
                gap = abs(value - rhs)
            if gap > tol:
                violations.append((name.strip(), gap))
        elif section == "BOUNDS":
            parts = line.split("<=")
            if len(parts) == 3:
                lo, var, hi = float(parts[0]), parts[1].strip(), float(parts[2])
                v = assignment[var]
                if v < lo - tol or v > hi + tol:
                    violations.append((f"bounds {var}", max(lo - v, v - hi)))
            else:
                var, lo = line.split(">=")
                v = assignment[var.strip()]
                if v < float(lo) - tol:
                    violations.append((f"bounds {var.strip()}", float(lo) - v))
        elif section == "BINARY":
            v = assignment[line]
            gap = min(abs(v), abs(v - 1.0))
            if gap > tol:
                violations.append((f"binary {line}", gap))
    return violations


def _split_relation(text: str):
    for sense in ("<=", ">=", "="):
        # '=' must not match inside '<=' / '>='
        idx = _find_relation(text, sense)
        if idx >= 0:
            return text[:idx], sense, text[idx + len(sense):]
    raise ValueError(f"no relation in constraint: {text!r}")


def _find_relation(text: str, sense: str) -> int:
    i = 0
    while True:
        i = text.find(sense, i)
        if i < 0:
            return -1
        if sense == "=" and i > 0 and text[i - 1] in "<>!":
            i += 1
            continue
        return i


def _eval_terms(text: str, assignment: Mapping[str, float]) -> float:
    total = 0.0
    for sign, term in _terms(text):
        factors = [f.strip() for f in term.split("*")]
        value = sign
        for f in factors:
            parts = f.split()
            for part in parts:
                if not part:
                    continue
                if part[0].isdigit() or part[0] == ".":
                    value *= float(part)
                else:
                    value *= assignment[part]
        total += value
    return total


def _terms(text: str):
    tokens = text.replace(" - ", " + -").split(" + ")
    for tok in tokens:
        tok = tok.strip()
        if not tok:
            continue
        if tok.startswith("-"):
            yield -1.0, tok[1:]
        else:
            yield 1.0, tok

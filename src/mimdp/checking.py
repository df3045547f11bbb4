"""Explicit-state model checking.

Optimal reachability probabilities and expected costs via qualitative
precomputation (the probability-0 and probability-1 sets) followed by value
iteration, cost-bounded reachability on the cost-unfolded product,
specification checking, and extraction of deterministic memoryless optimal
strategies.

The qualitative sets are the standard graph algorithms, linear in the model
size per search: backward searches over one predecessor list per call, a
per-state counter of choices not yet hitting the target set, and for the
maximal probability-1 set the nested fixpoint whose rounds are each one
backward search.  Zero-probability branches are not edges of the graph.

Value iteration starts from zero (iterates are monotone from below) and runs
to a relative residual of 1e-8; the extracted strategy is then evaluated
exactly by solving its induced linear system, which is what the returned
values report.  The system is dense up to 3000 states and sparse above, so
memory stays linear in the model size.  If that polish step fails its sanity
checks (possible only for greedy ties in the max direction), the raw
iteration values are kept and ``ValueVector.polished`` is False.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple, Union

import numpy as np

from .expressions import Expr
from .models import Choice, ExplicitModel, ModelError, Strategy

DEFAULT_TOL = 1e-8
_MAX_SWEEPS = 1_000_000
_POLISH_DENSE_LIMIT = 3000


class ExpectedCostUndefined(ModelError):
    pass


@dataclass
class ValueVector:
    values: np.ndarray
    iterations: int
    residual: float
    polished: bool  # False: the polish step was rejected, raw VI values kept

    def at_initial(self, model: ExplicitModel) -> float:
        return float(self.values[model.initial])


# ---------------------------------------------------------------------------
# flat arrays

class _Arrays:
    """Flattened transition structure for vectorized sweeps.

    Zero-probability branches are dropped: they are not edges of the graph,
    so the qualitative sets ignore them, and value iteration never forms
    ``0 * inf``.
    """

    def __init__(self, model: ExplicitModel):
        if model.kind == "mimdp":
            raise ModelError("model checking needs a concrete model; instantiate first")
        choice_state = []
        branch_start = [0]
        choice_start = [0]
        targets: list = []
        probs: list = []
        # per state, the choices with a branch into it (ascending; a choice
        # appears once per such branch): the graph searches walk these
        pred: list = [[] for _ in range(model.num_states)]
        for si, row in enumerate(model.choices):
            for ch in row:
                c = len(choice_state)
                choice_state.append(si)
                for p, t in ch.branches:
                    if not p:
                        continue
                    targets.append(t)
                    probs.append(float(p))
                    pred[t].append(c)
                if len(targets) == branch_start[-1]:
                    raise ModelError(
                        f"choice with no positive branch at state {model.state_text(si)}"
                    )
                branch_start.append(len(targets))
            choice_start.append(len(choice_state))
        self.num_states = model.num_states
        self.owner = choice_state  # the state of each choice, as a list
        self.predecessors = pred
        self.choice_state = np.asarray(choice_state, dtype=np.int64)
        self.choice_start = np.asarray(choice_start, dtype=np.int64)
        self.branch_start = np.asarray(branch_start, dtype=np.int64)
        self.targets = np.asarray(targets, dtype=np.int64)
        self.probs = np.asarray(probs, dtype=np.float64)
        self.num_choices = len(choice_state)

    def choice_values(self, x: np.ndarray) -> np.ndarray:
        contrib = self.probs * x[self.targets]
        return np.add.reduceat(contrib, self.branch_start[:-1])

    def state_opt(self, q: np.ndarray, direction: str) -> np.ndarray:
        op = np.maximum if direction == "max" else np.minimum
        return op.reduceat(q, self.choice_start[:-1])


def _reachable_from(arr: _Arrays, start: int) -> set:
    # a state's choices, and so its branches, are contiguous
    first_branch = arr.branch_start[arr.choice_start].tolist()
    succ = arr.targets.tolist()
    seen = {start}
    stack = [start]
    while stack:
        s = stack.pop()
        for t in succ[first_branch[s]:first_branch[s + 1]]:
            if t not in seen:
                seen.add(t)
                stack.append(t)
    return seen


# ---------------------------------------------------------------------------
# qualitative precomputation: linear-time graph searches over the
# predecessor lists (Baier & Katoen, Principles of Model Checking, 10.6)

def _backward(arr: _Arrays, seeds: set, stop=frozenset()) -> set:
    """The seeds plus every state outside ``stop`` with a path into them."""
    pred, owner = arr.predecessors, arr.owner
    seen = set(seeds)
    stack = list(seeds)
    while stack:
        for c in pred[stack.pop()]:
            s = owner[c]
            if s not in seen and s not in stop:
                seen.add(s)
                stack.append(s)
    return seen


def _prob0_max(arr: _Arrays, targets: set) -> set:
    """States whose maximal reachability probability is zero: the complement
    of backward graph reachability from the target set."""
    return set(range(arr.num_states)) - _backward(arr, targets)


def _prob1_max(arr: _Arrays, targets: set) -> set:
    """States with a strategy reaching the targets almost surely
    (greatest fixpoint over a least fixpoint).

    Each outer round is one backward search from the targets inside the
    current set ``b``, over choices whose successors all lie in ``b``.  A
    state that drops out of ``b`` switches off the choices leading into it.
    """
    pred, owner = arr.predecessors, arr.owner
    inside = [True] * arr.num_choices  # every successor still in b
    b = set(range(arr.num_states))
    while True:
        r = set(targets)
        stack = list(targets)
        while stack:
            for c in pred[stack.pop()]:
                s = owner[c]
                if inside[c] and s not in r and s in b:
                    r.add(s)
                    stack.append(s)
        if r == b:
            return b
        for dropped in b - r:
            for c in pred[dropped]:
                inside[c] = False
        b = r


def _prob0_min(arr: _Arrays, targets: set) -> set:
    """States with a strategy avoiding the targets with probability one.

    Least fixpoint of the states all of whose (at least one) choices hit
    the set, counted down per state as choices start hitting it.
    """
    pred, owner = arr.predecessors, arr.owner
    missing = np.diff(arr.choice_start).tolist()  # choices not yet hitting
    hits = [False] * arr.num_choices
    hit = set(targets)
    stack = list(targets)
    while stack:
        for c in pred[stack.pop()]:
            if hits[c]:
                continue
            hits[c] = True
            s = owner[c]
            missing[s] -= 1
            if missing[s] == 0 and s not in hit:
                hit.add(s)
                stack.append(s)
    return set(range(arr.num_states)) - hit


def _prob1_min(arr: _Arrays, targets: set) -> set:
    """States reaching the targets almost surely under every strategy."""
    bad = _backward(arr, _prob0_min(arr, targets), stop=targets)
    return set(range(arr.num_states)) - bad


# ---------------------------------------------------------------------------
# value iteration core

def _sweep_residual(new: np.ndarray, old: np.ndarray, mask: np.ndarray) -> float:
    if not mask.any():
        return 0.0
    diff = np.abs(new[mask] - old[mask])
    denom = np.maximum(np.abs(new[mask]), 1.0e-300)
    finite = np.isfinite(new[mask])
    if not finite.any():
        return 0.0
    rel = np.where(new[mask] > 0, diff / denom, diff)
    return float(np.max(rel[finite]))


def _iterate(
    arr: _Arrays,
    x: np.ndarray,
    free_mask: np.ndarray,
    direction: str,
    tol: float,
    state_cost: Optional[np.ndarray] = None,
    trace: Optional[list] = None,
) -> Tuple[np.ndarray, int, float]:
    iterations = 0
    residual = np.inf
    while residual > tol:
        q = arr.choice_values(x)
        if state_cost is not None:
            q = q + state_cost[arr.choice_state]
        v = arr.state_opt(q, direction)
        new = np.where(free_mask, v, x)
        residual = _sweep_residual(new, x, free_mask)
        x = new
        iterations += 1
        if trace is not None:
            trace.append(x.copy())
        if iterations > _MAX_SWEEPS:
            raise ModelError("value iteration failed to converge")
    return x, iterations, residual


def _greedy(arr: _Arrays, x: np.ndarray, direction: str,
            state_cost: Optional[np.ndarray] = None) -> np.ndarray:
    """Optimal choice per state, lowest index on ties (as np.argmax /
    np.argmin per state would pick, a NaN counting as optimal)."""
    q = arr.choice_values(x)
    if state_cost is not None:
        q = q + state_cost[arr.choice_state]
    best = arr.state_opt(q, direction)[arr.choice_state]
    optimal = np.flatnonzero((q == best) | np.isnan(q))
    first = arr.choice_start[:-1]
    return optimal[np.searchsorted(optimal, first)] - first


def _chosen_branches(arr: _Arrays, picks: np.ndarray, region: np.ndarray):
    """The branches of each region state's picked choice, in order, as
    (row in ``region``, target state, probability)."""
    chosen = arr.choice_start[region] + picks[region]
    lo = arr.branch_start[chosen]
    counts = arr.branch_start[chosen + 1] - lo
    rows = np.repeat(np.arange(len(region)), counts)
    idx = np.arange(int(counts.sum())) + np.repeat(lo - (np.cumsum(counts) - counts), counts)
    return rows, arr.targets[idx], arr.probs[idx]


def _polish(
    arr: _Arrays,
    picks: np.ndarray,
    vi_values: np.ndarray,
    region: np.ndarray,
    rhs: np.ndarray,
    clip: Optional[Tuple[float, float]],
) -> Optional[np.ndarray]:
    """Exact policy evaluation on ``region``: solve (I - P) x = rhs.

    Up to ``_POLISH_DENSE_LIMIT`` states the system is one dense array;
    above it, a sparse matrix built from the transition arrays, so memory
    stays linear in the region.  Returns the refined values for the region,
    or None when the chosen strategy is not proper there (singular or badly
    deviating system).
    """
    n = len(region)
    if not n:
        return np.zeros(0)
    rows, targets, probs = _chosen_branches(arr, picks, region)
    col_of = np.full(arr.num_states, -1, dtype=np.int64)
    col_of[region] = np.arange(n)
    cols = col_of[targets]
    kept = cols >= 0
    rows, cols, probs = rows[kept], cols[kept], probs[kept]
    if n <= _POLISH_DENSE_LIMIT:
        a = np.zeros((n, n))
        np.add.at(a, (rows, cols), probs)  # P, summed in branch order
        diag = np.diag_indices(n)
        ones_minus = 1.0 - a[diag]
        np.subtract(0.0, a, out=a)
        a[diag] = ones_minus  # I - P, entry for entry as np.eye(n) - P
        try:
            sol = np.linalg.solve(a, rhs)
        except np.linalg.LinAlgError:
            return None
    else:
        from scipy.sparse import csr_matrix, identity
        from scipy.sparse.linalg import MatrixRankWarning, spsolve

        a = identity(n, format="csr") - csr_matrix((probs, (rows, cols)), shape=(n, n))
        with warnings.catch_warnings():
            # a singular system comes back as NaNs, rejected below
            warnings.simplefilter("ignore", MatrixRankWarning)
            sol = spsolve(a, rhs)
    if not np.all(np.isfinite(sol)):
        return None
    if np.max(np.abs(a @ sol - rhs)) > 1e-7 * max(1.0, float(np.max(np.abs(rhs)))):
        return None
    vi_region = vi_values[region]
    scale = max(1.0, float(np.max(np.abs(vi_region))))
    if np.max(np.abs(sol - vi_region)) > 1e-5 * scale:
        return None
    if clip is not None:
        sol = np.clip(sol, clip[0], clip[1])
    return sol


# ---------------------------------------------------------------------------
# public operations

def _mask(n: int, states: set) -> np.ndarray:
    out = np.zeros(n, dtype=bool)
    out[list(states)] = True
    return out


def _target_set(model: ExplicitModel, targets) -> set:
    if isinstance(targets, str):
        return set(model.label_states(targets))
    out = set(int(t) for t in targets)
    for t in out:
        if not (0 <= t < model.num_states):
            raise ModelError(f"target state {t} out of range")
    return out


def reach_prob(
    model: ExplicitModel,
    targets,
    direction: str = "max",
    *,
    tol: float = DEFAULT_TOL,
    trace: Optional[list] = None,
) -> Tuple[ValueVector, Strategy]:
    """Optimal probability of eventually reaching ``targets``.

    Returns per-state values and a deterministic memoryless strategy
    (lowest-choice-index tie-break).  For Markov chains the direction is
    irrelevant.  Probability-0 and probability-1 states are set exactly by
    the qualitative precomputation, not by iteration.
    """
    if direction not in ("min", "max"):
        raise ValueError("direction must be 'min' or 'max'")
    arr = _Arrays(model)
    tset = _target_set(model, targets)

    # on a chain each min set equals its max counterpart, and _prob1_min
    # skips the nested fixpoint of _prob1_max
    if direction == "min" or model.kind == "mc":
        z0 = _prob0_min(arr, tset)
        z1 = _prob1_min(arr, tset)
    else:
        z0 = _prob0_max(arr, tset)
        z1 = _prob1_max(arr, tset)
    # targets always have probability one
    z1 |= tset
    z0 -= tset
    one = _mask(arr.num_states, z1)
    free = ~(one | _mask(arr.num_states, z0))

    x = np.where(one, 1.0, 0.0)
    x, iters, residual = _iterate(arr, x, free, direction, tol, trace=trace)
    picks = _greedy(arr, x, direction)

    polished = True
    maybe = np.flatnonzero(free)
    if len(maybe):
        rows, succ, probs = _chosen_branches(arr, picks, maybe)
        into = one[succ]
        rhs = np.bincount(rows[into], weights=probs[into], minlength=len(maybe))
        refined = _polish(arr, picks, x, maybe, rhs, clip=(0.0, 1.0))
        polished = refined is not None
        if polished:
            x = x.copy()
            x[maybe] = refined

    strategy = Strategy.deterministic(picks.tolist())
    return ValueVector(x, iters, residual, polished), strategy


def expected_cost(
    model: ExplicitModel,
    goals,
    direction: str = "min",
    *,
    tol: float = DEFAULT_TOL,
    trace: Optional[list] = None,
) -> Tuple[ValueVector, Strategy]:
    """Optimal expected accumulated cost until first reaching ``goals``.

    Cost accrues per visit of a non-goal state, including the initial one.
    Defined only where the goals are reached almost surely under every
    strategy (the conservative min-direction precondition); other states get
    +inf, and the operation fails if the initial state cannot satisfy it.
    """
    if direction not in ("min", "max"):
        raise ValueError("direction must be 'min' or 'max'")
    arr = _Arrays(model)
    gset = _target_set(model, goals)
    for s, c in enumerate(model.costs):
        if isinstance(c, Expr):
            raise ModelError("expected cost needs concrete state costs")
        if c < 0:
            raise ModelError(f"negative cost at state {s}")

    sure = _prob1_min(arr, gset)
    required = _reachable_from(arr, model.initial)
    lacking = sorted(required - sure)
    if lacking:
        raise ExpectedCostUndefined(
            "expected cost undefined: goal not reached almost surely from "
            f"state {model.state_text(lacking[0])}"
        )

    cost = np.array([float(c) for c in model.costs])
    goal = _mask(arr.num_states, gset)
    cost_masked = np.where(goal, 0.0, cost)

    outside = ~_mask(arr.num_states, sure)
    x = np.where(outside, np.inf, 0.0)
    free = ~(goal | outside)

    x, iters, residual = _iterate(
        arr, x, free, direction, tol, state_cost=cost_masked, trace=trace
    )
    picks = _greedy(arr, x, direction, state_cost=cost_masked)

    polished = True
    region = np.flatnonzero(free)
    if len(region):
        refined = _polish(arr, picks, x, region, cost[region], clip=(0.0, np.inf))
        polished = refined is not None
        if polished:
            x = x.copy()
            x[region] = refined

    strategy = Strategy.deterministic(picks.tolist())
    return ValueVector(x, iters, residual, polished), strategy


def cost_bounded_reach(
    model: ExplicitModel,
    targets,
    bound: int,
    direction: str = "max",
    *,
    tol: float = DEFAULT_TOL,
) -> float:
    """Probability of reaching ``targets`` with accumulated cost strictly
    below ``bound``.

    Cost accrues when a state is visited; entering a target stops accrual
    (the target's own cost does not count), so a path succeeds iff the sum
    of the costs of the states strictly before the first target visit is
    below the bound.  Computed on the budget-unfolded product.
    """
    if bound < 0:
        raise ValueError("cost bound must be nonnegative")
    tset = _target_set(model, targets)
    costs = []
    for s, c in enumerate(model.costs):
        if isinstance(c, Expr):
            raise ModelError("cost-bounded reachability needs concrete costs")
        if c.denominator != 1:
            raise ModelError(f"non-integer cost {c} at state {s}")
        costs.append(int(c))

    width = bound + 1  # remaining budget in 0..bound

    def node(s: int, b: int) -> int:
        return s * width + b

    n = model.num_states * width
    states = [None] * n
    rows: list = [None] * n
    for s in range(model.num_states):
        for b in range(width):
            i = node(s, b)
            states[i] = model.states[s] + (b,)
            if s in tset:
                rows[i] = [Choice(None, ((Fraction(1), i),))]
            else:
                b2 = max(b - costs[s], 0)
                new_row = []
                for ch in model.choices[s]:
                    new_row.append(
                        Choice(ch.action, tuple((p, node(t, b2)) for p, t in ch.branches))
                    )
                rows[i] = new_row

    product = ExplicitModel(
        kind="mc" if model.kind == "mc" else "mdp",
        var_names=model.var_names + ("_budget",),
        states=states,
        initial=node(model.initial, bound),
        choices=rows,
        costs=[Fraction(0)] * n,
        labels={},
        parameters={},
    )
    goal = {node(s, b) for s in tset for b in range(1, width)}
    if not goal:
        return 0.0
    vec, _ = reach_prob(product, goal, direction, tol=tol)
    return float(vec.values[product.initial])


# ---------------------------------------------------------------------------
# specifications

@dataclass(frozen=True)
class ReachabilityBound:
    target: str
    bound: Fraction


@dataclass(frozen=True)
class ReachabilityQuery:
    target: str
    direction: Optional[str]  # None on chains


@dataclass(frozen=True)
class ExpectedCostQuery:
    goal: str
    direction: str


@dataclass(frozen=True)
class CostBoundQuery:
    target: str
    limit: int
    direction: Optional[str]


Specification = Union[ReachabilityBound, ReachabilityQuery, ExpectedCostQuery, CostBoundQuery]

_PROP_RE = re.compile(
    r"""^\s*
    (?P<head>Pmin|Pmax|P|ECmin|ECmax|EC)\s*
    (?:=\s*\?|<=\s*(?P<bound>[0-9]+(?:\.[0-9]+)?))\s*
    \[\s*F\s*
    (?:\{\s*C\s*<\s*(?P<limit>[0-9]+)\s*\}\s*)?
    "(?P<label>[^"]+)"\s*
    \]\s*$""",
    re.VERBOSE,
)


def parse_property(text: str) -> Specification:
    """Property mini-syntax: ``P<=0.3 [F "t"]``, ``Pmin=? [F "t"]``,
    ``Pmax=? [F "t"]``, ``ECmin=? [F "g"]``, ``P=? [F{C<10} "t"]``."""
    m = _PROP_RE.match(text)
    if not m:
        raise ValueError(f"cannot parse property: {text!r}")
    head = m.group("head")
    bound = m.group("bound")
    limit = m.group("limit")
    label = m.group("label")
    direction = {"Pmin": "min", "Pmax": "max", "ECmin": "min", "ECmax": "max"}.get(head)
    if head.startswith("EC"):
        if bound is not None or limit is not None:
            raise ValueError("expected-cost properties support only the query form")
        return ExpectedCostQuery(label, direction or "min")
    if bound is not None:
        if limit is not None:
            raise ValueError("bounded form does not combine with a cost bound")
        lam = Fraction(bound)
        if not (0 <= lam <= 1):
            raise ValueError("probability bound must lie in [0,1]")
        return ReachabilityBound(label, lam)
    if limit is not None:
        return CostBoundQuery(label, int(limit), direction)
    return ReachabilityQuery(label, direction)


FEASIBILITY_TOL = 1e-9


def check_spec(
    model: ExplicitModel,
    spec: Specification,
    *,
    existential: bool = False,
    tol: float = DEFAULT_TOL,
) -> Tuple[Optional[bool], float]:
    """Evaluate a specification at the initial state.

    For bounded reachability on an MDP the bound is checked against the
    maximizing direction (satisfaction under all strategies) unless the
    existential reading is requested.  Query forms return verdict None.
    """
    if isinstance(spec, ReachabilityBound):
        direction = "min" if existential else "max"
        vec, _ = reach_prob(model, spec.target, direction, tol=tol)
        value = vec.at_initial(model)
        return value <= float(spec.bound) + FEASIBILITY_TOL, value
    if isinstance(spec, ReachabilityQuery):
        direction = spec.direction
        if direction is None:
            if model.kind == "mdp":
                raise ModelError("P=? needs Pmin/Pmax on an MDP")
            direction = "max"
        vec, _ = reach_prob(model, spec.target, direction, tol=tol)
        return None, vec.at_initial(model)
    if isinstance(spec, ExpectedCostQuery):
        vec, _ = expected_cost(model, spec.goal, spec.direction, tol=tol)
        return None, vec.at_initial(model)
    if isinstance(spec, CostBoundQuery):
        direction = spec.direction
        if direction is None:
            if model.kind == "mdp":
                raise ModelError("P=? needs Pmin/Pmax on an MDP")
            direction = "max"
        value = cost_bounded_reach(model, spec.target, spec.limit, direction, tol=tol)
        return None, value
    raise TypeError(f"not a specification: {spec!r}")

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
checks (a greedy tie in the max direction, or iteration that stopped far
from the fixpoint), the raw iteration values are kept and
``ValueVector.polished`` is False.

The checker works on flat arrays of a model's transition structure, built
once per model on first use and kept on it (models are immutable once
built).  The cost-bounded product's arrays are derived from the base
model's with a few vectorised index operations, not built from objects.

Value iteration and the polish work on stacks of configurations that share
one structure: ``reach_prob`` and ``expected_cost`` run a stack of one, and
``chain_family`` checks a family of chains one support pattern at a time,
each configuration stopping at its own residual and keeping its own polish
checks, so every row is what checking that configuration alone gives.
"""

from __future__ import annotations

import re
import warnings
from collections import abc
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from .expressions import Expr
from .models import Choice, ExplicitModel, ModelError, Strategy

DEFAULT_TOL = 1e-8
FEASIBILITY_TOL = 1e-9  # slack of a probability bound, here and in synthesis
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

    A family of configurations shares one structure: given ``support`` (per
    branch of ``model``, flat in model order, whether it is an edge) and
    ``probs`` (configurations × edges), the arrays hold the edges of that
    support and one row of probabilities per configuration.
    """

    def __init__(self, model: ExplicitModel, support=None, probs=None):
        if model.kind == "mimdp" and support is None:
            raise ModelError("model checking needs a concrete model; instantiate first")
        choice_state = []
        branch_start = [0]
        choice_start = [0]
        targets: list = []
        floats: list = []
        edges = iter(support) if support is not None else None
        # per state, the choices with a branch into it (ascending; a choice
        # appears once per such branch): the graph searches walk these
        pred: list = [[] for _ in range(model.num_states)]
        for si, row in enumerate(model.choices):
            for ch in row:
                c = len(choice_state)
                choice_state.append(si)
                for p, t in ch.branches:
                    if not (p if edges is None else next(edges)):
                        continue
                    targets.append(t)
                    if edges is None:
                        floats.append(float(p))
                    pred[t].append(c)
                if len(targets) == branch_start[-1]:
                    raise ModelError(
                        f"choice with no positive branch at state {model.state_text(si)}"
                    )
                branch_start.append(len(targets))
            choice_start.append(len(choice_state))
        self._fill(model.num_states, choice_state, pred, choice_start, branch_start,
                   targets, floats if probs is None else probs)

    def _fill(self, num_states, choice_state, pred, choice_start, branch_start,
              targets, probs) -> None:
        self.num_states = num_states
        self.predecessors = pred
        self.choice_state = np.asarray(choice_state, dtype=np.int64)
        self.owner = self.choice_state.tolist()  # the state of each choice
        self.choice_start = np.asarray(choice_start, dtype=np.int64)
        self.branch_start = np.asarray(branch_start, dtype=np.int64)
        self.targets = np.asarray(targets, dtype=np.int64)
        # one row of branch probabilities, or one per configuration
        self.probs = np.asarray(probs, dtype=np.float64)
        self.num_choices = len(self.owner)

    def choice_values(self, x: np.ndarray, probs: Optional[np.ndarray] = None) -> np.ndarray:
        """Each choice's expected successor value; ``x`` is one value per
        state, or a stack of them (one row per configuration)."""
        probs = self.probs if probs is None else probs
        contrib = probs * x.take(self.targets, axis=-1)
        return np.add.reduceat(contrib, self.branch_start[:-1], axis=-1)

    def state_opt(self, q: np.ndarray, direction: str) -> np.ndarray:
        op = np.maximum if direction == "max" else np.minimum
        return op.reduceat(q, self.choice_start[:-1], axis=-1)


def _model_arrays(model: ExplicitModel) -> _Arrays:
    """The flat arrays of a concrete model, built on first use and kept on
    the model.  A model they cannot be built for raises on every call."""
    if model._arrays is None:
        model._arrays = _Arrays(model)
    return model._arrays


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

def _backward(arr: _Arrays, seeds: set, stop=frozenset(), enabled=None) -> set:
    """The seeds plus every state outside ``stop`` with a path into them
    through the choices ``enabled`` (a mask; every choice when None)."""
    pred, owner = arr.predecessors, arr.owner
    on = None if enabled is None else enabled.tolist()
    seen = set(seeds)
    stack = list(seeds)
    while stack:
        for c in pred[stack.pop()]:
            s = owner[c]
            if s not in seen and s not in stop and (on is None or on[c]):
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


def _prob0_min(arr: _Arrays, targets: set, enabled=None) -> set:
    """States with a strategy avoiding the targets with probability one,
    taking only the choices ``enabled`` (a mask; every choice when None).

    Least fixpoint of the states all of whose (at least one) choices hit
    the set, counted down per state as choices start hitting it.
    """
    pred, owner = arr.predecessors, arr.owner
    if enabled is None:
        missing = np.diff(arr.choice_start).tolist()  # choices not yet hitting
        hits = [False] * arr.num_choices
    else:
        # a disabled choice is never counted, and is passed over as if it
        # hit already
        missing = np.bincount(arr.choice_state[enabled], minlength=arr.num_states).tolist()
        hits = (~enabled).tolist()
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


def _prob1_min(arr: _Arrays, targets: set, zero: Optional[set] = None,
               enabled=None) -> set:
    """States reaching the targets almost surely under every strategy that
    takes only the choices ``enabled`` (a mask; every choice when None);
    ``zero`` is ``_prob0_min(arr, targets)`` when the caller has it.  A
    state outside the targets needs an enabled choice."""
    if zero is None:
        zero = _prob0_min(arr, targets, enabled)
    bad = _backward(arr, zero, stop=targets, enabled=enabled)
    return set(range(arr.num_states)) - bad


# ---------------------------------------------------------------------------
# value iteration core

def _sweep_residual(new: np.ndarray, old: np.ndarray, free: np.ndarray) -> np.ndarray:
    """Per row of the stacks: the largest relative change over the finite
    entries at the indices ``free`` (absolute where the new value is not
    positive), 0 when there is none."""
    if not len(free):
        return np.zeros(len(new))
    new, old = new.take(free, axis=1), old.take(free, axis=1)
    diff = np.abs(new - old)
    rel = np.where(new > 0, diff / np.maximum(np.abs(new), 1.0e-300), diff)
    finite = np.isfinite(new)
    if finite.all():
        return rel.max(axis=1)
    out = np.where(finite, rel, -np.inf).max(axis=1)
    out[~finite.any(axis=1)] = 0.0
    return out


def _iterate(
    arr: _Arrays,
    x: np.ndarray,
    free_mask: np.ndarray,
    direction: str,
    tol: float,
    state_cost: Optional[np.ndarray] = None,
    trace: Optional[list] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Value iteration on a stack of configurations: ``x`` and
    ``state_cost`` have one row per configuration, and so does
    ``arr.probs`` unless all rows share it.  Each row stops at its own
    residual, with the values and sweep count it would reach alone.
    Returns the final stack, and per row the sweeps and last residual;
    ``trace`` receives a copy of the stack after every sweep."""
    k = len(x)
    iterations = np.zeros(k, dtype=np.int64)
    residual = np.zeros(k)
    active = np.arange(k)
    sweeps = 0
    free = np.flatnonzero(free_mask)
    while len(active):
        whole = len(active) == k
        xa = x if whole else x[active]
        probs = arr.probs if whole or arr.probs.ndim == 1 else arr.probs[active]
        q = arr.choice_values(xa, probs)
        if state_cost is not None:
            q = q + (state_cost if whole else state_cost[active]).take(arr.choice_state, axis=1)
        v = arr.state_opt(q, direction)
        new = np.where(free_mask, v, xa)
        res = _sweep_residual(new, xa, free)
        if whole:
            x = new
        else:
            x[active] = new
        sweeps += 1
        if trace is not None:
            trace.append(x.copy())
        if sweeps > _MAX_SWEEPS:
            raise ModelError("value iteration failed to converge")
        done = ~(res > tol)
        if done.any():
            iterations[active[done]] = sweeps
            residual[active[done]] = res[done]
            active = active[~done]
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
    return rows, arr.targets[idx], arr.probs[..., idx]


def _polish(
    arr: _Arrays,
    picks: np.ndarray,
    vi_values: np.ndarray,
    region: np.ndarray,
    rhs: np.ndarray,
    clip: Optional[Tuple[float, float]],
) -> Tuple[np.ndarray, np.ndarray]:
    """Exact policy evaluation on ``region``: solve (I - P) x = rhs for
    every row of the stacks ``vi_values`` and ``rhs``, all under the
    strategy ``picks``, with each row's own probabilities.

    Up to ``_POLISH_DENSE_LIMIT`` states the systems are dense arrays,
    stacked at most ``_POLISH_DENSE_LIMIT ** 2`` entries at a time and
    solved together; above it, one sparse matrix per row built from the
    transition arrays, so memory stays linear in the region.  Returns the
    refined region values per row, and per row whether they are accepted:
    False when the strategy is not proper there (singular or badly
    deviating system), in which case the row is meaningless.
    """
    k, n = rhs.shape
    if not n:
        return np.zeros((k, 0)), np.ones(k, dtype=bool)
    rows, targets, probs = _chosen_branches(arr, picks, region)
    col_of = np.full(arr.num_states, -1, dtype=np.int64)
    col_of[region] = np.arange(n)
    cols = col_of[targets]
    kept = cols >= 0
    rows, cols = rows[kept], cols[kept]
    probs = np.broadcast_to(probs[..., kept], (k, len(rows)))
    sol = np.empty((k, n))
    residual = np.empty(k)
    # a failed solve may leave NaNs or infinities, rejected below
    with np.errstate(invalid="ignore", over="ignore"):
        _solve_stack(rows, cols, probs, rhs, sol, residual)
    vi_region = vi_values[:, region]
    accepted = np.all(np.isfinite(sol), axis=1)
    accepted &= ~(residual > 1e-7 * _at_least_one(np.max(np.abs(rhs), axis=1)))
    scale = _at_least_one(np.max(np.abs(vi_region), axis=1))
    accepted &= ~(np.max(np.abs(sol - vi_region), axis=1) > 1e-5 * scale)
    if clip is not None:
        sol = np.clip(sol, clip[0], clip[1])
    return sol, accepted


def _solve_stack(rows, cols, probs, rhs, sol, residual) -> None:
    """Solve (I - P) x = rhs for each row of ``rhs``, P having the entries
    ``probs`` at (``rows``, ``cols``); fill ``sol`` and, per row, the
    largest residual."""
    k, n = rhs.shape
    if n <= _POLISH_DENSE_LIMIT:
        step = max(1, _POLISH_DENSE_LIMIT ** 2 // (n * n))
        diag = np.diag_indices(n)
        for lo in range(0, k, step):
            part = slice(lo, min(lo + step, k))
            a = np.zeros((part.stop - lo, n, n))
            np.add.at(a, (slice(None), rows, cols), probs[part])  # P, in branch order
            ones_minus = 1.0 - a[:, diag[0], diag[1]]
            np.subtract(0.0, a, out=a)
            a[:, diag[0], diag[1]] = ones_minus  # I - P, entry for entry as np.eye(n) - P
            b = rhs[part, :, None]
            try:
                x = np.linalg.solve(a, b)
            except np.linalg.LinAlgError:
                x = np.stack([_solve_or_nan(a[i], b[i]) for i in range(len(a))])
            sol[part] = x[..., 0]
            residual[part] = np.max(np.abs(a @ x - b)[..., 0], axis=1)
    else:
        from scipy.sparse import csr_matrix, identity
        from scipy.sparse.linalg import MatrixRankWarning, spsolve

        for i in range(k):
            a = identity(n, format="csr") - csr_matrix((probs[i], (rows, cols)), shape=(n, n))
            with warnings.catch_warnings():
                # a singular system comes back as NaNs, rejected below
                warnings.simplefilter("ignore", MatrixRankWarning)
                sol[i] = spsolve(a, rhs[i])
            residual[i] = np.max(np.abs(a @ sol[i] - rhs[i]))


def _solve_or_nan(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        return np.full(b.shape, np.nan)


def _at_least_one(m: np.ndarray) -> np.ndarray:
    # max(1.0, m) per entry, as Python's max takes it (a NaN gives 1.0)
    return np.where(m > 1.0, m, 1.0)


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
    n = model.num_states
    for t in out:
        if not (0 <= t < n):
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
    arr = _model_arrays(model)
    tset = _target_set(model, targets)
    x, iters, residual, polished, picks = _reach(
        arr, tset, direction, model.kind == "mc", 1, tol, trace
    )
    vec = ValueVector(x[0], int(iters[0]), float(residual[0]), bool(polished[0]))
    return vec, Strategy.deterministic(picks.tolist())


def _reach(arr: _Arrays, tset: set, direction: str, chain: bool, k: int,
           tol: float, trace: Optional[list] = None):
    """``reach_prob`` on ``k`` configurations that share the structure of
    ``arr`` (``k`` > 1 only on chains, whose one strategy they share):
    the value stack, per row the sweeps, last residual and whether the
    polish was accepted, and the strategy's picks."""
    # on a chain each min set equals its max counterpart, and _prob1_min
    # skips the nested fixpoint of _prob1_max
    if direction == "min" or chain:
        z0 = _prob0_min(arr, tset)
        z1 = _prob1_min(arr, tset, z0)
    else:
        z0 = _prob0_max(arr, tset)
        z1 = _prob1_max(arr, tset)
    # targets always have probability one
    z1 |= tset
    z0 -= tset
    one = _mask(arr.num_states, z1)
    free = ~(one | _mask(arr.num_states, z0))

    x = np.tile(np.where(one, 1.0, 0.0), (k, 1))
    x, iters, residual = _iterate(arr, x, free, direction, tol, trace=trace)
    picks = _picks(arr, x, direction, chain)

    polished = np.ones(k, dtype=bool)
    maybe = np.flatnonzero(free)
    if len(maybe):
        rows, succ, probs = _chosen_branches(arr, picks, maybe)
        into = one[succ]
        rhs = np.zeros((k, len(maybe)))
        np.add.at(rhs, (slice(None), rows[into]), probs[..., into])
        refined, polished = _polish(arr, picks, x, maybe, rhs, clip=(0.0, 1.0))
        x[np.ix_(polished, maybe)] = refined[polished]
    return x, iters, residual, polished, picks


def _picks(arr: _Arrays, x: np.ndarray, direction: str, chain: bool,
           state_cost: Optional[np.ndarray] = None) -> np.ndarray:
    # a chain's one choice per state is the strategy of every configuration
    if chain:
        return np.zeros(arr.num_states, dtype=np.int64)
    return _greedy(arr, x[0], direction, None if state_cost is None else state_cost[0])


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
    arr = _model_arrays(model)
    gset = _target_set(model, goals)
    for s, c in enumerate(model.costs):
        if isinstance(c, Expr):
            raise ModelError("expected cost needs concrete state costs")
        if c < 0:
            raise ModelError(f"negative cost at state {s}")
    cost = np.array([[float(c) for c in model.costs]])
    x, iters, residual, polished, picks = _expected(
        model, arr, gset, cost, direction, model.kind == "mc", tol, trace
    )
    vec = ValueVector(x[0], int(iters[0]), float(residual[0]), bool(polished[0]))
    return vec, Strategy.deterministic(picks.tolist())


def _expected(model: ExplicitModel, arr: _Arrays, gset: set, cost: np.ndarray,
              direction: str, chain: bool, tol: float, trace: Optional[list] = None):
    """``expected_cost`` on the configurations of ``arr`` (one row of
    ``cost`` each; several only on chains), returned as ``_reach`` returns."""
    sure = _prob1_min(arr, gset)
    required = _reachable_from(arr, model.initial)
    lacking = sorted(required - sure)
    if lacking:
        raise ExpectedCostUndefined(
            "expected cost undefined: goal not reached almost surely from "
            f"state {model.state_text(lacking[0])}"
        )

    goal = _mask(arr.num_states, gset)
    cost_masked = np.where(goal, 0.0, cost)

    outside = ~_mask(arr.num_states, sure)
    x = np.tile(np.where(outside, np.inf, 0.0), (len(cost), 1))
    free = ~(goal | outside)

    x, iters, residual = _iterate(
        arr, x, free, direction, tol, state_cost=cost_masked, trace=trace
    )
    picks = _picks(arr, x, direction, chain, cost_masked)

    polished = np.ones(len(cost), dtype=bool)
    region = np.flatnonzero(free)
    if len(region):
        refined, polished = _polish(arr, picks, x, region, cost[:, region], clip=(0.0, np.inf))
        x[np.ix_(polished, region)] = refined[polished]
    return x, iters, residual, polished, picks


def chain_family(
    model: ExplicitModel,
    entries: Sequence[Tuple[Sequence[Fraction], Sequence[Fraction]]],
    targets,
    goals,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per configuration of a family of chains, the probability of reaching
    ``targets`` and the expected cost to ``goals`` at the initial state,
    as ``reach_prob`` and ``expected_cost`` give them on its instance
    (the cost is inf where it is undefined).

    ``model`` has one choice per state and gives the structure every
    configuration shares; ``entries`` holds per configuration its exact
    branch probabilities (flat in model order) and state costs.
    Configurations with the same support, the branches of nonzero
    probability, share one set of arrays and qualitative sets, and run as
    one stack through value iteration and the polish.
    """
    tset = _target_set(model, targets)
    gset = _target_set(model, goals)
    groups: dict = {}  # support -> configurations
    for i, (probs, _) in enumerate(entries):
        groups.setdefault(tuple(map(bool, probs)), []).append(i)
    pr = np.empty(len(entries))
    ec = np.empty(len(entries))
    for support, members in groups.items():
        probs = [[float(p) for p, edge in zip(entries[i][0], support) if edge] for i in members]
        arr = _Arrays(model, support, probs)
        x = _reach(arr, tset, "max", True, len(members), DEFAULT_TOL)[0]
        pr[members] = x[:, model.initial]
        cost = np.array([[float(c) for c in entries[i][1]] for i in members])
        try:
            x = _expected(model, arr, gset, cost, "min", True, DEFAULT_TOL)[0]
        except ExpectedCostUndefined:
            ec[members] = np.inf
        else:
            ec[members] = x[:, model.initial]
    return pr, ec


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
    below the bound.  Computed by ``reach_prob`` on the budget-unfolded
    product: state ``s * (bound + 1) + b`` is ``s`` with budget ``b`` left;
    it has the choices of ``s`` with every branch into ``t`` sent to
    ``t`` with budget ``max(b - cost(s), 0)``, or one self-loop if ``s`` is
    a target.  The product's arrays are derived from the base model's,
    which are built once per model; its rows (``choices``) are built only
    when read.
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
    n = model.num_states * width
    product = ExplicitModel(
        kind="mc" if model.kind == "mc" else "mdp",
        var_names=model.var_names + ("_budget",),
        states=[state + (b,) for state in model.states for b in range(width)],
        initial=model.initial * width + bound,
        choices=_ProductRows(model, tset, costs, width),
        costs=[Fraction(0)] * n,
        labels={},
        parameters={},
    )
    goal = {s * width + b for s in tset for b in range(1, width)}
    if not goal:
        return 0.0
    # with a negative cost, or a base model without arrays (parametric, or
    # a choice with no positive branch), the slot stays empty: reach_prob
    # builds the arrays from the rows and raises where they are faulty
    if all(c >= 0 for c in costs):
        try:
            base = _model_arrays(model)
        except ModelError:
            pass
        else:
            # clamped to fit int64: any cost of at least the width drains
            # every budget
            cost = np.array([min(c, width) for c in costs], dtype=np.int64)
            product._arrays = _product_arrays(
                base, _mask(model.num_states, tset), cost, width
            )
    vec, _ = reach_prob(product, goal, direction, tol=tol)
    return float(vec.values[product.initial])


class _ProductRows(abc.Sequence):
    """The choices of the budget product of ``cost_bounded_reach``, each
    row built when it is read."""

    def __init__(self, model: ExplicitModel, tset: set, costs: list, width: int):
        self._model, self._tset, self._costs, self._width = model, tset, costs, width

    def __len__(self) -> int:
        return self._model.num_states * self._width

    def __getitem__(self, i: int) -> list:
        i = range(len(self))[i]
        s, b = divmod(i, self._width)
        if s in self._tset:
            return [Choice(None, ((Fraction(1), i),))]
        b2 = max(b - self._costs[s], 0)
        return [
            Choice(ch.action, tuple((p, t * self._width + b2) for p, t in ch.branches))
            for ch in self._model.choices[s]
        ]


def _repeat_blocks(first: np.ndarray, length: np.ndarray, width: int):
    """Per state ``s``, the block of ``length[s]`` entries of a base array
    from ``first[s]`` on, once per budget: per entry of the result, the base
    index it copies and its product state ``s * width + b``."""
    length = np.repeat(length, width)
    state = np.repeat(np.arange(len(length)), length)
    shift = np.repeat(first, width) - (np.cumsum(length) - length)
    return np.arange(len(state)) + np.repeat(shift, length), state


def _product_arrays(base: _Arrays, target: np.ndarray, cost: np.ndarray,
                    width: int) -> _Arrays:
    """The arrays of the budget product (see ``cost_bounded_reach``) from
    those of its base model, ``target`` the mask of target states and
    ``cost`` their integer costs: field for field what ``_Arrays`` builds
    from the product's rows."""
    size = base.num_states * width
    # a target's row is one choice with one branch, a self-loop, and the
    # base index it copies is a placeholder: one past the end at worst,
    # hence the padding below
    first_branch = base.branch_start[base.choice_start]
    choice_of, choice_state = _repeat_blocks(
        base.choice_start[:-1], np.where(target, 1, np.diff(base.choice_start)), width
    )
    branch_of, branch_state = _repeat_blocks(
        first_branch[:-1], np.where(target, 1, np.diff(first_branch)), width
    )
    count = np.append(np.diff(base.branch_start), 1)[choice_of]
    count[target[choice_state // width]] = 1
    s, b = np.divmod(branch_state, width)
    loop = target[s]
    succ = np.append(base.targets, 0)[branch_of] * width + np.maximum(b - cost[s], 0)
    targets = np.where(loop, branch_state, succ)
    probs = np.where(loop, 1.0, np.append(base.probs, 1.0)[branch_of])

    # per state, the choice of each branch into it, ascending
    into = np.argsort(targets, kind="stable")
    flat = np.repeat(np.arange(len(count)), count)[into].tolist()
    ends = np.cumsum(np.bincount(targets, minlength=size)).tolist()
    pred = [flat[lo:hi] for lo, hi in zip([0] + ends, ends)]

    arr = _Arrays.__new__(_Arrays)
    arr._fill(
        size,
        choice_state,
        pred,
        np.append(0, np.cumsum(np.bincount(choice_state, minlength=size))),
        np.append(0, np.cumsum(count)),
        targets,
        probs,
    )
    return arr


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

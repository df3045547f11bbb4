"""Explicit-state model checking.

Optimal reachability probabilities and expected costs via qualitative
precomputation (the probability-0 and probability-1 sets) followed by an
exact solve on Markov chains and by value iteration on MDPs, cost-bounded
reachability on the cost-unfolded product, specification checking, and
extraction of deterministic memoryless optimal strategies.

The qualitative sets are the standard graph algorithms, linear in the model
size per search: backward searches over the predecessor graph, kept in CSR
form, a per-state counter of choices not yet hitting the target set, and for
the maximal probability-1 set the nested fixpoint whose rounds are each one
backward search.  Zero-probability branches are not edges of the graph.
A set of states is a boolean mask over the model's states throughout, from
the label or the caller's states it is read from to the values it fixes.
A backward search on a graph of at least ``_SEARCH_LIMIT`` states runs in
scipy's compiled breadth-first search over the CSR graph; a smaller one,
every counting search and the search for strongly connected components
are Python worklist loops.  The limit is set by the one-time import of
``scipy.sparse.csgraph``, which costs far more than a small search in a
process that has not loaded ``scipy.sparse``, so small models never pay
it.  A chain's states have one choice each, so its probability-0 set is
one backward search, not the counting one.

Once those sets are fixed, a chain's values on the remaining states are the
unique solution of one linear system (Baier & Katoen, Principles of Model
Checking, 10.1.1), which is solved directly: dense up to 128 states and a
sparse LU above, so the work and memory of a larger region grow with its
nonzeros.  A system the solve cannot meet (not finite, or a large
residual) raises ``ModelError``.

On an MDP, the free states are those the qualitative sets leave open.
When none of them lies on a cycle of the model's graph, they are solved
exactly in one Bellman pass, successors first (Ciesinski, Baier, Größer &
Klein, QEST 2008; Dai, Mausam, Weld & Goldsmith, JAIR 2011), which forms
every value as a sweep of value iteration does and so gives bit for bit
the values the sweeps reach when they stop changing; the tolerance does
not apply there.  The model's strongly connected components, which show
it, are computed once per model by Tarjan's algorithm and kept with its
arrays; the order in which the search completes them is successors first.
The budget product of a cost-bounded query, made for one call, keeps none
and is always swept.  Otherwise value iteration starts from zero (iterates
are monotone from below) and runs to a relative residual of 1e-8 (the
tolerance).  It sweeps only the free states: their choices and branches
are gathered once per call, in model order, so every sum adds the same
terms in the same order as a sweep of the whole model would.  The extracted strategy is then evaluated exactly
by the same solve, which is what the returned values report.  If that
polish step fails its sanity checks (a greedy tie in the max direction, or
iteration that stopped far from the fixpoint), the raw iteration values
are kept and ``ValueVector.polished`` is False.

The checker works on flat arrays with float probabilities, taken from the
model's flat transition fields with numpy masks once per model, on first
use, and kept on it (models are immutable once built), with the state
costs, checked and converted once (``_model_costs``).  The cost-bounded
product's arrays are derived from the base model's with a few vectorised
index operations; a product of more than ``models.DEFAULT_STATE_CAP``
states is refused before anything is allocated for it.

A family is checked in two halves.  ``stack_family`` stacks it once: the
configurations that share a support share one set of arrays, with one row
of float probabilities per configuration, and one matrix of float costs.
The stacks do not depend on the query, so enumeration keeps them with the
model (``synthesis._Family``).  ``solve_stacks`` solves a family of chains'
stacks for a query: per support, one set of qualitative sets and one
stacked linear solve, so every row is what checking that configuration
alone gives.  An MDP family's configurations are solved one at a time,
each on its group's arrays with its own row (``_Arrays.rows``).
"""

from __future__ import annotations

import copy
import math
import numbers
import re
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Tuple, Union

import numpy as np

from .expressions import Expr
from .models import (
    DEFAULT_STATE_CAP,
    ExplicitModel,
    LazySequence,
    ModelError,
    StateCapExceeded,
    Strategy,
)

DEFAULT_TOL = 1e-8
FEASIBILITY_TOL = 1e-9  # slack of a probability bound, here and in synthesis
_MAX_SWEEPS = 1_000_000
# the region size up to which the polish solves dense systems: measured
# crossover against the sparse LU on birth-death regions, for stacks of one
# and of 32 configurations
_POLISH_DENSE_LIMIT = 128
# the graph size from which the backward search runs compiled; it selects
# nothing else, as every other search is a worklist loop.  Once
# scipy.sparse is loaded, the compiled search beats the worklist loop from
# about 256 states (measured on birth-death chains and random MDPs); the
# limit sits higher so that checking small models never pays the first
# import of scipy.sparse.csgraph, about 0.4 s and 33 MB in a process
# without scipy.sparse
_SEARCH_LIMIT = 1024
# configurations of one support stack solved at once (``solve_stacks``):
# bounds the value stacks of one chain solve by about this many numbers
_FAMILY_BLOCK = 1 << 20


class ExpectedCostUndefined(ModelError):
    pass


@dataclass
class ValueVector:
    """Per-state values.  On a chain, which is solved, ``iterations`` is 0,
    ``residual`` 0.0 and ``polished`` True; on an MDP they are the sweeps
    and last residual of value iteration, and whether the polish of its
    strategy was accepted (False: the raw iteration values are kept).  An
    MDP whose free states lie on no cycle is solved exactly in one pass,
    reported as one sweep with residual 0.0 at any tolerance."""

    values: np.ndarray
    iterations: int
    residual: float
    polished: bool

    def at_initial(self, model: ExplicitModel) -> float:
        return float(self.values[model.initial])


# ---------------------------------------------------------------------------
# flat arrays

class _Arrays:
    """The model's flat transition structure (``ExplicitModel``) with float
    probabilities and the predecessor graph, for vectorized sweeps.

    Zero-probability branches are dropped with a mask over the model's
    branches: they are not edges, so the qualitative sets ignore them and
    value iteration never forms ``0 * inf``.  Where every branch is an
    edge, the arrays share the model's offsets and targets.  A family of
    configurations shares one structure: given ``support`` (per branch of
    ``model``, whether it is an edge) and ``probs`` (configurations ×
    edges), the arrays hold the edges of that support and one row of
    probabilities per configuration.

    ``_fill`` sets every field for every construction (a model, a family's
    support or the budget product of ``cost_bounded_reach``) and derives
    the predecessor graph in CSR form: the choices with a branch into
    state ``t`` are ``pred_choice[pred_start[t]:pred_start[t + 1]]``,
    ascending, a choice listed once per such branch.
    """

    def __init__(self, model: ExplicitModel, support=None, probs=None):
        if model.kind == "mimdp" and support is None:
            raise ModelError("model checking needs a concrete model; instantiate first")
        if support is None:
            count = len(model.targets)
            support = np.fromiter(map(bool, model.probs), dtype=bool, count=count)
            probs = np.fromiter(map(float, model.probs), dtype=np.float64, count=count)[support]
        else:
            support = np.asarray(support, dtype=bool)
        branch_start, targets = model.branch_start, model.targets
        if not support.all():
            branch_start = np.append(0, np.cumsum(support))[branch_start]
            targets = targets[support]
        choice_state = model.choice_states()
        empty = np.flatnonzero(branch_start[1:] == branch_start[:-1])
        if len(empty):
            raise ModelError("choice with no positive branch at state "
                             f"{model.state_text(int(choice_state[empty[0]]))}")
        self._fill(model.num_states, choice_state, model.choice_start, branch_start,
                   targets, probs)

    def _fill(self, num_states, choice_state, choice_start, branch_start,
              targets, probs) -> None:
        self.num_states = num_states
        self.choice_state = np.asarray(choice_state, dtype=np.int64)
        self.choice_start = np.asarray(choice_start, dtype=np.int64)
        self.branch_start = np.asarray(branch_start, dtype=np.int64)
        self.targets = np.asarray(targets, dtype=np.int64)
        # one row of branch probabilities, or one per configuration
        self.probs = np.asarray(probs, dtype=np.float64)
        self.num_choices = len(self.choice_state)
        of_branch = np.repeat(np.arange(self.num_choices), np.diff(self.branch_start))
        self.pred_choice = of_branch[np.argsort(self.targets, kind="stable")]
        self.pred_start = np.append(0, np.cumsum(np.bincount(self.targets, minlength=num_states)))
        # a model's checked state costs, made on first use (``_model_costs``)
        self.costs: Optional[_Costs] = None
        # the graph's components, made on first use (``_acyclic_order``)
        self.split: Optional[_Split] = _Split()

    def rows(self, part) -> "_Arrays":
        """These arrays with the probability rows ``part`` alone (an index
        or a slice of the configurations): a shallow copy whose ``probs``
        is a view, so no array is copied or rebuilt, and which shares the
        holder of the graph's components (``split``)."""
        view = copy.copy(self)
        view.probs = self.probs[part]
        return view

    def choice_values(self, x: np.ndarray, probs: Optional[np.ndarray] = None) -> np.ndarray:
        """Each choice's expected successor value; ``x`` is one value per
        state, or a stack of them (one row per configuration)."""
        probs = self.probs if probs is None else probs
        contrib = probs * x.take(self.targets, axis=-1)
        return np.add.reduceat(contrib, self.branch_start[:-1], axis=-1)

    def state_opt(self, q: np.ndarray, direction: str) -> np.ndarray:
        op = np.maximum if direction == "max" else np.minimum
        return op.reduceat(q, self.choice_start[:-1], axis=-1)


class _Split:
    """The strongly connected components of a structure's graph, in which
    a state has an edge to each target of its branches, computed on first
    use (``_acyclic_order``): whether each state lies on no cycle
    (``alone``: a component of its own, with no self-loop), and the states
    in an order that puts every component after the components it has
    edges into (``order``, successors first)."""

    __slots__ = ("alone", "order")

    def __init__(self):
        self.alone: Optional[np.ndarray] = None
        self.order: Optional[np.ndarray] = None


def _model_arrays(model: ExplicitModel) -> _Arrays:
    """The flat arrays of a concrete model, built on first use and kept on
    the model.  A model they cannot be built for raises on every call."""
    if model._arrays is None:
        model._arrays = _Arrays(model)
    return model._arrays


class _Costs:
    """The state costs of a model as ``expected_cost`` (``real``) and
    ``cost_bounded_reach`` (``integral``) read them: each checks them in
    state order and raises ``ModelError`` at the first fault, or returns
    the vector it computes on.  Either outcome is made once and kept."""

    def __init__(self, costs: Sequence):
        self._costs = costs
        self._real = self._integral = None  # a vector, or a fault's text

    def real(self) -> np.ndarray:
        """The costs as floats, one row, read-only."""
        if self._real is None:
            self._real = self._fault("expected cost needs concrete state costs", False)
            if self._real is None:
                self._real = np.array([[float(c) for c in self._costs]])
                self._real.flags.writeable = False
        return self._checked(self._real)

    def integral(self) -> np.ndarray:
        """The integer costs as int64, read-only; a cost beyond int64 is
        clamped to its largest value, which drains any budget that fits."""
        if self._integral is None:
            self._integral = self._fault("cost-bounded reachability needs concrete costs", True)
            if self._integral is None:
                top = np.iinfo(np.int64).max
                self._integral = np.array([min(int(c), top) for c in self._costs], dtype=np.int64)
                self._integral.flags.writeable = False
        return self._checked(self._integral)

    def _fault(self, symbolic: str, integers: bool) -> Optional[str]:
        for s, c in enumerate(self._costs):
            if isinstance(c, Expr):
                return symbolic
            if integers and c.denominator != 1:
                return f"non-integer cost {c} at state {s}"
            if c < 0:
                return f"negative cost at state {s}"
        return None

    @staticmethod
    def _checked(vector):
        if isinstance(vector, str):
            raise ModelError(vector)
        return vector


def _model_costs(model: ExplicitModel) -> _Costs:
    """The costs of ``model``, kept on its arrays.  A model the arrays
    cannot be built for gets costs kept nowhere: the checker raises its
    own error for that model after any cost fault, as before."""
    try:
        arr = _model_arrays(model)
    except ModelError:
        return _Costs(model.costs)
    if arr.costs is None:
        arr.costs = _Costs(model.costs)
    return arr.costs


# ---------------------------------------------------------------------------
# qualitative precomputation: linear-time graph searches over the
# predecessor graph, on masks of states (Baier & Katoen, Principles of Model
# Checking, 10.6)

def _backward(arr: _Arrays, seeds: np.ndarray, stop: Optional[np.ndarray] = None,
              enabled: Optional[np.ndarray] = None) -> np.ndarray:
    """The seeds plus every state outside ``stop`` with a path into them
    through the choices ``enabled``; all three are masks (no state, or
    every choice, when None).

    A graph of at least ``_SEARCH_LIMIT`` states is searched by scipy's
    compiled breadth-first search (``_compiled_backward``), a smaller one
    by a Python worklist loop (``_worklist_backward``); both give the same
    mask."""
    if arr.num_states >= _SEARCH_LIMIT:
        return _compiled_backward(arr, seeds, stop, enabled)
    return _worklist_backward(arr, seeds, stop, enabled)


def _via(arr: _Arrays, stop: Optional[np.ndarray], enabled: Optional[np.ndarray]) -> np.ndarray:
    """Per predecessor entry, its state, or the sentinel state
    ``num_states``, seen from the start, where the search may not take the
    entry: its state is in ``stop``, or its choice is not ``enabled``."""
    n = arr.num_states
    via = arr.choice_state[arr.pred_choice]
    if stop is not None:
        via[stop[via]] = n
    if enabled is not None:
        via[~enabled[arr.pred_choice]] = n
    return via


def _worklist_backward(arr: _Arrays, seeds: np.ndarray, stop: Optional[np.ndarray] = None,
                       enabled: Optional[np.ndarray] = None) -> np.ndarray:
    """``_backward`` as a Python worklist loop.  Like ``_prob0_min``, it
    marks states in a ``bytearray``, one byte per state, which converts to
    and from a boolean array without a per-element copy."""
    n = arr.num_states
    via = _via(arr, stop, enabled).tolist()
    start = arr.pred_start.tolist()
    seen = bytearray(seeds.tobytes()) + b"\x01"
    stack = np.flatnonzero(seeds).tolist()
    while stack:
        t = stack.pop()
        for s in via[start[t]:start[t + 1]]:
            if not seen[s]:
                seen[s] = True
                stack.append(s)
    return np.frombuffer(seen, dtype=bool, count=n)


def _compiled_backward(arr: _Arrays, seeds: np.ndarray, stop: Optional[np.ndarray] = None,
                       enabled: Optional[np.ndarray] = None) -> np.ndarray:
    """``_backward`` as one call of ``scipy.sparse.csgraph``'s
    breadth-first search, on the predecessor graph in CSR form (row ``t``
    holds the entries of ``_via`` into ``t``) with two more nodes: the
    sentinel ``n``, which has no edges, and a super-source ``n + 1``,
    whose edges go to the seeds.  The module is imported only when a graph
    needs it (see ``_SEARCH_LIMIT``)."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import breadth_first_order

    n = arr.num_states
    via = _via(arr, stop, enabled)
    indices = np.concatenate((via, np.flatnonzero(seeds)))
    indptr = np.append(arr.pred_start, (len(via), len(indices)))
    graph = csr_matrix((np.ones(len(indices)), indices, indptr), shape=(n + 2, n + 2))
    seen = np.zeros(n + 2, dtype=bool)
    seen[breadth_first_order(graph, n + 1, return_predecessors=False)] = True
    return seen[:n]


def _prob0_max(arr: _Arrays, targets: np.ndarray) -> np.ndarray:
    """States whose maximal reachability probability is zero: the complement
    of backward graph reachability from the targets."""
    return ~_backward(arr, targets)


def _prob1_max(arr: _Arrays, targets: np.ndarray) -> np.ndarray:
    """States with a strategy reaching the targets almost surely
    (greatest fixpoint over a least fixpoint).

    Each outer round is one backward search from the targets inside the
    current set ``b``, over the choices whose successors all lie in ``b``.
    """
    b = np.ones(arr.num_states, dtype=bool)
    while True:
        inside = np.logical_and.reduceat(b[arr.targets], arr.branch_start[:-1])
        r = _backward(arr, targets, stop=~b, enabled=inside)
        if np.array_equal(r, b):
            return b
        b = r


def _prob0_min(arr: _Arrays, targets: np.ndarray,
               enabled: Optional[np.ndarray] = None) -> np.ndarray:
    """States with a strategy avoiding the targets with probability one,
    taking only the choices ``enabled`` (a mask; every choice when None).

    Least fixpoint of the states all of whose (at least one) choices hit
    the set, counted down per state as choices start hitting it, in a
    Python worklist loop at every size.  With one choice per state, as on
    a chain, the set is ``_prob0_max``'s, which the checker uses there.
    """
    if enabled is None:
        enabled = np.ones(arr.num_choices, dtype=bool)
    owner = arr.choice_state.tolist()
    pred, start = arr.pred_choice.tolist(), arr.pred_start.tolist()
    # per state, its enabled choices not yet hitting; a disabled choice is
    # never counted, and is passed over as if it hit already
    missing = np.bincount(arr.choice_state[enabled], minlength=arr.num_states).tolist()
    hits = bytearray((~enabled).tobytes())
    hit = bytearray(targets.tobytes())
    stack = np.flatnonzero(targets).tolist()
    while stack:
        t = stack.pop()
        for c in pred[start[t]:start[t + 1]]:
            if hits[c]:
                continue
            hits[c] = True
            s = owner[c]
            missing[s] -= 1
            if missing[s] == 0 and not hit[s]:
                hit[s] = True
                stack.append(s)
    return ~np.frombuffer(hit, dtype=bool)


def _prob1_min(arr: _Arrays, targets: np.ndarray, zero: Optional[np.ndarray] = None,
               enabled: Optional[np.ndarray] = None) -> np.ndarray:
    """States reaching the targets almost surely under every strategy that
    takes only the choices ``enabled`` (a mask; every choice when None);
    ``zero`` is ``_prob0_min(arr, targets, enabled)`` when the caller has
    it.  A state outside the targets needs an enabled choice."""
    if zero is None:
        zero = _prob0_min(arr, targets, enabled)
    return ~_backward(arr, zero, stop=targets, enabled=enabled)


# ---------------------------------------------------------------------------
# strongly connected components: which states lie on no cycle, and an order
# of the states with successors first (Tarjan, SIAM J. Comput. 1972)

def _acyclic_order(arr: _Arrays, free_mask: np.ndarray) -> Optional[np.ndarray]:
    """The states of ``free_mask``, successors first, if none of them lies
    on a cycle of the graph of ``arr``; else None, and None on arrays that
    keep no components (``split`` is None).  The components are computed
    once and kept in ``arr.split``."""
    split = arr.split
    if split is None:
        return None
    if split.alone is None:
        _split_components(arr, split)
    if not split.alone[free_mask].all():
        return None
    return split.order[free_mask[split.order]]


def _split_components(arr: _Arrays, split: _Split) -> None:
    """The components of ``split``, from ``_worklist_components``.  Tarjan's
    search completes a component only after every component it has an edge
    into, so ordering the states by their component's number puts
    successors first."""
    start = arr.branch_start[arr.choice_start]
    count, label = _worklist_components(start.tolist(), arr.targets.tolist())
    label = np.array(label, dtype=np.int64)
    owner = np.repeat(np.arange(arr.num_states), np.diff(start))
    loop = np.zeros(arr.num_states, dtype=bool)
    loop[owner[arr.targets == owner]] = True
    split.alone = (np.bincount(label, minlength=count)[label] == 1) & ~loop
    split.order = np.argsort(label, kind="stable")


def _worklist_components(start: list, succ: list) -> Tuple[int, list]:
    """Tarjan's strongly connected components of the graph in which state
    ``s`` has edges to ``succ[start[s]:start[s + 1]]``, as a Python
    worklist loop: the number of components and each state's component,
    numbered in the order the search completes them.  A state visited but
    not yet given a component is on the stack."""
    n = len(start) - 1
    index, low, label = [-1] * n, [0] * n, [-1] * n
    stack: list = []
    count = visited = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = visited
        visited += 1
        stack.append(root)
        work = [[root, start[root]]]  # per open state, its next edge
        while work:
            top = work[-1]
            v, i = top
            if i < start[v + 1]:
                top[1] = i + 1
                w = succ[i]
                if index[w] < 0:
                    index[w] = low[w] = visited
                    visited += 1
                    stack.append(w)
                    work.append([w, start[w]])
                elif label[w] < 0 and index[w] < low[v]:
                    low[v] = index[w]
                continue
            work.pop()
            if work and low[v] < low[work[-1][0]]:
                low[work[-1][0]] = low[v]
            if low[v] == index[v]:
                while True:
                    w = stack.pop()
                    label[w] = count
                    if w == v:
                        break
                count += 1
    return count, label


# ---------------------------------------------------------------------------
# value iteration core

def _sweep_residual(new: np.ndarray, old: np.ndarray) -> float:
    """The largest relative change over the finite entries of ``new``
    (absolute where the new value is not positive), 0 when there is
    none."""
    rel = np.subtract(new, old)
    np.abs(rel, out=rel)
    np.divide(rel, np.maximum(new, 1.0e-300), out=rel, where=new > 0)
    # rel is never negative, and an infinite or NaN entry of new makes its
    # rel, and so the maximum, infinite or NaN
    out = np.maximum.reduce(rel, initial=0.0)
    if not math.isfinite(out):
        out = np.maximum.reduce(np.where(np.isfinite(new), rel, 0.0), initial=0.0)
    return float(out)


def _iterate(
    arr: _Arrays,
    x: np.ndarray,
    free_mask: np.ndarray,
    direction: str,
    tol: float,
    state_cost: Optional[np.ndarray] = None,
    trace: Optional[list] = None,
) -> Tuple[int, float]:
    """Value iteration on one MDP configuration, from the values ``x``,
    which it updates in place, to a residual of at most ``tol``.  Returns
    the sweeps and the last residual; ``trace`` receives a copy of ``x``
    after every sweep.

    When no free state (``free_mask``) lies on a cycle and there is no
    ``trace``, the region is solved by ``_one_pass`` instead, exactly, to
    the values the sweeps reach when they stop changing: it reports one
    sweep and a residual of 0.0, whatever ``tol``.

    Only the free states are swept.  Their choices and branches are
    gathered once, in model order, so each sweep sums the same branches in
    the same order as a sweep over the whole model would.  The sweeps work
    on ``w``: the entries of ``x`` with the free states first, then one
    entry of -0.0, a branch that adds nothing to any sum."""
    if trace is None:
        seq = _acyclic_order(arr, free_mask)
        if seq is not None:
            _one_pass(arr, x, seq, direction, state_cost)
            return 1, 0.0
    n = len(x)
    free = np.flatnonzero(free_mask)
    m = len(free)
    order = np.concatenate((free, np.flatnonzero(~free_mask)))
    column = np.empty(n, dtype=np.int64)  # of each state in w
    column[order] = np.arange(n)
    first = arr.choice_start[free]
    count = arr.choice_start[free + 1] - first  # choices per free state
    choices, state_at = _spans(first, count)
    first = arr.branch_start[choices]
    width = arr.branch_start[choices + 1] - first  # branches per choice
    branches, choice_at = _spans(first, width)
    succ = column[arr.targets[branches]]
    probs = arr.probs[branches]
    pairs = not (width > 2).any()
    if pairs:
        # one vector addition in place of reduceat's per-segment work: every
        # choice padded to two branches, a single one with a branch of
        # probability 0 into the -0.0 entry (its sum a + -0.0 is a)
        at = np.full(2 * len(choices), len(branches))
        at[0::2] = choice_at
        at[1::2][width == 2] = choice_at[width == 2] + 1
        succ = np.append(succ, n)[at]
        probs = np.append(probs, 0.0)[at]
    cost = None if state_cost is None else state_cost[arr.choice_state[choices]]
    several = (count > 1).any()  # some free state has several choices
    best = np.maximum if direction == "max" else np.minimum
    w = np.empty(n + 1)
    w[:n] = x[order]
    w[n] = -0.0
    sweeps = 0
    while True:
        new = w.take(succ)
        new *= probs
        if pairs:
            new = new[0::2] + new[1::2]
        else:
            new = np.add.reduceat(new, choice_at)
        if cost is not None:
            new += cost
        if several:
            new = best.reduceat(new, state_at)
        residual = _sweep_residual(new, w[:m])
        w[:m] = new
        sweeps += 1
        if trace is not None:
            x[free] = new
            trace.append(x.copy())
        if sweeps > _MAX_SWEEPS:
            raise ModelError("value iteration failed to converge")
        if not residual > tol:
            x[free] = new
            return sweeps, residual


def _one_pass(arr: _Arrays, x: np.ndarray, seq: np.ndarray, direction: str,
              state_cost: Optional[np.ndarray]) -> None:
    """The values of an acyclic free region in one Bellman pass: each
    state of ``seq``, successors first, gets in ``x`` the value a sweep of
    ``_iterate`` gives it from its successors' values, which are final by
    then.  Each choice's value is formed as the sweep forms it: its
    branches' products summed (one or two by ``+``, as the sweep's vector
    addition does; more by ``np.add.reduceat``, the sweep's reduction,
    which does not add left to right), then the state's cost added, then
    the best of the choices taken as ``np.maximum`` or ``np.minimum`` take
    it, a NaN winning."""
    v = x.tolist()
    choice_start, branch_start = arr.choice_start.tolist(), arr.branch_start.tolist()
    succ, probs = arr.targets.tolist(), arr.probs.tolist()
    cost = None if state_cost is None else state_cost.tolist()
    larger = direction == "max"
    for s in seq.tolist():
        best = None
        for c in range(choice_start[s], choice_start[s + 1]):
            lo, hi = branch_start[c], branch_start[c + 1]
            if hi - lo > 2:
                q = float(np.add.reduceat([probs[j] * v[succ[j]] for j in range(lo, hi)],
                                          (0,))[0])
            else:
                q = probs[lo] * v[succ[lo]]
                if hi - lo == 2:
                    q += probs[lo + 1] * v[succ[lo + 1]]
            if cost is not None:
                q += cost[s]
            if best is None or (q > best if larger else q < best) or q != q:
                best = q
        v[s] = best
    x[:] = v


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


def _spans(first: np.ndarray, length: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The index ranges ``first[i] .. first[i] + length[i] - 1`` laid end to
    end, and where each range starts among them."""
    start = np.cumsum(length) - length
    return np.arange(int(length.sum())) + np.repeat(first - start, length), start


def _branches(arr: _Arrays, choices: np.ndarray):
    """The branches of the given choices, choice by choice and in order, as
    (position in ``choices``, target state, probability)."""
    lo = arr.branch_start[choices]
    counts = arr.branch_start[choices + 1] - lo
    rows = np.repeat(np.arange(len(choices)), counts)
    idx, _ = _spans(lo, counts)
    return rows, arr.targets[idx], arr.probs[..., idx]


def _polish(
    arr: _Arrays,
    picks: np.ndarray,
    x: np.ndarray,
    region: np.ndarray,
    rhs: np.ndarray,
    clip: Tuple[float, float],
    chain: bool,
) -> bool:
    """Exact policy evaluation on ``region``: solve (I - P) x = rhs for
    every row of the stacks ``x`` and ``rhs``, all under the strategy
    ``picks``, with each row's own probabilities, and write each accepted
    solution, clipped to ``clip``, into its row of ``x``.

    The systems are solved by ``_solve_stack``: dense up to
    ``_POLISH_DENSE_LIMIT`` states, a sparse LU above.  A solution is
    rejected when it is not finite or misses its system (the strategy is
    not proper there), and on an MDP, whose one row of ``x`` holds the
    value iteration values, also when it deviates from them.  Returns
    whether the MDP's solution was accepted; a rejected row of a chain,
    which has no other values, raises ``ModelError``.
    """
    k, n = rhs.shape
    if not n:
        return True
    rows, targets, probs = _branches(arr, arr.choice_start[region] + picks[region])
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
    accepted = np.all(np.isfinite(sol), axis=1)
    accepted &= ~(residual > 1e-7 * _at_least_one(np.max(np.abs(rhs), axis=1)))
    if chain:
        if not accepted.all():
            raise ModelError("the chain's linear system could not be solved: "
                             "it is singular or too ill-conditioned in floating point")
    else:
        vi_region = x[:, region]
        scale = _at_least_one(np.max(np.abs(vi_region), axis=1))
        accepted &= ~(np.max(np.abs(sol - vi_region), axis=1) > 1e-5 * scale)
    sol = np.clip(sol, clip[0], clip[1])
    x[np.ix_(accepted, region)] = sol[accepted]
    return bool(accepted.all())


def _solve_stack(rows, cols, probs, rhs, sol, residual) -> None:
    """Solve (I - P) x = rhs for each row of ``rhs``, P having the entries
    ``probs`` at (``rows``, ``cols``); fill ``sol`` and, per row, the
    largest residual.

    Up to ``_POLISH_DENSE_LIMIT`` states the systems are dense arrays,
    stacked at most ``_POLISH_DENSE_LIMIT ** 2`` entries (128 KB) at a time
    and solved together: below the limit that beats a sparse LU per row.
    Above it, each row is one sparse matrix factored by SuperLU, so time and
    memory follow the region's nonzeros and no n x n array is built.  The
    sparse solver is imported only when a region needs it."""
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

def _target_set(model: ExplicitModel, targets) -> np.ndarray:
    """The states ``targets`` names, as a mask over the model's states:
    ``targets`` is a label, a boolean mask of the model's length, which is
    taken as it is, or state indices, each of which must be in range and
    none of which may be a bool (a list of bools is not a mask)."""
    n = model.num_states
    if isinstance(targets, np.ndarray) and targets.dtype == bool:
        if targets.shape != (n,):
            raise ModelError(
                f"state mask of shape {targets.shape} for a model of {n} states"
            )
        return targets
    if isinstance(targets, str):
        states = model.label_states(targets)
    else:
        states = set()
        for t in targets:
            if isinstance(t, (bool, np.bool_)):
                raise ModelError(f"target state {t} is a bool: a state mask must be "
                                 "a numpy array of bools")
            states.add(int(t))
        for t in states:
            if not (0 <= t < n):
                raise ModelError(f"target state {t} out of range")
    mask = np.zeros(n, dtype=bool)
    mask[list(states)] = True
    return mask


def _check_tol(tol) -> None:
    """Refuse a tolerance that is not a finite number of at least 0 (0:
    iterate until the values stop changing)."""
    if not (isinstance(tol, numbers.Real) and math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tolerance must be a finite number >= 0, got {tol!r}")


def reach_prob(
    model: ExplicitModel,
    targets,
    direction: str = "max",
    *,
    tol: float = DEFAULT_TOL,
    trace: Optional[list] = None,
) -> Tuple[ValueVector, Strategy]:
    """Optimal probability of eventually reaching ``targets``: a label, a
    boolean mask over the model's states, or a collection of states.

    Returns per-state values and a deterministic memoryless strategy
    (lowest-choice-index tie-break).  Probability-0 and probability-1
    states are set exactly by the qualitative precomputation.  On a Markov
    chain the direction is irrelevant and the other values are the
    solution of the chain's linear system; on an MDP they come from value
    iteration to ``tol`` and its polish, and ``trace`` (a list) receives
    the values after every sweep.  An MDP whose free states lie on no
    cycle is solved exactly in one pass instead, whatever ``tol``, unless a
    ``trace`` asks for the sweeps.  ``tol`` must be a finite number of at
    least 0, on chains too, or ``ValueError`` is raised; 0 iterates until
    the values stop changing.
    """
    if direction not in ("min", "max"):
        raise ValueError("direction must be 'min' or 'max'")
    _check_tol(tol)
    arr = _model_arrays(model)
    target = _target_set(model, targets)
    x, sweeps, residual, polished, picks = _reach(
        arr, target, direction, model.kind == "mc", 1, tol, trace
    )
    return ValueVector(x[0], sweeps, residual, polished), Strategy.deterministic(picks.tolist())


def _reach(arr: _Arrays, target: np.ndarray, direction: str, chain: bool, k: int,
           tol: float, trace: Optional[list] = None):
    """``reach_prob`` on ``k`` configurations that share the structure of
    ``arr`` (``k`` > 1 only on chains, whose one strategy they share), with
    the mask ``target``: the value stack, the sweeps and last residual of
    value iteration (an MDP's; 0 and 0.0 on a chain), whether the polish
    was accepted, and the strategy's picks.  A chain's probability-0 set
    is ``_prob0_max``, one backward search; an MDP's is ``_prob0_min`` in
    the min direction."""
    # on a chain each min set equals its max counterpart, so its zero set
    # is the cheaper one and _prob1_min skips the nested fixpoint of
    # _prob1_max; both sets leave the targets at probability one
    if chain or direction == "min":
        zero = _prob0_max(arr, target) if chain else _prob0_min(arr, target)
        one = _prob1_min(arr, target, zero)
    else:
        zero = _prob0_max(arr, target)
        one = _prob1_max(arr, target)
    free = ~(one | zero)

    x = np.tile(np.where(one, 1.0, 0.0), (k, 1))
    sweeps, residual = 0, 0.0
    if chain:  # its one choice per state is every configuration's strategy
        picks = np.zeros(arr.num_states, dtype=np.int64)
    else:
        sweeps, residual = _iterate(arr, x[0], free, direction, tol, trace=trace)
        picks = _greedy(arr, x[0], direction)

    maybe = np.flatnonzero(free)
    rows, succ, probs = _branches(arr, arr.choice_start[maybe] + picks[maybe])
    into = one[succ]
    rhs = np.zeros((k, len(maybe)))
    np.add.at(rhs, (slice(None), rows[into]), probs[..., into])
    polished = _polish(arr, picks, x, maybe, rhs, (0.0, 1.0), chain)
    return x, sweeps, residual, polished, picks


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
    A chain is solved, an MDP iterated, and ``tol`` checked, as in
    ``reach_prob``.
    """
    if direction not in ("min", "max"):
        raise ValueError("direction must be 'min' or 'max'")
    _check_tol(tol)
    arr = _model_arrays(model)
    goal = _target_set(model, goals)
    cost = _model_costs(model).real()
    x, sweeps, residual, polished, picks = _expected(
        model, arr, goal, cost, direction, model.kind == "mc", tol, trace
    )
    return ValueVector(x[0], sweeps, residual, polished), Strategy.deterministic(picks.tolist())


def _expected(model: ExplicitModel, arr: _Arrays, goal: np.ndarray, cost: np.ndarray,
              direction: str, chain: bool, tol: float, trace: Optional[list] = None):
    """``expected_cost`` on the configurations of ``arr`` (one row of
    ``cost`` each; several only on chains) with the mask ``goal``,
    returned as ``_reach`` returns.  The probability-1 set is closed along
    the paths that avoid the goals, so the initial state in it is the
    whole precondition; on a chain it starts from ``_prob0_max``, as in
    ``_reach``."""
    sure = _prob1_min(arr, goal, _prob0_max(arr, goal) if chain else None)
    if not sure[model.initial]:
        raise ExpectedCostUndefined(
            "expected cost undefined: goal not reached almost surely from "
            f"state {model.state_text(model.initial)}"
        )

    x = np.tile(np.where(sure, 0.0, np.inf), (len(cost), 1))
    free = sure & ~goal
    sweeps, residual = 0, 0.0
    if chain:
        picks = np.zeros(arr.num_states, dtype=np.int64)
    else:
        cost_masked = np.where(goal, 0.0, cost[0])
        sweeps, residual = _iterate(
            arr, x[0], free, direction, tol, state_cost=cost_masked, trace=trace
        )
        picks = _greedy(arr, x[0], direction, cost_masked)

    region = np.flatnonzero(free)
    polished = _polish(arr, picks, x, region, cost[:, region], (0.0, np.inf), chain)
    return x, sweeps, residual, polished, picks


class _Stack:
    """The configurations of a family that share one support, as
    ``stack_family`` stacks them: their indices in the family
    (``members``), the arrays of that support with one row of branch
    probabilities per member (``arr``), and their state costs, one row per
    member (``cost``).  Per row, ``first`` holds the first member whose
    probabilities and costs are bit for bit the row's (its own member if no
    earlier one's are), so a query may solve each distinct row once."""

    __slots__ = ("members", "arr", "cost", "first")

    def __init__(self, members: np.ndarray, arr: _Arrays, cost: np.ndarray):
        self.members, self.arr, self.cost = members, arr, cost
        seen: dict = {}
        self.first = tuple(seen.setdefault(row.tobytes(), i) for i, row in
                           zip(members.tolist(), np.hstack((arr.probs, cost))))


def stack_family(
    model: ExplicitModel,
    entries: Iterable[Tuple[Sequence[Tuple[int, int]], Sequence[Tuple[int, int]]]],
) -> list:
    """Stack a family: one ``_Stack`` per support, the branches of nonzero
    probability, in the order of the supports' first configurations.

    ``model`` gives the structure every configuration shares; ``entries``
    yields per configuration its exact branch probabilities (flat in model
    order) and state costs, as the ``(numerator, denominator)`` pairs
    ``models.well_defined_entries`` yields, and is read once, in order.
    Each becomes a float as its numerator over its denominator, the int
    division ``float()`` of a ``Fraction`` makes, so the floats are the
    same; a cost too large for a float raises ``OverflowError``.  A stack's
    arrays are built through ``_Arrays``, once per support, and its floats
    are read-only, as they may be kept and read by many queries."""
    groups: dict = {}  # support -> (members, probability rows, cost rows)
    for i, (probs, costs) in enumerate(entries):
        members, rows, cost = groups.setdefault(tuple(p != 0 for p, _ in probs), ([], [], []))
        members.append(i)
        rows.append([p / q for p, q in probs if p != 0])
        cost.append([p / q for p, q in costs])
    stacks = []
    for support, (members, rows, cost) in groups.items():
        stack = _Stack(np.array(members, dtype=np.int64), _Arrays(model, support, rows),
                       np.array(cost))
        stack.arr.probs.flags.writeable = stack.cost.flags.writeable = False
        stacks.append(stack)
    return stacks


def solve_stacks(model: ExplicitModel, stacks: Sequence[_Stack], target: np.ndarray,
                 goal: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Solve the stacks of a family of chains (``stack_family``): per
    configuration, in the family's order, the probability of reaching the
    mask ``target`` and the expected cost to the mask ``goal`` at the
    initial state, as ``reach_prob`` and ``expected_cost`` give them on
    its instance (the cost is inf where it is undefined).

    A stack's configurations share its arrays and qualitative sets, and
    their linear systems are solved as one stack, as many rows at a time as
    keep a block within about ``_FAMILY_BLOCK`` numbers; a system the solve
    cannot meet raises ``ModelError``, as on the configuration's instance.
    The stacks are only read."""
    count = sum(len(stack.members) for stack in stacks)
    pr = np.empty(count)
    ec = np.empty(count)
    step = max(1, _FAMILY_BLOCK // (model.num_transitions + model.num_states))
    for stack in stacks:
        for lo in range(0, len(stack.members), step):
            part = slice(lo, lo + step)
            members, arr = stack.members[part], stack.arr.rows(part)
            x = _reach(arr, target, "max", True, len(members), DEFAULT_TOL)[0]
            pr[members] = x[:, model.initial]
            try:
                x = _expected(model, arr, goal, stack.cost[part], "min", True, DEFAULT_TOL)[0]
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

    Costs are nonnegative integers.  Cost accrues when a state is visited;
    entering a target stops accrual (the target's own cost does not
    count), so a path succeeds iff the sum of the costs of the states
    strictly before the first target visit is below the bound.  Computed
    by ``reach_prob`` on the budget-unfolded product: state
    ``s * (bound + 1) + b`` is ``s`` with budget ``b`` left; it has the
    choices of ``s`` with every branch into ``t`` sent to ``t`` with budget
    ``max(b - cost(s), 0)``, or one self-loop if ``s`` is a target; its
    goal, the targets with budget left, is handed over as a mask.  The
    product's arrays are derived from the base model's, which are built
    once per model, and are its transition structure too, so its rows
    hold the base model's positive branches alone; its ``states``, actions
    and exact probabilities are gathered only when read.  On an MDP the
    product is swept to ``tol`` even where it has no cycle (see
    ``_product_arrays``).  A model the
    checker cannot take (parametric, or with a choice that has no positive
    branch) raises the checker's ``ModelError``, as in ``reach_prob``; a
    ``bound`` that is not a nonnegative integer (``bool`` is not one) or a
    ``tol`` that is not a finite number of at least 0 raises
    ``ValueError``, before the product is built.  A product of more than
    ``models.DEFAULT_STATE_CAP`` states raises ``StateCapExceeded`` before
    anything is allocated for it.
    """
    if not isinstance(bound, numbers.Integral) or isinstance(bound, bool):
        raise ValueError(f"cost bound must be an integer, got {bound!r}")
    if bound < 0:
        raise ValueError("cost bound must be nonnegative")
    _check_tol(tol)
    width = bound + 1  # remaining budget in 0..bound
    n = model.num_states * width
    if n > DEFAULT_STATE_CAP:
        raise StateCapExceeded(
            f"cost-bounded product of {n} states ({model.num_states} states x "
            f"{width} budgets) exceeds the state cap of {DEFAULT_STATE_CAP} states"
        )
    target = _target_set(model, targets)
    cost = _model_costs(model).integral()
    # a target with budget left, as a mask over the product's states
    goal = (target[:, None] & (np.arange(width) > 0)).ravel()
    if not goal.any():
        return 0.0
    arr = _product_arrays(_model_arrays(model), target, cost, width)

    def copied(c: int) -> Optional[int]:
        # the base choice that choice c of the product copies, or None for
        # a target's self-loop
        i = int(arr.choice_state[c])
        s = i // width
        return None if target[s] else int(model.choice_start[s] + c - arr.choice_start[i])

    def action(c: int) -> Optional[str]:
        return None if (base := copied(c)) is None else model.actions[base]

    def prob(j: int):
        c = int(np.searchsorted(arr.branch_start, j, side="right")) - 1
        if (base := copied(c)) is None:
            return Fraction(1)
        positive = [p for p in model.probs[slice(*model.branch_start[base:base + 2])] if p]
        return positive[j - arr.branch_start[c]]

    product = ExplicitModel(
        kind="mc" if model.kind == "mc" else "mdp",
        var_names=model.var_names + ("_budget",),
        states=LazySequence(n, lambda i: model.states[i // width] + (i % width,)),
        initial=model.initial * width + bound,
        actions=LazySequence(arr.num_choices, action),
        choice_start=arr.choice_start,
        branch_start=arr.branch_start,
        targets=arr.targets,
        probs=LazySequence(len(arr.targets), prob),
        costs=[Fraction(0)] * n,
        labels={},
        parameters={},
    )
    product._arrays = arr
    vec, _ = reach_prob(product, goal, direction, tol=tol)
    return float(vec.values[product.initial])


def _repeat_blocks(first: np.ndarray, length: np.ndarray, width: int):
    """Per state ``s``, the block of ``length[s]`` entries of a base array
    from ``first[s]`` on, once per budget: per entry of the result, the base
    index it copies and its product state ``s * width + b``."""
    length = np.repeat(length, width)
    state = np.repeat(np.arange(len(length)), length)
    return _spans(np.repeat(first, width), length)[0], state


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

    arr = _Arrays.__new__(_Arrays)
    arr._fill(
        size,
        choice_state,
        np.append(0, np.cumsum(np.bincount(choice_state, minlength=size))),
        np.append(0, np.cumsum(count)),
        targets,
        probs,
    )
    # made for one call, the product keeps no components: finding them and
    # the one pass would cost more than the few sweeps its wide, shallow
    # layers of budgets take
    arr.split = None
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
    ``Pmax=? [F "t"]``, ``ECmin=? [F "g"]``, ``P=? [F{C<10} "t"]``; a bound
    takes no direction, as ``check_spec`` chooses it."""
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
        if direction is not None:
            raise ValueError(f"a bound takes P, not {head}: it holds under every strategy "
                             "(the maximum), or under some (the minimum) with --existential")
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
        vec, _ = reach_prob(model, spec.target, _query_direction(model, spec), tol=tol)
        return None, vec.at_initial(model)
    if isinstance(spec, ExpectedCostQuery):
        vec, _ = expected_cost(model, spec.goal, spec.direction, tol=tol)
        return None, vec.at_initial(model)
    if isinstance(spec, CostBoundQuery):
        direction = _query_direction(model, spec)
        value = cost_bounded_reach(model, spec.target, spec.limit, direction, tol=tol)
        return None, value
    raise TypeError(f"not a specification: {spec!r}")


def _query_direction(model: ExplicitModel, spec) -> str:
    """The direction of a ``P=?`` query: as written, else 'max', which on
    a chain is the only one; an MDP needs it written."""
    if spec.direction is not None:
        return spec.direction
    if model.kind == "mdp":
        raise ModelError("P=? needs Pmin/Pmax on an MDP")
    return "max"

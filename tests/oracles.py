"""Independent test oracles.

Exact-rational Gaussian elimination for reachability probabilities and
expected costs on Markov chains.  Deliberately naive and fully exact
(fractions end to end): the engine under test uses precomputation plus
value iteration, this does not.  Then the former expression semantics on
``Fraction`` values (``eval_expr`` with its operator helpers, ``fold`` and
``substitute``), which the references below call where they used to call
the library's.  Below them, the former checker, the former graph searches
on Python sets of states (``set_backward`` and the others, over the
per-state predecessor lists of ``PredecessorArrays``), the former
cost-bounded product, instantiation and well-definedness filter,
exploration, guard implication checks, integer-program emitter, LP
solver, the simplex that updated the whole tableau at every pivot
(``former_solve_lp``), constrained LP (with its ``SeedConstrainedSolution``) and family
instances, enumeration route, memoised evaluator, reward selection and
compiled expressions on ``Fraction`` values, kept as references for the differential tests of the code that
replaced them.  Value iteration is kept three times: the one-configuration
loop (``_iterate``, ``_sweep_residual``), the stacked loop that swept every
state of the model (``stacked_iterate``, ``_stacked_sweep_residual``) and
the stacked loop over the free states that also iterated chains
(``former_iterate``, with the rest of that checker under the prefix
``former_``).
At the end, the three hand-written lazy sequences (``_Picks``,
``_ProductStates``, ``_ProductRows``), the ``equality_conjuncts`` that
sort-checked each conjunct (``seed_equality_conjuncts``), and the cost
checks that ``expected_cost`` and ``cost_bounded_reach`` made on every
call (``former_real_costs``, ``former_integral_costs``).  Last, the
transformed route's ``extendable``, which scanned every well-defined
valuation on each branch-and-bound node (``extendable``), its scan of
every fresh action for a node's disabled set (``disabled_actions``), and
the enumeration route that read and stacked the family on every call
(``percall_synthesize_enumerate`` with ``percall_chain_family``,
``percall_evaluate_chains`` and ``percall_evaluate_mdp``).  After it, the
enumeration route that made every table entry on each query
(``eager_synthesize_enumerate`` with ``eager_evaluate``,
``eager_evaluate_mdp`` and ``eager_best``) and the strategy normalisation
that divided at every state (``eager_strategy_choice_probs``).  Last, the
branch-and-bound that solved every certification step and checked every
node for an improper model (``resolving_branch_and_bound``), the MDP
family loop that solved every configuration (``resolving_evaluate``), and
the LP solution's strategy normalised at every state when built
(``eager_solution_strategy``).
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import abc
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from mimdp import checking, expressions, synthesis
from mimdp.checking import (
    DEFAULT_TOL,
    FEASIBILITY_TOL,
    ExpectedCostUndefined,
    ValueVector,
    _MAX_SWEEPS,
    _Arrays,
    expected_cost,
    reach_prob,
)
from mimdp.expressions import (
    SORT_BOOL,
    SORT_NUM,
    Binary,
    BoolLit,
    DivisionByZero,
    Expr,
    ExprError,
    Extremum,
    Name,
    Num,
    SortError,
    UnboundName,
    Unary,
    Value,
    _conjuncts,
    _nodes,
    conjoin,
    format_fraction,
    infer_sort,
    joint_valuations,
    names_in,
    eval_pairs,
    pair_env,
    to_text,
)
from mimdp.lp import (
    DEFAULT_TABLEAU_CAP,
    DEFAULT_VAR_CAP,
    PIVOT_TOL,
    LpError,
    LpSizeError,
    LpSolution,
)
from mimdp.models import (
    DEFAULT_STATE_CAP,
    Choice,
    DeadlockError,
    ExplicitModel,
    ModelError,
    StateCapExceeded,
    Strategy,
    Valuation,
    WellDefinednessError,
    Prob,
    _add_probs,
    _candidates,
    _fmt,
    _guard_index,
    _instance,
    all_valuations,
    build_model,
    compose,
    instantiate,
    pair_distribution_fault,
    well_defined_entries,
    well_defined_valuations,
)
from mimdp.parser import TRUE, _Parser, tokenize
from mimdp.program import CommandDecl, ModuleDecl, Program, RewardDecl, VarDecl, check_program
from mimdp.synthesis import (
    SUPPORT_TOL,
    TIE_TOL,
    ImproperModelError,
    InfeasibleError,
    SynthesisError,
    SynthesisQuery,
    SynthesisResult,
    TableEntry,
    _coef,
)
from mimdp.transform import (
    IMPLICATION_CAP,
    TransformError,
    TransformReport,
    _fresh,
    _guard_implies,
    _guards_overlap,
    _prune_parameters,
)


# ---------------------------------------------------------------------------
# the former expression semantics, on ``Fraction`` values
#
# ``eval_expr`` with its operator helpers (``_unary``, ``_binary``,
# ``_extremum``), and ``fold``/``substitute`` with the one-level folds,
# copied verbatim from before the operators moved into one kernel on
# integer pairs.  The references below call these where they called the
# library's ``eval_expr``, ``fold`` and ``substitute``.

def _as_fraction(v: Value, ctx: Expr) -> Fraction:
    # also the sort check of ``CompiledExprs``, whose numbers are int pairs
    if isinstance(v, bool):
        raise SortError(f"expected a number, got a boolean in {to_text(ctx)}")
    return v


def _as_bool(v: Value, ctx: Expr) -> bool:
    if not isinstance(v, bool):
        raise SortError(f"expected a boolean, got a number in {to_text(ctx)}")
    return v


def _lookup(expr: Name, env: Mapping[str, Union[Fraction, int, bool]]) -> Value:
    try:
        v = env[expr.ident]
    except KeyError:
        raise UnboundName(expr.ident) from None
    return v if isinstance(v, (Fraction, bool)) else Fraction(v)


def _unary(expr: Unary, v: Value) -> Value:
    return -_as_fraction(v, expr) if expr.op == "-" else not _as_bool(v, expr)


_OPS = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def _binary(expr: Binary, lv: Value, rv: Value) -> Value:
    """An arithmetic or comparison operator applied to evaluated operands."""
    a, b = _as_fraction(lv, expr), _as_fraction(rv, expr)
    if expr.op == "/" and b == 0:
        raise _division_by_zero(expr)
    return _OPS[expr.op](a, b)


def _division_by_zero(expr: Binary) -> DivisionByZero:
    return DivisionByZero(f"division by zero in {to_text(expr)}")


def _extremum(expr: Extremum, values: Iterable[Value]) -> Fraction:
    # ``values`` may be lazy: a sort error stops evaluation at its argument
    vals = [_as_fraction(v, expr) for v in values]
    return min(vals) if expr.op == "min" else max(vals)


def eval_expr(expr: Expr, env: Mapping[str, Union[Fraction, int, bool]]) -> Value:
    """Exact evaluation of ``expr`` under ``env`` (name -> rational/int/bool)."""
    if isinstance(expr, (Num, BoolLit)):
        return expr.value
    if isinstance(expr, Name):
        return _lookup(expr, env)
    if isinstance(expr, Unary):
        return _unary(expr, eval_expr(expr.operand, env))
    if isinstance(expr, Binary):
        op = expr.op
        if op == "&":
            return _as_bool(eval_expr(expr.left, env), expr) and _as_bool(eval_expr(expr.right, env), expr)
        if op == "|":
            return _as_bool(eval_expr(expr.left, env), expr) or _as_bool(eval_expr(expr.right, env), expr)
        return _binary(expr, eval_expr(expr.left, env), eval_expr(expr.right, env))
    if isinstance(expr, Extremum):
        return _extremum(expr, (eval_expr(a, env) for a in expr.args))
    raise TypeError(f"not an expression: {expr!r}")


def fold(expr: Expr) -> Expr:
    """Fold literal-only subtrees into literals (bottom-up, exact):
    ``substitute`` with nothing to replace.

    The parser folds on construction, so programmatically built expressions
    should be folded too when textual round-tripping matters.  A subtree
    with nothing to fold is returned as it is, the same object.
    """
    return substitute(expr, {})


# one level of ``fold``: ``expr`` with its children replaced by the folded
# ones given, itself when they are the children it has and nothing folds


def _fold_unary(expr: Unary, inner: Expr) -> Expr:
    if expr.op == "-" and isinstance(inner, Num):
        return Num(-inner.value)
    if expr.op == "!" and isinstance(inner, BoolLit):
        return BoolLit(not inner.value)
    return expr if inner is expr.operand else Unary(expr.op, inner)


def _fold_binary(expr: Binary, left: Expr, right: Expr) -> Expr:
    if left is not expr.left or right is not expr.right:
        expr = Binary(expr.op, left, right)
    if isinstance(left, (Num, BoolLit)) and isinstance(right, (Num, BoolLit)):
        v = eval_expr(expr, {})
        return Num(v) if isinstance(v, Fraction) else BoolLit(v)
    return expr


def _fold_extremum(expr: Extremum, args: tuple) -> Expr:
    if all(isinstance(a, Num) for a in args):
        vals = [a.value for a in args]
        return Num(min(vals) if expr.op == "min" else max(vals))
    if all(a is b for a, b in zip(args, expr.args)):
        return expr
    return Extremum(expr.op, args)


def substitute(expr: Expr, env: Mapping[str, Union[Fraction, int, bool]]) -> Expr:
    """Replace bound names by literals and fold; unbound names stay symbolic.
    A subtree with nothing to replace or fold is returned as it is."""
    if isinstance(expr, (Num, BoolLit)):
        return expr
    if isinstance(expr, Name):
        if expr.ident in env:
            v = env[expr.ident]
            if isinstance(v, bool):
                return BoolLit(v)
            return Num(v if isinstance(v, Fraction) else Fraction(v))
        return expr
    if isinstance(expr, Unary):
        return _fold_unary(expr, substitute(expr.operand, env))
    if isinstance(expr, Binary):
        return _fold_binary(expr, substitute(expr.left, env), substitute(expr.right, env))
    if isinstance(expr, Extremum):
        return _fold_extremum(expr, tuple(substitute(a, env) for a in expr.args))
    raise TypeError(f"not an expression: {expr!r}")


def _single_row(model: ExplicitModel, s: int):
    row = model.choices[s]
    assert len(row) == 1, "oracle expects a Markov chain"
    return row[0].branches


def _gauss_solve(a, b):
    """Solve a x = b exactly; a is a dense list of Fraction lists."""
    n = len(b)
    m = [list(a[i]) + [b[i]] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        assert piv is not None, "singular oracle system"
        m[col], m[piv] = m[piv], m[col]
        inv = Fraction(1) / m[col][col]
        m[col] = [v * inv for v in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [vr - factor * vc for vr, vc in zip(m[r], m[col])]
    return [m[i][n] for i in range(n)]


def mc_reach_exact(model: ExplicitModel, targets) -> list:
    """Per-state reachability probabilities of an MC as exact fractions."""
    tset = set(model.label_states(targets)) if isinstance(targets, str) else set(targets)
    n = model.num_states
    # states with any path into the target set
    pred = [[] for _ in range(n)]
    for s in range(n):
        for _, t in _single_row(model, s):
            pred[t].append(s)
    can = set(tset)
    stack = list(tset)
    while stack:
        t = stack.pop()
        for s in pred[t]:
            if s not in can:
                can.add(s)
                stack.append(s)
    unknown = sorted(can - tset)
    index = {s: i for i, s in enumerate(unknown)}
    k = len(unknown)
    a = [[Fraction(0)] * k for _ in range(k)]
    b = [Fraction(0)] * k
    for s in unknown:
        i = index[s]
        a[i][i] += 1
        for p, t in _single_row(model, s):
            p = Fraction(p)
            if t in tset:
                b[i] += p
            elif t in index:
                a[i][index[t]] -= p
    x = _gauss_solve(a, b) if k else []
    out = [Fraction(0)] * n
    for s in tset:
        out[s] = Fraction(1)
    for s, i in index.items():
        out[s] = x[i]
    return out


def mc_expected_cost_exact(model: ExplicitModel, goals) -> list:
    """Per-state expected costs to the goal set; None where the goal is not
    reached almost surely."""
    gset = set(model.label_states(goals)) if isinstance(goals, str) else set(goals)
    reach = mc_reach_exact(model, gset)
    n = model.num_states
    defined = [s for s in range(n) if reach[s] == 1]
    unknown = [s for s in defined if s not in gset]
    index = {s: i for i, s in enumerate(unknown)}
    k = len(unknown)
    a = [[Fraction(0)] * k for _ in range(k)]
    b = [Fraction(0)] * k
    for s in unknown:
        i = index[s]
        a[i][i] += 1
        b[i] += Fraction(model.costs[s])
        for p, t in _single_row(model, s):
            if t in index:
                a[i][index[t]] -= Fraction(p)
    x = _gauss_solve(a, b) if k else []
    out = [None] * n
    for s in gset:
        out[s] = Fraction(0)
    for s, i in index.items():
        out[s] = x[i]
    return out


# ---------------------------------------------------------------------------
# the checker's former qualitative layer, greedy pick and policy polish
#
# Reference implementations for the differential tests of the graph-search
# rewrite: the fixpoints below rescan every state until nothing changes
# (quadratic), and the polish always builds the dense matrix.  They are kept
# as they were, apart from the names of the two public operations
# (``seed_reach_prob``, ``seed_expected_cost``), which return
# ``(values, iterations, residual)`` instead of a ValueVector.  Value
# iteration is the former one-configuration loop (``_iterate``), which the
# checker has since replaced by a loop over stacks of configurations.


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


# The stacked loop that followed it, verbatim apart from the two names: each
# sweep ran over every state and masked the fixed ones back, and the
# residual took the free entries out of the whole stacks.

def _stacked_sweep_residual(new: np.ndarray, old: np.ndarray, free: np.ndarray) -> np.ndarray:
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


def stacked_iterate(
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
        res = _stacked_sweep_residual(new, xa, free)
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


class SeedArrays(_Arrays):
    """The transition arrays with the former per-state accessors."""

    def choices_of(self, s: int) -> range:
        return range(self.choice_start[s], self.choice_start[s + 1])

    def branches_of(self, c: int):
        lo, hi = self.branch_start[c], self.branch_start[c + 1]
        return zip(self.targets[lo:hi], self.probs[lo:hi])


def _predecessors(arr: _Arrays) -> list:
    pred: list = [[] for _ in range(arr.num_states)]
    for c in range(arr.num_choices):
        s = int(arr.choice_state[c])
        lo, hi = arr.branch_start[c], arr.branch_start[c + 1]
        for t in arr.targets[lo:hi]:
            pred[int(t)].append((s, c))
    return pred


def _reachable_from(arr: _Arrays, start: int) -> set:
    seen = {start}
    stack = [start]
    while stack:
        s = stack.pop()
        for c in arr.choices_of(s):
            lo, hi = arr.branch_start[c], arr.branch_start[c + 1]
            for t in arr.targets[lo:hi]:
                t = int(t)
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
    return seen


def _prob0_max(arr: _Arrays, targets: set) -> set:
    """States whose maximal reachability probability is zero: the complement
    of backward graph reachability from the target set."""
    pred = _predecessors(arr)
    seen = set(targets)
    stack = list(targets)
    while stack:
        t = stack.pop()
        for s, _ in pred[t]:
            if s not in seen:
                seen.add(s)
                stack.append(s)
    return set(range(arr.num_states)) - seen


def _prob1_max(arr: _Arrays, targets: set) -> set:
    """States with a strategy reaching the targets almost surely
    (greatest fixpoint over a least fixpoint)."""
    b = set(range(arr.num_states))
    while True:
        r = set(targets)
        changed = True
        while changed:
            changed = False
            for s in b:
                if s in r:
                    continue
                for c in arr.choices_of(s):
                    lo, hi = arr.branch_start[c], arr.branch_start[c + 1]
                    ts = [int(t) for t in arr.targets[lo:hi]]
                    if all(t in b for t in ts) and any(t in r for t in ts):
                        r.add(s)
                        changed = True
                        break
        if r == b:
            return b
        b = r


def _prob0_min(arr: _Arrays, targets: set) -> set:
    """States with a strategy avoiding the targets with probability one."""
    hit = set(targets)
    changed = True
    while changed:
        changed = False
        for s in range(arr.num_states):
            if s in hit:
                continue
            ok = True
            for c in arr.choices_of(s):
                lo, hi = arr.branch_start[c], arr.branch_start[c + 1]
                if not any(int(t) in hit for t in arr.targets[lo:hi]):
                    ok = False
                    break
            if ok and arr.choice_start[s] < arr.choice_start[s + 1]:
                hit.add(s)
                changed = True
    return set(range(arr.num_states)) - hit


def _prob1_min(arr: _Arrays, targets: set) -> set:
    """States reaching the targets almost surely under every strategy."""
    avoidable = _prob0_min(arr, targets)
    pred = _predecessors(arr)
    bad = set(avoidable)
    stack = list(avoidable)
    while stack:
        t = stack.pop()
        for s, _ in pred[t]:
            if s not in bad and s not in targets:
                bad.add(s)
                stack.append(s)
    return set(range(arr.num_states)) - bad


def _greedy(arr: _Arrays, x: np.ndarray, direction: str,
            state_cost: Optional[np.ndarray] = None) -> list:
    """Optimal choice per state, lowest index on ties."""
    q = arr.choice_values(x)
    if state_cost is not None:
        q = q + state_cost[arr.choice_state]
    picks = []
    for s in range(arr.num_states):
        lo, hi = int(arr.choice_start[s]), int(arr.choice_start[s + 1])
        seg = q[lo:hi]
        local = int(np.argmax(seg) if direction == "max" else np.argmin(seg))
        picks.append(local)
    return picks


def _policy_matrix(arr: _Arrays, picks: list, rows: list, cols: list):
    """Row-stochastic matrix of the chosen choices restricted to ``rows``
    (columns ``cols``), plus the leak into a given set per row."""
    idx = {s: i for i, s in enumerate(rows)}
    cidx = {s: i for i, s in enumerate(cols)}
    mat = np.zeros((len(rows), len(cols)))
    for i, s in enumerate(rows):
        c = int(arr.choice_start[s]) + picks[s]
        for t, p in arr.branches_of(c):
            j = cidx.get(int(t))
            if j is not None:
                mat[i, j] += p
    return mat


def _polish(
    arr: _Arrays,
    picks: list,
    vi_values: np.ndarray,
    region: list,
    rhs: np.ndarray,
    clip: Optional[Tuple[float, float]],
) -> Optional[np.ndarray]:
    """Exact policy evaluation on ``region``: solve (I - P) x = rhs.

    Returns the refined values for the region, or None when the chosen
    strategy is not proper there (singular or badly deviating system).
    """
    if not region:
        return np.zeros(0)
    mat = _policy_matrix(arr, picks, region, region)
    n = len(region)
    a = np.eye(n) - mat
    try:
        if n <= 3000:  # the checker's former dense limit
            sol = np.linalg.solve(a, rhs)
        else:
            from scipy.sparse import csr_matrix
            from scipy.sparse.linalg import spsolve

            sol = spsolve(csr_matrix(a), rhs)
    except Exception:
        return None
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


def seed_reach_prob(
    model: ExplicitModel,
    targets,
    direction: str = "max",
    *,
    tol: float = DEFAULT_TOL,
    trace: Optional[list] = None,
):
    """Optimal probability of eventually reaching ``targets``.

    Returns per-state values and a deterministic memoryless strategy
    (lowest-choice-index tie-break).  For Markov chains the direction is
    irrelevant.  Probability-0 and probability-1 states are set exactly by
    the qualitative precomputation, not by iteration.
    """
    if direction not in ("min", "max"):
        raise ValueError("direction must be 'min' or 'max'")
    arr = SeedArrays(model)
    tset = set_target_set(model, targets)

    if direction == "max" or model.kind == "mc":
        z0 = _prob0_max(arr, tset)
        z1 = _prob1_max(arr, tset)
    else:
        z0 = _prob0_min(arr, tset)
        z1 = _prob1_min(arr, tset)
    # targets always have probability one
    z1 |= tset
    z0 -= tset

    x = np.zeros(arr.num_states)
    if z1:
        x[sorted(z1)] = 1.0
    free = np.ones(arr.num_states, dtype=bool)
    for s in z0 | z1:
        free[s] = False

    x, iters, residual = _iterate(arr, x, free, direction, tol, trace=trace)
    picks = _greedy(arr, x, direction)

    maybe = sorted(set(range(arr.num_states)) - z0 - z1)
    if maybe:
        rhs = np.zeros(len(maybe))
        for i, s in enumerate(maybe):
            c = int(arr.choice_start[s]) + picks[s]
            for t, p in arr.branches_of(c):
                if int(t) in z1:
                    rhs[i] += p
        refined = _polish(arr, picks, x, maybe, rhs, clip=(0.0, 1.0))
        if refined is not None:
            x = x.copy()
            x[maybe] = refined

    strategy = Strategy.deterministic(picks)
    return (x, iters, residual), strategy


def seed_expected_cost(
    model: ExplicitModel,
    goals,
    direction: str = "min",
    *,
    tol: float = DEFAULT_TOL,
    trace: Optional[list] = None,
):
    """Optimal expected accumulated cost until first reaching ``goals``.

    Cost accrues per visit of a non-goal state, including the initial one.
    Defined only where the goals are reached almost surely under every
    strategy (the conservative min-direction precondition); other states get
    +inf, and the operation fails if the initial state cannot satisfy it.
    """
    if direction not in ("min", "max"):
        raise ValueError("direction must be 'min' or 'max'")
    arr = SeedArrays(model)
    gset = set_target_set(model, goals)
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
    cost_masked = cost.copy()
    for g in gset:
        cost_masked[g] = 0.0

    x = np.zeros(arr.num_states)
    outside = set(range(arr.num_states)) - sure
    for s in outside:
        x[s] = np.inf
    free = np.ones(arr.num_states, dtype=bool)
    for s in gset | outside:
        free[s] = False

    x, iters, residual = _iterate(
        arr, x, free, direction, tol, state_cost=cost_masked, trace=trace
    )
    picks = _greedy(arr, x, direction, state_cost=cost_masked)

    region = sorted(sure - gset)
    if region:
        rhs = cost[region]
        refined = _polish(arr, picks, x, region, rhs, clip=(0.0, np.inf))
        if refined is not None:
            x = x.copy()
            x[region] = refined

    strategy = Strategy.deterministic(picks)
    return (x, iters, residual), strategy


# ---------------------------------------------------------------------------
# the former checker, which iterated chains too
#
# Reference for the differential tests of the checker that solves a chain's
# linear system without value iteration and iterates one MDP configuration
# at a time.  Until then ``_reach`` and ``_expected`` ran value iteration on
# every model, chains and stacks of chain configurations included, each row
# stopping at its own residual (``former_iterate``); the polish compared its
# solution with the iteration values on chains too, and a chain whose polish
# was rejected kept the iteration values.  ``expected_cost`` refused a query
# when any state reachable from the initial one, past the goals too, lacked
# probability one (``former_reachable_from``).  Kept verbatim apart from the
# names (the prefix ``former_``) and the checker's helpers, which this
# module reads from ``checking`` (the graph searches, ``_greedy``,
# ``_branches``, ``_spans``, ``_solve_stack``, ``_at_least_one``).

def former_reachable_from(arr: _Arrays, start: int) -> np.ndarray:
    # a state's choices, and so its branches, are contiguous
    first_branch = arr.branch_start[arr.choice_start].tolist()
    succ = arr.targets.tolist()
    seen = bytearray(arr.num_states)
    seen[start] = True
    stack = [start]
    while stack:
        s = stack.pop()
        for t in succ[first_branch[s]:first_branch[s + 1]]:
            if not seen[t]:
                seen[t] = True
                stack.append(t)
    return np.frombuffer(seen, dtype=bool)


def former_sweep_residual(new: np.ndarray, old: np.ndarray) -> np.ndarray:
    """Per row of the stacks of free entries: the largest relative change
    over the finite entries of ``new`` (absolute where the new value is not
    positive), 0 when there is none."""
    rel = np.subtract(new, old)
    np.abs(rel, out=rel)
    np.divide(rel, np.maximum(new, 1.0e-300), out=rel, where=new > 0)
    # rel is never negative, and an infinite or NaN entry of new makes its
    # rel, and so the row's maximum, infinite or NaN
    out = np.maximum.reduce(rel, axis=1, initial=0.0)
    if not math.isfinite(np.add.reduce(out)):
        out = np.maximum.reduce(np.where(np.isfinite(new), rel, 0.0), axis=1, initial=0.0)
    return out


def former_iterate(
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
    Returns the final stack (``x``, updated in place), and per row the
    sweeps and last residual; ``trace`` receives a copy of the stack after
    every sweep.

    Only the free states (``free_mask``) are swept.  Their choices and
    branches are gathered once, in model order, so each sweep sums the same
    branches in the same order as a sweep over the whole model would.  The
    sweeps work on ``w``: the columns of ``x`` with the free states first,
    then one column of -0.0, a branch that adds nothing to any sum."""
    k, n = x.shape
    iterations = np.zeros(k, dtype=np.int64)
    residual = np.zeros(k)
    active = np.arange(k)
    sweeps = 0
    free = np.flatnonzero(free_mask)
    m = len(free)
    order = np.concatenate((free, np.flatnonzero(~free_mask)))
    column = np.empty(n, dtype=np.int64)  # of each state in w
    column[order] = np.arange(n)
    first = arr.choice_start[free]
    count = arr.choice_start[free + 1] - first  # choices per free state
    choices, state_at = checking._spans(first, count)
    first = arr.branch_start[choices]
    width = arr.branch_start[choices + 1] - first  # branches per choice
    branches, choice_at = checking._spans(first, width)
    succ = column[arr.targets[branches]]
    probs = arr.probs[..., branches]
    pairs = not (width > 2).any()
    if pairs:
        # one vector addition in place of reduceat's per-segment work: every
        # choice padded to two branches, a single one with a branch of
        # probability 0 into the -0.0 column (its sum a + -0.0 is a)
        at = np.full(2 * len(choices), len(branches))
        at[0::2] = choice_at
        at[1::2][width == 2] = choice_at[width == 2] + 1
        succ = np.append(succ, n)[at]
        probs = np.append(probs, np.zeros(probs.shape[:-1] + (1,)), axis=-1)[..., at]
    cost = None if state_cost is None else state_cost.take(arr.choice_state[choices], axis=1)
    several = (count > 1).any()  # some free state has several choices
    best = np.maximum if direction == "max" else np.minimum
    w = np.empty((k, n + 1))
    w[:, :n] = x.take(order, axis=1)
    w[:, n] = -0.0
    while len(active):
        whole = len(active) == k
        wa = w if whole else w[active]
        new = wa.take(succ, axis=1)
        new *= probs if whole or probs.ndim == 1 else probs[active]
        if pairs:
            new = new[:, 0::2] + new[:, 1::2]
        else:
            new = np.add.reduceat(new, choice_at, axis=1)
        if cost is not None:
            new += cost if whole else cost[active]
        if several:
            new = best.reduceat(new, state_at, axis=1)
        res = former_sweep_residual(new, wa[:, :m])
        if whole:
            w[:, :m] = new
        else:
            w[active, :m] = new
        sweeps += 1
        if trace is not None:
            x[:, free] = w[:, :m]
            trace.append(x.copy())
        if sweeps > _MAX_SWEEPS:
            raise ModelError("value iteration failed to converge")
        if not np.minimum.reduce(res) > tol:
            done = ~(res > tol)
            iterations[active[done]] = sweeps
            residual[active[done]] = res[done]
            active = active[~done]
    x[:, free] = w[:, :m]
    return x, iterations, residual


def former_polish(
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

    The systems are solved by ``_solve_stack``: dense up to
    ``_POLISH_DENSE_LIMIT`` states, a sparse LU above.  Returns the refined
    region values per row, and per row whether they are accepted: False
    when the strategy is not proper there (singular or badly deviating
    system), in which case the row is meaningless.
    """
    k, n = rhs.shape
    if not n:
        return np.zeros((k, 0)), np.ones(k, dtype=bool)
    rows, targets, probs = checking._branches(arr, arr.choice_start[region] + picks[region])
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
        checking._solve_stack(rows, cols, probs, rhs, sol, residual)
    vi_region = vi_values[:, region]
    accepted = np.all(np.isfinite(sol), axis=1)
    accepted &= ~(residual > 1e-7 * checking._at_least_one(np.max(np.abs(rhs), axis=1)))
    scale = checking._at_least_one(np.max(np.abs(vi_region), axis=1))
    accepted &= ~(np.max(np.abs(sol - vi_region), axis=1) > 1e-5 * scale)
    if clip is not None:
        sol = np.clip(sol, clip[0], clip[1])
    return sol, accepted


def former_reach_prob(
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
    (lowest-choice-index tie-break).  For Markov chains the direction is
    irrelevant.  Probability-0 and probability-1 states are set exactly by
    the qualitative precomputation, not by iteration.
    """
    if direction not in ("min", "max"):
        raise ValueError("direction must be 'min' or 'max'")
    arr = checking._model_arrays(model)
    target = checking._target_set(model, targets)
    x, iters, residual, polished, picks = former_reach(
        arr, target, direction, model.kind == "mc", 1, tol, trace
    )
    vec = ValueVector(x[0], int(iters[0]), float(residual[0]), bool(polished[0]))
    return vec, Strategy.deterministic(picks.tolist())


def former_reach(arr: _Arrays, target: np.ndarray, direction: str, chain: bool, k: int,
                 tol: float, trace: Optional[list] = None):
    """``reach_prob`` on ``k`` configurations that share the structure of
    ``arr`` (``k`` > 1 only on chains, whose one strategy they share), with
    the mask ``target``: the value stack, per row the sweeps, last residual
    and whether the polish was accepted, and the strategy's picks."""
    # on a chain each min set equals its max counterpart, and _prob1_min
    # skips the nested fixpoint of _prob1_max; both sets leave the targets
    # at probability one
    if direction == "min" or chain:
        zero = checking._prob0_min(arr, target)
        one = checking._prob1_min(arr, target, zero)
    else:
        zero = checking._prob0_max(arr, target)
        one = checking._prob1_max(arr, target)
    free = ~(one | zero)

    x = np.tile(np.where(one, 1.0, 0.0), (k, 1))
    x, iters, residual = former_iterate(arr, x, free, direction, tol, trace=trace)
    picks = former_picks(arr, x, direction, chain)

    polished = np.ones(k, dtype=bool)
    maybe = np.flatnonzero(free)
    if len(maybe):
        rows, succ, probs = checking._branches(arr, arr.choice_start[maybe] + picks[maybe])
        into = one[succ]
        rhs = np.zeros((k, len(maybe)))
        np.add.at(rhs, (slice(None), rows[into]), probs[..., into])
        refined, polished = former_polish(arr, picks, x, maybe, rhs, clip=(0.0, 1.0))
        x[np.ix_(polished, maybe)] = refined[polished]
    return x, iters, residual, polished, picks


def former_picks(arr: _Arrays, x: np.ndarray, direction: str, chain: bool,
                 state_cost: Optional[np.ndarray] = None) -> np.ndarray:
    # a chain's one choice per state is the strategy of every configuration
    if chain:
        return np.zeros(arr.num_states, dtype=np.int64)
    return checking._greedy(arr, x[0], direction, None if state_cost is None else state_cost[0])


def former_expected_cost(
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
    arr = checking._model_arrays(model)
    goal = checking._target_set(model, goals)
    for s, c in enumerate(model.costs):
        if isinstance(c, Expr):
            raise ModelError("expected cost needs concrete state costs")
        if c < 0:
            raise ModelError(f"negative cost at state {s}")
    cost = np.array([[float(c) for c in model.costs]])
    x, iters, residual, polished, picks = former_expected(
        model, arr, goal, cost, direction, model.kind == "mc", tol, trace
    )
    vec = ValueVector(x[0], int(iters[0]), float(residual[0]), bool(polished[0]))
    return vec, Strategy.deterministic(picks.tolist())


def former_expected(model: ExplicitModel, arr: _Arrays, goal: np.ndarray, cost: np.ndarray,
                    direction: str, chain: bool, tol: float, trace: Optional[list] = None):
    """``expected_cost`` on the configurations of ``arr`` (one row of
    ``cost`` each; several only on chains) with the mask ``goal``,
    returned as ``_reach`` returns."""
    sure = checking._prob1_min(arr, goal)
    lacking = np.flatnonzero(former_reachable_from(arr, model.initial) & ~sure)
    if len(lacking):
        raise ExpectedCostUndefined(
            "expected cost undefined: goal not reached almost surely from "
            f"state {model.state_text(int(lacking[0]))}"
        )

    cost_masked = np.where(goal, 0.0, cost)
    x = np.tile(np.where(sure, 0.0, np.inf), (len(cost), 1))
    free = sure & ~goal

    x, iters, residual = former_iterate(
        arr, x, free, direction, tol, state_cost=cost_masked, trace=trace
    )
    picks = former_picks(arr, x, direction, chain, cost_masked)

    polished = np.ones(len(cost), dtype=bool)
    region = np.flatnonzero(free)
    if len(region):
        refined, polished = former_polish(arr, picks, x, region, cost[:, region], clip=(0.0, np.inf))
        x[np.ix_(polished, region)] = refined[polished]
    return x, iters, residual, polished, picks


def former_chain_family(
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
    branch probabilities (flat in model order) and state costs, as
    ``Fraction`` or ``int`` values.  Each becomes a float as its numerator
    over its denominator, the int division ``float()`` of a ``Fraction``
    makes, so the floats are the same.
    Configurations with the same support, the branches of nonzero
    probability, share one set of arrays and qualitative sets, and run as
    one stack through value iteration and the polish.
    """
    target = checking._target_set(model, targets)
    goal = checking._target_set(model, goals)
    groups: dict = {}  # support -> configurations
    for i, (probs, _) in enumerate(entries):
        groups.setdefault(tuple(map(bool, probs)), []).append(i)
    pr = np.empty(len(entries))
    ec = np.empty(len(entries))
    for support, members in groups.items():
        probs = [
            [p.numerator / p.denominator for p, edge in zip(entries[i][0], support) if edge]
            for i in members
        ]
        arr = _Arrays(model, support, probs)
        x = former_reach(arr, target, "max", True, len(members), DEFAULT_TOL)[0]
        pr[members] = x[:, model.initial]
        cost = np.array([[c.numerator / c.denominator for c in entries[i][1]] for i in members])
        try:
            x = former_expected(model, arr, goal, cost, "min", True, DEFAULT_TOL)[0]
        except ExpectedCostUndefined:
            ec[members] = np.inf
        else:
            ec[members] = x[:, model.initial]
    return pr, ec


# ---------------------------------------------------------------------------
# the former graph searches on Python sets of states
#
# Reference for the differential tests of the searches on boolean masks over
# the flat predecessor arrays.  Until then the searches took and returned
# sets, walked one predecessor list per state that ``_Arrays._fill`` built
# on every construction (``PredecessorArrays`` adds that construction to the
# current arrays), and callers turned the sets into masks with ``_mask``.
# Kept verbatim apart from the names (the prefix ``set_``).

class PredecessorArrays(_Arrays):
    """The checker's arrays with the former per-state predecessor lists."""

    def _fill(self, num_states, choice_state, choice_start, branch_start,
              targets, probs) -> None:
        super()._fill(num_states, choice_state, choice_start, branch_start, targets, probs)
        self.owner = self.choice_state.tolist()  # the state of each choice
        # per state, the choices with a branch into it (ascending; a choice
        # appears once per such branch): the graph searches walk these
        of_branch = np.repeat(np.arange(self.num_choices), np.diff(self.branch_start))
        into = of_branch[np.argsort(self.targets, kind="stable")].tolist()
        ends = np.cumsum(np.bincount(self.targets, minlength=num_states)).tolist()
        self.predecessors = [into[lo:hi] for lo, hi in zip([0] + ends, ends)]


def set_reachable_from(arr: _Arrays, start: int) -> set:
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


def set_backward(arr: _Arrays, seeds: set, stop=frozenset(), enabled=None) -> set:
    """The seeds plus every state outside ``stop`` with a path into them
    through the choices ``enabled`` (a mask; every choice when None)."""
    pred, owner = arr.predecessors, arr.owner
    on = [True] * arr.num_choices if enabled is None else enabled.tolist()
    seen = set(seeds)
    stack = list(seeds)
    while stack:
        for c in pred[stack.pop()]:
            s = owner[c]
            if on[c] and s not in seen and s not in stop:
                seen.add(s)
                stack.append(s)
    return seen


def set_prob0_max(arr: _Arrays, targets: set) -> set:
    """States whose maximal reachability probability is zero: the complement
    of backward graph reachability from the target set."""
    return set(range(arr.num_states)) - set_backward(arr, targets)


def set_prob1_max(arr: _Arrays, targets: set) -> set:
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


def set_prob0_min(arr: _Arrays, targets: set, enabled=None) -> set:
    """States with a strategy avoiding the targets with probability one,
    taking only the choices ``enabled`` (a mask; every choice when None).

    Least fixpoint of the states all of whose (at least one) choices hit
    the set, counted down per state as choices start hitting it.
    """
    pred, owner = arr.predecessors, arr.owner
    if enabled is None:
        enabled = np.ones(arr.num_choices, dtype=bool)
    # per state, its enabled choices not yet hitting; a disabled choice is
    # never counted, and is passed over as if it hit already
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


def set_prob1_min(arr: _Arrays, targets: set, zero: Optional[set] = None,
                  enabled=None) -> set:
    """States reaching the targets almost surely under every strategy that
    takes only the choices ``enabled`` (a mask; every choice when None);
    ``zero`` is ``_prob0_min(arr, targets)`` when the caller has it.  A
    state outside the targets needs an enabled choice."""
    if zero is None:
        zero = set_prob0_min(arr, targets, enabled)
    bad = set_backward(arr, zero, stop=targets, enabled=enabled)
    return set(range(arr.num_states)) - bad


def set_mask(n: int, states: set) -> np.ndarray:
    out = np.zeros(n, dtype=bool)
    out[list(states)] = True
    return out


def set_target_set(model: ExplicitModel, targets) -> set:
    if isinstance(targets, str):
        return set(model.label_states(targets))
    out = set(int(t) for t in targets)
    n = model.num_states
    for t in out:
        if not (0 <= t < n):
            raise ModelError(f"target state {t} out of range")
    return out


# ---------------------------------------------------------------------------
# the former cost-bounded reachability, which built its budget product out of
# ``Choice`` objects with exact probabilities and left ``reach_prob`` to turn
# them into arrays; kept verbatim (it calls the current ``reach_prob``)

def seed_cost_bounded_reach(
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
    tset = set_target_set(model, targets)
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

    product = ExplicitModel.from_rows(
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
# the former instantiation and well-definedness filter
#
# Reference implementations for the differential tests of the memoised
# single instantiation path.  They are kept as they were, with a 1e-9
# tolerance on the sum, apart from the names (``seed_instantiate``,
# ``seed_well_defined_valuations``) and one change: the filter evaluates
# with plain ``eval_expr`` instead of a ``MemoEvaluator``, so neither
# reference shares the memo under test.

SUM_TOL = Fraction(1, 10**9)


def seed_instantiate(model: ExplicitModel, valuation) -> ExplicitModel:
    if model.kind != "mimdp":
        return model
    missing = sorted(set(model.parameters) - set(valuation))
    if missing:
        raise ModelError(f"valuation missing parameter(s): {', '.join(missing)}")
    env = {p: Fraction(valuation[p]) for p in model.parameters}

    def concrete(p) -> Fraction:
        if isinstance(p, Fraction):
            return p
        v = eval_expr(p, env)
        if isinstance(v, bool):
            raise ModelError(f"boolean where a number was expected: {to_text(p)}")
        return v

    new_rows = []
    for si, row in enumerate(model.choices):
        new_row = []
        for ch in row:
            branches = tuple((concrete(p), t) for p, t in ch.branches)
            total = Fraction(0)
            for p, _ in branches:
                if not (0 <= p <= 1):
                    raise WellDefinednessError(
                        f"well-definedness violation at state {model.state_text(si)}, "
                        f"action {ch.action or 'tau'}: probability {format_fraction(p)}",
                        state=si,
                        action=ch.action,
                    )
                total += p
            if total != 1 and abs(total - 1) > SUM_TOL:
                raise WellDefinednessError(
                    f"well-definedness violation at state {model.state_text(si)}, "
                    f"action {ch.action or 'tau'}: probabilities sum to {format_fraction(total)}",
                    state=si,
                    action=ch.action,
                )
            new_row.append(Choice(ch.action, branches))
        new_rows.append(new_row)
    new_costs = []
    for si, c in enumerate(model.costs):
        v = concrete(c)
        if v < 0:
            raise WellDefinednessError(
                f"negative cost {format_fraction(v)} at state {model.state_text(si)}",
                state=si,
            )
        new_costs.append(v)
    kind = "mc" if all(len(row) == 1 for row in new_rows) else "mdp"
    return ExplicitModel.from_rows(
        kind=kind,
        var_names=model.var_names,
        states=list(model.states),
        initial=model.initial,
        choices=new_rows,
        costs=new_costs,
        labels=dict(model.labels),
        parameters={},
        deadlocks=model.deadlocks,
    )


def seed_well_defined_valuations(model: ExplicitModel) -> list:
    if model.kind != "mimdp":
        return [{}]

    rows = []
    for row in model.choices:
        for ch in row:
            exprs = [p for p, _ in ch.branches if not isinstance(p, Fraction)]
            if exprs:
                concrete = sum(
                    (p for p, _ in ch.branches if isinstance(p, Fraction)),
                    Fraction(0),
                )
                rows.append((concrete, exprs))
    cost_exprs = [c for c in model.costs if not isinstance(c, Fraction)]

    def value(e: Expr, u) -> Fraction:
        v = eval_expr(e, u)
        if isinstance(v, bool):
            raise ModelError(f"boolean where a number was expected: {to_text(e)}")
        return v

    result = []
    for u in all_valuations(model):
        ok = True
        for concrete, exprs in rows:
            total = concrete
            for e in exprs:
                v = value(e, u)
                if not (0 <= v <= 1):
                    ok = False
                    break
                total += v
            if not ok or (total != 1 and abs(total - 1) > SUM_TOL):
                ok = False
                break
        if ok:
            for c in cost_exprs:
                if value(c, u) < 0:
                    ok = False
                    break
        if ok:
            result.append(u)
    return result


# ---------------------------------------------------------------------------
# the former exploration, implication checks and integer-program emitter
#
# Reference implementations for the differential tests of the guard index
# and of the instance-based emitter, kept as they were apart from their
# names: ``seed_build_model`` evaluates every guard at every state,
# ``seed_guard_implies`` and ``seed_guards_overlap`` enumerate the full
# domain product, and ``seed_emit_nilp`` evaluates every parametric entry
# with plain ``eval_expr``.

def seed_build_model(
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

    while qhead < len(queue):
        si = queue[qhead]
        qhead += 1
        state = states[si]
        env = var_env(state)
        out: list = []
        for ci, cmd in enumerate(module.commands):
            g = eval_expr(cmd.guard, env)
            if not g:
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
        for r in program.rewards:
            if eval_expr(r.guard, env):
                c = prob_value(r.cost, env)
                cost = _add_probs(cost, c)
        if isinstance(cost, Fraction) and cost < 0:
            raise ModelError(f"negative cost at state {_fmt(var_names, state)}")
        costs.append(cost)

    labels = {}
    for label, lexpr in program.labels.items():
        members = frozenset(
            i for i, st in enumerate(states) if eval_expr(lexpr, var_env(st))
        )
        labels[label] = members

    parametric = len(program.parameters) > 0
    if parametric:
        kind = "mimdp"
    else:
        kind = "mc" if all(len(row) == 1 for row in rows) else "mdp"
    model = ExplicitModel.from_rows(
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


def _seed_domain_product(guard_vars, variables, cap=IMPLICATION_CAP):
    sizes = 1
    decls = [variables[v] for v in guard_vars]
    for d in decls:
        sizes *= d.hi - d.lo + 1
        if sizes > cap:
            raise TransformError(
                "guard implication check exceeds the enumeration cap; "
                "simplify the reward guards"
            )
    ranges = [range(d.lo, d.hi + 1) for d in decls]
    return itertools.product(*ranges)


def seed_guard_implies(g: Expr, h: Expr, program: Program) -> bool:
    """g |= h, decided by enumerating the domains of the mentioned variables."""
    variables = program.variables()
    consts = program.constants
    used = sorted((names_in(g) | names_in(h)) & set(variables))
    for combo in _seed_domain_product(used, variables):
        env = dict(consts)
        env.update(zip(used, combo))
        if eval_expr(g, env) and not eval_expr(h, env):
            return False
    return True


def seed_guards_overlap(g: Expr, h: Expr, program: Program) -> bool:
    variables = program.variables()
    consts = program.constants
    used = sorted((names_in(g) | names_in(h)) & set(variables))
    for combo in _seed_domain_product(used, variables):
        env = dict(consts)
        env.update(zip(used, combo))
        if eval_expr(g, env) and eval_expr(h, env):
            return True
    return False


def seed_emit_nilp(program: Program, query: SynthesisQuery) -> str:
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
    if model.kind == "mimdp":
        valuations = well_defined_valuations(model)
        if not valuations:
            raise SynthesisError("no well-defined valuation exists")
    else:
        valuations = [{}]

    def prob_value(p, u) -> Fraction:
        if isinstance(p, Expr):
            return eval_expr(p, u)
        return p

    exprs = set()
    num_sa = 0
    for s, row in enumerate(model.choices):
        num_sa += len(row)
        for ch in row:
            for p, _ in ch.branches:
                if isinstance(p, Expr):
                    exprs.add(p)
        if isinstance(model.costs[s], Expr):
            exprs.add(model.costs[s])
    value_count = len(
        {prob_value(e, u) for e in exprs for u in valuations}
    ) if exprs else 0
    size_expr = model.num_states * num_sa + value_count ** 2

    lines = [
        "# structured-synthesis integer program",
        f"# states: {model.num_states}  state-action pairs: {num_sa}  "
        f"expression values: {value_count}  well-defined valuations: {len(valuations)}",
        f"# problem size |S|*|A| + |Val(L)|^2 = {model.num_states}*{num_sa} + {value_count}^2 = {size_expr}",
        f"# bound: Pr(F \"{query.target}\") <= {format_fraction(Fraction(query.bound))}"
        f"   objective: EC(F \"{query.goal}\")",
        "MINIMIZE",
        f"  c[s{model.initial}]",
        "SUBJECT TO",
        f"  bound: p[s{model.initial}] <= {_coef(Fraction(query.bound))}",
    ]
    for s in tset:
        lines.append(f"  target_s{s}: p[s{s}] = 1")
    for s in gset:
        lines.append(f"  goal_s{s}: c[s{s}] = 0")
    onehot = " + ".join(f"x[u{k}]" for k in range(len(valuations)))
    lines.append(f"  onehot: {onehot} = 1")

    def terms_join(terms: List[str]) -> str:
        out = terms[0]
        for t in terms[1:]:
            out += (" - " + t[1:]) if t.startswith("-") else (" + " + t)
        return out

    tset_set, gset_set = set(tset), set(gset)
    for s in range(model.num_states):
        if s in tset_set:
            continue
        terms = [f"p[s{s}]"]
        for a, ch in enumerate(model.choices[s]):
            for k, u in enumerate(valuations):
                for p, t in ch.branches:
                    v = prob_value(p, u)
                    if v == 0:
                        continue
                    terms.append(f"-{_coef(v)} sig[s{s},a{a}] * x[u{k}] * p[s{t}]")
        lines.append(f"  pdef_s{s}: {terms_join(terms)} = 0")
    for s in range(model.num_states):
        if s in gset_set:
            continue
        terms = [f"c[s{s}]"]
        for a, ch in enumerate(model.choices[s]):
            for k, u in enumerate(valuations):
                cost = prob_value(model.costs[s], u)
                if cost != 0:
                    terms.append(f"-{_coef(cost)} sig[s{s},a{a}] * x[u{k}]")
                for p, t in ch.branches:
                    v = prob_value(p, u)
                    if v == 0:
                        continue
                    terms.append(f"-{_coef(v)} sig[s{s},a{a}] * x[u{k}] * c[s{t}]")
        lines.append(f"  cdef_s{s}: {terms_join(terms)} = 0")
    for s in range(model.num_states):
        for a, ch in enumerate(model.choices[s]):
            if not any(isinstance(p, Expr) for p, _ in ch.branches):
                continue
            terms = []
            for p, _ in ch.branches:
                for k, u in enumerate(valuations):
                    v = prob_value(p, u)
                    terms.append(f"{_coef(v)} x[u{k}]")
            lines.append(f"  wd_s{s}_a{a}: {terms_join(terms)} = 1")
    for s in range(model.num_states):
        row = " + ".join(f"sig[s{s},a{a}]" for a in range(len(model.choices[s])))
        lines.append(f"  strat_s{s}: {row} = 1")

    lines.append("BOUNDS")
    for s in range(model.num_states):
        lines.append(f"  0 <= p[s{s}] <= 1")
    for s in range(model.num_states):
        lines.append(f"  c[s{s}] >= 0")
    for s in range(model.num_states):
        for a in range(len(model.choices[s])):
            lines.append(f"  0 <= sig[s{s},a{a}] <= 1")
    lines.append("BINARY")
    for k in range(len(valuations)):
        lines.append(f"  x[u{k}]")
    lines.append("END")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# the former LP solver: programs as per-row dicts, densified entry by entry
# into the simplex tableau

@dataclass
class SeedLinearConstraint:
    coeffs: Dict[int, float]
    sense: str  # '<=' | '=' | '>='
    rhs: float

    def __post_init__(self):
        if self.sense not in ("<=", "=", ">="):
            raise LpError(f"bad constraint sense {self.sense!r}")


@dataclass
class SeedLinearProgram:
    """min objective . x  subject to the constraints, x >= 0."""

    num_vars: int
    objective: Dict[int, float] = field(default_factory=dict)
    constraints: List[SeedLinearConstraint] = field(default_factory=list)

    def add(self, coeffs: Dict[int, float], sense: str, rhs: float) -> None:
        self.constraints.append(SeedLinearConstraint(dict(coeffs), sense, float(rhs)))


def seed_solve_lp(
    lp: SeedLinearProgram,
    *,
    var_cap: int = DEFAULT_VAR_CAP,
    secondary: Optional[Dict[int, float]] = None,
) -> LpSolution:
    """Solve the program; with ``secondary``, lexicographically minimize the
    secondary objective over the primary-optimal face (entering columns are
    restricted to zero reduced cost in the primary, so the primary optimum
    is preserved exactly)."""
    if lp.num_vars > var_cap:
        raise LpSizeError(
            f"{lp.num_vars} variables exceed the desk-scale cap of {var_cap}"
        )
    n = lp.num_vars
    m = len(lp.constraints)

    # count auxiliary columns: slack for <=, surplus for >=, artificial for =/>=
    # rows are first normalized to nonnegative right-hand sides
    senses = []
    rows = np.zeros((m, n))
    rhs = np.zeros(m)
    for i, c in enumerate(lp.constraints):
        sense = c.sense
        scale = 1.0
        if c.rhs < 0:
            scale = -1.0
            sense = {"<=": ">=", ">=": "<=", "=": "="}[sense]
        senses.append(sense)
        rhs[i] = scale * c.rhs
        for j, v in c.coeffs.items():
            if not 0 <= j < n:
                raise LpError(f"variable index {j} out of range")
            rows[i, j] += scale * v

    n_slack = sum(1 for s in senses if s == "<=")
    n_surplus = sum(1 for s in senses if s == ">=")
    n_art = sum(1 for s in senses if s in ("=", ">="))
    total = n + n_slack + n_surplus + n_art
    tab = np.zeros((m, total + 1))
    tab[:, :n] = rows
    tab[:, -1] = rhs

    basis = [-1] * m
    art_cols = []
    col = n
    for i, s in enumerate(senses):
        if s == "<=":
            tab[i, col] = 1.0
            basis[i] = col
            col += 1
    for i, s in enumerate(senses):
        if s == ">=":
            tab[i, col] = -1.0
            col += 1
    for i, s in enumerate(senses):
        if s in ("=", ">="):
            tab[i, col] = 1.0
            basis[i] = col
            art_cols.append(col)
            col += 1
    assert col == total

    allowed = np.ones(total, dtype=bool)

    # phase 1: minimize the sum of artificials
    if art_cols:
        cost1 = np.zeros(total)
        cost1[art_cols] = 1.0
        z = _price_out(tab, basis, cost1)
        status = _pivot_loop(tab, basis, z, allowed)
        if status != "optimal":  # phase-1 objective is bounded below by 0
            return LpSolution("infeasible", None, None)
        if z[-1] < -PIVOT_TOL * max(1.0, float(np.max(np.abs(rhs))) ):
            # z holds the negated objective value in its last entry
            return LpSolution("infeasible", None, None)
        _drive_out_artificials(tab, basis, set(art_cols))
        allowed[art_cols] = False

    cost2 = np.zeros(total)
    for j, v in lp.objective.items():
        if not 0 <= j < n:
            raise LpError(f"objective index {j} out of range")
        cost2[j] += v
    z = _price_out(tab, basis, cost2)
    status = _pivot_loop(tab, basis, z, allowed)
    if status == "unbounded":
        return LpSolution("unbounded", None, None)

    if secondary is not None:
        # restrict to the optimal face of the primary objective
        face = allowed & (np.abs(z[:-1]) <= PIVOT_TOL * max(1.0, float(np.max(np.abs(cost2)))))
        for b in basis:
            if 0 <= b < total:
                face[b] = allowed[b]
        cost3 = np.zeros(total)
        for j, v in secondary.items():
            cost3[j] += v
        z3 = _price_out(tab, basis, cost3)
        _pivot_loop(tab, basis, z3, face)  # unbounded face: keep current point

    x = np.zeros(n)
    for i, b in enumerate(basis):
        if 0 <= b < n:
            x[b] = tab[i, -1]
    objective = float(sum(v * x[j] for j, v in lp.objective.items()))
    return LpSolution("optimal", x, objective)


def _price_out(tab: np.ndarray, basis: List[int], cost: np.ndarray) -> np.ndarray:
    """Objective row [reduced costs | -objective] for the current basis."""
    z = np.zeros(tab.shape[1])
    z[:-1] = cost
    for i, b in enumerate(basis):
        cb = cost[b]
        if cb != 0.0:
            z -= cb * tab[i]
    return z


def _pivot_loop(tab: np.ndarray, basis: List[int], z: np.ndarray, allowed: np.ndarray) -> str:
    m = tab.shape[0]
    while True:
        enter = -1
        for j in range(tab.shape[1] - 1):
            if allowed[j] and z[j] < -PIVOT_TOL:
                enter = j  # Bland: lowest eligible index
                break
        if enter < 0:
            return "optimal"
        best_ratio = None
        leave = -1
        for i in range(m):
            a = tab[i, enter]
            if a > PIVOT_TOL:
                ratio = tab[i, -1] / a
                if (
                    best_ratio is None
                    or ratio < best_ratio - PIVOT_TOL
                    or (abs(ratio - best_ratio) <= PIVOT_TOL and basis[i] < basis[leave])
                ):
                    best_ratio = ratio
                    leave = i
        if leave < 0:
            return "unbounded"
        _pivot(tab, z, leave, enter)
        basis[leave] = enter


def _pivot(tab: np.ndarray, z: np.ndarray, row: int, col: int) -> None:
    tab[row] /= tab[row, col]
    piv = tab[row]
    factors = tab[:, col].copy()
    factors[row] = 0.0
    tab -= np.outer(factors, piv)
    if z[col] != 0.0:
        z -= z[col] * piv


def _drive_out_artificials(tab: np.ndarray, basis: List[int], art: set) -> None:
    m, ncols = tab.shape
    for i in range(m):
        if basis[i] in art:
            pivot_col = -1
            for j in range(ncols - 1):
                if j not in art and abs(tab[i, j]) > PIVOT_TOL:
                    pivot_col = j
                    break
            if pivot_col >= 0:
                dummy = np.zeros(ncols)
                _pivot(tab, dummy, i, pivot_col)
                basis[i] = pivot_col
            else:
                # redundant row: basic artificial at level ~0, leave in place
                tab[i, :] = 0.0


# ---------------------------------------------------------------------------
# the former simplex: every pivot subtracted the outer product of the pivot
# column and the pivot row from the whole tableau, and Python loops scanned
# for the entering column and the leaving row at every size.  It took
# programs with a sense per row ('<=', '=' or '>=') and right-hand sides of
# either sign, and negated the rows with a negative one; ``solve_lp`` now
# takes the equality rows first, then the <= rows, with nonnegative
# right-hand sides.  Kept verbatim apart from the names (the prefix
# ``former_``, ``FormerLinearProgram`` for the program); ``tests/test_lp.py``
# compares it with ``solve_lp`` bit for bit, pivot count included, on the
# programs of the one form, written with senses ``["="] * e + ["<="] * (m - e)``.

_FLIPPED = {"<=": ">=", ">=": "<=", "=": "="}


@dataclass
class FormerLinearProgram:
    """min objective . x  subject to  constraints @ x (senses) rhs,  x >= 0.

    ``objective`` has one entry per variable, ``constraints`` one row per
    constraint and one column per variable, and ``senses`` ('<=', '=' or
    '>=') and ``rhs`` one entry per row.  ``solve_lp`` copies the matrix
    into the simplex tableau in one assignment, negating the rows with a
    negative right-hand side."""

    objective: np.ndarray
    constraints: np.ndarray
    senses: Sequence[str]
    rhs: np.ndarray

    def __post_init__(self):
        self.objective = np.asarray(self.objective, dtype=np.float64)
        self.constraints = np.asarray(self.constraints, dtype=np.float64)
        self.rhs = np.asarray(self.rhs, dtype=np.float64)
        shape = (len(self.rhs), self.num_vars)
        if self.constraints.shape != shape or len(self.senses) != shape[0]:
            raise LpError(f"a {self.constraints.shape} matrix and {len(self.senses)} "
                          f"senses for {shape[0]} rows of {shape[1]} variables")
        if not set(self.senses) <= _FLIPPED.keys():
            raise LpError(f"bad constraint senses {self.senses!r}")
        for name in ("objective", "constraints", "rhs"):
            if not np.isfinite(getattr(self, name)).all():
                raise LpError(f"non-finite entries in the {name}")

    @property
    def num_vars(self) -> int:
        return len(self.objective)


def former_solve_lp(lp: FormerLinearProgram, *, secondary: Optional[np.ndarray] = None) -> LpSolution:
    """Solve the program; with ``secondary`` (one coefficient per variable),
    lexicographically minimize the secondary objective over the
    primary-optimal face (entering columns are restricted to zero reduced
    cost in the primary, so the primary optimum is preserved exactly).  A
    program of more than ``DEFAULT_VAR_CAP`` variables, or whose tableau
    would have more than ``DEFAULT_TABLEAU_CAP`` entries, raises
    ``LpSizeError`` before the tableau is allocated."""
    if lp.num_vars > DEFAULT_VAR_CAP:
        raise LpSizeError(
            f"{lp.num_vars} variables exceed the desk-scale cap of {DEFAULT_VAR_CAP}"
        )
    n = lp.num_vars
    m = len(lp.rhs)

    # count auxiliary columns: slack for <=, surplus for >=, artificial for =/>=
    # rows are first normalized to nonnegative right-hand sides
    flip = lp.rhs < 0
    scale = np.where(flip, -1.0, 1.0)
    senses = [_FLIPPED[s] if f else s for s, f in zip(lp.senses, flip.tolist())]
    rhs = scale * lp.rhs

    n_slack = sum(1 for s in senses if s == "<=")
    n_surplus = sum(1 for s in senses if s == ">=")
    n_art = sum(1 for s in senses if s in ("=", ">="))
    total = n + n_slack + n_surplus + n_art
    if m * (total + 1) > DEFAULT_TABLEAU_CAP:
        raise LpSizeError(
            f"a tableau of {m} rows and {total + 1} columns exceeds the desk-scale "
            f"cap of {DEFAULT_TABLEAU_CAP} entries"
        )
    tab = np.zeros((m, total + 1))
    tab[:, :n] = lp.constraints
    # 0.0 + scale * v per entry, in place: every zero is +0.0 (-v would
    # make the zeros of a negated row -0.0)
    tab[:, :n] *= scale[:, None]
    tab[:, :n] += 0.0
    tab[:, -1] = rhs

    basis = [-1] * m
    art_cols = []
    col = n
    for i, s in enumerate(senses):
        if s == "<=":
            tab[i, col] = 1.0
            basis[i] = col
            col += 1
    for i, s in enumerate(senses):
        if s == ">=":
            tab[i, col] = -1.0
            col += 1
    for i, s in enumerate(senses):
        if s in ("=", ">="):
            tab[i, col] = 1.0
            basis[i] = col
            art_cols.append(col)
            col += 1
    assert col == total

    allowed = np.ones(total, dtype=bool)

    # phase 1: minimize the sum of artificials
    if art_cols:
        cost1 = np.zeros(total)
        cost1[art_cols] = 1.0
        z = former_price_out(tab, basis, cost1)
        status = former_pivot_loop(tab, basis, z, allowed)
        if status != "optimal":  # phase-1 objective is bounded below by 0
            return LpSolution("infeasible", None, None)
        if z[-1] < -PIVOT_TOL * max(1.0, float(np.max(np.abs(rhs))) ):
            # z holds the negated objective value in its last entry
            return LpSolution("infeasible", None, None)
        former_drive_out_artificials(tab, basis, set(art_cols))
        allowed[art_cols] = False

    cost2 = np.zeros(total)
    cost2[:n] = lp.objective
    z = former_price_out(tab, basis, cost2)
    status = former_pivot_loop(tab, basis, z, allowed)
    if status == "unbounded":
        return LpSolution("unbounded", None, None)

    if secondary is not None:
        # restrict to the optimal face of the primary objective
        tol = PIVOT_TOL * max(1.0, float(np.max(np.abs(cost2), initial=0.0)))
        face = allowed & (np.abs(z[:-1]) <= tol)
        for b in basis:
            if 0 <= b < total:
                face[b] = allowed[b]
        cost3 = np.zeros(total)
        cost3[:n] = secondary
        z3 = former_price_out(tab, basis, cost3)
        former_pivot_loop(tab, basis, z3, face)  # unbounded face: keep current point

    x = np.zeros(n)
    for i, b in enumerate(basis):
        if 0 <= b < n:
            x[b] = tab[i, -1]
    used = np.flatnonzero(lp.objective)  # summed in index order, as a float
    objective = float(sum(lp.objective[used] * x[used]))
    return LpSolution("optimal", x, objective)


def former_price_out(tab: np.ndarray, basis: List[int], cost: np.ndarray) -> np.ndarray:
    """Objective row [reduced costs | -objective] for the current basis."""
    z = np.zeros(tab.shape[1])
    z[:-1] = cost
    for i, b in enumerate(basis):
        cb = cost[b]
        if cb != 0.0:
            z -= cb * tab[i]
    return z


def former_pivot_loop(tab: np.ndarray, basis: List[int], z: np.ndarray, allowed: np.ndarray) -> str:
    # the scans read Python lists of the rows and columns: one conversion
    # each instead of one numpy scalar per entry, with the same comparisons
    # and the same IEEE divisions
    allowed = allowed.tolist()
    while True:
        enter = -1
        for j, (ok, r) in enumerate(zip(allowed, z[:-1].tolist())):
            if ok and r < -PIVOT_TOL:
                enter = j  # Bland: lowest eligible index
                break
        if enter < 0:
            return "optimal"
        best_ratio = None
        leave = -1
        for i, (a, b) in enumerate(zip(tab[:, enter].tolist(), tab[:, -1].tolist())):
            if a > PIVOT_TOL:
                ratio = b / a
                if (
                    best_ratio is None
                    or ratio < best_ratio - PIVOT_TOL
                    or (abs(ratio - best_ratio) <= PIVOT_TOL and basis[i] < basis[leave])
                ):
                    best_ratio = ratio
                    leave = i
        if leave < 0:
            return "unbounded"
        former_pivot(tab, z, leave, enter)
        basis[leave] = enter


def former_pivot(tab: np.ndarray, z: np.ndarray, row: int, col: int) -> None:
    tab[row] /= tab[row, col]
    piv = tab[row]
    factors = tab[:, col].copy()
    factors[row] = 0.0
    tab -= np.outer(factors, piv)
    if z[col] != 0.0:
        z -= z[col] * piv


def former_drive_out_artificials(tab: np.ndarray, basis: List[int], art: set) -> None:
    m, ncols = tab.shape
    for i in range(m):
        if basis[i] in art:
            pivot_col = -1
            for j, v in enumerate(tab[i, :-1].tolist()):
                if j not in art and abs(v) > PIVOT_TOL:
                    pivot_col = j
                    break
            if pivot_col >= 0:
                dummy = np.zeros(ncols)
                former_pivot(tab, dummy, i, pivot_col)
                basis[i] = pivot_col
            else:
                # redundant row: basic artificial at level ~0, leave in place
                tab[i, :] = 0.0


# ---------------------------------------------------------------------------
# the former constrained LP and instances of a family
#
# Reference for the differential tests of the LP read off the checker's
# arrays: the model is copied with its targets and goals made absorbing
# (``seed_absorb``), then restricted to the enabled choices and flattened
# again for the absorption check.  Kept as it was apart from the names and
# the absorbed model, which the solution no longer carries (the tests that
# induce the LP's chain call ``seed_absorb``).  ``set_prob1_min`` is the
# checker's former ``_prob1_min``, which the former LP called, and
# ``SeedConstrainedSolution`` the former solution class, which could also be
# made from a ``Strategy``.  ``seed_well_defined_instances`` builds every
# well-defined configuration's instance, as the enumeration route did for
# MDP families.


class SeedConstrainedSolution:
    """An optimum of the occupation LP: its expected cost, its probability
    of reaching the targets, and its strategy.

    ``support[s]`` holds the choice indices the strategy takes at state
    ``s``, in choice order; branch-and-bound reads only these.  A solution
    of the LP keeps the LP's flows and builds the exact ``Strategy`` when
    ``strategy`` is first read, so the rational normalisation is paid only
    for a strategy that is reported.  Made from a strategy, as
    ``ConstrainedSolution(strategy, expected_cost, reach_probability)``,
    its support is that strategy's.
    """

    __slots__ = ("expected_cost", "reach_probability", "_strategy", "_support", "_flows")

    def __init__(self, strategy: Strategy, expected_cost: float, reach_probability: float):
        self.expected_cost = expected_cost
        self.reach_probability = reach_probability
        self._strategy = strategy
        self._support = None
        self._flows = None

    @classmethod
    def _of_flows(cls, flows: tuple, expected_cost: float, reach_probability: float):
        """The solution whose strategy is read off ``flows``: the number of
        states, and per LP variable its state, its choice index there and
        its flow, as arrays in variable order."""
        res = cls(None, expected_cost, reach_probability)
        res._flows = flows
        return res

    def _weights(self) -> list:
        """Per state, the (choice index, weight) pairs of its strategy: the
        flows above ``SUPPORT_TOL``, or one each on all of the state's own
        choices where none has such a flow; the first choice at a state
        without variables."""
        n, states, choices, y = self._flows
        own: Dict[int, list] = {}
        for s, ci, w in zip(states.tolist(), choices.tolist(), y.tolist()):
            own.setdefault(s, []).append((ci, w))
        weights = [((0, 1),)] * n
        for s, pairs in own.items():
            weights[s] = [(ci, w) for ci, w in pairs if w > SUPPORT_TOL] or [(ci, 1) for ci, _ in pairs]
        return weights

    @property
    def support(self) -> list:
        if self._support is None:
            if self._strategy is None:
                self._support = [tuple(ci for ci, _ in pairs) for pairs in self._weights()]
            else:
                self._support = [tuple(dist) for dist in self._strategy.choice_probs]
        return self._support

    @property
    def strategy(self) -> Strategy:
        if self._strategy is None:
            self._strategy = Strategy([
                {ci: Fraction(w) for ci, w in pairs} for pairs in self._weights()
            ])
            self._flows = None
        return self._strategy


def seed_absorb(model: ExplicitModel, closed: set) -> ExplicitModel:
    rows = []
    for s, row in enumerate(model.choices):
        if s in closed:
            rows.append([Choice(None, ((Fraction(1), s),))])
        else:
            rows.append(list(row))
    return ExplicitModel.from_rows(
        kind=model.kind,
        var_names=model.var_names,
        states=list(model.states),
        initial=model.initial,
        choices=rows,
        costs=list(model.costs),
        labels=dict(model.labels),
        parameters={},
        deadlocks=model.deadlocks,
    )


def _seed_self_loop_only(model: ExplicitModel, s: int) -> bool:
    row = model.choices[s]
    return all(
        len(ch.branches) == 1 and ch.branches[0][1] == s for ch in row
    )


def seed_constrained_mdp_lp(
    model: ExplicitModel,
    targets,
    bound,
    goals,
    *,
    disabled_actions: FrozenSet[str] = frozenset(),
) -> SeedConstrainedSolution:
    """Minimize expected cost subject to Pr(reach targets) <= bound.

    Occupation-measure formulation: variables y[s,a] >= 0 for transient
    states, flow conservation with a unit source at the initial state, the
    bound as one row over the flow into the target set, and the cost-
    weighted flow as objective.  The recovered strategy is y-proportional
    (uniform where no mass flows).  Targets and goals are made absorbing
    first; absorption must be almost-sure under every remaining strategy.

    Dead ends (deadlock-marked states and states whose every choice is
    disabled) stay *transient*: their conservation rows have no outflow
    variables, which forces their inflow to zero — strategies must avoid
    them entirely rather than park probability mass there.
    """
    if model.kind == "mimdp":
        raise ModelError("instantiate or transform the model before the LP")
    lam = float(bound)
    tset = set(model.label_states(targets)) if isinstance(targets, str) else set(targets)
    gset = set(model.label_states(goals)) if isinstance(goals, str) else set(goals)

    absorbed = seed_absorb(model, tset | gset)
    dead = set(model.deadlocks)
    for s in range(absorbed.num_states):
        if s in tset or s in gset or s in dead:
            continue
        enabled = [
            ch for ch in absorbed.choices[s] if ch.action not in disabled_actions
        ]
        if not enabled:
            dead.add(s)

    sinks = {
        s
        for s in range(absorbed.num_states)
        if _seed_self_loop_only(absorbed, s) and s not in dead
    }
    closed = tset | gset | sinks  # mass may rest here
    terminal = closed | dead

    # qualitative absorption check on the restricted model
    restricted_rows = []
    for s, row in enumerate(absorbed.choices):
        if s in dead:
            restricted_rows.append([Choice(None, ((Fraction(1), s),))])
            continue
        enabled = [ch for ch in row if ch.action not in disabled_actions or s in closed]
        restricted_rows.append(enabled if enabled else [Choice(None, ((Fraction(1), s),))])
    restricted = ExplicitModel.from_rows(
        kind="mdp",
        var_names=absorbed.var_names,
        states=list(absorbed.states),
        initial=absorbed.initial,
        choices=restricted_rows,
        costs=list(absorbed.costs),
        labels={},
        parameters={},
    )
    arr = PredecessorArrays(restricted)
    sure = set_prob1_min(arr, terminal)
    if len(sure) != restricted.num_states:
        missing = sorted(set(range(restricted.num_states)) - sure)[0]
        raise ImproperModelError(
            "absorption is not almost-sure under every strategy "
            f"(state {model.state_text(missing)})"
        )

    init = absorbed.initial
    if init in closed:
        pr = 1.0 if init in tset else 0.0
        if pr > lam + FEASIBILITY_TOL:
            raise InfeasibleError("initial state lies in the target set")
        picks = [0] * absorbed.num_states
        return SeedConstrainedSolution(
            Strategy.deterministic(picks), 0.0, pr
        )

    transient = [s for s in range(absorbed.num_states) if s not in closed]
    tr_index = {s: i for i, s in enumerate(transient)}

    variables = []  # (state, choice index)
    var_index: Dict[Tuple[int, int], int] = {}
    for s in transient:
        if s in dead:
            continue
        for ci, ch in enumerate(absorbed.choices[s]):
            if ch.action in disabled_actions:
                continue
            var_index[(s, ci)] = len(variables)
            variables.append((s, ci))

    lp = SeedLinearProgram(num_vars=len(variables))
    for j, (s, ci) in enumerate(variables):
        c = float(absorbed.costs[s])
        if c != 0.0:
            lp.objective[j] = lp.objective.get(j, 0.0) + c

    rows: List[Dict[int, float]] = [dict() for _ in transient]
    for j, (s, ci) in enumerate(variables):
        r = rows[tr_index[s]]
        r[j] = r.get(j, 0.0) + 1.0
        for p, t in absorbed.choices[s][ci].branches:
            if t in tr_index:
                rr = rows[tr_index[t]]
                rr[j] = rr.get(j, 0.0) - float(p)
    for i, s in enumerate(transient):
        lp.add(rows[i], "=", 1.0 if s == init else 0.0)

    bound_row: Dict[int, float] = {}
    for j, (s, ci) in enumerate(variables):
        into_t = sum(float(p) for p, t in absorbed.choices[s][ci].branches if t in tset)
        if into_t:
            bound_row[j] = bound_row.get(j, 0.0) + into_t
    lp.add(bound_row, "<=", lam)

    # among cost-minimal strategies, canonicalize to the one with the
    # smallest target probability (the cost optimum alone can be a flat face
    # on which the probability varies, and both synthesis routes must agree)
    sol = seed_solve_lp(lp, secondary=bound_row or None)
    if sol.status == "infeasible":
        raise InfeasibleError(f"no strategy meets the bound {lam}")
    if sol.status != "optimal":
        raise SynthesisError(f"unexpected LP status {sol.status}")

    y = sol.x
    choice_probs = []
    for s in range(absorbed.num_states):
        row = absorbed.choices[s]
        if s in closed or s in dead:
            choice_probs.append({0: Fraction(1)})
            continue
        mass = {}
        total = 0.0
        for ci in range(len(row)):
            j = var_index.get((s, ci))
            if j is not None and y[j] > SUPPORT_TOL:
                mass[ci] = Fraction(y[j])
                total += y[j]
        if not mass:
            enabled = [
                ci for ci in range(len(row)) if row[ci].action not in disabled_actions
            ]
            mass = {ci: Fraction(1) for ci in (enabled or [0])}
        choice_probs.append(mass)

    pr = float(sum(v * y[j] for j, v in bound_row.items()))
    ec = float(sol.objective)
    return SeedConstrainedSolution(Strategy(choice_probs), ec, pr)


def masked_actions(model: ExplicitModel, enabled: np.ndarray) -> frozenset:
    """The actions of the choices a mask over ``model``'s choices switches
    off.  Such a mask is a set of disabled actions only if it switches off
    every choice of those actions, which is asserted."""
    actions = [ch.action for row in model.choices for ch in row]
    disabled = frozenset(a for a, on in zip(actions, enabled.tolist()) if not on)
    assert all(a not in disabled for a, on in zip(actions, enabled.tolist()) if on)
    return disabled


def seed_occupation_lp(model: ExplicitModel, arr, costs, target: np.ndarray,
                       goal: np.ndarray, lam: float, enabled: np.ndarray):
    """``synthesis._occupation_lp`` as branch-and-bound calls it, answered
    by the former LP: the mask becomes the disabled actions and the masks
    of states become sets; the arrays and costs are read off the model."""
    return seed_constrained_mdp_lp(
        model, set(np.flatnonzero(target).tolist()), lam, set(np.flatnonzero(goal).tolist()),
        disabled_actions=masked_actions(model, enabled),
    )


def seed_well_defined_instances(model: ExplicitModel) -> Iterator[Tuple[Valuation, ExplicitModel]]:
    """Every well-defined valuation with its instance, in ``all_valuations``
    order.  A parameter-free model yields itself under the empty valuation."""
    if model.kind != "mimdp":
        yield {}, model
        return
    for u, probs, costs in fraction_entries(model):
        yield u, _instance(model, probs, costs)


# ---------------------------------------------------------------------------
# the former enumeration route
#
# Reference for the differential tests of the batched check of chain
# families: every configuration is instantiated and checked on its own,
# chains with ``reach_prob`` and ``expected_cost``.  Kept as it was apart
# from the names (``seed_evaluate_valuation``, ``seed_synthesize_enumerate``).


def seed_evaluate_valuation(inst: ExplicitModel, u: dict, tset, gset, lam: float):
    if inst.kind == "mc":
        vec, strat = reach_prob(inst, tset, "max")
        pr = vec.at_initial(inst)
        try:
            cvec, _ = expected_cost(inst, gset, "min")
            ec = cvec.at_initial(inst)
        except ExpectedCostUndefined:
            ec = math.inf
        feasible = pr <= lam + FEASIBILITY_TOL and math.isfinite(ec)
        return TableEntry(u, ec, pr, feasible), (strat if feasible else None)
    try:
        res = seed_constrained_mdp_lp(inst, tset, lam, gset)
    except InfeasibleError:
        vec, _ = reach_prob(inst, tset, "min")
        return TableEntry(u, math.inf, vec.at_initial(inst), False), None
    return (
        TableEntry(u, res.expected_cost, res.reach_probability, True),
        res.strategy,
    )


def seed_synthesize_enumerate(program: Program, query: SynthesisQuery) -> SynthesisResult:
    """The oracle route: instantiate every well-defined valuation, evaluate,
    and return the feasible valuation of minimal expected cost
    (lexicographically smallest on ties)."""
    model = build_model(program)
    tset = model.label_states(query.target)
    gset = model.label_states(query.goal)
    lam = float(query.bound)

    outcomes = [
        seed_evaluate_valuation(inst, u, tset, gset, lam)
        for u, inst in seed_well_defined_instances(model)
    ]
    if not outcomes:
        raise SynthesisError("no well-defined valuation exists")

    table = [entry for entry, _ in outcomes]
    best = None
    best_strategy = None
    for entry, strat in outcomes:
        if not entry.feasible:
            continue
        if best is None or entry.expected_cost < best.expected_cost - TIE_TOL:
            best = entry
            best_strategy = strat
    if best is None:
        return SynthesisResult(
            "enumerate", False, None, None, math.inf, None, table
        )
    return SynthesisResult(
        "enumerate",
        True,
        best.valuation,
        best_strategy,
        best.expected_cost,
        best.reach_probability,
        table,
    )


# ---------------------------------------------------------------------------
# the former row expansion of parametric probabilities
#
# Reference for the differential test of the memoised row evaluation: every
# branch probability is evaluated with plain ``eval_expr`` in every row.
# Kept as it was apart from the name (``seed_transform_probabilities``).


def seed_transform_probabilities(program: Program) -> Tuple[Program, TransformReport]:
    """Expand each command with parametric branch probabilities into one
    concrete command per joint parameter row, under fresh action labels.

    Rows whose probabilities leave [0,1] or do not sum to one are dropped
    (the local well-definedness filter); a command losing all rows is an
    error, since no instantiation of the program would be well-defined.
    """
    program = compose(program)
    module = program.single_module()
    params = program.parameters
    consts = program.constants
    taken_actions = set(module.actions)

    report = TransformReport()
    commands: List[CommandDecl] = []
    for ci, cmd in enumerate(module.commands):
        occurring = [
            p for p in params
            if any(p in names_in(prob) for prob, _ in cmd.branches)
        ]
        if not occurring:
            report.command_mapping[ci] = (len(commands),)
            commands.append(cmd)
            continue
        produced = []
        for i, row in enumerate(joint_valuations(occurring, params), start=1):
            env = dict(consts)
            env.update(row)
            probs = [eval_expr(prob, env) for prob, _ in cmd.branches]
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
# the former memoised evaluator, entries pass and reward selection
#
# References for the differential tests of the compiled, hash-consed
# entries (``expressions.CompiledExprs``): the evaluator keyed its tables on
# each subexpression's structure and on the tuple of its parameters'
# values, ``transform_rewards`` evaluated each reward row with plain
# ``eval_expr``, and ``fold`` and ``substitute`` rebuilt every node.  Kept
# as they were apart from the names (``SeedMemoEvaluator``,
# ``seed_memo_entries``, ``seed_memo_well_defined_entries``,
# ``seed_transform_rewards``, ``seed_fold``, ``seed_substitute``) and one
# change: the memo is passed in instead of being kept on the model, so the
# references never share the tables under test.


class SeedMemoEvaluator:
    """Evaluate expressions repeatedly over a product of parameter values.

    Every subexpression is memoized on the values of the parameters it
    actually mentions, so shared factors (a polynomial in two of four
    parameters, say) are computed once per relevant combination rather than
    once per full valuation.  Tables are keyed on the subexpression's
    structure, so equal subtrees anywhere in the evaluated expressions share
    one table.  Equal expressions evaluate alike (source positions are not
    part of equality), and an error is never stored: it is raised, each
    time, by the node being evaluated.
    """

    def __init__(self, param_order: Sequence[str]):
        self._rank = {p: i for i, p in enumerate(param_order)}
        self._tables: dict = {}  # subexpression -> (names, value table)
        # id(node) -> (names, value table, node): skips hashing a tree on
        # every visit; the node reference pins its id
        self._by_id: dict = {}

    def _entry(self, e: Expr):
        entry = self._by_id.get(id(e))
        if entry is None:
            shared = self._tables.get(e)
            if shared is None:
                names = sorted(names_in(e) & self._rank.keys(), key=self._rank.__getitem__)
                shared = self._tables[e] = (tuple(names), {})
            entry = self._by_id[id(e)] = (*shared, e)
        return entry

    def eval(self, e: Expr, u: Mapping[str, Fraction]) -> Value:
        if isinstance(e, (Num, BoolLit)):
            return e.value
        if isinstance(e, Name):
            return _lookup(e, u)
        names, table, _ = self._entry(e)
        key = tuple(u[p] for p in names)
        v = table.get(key)
        if v is None:
            v = self._apply(e, u)
            table[key] = v
        return v

    def _apply(self, e: Expr, u) -> Value:
        if isinstance(e, Unary):
            return _unary(e, self.eval(e.operand, u))
        if isinstance(e, Binary):
            op = e.op
            if op == "&":
                return _as_bool(self.eval(e.left, u), e) and _as_bool(self.eval(e.right, u), e)
            if op == "|":
                return _as_bool(self.eval(e.left, u), e) or _as_bool(self.eval(e.right, u), e)
            return _binary(e, self.eval(e.left, u), self.eval(e.right, u))
        if isinstance(e, Extremum):
            return _extremum(e, (self.eval(a, u) for a in e.args))
        raise TypeError(f"not an expression: {e!r}")


def seed_memo_entries(
    model: ExplicitModel, valuation: Mapping[str, Fraction], memo: SeedMemoEvaluator
) -> Tuple[list, list]:
    """The exact branch probabilities of every choice, flat in model order,
    and the state costs of ``model`` under ``valuation``, read off the
    model's memo.  Raises what ``instantiate`` raises, in the same order."""
    env = {p: Fraction(valuation[p]) for p in model.parameters}

    def concrete(p: Prob) -> Fraction:
        if isinstance(p, Fraction):
            return p
        v = memo.eval(p, env)
        if isinstance(v, bool):
            raise ModelError(f"boolean where a number was expected: {to_text(p)}")
        return v

    probs: list = []
    for si, row in enumerate(model.choices):
        for ch in row:
            values = [concrete(p) for p, _ in ch.branches]
            fault = distribution_fault(values)
            if fault is not None:
                raise WellDefinednessError(
                    f"well-definedness violation at state {model.state_text(si)}, "
                    f"action {ch.action or 'tau'}: {fault}",
                    state=si,
                    action=ch.action,
                )
            probs.extend(values)
    costs = []
    for si, c in enumerate(model.costs):
        v = concrete(c)
        if v < 0:
            raise WellDefinednessError(
                f"negative cost {format_fraction(v)} at state {model.state_text(si)}",
                state=si,
            )
        costs.append(v)
    return probs, costs


def seed_memo_well_defined_entries(model: ExplicitModel) -> Iterator[Tuple[Valuation, list, list]]:
    """Every well-defined valuation in ``all_valuations`` order, with the
    exact entries of its instance: the branch probabilities of every choice,
    flat in model order (the shared structure of the family), and the state
    costs.  No instance is built.  A parameter-free model yields its own
    entries under the empty valuation (the empty product)."""
    if model.kind != "mimdp":
        probs = [p for row in model.choices for ch in row for p, _ in ch.branches]
        yield {}, probs, list(model.costs)
        return
    memo = SeedMemoEvaluator(list(model.parameters))
    for u in all_valuations(model):
        try:
            probs, costs = seed_memo_entries(model, u, memo)
        except WellDefinednessError:
            continue
        yield u, probs, costs


def seed_transform_rewards(program: Program) -> Tuple[Program, TransformReport]:
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
    known: dict = {}  # the guards' analysis, kept for this rewrite
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
    for k, (ri, decl) in enumerate(parametric):
        occurring = [p for p in params if p in names_in(decl.cost)]
        rows = list(joint_valuations(occurring, params))
        values = []
        for row in rows:
            env = dict(program.constants)
            env.update(row)
            v = eval_expr(decl.cost, env)
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
    new_program = Program(
        constants=dict(program.constants),
        parameters=dict(program.parameters),
        modules=(new_module,),
        rewards=tuple(rewards),
        labels=dict(program.labels),
    )
    return _prune_parameters(new_program), report


def seed_fold(expr: Expr) -> Expr:
    """Fold literal-only subtrees into literals (bottom-up, exact).

    The parser folds on construction, so programmatically built expressions
    should be folded too when textual round-tripping matters.
    """
    if isinstance(expr, (Num, BoolLit, Name)):
        return expr
    if isinstance(expr, Unary):
        inner = seed_fold(expr.operand)
        if expr.op == "-" and isinstance(inner, Num):
            return Num(-inner.value)
        if expr.op == "!" and isinstance(inner, BoolLit):
            return BoolLit(not inner.value)
        return Unary(expr.op, inner)
    if isinstance(expr, Binary):
        left, right = seed_fold(expr.left), seed_fold(expr.right)
        folded = Binary(expr.op, left, right)
        if isinstance(left, (Num, BoolLit)) and isinstance(right, (Num, BoolLit)):
            v = eval_expr(folded, {})
            return Num(v) if isinstance(v, Fraction) else BoolLit(v)
        return folded
    if isinstance(expr, Extremum):
        args = tuple(seed_fold(a) for a in expr.args)
        if all(isinstance(a, Num) for a in args):
            vals = [a.value for a in args]
            return Num(min(vals) if expr.op == "min" else max(vals))
        return Extremum(expr.op, args)
    raise TypeError(f"not an expression: {expr!r}")


def seed_substitute(expr: Expr, env: Mapping[str, Union[Fraction, int, bool]]) -> Expr:
    """Replace bound names by literals and fold; unbound names stay symbolic."""
    if isinstance(expr, (Num, BoolLit)):
        return expr
    if isinstance(expr, Name):
        if expr.ident in env:
            v = env[expr.ident]
            if isinstance(v, bool):
                return BoolLit(v)
            return Num(v if isinstance(v, Fraction) else Fraction(v))
        return expr
    if isinstance(expr, Unary):
        return seed_fold(Unary(expr.op, seed_substitute(expr.operand, env)))
    if isinstance(expr, Binary):
        return seed_fold(Binary(expr.op, seed_substitute(expr.left, env), seed_substitute(expr.right, env)))
    if isinstance(expr, Extremum):
        return seed_fold(Extremum(expr.op, tuple(seed_substitute(a, env) for a in expr.args)))
    raise TypeError(f"not an expression: {expr!r}")


# ---------------------------------------------------------------------------
# the former expression parser, which folded each new node with ``fold`` and
# so walked its already-folded operands again; kept verbatim


class SeedParser(_Parser):
    def _or(self) -> Expr:
        e = self._and()
        while self.at("|"):
            self.advance()
            e = fold(Binary("|", e, self._and()))
        return e

    def _and(self) -> Expr:
        e = self._not()
        while self.at("&"):
            self.advance()
            e = fold(Binary("&", e, self._not()))
        return e

    def _not(self) -> Expr:
        if self.at("!"):
            self.advance()
            return fold(Unary("!", self._not()))
        return self._comparison()

    def _comparison(self) -> Expr:
        e = self._additive()
        if self.at("=", "!=", "<", "<=", ">", ">="):
            op = self.advance().kind
            e = fold(Binary(op, e, self._additive()))
        return e

    def _additive(self) -> Expr:
        e = self._multiplicative()
        while self.at("+", "-"):
            op = self.advance().kind
            e = fold(Binary(op, e, self._multiplicative()))
        return e

    def _multiplicative(self) -> Expr:
        e = self._unary()
        while self.at("*", "/"):
            op = self.advance().kind
            e = fold(Binary(op, e, self._unary()))
        return e

    def _unary(self) -> Expr:
        if self.at("-"):
            self.advance()
            return fold(Unary("-", self._unary()))
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
            return fold(Extremum(tok.kind, tuple(args)))
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


def seed_parse_program(text: str) -> Program:
    """The former parse, without the semantic checks (which are unchanged)."""
    return SeedParser(tokenize(text)).parse_program()


# ---------------------------------------------------------------------------
# the former compiled expressions, on Fraction values
#
# Reference for the differential tests of the integer-pair kernel of
# ``expressions.CompiledExprs``: the compiled DAG held every node value as a
# ``Fraction`` (or bool) and computed it with ``_binary``/``_unary``/
# ``_extremum``, one new ``Fraction`` per operation.  Kept as it was apart
# from the names (``SeedCompiledExprs``, ``SeedPoint``), and the former
# ``distribution_fault`` as ``seed_distribution_fault``.  The wrapper that
# replaced it, ``distribution_fault`` (``pair_distribution_fault`` on the
# pairs of ``Fraction``s), is kept as it was, and ``fraction_entries`` gives
# the entries of ``well_defined_entries`` as the ``Fraction``s that the
# former routes read.


_LIT, _PARAM, _UNBOUND, _UNARY, _BINARY, _AND, _OR, _EXTREMUM = range(8)
_KIND = {"&": _AND, "|": _OR}


class SeedCompiledExprs:
    """Expressions over a finite product of parameter values, compiled once
    into a hash-consed DAG and evaluated lazily at points of the product.

    ``add`` enters an expression bottom-up.  Each distinct subexpression is
    one node, keyed on its kind, its operator or literal and the ids of its
    children, which are canonical already, so no tree is hashed; equal
    subtrees anywhere share one node, and an expression object seen before
    is found by its ``id``.  A compound node keeps the parameters below it
    and their mixed-radix strides.  At a point, given as one value index
    per parameter, its value is stored under the int
    ``sum(index[p] * stride[p])``, so it is computed once per combination
    of the parameters it mentions, and only the values computed are held.

    Evaluation is exact and lazy: ``&`` and ``|`` short-circuit and
    ``min``/``max`` stop at a sort error, as in ``eval_expr``.  An error is
    never stored: it is raised, each time, by the node being evaluated
    (equal expressions render alike, so its message is the one
    ``eval_expr`` gives).  Names bound in ``constants`` are literals; a
    name that is neither raises ``UnboundName`` when it is reached.  An
    evaluator (``points``, ``at``) evaluates the nodes added before it.
    """

    def __init__(
        self,
        domains: Mapping[str, Sequence[Value]],
        constants: Optional[Mapping[str, Union[Fraction, int, bool]]] = None,
    ):
        self._names = list(domains)
        self._domains = [list(domains[p]) for p in self._names]
        self._position = {p: i for i, p in enumerate(self._names)}
        self._constants = constants or {}
        self._canon: dict = {}  # (kind, op or literal, child ids) -> node
        self._by_id: dict = {}  # id(expr) -> (node, expr); the expr pins its id
        # per node: kind, representative expression, children, literal value
        # or parameter position or name, parameter group, value table
        self._kind: list = []
        self._expr: list = []
        self._args: list = []
        self._datum: list = []
        self._group: list = []
        self._tables: list = []
        self._groups: dict = {}  # parameter positions -> group
        self._positions: list = []  # per group: its parameter positions
        self._strides: list = []  # per group: the stride of each position

    def add(self, e: Expr) -> int:
        """The node of ``e``, compiling what is new below it."""
        hit = self._by_id.get(id(e))
        if hit is not None:
            return hit[0]
        if isinstance(e, Num):
            key = (_LIT, "num", e.value)
        elif isinstance(e, BoolLit):
            key = (_LIT, "bool", e.value)
        elif isinstance(e, Name):
            key = (_PARAM, e.ident)
        elif isinstance(e, Unary):
            key = (_UNARY, e.op, self.add(e.operand))
        elif isinstance(e, Binary):
            key = (_KIND.get(e.op, _BINARY), e.op, self.add(e.left), self.add(e.right))
        elif isinstance(e, Extremum):
            key = (_EXTREMUM, e.op, tuple(self.add(a) for a in e.args))
        else:
            raise TypeError(f"not an expression: {e!r}")
        node = self._canon.get(key)
        if node is None:
            node = self._canon[key] = self._new(e, key)
        self._by_id[id(e)] = (node, e)
        return node

    def _new(self, e: Expr, key: tuple) -> int:
        kind, group, table = key[0], -1, None
        if kind == _LIT:
            args, datum = (), e.value
        elif kind == _PARAM:
            args = ()
            if e.ident in self._position:
                datum = self._position[e.ident]
            elif e.ident in self._constants:
                kind, datum = _LIT, _lookup(e, self._constants)
            else:
                kind, datum = _UNBOUND, e.ident
        else:
            args = key[2] if kind == _EXTREMUM else key[2:]
            datum, table, group = None, {}, self._group_of(args)
        self._kind.append(kind)
        self._expr.append(e)
        self._args.append(args)
        self._datum.append(datum)
        self._group.append(group)
        self._tables.append(table)
        return len(self._kind) - 1

    def _group_of(self, args: tuple) -> int:
        """The group of the parameters below the children ``args``."""
        below = set()
        for a in args:
            if self._kind[a] == _PARAM:
                below.add(self._datum[a])
            elif self._group[a] >= 0:
                below.update(self._positions[self._group[a]])
        positions = tuple(sorted(below))
        group = self._groups.get(positions)
        if group is None:
            group = self._groups[positions] = len(self._positions)
            strides, stride = [], 1
            for p in positions:
                strides.append(stride)
                stride *= len(self._domains[p])
            self._positions.append(positions)
            self._strides.append(tuple(strides))
        return group

    def tables(self) -> list:
        """The value table of every compound node, keyed by the mixed-radix
        index of its parameters' values."""
        return [t for t in self._tables if t is not None]

    def expr(self, node: int) -> Expr:
        """The first expression entered as ``node``."""
        return self._expr[node]

    def points(self, names: Sequence[str]) -> Iterator[Tuple[dict, Callable[[int], Value]]]:
        """Every joint valuation of the parameters ``names``, in
        ``joint_valuations`` order, with the evaluator of nodes there.  A
        parameter outside ``names`` is unbound."""
        positions = [self._position[p] for p in names]
        domains = [self._domains[p] for p in positions]
        index = [0] * len(self._names)
        for combo in itertools.product(*(range(len(d)) for d in domains)):
            values: list = [None] * len(self._names)
            row = {}
            for name, p, domain, i in zip(names, positions, domains, combo):
                index[p] = i
                values[p] = row[name] = domain[i]
            yield row, self._evaluator(tuple(index), values, self._tables)

    def at(self, valuation: Mapping[str, Value]) -> Callable[[int], Value]:
        """The evaluator of nodes under ``valuation``, which binds every
        parameter.  A value outside its parameter's domain has no index:
        then nothing is stored, and values are kept for this call only."""
        values = [valuation[name] for name in self._names]
        if all(v in domain for v, domain in zip(values, self._domains)):
            index = tuple(domain.index(v) for v, domain in zip(values, self._domains))
            return self._evaluator(index, values, self._tables)
        scratch = [None if t is None else {} for t in self._tables]
        return self._evaluator((0,) * len(values), values, scratch)

    def _evaluator(self, index: tuple, values: list, tables: list) -> Callable[[int], Value]:
        return SeedPoint(self, index, values, tables).value


class SeedPoint:
    """The nodes of a ``CompiledExprs`` at one point of the product.  A
    method rather than a closure: a recursive closure is a reference cycle,
    which would hold every table until the garbage collector ran."""

    __slots__ = ("kinds", "exprs", "args", "data", "groups", "positions", "strides",
                 "names", "index", "values", "tables", "keys")

    def __init__(self, dag: SeedCompiledExprs, index: tuple, values: list, tables: list):
        self.kinds, self.exprs, self.args = dag._kind, dag._expr, dag._args
        self.data, self.groups = dag._datum, dag._group
        self.positions, self.strides = dag._positions, dag._strides
        self.names = dag._names
        self.index, self.values, self.tables = index, values, tables
        self.keys: list = [None] * len(dag._strides)  # per group, on first use

    def value(self, n: int) -> Value:
        kind = self.kinds[n]
        if kind == _LIT:
            return self.data[n]
        if kind == _PARAM:
            v = self.values[self.data[n]]
            if v is None:
                raise UnboundName(self.names[self.data[n]])
            return v
        if kind == _UNBOUND:
            raise UnboundName(self.data[n])
        g = self.groups[n]
        key = self.keys[g]
        if key is None:
            indices = map(self.index.__getitem__, self.positions[g])
            key = self.keys[g] = sum(map(operator.mul, indices, self.strides[g]))
        table = self.tables[n]
        v = table.get(key)
        if v is None:
            e, a = self.exprs[n], self.args[n]
            if kind == _BINARY:
                v = _binary(e, self.value(a[0]), self.value(a[1]))
            elif kind == _UNARY:
                v = _unary(e, self.value(a[0]))
            elif kind == _AND:
                v = _as_bool(self.value(a[0]), e) and _as_bool(self.value(a[1]), e)
            elif kind == _OR:
                v = _as_bool(self.value(a[0]), e) or _as_bool(self.value(a[1]), e)
            else:
                v = _extremum(e, map(self.value, a))
            table[key] = v
        return v


def distribution_fault(probs: Sequence[Fraction]) -> Optional[str]:
    """Why the exact values ``probs`` are not a probability distribution, or
    None when every entry lies in [0,1] and they sum to exactly one."""
    return pair_distribution_fault([(p.numerator, p.denominator) for p in probs])


def fraction_entries(model: ExplicitModel) -> Iterator[Tuple[Valuation, list, list]]:
    """``models.well_defined_entries`` with its ``(numerator, denominator)``
    pairs made ``Fraction``s, the entries the former routes read."""
    for u, probs, costs in well_defined_entries(model):
        yield u, [Fraction(*p) for p in probs], [Fraction(*c) for c in costs]


def seed_distribution_fault(probs: Sequence[Fraction]) -> Optional[str]:
    """The former ``models.distribution_fault``, on ``Fraction`` sums."""
    for p in probs:
        if not (0 <= p <= 1):
            return f"probability {format_fraction(p)}"
    total = sum(probs, Fraction(0))
    if total != 1:
        return f"probabilities sum to {format_fraction(total)}"
    return None


# ---------------------------------------------------------------------------
# the former lazy sequences: the picks of ``Strategy.deterministic`` and the
# states and rows of the budget product of ``cost_bounded_reach``

class _Picks(abc.Sequence):
    """The ``choice_probs`` of ``Strategy.deterministic``: per state, the
    weight ``{pick: Fraction(1)}``, built when it is read."""

    _ONE = Fraction(1)

    def __init__(self, picks: Sequence[int]):
        self._picks = list(picks)

    def __len__(self) -> int:
        return len(self._picks)

    def __getitem__(self, state: int) -> dict:
        return {int(self._picks[state]): self._ONE}

    def __eq__(self, other) -> bool:
        if isinstance(other, (list, _Picks)):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return repr(list(self))


class _ProductStates(abc.Sequence):
    """The states of the budget product of ``cost_bounded_reach``: state
    ``s * width + b`` is the base state ``s`` extended by the budget ``b``,
    built when it is read."""

    def __init__(self, states: Sequence[tuple], width: int):
        self._states, self._width = states, width

    def __len__(self) -> int:
        return len(self._states) * self._width

    def __getitem__(self, i: int) -> tuple:
        s, b = divmod(range(len(self))[i], self._width)
        return self._states[s] + (b,)


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


# ---------------------------------------------------------------------------
# the former equality conjuncts, which sort-checked every conjunct

def seed_equality_conjuncts(
    guard: Expr, variables: Iterable[str], constants: Iterable[str]
) -> Optional[dict]:
    """The state variables ``guard`` fixes to literals, as ``{v: c}`` for
    every ``v = c`` or ``c = v`` conjunct of its top-level ``&`` chain, or
    None when two conjuncts fix one variable to different values.

    Only the prefix of the chain that cannot raise is read: conjuncts free
    of division that sort-check as booleans over ``variables`` and
    ``constants`` (all numeric).  So wherever some ``v`` differs from its
    ``c``, the guard evaluates to False without raising, and a caller may
    skip it there; under None it is False everywhere.
    """
    variables = set(variables)
    sorts = {n: SORT_NUM for n in itertools.chain(variables, constants)}
    fixed: dict = {}
    for c in _conjuncts(guard):
        if any(isinstance(e, Binary) and e.op == "/" for e in _nodes(c)):
            break
        try:
            if infer_sort(c, sorts) != SORT_BOOL:
                break
        except ExprError:
            break
        if not (isinstance(c, Binary) and c.op == "="):
            continue
        if isinstance(c.right, Name) and isinstance(c.left, Num):
            var, value = c.right.ident, c.left.value
        elif isinstance(c.left, Name) and isinstance(c.right, Num):
            var, value = c.left.ident, c.right.value
        else:
            continue
        if var not in variables:
            continue
        if fixed.setdefault(var, value) != value:
            return None
    return fixed


# ---------------------------------------------------------------------------
# the former per-call cost checks
#
# ``expected_cost`` and ``cost_bounded_reach`` checked and converted the
# model's state costs one value at a time on every call; the checker now
# does it once per model (``checking._Costs``).  The two loops, verbatim
# apart from being functions of their own that return what the caller
# went on with: the float costs, and the integer costs with the int64
# vector clamped to the product's width.

def former_real_costs(model: ExplicitModel) -> np.ndarray:
    for s, c in enumerate(model.costs):
        if isinstance(c, Expr):
            raise ModelError("expected cost needs concrete state costs")
        if c < 0:
            raise ModelError(f"negative cost at state {s}")
    cost = np.array([[float(c) for c in model.costs]])
    return cost


def former_integral_costs(model: ExplicitModel, width: int) -> Tuple[list, np.ndarray]:
    costs = []
    for s, c in enumerate(model.costs):
        if isinstance(c, Expr):
            raise ModelError("cost-bounded reachability needs concrete costs")
        if c.denominator != 1:
            raise ModelError(f"non-integer cost {c} at state {s}")
        if c < 0:
            raise ModelError(f"negative cost at state {s}")
        costs.append(int(c))
    # clamped to fit int64: any cost of at least the width drains every
    # budget
    cost = np.array([min(c, width) for c in costs], dtype=np.int64)
    return costs, cost


# ``synthesis.synthesize_transformed`` asked whether a partial fixing
# extends to a well-defined valuation by scanning all of them, on every
# node; the kept problem now compares the fixing with an index matrix of
# them.  The two closures over ``admissible``, verbatim, with
# ``admissible`` passed in.

def matches(u: dict, fixed: dict) -> bool:
    return all(u.get(p) == v for p, v in fixed.items())


def extendable(admissible: list, fixed: dict) -> bool:
    return any(matches(u, fixed) for u in admissible)


# ``synthesis.synthesize_transformed`` built each branch-and-bound node's
# disabled set by scanning every fresh action; each node's choice mask is
# now read off the kept problem's commitment table.  The scan, verbatim,
# with the fresh actions passed in.

def disabled_actions(fresh_actions: dict, fixed: dict) -> frozenset:
    return frozenset(
        a
        for a, commits in fresh_actions.items()
        if any(fixed.get(p, v) != v for p, v in commits)
    )


# ``synthesis._support_commitments`` walked the ``Choice`` objects of the
# support and followed every branch, zero-probability ones included; it
# now reads the commitment table along the arrays' positive branches.  The
# former walk, verbatim apart from its name.

def former_support_commitments(
    model: ExplicitModel, report: TransformReport, support
) -> Dict[str, set]:
    """Parameter commitments along the reachable support of a strategy:
    ``support[s]`` iterates over the choice indices the strategy takes at
    state ``s`` with positive weight (as ``ConstrainedSolution.support``
    and a normalized ``Strategy.choice_probs`` entry do)."""
    commits: Dict[str, set] = {}
    seen = {model.initial}
    stack = [model.initial]
    while stack:
        s = stack.pop()
        for ci in support[s]:
            ch = model.choices[s][ci]
            if ch.action in report.fresh_actions:
                for p, v in report.fresh_actions[ch.action]:
                    commits.setdefault(p, set()).add(v)
            for _, t in ch.branches:
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
    return commits


# ---------------------------------------------------------------------------
# enumeration that read the family on every call
#
# ``synthesis.synthesize_enumerate`` read and checked every configuration's
# entries on each call and grouped them by support anew
# (``checking.chain_family``, ``synthesis._evaluate_chains`` and
# ``_evaluate_mdp``); it now keeps the stacks on the model.  Kept verbatim
# apart from the names (the prefix ``percall_``) and the module prefixes of
# the checker's helpers.

_PERCALL_FAMILY_BLOCK = 1 << 20


def percall_chain_family(
    model: ExplicitModel,
    entries: Sequence[Tuple[Sequence[Tuple[int, int]], Sequence[Tuple[int, int]]]],
    targets,
    goals,
) -> Tuple[np.ndarray, np.ndarray]:
    target = checking._target_set(model, targets)
    goal = checking._target_set(model, goals)
    groups: dict = {}  # support -> configurations
    for i, (probs, _) in enumerate(entries):
        groups.setdefault(tuple(p != 0 for p, _ in probs), []).append(i)
    pr = np.empty(len(entries))
    ec = np.empty(len(entries))
    for support, members in groups.items():
        probs = [
            [p / q for (p, q), edge in zip(entries[i][0], support) if edge]
            for i in members
        ]
        arr = checking._Arrays(model, support, probs)
        x = checking._reach(arr, target, "max", True, len(members), DEFAULT_TOL)[0]
        pr[members] = x[:, model.initial]
        cost = np.array([[p / q for p, q in entries[i][1]] for i in members])
        try:
            x = checking._expected(model, arr, goal, cost, "min", True, DEFAULT_TOL)[0]
        except ExpectedCostUndefined:
            ec[members] = np.inf
        else:
            ec[members] = x[:, model.initial]
    return pr, ec


def percall_evaluate_chains(model: ExplicitModel, target: np.ndarray, goal: np.ndarray,
                            lam: float) -> List[TableEntry]:
    entries = well_defined_entries(model)
    block = max(1, _PERCALL_FAMILY_BLOCK // (model.num_transitions + model.num_states))
    table = []
    while True:
        chunk = list(itertools.islice(entries, block))
        if not chunk:
            return table
        prs, ecs = percall_chain_family(model, [(p, c) for _, p, c in chunk], target, goal)
        for (u, _, _), pr, ec in zip(chunk, prs.tolist(), ecs.tolist()):
            feasible = pr <= lam + FEASIBILITY_TOL and math.isfinite(ec)
            table.append(TableEntry(u, ec, pr, feasible))


def percall_evaluate_mdp(model: ExplicitModel, u: dict, probs: list, costs: list,
                         target: np.ndarray, goal: np.ndarray, lam: float):
    support = [p != 0 for p, _ in probs]
    arr = _Arrays(model, support, [p / q for p, q in probs if p != 0])
    try:
        res = synthesis._occupation_lp(model, arr, [p / q for p, q in costs], target, goal, lam,
                                       np.ones(arr.num_choices, dtype=bool))
    except InfeasibleError:
        x = checking._reach(arr, target, "min", False, 1, DEFAULT_TOL)[0]
        return TableEntry(u, math.inf, float(x[0, model.initial]), False), None
    return TableEntry(u, res.expected_cost, res.reach_probability, True), res


def percall_synthesize_enumerate(program: Program, query: SynthesisQuery) -> SynthesisResult:
    model = build_model(program)
    target = checking._target_set(model, query.target)
    goal = checking._target_set(model, query.goal)
    lam = float(query.bound)

    chains = all(len(row) == 1 for row in model.choices)
    if chains:
        table = percall_evaluate_chains(model, target, goal, lam)
    else:
        outcomes = [
            percall_evaluate_mdp(model, u, probs, costs, target, goal, lam)
            for u, probs, costs in well_defined_entries(model)
        ]
        table = [entry for entry, _ in outcomes]
    if not table:
        raise SynthesisError("no well-defined valuation exists")

    best = None
    for i, entry in enumerate(table):
        if not entry.feasible:
            continue
        if best is None or entry.expected_cost < table[best].expected_cost - TIE_TOL:
            best = i
    if best is None:
        return SynthesisResult(
            "enumerate", False, None, None, math.inf, None, table
        )
    if chains:
        strategy = Strategy.deterministic([0] * model.num_states)
    else:
        strategy = outcomes[best][1].strategy
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
# the eager enumeration table and the rational strategy normalisation
#
# ``synthesis.synthesize_enumerate`` made one ``TableEntry``, with a copy of
# its valuation, per configuration on every query and walked them for the
# best pick, and ran the improper-model check in every configuration's LP;
# it now keeps each query's results as arrays (``synthesis._Table``), picks
# from them (``synthesis._best``) and checks once per support stack.
# ``Strategy.__post_init__`` summed and divided at every state, one
# positive weight included.  Kept verbatim apart from the names (the prefix
# ``eager_``, ``eager_strategy_choice_probs`` for the normalisation, which
# takes and returns ``choice_probs``) and the module prefixes; the block
# argument of ``checking.solve_stacks``, which now computes it itself, is
# dropped.

def eager_evaluate(model: ExplicitModel, family, chains: bool, target: np.ndarray,
                   goal: np.ndarray, lam: float) -> Tuple[List[TableEntry], Optional[list]]:
    if chains:
        prs, ecs = checking.solve_stacks(model, family.stacks, target, goal)
        table = [
            TableEntry(dict(u), ec, pr, pr <= lam + FEASIBILITY_TOL and math.isfinite(ec))
            for u, pr, ec in zip(family.valuations, prs.tolist(), ecs.tolist())
        ]
        return table, None
    where = {}  # configuration -> (its stack, its row there)
    for stack in family.stacks:
        for row, i in enumerate(stack.members.tolist()):
            where[i] = (stack, row)
    outcomes = [
        eager_evaluate_mdp(model, dict(u), *where[i], target, goal, lam)
        for i, u in enumerate(family.valuations)
    ]
    return [entry for entry, _ in outcomes], [res for _, res in outcomes]


def eager_evaluate_mdp(model: ExplicitModel, u: dict, stack, row: int,
                       target: np.ndarray, goal: np.ndarray, lam: float):
    arr = stack.arr.rows(row)
    try:
        res = synthesis._occupation_lp(model, arr, stack.cost[row], target, goal, lam,
                                       np.ones(arr.num_choices, dtype=bool))
    except InfeasibleError:
        x = checking._reach(arr, target, "min", False, 1, DEFAULT_TOL)[0]
        return TableEntry(u, math.inf, float(x[0, model.initial]), False), None
    return TableEntry(u, res.expected_cost, res.reach_probability, True), res


def eager_best(table: List[TableEntry]) -> Optional[int]:
    best = None
    for i, entry in enumerate(table):
        if not entry.feasible:
            continue
        if best is None or entry.expected_cost < table[best].expected_cost - TIE_TOL:
            best = i
    return best


def eager_synthesize_enumerate(program: Program, query: SynthesisQuery) -> SynthesisResult:
    model = build_model(program)
    target = checking._target_set(model, query.target)
    goal = checking._target_set(model, query.goal)
    lam = float(query.bound)

    chains = all(len(row) == 1 for row in model.choices)
    family = synthesis._kept_family(model)
    table, solutions = eager_evaluate(model, family, chains, target, goal, lam)
    if not table:
        raise SynthesisError("no well-defined valuation exists")

    best = eager_best(table)
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


def eager_strategy_choice_probs(choice_probs: list) -> list:
    normalized = []
    for s, dist in enumerate(choice_probs):
        items = [(a, Fraction(w)) for a, w in dist.items() if w > 0]
        if not items:
            raise ModelError(f"strategy assigns no action at state {s}")
        total = sum(w for _, w in items)
        normalized.append({a: w / total for a, w in items})
    return normalized


# ---------------------------------------------------------------------------
# the branch-and-bound and the MDP family loop that solved every LP
#
# ``synthesis._branch_and_bound`` solved every certification step, one
# already proved by its current outcome's support included, and ran the
# improper-model check at every node; ``synthesis._evaluate`` solved every
# configuration of an MDP family, one whose entries repeat an earlier
# one's included; ``ConstrainedSolution.strategy`` normalised every state
# when it was built.  Kept verbatim apart from the names (the prefix
# ``resolving_``; ``eager_solution_strategy``, which takes the solution,
# and which the former branch-and-bound calls for its reported strategy)
# and the module prefixes; the block argument of ``checking.solve_stacks``,
# which now computes it itself, is dropped.

def resolving_evaluate(model: ExplicitModel, family, chains: bool, target: np.ndarray,
                       goal: np.ndarray, lam: float):
    if chains:
        prs, ecs = checking.solve_stacks(model, family.stacks, target, goal)
        feasible = (prs <= lam + FEASIBILITY_TOL) & np.isfinite(ecs)
        return synthesis._Table(family.valuations, ecs, prs, feasible), None
    where = {}  # configuration -> (its stack, its row there)
    for stack in family.stacks:
        for row, i in enumerate(stack.members.tolist()):
            where[i] = (stack, row)
    outcomes = [synthesis._evaluate_mdp(model, *where[i], target, goal, lam)
                for i in range(len(family.valuations))]
    ecs, prs, solutions = zip(*outcomes) if outcomes else ((), (), ())
    feasible = [res is not None for res in solutions]
    return synthesis._Table(family.valuations, *map(np.array, (ecs, prs, feasible))), list(solutions)


def eager_solution_strategy(solution) -> Strategy:
    return Strategy([
        {ci: Fraction(w) for ci, w in pairs} for pairs in former_weights(solution)
    ])


# ``synthesis.ConstrainedSolution`` walked every LP variable and made every
# state's (choice index, weight) pairs, once for ``support`` and again for
# ``strategy``; it now reads a state's variables when the state is read.
# Its former ``_weights``, verbatim apart from the name and taking the
# solution as its argument.

def former_weights(self) -> list:
    """Per state, the (choice index, weight) pairs of its strategy: the
    flows above ``SUPPORT_TOL``, or one each on all of the state's own
    choices where none has such a flow; the first choice at a state
    without variables."""
    n, states, choices, y = self._flows
    own: Dict[int, list] = {}
    for s, ci, w in zip(states.tolist(), choices.tolist(), y.tolist()):
        own.setdefault(s, []).append((ci, w))
    weights = [((0, 1),)] * n
    for s, pairs in own.items():
        weights[s] = [(ci, w) for ci, w in pairs if w > SUPPORT_TOL] or [(ci, 1) for ci, _ in pairs]
    return weights


def resolving_branch_and_bound(problem, program: Program,
                               query: SynthesisQuery) -> SynthesisResult:
    model, arr, table = problem.model, problem.arr, problem.table
    extendable = problem.extendable
    target = checking._target_set(model, query.target)
    goal = checking._target_set(model, query.goal)
    lam = float(query.bound)
    params = list(program.parameters.items())

    def fixing(fixed: tuple, j: int, k: int) -> tuple:
        return fixed[:j] + (k,) + fixed[j + 1:]

    cache: Dict[tuple, Optional[tuple]] = {}

    def solve_fixed(fixed: tuple) -> Optional[tuple]:
        if fixed in cache:
            return cache[fixed]
        try:
            res = synthesis._occupation_lp(model, arr, problem.costs, target, goal, lam,
                                           problem.enabled(fixed))
        except InfeasibleError:
            cache[fixed] = None
            return None
        commits = synthesis._support_commitments(arr, table, model.initial, res.support)
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
            if best is None or sub[0].expected_cost < best[0].expected_cost - TIE_TOL:
                best = sub
        cache[fixed] = best
        return best

    fixed = (-1,) * len(params)
    root = solve_fixed(fixed)
    if root is None:
        return SynthesisResult("transformed", False, None, None, math.inf, None)
    best_value = root[0].expected_cost

    flags = []
    final = root
    for j in problem.occurring:
        chosen = None
        for well_defined in (True, False):
            for k in range(len(params[j][1])):
                if well_defined and not extendable(fixing(fixed, j, k)):
                    continue
                sub = solve_fixed(fixing(fixed, j, k))
                if sub is not None and sub[0].expected_cost <= best_value + TIE_TOL:
                    chosen = (k, sub)
                    break
            if chosen is not None:
                break
        if chosen is None:
            raise SynthesisError("lexicographic certification lost the optimum")
        if not well_defined:
            flags.append(f"parameter '{params[j][0]}' fixed outside the well-defined set")
        fixed = fixing(fixed, j, chosen[0])
        final = chosen[1]

    res, commits = final
    matching = np.flatnonzero(problem.agreeing(fixed))
    if len(matching):
        valuation = dict(problem.admissible[matching[0]])
    else:
        valuation = {p: vs[k] for (p, vs), k in zip(params, fixed) if k >= 0}
        for p, vs in params:
            valuation.setdefault(p, vs[0])
    for j in problem.occurring:
        if not commits[j]:
            flags.append(f"parameter '{params[j][0]}' never committed on the support")
    return SynthesisResult(
        "transformed",
        True,
        valuation,
        eager_solution_strategy(res),
        res.expected_cost,
        res.reach_probability,
        [],
        tuple(flags),
    )


# ---------------------------------------------------------------------------
# the former exploration, instantiation and arrays, on ``Choice`` rows
#
# ``models._explore`` and ``models._instance`` built a list of ``Choice``
# objects per state, with a tuple per branch, and ``checking._Arrays`` made
# its flat arrays by walking those objects.  Exploration now writes the
# flat fields of ``ExplicitModel`` directly, an instance shares the base
# model's offsets and targets, and the arrays take the model's fields with
# numpy masks.  Kept verbatim apart from the names (the prefix
# ``former_``; ``FormerArrays`` is the arrays with the former constructor)
# the constructor, as rows of ``Choice``s become a model through
# ``ExplicitModel.from_rows``, and the module prefix of ``substitute``.

def former_explore(program: Program, state_cap: int, on_deadlock: str) -> ExplicitModel:
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
    rows: list = []
    costs: list = []
    deadlocks = set()
    queue = [0]
    qhead = 0

    def prob_value(expr: Expr) -> Prob:
        # probabilities and costs mention no state variable, and may
        # mention parameters, which stay symbolic
        reduced = expressions.substitute(expr, constants)
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
        out: list = []
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
            branches = []
            for tkey, p in merged.items():
                if tkey not in index:
                    if len(states) >= state_cap:
                        raise StateCapExceeded(
                            f"state cap of {state_cap} states exceeded"
                        )
                    index[tkey] = len(states)
                    states.append(tkey)
                    queue.append(index[tkey])
                branches.append((p, index[tkey]))
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
    if parametric:
        kind = "mimdp"
    else:
        kind = "mc" if all(len(row) == 1 for row in rows) else "mdp"
    return ExplicitModel.from_rows(
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


def former_instance(model: ExplicitModel, probs: Sequence[Fraction], costs: list) -> ExplicitModel:
    """The concrete model with the flat branch probabilities ``probs``."""
    values = iter(probs)
    new_rows = [
        [Choice(ch.action, tuple((next(values), t) for _, t in ch.branches)) for ch in row]
        for row in model.choices
    ]
    kind = "mc" if all(len(row) == 1 for row in new_rows) else "mdp"
    return ExplicitModel.from_rows(
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


class FormerArrays(_Arrays):
    """The checker's arrays, made by the former walk over the ``Choice``
    objects of ``model.choices``."""

    def __init__(self, model: ExplicitModel, support=None, probs=None):
        if model.kind == "mimdp" and support is None:
            raise ModelError("model checking needs a concrete model; instantiate first")
        choice_state = []
        branch_start = [0]
        choice_start = [0]
        targets: list = []
        floats: list = []
        edges = iter(support) if support is not None else None
        for si, row in enumerate(model.choices):
            for ch in row:
                choice_state.append(si)
                for p, t in ch.branches:
                    if not (p if edges is None else next(edges)):
                        continue
                    targets.append(t)
                    if edges is None:
                        floats.append(float(p))
                if len(targets) == branch_start[-1]:
                    raise ModelError(
                        f"choice with no positive branch at state {model.state_text(si)}"
                    )
                branch_start.append(len(targets))
            choice_start.append(len(choice_state))
        self._fill(model.num_states, choice_state, choice_start, branch_start,
                   targets, floats if probs is None else probs)

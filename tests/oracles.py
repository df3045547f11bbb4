"""Independent test oracles.

Exact-rational Gaussian elimination for reachability probabilities and
expected costs on Markov chains.  Deliberately naive and fully exact
(fractions end to end): the engine under test uses precomputation plus
value iteration, this does not.  Below it, the former checker, the
former cost-bounded product, instantiation and well-definedness filter,
exploration, guard implication checks, integer-program emitter,
constrained LP and family instances, enumeration route, memoised evaluator
and reward selection, kept as references for the differential tests of the
code that replaced them.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Dict, FrozenSet, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from mimdp.checking import _prob1_min as checking_prob1_min
from mimdp.checking import (
    DEFAULT_TOL,
    FEASIBILITY_TOL,
    ExpectedCostUndefined,
    _MAX_SWEEPS,
    _Arrays,
    _POLISH_DENSE_LIMIT,
    _target_set,
    expected_cost,
    reach_prob,
)
from mimdp.expressions import (
    Binary,
    BoolLit,
    Expr,
    Extremum,
    Name,
    Num,
    Unary,
    Value,
    _as_bool,
    _binary,
    _extremum,
    _lookup,
    _unary,
    conjoin,
    eval_expr,
    fold,
    format_fraction,
    joint_valuations,
    names_in,
    substitute,
    to_text,
)
from mimdp.lp import LinearProgram, solve_lp
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
    _add_probs,
    _fmt,
    _instance,
    all_valuations,
    build_model,
    compose,
    distribution_fault,
    instantiate,
    well_defined_entries,
    well_defined_valuations,
)
from mimdp.parser import TRUE, _Parser, tokenize
from mimdp.program import CommandDecl, ModuleDecl, Program, RewardDecl, VarDecl, check_program
from mimdp.synthesis import (
    SUPPORT_TOL,
    TIE_TOL,
    ConstrainedSolution,
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
        if n <= _POLISH_DENSE_LIMIT:
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
    tset = _target_set(model, targets)

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
    return ExplicitModel(
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
# the former constrained LP and instances of a family
#
# Reference for the differential tests of the LP read off the checker's
# arrays: the model is copied with its targets and goals made absorbing
# (``seed_absorb``), then restricted to the enabled choices and flattened
# again for the absorption check.  Kept as it was apart from the names and
# the absorbed model, which the solution no longer carries (the tests that
# induce the LP's chain call ``seed_absorb``).  ``checking_prob1_min`` is
# the checker's ``_prob1_min``, which the former LP called.
# ``seed_well_defined_instances`` builds every well-defined configuration's
# instance, as the enumeration route did for MDP families.


def seed_absorb(model: ExplicitModel, closed: set) -> ExplicitModel:
    rows = []
    for s, row in enumerate(model.choices):
        if s in closed:
            rows.append([Choice(None, ((Fraction(1), s),))])
        else:
            rows.append(list(row))
    return ExplicitModel(
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
) -> ConstrainedSolution:
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
    restricted = ExplicitModel(
        kind="mdp",
        var_names=absorbed.var_names,
        states=list(absorbed.states),
        initial=absorbed.initial,
        choices=restricted_rows,
        costs=list(absorbed.costs),
        labels={},
        parameters={},
    )
    arr = _Arrays(restricted)
    sure = checking_prob1_min(arr, terminal)
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
        return ConstrainedSolution(
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

    lp = LinearProgram(num_vars=len(variables))
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
    sol = solve_lp(lp, secondary=bound_row or None)
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
    return ConstrainedSolution(Strategy(choice_probs), ec, pr)


def seed_well_defined_instances(model: ExplicitModel) -> Iterator[Tuple[Valuation, ExplicitModel]]:
    """Every well-defined valuation with its instance, in ``all_valuations``
    order.  A parameter-free model yields itself under the empty valuation."""
    if model.kind != "mimdp":
        yield {}, model
        return
    for u, probs, costs in well_defined_entries(model):
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

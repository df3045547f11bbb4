"""Independent test oracles.

Exact-rational Gaussian elimination for reachability probabilities and
expected costs on Markov chains.  Deliberately naive and fully exact
(fractions end to end): the engine under test uses precomputation plus
value iteration, this does not.  Below it, the former checker and the
former instantiation and well-definedness filter, kept as references for
the differential tests of the code that replaced them.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Tuple

import numpy as np

from mimdp.checking import (
    DEFAULT_TOL,
    ExpectedCostUndefined,
    _Arrays,
    _iterate,
    _POLISH_DENSE_LIMIT,
    _target_set,
)
from mimdp.expressions import Expr, eval_expr, format_fraction, to_text
from mimdp.models import (
    Choice,
    ExplicitModel,
    ModelError,
    Strategy,
    WellDefinednessError,
    all_valuations,
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
# ``(values, iterations, residual)`` instead of a ValueVector.


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

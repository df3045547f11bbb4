"""Configuration synthesis: pick one value per parameter and a strategy so
that the target-reachability bound holds and the expected cost to the goal
is minimal.

Two independent routes:

* ``synthesize_enumerate`` makes one pass over the well-defined
  valuations and their instances (``well_defined_instances``, memoised
  instantiation, single-threaded) and evaluates each instance directly
  (chains) or through the constrained occupation-measure LP (MDPs).  This
  is the oracle route.

* ``synthesize_transformed`` rewrites the program into the controlled MDP
  and solves the constrained LP there.  A randomized LP optimum may split
  its mass between different values of one parameter (a mixture of
  configurations, which no single valuation realizes); when that happens we
  branch on the conflicted parameter, and a final lexicographic pass pins
  the tie-broken valuation, so both routes return the same answer.

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
from typing import Dict, FrozenSet, List, Mapping, Optional, Tuple

from .checking import (
    ExpectedCostUndefined,
    _Arrays,
    _prob1_min,
    expected_cost,
    reach_prob,
)
from .expressions import Expr, eval_expr, format_fraction
from .lp import LinearProgram, solve_lp
from .models import (
    Choice,
    ExplicitModel,
    ModelError,
    Strategy,
    build_model,
    instantiate,
    well_defined_instances,
    well_defined_valuations,
)
from .program import Program
from .transform import TransformReport, transform_all

FEASIBILITY_TOL = 1e-9
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


@dataclass
class SynthesisResult:
    method: str
    feasible: bool
    valuation: Optional[dict]
    strategy: Optional[Strategy]
    expected_cost: float
    reach_probability: Optional[float]
    table: List[TableEntry] = field(default_factory=list)
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
        out["table"] = [
            {
                "valuation": val_dict(e.valuation),
                "ec": e.expected_cost if math.isfinite(e.expected_cost) else None,
                "pr": e.reach_probability,
                "feasible": e.feasible,
            }
            for e in self.table
        ]
        return out


@dataclass
class ConstrainedSolution:
    strategy: Strategy
    expected_cost: float
    reach_probability: float
    model: ExplicitModel  # the absorbed model the LP was built on


# ---------------------------------------------------------------------------
# the occupation-measure LP

def _absorb(model: ExplicitModel, closed: set) -> ExplicitModel:
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


def _self_loop_only(model: ExplicitModel, s: int) -> bool:
    row = model.choices[s]
    return all(
        len(ch.branches) == 1 and ch.branches[0][1] == s for ch in row
    )


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

    absorbed = _absorb(model, tset | gset)
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
        if _self_loop_only(absorbed, s) and s not in dead
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
    sure = _prob1_min(arr, terminal)
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
            Strategy.deterministic(picks), 0.0, pr, absorbed
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
    return ConstrainedSolution(Strategy(choice_probs), ec, pr, absorbed)


# ---------------------------------------------------------------------------
# route 1: exhaustive enumeration

def _evaluate_valuation(inst: ExplicitModel, u: dict, tset, gset, lam: float):
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
        res = constrained_mdp_lp(inst, tset, lam, gset)
    except InfeasibleError:
        vec, _ = reach_prob(inst, tset, "min")
        return TableEntry(u, math.inf, vec.at_initial(inst), False), None
    return (
        TableEntry(u, res.expected_cost, res.reach_probability, True),
        res.strategy,
    )


def synthesize_enumerate(program: Program, query: SynthesisQuery) -> SynthesisResult:
    """The oracle route: instantiate every well-defined valuation, evaluate,
    and return the feasible valuation of minimal expected cost
    (lexicographically smallest on ties)."""
    model = build_model(program)
    tset = model.label_states(query.target)
    gset = model.label_states(query.goal)
    lam = float(query.bound)

    outcomes = [
        _evaluate_valuation(inst, u, tset, gset, lam)
        for u, inst in well_defined_instances(model)
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
# route 2: the controlled transformed MDP

def _support_commitments(
    model: ExplicitModel, report: TransformReport, strategy: Strategy
) -> Dict[str, set]:
    """Parameter commitments along the strategy's reachable support."""
    commits: Dict[str, set] = {}
    seen = {model.initial}
    stack = [model.initial]
    while stack:
        s = stack.pop()
        for ci, w in strategy.choice_probs[s].items():
            if w <= 0:
                continue
            ch = model.choices[s][ci]
            if ch.action in report.fresh_actions:
                for p, v in report.fresh_actions[ch.action]:
                    commits.setdefault(p, set()).add(v)
            for _, t in ch.branches:
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
    return commits


def recover_valuation(
    model: ExplicitModel, report: TransformReport, strategy: Strategy
) -> Tuple[dict, tuple]:
    """Read the committed parameter values off the strategy's support.

    A parameter never committed on the support falls back to its first
    declared value and is flagged.  Conflicting commitments indicate a
    transformation bug and trip an assertion.
    """
    commits = _support_commitments(model, report, strategy)
    valuation = {}
    flags = []
    # transformed models carry no residual parameters; read the parameters
    # and their value order off the report (rows enumerate values in
    # declaration order, so first appearance is the first declared value)
    params: Dict[str, list] = {}
    for action, pairs in report.fresh_actions.items():
        for p, v in pairs:
            values = params.setdefault(p, [])
            if v not in values:
                values.append(v)
    for p, values in params.items():
        got = commits.get(p, set())
        assert len(got) <= 1, f"conflicting commitments for parameter '{p}'"
        if got:
            valuation[p] = next(iter(got))
        else:
            valuation[p] = values[0]
            flags.append(f"parameter '{p}' never committed on the support")
    return valuation, tuple(flags)


def synthesize_transformed(program: Program, query: SynthesisQuery) -> SynthesisResult:
    """Transform, then optimize on the controlled MDP.

    Solves the constrained LP; branches (depth-first, declaration order)
    whenever the optimum mixes a parameter's values on its support or its
    joint commitments extend to no well-defined valuation, keeping the best
    admissible pure outcome; finally certifies the lexicographically
    smallest valuation among ties so the result matches the enumeration
    route's tie-break.
    """
    transformed, report = transform_all(program)
    model = build_model(transformed, on_deadlock="absorb")
    tset = model.label_states(query.target)
    gset = model.label_states(query.goal)
    lam = float(query.bound)
    params = {p: list(vs) for p, vs in program.parameters.items()}

    # valuations a reported answer may come from: a strategy can avoid every
    # state where some parameter matters, in which case its value must still
    # be completed consistently with global well-definedness
    base = build_model(program)
    if base.kind == "mimdp":
        admissible = well_defined_valuations(base)
        if not admissible:
            raise SynthesisError("no well-defined valuation exists")
    else:
        admissible = [{}]

    def extendable(fixed: dict) -> bool:
        return any(
            all(u.get(p) == v for p, v in fixed.items()) for u in admissible
        )

    disabled_for: Dict[Tuple[str, Fraction], FrozenSet[str]] = {}
    for p, values in params.items():
        for v in values:
            bad = frozenset(
                a
                for a, commits in report.fresh_actions.items()
                if any(cp == p and cv != v for cp, cv in commits)
            )
            disabled_for[(p, v)] = bad

    cache: Dict[frozenset, Optional[tuple]] = {}

    def solve_fixed(fixed: dict) -> Optional[tuple]:
        """Best well-defined-valuation outcome under the partial fixing.

        Branches when the LP optimum mixes a parameter's values on its
        support, and also when the support's joint commitments extend to no
        well-defined valuation (the strategy may avoid the very command
        whose distribution couples the parameters, which no admissible
        valuation can imitate).  Branch values are restricted to those
        extendable under the current fixing, so every leaf corresponds to a
        well-defined valuation.
        """
        key = frozenset(fixed.items())
        if key in cache:
            return cache[key]
        disabled: set = set()
        for pv in fixed.items():
            disabled |= disabled_for[pv]
        try:
            res = constrained_mdp_lp(
                model, tset, lam, gset, disabled_actions=frozenset(disabled)
            )
        except InfeasibleError:
            cache[key] = None
            return None
        commits = _support_commitments(model, report, res.strategy)
        conflicted = [p for p in params if len(commits.get(p, ())) > 1]
        branch_on = None
        if conflicted:
            branch_on = conflicted[0]
        else:
            joint = dict(fixed)
            for p in params:
                got = commits.get(p)
                if got and p not in joint:
                    joint[p] = next(iter(got))
            if not extendable(joint):
                branch_on = next(p for p in params if p in joint and p not in fixed)
            else:
                out = (res, commits, dict(fixed))
                cache[key] = out
                return out
        best = None
        for v in params[branch_on]:
            if not extendable({**fixed, branch_on: v}):
                continue
            sub = solve_fixed({**fixed, branch_on: v})
            if sub is None:
                continue
            if best is None or sub[0].expected_cost < best[0].expected_cost - TIE_TOL:
                best = sub
        cache[key] = best
        return best

    root = solve_fixed({})
    if root is None:
        return SynthesisResult("transformed", False, None, None, math.inf, None)
    best_value = root[0].expected_cost

    # lexicographic certification: fix parameters one by one to the earliest
    # declared value that still achieves the optimum and still lies under
    # some well-defined valuation
    occurring = [p for p in params if _param_occurs(report, p)]
    flags = []
    fixed: dict = {}
    final = root
    for p in occurring:
        chosen = None
        for v in params[p]:
            if not extendable({**fixed, p: v}):
                continue
            sub = solve_fixed({**fixed, p: v})
            if sub is not None and sub[0].expected_cost <= best_value + TIE_TOL:
                chosen = (v, sub)
                break
        if chosen is None:
            # the optimum rests on commitments outside every well-defined
            # valuation; fall back to the pure value filter and say so
            for v in params[p]:
                sub = solve_fixed({**fixed, p: v})
                if sub is not None and sub[0].expected_cost <= best_value + TIE_TOL:
                    chosen = (v, sub)
                    flags.append(
                        f"parameter '{p}' fixed outside the well-defined set"
                    )
                    break
        if chosen is None:
            raise SynthesisError("lexicographic certification lost the optimum")
        fixed[p] = chosen[0]
        final = chosen[1]

    res, commits, _ = final
    valuation = None
    for u in admissible:
        if all(u.get(p) == v for p, v in fixed.items()):
            valuation = dict(u)
            break
    if valuation is None:
        valuation = dict(fixed)
        for p in params:
            valuation.setdefault(p, params[p][0])
    for p in occurring:
        if not commits.get(p, set()):
            flags.append(f"parameter '{p}' never committed on the support")
    return SynthesisResult(
        "transformed",
        True,
        valuation,
        res.strategy,
        res.expected_cost,
        res.reach_probability,
        [],
        tuple(flags),
    )


def _param_occurs(report: TransformReport, p: str) -> bool:
    return any(cp == p for commits in report.fresh_actions.values() for cp, _ in commits)


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
        for a in range(len(model.choices[s])):
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

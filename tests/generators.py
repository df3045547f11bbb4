"""Seeded random model generators for the property tests."""

from __future__ import annotations

import random
from fractions import Fraction as F

from mimdp.expressions import Binary, Name, Num
from mimdp.models import Choice, ExplicitModel
from mimdp.program import CommandDecl, ModuleDecl, Program, RewardDecl
from mimdp.program import VarDecl
from mimdp.synthesis import SynthesisQuery


def random_mc(rng: random.Random, max_states: int = 50) -> ExplicitModel:
    """A random absorbing Markov chain built directly as an explicit model.

    Two absorbing states (indices n and n+1); every transient state keeps a
    branch into the absorbing pair, so absorption is almost sure and both
    reachability and expected cost are defined everywhere.
    """
    n = rng.randint(3, max_states - 2)
    ok, bad = n, n + 1
    total = n + 2
    rows = []
    costs = []
    for s in range(n):
        k = rng.randint(2, 3)
        targets = [rng.randrange(total) for _ in range(k - 1)]
        targets.append(rng.choice([ok, bad]))
        weights = [F(rng.randint(1, 9)) for _ in targets]
        norm = sum(weights)
        merged = {}
        for t, w in zip(targets, weights):
            merged[t] = merged.get(t, F(0)) + w / norm
        rows.append([Choice(None, tuple((p, t) for t, p in sorted(merged.items())))])
        costs.append(F(rng.randint(0, 40), rng.choice([1, 2, 4, 5])))
    for s in (ok, bad):
        rows.append([Choice(None, ((F(1), s),))])
        costs.append(F(0))
    return ExplicitModel.from_rows(
        kind="mc",
        var_names=("loc",),
        states=[(i,) for i in range(total)],
        initial=0,
        choices=rows,
        costs=costs,
        labels={"ok": frozenset({ok}), "bad": frozenset({bad}),
                "goal": frozenset({ok, bad})},
        parameters={},
    )


_VALUE_POOL = [
    F("0.15"), F("0.2"), F("0.25"), F("0.3"), F("0.35"), F("0.4"), F("0.45"),
    F("0.55"), F("0.6"), F("0.65"), F("0.7"), F("0.75"), F("0.8"),
]


def random_mimdp_program(rng: random.Random, max_states: int = 14, zeros: bool = False):
    """A random parametric program with valuation-independent topology.

    Transient states form a forward chain (guaranteed absorption under every
    strategy and valuation), some states carry two commands (an MDP after
    instantiation), probabilities are concrete pairs, complement pairs over
    one parameter, or a coupled two-parameter pair whose value sets only
    match on complementary indices (so the well-definedness filter bites),
    and some states carry parametric costs.  With ``zeros``, 0 replaces a
    value of some parameters, so that some valuations give a branch
    probability 0 and the family has more than one support; without it the
    draws, and so the programs, are those of the plain generator.  Returns
    (program, query).
    """
    n = rng.randint(3, max_states - 2)
    ok, bad = n, n + 1

    nparams = rng.randint(1, 3)
    names = ["pa", "pb", "pc"][:nparams]
    params = {}
    for nm in names:
        k = rng.randint(2, 3)
        params[nm] = tuple(rng.sample(_VALUE_POOL, k))
        if zeros and rng.random() < 0.6:
            values = list(params[nm])
            values[rng.randrange(k)] = F(0)
            params[nm] = tuple(values)
    coupled = None
    if nparams >= 2 and rng.random() < 0.5:
        base, mate = names[0], names[1]
        order = list(1 - v for v in params[base])
        rng.shuffle(order)
        params[mate] = tuple(order)
        coupled = (base, mate)

    def loc_eq(i):
        return Binary("=", Name("loc"), Num(F(i)))

    def pair_for(kind):
        if kind == "concrete":
            c = rng.choice(_VALUE_POOL)
            return (Num(c), Num(1 - c))
        if kind == "complement":
            p = rng.choice(names)
            return (Name(p), Binary("-", Num(F(1)), Name(p)))
        base, mate = coupled
        return (Name(base), Name(mate))

    def three_way():
        # (p/2, (1-p)/2, 1/2): a distribution for every value of p, so this
        # pattern widens rows without touching the well-definedness filter
        p = rng.choice(names)
        half = Num(F(1, 2))
        return (
            Binary("*", Name(p), half),
            Binary("*", Binary("-", Num(F(1)), Name(p)), half),
            half,
        )

    kinds = ["concrete", "complement"]
    if coupled:
        kinds.append("coupled")

    commands = []
    for s in range(n):
        ncmd = 2 if rng.random() < 0.45 else 1
        for _ in range(ncmd):
            lo = s + 1
            t1 = rng.randint(lo, n + 1)
            t2 = rng.choice([ok, bad])
            if t2 == t1:
                t2 = bad if t1 != bad else ok
            spare = [x for x in range(lo, n + 2) if x not in (t1, t2)]
            if spare and rng.random() < 0.2:
                t3 = rng.choice(spare)
                probs = three_way()
                branches = tuple(
                    (prob, (("loc", Num(F(t))),)) for prob, t in zip(probs, (t1, t2, t3))
                )
            else:
                p1, p2 = pair_for(rng.choice(kinds))
                branches = (
                    (p1, (("loc", Num(F(t1))),)),
                    (p2, (("loc", Num(F(t2))),)),
                )
            commands.append(CommandDecl(None, loc_eq(s), branches))
    commands.append(CommandDecl(None, loc_eq(ok), ((Num(F(1)), ()),)))
    commands.append(CommandDecl(None, loc_eq(bad), ((Num(F(1)), ()),)))

    rewards = []
    for s in range(n):
        roll = rng.random()
        if roll < 0.35:
            rewards.append(RewardDecl(loc_eq(s), Num(F(rng.randint(1, 40), 10))))
        elif roll < 0.6:
            p = rng.choice(names)
            cost = rng.choice(
                [
                    Name(p),
                    Binary("*", Num(F(2)), Name(p)),
                    Binary("+", Name(p), Num(F(rng.randint(1, 9), 10))),
                ]
            )
            rewards.append(RewardDecl(loc_eq(s), cost))

    module = ModuleDecl(
        "walk",
        (VarDecl("loc", 0, n + 1, 0),),
        frozenset(),
        tuple(commands),
    )
    program = Program(
        constants={},
        parameters=params,
        modules=(module,),
        rewards=tuple(rewards),
        labels={
            "bad": loc_eq(bad),
            "goal": Binary(">=", Name("loc"), Num(F(ok))),
        },
    )
    lam = rng.choice([F(1), F(1), F(rng.randint(1, 20), 20), F(rng.randint(1, 20), 20)])
    query = SynthesisQuery("bad", lam, "goal", "both")
    return program, query


def zero_valued_programs(count: int = 40, seed: int = 17) -> list:
    """``count`` (program, query) pairs of ``random_mimdp_program`` with
    ``zeros``, about half of them families with zero-probability branches
    and more than one support group, for the differential tests."""
    rng = random.Random(seed)
    return [random_mimdp_program(rng, zeros=True) for _ in range(count)]


def random_mdp(rng: random.Random, max_states: int = 30) -> ExplicitModel:
    """A random MDP built directly as an explicit model, for graph corner
    cases rather than absorption: states carry one to four choices, some
    choices are exact duplicates (ties), branches may loop back to their
    own state or repeat a target, some states are absorbing targets or
    absorbing non-target sinks, and the last states may have no incoming
    edge at all (unreachable unless initial).  In about half of the models
    every choice also leaks into an absorbing state, so that absorption is
    almost sure under every strategy and expected costs are defined.
    Labels: ``target``, and ``stop`` for the absorbing states.
    """
    n = rng.randint(2, max_states)
    orphans = rng.randint(0, min(3, n - 1))
    reachable = n - orphans  # targets are drawn below this index
    roles = [rng.choices(("move", "target", "sink"), (6, 1, 1))[0] for _ in range(n)]
    roles[rng.randrange(reachable)] = rng.choice(("target", "sink"))
    absorbing = [s for s in range(reachable) if roles[s] != "move"]
    leaky = rng.random() < 0.5
    weights_pool = (1, 1, 2, 3, 4)
    rows = []
    for s in range(n):
        if roles[s] != "move":
            rows.append([Choice(None, ((F(1), s),))])
            continue
        row = []
        for _ in range(rng.randint(1, 4)):
            if row and rng.random() < 0.15:
                row.append(rng.choice(row))
                continue
            targets = [s if rng.random() < 0.2 else rng.randrange(reachable)
                       for _ in range(rng.randint(1, 3))]
            if leaky:
                targets.append(rng.choice(absorbing))
            weights = [F(rng.choice(weights_pool)) for _ in targets]
            norm = sum(weights)
            row.append(Choice(f"a{len(row)}", tuple((w / norm, t) for t, w in zip(targets, weights))))
        rows.append(row)
    target = frozenset(s for s in range(n) if roles[s] == "target" or rng.random() < 0.05)
    return ExplicitModel.from_rows(
        kind="mdp",
        var_names=("loc",),
        states=[(i,) for i in range(n)],
        initial=0,
        choices=rows,
        costs=[F(rng.randint(0, 5)) for _ in range(n)],
        labels={"target": target,
                "stop": frozenset(s for s in range(n) if roles[s] != "move")},
        parameters={},
    )


def random_acyclic_mdp(rng: random.Random, max_states: int = 30) -> ExplicitModel:
    """A random MDP whose transient states lie on no cycle: state ``s``
    branches only to later states, and the last two states, ``ok`` and
    ``bad``, are absorbing.  Each transient state has one to three choices
    (some exact duplicates, ties), each of 1, 2, 3 or 8 to 12 branches
    whose targets may repeat.  About half of the models have no costs (all
    zero).  Labels: ``target`` (``ok``, and a few transient states), and
    ``stop`` for the absorbing pair, which every path reaches."""
    n = rng.randint(1, max_states - 2)
    total = n + 2
    rows = []
    for s in range(n):
        row = []
        for _ in range(rng.randint(1, 3)):
            if row and rng.random() < 0.15:
                row.append(rng.choice(row))
                continue
            width = rng.choice((1, 2, 2, 3, 3, rng.randint(8, 12)))
            targets = [rng.randrange(s + 1, total) for _ in range(width)]
            weights = [F(rng.choice((1, 1, 2, 3, 5))) for _ in targets]
            norm = sum(weights)
            branches = tuple((w / norm, t) for t, w in zip(targets, weights))
            row.append(Choice(f"a{len(row)}", branches))
        rows.append(row)
    rows += [[Choice(None, ((F(1), s),))] for s in (n, n + 1)]
    costly = rng.random() < 0.5
    return ExplicitModel.from_rows(
        kind="mdp",
        var_names=("loc",),
        states=[(i,) for i in range(total)],
        initial=0,
        choices=rows,
        costs=[F(rng.randint(0, 5) if costly and s < n else 0) for s in range(total)],
        labels={"target": frozenset({n} | {s for s in range(n) if rng.random() < 0.05}),
                "stop": frozenset({n, n + 1})},
        parameters={},
    )

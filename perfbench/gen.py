"""Seeded generators for the benchmark inputs.

Everything the program under test receives is made here from the workload
seed, so the same seed always gives the same inputs.  The random parametric
programs have the shape of the test-suite generator (forward-chain
topology, optional second commands, concrete / complement / coupled
probability pairs, three-way rows, parametric costs, mixed bounds) but live
in the benchmark's own files, so editing a test cannot change a workload.
"""

from __future__ import annotations

import random
from fractions import Fraction as F

from mimdp.expressions import Binary, Name, Num
from mimdp.program import CommandDecl, ModuleDecl, Program, RewardDecl, VarDecl
from mimdp.synthesis import SynthesisQuery

VALUE_POOL = tuple(
    F(v) for v in ("0.15", "0.2", "0.25", "0.3", "0.35", "0.4", "0.45",
                   "0.55", "0.6", "0.65", "0.7", "0.75", "0.8")
)
PARAM_NAMES = ("pa", "pb", "pc")


def _loc_is(i: int):
    return Binary("=", Name("loc"), Num(F(i)))


def _goto(t: int):
    return (("loc", Num(F(t))),)


def random_program(shape: random.Random, rng: random.Random, max_states: int = 24):
    """One random parametric program and its synthesis query.

    ``shape`` draws the structure: state count, parameters and their
    value-set sizes, coupling, commands and their targets, which parameter
    each expression mentions, cost forms and whether the bound is trivial.
    ``rng`` draws the numbers: parameter values, concrete probabilities,
    cost constants and the bound.  Transient states 0..n-1 only move
    forward, so absorption in ``ok`` (n) or ``bad`` (n+1) is almost sure
    under every strategy and valuation.  A coupled two-parameter pair whose
    value sets only match on complementary indices makes the
    well-definedness filter reject configurations.
    """
    n = shape.randint(3, max_states - 2)
    ok, bad = n, n + 1

    names = list(PARAM_NAMES[: shape.randint(1, 3)])
    params = {nm: tuple(rng.sample(VALUE_POOL, shape.randint(2, 3))) for nm in names}
    coupled = None
    if len(names) >= 2 and shape.random() < 0.5:
        base, mate = names[0], names[1]
        mirrored = [1 - v for v in params[base]]
        rng.shuffle(mirrored)
        params[mate] = tuple(mirrored)
        coupled = (base, mate)
    kinds = ["concrete", "complement"] + (["coupled"] if coupled else [])

    def pair(kind):
        if kind == "concrete":
            c = rng.choice(VALUE_POOL)
            return Num(c), Num(1 - c)
        if kind == "complement":
            p = shape.choice(names)
            return Name(p), Binary("-", Num(F(1)), Name(p))
        return Name(coupled[0]), Name(coupled[1])

    def three_way():
        # (p/2, (1-p)/2, 1/2) is a distribution for every value of p
        p = shape.choice(names)
        half = Num(F(1, 2))
        return (
            Binary("*", Name(p), half),
            Binary("*", Binary("-", Num(F(1)), Name(p)), half),
            half,
        )

    commands = []
    for s in range(n):
        for _ in range(2 if shape.random() < 0.45 else 1):
            t1 = shape.randint(s + 1, n + 1)
            t2 = shape.choice([ok, bad])
            if t2 == t1:
                t2 = bad if t1 != bad else ok
            spare = [x for x in range(s + 1, n + 2) if x not in (t1, t2)]
            if spare and shape.random() < 0.2:
                targets = (t1, t2, shape.choice(spare))
                probs = three_way()
            else:
                targets = (t1, t2)
                probs = pair(shape.choice(kinds))
            branches = tuple((p, _goto(t)) for p, t in zip(probs, targets))
            commands.append(CommandDecl(None, _loc_is(s), branches))
    for s in (ok, bad):
        commands.append(CommandDecl(None, _loc_is(s), ((Num(F(1)), ()),)))

    rewards = []
    for s in range(n):
        roll = shape.random()
        if roll < 0.35:
            rewards.append(RewardDecl(_loc_is(s), Num(F(rng.randint(1, 40), 10))))
        elif roll < 0.6:
            p = Name(shape.choice(names))
            form = shape.randrange(3)
            if form == 0:
                cost = p
            elif form == 1:
                cost = Binary("*", Num(F(2)), p)
            else:
                cost = Binary("+", p, Num(F(rng.randint(1, 9), 10)))
            rewards.append(RewardDecl(_loc_is(s), cost))

    module = ModuleDecl("walk", (VarDecl("loc", 0, n + 1, 0),), frozenset(), tuple(commands))
    program = Program(
        constants={},
        parameters=params,
        modules=(module,),
        rewards=tuple(rewards),
        labels={"bad": _loc_is(bad), "goal": Binary(">=", Name("loc"), Num(F(ok)))},
    )
    lam = F(1) if shape.random() < 0.5 else F(rng.randint(1, 20), 20)
    return program, SynthesisQuery("bad", lam, "goal", "both")


SHAPE_SEED = 180706106


def random_corpus(seed: int, count: int = 100):
    shape = random.Random(SHAPE_SEED)
    rng = random.Random(seed)
    return [random_program(shape, rng) for _ in range(count)]

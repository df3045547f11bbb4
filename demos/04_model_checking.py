"""Reachability, expected cost, cost-bounded reachability, properties.

The engine precomputes the probability-0 and probability-1 sets by graph
fixpoints.  A Markov chain such as the die is then solved exactly, with no
value iteration; on an MDP values are iterated from below, and the exactly
evaluated value of the extracted strategy is reported.
"""

from fractions import Fraction
from pathlib import Path

from mimdp import (
    build_model,
    check_spec,
    cost_bounded_reach,
    expected_cost,
    instantiate,
    parse_file,
    parse_property,
    reach_prob,
    transform_all,
)

MODELS = Path(__file__).resolve().parent.parent / "models"

die = build_model(parse_file(MODELS / "die.mgcl"), {"p": Fraction("0.5")})
print("fair die:")
for outcome in ("one", "two", "three", "four", "five", "six"):
    vec, _ = reach_prob(die, outcome)
    print(f"  Pr(roll {outcome:<5}) = {vec.at_initial(die):.10f}")

flips, _ = expected_cost(die, "rolled")
print(f"  expected coin flips = {flips.at_initial(die):.10f}  (exactly 11/3)")

print("\ncost-bounded: probability of rolling within n flips")
for n in (2, 3, 4, 6, 10, 20):
    v = cost_bounded_reach(die, "rolled", n)
    print(f"  C < {n:>2}: {v:.6f}")

biased = build_model(parse_file(MODELS / "die.mgcl"), {"p": Fraction("0.3")})
for text in ('P<=0.1 [F "one"]', 'P<=0.05 [F "one"]', 'ECmin=? [F "rolled"]'):
    spec = parse_property(text)
    verdict, value = check_spec(biased, spec)
    tag = "" if verdict is None else ("  SATISFIED" if verdict else "  VIOLATED")
    print(f'  p=0.3: {text:<24} value={value:.6f}{tag}')

chain = instantiate(
    build_model(parse_file(MODELS / "two_stage.mgcl")),
    {"p": Fraction("0.6"), "q": Fraction("0.3"), "r": Fraction("0.4"), "s": Fraction("0.7")},
)
vec, _ = reach_prob(chain, "s2")
print(f"\ntwo-stage chain at (0.6, 0.3, 0.4, 0.7): Pr(F s2) = {vec.at_initial(chain)}")

# value iteration runs on MDPs: the two-stage family with its configuration
# chosen by the controller
controlled = build_model(transform_all(parse_file(MODELS / "two_stage.mgcl"))[0])
for direction in ("min", "max"):
    vec, _ = reach_prob(controlled, "s2", direction)
    print(f"controlled two-stage MDP: P{direction}(F s2) = {vec.at_initial(controlled):.6f}"
          f"   ({vec.iterations} sweeps, residual {vec.residual:.2e})")

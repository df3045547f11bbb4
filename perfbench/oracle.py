"""Reference answers the benchmark checks every operation against.

None of these depend on the code path being timed: the shipyard answers
come from per-configuration tables stored with the benchmark (made once by
``make_reference.py`` at the seed commit), the retry-channel answers from
closed forms.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# the synthesis module's feasibility, tie-break and agreement tolerances,
# copied rather than imported so that a change to the library cannot move
# the reference
FEASIBILITY_TOL = 1e-9
TIE_TOL = 1e-9
AGREEMENT_TOL = 1e-6


class Mismatch(AssertionError):
    """An answer differs from its reference."""


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_table(name: str, source_text: str) -> list:
    """The stored table as (valuation, expected cost, reach probability)
    rows, after checking it was made from exactly this model source."""
    data = json.loads((REFERENCE_DIR / f"{name}.json").read_text(encoding="utf-8"))
    if data["source_sha256"] != text_digest(source_text):
        raise Mismatch(f"reference table {name} was made from another model source")
    return [
        ({p: Fraction(v) for p, v in row["valuation"].items()}, row["ec"], row["pr"])
        for row in data["table"]
    ]


def feasible(ec: float, pr: float, lam: float) -> bool:
    return pr <= lam + FEASIBILITY_TOL and math.isfinite(ec)


def optimum(table: list, lam: float):
    """The table row the enumeration route must return for bound ``lam``:
    least expected cost among feasible rows, earliest row on ties."""
    best = None
    for row in table:
        _, ec, pr = row
        if feasible(ec, pr, lam) and (best is None or ec < best[1] - TIE_TOL):
            best = row
    return best


def _close(a, b, what: str) -> None:
    if a is None or not abs(a - b) <= AGREEMENT_TOL:
        raise Mismatch(f"{what}: got {a!r}, reference {b!r}")


def check_answer(result, table: list, lam: float) -> None:
    """A synthesis result against the table optimum for ``lam``."""
    best = optimum(table, lam)
    if best is None:
        if result.feasible:
            raise Mismatch("feasible answer where the reference has none")
        return
    if not result.feasible:
        raise Mismatch("infeasible answer where the reference has one")
    valuation, ec, pr = best
    if dict(result.valuation) != valuation:
        raise Mismatch(f"valuation: got {result.valuation}, reference {valuation}")
    _close(result.expected_cost, ec, "expected cost")
    _close(result.reach_probability, pr, "reach probability")


def check_table(result, table: list, lam: float) -> None:
    """The whole per-configuration table, in order, feasibility included."""
    if len(result.table) != len(table):
        raise Mismatch(f"table has {len(result.table)} rows, reference {len(table)}")
    for i, (entry, (valuation, ec, pr)) in enumerate(zip(result.table, table)):
        if dict(entry.valuation) != valuation:
            raise Mismatch(f"table row {i}: valuation {entry.valuation}, reference {valuation}")
        _close(entry.expected_cost, ec, f"table row {i} expected cost")
        _close(entry.reach_probability, pr, f"table row {i} reach probability")
        if entry.feasible != feasible(ec, pr, lam):
            raise Mismatch(f"table row {i}: feasible={entry.feasible}")


def retry_closed_forms(loss: Fraction, retries: int, limit: int, loss_values) -> dict:
    """Exact per-state answers on the retry channel, keyed by (model,
    property text).  Each answer is a function of a state's variables (a
    dict by name), so a check covers every state, not only the initial one.

    With ``k = retries - n`` attempts left and q the loss rate, giving up
    needs k losses in a row (q^k), and the expected number of further
    attempts is the geometric sum (1 - q^k)/(1 - q).  In the cost-bounded
    product (extra variable ``_budget``) every attempt costs one unit and
    the target must be entered with budget left, so with budget b delivery
    has to come within min(b - 1, k) attempts.  On the controlled MDP the
    strategy picks the loss value once, at the initial state, and a flag
    ``_q_loss_<i>`` records the pick; at the initial state the optima are
    the extremes over the declared value set.
    """
    q = float(loss)
    values = [float(v) for v in loss_values]

    def left(s):
        return retries - s["n"]

    def gaveup(s):
        return 0.0 if s["done"] else q ** left(s)

    def attempts(s):
        return 0.0 if s["done"] else (1 - q ** left(s)) / (1 - q)

    def delivered(s):
        budget = s["_budget"]
        if s["done"]:
            return 1.0 if budget >= 1 else 0.0
        return 1 - q ** max(0, min(budget - 1, left(s)))

    def gaveup_picked(extreme):
        def value(s):
            if s["done"]:
                return 0.0
            picked = [v for i, v in enumerate(values) if s.get(f"_q_loss_{i}")]
            if len(picked) > 1:
                raise Mismatch(f"state {s} records more than one loss value")
            return extreme(picked or values) ** left(s)

        return value

    return {
        ("chain", 'Pmax=? [F "gaveup"]'): gaveup,
        ("chain", 'ECmin=? [F "stopped"]'): attempts,
        ("chain", f'P=? [F{{C<{limit}}} "delivered"]'): delivered,
        ("mdp", 'Pmax=? [F "gaveup"]'): gaveup_picked(max),
        ("mdp", 'Pmin=? [F "gaveup"]'): gaveup_picked(min),
    }


# loss^R leaves double precision's normal range for loss = 0.1 from R = 308
# on: below this a closed form only says "zero", so a value there must be
# below it too
UNDERFLOW = 1e-300


def check_value(got: float, want: float, what: str) -> None:
    """A checked number within 1e-6 relative error.  There is no absolute
    floor above ``UNDERFLOW``, so 0 is not accepted for a value of 1e-159."""
    if not abs(got - want) <= AGREEMENT_TOL * abs(want) + UNDERFLOW:
        raise Mismatch(f"{what}: got {got!r}, closed form {want!r}")


def check_vector(model, values, closed_form, what: str) -> None:
    """Every state's value against the closed form for that state."""
    if len(values) != model.num_states:
        raise Mismatch(f"{what}: {len(values)} values for {model.num_states} states")
    for state, got in zip(model.states, values):
        s = dict(zip(model.var_names, state))
        check_value(float(got), closed_form(s), f"{what} at {s}")

"""Dense two-phase primal simplex with Bland's anti-cycling rule.

Desk-scale only (fixed caps of 1e4 variables, ``DEFAULT_VAR_CAP``, and of
2.5e7 tableau entries, ``DEFAULT_TABLEAU_CAP``): the point is zero external
solver dependencies and bit-reproducible pivoting.  Variables are
nonnegative; constraints may be <=, = or >=.  A program is its dense
constraint matrix with one sense and one right-hand side per row, the form
``scipy.optimize.linprog`` also takes; the matrix goes into the tableau in
one assignment.  Every entry must be finite.  ``solve_lp(lp, *, secondary)``
solves it.

A pivot takes one of two forms, chosen from the tableau's row count.  Below
``_WIDE_ROWS`` rows it subtracts the outer product of the pivot column and
the pivot row from the whole tableau, and Python loops scan for the entering
column and the leaving row.  From ``_WIDE_ROWS`` rows on it updates only the
rows whose pivot-column factor is nonzero, and numpy finds the entering
column and the ratio test's candidate rows; the tie rule of the ratio test
still runs in order over the candidates.  Numpy finds the column that
drives an artificial variable out at every size.  As long as no entry
overflows, both forms make the same pivots and the same tableau bits,
because outside the right-hand-side column the tableau never holds -0.0:
its zeros start as +0.0, and ``x - f * p`` is -0.0 only where ``x`` is.
Subtracting ``0.0 * p`` from a row of the whole-tableau form is then a
no-op, except that it turns a -0.0 into +0.0 in the pivot row (which a
negative pivot or an underflow can leave) and in a right-hand side where
``p`` has its sign bit set; the row-subset form makes exactly those two
rewrites.  Finite input does not rule out an overflow: dividing a pivot row
of [[1e-8, 1e305], [0, 1]] by 1e-8 makes an infinity, and ``0.0 * inf``
then writes NaN into the rows the whole-tableau form updates with a zero
factor, which the row-subset form leaves alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

PIVOT_TOL = 1e-9
DEFAULT_VAR_CAP = 10_000
# 200 MB of float64, which admits the largest tableaux of the one-mission
# shipyard model's transformed route: 740 x 1839 entries with uniform
# grades, 2954 x 7347 with per-sensor grades
DEFAULT_TABLEAU_CAP = 25_000_000
# the row count from which a pivot updates only the rows it changes and the
# pivot loop scans in numpy: on the LPs of random programs the two wide
# forms together take more time than the whole-tableau update and the
# Python scans below 32 rows and less from 32 rows on (per-size
# measurements in BENCH_25.json)
_WIDE_ROWS = 32


class LpError(ValueError):
    pass


class LpSizeError(LpError):
    pass


_FLIPPED = {"<=": ">=", ">=": "<=", "=": "="}


@dataclass
class LinearProgram:
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


@dataclass
class LpSolution:
    status: str  # 'optimal' | 'infeasible' | 'unbounded'
    x: Optional[np.ndarray]
    objective: Optional[float]


def solve_lp(lp: LinearProgram, *, secondary: Optional[np.ndarray] = None) -> LpSolution:
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
    if secondary is not None:
        secondary = np.asarray(secondary, dtype=np.float64)
        if secondary.shape != (n,):
            raise LpError(f"a secondary objective of shape {secondary.shape} "
                          f"for {n} variables")
        if not np.isfinite(secondary).all():
            raise LpError("non-finite entries in the secondary objective")

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
    cost2[:n] = lp.objective
    z = _price_out(tab, basis, cost2)
    status = _pivot_loop(tab, basis, z, allowed)
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
        z3 = _price_out(tab, basis, cost3)
        _pivot_loop(tab, basis, z3, face)  # unbounded face: keep current point

    x = np.zeros(n)
    for i, b in enumerate(basis):
        if 0 <= b < n:
            x[b] = tab[i, -1]
    used = np.flatnonzero(lp.objective)  # summed in index order, as a float
    objective = float(sum(lp.objective[used] * x[used]))
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
    if tab.shape[0] >= _WIDE_ROWS:
        return _wide_pivot_loop(tab, basis, z, allowed)
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
        _pivot(tab, z, leave, enter)
        basis[leave] = enter


def _wide_pivot_loop(tab: np.ndarray, basis: List[int], z: np.ndarray,
                     allowed: np.ndarray) -> str:
    """``_pivot_loop`` with numpy scans: the first eligible column, and the
    ratios of the rows with a positive entry in it, which the tie rule then
    reads in row order as the Python scan does."""
    reduced = z[:-1]  # _pivot updates z in place
    rhs = tab[:, -1]
    while True:
        eligible = allowed & (reduced < -PIVOT_TOL)
        enter = int(eligible.argmax())  # Bland: lowest eligible index
        if not eligible[enter]:
            return "optimal"
        col = tab[:, enter]
        rows = (col > PIVOT_TOL).nonzero()[0]
        if not len(rows):
            return "unbounded"
        best_ratio = None
        leave = -1
        for i, ratio in zip(rows.tolist(), (rhs[rows] / col[rows]).tolist()):
            if (
                best_ratio is None
                or ratio < best_ratio - PIVOT_TOL
                or (abs(ratio - best_ratio) <= PIVOT_TOL and basis[i] < basis[leave])
            ):
                best_ratio = ratio
                leave = i
        _pivot(tab, z, leave, enter)
        basis[leave] = enter


def _pivot(tab: np.ndarray, z: np.ndarray, row: int, col: int) -> None:
    tab[row] /= tab[row, col]
    piv = tab[row]
    factors = tab[:, col].copy()
    factors[row] = 0.0
    if tab.shape[0] < _WIDE_ROWS:
        tab -= np.outer(factors, piv)
    else:
        # the whole-tableau update on the rows with a nonzero factor, by
        # the pivot row as it came out of the division; a row with a zero
        # factor only loses a -0.0 (see the module docstring)
        rows = factors.nonzero()[0]
        tab[rows] -= factors[rows, None] * piv
        if math.copysign(1.0, piv[-1]) < 0.0:
            tab[factors == 0.0, -1] += 0.0
        tab[row] += 0.0
    if z[col] != 0.0:
        z -= z[col] * piv


def _drive_out_artificials(tab: np.ndarray, basis: List[int], art: set) -> None:
    m, ncols = tab.shape
    others = np.ones(ncols - 1, dtype=bool)
    others[list(art)] = False
    for i in range(m):
        if basis[i] in art:
            eligible = others & (np.abs(tab[i, :-1]) > PIVOT_TOL)
            pivot_col = int(eligible.argmax())  # the first eligible column
            if eligible[pivot_col]:
                dummy = np.zeros(ncols)
                _pivot(tab, dummy, i, pivot_col)
                basis[i] = pivot_col
            else:
                # redundant row: basic artificial at level ~0, leave in place
                tab[i, :] = 0.0

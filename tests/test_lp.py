"""The dense simplex on matrix programs, against the former solver
(``oracles.seed_solve_lp``), which took its rows as dicts and copied them
into the tableau entry by entry, and against the former simplex
(``oracles.former_solve_lp``), which updated the whole tableau at every
pivot."""

import hashlib
import random
import tracemalloc
import warnings

import numpy as np
import pytest

import oracles
from mimdp import lp as lp_module
from mimdp import synthesis
from mimdp.expressions import ExprError
from mimdp.lp import LinearProgram, LpError, LpSizeError, solve_lp
from mimdp.models import ModelError
from mimdp.parser import parse_program
from mimdp.program import pretty
from mimdp.synthesis import SynthesisError, synthesize
from mimdp.transform import TransformError
from test_family_cache import _gen


def _lp(objective, rows, senses, rhs):
    return LinearProgram(objective, np.reshape(rows, (len(rhs), len(objective))), senses, rhs)


def test_basic_minimum():
    # min x0 + x1  s.t. x0 + x1 >= 2, x0 <= 5
    lp = _lp([1.0, 1.0], [[1.0, 1.0], [1.0, 0.0]], [">=", "<="], [2.0, 5.0])
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert abs(sol.objective - 2.0) < 1e-9


def test_equality_constraints():
    # min 2a + 3b s.t. a + b = 4, a - b = 0  -> a = b = 2
    lp = _lp([2.0, 3.0], [[1.0, 1.0], [1.0, -1.0]], ["=", "="], [4.0, 0.0])
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert np.allclose(sol.x, [2.0, 2.0])
    assert abs(sol.objective - 10.0) < 1e-9


def test_infeasible():
    lp = _lp([1.0], [[1.0], [1.0]], ["<=", ">="], [1.0, 2.0])
    assert solve_lp(lp).status == "infeasible"


def test_unbounded():
    lp = _lp([-1.0], [[-1.0]], ["<="], [0.0])
    assert solve_lp(lp).status == "unbounded"


def test_negative_rhs_normalization():
    # min x s.t. -x <= -3  (i.e. x >= 3), and -x >= -5, -x = -4 flipped alike
    for sense, rhs, want in (("<=", -3.0, 3.0), (">=", -5.0, 0.0), ("=", -4.0, 4.0)):
        sol = solve_lp(_lp([1.0], [[-1.0]], [sense], [rhs]))
        assert sol.status == "optimal" and abs(sol.x[0] - want) < 1e-9


def test_blands_rule_survives_the_classic_cycling_example():
    # Beale's cycling instance; Dantzig pricing cycles on it, Bland must not
    lp = _lp(
        [-0.75, 150.0, -0.02, 6.0],
        [[0.25, -60.0, -1.0 / 25.0, 9.0], [0.5, -90.0, -1.0 / 50.0, 3.0], [0.0, 0.0, 1.0, 0.0]],
        ["<=", "<=", "<="],
        [0.0, 0.0, 1.0],
    )
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert abs(sol.objective - (-0.05)) < 1e-9


def test_degenerate_vertex():
    lp = _lp(
        [-1.0, -1.0],
        [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],  # the last is redundant at the optimum
        ["<=", "<=", "<="],
        [1.0, 1.0, 2.0],
    )
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert abs(sol.objective + 2.0) < 1e-9


def test_zero_variable_program():
    for kwargs in ({}, {"secondary": np.zeros(0)}):
        sol = solve_lp(_lp([], [], [], []), **kwargs)
        assert sol.status == "optimal" and sol.objective == 0.0


def test_size_cap():
    with pytest.raises(LpSizeError):
        solve_lp(_lp(np.zeros(20_001), [], [], []))


def test_tableau_cap_raises_before_allocating():
    # one variable, but every >= row brings a surplus and an artificial
    # column: 3600 rows make a tableau of 3600 x 7202 entries (207 MB)
    m = 3600
    lp = _lp([1.0], np.ones((m, 1)), [">="] * m, np.ones(m))
    tracemalloc.start()
    try:
        with pytest.raises(LpSizeError, match="3600 rows and 7202 columns exceeds .* 25000000"):
            solve_lp(lp)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def test_determinism():
    lp = _lp([1.0, 2.0, 0.5], [[1.0, 1.0, 1.0], [1.0, 0.0, -1.0]], ["=", ">="], [1.0, 0.2])
    a = solve_lp(lp)
    b = solve_lp(lp)
    assert a.status == b.status == "optimal"
    assert np.array_equal(a.x, b.x)


def test_a_malformed_program_is_rejected():
    with pytest.raises(LpError, match=r"\(1, 3\) matrix and 1 senses for 1 rows of 2 variables"):
        LinearProgram([1.0, 1.0], np.zeros((1, 3)), ["<="], [1.0])
    with pytest.raises(LpError, match="1 senses for 2 rows"):
        LinearProgram([1.0], np.zeros((2, 1)), ["<="], [1.0, 2.0])
    with pytest.raises(LpError, match="bad constraint senses"):
        LinearProgram([1.0], np.zeros((1, 1)), ["<"], [1.0])
    # non-finite entries: the former solver answered 'optimal' on both
    # (x = [1, 0] and x = [nan, 0])
    with pytest.raises(LpError, match="non-finite entries in the constraints"):
        LinearProgram([1.0, 1.0], [[1.0, np.inf]], [">="], [1.0])
    with pytest.raises(LpError, match="non-finite entries in the rhs"):
        LinearProgram([1.0, 1.0], [[1.0, 1.0]], [">="], [np.nan])
    with pytest.raises(LpError, match="non-finite entries in the objective"):
        LinearProgram([-np.inf, 1.0], [[1.0, 1.0]], ["<="], [1.0])
    # a secondary objective of another length than the variables: the
    # former solver broadcast one entry and failed in numpy on three
    lp = _lp([1.0, 1.0], [[1.0, 1.0]], [">="], [1.0])
    for secondary in ([1.0], [1.0, 2.0, 3.0], [[1.0, 2.0]]):
        with pytest.raises(LpError, match=r"secondary objective of shape .* for 2 variables"):
            solve_lp(lp, secondary=np.array(secondary))
    with pytest.raises(LpError, match="non-finite entries in the secondary objective"):
        solve_lp(lp, secondary=np.array([np.nan, 1.0]))


def test_a_flipped_row_keeps_positive_zeros(monkeypatch):
    # the former solver added 0.0 + scale * v per entry, so every zero of
    # the tableau is +0.0: -v would make the zeros of a row with a negative
    # right-hand side -0.0, and a -0.0 in another row would stay
    tableaus = []
    pivot_loop = lp_module._pivot_loop

    def spy(tab, *args):
        tableaus.append(tab.copy())
        return pivot_loop(tab, *args)

    monkeypatch.setattr(lp_module, "_pivot_loop", spy)
    sol = solve_lp(_lp([1.0, 1.0], [[-1.0, 0.0], [0.0, -0.0]], [">=", "<="], [-1.0, 1.0]))
    assert sol.status == "optimal"
    first = tableaus[0]
    assert first[0, 1] == first[1, 1] == 0.0
    assert not np.signbit(first[first == 0.0]).any()


# ---------------------------------------------------------------------------
# the former solver

# -0.0 among the zeros: a sign of zero the solver flips or keeps shows in x
_VALUES = [0.0] * 5 + [-0.0, 1.0, -1.0, 0.5, -0.25, 2.0, 1.0 / 3.0, -2.0 / 3.0, 3.0, 0.1]


def _random_program(rng: random.Random):
    n = rng.randrange(0, 6)
    m = rng.randrange(0 if n else 1, 6)  # the empty program is tested above
    objective = [rng.choice(_VALUES) for _ in range(n)]
    rows = [[rng.choice(_VALUES) for _ in range(n)] for _ in range(m)]
    for row in rows:
        if rng.random() < 0.1:
            row[:] = [0.0] * n  # a zero row
    senses = [rng.choice(("<=", "<=", "=", ">=")) for _ in range(m)]
    rhs = [rng.choice(_VALUES + [-1.5, -3.0]) for _ in range(m)]
    if n and rng.random() < 0.3:
        # a box over every variable, so many programs are bounded
        rows.append([1.0] * n)
        senses.append("<=")
        rhs.append(rng.choice([1.0, 4.0]))
    secondary = [rng.choice(_VALUES) for _ in range(n)]
    return objective, rows, senses, rhs, secondary


def _as_dict(values):
    return {j: v for j, v in enumerate(values) if v != 0.0}


def _bits(x):
    return None if x is None else np.asarray(x, dtype=np.float64).tobytes()


def test_random_programs_solve_as_with_the_former_solver():
    """Identical status, and ``x`` and the objective bit for bit (so also
    the sign of every zero), with and without a secondary objective."""
    rng = random.Random(20260918)
    statuses = []
    for _ in range(400):
        objective, rows, senses, rhs, secondary = _random_program(rng)
        lp = _lp(objective, rows, senses, rhs)
        seed = oracles.SeedLinearProgram(len(objective), _as_dict(objective))
        for row, sense, b in zip(rows, senses, rhs):
            seed.add(_as_dict(row), sense, b)
        for second in (None, secondary):
            got = solve_lp(lp, secondary=None if second is None else np.array(second))
            want = oracles.seed_solve_lp(
                seed, secondary=None if second is None else _as_dict(second)
            )
            assert got.status == want.status
            assert _bits(got.x) == _bits(want.x)
            assert _bits(got.objective) == _bits(want.objective)
            statuses.append(got.status)
    for status in ("optimal", "infeasible", "unbounded"):
        assert statuses.count(status) >= 80, (status, statuses.count(status))


# ---------------------------------------------------------------------------
# the former simplex, which updated the whole tableau at every pivot
# (``oracles.former_solve_lp``): from ``_WIDE_ROWS`` rows on, a pivot now
# updates only the rows it changes and the scans run in numpy


class _Pivots:
    """Counts the calls of ``module.name``, the pivot step, and digests the
    tableau and the objective row after each, per solve."""

    def __init__(self, monkeypatch, module, name):
        self.count = 0
        self.negative = self.degenerate = 0
        inner = getattr(module, name)

        def spy(tab, z, row, col):
            self.count += 1
            self.negative += bool(tab[row, col] < 0.0)  # only a drive-out pivot can be
            self.degenerate += bool(tab[row, -1] == 0.0)
            inner(tab, z, row, col)
            self.digest.update(tab.tobytes())
            self.digest.update(z.tobytes())

        monkeypatch.setattr(module, name, spy)

    def solve(self, solver, lp, secondary):
        """The solution, and its bits with the pivot count and digest."""
        before = self.count
        self.digest = hashlib.sha256()
        sol = solver(lp, secondary=secondary)
        return sol, (sol.status, _bits(sol.x), _bits(sol.objective), self.count - before,
                     self.digest.hexdigest())


def _differential(monkeypatch):
    """A function that solves a program with ``solve_lp`` and the former
    solver, asserts that the status, ``x``, the objective, the pivot count
    and the tableau after every pivot agree bit for bit, and returns the
    new solver's solution; and the counter of the new solver's pivots."""
    new = _Pivots(monkeypatch, lp_module, "_pivot")
    former = _Pivots(monkeypatch, oracles, "former_pivot")

    def solve(lp, *, secondary=None):
        sol, got = new.solve(solve_lp, lp, secondary)
        _, want = former.solve(oracles.former_solve_lp, lp, secondary)
        assert got == want, (lp.constraints.shape, got[0], want[0], got[3], want[3])
        return sol

    return solve, new


# dyadic entries and a dyadic point, so every row value at the point is exact
_ENTRIES = [0.0] * 10 + [1.0, -1.0, 2.0, -2.0, 0.5, -0.5, 3.0]
_POINT = [0.0] * 4 + [0.5, 1.0, 2.0]


def _wide_program(rng: random.Random):
    """A program of ``_WIDE_ROWS`` to ``_WIDE_ROWS + 24`` rows, feasible by
    construction: every row holds at a point ``x0`` with many zero entries.
    Rows tight at ``x0`` make degenerate vertices; a zero right-hand side is
    often -0.0; negated copies of equality rows are redundant, and equality
    rows whose first entry is negative make drive-out pivots negative."""
    n = rng.randrange(6, 40)
    m = rng.randrange(lp_module._WIDE_ROWS, lp_module._WIDE_ROWS + 25)
    x0 = [rng.choice(_POINT) for _ in range(n)]
    rows, senses, rhs = [], [], []
    while len(rows) < m:
        if rows and rng.random() < 0.15:
            k = rng.randrange(len(rows))
            sign = rng.choice((1.0, -1.0, 2.0))
            row = [sign * v for v in rows[k]]
        else:
            row = [rng.choice(_ENTRIES) for _ in range(n)]
            if rng.random() < 0.3:
                j = rng.randrange(n)
                row[:j] = [0.0] * j
                row[j] = -1.0  # an equality row's first entry, negative
        value = sum(a * x for a, x in zip(row, x0))
        sense = rng.choice(("=", "=", "<=", ">="))
        slack = 0.0 if sense == "=" else rng.choice((0.0, 0.0, 1.0, 2.5))
        b = value + slack if sense == "<=" else value - slack
        if b == 0.0 and rng.random() < 0.5:
            b = -0.0
        rows.append(row)
        senses.append(sense)
        rhs.append(b)
    objective = [rng.choice(_ENTRIES) for _ in range(n)]
    if rng.random() < 0.7:
        rows[-1] = [1.0] * n  # a box, so most programs are bounded
        senses[-1] = "<="
        rhs[-1] = sum(x0) + rng.choice((0.0, 3.0))
    elif rng.random() < 0.5 and 0.0 in x0:
        j = x0.index(0.0)  # a variable in no row, which the objective rewards
        for row in rows:
            row[j] = 0.0
        objective[j] = -1.0
    secondary = [rng.choice(_ENTRIES) for _ in range(n)]
    return _lp(objective, rows, senses, rhs), np.array(secondary)


def test_wide_programs_solve_as_with_the_former_solver(monkeypatch):
    """Above the size switch, with -0.0 right-hand sides, negative
    drive-out pivots and degenerate vertices: the same status, ``x``,
    objective and pivot count as the whole-tableau solver, bit for bit."""
    solve, pivots = _differential(monkeypatch)
    rng = random.Random(20261020)
    statuses = []
    negative_zero_rhs = 0
    for _ in range(150):
        lp, secondary = _wide_program(rng)
        negative_zero_rhs += int(np.sum((lp.rhs == 0.0) & np.signbit(lp.rhs)))
        for second in (None, secondary):
            statuses.append(solve(lp, secondary=second).status)
    assert statuses.count("optimal") >= 200, statuses.count("optimal")
    assert statuses.count("unbounded") >= 10, statuses.count("unbounded")
    assert "infeasible" not in statuses
    assert negative_zero_rhs >= 100, negative_zero_rhs
    assert pivots.negative >= 50, pivots.negative
    assert pivots.degenerate >= 500, pivots.degenerate


def test_small_programs_take_the_wide_form_as_the_former_solver(monkeypatch):
    """The row-subset update and the numpy scans on the small random
    programs above, zero-row and zero-variable ones included: every
    program takes the wide form when the switch is at zero rows."""
    monkeypatch.setattr(lp_module, "_WIDE_ROWS", 0)
    solve, pivots = _differential(monkeypatch)
    rng = random.Random(20260918)
    for _ in range(400):
        objective, rows, senses, rhs, secondary = _random_program(rng)
        lp = _lp(objective, rows, senses, rhs)
        for second in (None, np.array(secondary)):
            solve(lp, secondary=second)
    assert pivots.count >= 500, pivots.count


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_every_lp_of_the_random_corpus_solves_as_with_the_former_solver(seed, monkeypatch):
    """Every LP that ``synthesize(method="both")`` solves on the benchmark's
    random corpus, on both sides of the size switch."""
    solve, _ = _differential(monkeypatch)
    shapes = []

    def compared(lp, *, secondary=None):
        shapes.append(lp.constraints.shape)
        return solve(lp, secondary=secondary)

    monkeypatch.setattr(synthesis, "solve_lp", compared)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for generated, query in _gen().random_corpus(seed):
            try:
                synthesize(parse_program(pretty(generated)), query)
            except (SynthesisError, ModelError, TransformError, ExprError):
                pass
    wide = sum(m >= lp_module._WIDE_ROWS for m, _ in shapes)
    assert len(shapes) > 500 and 0 < wide < len(shapes), (len(shapes), wide)

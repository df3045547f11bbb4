"""The dense simplex on matrix programs, and against the former solver
(``oracles.seed_solve_lp``), which took its rows as dicts and copied them
into the tableau entry by entry."""

import random
import tracemalloc

import numpy as np
import pytest

import oracles
from mimdp import lp as lp_module
from mimdp.lp import LinearProgram, LpError, LpSizeError, solve_lp


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

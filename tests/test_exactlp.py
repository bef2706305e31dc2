from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from nucleo.exactlp import (
    ExactLinearProgram,
    LinearConstraint,
    MalformedProgram,
    SolverInternalError,
    _certificate,
    _solve_phases,
    _StandardForm,
    _Tableau,
    _verify_optimal,
    solve,
)


def lp(nv, obj, sense="min", cons=(), lb=None, ub=None):
    return ExactLinearProgram(
        num_vars=nv,
        objective=tuple(F(c) for c in obj),
        sense=sense,
        constraints=[LinearConstraint.make(c, r, b) for c, r, b in cons],
        lower_bounds=lb,
        upper_bounds=ub,
    )


def test_min_with_lower_bound_constraint():
    sol = solve(lp(1, [1], cons=[([1], ">=", 3)]))
    assert sol.status == "optimal"
    assert sol.values == (F(3),)
    assert sol.objective_value == F(3)
    assert sol.duals == (F(1),)  # a positive dual: the constraint is active


def test_symmetric_two_player_epsilon_program():
    # min eps s.t. x1 + x2 = 1, 1 - x1 <= eps, 1 - x2 <= eps, x >= 0
    prog = lp(
        3, [0, 0, 1],
        cons=[([1, 1, 0], "=", 1),
              ([-1, 0, -1], "<=", -1),
              ([0, -1, -1], "<=", -1)],
        lb=(F(0), F(0), None),
    )
    sol = solve(prog)
    assert sol.status == "optimal"
    assert sol.values == (F(1, 2), F(1, 2), F(1, 2))
    assert sol.objective_value == F(1, 2)


def test_unbounded():
    assert solve(lp(1, [1], sense="max")).status == "unbounded"


def test_infeasible_and_feasibility_witness():
    prog = lp(1, [0], cons=[([1], ">=", 1), ([1], "<=", 0)])
    sol = solve(prog)
    assert sol.status == "infeasible" and sol.values is None

    # a zero objective makes any optimum a feasibility witness
    sol = solve(lp(2, [0, 0], cons=[([1, 1], "=", 1)]))
    assert sol.status == "optimal"
    assert sum(sol.values) == F(1) and all(v >= 0 for v in sol.values)


def test_duality_certificate_exposed():
    # max 3x + 2y s.t. x + y <= 4, x + 3y <= 6, x <= 3
    prog = lp(2, [3, 2], sense="max",
              cons=[([1, 1], "<=", 4), ([1, 3], "<=", 6)],
              ub=(F(3), None))
    sol = solve(prog)
    assert sol.objective_value == F(11)
    y = sol.duals
    # dual feasibility and complementary value for the max problem
    assert all(v >= 0 for v in y)
    assert y[0] * 4 + y[1] * 6 <= F(11)


def test_exactness_of_solutions():
    prog = lp(
        3, [F(1, 3), F(1, 7), F(2, 5)],
        cons=[([1, 1, 1], "=", 1), ([F(1, 2), -1, 0], ">=", F(-1, 3))],
    )
    sol = solve(prog)
    assert sol.status == "optimal"
    x = sol.values
    assert sum(x) == F(1)
    assert F(1, 2) * x[0] - x[1] >= F(-1, 3)
    assert sol.objective_value == sum(c * v for c, v in zip(prog.objective, x))


def test_deterministic_resolve():
    prog = lp(
        4, [1, 1, 0, 0],
        cons=[([1, 1, 1, 1], "=", 2), ([1, -1, 0, 0], ">=", 0),
              ([0, 0, 1, -1], "<=", 1)],
    )
    first = solve(prog)
    for _ in range(3):
        again = solve(prog)
        assert again.values == first.values
        assert again.objective_value == first.objective_value


def test_malformed_programs_rejected():
    with pytest.raises(MalformedProgram):
        ExactLinearProgram(num_vars=0, objective=())
    with pytest.raises(MalformedProgram):
        lp(2, [1])
    with pytest.raises(MalformedProgram):
        lp(1, [1], cons=[([1, 2], "<=", 1)])
    with pytest.raises(MalformedProgram):
        lp(1, [1], cons=[([1], "<>", 1)])
    with pytest.raises(MalformedProgram):
        lp(1, [1], sense="argmin")
    # a float would enter as its binary expansion: 0.1 x >= 0.3 would
    # "solve" to x = 10808639105689190/3602879701896397 instead of 3
    with pytest.raises(MalformedProgram):
        LinearConstraint.make([0.1], ">=", F(3, 10))
    with pytest.raises(MalformedProgram):
        LinearConstraint.make([F(1, 10)], ">=", 0.3)
    with pytest.raises(MalformedProgram):
        LinearConstraint([1, 2.0], "<=", 1)
    with pytest.raises(MalformedProgram):
        ExactLinearProgram(num_vars=1, objective=(0.1,))
    with pytest.raises(MalformedProgram):
        lp(1, [1], lb=(0.5,))
    with pytest.raises(MalformedProgram):
        lp(1, [1], ub=(1.5,))
    prog = lp(1, [1])
    with pytest.raises(MalformedProgram):
        prog.add_constraint([0.1], ">=", 0.3)
    assert prog.constraints == []


def test_exact_inputs_keep_their_type():
    con = LinearConstraint.make([1, F(1, 2), 0], "<=", 3)
    assert [type(c) for c in con.coeffs] == [int, F, int]
    assert type(con.rhs) is int
    prog = ExactLinearProgram(num_vars=2, objective=(1, F(1, 3)),
                              lower_bounds=(F(1, 2), None), upper_bounds=(4, None))
    assert [type(c) for c in prog.objective] == [int, F]
    assert prog.lower_bounds == (F(1, 2), None) and prog.upper_bounds == (4, None)
    sol = solve(lp(1, [F(1, 10)], cons=[([F(1, 10)], ">=", F(3, 10))]))
    assert sol.values == (F(3),) and sol.objective_value == F(3, 10)
    assert all(type(v) is F for v in sol.values + sol.duals)


def test_equality_with_free_variable():
    prog = lp(2, [0, 1], cons=[([-1, 1], "=", -5), ([1, 0], "<=", 2)],
              lb=(F(0), None))
    sol = solve(prog)
    assert sol.values == (F(0), F(-5))


def test_feasible_homogeneity_system():
    """The homogeneity system of the game [3; 2,1,1,1] is feasible.

    Variables w1..w4, q.  Minimal winning coalitions give equalities
    w(S) = q; maximal losing coalitions give w(L) <= q - 1; the witness is
    re-verified against every row.
    """
    mwcs = [(0, 1), (0, 2), (0, 3), (1, 2, 3)]
    losers = [(0,), (1, 2), (1, 3), (2, 3)]
    cons = []
    for S in mwcs:
        row = [F(1) if i in S else F(0) for i in range(4)] + [F(-1)]
        cons.append((row, "=", 0))
    for L in losers:
        row = [F(1) if i in L else F(0) for i in range(4)] + [F(-1)]
        cons.append((row, "<=", -1))
    prog = lp(5, [0] * 5, cons=cons,
              lb=(F(0), F(0), F(0), F(0), F(1)))
    sol = solve(prog)
    assert sol.status == "optimal"
    w, q = sol.values[:4], sol.values[4]
    for S in mwcs:
        assert sum(w[i] for i in S) == q
    for L in losers:
        assert sum(w[i] for i in L) <= q - 1


rationals = st.integers(-6, 6).flatmap(
    lambda p: st.integers(1, 4).map(lambda q: F(p, q))
)


@st.composite
def random_programs(draw):
    nv = draw(st.integers(1, 4))
    m = draw(st.integers(0, 4))
    obj = [draw(rationals) for _ in range(nv)]
    cons = []
    for _ in range(m):
        coeffs = [draw(rationals) for _ in range(nv)]
        rel = draw(st.sampled_from(["<=", "=", ">="]))
        rhs = draw(rationals)
        cons.append((coeffs, rel, rhs))
    sense = draw(st.sampled_from(["min", "max"]))
    has_ub = draw(st.booleans())
    ub = tuple(F(5) for _ in range(nv)) if has_ub else None
    return lp(nv, obj, sense=sense, cons=cons, ub=ub)


@given(random_programs())
@settings(max_examples=150, deadline=None)
def test_random_programs_solve_exactly(prog):
    """Trichotomy plus exact feasibility of returned optima.

    The solver internally verifies a dual certificate with matching
    objective value on every optimal solve, so this also exercises strong
    duality across random programs.
    """
    sol = solve(prog)
    assert sol.status in ("optimal", "infeasible", "unbounded")
    if sol.status != "optimal":
        return
    x = sol.values
    for j in range(prog.num_vars):
        lb = prog.lower_bounds[j]
        ub = prog.upper_bounds[j]
        if lb is not None:
            assert x[j] >= lb
        if ub is not None:
            assert x[j] <= ub
    for con in prog.constraints:
        lhs = sum((c * v for c, v in zip(con.coeffs, x)), F(0))
        if con.relation == "<=":
            assert lhs <= con.rhs
        elif con.relation == ">=":
            assert lhs >= con.rhs
        else:
            assert lhs == con.rhs
    assert sol.objective_value == sum(
        (c * v for c, v in zip(prog.objective, x)), F(0)
    )


# -- the exactness checks fire --------------------------------------------------


def test_zero_pivot_detected():
    tab = _Tableau(_StandardForm(lp(2, [1, 1], cons=[([2, 1], "<=", 4)])))
    del tab.T[0][0]  # the entry the pivot divides by is now zero
    with pytest.raises(SolverInternalError, match="zero pivot"):
        tab._pivot(0, 0)


def test_pivot_divisibility_checked():
    tab = _Tableau(_StandardForm(lp(2, [1, 1], cons=[([2, 1], "<=", 4),
                                                      ([1, 3], "<=", 6)])))
    tab._pivot(0, 0)
    assert tab.den == 2 and tab.T[1][1] == 5
    tab.T[1][1] = 6  # row 0 then updates its slack entry to (1*6 + 1) / 2
    with pytest.raises(SolverInternalError, match="divisibility"):
        tab._pivot(1, 1)


def _certified(prog):
    sf = _StandardForm(prog)
    status, tab, dropped = _solve_phases(sf)
    assert status == "optimal"
    z, y, d = _certificate(tab, dropped)
    _verify_optimal(sf, z, y, d)  # the untampered certificate passes
    return sf, z, y, d


# min x + y  s.t.  x + 2y >= 2, 3x + y >= 3: optimum (4/5, 3/5), duals (2/5, 1/5)
TWO_GE = lp(2, [1, 1], cons=[([1, 2], ">=", 2), ([3, 1], ">=", 3)])


def test_certificate_of_two_ge_rows():
    sf, z, y, d = _certified(TWO_GE)
    assert [F(v, d) for v in z] == [F(4, 5), F(3, 5)]
    assert [F(v, d * sf.obj_scale) for v in y] == [F(2, 5), F(1, 5)]
    assert solve(TWO_GE).duals == (F(2, 5), F(1, 5))


@pytest.mark.parametrize("tamper,message", [
    (lambda z, y: (z[:1] + [0], y), "primal verification failed"),
    (lambda z, y: (z, [-y[0], y[1]]), "dual sign verification failed"),
    (lambda z, y: (z, [2 * y[0], y[1]]), "dual feasibility verification failed"),
    (lambda z, y: (z, [0, 0]), "strong duality verification failed"),
])
def test_tampered_certificate_rejected(tamper, message):
    sf, z, y, d = _certified(TWO_GE)
    bad_z, bad_y = tamper(list(z), list(y))
    with pytest.raises(SolverInternalError, match=message):
        _verify_optimal(sf, bad_z, bad_y, d)

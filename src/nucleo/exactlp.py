"""Exact rational linear programming via fraction-free two-phase simplex.

Programs take exact numbers only: ``int`` and ``Fraction`` coefficients,
right-hand sides, objective entries and bounds are kept as given, and a
``float`` is refused with ``MalformedProgram`` (it would enter as its binary
expansion).  The internal standard form is built in integer arithmetic: each
row is scaled by the least common multiple of its denominators, and flipped
when its right-hand side is negative.

The tableau is an integer matrix ``T`` with a scalar divisor ``den`` such
that the true simplex tableau is ``T / den`` (fraction-free pivoting); each
pivot performs only integer multiplications and exact divisions, and every
division is checked to be exact.  Every row has one form, sparse
``{column: nonzero entry}``: the right-hand side is one more column, after
the artificials, that never enters the basis, and the reduced-cost row is
the last row, its right-hand-side entry the objective value.  A pivot
updates every row alike and touches nonzeros only.  Bland's rule is used
for both entering and leaving variables, so the solver cannot cycle and is
fully deterministic.  An artificial variable that leaves the
basis never enters it again, in either phase: fixing it at 0 keeps phase 1
on a face that holds the current solution and every feasible point, so the
phase-1 optimum is still 0 exactly when the program is feasible.  Every
entering column is therefore a stored one.  The artificial column of a
``>=`` row is never stored: it is minus the row's surplus column, so the
certificate reads that row's dual as minus the surplus column's reduced
cost.

For every optimal solve a dual certificate is read from the reduced costs
of the identity columns of the initial basis and verified against the
internal standard form in integers scaled by ``|den|`` and the objective
scale: primal feasibility, dual signs, dual feasibility and equality of the
primal and dual objective values are asserted before the solution is
returned.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

LE, EQ, GE = "<=", "=", ">="
_RELATIONS = (LE, EQ, GE)
_FLIPPED = {LE: GE, GE: LE, EQ: EQ}


class MalformedProgram(ValueError):
    pass


class SolverInternalError(RuntimeError):
    """The tableau reached a state the algorithm's invariants forbid."""


def _exact(v):
    """``v`` as an exact number: ``int`` and ``Fraction`` pass unchanged."""
    if isinstance(v, (int, Fraction)):
        return v
    if isinstance(v, numbers.Integral):
        return int(v)
    if isinstance(v, numbers.Rational):
        return Fraction(v)
    if isinstance(v, numbers.Real):
        raise MalformedProgram(f"inexact number {v!r}; use int or Fraction")
    try:
        return Fraction(v)
    except (TypeError, ValueError) as exc:
        raise MalformedProgram(f"not a number: {v!r}") from exc


def _exact_bounds(bounds, num_vars: int, name: str) -> tuple:
    out = tuple(None if b is None else _exact(b) for b in bounds)
    if len(out) != num_vars:
        raise MalformedProgram(f"{name} length mismatch")
    return out


@dataclass(frozen=True)
class LinearConstraint:
    coeffs: tuple
    relation: str
    rhs: int | Fraction

    def __post_init__(self):
        if self.relation not in _RELATIONS:
            raise MalformedProgram(f"unknown relation {self.relation!r}")
        object.__setattr__(self, "coeffs", tuple(_exact(c) for c in self.coeffs))
        object.__setattr__(self, "rhs", _exact(self.rhs))

    @staticmethod
    def make(coeffs: Sequence, relation: str, rhs) -> "LinearConstraint":
        return LinearConstraint(coeffs=tuple(coeffs), relation=relation, rhs=rhs)


@dataclass
class ExactLinearProgram:
    """``min/max objective . x`` subject to linear constraints and bounds.

    ``lower_bounds`` defaults to 0 for every variable; ``None`` entries mean
    the variable is free.  ``upper_bounds`` defaults to no upper bound.
    Every number is an ``int`` or a ``Fraction``.
    """

    num_vars: int
    objective: tuple
    sense: str = "min"
    constraints: list[LinearConstraint] = field(default_factory=list)
    lower_bounds: tuple | None = None
    upper_bounds: tuple | None = None

    def __post_init__(self):
        if self.num_vars < 1:
            raise MalformedProgram("at least one variable required")
        self.objective = tuple(_exact(c) for c in self.objective)
        if len(self.objective) != self.num_vars:
            raise MalformedProgram("objective length does not match variable count")
        if self.sense not in ("min", "max"):
            raise MalformedProgram(f"unknown sense {self.sense!r}")
        if self.lower_bounds is None:
            self.lower_bounds = (0,) * self.num_vars
        else:
            self.lower_bounds = _exact_bounds(self.lower_bounds, self.num_vars, "lower_bounds")
        if self.upper_bounds is None:
            self.upper_bounds = (None,) * self.num_vars
        else:
            self.upper_bounds = _exact_bounds(self.upper_bounds, self.num_vars, "upper_bounds")
        for con in self.constraints:
            if len(con.coeffs) != self.num_vars:
                raise MalformedProgram("constraint coefficient length mismatch")

    def add_constraint(self, coeffs: Sequence, relation: str, rhs) -> None:
        con = LinearConstraint.make(coeffs, relation, rhs)
        if len(con.coeffs) != self.num_vars:
            raise MalformedProgram("constraint coefficient length mismatch")
        self.constraints.append(con)


@dataclass(frozen=True)
class LpSolution:
    status: str  # "optimal" | "infeasible" | "unbounded"
    values: tuple[Fraction, ...] | None = None
    objective_value: Fraction | None = None
    duals: tuple[Fraction, ...] | None = None


# ---------------------------------------------------------------------------
# internal standard form
# ---------------------------------------------------------------------------


def _scaled(v, scale: int) -> int:
    """``v * scale`` for an ``int`` or ``Fraction`` ``v`` whose denominator
    divides ``scale``."""
    return v.numerator * (scale // v.denominator)


class _StandardForm:
    """min c.z  s.t.  A z = b, z >= 0 in integers, carrying the mapping back to x."""

    def __init__(self, lp: ExactLinearProgram):
        self.lp = lp
        n = lp.num_vars
        # variable mapping: x_j = offset_j + z_{pos_j} (- z_{neg_j} when free)
        self.offsets: list = []
        self.pos_col: list[int] = []
        self.neg_col: list[int] = []
        col = 0
        for lb in lp.lower_bounds:
            self.offsets.append(0 if lb is None else lb)
            self.pos_col.append(col)
            self.neg_col.append(col + 1 if lb is None else -1)
            col += 2 if lb is None else 1
        self.num_z_structural = col

        # the constraints, in order, then one x_j <= ub row per upper bound
        rows = [(con.coeffs, con.relation, con.rhs) for con in lp.constraints]
        for j, ub in enumerate(lp.upper_bounds):
            if ub is not None:
                unit = [0] * n
                unit[j] = 1
                rows.append((unit, LE, ub))

        # rows over z scaled to integers; row_scale (negative when the row
        # was flipped to a nonnegative right-hand side) maps duals back
        self.int_rows: list[dict[int, int]] = []  # sparse: z column -> coefficient
        self.int_rhs: list[int] = []
        self.row_relation: list[str] = []
        self.row_scale: list[int] = []
        offsets, pos_col, neg_col = self.offsets, self.pos_col, self.neg_col
        for coeffs, rel, rhs in rows:
            terms = [(j, c) for j, c in enumerate(coeffs) if c]
            b = rhs
            for j, c in terms:
                if offsets[j]:
                    b -= c * offsets[j]
            scale = math.lcm(b.denominator, *[c.denominator for _, c in terms])
            if b < 0:
                scale = -scale
                rel = _FLIPPED[rel]
            row = {}
            for j, c in terms:
                v = _scaled(c, scale)
                row[pos_col[j]] = v
                if neg_col[j] >= 0:
                    row[neg_col[j]] = -v
            self.int_rows.append(row)
            self.int_rhs.append(_scaled(b, scale))
            self.row_relation.append(rel)
            self.row_scale.append(scale)

        # objective over z (sense converted to min), scaled to integers
        self.obj_sign = 1 if lp.sense == "min" else -1
        self.obj_scale = math.lcm(*[c.denominator for c in lp.objective])
        self.int_obj = [0] * self.num_z_structural
        for j, c in enumerate(lp.objective):
            v = self.obj_sign * _scaled(c, self.obj_scale)
            self.int_obj[pos_col[j]] = v
            if neg_col[j] >= 0:
                self.int_obj[neg_col[j]] = -v

    def x_from_z(self, z: Sequence[Fraction]) -> tuple[Fraction, ...]:
        out = []
        for j in range(self.lp.num_vars):
            v = self.offsets[j] + z[self.pos_col[j]]
            if self.neg_col[j] >= 0:
                v -= z[self.neg_col[j]]
            out.append(v)
        return tuple(out)


def _combine(row: dict, f: int, prow: dict, piv: int, den: int) -> dict:
    """Fraction-free update ``(row * piv - f * prow) / den`` on nonzeros,
    checking that every division is exact."""
    out = {}
    if f:
        for j, pv in prow.items():
            v = row.get(j)
            num = v * piv - f * pv if v else -f * pv
            if num:
                q, r = divmod(num, den)
                if r:
                    raise SolverInternalError("fraction-free pivot divisibility failed")
                out[j] = q
        for j, v in row.items():
            if j not in prow:
                q, r = divmod(v * piv, den)
                if r:
                    raise SolverInternalError("fraction-free pivot divisibility failed")
                out[j] = q
    else:
        for j, v in row.items():
            q, r = divmod(v * piv, den)
            if r:
                raise SolverInternalError("fraction-free pivot divisibility failed")
            out[j] = q
    return out


class _Tableau:
    """Fraction-free simplex tableau with sparse rows.

    ``T[i][j] / den`` is the true tableau entry; ``den`` may take either
    sign, so all comparisons go through its sign.  Column layout:
    structural z | slack/surplus | artificial | right-hand side, the last
    being column ``rhs = ncols``.  Rows ``T[0..m-1]`` are the constraints
    and ``T[m]`` is the reduced-cost row, whose ``rhs`` entry is the
    objective value; every row is ``{column: nonzero entry}``, and a pivot
    updates them all alike.

    The artificials and the ``rhs`` column never enter the basis
    (``never_enters``), so every entering column is a stored one.  The
    artificial of a ``>=`` row has no stored entries: its column is minus
    the row's surplus column in every row, so after phase 2 its reduced
    cost, the row's dual, is minus the surplus's.
    """

    def __init__(self, sf: _StandardForm):
        m = len(sf.int_rows)
        nz = sf.num_z_structural

        self.slack_col: list[int] = [-1] * m
        self.art_col: list[int] = [-1] * m
        ncols = nz
        for i, rel in enumerate(sf.row_relation):
            if rel in (LE, GE):
                self.slack_col[i] = ncols
                ncols += 1
        first_art = ncols
        for i, rel in enumerate(sf.row_relation):
            if rel in (EQ, GE):
                self.art_col[i] = ncols
                ncols += 1

        self.m, self.ncols, self.nz, self.rhs = m, ncols, nz, ncols
        self.T: list[dict[int, int]] = []
        for i in range(m):
            row = dict(sf.int_rows[i])
            rel = sf.row_relation[i]
            if rel == LE:
                row[self.slack_col[i]] = 1
            elif rel == GE:
                row[self.slack_col[i]] = -1
            else:
                row[self.art_col[i]] = 1
            if sf.int_rhs[i]:
                row[self.rhs] = sf.int_rhs[i]
            self.T.append(row)
        self.T.append({})  # the reduced-cost row, installed by set_objective
        self.den = 1
        # initial basis: slack for <= rows, artificial otherwise
        self.basis = [
            self.art_col[i] if self.art_col[i] >= 0 else self.slack_col[i]
            for i in range(m)
        ]
        self.never_enters = [j >= first_art for j in range(ncols + 1)]

    # -- pivoting ----------------------------------------------------------

    def _pivot(self, prow: int, pcol: int) -> None:
        T = self.T
        den = self.den
        prow_vals = T[prow]
        piv = prow_vals.get(pcol, 0)
        if piv == 0:
            raise SolverInternalError("zero pivot")
        for i, row in enumerate(T):
            f = row.get(pcol, 0)
            if i == prow or (not f and piv == den):
                continue  # a row the pivot column misses is scaled by piv / den
            T[i] = _combine(row, f, prow_vals, piv, den)
        self.den = piv
        self.basis[prow] = pcol

    def set_objective(self, costs: Sequence[int], art_cost: int) -> None:
        """Install the reduced-cost row  T[m][j] = c_B . T[:,j] - c_j * den
        (scaled), whose ``rhs`` entry is c_B . b.

        ``costs`` holds the structural costs and ``art_cost`` the cost of
        every artificial; slacks cost nothing.
        """
        den = self.den
        obj = {j: -c * den for j, c in enumerate(costs) if c}
        if art_cost:
            for a, s in zip(self.art_col, self.slack_col):
                if a >= 0 and s < 0:  # the stored artificial of an = row
                    obj[a] = -art_cost * den
        for i, v in enumerate(self.basis):
            # a basic column that never enters is an artificial
            cv = art_cost if self.never_enters[v] else (costs[v] if v < self.nz else 0)
            if cv:
                for j, t in self.T[i].items():
                    obj[j] = obj.get(j, 0) + cv * t
        self.T[self.m] = {j: v for j, v in obj.items() if v}

    # -- simplex loop --------------------------------------------------------

    def _entering(self, sgn: int) -> int:
        """Bland: the lowest column that may enter with a positive reduced
        cost, or -1."""
        barred = self.never_enters
        return min((j for j, v in self.T[self.m].items() if v * sgn > 0 and not barred[j]),
                   default=-1)

    def run(self) -> str:
        pivots = 0
        limit = 20000 + 500 * (self.m + self.ncols)
        T, basis, rhs = self.T, self.basis, self.rhs
        while True:
            pivots += 1
            if pivots > limit:
                raise SolverInternalError("pivot limit exceeded (cycling?)")
            sgn = 1 if self.den > 0 else -1
            enter = self._entering(sgn)
            if enter < 0:
                return "optimal"
            leave, t_leave, b_leave = -1, 0, 0
            for i in range(self.m):
                row = T[i]
                tij = row.get(enter, 0)
                if tij * sgn <= 0:
                    continue
                bi = row.get(rhs, 0)
                if leave < 0:
                    leave, t_leave, b_leave = i, tij, bi
                    continue
                # compare b_i/T[i][enter] with b_leave/T[leave][enter]; both
                # denominators share den's sign, so their product is positive
                # and the cross-multiplied comparison is exact either way
                lhs = bi * t_leave
                other = b_leave * tij
                if lhs < other or (lhs == other and basis[i] < basis[leave]):
                    leave, t_leave, b_leave = i, tij, bi
            if leave < 0:
                return "unbounded"
            self._pivot(leave, enter)


def _drive_out_artificials(tab: _Tableau) -> list[int]:
    """Pivot basic artificials out; returns indices of dropped (redundant) rows."""
    dropped = []
    barred = tab.never_enters
    for i in range(tab.m):
        if not barred[tab.basis[i]]:
            continue
        pcol = min((j for j in tab.T[i] if not barred[j]), default=-1)
        if pcol >= 0:
            tab._pivot(i, pcol)
        else:
            dropped.append(i)
    return dropped


def _solve_phases(sf: _StandardForm):
    """Run phase 1 (if needed) and phase 2; returns (status, tab, dropped_rows)."""
    tab = _Tableau(sf)
    dropped: list[int] = []
    if any(c >= 0 for c in tab.art_col):
        tab.set_objective([0] * tab.nz, art_cost=1)
        status = tab.run()
        if status != "optimal":
            raise SolverInternalError("phase 1 cannot be unbounded")
        if tab.rhs in tab.T[tab.m]:  # a nonzero phase-1 optimum
            return "infeasible", tab, dropped
        dropped = _drive_out_artificials(tab)

    tab.set_objective(sf.int_obj, art_cost=0)
    status = tab.run()
    return status, tab, dropped


def _certificate(tab: _Tableau, dropped: list[int]):
    """The optimum as integers over one positive denominator ``d``:
    ``(z, y, d)`` with ``z_j / d`` the structural values and
    ``y_i / (d * obj_scale)`` the internal dual of row ``i``, read from the
    reduced cost of the row's identity column (of a ``>=`` row's unstored
    artificial: minus its surplus column's)."""
    sgn = 1 if tab.den > 0 else -1
    z = [0] * tab.nz
    for i, v in enumerate(tab.basis):
        if v < tab.nz:
            z[v] = tab.T[i].get(tab.rhs, 0) * sgn
    obj = tab.T[tab.m]
    y = []
    for i in range(tab.m):
        art, slack = tab.art_col[i], tab.slack_col[i]
        if i in dropped:
            y.append(0)
        elif art >= 0 and slack >= 0:  # a >= row
            y.append(-obj.get(slack, 0) * sgn)
        else:
            y.append(obj.get(art if art >= 0 else slack, 0) * sgn)
    return z, y, tab.den * sgn


def _verify_optimal(sf: _StandardForm, z: Sequence[int], y: Sequence[int], d: int) -> None:
    """Assert exact primal feasibility, dual signs, dual feasibility and
    strong duality of the certificate ``(z, y, d)`` from ``_certificate``,
    each condition multiplied through by ``d`` or ``d * obj_scale`` (both
    positive) so that it holds in integers."""
    rows, rhs = sf.int_rows, sf.int_rhs
    # primal: every internal row holds on z / d
    for i, row in enumerate(rows):
        lhs = sum(c * z[j] for j, c in row.items())
        rel, target = sf.row_relation[i], rhs[i] * d
        ok = lhs == target if rel == EQ else (lhs <= target if rel == LE else lhs >= target)
        if not ok:
            raise SolverInternalError("primal verification failed")
    # dual signs per row relation (internal rows, min problem)
    for i, yi in enumerate(y):
        rel = sf.row_relation[i]
        if (rel == LE and yi > 0) or (rel == GE and yi < 0):
            raise SolverInternalError("dual sign verification failed")
    # dual feasibility: reduced cost c_j - y.A_j of every structural column >= 0
    reduced = [c * d for c in sf.int_obj]
    for i, yi in enumerate(y):
        if yi:
            for j, a in rows[i].items():
                reduced[j] -= yi * a
    if any(rc < 0 for rc in reduced):
        raise SolverInternalError("dual feasibility verification failed")
    # strong duality: c.z = y.b
    primal = sum(c * zj for c, zj in zip(sf.int_obj, z) if c)
    dual = sum(yi * bi for yi, bi in zip(y, rhs) if yi)
    if primal != dual:
        raise SolverInternalError("strong duality verification failed")


def solve(lp: ExactLinearProgram) -> LpSolution:
    """Exact optimal basic solution, or infeasible/unbounded status."""
    sf = _StandardForm(lp)
    status, tab, dropped = _solve_phases(sf)
    if status != "optimal":
        return LpSolution(status=status)

    z, y, d = _certificate(tab, dropped)
    _verify_optimal(sf, z, y, d)

    x = sf.x_from_z([Fraction(v, d) for v in z])
    obj_value = sum((c * v for c, v in zip(lp.objective, x)), Fraction(0))

    # per-row scaling maps the internal dual to the original row; the sense
    # flip for max problems is undone here as well.  The constraint rows come
    # before the upper-bound rows.
    dual_den = d * sf.obj_scale
    duals = tuple(
        Fraction(y[i] * sf.row_scale[i] * sf.obj_sign, dual_den)
        for i in range(len(lp.constraints))
    )
    return LpSolution(status="optimal", values=x, objective_value=obj_value, duals=duals)

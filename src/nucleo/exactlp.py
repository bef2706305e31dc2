"""Exact rational linear programming via fraction-free two-phase simplex.

Every quantity is an exact rational.  Internally the tableau is kept as an
integer matrix ``T`` together with a scalar divisor ``den`` such that the
true simplex tableau is ``T / den`` (fraction-free pivoting); each pivot
performs only integer multiplications and exact divisions, which is much
faster than per-entry ``Fraction`` normalization.  Bland's rule is used for
both entering and leaving variables, so the solver cannot cycle and is
fully deterministic.

For every optimal solve a dual certificate is extracted from the identity
columns of the initial basis and verified against the internal standard
form: dual feasibility and equality of primal and dual objective values are
asserted before the solution is returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

LE, EQ, GE = "<=", "=", ">="
_RELATIONS = (LE, EQ, GE)


class MalformedProgram(ValueError):
    pass


class SolverInternalError(RuntimeError):
    """The tableau reached a state the algorithm's invariants forbid."""


@dataclass(frozen=True)
class LinearConstraint:
    coeffs: tuple[Fraction, ...]
    relation: str
    rhs: Fraction

    @staticmethod
    def make(coeffs: Sequence, relation: str, rhs) -> "LinearConstraint":
        return LinearConstraint(
            coeffs=tuple(Fraction(c) for c in coeffs),
            relation=relation,
            rhs=Fraction(rhs),
        )


@dataclass
class ExactLinearProgram:
    """``min/max objective . x`` subject to linear constraints and bounds.

    ``lower_bounds`` defaults to 0 for every variable; ``None`` entries mean
    the variable is free.  ``upper_bounds`` defaults to no upper bound.
    """

    num_vars: int
    objective: tuple[Fraction, ...]
    sense: str = "min"
    constraints: list[LinearConstraint] = field(default_factory=list)
    lower_bounds: tuple | None = None
    upper_bounds: tuple | None = None

    def __post_init__(self):
        if self.num_vars < 1:
            raise MalformedProgram("at least one variable required")
        self.objective = tuple(Fraction(c) for c in self.objective)
        if len(self.objective) != self.num_vars:
            raise MalformedProgram("objective length does not match variable count")
        if self.sense not in ("min", "max"):
            raise MalformedProgram(f"unknown sense {self.sense!r}")
        if self.lower_bounds is None:
            self.lower_bounds = tuple(Fraction(0) for _ in range(self.num_vars))
        else:
            self.lower_bounds = tuple(
                None if b is None else Fraction(b) for b in self.lower_bounds
            )
            if len(self.lower_bounds) != self.num_vars:
                raise MalformedProgram("lower_bounds length mismatch")
        if self.upper_bounds is None:
            self.upper_bounds = tuple(None for _ in range(self.num_vars))
        else:
            self.upper_bounds = tuple(
                None if b is None else Fraction(b) for b in self.upper_bounds
            )
            if len(self.upper_bounds) != self.num_vars:
                raise MalformedProgram("upper_bounds length mismatch")
        for con in self.constraints:
            if len(con.coeffs) != self.num_vars:
                raise MalformedProgram("constraint coefficient length mismatch")
            if con.relation not in _RELATIONS:
                raise MalformedProgram(f"unknown relation {con.relation!r}")

    def add_constraint(self, coeffs: Sequence, relation: str, rhs) -> None:
        con = LinearConstraint.make(coeffs, relation, rhs)
        if len(con.coeffs) != self.num_vars:
            raise MalformedProgram("constraint coefficient length mismatch")
        if con.relation not in _RELATIONS:
            raise MalformedProgram(f"unknown relation {con.relation!r}")
        self.constraints.append(con)


@dataclass(frozen=True)
class LpSolution:
    status: str  # "optimal" | "infeasible" | "unbounded"
    values: tuple[Fraction, ...] | None = None
    objective_value: Fraction | None = None
    duals: tuple[Fraction, ...] | None = None


def dump_program(lp: ExactLinearProgram) -> str:
    """Plain-text rendering of an LP, for debugging."""
    lines = [f"{lp.sense} " + " + ".join(f"{c}*x{j}" for j, c in enumerate(lp.objective))]
    for con in lp.constraints:
        expr = " + ".join(f"{c}*x{j}" for j, c in enumerate(con.coeffs) if c != 0) or "0"
        lines.append(f"  {expr} {con.relation} {con.rhs}")
    lines.append(f"  lb={lp.lower_bounds} ub={lp.upper_bounds}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# internal standard form
# ---------------------------------------------------------------------------


class _StandardForm:
    """min c.z  s.t.  A z = b, z >= 0, carrying the mapping back to x."""

    def __init__(self, lp: ExactLinearProgram):
        self.lp = lp
        n = lp.num_vars
        # variable mapping: x_j = offset_j + z_{pos_j} (- z_{neg_j} when free)
        self.offsets: list[Fraction] = []
        self.pos_col: list[int] = []
        self.neg_col: list[int] = []
        col = 0
        for j in range(n):
            lb = lp.lower_bounds[j]
            if lb is None:
                self.offsets.append(Fraction(0))
                self.pos_col.append(col)
                self.neg_col.append(col + 1)
                col += 2
            else:
                self.offsets.append(lb)
                self.pos_col.append(col)
                self.neg_col.append(-1)
                col += 1
        self.num_z_structural = col

        rows: list[tuple[list[Fraction], str, Fraction]] = []
        self.row_origin: list[tuple[str, int]] = []  # ("con", idx) | ("ub", var)
        for idx, con in enumerate(lp.constraints):
            rows.append((list(con.coeffs), con.relation, con.rhs))
            self.row_origin.append(("con", idx))
        for j in range(n):
            ub = lp.upper_bounds[j]
            if ub is not None:
                coeffs = [Fraction(0)] * n
                coeffs[j] = Fraction(1)
                rows.append((coeffs, LE, ub))
                self.row_origin.append(("ub", j))

        # objective over z (sense converted to min); constant offset recorded
        sign = 1 if lp.sense == "min" else -1
        cz = [Fraction(0)] * self.num_z_structural
        self.obj_offset = Fraction(0)
        for j in range(n):
            c = sign * lp.objective[j]
            self.obj_offset += c * self.offsets[j]
            cz[self.pos_col[j]] += c
            if self.neg_col[j] >= 0:
                cz[self.neg_col[j]] -= c
        self.obj_sign = sign

        # rows over z with integer scaling; row_scale/row_flip map duals back
        self.int_rows: list[list[int]] = []
        self.int_rhs: list[int] = []
        self.row_relation: list[str] = []
        self.row_scale: list[Fraction] = []
        for coeffs, rel, rhs in rows:
            zc = [Fraction(0)] * self.num_z_structural
            shift = Fraction(0)
            for j in range(n):
                c = coeffs[j]
                if c == 0:
                    continue
                shift += c * self.offsets[j]
                zc[self.pos_col[j]] += c
                if self.neg_col[j] >= 0:
                    zc[self.neg_col[j]] -= c
            b = rhs - shift
            denom = b.denominator
            for c in zc:
                denom = denom * c.denominator // math.gcd(denom, c.denominator)
            scale = Fraction(denom)
            if b * denom < 0:
                scale = -scale
                rel = {LE: GE, GE: LE, EQ: EQ}[rel]
            self.int_rows.append([int(c * scale) for c in zc])
            self.int_rhs.append(int(b * scale))
            self.row_relation.append(rel)
            self.row_scale.append(scale)

        # scale objective to integers
        denom = 1
        for c in cz:
            denom = denom * c.denominator // math.gcd(denom, c.denominator)
        self.int_obj = [int(c * denom) for c in cz]
        self.obj_scale = Fraction(denom)

    def x_from_z(self, z: Sequence[Fraction]) -> tuple[Fraction, ...]:
        out = []
        for j in range(self.lp.num_vars):
            v = self.offsets[j] + z[self.pos_col[j]]
            if self.neg_col[j] >= 0:
                v -= z[self.neg_col[j]]
            out.append(v)
        return tuple(out)


class _Tableau:
    """Fraction-free simplex tableau.

    ``T[i][j] / den`` is the true tableau entry; ``den`` may take either
    sign, so all comparisons go through its sign.  Column layout:
    structural z | slack/surplus | artificial, with the right-hand side
    stored separately in ``b``.
    """

    def __init__(self, sf: _StandardForm):
        self.sf = sf
        m = len(sf.int_rows)
        nz = sf.num_z_structural

        self.slack_col: list[int] = [-1] * m
        self.art_col: list[int] = [-1] * m
        ncols = nz
        for i, rel in enumerate(sf.row_relation):
            if rel in (LE, GE):
                self.slack_col[i] = ncols
                ncols += 1
        for i, rel in enumerate(sf.row_relation):
            if rel in (EQ, GE):
                self.art_col[i] = ncols
                ncols += 1

        self.m, self.ncols, self.nz = m, ncols, nz
        self.T = [[0] * ncols for _ in range(m)]
        self.b = [0] * m
        for i in range(m):
            row = self.T[i]
            row[:nz] = sf.int_rows[i]
            rel = sf.row_relation[i]
            if rel == LE:
                row[self.slack_col[i]] = 1
            elif rel == GE:
                row[self.slack_col[i]] = -1
            if self.art_col[i] >= 0:
                row[self.art_col[i]] = 1
            self.b[i] = sf.int_rhs[i]
        self.den = 1
        self.obj = [0] * ncols
        self.obj_b = 0
        # initial basis: slack for <= rows, artificial otherwise
        self.basis = [
            self.art_col[i] if self.art_col[i] >= 0 else self.slack_col[i]
            for i in range(m)
        ]
        self.is_artificial = [False] * ncols
        for c in self.art_col:
            if c >= 0:
                self.is_artificial[c] = True

    # -- pivoting ----------------------------------------------------------

    def _pivot(self, prow: int, pcol: int) -> None:
        T, b, obj = self.T, self.b, self.obj
        den = self.den
        piv = T[prow][pcol]
        if piv == 0:
            raise SolverInternalError("zero pivot")
        prow_vals = T[prow]

        def update_row(row: list, rhs: int, f: int) -> int:
            for j in range(self.ncols):
                v = row[j]
                pv = prow_vals[j]
                if f and pv:
                    num = v * piv - f * pv
                elif v:
                    num = v * piv
                else:
                    continue
                q, r = divmod(num, den)
                if r:
                    raise SolverInternalError("fraction-free pivot divisibility failed")
                row[j] = q
            num = rhs * piv - f * b[prow]
            q, r = divmod(num, den)
            if r:
                raise SolverInternalError("fraction-free pivot divisibility failed")
            return q

        for i in range(self.m):
            if i == prow:
                continue
            row = T[i]
            b[i] = update_row(row, b[i], row[pcol])
        self.obj_b = update_row(obj, self.obj_b, obj[pcol])
        self.den = piv
        self.basis[prow] = pcol

    def set_objective(self, costs: Sequence[int]) -> None:
        """Install objective row  obj_j = c_B . T[:,j] - c_j * den  (scaled)."""
        den = self.den
        cb = [costs[v] for v in self.basis]
        for j in range(self.ncols):
            s = -costs[j] * den
            for i in range(self.m):
                ci = cb[i]
                if ci:
                    s += ci * self.T[i][j]
            self.obj[j] = s
        s = 0
        for i in range(self.m):
            if cb[i]:
                s += cb[i] * self.b[i]
        self.obj_b = s

    # -- simplex loop --------------------------------------------------------

    def run(self, allow_artificial_entering: bool) -> str:
        pivots = 0
        limit = 20000 + 500 * (self.m + self.ncols)
        while True:
            pivots += 1
            if pivots > limit:
                raise SolverInternalError("pivot limit exceeded (cycling?)")
            sgn = 1 if self.den > 0 else -1
            enter = -1
            for j in range(self.ncols):
                if self.is_artificial[j] and not allow_artificial_entering:
                    continue
                if self.obj[j] * sgn > 0:
                    enter = j
                    break
            if enter < 0:
                return "optimal"
            leave = -1
            for i in range(self.m):
                tij = self.T[i][enter]
                if tij * sgn <= 0:
                    continue
                if leave < 0:
                    leave = i
                    continue
                # compare b[i]/T[i][enter] with b[leave]/T[leave][enter]; both
                # denominators share den's sign, so their product is positive
                # and the cross-multiplied comparison is exact either way
                lhs = self.b[i] * self.T[leave][enter]
                rhs = self.b[leave] * tij
                if lhs < rhs or (lhs == rhs and self.basis[i] < self.basis[leave]):
                    leave = i
            if leave < 0:
                return "unbounded"
            self._pivot(leave, enter)

    def z_values(self) -> list[Fraction]:
        vals = [Fraction(0)] * self.ncols
        for i, v in enumerate(self.basis):
            vals[v] = Fraction(self.b[i], self.den)
        return vals


def _drive_out_artificials(tab: _Tableau) -> list[int]:
    """Pivot basic artificials out; returns indices of dropped (redundant) rows."""
    dropped = []
    for i in range(tab.m):
        if not tab.is_artificial[tab.basis[i]]:
            continue
        pcol = -1
        for j in range(tab.ncols):
            if tab.is_artificial[j]:
                continue
            if tab.T[i][j] != 0:
                pcol = j
                break
        if pcol >= 0:
            tab._pivot(i, pcol)
        else:
            dropped.append(i)
    return dropped


def _solve_phases(sf: _StandardForm):
    """Run phase 1 (if needed) and phase 2; returns (status, tab, dropped_rows)."""
    tab = _Tableau(sf)
    need_phase1 = any(c >= 0 for c in tab.art_col)
    dropped: list[int] = []
    if need_phase1:
        costs = [1 if tab.is_artificial[j] else 0 for j in range(tab.ncols)]
        tab.set_objective(costs)
        status = tab.run(allow_artificial_entering=True)
        if status != "optimal":
            raise SolverInternalError("phase 1 cannot be unbounded")
        if Fraction(tab.obj_b, tab.den) != 0:
            return "infeasible", tab, dropped
        dropped = _drive_out_artificials(tab)

    costs = [0] * tab.ncols
    for j, c in enumerate(sf.int_obj):
        costs[j] = c
    tab.set_objective(costs)
    status = tab.run(allow_artificial_entering=False)
    return status, tab, dropped


def _extract_duals(sf: _StandardForm, tab: _Tableau, dropped: list[int]):
    """Duals for internal rows from identity-column reduced costs, mapped back."""
    den = Fraction(tab.den)
    internal = []
    for i in range(tab.m):
        if i in dropped:
            internal.append(Fraction(0))
            continue
        if tab.art_col[i] >= 0:
            y = Fraction(tab.obj[tab.art_col[i]]) / den
        else:
            y = Fraction(tab.obj[tab.slack_col[i]]) / den
        internal.append(y)
    # undo objective scaling: internal problem minimized obj_scale * (true c)
    internal = [y / sf.obj_scale for y in internal]
    return internal


def _verify_optimal(sf: _StandardForm, tab: _Tableau, dropped: list[int],
                    z: Sequence[Fraction], internal_duals: Sequence[Fraction]) -> None:
    """Assert exact primal feasibility, dual feasibility and strong duality."""
    # primal: every internal row holds with equality on its slack-adjusted form
    for i in range(tab.m):
        lhs = Fraction(0)
        for j in range(sf.num_z_structural):
            c = sf.int_rows[i][j]
            if c:
                lhs += c * z[j]
        rel = sf.row_relation[i]
        rhs = sf.int_rhs[i]
        ok = lhs == rhs if rel == EQ else (lhs <= rhs if rel == LE else lhs >= rhs)
        if not ok:
            raise SolverInternalError("primal verification failed")
    # dual signs per row relation (internal rows, min problem)
    for i, y in enumerate(internal_duals):
        rel = sf.row_relation[i]
        if rel == LE and y > 0:
            raise SolverInternalError("dual sign verification failed")
        if rel == GE and y < 0:
            raise SolverInternalError("dual sign verification failed")
    # dual feasibility: reduced cost of every structural column >= 0
    ctrue = [Fraction(c) / sf.obj_scale for c in sf.int_obj]
    for j in range(sf.num_z_structural):
        rc = ctrue[j]
        for i, y in enumerate(internal_duals):
            a = sf.int_rows[i][j]
            if a:
                rc -= y * a
        if rc < 0:
            raise SolverInternalError("dual feasibility verification failed")
    # strong duality
    primal = Fraction(0)
    for j in range(sf.num_z_structural):
        if ctrue[j]:
            primal += ctrue[j] * z[j]
    dual = Fraction(0)
    for i, y in enumerate(internal_duals):
        if y:
            dual += y * sf.int_rhs[i]
    if primal != dual:
        raise SolverInternalError("strong duality verification failed")


def solve(lp: ExactLinearProgram) -> LpSolution:
    """Exact optimal basic solution, or infeasible/unbounded status."""
    sf = _StandardForm(lp)
    status, tab, dropped = _solve_phases(sf)
    if status == "infeasible":
        return LpSolution(status="infeasible")
    if status == "unbounded":
        return LpSolution(status="unbounded")

    zfull = tab.z_values()
    zs = [zfull[j] for j in range(sf.num_z_structural)]
    internal_duals = _extract_duals(sf, tab, dropped)
    _verify_optimal(sf, tab, dropped, zs, internal_duals)

    x = sf.x_from_z(zs)
    obj_value = sum((c * v for c, v in zip(lp.objective, x)), Fraction(0))

    # per-row scaling maps the internal dual to the original row; the sense
    # flip for max problems is undone here as well
    duals = tuple(
        internal_duals[i] * sf.row_scale[i] * sf.obj_sign
        for i, (kind, _) in enumerate(sf.row_origin) if kind == "con"
    )
    return LpSolution(status="optimal", values=x, objective_value=obj_value, duals=duals)


def feasible(lp: ExactLinearProgram) -> tuple[bool, tuple[Fraction, ...] | None]:
    """Phase-1 feasibility test; returns an exact witness point when feasible."""
    probe = ExactLinearProgram(
        num_vars=lp.num_vars,
        objective=tuple(Fraction(0) for _ in range(lp.num_vars)),
        sense="min",
        constraints=list(lp.constraints),
        lower_bounds=lp.lower_bounds,
        upper_bounds=lp.upper_bounds,
    )
    sol = solve(probe)
    if sol.status == "optimal":
        return True, sol.values
    return False, None

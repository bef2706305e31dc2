"""Small exact linear algebra: an incrementally built affine system in echelon form.

The sequential nucleolus scheme holds the equalities fixed so far in it
(efficiency plus frozen coalition rows), asks it for the rank, for an integer
kernel basis (the separation oracle's "constant excess" filter) and for the
point once the system pins one.  The homogeneity search feeds it one integer
row per minimal winning profile until the rows reach full rank.

Rows are stored fraction-free (Bareiss 1968): integer vectors, so reducing an
incoming row costs integer products only, and the exact LPs take the stored
rows as they are.  ``Fraction`` enters only where a caller passes it in (scaled
by its denominators' lcm), in the point ``solve_unique`` returns and in the
residual an inconsistent row reports.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence


class InconsistentSystem(RuntimeError):
    pass


class UnderdeterminedSystem(RuntimeError):
    """A unique solution was asked of a system that does not pin one."""


class EchelonSystem:
    """Affine rows ``a . x = b`` kept in reduced row echelon form.

    ``rows[i]`` is a list of ``dim + 1`` integers, rhs last, divided by the
    gcd of its entries; its entry in column ``pivot_cols[i]`` is positive and
    every other row is zero in that column.  A reduced system is unique
    given its pivot columns, so each row divided by its pivot entry is the
    row of the rational elimination that scales each pivot to 1 as the row
    comes in.  Callers read ``rows`` and must not change them.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self.pivot_cols: list[int] = []
        self.rows: list[list[int]] = []
        self._free_cols = list(range(dim))  # non-pivot columns, ascending
        self._pivot_lcm = 1                 # lcm of the pivot entries
        self._scaled: list[tuple[int, int, list[int]]] = []  # (pivot col, lcm // pivot, row)

    @property
    def rank(self) -> int:
        return len(self.rows)

    def add_row(self, vec: Sequence, rhs) -> bool:
        """Add ``vec . x = rhs``; returns True iff the row was independent.

        A dependent row must be consistent with the system; otherwise
        ``InconsistentSystem`` is raised.
        """
        v = _integer_row(vec, rhs)
        dim = self.dim
        # v reduced by every row at once, scaled by the pivots' lcm; it is
        # zero in every pivot column, so only the free columns and the rhs
        # need computing
        cols = self._free_cols + [dim]
        terms = [(v[pc] * m, row) for pc, m, row in self._scaled if v[pc]]
        if terms:
            lcm = self._pivot_lcm
            red = [lcm * v[j] - sum(f * row[j] for f, row in terms) for j in cols]
        else:
            red = [v[j] for j in cols]
        k = next((i for i in range(len(cols) - 1) if red[i]), None)
        if k is None:
            if red[-1]:
                # the residual of the rational reduction, which reduces by
                # the pivot-1 rows with coefficients vec[pc]
                r = Fraction(rhs) - sum(
                    (Fraction(vec[pc]) * Fraction(row[dim], row[pc])
                     for row, pc in zip(self.rows, self.pivot_cols)),
                    Fraction(0))
                raise InconsistentSystem(f"inconsistent row (residual rhs {r})")
            return False
        pc = cols[k]
        new = [0] * (dim + 1)
        for j, c in zip(cols, red):
            new[j] = c
        new = _primitive(new, new[pc])
        p = new[pc]
        # back-substitute into existing rows to keep reduced form
        for i, row in enumerate(self.rows):
            f = row[pc]
            if f:
                self.rows[i] = _primitive([a * p - f * b for a, b in zip(row, new)], 1)
        self.rows.append(new)
        self.pivot_cols.append(pc)
        self._free_cols.remove(pc)
        lcm = math.lcm(*(row[c] for row, c in zip(self.rows, self.pivot_cols)))
        self._pivot_lcm = lcm
        self._scaled = [(c, lcm // row[c], row) for row, c in zip(self.rows, self.pivot_cols)]
        return True

    def kernel_basis_int(self) -> list[list[int]]:
        """Integer basis of the null space of the coefficient rows."""
        basis = []
        for fc in self._free_cols:
            vec = [0] * self.dim
            vec[fc] = self._pivot_lcm
            for pc, m, row in self._scaled:
                vec[pc] = -row[fc] * m
            basis.append(_primitive(vec, 1))
        return basis

    def solve_unique(self) -> tuple[Fraction, ...]:
        if self.rank != self.dim:
            raise UnderdeterminedSystem("system does not pin a unique point")
        x = [Fraction(0)] * self.dim
        for row, pc in zip(self.rows, self.pivot_cols):
            x[pc] = Fraction(row[self.dim], row[pc])
        return tuple(x)


def _integer_row(vec: Sequence, rhs) -> list[int]:
    """``vec`` and ``rhs`` as one integer row: ``int`` entries as they are,
    anything else as a ``Fraction`` scaled by the lcm of the denominators."""
    row = [*vec, rhs]
    if all(type(c) is int for c in row):
        return row
    row = [Fraction(c) for c in row]
    den = math.lcm(*(c.denominator for c in row))
    return [c.numerator * (den // c.denominator) for c in row]


def _primitive(vec: list[int], sign: int) -> list[int]:
    """``vec`` divided by the gcd of its entries, negated when ``sign`` < 0."""
    g = math.gcd(*vec)
    if sign < 0:
        g = -g
    return vec if g == 1 else [c // g for c in vec]

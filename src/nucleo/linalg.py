"""Small exact linear algebra: an incrementally built affine system in echelon form.

Used by the sequential nucleolus scheme to hold the equalities fixed so far
(efficiency plus frozen coalition rows), answer rank queries, expose an integer kernel basis for the separation oracle's
"constant excess" filter, and solve the system once it pins a unique point.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence


class InconsistentSystem(RuntimeError):
    pass


class EchelonSystem:
    """Affine rows ``a . x = b`` kept in reduced row echelon form."""

    def __init__(self, dim: int):
        self.dim = dim
        self.rows: list[list[Fraction]] = []  # each of length dim + 1 (rhs last)
        self.pivot_cols: list[int] = []

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _reduce(self, vec: Sequence, rhs) -> tuple[list[Fraction], Fraction]:
        v = [Fraction(c) for c in vec]
        r = Fraction(rhs)
        for row, pc in zip(self.rows, self.pivot_cols):
            f = v[pc]
            if f:
                for j in range(self.dim):
                    if row[j]:
                        v[j] -= f * row[j]
                r -= f * row[self.dim]
        return v, r

    def add_row(self, vec: Sequence, rhs) -> bool:
        """Add ``vec . x = rhs``; returns True iff the row was independent.

        A dependent row must be consistent with the system; otherwise
        ``InconsistentSystem`` is raised.
        """
        v, r = self._reduce(vec, rhs)
        pc = next((j for j in range(self.dim) if v[j]), None)
        if pc is None:
            if r != 0:
                raise InconsistentSystem(f"inconsistent row (residual rhs {r})")
            return False
        inv = 1 / v[pc]
        v = [c * inv for c in v]
        r = r * inv
        # back-substitute into existing rows to keep reduced form
        for row in self.rows:
            f = row[pc]
            if f:
                for j in range(self.dim):
                    if v[j]:
                        row[j] -= f * v[j]
                row[self.dim] -= f * r
        self.rows.append(v + [r])
        self.pivot_cols.append(pc)
        return True

    def kernel_basis_int(self) -> list[list[int]]:
        """Integer basis of the null space of the coefficient rows."""
        pivots = set(self.pivot_cols)
        free_cols = [j for j in range(self.dim) if j not in pivots]
        basis = []
        for fc in free_cols:
            vec = [Fraction(0)] * self.dim
            vec[fc] = Fraction(1)
            for row, pc in zip(self.rows, self.pivot_cols):
                vec[pc] = -row[fc]
            denom = 1
            for c in vec:
                denom = denom * c.denominator // math.gcd(denom, c.denominator)
            ints = [int(c * denom) for c in vec]
            g = 0
            for c in ints:
                g = math.gcd(g, c)
            if g > 1:
                ints = [c // g for c in ints]
            basis.append(ints)
        return basis

    def solve_unique(self) -> tuple[Fraction, ...]:
        if self.rank != self.dim:
            raise RuntimeError("system does not pin a unique point")
        x = [Fraction(0)] * self.dim
        for row, pc in zip(self.rows, self.pivot_cols):
            x[pc] = row[self.dim]
        return tuple(x)

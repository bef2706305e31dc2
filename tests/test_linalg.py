import math
import random
from fractions import Fraction as F

import pytest

from nucleo.linalg import EchelonSystem, InconsistentSystem, UnderdeterminedSystem

import oracles


def _entry(rng, as_int):
    num = rng.choice((0, 0, 0, 1, -1, 2, -3, 5))
    return num if as_int else F(num, rng.choice((1, 1, 2, 3, 4, 7)))


def _combination(rng, rows, as_int):
    """A rational (or integer) combination of earlier (vec, rhs) rows."""
    coeffs = [_entry(rng, as_int) for _ in rows]
    dim = len(rows[0][0])
    vec = [sum((c * v[j] for c, (v, _) in zip(coeffs, rows)), 0) for j in range(dim)]
    rhs = sum((c * r for c, (_, r) in zip(coeffs, rows)), 0)
    return vec, rhs


def _systems(count):
    """Seeded row sequences, each a hidden-point system with dependent
    consistent rows, inconsistent rows, zero rows and all-``int`` rows."""
    rng = random.Random(20261018)
    for _ in range(count):
        dim = rng.randint(1, 7)
        as_int = rng.random() < 0.3
        x0 = [_entry(rng, as_int) for _ in range(dim)]
        seq, added = [], []
        for _ in range(rng.randint(1, 2 * dim + 2)):
            r = rng.random()
            if added and r < 0.3:
                vec, rhs = _combination(rng, added, as_int)
            elif added and r < 0.4:
                vec, rhs = _combination(rng, added, as_int)
                rhs += rng.choice((1, -2)) if as_int else F(rng.choice((1, -2)), 3)
            elif r < 0.45:
                vec = [0] * dim if as_int else [F(0)] * dim
                rhs = rng.choice((0, 1))
            else:
                vec = [_entry(rng, as_int) for _ in range(dim)]
                rhs = sum((a * b for a, b in zip(vec, x0)), 0)
            if as_int:
                assert all(type(c) is int for c in [*vec, rhs])
            seq.append((vec, rhs))
            added.append((vec, rhs))
        yield dim, seq


def _state(system, rows):
    try:
        point = system.solve_unique()
    except (UnderdeterminedSystem, ValueError):
        point = None
    return (system.rank, list(system.pivot_cols), rows, system.kernel_basis_int(), point)


def test_echelon_system_matches_fraction_reference():
    rejected = accepted = 0
    for dim, seq in _systems(2000):
        fast, ref = EchelonSystem(dim), oracles.ReferenceEchelonSystem(dim)
        for vec, rhs in seq:
            try:
                expected = ref.add_row(vec, rhs)
            except ValueError as exc:
                with pytest.raises(InconsistentSystem) as got:
                    fast.add_row(vec, rhs)
                assert str(got.value) == str(exc)
                rejected += 1
            else:
                assert fast.add_row(vec, rhs) is expected
                accepted += 1
            # the stored rows are primitive integer rows with positive
            # pivots; each divided by its pivot is the reference's row
            for row, pc in zip(fast.rows, fast.pivot_cols):
                assert all(type(c) is int for c in row)
                assert math.gcd(*row) == 1 and row[pc] > 0
            pivot_one = [[F(c, row[pc]) for c in row]
                         for row, pc in zip(fast.rows, fast.pivot_cols)]
            assert _state(fast, pivot_one) == _state(ref, ref.rows)
    # the seeded systems exercise every outcome
    assert rejected > 100 and accepted > 5000


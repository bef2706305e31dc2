"""Cross-module consistency properties at quick scale.

The full-scale randomized suites with their runtime budgets live in
test_acceptance.py; these are the fast everyday versions plus properties
not covered there.
"""

import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from nucleo.coalitions import ordered_excess_vector
from nucleo.games import representation
from nucleo.nucleolus import _ItemSpace, _start, nucleolus, nucleus_box
from nucleo.theory import gap_report, is_constant_sum, permits_homogeneous_rep

import oracles


@st.composite
def imputable_games(draw, max_n=7, max_w=6):
    n = draw(st.integers(2, max_n))
    ws = draw(st.lists(st.integers(1, max_w), min_size=n, max_size=n))
    q = draw(st.integers(1, sum(ws)))
    rep = representation(q, ws)
    if not oracles.has_imputation(rep):
        # lift the quota above the second-highest weight
        top = sorted(ws)[-2]
        q = top + 1
        rep = representation(min(q, sum(ws)), ws)
    return rep


@given(imputable_games())
@settings(max_examples=50, deadline=None)
def test_engines_agree_and_solution_is_exact(rep):
    rb = nucleolus(rep, engine="brute")
    rt = nucleolus(rep, engine="typed")
    assert rb.x_star == rt.x_star
    assert sum(rb.x_star, F(0)) == F(1)
    for xi, w in zip(rb.x_star, rep.original_weights):
        assert xi >= (1 if F(w) >= rep.quota else 0)


@given(imputable_games())
@settings(max_examples=40, deadline=None)
def test_solver_is_deterministic(rep):
    first = nucleolus(rep)
    again = nucleolus(rep)
    assert first.x_star == again.x_star
    assert [l.epsilon for l in first.levels] == [l.epsilon for l in again.levels]


@pytest.mark.parametrize("engine", ["brute", "typed"])
@given(imputable_games(max_n=6))
@settings(max_examples=40, deadline=None)
def test_nucleolus_lies_in_nucleus_box(engine, rep):
    # the brute box ranges over all least-core imputations, the typed box
    # over the weight-symmetric ones; both contain the nucleolus
    box = nucleus_box(rep, engine=engine)
    x = nucleolus(rep, engine=engine).x_star
    for lo, xi, hi in zip(box.lower, x, box.upper):
        assert lo <= xi <= hi


@given(imputable_games(max_n=6), st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_gap_bound_and_identity_on_random_games(rep, seed):
    if not (0 < rep.normalize().quota_bar < 1):
        return
    x = nucleolus(rep).x_star
    rpt = gap_report(rep, x)  # asserts bound and identity internally
    assert rpt.l1_gap <= rpt.bound


@given(st.lists(st.integers(0, 6), min_size=1, max_size=7), st.integers(1, 42))
@settings(max_examples=60)
def test_to_integer_yields_coprime_integers(ws, q):
    total = sum(ws)
    if total == 0:
        return
    rep = representation(min(q, total), ws)
    ints = rep.to_integer()
    values = [int(w) for w in ints.weights]
    assert all(w == int(w) for w in ints.weights)
    assert math.gcd(*values) == 1 if len(values) > 1 else values[0] in (0, 1)
    assert ints.to_integer().weights == ints.weights


@given(st.lists(st.integers(1, 5), min_size=1, max_size=7), st.integers(1, 35))
@settings(max_examples=40, deadline=None)
def test_profile_lattice_covers_powerset(ws, q):
    total = sum(ws)
    rep = representation(min(q, total), ws)
    assert sum(p.multiplicity for p in oracles.all_profiles(rep)) == 2 ** rep.n


def test_excess_vector_tie_break_is_mask_ascending():
    rep = representation(2, [1, 1, 1])
    vec = ordered_excess_vector(rep, [F(1, 3)] * 3)
    masks = []
    for rec in vec:
        mask = sum(1 << i for i in rec.coalition)
        masks.append((rec.excess, mask))
    for (ea, ma), (eb, mb) in zip(masks, masks[1:]):
        assert ea > eb or (ea == eb and ma < mb)


def test_oracle_skips_empty_and_grand_coalition():
    # at the unanimity nucleolus the empty and grand coalitions have the
    # largest excess, 0, but it is constant on the efficiency hull, so under
    # the solver's stage-1 kernel the oracle never returns them
    rep = representation(2, [1, 1])
    space = _ItemSpace(rep, "player")
    kernel = _start(space)[0].kernel_basis_int()
    y = [F(1, 2), F(1, 2)]
    vec, value = space.best_excess(y, kernel)
    assert value == F(-1, 2)
    assert vec in ((1, 0), (0, 1))
    # one weight type: efficiency fixes every excess, nothing is movable
    typed = _ItemSpace(rep, "type")
    assert typed.best_excess([F(1, 2)], _start(typed)[0].kernel_basis_int()) is None


def test_constant_sum_via_complement_pairs_matches_definition():
    rng = random.Random(2024)
    for _ in range(30):
        n = rng.randint(2, 7)
        ws = [rng.randint(1, 6) for _ in range(n)]
        q = rng.randint(1, sum(ws))
        rep = representation(q, ws)
        assert is_constant_sum(rep) == oracles.brute_constant_sum(rep)


def test_homogeneity_search_feasibility_example():
    # the LP behind the search is feasible for this game and the verified
    # witness reproduces it
    ok, witness = permits_homogeneous_rep(representation(3, [2, 1, 1, 1]))
    assert ok
    assert witness.normalize().to_input_order() == (F(2, 5), F(1, 5), F(1, 5), F(1, 5))

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from nucleo.coalitions import (
    DimensionMismatch,
    EnumerationLimit,
    all_profiles,
    excess,
    is_minimal_winning_profile,
    minimal_winning_coalitions,
    minimal_winning_count_vectors,
    minimal_winning_profiles,
    ordered_excess_vector,
    reachable_weights,
)
from nucleo.games import representation
from nucleo.nucleolus import _ItemSpace

import oracles

XSTAR_8 = (F(2, 5), F(1, 5), F(1, 5), F(1, 5))


def identity_kernel(dim):
    return [[int(i == j) for j in range(dim)] for i in range(dim)]


def solver_oracle(rep, x, forbidden=()):
    """The solver's max-excess oracle on the player space, as (excess,
    coalition) in input order, or None.

    Under the identity kernel every non-empty coalition is movable and the
    empty one is not, so the reference is the brute maximum over non-empty
    coalitions.  Coalitions travel as 0/1 vectors in sorted player order.
    """
    space = _ItemSpace(rep, "player")
    exclude = frozenset(rep.to_sorted_order([int(i in S) for i in range(rep.n)])
                        for S in forbidden)
    y = rep.to_sorted_order([F(v) for v in x])
    found = space.best_excess(y, identity_kernel(rep.n), exclude)
    if found is None:
        return None
    vec, value = found
    return value, frozenset(rep.input_order[k] for k, j in enumerate(vec) if j)


def test_excess_examples():
    rep = representation(8, [6, 4, 3, 2])
    assert excess(rep, {0, 1}, XSTAR_8) == F(2, 5)
    assert excess(rep, set(), XSTAR_8) == F(0)
    assert excess(rep, {0, 1, 2, 3}, XSTAR_8) == F(0)
    with pytest.raises(DimensionMismatch):
        excess(rep, {0}, (F(1),))


def test_excess_matches_brute_oracle():
    rep = representation(8, [6, 4, 3, 2])
    for S in oracles.coalitions(4):
        assert excess(rep, S, XSTAR_8) == oracles.brute_excess(rep, S, XSTAR_8)


def test_ordered_excess_vector_top_level():
    rep = representation(8, [6, 4, 3, 2])
    vec = ordered_excess_vector(rep, XSTAR_8)
    assert len(vec) == 16
    assert vec[0].excess == F(2, 5)
    top = {tuple(sorted(r.coalition)) for r in vec if r.excess == F(2, 5)}
    assert top == {(0, 1), (0, 2), (0, 3), (1, 2, 3)}
    # weakly decreasing with deterministic mask tie-break
    assert all(a.excess >= b.excess for a, b in zip(vec, vec[1:]))


def test_ordered_excess_vector_single_player():
    rep = representation(1, [1])
    vec = ordered_excess_vector(rep, (F(1),))
    assert [r.excess for r in vec] == [F(0), F(0)]
    assert vec[0].coalition == frozenset()


def test_ordered_excess_vector_five_players():
    rep = representation(3, [2, 1, 1, 1])
    vec = ordered_excess_vector(rep, XSTAR_8)
    assert vec[0].excess == F(2, 5)
    brute = oracles.brute_excess_vector(rep, XSTAR_8)
    assert [r.excess for r in vec] == [b[0] for b in brute]


def test_ordered_excess_vector_limit():
    rep = representation(2, [1, 1, 1])
    with pytest.raises(EnumerationLimit):
        ordered_excess_vector(rep, [F(1, 3)] * 3, limit=2)


def test_minimal_winning_coalitions_examples():
    rep = representation(3, [2, 1, 1, 1])
    got = {tuple(sorted(S)) for S in minimal_winning_coalitions(rep)}
    assert got == {(0, 1), (0, 2), (0, 3), (1, 2, 3)}
    assert minimal_winning_coalitions(representation(1, [1])) == [frozenset({0})]


@given(st.lists(st.integers(0, 6), min_size=1, max_size=8), st.integers(1, 40))
@settings(max_examples=120)
def test_minimal_winning_matches_brute(ws, q):
    total = sum(ws)
    if total == 0:
        return
    rep = representation(min(q, total), ws)
    lib = sorted(minimal_winning_coalitions(rep), key=lambda S: sorted(S))
    assert lib == oracles.brute_mwcs(rep)


def test_minimal_winning_profiles_flagship_members():
    rep = representation(1500, [4] * 300 + [3] * 300 + [2] * 300)
    assert is_minimal_winning_profile(rep, (300, 100, 0))
    assert is_minimal_winning_profile(rep, (300, 0, 150))
    assert is_minimal_winning_profile(rep, (300, 1, 149))
    assert not is_minimal_winning_profile(rep, (300, 100, 1))
    vectors = set(minimal_winning_count_vectors(rep, cap=400_000))
    assert {(300, 100, 0), (300, 0, 150), (300, 1, 149)} <= vectors


def test_minimal_winning_profiles_expand_to_explicit():
    rep = representation(3, [2, 1, 1, 1])
    profs = minimal_winning_profiles(rep)
    assert [p.counts for p in profs] == [(0, 3), (1, 1)]
    assert profs[0].multiplicity == 1 and profs[1].multiplicity == 3
    explicit = {tuple(sorted(S)) for S in minimal_winning_coalitions(rep)}
    assert sum(p.multiplicity for p in profs) == len(explicit)


def test_profile_lattice_multiplicities_cover_all_coalitions():
    rep = representation(3, [2, 1, 1, 1])
    profs = all_profiles(rep)
    assert sum(p.multiplicity for p in profs) == 2 ** rep.n


def test_profile_excess_matches_explicit_at_symmetric_payoff():
    rep = representation(10, [4, 4, 3, 3, 2, 2])
    y = rep.normalize().to_input_order()
    for prof in all_profiles(rep):
        S = prof.expand_one(rep)
        paid = sum((F(j) * F(w) / rep.total_weight
                    for j, (w, _) in zip(prof.counts, rep.weight_types().entries)),
                   F(0))
        assert excess(rep, S, y) == (1 if prof.weight >= rep.quota else 0) - paid


def test_max_excess_uniform_payoff():
    rep = representation(8, [6, 4, 3, 2])
    value, coal = solver_oracle(rep, [F(1, 4)] * 4)
    assert value == F(1, 2)
    assert rep.is_winning(coal)
    assert sum((F(1, 4) for _ in coal), F(0)) == F(1, 2)


def test_max_excess_dictator():
    value, coal = solver_oracle(representation(1, [1]), [F(1)])
    assert value == F(0)
    assert coal == frozenset({0})


def test_max_excess_requires_integer_weights():
    rep = representation(F(1, 2), [F(9, 20), F(9, 20), F(1, 10)])
    # the oracle runs on the integer-scaled game, as the solver does
    value, _ = solver_oracle(rep.to_integer(), [F(1, 3)] * 3)
    assert value == F(1, 3)


def test_max_excess_flagship_value_cross_checked_on_scaled_instance():
    # 30-player scaled instance: exhaustive profile scan as the oracle
    rep = representation(50, [4] * 10 + [3] * 10 + [2] * 10)
    wbar = [F(w, 90) for w in rep.original_weights]
    best = None
    for prof in all_profiles(rep):
        if not any(prof.counts):
            continue
        e = (1 if prof.weight >= rep.quota else 0) - prof.weight / 90
        best = e if best is None or e > best else best
    assert solver_oracle(rep, wbar)[0] == best == F(4, 9)
    # full 900-player game at its normalized weights, on the type space
    rep900 = representation(1500, [4] * 300 + [3] * 300 + [2] * 300)
    space = _ItemSpace(rep900, "type")
    y = [F(4, 2700), F(3, 2700), F(2, 2700)]
    assert space.best_excess(y, identity_kernel(3))[1] == F(4, 9)


def test_max_excess_respects_forbidden_sets():
    rng = random.Random(42)
    for _ in range(40):
        n = rng.randint(2, 7)
        ws = [rng.randint(1, 6) for _ in range(n)]
        q = rng.randint(1, sum(ws))
        rep = representation(q, ws)
        if not oracles.has_imputation(rep):
            continue
        x = oracles.random_imputation(rep, rng, denominator=101)
        universe = list(oracles.coalitions(n))
        forbidden = frozenset(rng.sample(universe, k=min(3, len(universe))))
        got = solver_oracle(rep, x, forbidden)
        expect = oracles.brute_max_excess(rep, x, forbidden | {frozenset()})
        if expect is None:
            assert got is None
            continue
        value, coal = got
        assert value == expect[0]
        assert coal and coal not in forbidden
        assert excess(rep, coal, x) == value


def test_oracle_agrees_with_enumeration_at_limit_scale():
    rng = random.Random(161616)
    for n in (12, 16):
        for _ in range(3):
            ws = [rng.randint(1, 9) for _ in range(n)]
            q = rng.randint(1, sum(ws) - 1)
            rep = representation(q, ws)
            if not oracles.has_imputation(rep):
                continue
            x = oracles.random_imputation(rep, rng, denominator=503)
            universe = [frozenset({i, (i + 1) % n}) for i in range(4)]
            forbidden = frozenset(universe)
            value, _ = solver_oracle(rep, x, forbidden)
            vec = ordered_excess_vector(rep, x, limit=n)
            best = next(r.excess for r in vec
                        if r.coalition and r.coalition not in forbidden)
            assert value == best


@given(st.lists(st.integers(1, 6), min_size=2, max_size=7), st.integers(1, 30),
       st.integers(0, 10_000))
@settings(max_examples=80, deadline=None)
def test_oracle_agrees_with_enumeration(ws, q, seed):
    total = sum(ws)
    rep = representation(min(q, total), ws)
    if not oracles.has_imputation(rep):
        return
    rng = random.Random(seed)
    x = oracles.random_imputation(rep, rng, denominator=211)
    value, _ = solver_oracle(rep, x)
    assert value == oracles.brute_max_excess(rep, x, {frozenset()})[0]


@given(st.lists(st.integers(0, 5), min_size=1, max_size=8), st.integers(1, 30),
       st.integers(0, 10_000))
@settings(max_examples=80, deadline=None)
def test_monotone_shrinkage_to_minimal_winning(ws, q, seed):
    """Every winning coalition's excess is dominated by one of its minimal
    winning subsets at any nonnegative payoff vector."""
    total = sum(ws)
    if total == 0:
        return
    rep = representation(min(q, total), ws)
    if not oracles.has_imputation(rep):
        return
    rng = random.Random(seed)
    x = oracles.random_imputation(rep, rng, denominator=97)
    mwcs = oracles.brute_mwcs(rep)
    for S in oracles.coalitions(rep.n):
        if not oracles.wins(rep, S):
            continue
        e = excess(rep, S, x)
        assert any(T <= S and excess(rep, T, x) >= e for T in mwcs)


def test_reachable_weights_bitset():
    # counts-bounded sums of {2 x1, 1 x3}: 0..3 plus 2..5 shifted
    bits = reachable_weights([2, 1], [1, 3])
    reachable = {w for w in range(8) if bits >> w & 1}
    assert reachable == {0, 1, 2, 3, 4, 5}
    bits = reachable_weights([4, 3], [2, 1])
    assert {w for w in range(12) if bits >> w & 1} == {0, 3, 4, 7, 8, 11}

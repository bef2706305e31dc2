import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from nucleo.games import (
    EmptyPlayerSet,
    GameError,
    NegativeWeight,
    NonPositiveQuota,
    QuotaExceedsTotalWeight,
    representation,
    validate,
)
import nucleo.gameio as gameio
from nucleo.coalitions import EnumerationLimit
from nucleo.gameio import ParseError, format_game, parse_game

import oracles


def test_validate_accepts_sorted_game():
    rep = representation(8, [6, 4, 3, 2])
    assert rep.weights == (F(6), F(4), F(3), F(2))
    assert rep.input_order == (0, 1, 2, 3)
    assert validate(rep).weights == rep.weights


def test_validate_single_dictator():
    rep = representation(1, [1])
    assert rep.n == 1 and rep.is_winning({0})


def test_validate_rejects_unwinnable_quota():
    with pytest.raises(QuotaExceedsTotalWeight):
        representation(5, [1, 1])


def test_validate_rejects_bad_inputs():
    with pytest.raises(EmptyPlayerSet):
        representation(1, [])
    with pytest.raises(NegativeWeight):
        representation(1, [2, -1])
    with pytest.raises(NonPositiveQuota):
        representation(0, [1, 2])


def test_sorting_records_input_permutation():
    rep = representation(F(7, 2), [1, 2, 2, 2])
    assert rep.weights == (F(2), F(2), F(2), F(1))
    assert rep.original_weights == (F(1), F(2), F(2), F(2))
    # stable among equal weights: the three 2s keep their input order
    assert rep.input_order == (1, 2, 3, 0)
    # round trip through both orders is the identity
    marked = tuple(range(rep.n))
    assert rep.to_input_order(rep.to_sorted_order(marked)) == marked


def as_outcome(make, quota, weights):
    try:
        rep = make(quota, weights)
    except (GameError, ValueError) as exc:
        return type(exc), str(exc)
    table = rep.weight_types()
    return rep, table.entries, [type(w) for w in rep.weights]


def test_representation_matches_the_per_player_reference():
    # one conversion per distinct weight object: lists mixing int, Fraction,
    # float and str weights, repeated by value and by shared object, give the
    # reference's representation, weight-type table and first error.  0.1
    # and Fraction(0.1) are equal but convert to 1/10 and to the exact binary
    # value, so a cache by value would merge them.
    rng = random.Random(2305)
    values = [0, 1, 2, 3, -1, F(1, 2), F(-1, 3), F(7, 3), 0.1, F(0.1), 0.5, 2.0, -0.25,
              "1/2", "3", "0.1", "2.5", "-1", "x"]
    kinds = set()
    for _ in range(3000):
        shared = [rng.choice(values) for _ in range(rng.randint(1, 3))]
        weights = []
        for _ in range(rng.randint(0, 5)):
            w = rng.choice(shared) if rng.random() < 0.6 else rng.choice(values)
            weights += [w] * rng.choice((1, 1, 3))
        if rng.random() < 0.3:  # equal values as distinct objects
            weights += [F(w) for w in weights if isinstance(w, F)]
        rng.shuffle(weights)
        quota = rng.choice((1, 2, F(7, 2), 0, 40, 0.5, "3"))
        want = as_outcome(oracles.reference_representation, quota, weights)
        assert as_outcome(representation, quota, weights) == want
        kinds.add(want[0] if isinstance(want[0], type) else "ok")
    assert kinds == {"ok", EmptyPlayerSet, NegativeWeight, NonPositiveQuota,
                     QuotaExceedsTotalWeight, ValueError}


def test_is_winning_boundary_is_weak_inequality():
    rep = representation(8, [6, 4, 3, 2])
    assert rep.is_winning({0, 3})           # 6 + 2 = 8 wins on the boundary
    assert not rep.is_winning({1, 2})       # 7 < 8


def test_coalition_weight_rejects_bad_player_indices():
    rep = parse_game("5; 3 2 2")
    assert rep.coalition_weight([1, 2]) == 4
    for players in ([1, 1, 1], [0, 0], [3], [-1]):
        with pytest.raises(GameError):
            rep.coalition_weight(players)
        with pytest.raises(GameError):
            rep.is_winning(players)


def test_is_winning_cross_checked_against_minimal_winning_sets():
    rep = representation(3, [2, 1, 1, 1])
    assert rep.is_winning({1, 2, 3})
    mwcs = oracles.brute_mwcs(rep)
    assert any(S <= {1, 2, 3} for S in mwcs)


def test_normalize_exact():
    norm = representation(8, [6, 4, 3, 2]).normalize()
    assert norm.quota_bar == F(8, 15)
    assert norm.weights_bar == (F(2, 5), F(4, 15), F(1, 5), F(2, 15))
    norm = representation(3, [2, 1, 1, 1]).normalize()
    assert norm.quota_bar == F(3, 5)
    assert norm.weights_bar == (F(2, 5), F(1, 5), F(1, 5), F(1, 5))


def test_normalize_flagship_quota():
    rep = representation(1500, [4] * 300 + [3] * 300 + [2] * 300)
    assert rep.normalize().quota_bar == F(5, 9)


def test_to_integer_luxembourg():
    rep = representation(F(1, 2), [F(9, 20), F(9, 20), F(1, 10)])
    ints = rep.to_integer()
    assert ints.weights == (F(9), F(9), F(2))
    assert ints.quota == F(10)
    # winning sets unchanged, checked exhaustively over all 8 coalitions
    for S in oracles.coalitions(3):
        assert rep.is_winning(S) == ints.is_winning(S)


def test_to_integer_fixpoint_and_gcd():
    rep = representation(8, [6, 4, 3, 2])
    assert rep.to_integer().weights == rep.weights
    assert rep.to_integer().quota == rep.quota
    rep = representation(6, [4, 4, 2, 2])
    ints = rep.to_integer()
    assert ints.quota == F(3)
    assert ints.weights == (F(2), F(2), F(1), F(1))


def test_weight_types():
    table = representation(3, [2, 1, 1, 1]).weight_types()
    assert table.t == 2
    assert table.entries == ((F(2), 1), (F(1), 3))
    assert table.m_circ == 1
    table = representation(1500, [4] * 300 + [3] * 300 + [2] * 300).weight_types()
    assert table.t == 3 and table.m_circ == 300
    table = representation(1, [1]).weight_types()
    assert table.t == 1 and table.m_circ == 1


def test_replicate():
    rep = representation(5, [4, 3, 2]).replicate(2)
    assert rep.quota == F(10)
    assert sorted(rep.original_weights, reverse=True) == [4, 4, 3, 3, 2, 2]
    base = representation(3, [2, 1, 1, 1])
    assert base.replicate(1).original_weights == base.original_weights
    rep3 = base.replicate(3)
    assert rep3.n == 12 and rep3.quota == F(9)
    assert sorted(rep3.original_weights).count(F(2)) == 3


small_games = st.integers(1, 5).flatmap(
    lambda n: st.tuples(
        st.lists(st.integers(0, 6), min_size=n, max_size=n),
        st.integers(1, 30),
    )
)


def _mk(ws_q):
    ws, q = ws_q
    total = sum(ws)
    if total == 0:
        return None
    return representation(min(q, total), ws)


@given(small_games)
def test_weight_types_sum_and_bounds(ws_q):
    rep = _mk(ws_q)
    if rep is None:
        return
    table = rep.weight_types()
    assert sum(w * c for w, c in table.entries) == rep.total_weight
    assert rep.total_weight == sum(rep.weights, F(0))
    assert sum(c for _, c in table.entries) == rep.n
    assert table.m_circ * table.t <= rep.n


@given(small_games, st.integers(1, 3))
def test_replicate_preserves_normalized_quota(ws_q, rho):
    rep = _mk(ws_q)
    if rep is None:
        return
    assert rep.replicate(rho).normalize().quota_bar == rep.normalize().quota_bar


@given(small_games)
@settings(max_examples=60)
def test_winning_invariant_under_scaling_exhaustive(ws_q):
    rep = _mk(ws_q)
    if rep is None:
        return
    ints = rep.to_integer()
    norm = rep.normalize()
    for S in oracles.coalitions(rep.n):
        assert rep.is_winning(S) == ints.is_winning(S)
        wbar = sum((norm.to_input_order()[i] for i in S), F(0))
        assert rep.is_winning(S) == (wbar >= norm.quota_bar)


def test_winning_invariant_twelve_players_exhaustive():
    rep = representation(F(37, 3), [F(9, 2), 4, F(7, 2), 3, 3, 2, 2, 2, 1, 1, 1, F(1, 2)])
    ints = rep.to_integer()
    norm = rep.normalize()
    wbar = norm.to_input_order()
    for S in oracles.coalitions(12):
        winning = rep.is_winning(S)
        assert winning == ints.is_winning(S)
        assert winning == (sum((wbar[i] for i in S), F(0)) >= norm.quota_bar)


# -- game grammar ----------------------------------------------------------


def test_parse_inline_forms():
    rep = parse_game("8; 6 4 3 2")
    assert rep.quota == F(8) and rep.original_weights == (F(6), F(4), F(3), F(2))
    rep = parse_game("1500; 300*4 300*3 300*2")
    assert rep.n == 900 and rep.quota == F(1500)
    rep = parse_game("58%; 5*4 7*1")
    assert rep.quota == F(58, 100) * 27
    rep = parse_game("7/2 ; 1 2 2 2")
    assert rep.quota == F(7, 2)
    rep = parse_game("0.5; 0.45 0.45 0.1")
    assert rep.quota == F(1, 2) and rep.original_weights[2] == F(1, 10)


def test_parse_comments_and_errors():
    rep = parse_game("# a comment\n\n3; 2 1 1 1\n# trailing\n")
    assert rep.n == 4
    with pytest.raises(ParseError):
        parse_game("no separator here")
    with pytest.raises(ParseError):
        parse_game("3; ")
    with pytest.raises(ParseError):
        parse_game("; 1 2")
    with pytest.raises(ParseError):
        parse_game("3; 2 x 1")
    with pytest.raises(ParseError):
        parse_game("3; 0*2 1")


def test_parse_refuses_exponents_and_underscores():
    # Fraction takes these, but the grammar has neither; 1e999999999 would
    # build a billion-digit integer before any check
    for text in ("1e5; 1 2", "5; 2e0 3", "5; 1_0 3", "1e2%; 1 2", "1e999999999; 1 2",
                 "5; 2*1e3", "5; 1/2e1 3", "5; 1.5/2 3", "5; inf 3", "5; 1/0 3"):
        with pytest.raises(ParseError):
            parse_game(text)
    # the documented forms, with signs and both decimal ends
    rep = parse_game("+7/2 ; 1. .5 2.25 3/2 2*1")
    assert rep.quota == F(7, 2)
    assert rep.original_weights == (F(1), F(1, 2), F(9, 4), F(3, 2), F(1), F(1))
    assert parse_game("50.0%; 1 3").quota == 2


def test_parse_run_length_counts_are_ascii_digits():
    # int() takes all three: 10, 3 and 3 players
    for text in ("5; 1_0*1", "2; \u0663*1", "2; +3*1", "2; *1", "2; 1" + "0" * 5000 + "*1"):
        with pytest.raises(ParseError):
            parse_game(text)


def test_parse_caps_the_player_count(monkeypatch):
    monkeypatch.setattr(gameio, "MAX_PLAYERS", 10)
    for text in ("5; 11*1", "5; 6*1 5*1", "5; 9*1 1 1"):
        with pytest.raises(EnumerationLimit):
            parse_game(text)
    assert parse_game("5; 10*1").n == 10
    assert parse_game("5; 5*1 4*1 1").n == 10


def test_format_round_trips():
    rep = representation(F(7, 2), [1, 2, 2, 2])
    assert parse_game(format_game(rep)).original_weights == rep.original_weights
    big = representation(1500, [4] * 300 + [3] * 300 + [2] * 300)
    text = format_game(big)
    assert "300*" in text
    again = parse_game(text)
    assert again.weights == big.weights and again.quota == big.quota

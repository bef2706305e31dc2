import gc
import importlib
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from nucleo.coalitions import EnumerationLimit, minimal_winning_count_vectors
from nucleo.exactlp import solve
from nucleo.gameio import parse_game
from nucleo.games import GameError, representation
from nucleo.nucleolus import nucleolus
from nucleo.theory import (
    DegenerateQuota,
    IdentityViolation,
    WeightAbsent,
    _integer_form,
    _maximal_losing_profiles,
    _verify_witness,
    coincidence_report,
    distance_bound,
    gap_report,
    interchangeable_pairs,
    interchangeable_type_pairs,
    is_constant_sum,
    is_homogeneous_rep,
    null_players,
    permits_homogeneous_rep,
    regularity_statistic,
    replica_threshold,
)
from nucleo.experiments import eq3_representation

import oracles

XSTAR = (F(2, 5), F(1, 5), F(1, 5), F(1, 5))


# -- gap report --------------------------------------------------------------


def test_gap_textbook_game():
    rep = representation(8, [6, 4, 3, 2])
    rpt = gap_report(rep, XSTAR)
    assert rpt.l1_gap == F(2, 15)
    assert rpt.bound == F(12, 7)
    assert rpt.s_plus == frozenset({3})
    assert rpt.l1_gap == 2 * rpt.delta * sum(
        (rep.normalize().to_input_order()[i] for i in rpt.s_minus), F(0)
    )


def test_gap_zero_for_homogeneous_representation():
    rpt = gap_report(representation(3, [2, 1, 1, 1]), XSTAR)
    assert rpt.l1_gap == F(0)
    assert rpt.delta == F(0)


def test_gap_small_weight_game():
    # oracle arithmetic: 2*|1/3 - 9/20| + |1/3 - 1/10| = 7/30 + 7/30 = 7/15,
    # confirmed by the decomposition 2 * (7/27) * (9/10)
    rep = representation(F(1, 2), [F(9, 20), F(9, 20), F(1, 10)])
    rpt = gap_report(rep, (F(1, 3), F(1, 3), F(1, 3)))
    assert rpt.l1_gap == F(7, 15)
    assert rpt.bound == F(9, 5)
    assert rpt.delta == F(7, 27)
    assert rpt.l1_gap <= rpt.bound


def test_gap_report_reads_float_payoffs_as_their_decimal():
    # 7/30 + 4/30 + 11/30 against the weights 1/3 each
    rpt = gap_report(representation(2, [1, 1, 1]), [0.1, 0.2, 0.7])
    assert rpt.l1_gap == F(11, 15)


def test_gap_rejects_degenerate_quota():
    rep = representation(2, [1, 1])
    with pytest.raises(DegenerateQuota):
        gap_report(rep, (F(1, 2), F(1, 2)))
    with pytest.raises(DegenerateQuota):
        distance_bound(rep)


def _gap_outcome(report, rep, x):
    """The report, or the class and message of what it raised."""
    try:
        return report(rep, x)
    except (GameError, IdentityViolation) as exc:
        return type(exc), str(exc)


# integer, fractional and zero weights
GAP_WEIGHTS = (F(0), F(1), F(2), F(3), F(9), F(7, 2), F(5, 2), F(1, 3))
PAYOFF_KINDS = ("solved", "wbar", "float", "str", "half", "double", "onehot",
                "shifted", "random", "short", "long")


@st.composite
def gap_cases(draw, max_n=30):
    n = draw(st.integers(1, max_n))
    ws = draw(st.lists(st.sampled_from(GAP_WEIGHTS), min_size=n, max_size=n))
    if not any(ws):
        ws[0] = F(1)
    # k = 12 puts the quota at the total weight, qbar = 1
    rep = representation(sum(ws, F(0)) * F(draw(st.integers(1, 12)), 12), ws)
    wbar = rep.normalize().to_input_order()
    kind = draw(st.sampled_from(PAYOFF_KINDS))
    if kind == "solved" and n <= 10 and oracles.has_imputation(rep):
        x = nucleolus(rep).x_star
    elif kind == "float":
        x = [float(v) for v in wbar]
    elif kind == "str":
        x = [str(v) for v in wbar]
    elif kind in ("half", "double"):
        x = [v * (F(1, 2) if kind == "half" else 2) for v in wbar]
    elif kind == "onehot":
        j = draw(st.integers(0, n - 1))
        x = [F(int(i == j)) for i in range(n)]
    elif kind == "shifted":
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        moved = wbar[i] * F(draw(st.integers(0, 4)), 4)
        x = list(wbar)
        x[i] -= moved
        x[j] += moved
    elif kind == "random":
        x = [F(draw(st.integers(0, 6)), 7) for _ in range(n)]
    elif kind == "short":
        x = wbar[:-1]
    elif kind == "long":
        x = [*wbar, F(0)]
    else:
        x = wbar
    return rep, x


@given(gap_cases())
@settings(max_examples=200, deadline=None)
def test_gap_report_matches_fraction_reference(case):
    rep, x = case
    got = _gap_outcome(gap_report, rep, x)
    assert got == _gap_outcome(oracles.reference_gap_report, rep, x)
    if not isinstance(got, tuple):
        assert got.bound == distance_bound(rep)


@pytest.mark.parametrize("quota,weights,x,raised", [
    # quota equal to the total weight: qbar = 1
    (6, [3, 2, 1], [F(1, 2), F(1, 3), F(1, 6)], DegenerateQuota),
    (3, [2, 1, 1], [F(1, 2), F(1, 2)], GameError),
    # sums to 3/2: wbar(S-) = 1/2 is paid fully, yet l1 = 1/2
    (3, [2, 1, 1], [F(1, 2), F(1, 2), F(1, 2)], IdentityViolation),
    # half the normalized weights: all of S-, with a nonzero gap
    (3, [2, 1, 1], [F(1, 4), F(1, 8), F(1, 8)], IdentityViolation),
    # twice the normalized weights: S- is empty
    (3, [2, 1, 1], [F(1), F(1, 2), F(1, 2)], IdentityViolation),
    # all to one of four equal players: l1 = 3/2 against the bound 1
    (2, [1] * 4, [F(1), F(0), F(0), F(0)], IdentityViolation),
])
def test_gap_report_checks_match_fraction_reference(quota, weights, x, raised):
    rep = representation(quota, weights)
    got = _gap_outcome(gap_report, rep, x)
    assert got == _gap_outcome(oracles.reference_gap_report, rep, x)
    assert got[0] is raised


def test_gap_flagship_9000():
    rep = representation(15000, [4] * 3000 + [3] * 3000 + [2] * 3000)
    # criterion 5 of test_acceptance pins x* to the normalized weights
    x = rep.normalize().to_input_order()
    rpt = gap_report(rep, x)
    assert rpt.l1_gap == 0
    assert rpt.bound == F(1, 1500)
    assert rpt == oracles.reference_gap_report(rep, x)


# -- coincidence condition ----------------------------------------------------


def test_coincidence_flagship_holds():
    rep = representation(1500, [4] * 300 + [3] * 300 + [2] * 300)
    rpt = coincidence_report(rep)
    assert rpt.lhs == F(400, 3)
    assert rpt.rhs == F(96)
    assert rpt.holds
    assert rpt.replica_threshold == 1


def test_coincidence_small_homogeneous_game_fails():
    rpt = coincidence_report(representation(3, [2, 1, 1, 1]))
    assert rpt.lhs == F(2, 5) and rpt.rhs == F(16) and not rpt.holds


def test_coincidence_calls_for_193_copies_at_simple_majority():
    # equal numbers of weights 4, 3, 2 with a 50% quota: the condition reads
    # m/2 > 96, i.e. it first holds at multiplicity 193
    for m, expect in ((192, False), (193, True)):
        rep = representation(F(9 * m, 2), [4] * m + [3] * m + [2] * m)
        assert coincidence_report(rep).holds is expect


def test_replica_threshold_values():
    assert replica_threshold(representation(5, [4, 3, 2])) == 217
    flagship = representation(1500, [4] * 300 + [3] * 300 + [2] * 300)
    assert replica_threshold(flagship) == 1
    # threshold 1 whenever the condition already holds
    assert coincidence_report(flagship).holds


def test_replication_leaves_condition_data_invariant():
    base = representation(5, [4, 3, 2])
    r0 = coincidence_report(base)
    for rho in (2, 5, 217):
        rep = base.replicate(rho)
        r = coincidence_report(rep)
        assert r.rhs == r0.rhs
        assert r.lhs == r0.lhs * rho
    assert coincidence_report(base.replicate(217)).holds
    assert not coincidence_report(base.replicate(216)).holds


# -- classifiers ---------------------------------------------------------------


def test_constant_sum_examples():
    assert is_constant_sum(representation(3, [2, 1, 1, 1]))
    assert is_constant_sum(representation(8, [6, 4, 3, 2]))
    assert not is_constant_sum(representation(2, [1, 1]))


def test_constant_sum_matches_brute():
    rng = random.Random(3)
    for _ in range(60):
        n = rng.randint(1, 8)
        ws = [rng.randint(0, 5) for _ in range(n)]
        if sum(ws) == 0:
            continue
        q = rng.randint(1, sum(ws))
        rep = representation(q, ws)
        assert is_constant_sum(rep) == oracles.brute_constant_sum(rep)


def test_homogeneous_examples():
    assert is_homogeneous_rep(representation(3, [2, 1, 1, 1]))
    assert not is_homogeneous_rep(representation(8, [6, 4, 3, 2]))
    flagship = representation(1500, [4] * 300 + [3] * 300 + [2] * 300)
    assert not is_homogeneous_rep(flagship)


def test_homogeneous_matches_brute():
    # zero weights, weights up to 12 and quotas in steps of 1/2 or 1/3
    rng = random.Random(4)
    answers = {True: 0, False: 0}
    for _ in range(400):
        n = rng.randint(1, 8)
        ws = [rng.randint(0, rng.choice((5, 12))) for _ in range(n)]
        if sum(ws) == 0:
            ws[0] = 1
        step = rng.choice((1, 1, 2, 3))
        q = F(rng.randint(1, step * sum(ws)), step)
        rep = representation(q, ws)
        got = is_homogeneous_rep(rep)
        assert got == oracles.brute_is_homogeneous(rep), (q, ws)
        answers[got] += 1
    assert min(answers.values()) >= 40


def test_homogeneous_makes_one_knapsack_per_weight_type(monkeypatch):
    # the work must not grow with the largest weight: at most one knapsack
    # per weight type, not one per candidate coalition weight in (q, q + 1000)
    theory = importlib.import_module("nucleo.theory")
    calls = []
    real = theory.reachable_weights

    def counted(weights, counts):
        calls.append(len(weights))
        return real(weights, counts)

    monkeypatch.setattr(theory, "reachable_weights", counted)
    rep = parse_game("5; 1000 1 1 1 1 1")
    assert not is_homogeneous_rep(rep)
    assert 1 <= len(calls) <= len(rep.weight_types().weights)


def test_null_players_examples():
    assert null_players(representation(F(7, 2), [1, 2, 2, 2])) == frozenset({0})
    assert null_players(representation(8, [6, 4, 3, 2])) == frozenset()
    assert null_players(representation(1, [1, 0])) == frozenset({1})


def test_null_players_match_brute():
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randint(1, 8)
        ws = [rng.randint(0, 5) for _ in range(n)]
        if sum(ws) == 0:
            continue
        q = rng.randint(1, sum(ws))
        rep = representation(q, ws)
        assert null_players(rep) == oracles.brute_null_players(rep)


def test_interchangeable_pairs_examples():
    got = interchangeable_pairs(representation(3, [2, 1, 1, 1]))
    assert got == frozenset({frozenset({1, 2}), frozenset({1, 3}), frozenset({2, 3})})
    # different weights can still be interchangeable
    got = interchangeable_pairs(representation(F(5, 2), [1, 2, 2]))
    assert got == frozenset({frozenset({0, 1}), frozenset({0, 2}), frozenset({1, 2})})
    assert interchangeable_pairs(representation(1, [1, 0])) == frozenset()


def test_interchangeable_pairs_player_limit():
    assert len(interchangeable_pairs(representation(9, [1] * 16))) == 16 * 15 // 2
    with pytest.raises(EnumerationLimit):
        interchangeable_pairs(representation(9, [1] * 17))


def test_interchangeable_pairs_match_brute():
    rng = random.Random(6)
    for _ in range(40):
        n = rng.randint(2, 7)
        ws = [rng.randint(0, 5) for _ in range(n)]
        if sum(ws) == 0:
            continue
        q = rng.randint(1, sum(ws))
        rep = representation(q, ws)
        assert interchangeable_pairs(rep) == oracles.brute_interchangeable_pairs(rep)


def test_cross_weight_interchangeability_violates_coincidence():
    # interchangeable players with different weights force the condition to
    # fail, since equality of payoff and weight cannot both hold
    rep = representation(F(5, 2), [1, 2, 2])
    pairs = interchangeable_type_pairs(rep)
    assert frozenset({F(1), F(2)}) in pairs
    assert not coincidence_report(rep.to_integer()).holds


# -- homogeneous representation search ----------------------------------------


def test_permits_homogeneous_textbook_game():
    ok, witness = permits_homogeneous_rep(representation(8, [6, 4, 3, 2]))
    assert ok
    assert witness.normalize().to_input_order() == XSTAR
    assert is_homogeneous_rep(witness)
    assert witness.quota == F(3)
    assert witness.original_weights == (F(2), F(1), F(1), F(1))


def test_permits_homogeneous_flagship_false():
    rep = representation(1500, [4] * 300 + [3] * 300 + [2] * 300)
    ok, witness = permits_homogeneous_rep(rep, profile_cap=400_000)
    assert not ok and witness is None


def test_permits_homogeneous_flagship_stops_at_full_rank():
    # the first 4 of the 41,576 minimal winning profiles already give the
    # equalities full rank t + 1 = 4, so the cap counts only those
    rep = parse_game("1500; 300*4 300*3 300*2")
    assert permits_homogeneous_rep(rep, profile_cap=4) == (False, None)
    with pytest.raises(EnumerationLimit, match="more than 3 profiles"):
        permits_homogeneous_rep(rep, profile_cap=3)


def test_permits_homogeneous_dictator():
    ok, witness = permits_homogeneous_rep(representation(1, [1]))
    assert ok and witness.is_winning({0})


def test_permits_homogeneous_witness_verified_exhaustively():
    rng = random.Random(8)
    found = 0
    for _ in range(40):
        n = rng.randint(2, 6)
        ws = [rng.randint(1, 4) for _ in range(n)]
        q = rng.randint(1, sum(ws))
        rep = representation(q, ws)
        ok, witness = permits_homogeneous_rep(rep)
        if not ok:
            continue
        found += 1
        for S in oracles.coalitions(n):
            assert rep.is_winning(S) == witness.is_winning(S)
        assert oracles.brute_is_homogeneous(witness)
    assert found >= 5


def test_verify_witness_checks_game_and_homogeneity():
    # a fractional witness is scaled to integers: the normalized homogeneous
    # weights of the textbook game pass
    _verify_witness(representation(8, [6, 4, 3, 2]),
                    representation(F(3, 5), [F(2, 5), F(1, 5), F(1, 5), F(1, 5)]))
    # {2, 3} loses at quota 3 and wins at quota 2
    with pytest.raises(IdentityViolation, match="induces a different game"):
        _verify_witness(representation(3, [2, 1, 1, 1]), representation(2, [1, 1, 1, 1]))
    # the game itself, halved: its minimal winning coalitions weigh 7 and 5
    with pytest.raises(IdentityViolation, match="not homogeneous"):
        _verify_witness(representation(5, [4, 3, 2]), representation(F(5, 2), [2, F(3, 2), 1]))


def test_permits_homogeneous_matches_brute_lp(monkeypatch):
    # both answers, zero weights and half-integer quotas, against one LP over
    # every minimal winning and maximal losing coalition; a False answer
    # comes either from equalities of full rank, before any LP, or from an
    # infeasible LP, and both routes are taken
    theory = importlib.import_module("nucleo.theory")
    lp_calls = []
    monkeypatch.setattr(theory, "solve", lambda lp: lp_calls.append(lp) or solve(lp))
    rng = random.Random(20261018)
    answers = {True: 0, "full rank": 0, "infeasible LP": 0}
    for _ in range(300):
        n = rng.randint(1, 8)
        ws = [rng.randint(0, 6) for _ in range(n)]
        if sum(ws) == 0:
            ws[0] = 1
        q = F(rng.randint(1, 2 * sum(ws)), 2)
        rep = representation(q, ws)
        lp_calls.clear()
        ok, _ = permits_homogeneous_rep(rep)
        assert ok == oracles.brute_permits_homogeneous(rep), (q, ws)
        answers[True if ok else "infeasible LP" if lp_calls else "full rank"] += 1
    assert answers[True] >= 30 and answers["full rank"] + answers["infeasible LP"] >= 30
    assert answers["full rank"] >= 5 and answers["infeasible LP"] >= 5


def _verify_outcome(verify, ri, witness):
    try:
        verify(ri, witness)
    except (IdentityViolation, EnumerationLimit) as exc:
        return type(exc), str(exc)
    return None


def test_verify_witness_matches_pair_set_reference():
    # random games against witnesses of the same game and witnesses with
    # other weights per type or another quota, which mostly induce a
    # different game; zero weights on either side
    rng = random.Random(20261021)
    outcomes = {None: 0, "homogeneity witness induces a different game": 0,
                "homogeneity witness is not homogeneous": 0}
    for _ in range(400):
        types = rng.sample(range(0, 9), rng.randint(1, 4))
        if max(types) == 0:
            types.append(1)
        ws = [w for w in types for _ in range(rng.randint(1, 6))]
        ri = _integer_form(representation(F(rng.randint(1, 2 * sum(ws)), 2), ws))
        ok, witness = permits_homogeneous_rep(ri)
        per_type = {w: rng.randint(0, 5) for w in types}
        if sum(per_type[w] for w in ws) == 0:
            per_type[ws[0]] = 1
        wrong = [per_type[w] for w in ws]
        witnesses = [representation(rng.randint(1, sum(wrong)), wrong)]
        if ok:
            witnesses.append(witness)
            if witness.quota + 1 <= witness.total_weight:
                witnesses.append(representation(witness.quota + 1, witness.original_weights))
        for wit in witnesses:
            got = _verify_outcome(_verify_witness, ri, wit)
            assert got == _verify_outcome(oracles.reference_verify_witness, ri, wit), (ri, wit)
            outcomes[got[1] if got else None] += 1
    assert outcomes[None] >= 30
    assert outcomes["homogeneity witness induces a different game"] >= 100
    assert outcomes["homogeneity witness is not homogeneous"] >= 5


def _cyclic_garbage(call):
    """Objects left for the cyclic collector by one call of ``call``."""
    gc.collect()
    gc.disable()
    try:
        call()
        return gc.collect()
    finally:
        gc.enable()


@pytest.mark.parametrize("game", ["1500; 300*4 300*3 300*2", "8; 6 4 3 2"])
def test_enumerations_leave_no_cyclic_garbage(game):
    # a self-calling closure is a reference cycle that would keep the whole
    # result list alive until a full collection
    rep = parse_game(game)
    assert _cyclic_garbage(lambda: minimal_winning_count_vectors(rep, cap=400_000)) == 0
    assert _cyclic_garbage(lambda: _maximal_losing_profiles(rep, 400_000)) == 0
    assert _cyclic_garbage(lambda: permits_homogeneous_rep(rep, profile_cap=400_000)) == 0


def test_maximal_losing_profiles_match_brute():
    rng = random.Random(12)
    games = [representation(F(7, 2), [F(3, 2)] * 3 + [F(1, 2)] * 4 + [0] * 2)]
    while len(games) < 220:
        ws = [rng.choice([0, 0, 1, 2, 3, 4, 5, 6]) for _ in range(rng.randint(1, 10))]
        if sum(ws):
            games.append(representation(F(rng.randint(1, 2 * sum(ws)), 2), ws))
    assert sum(0 in rep.weights for rep in games) >= 50
    for rep in games:
        types = rep.weight_types().weights
        brute = {tuple(sum(1 for i in L if rep.original_weights[i] == w) for w in types)
                 for L in oracles.brute_maximal_losing(rep)}
        assert _maximal_losing_profiles(_integer_form(rep), 10_000) == sorted(brute), rep


@pytest.mark.parametrize("game,count,least_cap", [
    ("120; 40*5 40*3 40*2 40*1", 7175, 7175),
    ("50; 10*4 10*3 10*2", 60, 60),
    ("60%; 8*3 8*2 8*1", 29, 29),
    ("41; 6*4 2*3 7*2 2*0", 4, 4),
    ("7; 20*1 2*0", 1, 1),
])
def test_maximal_losing_profiles_cap_boundary(game, count, least_cap):
    # the limit is checked on appending a profile, so the least cap that
    # does not raise is the list length
    rep = parse_game(game)
    assert len(_maximal_losing_profiles(rep, least_cap)) == count
    with pytest.raises(EnumerationLimit):
        _maximal_losing_profiles(rep, least_cap - 1)


# -- regularity ----------------------------------------------------------------


def test_regularity_alternating_family():
    seq = [eq3_representation(n) for n in range(3, 13)]
    heavy = regularity_statistic(seq, 2)
    assert heavy.values[0] == F(4, 5)
    assert heavy.values == tuple(F(2 * (n - 1), 2 * n - 1) for n in range(3, 13))
    assert min(heavy.values) == F(4, 5)
    assert heavy.appears_bounded_away

    light = regularity_statistic(seq, 1)
    assert light.values == tuple(F(1, 2 * n - 1) for n in range(3, 13))
    assert not light.appears_bounded_away


def test_regularity_replica_family_constant():
    base = representation(5, [4, 3, 2])
    seq = [base.replicate(r) for r in range(1, 7)]
    rpt = regularity_statistic(seq, 4)
    assert rpt.values == tuple([F(4, 9)] * 6)
    assert rpt.appears_bounded_away


def test_regularity_reads_float_weight_as_its_decimal():
    rpt = regularity_statistic([representation(0.2, [0.1] * 3)], 0.1)
    assert rpt.weight == F(1, 10)
    assert rpt.values == (F(1),)


def test_regularity_missing_weight():
    with pytest.raises(WeightAbsent):
        regularity_statistic([representation(3, [2, 1, 1, 1])], 7)


# -- consistency with known nucleolus facts -------------------------------------


def test_condition_forces_coincidence_on_replicated_random_games():
    """Soundness: whenever the condition holds, the nucleolus equals the
    normalized weights; exercised by replicating random small games past
    their guaranteed threshold."""
    rng = random.Random(31)
    checked = 0
    for _ in range(12):
        n = rng.randint(2, 4)
        ws = [rng.randint(1, 3) for _ in range(n)]
        total = sum(ws)
        if total < 2:
            continue
        q = rng.randint(1, total - 1)
        base = representation(q, ws)
        rho = replica_threshold(base)
        rep = base.replicate(rho)
        rpt = coincidence_report(rep)
        assert rpt.holds
        assert nucleolus(rep, engine="typed").x_star == tuple(
            rep.normalize().to_input_order()
        )
        checked += 1
    assert checked >= 8


def test_sufficiency_only_examples():
    # the condition is sufficient, not necessary: one game fails it while the
    # nucleolus still equals the weights, another fails it and differs
    small = representation(3, [2, 1, 1, 1])
    assert not coincidence_report(small).holds
    assert nucleolus(small).x_star == tuple(small.normalize().to_input_order())

    textbook = representation(8, [6, 4, 3, 2])
    assert not coincidence_report(textbook).holds
    assert nucleolus(textbook).x_star != tuple(textbook.normalize().to_input_order())

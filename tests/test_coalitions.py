import importlib
import itertools
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import nucleo.coalitions as coalitions
from nucleo.coalitions import (
    _MAX_POPS,
    DimensionMismatch,
    EnumerationLimit,
    OracleInvariantError,
    OracleStall,
    ProfileCoalition,
    _box_min_cost,
    _clamped_box_min_cost,
    _clamped_ranges,
    _heap_min_cost,
    _scan_min_cost,
    _suffix_tables,
    excess,
    minimal_winning_count_vectors,
    min_cost_selection,
    ordered_excess_vector,
    reachable_weights,
)
from nucleo.exactlp import ExactLinearProgram, LinearConstraint, solve
from nucleo.gameio import parse_game
from nucleo.games import GameError, representation
from nucleo.nucleolus import _ItemSpace

import oracles

XSTAR_8 = (F(2, 5), F(1, 5), F(1, 5), F(1, 5))


def identity_kernel(dim):
    return [[int(i == j) for j in range(dim)] for i in range(dim)]


def solver_oracle(rep, x):
    """The solver's max-excess oracle on the player space, as (excess,
    coalition) in input order, or None.

    Under the identity kernel every non-empty coalition is movable and the
    empty one is not, so the reference is the brute maximum over non-empty
    coalitions.  Coalitions travel as 0/1 vectors in sorted player order.
    """
    space = _ItemSpace(rep, "player")
    y = rep.to_sorted_order([F(v) for v in x])
    found = space.best_excess(y, identity_kernel(rep.n))
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
    # a repeated player would otherwise be paid, and weighed, twice
    with pytest.raises(GameError):
        excess(rep, [0, 0], XSTAR_8)


def test_excess_matches_brute_oracle():
    rep = representation(8, [6, 4, 3, 2])
    for S in oracles.coalitions(4):
        assert excess(rep, S, XSTAR_8) == oracles.brute_excess(rep, S, XSTAR_8)


def test_float_payoffs_read_as_their_decimal():
    # floats enter as their decimal, as in ``representation``: 0.1 is 1/10
    rep = representation(2, [1, 1, 1])
    x = [0.1, 0.2, 0.7]
    assert excess(rep, {0, 1}, x) == F(7, 10)
    assert ordered_excess_vector(rep, x)[0].excess == F(7, 10)


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


def test_minimal_winning_profiles_flagship_members():
    rep = representation(1500, [4] * 300 + [3] * 300 + [2] * 300)
    assert oracles.is_minimal_winning_profile(rep, (300, 100, 0))
    assert oracles.is_minimal_winning_profile(rep, (300, 0, 150))
    assert oracles.is_minimal_winning_profile(rep, (300, 1, 149))
    assert not oracles.is_minimal_winning_profile(rep, (300, 100, 1))
    vectors = set(minimal_winning_count_vectors(rep, cap=400_000))
    assert {(300, 100, 0), (300, 0, 150), (300, 1, 149)} <= vectors


def test_minimal_winning_count_vectors_match_brute_filter():
    rng = random.Random(31)
    zero_types = 0
    for _ in range(150):
        types = sorted(rng.sample(range(1, 9), rng.randint(1, 4)), reverse=True)
        if rng.random() < 0.3:
            types.append(0)
            zero_types += 1
        players = [w for w in types for _ in range(rng.randint(1, 5))]
        q = rng.randint(1, sum(players))
        if rng.random() < 0.3:
            q = F(2 * q - 1, 2)
        rep = representation(q, players)
        brute = sorted(p.counts for p in oracles.all_profiles(rep)
                       if oracles.is_minimal_winning_profile(rep, p.counts))
        assert minimal_winning_count_vectors(rep) == brute
    assert zero_types >= 20


@pytest.mark.parametrize("game,count,least_cap", [
    ("1500; 300*4 300*3 300*2", 41576, 41576),
    ("120; 40*5 40*3 40*2 40*1", 7413, 7413),
    ("50; 10*4 10*3 10*2", 58, 58),
    ("60%; 8*3 8*2 8*1", 27, 27),
    ("7; 20*1 2*0", 1, 1),
    ("25; 17*3", 1, 1),
])
def test_minimal_winning_count_vectors_cap_boundary(game, count, least_cap):
    # the limit is checked on appending a profile, so the least cap that
    # does not raise is the list length, whatever the node order
    rep = parse_game(game)
    assert len(minimal_winning_count_vectors(rep, cap=least_cap)) == count
    with pytest.raises(EnumerationLimit):
        minimal_winning_count_vectors(rep, cap=least_cap - 1)


def test_minimal_winning_profiles_expand_to_explicit():
    rep = representation(3, [2, 1, 1, 1])
    profs = [ProfileCoalition.of(rep, c) for c in minimal_winning_count_vectors(rep)]
    assert [p.counts for p in profs] == [(0, 3), (1, 1)]
    assert profs[0].multiplicity == 1 and profs[1].multiplicity == 3
    assert sum(p.multiplicity for p in profs) == len(oracles.brute_mwcs(rep))


def test_profile_lattice_multiplicities_cover_all_coalitions():
    rep = representation(3, [2, 1, 1, 1])
    profs = oracles.all_profiles(rep)
    assert sum(p.multiplicity for p in profs) == 2 ** rep.n


def test_profile_excess_matches_explicit_at_symmetric_payoff():
    rep = representation(10, [4, 4, 3, 3, 2, 2])
    y = rep.normalize().to_input_order()
    for prof in oracles.all_profiles(rep):
        S = oracles.expand_one(rep, prof)
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
    for prof in oracles.all_profiles(rep):
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
            value, coal = solver_oracle(rep, x)
            vec = ordered_excess_vector(rep, x, limit=n)
            best = next(r.excess for r in vec if r.coalition)
            assert value == best
            assert coal and excess(rep, coal, x) == value


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


def test_reachable_weights_caps_the_total_weight():
    # one bit per unit of total weight: 2**27 bits is 16 MiB
    assert reachable_weights([2**27], [1]) == 1 | 1 << 2**27
    with pytest.raises(EnumerationLimit, match="bitset limit"):
        reachable_weights([2**27 + 1], [1])
    with pytest.raises(EnumerationLimit):
        reachable_weights([2**26, 1], [2, 1])


# -- min_cost_selection against a brute lexicographic minimum -------------------


def lattice(counts):
    return itertools.product(*(range(c + 1) for c in counts))


def in_window(weights, counts, wlo, whi):
    return [vec for vec in lattice(counts)
            if wlo <= sum(j * w for j, w in zip(vec, weights)) <= whi]


def brute_min_cost(weights, counts, costs, wlo, whi, kernel):
    return min(((sum(j * c for j, c in zip(vec, costs)), vec)
                for vec in in_window(weights, counts, wlo, whi)
                if oracles.movable(vec, kernel)),
               default=None)


def random_selection(rng, t, top_weight):
    weights = [rng.randint(1, top_weight) for _ in range(t)]
    counts = [rng.randint(1, 3) for _ in range(t)]
    costs = [rng.choice((0, 0, rng.randint(1, 4), rng.randint(1, 40))) for _ in range(t)]
    total = sum(w * c for w, c in zip(weights, counts))
    wlo = 0 if rng.random() < 0.4 else rng.randint(1, total)
    whi = rng.randint(wlo, total) if rng.random() < 0.5 else total
    # sparse kernel vectors leave many vectors unmovable, so cheap candidates
    # are rejected and partition sub-boxes are searched
    kernel, size = [], rng.randint(1, 3)
    while len(kernel) < size:
        kv = [rng.choice((0, 0, 0, 1, -1, 2)) for _ in range(t)]
        if any(kv):
            kernel.append(kv)
    return weights, counts, costs, wlo, whi, kernel


@pytest.mark.parametrize("search", [_scan_min_cost, _heap_min_cost, min_cost_selection])
def test_min_cost_selection_matches_brute_lexicographic_minimum(search):
    rng = random.Random(9091)
    rejected = 0
    for _ in range(150):
        weights, counts, costs, wlo, whi, kernel = random_selection(
            rng, rng.randint(1, 5), rng.choice((3, 12, 200)))
        want = brute_min_cost(weights, counts, costs, wlo, whi, kernel)
        assert search(weights, counts, costs, wlo, whi, kernel) == want
        # answers found after at least one rejected candidate
        cheapest = min(((sum(j * c for j, c in zip(vec, costs)), vec)
                        for vec in in_window(weights, counts, wlo, whi)), default=None)
        rejected += want is not None and want != cheapest
    assert rejected >= 40


def test_min_cost_selection_breaks_cost_ties_by_counts():
    # all costs zero over a wide window: every selection ties, so the answer
    # is the lexicographically smallest movable count vector of the window
    weights, counts, costs = [5, 3, 2], [2, 3, 2], [0, 0, 0]
    for search in (_scan_min_cost, _heap_min_cost):
        assert search(weights, counts, costs, 7, 30, identity_kernel(3)) == (0, (0, 1, 2))
        # movable iff vec[0] > 0
        assert search(weights, counts, costs, 7, 30, [[1, 0, 0]]) == (0, (1, 0, 1))
    # costs proportional to weights: every selection of one weight ties
    weights, counts, costs = [6, 4, 2], [2, 2, 3], [3, 2, 1]
    for search in (_scan_min_cost, _heap_min_cost):
        assert search(weights, counts, costs, 8, 8, identity_kernel(3)) == (4, (0, 1, 2))
        # of the weight-8 vectors, only (0, 1, 2) is orthogonal to (0, 2, -1)
        assert search(weights, counts, costs, 8, 8, [[0, 2, -1]]) == (4, (0, 2, 0))


def test_min_cost_selection_none_when_no_vector_moves():
    # every vector of weight at most 4 leaves out the weight-5 item, so it is
    # orthogonal to the kernel: no answer, and no stall
    weights, counts, costs = [2, 3, 5], [2, 2, 2], [1, 1, 1]
    assert len(in_window(weights, counts, 0, 4)) == 4
    for search in (_scan_min_cost, _heap_min_cost, min_cost_selection):
        assert search(weights, counts, costs, 0, 4, [[0, 0, 1]]) is None


def test_only_the_partition_search_has_a_rejection_budget(monkeypatch):
    # the 31 * 31 vectors without the third item are unmovable and cheaper
    # than any vector with it, so the search rejects 961 candidates first
    args = ([1, 1, 1], [30, 30, 1], [1, 1, 1000], 0, 61, [[0, 0, 1]])
    want = (1000, (0, 0, 1))
    assert _MAX_POPS < 961
    with pytest.raises(OracleStall):
        min_cost_selection(*args)
    monkeypatch.setattr(coalitions, "_MAX_POPS", 960)
    with pytest.raises(OracleStall):
        _heap_min_cost(*args)
    monkeypatch.setattr(coalitions, "_MAX_POPS", 961)
    assert _heap_min_cost(*args) == want
    # the lattice scan has no budget
    monkeypatch.setattr(coalitions, "_MAX_POPS", 0)
    assert _scan_min_cost(*args) == want


def test_min_cost_selection_scans_when_the_lattice_is_smaller(monkeypatch):
    calls = []
    monkeypatch.setattr(coalitions, "_scan_min_cost", lambda *a: calls.append("scan"))
    monkeypatch.setattr(coalitions, "_heap_min_cost", lambda *a: calls.append("heap"))
    # 2^8 = 256 selections against 8 * 5001 table entries
    min_cost_selection([600] * 8, [1] * 8, [1] * 8, 2500, 5000, identity_kernel(8))
    # 301^3 selections against 3 * 3601 table entries
    min_cost_selection([4, 3, 2], [300] * 3, [1] * 3, 1500, 3600, identity_kernel(3))
    # 5 selections against 1 * 5 table entries, then against 1 * 4
    min_cost_selection([1], [4], [1], 0, 4, [[1]])
    min_cost_selection([1], [4], [1], 0, 3, [[1]])
    assert calls == ["scan", "heap", "scan", "heap"]


def test_reconstruction_failure_is_an_invariant_error():
    # the shared tables, where no count exceeds 2 * max(weights) + 1
    weights, counts, costs = [2, 3], [1, 1], [5, 7]
    tables = _suffix_tables({}, weights, counts, costs, 5)
    assert _box_min_cost(tables, weights, counts, costs, (), 0, 1, 3, 5) == (7, (0, 1))
    tables[1][3] = 1  # cheaper than any selection of weight 3
    with pytest.raises(OracleInvariantError):
        _box_min_cost(tables, weights, counts, costs, (), 0, 1, 3, 5)
    # a clamped box (counts 20 > 7), whose tables live in its cache
    weights, counts, costs = [2, 3], [20, 20], [5, 7]
    box = ((), 0, 20, 30, 33)
    cache = {}
    want = oracles.unclamped_box_min_cost(weights, counts, costs, *box)
    assert _clamped_box_min_cost(cache, 7, weights, counts, costs, *box) == want == (70, (0, 10))
    assert cache
    for table in cache.values():  # every suffix 1 cheaper than it can be
        table[:] = [v if v is None else v - 1 for v in table]
    with pytest.raises(OracleInvariantError, match="no count of item 1 completes"):
        _clamped_box_min_cost(cache, 7, weights, counts, costs, *box)
    assert not issubclass(OracleInvariantError, OracleStall)


# -- clamped boxes and the partition search over them ---------------------------


def clamped_box(weights, counts, costs, prefix, lo, hi, wlo, whi):
    return _clamped_box_min_cost({}, 2 * max(weights) + 1, weights, counts, costs,
                                 prefix, lo, hi, wlo, whi)


def scan_box(weights, counts, costs, prefix, lo, hi, wlo, whi):
    """A box answered by ``_scan_min_cost`` over its free items, shifted to
    start at the box's lowest corner.  The all-ones kernel leaves only that
    corner unmovable; as the lexicographically smallest vector it is the
    answer when it is in the window and no selection is cheaper."""
    k = len(prefix)
    corner = tuple(prefix) + (lo,) + (0,) * (len(weights) - k - 1)
    cw = sum(j * w for j, w in zip(corner, weights))
    cc = sum(j * c for j, c in zip(corner, costs))
    found = [(cc, corner)] if wlo <= cw <= whi else []
    free = [hi - lo] + list(counts[k + 1:])
    got = _scan_min_cost(weights[k:], free, costs[k:], wlo - cw, whi - cw, [[1] * len(free)])
    if got is not None:
        found.append((got[0] + cc,
                      corner[:k] + tuple(a + j for a, j in zip(corner[k:], got[1]))))
    return min(found, default=None)


def random_box(rng, top_weight, top_count):
    t = rng.randint(1, 4)
    weights = [rng.randint(1, top_weight) for _ in range(t)]
    counts = [rng.choice((1, 3, top_count // 4, top_count)) for _ in range(t)]
    costs = [rng.choice((0, 0, rng.randint(1, 9), -rng.randint(1, 9), rng.randint(-40, 40)))
             for _ in range(t)]
    total = sum(w * c for w, c in zip(weights, counts))
    wlo = 0 if rng.random() < 0.3 else rng.randint(0, total)
    whi = rng.randint(wlo, total) if rng.random() < 0.6 else total
    k = rng.randint(0, t - 1)
    prefix = tuple(rng.randint(0, c) for c in counts[:k])
    lo = rng.randint(0, counts[k])
    return weights, counts, costs, prefix, lo, rng.randint(lo, counts[k]), wlo, whi


def test_clamp_centres_on_the_vertex_of_the_perturbed_lp():
    # with reach 0 the clamp is (ceil, floor) of each vertex coordinate; the
    # exact simplex solves the relaxation under the perturbed cost
    # c*M + P**(t-1-m), whose per-weight ratios are all distinct, so its
    # optimum is the one vertex
    rng = random.Random(1707)
    vertices = infeasible = fractional = 0
    for _ in range(300):
        weights, counts, costs, prefix, lo, hi, wlo, whi = random_box(rng, 5, 30)
        k = len(prefix)
        ranges = [(lo, hi)] + [(0, c) for c in counts[k + 1:]]
        acc_w = sum(j * w for j, w in zip(prefix, weights))
        got = _clamped_ranges(weights, costs, ranges, wlo - acc_w, whi - acc_w, 0)
        free = len(ranges)
        p = max(max(counts), max(weights)) + 1
        big = 2 * max(weights) ** 2 * p ** len(weights)
        lp = ExactLinearProgram(
            num_vars=free,
            objective=tuple(c * big + p ** (len(weights) - 1 - m)
                            for m, c in enumerate(costs) if m >= k),
            constraints=[LinearConstraint(tuple(weights[k:]), ">=", wlo - acc_w),
                         LinearConstraint(tuple(weights[k:]), "<=", whi - acc_w)],
            lower_bounds=tuple(a for a, _ in ranges),
            upper_bounds=tuple(b for _, b in ranges))
        sol = solve(lp)
        if sol.status == "infeasible":
            assert got is None
            infeasible += 1
            continue
        assert got == [(math.ceil(v), math.floor(v)) for v in sol.values]
        vertices += 1
        fractional += any(v.denominator > 1 for v in sol.values)
    assert vertices >= 150 and infeasible >= 40 and fractional >= 50


def test_clamped_box_matches_the_unclamped_box():
    # counts up to 300 against a reach of at most 2 * 7 + 1, fixed prefixes,
    # sub-ranges of the next item, zero and negative costs, random windows
    rng = random.Random(2018)
    answers = empty = 0
    for _ in range(700):
        box = random_box(rng, 7, 300)
        want = oracles.unclamped_box_min_cost(*box)
        assert clamped_box(*box) == want
        answers += want is not None
        empty += want is None
    assert answers >= 400 and empty >= 100


def test_clamped_box_matches_the_lattice_scan():
    rng = random.Random(1986)
    answers = empty = 0
    while answers < 300:
        weights, counts, costs, prefix, lo, hi, wlo, whi = box = random_box(rng, 4, 60)
        k = len(prefix)
        if (hi - lo + 1) * math.prod(c + 1 for c in counts[k + 1:]) > 4000:
            continue
        want = scan_box(*box)
        assert clamped_box(*box) == want
        answers += want is not None
        empty += want is None
    assert empty >= 50


def test_heap_min_cost_matches_brute_minimum_on_clamped_boxes():
    # every instance has a count above 2 * max(weights) + 1, so its boxes are
    # clamped; a kernel vector on one or two items leaves many cheap vectors
    # unmovable, so answers come from sub-boxes far from the root's vertex
    rng = random.Random(2020)
    rejected = 0
    for _ in range(250):
        t = rng.randint(2, 3)
        weights = [rng.randint(1, 3) for _ in range(t)]
        counts = [rng.randint(1, 16) for _ in range(t)]
        counts[rng.randrange(t)] = rng.randint(2 * max(weights) + 2, 16)
        costs = [rng.choice((0, rng.randint(1, 5), -rng.randint(1, 5), rng.randint(-30, 30)))
                 for _ in range(t)]
        total = sum(w * c for w, c in zip(weights, counts))
        wlo = rng.randint(0, total)
        whi = rng.randint(wlo, total)
        kernel = [[0] * t]
        for _ in range(rng.randint(1, 2)):
            kernel[0][rng.randrange(t)] = rng.choice((1, -1, 2))
        want = brute_min_cost(weights, counts, costs, wlo, whi, kernel)
        assert _heap_min_cost(weights, counts, costs, wlo, whi, kernel) == want
        cheapest = min(((sum(j * c for j, c in zip(vec, costs)), vec)
                        for vec in in_window(weights, counts, wlo, whi)), default=None)
        rejected += want is not None and want != cheapest
    assert rejected >= 40


def test_flagship_oracle_tables_are_clamped(monkeypatch):
    # the 9000-player flagship: the same 8 selections and 12 heap pops as
    # with tables over every weight up to 27,000, whose largest convolution
    # built 27,001 cells; a clamped one holds at most
    # sum(weights) * (4 * 4 + 2) + 1 = 163
    nuc = importlib.import_module("nucleo.nucleolus")  # the module, not the function
    real_convolve, real_select = coalitions._convolve, nuc.min_cost_selection
    real_movable = coalitions._movable
    cells, tally = [], {"select": 0, "pops": 0}

    def convolve(old, omega, lo, hi, cost, top):
        cells.append(top + 1)
        return real_convolve(old, omega, lo, hi, cost, top)

    def select(*args):
        tally["select"] += 1
        return real_select(*args)

    def movable(*args):
        tally["pops"] += 1
        return real_movable(*args)

    monkeypatch.setattr(coalitions, "_convolve", convolve)
    monkeypatch.setattr(coalitions, "_movable", movable)
    monkeypatch.setattr(nuc, "min_cost_selection", select)
    result = nuc.nucleolus(parse_game("15000; 3000*4 3000*3 3000*2"), engine="typed")
    assert result.x_star[0] == F(1, 6750)
    assert tally == {"select": 8, "pops": 12}
    assert cells and max(cells) <= 163

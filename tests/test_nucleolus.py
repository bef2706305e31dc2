import collections
import importlib
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from nucleo import coalitions
from nucleo.cli import main
from nucleo.coalitions import EnumerationLimit, ordered_excess_vector
from nucleo.games import representation
from nucleo.nucleolus import NoImputation, _ItemSpace, _start, nucleolus, nucleus_box

# the module, which the package's ``nucleolus`` function shadows
nucleolus_module = importlib.import_module("nucleo.nucleolus")

import oracles


def xstar(rep, engine="auto"):
    return nucleolus(rep, engine=engine).x_star


def test_textbook_four_player_game():
    rep = representation(8, [6, 4, 3, 2])
    want = (F(2, 5), F(1, 5), F(1, 5), F(1, 5))
    assert xstar(rep, "brute") == want
    assert xstar(rep, "typed") == want


def test_homogeneous_representation_game():
    rep = representation(3, [2, 1, 1, 1])
    want = (F(2, 5), F(1, 5), F(1, 5), F(1, 5))
    assert xstar(rep, "brute") == want
    assert xstar(rep, "typed") == want


def test_dictator_with_null_player():
    assert xstar(representation(1, [1, 0])) == (F(1), F(0))


def test_small_weight_large_power():
    for eps in (F(1, 10), F(1, 4), F(2, 5)):
        rep = representation(F(1, 2), [(1 - eps) / 2, (1 - eps) / 2, eps])
        assert xstar(rep) == (F(1, 3), F(1, 3), F(1, 3))


def test_alternating_family_small():
    assert xstar(representation(F(7, 2), [1, 2, 2, 2])) == (F(0), F(1, 3), F(1, 3), F(1, 3))
    assert xstar(representation(F(5, 2), [1, 2, 2])) == (F(1, 3), F(1, 3), F(1, 3))


def test_one_replication_reaches_weights():
    rep = representation(5, [4, 3, 2]).replicate(2)
    assert xstar(rep) == tuple(rep.normalize().to_input_order())


def test_percentage_quota_sensitivity_triple():
    q58 = lambda ws: representation(F(58, 100) * sum(ws), ws)
    rep = q58([4] * 5 + [1] * 6)
    assert xstar(rep) == tuple(rep.normalize().to_input_order())
    rep = q58([4] * 5 + [1] * 7)
    assert xstar(rep) == tuple([F(1, 5)] * 5 + [F(0)] * 7)
    rep = q58([4] * 5 + [1] * 8)
    assert xstar(rep) == tuple(rep.normalize().to_input_order())


def test_unsorted_input_order_is_respected():
    rep = representation(8, [2, 6, 3, 4])
    assert xstar(rep) == (F(1, 5), F(2, 5), F(1, 5), F(1, 5))


def test_zero_weight_players_reinserted():
    rep = representation(8, [6, 0, 4, 3, 0, 2])
    assert xstar(rep) == (F(2, 5), F(0), F(1, 5), F(1, 5), F(0), F(1, 5))


def test_levels_strictly_decrease_and_engines_agree_on_point():
    rng = random.Random(99)
    for _ in range(25):
        n = rng.randint(2, 8)
        ws = [rng.randint(1, 7) for _ in range(n)]
        q = rng.randint(1, sum(ws))
        if sum(1 for w in ws if w >= q) >= 2:
            continue
        rep = representation(q, ws)
        rb = nucleolus(rep, engine="brute")
        rt = nucleolus(rep, engine="typed")
        assert rb.x_star == rt.x_star
        for res in (rb, rt):
            eps = [lev.epsilon for lev in res.levels]
            assert all(a > b for a, b in zip(eps, eps[1:]))
            assert sum(res.x_star, F(0)) == F(1)


def test_equal_treatment_exact():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randint(3, 9)
        ws = [rng.choice([1, 2, 2, 3, 5]) for _ in range(n)]
        q = rng.randint(1, sum(ws))
        if sum(1 for w in ws if w >= q) >= 2:
            continue
        rep = representation(q, ws)
        x = xstar(rep)
        for i in range(n):
            for j in range(n):
                if ws[i] == ws[j]:
                    assert x[i] == x[j]


def test_representation_invariance():
    base = representation(F(7, 2), [1, 2, 2, 2])
    ints = base.to_integer()
    lam = base.rescale(F(3, 7))
    assert xstar(base) == xstar(ints) == xstar(lam)


def test_lexicographic_optimality_on_samples():
    rng = random.Random(11)
    rep = representation(8, [6, 4, 3, 2])
    x = xstar(rep, "brute")
    vec_star = [r.excess for r in ordered_excess_vector(rep, x)]
    for _ in range(100):
        y = oracles.random_imputation(rep, rng)
        vec_y = [r.excess for r in ordered_excess_vector(rep, y)]
        assert oracles.lex_leq(vec_star, vec_y)


def test_brute_engine_player_cap():
    rep = representation(11, [1] * 21)
    with pytest.raises(EnumerationLimit, match="brute engine"):
        nucleolus(rep, engine="brute")
    # the cap counts players of positive weight only
    rep = representation(11, [1] * 20 + [0])
    assert nucleolus(rep, engine="brute").x_star == (F(1, 20),) * 20 + (F(0),)


def test_no_imputation_game_rejected():
    with pytest.raises(NoImputation):
        nucleolus(representation(1, [1, 1]))


def test_engine_auto_selection():
    # auto is the typed engine, whatever the player count or weight types
    assert nucleolus(representation(8, [6, 4, 3, 2])).engine == "typed"
    rep = representation(15, [9, 8, 7, 6, 5, 4, 3])
    assert nucleolus(rep).engine == "typed"
    assert nucleolus(rep, engine="brute").engine == "brute"
    big = representation(1500, [4] * 300 + [3] * 300 + [2] * 300)
    assert nucleolus(big).engine == "typed"


def test_auto_equals_typed_on_many_weight_types():
    # small games with at least 7 distinct weights, some of them repeated:
    # auto gives the typed engine's output, whose x* is the brute engine's
    rng = random.Random(1117)
    checked = 0
    while checked < 25:
        types = rng.sample(range(1, 16), rng.randint(7, 9))
        ws = types + rng.choices(types, k=rng.randint(1, 11 - len(types)))
        rng.shuffle(ws)
        rep = representation(rng.randint(1, sum(ws)), ws)
        if not oracles.has_imputation(rep):
            continue
        auto = nucleolus(rep)
        assert auto.to_json_dict() == nucleolus(rep, engine="typed").to_json_dict()
        assert auto.x_star == nucleolus(rep, engine="brute").x_star
        checked += 1


def test_result_serialization_shape():
    res = nucleolus(representation(8, [6, 4, 3, 2]), engine="brute")
    data = res.to_json_dict()
    assert data["x_star"] == ["2/5", "1/5", "1/5", "1/5"]
    assert data["engine"] == "brute"
    assert data["levels"][0]["epsilon"] == "2/5"
    members = {tuple(c["members"]) for c in data["levels"][0]["coalitions"]}
    assert members <= {(1, 2), (1, 3), (1, 4), (2, 3, 4)}
    json.dumps(data)  # serializable

    res = nucleolus(representation(8, [6, 4, 3, 2]), engine="typed")
    data = res.to_json_dict()
    prof = data["levels"][0]["coalitions"][0]
    assert "profile" in prof and all("weight" in e and "count" in e for e in prof["profile"])


def test_nucleus_box_contains_nucleolus():
    rep = representation(8, [6, 4, 3, 2])
    box = nucleus_box(rep)
    x = xstar(rep)
    for lo, xi, hi in zip(box.lower, x, box.upper):
        assert lo <= xi <= hi


def test_nucleus_box_singleton_cases():
    rep = representation(10, [4, 4, 3, 3, 2, 2])
    box = nucleus_box(rep)
    assert box.is_point
    assert box.lower == tuple(rep.normalize().to_input_order())

    box = nucleus_box(representation(1, [1, 0]))
    assert box.is_point and box.lower == (F(1), F(0))


def test_nucleus_box_unanimity_is_whole_imputation_set():
    # every coalition except N loses, so the largest excess is the constant 0
    # and every imputation minimizes it
    box = nucleus_box(representation(2, [1, 1]), engine="brute")
    assert box.lower == (F(0), F(0))
    assert box.upper == (F(1), F(1))


def test_stage_without_a_positive_dual_is_an_internal_error(monkeypatch, capsys):
    # the working duals sum to 1 at every stage optimum; zeroing them must
    # end the solve with the internal-invariant exit code
    real_stage_level = nucleolus_module._stage_level

    def zero_duals(*args):
        kernel, y, eps, work_duals = real_stage_level(*args)
        return kernel, y, eps, [F(0)] * len(work_duals)

    monkeypatch.setattr(nucleolus_module, "_stage_level", zero_duals)
    assert main(["solve", "8; 6 4 3 2"]) == 4
    assert "no positive dual" in capsys.readouterr().err


NUCLEUS_BOXES = [
    # (quota, input weights, engine, lower, upper); the boxes of the first
    # game are not points, and the players are unsorted with a null player
    (6, [1, 4, 0, 2, 2, 3], "brute",
     ["0", "1/4", "0", "0", "0", "1/6"], ["1/6", "1/2", "0", "1/4", "1/4", "1/2"]),
    (6, [1, 4, 0, 2, 2, 3], "typed",
     ["0", "1/4", "0", "0", "0", "1/6"], ["1/6", "1/2", "0", "1/4", "1/4", "1/2"]),
    # fractional weights: the box over all imputations is wider than the one
    # over weight-symmetric payoffs, which is the nucleolus
    ("1/2", ["3/10", 0, "1/5", "3/10", "1/5"], "brute",
     ["1/4", "0", "0", "1/4", "0"], ["1/2", "0", "1/4", "1/2", "1/4"]),
    ("1/2", ["3/10", 0, "1/5", "3/10", "1/5"], "typed",
     ["1/3", "0", "1/6", "1/3", "1/6"], ["1/3", "0", "1/6", "1/3", "1/6"]),
    ("5/3", ["1/3", "4/3", 0, "2/3", "2/3", 1], "brute",
     ["1/7", "2/7", "0", "1/7", "1/7", "2/7"], ["1/7", "2/7", "0", "1/7", "1/7", "2/7"]),
    ("5/3", ["1/3", "4/3", 0, "2/3", "2/3", 1], "typed",
     ["1/7", "2/7", "0", "1/7", "1/7", "2/7"], ["1/7", "2/7", "0", "1/7", "1/7", "2/7"]),
    (10, [1, 5, 3, 4, 2], "brute",
     ["0", "1/3", "0", "1/6", "0"], ["1/6", "1/3", "1/3", "1/3", "1/3"]),
    (10, [1, 5, 3, 4, 2], "typed",
     ["0", "1/3", "0", "1/6", "0"], ["1/6", "1/3", "1/3", "1/3", "1/3"]),
    # 7 distinct weights: auto is the typed engine, whose box pays the two
    # weight-3 players (6 and 9) equally; the brute box does not
    (39, [6, 6, 7, 10, 4, 3, 11, 1, 3], "auto",
     ["1/9", "1/9", "1/9", "2/9", "1/18", "1/18", "2/9", "0", "1/18"],
     ["1/9", "1/9", "1/6", "2/9", "1/9", "1/18", "2/9", "0", "1/18"]),
    (39, [6, 6, 7, 10, 4, 3, 11, 1, 3], "brute",
     ["1/9", "1/9", "1/9", "2/9", "1/18", "0", "2/9", "0", "0"],
     ["1/9", "1/9", "1/6", "2/9", "1/9", "1/9", "2/9", "0", "1/9"]),
]


@pytest.mark.parametrize("quota, weights, engine, lower, upper", NUCLEUS_BOXES)
def test_nucleus_box_exact_values(quota, weights, engine, lower, upper):
    rep = representation(F(quota), [F(w) for w in weights])
    box = nucleus_box(rep, engine=engine)
    assert box.lower == tuple(F(v) for v in lower)
    assert box.upper == tuple(F(v) for v in upper)
    assert all(type(v) is F for v in box.lower + box.upper)


# ---------------------------------------------------------------------------
# the oracle's stall fallback: a lattice scan when the knapsack search stalls
# ---------------------------------------------------------------------------


@pytest.fixture
def oracle_paths(monkeypatch):
    """Calls per oracle path: the lattice scan and the partition search that
    ``min_cost_selection`` picks between, and ``best_excess``'s fallback."""
    calls = collections.Counter()

    def counted(name, search):
        def wrapper(*args):
            calls[name] += 1
            return search(*args)
        return wrapper

    monkeypatch.setattr(coalitions, "_scan_min_cost", counted("scan", coalitions._scan_min_cost))
    monkeypatch.setattr(coalitions, "_heap_min_cost", counted("heap", coalitions._heap_min_cost))
    monkeypatch.setattr(nucleolus_module, "_scan_min_cost",
                        counted("fallback", nucleolus_module._scan_min_cost))
    return calls


def oracle_setup(rep, granularity, rng):
    """A space, a kernel with one frozen row beyond efficiency, and a random
    nonnegative payoff per class."""
    space = _ItemSpace(rep, granularity)
    system, _ = _start(space)
    lattice = [range(c + 1) for c in space.counts]
    while system.rank < 2:
        row = [rng.choice(r) for r in lattice]
        # consistent with the equal split, which satisfies efficiency
        system.add_row([F(j) for j in row], F(sum(row), rep.n))
    y = [F(rng.randint(0, 40), 97) for _ in range(space.dim)]
    return space, system.kernel_basis_int(), y


def brute_best_value(rep, granularity, y, kernel):
    """The largest excess of a movable vector, by listing every coalition
    (players) or every profile (types); None if none."""
    if granularity == "player":
        x = rep.to_input_order(y)
        skip = set()
        for S in oracles.coalitions(rep.n):
            vec = rep.to_sorted_order([int(i in S) for i in range(rep.n)])
            if not oracles.movable(vec, kernel):
                skip.add(S)
        best = oracles.brute_max_excess(rep, x, skip)
        return None if best is None else best[0]
    best = None
    for prof in oracles.all_profiles(rep):
        if not oracles.movable(prof.counts, kernel):
            continue
        e = (1 if prof.weight >= rep.quota else 0) - sum(
            (j * yk for j, yk in zip(prof.counts, y)), F(0))
        best = e if best is None or e > best else best
    return best


@pytest.mark.parametrize("granularity", ["player", "type"])
def test_stall_fallback_matches_brute_reference(granularity, monkeypatch, oracle_paths):
    rng = random.Random(3131 if granularity == "player" else 4242)
    checked = stalled = 0
    while checked < 40:
        n = rng.randint(6, 10) if granularity == "player" else rng.randint(4, 14)
        ws = [rng.randint(1, 3 if granularity == "player" else 4) for _ in range(n)]
        rep = representation(rng.randint(2, sum(ws)), ws)
        if not oracles.has_imputation(rep):
            continue
        if granularity == "type" and rep.weight_types().t < 2:
            continue
        space, kernel, y = oracle_setup(rep, granularity, rng)
        # the knapsack's own answer once its rejection budget cannot run out
        monkeypatch.setattr(coalitions, "_MAX_POPS", 10**9)
        want = space.best_excess(y, kernel)
        # a partition search stalls at its first rejected candidate
        monkeypatch.setattr(coalitions, "_MAX_POPS", 0)
        fallbacks = oracle_paths["fallback"]
        got = space.best_excess(y, kernel)
        assert got == want
        if oracle_paths["fallback"] > fallbacks:
            stalled += 1
            last_stall = space, kernel, y, got
        expect = brute_best_value(rep, granularity, y, kernel)
        if expect is None:
            assert got is None
            continue
        vec, value = got
        assert value == expect
        assert oracles.movable(vec, kernel)
        assert space.excess_at(vec, y) == value
        checked += 1
    assert stalled >= 20

    # the fallback lists at most _SCAN_CAP count vectors
    space, kernel, y, got = last_stall
    size = math.prod(c + 1 for c in space.counts)
    monkeypatch.setattr(nucleolus_module, "_SCAN_CAP", size)
    assert space.best_excess(y, kernel) == got
    monkeypatch.setattr(nucleolus_module, "_SCAN_CAP", size - 1)
    with pytest.raises(EnumerationLimit, match="fallback scan"):
        space.best_excess(y, kernel)


def test_oracle_prefers_a_winning_vector_on_a_tie(monkeypatch, oracle_paths):
    # {3} loses and {2, 3} wins, both at excess 0, and {3} comes first; the
    # winning window's 2^3 vectors are scanned, the losing window searched
    space = _ItemSpace(representation(2, [1, 1, 1]), "player")
    assert space.best_excess((F(1), F(1), F(0)), [[1, 1, 1]]) == ((0, 1, 1), F(0))
    assert oracle_paths == {"scan": 1, "heap": 1}
    # the same tie among eight players, where both windows take the
    # partition search (2^8 vectors against 8 * 9 and 8 * 2 table entries);
    # the losing window rejects the empty coalition, so a budget of 0 stalls
    # it and the fallback answers
    space = _ItemSpace(representation(2, [1] * 8), "player")
    y, kernel = (F(1),) * 7 + (F(0),), [[1] * 8]
    want = ((0,) * 6 + (1, 1), F(0))
    assert space.best_excess(y, kernel) == want
    assert oracle_paths == {"scan": 1, "heap": 3}
    monkeypatch.setattr(coalitions, "_MAX_POPS", 0)
    assert space.best_excess(y, kernel) == want
    assert oracle_paths == {"scan": 1, "heap": 5, "fallback": 2}


@pytest.mark.parametrize("engine", ["brute", "typed"])
def test_stall_past_the_scan_cap_exits_3(engine, monkeypatch, capsys, oracle_paths):
    game = "23 ; 3 1 2 4 1 3 1 4 3 3 1"
    if engine == "typed":
        # every oracle call of the typed solve takes the partition search,
        # so a budget of 0 stalls it at its first rejected candidate
        assert main(["solve", "--engine", "typed", game]) == 0
        assert oracle_paths == {"heap": 8}
        monkeypatch.setattr(coalitions, "_MAX_POPS", 0)
    # the brute solve stalls on its own
    monkeypatch.setattr(nucleolus_module, "_SCAN_CAP", 8)
    capsys.readouterr()
    assert main(["solve", "--engine", engine, game]) == 3
    assert "fallback scan" in capsys.readouterr().err


def test_scan_sized_oracle_calls_never_stall(monkeypatch, oracle_paths):
    # eight players and least winning weight 40: every oracle call lists its
    # 2^8 count vectors (no more than 8 * (whi + 1) table entries), which has
    # no rejection budget, so neither the budget nor the fallback cap applies
    rep = representation(40, [10, 9, 8, 7, 6, 5, 4, 3])
    want = nucleolus(rep, engine="brute").x_star
    monkeypatch.setattr(coalitions, "_MAX_POPS", 0)
    monkeypatch.setattr(nucleolus_module, "_SCAN_CAP", 1)
    assert nucleolus(rep, engine="brute").x_star == want
    assert set(oracle_paths) == {"scan"}


def test_stalling_brute_solve_does_not_import_numpy():
    script = (
        "import sys\n"
        "from nucleo.gameio import parse_game\n"
        "from nucleo.nucleolus import nucleolus\n"
        "nucleolus(parse_game('9 ; 3 7 1 4 9 5 8 8 7 8 4'), engine='brute')\n"
        "print('numpy' in sys.modules)\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "False\n"


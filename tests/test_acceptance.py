"""Acceptance suite: every criterion runs at full scale with exact equality
checks and prints one pass line with its runtime.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import math
import random
import time
from fractions import Fraction as F

from nucleo.games import representation
from nucleo.nucleolus import nucleolus
from nucleo.theory import (
    coincidence_report,
    gap_report,
    is_constant_sum,
    permits_homogeneous_rep,
    replica_threshold,
)
from nucleo.experiments import RatioPair, SequenceSpec, run_sequence

import oracles

SEED = 20260810


def _timed(budget_s):
    start = time.perf_counter()

    def finish(message):
        elapsed = time.perf_counter() - start
        assert elapsed < budget_s, f"{message}: {elapsed:.1f}s exceeded {budget_s}s budget"
        print(f"PASS {message} ({elapsed:.2f}s)")

    return finish


# -- criterion 1: golden values ------------------------------------------------


def test_criterion_1_golden_values():
    finish = _timed(4.0)  # < 1 s each, four golden solves

    for engine in ("brute", "typed"):
        t0 = time.perf_counter()
        rep = representation(8, [6, 4, 3, 2])
        res = nucleolus(rep, engine=engine)
        assert res.x_star == (F(2, 5), F(1, 5), F(1, 5), F(1, 5))
        assert gap_report(rep, res.x_star).l1_gap == F(2, 15)
        assert time.perf_counter() - t0 < 1.0

    t0 = time.perf_counter()
    rep = representation(3, [2, 1, 1, 1])
    res = nucleolus(rep)
    assert res.x_star == (F(2, 5), F(1, 5), F(1, 5), F(1, 5))
    assert gap_report(rep, res.x_star).l1_gap == F(0)
    assert time.perf_counter() - t0 < 1.0

    for eps in (F(1, 10), F(1, 4), F(2, 5)):
        t0 = time.perf_counter()
        rep = representation(F(1, 2), [(1 - eps) / 2, (1 - eps) / 2, eps])
        assert nucleolus(rep).x_star == (F(1, 3), F(1, 3), F(1, 3))
        assert time.perf_counter() - t0 < 1.0

    finish("criterion 1: golden nucleoli and gaps, exact")


# -- criterion 2: alternating family --------------------------------------------


def test_criterion_2_alternating_family():
    finish = _timed(5.0)
    spec = SequenceSpec(family="eq3", values=tuple(range(2, 11)))
    rows = run_sequence(spec, [RatioPair(kind="index", a=1, b=2)])
    for n, row in zip(range(2, 11), rows):
        rep = spec.game(n)
        x = nucleolus(rep).x_star
        if n % 2 == 0:
            expect = (F(0),) + tuple([F(1, n - 1)] * (n - 1))
            assert row.ratios[0].ratio == F(0)
        else:
            expect = tuple([F(1, n)] * n)
            assert row.ratios[0].ratio == F(1)
        assert x == expect
    finish("criterion 2: alternating family n=2..10, ratios flip 0/1")


# -- criterion 3: quota sensitivity triple ---------------------------------------


def test_criterion_3_sensitivity_triple():
    finish = _timed(5.0)
    q58 = lambda ws: representation(F(58, 100) * sum(ws), ws)

    rep = q58([4] * 5 + [1] * 6)
    assert nucleolus(rep).x_star == tuple(rep.normalize().to_input_order())
    rep = q58([4] * 5 + [1] * 7)
    assert nucleolus(rep).x_star == tuple([F(1, 5)] * 5 + [F(0)] * 7)
    rep = q58([4] * 5 + [1] * 8)
    assert nucleolus(rep).x_star == tuple(rep.normalize().to_input_order())
    finish("criterion 3: 58% quota sensitivity triple, exact")


# -- criterion 4: replica coincidence --------------------------------------------


def test_criterion_4_replica_coincidence():
    finish = _timed(30.0)
    base = representation(5, [4, 3, 2])
    for rho in range(2, 7):
        rep = base.replicate(rho)
        assert nucleolus(rep).x_star == tuple(rep.normalize().to_input_order())
    assert replica_threshold(base) == 217
    finish("criterion 4: replicas rho=2..6 coincide, guaranteed threshold 217")


# -- criterion 5: 900-player flagship --------------------------------------------


def test_criterion_5_flagship():
    finish = _timed(300.0)
    rep = representation(1500, [4] * 300 + [3] * 300 + [2] * 300)
    res = nucleolus(rep, engine="typed")
    assert res.x_star == tuple(rep.normalize().to_input_order())
    report = coincidence_report(rep)
    assert report.holds and report.lhs == F(400, 3) and report.rhs == F(96)
    ok, witness = permits_homogeneous_rep(rep, profile_cap=400_000)
    assert not ok and witness is None
    finish("criterion 5: 900-player game, x* = weights, condition holds, inhomogeneous")

    finish = _timed(5.0)
    rep = representation(15000, [4] * 3000 + [3] * 3000 + [2] * 3000)
    assert coincidence_report(rep).holds
    res = nucleolus(rep, engine="typed")
    assert res.x_star == tuple(rep.normalize().to_input_order())
    finish("criterion 5: 9000-player game, x* = weights")


# -- criterion 6: randomized property suite --------------------------------------


class _ExcessNums:
    """Excess numerators of all 2^n coalitions as one list of integers."""

    def __init__(self, rep):
        cut = math.ceil(rep.quota)
        wsum = [0]
        for w in rep.original_weights:
            wsum += [s + int(w) for s in wsum]
        self.win = [s >= cut for s in wsum]

    def nums(self, x):
        xs = [F(v) for v in x]
        denom = math.lcm(*(v.denominator for v in xs))
        nums = [0]
        for v in xs:
            paid = int(v * denom)
            nums += [e - paid for e in nums]
        return [e + denom if win else e for win, e in zip(self.win, nums)], denom


def _lex_dominates(xs_cache, arr_x, dx, arr_y, dy):
    """Ordered excesses of x weakly precede those of y lexicographically."""
    top_x = max(arr_x)
    top_y = max(arr_y)
    lhs, rhs = top_x * dy, top_y * dx
    if lhs < rhs:
        return True
    if lhs > rhs:
        # a genuine violation; report through the caller's assert
        return False
    if "sorted" not in xs_cache:
        xs_cache["sorted"] = sorted(arr_x, reverse=True)
    ys = sorted(arr_y, reverse=True)
    for vx, vy in zip(xs_cache["sorted"], ys):
        lhs, rhs = vx * dy, vy * dx
        if lhs < rhs:
            return True
        if lhs > rhs:
            return False
    return True


def _suite_games(rng, count):
    games = []
    while len(games) < count:
        r = rng.random()
        if r < 0.60:
            n = rng.randint(3, 10)
        elif r < 0.85:
            n = rng.randint(11, 14)
        else:
            n = rng.randint(15, 16)
        top = 9 if rng.random() < 0.5 else 4
        ws = [rng.randint(1, top) for _ in range(n)]
        if rng.random() < 0.10:
            ws[rng.randrange(n)] = 0
        total = sum(ws)
        if total < 2:
            continue
        q = rng.randint(1, total - 1)  # keeps 0 < qbar < 1
        rep = representation(q, ws)
        if not oracles.has_imputation(rep):
            continue
        games.append(rep)
    return games


def test_criterion_6_randomized_property_suite():
    finish = _timed(600.0)
    rng = random.Random(SEED)
    games = _suite_games(rng, 200)
    assert any(g.n >= 15 for g in games) and any(g.n <= 5 for g in games)

    scales = [F(2), F(1, 3), F(7, 5)]
    for idx, rep in enumerate(games):
        rb = nucleolus(rep, engine="brute")
        rt = nucleolus(rep, engine="typed")
        # (c) engine agreement
        assert rb.x_star == rt.x_star, f"engine mismatch on game {idx}"
        x = rb.x_star

        # (a) the distance bound holds exactly; (b) the decomposition
        # identity is asserted inside gap_report, re-checked here
        rpt = gap_report(rep, x)
        assert rpt.l1_gap <= rpt.bound
        wbar = rep.normalize().to_input_order()
        w_minus = sum((wbar[i] for i in rpt.s_minus), F(0))
        if 0 < w_minus < 1:
            assert rpt.l1_gap == 2 * rpt.delta * w_minus

        # (d) equal treatment and rescaling invariance
        orig = rep.original_weights
        for i in range(rep.n):
            for j in range(i + 1, rep.n):
                if orig[i] == orig[j]:
                    assert x[i] == x[j]
        lam = scales[idx % len(scales)]
        assert nucleolus(rep.rescale(lam), engine="typed").x_star == x

        # (e) lexicographic dominance over 100 random imputations
        oracle = _ExcessNums(rep)
        arr_x, dx = oracle.nums(x)
        cache = {}
        for _ in range(100):
            y = oracles.random_imputation(rep, rng)
            arr_y, dy = oracle.nums(y)
            assert _lex_dominates(cache, arr_x, dx, arr_y, dy), \
                f"lexicographic dominance failed on game {idx}"

    finish(f"criterion 6: property suite, {len(games)} games x "
           f"(bound, identity, engines, invariance, 100 dominance checks)")


# -- criterion 7: homogeneous constant-sum consistency ----------------------------


def test_criterion_7_homogeneous_constant_sum_consistency():
    finish = _timed(300.0)
    rng = random.Random(SEED + 7)
    hits = 0
    examined = 0
    for trial in range(140):
        n = rng.randint(2, 10)
        ws = [rng.randint(1, 4) for _ in range(n)]
        if trial % 2 == 0:
            # guaranteed constant-sum: odd total weight, strict majority quota
            if sum(ws) % 2 == 0:
                ws[0] += 1
            rep = representation(F(sum(ws) + 1, 2), ws)
        else:
            q = rng.randint(1, sum(ws))
            rep = representation(q, ws)
            if not is_constant_sum(rep):
                continue
        if not oracles.has_imputation(rep):
            continue
        examined += 1
        ok, witness = permits_homogeneous_rep(rep)
        if not ok:
            continue
        hits += 1
        x = nucleolus(rep, engine="brute").x_star
        assert witness.normalize().to_input_order() == x, \
            f"witness normalization differs from the nucleolus for {rep.original_weights}"
    assert hits >= 10, f"only {hits} homogeneous constant-sum games found"
    finish(f"criterion 7: witness normalization equals the nucleolus "
           f"({hits}/{examined} constant-sum games homogeneous)")

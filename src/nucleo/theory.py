"""Diagnostics relating voting weight to nucleolus payoffs, plus structural
game classifiers.

Covers: the L1 distance between normalized weights and the nucleolus with
its exact bound 2*wbar_1 / min(qbar, 1-qbar) and the two-sided decomposition
of the gap; the sufficient condition min(qbar, 1-qbar) * m > 2*t*w1^2 for
the nucleolus to equal the normalized weights (m the multiplicity of the
rarest weight, t the number of distinct weights, w1 the largest integer
weight) together with the replication factor that guarantees it; and the
classifiers constant-sum, homogeneous representation, existence of a
homogeneous representation, null players, and interchangeability.

Classifiers run on integer-scaled weights and use reachable-weight bitsets,
so they stay exact and fast even for games with hundreds of players.

The homogeneity search solves for (weights, quota) with every minimal
winning coalition at exactly the quota and every maximal losing one at most
the quota minus 1.  It works over weight-type profiles, one weight per type:
the minimal winning profiles stream into an ``EchelonSystem`` as integer
rows, and the search stops with "no" once those reach full rank t + 1,
since homogeneous rows of full rank leave only the zero quota.  Otherwise
an exact LP with lazily added losing rows finds a witness of least total
weight or proves that none exists.  ``EnumerationLimit`` is raised when
more than the cap of minimal winning profiles is needed before full rank,
or when the maximal losing list is longer than the cap.  One pruned
search lists both sides: a maximal losing profile is the complement of a
minimal winning profile of the dual game, whose least winning weight is
W - c + 1 (W the total integer weight, c the least winning weight).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .coalitions import (
    EnumerationLimit,
    NonIntegerWeights,
    _iter_minimal_winning,
    _minimal_winning_vectors,
    min_winning_weight,
    reachable_weights,
)
from .exactlp import ExactLinearProgram, solve
from .games import GameError, Representation, ZeroTotalWeight, _to_fraction, representation
from .linalg import EchelonSystem

MAX_PAIR_PLAYERS = 16  # interchangeable_pairs lists up to n(n-1)/2 player pairs


class DegenerateQuota(GameError):
    pass


class WeightAbsent(GameError):
    pass


class IdentityViolation(RuntimeError):
    """An exact identity that must hold for a genuine nucleolus failed."""


class HomogeneitySearchError(RuntimeError):
    """The homogeneity row generation reached a state its invariants forbid."""


# ---------------------------------------------------------------------------
# weight-vs-nucleolus gap
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GapReport:
    """Exact L1 gap between normalized weights and the nucleolus, the bound
    2*wbar_1/min(qbar, 1-qbar), and the over/under-paid decomposition."""

    l1_gap: Fraction
    bound: Fraction
    s_plus: frozenset[int]   # players paid more than their relative weight
    s_minus: frozenset[int]  # players paid at most their relative weight
    delta: Fraction          # x*(S-) = (1 - delta) * wbar(S-)

    def to_json_dict(self) -> dict:
        return {
            "l1_gap": str(self.l1_gap),
            "bound": str(self.bound),
            "s_plus": sorted(i + 1 for i in self.s_plus),
            "s_minus": sorted(i + 1 for i in self.s_minus),
            "delta": str(self.delta),
        }


def _quota_bar(quota: Fraction, total) -> Fraction:
    """quota / total, which must lie strictly between 0 and 1."""
    if total == 0:
        raise ZeroTotalWeight("total weight is zero")
    qb = quota / total
    if not 0 < qb < 1:
        raise DegenerateQuota(f"normalized quota {qb} must lie strictly between 0 and 1")
    return qb


def gap_report(rep: Representation, x_star: Sequence) -> GapReport:
    """Gap diagnostics for a caller-supplied nucleolus vector (input order).

    Asserts the bound and the identity l1 = 2 * delta * wbar(S-); both hold
    for every genuine nucleolus, so a violation signals a bad input vector.

    Works in integers: the weights scaled by the lcm of their denominators
    are W_i with total T, the payoffs scaled by the lcm D of theirs are X_i,
    so x_i - wbar_i has the sign of X_i*T - W_i*D and l1 is the sum of
    |X_i*T - W_i*D| over D*T.  Only the O(1) results become ``Fraction``.
    """
    # sorted positions hold the weight types in blocks, heaviest first
    entries = rep.weight_types().entries
    wd = math.lcm(*(w.denominator for w, _ in entries))
    types = [(w.numerator * (wd // w.denominator), c) for w, c in entries]
    total = sum(wi * c for wi, c in types)
    qb = _quota_bar(rep.quota * wd, total)
    xs = [v if isinstance(v, Fraction) else _to_fraction(v) for v in x_star]
    if len(xs) != rep.n:
        raise GameError(f"payoff vector has length {len(xs)}, game has {rep.n} players")

    d = math.lcm(*(v.denominator for v in xs))
    s_plus, s_minus = [], []
    l1_num = w_minus = x_minus = 0
    players = iter(rep.input_order)
    for wi, c in types:
        wi_d = wi * d
        for i in itertools.islice(players, c):
            x = xs[i]
            xi = x.numerator * (d // x.denominator)
            diff = xi * total - wi_d
            if diff > 0:
                s_plus.append(i)
                l1_num += diff
            else:
                s_minus.append(i)
                l1_num -= diff
                w_minus += wi
                x_minus += xi
    l1 = Fraction(l1_num, d * total)
    bound = Fraction(2 * types[0][0], total) / min(qb, 1 - qb)

    if w_minus == 0:
        # impossible: weights cannot exceed payoffs everywhere when both sum to 1
        raise IdentityViolation("wbar(S-) = 0 cannot occur")
    if w_minus == total:
        delta = Fraction(0)
        if l1_num != 0:
            raise IdentityViolation("wbar(S-) = 1 forces a zero gap for a nucleolus")
    else:
        # delta = 1 - x(S-) / wbar(S-) = under / (D * W(S-)), so the identity
        # l1 = 2 * delta * wbar(S-) reads l1_num = 2 * under over D*T
        under = d * w_minus - x_minus * total
        delta = Fraction(under, d * w_minus)
        if l1_num != 2 * under:
            raise IdentityViolation("gap decomposition identity failed")
    if l1 > bound:
        raise IdentityViolation("gap exceeds the weight-distance bound")
    return GapReport(l1_gap=l1, bound=bound, s_plus=frozenset(s_plus),
                     s_minus=frozenset(s_minus), delta=delta)


def distance_bound(rep: Representation) -> Fraction:
    """2 * wbar_1 / min(qbar, 1 - qbar), computable without solving."""
    total = rep.total_weight
    qb = _quota_bar(rep.quota, total)
    return 2 * (rep.weights[0] / total) / min(qb, 1 - qb)


# ---------------------------------------------------------------------------
# weight-power coincidence condition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoincidenceReport:
    """min(qbar, 1-qbar) * m_circ versus 2 * t * w1^2, and the replication
    factor from which the condition is guaranteed to hold."""

    lhs: Fraction
    rhs: Fraction
    holds: bool
    replica_threshold: int

    def to_json_dict(self) -> dict:
        return {
            "lhs": str(self.lhs),
            "rhs": str(self.rhs),
            "holds": self.holds,
            "replica_threshold": self.replica_threshold,
        }


def coincidence_report(rep: Representation) -> CoincidenceReport:
    if not rep.has_integer_weights():
        raise NonIntegerWeights("apply to_integer() before the coincidence test")
    qb = _quota_bar(rep.quota, rep.total_weight)
    table = rep.weight_types()
    w1 = int(rep.weights[0])
    lhs = min(qb, 1 - qb) * table.m_circ
    rhs = Fraction(2 * table.t * w1 * w1)
    # replication multiplies m_circ by rho and leaves qbar, t, w1 unchanged,
    # so the condition holds from the first rho with rho * lhs > rhs
    rho = math.floor(rhs / lhs) + 1
    return CoincidenceReport(lhs=lhs, rhs=rhs, holds=lhs > rhs, replica_threshold=rho)


def replica_threshold(rep: Representation) -> int:
    """Smallest rho such that every rho-replica satisfies the coincidence
    condition (an upper bound for actual coincidence, not tight)."""
    return coincidence_report(rep).replica_threshold


# ---------------------------------------------------------------------------
# classifiers
# ---------------------------------------------------------------------------


def _integer_form(rep: Representation) -> Representation:
    return rep if rep.has_integer_weights() else rep.to_integer()


def _type_ints(rep: Representation) -> tuple[list[int], list[int]]:
    table = rep.weight_types()
    return [int(w) for w in table.weights], list(table.counts)


def _reach_in(reach: int, lo: int, hi: int) -> bool:
    """Any set bit of ``reach`` with index in the integer range [lo, hi]?"""
    lo = max(0, lo)
    if hi < lo:
        return False
    mask = ((1 << (hi - lo + 1)) - 1) << lo
    return bool(reach & mask)


def is_constant_sum(rep: Representation) -> bool:
    """Exactly one of S and its complement wins, for every coalition S."""
    ri = _integer_form(rep)
    weights, counts = _type_ints(ri)
    reach = reachable_weights(weights, counts)
    W = int(ri.total_weight)
    q = ri.quota
    # both lose: W - q < w(S) < q;  both win: q <= w(S) <= W - q
    both_lose = _reach_in(reach, math.floor(W - q) + 1, math.ceil(q) - 1)
    both_win = _reach_in(reach, math.ceil(q), math.floor(W - q))
    return not (both_lose or both_win)


def is_homogeneous_rep(rep: Representation) -> bool:
    """True iff every minimal winning coalition weighs exactly the quota.

    A property of the representation (not of the game); invariant under the
    integer scaling used internally.
    """
    ri = _integer_form(rep)
    weights, counts = _type_ints(ri)
    q = ri.quota
    if q.denominator != 1:
        return False  # coalition weights are integers, so none equals q
    q_int = int(q)
    # a minimal winning coalition above q loses once its lightest member
    # (type k; types are sorted by decreasing weight) leaves, so the rest,
    # over types 0..k with one fewer of type k, weighs in [q - w_k + 1, q - 1];
    # any such rest plus one player of type k is one
    for k, wk in enumerate(weights):
        if wk > 1:
            reach = reachable_weights(weights[:k + 1], counts[:k] + [counts[k] - 1])
            if _reach_in(reach, q_int - wk + 1, q_int - 1):
                return False
    return True


def null_players(rep: Representation) -> frozenset[int]:
    """Players that never turn a losing coalition winning (input indices)."""
    ri = _integer_form(rep)
    weights, counts = _type_ints(ri)
    q = ri.quota
    hi = math.ceil(q) - 1  # largest losing integer weight
    null_weights = set()
    for k, (wk, ck) in enumerate(zip(weights, counts)):
        if wk == 0:
            null_weights.add(wk)
            continue
        rest_counts = list(counts)
        rest_counts[k] = ck - 1
        reach = reachable_weights(weights, rest_counts)
        # a swing: q - wk <= w(S) < q for some S avoiding the tested player
        if not _reach_in(reach, math.ceil(q - wk), hi):
            null_weights.add(wk)
    orig_int = ri.original_weights
    return frozenset(i for i in range(rep.n) if int(orig_int[i]) in null_weights)


def interchangeable_type_pairs(rep: Representation) -> frozenset[frozenset]:
    """Pairs of weight values (in the original scale) whose players can be
    swapped without changing any coalition's status; same-weight players are
    always interchangeable and are not listed."""
    ri = _integer_form(rep)
    weights, counts = _type_ints(ri)
    q = ri.quota
    lam = ri.total_weight / rep.total_weight  # original -> integer scale
    pairs = set()
    for a in range(len(weights)):
        for b in range(a + 1, len(weights)):
            wa, wb = weights[a], weights[b]  # wa > wb
            rest = list(counts)
            rest[a] -= 1
            rest[b] -= 1
            reach = reachable_weights(weights, rest)
            # the swap changes some coalition iff a third-party weight w(S)
            # satisfies q - wa <= w(S) < q - wb
            if not _reach_in(reach, math.ceil(q - wa), math.ceil(q - wb) - 1):
                pairs.add(frozenset({Fraction(wa) / lam, Fraction(wb) / lam}))
    return frozenset(pairs)


def interchangeable_pairs(rep: Representation) -> frozenset[frozenset[int]]:
    """Unordered player pairs (input indices) that are interchangeable; games
    with more than ``MAX_PAIR_PLAYERS`` players raise ``EnumerationLimit``."""
    if rep.n > MAX_PAIR_PLAYERS:
        raise EnumerationLimit(
            f"{rep.n} players exceeds pair-expansion limit {MAX_PAIR_PLAYERS}")
    type_pairs = interchangeable_type_pairs(rep)
    orig = rep.original_weights
    out = set()
    for i in range(rep.n):
        for j in range(i + 1, rep.n):
            wi, wj = orig[i], orig[j]
            if wi == wj or frozenset({wi, wj}) in type_pairs:
                out.add(frozenset({i, j}))
    return frozenset(out)


# ---------------------------------------------------------------------------
# homogeneous representation search
# ---------------------------------------------------------------------------


def _homogeneity_solution(eq_rows: list[list[int]],
                          losing_rows: Callable[[], list[tuple[int, ...]]], nv: int):
    """Feasibility of the homogeneity system over (weights..., quota) with
    total weight minimized; returns the witness vector or None.

    Variables: v[0..nv-2] the candidate weights, v[nv-1] the quota.
    Equalities come pre-reduced (independent integer rows, homogeneous rhs 0).
    The equalities alone often already rule a homogeneous representation
    out, so ``losing_rows`` is called only once they are found feasible; its
    rows, one weight coefficient per variable but the quota, encode
    w(L) <= q - 1 and are added lazily.  Only an infeasible LP means "no":
    the objective is bounded below by 0, so any other status than optimal is
    an internal failure.
    """
    objective = (1,) * (nv - 1) + (0,)
    lower = (0,) * (nv - 1) + (1,)
    active: list[tuple[int, ...]] = []
    remaining = None
    rounds, max_rounds = 0, 2
    while True:
        rounds += 1
        if rounds > max_rounds:
            raise HomogeneitySearchError("homogeneity row generation failed to terminate")
        lp = ExactLinearProgram(
            num_vars=nv,
            objective=objective,
            sense="min",
            lower_bounds=lower,
        )
        for row in eq_rows:
            lp.add_constraint(row, "=", 0)
        for row in active:
            lp.add_constraint([*row, -1], "<=", -1)
        sol = solve(lp)
        if sol.status == "infeasible":
            return None
        if sol.status != "optimal":
            raise HomogeneitySearchError(f"homogeneity LP returned {sol.status}")
        if remaining is None:
            remaining = losing_rows()
            max_rounds = len(remaining) + 2
        vals = sol.values
        # slacks (q - 1) - w(L) scaled by the common denominator d > 0, so
        # the most violated row is found in integers
        d = math.lcm(*(v.denominator for v in vals))
        x = [v.numerator * (d // v.denominator) for v in vals]
        cut, xw = x[-1] - d, x[:-1]
        worst = None
        for row in remaining:
            slack = cut - sum(c * xk for c, xk in zip(row, xw))
            if slack < 0 and (worst is None or slack < worst[0]):
                worst = (slack, row)
        if worst is None:
            return vals
        active.append(worst[1])
        remaining.remove(worst[1])


def permits_homogeneous_rep(rep: Representation, profile_cap: int = 200_000):
    """Whether the game has a homogeneous representation; returns
    (answer, witness) with the witness a validated representation whose
    total weight is minimal for the homogeneity system.

    The system is written over weight-type profiles, one weight per type,
    which is lossless because the solution set is convex and invariant under
    permuting equal-weight players.  The minimal winning profiles are
    streamed into the equalities w(S) - q = 0, and the search answers False
    as soon as those reach full rank t + 1: the rows are homogeneous, so only
    w = 0, q = 0 solves them, and the quota must be at least 1.  Otherwise
    the maximal losing profiles come from the minimal winning search run on
    the dual game.  ``EnumerationLimit`` is raised when more than
    ``profile_cap`` minimal winning profiles are needed before full rank, or
    when the maximal losing list exceeds ``profile_cap``; no game with at
    most 16 players comes near the default, since each list has at most 2^n
    entries.
    """
    ri = _integer_form(rep)
    table = ri.weight_types()
    t = table.t
    system = EchelonSystem(t + 1)
    profiles = _iter_minimal_winning(*_type_ints(ri), min_winning_weight(ri))
    for used, vec in enumerate(profiles):
        if used == profile_cap:
            raise EnumerationLimit(f"more than {profile_cap} profiles")
        system.add_row([*vec, -1], 0)  # w(S) - q = 0, homogeneous so always consistent
        if system.rank == t + 1:
            return False, None
    eq_rows = [r[: t + 1] for r in system.rows]

    vals = _homogeneity_solution(eq_rows, lambda: _maximal_losing_profiles(ri, profile_cap),
                                 t + 1)
    if vals is None:
        return False, None
    # expand type weights back to players (input order)
    per_type = {w: vals[k] for k, (w, _) in enumerate(table.entries)}
    weights = [per_type[w] for w in ri.original_weights]
    witness = representation(vals[t], weights)
    _verify_witness(ri, witness)
    return True, witness


def _maximal_losing_profiles(ri: Representation, cap: int):
    """Profiles of losing coalitions to which no available player can be
    added without winning, in lexicographic order: the complements of the
    dual game's minimal winning profiles, in reverse order."""
    weights, counts = _type_ints(ri)
    dual_cut = sum(w * c for w, c in zip(weights, counts)) - min_winning_weight(ri) + 1
    dual = _minimal_winning_vectors(weights, counts, dual_cut, cap)
    return [tuple(c - j for c, j in zip(counts, v)) for v in reversed(dual)]


def _verify_witness(ri: Representation, witness: Representation) -> None:
    """Winning-set equality and homogeneity of the witness, scaled to integers.

    The games agree iff no coalition wins in one and loses in the other.
    For each reachable original weight a the table holds the least and the
    greatest witness weight of a coalition weighing a, built by binary
    splitting of each type's count, so it suffices that every a at or above
    the original cut has its least witness weight at or above the witness
    cut and every a below it has its greatest below.
    """
    wi = witness.to_integer()
    table = ri.weight_types()
    orig_weights = [int(w) for w in table.weights]
    counts = list(table.counts)
    seen: dict[int, int] = {}
    for w, x in zip(ri.original_weights, wi.original_weights):
        seen.setdefault(int(w), int(x))
    per_type_witness = [seen[w] for w in orig_weights]

    spans = {0: (0, 0)}  # reachable original weight -> (least, greatest) witness weight
    for wk, xk, ck in zip(orig_weights, per_type_witness, counts):
        chunk, left = 1, ck
        while left:
            take = min(chunk, left)
            left -= take
            chunk *= 2
            dw, dx = wk * take, xk * take
            new = dict(spans)
            for a, (lo, hi) in spans.items():
                lo, hi = lo + dx, hi + dx
                cur = new.get(a + dw)
                if cur is not None:
                    lo, hi = min(lo, cur[0]), max(hi, cur[1])
                new[a + dw] = (lo, hi)
            spans = new
            if len(spans) > 2_000_000:
                raise EnumerationLimit("witness verification lattice too large")
    cut, witness_cut = min_winning_weight(ri), min_winning_weight(wi)
    for a, (lo, hi) in spans.items():
        if (lo < witness_cut) if a >= cut else (hi >= witness_cut):
            raise IdentityViolation("homogeneity witness induces a different game")
    if not is_homogeneous_rep(wi):
        raise IdentityViolation("homogeneity witness is not homogeneous")


# ---------------------------------------------------------------------------
# regularity along game sequences
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RegularityReport:
    """Finite-prefix evidence on whether a weight class's aggregate relative
    weight stays away from zero; never a verdict about the limit."""

    weight: Fraction
    values: tuple[Fraction, ...]
    running_min: tuple[Fraction, ...]
    appears_bounded_away: bool

    def to_json_dict(self) -> dict:
        return {
            "weight": str(self.weight),
            "values": [str(v) for v in self.values],
            "running_min": [str(v) for v in self.running_min],
            "appears_bounded_away": self.appears_bounded_away,
        }


def regularity_statistic(seq: Iterable[Representation], weight) -> RegularityReport:
    """m_w(n) * wbar_w(n) for each game in the sequence, with a simple flag:
    positive throughout and no new minimum in the second half of the prefix."""
    w = _to_fraction(weight)
    values = []
    for rep in seq:
        mult = rep.weight_types().multiplicity_of(w)
        if mult == 0:
            raise WeightAbsent(f"weight {w} absent from a {rep.n}-player game")
        values.append(mult * w / rep.total_weight)
    if not values:
        raise GameError("empty game sequence")
    running = []
    cur = None
    for v in values:
        cur = v if cur is None or v < cur else cur
        running.append(cur)
    mid = (len(values) - 1) // 2
    appears = running[-1] > 0 and running[-1] == running[mid]
    return RegularityReport(
        weight=w,
        values=tuple(values),
        running_min=tuple(running),
        appears_bounded_away=appears,
    )

"""Coalition enumeration, excesses, minimal winning profiles, and the
min-cost selection engine behind the nucleolus solver's separation oracle.

``min_cost_selection`` finds a cheapest selection of items, each taken
between zero and its count, whose total weight lies in a window and whose
count vector is movable: not orthogonal to the integer kernel of the affine
hull that the solver has fixed so far.  When the count lattice is no larger
than the DP tables, one pass over it (``_scan_min_cost``, the only lattice
scan) gives the answer.  Otherwise a bounded-knapsack dynamic program over
integer total weight hands out candidates in ascending (cost, counts) order
until one is movable: the suffix tables of the free items are built once
per call, and a rejected candidate's box is partitioned into sub-boxes,
each a fixed prefix, one restricted item and free items after it, so a
sub-box costs one new DP layer and a one-pass reconstruction.
Over winning coalitions the maximum excess is 1 minus the cost of a
cheapest winning selection, and over losing ones minus the cost of a
cheapest losing one.

Minimal winning profiles come from one generator, ``_iter_minimal_winning``,
a depth-first search over per-type counts kept on an explicit stack, which
yields them in lexicographic order; a caller may stop early, and
``minimal_winning_count_vectors`` is its list under a length cap.

What an item is belongs to the caller: the solver's ``_ItemSpace`` (in
``nucleolus``) uses one item per player, or one per weight type, so the
900-player showcase game has three items.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .games import GameError, Representation, _to_fraction

DEFAULT_ENUMERATION_LIMIT = 20


class EnumerationLimit(GameError):
    pass


class NonIntegerWeights(GameError):
    pass


class DimensionMismatch(GameError):
    pass


class OracleStall(RuntimeError):
    """The exclusion-partition search exceeded its candidate budget; the
    solver then answers with ``_scan_min_cost`` over the count lattice
    (``nucleolus._ItemSpace.best_excess``)."""


class OracleInvariantError(RuntimeError):
    """The knapsack tables contradict each other: a bug, never a budget stall."""


# ---------------------------------------------------------------------------
# excesses
# ---------------------------------------------------------------------------


def coalition_value(rep: Representation, players: Iterable[int]) -> int:
    return 1 if rep.is_winning(players) else 0


def excess(rep: Representation, players: Iterable[int], x: Sequence) -> Fraction:
    """e(S, x) = v(S) - x(S), with x in input player order."""
    xs = [_to_fraction(v) for v in x]
    if len(xs) != rep.n:
        raise DimensionMismatch(f"payoff vector has length {len(xs)}, game has {rep.n} players")
    members = list(players)
    total = sum((xs[i] for i in members), Fraction(0))
    return Fraction(coalition_value(rep, members)) - total


@dataclass(frozen=True)
class ProfileCoalition:
    """A coalition described by how many players of each weight type it uses.

    ``counts`` is aligned with ``rep.weight_types().entries`` (heaviest type
    first); ``type_weights`` carries those weight values.  ``multiplicity``
    counts the explicit coalitions in the class.
    """

    counts: tuple[int, ...]
    weight: Fraction
    multiplicity: int
    type_weights: tuple[Fraction, ...] = ()

    @staticmethod
    def of(rep: Representation, counts: Sequence[int]) -> "ProfileCoalition":
        table = rep.weight_types()
        counts = tuple(int(c) for c in counts)
        if len(counts) != table.t:
            raise DimensionMismatch("profile length does not match number of weight types")
        mult = 1
        weight = Fraction(0)
        for (w, avail), c in zip(table.entries, counts):
            if not 0 <= c <= avail:
                raise GameError(f"profile count {c} outside 0..{avail} for weight {w}")
            mult *= math.comb(avail, c)
            weight += w * c
        return ProfileCoalition(counts=counts, weight=weight, multiplicity=mult,
                                type_weights=table.weights)


@dataclass(frozen=True)
class ExcessRecord:
    excess: Fraction
    coalition: frozenset[int]


def ordered_excess_vector(rep: Representation, x: Sequence,
                          limit: int = DEFAULT_ENUMERATION_LIMIT) -> list[ExcessRecord]:
    """Excesses of all 2^n coalitions, weakly decreasing; ties break by
    coalition bitmask ascending (bit i of the mask is input player i)."""
    if rep.n > limit:
        raise EnumerationLimit(f"{rep.n} players exceeds enumeration limit {limit}")
    xs = [_to_fraction(v) for v in x]
    if len(xs) != rep.n:
        raise DimensionMismatch(f"payoff vector has length {len(xs)}, game has {rep.n} players")

    denom = math.lcm(*(v.denominator for v in xs))
    xnum = [int(v * denom) for v in xs]

    weights = rep.original_weights
    wdenom = math.lcm(*(w.denominator for w in weights))
    wnum = [int(w * wdenom) for w in weights]
    qnum = rep.quota * wdenom

    n = rep.n
    size = 1 << n
    xsum = [0] * size
    wsum = [0] * size
    for m in range(1, size):
        low = m & -m
        i = low.bit_length() - 1
        prev = m ^ low
        xsum[m] = xsum[prev] + xnum[i]
        wsum[m] = wsum[prev] + wnum[i]

    enum = []
    for m in range(size):
        v = 1 if wsum[m] >= qnum else 0
        enum.append(v * denom - xsum[m])
    order = sorted(range(size), key=lambda m: (-enum[m], m))
    return [
        ExcessRecord(
            excess=Fraction(enum[m], denom),
            coalition=frozenset(i for i in range(n) if m >> i & 1),
        )
        for m in order
    ]


# ---------------------------------------------------------------------------
# minimal winning profiles
# ---------------------------------------------------------------------------


def minimal_winning_count_vectors(rep: Representation, cap: int = 200_000) -> list[tuple[int, ...]]:
    """Count vectors (per weight type, heaviest first) of all minimal winning
    coalitions, in lexicographic order; integer weights required.
    ``EnumerationLimit`` is raised when the list would grow longer than ``cap``."""
    if not rep.has_integer_weights():
        raise NonIntegerWeights("profile enumeration requires integer weights")
    table = rep.weight_types()
    return _minimal_winning_vectors([int(w) for w in table.weights], list(table.counts),
                                    min_winning_weight(rep), cap)


def _minimal_winning_vectors(tweights: list[int], counts: list[int], win_cut: int,
                             cap: int) -> list[tuple[int, ...]]:
    """The list of ``_iter_minimal_winning``; ``EnumerationLimit`` is raised
    when it would grow longer than ``cap``."""
    out: list[tuple[int, ...]] = []
    for vec in _iter_minimal_winning(tweights, counts, win_cut):
        if len(out) == cap:
            raise EnumerationLimit(f"more than {cap} profiles")
        out.append(vec)
    return out


def _iter_minimal_winning(tweights: list[int], counts: list[int], win_cut: int):
    """Yield the minimal winning count vectors of the game whose type weights
    (descending integers) and counts are given and whose least winning weight
    is ``win_cut``, one at a time in lexicographic order, so a caller may stop
    early.

    A depth-first search over per-type counts with an explicit stack of
    ``(k, weight, light, j, hi)``: types ``0..k-1`` are fixed in ``acc``, weigh
    ``weight`` together, their lightest type used weighs ``light``, and counts
    ``j..hi`` of type ``k`` are still to try.  Pure integer arithmetic; every
    count kept leaves the weight within the window [win_cut, win_cut + w1 - 1]
    and able to reach ``win_cut`` with every later player added.  Weights fall
    with the type index, so a winning profile is minimal iff dropping one
    player of ``light`` loses.
    """
    t = len(tweights)
    suffix_weight = [0] * (t + 1)
    for k in reversed(range(t)):
        suffix_weight[k] = suffix_weight[k + 1] + tweights[k] * counts[k]
    hi_cut = win_cut + max(tweights) - 1
    acc = [0] * t
    stack: list[tuple[int, int, int | None, int, int]] = []
    k, weight, light = 0, 0, None
    while True:
        wk = tweights[k]
        need = win_cut - weight - suffix_weight[k + 1]
        if wk:
            lo = max(0, -(-need // wk))
            hi = min(counts[k], (hi_cut - weight) // wk)
        else:
            lo, hi = 0, (counts[k] if need <= 0 else -1)
        if k + 1 < t:
            stack.append((k, weight, light, lo, hi))
        else:
            # the last type completes the profile, and every count from lo
            # on wins, so it is minimal iff one player fewer of its lightest
            # type loses
            for j in range(lo, hi + 1):
                last = wk if j else light
                if last is None or weight + j * wk - last < win_cut:
                    acc[k] = j
                    yield tuple(acc)
        # the deepest type with a count left to try opens the next level
        while stack:
            k, weight, light, j, hi = stack.pop()
            if j <= hi:
                stack.append((k, weight, light, j + 1, hi))
                acc[k] = j
                if j:
                    weight += j * tweights[k]
                    light = tweights[k]
                k += 1
                break
        else:
            return


# ---------------------------------------------------------------------------
# reachable-weight bitsets
# ---------------------------------------------------------------------------


MAX_BITSET_WEIGHT = 1 << 27  # one bit per unit of weight: 16 MiB per bitset


def reachable_weights(weights: Sequence[int], counts: Sequence[int]) -> int:
    """Bitset (Python int) with bit w set iff some selection within the given
    multiplicities has total weight exactly w.  Binary-split bounded knapsack.
    ``EnumerationLimit`` is raised when the total weight exceeds
    ``MAX_BITSET_WEIGHT``."""
    total = sum(w * c for w, c in zip(weights, counts))
    if total > MAX_BITSET_WEIGHT:
        raise EnumerationLimit(
            f"total weight {total} exceeds the bitset limit {MAX_BITSET_WEIGHT}")
    r = 1
    for w, c in zip(weights, counts):
        if w == 0 or c == 0:
            continue
        chunk = 1
        remaining = c
        while remaining > 0:
            take = min(chunk, remaining)
            r |= r << (w * take)
            remaining -= take
            chunk *= 2
    return r


# ---------------------------------------------------------------------------
# min-cost selection engine (bounded knapsack + exclusion partitions)
# ---------------------------------------------------------------------------


_INF = None
_MAX_POPS = 400  # rejected candidates before min_cost_selection stalls


def _convolve(old: list, omega: int, lo: int, hi: int, cost: int, top: int) -> list:
    """new[w] = min over j in [lo, hi] of (j*cost + old[w - j*omega])."""
    new: list = [_INF] * (top + 1)
    for r in range(min(omega, top + 1)):
        positions = range(r, top + 1, omega)
        count = len(positions)
        dq: deque = deque()  # (m, old[r+m*omega] - m*cost), increasing values
        for i in range(count):
            m_enter = i - lo
            if 0 <= m_enter < count:
                val = old[r + m_enter * omega]
                if val is not _INF:
                    g = val - m_enter * cost
                    while dq and dq[-1][1] >= g:
                        dq.pop()
                    dq.append((m_enter, g))
            low_m = i - hi
            while dq and dq[0][0] < low_m:
                dq.popleft()
            if dq:
                new[r + i * omega] = dq[0][1] + i * cost
    return new


def _suffix_tables(weights: Sequence[int], counts: Sequence[int], costs: Sequence[int],
                   whi: int) -> list[list]:
    """tables[k][w] is the cheapest cost of items k..t-1, each taken between
    zero and its count, with total weight exactly w <= whi.  Every box of the
    partition search frees all the items after its own, so it reads these;
    tables[0] is never read and left empty."""
    t = len(weights)
    tables: list[list] = [[] for _ in range(t + 1)]
    tables[t] = [_INF] * (whi + 1)
    tables[t][0] = 0
    for k in range(t - 1, 0, -1):
        tables[k] = _convolve(tables[k + 1], weights[k], 0, counts[k], costs[k], whi)
    return tables


def _smallest_count(arr: list, omega: int, cost: int, lo: int, hi: int,
                    need: int, wmin: int, wmax: int):
    """Smallest j in [lo, hi] such that some weight w with arr[w] finite has
    j*cost + arr[w] == need and j*omega + w in [wmin, wmax], or None.

    A reached weight fixes j through the cost, or, for a free item, the
    smallest j that reaches wmin, so one pass over the weights suffices.
    """
    found = None
    for w in range(min(wmax, len(arr) - 1) + 1):
        v = arr[w]
        if v is _INF:
            continue
        if cost:
            j, rest = divmod(need - v, cost)
            if rest:
                continue
        elif v != need:
            continue
        else:
            j = max(lo, -((w - wmin) // omega))
        if lo <= j <= hi and wmin <= j * omega + w <= wmax and (found is None or j < found):
            found = j
            if j == lo:
                break
    return found


def _box_min_cost(tables: list[list], weights: Sequence[int], counts: Sequence[int],
                  costs: Sequence[int], prefix: tuple[int, ...], lo: int, hi: int,
                  wlo: int, whi: int):
    """Cheapest selection that starts with ``prefix``, takes between lo and hi
    of the next item and any count of every later item, with total weight in
    [wlo, whi]; ties resolved toward the lexicographically smallest count
    vector.  Returns (cost, counts) or None.

    The fixed prefix is a weight and cost offset; the free items after the
    next one are ``tables``, so the box costs one new DP layer.
    """
    k = len(prefix)
    acc_w = sum(j * w for j, w in zip(prefix, weights))
    acc_c = sum(j * c for j, c in zip(prefix, costs))
    top = whi - acc_w
    layer = _convolve(tables[k + 1], weights[k], lo, hi, costs[k], top)
    best = _INF
    for w in range(max(wlo - acc_w, 0), top + 1):
        v = layer[w]
        if v is not _INF and (best is _INF or v < best):
            best = v
    if best is _INF:
        return None
    best += acc_c

    prof = list(prefix)
    for m in range(k, len(weights)):
        lo_m, hi_m = (lo, hi) if m == k else (0, counts[m])
        j = _smallest_count(tables[m + 1], weights[m], costs[m], lo_m, hi_m,
                            best - acc_c, wlo - acc_w, whi - acc_w)
        if j is None:
            raise OracleInvariantError(
                f"no count of item {m} completes the cheapest cost {best}")
        prof.append(j)
        acc_w += j * weights[m]
        acc_c += j * costs[m]
    return best, tuple(prof)


def _movable(vec: Sequence[int], kernel: list[list[int]]) -> bool:
    """A coalition vector has non-constant excess on the fixed affine hull
    iff it is not orthogonal to the hull's kernel."""
    for kv in kernel:
        s = 0
        for j, d in zip(vec, kv):
            if j and d:
                s += j * d
        if s:
            return True
    return False


def _prepend_item(sums: list[int], step: int, count: int) -> list[int]:
    """Lattice sums with one more item, taken 0..count times, put first."""
    out = list(sums)
    for j in range(1, count + 1):
        shift = j * step
        out += [s + shift for s in sums]
    return out


def _heap_min_cost(weights: Sequence[int], counts: Sequence[int], costs: Sequence[int],
                   wlo: int, whi: int, kernel: list[list[int]]):
    """``min_cost_selection`` by the knapsack DP and exclusion partitions.

    A box is a fixed prefix, a count range [lo, hi] for the next item k and
    free later items.  Partitioning a box around its rejected (unmovable)
    candidate gives, for each m >= k, boxes of the same shape with item m
    next, so every box reads the one set of suffix tables.  Raises
    ``OracleStall`` after ``_MAX_POPS`` rejected candidates.
    """
    tables = _suffix_tables(weights, counts, costs, whi)
    heap = []
    root = _box_min_cost(tables, weights, counts, costs, (), 0, counts[0], wlo, whi)
    if root is not None:
        heap.append((root[0], root[1], 0, 0, counts[0]))
    pops = 0
    while heap:
        # boxes are disjoint, so no two entries tie on (cost, prof)
        cost, prof, k, lo, hi = heapq.heappop(heap)
        if _movable(prof, kernel):
            return cost, prof
        pops += 1
        if pops > _MAX_POPS:
            raise OracleStall(f"exceeded {_MAX_POPS} rejected candidates")
        for m in range(k, len(weights)):
            lo_m, hi_m = (lo, hi) if m == k else (0, counts[m])
            for new_lo, new_hi in ((lo_m, prof[m] - 1), (prof[m] + 1, hi_m)):
                if new_lo > new_hi:
                    continue
                sub = _box_min_cost(tables, weights, counts, costs, prof[:m],
                                    new_lo, new_hi, wlo, whi)
                if sub is not None:
                    heapq.heappush(heap, (sub[0], sub[1], m, new_lo, new_hi))
    return None


def _scan_min_cost(weights: Sequence[int], counts: Sequence[int], costs: Sequence[int],
                   wlo: int, whi: int, kernel: list[list[int]]):
    """``min_cost_selection`` by one pass over the whole count lattice.

    Sums are built item by item, last item first, so list order is the
    lexicographic order of the count vectors, and the first cheapest
    movable vector in the window is the answer.  The kernel vectors are
    folded into one integer combination, in a base above twice any of their
    sums, that vanishes exactly where all do.
    """
    fold, base = [0] * len(weights), 1
    for kv in kernel:
        fold = [f + base * d for f, d in zip(fold, kv)]
        base *= 2 * sum(c * abs(d) for c, d in zip(counts, kv)) + 1
    wsum, csum, ksum = [0], [0], [0]
    for w, c, f, n in reversed(list(zip(weights, costs, fold, counts))):
        wsum = _prepend_item(wsum, w, n)
        csum = _prepend_item(csum, c, n)
        ksum = _prepend_item(ksum, f, n)
    best = idx = None
    for i, (w, c, f) in enumerate(zip(wsum, csum, ksum)):
        if f and wlo <= w <= whi and (best is None or c < best):
            best, idx = c, i
    if idx is None:
        return None
    vec = []
    for n in reversed(counts):
        idx, j = divmod(idx, n + 1)
        vec.append(j)
    return best, tuple(reversed(vec))


def min_cost_selection(weights: Sequence[int], counts: Sequence[int], costs: Sequence[int],
                       wlo: int, whi: int, kernel: list[list[int]]):
    """Cheapest movable selection with total weight in [wlo, whi].

    Weights are positive integers, costs integers; item k is taken between
    zero and ``counts[k]`` times.  A count vector is movable when it is not
    orthogonal to every vector of the integer ``kernel``; only movable
    vectors may be returned.  The answer is the movable selection with the
    lexicographically smallest (cost, counts); None if there is none.

    When the count lattice, prod(counts[k] + 1), is no larger than the
    t * (whi + 1) entries of the DP tables, one pass over it gives the
    answer.  Otherwise the knapsack DP over total weight builds the suffix
    tables once, hands out candidates in ascending (cost, counts) order and
    partitions each rejected candidate's box into sub-boxes that cost one
    new DP layer each; only this path raises ``OracleStall``, after
    ``_MAX_POPS`` rejected candidates.
    """
    counts = [int(c) for c in counts]
    t = len(weights)
    # the partition search needs an item to restrict, so t == 0 is scanned
    scan = t == 0 or math.prod(c + 1 for c in counts) <= t * (whi + 1)
    search = _scan_min_cost if scan else _heap_min_cost
    return search(weights, counts, costs, wlo, whi, kernel)


def min_winning_weight(rep: Representation) -> int:
    """Smallest integer total weight that wins (integer weights required)."""
    q = rep.quota
    c = -(-q.numerator // q.denominator)  # ceil
    return int(c)

"""Coalition enumeration, excesses, minimal winning profiles, and the
min-cost selection engine behind the nucleolus solver's separation oracle.

``min_cost_selection`` finds a cheapest selection of items, each taken
between zero and its count, whose total weight lies in a window and whose
count vector is movable: not orthogonal to the integer kernel of the affine
hull that the solver has fixed so far.  When the count lattice is no larger
than the DP tables, one pass over it (``_scan_min_cost``, the only lattice
scan) gives the answer.  Otherwise a bounded-knapsack dynamic program over
integer total weight hands out candidates in ascending (cost, counts) order
until one is movable: a rejected candidate's box is partitioned into
sub-boxes, each a fixed prefix, one restricted item and free items after
it, so a sub-box costs one new DP layer and a one-pass reconstruction.
A box is a knapsack with one weight row, so by the proximity theorem of
Eisenbrand and Weismantel its answer lies within 2*max(weights) + 1 of its
LP vertex in every count.  Where a count exceeds that reach, each box is
clamped to it; where none does, the whole weight range is already as small.
Either way a DP table holds at most sum(weights)*(4*max(weights) + 2) + 1
cells, whatever the counts (``min_cost_selection``).
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

import functools
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
    """new[w] = min over j in [lo, hi] of (j*cost + old[w - j*omega]), for w <= top;
    cells past the end of ``old`` are infinite, so ``old`` may be shorter."""
    new: list = [_INF] * (top + 1)
    size = len(old)
    for r in range(min(omega, top + 1)):
        count = len(range(r, top + 1, omega))
        avail = len(range(r, size, omega))
        dq: deque = deque()  # (m, old[r+m*omega] - m*cost), increasing values
        for i in range(count):
            m_enter = i - lo
            if 0 <= m_enter < avail:
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


def _suffix_tables(cache: dict, weights: Sequence[int], counts: Sequence[int],
                   costs: Sequence[int], whi: int, k: int = 0) -> list:
    """tables[m], for m > k, is the cheapest cost of items m..t-1, each taken
    between zero and its count, with total weight exactly w, for w up to whi
    or the items' full weight, whichever is smaller; tables[m] for m <= k is
    never read and left None.  Every box of the partition search frees all
    the items after its own, so it reads these.  Each table is kept in
    ``cache`` under counts[m:], so the boxes of one call share the tables of
    equal suffixes."""
    t = len(weights)
    tables: list = [None] * (t + 1)
    tables[t] = [0]
    for m in range(t - 1, k, -1):
        key = tuple(counts[m:])
        table = cache.get(key)
        if table is None:
            old = tables[m + 1]
            table = cache[key] = _convolve(old, weights[m], 0, counts[m], costs[m],
                                           min(whi, len(old) - 1 + counts[m] * weights[m]))
        tables[m] = table
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
    next one are ``tables``, so the box costs one new DP layer, no longer
    than the heaviest selection the box holds.
    """
    k = len(prefix)
    acc_w = sum(j * w for j, w in zip(prefix, weights))
    acc_c = sum(j * c for j, c in zip(prefix, costs))
    top = min(whi - acc_w, hi * weights[k] + len(tables[k + 1]) - 1)
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


def _clamped_ranges(weights: Sequence[int], costs: Sequence[int],
                    ranges: list[tuple[int, int]], lo_w: int, hi_w: int, reach: int):
    """The count ranges of the last ``len(ranges)`` items, each cut to the
    integers within ``reach`` of its coordinate at a vertex of the box's LP
    relaxation (total weight in [lo_w, hi_w]); None if the relaxation is
    infeasible, for then so is the box.

    The vertex is optimal for the perturbed cost c_m*M + P**(t-1-m) (P above
    every count and every weight, M above the perturbation's whole range),
    whose unique integer optimum is the box's answer: the lexicographically
    smallest cheapest count vector.  It is the fractional-knapsack greedy,
    in exact integer arithmetic: every item starts at its upper end if its
    cost is negative, else at its lower end; then, while the weight is below
    lo_w, the items at their lower ends fill in order of cost per weight,
    ratio ties to the later item, and while it is above hi_w, the
    negative-cost items empty in order of falling cost per weight, ratio
    ties to the earlier item.  One item at most stops between its ends.
    """
    k = len(weights) - len(ranges)
    free = [(weights[m], costs[m], lo, hi) for m, (lo, hi) in enumerate(ranges, k)]
    floor = [hi if c < 0 else lo for _, c, lo, hi in free]
    ceil = list(floor)
    total = sum(j * w for j, (w, _, _, _) in zip(floor, free))
    gap, fill, order = 0, True, []
    if total < lo_w:
        gap = lo_w - total
        order = sorted((i for i, (_, c, _, _) in enumerate(free) if c >= 0),
                       key=lambda i: (Fraction(free[i][1], free[i][0]), -i))
    elif total > hi_w:
        gap, fill = total - hi_w, False
        order = sorted((i for i, (_, c, _, _) in enumerate(free) if c < 0),
                       key=lambda i: (-Fraction(free[i][1], free[i][0]), i))
    for i in order:
        if gap == 0:
            break
        w, _, lo, hi = free[i]
        if (hi - lo) * w < gap:
            floor[i] = ceil[i] = hi if fill else lo
            gap -= (hi - lo) * w
            continue
        whole, part = divmod(gap, w)
        if fill:
            floor[i], ceil[i] = lo + whole, lo + whole + (part > 0)
        else:
            floor[i], ceil[i] = hi - whole - (part > 0), hi - whole
        gap = 0
    if gap > 0:
        return None
    return [(max(lo, c - reach), min(hi, f + reach))
            for (_, _, lo, hi), f, c in zip(free, floor, ceil)]


def _clamped_box_min_cost(cache: dict, reach: int, weights: Sequence[int],
                          counts: Sequence[int], costs: Sequence[int],
                          prefix: tuple[int, ...], lo: int, hi: int, wlo: int, whi: int):
    """``_box_min_cost`` on a box whose count ranges are first clamped to
    ``reach`` around its LP vertex (``_clamped_ranges``) and shifted to start
    at zero; the tables for the clamped free items come from ``cache``."""
    k = len(prefix)
    acc_w = sum(j * w for j, w in zip(prefix, weights))
    ranges = [(lo, hi)] + [(0, c) for c in counts[k + 1:]]
    clamped = _clamped_ranges(weights, costs, ranges, wlo - acc_w, whi - acc_w, reach)
    if clamped is None:
        return None
    lows = [a for a, _ in clamped]
    widths = list(counts[:k]) + [b - a for a, b in clamped]
    shift_w = sum(a * w for a, w in zip(lows, weights[k:]))
    shift_c = sum(a * c for a, c in zip(lows, costs[k:]))
    tables = _suffix_tables(cache, weights, widths, costs, whi, k)
    found = _box_min_cost(tables, weights, widths, costs, prefix, 0, widths[k],
                          wlo - shift_w, whi - shift_w)
    if found is None:
        return None
    cost, prof = found
    return cost + shift_c, prefix + tuple(j + a for j, a in zip(prof[k:], lows))


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
    next.  Raises ``OracleStall`` after ``_MAX_POPS`` rejected candidates.

    Each box's answer lies within reach = 2*max(weights) + 1 of its LP
    vertex in every count (the proximity theorem, ``min_cost_selection``).
    When no count exceeds the reach, no range can shrink, so every box reads
    one set of suffix tables over the weights up to whi.  Otherwise each box
    is clamped around its own vertex, for the first movable candidate can
    lie far from the root's, and reads small tables for its clamped free
    items, shared by the boxes whose clamped widths agree.
    """
    reach = 2 * max(weights) + 1
    if max(counts) <= reach:
        box = functools.partial(_box_min_cost, _suffix_tables({}, weights, counts, costs, whi),
                                weights, counts, costs)
    else:
        box = functools.partial(_clamped_box_min_cost, {}, reach, weights, counts, costs)
    heap = []
    root = box((), 0, counts[0], wlo, whi)
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
                sub = box(prof[:m], new_lo, new_hi, wlo, whi)
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
    answer.  Otherwise the knapsack DP over total weight hands out
    candidates in ascending (cost, counts) order and partitions each
    rejected candidate's box into sub-boxes that cost one new DP layer
    each; only this path raises ``OracleStall``, after ``_MAX_POPS``
    rejected candidates.

    Each box's answer is found on a box clamped around the vertex of its LP
    relaxation.  With the window written as w.j - s = wlo, 0 <= s <= whi -
    wlo, and the counts shifted to start at zero, a box is the integer
    program min{c.x : Ax = b, 0 <= x <= u, x integral} with one row whose
    entries are at most D = max(weights) in absolute value.  The proximity
    theorem of Eisenbrand and Weismantel ("Proximity results and faster
    algorithms for integer programming using the Steinitz lemma", SODA 2018;
    ACM Trans. Algorithms 16(1), 2020) states, for A with m rows, that if
    the program is feasible, then for every optimal vertex x* of its LP
    relaxation some optimal integer solution z* has
    ||x* - z*||_1 <= m(2mD + 1)^m; here that is 2D + 1.  Under the perturbed
    cost c_k*M + P**(t-1-k) (``_clamped_ranges``) the optimal integer
    solution is unique and is the box's answer, so clamping each count range
    to [ceil(x*_k) - (2D+1), floor(x*_k) + (2D+1)] keeps it (Cook, Gerards,
    Schrijver and Tardos, Math. Programming 34, 1986, for the first bounds
    of this kind).  A clamped range holds at most 4D + 3 counts, so a
    clamped table has at most sum(weights)*(4D + 2) + 1 cells.  When no
    count exceeds 2D + 1, no range can shrink: the boxes then share one set
    of suffix tables over the weights up to whi (``_heap_min_cost``).
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

"""Naive reference implementations used as independent oracles in tests.

Everything here enumerates coalitions directly and stays deliberately
separate from the library's knapsack/bitset/LP machinery, so each check has
two genuinely different routes to the same value.  The one exception is
``brute_permits_homogeneous``, which needs an LP: it writes one row per
coalition and hands the whole system to ``feasible``, a phase-1 solve.

The ``reference_*`` routines, ``unclamped_box_min_cost`` and
``ReferenceEchelonSystem`` are earlier versions of library code, kept as
regression references for the versions that replaced them.
"""

import math
from fractions import Fraction
from itertools import combinations, product

from nucleo.coalitions import (
    EnumerationLimit,
    OracleInvariantError,
    ProfileCoalition,
    _convolve,
    _smallest_count,
    min_winning_weight,
)
from nucleo.exactlp import ExactLinearProgram, solve
from nucleo.games import (
    EmptyPlayerSet,
    GameError,
    NegativeWeight,
    NonPositiveQuota,
    QuotaExceedsTotalWeight,
    Representation,
    _to_fraction,
)
from nucleo.theory import DegenerateQuota, GapReport, IdentityViolation, is_homogeneous_rep


def coalitions(n):
    for m in range(1 << n):
        yield frozenset(i for i in range(n) if m >> i & 1)


def weight(rep, S):
    orig = rep.original_weights
    return sum((orig[i] for i in S), Fraction(0))


def wins(rep, S):
    return weight(rep, S) >= rep.quota


def value(rep, S):
    return 1 if wins(rep, S) else 0


def brute_excess(rep, S, x):
    return Fraction(value(rep, S)) - sum((Fraction(x[i]) for i in S), Fraction(0))


def brute_max_excess(rep, x, forbidden=frozenset()):
    best = None
    for S in coalitions(rep.n):
        if S in forbidden:
            continue
        e = brute_excess(rep, S, x)
        if best is None or e > best[0]:
            best = (e, S)
    return best


def movable(vec, kernel):
    """Whether a count vector is not orthogonal to every kernel vector."""
    return any(sum(j * d for j, d in zip(vec, kv)) for kv in kernel)


def brute_excess_vector(rep, x):
    """All excesses, weakly decreasing, ties by bitmask ascending."""
    recs = []
    for m in range(1 << rep.n):
        S = frozenset(i for i in range(rep.n) if m >> i & 1)
        recs.append((brute_excess(rep, S, x), m, S))
    recs.sort(key=lambda r: (-r[0], r[1]))
    return recs


def brute_mwcs(rep):
    """Minimal winning coalitions by checking every proper subset."""
    out = []
    for S in coalitions(rep.n):
        if not S or not wins(rep, S):
            continue
        minimal = True
        for k in range(len(S)):
            for T in combinations(sorted(S), k):
                if wins(rep, frozenset(T)):
                    minimal = False
                    break
            if not minimal:
                break
        if minimal:
            out.append(S)
    return sorted(out, key=lambda S: sorted(S))


def brute_maximal_losing(rep):
    out = []
    players = set(range(rep.n))
    for S in coalitions(rep.n):
        if wins(rep, S):
            continue
        if all(wins(rep, S | {i}) for i in players - S):
            out.append(S)
    return out


def all_profiles(rep):
    """Every profile class of the game's weight-type lattice."""
    counts = rep.weight_types().counts
    return [ProfileCoalition.of(rep, acc)
            for acc in product(*(range(c + 1) for c in counts))]


def is_minimal_winning_profile(rep, counts):
    """A winning profile that loses when any one of its players leaves."""
    prof = ProfileCoalition.of(rep, counts)
    if prof.weight < rep.quota:
        return False
    return all(prof.weight - w < rep.quota
               for w, c in zip(prof.type_weights, prof.counts) if c)


def expand_one(rep, prof):
    """A canonical explicit member of a profile class: the lowest input
    indices of each weight type."""
    members = []
    for w, c in zip(prof.type_weights, prof.counts):
        members += [i for i, wi in enumerate(rep.original_weights) if wi == w][:c]
    return frozenset(members)


def feasible(lp):
    """Phase-1 feasibility test; returns an exact witness point when feasible."""
    probe = ExactLinearProgram(
        num_vars=lp.num_vars,
        objective=(0,) * lp.num_vars,
        sense="min",
        constraints=list(lp.constraints),
        lower_bounds=lp.lower_bounds,
        upper_bounds=lp.upper_bounds,
    )
    sol = solve(probe)
    if sol.status == "optimal":
        return True, sol.values
    return False, None


def brute_permits_homogeneous(rep):
    """Whether some (w, q) with w >= 0 and q >= 1 puts every minimal winning
    coalition at exactly q and every maximal losing one at most q - 1: such
    a representation induces the same game and is homogeneous, and every
    homogeneous representation scales to one."""
    n = rep.n
    lp = ExactLinearProgram(num_vars=n + 1, objective=[0] * (n + 1),
                            lower_bounds=[0] * n + [1])
    for S in brute_mwcs(rep):
        lp.add_constraint([1 if i in S else 0 for i in range(n)] + [-1], "=", 0)
    for L in brute_maximal_losing(rep):
        lp.add_constraint([1 if i in L else 0 for i in range(n)] + [-1], "<=", -1)
    return feasible(lp)[0]


def brute_constant_sum(rep):
    players = frozenset(range(rep.n))
    return all(value(rep, S) + value(rep, players - S) == 1 for S in coalitions(rep.n))


def brute_is_homogeneous(rep):
    return all(weight(rep, S) == rep.quota for S in brute_mwcs(rep))


def brute_null_players(rep):
    in_some_mwc = set()
    for S in brute_mwcs(rep):
        in_some_mwc |= S
    return frozenset(range(rep.n)) - in_some_mwc


def brute_interchangeable_pairs(rep):
    """Pairs (i, j) with v(S + i) == v(S + j) for every S avoiding both."""
    out = set()
    for i in range(rep.n):
        for j in range(i + 1, rep.n):
            rest = [k for k in range(rep.n) if k not in (i, j)]
            ok = True
            for m in range(1 << len(rest)):
                S = frozenset(rest[k] for k in range(len(rest)) if m >> k & 1)
                if wins(rep, S | {i}) != wins(rep, S | {j}):
                    ok = False
                    break
            if ok:
                out.add(frozenset({i, j}))
    return frozenset(out)


def has_imputation(rep):
    singles = sum(1 for w in rep.original_weights if Fraction(w) >= rep.quota)
    return singles <= 1


def random_imputation(rep, rng, denominator=9973):
    """A uniform-ish random imputation with exact rational entries."""
    lbs = [Fraction(1) if Fraction(w) >= rep.quota else Fraction(0)
           for w in rep.original_weights]
    free = 1 - sum(lbs, Fraction(0))
    assert free >= 0, "no imputation exists"
    n = rep.n
    cuts = sorted(rng.randint(0, denominator) for _ in range(n - 1))
    parts = [b - a for a, b in zip([0] + cuts, cuts + [denominator])]
    return tuple(lb + Fraction(p, denominator) * free for lb, p in zip(lbs, parts))


def reference_gap_report(rep, x_star):
    """``theory.gap_report`` as it was in ``Fraction`` arithmetic: the
    normalized weights, then per-player compares, differences and sums."""
    norm = rep.normalize()
    qb = norm.quota_bar
    if not 0 < qb < 1:
        raise DegenerateQuota(f"normalized quota {qb} must lie strictly between 0 and 1")
    wbar = norm.to_input_order()
    xs = tuple(_to_fraction(v) for v in x_star)
    if len(xs) != rep.n:
        raise GameError(f"payoff vector has length {len(xs)}, game has {rep.n} players")

    s_plus = frozenset(i for i in range(rep.n) if xs[i] > wbar[i])
    s_minus = frozenset(i for i in range(rep.n) if xs[i] <= wbar[i])
    l1 = sum((abs(xs[i] - wbar[i]) for i in range(rep.n)), Fraction(0))
    bound = 2 * max(wbar) / min(qb, 1 - qb)

    w_minus = sum((wbar[i] for i in s_minus), Fraction(0))
    if w_minus == 0:
        raise IdentityViolation("wbar(S-) = 0 cannot occur")
    if w_minus == 1:
        delta = Fraction(0)
        if l1 != 0:
            raise IdentityViolation("wbar(S-) = 1 forces a zero gap for a nucleolus")
    else:
        x_minus = sum((xs[i] for i in s_minus), Fraction(0))
        delta = 1 - x_minus / w_minus
        if l1 != 2 * delta * w_minus:
            raise IdentityViolation("gap decomposition identity failed")
    if l1 > bound:
        raise IdentityViolation("gap exceeds the weight-distance bound")
    return GapReport(l1_gap=l1, bound=bound, s_plus=s_plus, s_minus=s_minus, delta=delta)


def reference_verify_witness(ri, witness):
    """``theory._verify_witness`` as it was with a pair set: every reachable
    (original weight, witness weight) pair, built type by type, must fall on
    the same side of both cuts."""
    wi = witness.to_integer()
    table = ri.weight_types()
    orig_weights = [int(w) for w in table.weights]
    seen = {}
    for w, x in zip(ri.original_weights, wi.original_weights):
        seen.setdefault(int(w), int(x))
    combos = {(0, 0)}
    for wk, ck in zip(orig_weights, table.counts):
        xk = seen[wk]
        combos = {(a + wk * j, b + xk * j) for j in range(ck + 1) for a, b in combos}
        if len(combos) > 2_000_000:
            raise EnumerationLimit("witness verification lattice too large")
    cut, witness_cut = min_winning_weight(ri), min_winning_weight(wi)
    for a, b in combos:
        if (a >= cut) != (b >= witness_cut):
            raise IdentityViolation("homogeneity witness induces a different game")
    if not is_homogeneous_rep(wi):
        raise IdentityViolation("homogeneity witness is not homogeneous")


def reference_representation(quota, weights):
    """``games.representation`` as it was with one ``Fraction`` per player:
    convert every weight, check each, sum them all and sort the players by
    (-weight, index)."""
    ws = [_to_fraction(w) for w in weights]
    if not ws:
        raise EmptyPlayerSet("a game needs at least one player")
    q = _to_fraction(quota)
    for w in ws:
        if w < 0:
            raise NegativeWeight(f"negative weight {w}")
    if q <= 0:
        raise NonPositiveQuota(f"quota must be positive, got {q}")
    total = sum(ws, Fraction(0))
    if q > total:
        raise QuotaExceedsTotalWeight(
            f"quota {q} exceeds total weight {total}; no winning coalition exists"
        )
    order = sorted(range(len(ws)), key=lambda i: (-ws[i], i))
    return Representation(
        quota=q,
        weights=tuple(ws[i] for i in order),
        input_order=tuple(order),
    )


def unclamped_box_min_cost(weights, counts, costs, prefix, lo, hi, wlo, whi):
    """One box of the partition search as it was before its count ranges
    were clamped: the suffix tables over every weight up to ``whi``, one DP
    layer over the whole range [lo, hi] and the one-pass reconstruction."""
    t = len(weights)
    tables = [None] * (t + 1)
    tables[t] = [None] * (whi + 1)
    tables[t][0] = 0
    for m in range(t - 1, 0, -1):
        tables[m] = _convolve(tables[m + 1], weights[m], 0, counts[m], costs[m], whi)
    k = len(prefix)
    acc_w = sum(j * w for j, w in zip(prefix, weights))
    acc_c = sum(j * c for j, c in zip(prefix, costs))
    top = whi - acc_w
    layer = _convolve(tables[k + 1], weights[k], lo, hi, costs[k], top)
    finite = [layer[w] for w in range(max(wlo - acc_w, 0), top + 1) if layer[w] is not None]
    if not finite:
        return None
    best = min(finite) + acc_c
    prof = list(prefix)
    for m in range(k, len(weights)):
        lo_m, hi_m = (lo, hi) if m == k else (0, counts[m])
        j = _smallest_count(tables[m + 1], weights[m], costs[m], lo_m, hi_m,
                            best - acc_c, wlo - acc_w, whi - acc_w)
        if j is None:
            raise OracleInvariantError(f"no count of item {m} completes the cheapest cost {best}")
        prof.append(j)
        acc_w += j * weights[m]
        acc_c += j * costs[m]
    return best, tuple(prof)


def lex_leq(vec_a, vec_b):
    """Lexicographic comparison of two equal-length excess lists."""
    for a, b in zip(vec_a, vec_b):
        if a < b:
            return True
        if a > b:
            return False
    return True


class ReferenceEchelonSystem:
    """``linalg.EchelonSystem`` as it was before fraction-free storage: the
    rows over ``Fraction``, each pivot scaled to 1 as it is added."""

    def __init__(self, dim):
        self.dim = dim
        self.rows = []  # each of length dim + 1 (rhs last)
        self.pivot_cols = []

    @property
    def rank(self):
        return len(self.rows)

    def _reduce(self, vec, rhs):
        v = [Fraction(c) for c in vec]
        r = Fraction(rhs)
        for row, pc in zip(self.rows, self.pivot_cols):
            f = v[pc]
            if f:
                for j in range(self.dim):
                    if row[j]:
                        v[j] -= f * row[j]
                r -= f * row[self.dim]
        return v, r

    def add_row(self, vec, rhs):
        v, r = self._reduce(vec, rhs)
        pc = next((j for j in range(self.dim) if v[j]), None)
        if pc is None:
            if r != 0:
                raise ValueError(f"inconsistent row (residual rhs {r})")
            return False
        inv = 1 / v[pc]
        v = [c * inv for c in v]
        r = r * inv
        for row in self.rows:
            f = row[pc]
            if f:
                for j in range(self.dim):
                    if v[j]:
                        row[j] -= f * v[j]
                row[self.dim] -= f * r
        self.rows.append(v + [r])
        self.pivot_cols.append(pc)
        return True

    def kernel_basis_int(self):
        pivots = set(self.pivot_cols)
        basis = []
        for fc in (j for j in range(self.dim) if j not in pivots):
            vec = [Fraction(0)] * self.dim
            vec[fc] = Fraction(1)
            for row, pc in zip(self.rows, self.pivot_cols):
                vec[pc] = -row[fc]
            denom = 1
            for c in vec:
                denom = denom * c.denominator // math.gcd(denom, c.denominator)
            ints = [int(c * denom) for c in vec]
            g = 0
            for c in ints:
                g = math.gcd(g, c)
            basis.append([c // g for c in ints] if g > 1 else ints)
        return basis

    def solve_unique(self):
        if self.rank != self.dim:
            raise ValueError("system does not pin a unique point")
        x = [Fraction(0)] * self.dim
        for row, pc in zip(self.rows, self.pivot_cols):
            x[pc] = row[self.dim]
        return tuple(x)

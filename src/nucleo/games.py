"""Weighted majority games: representations, normalization, weight types, replicas.

A game is given by a quota ``q`` and nonnegative weights ``w_1, ..., w_n``;
coalition ``S`` wins iff ``sum(w_i for i in S) >= q``.  All arithmetic is
exact (``fractions.Fraction``); no floats enter any comparison.

Weights are stored sorted in descending order together with the permutation
back to the caller's order.  Every public payoff vector and every public
coalition uses the caller's original player order (0-based indices).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence


class GameError(ValueError):
    """Base class for invalid game inputs."""


class EmptyPlayerSet(GameError):
    pass


class NegativeWeight(GameError):
    pass


class NonPositiveQuota(GameError):
    pass


class QuotaExceedsTotalWeight(GameError):
    pass


class ZeroTotalWeight(GameError):
    pass


def _to_fraction(value) -> Fraction:
    if isinstance(value, float):
        # floats are accepted but converted through their exact decimal string
        # to avoid binary-representation surprises ("0.1" stays 1/10)
        return Fraction(repr(value))
    return Fraction(value)


@dataclass(frozen=True)
class WeightTypeTable:
    """Distinct weight values with multiplicities, heaviest first.

    ``m_circ`` is the multiplicity of the rarest weight value; ``t`` the
    number of distinct values.
    """

    entries: tuple[tuple[Fraction, int], ...]

    @property
    def t(self) -> int:
        return len(self.entries)

    @property
    def m_circ(self) -> int:
        return min(count for _, count in self.entries)

    @property
    def weights(self) -> tuple[Fraction, ...]:
        return tuple(w for w, _ in self.entries)

    @property
    def counts(self) -> tuple[int, ...]:
        return tuple(c for _, c in self.entries)

    def multiplicity_of(self, weight) -> int:
        w = _to_fraction(weight)
        for value, count in self.entries:
            if value == w:
                return count
        return 0


@dataclass(frozen=True)
class NormalizedRepresentation:
    """Quota and weights divided by the total weight (weights sum to 1)."""

    quota_bar: Fraction
    weights_bar: tuple[Fraction, ...]  # descending, aligned with Representation.weights
    input_order: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.weights_bar)

    def to_input_order(self, values: Sequence | None = None) -> tuple:
        vals = self.weights_bar if values is None else tuple(values)
        out = [None] * len(vals)
        for pos, orig in enumerate(self.input_order):
            out[orig] = vals[pos]
        return tuple(out)


@dataclass(frozen=True)
class Representation:
    """A validated quota-and-weights representation.

    ``weights`` is sorted descending; ``input_order[k]`` gives the original
    index of the player stored at sorted position ``k``.  Instances are
    immutable and safe to share.
    """

    quota: Fraction
    weights: tuple[Fraction, ...]
    input_order: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.weights)

    @property
    def total_weight(self) -> Fraction:
        return sum((w * c for w, c in self.weight_types().entries), Fraction(0))

    @property
    def original_weights(self) -> tuple[Fraction, ...]:
        return self.to_input_order(self.weights)

    def to_input_order(self, values: Sequence) -> tuple:
        out = [None] * len(self.weights)
        for pos, orig in enumerate(self.input_order):
            out[orig] = values[pos]
        return tuple(out)

    def to_sorted_order(self, values: Sequence) -> tuple:
        vals = tuple(values)
        if len(vals) != self.n:
            raise GameError(f"expected {self.n} values, got {len(vals)}")
        return tuple(vals[orig] for orig in self.input_order)

    # -- game structure ----------------------------------------------------

    def coalition_weight(self, players: Iterable[int]) -> Fraction:
        w = self.original_weights
        total = Fraction(0)
        seen = set()
        for i in players:
            if not 0 <= i < self.n:
                raise GameError(f"player index {i} out of range 0..{self.n - 1}")
            if i in seen:
                raise GameError(f"player index {i} repeated")
            seen.add(i)
            total += w[i]
        return total

    def is_winning(self, players: Iterable[int]) -> bool:
        return self.coalition_weight(players) >= self.quota

    # -- transformations ---------------------------------------------------

    def normalize(self) -> NormalizedRepresentation:
        total = self.total_weight
        if total == 0:
            raise ZeroTotalWeight("total weight is zero")
        return NormalizedRepresentation(
            quota_bar=self.quota / total,
            weights_bar=tuple(w / total for w in self.weights),
            input_order=self.input_order,
        )

    def to_integer(self) -> "Representation":
        """Equivalent representation with coprime nonnegative integer weights.

        Weights are scaled by the least common denominator and divided by
        their gcd; the quota is scaled by the same factor (it may stay
        fractional).  Winning sets are unchanged.
        """
        denom_lcm = math.lcm(*(w.denominator for w in self.weights))
        ints = [int(w * denom_lcm) for w in self.weights]
        g = math.gcd(*ints) or 1
        scale = Fraction(denom_lcm, g)
        return Representation(
            quota=self.quota * scale,
            weights=tuple(Fraction(v // g) for v in ints),
            input_order=self.input_order,
        )

    def has_integer_weights(self) -> bool:
        return all(w.denominator == 1 for w in self.weights)

    def rescale(self, factor) -> "Representation":
        lam = _to_fraction(factor)
        if lam <= 0:
            raise GameError("rescaling factor must be positive")
        return Representation(
            quota=self.quota * lam,
            weights=tuple(w * lam for w in self.weights),
            input_order=self.input_order,
        )

    def weight_types(self) -> WeightTypeTable:
        cached = getattr(self, "_weight_types_cache", None)
        if cached is None:
            counts: dict[Fraction, int] = {}
            for w in self.weights:
                counts[w] = counts.get(w, 0) + 1
            entries = tuple(sorted(counts.items(), key=lambda kv: kv[0], reverse=True))
            cached = WeightTypeTable(entries=entries)
            object.__setattr__(self, "_weight_types_cache", cached)
        return cached

    def replicate(self, rho: int) -> "Representation":
        """The game with quota ``rho * q`` and every player copied ``rho`` times.

        Copies of input player ``i`` occupy output slots ``i*rho .. i*rho+rho-1``;
        the normalized quota is unchanged.
        """
        if rho < 1 or rho != int(rho):
            raise GameError("replication factor must be a positive integer")
        rho = int(rho)
        new_weights = []
        for w in self.original_weights:
            new_weights.extend([w] * rho)
        return representation(self.quota * rho, new_weights)


def representation(quota, weights: Sequence) -> Representation:
    """Validate and canonicalize a quota-and-weights pair.

    Raises ``EmptyPlayerSet``, ``NegativeWeight``, ``NonPositiveQuota`` or
    ``QuotaExceedsTotalWeight`` on bad input; otherwise the weights are
    sorted descending (stable, so equal-weight players keep their relative
    input order) and the permutation back to the input order is recorded.

    Each distinct weight object is converted once and each distinct value
    is summed and checked once, so a game given as runs of one weight costs
    one dictionary lookup per player.  The weight-type table is built here
    from the same groups.
    """
    # players by weight object, keyed by identity and holding the object so
    # that its id stays its own; a value key would be wrong, for 0.1 equals
    # its exact Fraction but converts to 1/10
    by_object: dict[int, tuple[object, list[int]]] = {}
    for i, w in enumerate(weights):
        slot = by_object.get(id(w))
        if slot is None:
            slot = by_object[id(w)] = (w, [])
        slot[1].append(i)
    distinct = [(_to_fraction(w), players) for w, players in by_object.values()]
    if not distinct:
        raise EmptyPlayerSet("a game needs at least one player")
    q = _to_fraction(quota)
    for w, _ in distinct:  # in order of first appearance
        if w < 0:
            raise NegativeWeight(f"negative weight {w}")
    if q <= 0:
        raise NonPositiveQuota(f"quota must be positive, got {q}")
    by_value: dict[Fraction, list[list[int]]] = {}
    for w, players in distinct:
        by_value.setdefault(w, []).append(players)
    total = sum((w * sum(map(len, groups)) for w, groups in by_value.items()), Fraction(0))
    if q > total:
        raise QuotaExceedsTotalWeight(
            f"quota {q} exceeds total weight {total}; no winning coalition exists"
        )
    order: list[int] = []
    sorted_weights: list[Fraction] = []
    entries = []
    for w in sorted(by_value, reverse=True):
        groups = by_value[w]
        players = groups[0] if len(groups) == 1 else sorted(itertools.chain(*groups))
        order += players
        sorted_weights += [w] * len(players)
        entries.append((w, len(players)))
    rep = Representation(quota=q, weights=tuple(sorted_weights), input_order=tuple(order))
    object.__setattr__(rep, "_weight_types_cache", WeightTypeTable(entries=tuple(entries)))
    return rep


def validate(rep: Representation) -> Representation:
    """Re-run validation on an existing representation (returns a canonical copy)."""
    return representation(rep.quota, rep.original_weights)

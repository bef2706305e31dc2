"""Exact nucleolus of weighted majority games via sequential linear programs.

The scheme is the classical one: minimize the largest excess over all
coalitions, fix the constraints that are tight at every optimum, and recurse
on the shrunken face until a single point remains.  Two engines share one
implementation:

* the brute engine works on explicit coalitions (one LP variable per player),
* the typed engine works on weight-type profiles (one variable per distinct
  weight), restricting to weight-symmetric payoff vectors.  Equal-weight
  players are interchangeable, the nucleolus treats interchangeable players
  equally, and profile multiplicities do not depend on the payoff vector, so
  the restriction is lossless.

One routine, ``_lazy_optimum``, builds and solves every payoff LP: a
stage's master LP (eps free) and the LPs over its optimal face (eps fixed).
Its rows are generated lazily.  The separation oracle is the min-cost
covering knapsack from the coalition engine, with a capped scan of the count
lattice when the knapsack search stalls; coalitions whose excess is
constant on the affine hull fixed so far (in particular the empty and grand
coalitions, and everything frozen) are recognized by an exact kernel test
and never surface.  A constraint is frozen when it is tight at every
optimum of the stage LP, decided exactly: a strictly positive dual value
proves it by complementary slackness, and the remaining active candidates
get one face LP each, as do the bounds of ``nucleus_box``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .coalitions import (
    EnumerationLimit,
    OracleStall,
    ProfileCoalition,
    _movable,
    _scan_min_cost,
    min_cost_selection,
    min_winning_weight,
)
from .exactlp import ExactLinearProgram, solve
from .games import GameError, Representation, representation
from .linalg import EchelonSystem

MAX_BRUTE_PLAYERS = 20
_SCAN_CAP = 1 << MAX_BRUTE_PLAYERS  # count vectors in a stall's fallback scan


class NoImputation(GameError):
    """The game admits no imputation (two or more players can win alone)."""


class SolverError(RuntimeError):
    pass


@dataclass(frozen=True)
class Level:
    """One fixed excess level: its value and the coalitions frozen there."""

    epsilon: Fraction
    coalitions: tuple


@dataclass(frozen=True)
class NucleolusResult:
    x_star: tuple[Fraction, ...]  # input player order
    levels: tuple[Level, ...]
    engine: str
    stages: int

    def __post_init__(self):
        for a, b in zip(self.levels, self.levels[1:]):
            if not a.epsilon > b.epsilon:
                raise SolverError("level values must strictly decrease")

    def to_json_dict(self) -> dict:
        levels = []
        for lev in self.levels:
            coals = []
            for c in lev.coalitions:
                if isinstance(c, ProfileCoalition):
                    coals.append({
                        "profile": [
                            {"weight": str(w), "count": int(j)}
                            for w, j in zip(c.type_weights, c.counts)
                            if j > 0
                        ]
                    })
                else:
                    coals.append({"members": sorted(i + 1 for i in c)})
            levels.append({"epsilon": str(lev.epsilon), "coalitions": coals})
        return {
            "x_star": [str(v) for v in self.x_star],
            "levels": levels,
            "engine": self.engine,
            "stages": self.stages,
        }


@dataclass(frozen=True)
class NucleusBox:
    """Componentwise range of payoffs over the imputations that minimize the
    largest excess."""

    lower: tuple[Fraction, ...]  # input player order
    upper: tuple[Fraction, ...]

    @property
    def is_point(self) -> bool:
        return self.lower == self.upper

    def to_json_dict(self) -> dict:
        return {
            "lower": [str(v) for v in self.lower],
            "upper": [str(v) for v in self.upper],
        }


# ---------------------------------------------------------------------------
# the solving space: players grouped into classes with one payoff variable each
# ---------------------------------------------------------------------------


class _ItemSpace:
    """LP variables are per-class payoffs; pool vectors are class-count tuples.

    The classes are the positive-weight players of the caller's game, one
    per player (``"player"``) or one per weight type (``"type"``), in
    descending weight order.  ``rep`` is their subgame with its weights
    scaled to integers.  Null players belong to no class and are paid 0.
    """

    def __init__(self, rep: Representation, granularity: str):
        self.n = rep.n
        weights = rep.original_weights
        keep = [i for i, w in enumerate(weights) if w]  # weights are nonnegative
        if len(keep) < rep.n:
            rep = representation(rep.quota, [weights[i] for i in keep])
        if not rep.has_integer_weights():
            rep = rep.to_integer()
        self.rep = rep
        if granularity == "player":
            classes = [(int(w), 1) for w in rep.weights]  # sorted order
        else:
            table = rep.weight_types()
            classes = [(int(w), c) for w, c in table.entries]
        # per class, the caller's indices of its players
        players = iter([keep[i] for i in rep.input_order])
        self.members = [list(itertools.islice(players, c)) for _, c in classes]
        self.granularity = granularity
        self.weights = tuple(w for w, _ in classes)
        self.counts = tuple(c for _, c in classes)
        self.dim = len(classes)
        self.total_weight = sum(w * c for w, c in zip(self.weights, self.counts))
        self.win_cut = min_winning_weight(rep)
        self.lower_bounds = tuple(1 if w >= rep.quota else 0 for w in self.weights)

    def value(self, vec: Sequence[int]) -> int:
        w = sum(j * wk for j, wk in zip(vec, self.weights))
        return 1 if w >= self.win_cut else 0

    def excess_at(self, vec: Sequence[int], y: Sequence[Fraction]) -> Fraction:
        paid = sum((Fraction(j) * yk for j, yk in zip(vec, y) if j), Fraction(0))
        return Fraction(self.value(vec)) - paid

    def seeds(self) -> list[tuple[int, ...]]:
        """Per class, the vector of all its players."""
        out = []
        for k in range(self.dim):
            block = [0] * self.dim
            block[k] = self.counts[k]
            out.append(tuple(block))
        return out

    def singletons(self) -> list[tuple[int, ...]]:
        out = []
        for k in range(self.dim):
            single = [0] * self.dim
            single[k] = 1
            out.append(tuple(single))
        return out

    # -- separation oracle ---------------------------------------------------

    def best_excess(self, y: Sequence[Fraction], kernel: list[list[int]]):
        """Maximum-excess movable pool vector, or None.

        The winning and the losing windows each get their cheapest movable
        selection.  Ties prefer a winning coalition, then the
        lexicographically smallest count vector.  When the knapsack search
        stalls, ``_scan_min_cost`` answers both windows with the same tie
        rule, over at most ``_SCAN_CAP`` count vectors
        (``EnumerationLimit`` beyond).
        """
        denom = math.lcm(*(v.denominator for v in y))
        costs = tuple(int(v * denom) for v in y)
        # win_cut is the ceiling of a positive quota, so both windows exist
        windows = ((self.win_cut, self.total_weight), (0, self.win_cut - 1))
        try:
            win, lose = (min_cost_selection(self.weights, self.counts, costs, lo, hi, kernel)
                         for lo, hi in windows)
        except OracleStall:
            size = math.prod(c + 1 for c in self.counts)
            if size > _SCAN_CAP:
                raise EnumerationLimit(
                    f"oracle fallback scan of {size} count vectors (cap {_SCAN_CAP})")
            win, lose = (_scan_min_cost(self.weights, self.counts, costs, lo, hi, kernel)
                         for lo, hi in windows)

        best = None  # (excess numerator, vec); the strict > leaves a tie to win
        if win is not None:
            best = (denom - win[0], win[1])
        if lose is not None and (best is None or -lose[0] > best[0]):
            best = (-lose[0], lose[1])
        if best is None:
            return None
        return tuple(best[1]), Fraction(best[0], denom)

    # -- back to the caller's players ----------------------------------------

    def to_input(self, y: Sequence[Fraction]) -> tuple[Fraction, ...]:
        """One payoff per class as one per player, in the caller's order."""
        x = [Fraction(0)] * self.n
        for yk, players in zip(y, self.members):
            for i in players:
                x[i] = yk
        return tuple(x)

    def describe(self, vec: tuple[int, ...]) -> object:
        """A pool vector as a set of the caller's players, or as a profile."""
        if self.granularity == "player":
            return frozenset(self.members[k][0] for k, j in enumerate(vec) if j)
        return ProfileCoalition.of(self.rep, vec)


# ---------------------------------------------------------------------------
# sequential scheme
# ---------------------------------------------------------------------------


def _lazy_optimum(space: _ItemSpace, system: EchelonSystem, working: list, kernel,
                  objective: Sequence[int], sense: str, eps: Fraction | None = None,
                  stop_at: Fraction | None = None):
    """Exact optimum of a payoff LP over the fixed affine hull and the excess
    rows the oracle asks for; returns the final ``LpSolution``.

    With ``eps=None`` this is the master LP: eps is a free last variable with
    coefficient 1 in every excess row.  Otherwise it is a face LP with the
    largest excess fixed at ``eps``.  Rows are generated lazily and appended
    to ``working``.  If ``stop_at`` is given and some relaxation already
    attains it, the true optimum equals ``stop_at`` and the loop exits early.
    """
    dim = space.dim
    master = eps is None
    eps_col = [1] if master else []
    shift = 0 if master else eps  # a fixed eps moves to the right-hand side
    while True:
        lp = ExactLinearProgram(
            num_vars=dim + len(eps_col),
            objective=tuple(objective),
            sense=sense,
            lower_bounds=space.lower_bounds + (None,) * len(eps_col),
        )
        for row in system.rows:
            lp.add_constraint(row[:dim] + [0] * len(eps_col), "=", row[dim])
        for vec in working:
            lp.add_constraint(list(vec) + eps_col, ">=", space.value(vec) - shift)
        sol = solve(lp)
        if master and sol.status == "infeasible":
            raise NoImputation("the game admits no imputation")
        if sol.status != "optimal":
            raise SolverError(f"{'master' if master else 'face'} LP returned {sol.status}")
        if stop_at is not None and sol.objective_value == stop_at:
            return sol
        viol = space.best_excess(sol.values[:dim], kernel)
        if viol is None or viol[1] <= (sol.values[dim] if master else eps):
            return sol
        working.append(viol[0])


def _start(space: _ItemSpace):
    """The efficiency system and the seed pool, once individual rationality
    leaves room for an imputation; returns (system, working)."""
    if sum(lb * c for lb, c in zip(space.lower_bounds, space.counts)) > 1:
        raise NoImputation("individual rationality demands more than the total payoff")
    system = EchelonSystem(space.dim)
    system.add_row(space.counts, 1)  # efficiency
    return system, space.seeds()


def _stage_level(space: _ItemSpace, system: EchelonSystem, working: list):
    """Keep the working rows that are movable on the fixed affine hull, add
    the movable singletons, and run the master LP; returns (kernel, y, eps,
    dual value per working row)."""
    kernel = system.kernel_basis_int()
    working[:] = [v for v in working if _movable(v, kernel)]
    for single in space.singletons():
        if single not in working and _movable(single, kernel):
            working.append(single)
    dim = space.dim
    sol = _lazy_optimum(space, system, working, kernel, (0,) * dim + (1,), "min")
    return kernel, sol.values[:dim], sol.values[dim], sol.duals[len(system.rows):]


def _sequential_nucleolus(space: _ItemSpace):
    """Returns (payoff per class, levels, stage count)."""
    dim = space.dim
    system, working = _start(space)
    levels: list[tuple[Fraction, list]] = []
    stages = 0

    while system.rank < dim:
        stages += 1
        if stages > dim + 2:
            raise SolverError("stage count exceeded the dimension bound")
        kernel, y, eps, work_duals = _stage_level(space, system, working)

        # constraints tight at every optimum of this stage: a positive dual
        # value proves it (complementary slackness); a zero-dual active row
        # is tight on the whole optimal face when the most the face can pay
        # it is the floor value(vec) - eps, which y pays.  eps has cost 1
        # and coefficient 1 in every working row, so the working duals sum
        # to 1 and at least one row is frozen.
        frozen = [vec for vec, dual in zip(working, work_duals) if dual > 0]
        if not frozen:
            raise SolverError("no positive dual at the stage optimum")
        for vec, dual in zip(list(working), work_duals):
            if dual > 0 or space.excess_at(vec, y) != eps:
                continue
            floor = space.value(vec) - eps
            paid = _lazy_optimum(space, system, working, kernel, vec, "max", eps,
                                 stop_at=floor).objective_value
            if paid < floor:
                raise SolverError("face optimization below known witness")
            if paid == floor:
                frozen.append(vec)

        for vec in frozen:
            system.add_row(vec, space.value(vec) - eps)
            working.remove(vec)
        if levels and levels[-1][0] == eps:
            levels[-1][1].extend(frozen)
        else:
            if levels and not eps < levels[-1][0]:
                raise SolverError("levels failed to decrease")
            levels.append((eps, list(frozen)))

    y = system.solve_unique()
    for yk, lb in zip(y, space.lower_bounds):
        if yk < lb:
            raise SolverError("solution violates individual rationality")
    level_objs = tuple(
        Level(epsilon=eps,
              coalitions=tuple(space.describe(v) for v in vecs))
        for eps, vecs in levels
    )
    return y, level_objs, stages


# ---------------------------------------------------------------------------
# public entry points
# ---------------------------------------------------------------------------


def _prepare_space(rep: Representation, engine: str):
    """The solving space of ``rep`` and the engine that runs on it; ``auto``
    is the typed engine, and the brute engine's player count excludes the
    null players."""
    if engine not in ("auto", "brute", "typed"):
        raise GameError(f"unknown engine {engine!r}")
    if engine != "brute":
        return _ItemSpace(rep, "type"), "typed"
    space = _ItemSpace(rep, "player")
    if space.dim > MAX_BRUTE_PLAYERS:
        raise EnumerationLimit(
            f"brute engine limited to {MAX_BRUTE_PLAYERS} players, game has {space.dim}"
        )
    return space, "brute"


def nucleolus(rep: Representation, engine: str = "auto") -> NucleolusResult:
    """The exact nucleolus over imputations, in input player order.

    ``engine="typed"`` (also ``"auto"``, the default) works on weight-type
    profiles, with one payoff per distinct weight; ``engine="brute"`` works
    on explicit coalitions, with one payoff per player, and is limited to
    ``MAX_BRUTE_PLAYERS`` players of positive weight.  Zero-weight players
    receive payoff 0 and are removed before the engines run.
    """
    space, chosen = _prepare_space(rep, engine)
    y, levels, stages = _sequential_nucleolus(space)
    return NucleolusResult(
        x_star=space.to_input(y),
        levels=levels,
        engine=chosen,
        stages=stages,
    )


def nucleus_box(rep: Representation, engine: str = "auto") -> NucleusBox:
    """Componentwise min and max payoffs over the least core: the imputations
    that minimize the largest excess (the first level only).

    On the typed engine (and ``auto``) the box ranges over the
    weight-symmetric least-core imputations, which pay equal-weight players
    equally; on the brute engine it ranges over all of them, so it can be
    wider.  The largest excess includes the constant-0 excess of the empty
    and grand coalitions, so the minimum is never below 0.
    """
    space, _ = _prepare_space(rep, engine)
    dim = space.dim
    system, working = _start(space)
    if system.rank == dim:
        lower = upper = system.solve_unique()
    else:
        kernel, _, eps, _ = _stage_level(space, system, working)
        eps_face = max(eps, Fraction(0))
        lower, upper = [], []
        for k in range(dim):
            obj = [0] * dim
            obj[k] = 1
            lower.append(_lazy_optimum(space, system, working, kernel, obj, "min",
                                       eps_face).objective_value)
            upper.append(_lazy_optimum(space, system, working, kernel, obj, "max",
                                       eps_face).objective_value)
    return NucleusBox(lower=space.to_input(lower), upper=space.to_input(upper))

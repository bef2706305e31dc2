"""Game generators and answer reports shared by the recorder and the runner.

Everything here calls only the public ``nucleo`` API.  The generators are the
distributions of the repository's acceptance criteria 6 and 7, reproduced
draw for draw, so a pool made from seed 20260810 starts with exactly the
criterion-6 corpus.
"""

from __future__ import annotations

import importlib
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DATA = Path(__file__).resolve().parent / "data"

POOL_SEED = 20260810

FLAGSHIP_900 = "1500; 300*4 300*3 300*2"
FLAGSHIP_9000 = "15000; 3000*4 3000*3 3000*2"


def import_nucleo(fresh: bool = False):
    """Import ``nucleo`` from this checkout's ``src``, never from elsewhere.

    ``fresh`` drops every loaded ``nucleo`` module first, so the import is
    paid again (used to time set-up).  Raises ``ImportError`` when the
    checkout holds no ``src/nucleo``.
    """
    if not (SRC / "nucleo" / "__init__.py").is_file():
        raise ImportError(f"no nucleo package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if fresh:
        for name in [m for m in sys.modules if m == "nucleo" or m.startswith("nucleo.")]:
            del sys.modules[name]
        importlib.invalidate_caches()
    nucleo = importlib.import_module("nucleo")
    if Path(nucleo.__file__).resolve().parent != (SRC / "nucleo").resolve():
        raise ImportError(f"nucleo imported from {nucleo.__file__}, not from {SRC}")
    return nucleo


def has_imputation(rep) -> bool:
    """At most one player wins alone, so some imputation exists."""
    return sum(1 for w in rep.original_weights if w >= rep.quota) <= 1


def criterion6_games(nucleo, rng, count):
    """The acceptance criterion-6 distribution: n in 3..16, integer weights
    up to 9 or up to 4, one zero-weight player in 10% of games."""
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
        rep = nucleo.representation(rng.randint(1, total - 1), ws)
        if has_imputation(rep):
            games.append(rep)
    return games


def criterion7_games(nucleo, rng, count):
    """Constant-sum games from the acceptance criterion-7 generator: n in
    2..10, weights 1..4, alternately a strict-majority quota on an odd total
    and a random quota kept only when the game is constant-sum."""
    games = []
    trial = 0
    while len(games) < count:
        n = rng.randint(2, 10)
        ws = [rng.randint(1, 4) for _ in range(n)]
        if trial % 2 == 0:
            if sum(ws) % 2 == 0:
                ws[0] += 1
            rep = nucleo.representation(Fraction(sum(ws) + 1, 2), ws)
        else:
            rep = nucleo.representation(rng.randint(1, sum(ws)), ws)
            if not nucleo.is_constant_sum(rep):
                rep = None
        trial += 1
        if rep is not None and has_imputation(rep):
            games.append(rep)
    return games


def large_weight_games(nucleo, rng, count):
    """n = 8, weights uniform in [1, 1250], strict-majority quota.

    Only draws whose total weight W is within 5% of its mean 5004 are kept.
    The knapsack oracle's cost grows with W, so this keeps the games
    comparable in work while W stays 20 times the 256 coalitions.
    """
    top = 1250
    mean = 8 * (top + 1) // 2
    games = []
    while len(games) < count:
        ws = [rng.randint(1, top) for _ in range(8)]
        if abs(sum(ws) - mean) * 20 <= mean:
            games.append(nucleo.representation(sum(ws) // 2 + 1, ws))
    return games


def classify_report(nucleo, rep) -> dict:
    """The classifier report of one game, as JSON-ready plain data."""
    ri = rep if rep.has_integer_weights() else rep.to_integer()
    try:
        co = nucleo.coincidence_report(ri)
        coincidence = [str(co.lhs), str(co.rhs), co.holds, co.replica_threshold]
    except nucleo.DegenerateQuota:
        coincidence = None
    ok, witness = nucleo.permits_homogeneous_rep(rep, profile_cap=400_000)
    return {
        "coincidence": coincidence,
        "constant_sum": nucleo.is_constant_sum(rep),
        "homogeneous": nucleo.is_homogeneous_rep(rep),
        "null_players": sorted(nucleo.null_players(rep)),
        "interchangeable": sorted(
            sorted(str(w) for w in pair)
            for pair in nucleo.interchangeable_type_pairs(rep)
        ),
        "permits_homogeneous": ok,
        "witness": nucleo.format_game(witness) if witness is not None else None,
    }

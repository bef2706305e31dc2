"""Byte-exact ``nucleo solve --format json`` output on a fixed set of games.

The golden file pins every field of the output, the fixed levels and their
coalitions included, on every engine each game allows.  A refactor that
claims to keep the solver's behaviour must leave it unchanged.  To rewrite
it after an intended change of output:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import importlib
import io
import json
from pathlib import Path

import pytest

from nucleo import exactlp
from nucleo.cli import main
from nucleo.gameio import parse_game
from nucleo.nucleolus import MAX_BRUTE_PLAYERS

GOLDEN = Path(__file__).resolve().parent / "golden" / "solve.json"

GAMES = (
    "8; 6 4 3 2",
    "3; 2 1 1 1",
    "5; 4 3 2",
    "7/2; 1 2 2 2",
    "50; 10*4 10*3 10*2",
    "58%; 5*4 7*1",
    # criterion-6 corpus games whose nucleolus fixes two levels on both
    # engines; two of them have a zero-weight player
    "6 ; 4 5 9",
    "8 ; 1 2 4 3",
    "18 ; 8 2 0 6 7",
    "21 ; 7 1 8 7 2 0",
    "29 ; 9 2 8 2 5 3 3",
    "40 ; 9 8 7 7 1 9 2",
    # criterion-6 corpus games whose brute solve stalls the knapsack search
    # and falls back to the full scan of the count lattice
    "26 ; 4 2 4 3 1 2 2 4 1 2 3 1",
    "40 ; 2 3 2 0 4 2 1 2*5 1 4 2 6 7",
    "23 ; 3 1 2 4 1 3 1 4 3 3 1",
    # a criterion-6 corpus game whose brute stall ends in a tie between
    # {3, 7} and {7, 8}; the knapsack's tie rule (a winning vector, then the
    # lexicographically smallest count vector) picks {3, 7}
    "9 ; 3 7 1 4 9 5 8 8 7 8 4",
    # n = 8 with total weight near 5000: the oracle's lattice scan is
    # cheaper than its weight DP here
    "2389; 547 909 228 205 344 882 427 1235",
    # the 9000-player flagship: the oracle's weight DP with reused tables
    "15000; 3000*4 3000*3 3000*2",
)


def engines(game: str) -> tuple[str, ...]:
    if parse_game(game).n > MAX_BRUTE_PLAYERS:
        return ("auto", "typed")
    return ("auto", "brute", "typed")


def solve_json(game: str, engine: str) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["solve", "--format", "json", "--engine", engine, game])
    assert code == 0
    return buf.getvalue()


CASES = [(game, engine) for game in GAMES for engine in engines(game)]


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("game,engine", CASES)
def test_solve_json_matches_golden(golden, game, engine):
    assert solve_json(game, engine) == golden[game][engine]


def test_solver_work_is_pinned(monkeypatch):
    # LPs solved, simplex pivots and oracle calls over GAMES, per engine.
    # A change that keeps the solver's LP sequence and pivot path keeps
    # these; one that moves them re-pins them and says why.
    nuc = importlib.import_module("nucleo.nucleolus")  # the module, not the function
    real_solve, real_best_excess = nuc.solve, nuc._ItemSpace.best_excess
    real_pivot = exactlp._Tableau._pivot
    tally = {"lps": 0, "pivots": 0, "oracle": 0}

    def solve(lp):
        tally["lps"] += 1
        return real_solve(lp)

    def pivot(tab, prow, pcol):
        tally["pivots"] += 1
        return real_pivot(tab, prow, pcol)

    def best_excess(space, *args):
        tally["oracle"] += 1
        return real_best_excess(space, *args)

    monkeypatch.setattr(nuc, "solve", solve)
    monkeypatch.setattr(exactlp._Tableau, "_pivot", pivot)
    monkeypatch.setattr(nuc._ItemSpace, "best_excess", best_excess)
    work = {}
    for engine in ("brute", "typed"):
        tally.update(lps=0, pivots=0, oracle=0)
        for game in GAMES:
            if engine in engines(game):
                nuc.nucleolus(parse_game(game), engine=engine)
        work[engine] = dict(tally)
    assert work == {"brute": {"lps": 181, "pivots": 3195, "oracle": 132},
                    "typed": {"lps": 122, "pivots": 1474, "oracle": 89}}


if __name__ == "__main__":
    table = {game: {engine: solve_json(game, engine) for engine in engines(game)}
             for game in GAMES}
    GOLDEN.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n", encoding="utf-8")

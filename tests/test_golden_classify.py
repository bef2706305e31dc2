"""Byte-exact ``nucleo classify`` and ``nucleo check`` JSON on fixed games.

``classify`` runs the homogeneity search, which works on weight-type
profiles for every game, so the golden file pins its answer and witness on
games with more than 16 players (the 900-player flagship first), on
classify-pool games with both answers, and on small games with a fractional
quota or a zero-weight player.  To rewrite it after an intended change of
output:

    PYTHONPATH=src python tests/test_golden_classify.py
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from nucleo.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden" / "classify.json"

LARGE_GAMES = (
    "1500; 300*4 300*3 300*2",
    "50; 10*4 10*3 10*2",
    "21; 20*2 5*1",
    "25; 17*3",
    "9; 9*1 9*3",
    "19/2; 10*1 10*2",
    "7; 20*1 2*0",
    "41/2; 4*6 6*3 8*1 3*0",
    "60%; 8*3 8*2 8*1",
    "111/2; 5*5 8*4 3*1 8*0",
    "41; 6*4 2*3 7*2 2*0",
    "75/2; 5*6 5*2 8*0",
    "33; 4*6 8*2 6*0",
)

# criterion-7 classify-pool games: 20 that permit a homogeneous
# representation, then 20 that do not, spread over n = 2..10
POOL_GAMES = (
    "3 ; 4 1", "5 ; 5 4", "2 ; 2 1", "3 ; 2 3", "6 ; 5 4 2", "3 ; 2 1 2",
    "6 ; 3 3 4", "5 ; 1 4 2 2", "6 ; 5 2 2 2", "7 ; 3 4 4 2", "7 ; 2 1 4 4 2",
    "9 ; 5 4 2 3 3", "7 ; 2 2 3 3 3", "8 ; 2 1 4 2 4 2", "8 ; 5 1 1 3 1 4",
    "7 ; 3 1 4 1 1 2 1", "15 ; 1 4 4 2 4 2 4 4 4", "12 ; 4 2 4 4 2 1 4 2",
    "12 ; 4 1 4 4 4 4 1 1", "10 ; 2 1 2 4 1 1 2 4 1 1",
    "9 ; 2 4 3 3 3 2", "8 ; 4 3 2 2 3 1", "8 ; 3 2 4 3 1 2", "7 ; 4 1 3 1 2 2",
    "10 ; 3 2 4 1 2 4 3", "10 ; 5 1 4 1 4 3 1", "9 ; 3 2 2 4 2 1 3",
    "10 ; 4 2 3 1 3 3 3", "9 ; 1 3 4 3 2 1 1 2", "10 ; 4 3 4 1 2 1 2 2",
    "9 ; 1 3 3 4 2 2 1 1", "12 ; 2 4 2 4 1 3 3 4", "11 ; 2 3 1 2 4 3 1 3 2",
    "13 ; 3 3 4 4 1 3 2 3 2", "11 ; 1 1 3 3 4 2 2 1 4", "13 ; 2 3 4 2 4 3 1 3 3",
    "15 ; 4 1 2 4 3 1 4 4 3 3", "14 ; 1 4 1 2 3 4 4 3 1 4",
    "15 ; 3 2 2 4 3 2 3 3 4 3", "10 ; 1 2 1 1 2 3 1 2 2 4",
)

SMALL_GAMES = (
    "8; 6 4 3 2",
    "7/2; 1 2 2 2",
    "5/2; 3 0 1 1 2",
    "9/2; 4 3 2 0",
    "3; 2 1 0 1",
    "21/2; 7 5 3 3 2 1 0",
    "58%; 5*4 7*1",
    "2/3; 1/3 1/3 1/3",
)

GAMES = LARGE_GAMES + POOL_GAMES + SMALL_GAMES
COMMANDS = ("classify", "check")


def cli_json(command: str, game: str) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main([command, "--format", "json", game])
    assert code == 0
    return buf.getvalue()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("game", GAMES)
def test_classifier_json_matches_golden(golden, game, command):
    assert cli_json(command, game) == golden[game][command]


if __name__ == "__main__":
    table = {game: {command: cli_json(command, game) for command in COMMANDS}
             for game in GAMES}
    GOLDEN.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n", encoding="utf-8")

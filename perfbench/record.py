"""Regenerate the benchmark's input pools and their expected answers.

    python3 perfbench/record.py [--workload small-games|large-weight|classify]

Each workload draws its games from a pool in ``perfbench/data/<workload>.json``.
An entry holds the game text, the answer the benchmark checks on every run,
and ``cost_ms``, the fastest of three solve times measured here, which is used
only to sort the pool into cost strata.  Answers are recorded only after an
independent check:

* small-games and large-weight: the brute and typed engines must give the
  same exact x*, which must also pass ``gap_report``.  A game on which they
  differ is left out and reported.
* classify: constant-sum and null players are re-derived by enumerating all
  coalitions.

Run this only to change the pools; the runner never writes them.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
import time

import inputs

SMALL_POOL = 640       # entries 0..199 are the criterion-6 corpus
LARGE_POOL = 64
CLASSIFY_POOL = 1920
COST_REPEATS = 3


def _timed(fn, *args, **kwargs):
    """Result and the fastest of COST_REPEATS back-to-back runs, in ms; the
    fastest run is the one least slowed by whatever else the machine does."""
    best = math.inf
    for _ in range(COST_REPEATS):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        best = min(best, time.perf_counter() - t0)
    return out, best * 1000.0


def _solved_entries(nucleo, games, engine):
    entries = []
    for idx, rep in enumerate(games):
        res, cost_ms = _timed(nucleo.nucleolus, rep, engine=engine)
        typed = nucleo.nucleolus(rep, engine="typed")
        if res.x_star != typed.x_star:
            print(f"game {idx} left out: engines disagree on "
                  f"{nucleo.format_game(rep)}", file=sys.stderr)
            continue
        nucleo.gap_report(rep, res.x_star)  # raises IdentityViolation if wrong
        entries.append({
            "game": nucleo.format_game(rep),
            "x_star": [str(v) for v in res.x_star],
            "cost_ms": round(cost_ms, 3),
        })
        print(f"  {len(entries)}/{len(games)} n={rep.n} {cost_ms:.0f} ms", flush=True)
    return entries


def _wins(weights, quota, mask):
    return sum(w for i, w in enumerate(weights) if mask >> i & 1) >= quota


def _brute_classify_check(nucleo, rep, report):
    """Constant-sum and null players by enumerating every coalition."""
    weights = rep.original_weights
    n = rep.n
    full = (1 << n) - 1
    const_sum = all(
        _wins(weights, rep.quota, m) != _wins(weights, rep.quota, full ^ m)
        for m in range(1 << n)
    )
    nulls = [
        i for i in range(n)
        if all(_wins(weights, rep.quota, m) == _wins(weights, rep.quota, m | 1 << i)
               for m in range(1 << n) if not m >> i & 1)
    ]
    if const_sum != report["constant_sum"] or nulls != report["null_players"]:
        raise RuntimeError(f"classifier disagrees with enumeration on "
                           f"{nucleo.format_game(rep)}")


def record_small_games(nucleo):
    games = inputs.criterion6_games(nucleo, random.Random(inputs.POOL_SEED), SMALL_POOL)
    return {"engine": "brute", "entries": _solved_entries(nucleo, games, "brute")}


def record_large_weight(nucleo):
    games = inputs.large_weight_games(nucleo, random.Random(inputs.POOL_SEED + 8), LARGE_POOL)
    return {"engine": "auto", "entries": _solved_entries(nucleo, games, "auto")}


def record_classify(nucleo):
    games = inputs.criterion7_games(nucleo, random.Random(inputs.POOL_SEED + 7), CLASSIFY_POOL)
    entries = []
    for rep in games:
        report, cost_ms = _timed(inputs.classify_report, nucleo, rep)
        _brute_classify_check(nucleo, rep, report)
        entries.append({"game": nucleo.format_game(rep), "report": report,
                        "cost_ms": round(cost_ms, 3)})
    flagship = nucleo.parse_game(inputs.FLAGSHIP_900)
    return {"flagship": inputs.classify_report(nucleo, flagship), "entries": entries}


def dump(payload: dict) -> str:
    """Compact JSON with one pool entry per line."""
    head = {k: v for k, v in payload.items() if k != "entries"}
    lines = [json.dumps(e, sort_keys=True, separators=(",", ":")) for e in payload["entries"]]
    head = json.dumps(head, sort_keys=True)[:-1] + (", " if head else "")
    return head + '"entries": [\n' + ",\n".join(lines) + "\n]}\n"


RECORDERS = {
    "small-games": record_small_games,
    "large-weight": record_large_weight,
    "classify": record_classify,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(RECORDERS), action="append")
    args = parser.parse_args(argv)
    nucleo = inputs.import_nucleo()
    inputs.DATA.mkdir(exist_ok=True)
    for name in args.workload or sorted(RECORDERS):
        print(f"recording {name}", flush=True)
        payload = {"pool_seed": inputs.POOL_SEED, **RECORDERS[name](nucleo)}
        path = inputs.DATA / f"{name}.json"
        path.write_text(dump(payload))
        print(f"wrote {path} ({len(payload['entries'])} entries)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Check that the trace wrappers see every call, against the baseline counts.

    python3 perfbench/counts.py

Traces one brute-engine pass over the acceptance criterion-6 corpus (the
first 200 entries of the small-games pool) and two 900-player flagship
classifier reports, prints every layer count, and compares the counts named
in ``perfbench/baseline_counts.json`` with the ones measured.  The two
flagship reports must give identical counts.  Exits 1 on any mismatch or
failed op.  Takes about a minute.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import inputs
import run
import tracing

BASELINE = Path(__file__).resolve().parent / "baseline_counts.json"


def traced_counts(nucleo, ops):
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    tally = run.Tally()
    try:
        run.run_pass(nucleo, ops, tally, tracer)
    finally:
        tracing.uninstall(undo)
    return tally.failed, tracing.summarize(tracer)[0]


def main() -> int:
    nucleo = inputs.import_nucleo()
    corpus = [run.solve_op(nucleo, e, "brute")
              for e in run.load_pool("small-games")["entries"][:200]]
    flagship = run.ClassifyOp(nucleo.parse_game(inputs.FLAGSHIP_900),
                              run.load_pool("classify")["flagship"])
    measured = {}
    failed = 0
    for label, ops in (("criterion6_corpus_brute", corpus),
                       ("flagship_900_classify", [flagship]),
                       ("flagship_900_classify_again", [flagship])):
        f, measured[label] = traced_counts(nucleo, ops)
        failed += f
        print(label, json.dumps(measured[label], sort_keys=True), flush=True)

    ok = failed == 0
    if measured["flagship_900_classify"] != measured["flagship_900_classify_again"]:
        print("flagship counts differ between two traced runs", file=sys.stderr)
        ok = False
    baseline = json.loads(BASELINE.read_text())["counts"]
    for label, expected in baseline.items():
        for key, value in expected.items():
            got = measured[label][key]
            status = "ok" if got == value else "MISMATCH"
            ok &= got == value
            print(f"{label}  {key} = {got} (baseline {value}) {status}")
    print("all baseline counts reproduced" if ok else "baseline check FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

"""The nucleo benchmark: a closed loop with one caller over the public API.

    python3 perfbench/run.py --workload small-games --seed 1 --seconds 32 --trace 0
    python3 perfbench/run.py --workload all          # every workload, untraced and traced

One process, one thread: each op starts when the previous one has returned
and its answer has been checked.  An op is one game solved (``nucleolus``
plus ``gap_report``, as ``nucleo solve`` does) or one game's full classifier
report.  The seed picks the games from the recorded pools in
``perfbench/data``; the program receives only the parsed games.

``--trace 0`` runs the whole number of passes over the seed's batch of ops
that takes closest to ``--seconds`` (at least one) and reports the end-to-end
metrics.  ``--trace 1`` runs every op of the batch once untraced and once
traced, pass after pass by the same rule, reports the per-layer metrics and
writes the spans of the first pass to ``.perfbench_out/``.  The last line of output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction

# nucleo imports numpy lazily, on its first oracle stall.  Whether a batch
# stalls depends on the seed, so numpy is loaded up front to keep memory and
# latency comparable across seeds.
import numpy  # noqa: F401

import inputs
import tracing

# Seed that a change claiming a gain must also be measured on, and that is
# not used while the change is written.
HELD_OUT_SEED = 20261017
SETUP_REPEATS = 7
GOLDEN = 0.6180339887498949


# ---------------------------------------------------------------------------
# ops
# ---------------------------------------------------------------------------


class SolveOp:
    """Solve one game and report its weight gap; the answer is x* exactly."""

    def __init__(self, rep, engine, expected):
        self.rep = rep
        self.engine = engine
        self.expected = expected
        orig = rep.original_weights
        self.floor = [Fraction(1) if w >= rep.quota else Fraction(0) for w in orig]

    def run(self, nucleo):
        res = nucleo.nucleolus(self.rep, engine=self.engine)
        return res.x_star, nucleo.gap_report(self.rep, res.x_star)

    def check(self, answer) -> bool:
        x, gap = answer
        return (self.expected is not None and x == self.expected
                and sum(x) == 1
                and all(xi >= lo for xi, lo in zip(x, self.floor))
                and gap.l1_gap <= gap.bound)


class ClassifyOp:
    """One game's classifier report, compared with the recorded report."""

    def __init__(self, rep, expected):
        self.rep = rep
        self.expected = expected

    def run(self, nucleo):
        return inputs.classify_report(nucleo, self.rep)

    def check(self, answer) -> bool:
        return answer == self.expected


def _stratified(entries, strata, rng, tolerance=0.02):
    """One entry per cost stratum, redrawn until the recorded cost of the
    picks is within ``tolerance`` of the strata means' sum, so every seed's
    batch is about the same work.  The picks are put in an order whose every
    prefix spreads evenly over the cost range."""
    order = sorted(range(len(entries)), key=lambda i: (entries[i]["cost_ms"], i))
    n = len(order)
    groups = [[entries[i] for i in order[k * n // strata:(k + 1) * n // strata]]
              for k in range(strata)]
    target = sum(statistics.fmean(e["cost_ms"] for e in g) for g in groups)
    for _ in range(1000):
        picks = [rng.choice(g) for g in groups]
        if abs(sum(e["cost_ms"] for e in picks) - target) <= tolerance * target:
            break
    spread = sorted(range(strata), key=lambda k: (k * GOLDEN) % 1.0)
    return [picks[k] for k in spread]


def load_pool(name):
    with open(inputs.DATA / f"{name}.json") as fh:
        return json.load(fh)


def solve_op(nucleo, entry, engine):
    return SolveOp(nucleo.parse_game(entry["game"]), engine,
                   tuple(Fraction(v) for v in entry["x_star"]))


def setup_small_games(nucleo, rng):
    """64 criterion-6 games, one per cost stratum, solved with the brute engine."""
    pool = load_pool("small-games")
    return [solve_op(nucleo, e, "brute") for e in _stratified(pool["entries"], 64, rng)]


def setup_large_weight(nucleo, rng):
    """The 9000-player flagship and eight n = 8 games, one per cost stratum."""
    rep = nucleo.parse_game(inputs.FLAGSHIP_9000)
    # coincidence_report holds, so the nucleolus is the normalized weights
    expected = (tuple(rep.normalize().to_input_order())
                if nucleo.coincidence_report(rep).holds else None)
    games = _stratified(load_pool("large-weight")["entries"], 8, rng)
    return [SolveOp(rep, "auto", expected)] + [solve_op(nucleo, e, "auto") for e in games]


def setup_classify(nucleo, rng):
    """Four 900-player flagship reports, each followed by 120 small
    constant-sum games (480 in all, one per cost stratum)."""
    pool = load_pool("classify")
    flagship = pool["flagship"]
    known = (flagship["permits_homogeneous"] is False and flagship["witness"] is None
             and flagship["coincidence"][:2] == ["400/3", "96"])
    big = ClassifyOp(nucleo.parse_game(inputs.FLAGSHIP_900), flagship if known else None)
    small = [ClassifyOp(nucleo.parse_game(e["game"]), e["report"])
             for e in _stratified(pool["entries"], 480, rng)]
    ops = []
    for k in range(4):
        ops.append(big)
        ops.extend(small[k * 120:(k + 1) * 120])
    return ops


WORKLOADS = {
    "small-games": setup_small_games,
    "large-weight": setup_large_weight,
    "classify": setup_classify,
}


def setup(workload, seed):
    """Import nucleo, load the pool and parse the seed's games; timed."""
    t0 = time.perf_counter()
    nucleo = inputs.import_nucleo(fresh=True)
    ops = WORKLOADS[workload](nucleo, random.Random(f"{workload}/{seed}"))
    return nucleo, ops, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


class Tally:
    """Latency and failures of the ops of one timed loop or pass."""

    def __init__(self):
        self.latencies: list[float] = []
        self.failed = 0
        self.wall = 0.0
        self.cpu = 0.0

    def record(self, op, nucleo, op_id, tracer=None):
        """Run one op, then check its answer; a raise or a wrong answer fails it."""
        answer = None
        root = tracer.begin_op(op_id) if tracer else None
        t0 = time.perf_counter()
        try:
            answer = op.run(nucleo)
        except Exception:
            self._report(op_id)
        finally:
            t1 = time.perf_counter()
            if tracer:
                tracer.end_op(root)
        self.latencies.append(t1 - t0)
        if answer is not None:
            try:
                if op.check(answer):
                    return
            except Exception:
                self._report(op_id)
        self.failed += 1

    def _report(self, op_id):
        if self.failed < 3:
            print(f"op {op_id} raised:", file=sys.stderr)
            traceback.print_exc()


def another_pass(t_start, p_start, seconds) -> bool:
    """Whether one more pass, as long as the last, ends nearer ``seconds``
    after ``t_start`` than stopping now does."""
    now = time.perf_counter()
    return now - t_start + (now - p_start) / 2 < seconds


def run_pass(nucleo, ops, tally, tracer=None):
    for i, op in enumerate(ops):
        tally.record(op, nucleo, i, tracer)


def run_timed(nucleo, ops, seconds):
    """The whole number of passes over the ops that takes closest to
    ``seconds``, at least one.  Whole passes keep the mix of ops the same in
    every run, however few ops a pass holds."""
    tally = Tally()
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    while True:
        p0 = time.perf_counter()
        run_pass(nucleo, ops, tally)
        if not another_pass(t0, p0, seconds):
            break
    tally.wall = time.perf_counter() - t0
    tally.cpu = time.process_time() - cpu0
    return tally


def _rank(sorted_vals, q):
    """Nearest-rank quantile."""
    return sorted_vals[max(0, math.ceil(q * len(sorted_vals)) - 1)]


def end_to_end(nucleo, ops, seconds, setup_s):
    tally = run_timed(nucleo, ops, seconds)
    lat = sorted(tally.latencies)
    n = len(lat)
    human = {"error_rate": (tally.failed / n, "1"), "latency_samples": (n, "count")}
    metrics = {
        "ops_per_s": ((n - tally.failed) / tally.wall, "1/s"),
        "latency_p50_ms": (_rank(lat, 0.5) * 1e3, "ms"),
        "latency_p90_ms": (_rank(lat, 0.9) * 1e3, "ms"),
        "cpu_ms_per_op": (tally.cpu / n * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (setup_s, "s"),
    }
    return n, tally.failed, True, metrics, human


def per_layer(nucleo, ops, seconds, out_path):
    """Passes in which every op runs once untraced and once traced, back to
    back in alternating order, so that the overhead ratio compares the same
    work at the same machine speed.  Counts come from the first pass, which
    every later pass must repeat exactly.  Passes follow the rule of
    ``run_timed``."""
    t_start = time.perf_counter()
    attempted = failed = 0
    counts = None
    repeat_ok = True
    times: dict[str, list[float]] = {}
    overheads = []
    while True:
        p0 = time.perf_counter()
        plain, traced, tracer = Tally(), Tally(), tracing.Tracer()
        for i, op in enumerate(ops):
            for use_tracer in ((False, True) if i % 2 == 0 else (True, False)):
                if use_tracer:
                    undo = tracing.install(tracer)
                    try:
                        traced.record(op, nucleo, i, tracer)
                    finally:
                        tracing.uninstall(undo)
                else:
                    plain.record(op, nucleo, i)
        c, secs = tracing.summarize(tracer)
        if counts is None:
            counts = c
            tracing.write_spans(tracer, out_path)
        elif c != counts:
            repeat_ok = False
            print(f"traced counts differ between passes: {counts} vs {c}", file=sys.stderr)
        for k, v in secs.items():
            times.setdefault(k, []).append(v)
        overheads.append(sum(traced.latencies) / sum(plain.latencies) - 1)
        attempted += 2 * len(ops)
        failed += plain.failed + traced.failed
        if not another_pass(t_start, p0, seconds):
            break
    metrics = {k: (v, "count") for k, v in counts.items()}
    calls = counts["linalg.add_row_calls"]
    metrics["linalg.useful_ratio"] = (
        counts["linalg.add_row_independent"] / calls if calls else 0.0, "1")
    metrics.update({k: (statistics.median(v), "s") for k, v in times.items()})
    metrics["trace.overhead_frac"] = (statistics.median(overheads), "1")
    human = {"traced_passes": (len(overheads), "count")}
    return attempted, failed, repeat_ok, metrics, human


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------


def _print_result(workload, attempted, failed, correct, metrics, human):
    for name, (value, unit) in {**metrics, **human}.items():
        print(f"{workload:>12}  {name:<28} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": bool(correct and failed == 0),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }, sort_keys=True), flush=True)


def run_one(args) -> int:
    times = []
    try:
        for _ in range(SETUP_REPEATS):
            nucleo = ops = None
            gc.collect()  # the previous set-up's modules and games are cycles
            nucleo, ops, took = setup(args.workload, args.seed)
            times.append(took)
    except (ImportError, OSError) as exc:
        print(f"benchmark cannot start: {exc}", file=sys.stderr)
        return 2
    setup_s = statistics.median(times)
    if args.trace:
        out_dir = inputs.ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        out_path = out_dir / f"trace-{args.workload}-seed{args.seed}.csv.gz"
        result = per_layer(nucleo, ops, args.seconds, out_path)
    else:
        result = end_to_end(nucleo, ops, args.seconds, setup_s)
    _print_result(args.workload, *result)
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process."""
    summary = {}
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, __file__, "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode != 0 or not lines:
                print(f"{workload} trace={trace} exited {proc.returncode}", file=sys.stderr)
                status = 1
                continue
            summary[f"{workload}/trace{trace}"] = json.loads(lines[-1])
    print(json.dumps(summary, sort_keys=True))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="nucleo benchmark",
        epilog=f"Gains must also hold on the held-out seed {HELD_OUT_SEED}.")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end: solve, check, classify, replicate, experiment.

Games are given inline ("8; 6 4 3 2") or as a path to a game file; both use
the same grammar, including percentage quotas and run-length weights.  Exit
codes: 0 success, 2 input error (including a game file or output path
that cannot be read or written), 3 enumeration/resource limit, 4 internal
invariant failure (a solver or identity check that must never fail did).
JSON output is canonical (sorted keys, two-space indent) and reparses
byte-identically.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import __version__
from .coalitions import EnumerationLimit, OracleInvariantError
from .exactlp import SolverInternalError
from .gameio import format_game, parse_game
from .games import GameError, Representation
from .linalg import InconsistentSystem, UnderdeterminedSystem
from .nucleolus import SolverError, nucleolus
from .theory import (
    DegenerateQuota,
    HomogeneitySearchError,
    IdentityViolation,
    coincidence_report,
    distance_bound,
    gap_report,
    interchangeable_type_pairs,
    is_constant_sum,
    is_homogeneous_rep,
    null_players,
    permits_homogeneous_rep,
)
from .experiments import (
    RatioPair,
    SequenceSpec,
    emit_report,
    report_filename,
    run_sequence,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_LIMIT = 3
EXIT_INTERNAL = 4


def _approx(value: Fraction) -> str:
    return f"{float(value):.10g}"


def _load_game(source: str) -> Representation:
    if os.path.exists(source):
        with open(source, encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = source
    return parse_game(text)


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_solve(args) -> int:
    rep = _load_game(args.game)
    res = nucleolus(rep, engine=args.engine)
    payload = res.to_json_dict()
    try:
        report = gap_report(rep, res.x_star)
        payload["gap_report"] = report.to_json_dict()
    except DegenerateQuota:
        report = None
        payload["gap_report"] = None
    if args.format == "json":
        _emit(_json_dump(payload), args.output)
        return EXIT_OK
    lines = ["x*: " + " ".join(str(v) for v in res.x_star)]
    if report is not None:
        lines.append(f"gap: {report.l1_gap} (~{_approx(report.l1_gap)})")
        lines.append(f"bound: {report.bound} (~{_approx(report.bound)})")
        lines.append("overpaid players: "
                     + (" ".join(str(i + 1) for i in sorted(report.s_plus)) or "none"))
    else:
        lines.append("gap: not defined (normalized quota is 0 or 1)")
    lines.append(f"engine: {res.engine}  stages: {res.stages}")
    for lev in res.levels:
        lines.append(f"level: eps={lev.epsilon} ({len(lev.coalitions)} coalitions fixed)")
    _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK


def _classifier_payload(rep: Representation, include_witness: bool) -> dict:
    payload = {
        "constant_sum": is_constant_sum(rep),
        "homogeneous": is_homogeneous_rep(rep),
        "null_players": sorted(i + 1 for i in null_players(rep)),
    }
    if include_witness:
        ok, witness = permits_homogeneous_rep(rep)
        payload["permits_homogeneous"] = ok
        payload["homogeneous_witness"] = format_game(witness) if witness else None
        pairs = interchangeable_type_pairs(rep)
        payload["interchangeable_weight_pairs"] = sorted(
            sorted(str(w) for w in pair) for pair in pairs
        )
    return payload


def cmd_check(args) -> int:
    rep = _load_game(args.game)
    payload: dict = {"game": format_game(rep)}
    ri = rep if rep.has_integer_weights() else rep.to_integer()
    try:
        co = coincidence_report(ri)
        payload["coincidence"] = co.to_json_dict()
    except DegenerateQuota:
        payload["coincidence"] = None
    try:
        payload["distance_bound"] = str(distance_bound(rep))
    except DegenerateQuota:
        payload["distance_bound"] = None
    payload.update(_classifier_payload(rep, include_witness=False))
    if args.format == "json":
        _emit(_json_dump(payload), args.output)
        return EXIT_OK
    lines = []
    co = payload["coincidence"]
    if co is None:
        lines.append("coincidence condition: not defined (normalized quota is 0 or 1)")
    else:
        verdict = "holds" if co["holds"] else "fails"
        lines.append(
            f"coincidence condition: {verdict} (lhs {co['lhs']} vs rhs {co['rhs']}), "
            f"guaranteed from replication {co['replica_threshold']}"
        )
    bound = payload["distance_bound"]
    lines.append(f"distance bound: {bound}" if bound else "distance bound: not defined")
    lines.append(f"constant-sum: {payload['constant_sum']}")
    lines.append(f"homogeneous: {payload['homogeneous']}")
    nulls = payload["null_players"]
    lines.append("null players: " + (" ".join(map(str, nulls)) if nulls else "none"))
    _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK


def cmd_classify(args) -> int:
    rep = _load_game(args.game)
    payload = {"game": format_game(rep)}
    table = rep.weight_types()
    payload["weight_types"] = [
        {"weight": str(w), "count": c} for w, c in table.entries
    ]
    payload["t"] = table.t
    payload["m_circ"] = table.m_circ
    payload.update(_classifier_payload(rep, include_witness=True))
    if args.format == "json":
        _emit(_json_dump(payload), args.output)
        return EXIT_OK
    lines = [
        "weight types: " + " ".join(f"{w}x{c}" for (w, c) in table.entries),
        f"t: {table.t}  rarest multiplicity: {table.m_circ}",
        f"constant-sum: {payload['constant_sum']}",
        f"homogeneous: {payload['homogeneous']}",
        f"permits homogeneous representation: {payload['permits_homogeneous']}",
    ]
    if payload["homogeneous_witness"]:
        lines.append(f"homogeneous witness: {payload['homogeneous_witness']}")
    nulls = payload["null_players"]
    lines.append("null players: " + (" ".join(map(str, nulls)) if nulls else "none"))
    pairs = payload["interchangeable_weight_pairs"]
    lines.append("interchangeable weight pairs: "
                 + ("; ".join(",".join(p) for p in pairs) if pairs else "none"))
    _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK


def cmd_replicate(args) -> int:
    rep = _load_game(args.game)
    if args.rho < 1:
        raise GameError("replication factor must be >= 1")
    out = rep.replicate(args.rho)
    if args.format == "json":
        _emit(_json_dump({"game": format_game(out, run_length=True)}), args.output)
    else:
        _emit(format_game(out) + "\n", args.output)
    return EXIT_OK


def _parse_range(text: str) -> tuple[int, ...]:
    if ".." not in text:
        value = int(text)
        return (value,)
    lo_s, _, hi_s = text.partition("..")
    lo, hi = int(lo_s), int(hi_s)
    if hi < lo:
        raise GameError(f"range {text!r} must be ascending")
    return tuple(range(lo, hi + 1))


def _parse_pair(text: str) -> RatioPair:
    a, sep, b = text.partition(",")
    if not sep:
        raise GameError(f"ratio pair {text!r} must be 'i,j' or 'wA,wB'")
    a, b = a.strip(), b.strip()
    if a.startswith("w") and b.startswith("w"):
        return RatioPair(kind="weight", a=Fraction(a[1:]), b=Fraction(b[1:]))
    return RatioPair(kind="index", a=int(a), b=int(b))


def cmd_experiment(args) -> int:
    if args.family == "eq3":
        if not args.n:
            raise GameError("eq3 needs --n lo..hi")
        spec = SequenceSpec(family="eq3", values=_parse_range(args.n))
    else:  # "replica", the only other family argparse admits
        if not args.rho or not args.base:
            raise GameError("replica needs --base GAME and --rho lo..hi")
        spec = SequenceSpec(
            family="replica",
            values=_parse_range(args.rho),
            base=_load_game(args.base),
        )
    pairs = tuple(_parse_pair(p) for p in args.pair or ())
    rows = run_sequence(spec, pairs, engine=args.engine)
    text = emit_report(rows, args.format)
    path = args.output or report_filename(spec, args.format)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    sys.stdout.write(f"wrote {path} ({len(rows)} rows)\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nucleo",
        description="Exact nucleolus computation and diagnostics for weighted majority games.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, engine=True):
        p.add_argument("game", help="inline game string or path to a game file")
        if engine:
            p.add_argument("--engine", choices=("auto", "brute", "typed"), default="auto")
        p.add_argument("--format", choices=("human", "json"), default="human")
        p.add_argument("--output", default=None, help="write output to this file")

    p = sub.add_parser("solve", help="compute the nucleolus and the weight gap")
    add_common(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("check", help="coincidence condition, bound, classifiers")
    add_common(p, engine=False)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("classify", help="structural classifiers incl. homogeneity witness")
    add_common(p, engine=False)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("replicate", help="print the rho-fold replica of a game")
    add_common(p, engine=False)
    p.add_argument("--rho", type=int, required=True)
    p.set_defaults(func=cmd_replicate)

    p = sub.add_parser("experiment", help="run a game family and write a report")
    p.add_argument("family", choices=("eq3", "replica"))
    p.add_argument("--n", default=None, help="player range lo..hi (eq3)")
    p.add_argument("--rho", default=None, help="replication range lo..hi (replica)")
    p.add_argument("--base", default=None, help="base game (replica)")
    p.add_argument("--pair", action="append", default=None,
                   help="ratio pair 'i,j' (1-based) or 'wA,wB' (weights); repeatable")
    p.add_argument("--engine", choices=("auto", "brute", "typed"), default="auto")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_experiment)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except EnumerationLimit as exc:
        code, message = EXIT_LIMIT, str(exc)
    except ValueError as exc:  # every GameError, ParseError and NoImputation
        code, message = EXIT_INPUT, str(exc)
    except OSError as exc:  # an unreadable game file or an unwritable --output
        code, message = EXIT_INPUT, str(exc)
    except (SolverError, SolverInternalError, IdentityViolation, HomogeneitySearchError,
            InconsistentSystem, UnderdeterminedSystem, OracleInvariantError) as exc:
        code, message = EXIT_INTERNAL, f"internal invariant failed: {exc}"
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())

"""Exact LP answers pinned on a fixed corpus of programs.

``tests/golden/lp.json`` holds about 200 programs with the ``status``,
``values``, ``objective_value`` and ``duals`` the solver gave for each, as
strings.  The corpus mixes seeded random programs (every relation, negative
right-hand sides, free variables, nonzero lower bounds, upper bounds, both
senses, integer and fractional data), hand-made degenerate, redundant,
infeasible and unbounded programs, and 40 master and face LPs (``solver k``)
recorded from nucleolus solves at commit b888e6f.  The solver has built some
of those LPs differently since (``solver 29`` to ``solver 37`` store the
efficiency row with fractions, where it now builds the primitive integer
row), so the recorded programs are kept as LP inputs, not as a copy of what
the solver builds today.  Bland's rule makes the final basis, and so every
reported value and dual, a function of the program alone; a change to the
simplex that claims the same pivots must leave every entry unchanged.  To
rewrite the file after an intended change of answers (this records the
solver's LPs anew):

    PYTHONPATH=src python tests/test_golden_lp.py
"""

import importlib
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from nucleo import exactlp
from nucleo.exactlp import ExactLinearProgram, LinearConstraint, solve
from nucleo.gameio import parse_game
from nucleo.nucleolus import nucleolus

from test_golden import GAMES, engines

GOLDEN = Path(__file__).resolve().parent / "golden" / "lp.json"
SEED = 20261018


def _num(text):
    """Integers stay ``int`` and ratios become ``Fraction``, so the corpus
    feeds the solver both kinds of exact input."""
    return Fraction(text) if "/" in text else int(text)


def _opt(text):
    return None if text is None else _num(text)


def build(spec: dict) -> ExactLinearProgram:
    lb, ub = spec["lower_bounds"], spec["upper_bounds"]
    return ExactLinearProgram(
        num_vars=spec["num_vars"],
        objective=tuple(_num(c) for c in spec["objective"]),
        sense=spec["sense"],
        constraints=[LinearConstraint.make([_num(c) for c in coeffs], rel, _num(rhs))
                     for coeffs, rel, rhs in spec["constraints"]],
        lower_bounds=None if lb is None else tuple(_opt(b) for b in lb),
        upper_bounds=None if ub is None else tuple(_opt(b) for b in ub),
    )


def answer(spec: dict) -> dict:
    sol = solve(build(spec))

    def strs(seq):
        return None if seq is None else [str(v) for v in seq]

    return {
        "status": sol.status,
        "values": strs(sol.values),
        "objective_value": None if sol.objective_value is None else str(sol.objective_value),
        "duals": strs(sol.duals),
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_lp_matches_golden(golden):
    changed = [case["name"] for case in golden
               if answer(case["program"]) != case["expected"]]
    assert changed == []


def test_corpus_covers_every_outcome(golden):
    assert len(golden) >= 200
    statuses = {case["expected"]["status"] for case in golden}
    assert statuses == {"optimal", "infeasible", "unbounded"}


# (row, column) of every pivot in the two corpus programs where the
# artificial of a ``>=`` row used to re-enter the basis in phase 1.  An
# artificial that leaves the basis never enters again, so those pivots are
# gone and the answers are unchanged; the sequences still pin Bland's rule
# on these degenerate programs.
REENTRY_PIVOTS = {
    "degenerate 7": [(1, 0), (3, 1), (2, 2), (7, 3), (1, 5)],
    "degenerate 14": [(0, 0), (2, 1), (3, 2), (4, 4)],
}


def test_no_artificial_enters_the_basis(golden, monkeypatch):
    # over the LP corpus and the solves of the golden games, both engines
    pivots, artificial = [], []
    real_pivot = exactlp._Tableau._pivot

    def record(tab, prow, pcol):
        pivots.append((prow, pcol))
        if tab.never_enters[pcol]:
            artificial.append((prow, pcol))
        return real_pivot(tab, prow, pcol)

    monkeypatch.setattr(exactlp._Tableau, "_pivot", record)
    programs = {case["name"]: case["program"] for case in golden}
    for name, expected in REENTRY_PIVOTS.items():
        pivots.clear()
        answer(programs[name])
        assert pivots == expected, name
    for case in golden:
        answer(case["program"])
    for game in GAMES:
        for engine in ("brute", "typed"):
            if engine in engines(game):
                nucleolus(parse_game(game), engine=engine)
    assert len(pivots) > 1000
    assert artificial == []


# ---------------------------------------------------------------------------
# corpus generation
# ---------------------------------------------------------------------------


def _text(v) -> str:
    return str(Fraction(v))


def _spec(nv, objective, constraints, sense="min", lb=None, ub=None) -> dict:
    return {
        "num_vars": nv,
        "objective": [_text(c) for c in objective],
        "sense": sense,
        "constraints": [[[_text(c) for c in coeffs], rel, _text(rhs)]
                        for coeffs, rel, rhs in constraints],
        "lower_bounds": None if lb is None else [None if b is None else _text(b) for b in lb],
        "upper_bounds": None if ub is None else [None if b is None else _text(b) for b in ub],
    }


def _random_spec(rng: random.Random, fractional: bool) -> dict:
    def coef(p_zero):
        if rng.random() < p_zero:
            return 0
        if fractional and rng.random() < 0.4:
            return Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        return rng.randint(-5, 5)

    nv = rng.randint(1, 6)
    m = rng.randint(0, 7)
    cons = []
    for _ in range(m):
        coeffs = [coef(0.35) for _ in range(nv)]
        cons.append((coeffs, rng.choice(("<=", "<=", "=", ">=", ">=")), coef(0.2)))
    lb = None
    if rng.random() < 0.5:
        lb = [rng.choice((0, None, coef(0.3))) for _ in range(nv)]
    ub = None
    if rng.random() < 0.4:
        ub = [rng.choice((None, rng.randint(1, 8))) for _ in range(nv)]
        if lb is not None:  # keep each box nonempty most of the time
            ub = [u if u is None or l is None or u >= l else l + 2
                  for l, u in zip(lb, ub)]
    return _spec(nv, [coef(0.25) for _ in range(nv)], cons,
                 sense=rng.choice(("min", "max")), lb=lb, ub=ub)


def _degenerate_spec(rng: random.Random) -> dict:
    """0/±1 rows with zero right-hand sides and repeated rows: ratio ties at
    every pivot, so Bland's tie-break on the leaving row decides the basis."""
    nv = rng.randint(2, 5)
    base = [[rng.choice((0, 1, 1, -1)) for _ in range(nv)] for _ in range(rng.randint(2, 4))]
    rows = base + [rng.choice(base) for _ in range(rng.randint(1, 3))]
    cons = [(r, rng.choice(("<=", ">=", "=")), rng.choice((0, 0, 1))) for r in rows]
    cons.append(([1] * nv, "<=", rng.randint(1, 3)))
    return _spec(nv, [rng.choice((-1, 0, 1)) for _ in range(nv)], cons,
                 sense=rng.choice(("min", "max")))


def _redundant_spec(rng: random.Random) -> dict:
    """A third equality that is the sum of two others: its artificial stays
    basic at level zero and the row is dropped after phase 1."""
    nv = rng.randint(3, 5)
    a = [rng.randint(0, 3) for _ in range(nv)]
    b = [rng.randint(0, 3) for _ in range(nv)]
    a[0], b[1] = a[0] + 1, b[1] + 1
    ra, rb = rng.randint(2, 9), rng.randint(2, 9)
    cons = [(a, "=", ra), (b, "=", rb), ([x + y for x, y in zip(a, b)], "=", ra + rb)]
    rng.shuffle(cons)
    return _spec(nv, [rng.randint(-3, 3) for _ in range(nv)], cons,
                 sense=rng.choice(("min", "max")))


def _hand_made() -> list[tuple[str, dict]]:
    return [
        ("infeasible bounds", _spec(1, [0], [([1], ">=", 1), ([1], "<=", 0)])),
        ("infeasible equalities", _spec(2, [1, 1], [([1, 1], "=", 1), ([1, 1], "=", 2)])),
        ("infeasible negative rhs", _spec(2, [1, 0], [([1, 1], "<=", -1)])),
        ("unbounded max", _spec(1, [1], [], sense="max")),
        ("unbounded free", _spec(2, [1, 1], [([1, -1], "=", 0)], lb=[None, None])),
        ("unbounded ray", _spec(2, [-1, 0], [([1, -1], "<=", 2), ([0, 1], ">=", 1)])),
        ("empty constraint set", _spec(3, [2, 0, 1], [])),
        ("free variable equality",
         _spec(2, [0, 1], [([-1, 1], "=", -5), ([1, 0], "<=", 2)], lb=[0, None])),
        ("two-player epsilon program",
         _spec(3, [0, 0, 1], [([1, 1, 0], "=", 1), ([-1, 0, -1], "<=", -1),
                              ([0, -1, -1], "<=", -1)], lb=[0, 0, None])),
        ("max with upper bound",
         _spec(2, [3, 2], [([1, 1], "<=", 4), ([1, 3], "<=", 6)], sense="max", ub=[3, None])),
        ("fractional data",
         _spec(3, [Fraction(1, 3), Fraction(1, 7), Fraction(2, 5)],
               [([1, 1, 1], "=", 1), ([Fraction(1, 2), -1, 0], ">=", Fraction(-1, 3))])),
        ("shifted lower bounds",
         _spec(3, [1, -2, 1], [([1, 1, 1], "<=", 10), ([2, -1, 0], ">=", -3)],
               lb=[Fraction(3, 2), -4, None], ub=[6, 2, 5])),
        ("zero row", _spec(2, [1, 1], [([0, 0], "=", 0), ([1, 1], ">=", 1)])),
    ]


def _recorded_solver_programs(limit: int) -> list[tuple[str, dict]]:
    """Master and face LPs as the nucleolus solver builds them when this
    runs; the stored ``solver k`` programs were recorded at b888e6f."""
    from nucleo.games import representation

    nuc = importlib.import_module("nucleo.nucleolus")  # the module, not the function

    seen = []
    real_solve = nuc.solve

    def record(lp):
        seen.append(lp)
        return real_solve(lp)

    nuc.solve = record
    try:
        for quota, weights in ((6, [4, 5, 9]), (18, [8, 2, 0, 6, 7]),
                               (40, [9, 8, 7, 7, 1, 9, 2]), (8, [6, 4, 3, 2])):
            for engine in ("brute", "typed"):
                nuc.nucleolus(representation(quota, weights), engine=engine)
    finally:
        nuc.solve = real_solve
    step = max(1, len(seen) // limit)
    out = []
    for k, lp in enumerate(seen[::step][:limit]):
        spec = _spec(lp.num_vars, lp.objective,
                     [(c.coeffs, c.relation, c.rhs) for c in lp.constraints],
                     sense=lp.sense, lb=lp.lower_bounds, ub=lp.upper_bounds)
        out.append((f"solver {k}", spec))
    return out


def generate() -> list[dict]:
    rng = random.Random(SEED)
    named = _hand_made()
    named += [(f"random integer {k}", _random_spec(rng, False)) for k in range(60)]
    named += [(f"random fractional {k}", _random_spec(rng, True)) for k in range(50)]
    named += [(f"degenerate {k}", _degenerate_spec(rng)) for k in range(25)]
    named += [(f"redundant equality {k}", _redundant_spec(rng)) for k in range(12)]
    named += _recorded_solver_programs(40)
    return [{"name": name, "program": spec, "expected": answer(spec)} for name, spec in named]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(generate(), indent=1) + "\n", encoding="utf-8")

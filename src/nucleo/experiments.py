"""Game sequences and convergence tables: solve the nucleolus along a family,
track the weight-distance gap against its bound, and follow payoff ratios.

Built-in families:

* ``eq3``     the quota-(2n-1)/2 games [1, 2, ..., 2] whose payoff ratio
              between the light and a heavy player alternates between 0 and 1,
* ``replica`` rho-fold replicas of a base game.

Reports serialize deterministically to CSV or JSON; rationals are emitted as
"p/q" strings and ratios with a zero denominator as "undefined".
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .games import GameError, Representation, representation
from .nucleolus import nucleolus
from .theory import DegenerateQuota, gap_report


class UnknownFormat(GameError):
    pass


FAMILIES = ("eq3", "replica")


def eq3_representation(n: int) -> Representation:
    """[(2n-1)/2 ; 1, 2, ..., 2] with n - 1 players of weight 2."""
    if n < 2:
        raise GameError("the alternating family needs at least 2 players")
    return representation(Fraction(2 * n - 1, 2), [1] + [2] * (n - 1))


@dataclass(frozen=True)
class RatioPair:
    """A payoff ratio to track: by 1-based input indices or by weight values.

    For weight pairs the representative is the first player of that weight
    in input order.
    """

    kind: str  # "index" | "weight"
    a: object
    b: object

    def label(self) -> str:
        if self.kind == "index":
            return f"{self.a}_{self.b}"
        return f"w{self.a}_w{self.b}"

    def resolve(self, rep: Representation) -> tuple[int, int]:
        if self.kind == "index":
            i, j = int(self.a) - 1, int(self.b) - 1
            for k in (i, j):
                if not 0 <= k < rep.n:
                    raise GameError(f"player index {k + 1} out of range 1..{rep.n}")
            return i, j
        weights = rep.original_weights
        out = []
        for w in (self.a, self.b):
            target = Fraction(w)
            match = next((k for k, wk in enumerate(weights) if wk == target), None)
            if match is None:
                raise GameError(f"no player of weight {target}")
            out.append(match)
        return out[0], out[1]


@dataclass(frozen=True)
class SequenceSpec:
    family: str
    values: tuple[int, ...]  # n values (eq3) or rho values (replica)
    base: Representation | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise GameError(f"unknown family {self.family!r}")
        if not self.values:
            raise GameError("empty parameter range")
        if any(b <= a for a, b in zip(self.values, self.values[1:])):
            raise GameError("parameter range must be strictly ascending")
        if self.family == "replica" and self.base is None:
            raise GameError("replica family needs a base game")

    def game(self, value: int) -> Representation:
        if self.family == "eq3":
            return eq3_representation(value)
        return self.base.replicate(value)


@dataclass(frozen=True)
class RatioCell:
    label: str
    ratio: Fraction | None   # None when the denominator payoff is 0
    target: Fraction | None  # w_i / w_j, None when w_j = 0


@dataclass(frozen=True)
class ConvergenceRow:
    param: int
    n: int
    l1_gap: Fraction
    bound: Fraction | None  # None when the normalized quota is degenerate
    ratios: tuple[RatioCell, ...]
    regularity: tuple[tuple[Fraction, Fraction], ...]  # (weight, m_w * wbar_w)


def run_sequence(spec: SequenceSpec, ratio_pairs: Sequence[RatioPair] = (),
                 engine: str = "auto") -> list[ConvergenceRow]:
    rows = []
    for value in spec.values:
        rep = spec.game(value)
        res = nucleolus(rep, engine=engine)
        x = res.x_star
        try:
            report = gap_report(rep, x)
            gap, bound = report.l1_gap, report.bound
        except DegenerateQuota:
            wbar = rep.normalize().to_input_order()
            gap = sum((abs(a - b) for a, b in zip(x, wbar)), Fraction(0))
            bound = None
        cells = []
        reg_weights = []
        for pair in ratio_pairs:
            i, j = pair.resolve(rep)
            ratio = None if x[j] == 0 else x[i] / x[j]
            wi, wj = rep.original_weights[i], rep.original_weights[j]
            target = None if wj == 0 else wi / wj
            cells.append(RatioCell(label=pair.label(), ratio=ratio, target=target))
            for w in (wi, wj):
                if w > 0 and w not in reg_weights:
                    reg_weights.append(w)
        table = rep.weight_types()
        total = rep.total_weight
        reg = tuple((w, table.multiplicity_of(w) * w / total) for w in reg_weights)
        rows.append(ConvergenceRow(
            param=value, n=rep.n, l1_gap=gap, bound=bound,
            ratios=tuple(cells), regularity=reg,
        ))
    return rows


def _cell(value: Fraction | None) -> str:
    return "undefined" if value is None else str(value)


def emit_report(rows: Sequence[ConvergenceRow], format: str) -> str:
    """Deterministic report text; CSV columns are n, gap and bound split into
    numerator/denominator, then one ratio and one target column per pair."""
    if not rows:
        raise GameError("no rows to report")
    if format not in ("csv", "json"):
        raise UnknownFormat(f"unknown report format {format!r}")
    labels = [c.label for c in rows[0].ratios]

    if format == "csv":
        header = ["n", "gap_num", "gap_den", "bound_num", "bound_den"]
        for lab in labels:
            header += [f"ratio_{lab}", f"target_{lab}"]
        lines = [",".join(header)]
        for row in rows:
            cells = [str(row.n), str(row.l1_gap.numerator), str(row.l1_gap.denominator)]
            if row.bound is None:
                cells += ["", ""]
            else:
                cells += [str(row.bound.numerator), str(row.bound.denominator)]
            for c in row.ratios:
                cells += [_cell(c.ratio), _cell(c.target)]
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"

    payload = []
    for row in rows:
        entry = {
            "param": row.param,
            "n": row.n,
            "gap": str(row.l1_gap),
            "bound": None if row.bound is None else str(row.bound),
            "ratios": {
                c.label: {"ratio": _cell(c.ratio), "target": _cell(c.target)}
                for c in row.ratios
            },
            "regularity": {str(w): str(v) for w, v in row.regularity},
        }
        payload.append(entry)
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def report_filename(spec: SequenceSpec, format: str) -> str:
    return f"{spec.family}_{spec.values[0]}-{spec.values[-1]}.{format}"

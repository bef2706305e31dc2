"""Parsing and formatting of the game text grammar.

Grammar (UTF-8 text): the first non-comment, non-blank line is

    quota ; w1 w2 ... wn

Tokens are integers, fractions ``p/q`` or decimals (no exponents or
underscores), in ASCII digits with an optional sign.  The quota may also be
a percentage ``58%``, which is resolved at parse time to an exact rational
fraction of the total weight.  Weights additionally accept a run-length
form ``k*w`` meaning ``k`` players of weight ``w``, where ``k`` is ASCII
digits; a game of more than ``MAX_PLAYERS`` players raises
``EnumerationLimit``.  Lines starting with ``#`` are comments.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .coalitions import EnumerationLimit
from .games import GameError, Representation, representation

# the most players a game may list: parsing "500000; 1000000*1" already takes
# seconds and hundreds of MB, and every solver path is capped far below it
MAX_PLAYERS = 1_000_000


class ParseError(GameError):
    pass


# an integer, p/q or a decimal, in ASCII digits; ``Fraction`` alone would
# also take exponents (``1e999999999`` builds a billion-digit integer) and
# underscores, which the grammar does not have
_RATIONAL = re.compile(r"[+-]?(?:[0-9]+(?:/[0-9]+)?|[0-9]+\.[0-9]*|\.[0-9]+)")


def parse_rational(token: str) -> Fraction:
    token = token.strip()
    if not _RATIONAL.fullmatch(token):
        raise ParseError(f"cannot parse rational token {token!r}")
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError) as exc:  # p/0, or past int's digit limit
        raise ParseError(f"cannot parse rational token {token!r}") from exc


def parse_game(text: str) -> Representation:
    """Parse an inline game string or game file contents."""
    line = None
    for raw in text.splitlines() or [text]:
        stripped = raw.strip()
        if stripped and not stripped.startswith("#"):
            line = stripped
            break
    if line is None:
        raise ParseError("no game line found (only blank lines and comments)")
    if ";" not in line:
        raise ParseError("expected 'quota ; w1 w2 ...' with a ';' separator")
    quota_part, _, weights_part = line.partition(";")
    quota_part = quota_part.strip()
    if not quota_part:
        raise ParseError("missing quota before ';'")

    weights: list[Fraction] = []
    for token in weights_part.split():
        if "*" in token:
            count_str, _, weight_str = token.partition("*")
            # ASCII digits only: int() alone also takes underscores, signs
            # and non-ASCII digits
            if not (count_str.isascii() and count_str.isdigit()):
                raise ParseError(f"bad run-length count in {token!r}")
            try:
                count = int(count_str)
            except ValueError as exc:  # past int's digit limit
                raise ParseError(f"bad run-length count in {token!r}") from exc
            if count < 1:
                raise ParseError(f"run-length count must be >= 1 in {token!r}")
        else:
            count, weight_str = 1, token
        if len(weights) + count > MAX_PLAYERS:
            raise EnumerationLimit(f"more than {MAX_PLAYERS} players")
        weights.extend([parse_rational(weight_str)] * count)
    if not weights:
        raise ParseError("no weights given after ';'")

    if quota_part.endswith("%"):
        share = parse_rational(quota_part[:-1]) / 100
        quota = share * sum(weights, Fraction(0))
    else:
        quota = parse_rational(quota_part)
    return representation(quota, weights)


def format_rational(value: Fraction) -> str:
    return str(Fraction(value))


def format_game(rep: Representation, run_length: bool | None = None) -> str:
    """Render a representation in the game grammar (input player order).

    Run-length encoding is used automatically for games with more than 12
    players; pass ``run_length`` to force either form.
    """
    weights = rep.original_weights
    if run_length is None:
        run_length = rep.n > 12
    parts: list[str] = []
    if run_length:
        i = 0
        while i < len(weights):
            j = i
            while j < len(weights) and weights[j] == weights[i]:
                j += 1
            count = j - i
            if count > 1:
                parts.append(f"{count}*{format_rational(weights[i])}")
            else:
                parts.append(format_rational(weights[i]))
            i = j
    else:
        parts = [format_rational(w) for w in weights]
    return f"{format_rational(rep.quota)} ; " + " ".join(parts)

"""Checks of the CLI's stdout against reference values and required properties.

Each check takes the exact stdout text of one command and raises
CheckError with a reason when the output is wrong.  Rational cells are
read the way the CLI writes them: numerator and log2 of a power-of-two
denominator, or a single decimal cell for any other denominator (a
"p/q" cell is accepted too, so that an exact printout still passes).
"""

from __future__ import annotations

import csv
import io
from fractions import Fraction

from .reference import opinion_bits

INDEX_HEADER = ["mechanism", "agenda", "index", "issue", "mode", "value_num",
                "value_log2den", "samples", "ci_low", "ci_high", "seed"]
BOUND_HEADER = ["claim", "agenda", "n", "m", "ic_num", "ic_logden", "di_num",
                "di_logden", "distance_num", "distance_logden", "bound_float",
                "status", "witness"]


class CheckError(AssertionError):
    """The program's output is wrong."""


def _require(ok: bool, message: str):
    if not ok:
        raise CheckError(message)


def _rows(text: str, header: list[str]) -> list[dict[str, str]]:
    rows = list(csv.reader(io.StringIO(text)))
    _require(bool(rows) and rows[0] == header, f"unexpected header {rows[:1]}")
    _require(all(len(r) == len(header) for r in rows[1:]), "ragged CSV rows")
    return [dict(zip(header, r)) for r in rows[1:]]


def _one_row(text: str, header: list[str]) -> dict[str, str]:
    rows = _rows(text, header)
    _require(len(rows) == 1, f"expected one data row, got {len(rows)}")
    return rows[0]


def rational(num: str, logden: str) -> Fraction | float:
    if logden:
        return Fraction(int(num), 1 << int(logden))
    if "/" in num:
        return Fraction(num)
    return float(num)


def _same_value(got: Fraction | float, want: Fraction) -> bool:
    if isinstance(got, Fraction):
        return got == want
    return got == float(want)


# ---------------------------------------------------------------------------
# indices


def index_exact(text: str, index: str, want: Fraction):
    row = _one_row(text, INDEX_HEADER)
    _require(row["index"] == index and row["mode"] == "exact",
             f"expected an exact {index} row, got {row}")
    got = rational(row["value_num"], row["value_log2den"])
    _require(_same_value(got, want), f"{index} = {got}, reference {want}")


def index_mc(text: str, index: str, exact: Fraction, samples: int,
             exact_zero: bool = False):
    """The 99% interval contains the exact value computed apart; with
    exact_zero the estimate itself must be exactly 0.0."""
    row = _one_row(text, INDEX_HEADER)
    _require(row["index"] == index and row["mode"] == "mc",
             f"expected an mc {index} row, got {row}")
    _require(row["samples"] == str(samples), f"samples {row['samples']} != {samples}")
    _require(row["seed"].isdigit(), f"seed cell {row['seed']!r}")
    value = float(rational(row["value_num"], row["value_log2den"]))
    low, high = float(row["ci_low"]), float(row["ci_high"])
    _require(low <= value <= high, f"estimate {value} outside [{low}, {high}]")
    _require(low <= float(exact) <= high,
             f"exact {index} {float(exact)} outside the interval [{low}, {high}]")
    if exact_zero:
        _require(value == 0.0, f"independent mechanism: estimate {value} != 0.0")


# ---------------------------------------------------------------------------
# bound checks


def sweep(text: str, claim: str, total: int):
    """The summary row reports every tuple checked and none violated (the
    mxor count includes spectral-versus-enumeration mismatches)."""
    rows = _rows(text, BOUND_HEADER)
    _require(len(rows) == 1, f"expected only the summary row, got {len(rows)}")
    row = rows[0]
    _require(row["claim"] == f"{claim}_sweep", f"summary claim {row['claim']!r}")
    _require(row["witness"] == f"0/{total}",
             f"{claim} sweep reports {row['witness']}, expected 0/{total}")
    _require(row["status"] == "satisfied", f"status {row['status']!r}")


def oracle_verify(text: str, members: int):
    _require(text.strip() == f"true {members}",
             f"oracle verify printed {text.strip()!r}, expected 'true {members}'")


def nearest_distance(text: str) -> Fraction | float:
    """Distance printed by `oracle nearest`."""
    rows = list(csv.reader(io.StringIO(text)))
    _require(len(rows) == 2 and rows[0] == ["mechanism", "distance_num",
                                            "distance_log2den"],
             f"unexpected oracle nearest output {rows[:1]}")
    return rational(rows[1][1], rows[1][2])


def mand_distance(text: str) -> Fraction | float:
    """Distance printed by a single `verify mand` check."""
    row = _one_row(text, BOUND_HEADER)
    _require(row["claim"] == "mand", f"claim {row['claim']!r}")
    _require(row["status"] != "violated", "mand bound violated")
    return rational(row["distance_num"], row["distance_logden"])


def same_distance(nearest_text: str, mand_text: str):
    """Enumerated family (oracle nearest) and closed family (verify mand)
    reach the same distance."""
    a, b = nearest_distance(nearest_text), mand_distance(mand_text)
    _require(a == b, f"enumerated distance {a} != closed-family distance {b}")


def blr(text: str, rejection: Fraction):
    row = _one_row(text, BOUND_HEADER)
    _require(row["claim"] == "blr", f"claim {row['claim']!r}")
    got = rational(row["ic_num"], row["ic_logden"])
    _require(_same_value(got, rejection), f"1 - acceptance = {got}, reference {rejection}")
    _require(row["status"] == "satisfied", f"status {row['status']!r}")


def spectrum(text: str, voters: int, level1: Fraction):
    """Majority's spectrum: one row per mask in order, Parseval exactly,
    zero on even-size masks, constant on each level, closed-form level 1."""
    lines = text.splitlines()
    size = 1 << voters
    _require(lines[0] == "mask,numerator,log2_denominator", "spectrum header")
    _require(len(lines) == size + 1, f"{len(lines) - 1} rows, expected {size}")
    total = 0
    by_level: dict[int, int] = {}
    for mask, line in enumerate(lines[1:]):
        m, num, logden = line.split(",")
        _require(int(m) == mask, f"row {mask} holds mask {m}")
        weight = int(num) << (voters - int(logden))   # coefficient * 2^n
        total += weight * weight
        level = bin(mask).count("1")
        if level % 2 == 0:
            _require(weight == 0, f"non-zero coefficient on even mask {mask}")
        _require(by_level.setdefault(level, weight) == weight,
                 f"coefficient of mask {mask} differs within level {level}")
    _require(total == size * size, "Parseval: squared coefficients do not sum to 1")
    _require(Fraction(by_level[1], size) == level1,
             f"level-1 coefficient {Fraction(by_level[1], size)} != {level1}")


def agenda_show(text: str, issues: int, opinions: list[int]):
    want = [f"m={issues}"] + sorted(opinion_bits(x, issues) for x in opinions)
    _require(text.splitlines() == want, f"agenda show printed {text.splitlines()}")


def identical(a: str, b: str, what: str):
    _require(a == b, f"{what}: outputs differ")


def count(key: str, got: int, want: int):
    _require(got == want, f"{key} = {got}, expected {want}")

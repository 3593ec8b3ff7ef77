"""Inconsistency and dependency indices, exact and by Monte Carlo.

Exact values are Fractions counted over the whole profile space, held as
numpy arrays of issue columns and outputs.  Conjunction-style agendas
additionally get an O(m n 2^n) path via zeta/Moebius transforms over the
subset lattice, and xor-style agendas one via integer Walsh-Hadamard sums;
both are cross-checked against plain enumeration in the test suite.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .agenda import Agenda
from .bitfn import BoolFn, popcount
from .fourier import spectral_product_total
from .mechanism import (
    IndependentMechanism,
    Mechanism,
    Profile,
    TableMechanism,
    _profile_columns,
    apply,
    consistent_mask,
    hoeffding_interval,
    mc_estimate,
    output_vector,
)


@dataclass(frozen=True)
class IndexReport:
    value: Fraction | float
    mode: str                      # "exact" | "mc"
    samples: int | None = None
    ci: tuple[float, float] | None = None
    seed: int | None = None


# ---------------------------------------------------------------------------
# inconsistency index


def inconsistency_index(F: Mechanism, agenda: Agenda, voters: int,
                        mode: str = "exact", samples: int = 100_000,
                        seed: int | None = None) -> IndexReport:
    """Probability that the aggregate of a uniform consistent profile is
    inconsistent."""
    import numpy as np

    if mode == "exact":
        outputs = output_vector(F, agenda, voters)
        bad = np.count_nonzero(~consistent_mask(agenda)[outputs])
        return IndexReport(Fraction(int(bad), len(outputs)), "exact")
    if mode == "mc":
        if seed is None:
            raise ValueError("mc mode requires a seed")
        inconsistent = ~consistent_mask(agenda)
        estimate, ci = mc_estimate((F,), agenda, voters, samples, seed,
                                   lambda outs: inconsistent[outs])
        return IndexReport(estimate, "mc", samples, ci, seed)
    raise ValueError(f"unknown mode {mode!r}")


def superset_sums(values: list[int], n: int, sign: int = 1) -> list[int]:
    """Add to each entry z sign times the entries of z's proper supersets,
    one bit at a time: sign 1 gives the zeta transform (each z holds the sum
    over its supersets) and sign -1 its inverse, the Moebius transform."""
    out = list(values)
    for b in range(n):
        bit = 1 << b
        for z in range(1 << n):
            if not z & bit:
                out[z] += sign * out[z | bit]
    return out


@lru_cache(maxsize=1)
def conjunction_counts(premise_fns: tuple[BoolFn, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Per AND-column value z: number of premise-column tuples with that
    coordinatewise AND, and how many of them make every premise function 1.

    The last result is kept: a conjunction sweep asks for the same premise
    tuple once per conclusion function, one after another.
    """
    n = premise_fns[0].arity
    m = len(premise_fns)
    size = 1 << n
    prod = [1] * size
    for f in premise_fns:
        ones = superset_sums([(f.table >> x) & 1 for x in range(size)], n)
        prod = [p * c for p, c in zip(prod, ones)]
    all_one = tuple(superset_sums(prod, n, -1))
    totals = tuple((2**m - 1) ** (n - popcount(z)) for z in range(size))
    return totals, all_one


def ic_conjunction(premise_fns: list[BoolFn], h: BoolFn) -> Fraction:
    """Exact inconsistency index of <f^1..f^m, h> on the conjunction agenda."""
    n = premise_fns[0].arity
    m = len(premise_fns)
    totals, all_one = conjunction_counts(tuple(premise_fns))
    table = h.table
    bad = sum(total - ones if (table >> z) & 1 else ones
              for z, (total, ones) in enumerate(zip(totals, all_one)))
    return Fraction(bad, 1 << (m * n))


def ic_xor(fns: list[BoolFn]) -> Fraction:
    """Exact inconsistency index of an independent mechanism on the xor
    agenda (m issues, conclusion = xor of the first m-1), via the spectral
    product sum."""
    bits = len(fns) * fns[0].arity
    return Fraction((1 << bits) - spectral_product_total(fns), 1 << (bits + 1))


def min_ic_over_conclusion(premise_fns: list[BoolFn]) -> tuple[Fraction, BoolFn]:
    """Minimal conjunction-agenda inconsistency over the choice of the
    conclusion function, with the minimizing function (ties resolved to 1)."""
    n = premise_fns[0].arity
    m = len(premise_fns)
    totals, all_one = conjunction_counts(tuple(premise_fns))
    best = 0
    table = 0
    for z in range(1 << n):
        if 2 * all_one[z] >= totals[z]:
            table |= 1 << z
            best += totals[z] - all_one[z]
        else:
            best += all_one[z]
    return Fraction(best, 1 << (m * n)), BoolFn(n, table)


# ---------------------------------------------------------------------------
# dependency index


def _column_groups(agenda: Agenda, voters: int, j: int, outputs):
    """(2^n, 2) array: row z counts the profiles whose issue-j column is z
    and whose issue-j output is 0 (first entry) or 1 (second)."""
    import numpy as np

    key = _profile_columns(agenda, voters)[j - 1].astype(np.intp)
    key <<= 1
    key |= (outputs >> (j - 1)) & 1
    return np.bincount(key, minlength=2 << voters).reshape(-1, 2)


def _majority_bits(groups):
    """Per column value: whether issue-j outputs 1 on at least half of the
    profiles with that column (columns no profile has give False)."""
    counts = groups.sum(axis=1)
    return (counts > 0) & (2 * groups[:, 1] >= counts)


def dependency_index(F: Mechanism, agenda: Agenda, voters: int, j: int,
                     mode: str = "exact", samples: int = 100_000,
                     seed: int | None = None) -> IndexReport:
    """E over X of Pr over Y of the issue-j aggregate changing, where Y is a
    fresh profile sharing X's issue-j column."""
    if not 1 <= j <= agenda.issues:
        raise ValueError(f"issue {j} out of range")
    if mode == "exact":
        import numpy as np

        outputs = output_vector(F, agenda, voters)
        groups = _column_groups(agenda, voters, j, outputs)
        zeros, ones = groups[:, 0], groups[:, 1]
        counts = zeros + ones
        # sum 2 ones zeros / count over column values, one Fraction per
        # distinct count; each int64 sum stays below total^2 <= 2^52
        acc = Fraction(0)
        for count in np.unique(counts[counts > 0]).tolist():
            same = counts == count
            acc += Fraction(2 * int(np.dot(ones[same], zeros[same])), count)
        return IndexReport(acc / len(outputs), "exact")
    if mode == "mc":
        if seed is None:
            raise ValueError("mc mode requires a seed")
        by_bit = _opinions_by_issue_bit(agenda, j)
        rng = random.Random(seed)
        opinions = agenda.consistent
        hits = 0
        for _ in range(samples):
            x = [rng.randrange(len(opinions)) for _ in range(voters)]
            y = [rng.choice(by_bit[(opinions[r] >> (j - 1)) & 1]) for r in x]
            fx = apply(F, agenda, Profile(tuple(x)))
            fy = apply(F, agenda, Profile(tuple(y)))
            hits += ((fx ^ fy) >> (j - 1)) & 1
        estimate, ci = hoeffding_interval(hits / samples, samples)
        return IndexReport(estimate, "mc", samples, ci, seed)
    raise ValueError(f"unknown mode {mode!r}")


def dependency_index_max(F: Mechanism, agenda: Agenda, voters: int,
                         mode: str = "exact", samples: int = 100_000,
                         seed: int | None = None) -> IndexReport:
    reports = [dependency_index(F, agenda, voters, j, mode, samples,
                                None if seed is None else seed + j)
               for j in range(1, agenda.issues + 1)]
    best = max(reports, key=lambda r: r.value)
    return best


def _opinions_by_issue_bit(agenda: Agenda, j: int) -> dict[int, list[int]]:
    by_bit: dict[int, list[int]] = {0: [], 1: []}
    for idx, op in enumerate(agenda.consistent):
        by_bit[(op >> (j - 1)) & 1].append(idx)
    return by_bit


# ---------------------------------------------------------------------------
# proof constructions


def fix_issue_dependency(F: Mechanism, agenda: Agenda, voters: int, j: int) -> TableMechanism:
    """Make issue j depend only on its own column: output bit j becomes the
    majority answer of F over profiles sharing the column (ties to 1)."""
    outputs = output_vector(F, agenda, voters)
    ones_win = _majority_bits(_column_groups(agenda, voters, j, outputs))
    column = _profile_columns(agenda, voters)[j - 1]
    others = outputs & (((1 << agenda.issues) - 1) ^ (1 << (j - 1)))
    return TableMechanism(agenda, voters,
                          others | ones_win[column].astype(outputs.dtype) << (j - 1))


def independent_approximation(F: Mechanism, agenda: Agenda, voters: int) -> IndependentMechanism:
    """Independent mechanism whose issue-j function answers the majority of
    F's issue-j outputs over profiles with a given column (ties to 1)."""
    outputs = output_vector(F, agenda, voters)
    return IndependentMechanism(tuple(
        BoolFn.from_bits(voters, _majority_bits(_column_groups(agenda, voters, j, outputs)))
        for j in range(1, agenda.issues + 1)))

"""Reference values computed apart from approxagg.

Nothing here imports the package under test.  The agendas are rebuilt
from their definitions, and each quantity is computed by a route the
program does not take:

- the inconsistency index of issue-by-issue majority by a multinomial sum
  over how many voters hold each consistent opinion;
- IC and per-issue DI of an explicit output table with numpy;
- three-function linearity-test acceptance by a numpy count over all
  4^n input pairs;
- the level-1 Fourier coefficient of majority in closed form.

Opinions are m-bit integers with issue 1 in the least significant bit, and
a profile's index has voter 1 as its least significant base-|A| digit;
these are the CLI's documented conventions for table files.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np


# ---------------------------------------------------------------------------
# agendas


def conjunction_opinions(premises: int) -> list[int]:
    """Consistent opinions of "p1, ..., pk, p1 and ... and pk", sorted."""
    full = (1 << premises) - 1
    return sorted(a | (int(a == full) << premises) for a in range(1 << premises))


def preference_opinions(candidates: int) -> list[int]:
    """Strict rankings as pairwise bits: issue <i,j> (lexicographic pairs,
    first pair least significant) is 1 when i is ranked above j."""
    pairs = list(itertools.combinations(range(candidates), 2))
    opinions = []
    for order in itertools.permutations(range(candidates)):
        rank = {c: pos for pos, c in enumerate(order)}
        opinions.append(sum(1 << k for k, (i, j) in enumerate(pairs)
                            if rank[i] < rank[j]))
    return sorted(opinions)


AGENDAS = {
    "conjunction:2": (3, conjunction_opinions(2)),
    "pref:3": (3, preference_opinions(3)),
}


def opinion_bits(x: int, issues: int) -> str:
    """Opinion as the CLI's bit string, issue 1 leftmost."""
    return "".join(str((x >> j) & 1) for j in range(issues))


# ---------------------------------------------------------------------------
# majority: multinomial sum over opinion counts


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def majority_ic(agenda: str, voters: int) -> Fraction:
    """Exact IC of issue-by-issue strict majority (odd voter count).

    A profile's aggregate depends only on how many voters hold each
    opinion, and n!/prod(c!) profiles share the counts c.
    """
    if voters % 2 == 0:
        raise ValueError("majority needs an odd voter count")
    issues, opinions = AGENDAS[agenda]
    consistent = set(opinions)
    bad = 0
    for counts in _compositions(voters, len(opinions)):
        out = 0
        for j in range(issues):
            ones = sum(c for c, op in zip(counts, opinions) if (op >> j) & 1)
            if 2 * ones > voters:
                out |= 1 << j
        if out not in consistent:
            ways = math.factorial(voters)
            for c in counts:
                ways //= math.factorial(c)
            bad += ways
    return Fraction(bad, len(opinions) ** voters)


def majority_level1(voters: int) -> Fraction:
    """Level-1 Fourier coefficient of majority: C(n-1, (n-1)/2) / 2^(n-1)."""
    half = (voters - 1) // 2
    return Fraction(math.comb(voters - 1, half), 1 << (voters - 1))


# ---------------------------------------------------------------------------
# table mechanisms


def profile_digits(base: int, voters: int) -> np.ndarray:
    """(voters, base^voters) array: row i holds voter i+1's opinion index."""
    idx = np.arange(base**voters, dtype=np.int64)
    return np.stack([(idx // base**i) % base for i in range(voters)])


def read_table(path: str, agenda: str) -> tuple[int, np.ndarray]:
    """Parse a "table n=<voters>" file into (voters, outputs)."""
    issues, opinions = AGENDAS[agenda]
    with open(path, encoding="utf-8") as fh:
        head, *rows = [ln.strip() for ln in fh if ln.strip()]
    kind, n_field = head.split()
    if kind != "table" or not n_field.startswith("n="):
        raise ValueError(f"not a table file: {head!r}")
    voters = int(n_field[2:])
    outputs = np.full(len(opinions) ** voters, -1, dtype=np.int64)
    for row in rows:
        idx, bits = row.split(",")
        outputs[int(idx)] = int(bits[::-1], 2)
    if (outputs < 0).any():
        raise ValueError("table file does not list every profile")
    return voters, outputs


def table_ic(agenda: str, outputs: np.ndarray) -> Fraction:
    _, opinions = AGENDAS[agenda]
    bad = int((~np.isin(outputs, opinions)).sum())
    return Fraction(bad, len(outputs))


def table_di(agenda: str, voters: int, outputs: np.ndarray, issue: int) -> Fraction:
    """Per-issue DI: E_X Pr_Y[issue bit changes], Y uniform among profiles
    with X's issue column, i.e. sum over columns of 2*ones*zeros/size,
    divided by the number of profiles."""
    _, opinions = AGENDAS[agenda]
    ops = np.asarray(opinions, dtype=np.int64)
    digits = profile_digits(len(opinions), voters)
    bits = (ops[digits] >> (issue - 1)) & 1              # (voters, profiles)
    column = (bits << np.arange(voters, dtype=np.int64)[:, None]).sum(axis=0)
    answer = (outputs >> (issue - 1)) & 1
    size = np.bincount(column, minlength=1 << voters)
    ones = np.bincount(column, weights=answer, minlength=1 << voters).astype(np.int64)
    acc = sum((Fraction(2 * int(o) * int(s - o), int(s))
               for o, s in zip(ones, size) if s), Fraction(0))
    return acc / len(outputs)


def majority_outputs(agenda: str, voters: int) -> np.ndarray:
    """Issue-by-issue majority over every profile, in profile-index order."""
    issues, opinions = AGENDAS[agenda]
    ops = np.asarray(opinions, dtype=np.int64)
    chosen = ops[profile_digits(len(opinions), voters)]
    out = np.zeros(chosen.shape[1], dtype=np.int64)
    for j in range(issues):
        ones = ((chosen >> j) & 1).sum(axis=0)
        out |= (2 * ones > voters).astype(np.int64) << j
    return out


# ---------------------------------------------------------------------------
# boolean functions


def table_bits(spec: str) -> np.ndarray:
    """Truth table of a raw "n=<arity>:<hex>" spec as a 0/1 array."""
    head, _, hexpart = spec.partition(":")
    arity = int(head[2:])
    value = int(hexpart, 16)
    return np.array([(value >> x) & 1 for x in range(1 << arity)], dtype=np.int8)


def blr_rejection(f: np.ndarray, g: np.ndarray, h: np.ndarray) -> Fraction:
    """1 - Pr_{x,y}[f(x) xor g(y) = h(x xor y)], counted over all pairs."""
    size = len(f)
    x = np.arange(size)[:, None]
    y = np.arange(size)[None, :]
    accepted = int(((f[x] ^ g[y]) == h[x ^ y]).sum())
    return 1 - Fraction(accepted, size * size)

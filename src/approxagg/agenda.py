"""Agendas: consistent-opinion sets over m binary issues.

An opinion is an m-bit integer with issue 1 at the least significant
bit.  Truth-functional agendas list k free premises followed by
conclusions that are AND or XOR formulas of the premises (with optional
input and output negations).  Affine agendas are solution sets of GF(2)
systems and reduce to xor-only truth-functional form by Gaussian
elimination.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass, field

from .bitfn import popcount

MAX_ISSUES = 16


def opinion_to_str(x: int, issues: int) -> str:
    """Opinion as a bit string with issue 1 leftmost."""
    return "".join(str((x >> j) & 1) for j in range(issues))


def opinion_from_str(text: str) -> int:
    return int(text[::-1], 2)


@dataclass(frozen=True)
class Agenda:
    issues: int
    consistent: tuple[int, ...]

    def __post_init__(self):
        if not 1 <= self.issues <= MAX_ISSUES:
            raise ValueError(f"issue count must be in [1, {MAX_ISSUES}]")
        ops = self.consistent
        if not ops:
            raise ValueError("agenda must be non-empty")
        if list(ops) != sorted(set(ops)):
            raise ValueError("opinions must be sorted and duplicate-free")
        if ops[-1] >= 1 << self.issues:
            raise ValueError("opinion out of range for issue count")

    def is_consistent(self, opinion: int) -> bool:
        i = bisect_left(self.consistent, opinion)
        return i < len(self.consistent) and self.consistent[i] == opinion

    def serialize(self) -> str:
        lines = [f"m={self.issues}"]
        lines += sorted(opinion_to_str(x, self.issues) for x in self.consistent)
        return "\n".join(lines)

    @classmethod
    def parse(cls, text: str) -> "Agenda":
        lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
        if not lines or not lines[0].startswith("m="):
            raise ValueError("agenda text must start with 'm=<issues>'")
        m = int(lines[0][2:])
        opinions = tuple(sorted(opinion_from_str(ln) for ln in lines[1:]))
        return cls(m, opinions)


@dataclass(frozen=True)
class Conclusion:
    kind: str          # "AND" | "XOR"
    inputs: int        # mask over premises (premise 1 = bit 0)
    negmask: int = 0   # premises negated before combining
    negout: bool = False

    def __post_init__(self):
        if self.kind not in ("AND", "XOR"):
            raise ValueError(f"conclusion kind must be AND or XOR, got {self.kind!r}")
        if self.negmask & ~self.inputs:
            raise ValueError("negation mask outside the input set")

    def evaluate(self, premises: int) -> int:
        bits = (premises ^ self.negmask) & self.inputs
        if self.kind == "AND":
            value = 1 if bits == self.inputs else 0
        else:
            value = popcount(bits) & 1
        return value ^ int(self.negout)


@dataclass(frozen=True)
class TruthFunctionalAgenda:
    premises: int
    conclusions: tuple[Conclusion, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.premises < 0:
            raise ValueError("premise count cannot be negative")
        for c in self.conclusions:
            if c.inputs >> self.premises:
                raise ValueError("conclusion references a premise out of range")

    @property
    def issues(self) -> int:
        return self.premises + len(self.conclusions)

    def opinion(self, assignment: int) -> int:
        bits = assignment
        for pos, c in enumerate(self.conclusions):
            bits |= c.evaluate(assignment) << (self.premises + pos)
        return bits

    def expand(self) -> Agenda:
        if self.issues > MAX_ISSUES:
            raise ValueError(f"issue budget exceeded: {self.issues} > {MAX_ISSUES}")
        opinions = tuple(sorted(self.opinion(a) for a in range(1 << self.premises)))
        return Agenda(self.issues, opinions)

    def serialize(self) -> str:
        lines = [f"k={self.premises}"]
        for c in self.conclusions:
            inputs = ",".join(str(i + 1) for i in range(self.premises) if (c.inputs >> i) & 1)
            lines.append(f"{c.kind} inputs={inputs} negmask={c.negmask:b} negout={int(c.negout)}")
        return "\n".join(lines)

    @classmethod
    def parse(cls, text: str) -> "TruthFunctionalAgenda":
        lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
        if not lines or not lines[0].startswith("k="):
            raise ValueError("truth-functional agenda text must start with 'k=<premises>'")
        k = int(lines[0][2:])
        if not 0 <= k <= MAX_ISSUES:
            raise ValueError(f"premise count must be in [0, {MAX_ISSUES}]")
        conclusions = []
        for ln in lines[1:]:
            kind, *fields = ln.split()
            kv = dict(f.split("=", 1) for f in fields)
            inputs = 0
            if kv.get("inputs"):
                for tok in kv["inputs"].split(","):
                    if not 1 <= int(tok) <= k:
                        raise ValueError(f"conclusion input {tok} is not a premise 1..{k}")
                    inputs |= 1 << (int(tok) - 1)
            conclusions.append(Conclusion(kind, inputs, int(kv.get("negmask", "0"), 2),
                                          bool(int(kv.get("negout", "0")))))
        return cls(k, tuple(conclusions))


def conjunction_agenda(m_premises: int) -> TruthFunctionalAgenda:
    """m premises plus one conclusion: the conjunction of all premises."""
    if not 1 <= m_premises <= MAX_ISSUES - 1:
        raise ValueError("premise count out of budget")
    return TruthFunctionalAgenda(m_premises, (Conclusion("AND", (1 << m_premises) - 1),))


def xor_agenda(m_premises: int) -> TruthFunctionalAgenda:
    """m premises plus one conclusion: the xor of all premises."""
    if not 1 <= m_premises <= MAX_ISSUES - 1:
        raise ValueError("premise count out of budget")
    return TruthFunctionalAgenda(m_premises, (Conclusion("XOR", (1 << m_premises) - 1),))


def id_agenda(n_issues: int = 2) -> Agenda:
    """All issues constrained to agree: {all zeros, all ones}."""
    if not 1 <= n_issues <= MAX_ISSUES:
        raise ValueError(f"issue count must be in [1, {MAX_ISSUES}]")
    return Agenda(n_issues, (0, (1 << n_issues) - 1))


def preference_agenda(s: int) -> Agenda:
    """Strict linear orders over s candidates as pairwise-comparison bits.

    Issue <i,j> (i<j, lexicographic order, first pair least significant)
    answers 1 when candidate i is preferred over candidate j.
    """
    if not 3 <= s <= 5:
        raise ValueError("candidate count must be in [3, 5]")
    pairs = [(i, j) for i in range(1, s + 1) for j in range(i + 1, s + 1)]
    opinions = []
    for perm in itertools.permutations(range(1, s + 1)):
        rank = {c: pos for pos, c in enumerate(perm)}  # earlier = preferred
        bits = 0
        for pos, (i, j) in enumerate(pairs):
            if rank[i] < rank[j]:
                bits |= 1 << pos
        opinions.append(bits)
    return Agenda(len(pairs), tuple(sorted(opinions)))


# ---------------------------------------------------------------------------
# affine agendas


@dataclass(frozen=True)
class AffineAgenda:
    """Solution set {x | A(x ^ shift) = 0} of a full-rank GF(2) system.

    Rows are m-bit masks (issue 1 = bit 0).
    """

    issues: int
    rows: tuple[int, ...]
    shift: int = 0

    def __post_init__(self):
        # checked before opinions() enumerates all 2^issues candidates
        if not 1 <= self.issues <= MAX_ISSUES:
            raise ValueError(f"issue count must be in [1, {MAX_ISSUES}]")
        if any(row >> self.issues for row in self.rows) or self.shift >> self.issues:
            raise ValueError(f"a row or the shift has bits above issue {self.issues}")
        if gf2_rank(list(self.rows), self.issues) != len(self.rows):
            raise ValueError("constraint matrix must have full rank")

    def opinions(self) -> tuple[int, ...]:
        out = []
        for x in range(1 << self.issues):
            y = x ^ self.shift
            if all(popcount(row & y) % 2 == 0 for row in self.rows):
                out.append(x)
        return tuple(out)

    def expand(self) -> Agenda:
        return Agenda(self.issues, self.opinions())

    @classmethod
    def parse(cls, text: str) -> "AffineAgenda":
        """First line "m=<issues> [shift=<bits>]", then one binary row mask per line."""
        lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
        if not lines or not lines[0].startswith("m="):
            raise ValueError("affine agenda text must start with 'm=<issues>'")
        kv = dict(tok.split("=", 1) for tok in lines[0].split())
        shift = opinion_from_str(kv.get("shift", "0"))
        return cls(int(kv["m"]), tuple(opinion_from_str(ln) for ln in lines[1:]), shift)


def gf2_rank(rows: list[int], n_cols: int) -> int:
    work = rows[:]
    rank = 0
    for col in range(n_cols):
        pivot = next((r for r in range(rank, len(work)) if (work[r] >> col) & 1), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        for r in range(len(work)):
            if r != rank and (work[r] >> col) & 1:
                work[r] ^= work[rank]
        rank += 1
    return rank


def affine_to_truth_functional(aff: AffineAgenda):
    """Reduce an affine agenda to an xor-only truth-functional agenda.

    Gaussian elimination (leftmost available pivot column) brings the
    system to canonical form; pivot issues become XOR conclusions over the
    free issues, with output negations absorbing the shift vector.
    Returns (tf_agenda, issue_order) where issue_order[t] is the original
    1-based issue occupying position t+1 of the truth-functional agenda.
    """
    m = aff.issues
    # right-hand side b = A * shift folded into each row's parity bit
    work = [(row, popcount(row & aff.shift) & 1) for row in aff.rows]
    pivots: list[int] = []
    rank = 0
    for col in range(m):
        pivot = next((r for r in range(rank, len(work)) if (work[r][0] >> col) & 1), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        for r in range(len(work)):
            if r != rank and (work[r][0] >> col) & 1:
                work[r] = (work[r][0] ^ work[rank][0], work[r][1] ^ work[rank][1])
        pivots.append(col)
        rank += 1
    free = [c for c in range(m) if c not in pivots]
    conclusions = []
    for t, col in enumerate(pivots):
        row, rhs = work[t]
        inputs = 0
        for pos, c in enumerate(free):
            if (row >> c) & 1:
                inputs |= 1 << pos
        # x_pivot = xor of free columns in the row, xor rhs
        conclusions.append(Conclusion("XOR", inputs, 0, bool(rhs)))
    tf = TruthFunctionalAgenda(len(free), tuple(conclusions))
    issue_order = [c + 1 for c in free] + [c + 1 for c in pivots]
    return tf, issue_order


def relabel_opinions(agenda: Agenda, issue_order: list[int]) -> tuple[int, ...]:
    """Map agenda opinions back to an original issue ordering.

    issue_order[pos] gives the original 1-based issue stored at position
    pos+1 of the agenda.
    """
    out = []
    for x in agenda.consistent:
        bits = 0
        for pos, orig in enumerate(issue_order):
            if (x >> pos) & 1:
                bits |= 1 << (orig - 1)
        out.append(bits)
    return tuple(sorted(out))


# ---------------------------------------------------------------------------
# agenda specs


def read_at(arg: str) -> str:
    """Contents of the file named by an "@<file>" spec argument."""
    if not arg.startswith("@"):
        raise ValueError(f"expected @<file>, got {arg!r}")
    with open(arg[1:], encoding="utf-8") as fh:
        return fh.read()


def parse_agenda_spec(spec: str) -> tuple[Agenda, TruthFunctionalAgenda | None]:
    """The agenda a spec names, with its truth-functional form if it has one.

    Specs: conjunction:<k>, xor:<k>, pref:<s>, id[:<m>] (m = 2 by default),
    affine:@<file> (see AffineAgenda.parse) and tf:@<file> (see
    TruthFunctionalAgenda.parse).  Raises ValueError, or OSError for an
    unreadable file.
    """
    name, _, arg = spec.partition(":")
    if name == "conjunction":
        tf = conjunction_agenda(int(arg))
    elif name == "xor":
        tf = xor_agenda(int(arg))
    elif name == "tf":
        tf = TruthFunctionalAgenda.parse(read_at(arg))
    elif name == "pref":
        return preference_agenda(int(arg)), None
    elif name == "id":
        return id_agenda(int(arg) if arg else 2), None
    elif name == "affine":
        return AffineAgenda.parse(read_at(arg)).expand(), None
    else:
        raise ValueError(f"unknown agenda kind {name!r}")
    return tf.expand(), tf

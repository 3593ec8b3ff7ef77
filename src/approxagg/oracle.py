"""Ground-truth brute force over the space of independent mechanisms.

Enumerates every consistent independent mechanism for tiny voter counts,
finds nearest members, and validates the closed-form characterizations.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .agenda import Agenda, TruthFunctionalAgenda, parse_agenda_spec
from .bitfn import BoolFn
from .mechanism import (
    IndependentMechanism,
    Mechanism,
    closed_families,
    consistent_mask,
    independent_rows,
    output_vector,
)

CANDIDATE_BUDGET = 1 << 28


@dataclass(frozen=True)
class CIFamily:
    agenda_id: str
    voters: int
    mechanisms: tuple[IndependentMechanism, ...]

    def serialize(self) -> str:
        lines = [f"family agenda={self.agenda_id} n={self.voters} "
                 f"count={len(self.mechanisms)}"]
        for mech in self.mechanisms:
            lines.append(mech.serialize().replace("\n", ";"))
        return "\n".join(lines)


def closed_family(kind: str, voters: int) -> CIFamily:
    """The closed-form family of a named agenda kind (see closed_families)."""
    return CIFamily(kind, voters, tuple(closed_families(kind, voters)))


def enumerate_ci(agenda: Agenda, voters: int, agenda_id: str = "",
                 tf: TruthFunctionalAgenda | None = None) -> CIFamily:
    """All independent mechanisms with inconsistency index exactly zero.

    Given a single-conclusion truth-functional form `tf`, the pruned path
    sweeps premise tuples only: consistency forces the conclusion function
    pointwise, so each premise tuple admits at most one member.  Otherwise
    the generic path sweeps every per-issue function tuple and keeps the
    consistent ones.  Either path refuses a sweep over CANDIDATE_BUDGET
    candidates (pruned: premise tuples times premise matrices).
    """
    n_tables = 1 << (1 << voters)
    if tf is not None and len(tf.conclusions) == 1:
        work = (n_tables << voters) ** tf.premises
        if work > CANDIDATE_BUDGET:
            raise ValueError(f"{work} premise tuples times premise matrices exceed "
                             f"the enumeration budget {CANDIDATE_BUDGET}")
        members = _enumerate_pruned(tf, voters, n_tables)
    else:
        if n_tables**agenda.issues > CANDIDATE_BUDGET:
            raise ValueError("candidate space exceeds the enumeration budget; "
                             "use the pruned path for truth-functional agendas")
        members = _enumerate_generic(agenda, voters, n_tables)
    members.sort(key=lambda mech: mech.serialize())
    return CIFamily(agenda_id, voters, tuple(members))


def _enumerate_generic(agenda: Agenda, voters: int,
                       n_tables: int) -> list[IndependentMechanism]:
    import numpy as np

    member = consistent_mask(agenda)
    m = agenda.issues
    fns = [BoolFn(voters, t) for t in range(n_tables)]
    members = []
    start = 0
    for rows in independent_rows(agenda, voters, 0, n_tables**m):
        for u in (start + np.flatnonzero(member[rows].all(axis=1))).tolist():
            members.append(IndependentMechanism(tuple(
                fns[u // n_tables ** (m - 1 - j) % n_tables] for j in range(m))))
        start += len(rows)
    return members


# premise-tuple rows per block times premise matrices: bounds the work arrays
PRUNED_BLOCK = 1 << 20


def _enumerate_pruned(tf: TruthFunctionalAgenda, voters: int,
                      n_tables: int) -> list[IndependentMechanism]:
    """Sweep premise tuples; derive the unique conclusion table when one exists.

    For a single-conclusion agenda, consistency means the conclusion
    function agrees with the conclusion formula applied to the premise
    aggregates on every premise matrix; this pins the conclusion value at
    every reachable conclusion column and rules the tuple out on conflict.
    One array holds the wanted conclusion bit of every premise tuple (row)
    on every premise matrix (column), with the matrices grouped by their
    conclusion column.
    """
    import numpy as np

    k = tf.premises
    concl = tf.conclusions[0]
    size = 1 << voters
    # premise matrices as (matrix, premise) column values, and the truth
    # table of the conclusion formula over the 2^k premise bits
    matrices = np.array(list(itertools.product(range(size), repeat=k)),
                        dtype=np.intp).reshape(-1, k)
    formula = np.array([concl.evaluate(p) for p in range(1 << k)], dtype=np.uint8)
    ccol = np.zeros(len(matrices), dtype=np.intp)
    for i in range(voters):
        premises = ((matrices >> i) & 1) << np.arange(k)
        ccol |= formula[premises.sum(axis=1)].astype(np.intp) << i
    order = np.argsort(ccol, kind="stable")
    matrices, ccol = matrices[order], ccol[order]
    starts = np.flatnonzero(np.r_[True, ccol[1:] != ccol[:-1]])
    reached = ccol[starts].tolist()
    free_cols = [c for c in range(size) if c not in reached]
    # table_bits[t, c]: value of BoolFn(voters, t) on column c
    table_bits = ((np.arange(n_tables)[:, None] >> np.arange(size)) & 1).astype(np.uint8)
    bits_dtype = np.min_scalar_type((1 << k) - 1)
    n_tuples = n_tables**k
    step = max(1, PRUNED_BLOCK // len(matrices))
    members = []
    for lo in range(0, n_tuples, step):
        rows = np.arange(lo, min(lo + step, n_tuples))
        premise_bits = np.zeros((len(rows), len(matrices)), dtype=bits_dtype)
        for j in range(k):
            t_j = rows // n_tables ** (k - 1 - j) % n_tables
            premise_bits |= table_bits[t_j][:, matrices[:, j]].astype(bits_dtype) << j
        want = formula[premise_bits]
        low = np.minimum.reduceat(want, starts, axis=1)
        ok = (low == np.maximum.reduceat(want, starts, axis=1)).all(axis=1)
        for u, required in zip(rows[ok].tolist(), low[ok].tolist()):
            tup = tuple(BoolFn(voters, u // n_tables ** (k - 1 - j) % n_tables)
                        for j in range(k))
            base = sum(bit << c for bit, c in zip(required, reached))
            # unreachable conclusion columns leave the conclusion table free there
            for bits in itertools.product((0, 1), repeat=len(free_cols)):
                table = base
                for c, b in zip(free_cols, bits):
                    table |= b << c
                members.append(IndependentMechanism(tup + (BoolFn(voters, table),)))
    return members


def nearest_ci(F: Mechanism, agenda: Agenda, voters: int,
               family: CIFamily) -> tuple[IndependentMechanism, Fraction]:
    """Closest family member under the exact profile-distance; ties broken by
    serialization order (the family is stored sorted)."""
    import numpy as np

    assert family.mechanisms, "consistent-independent family cannot be empty"
    target = output_vector(F, agenda, voters)
    members = np.stack([output_vector(mech, agenda, voters) for mech in family.mechanisms])
    counts = np.count_nonzero(members != target, axis=1)
    best = int(np.argmin(counts))  # the first of equal counts
    return family.mechanisms[best], Fraction(int(counts[best]), len(target))


def verify_characterization(kind: str, n: int) -> tuple[bool, dict[str, list[str]]]:
    """Set-compare the brute-force enumeration against the closed families.

    kind is "conjunction:<k>", "xor:<k>", or "id[:<m>]".  Returns (equal,
    diff) where diff lists serializations missing from either side.
    """
    agenda, tf = parse_agenda_spec(kind)
    family = enumerate_ci(agenda, n, kind, tf=tf)
    closed = closed_families(kind, n)
    enumerated = {m.serialize() for m in family.mechanisms}
    expected = {m.serialize() for m in closed}
    diff = {
        "missing_from_enumeration": sorted(expected - enumerated),
        "missing_from_closed_form": sorted(enumerated - expected),
    }
    return enumerated == expected, diff


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


def enumerate_ci(agenda: Agenda, voters: int, agenda_id: str = "",
                 tf: TruthFunctionalAgenda | None = None) -> CIFamily:
    """All independent mechanisms with inconsistency index exactly zero.

    Given a single-conclusion truth-functional form `tf`, the pruned path
    sweeps premise tuples only: consistency forces the conclusion function
    pointwise, so each premise tuple admits at most one member.  Otherwise
    the generic path sweeps every per-issue function tuple and keeps the
    consistent ones.
    """
    n_tables = 1 << (1 << voters)
    if tf is not None and len(tf.conclusions) == 1:
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
    member = consistent_mask(agenda)
    members = []
    fns = [BoolFn(voters, t) for t in range(n_tables)]
    for tup in itertools.product(fns, repeat=agenda.issues):
        F = IndependentMechanism(tup)
        if member[output_vector(F, agenda, voters)].all():
            members.append(F)
    return members


def _enumerate_pruned(tf: TruthFunctionalAgenda, voters: int,
                      n_tables: int) -> list[IndependentMechanism]:
    """Sweep premise tuples; derive the unique conclusion table when one exists.

    For a single-conclusion agenda, consistency means the conclusion
    function agrees with the conclusion formula applied to the premise
    aggregates on every premise matrix; this pins the conclusion value at
    every reachable conclusion column and rules the tuple out on conflict.
    """
    k = tf.premises
    concl = tf.conclusions[0]
    size = 1 << voters
    members = []
    fns = [BoolFn(voters, t) for t in range(n_tables)]
    matrices = [(cols, _conclusion_column(concl, cols, voters))
                for cols in itertools.product(range(size), repeat=k)]
    for tup in itertools.product(fns, repeat=k):
        required: dict[int, int] = {}
        ok = True
        for cols, ccol in matrices:
            premise_bits = 0
            for j, col in enumerate(cols):
                premise_bits |= ((tup[j].table >> col) & 1) << j
            want = concl.evaluate(premise_bits)
            if required.setdefault(ccol, want) != want:
                ok = False
                break
        if not ok:
            continue
        base = 0
        for ccol, bit in required.items():
            base |= bit << ccol
        free_cols = [c for c in range(size) if c not in required]
        # unreachable conclusion columns leave the conclusion table free there
        for bits in itertools.product((0, 1), repeat=len(free_cols)):
            table = base
            for c, b in zip(free_cols, bits):
                table |= b << c
            members.append(IndependentMechanism(tup + (BoolFn(voters, table),)))
    return members


def _conclusion_column(concl, cols, voters: int) -> int:
    out = 0
    for i in range(voters):
        premises = 0
        for j, col in enumerate(cols):
            premises |= ((col >> i) & 1) << j
        out |= concl.evaluate(premises) << i
    return out


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


import random
import time
from fractions import Fraction

import pytest

from approxagg.agenda import Conclusion, TruthFunctionalAgenda, conjunction_agenda, id_agenda, xor_agenda
from approxagg.bitfn import BoolFn, dictator, majority
from approxagg.indices import inconsistency_index
from approxagg.mechanism import (
    IndependentMechanism,
    closed_families,
    mech_distance_exact,
    systematic,
)
from approxagg.oracle import CIFamily, enumerate_ci, nearest_ci, verify_characterization

CONJ2 = conjunction_agenda(2)


def test_enumeration_members_are_consistent():
    family = enumerate_ci(CONJ2.expand(), 2, "conjunction:2", tf=CONJ2)
    agenda = CONJ2.expand()
    for mech in family.mechanisms:
        assert inconsistency_index(mech, agenda, 2).value == 0


def test_pruned_equals_generic():
    for tf in [make(k) for make in (conjunction_agenda, xor_agenda) for k in (1, 2, 3)]:
        agenda = tf.expand()
        for n in (1, 2):
            pruned = enumerate_ci(agenda, n, "x", tf=tf)
            generic = enumerate_ci(agenda, n, "x")
            assert [m.serialize() for m in pruned.mechanisms] == \
                   [m.serialize() for m in generic.mechanisms]


def test_pruned_matches_closed_families_at_three_voters():
    for kind, count in (("conjunction:2", 519), ("xor:2", 32)):
        ok, diff = verify_characterization(kind, 3)
        assert ok, diff
        assert len(closed_families(kind, 3)) == count


def test_characterizations_match_closed_form():
    for kind, count in (("conjunction:2", 35), ("xor:2", 16), ("id", 16)):
        ok, diff = verify_characterization(kind, 2)
        assert ok, diff
        assert len(closed_families(kind, 2)) == count


def test_characterizations_n1():
    for kind in ("conjunction:2", "xor:2", "id"):
        ok, diff = verify_characterization(kind, 1)
        assert ok, diff


def test_nearest_ci_systematic_majority():
    agenda = CONJ2.expand()
    family = enumerate_ci(agenda, 3, "conjunction:2", tf=CONJ2)
    F = systematic(majority(3), 3)
    member, distance = nearest_ci(F, agenda, 3, family)
    assert distance == Fraction(7, 16)
    assert len(family.mechanisms) == 519  # 2^3 oligarchic + 2*2^8 - 1 collapsed
    # the nearest member is at least as close as any closed-form candidate
    for mech in closed_families("conjunction:2", 3):
        assert distance <= mech_distance_exact(F, mech, agenda, 3)


def test_nearest_ci_deterministic_tie_break():
    agenda = id_agenda()
    family = enumerate_ci(agenda, 2, "id")
    F = IndependentMechanism((BoolFn(2, 0b0110), BoolFn(2, 0b1001)))
    m1, d1 = nearest_ci(F, agenda, 2, family)
    m2, d2 = nearest_ci(F, agenda, 2, family)
    assert m1 == m2 and d1 == d2


def test_enumeration_budget_guard():
    with pytest.raises(ValueError):
        enumerate_ci(conjunction_agenda(3).expand(), 3, "big")
    # pruned: 2^32 premise tuples times 2^8 premise matrices, refused at once
    start = time.perf_counter()
    with pytest.raises(ValueError, match="budget"):
        enumerate_ci(xor_agenda(2).expand(), 4, "big", tf=xor_agenda(2))
    assert time.perf_counter() - start < 1


def test_family_serialization():
    family = enumerate_ci(id_agenda(), 1, "id")
    text = family.serialize()
    assert text.splitlines()[0] == "family agenda=id n=1 count=4"


def test_degenerate_conclusion_free_columns():
    # a conclusion over no premises is constant; the premise sweep cannot pin
    # the conclusion table anywhere off the constant column
    tf = TruthFunctionalAgenda(1, (Conclusion("XOR", 0),))
    agenda = tf.expand()
    pruned = enumerate_ci(agenda, 1, "deg", tf=tf)
    generic = enumerate_ci(agenda, 1, "deg")
    assert [m.serialize() for m in pruned.mechanisms] == \
           [m.serialize() for m in generic.mechanisms]

import random

import pytest

from approxagg.agenda import (
    AffineAgenda,
    Agenda,
    Conclusion,
    TruthFunctionalAgenda,
    affine_to_truth_functional,
    conjunction_agenda,
    gf2_rank,
    id_agenda,
    opinion_from_str,
    opinion_to_str,
    preference_agenda,
    relabel_opinions,
    xor_agenda,
)


def opinions_as_strings(agenda):
    return sorted(opinion_to_str(x, agenda.issues) for x in agenda.consistent)


def test_conjunction_agenda():
    ag = conjunction_agenda(2).expand()
    assert opinions_as_strings(ag) == ["000", "010", "100", "111"]
    assert not ag.is_consistent(opinion_from_str("110"))
    assert ag.is_consistent(opinion_from_str("111"))


def test_xor_agenda():
    # conclusion is the plain xor of the premises (even total parity);
    # the negated-conclusion presentation is the bitwise complement
    ag = xor_agenda(2).expand()
    assert opinions_as_strings(ag) == ["000", "011", "101", "110"]
    full = (1 << 3) - 1
    assert sorted(x ^ full for x in ag.consistent) == [1, 2, 4, 7]


def test_implication_as_negated_and():
    # conclusion ~(A & ~B)
    tf = TruthFunctionalAgenda(2, (Conclusion("AND", 0b11, negmask=0b10, negout=True),))
    assert opinions_as_strings(tf.expand()) == ["001", "011", "100", "111"]


def test_conjunction_of_one_premise_is_id():
    ag = conjunction_agenda(1).expand()
    assert ag.consistent == id_agenda(2).consistent


def test_expand_counts():
    for k in range(1, 5):
        assert len(conjunction_agenda(k).expand().consistent) == 1 << k
        assert len(xor_agenda(k).expand().consistent) == 1 << k


def test_agenda_serialize_round_trip():
    for ag in (conjunction_agenda(2).expand(), xor_agenda(3).expand(),
               preference_agenda(3), id_agenda(4)):
        assert Agenda.parse(ag.serialize()) == ag


def test_tf_serialize_round_trip():
    for tf in (conjunction_agenda(3), xor_agenda(2),
               TruthFunctionalAgenda(2, (Conclusion("AND", 0b11, 0b10, True),))):
        assert TruthFunctionalAgenda.parse(tf.serialize()) == tf


def test_agenda_validation():
    with pytest.raises(ValueError):
        Agenda(2, (3, 1))  # unsorted
    with pytest.raises(ValueError):
        Agenda(2, (0, 4))  # out of range
    with pytest.raises(ValueError):
        Agenda(2, ())


def test_preference_agenda():
    # issues are the pairs (1,2),(1,3),(2,3); the two cyclic patterns are
    # the only inconsistent opinions
    ag = preference_agenda(3)
    assert len(ag.consistent) == 6
    assert opinions_as_strings(ag) == sorted(["000", "001", "011", "100", "110", "111"])
    for s in (3, 4):
        ag = preference_agenda(s)
        assert len(ag.consistent) == [6, 24][s - 3]
        full = (1 << ag.issues) - 1
        members = set(ag.consistent)
        # reversing the order complements every pairwise comparison
        assert members == {x ^ full for x in members}


def test_affine_basic():
    # x1 xor x2 = 0 over two issues: the id agenda
    aff = AffineAgenda(2, (0b11,))
    assert aff.expand().consistent == (0b00, 0b11)
    # shifted: x1 xor x2 = 1
    aff = AffineAgenda(2, (0b11,), shift=0b01)
    assert aff.expand().consistent == (0b01, 0b10)


def test_affine_rejects_rank_deficient():
    with pytest.raises(ValueError):
        AffineAgenda(3, (0b011, 0b011))
    assert gf2_rank([0b011, 0b110, 0b101], 3) == 2


def test_affine_to_tf_xor_agenda():
    # the affine set x1+x2+x3 = 0 is the 2-premise xor agenda
    aff = AffineAgenda(3, (0b111,))
    tf, order = affine_to_truth_functional(aff)
    assert all(c.kind == "XOR" for c in tf.conclusions)
    got = relabel_opinions(tf.expand(), order)
    assert got == aff.expand().consistent
    assert got == xor_agenda(2).expand().consistent


def test_affine_shifted_single_issue():
    # {01, 10}: pivot issue becomes an output-negated XOR conclusion
    aff = AffineAgenda(2, (0b11,), shift=0b01)
    tf, order = affine_to_truth_functional(aff)
    assert relabel_opinions(tf.expand(), order) == (0b01, 0b10)


def test_affine_round_trip_random():
    rng = random.Random(20240817)
    for _ in range(100):
        m = rng.randrange(2, 9)
        k = rng.randrange(1, m + 1)
        rows = []
        while len(rows) < k:
            cand = rows + [rng.randrange(1, 1 << m)]
            if gf2_rank(cand, m) == len(cand):
                rows = cand
        aff = AffineAgenda(m, tuple(rows), shift=rng.randrange(1 << m))
        tf, order = affine_to_truth_functional(aff)
        assert all(c.kind == "XOR" for c in tf.conclusions)
        assert relabel_opinions(tf.expand(), order) == aff.expand().consistent

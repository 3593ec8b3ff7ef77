import random
from fractions import Fraction

import pytest

from approxagg.agenda import (
    conjunction_agenda,
    id_agenda,
    opinion_from_str,
    preference_agenda,
    xor_agenda,
)
from approxagg.bitfn import BoolFn, dictator, majority, oligarchy
from approxagg.indices import inconsistency_index
from approxagg.mechanism import (
    SAMPLE_CHUNK,
    IndependentMechanism,
    Profile,
    TableMechanism,
    apply,
    closed_families,
    hoeffding_halfwidth,
    mech_distance_exact,
    mech_distance_mc,
    output_vector,
    parse_mechanism,
    perturb,
    profile_from_index,
    profile_index,
    systematic,
)

CONJ2 = conjunction_agenda(2).expand()


def random_table(agenda, voters, rng):
    size = len(agenda.consistent) ** voters
    return TableMechanism(agenda, voters, tuple(
        rng.randrange(1 << agenda.issues) for _ in range(size)))


def test_profile_indexing_round_trip():
    for idx in range(len(CONJ2.consistent) ** 3):
        p = profile_from_index(CONJ2, 3, idx)
        assert profile_index(CONJ2, p) == idx


def test_doctrinal_paradox_profile():
    rows = tuple(CONJ2.consistent.index(opinion_from_str(s))
                 for s in ("111", "100", "010"))
    out = apply(systematic(majority(3), 3), CONJ2, Profile(rows))
    assert out == opinion_from_str("110")
    assert not CONJ2.is_consistent(out)


def test_apply_trivial_mechanisms():
    olig = systematic(oligarchy(0b111, 3), 3)
    for w in CONJ2.consistent:
        r = CONJ2.consistent.index(w)
        assert apply(olig, CONJ2, Profile((r, r, r))) == w
    dict1 = systematic(dictator(1, 3), 3)
    rng = random.Random(5)
    for _ in range(20):
        rows = tuple(rng.randrange(4) for _ in range(3))
        assert apply(dict1, CONJ2, Profile(rows)) == CONJ2.consistent[rows[0]]


def test_apply_validates():
    with pytest.raises(ValueError):
        apply(systematic(majority(3), 3), CONJ2, Profile((0, 0, 9)))
    with pytest.raises(ValueError):
        apply(systematic(majority(3), 2), CONJ2, Profile((0, 0, 0)))


def test_distance_identity_and_symmetry():
    F = systematic(majority(3), 3)
    G = IndependentMechanism((majority(3), majority(3), dictator(1, 3)))
    assert mech_distance_exact(F, F, CONJ2, 3) == 0
    assert (mech_distance_exact(F, G, CONJ2, 3)
            == mech_distance_exact(G, F, CONJ2, 3))


def test_distance_majority_vs_dictator_conclusion():
    # issues 1, 2 agree; the conclusion column has i.i.d. Bernoulli(1/4) bits,
    # and majority differs from dictator_1 on the patterns 001 and 110
    F = systematic(majority(3), 3)
    G = IndependentMechanism((majority(3), majority(3), dictator(1, 3)))
    assert mech_distance_exact(F, G, CONJ2, 3) == Fraction(12, 64)


def test_distance_triangle_random():
    rng = random.Random(77)
    for _ in range(25):
        mechs = [random_table(CONJ2, 2, rng) for _ in range(3)]
        d = lambda a, b: mech_distance_exact(a, b, CONJ2, 2)
        assert d(mechs[0], mechs[2]) <= d(mechs[0], mechs[1]) + d(mechs[1], mechs[2])


def test_distance_mc_brackets_exact():
    F = systematic(majority(3), 3)
    G = IndependentMechanism((majority(3), majority(3), dictator(1, 3)))
    exact = mech_distance_exact(F, G, CONJ2, 3)
    estimate, (lo, hi) = mech_distance_mc(F, G, CONJ2, 3, samples=50_000, seed=3)
    assert lo <= float(exact) <= hi
    assert abs(estimate - float(exact)) <= hoeffding_halfwidth(50_000)


OLIG2 = systematic(oligarchy(0b11, 2), 3)  # two voters, three issues


def test_as_table_matches_apply():
    T = TableMechanism(CONJ2, 2, output_vector(OLIG2, CONJ2, 2))
    profiles = [profile_from_index(CONJ2, 2, i) for i in range(16)]
    by_apply = [apply(OLIG2, CONJ2, p) for p in profiles]
    assert output_vector(T, CONJ2, 2).tolist() == by_apply
    assert output_vector(OLIG2, CONJ2, 2).tolist() == by_apply
    assert [apply(T, CONJ2, p) for p in profiles] == by_apply


def test_perturb_rate_zero_and_one():
    F = OLIG2
    assert mech_distance_exact(F, perturb(F, CONJ2, 2, 0.0, seed=1), CONJ2, 2) == 0
    flipped = TableMechanism(CONJ2, 2, output_vector(F, CONJ2, 2) ^ 0b111)
    assert mech_distance_exact(F, flipped, CONJ2, 2) == 1


def test_perturb_concentration():
    # expected disagreement = rate * (1 - 2^-m): the uniform rewrite hits the
    # original output with probability 2^-m
    F = OLIG2
    rate, m = 0.1, CONJ2.issues
    trials, acc = 200, 0.0
    for seed in range(trials):
        P = perturb(F, CONJ2, 2, rate, seed=seed)
        acc += float(mech_distance_exact(F, P, CONJ2, 2))
    expected = rate * (1 - 2**-m)
    assert abs(acc / trials - expected) < 0.02


def test_perturb_deterministic():
    assert perturb(OLIG2, CONJ2, 2, 0.3, seed=9) == perturb(OLIG2, CONJ2, 2, 0.3, seed=9)


def test_closed_family_counts():
    assert len(closed_families("conjunction:2", 2)) == 35
    assert len(closed_families("xor:2", 2)) == 16
    assert len(closed_families("id", 2)) == 16


def test_closed_families_consistent():
    for kind, agenda in (("conjunction:2", CONJ2),
                         ("xor:2", xor_agenda(2).expand()),
                         ("id", id_agenda())):
        for n in (1, 2):
            for mech in closed_families(kind, n):
                assert inconsistency_index(mech, agenda, n).value == 0


def test_serialize_round_trip():
    F = IndependentMechanism((majority(3), dictator(2, 3), oligarchy(0b101, 3)))
    assert parse_mechanism(F.serialize()) == F
    rng = random.Random(13)
    T = random_table(CONJ2, 2, rng)
    assert parse_mechanism(T.serialize(), CONJ2) == T


def test_independent_mechanism_validation():
    with pytest.raises(ValueError):
        IndependentMechanism(())
    with pytest.raises(ValueError):
        IndependentMechanism((majority(3), BoolFn(2, 0b0110)))


# ---------------------------------------------------------------------------
# chunked Monte Carlo


def _one_shot(F, agenda, voters, samples, seed):
    """Outputs on all samples drawn in one call, looked up in the exact
    output vector by profile index (voter 1 = least significant digit)."""
    import numpy as np

    base = len(agenda.consistent)
    rows = np.random.default_rng(seed).integers(0, base, size=(samples, voters))
    idx = rows @ (base ** np.arange(voters))
    return output_vector(F, agenda, voters)[idx]


def _chunk_cases():
    rng = random.Random(21)
    pref = preference_agenda(3)
    table = random_table(CONJ2, 3, rng)
    return [("conjunction:2", CONJ2, 5, systematic(majority(5), 3),
             IndependentMechanism((majority(5), oligarchy(0b11, 5), majority(5)))),
            ("pref:3", pref, 3, systematic(majority(3), 3), systematic(dictator(2, 3), 3)),
            ("table", CONJ2, 3, table, systematic(majority(3), 3))]


@pytest.mark.parametrize("samples", [1, SAMPLE_CHUNK, SAMPLE_CHUNK + 1, 3 * SAMPLE_CHUNK - 1])
@pytest.mark.parametrize("case", _chunk_cases(), ids=lambda case: case[0])
def test_chunked_mc_equals_one_shot_draw(samples, case):
    import numpy as np

    _, agenda, voters, F, G = case
    half = hoeffding_halfwidth(samples)
    bad = ~np.isin(_one_shot(F, agenda, voters, samples, 4), agenda.consistent)
    expected = float(bad.mean())
    r = inconsistency_index(F, agenda, voters, mode="mc", samples=samples, seed=4)
    assert r.value == expected
    assert r.ci == (max(0.0, expected - half), min(1.0, expected + half))
    differ = (_one_shot(F, agenda, voters, samples, 8)
              != _one_shot(G, agenda, voters, samples, 8))
    expected = float(differ.mean())
    assert mech_distance_mc(F, G, agenda, voters, samples, 8) == (
        expected, (max(0.0, expected - half), min(1.0, expected + half)))


def test_mc_peak_memory_flat_in_samples():
    import tracemalloc

    agenda = preference_agenda(3)
    F = systematic(majority(17), 3)

    def peak(samples):
        tracemalloc.start()
        try:
            inconsistency_index(F, agenda, 17, mode="mc", samples=samples, seed=1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1 << 10)   # builds the cached truth tables outside the measurement
    small, large = peak(1 << 16), peak(1 << 19)
    assert large <= 1.5 * small, (small, large)


@pytest.mark.parametrize("block", [1, 7, 64, 1 << 16])
def test_independent_rows_are_the_output_vectors_in_product_order(monkeypatch, block):
    import itertools

    import numpy as np

    from approxagg import mechanism

    monkeypatch.setattr(mechanism, "ROW_BLOCK", block)
    fns = [BoolFn(1, t) for t in range(4)]
    for agenda in (CONJ2, xor_agenda(2).expand(), preference_agenda(3)):
        tuples = list(itertools.product(fns, repeat=agenda.issues))
        for lo, hi in ((0, len(tuples)), (5, 23)):
            blocks = list(mechanism.independent_rows(agenda, 1, lo, hi))
            assert all(b.size <= max(block, len(agenda.consistent)) for b in blocks)
            expected = [output_vector(IndependentMechanism(t), agenda, 1)
                        for t in tuples[lo:hi]]
            assert np.array_equal(np.concatenate(blocks), np.stack(expected))

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from approxagg.agenda import (
    AffineAgenda,
    conjunction_agenda,
    gf2_rank,
    id_agenda,
    preference_agenda,
    xor_agenda,
)
from approxagg.bitfn import BoolFn, constant, dictator, majority, oligarchy
from approxagg.indices import (
    conjunction_counts,
    dependency_index,
    dependency_index_max,
    fix_issue_dependency,
    ic_conjunction,
    ic_xor,
    inconsistency_index,
    independent_approximation,
    min_ic_over_conclusion,
)
from approxagg.mechanism import (
    IndependentMechanism,
    TableMechanism,
    apply,
    closed_families,
    mech_distance_exact,
    output_vector,
    perturb,
    profile_column,
    profile_from_index,
    systematic,
)

CONJ2 = conjunction_agenda(2).expand()
XOR2 = xor_agenda(2).expand()


def random_table(agenda, voters, rng):
    size = len(agenda.consistent) ** voters
    return TableMechanism(agenda, voters, tuple(
        rng.randrange(1 << agenda.issues) for _ in range(size)))


def test_ic_systematic_majority():
    assert inconsistency_index(systematic(majority(3), 3), CONJ2, 3).value == Fraction(3, 32)


def test_ic_closed_families_zero():
    for kind, agenda in (("conjunction:2", CONJ2), ("xor:2", XOR2), ("id", id_agenda())):
        for n in (1, 2):
            for mech in closed_families(kind, n):
                assert inconsistency_index(mech, agenda, n).value == 0


def test_ic_id_agenda_is_distance():
    from approxagg.bitfn import distance_uniform

    ag = id_agenda()
    rng = random.Random(4)
    for _ in range(50):
        f = BoolFn(3, rng.randrange(256))
        g = BoolFn(3, rng.randrange(256))
        F = IndependentMechanism((f, g))
        assert inconsistency_index(F, ag, 3).value == distance_uniform(f, g)


def test_ic_conjunction_fast_path_matches_enumeration():
    rng = random.Random(8)
    for _ in range(40):
        fns = [BoolFn(2, rng.randrange(16)) for _ in range(3)]
        F = IndependentMechanism(tuple(fns))
        fast = ic_conjunction(fns[:-1], fns[-1])
        assert fast == inconsistency_index(F, CONJ2, 2).value


def test_ic_xor_fast_path_matches_enumeration():
    # xor:1 has two issues: its ic_xor is a two-function spectral sum
    rng = random.Random(9)
    for agenda in (XOR2, xor_agenda(1).expand()):
        for _ in range(40):
            fns = [BoolFn(2, rng.randrange(16)) for _ in range(agenda.issues)]
            F = IndependentMechanism(tuple(fns))
            assert ic_xor(fns) == inconsistency_index(F, agenda, 2).value


def test_conjunction_counts_totals():
    totals, all_one = conjunction_counts((majority(3), majority(3)))
    assert sum(totals) == 64
    assert all(c >= 0 for c in all_one)
    assert sum(all_one) == 16  # 4 majority-accepting patterns per column


def test_ic_mc_within_ci():
    exact = float(Fraction(3, 32))
    hits = 0
    for seed in range(40):
        r = inconsistency_index(systematic(majority(3), 3), CONJ2, 3, mode="mc",
                                samples=20_000, seed=seed)
        hits += r.ci[0] <= exact <= r.ci[1]
    assert hits >= 39


def test_ic_mc_requires_seed():
    with pytest.raises(ValueError):
        inconsistency_index(systematic(majority(3), 3), CONJ2, 3, mode="mc")


def test_min_ic_over_conclusion():
    ic, h = min_ic_over_conclusion([majority(3), majority(3)])
    assert ic == Fraction(3, 32)
    assert h == majority(3)
    ic, h = min_ic_over_conclusion([oligarchy(0b101, 3), oligarchy(0b101, 3)])
    assert ic == 0 and h == oligarchy(0b101, 3)
    ic, h = min_ic_over_conclusion([constant(0, 3), majority(3)])
    assert ic == 0 and h == constant(0, 3)


def test_min_ic_is_minimal_over_h_sweep():
    rng = random.Random(12)
    for _ in range(10):
        fns = [BoolFn(2, rng.randrange(16)) for _ in range(2)]
        best, h = min_ic_over_conclusion(fns)
        sweep = min(ic_conjunction(fns, BoolFn(2, t)) for t in range(16))
        assert best == sweep == ic_conjunction(fns, h)


def test_di_independent_is_zero():
    for j in (1, 2, 3):
        assert dependency_index(systematic(majority(3), 3), CONJ2, 3, j).value == 0
    assert dependency_index_max(systematic(majority(3), 3), CONJ2, 3).value == 0


def test_di_exact_matches_double_enumeration():
    # brute-force E_X Pr_Y[bit j differs | X^j = Y^j] over all profile pairs
    from approxagg.mechanism import _profile_columns

    rng = random.Random(3)
    F = perturb(systematic(oligarchy(0b1, 1), 3), CONJ2, 1, 1.0, seed=17)
    cols = _profile_columns(CONJ2, 1).T.tolist()  # issue columns per profile
    outs = output_vector(F, CONJ2, 1)
    for j in (1, 2, 3):
        acc = Fraction(0)
        for x in range(len(outs)):
            same = [y for y in range(len(outs)) if cols[y][j - 1] == cols[x][j - 1]]
            diff = sum(1 for y in same
                       if ((outs[x] ^ outs[y]) >> (j - 1)) & 1)
            acc += Fraction(diff, len(same))
        acc /= len(outs)
        assert dependency_index(F, CONJ2, 1, j).value == acc


def test_di_detects_cross_issue_copy():
    # issue 1 output copies the majority of the issue-2 column
    from approxagg.mechanism import _profile_columns

    cols = _profile_columns(CONJ2, 3).T.tolist()  # issue columns per profile
    outputs = []
    for tup in cols:
        c2 = tup[1]
        bit = 1 if bin(c2).count("1") >= 2 else 0
        outputs.append(bit | (0b11 << 1))
    F = TableMechanism(CONJ2, 3, tuple(outputs))
    assert dependency_index(F, CONJ2, 3, 1).value > 0


def test_di_mc_within_ci():
    F = perturb(systematic(majority(3), 3), CONJ2, 3, 0.5, seed=5)
    exact = float(dependency_index(F, CONJ2, 3, 1).value)
    r = dependency_index(F, CONJ2, 3, 1, mode="mc", samples=20_000, seed=6)
    assert r.ci[0] <= exact <= r.ci[1]


def test_fix_issue_dependency():
    rng = random.Random(32)
    for _ in range(30):
        F = random_table(CONJ2, 2, rng)
        for j in (1, 2, 3):
            H = fix_issue_dependency(F, CONJ2, 2, j)
            assert dependency_index(H, CONJ2, 2, j).value == 0
            assert mech_distance_exact(F, H, CONJ2, 2) <= 2 * dependency_index(F, CONJ2, 2, j).value


def test_independent_approximation():
    rng = random.Random(33)
    m = CONJ2.issues
    for _ in range(30):
        F = random_table(CONJ2, 2, rng)
        H = independent_approximation(F, CONJ2, 2)
        assert isinstance(H, IndependentMechanism)
        di = dependency_index_max(F, CONJ2, 2).value
        assert mech_distance_exact(F, H, CONJ2, 2) <= 2 * m * di


def test_ic_lipschitz_in_issue_functions():
    # |IC(F) - IC(G)| bounded by the sum of per-issue disagreement rates
    from approxagg.mechanism import _profile_columns

    rng = random.Random(34)
    for agenda in (CONJ2, XOR2):
        cols = _profile_columns(agenda, 3).T.tolist()  # issue columns per profile
        for _ in range(20):
            fns_f = tuple(BoolFn(3, rng.randrange(256)) for _ in range(3))
            fns_g = tuple(BoolFn(3, rng.randrange(256)) for _ in range(3))
            F, G = IndependentMechanism(fns_f), IndependentMechanism(fns_g)
            gap = abs(inconsistency_index(F, agenda, 3).value
                      - inconsistency_index(G, agenda, 3).value)
            total = sum(
                Fraction(sum(1 for t in cols if a.evaluate(t[j]) != b.evaluate(t[j])),
                         len(cols))
                for j, (a, b) in enumerate(zip(fns_f, fns_g)))
            assert gap <= total


# ---------------------------------------------------------------------------
# the array paths against per-profile enumeration through apply


@st.composite
def agendas(draw):
    kind = draw(st.sampled_from(["conjunction", "xor", "pref", "id", "affine"]))
    if kind == "conjunction":
        return conjunction_agenda(draw(st.integers(1, 3))).expand()
    if kind == "xor":
        return xor_agenda(draw(st.integers(1, 3))).expand()
    # pref:5 and id:9 and up have more than 8 issues: 16-bit outputs
    if kind == "pref":
        return preference_agenda(draw(st.integers(3, 5)))
    if kind == "id":
        return id_agenda(draw(st.integers(1, 12)))
    m = draw(st.integers(1, 4))
    rows = draw(st.lists(st.integers(1, (1 << m) - 1), max_size=m - 1)
                .filter(lambda rows: gf2_rank(rows, m) == len(rows)))
    return AffineAgenda(m, tuple(rows), draw(st.integers(0, (1 << m) - 1))).expand()


@st.composite
def mechanisms(draw):
    agenda = draw(agendas())
    base = len(agenda.consistent)
    # keep the profile space at or below 6^4 = 1296
    voters = draw(st.integers(1, max(v for v in range(1, 5) if base**v <= 1296)))
    if draw(st.booleans()):
        tables = st.integers(0, (1 << (1 << voters)) - 1)
        fns = tuple(BoolFn(voters, draw(tables)) for _ in range(agenda.issues))
        return agenda, voters, IndependentMechanism(fns)
    outputs = draw(st.lists(st.integers(0, (1 << agenda.issues) - 1),
                            min_size=base**voters, max_size=base**voters))
    return agenda, voters, TableMechanism(agenda, voters, outputs)


@settings(max_examples=60, deadline=None)
@given(mechanisms())
@example((id_agenda(12), 1, systematic(dictator(1, 1), 12)))  # outputs 0 and 2^12 - 1
def test_array_paths_match_per_profile_enumeration(case):
    agenda, voters, F = case
    profiles = [profile_from_index(agenda, voters, i)
                for i in range(len(agenda.consistent) ** voters)]
    outs = [apply(F, agenda, p) for p in profiles]
    assert output_vector(F, agenda, voters).tolist() == outs
    bad = sum(1 for out in outs if not agenda.is_consistent(out))
    assert inconsistency_index(F, agenda, voters).value == Fraction(bad, len(outs))
    for j in range(1, agenda.issues + 1):
        groups: dict[int, list[int]] = {}
        for p, out in zip(profiles, outs):
            groups.setdefault(profile_column(agenda, p, j), []).append((out >> (j - 1)) & 1)
        di = sum((Fraction(2 * sum(g) * (len(g) - sum(g)), len(g)) for g in groups.values()),
                 Fraction(0)) / len(outs)
        assert dependency_index(F, agenda, voters, j).value == di

import itertools
import math
from fractions import Fraction

import numpy as np

from perfbench import inputs, reference


def _brute_majority_ic(agenda, voters):
    issues, opinions = reference.AGENDAS[agenda]
    bad = 0
    for profile in itertools.product(opinions, repeat=voters):
        out = 0
        for j in range(issues):
            if 2 * sum((op >> j) & 1 for op in profile) > voters:
                out |= 1 << j
        bad += out not in opinions
    return Fraction(bad, len(opinions) ** voters)


def test_agendas():
    assert reference.conjunction_opinions(2) == [0b000, 0b001, 0b010, 0b111]
    # issue order <1,2>, <1,3>, <2,3>: the two cyclic patterns are missing
    assert reference.preference_opinions(3) == [0, 1, 3, 4, 6, 7]


def test_impartial_culture_condorcet_values():
    assert reference.majority_ic("pref:3", 3) == Fraction(1, 18)
    assert reference.majority_ic("pref:3", 5) == Fraction(5, 72)
    assert reference.majority_ic("pref:3", 7) == Fraction(875, 11664)


def test_multinomial_matches_enumeration():
    for agenda in ("conjunction:2", "pref:3"):
        for voters in (1, 3, 5):
            assert reference.majority_ic(agenda, voters) == _brute_majority_ic(agenda, voters)
    assert reference.majority_ic("conjunction:2", 3) == Fraction(3, 32)


def test_majority_outputs_ic_matches_multinomial():
    out = reference.majority_outputs("conjunction:2", 5)
    assert reference.table_ic("conjunction:2", out) == reference.majority_ic("conjunction:2", 5)


def _brute_di(opinions, voters, outputs, issue):
    profiles = list(itertools.product(range(len(opinions)), repeat=voters))

    def index(rows):
        return sum(r * len(opinions) ** i for i, r in enumerate(rows))

    def column(rows):
        return tuple((opinions[r] >> (issue - 1)) & 1 for r in rows)

    total = Fraction(0)
    for x in profiles:
        same = [y for y in profiles if column(y) == column(x)]
        fx = (outputs[index(x)] >> (issue - 1)) & 1
        flips = sum(((outputs[index(y)] >> (issue - 1)) & 1) != fx for y in same)
        total += Fraction(flips, len(same))
    return total / len(profiles)


def test_table_indices_match_brute_force(tmp_path):
    rng = np.random.default_rng(5)
    voters = 3
    outputs = rng.integers(0, 8, size=4**voters)
    path = tmp_path / "t.txt"
    path.write_text("table n=3\n" + "".join(
        f"{i},{reference.opinion_bits(int(o), 3)}\n" for i, o in enumerate(outputs)))
    n, parsed = reference.read_table(str(path), "conjunction:2")
    assert n == voters and (parsed == outputs).all()
    opinions = reference.AGENDAS["conjunction:2"][1]
    assert reference.table_ic("conjunction:2", parsed) == Fraction(
        sum(int(o) not in opinions for o in outputs), len(outputs))
    for issue in (1, 2, 3):
        assert (reference.table_di("conjunction:2", voters, parsed, issue)
                == _brute_di(opinions, voters, [int(o) for o in outputs], issue))


def test_independent_table_has_zero_di():
    out = reference.majority_outputs("pref:3", 3)
    for issue in (1, 2, 3):
        assert reference.table_di("pref:3", 3, out, issue) == 0


def test_blr_rejection_matches_loop():
    rng = np.random.default_rng(3)
    f, g, h = (rng.integers(0, 2, size=16).astype(np.int8) for _ in range(3))
    accepted = sum(int(f[x] ^ g[y] == h[x ^ y]) for x in range(16) for y in range(16))
    assert reference.blr_rejection(f, g, h) == 1 - Fraction(accepted, 256)
    chi = np.array([bin(x & 0b101).count("1") & 1 for x in range(16)], dtype=np.int8)
    assert reference.blr_rejection(chi, chi ^ 1, chi ^ 1) == 0


def test_level1_closed_form_matches_correlation():
    for n in (1, 3, 5, 7):
        corr = sum((-1) ** (2 * bin(x).count("1") > n) * (-1) ** (x & 1)
                   for x in range(1 << n))
        assert reference.majority_level1(n) == Fraction(corr, 1 << n)
    assert reference.majority_level1(17) == Fraction(math.comb(16, 8), 1 << 16)


def test_generator_is_seeded(tmp_path):
    a = inputs.generate(str(tmp_path / "a"), 11)
    b = inputs.generate(str(tmp_path / "b"), 11)
    c = inputs.generate(str(tmp_path / "c"), 12)
    read = lambda p: open(p, encoding="utf-8").read()  # noqa: E731
    assert read(a.table_path) == read(b.table_path) != read(c.table_path)
    assert read(a.blr_path) == read(b.blr_path) != read(c.blr_path)
    assert a.mc_seed == b.mc_seed != c.mc_seed
    voters, out = reference.read_table(a.table_path, inputs.TABLE_AGENDA)
    assert voters == inputs.TABLE_VOTERS and len(out) == 4**voters
    assert 0 < reference.table_di(inputs.TABLE_AGENDA, voters, out, 1)


def test_blr_inputs_are_corrupted_characters(tmp_path):
    specs = inputs.read_blr(inputs.generate(str(tmp_path), 4).blr_path)
    f, g, h = (reference.table_bits(s) for s in specs)
    size = 1 << inputs.BLR_VOTERS
    # some signed character lies exactly BLR_FLIPS away from each function
    x = np.arange(size)
    chars = np.bitwise_count(x[:, None] & x[None, 1:]) & 1    # column S-1 is chi_S
    for fn in (f, g, h):
        d = (fn[:, None] != chars).sum(axis=0)
        assert min(d.min(), (size - d).min()) == inputs.BLR_FLIPS
    assert 0 < reference.blr_rejection(f, g, h) < Fraction(1, 6)

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from approxagg.bitfn import (
    BoolFn,
    classify,
    coalition_mask,
    coalition_members,
    constant,
    depends_only_on,
    dictator,
    distance_uniform,
    expectation,
    ignorability,
    influence,
    junta_projection,
    linear,
    majority,
    oligarchy,
    popcount,
)

MAJ3 = majority(3)


def random_fn(draw_n=st.integers(1, 5)):
    return draw_n.flatmap(
        lambda n: st.integers(0, (1 << (1 << n)) - 1).map(lambda t: BoolFn(n, t)))


def test_truth_table_layout():
    # voter 1 is the least significant input bit
    d1 = dictator(1, 3)
    assert [d1(x) for x in range(8)] == [0, 1, 0, 1, 0, 1, 0, 1]
    d3 = dictator(3, 3)
    assert [d3(x) for x in range(8)] == [0, 0, 0, 0, 1, 1, 1, 1]


def test_serialize_round_trip():
    for f in (MAJ3, dictator(2, 4), constant(1, 2), linear(0b101, 3)):
        assert BoolFn.parse(f.serialize()) == f


def test_families():
    assert oligarchy(0, 2) == constant(1, 2)
    assert linear(0, 2) == constant(0, 2)
    assert oligarchy(0b11, 2).table == 0b1000
    assert linear(0b11, 2).table == 0b0110
    assert majority(3).table == 0b11101000
    with pytest.raises(ValueError):
        majority(2)
    with pytest.raises(ValueError):
        majority(4, 0b1111)  # even support
    assert depends_only_on(majority(4, 0b0111), 0b0111)


def test_builders_match_their_definitions():
    for n in range(1, 7):
        inputs = range(1 << n)
        for members in range(1 << n):
            k = popcount(members)
            assert [oligarchy(members, n)(x) for x in inputs] == \
                   [int(x & members == members) for x in inputs]
            assert [linear(members, n)(x) for x in inputs] == \
                   [popcount(x & members) & 1 for x in inputs]
            if k % 2:
                assert [majority(n, members)(x) for x in inputs] == \
                       [int(2 * popcount(x & members) > k) for x in inputs]


def test_classify():
    assert classify(MAJ3) == {"oligarchy": None, "linear": None}
    assert classify(oligarchy(0b101, 3))["oligarchy"] == 0b101
    assert classify(linear(0b011, 3))["linear"] == 0b011
    assert classify(constant(1, 2)) == {"oligarchy": 0, "linear": None}
    assert classify(constant(0, 2)) == {"oligarchy": None, "linear": 0}


def test_coalitions():
    assert coalition_mask([1, 3]) == 0b101
    assert coalition_members(0b101) == [1, 3]


def test_influence_majority():
    assert influence(1, MAJ3) == Fraction(1, 2)
    assert all(influence(i, MAJ3) == Fraction(1, 2) for i in (2, 3))
    assert influence(2, dictator(1, 3)) == 0
    assert influence(1, dictator(1, 3)) == 1
    assert influence(1, linear(0b111, 3)) == 1


def test_ignorability():
    # Pr[maj3 = 1 | voter 1 votes 0] = Pr[both others vote 1] = 1/4
    assert ignorability(1, MAJ3) == Fraction(1, 4)
    assert ignorability(1, oligarchy(0b001, 3)) == 0
    assert ignorability(2, constant(1, 3)) == 1


def test_distances():
    assert distance_uniform(MAJ3, dictator(1, 3)) == Fraction(1, 4)
    assert distance_uniform(MAJ3, MAJ3) == 0


def test_expectation_and_pareto():
    assert expectation(MAJ3) == Fraction(1, 2)
    # Pareto: unanimous inputs are echoed by majority, not by a constant
    assert MAJ3(0) == 0 and MAJ3(0b111) == 1
    assert constant(1, 3)(0) == 1


def test_junta_projection():
    # projecting onto {1,2}: maj3 becomes ties between the two (ties -> 1)
    proj = junta_projection(MAJ3, 0b011)
    assert depends_only_on(proj, 0b011)
    # voters 1,2 agreeing fixes maj3; disagreement splits 50/50, tie -> 1
    assert proj(0b000) == 0 and proj(0b011) == 1
    assert proj(0b001) == 1 and proj(0b010) == 1
    assert junta_projection(MAJ3, 0b111) == MAJ3
    assert depends_only_on(dictator(1, 3), 0b001)
    assert not depends_only_on(MAJ3, 0b011)


@given(random_fn())
def test_influence_isoperimetry(f):
    total = sum(influence(i, f) for i in range(1, f.arity + 1))
    mu = expectation(f)
    assert total >= min(mu, 1 - mu)


@given(random_fn(), st.integers(0, 31))
def test_junta_projection_distance(f, mask):
    mask &= (1 << f.arity) - 1
    proj = junta_projection(f, mask)
    outside = sum(influence(i, f) for i in range(1, f.arity + 1)
                  if not (mask >> (i - 1)) & 1)
    assert distance_uniform(f, proj) <= outside


@given(random_fn())
def test_distance_symmetry_and_negation(f):
    g = f.negate()
    assert distance_uniform(f, g) == 1
    assert popcount(f.table) + popcount(g.table) == f.size

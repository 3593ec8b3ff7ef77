from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from approxagg.bitfn import (
    BoolFn,
    constant,
    dictator,
    distance_uniform,
    linear,
    majority,
    popcount,
)
from approxagg.fourier import FourierSpectrum, character, inverse, spectral_sum, transform
from approxagg.mechanism import hoeffding_halfwidth
from approxagg.theorems import blr_three_function

MAJ3 = majority(3)


def fns(n_max=4):
    return st.integers(1, n_max).flatmap(
        lambda n: st.integers(0, (1 << (1 << n)) - 1).map(lambda t: BoolFn(n, t)))


def test_character_spectra():
    for mask in range(8):
        spec = transform(character(mask, 3))
        assert spec.coefficient(mask) == 1
        assert sum(w != 0 for w in spec.weights) == 1


def test_majority_spectrum():
    spec = transform(MAJ3)
    # degree-1 and the full parity carry all the weight
    coeffs = {mask: spec.coefficient(mask) for mask in range(8)}
    assert coeffs[0b001] == coeffs[0b010] == coeffs[0b100] == Fraction(1, 2)
    assert coeffs[0b111] == Fraction(-1, 2)
    assert coeffs[0] == coeffs[0b011] == coeffs[0b101] == coeffs[0b110] == 0


def test_serialize_rows():
    rows = transform(dictator(1, 2)).serialize_rows()
    assert rows == [(0, 0, 0), (1, 1, 0), (2, 0, 0), (3, 0, 0)]


@given(fns(6))
def test_serialize_rows_are_reduced_coefficients(f):
    spec = transform(f)
    for mask, num, logden in spec.serialize_rows():
        c = spec.coefficient(mask)
        assert (num, 1 << logden) == (c.numerator, c.denominator)


@given(fns())
def test_parseval(f):
    spec = transform(f)
    assert sum(w * w for w in spec.weights) == (1 << f.arity) ** 2


@settings(max_examples=40, deadline=None)
@given(fns(8))
def test_transform_matches_defining_sum(f):
    # weights[S] = sum_x (-1)^(f(x) + |x & S|), the array FWHT against its definition
    weights = transform(f).weights
    for mask in range(f.size):
        assert weights[mask] == sum((-1) ** (f(x) + popcount(x & mask))
                                    for x in range(f.size))
    assert all(type(w) is int for w in weights)
    assert transform(f) is transform(f)   # kept on the BoolFn


@given(fns(8))
def test_inverse_round_trip(f):
    assert inverse(transform(f)) == f


def test_inverse_rejects_non_boolean():
    with pytest.raises(ValueError):
        inverse(FourierSpectrum(2, (1, 1, 1, 1)))


@given(fns(), st.integers(0, 15))
def test_coefficient_distance(f, mask):
    # f_hat(S) = 1 - 2 d(f, chi_S) = 2 d(f, -chi_S) - 1
    mask &= (1 << f.arity) - 1
    chi = character(mask, f.arity)
    coeff = transform(f).coefficient(mask)
    assert coeff == 1 - 2 * distance_uniform(f, chi) == 2 * distance_uniform(f, chi.negate()) - 1


def test_triple_product_exact_majority():
    # E[f(x) g(y) h(x xor y)] in the sign semantics is 2 acceptance - 1 of
    # the linearity test, which counts all pairs (x, y)
    acceptance = blr_three_function(MAJ3, MAJ3, MAJ3).detail["acceptance"]
    assert 2 * acceptance - 1 == spectral_sum([MAJ3, MAJ3, MAJ3]) == Fraction(1, 4)


def test_triple_product_exact_pairs():
    # two functions: E[f(x) g(x)] in the sign semantics
    f, g = MAJ3, dictator(1, 3)
    assert spectral_sum([f, g]) == 1 - 2 * distance_uniform(f, g)


def test_triple_product_mc_brackets_exact():
    r = blr_three_function(MAJ3, MAJ3, MAJ3, mode="mc", samples=20_000, seed=11)
    exact = (1 + spectral_sum([MAJ3, MAJ3, MAJ3])) / 2
    assert abs(float(r.detail["acceptance"] - exact)) <= hoeffding_halfwidth(20_000)


def test_spectral_sum_constant():
    # all-zero functions: only the empty character contributes
    z = constant(0, 2)
    assert spectral_sum([z, z, z]) == 1


def test_sign_convention():
    # logical 1 maps to -1: a constant-1 function has coefficient -1 at S=0
    assert transform(constant(1, 3)).coefficient(0) == -1
    assert transform(constant(0, 3)).coefficient(0) == 1
    # xor of bits equals product of signs
    chi = linear(0b11, 2)
    spec = transform(chi)
    assert spec.coefficient(0b11) == 1

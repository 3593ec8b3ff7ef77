"""Walsh-Hadamard spectra of boolean functions in the +-1 convention.

Logical 1 maps to -1 and logical 0 to +1, so the xor of bits equals the
product of signs and the characters chi_S multiply over coordinatewise
xor of inputs.  Coefficients are exact: a spectrum stores the integer
correlation sums, and coefficient(S) = weights[S] / 2^n.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .bitfn import BoolFn, linear


def sign(bit: int) -> int:
    return 1 - 2 * bit


@dataclass(frozen=True)
class FourierSpectrum:
    """Dense spectrum; entry S is the correlation of f with the character chi_S."""

    arity: int
    weights: tuple[int, ...]

    def coefficient(self, mask: int) -> Fraction:
        return Fraction(self.weights[mask], 1 << self.arity)

    def serialize_rows(self) -> list[tuple[int, int, int]]:
        """Spectrum as (mask, numerator, log2_denominator) CSV rows."""
        rows = []
        for mask, w in enumerate(self.weights):
            c = self.coefficient(mask)
            rows.append((mask, c.numerator, (c.denominator - 1).bit_length()))
        return rows


def _fwht(values: list[int]) -> list[int]:
    out = list(values)
    h = 1
    while h < len(out):
        for i in range(0, len(out), h * 2):
            for j in range(i, i + h):
                a, b = out[j], out[j + h]
                out[j], out[j + h] = a + b, a - b
        h *= 2
    return out


def transform(f: BoolFn) -> FourierSpectrum:
    signs = [sign((f.table >> x) & 1) for x in range(f.size)]
    return FourierSpectrum(f.arity, tuple(_fwht(signs)))


def inverse(spectrum: FourierSpectrum) -> BoolFn:
    values = _fwht(list(spectrum.weights))
    size = 1 << spectrum.arity
    table = 0
    for x, v in enumerate(values):
        if v not in (size, -size):
            raise ValueError("spectrum is not a +-1-valued function")
        if v == -size:
            table |= 1 << x
    return BoolFn(spectrum.arity, table)


def character(mask: int, n: int) -> BoolFn:
    """chi_S as a boolean function: the xor of the coalition's bits."""
    return linear(mask, n)


def spectral_product_total(fs: list[BoolFn]) -> int:
    """sum_S prod_j weights_j[S]: 2^(n len(fs)) times sum_S prod_j f^j_hat(S)."""
    specs = [transform(f).weights for f in fs]
    total = 0
    for mask in range(1 << fs[0].arity):
        prod = 1
        for w in specs:
            prod *= w[mask]
        total += prod
    return total


def spectral_sum(fs: list[BoolFn]) -> Fraction:
    """sum_S prod_j f^j_hat(S), computed exactly from the spectra."""
    return Fraction(spectral_product_total(fs), 1 << (fs[0].arity * len(fs)))

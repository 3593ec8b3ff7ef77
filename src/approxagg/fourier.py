"""Walsh-Hadamard spectra of boolean functions in the +-1 convention.

Logical 1 maps to -1 and logical 0 to +1, so the xor of bits equals the
product of signs and the characters chi_S multiply over coordinatewise
xor of inputs.  Coefficients are exact: a spectrum stores the integer
correlation sums, and coefficient(S) = weights[S] / 2^n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .bitfn import BoolFn, linear


@dataclass(frozen=True)
class FourierSpectrum:
    """Dense spectrum; entry S is the correlation of f with the character chi_S."""

    arity: int
    weights: tuple[int, ...]

    def coefficient(self, mask: int) -> Fraction:
        return Fraction(self.weights[mask], 1 << self.arity)

    def serialize_rows(self) -> list[tuple[int, int, int]]:
        """Spectrum as (mask, numerator, log2_denominator) CSV rows of each
        coefficient in lowest terms (0 is 0/2^0)."""
        rows = []
        n = self.arity
        for mask, w in enumerate(self.weights):
            # |w| <= 2^n, so w / 2^n reduces by w's trailing zero bits
            zeros = (w & -w).bit_length() - 1 if w else n
            rows.append((mask, w >> zeros, n - zeros))
        return rows


def _fwht(values):
    """Unnormalised Walsh-Hadamard transform of a length-2^n int64 array."""
    import numpy as np

    out = np.asarray(values, dtype=np.int64)
    h = 1
    while h < out.size:
        # pairs (j, j + h) inside each block of 2h entries
        out = out.reshape(-1, 2, h)
        out = np.stack((out[:, 0] + out[:, 1], out[:, 0] - out[:, 1]), axis=1)
        h *= 2
    return out.reshape(-1)


def transform(f: BoolFn) -> FourierSpectrum:
    """Spectrum of f, computed once per BoolFn and kept on it."""
    spectrum = vars(f).get("_spectrum")
    if spectrum is None:
        signs = 1 - 2 * f.bits.astype("int64")
        spectrum = FourierSpectrum(f.arity, tuple(_fwht(signs).tolist()))
        # as functools.cached_property does on the frozen dataclass
        vars(f)["_spectrum"] = spectrum
    return spectrum


def inverse(spectrum: FourierSpectrum) -> BoolFn:
    values = _fwht(spectrum.weights)
    size = 1 << spectrum.arity
    if ((values != size) & (values != -size)).any():
        raise ValueError("spectrum is not a +-1-valued function")
    return BoolFn.from_bits(spectrum.arity, values == -size)


def character(mask: int, n: int) -> BoolFn:
    """chi_S as a boolean function: the xor of the coalition's bits."""
    return linear(mask, n)


def spectral_product_total(fs: list[BoolFn]) -> int:
    """sum_S prod_j weights_j[S]: 2^(n len(fs)) times sum_S prod_j f^j_hat(S)."""
    return sum(map(math.prod, zip(*(transform(f).weights for f in fs))))


def spectral_sum(fs: list[BoolFn]) -> Fraction:
    """sum_S prod_j f^j_hat(S), computed exactly from the spectra."""
    return Fraction(spectral_product_total(fs), 1 << (fs[0].arity * len(fs)))

"""Boolean functions on n voter bits stored as packed truth tables.

A function f:{0,1}^n -> {0,1} is stored as an integer whose bit x equals
f(x), where voter i occupies bit (i-1) of the input index (voter 1 is
least significant).  Coalitions are plain int masks with the same bit
layout.  All probabilities coming out of exhaustive counts are exact
``fractions.Fraction`` values.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

MAX_ARITY = 24


def popcount(x: int) -> int:
    return bin(x).count("1")


def coalition_mask(members) -> int:
    """Mask for a coalition given as an iterable of 1-based voter indices."""
    mask = 0
    for i in members:
        if i < 1:
            raise ValueError(f"voter index must be >= 1, got {i}")
        mask |= 1 << (i - 1)
    return mask


def coalition_members(mask: int) -> list[int]:
    return [i + 1 for i in range(mask.bit_length()) if (mask >> i) & 1]


@dataclass(frozen=True)
class BoolFn:
    """Truth table of a boolean function on `arity` voter bits."""

    arity: int
    table: int

    def __post_init__(self):
        if not 1 <= self.arity <= MAX_ARITY:
            raise ValueError(f"arity must be in [1, {MAX_ARITY}], got {self.arity}")
        if not 0 <= self.table < 1 << (1 << self.arity):
            raise ValueError("truth table does not fit arity")

    @property
    def size(self) -> int:
        return 1 << self.arity

    def evaluate(self, x: int) -> int:
        if not 0 <= x < self.size:
            raise ValueError(f"input {x} out of range for arity {self.arity}")
        return (self.table >> x) & 1

    __call__ = evaluate

    @cached_property
    def bits(self):
        """Truth table as a read-only uint8 array whose entry x is f(x)."""
        import numpy as np

        raw = np.frombuffer(self.table.to_bytes((self.size + 7) // 8, "little"),
                            dtype=np.uint8)
        bits = np.unpackbits(raw, count=self.size, bitorder="little")
        bits.flags.writeable = False
        return bits

    @classmethod
    def from_bits(cls, arity: int, bits) -> "BoolFn":
        """Inverse of ``bits``: the function whose value at x is bits[x]."""
        import numpy as np

        packed = np.packbits(np.asarray(bits, dtype=bool), bitorder="little")
        return cls(arity, int.from_bytes(packed.tobytes(), "little"))

    def negate(self) -> "BoolFn":
        return BoolFn(self.arity, self.table ^ ((1 << self.size) - 1))

    def serialize(self) -> str:
        digits = max(1, (self.size + 3) // 4)
        return f"n={self.arity}:{self.table:0{digits}x}"

    @classmethod
    def parse(cls, text: str) -> "BoolFn":
        head, _, hexpart = text.strip().partition(":")
        if not head.startswith("n=") or not hexpart:
            raise ValueError(f"malformed truth table serialization: {text!r}")
        return cls(int(head[2:]), int(hexpart, 16))


# ---------------------------------------------------------------------------
# named families


def constant(bit: int, n: int) -> BoolFn:
    return BoolFn(n, ((1 << (1 << n)) - 1) if bit else 0)


def _inputs(n: int):
    """Every input index 0..2^n-1 as an array, for building truth tables."""
    import numpy as np

    return np.arange(1 << n, dtype=np.uint32)


def oligarchy(members: int, n: int) -> BoolFn:
    """f(x) = 1 iff every coalition member voted 1 (empty coalition -> constant 1)."""
    _check_coalition(members, n)
    return BoolFn.from_bits(n, _inputs(n) & members == members)


def linear(members: int, n: int) -> BoolFn:
    """Xor of the coalition members' bits (empty coalition -> constant 0)."""
    import numpy as np

    _check_coalition(members, n)
    return BoolFn.from_bits(n, np.bitwise_count(_inputs(n) & members) & 1)


def dictator(i: int, n: int) -> BoolFn:
    return oligarchy(coalition_mask([i]), n)


def majority(n: int, support: int | None = None) -> BoolFn:
    """Strict majority over an odd-size support coalition (default: all voters)."""
    if support is None:
        support = (1 << n) - 1
    _check_coalition(support, n)
    k = popcount(support)
    if k % 2 == 0:
        raise ValueError("majority requires an odd number of supporting voters")
    import numpy as np

    return BoolFn.from_bits(n, 2 * np.bitwise_count(_inputs(n) & support) > k)


def classify(f: BoolFn) -> dict[str, int | None]:
    """Detect membership in the oligarchy / linear families by exhaustive comparison.

    Returns a dict with keys "oligarchy" and "linear"; values are the
    coalition mask when f belongs to the family, else None.
    """
    tags: dict[str, int | None] = {"oligarchy": None, "linear": None}
    for mask in range(1 << f.arity):
        if tags["oligarchy"] is None and oligarchy(mask, f.arity) == f:
            tags["oligarchy"] = mask
        if tags["linear"] is None and linear(mask, f.arity) == f:
            tags["linear"] = mask
    return tags


# ---------------------------------------------------------------------------
# measures


def _check_voter(i: int, n: int):
    if not 1 <= i <= n:
        raise ValueError(f"voter {i} out of range for arity {n}")


def _check_coalition(mask: int, n: int):
    if mask >> n:
        raise ValueError(f"coalition mask {mask:#x} has voters above arity {n}")


def _low_half_mask(n: int, b: int) -> int:
    """Mask over table positions whose input index has bit b clear."""
    block = (1 << (1 << b)) - 1
    mask = 0
    for start in range(0, 1 << n, 1 << (b + 1)):
        mask |= block << start
    return mask


def distance_uniform(f: BoolFn, g: BoolFn) -> Fraction:
    """d(f, g) = fraction of inputs where the two functions differ."""
    if f.arity != g.arity:
        raise ValueError("arity mismatch")
    return Fraction(popcount(f.table ^ g.table), f.size)


def influence(i: int, f: BoolFn) -> Fraction:
    """Probability that voter i flips the output by flipping their bit."""
    _check_voter(i, f.arity)
    b = i - 1
    low = _low_half_mask(f.arity, b)
    shifted = (f.table >> (1 << b)) & low
    return Fraction(popcount((f.table & low) ^ shifted), f.size >> 1)


def ignorability(i: int, f: BoolFn) -> Fraction:
    """Probability that f returns 1 conditioned on voter i voting 0."""
    _check_voter(i, f.arity)
    low = _low_half_mask(f.arity, i - 1)
    return Fraction(popcount(f.table & low), f.size >> 1)


def expectation(f: BoolFn) -> Fraction:
    return Fraction(popcount(f.table), f.size)


def junta_projection(f: BoolFn, members: int) -> BoolFn:
    """Restrict f to a coalition: at each input take the more frequent value
    of f over all completions of the non-member bits (ties resolved to 1)."""
    _check_coalition(members, f.arity)
    positions = [b for b in range(f.arity) if (members >> b) & 1]
    completions = 1 << (f.arity - len(positions))
    ones = {}
    for x in range(f.size):
        key = tuple((x >> b) & 1 for b in positions)
        ones[key] = ones.get(key, 0) + ((f.table >> x) & 1)
    table = 0
    for x in range(f.size):
        key = tuple((x >> b) & 1 for b in positions)
        if 2 * ones[key] >= completions:
            table |= 1 << x
    return BoolFn(f.arity, table)


def depends_only_on(f: BoolFn, members: int) -> bool:
    """True iff every voter outside the coalition has zero influence."""
    for i in range(1, f.arity + 1):
        if not (members >> (i - 1)) & 1 and influence(i, f) != 0:
            return False
    return True

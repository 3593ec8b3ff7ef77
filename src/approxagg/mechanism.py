"""Aggregation mechanisms over an agenda's consistent profiles.

A profile is one opinion per voter; profiles are indexed by treating the
voters' opinion indices as digits base |agenda| (voter 1 least
significant).  Independent mechanisms hold one boolean function per
issue; table mechanisms list an explicit m-bit output per profile.

The exact paths hold the whole profile space as numpy arrays: the issue
columns of every profile and a mechanism's output for every profile, both
in profile-index order.  numpy is imported inside the functions that use
it, so that importing the package and the commands that need no profile
space do not load it.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .agenda import Agenda
from .bitfn import BoolFn, constant, linear, oligarchy

# Per profile the exact paths hold the m issue columns, each in the smallest
# unsigned type with n bits (1, 2 or 4 bytes), and one output in the smallest
# with m bits (1 or 2 bytes); looking a column up adds an 8-byte index while
# it runs.  conjunction:2 at 12 voters takes 3*2 + 1 + 8 = 15 bytes a profile,
# 16 with the inconsistency index's one-byte flag, and such an agenda at the
# budget about 1 GB.
EXACT_PROFILE_BUDGET = 1 << 26


@dataclass(frozen=True)
class Profile:
    """Row indices into the agenda's consistent-opinion list, one per voter."""

    rows: tuple[int, ...]


@dataclass(frozen=True)
class IndependentMechanism:
    fns: tuple[BoolFn, ...]

    def __post_init__(self):
        if not self.fns:
            raise ValueError("need at least one issue function")
        if any(f.arity != self.fns[0].arity for f in self.fns):
            raise ValueError("issue functions must share one arity")

    @property
    def voters(self) -> int:
        return self.fns[0].arity

    @property
    def issues(self) -> int:
        return len(self.fns)

    def serialize(self) -> str:
        lines = [f"independent n={self.voters} m={self.issues}"]
        lines += [f.serialize() for f in self.fns]
        return "\n".join(lines)


def systematic(f: BoolFn, issues: int) -> IndependentMechanism:
    """Aggregate every issue with the same function."""
    return IndependentMechanism((f,) * issues)


@dataclass(frozen=True, eq=False)
class TableMechanism:
    agenda: Agenda
    voters: int
    outputs: np.ndarray  # m-bit opinion per profile index, read-only

    def __post_init__(self):
        import numpy as np

        outputs = np.array(self.outputs, dtype=_uint_dtype(self.agenda.issues))
        if outputs.shape != (len(self.agenda.consistent) ** self.voters,):
            raise ValueError("output table size does not match the profile space")
        outputs.flags.writeable = False
        object.__setattr__(self, "outputs", outputs)

    def __eq__(self, other):
        import numpy as np

        if not isinstance(other, TableMechanism):
            return NotImplemented
        return (self.agenda == other.agenda and self.voters == other.voters
                and bool(np.array_equal(self.outputs, other.outputs)))

    @property
    def issues(self) -> int:
        return self.agenda.issues

    def serialize(self) -> str:
        from .agenda import opinion_to_str

        lines = [f"table n={self.voters}"]
        lines += [f"{i},{opinion_to_str(out, self.issues)}"
                  for i, out in enumerate(self.outputs.tolist())]
        return "\n".join(lines)


Mechanism = IndependentMechanism | TableMechanism


def parse_mechanism(text: str, agenda: Agenda | None = None) -> Mechanism:
    """Inverse of the serialize methods; table mechanisms need their agenda.

    A table must list every profile index exactly once, each with an
    opinion of m issue bits.
    """
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty mechanism text")
    head, *body = lines
    if head.startswith("independent"):
        return IndependentMechanism(tuple(BoolFn.parse(ln) for ln in body))
    if head.startswith("table"):
        if agenda is None:
            raise ValueError("table mechanisms need an agenda to parse against")
        from .agenda import opinion_from_str

        kv = dict(tok.split("=", 1) for tok in head.split()[1:])
        if "n" not in kv:
            raise ValueError("table header needs n=<voters>")
        voters = int(kv["n"])
        size = len(agenda.consistent) ** voters
        outputs: dict[int, int] = {}
        for ln in body:
            idx_text, bits = ln.split(",")
            idx, out = int(idx_text), opinion_from_str(bits)
            if not 0 <= idx < size:
                raise ValueError(f"table row {idx} is outside the profile space "
                                 f"0..{size - 1}")
            if len(bits) != agenda.issues:
                raise ValueError(f"table row {idx}: opinion {bits!r} does not "
                                 f"have {agenda.issues} issues")
            if idx in outputs:
                raise ValueError(f"table row {idx} is listed twice")
            outputs[idx] = out
        if len(outputs) != size:
            missing = next(i for i in range(size) if i not in outputs)
            raise ValueError(f"table misses row {missing} of 0..{size - 1}")
        return TableMechanism(agenda, voters, [outputs[i] for i in range(size)])
    raise ValueError(f"unknown mechanism header {head!r}")


def profile_index(agenda: Agenda, profile: Profile) -> int:
    base = len(agenda.consistent)
    idx = 0
    for r in reversed(profile.rows):
        idx = idx * base + r
    return idx


def profile_from_index(agenda: Agenda, voters: int, idx: int) -> Profile:
    base = len(agenda.consistent)
    rows = []
    for _ in range(voters):
        rows.append(idx % base)
        idx //= base
    return Profile(tuple(rows))


def profile_column(agenda: Agenda, profile: Profile, j: int) -> int:
    """Issue-j column of the profile as an n-bit integer (voter 1 = bit 0)."""
    col = 0
    for i, r in enumerate(profile.rows):
        col |= ((agenda.consistent[r] >> (j - 1)) & 1) << i
    return col


def _uint_dtype(bits: int):
    """Smallest unsigned numpy type holding a `bits`-bit value."""
    import numpy as np

    return np.min_scalar_type((1 << bits) - 1)


def _issue_bits(agenda: Agenda, voters: int):
    """(m, |A|) array: entry [j-1, r] is issue j's bit in consistent opinion r,
    in the column type for `voters` voters."""
    import numpy as np

    opinions = np.asarray(agenda.consistent)
    shifts = np.arange(agenda.issues)[:, None]
    return ((opinions[None, :] >> shifts) & 1).astype(_uint_dtype(voters))


@lru_cache(maxsize=2)
def _profile_columns(agenda: Agenda, voters: int):
    """Read-only (m, |A|^n) array: entry [j-1, idx] is the issue-j column of
    profile idx (voter 1 = bit 0)."""
    base = len(agenda.consistent)
    total = base**voters
    if total > EXACT_PROFILE_BUDGET:
        raise ValueError(f"profile space {total} exceeds the enumeration budget")
    import numpy as np

    planes = _issue_bits(agenda, voters)
    cols = np.zeros((agenda.issues, 1), dtype=planes.dtype)
    for i in range(voters):
        # voter i+1 is base-|A| digit i, the slowest axis so far
        cols = ((planes[:, :, None] << i) | cols[:, None, :]).reshape(agenda.issues, -1)
    cols.flags.writeable = False
    return cols


def consistent_mask(agenda: Agenda):
    """Boolean array over all 2^m opinions, true on the consistent ones."""
    import numpy as np

    member = np.zeros(1 << agenda.issues, dtype=bool)
    member[list(agenda.consistent)] = True
    return member


def _check_shape(F: Mechanism, agenda: Agenda, voters: int):
    if isinstance(F, TableMechanism):
        if F.agenda != agenda or F.voters != voters:
            raise ValueError("mechanism does not match agenda or voter count")
    elif F.issues != agenda.issues or F.voters != voters:
        raise ValueError("dimension mismatch")


def _evaluate(fns: tuple[BoolFn, ...], cols):
    """Outputs of independent issue functions on an (m, k) column array."""
    import numpy as np

    out = np.zeros(cols.shape[1], dtype=_uint_dtype(len(fns)))
    for j, fn in enumerate(fns):
        out |= np.take(fn.bits, cols[j]).astype(out.dtype, copy=False) << j
    return out


def apply(F: Mechanism, agenda: Agenda, profile: Profile) -> int:
    """Aggregated m-bit opinion for a consistent profile."""
    base = len(agenda.consistent)
    for r in profile.rows:
        if not 0 <= r < base:
            raise ValueError("profile row is not a consistent-opinion index")
    if isinstance(F, TableMechanism):
        if F.agenda != agenda or len(profile.rows) != F.voters:
            raise ValueError("mechanism does not match agenda or voter count")
        return F.outputs.item(profile_index(agenda, profile))
    if F.issues != agenda.issues or len(profile.rows) != F.voters:
        raise ValueError("dimension mismatch")
    out = 0
    for j in range(1, agenda.issues + 1):
        out |= F.fns[j - 1].evaluate(profile_column(agenda, profile, j)) << (j - 1)
    return out


def output_vector(F: Mechanism, agenda: Agenda, voters: int):
    """Outputs over the whole profile space as an array in profile-index
    order (read-only for table mechanisms)."""
    _check_shape(F, agenda, voters)
    if isinstance(F, TableMechanism):
        return F.outputs
    return _evaluate(F.fns, _profile_columns(agenda, voters))


# Output entries (tuples times profiles) per block of independent_rows: a
# sweep holds 64 KiB of one-byte outputs however many tuples it covers.
ROW_BLOCK = 1 << 16


def independent_rows(agenda: Agenda, voters: int, lo: int, hi: int):
    """Output vectors of the independent tuples lo..hi-1 as (tuples, profiles)
    arrays of at most ROW_BLOCK entries.  Tuple u takes issue j's truth table
    from base-2^(2^n) digit j of u, issue 1 the most significant, as
    itertools.product orders every issue's tables."""
    import numpy as np

    cols = _profile_columns(agenda, voters)
    m, profiles = cols.shape
    n_tables = 1 << (1 << voters)
    dtype = _uint_dtype(m)
    # parts[j][t]: issue j+1's output bit, in place, under table t
    tables = ((np.arange(n_tables)[:, None] >> np.arange(1 << voters)) & 1).astype(dtype)
    parts = [tables[:, cols[j]] << j for j in range(m)]
    step = max(1, ROW_BLOCK // profiles)
    for start in range(lo, hi, step):
        digits = np.arange(start, min(start + step, hi))
        rows = parts[-1][digits % n_tables]
        for part in reversed(parts[:-1]):
            digits //= n_tables
            rows |= part[digits % n_tables]
        yield rows


# ---------------------------------------------------------------------------
# distances


def mech_distance_exact(F: Mechanism, G: Mechanism, agenda: Agenda, voters: int) -> Fraction:
    """Pr[F(X) != G(X)] over uniform consistent profiles, exactly."""
    import numpy as np

    a = output_vector(F, agenda, voters)
    b = output_vector(G, agenda, voters)
    return Fraction(int(np.count_nonzero(a != b)), len(a))


def hoeffding_halfwidth(samples: int, confidence: float = 0.99) -> float:
    return math.sqrt(math.log(2 / (1 - confidence)) / (2 * samples))


def hoeffding_interval(estimate: float, samples: int) -> tuple[float, tuple[float, float]]:
    """The estimate and its 99% Hoeffding interval, clipped to [0, 1]."""
    half = hoeffding_halfwidth(samples)
    return estimate, (max(0.0, estimate - half), min(1.0, estimate + half))


def sample_profiles(agenda: Agenda, voters: int, samples: int, rng):
    """Uniform i.i.d. profiles as a (samples, voters) array of opinion
    indices, drawn from a numpy Generator."""
    return rng.integers(0, len(agenda.consistent), size=(samples, voters))


def _outputs_for_samples(F: Mechanism, agenda: Agenda, rows):
    """Vectorized aggregation of sampled profiles (rows of opinion indices)."""
    import numpy as np

    samples, voters = rows.shape
    _check_shape(F, agenda, voters)
    if isinstance(F, TableMechanism):
        base = len(agenda.consistent)
        idx = np.zeros(samples, dtype=np.int64)
        for i in range(voters - 1, -1, -1):
            idx = idx * base + rows[:, i]
        return F.outputs[idx]
    planes = _issue_bits(agenda, voters)
    cols = np.zeros((agenda.issues, samples), dtype=planes.dtype)
    for i in range(voters):
        cols |= np.take(planes << i, rows[:, i], axis=1)
    return _evaluate(F.fns, cols)


# Sampled profiles are drawn and evaluated this many at a time, so that a
# Monte Carlo run holds a fixed amount however many samples it takes: at
# MAX_ARITY voters a chunk's (rows, voters) int64 draw is 3 MiB.  numpy's
# bounded integers come out the same drawn in pieces as in one call, so the
# chunk size does not change any seeded estimate.
SAMPLE_CHUNK = 1 << 14


def mc_estimate(mechanisms, agenda: Agenda, voters: int, samples: int, seed: int,
                hits) -> tuple[float, tuple[float, float]]:
    """Share of `samples` uniform profiles on which `hits` holds, with a 99%
    Hoeffding interval.

    The profiles come from one ``default_rng(seed)`` stream, SAMPLE_CHUNK at
    a time; hits(*outputs) gets each mechanism's outputs on a chunk and
    returns a boolean array over its profiles, of which only the count is
    kept.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    count = 0
    for start in range(0, samples, SAMPLE_CHUNK):
        rows = sample_profiles(agenda, voters, min(SAMPLE_CHUNK, samples - start), rng)
        outputs = [_outputs_for_samples(F, agenda, rows) for F in mechanisms]
        count += int(np.count_nonzero(hits(*outputs)))
    return hoeffding_interval(count / samples, samples)


def mech_distance_mc(F: Mechanism, G: Mechanism, agenda: Agenda, voters: int,
                     samples: int, seed: int):
    """Unbiased disagreement estimate with a 99% Hoeffding interval."""
    return mc_estimate((F, G), agenda, voters, samples, seed,
                       lambda a, b: a != b)


# ---------------------------------------------------------------------------
# perturbation


def perturb(F: Mechanism, agenda: Agenda, voters: int, flip_rate: float, seed: int) -> TableMechanism:
    """Rewrite each profile's output to a uniform random m-bit opinion with
    probability flip_rate (the replacement may be inconsistent)."""
    if not 0 <= flip_rate <= 1:
        raise ValueError("flip rate must lie in [0, 1]")
    outputs = output_vector(F, agenda, voters).tolist()
    rng = random.Random(seed)
    m = agenda.issues
    # one draw per profile in index order, plus one more per rewrite: the
    # stream, and so each seeded table, depends on this order
    for idx in range(len(outputs)):
        if rng.random() < flip_rate:
            outputs[idx] = rng.randrange(1 << m)
    return TableMechanism(agenda, voters, outputs)


# ---------------------------------------------------------------------------
# closed consistent-independent families


def closed_families(kind: str, n: int) -> list[IndependentMechanism]:
    """Closed-form consistent independent mechanisms for a named agenda kind.

    kind is "conjunction:<k>", "xor:<k>" (k premises, one conclusion), or
    "id[:<m>]" (m issues, 2 by default).  Members are deduplicated and
    sorted by serialization.
    """
    name, _, arg = kind.partition(":")
    if name in ("conjunction", "xor") and int(arg) == 1:
        # one premise: the conclusion equals it, so this is the id agenda
        name, arg = "id", "2"
    members: set[tuple[BoolFn, ...]] = set()
    if name == "conjunction":
        k = int(arg)
        for mask in range(1 << n):
            g = oligarchy(mask, n)
            members.add((g,) * (k + 1))
        zero = constant(0, n)
        all_fns = [BoolFn(n, t) for t in range(1 << (1 << n))]
        for j in range(k):
            for others in itertools.product(all_fns, repeat=k - 1):
                fns = list(others[:j]) + [zero] + list(others[j:]) + [zero]
                members.add(tuple(fns))
    elif name == "xor":
        k = int(arg)
        m = k + 1
        for mask in range(1 << n):
            chi = linear(mask, n)
            for signs in range(1 << (m - 1)):
                # last sign forced so the product of signs is +1
                negs = [(signs >> j) & 1 for j in range(m - 1)]
                negs.append(sum(negs) & 1)
                members.add(tuple(chi.negate() if s else chi for s in negs))
    elif name == "id":
        m = int(arg) if arg else 2
        for t in range(1 << (1 << n)):
            members.add((BoolFn(n, t),) * m)
    else:
        raise ValueError(f"unsupported agenda kind {kind!r}")
    mechanisms = [IndependentMechanism(fns) for fns in members]
    mechanisms.sort(key=lambda mech: mech.serialize())
    return mechanisms

"""Seeded inputs for the benchmark's CLI commands.

Every input is a pure function of the run's seed:

- ``table.txt``: a table mechanism on conjunction:2 at 7 voters.  Each
  profile starts from issue-by-issue majority; with probability
  TABLE_FLIP_RATE its output is replaced by a uniform 3-bit opinion
  (possibly inconsistent), so both IC and DI are non-zero.
- ``blr.txt``: three truth tables at BLR_VOTERS voters, one per line.
  They are a character chi_S with S uniform among non-empty coalitions,
  negated by signs a, b and a xor b, each with BLR_FLIPS distinct
  positions flipped.
- MC seeds handed to ``--seed``.

The generator writes the files; the benchmark passes the CLI only these
files (or, for ``blr --fns``, which takes no file, their contents).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from . import reference

TABLE_AGENDA = "conjunction:2"
TABLE_VOTERS = 7
TABLE_FLIP_RATE = 0.05
BLR_VOTERS = 10
BLR_FLIPS = 16

# stream labels: one independent numpy stream per input kind
_TABLE, _BLR, _MC = 1, 2, 3


@dataclass(frozen=True)
class Inputs:
    table_path: str
    blr_path: str
    mc_seed: int


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def table_mechanism(seed: int) -> np.ndarray:
    """Outputs of the perturbed majority table, in profile-index order."""
    rng = _rng(seed, _TABLE)
    issues, _ = reference.AGENDAS[TABLE_AGENDA]
    out = reference.majority_outputs(TABLE_AGENDA, TABLE_VOTERS)
    flip = rng.random(len(out)) < TABLE_FLIP_RATE
    out[flip] = rng.integers(0, 1 << issues, size=int(flip.sum()))
    return out


def blr_functions(seed: int) -> tuple[str, str, str]:
    rng = _rng(seed, _BLR)
    size = 1 << BLR_VOTERS
    mask = int(rng.integers(1, size))
    x = np.arange(size)
    chi = np.array([bin(v & mask).count("1") & 1 for v in x], dtype=np.int64)
    a, b = (int(s) for s in rng.integers(0, 2, size=2))
    specs = []
    for sign in (a, b, a ^ b):
        bits = chi ^ sign
        flips = rng.choice(size, size=BLR_FLIPS, replace=False)
        bits[flips] ^= 1
        value = int(sum(int(v) << i for i, v in enumerate(bits)))
        specs.append(f"n={BLR_VOTERS}:{value:0{size // 4}x}")
    return tuple(specs)


def generate(workdir: str, seed: int) -> Inputs:
    """Write the seed's input files under workdir and describe them."""
    os.makedirs(workdir, exist_ok=True)
    issues, _ = reference.AGENDAS[TABLE_AGENDA]
    table_path = os.path.join(workdir, "table.txt")
    with open(table_path, "w", encoding="utf-8") as fh:
        fh.write(f"table n={TABLE_VOTERS}\n")
        fh.writelines(f"{i},{reference.opinion_bits(int(o), issues)}\n"
                      for i, o in enumerate(table_mechanism(seed)))
    specs = blr_functions(seed)
    blr_path = os.path.join(workdir, "blr.txt")
    with open(blr_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(specs) + "\n")
    mc_seed = int(_rng(seed, _MC).integers(0, 1 << 31))
    return Inputs(table_path, blr_path, mc_seed)


def read_blr(path: str) -> tuple[str, str, str]:
    with open(path, encoding="utf-8") as fh:
        specs = tuple(ln.strip() for ln in fh if ln.strip())
    if len(specs) != 3:
        raise ValueError(f"{path}: expected three truth tables")
    return specs

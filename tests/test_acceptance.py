"""Acceptance suite: twelve end-to-end criteria with timing budgets.

Each test prints one visible pass/fail line (bypassing capture) and
asserts the checked property together with its wall-clock budget.
"""

import math
import random
import sys
import time
from fractions import Fraction

from approxagg.agenda import (
    AffineAgenda,
    affine_to_truth_functional,
    conjunction_agenda,
    gf2_rank,
    id_agenda,
    relabel_opinions,
    xor_agenda,
)
from approxagg.bitfn import (
    BoolFn,
    constant,
    distance_uniform,
    expectation,
    ignorability,
    influence,
    linear,
    majority,
    popcount,
)
from approxagg.cli import main as cli_main
from approxagg.indices import (
    dependency_index,
    dependency_index_max,
    fix_issue_dependency,
    inconsistency_index,
    independent_approximation,
    min_ic_over_conclusion,
)
from approxagg.mechanism import (
    IndependentMechanism,
    Profile,
    TableMechanism,
    apply,
    closed_families,
    mech_distance_exact,
    systematic,
)
from approxagg.oracle import verify_characterization
from approxagg.theorems import blr_three_function, sweep_mand, sweep_mxor

import pytest

CONJ2 = conjunction_agenda(2).expand()

_LINES: list[str] = []


def report(criterion: int, ok: bool, detail: str):
    _LINES.append(f"[acceptance {criterion:02d}] {'PASS' if ok else 'FAIL'} {detail}\n")
    assert ok, detail


@pytest.fixture(autouse=True)
def _print_reports(capfd):
    # emit the one-line verdicts outside pytest's capture so they always show
    yield
    with capfd.disabled():
        while _LINES:
            sys.stdout.write(_LINES.pop(0))
        sys.stdout.flush()


def test_01_doctrinal_paradox():
    start = time.perf_counter()
    rows = tuple(CONJ2.consistent.index(x) for x in (0b111, 0b001, 0b010))
    out = apply(systematic(majority(3), 3), CONJ2, Profile(rows))
    elapsed = time.perf_counter() - start
    ok = out == 0b011 and not CONJ2.is_consistent(out) and elapsed < 0.1
    report(1, ok, f"majority on the paradox profile -> inconsistent 110 "
                  f"({elapsed * 1000:.2f} ms)")


def test_02_ic_exact_and_mc():
    start = time.perf_counter()
    F = systematic(majority(3), 3)
    exact = inconsistency_index(F, CONJ2, 3).value
    hits = 0
    for seed in range(100):
        r = inconsistency_index(F, CONJ2, 3, mode="mc", samples=100_000, seed=seed)
        hits += r.ci[0] <= float(exact) <= r.ci[1]
    elapsed = time.perf_counter() - start
    ok = exact == Fraction(3, 32) and hits >= 99 and elapsed < 1.0
    report(2, ok, f"IC exact 3/32, CI coverage {hits}/100 ({elapsed:.2f} s)")


def test_03_id_agenda_identity():
    start = time.perf_counter()
    agenda = id_agenda()
    consistent = set(agenda.consistent)
    ok = True
    for tf in range(256):
        f = BoolFn(3, tf)
        for tg in range(256):
            g = BoolFn(3, tg)
            bad = sum(1 for x in range(8)
                      if (f.evaluate(x) | (g.evaluate(x) << 1)) not in consistent)
            if Fraction(bad, 8) != distance_uniform(f, g):
                ok = False
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10
    report(3, ok, f"IC(<f,g>) = d(f,g) on all 65536 pairs at n=3 ({elapsed:.2f} s)")


def test_04_characterizations():
    results = []
    for kind, count in (("conjunction:2", 35), ("xor:2", 16)):
        start = time.perf_counter()
        equal, diff = verify_characterization(kind, 2)
        elapsed = time.perf_counter() - start
        results.append((kind, equal and len(closed_families(kind, 2)) == count,
                        elapsed))
    ok = all(good and t < 30 for _, good, t in results)
    detail = ", ".join(f"{k} {'ok' if g else 'mismatch'} ({t:.2f} s)"
                       for k, g, t in results)
    report(4, ok, f"enumeration matches closed families: {detail}")


def test_05_mand_sweep():
    start = time.perf_counter()
    total, violations, mismatches = sweep_mand(2, 2)
    elapsed = time.perf_counter() - start
    ok = total == 4096 and not violations and not mismatches and elapsed < 300
    report(5, ok, f"conjunction bound sweep {total} mechanisms, "
                  f"{len(violations)} violations, {len(mismatches)} "
                  f"formula mismatches ({elapsed:.2f} s)")


def test_06_mxor_sweep():
    start = time.perf_counter()
    total, violations, mismatches = sweep_mxor(3, 2)
    elapsed = time.perf_counter() - start
    ok = (total == 4096 and not violations and not mismatches and elapsed < 300)
    report(6, ok, f"xor bound sweep {total} mechanisms, {len(violations)} "
                  f"violations, {len(mismatches)} spectral-formula mismatches "
                  f"({elapsed:.2f} s)")


def test_07_boundpi_random():
    start = time.perf_counter()
    rng = random.Random(20240823)
    violations = 0
    for _ in range(10_000):
        n = rng.randrange(1, 7)
        m = rng.randrange(2, 4)
        fs = [BoolFn(n, rng.getrandbits(1 << n)) for _ in range(m)]
        i = rng.randrange(1, n + 1)
        k = rng.randrange(1, m + 1)
        l = rng.choice([j for j in range(1, m + 1) if j != k])
        lhs = ignorability(i, fs[k - 1]) * influence(i, fs[l - 1])
        ictilde, _ = min_ic_over_conclusion(fs)
        prod = Fraction(1)
        for j, f in enumerate(fs, start=1):
            if j not in (k, l):
                prod *= distance_uniform(f, constant(0, n))
        if prod != 0 and lhs * prod > 4 * ictilde:
            violations += 1
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed < 120
    report(7, ok, f"ignorability-influence bound on 10^4 random tuples, "
                  f"{violations} violations ({elapsed:.2f} s)")


def test_08_isoperimetry_and_juntas():
    start = time.perf_counter()
    n, size = 4, 16
    # per junta mask, bitmasks over table positions grouped by the junta key
    groups = {}
    for mask in range(16):
        keys = {}
        for x in range(size):
            keys.setdefault(x & mask, 0)
            keys[x & mask] |= 1 << x
        groups[mask] = list(keys.values())
    half = [0] * n
    for b in range(n):
        m = 0
        block = (1 << (1 << b)) - 1
        for s in range(0, size, 1 << (b + 1)):
            m |= block << s
        half[b] = m
    iso_bad = junta_bad = small_bad = 0
    deltas = [Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(1, 16)]
    for table in range(1 << size):
        infs = []
        for b in range(n):
            lowm = half[b]
            infs.append(popcount((table & lowm) ^ ((table >> (1 << b)) & lowm)))
        ones = popcount(table)
        # isoperimetric inequality, all terms scaled by 16: sum over voters of
        # 2*Inf_i*8 >= min(ones, 16 - ones)
        if 2 * sum(infs) < min(ones, size - ones):
            iso_bad += 1
        for mask in range(16):
            outside = sum(infs[b] for b in range(n) if not (mask >> b) & 1)
            dist = 0
            for gmask in groups[mask]:
                comp = popcount(gmask)
                g_ones = popcount(table & gmask)
                dist += comp - g_ones if 2 * g_ones >= comp else g_ones
            # d(f, f_J)*16 <= sum of outside influences * 2 (Inf counts are per
            # half-space, i.e. Inf_i*8)
            if dist > 2 * outside:
                junta_bad += 1
        if ones:
            osi = [popcount(table & half[b]) for b in range(n)]  # OSI_i * 8
            for delta in deltas:
                if Fraction(ones, size) >= delta:
                    count = sum(1 for b in range(n)
                                if Fraction(osi[b], 8) <= delta / n)
                    if count > 1 + math.log2(1 / delta):
                        small_bad += 1
    elapsed = time.perf_counter() - start
    ok = iso_bad == junta_bad == small_bad == 0 and elapsed < 120
    report(8, ok, f"isoperimetry/junta sweeps over 65536 functions at n=4: "
                  f"{iso_bad}/{junta_bad}/{small_bad} violations ({elapsed:.2f} s)")


def test_09_proof_constructions():
    start = time.perf_counter()
    rng = random.Random(99)
    m = CONJ2.issues
    ok = True
    for _ in range(1000):
        F = TableMechanism(CONJ2, 2, tuple(rng.randrange(8) for _ in range(16)))
        for j in (1, 2, 3):
            H = fix_issue_dependency(F, CONJ2, 2, j)
            if dependency_index(H, CONJ2, 2, j).value != 0:
                ok = False
            if mech_distance_exact(F, H, CONJ2, 2) > 2 * dependency_index(F, CONJ2, 2, j).value:
                ok = False
        G = independent_approximation(F, CONJ2, 2)
        if mech_distance_exact(F, G, CONJ2, 2) > 2 * m * dependency_index_max(F, CONJ2, 2).value:
            ok = False
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 120
    report(9, ok, f"issue-fixing and independent-approximation bounds on 10^3 "
                  f"random table mechanisms ({elapsed:.2f} s)")


def test_10_blr():
    start = time.perf_counter()
    ok = True
    for mask in range(8):
        chi = linear(mask, 3)
        r = blr_three_function(chi, chi, chi)
        if r.detail["acceptance"] != 1 or r.distance != 0:
            ok = False
    # single-point corruptions of one function in the triple
    for mask in range(8):
        chi = linear(mask, 3)
        for point in range(8):
            bad = BoolFn(3, chi.table ^ (1 << point))
            for triple in ((bad, chi, chi), (chi, bad, chi), (chi, chi, bad)):
                r = blr_three_function(*triple)
                if r.detail["character"] != mask or r.detail["constant"] > 2:
                    ok = False
    # systematic case: rejection equals the cubic spectral expression
    rng = random.Random(1001)
    for _ in range(50):
        f = BoolFn(3, rng.randrange(256))
        r = blr_three_function(f, f, f)
        # rejection 1 - acceptance = (1 - sum of cubed coefficients) / 2, and
        # acceptance is the share of the 64 pairs (x, y) the test accepts
        pairs = sum(f(x) ^ f(y) == f(x ^ y) for x in range(8) for y in range(8))
        if not r.detail["acceptance"] == r.detail["spectral"] == Fraction(pairs, 64):
            ok = False
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60
    report(10, ok, f"linearity-test corollary: characters accept, corruptions "
                   f"recovered with constant <= 2, spectral rejection exact "
                   f"({elapsed:.2f} s)")


def test_11_affine_round_trip():
    start = time.perf_counter()
    rng = random.Random(31337)
    ok = True
    for _ in range(100):
        m = rng.randrange(2, 9)
        k = rng.randrange(1, m + 1)
        rows = []
        while len(rows) < k:
            cand = rows + [rng.randrange(1, 1 << m)]
            if gf2_rank(cand, m) == len(cand):
                rows = cand
        aff = AffineAgenda(m, tuple(rows), shift=rng.randrange(1 << m))
        tf, order = affine_to_truth_functional(aff)
        if any(c.kind != "XOR" for c in tf.conclusions):
            ok = False
        if relabel_opinions(tf.expand(), order) != aff.expand().consistent:
            ok = False
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10
    report(11, ok, f"100 random affine systems round-trip through xor-only "
                   f"form ({elapsed:.2f} s)")


def test_12_determinism(tmp_path):
    paths = [tmp_path / name for name in ("a", "b", "c", "d")]
    mc = ["indices", "ic", "--agenda", "conjunction:2", "--mech", "systematic:maj",
          "--voters", "3", "--mode", "mc", "--samples", "50000", "--seed", "123"]
    assert cli_main(mc + ["--output", str(paths[0])]) == 0
    assert cli_main(mc + ["--output", str(paths[1])]) == 0
    sweep = ["verify", "mand", "--sweep", "--premises", "2", "--voters", "2"]
    assert cli_main(sweep + ["--workers", "1", "--output", str(paths[2])]) == 0
    assert cli_main(sweep + ["--workers", "4", "--output", str(paths[3])]) == 0
    same_seed = paths[0].read_bytes() == paths[1].read_bytes()
    same_workers = paths[2].read_bytes() == paths[3].read_bytes()
    ok = same_seed and same_workers
    report(12, ok, "seeded rerun and worker counts 1 vs 4 byte-identical")

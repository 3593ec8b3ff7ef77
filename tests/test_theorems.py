import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from approxagg.agenda import conjunction_agenda, xor_agenda
from approxagg.bitfn import (
    BoolFn,
    constant,
    dictator,
    distance_uniform,
    linear,
    majority,
    oligarchy,
)
from approxagg.indices import min_ic_over_conclusion
from approxagg.mechanism import (
    IndependentMechanism,
    closed_families,
    perturb,
    systematic,
)
import approxagg.theorems
from approxagg.theorems import (
    BoundReport,
    and_bound,
    blr_three_function,
    check_boundpi,
    check_granularity,
    check_junta_lemma,
    check_mand,
    check_mxor,
    check_relax,
    default_beta,
    single_constraint_delta,
    sweep_mand,
    sweep_mxor,
)

MAJ3 = majority(3)


def test_mand_closed_family_member():
    F = systematic(oligarchy(0b11, 2), 3)
    r = check_mand(F, 2, 2)
    assert r.ic == 0 and r.distance == 0 and r.status == "satisfied"


def test_mand_systematic_majority():
    r = check_mand(systematic(majority(3), 3), 2, 3)
    assert r.ic == Fraction(3, 32)
    assert r.bound == pytest.approx(10 * (9 * 3 / 32) ** (1 / 5))
    assert r.distance == Fraction(7, 16)
    assert float(r.distance) < r.bound
    # the bound exceeds 1 here, so the verdict is vacuous by policy
    assert r.status == "vacuous"
    assert r.recompute_status() == r.status


def test_mxor_linear_tuple():
    chi = linear(0b11, 2)
    r = check_mxor(IndependentMechanism((chi, chi, chi)), 3, 2)
    assert r.ic == 0 and r.distance == 0 and r.status == "satisfied"


def test_mxor_one_point_flip():
    chi = linear(0b111, 3)
    flipped = BoolFn(3, chi.table ^ 1)
    r = check_mxor(IndependentMechanism((flipped, chi, chi)), 3, 3)
    assert r.ic == Fraction(1, 8)
    assert r.distance == Fraction(1, 8)
    assert r.distance <= 3 * r.ic
    assert r.status == "satisfied"
    assert r.recompute_status() == r.status


def test_mxor_not_applicable_when_ic_large():
    one = constant(1, 2)
    zero = constant(0, 2)
    r = check_mxor(IndependentMechanism((one, zero, zero)), 3, 2)
    assert r.ic >= Fraction(1, 6)
    assert r.status == "not-applicable"


def test_relax_consistent_independent_input():
    F = systematic(oligarchy(0b11, 2), 3)
    agenda = conjunction_agenda(2).expand()
    r = check_relax(F, "conjunction:2", agenda, 2, epsilon=0.5)
    assert r.status == "satisfied"
    assert r.ic == 0 and r.di == 0 and r.distance == 0


def test_relax_bound_of_one_is_vacuous():
    chi = linear(0b11, 2)
    F = IndependentMechanism((chi, chi, chi))
    r = check_relax(F, "xor:2", xor_agenda(2).expand(), 2, epsilon=1.5)
    assert r.distance == 0 and r.status == "vacuous"


def test_relax_beta_zero_on_independent_input():
    chi = linear(0b11, 2)
    agenda = xor_agenda(2).expand()
    F = IndependentMechanism((chi, chi, chi))
    r = check_relax(F, "xor:2", agenda, 2, epsilon=0.3, beta=0.0)
    assert r.status == "satisfied" and r.distance == 0


def test_relax_perturbed_member():
    agenda = conjunction_agenda(2).expand()
    F = perturb(systematic(oligarchy(0b11, 2), 3), agenda, 2, 0.01, seed=2)
    r = check_relax(F, "conjunction:2", agenda, 2, epsilon=0.9)
    assert r.status in ("satisfied", "not-applicable")
    if r.status == "satisfied":
        assert float(r.distance) < 0.9
        assert r.detail["d_fh"] <= 2 * 3 * r.di


def test_relax_large_di_not_applicable():
    from approxagg.mechanism import TableMechanism, _profile_columns

    agenda = conjunction_agenda(2).expand()
    cols = _profile_columns(agenda, 2).T.tolist()  # issue columns per profile
    outputs = []
    for tup in cols:
        c2 = tup[1]
        bit = 1 if bin(c2).count("1") >= 1 else 0
        outputs.append(bit | (tup[1] << 0) * 0 | 0b110)
    F = TableMechanism(agenda, 2, tuple(outputs))
    r = check_relax(F, "conjunction:2", agenda, 2, epsilon=0.05)
    assert r.status == "not-applicable"


def test_single_constraint_delta_and_beta():
    d = single_constraint_delta("conjunction:2", 2, 0.5)
    assert d == pytest.approx(2**-2 * (0.5 / 10) ** 5)
    assert single_constraint_delta("xor:2", 2, 0.3) == pytest.approx(0.1)
    beta = default_beta("xor:2", 2, 0.3)
    # midpoint of [0, beta_max]: delta((1-b)eps) >= b*eps at 2*beta
    assert single_constraint_delta("xor:2", 2, (1 - 2 * beta) * 0.3) >= 2 * beta * 0.3 - 1e-9


def test_boundpi_oligarchy():
    f = oligarchy(0b101, 3)
    r = check_boundpi([f, f], i=1, k=1, l=2)
    assert r.distance == 0  # ignorability of a member voter is zero
    assert r.status == "satisfied"


def test_boundpi_majority_example():
    r = check_boundpi([MAJ3, MAJ3], i=1, k=1, l=2)
    # OSI_1(maj3) * Inf_1(maj3) = 1/4 * 1/2 vs 4 * ICtilde = 4 * 3/32
    assert r.distance == Fraction(1, 8)
    assert r.detail["rhs"] == Fraction(3, 8)
    assert r.status == "satisfied"


def test_boundpi_requires_distinct_issues():
    with pytest.raises(ValueError):
        check_boundpi([MAJ3, MAJ3], 1, 1, 1)


def test_boundpi_zero_distance_premise():
    # a premise identical to constant 0 makes the right side unbounded
    r = check_boundpi([MAJ3, MAJ3, constant(0, 3)], i=1, k=1, l=2)
    assert r.status == "satisfied"
    assert math.isinf(r.bound)


def test_granularity_dictators():
    d1 = dictator(1, 3)
    r = check_granularity([d1, d1], junta=0b001)
    assert r.ic == 0 and r.status == "satisfied"
    r = check_granularity([d1, d1.negate()], junta=0b001)
    assert r.ic.denominator in (1, 2, 4)
    assert r.status == "satisfied"


def test_granularity_rejects_outside_dependence():
    with pytest.raises(ValueError):
        check_granularity([MAJ3, MAJ3], junta=0b011)


def test_granularity_random_juntas():
    rng = random.Random(55)
    for _ in range(50):
        junta = rng.choice([0b001, 0b010, 0b011, 0b101])
        m = rng.choice([2, 3])
        positions = [b for b in range(4) if (junta >> b) & 1]
        fns = []
        for _ in range(m):
            inner = rng.randrange(1 << (1 << len(positions)))
            table = 0
            for x in range(16):
                key = 0
                for pos, b in enumerate(positions):
                    key |= ((x >> b) & 1) << pos
                table |= ((inner >> key) & 1) << x
            fns.append(BoolFn(4, table))
        r = check_granularity(fns, junta)
        assert r.status == "satisfied"


def test_junta_lemma_oligarchy():
    g = oligarchy(0b0011, 4)
    delta, eps = Fraction(1, 4), Fraction(0)
    r = check_junta_lemma([g, g], delta, eps)
    assert r.status == "satisfied"
    assert r.detail["oligarchy"] == 0b0011
    assert r.detail["junta"] & 0b0011 == 0b0011


def test_junta_lemma_guard():
    r = check_junta_lemma([MAJ3, MAJ3], Fraction(1, 4), Fraction(1, 2))
    assert r.status == "not-applicable"
    assert not r.detail["hyp_eps"]


def test_junta_lemma_perturbed_oligarchy():
    n, m = 4, 2
    g = oligarchy(0b0011, n)
    delta = Fraction(1, 4)
    limit = Fraction(1, 2 ** (m * m + 3)) / m / n**2 * delta ** (m * m + m - 1)
    fs = [g, g]
    ictilde, _ = min_ic_over_conclusion(fs)
    eps = min(ictilde, limit / 2) if ictilde < limit else limit / 2
    r = check_junta_lemma(fs, delta, eps)
    if r.status != "not-applicable":
        assert r.status == "satisfied"


def test_blr_characters_accept():
    for mask in range(8):
        chi = linear(mask, 3)
        r = blr_three_function(chi, chi, chi)
        assert r.ic == 0
        assert r.distance == 0
        assert r.detail["acceptance"] == 1
        assert r.status == "satisfied"


def test_blr_single_point_corruption():
    chi = linear(0b101, 3)
    corrupted = BoolFn(3, chi.table ^ (1 << 5))
    r = blr_three_function(corrupted, chi, chi)
    assert r.ic == Fraction(1, 8)
    assert r.detail["character"] == 0b101
    assert r.detail["signs"] == (0, 0, 0)
    assert r.distance == Fraction(1, 8)
    assert r.detail["constant"] <= 2


def _blr_by_pairs(f, g, h):
    """Reference for the exact linearity test: acceptance over all 4^n pairs
    (x, y), and the signed character first in (worst distance, mask, sa, sb)
    order with its three distances, each measured directly."""
    size = f.size
    agree = sum(f(x) ^ g(y) == h(x ^ y) for x in range(size) for y in range(size))
    best = None
    for mask in range(size):
        chi = linear(mask, f.arity)
        for sa, sb in itertools.product((0, 1), repeat=2):
            signs = (sa, sb, sa ^ sb)
            dists = tuple(distance_uniform(fn, chi.negate() if s else chi)
                          for fn, s in zip((f, g, h), signs))
            key = (max(dists), mask, sa, sb)
            if best is None or key < best[0]:
                best = (key, mask, signs, dists)
    _, mask, signs, dists = best
    return Fraction(agree, size * size), mask, signs, dists


def test_blr_acceptance_matches_spectral():
    rng = random.Random(66)
    for _ in range(10):
        f = BoolFn(3, rng.randrange(256))
        r = blr_three_function(f, f, f)
        assert r.detail["acceptance"] == r.detail["spectral"] == _blr_by_pairs(f, f, f)[0]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_blr_exact_matches_pair_count(data):
    # signed characters with a few table bits flipped (the corollary's
    # regime, including ties between characters), or arbitrary tables
    n = data.draw(st.integers(1, 6))
    size = 1 << n
    chi = linear(data.draw(st.integers(0, size - 1)), n)
    sa, sb = data.draw(st.integers(0, 1)), data.draw(st.integers(0, 1))
    fns = []
    for s in (sa, sb, sa ^ sb):
        if data.draw(st.booleans()):
            table = (chi.negate() if s else chi).table
            for x in data.draw(st.sets(st.integers(0, size - 1), max_size=3)):
                table ^= 1 << x
        else:
            table = data.draw(st.integers(0, (1 << size) - 1))
        fns.append(BoolFn(n, table))
    acceptance, mask, signs, dists = _blr_by_pairs(*fns)
    r = blr_three_function(*fns)
    assert r.detail["acceptance"] == acceptance
    assert r.ic == 1 - acceptance
    assert approxagg.theorems._nearest_signed_character(fns) == (mask, signs, dists)
    if r.status != "not-applicable":
        assert (r.detail["character"], r.detail["signs"]) == (mask, signs)
        assert r.detail["distances"] == dists and r.distance == max(dists)


def test_blr_mc_mode():
    chi = linear(0b11, 2)
    r = blr_three_function(chi, chi, chi, mode="mc", samples=5000, seed=7)
    assert r.ic == 0
    with pytest.raises(ValueError):
        blr_three_function(chi, chi, chi, mode="mc")


def test_recomputed_status_matches_every_check():
    # random tuples, and closed-family members with one table bit flipped,
    # so that every verdict branch is reached
    rng = random.Random(71)
    conj, xor = conjunction_agenda(2).expand(), xor_agenda(2).expand()
    near = closed_families("conjunction:2", 2) + closed_families("xor:2", 2)
    reports = []
    for _ in range(60):
        if rng.random() < 0.5:
            fns = [BoolFn(2, rng.randrange(16)) for _ in range(3)]
        else:
            fns = list(rng.choice(near).fns)
            j = rng.randrange(3)
            fns[j] = BoolFn(2, fns[j].table ^ (1 << rng.randrange(4)))
        F = IndependentMechanism(tuple(fns))
        reports += [check_mand(F, 2, 2), check_mxor(F, 3, 2), blr_three_function(*fns)]
        for kind, agenda in (("conjunction:2", conj), ("xor:2", xor)):
            epsilon = rng.choice([0.05, 0.25, 0.9, 1.5])
            reports.append(check_relax(F, kind, agenda, 2, epsilon))
    for r in reports:
        assert r.recompute_status() == r.status, r
    assert {r.status for r in reports} >= {"satisfied", "vacuous", "not-applicable"}


def test_bound_report_csv_row():
    r = check_mand(systematic(majority(3), 3), 2, 3)
    row = r.csv_row()
    assert len(row) == 13
    assert row[0] == "mand"
    assert row[4:6] == ["3", "5"]  # ic = 3/32
    assert row[11] == "vacuous"


def test_and_bound_monotone():
    assert and_bound(2, 2, Fraction(0)) == 0
    assert and_bound(2, 2, Fraction(1, 64)) < and_bound(2, 2, Fraction(1, 8))


def test_sweeps_small_slice():
    # the full 4096-candidate sweeps run in the acceptance suite; here only
    # the worker partitioning contract is exercised on the full m=1 space
    total1, v1, q1 = sweep_mand(1, 1, workers=1)
    total2, v2, q2 = sweep_mand(1, 1, workers=3)
    assert (total1, v1, q1) == (total2, v2, q2)
    assert not q1
    t1, x1, p1 = sweep_mxor(2, 1, workers=1)
    t2, x2, p2 = sweep_mxor(2, 1, workers=2)
    assert (t1, x1, p1) == (t2, x2, p2)
    assert not p1


def test_mxor_sweep_reports_a_wrong_formula(monkeypatch):
    # the sweep's enumerated IC must catch a spectral formula that is wrong
    # on a single tuple, so its cross-check is not vacuous
    real = approxagg.theorems.ic_xor
    bad = [BoolFn(1, 1), BoolFn(1, 2), BoolFn(1, 3)]

    def wrong_once(fns):
        return real(fns) + (Fraction(1, 8) if fns == bad else 0)

    monkeypatch.setattr(approxagg.theorems, "ic_xor", wrong_once)
    total, violations, mismatches = sweep_mxor(3, 1)
    assert total == 4**3
    assert mismatches == ["independent n=1 m=3;n=1:1;n=1:2;n=1:3"]


def test_mand_sweep_reports_a_wrong_formula(monkeypatch):
    # the same cross-check for the zeta/Moebius conjunction formula
    real = approxagg.theorems.ic_conjunction
    bad = ([BoolFn(1, 1), BoolFn(1, 2)], BoolFn(1, 3))

    def wrong_once(premise_fns, h):
        return real(premise_fns, h) + (Fraction(1, 8) if (premise_fns, h) == bad else 0)

    monkeypatch.setattr(approxagg.theorems, "ic_conjunction", wrong_once)
    total, violations, mismatches = sweep_mand(2, 1)
    assert total == 4**3
    assert mismatches == ["independent n=1 m=3;n=1:1;n=1:2;n=1:3"]


def test_sweeps_enter_the_chunks_and_formulas_by_module_name(monkeypatch):
    # wrappers set on these names of approxagg.theorems must see every chunk
    # and one formula call per tuple: code that kept the functions bound
    # elsewhere (a dict, a default argument) would bypass them
    calls = dict.fromkeys(["_sweep_mand_chunk", "_sweep_mxor_chunk",
                           "ic_conjunction", "ic_xor"], 0)
    for name in calls:
        def counting(*args, real=getattr(approxagg.theorems, name), name=name):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(approxagg.theorems, name, counting)
    total = sweep_mand(1, 2, workers=1)[0]
    assert calls["_sweep_mand_chunk"] >= 1 and calls["ic_conjunction"] == total == 16**2
    total = sweep_mxor(3, 2, workers=1)[0]
    assert calls["_sweep_mxor_chunk"] >= 1 and calls["ic_xor"] == total == 16**3


def test_sweep_peak_memory_flat_in_the_issue_count():
    # output rows come in blocks of a fixed size, so more issues (16 times
    # the tuples per first table, 4 times the profiles) cost time, not memory
    import tracemalloc

    def peak(fn, *args):
        fn(*args)   # builds the cached profile columns outside the measurement
        tracemalloc.start()
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    chunk = approxagg.theorems._sweep_mxor_chunk
    small, large = peak(chunk, (3, 2, 0, 16)), peak(chunk, (4, 2, 0, 1))
    assert large <= 1.5 * small, (small, large)

    from approxagg.mechanism import independent_rows

    def rows(k, tuples):
        for _ in independent_rows(xor_agenda(k).expand(), 2, 0, tuples):
            pass

    small, large = peak(rows, 2, 16**3), peak(rows, 4, 16**4)
    assert large <= 1.5 * small, (small, large)


class _RecordingPool:
    """Stands in for multiprocessing.Pool: records its size, maps in-process."""

    sizes: list[int] = []

    def __init__(self, processes):
        self.sizes.append(processes)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, args):
        return [fn(a) for a in args]


@pytest.mark.parametrize("workers, cpus, expected", [
    (1000, 64, 4),   # at 1 voter there are 4 tables per issue: at most 4 chunks
    (1000, 3, 3),
    (3, 64, 2),      # 4 tables in chunks of 2
    (1, 64, None),   # one process: no pool
])
def test_sweep_pool_is_clamped(monkeypatch, workers, cpus, expected):
    import multiprocessing
    import os

    monkeypatch.setattr(multiprocessing, "Pool", _RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    _RecordingPool.sizes = []
    assert sweep_mand(1, 1, workers=workers) == sweep_mand(1, 1, workers=1)
    assert sweep_mxor(2, 1, workers=workers) == sweep_mxor(2, 1, workers=1)
    assert _RecordingPool.sizes == ([] if expected is None else [expected] * 2)

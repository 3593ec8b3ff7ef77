"""The tracer's counts equal totals derived apart, and it leaves no trace."""

import contextlib
import io
import os
import shutil
import subprocess
import sys

import pytest

import approxagg.cli
import approxagg.indices
import approxagg.mechanism
import approxagg.theorems
from approxagg.bitfn import BoolFn
from perfbench import tracer


@pytest.fixture
def tr():
    t = tracer.Tracer()
    t.install()
    try:
        yield t
    finally:
        t.uninstall()


def run(t, *argv):
    t.clear_caches()
    snap = t.counts.copy()
    first = len(t.spans)
    with contextlib.redirect_stdout(io.StringIO()):
        assert approxagg.cli.main(list(argv)) == 0
    return t.layer_metrics(first, len(t.spans), t.counts - snap, t.self_times())


def test_exact_ic_evaluates_every_profile(tr):
    m = run(tr, "indices", "ic", "--agenda", "conjunction:2", "--mech",
            "systematic:maj", "--voters", "5")
    assert m["mechanism.profiles_evaluated"] == 4**5
    assert m["agenda.is_consistent_calls"] == 4**5
    assert m["bitfn.evaluate_calls"] == 3 * 4**5
    assert m["mechanism.output_vector_calls"] == 1
    assert m["mechanism.profile_columns_s"] > 0
    m = run(tr, "indices", "ic", "--agenda", "pref:3", "--mech",
            "systematic:maj", "--voters", "3")
    assert m["mechanism.profiles_evaluated"] == 6**3


def test_sweep_counts_every_tuple(tr):
    m = run(tr, "verify", "mand", "--sweep", "--premises", "2", "--voters", "2")
    assert m["theorems.tuples_checked"] == 16**3
    assert m["indices.ic_conjunction_calls"] == 16**3
    # the conjunction bound is below 1 only for the 35 consistent tuples
    assert m["theorems.tuples_nonvacuous"] == 35
    assert m["theorems.sweep_self_s"] > 0
    m = run(tr, "verify", "mxor", "--sweep", "--issues", "3", "--voters", "2")
    assert m["theorems.tuples_checked"] == 16**3
    assert m["fourier.transform_calls"] == 3 * 16**3
    assert m["fourier.transform_points"] == 4 * 3 * 16**3


def test_spectrum_and_mc_counts(tr):
    m = run(tr, "spectrum", "--fn", "maj", "--voters", "7")
    assert m["fourier.transform_points"] == 2**7
    assert m["cli.stdout_bytes"] == 0          # counted by the runner, not here
    m = run(tr, "indices", "di", "--agenda", "conjunction:2", "--mech",
            "systematic:maj", "--voters", "5", "--mode", "mc", "--samples", "300",
            "--seed", "1")
    assert m["mechanism.apply_calls"] == 2 * 300 * 3


def test_nearest_counts_member_vectors(tr):
    m = run(tr, "oracle", "nearest", "--agenda", "conjunction:2", "--voters", "2",
            "--mech", "systematic:dict:1")
    # one vector per family member plus the target's
    assert m["oracle.nearest_output_vectors"] == 35 + 1


def test_self_time_subtracts_children():
    t = tracer.Tracer()
    t.spans[:] = [["a", 0, 100, -1], ["b", 10, 40, 0], ["c", 20, 30, 1],
                  ["b", 50, 60, 0]]
    assert t.self_times() == [60, 20, 10, 10]


def test_uninstall_restores_originals():
    before = (approxagg.indices.output_vector, approxagg.theorems.output_vector,
              approxagg.mechanism._profile_columns, BoolFn.__dict__["evaluate"],
              BoolFn.__dict__["parse"], approxagg.cli.main)
    t = tracer.Tracer()
    t.install()
    assert approxagg.indices.output_vector is not before[0]
    assert approxagg.indices.output_vector is approxagg.theorems.output_vector
    assert BoolFn.__dict__["__call__"] is BoolFn.__dict__["evaluate"]
    assert BoolFn.parse("n=1:2") == BoolFn(1, 2)
    t.uninstall()
    after = (approxagg.indices.output_vector, approxagg.theorems.output_vector,
             approxagg.mechanism._profile_columns, BoolFn.__dict__["evaluate"],
             BoolFn.__dict__["parse"], approxagg.cli.main)
    assert all(a is b for a, b in zip(before, after))


def test_run_fails_without_the_program(tmp_path):
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    shutil.copytree(here, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "exact_enum", "--seed", "1", "--seconds", "1"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""

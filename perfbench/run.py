"""Benchmark of the approxagg CLI: one workload per run, JSON on the last line.

    python3 perfbench/run.py --workload exact_enum --seed 1 --seconds 36 --trace 0

Run from the repository root.  With --trace 0 every CLI command is a
subprocess of ``python -m approxagg.cli`` on the checkout's ``src``, one
at a time; the run reports end-to-end metrics.  With --trace 1 the same
commands run in this process through ``approxagg.cli.main`` with the
package's functions wrapped by perfbench.tracer; the run reports
per-layer metrics.  Either way every output is checked, and a breakdown
per command group goes to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass

T0 = time.perf_counter()
ROOT = os.getcwd()
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench import checks, inputs, tracer, workloads  # noqa: E402

SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join("perfbench", "_work")
MIN_ROUNDS = 2          # every command repeats, and mc output is compared across rounds
# the caller's interpreter settings (PYTHONDONTWRITEBYTECODE, PYTHONHASHSEED,
# ...) do not reach the timed processes, so the warm-up's __pycache__ is used
CHILD_ENV = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    correct: bool = True

    def check(self, what: str, fn, *texts):
        try:
            fn(*texts)
        except (checks.CheckError, ValueError, LookupError) as exc:   # wrong or malformed
            self.correct = False
            print(f"perfbench: check failed for {what}: {exc!r}", file=sys.stderr)


@dataclass
class CliRun:
    stdout: str
    seconds: float
    rss_kb: int


def run_cli(argv: list[str], tally: Tally) -> CliRun:
    """One CLI process; wall time from spawn to reap, peak RSS of that child."""
    env = dict(CHILD_ENV, PYTHONPATH=SRC)
    with tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "approxagg.cli", *argv],
                                stdout=subprocess.PIPE, stderr=err, env=env)
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        tally.attempted += 1
        if code != 0:
            tally.failed += 1
            err.seek(0)
            print(f"perfbench: exit {code} from {argv[:3]}: "
                  f"{err.read().decode(errors='replace')[-500:]}", file=sys.stderr)
    return CliRun(out.decode(), seconds, usage.ru_maxrss)


def run_inproc(argv: list[str], tally: Tally, tr: tracer.Tracer) -> str:
    import approxagg.cli

    buf = io.StringIO()
    tr.clear_caches()
    tally.attempted += 1
    with contextlib.redirect_stdout(buf):
        try:
            code = approxagg.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    if code != 0:
        tally.failed += 1
        print(f"perfbench: exit {code} from {argv[:3]}", file=sys.stderr)
    text = buf.getvalue()
    tr.counts["cli.stdout_bytes"] += len(text.encode())
    return text


def rounds(seconds: float, minimum: int):
    """Yield round numbers while another round of the last one's length
    fits in the run, and at least `minimum` times."""
    start = time.perf_counter()
    last = 0.0
    n = 0
    while n < minimum or time.perf_counter() - start + last <= seconds:
        t = time.perf_counter()
        yield n
        last = time.perf_counter() - t
        n += 1


def cross_checks(wl, texts: dict[str, str], tally: Tally):
    for a, b, fn in wl.cross:
        if a in texts and b in texts:
            tally.check(f"{a} / {b}", fn, texts[a], texts[b])


def bench(wl, seconds: float, tally: Tally) -> tuple[dict, dict]:
    warm = run_cli(workloads.SETUP_ARGV, tally)     # writes __pycache__
    tally.check("warm-up", workloads.check_setup, warm.stdout)
    setup = run_cli(workloads.SETUP_ARGV, tally)
    tally.check("setup", workloads.check_setup, setup.stdout)
    peak_kb = max(warm.rss_kb, setup.rss_kb)
    texts: dict[str, str] = {}
    for cmd in wl.once:
        res = run_cli(cmd.argv, tally)
        peak_kb = max(peak_kb, res.rss_kb)
        tally.check(cmd.label, cmd.check, res.stdout)
        texts[cmd.label] = res.stdout
    per_cmd: dict[str, list[float]] = {c.label: [] for c in wl.timed}
    for n in rounds(seconds, MIN_ROUNDS):
        for cmd in wl.timed:
            res = run_cli(cmd.argv, tally)
            peak_kb = max(peak_kb, res.rss_kb)
            per_cmd[cmd.label].append(res.seconds)
            if n == 0:
                tally.check(cmd.label, cmd.check, res.stdout)
                texts[cmd.label] = res.stdout
            else:
                tally.check(f"{cmd.label} (round {n + 1})", checks.identical,
                            texts[cmd.label], res.stdout, "stdout vs the first round")
    cross_checks(wl, texts, tally)
    medians = {c.label: statistics.median(per_cmd[c.label]) for c in wl.timed}
    groups: Counter = Counter()
    for cmd in wl.timed:
        groups[f"{cmd.group}_s"] += medians[cmd.label]
    metrics = {
        "setup_s": (setup.seconds, "s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
        "round_s": (sum(medians.values()), "s"),
    }
    return metrics, {"rounds": len(per_cmd[wl.timed[0].label]),
                     "groups_s": dict(groups), "commands_s": per_cmd}


def bench_traced(wl, seconds: float, tally: Tally) -> tuple[dict, dict]:
    sys.path.insert(0, SRC)
    import approxagg.cli  # noqa: F401  (loads every module to be wrapped)

    tr = tracer.Tracer()
    tr.install()
    marks = []                         # per round: (first span, last span, counts)
    per_cmd: dict[str, Counter] = {}
    wall = []
    texts: dict[str, str] = {}
    try:
        for n in rounds(seconds, 1):
            first, before, t = len(tr.spans), Counter(tr.counts), time.perf_counter()
            for cmd in wl.timed:
                snap = Counter(tr.counts)
                text = run_inproc(cmd.argv, tally, tr)
                if n == 0:
                    tally.check(cmd.label, cmd.check, text)
                    texts[cmd.label] = text
                    per_cmd[cmd.label] = tr.counts - snap
            wall.append(time.perf_counter() - t)
            marks.append((first, len(tr.spans), tr.counts - before))
    finally:
        tr.uninstall()
    cross_checks(wl, texts, tally)
    for cmd in wl.timed:
        for key, want in cmd.trace.items():
            got = per_cmd[cmd.label][key]
            tally.check(f"{cmd.label} trace", checks.count, key, got, want)
    own = tr.self_times()
    layers = [tr.layer_metrics(a, b, c, own) for a, b, c in marks]
    # median_low keeps counts whole when two rounds ran
    metrics = {name: (statistics.median_low(r[name] for r in layers), unit)
               for name, (unit, _, _) in tracer.LAYER_METRICS.items()}
    os.makedirs(os.path.join(WORKDIR, "trace"), exist_ok=True)
    base = os.path.join(WORKDIR, "trace", wl.name)
    tr.write_spans(base + ".spans.csv")
    with open(base + ".counts.json", "w", encoding="utf-8") as fh:
        json.dump({k: dict(v) for k, v in per_cmd.items()}, fh, indent=1, sort_keys=True)
    return metrics, {"rounds": len(wall), "traced_round_s": statistics.median(wall)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "approxagg", "cli.py")):
        print("perfbench: src/approxagg not found; run from the repository root",
              file=sys.stderr)
        return 1
    inp = inputs.generate(os.path.join(WORKDIR, args.workload), args.seed)
    wl = workloads.WORKLOADS[args.workload](inp)
    tally = Tally()
    if args.trace:
        metrics, breakdown = bench_traced(wl, args.seconds, tally)
    else:
        metrics, breakdown = bench(wl, args.seconds, tally)
    breakdown["run_s"] = time.perf_counter() - T0
    print(json.dumps({"workload": args.workload, "seed": args.seed, **breakdown}),
          file=sys.stderr)
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

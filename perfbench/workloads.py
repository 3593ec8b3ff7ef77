"""The three workloads: their CLI commands, groups and output checks.

A command with a group is timed and repeated once per round; a command
without one runs once per run, untimed, for its check.  Cross checks
compare the outputs of two commands.  ``trace`` holds counts that the
traced run must reach for that command, each a total derived apart from
the program.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from . import checks, inputs, reference

SETUP_ARGV = ["agenda", "show", "--kind", "conjunction", "--premises", "2"]


def check_setup(text: str):
    issues, opinions = reference.AGENDAS["conjunction:2"]
    checks.agenda_show(text, issues, opinions)


@dataclass(frozen=True)
class Command:
    label: str
    argv: list[str]
    check: Callable[[str], None]
    group: str | None = None
    trace: dict[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    timed: list[Command]
    once: list[Command] = field(default_factory=list)
    cross: list[tuple[str, str, Callable[[str, str], None]]] = field(default_factory=list)


def _index(kind, agenda, mech, voters, *extra):
    return ["indices", kind, "--agenda", agenda, "--mech", mech,
            "--voters", str(voters), *extra]


def exact_enum(inp: inputs.Inputs) -> Workload:
    table = f"@{inp.table_path}"
    tv = inputs.TABLE_VOTERS
    _, outputs = reference.read_table(inp.table_path, inputs.TABLE_AGENDA)
    timed = []
    for agenda, voters in (("conjunction:2", 9), ("pref:3", 7)):
        size = len(reference.AGENDAS[agenda][1]) ** voters
        ic = reference.majority_ic(agenda, voters)
        timed.append(Command(
            f"ic {agenda} maj n={voters}",
            _index("ic", agenda, "systematic:maj", voters, "--mode", "exact"),
            lambda t, ic=ic: checks.index_exact(t, "ic", ic), "ic_exact",
            {"mechanism.profiles_evaluated": size}))
    timed.append(Command(
        f"ic table n={tv}",
        _index("ic", inputs.TABLE_AGENDA, table, tv, "--mode", "exact"),
        lambda t, ic=reference.table_ic(inputs.TABLE_AGENDA, outputs):
            checks.index_exact(t, "ic", ic),
        "ic_exact", {"mechanism.profiles_evaluated": 4**tv}))
    for agenda, voters in (("conjunction:2", 9), ("pref:3", 7)):
        timed.append(Command(
            f"di {agenda} maj n={voters}",
            _index("di", agenda, "systematic:maj", voters, "--mode", "exact"),
            lambda t: checks.index_exact(t, "di", Fraction(0)), "di_exact"))
    for issue in (1, 2, 3):
        di = reference.table_di(inputs.TABLE_AGENDA, tv, outputs, issue)
        timed.append(Command(
            f"di table n={tv} issue {issue}",
            _index("di", inputs.TABLE_AGENDA, table, tv, "--mode", "exact",
                   "--issue", str(issue)),
            lambda t, di=di: checks.index_exact(t, "di", di), "di_exact"))
    return Workload("exact_enum", timed)


IC_SAMPLES = 1_000_000
DI_TABLE_SAMPLES = 100_000
DI_MAJ_SAMPLES = 20_000


def monte_carlo(inp: inputs.Inputs) -> Workload:
    seed = ["--mode", "mc", "--seed", str(inp.mc_seed)]
    tv = inputs.TABLE_VOTERS
    _, outputs = reference.read_table(inp.table_path, inputs.TABLE_AGENDA)
    timed = []
    for agenda, voters in (("conjunction:2", 15), ("pref:3", 17)):
        ic = reference.majority_ic(agenda, voters)
        timed.append(Command(
            f"ic {agenda} maj n={voters} mc",
            _index("ic", agenda, "systematic:maj", voters, *seed,
                   "--samples", str(IC_SAMPLES)),
            lambda t, ic=ic: checks.index_mc(t, "ic", ic, IC_SAMPLES), "ic_mc"))
    di_max = max(reference.table_di(inputs.TABLE_AGENDA, tv, outputs, j)
                 for j in (1, 2, 3))
    timed.append(Command(
        f"di table n={tv} mc",
        _index("di", inputs.TABLE_AGENDA, f"@{inp.table_path}", tv, *seed,
               "--samples", str(DI_TABLE_SAMPLES)),
        lambda t: checks.index_mc(t, "di", di_max, DI_TABLE_SAMPLES), "di_mc",
        {"mechanism.apply_calls": 2 * DI_TABLE_SAMPLES * 3}))
    timed.append(Command(
        "di pref:3 maj n=17 mc",
        _index("di", "pref:3", "systematic:maj", 17, *seed,
               "--samples", str(DI_MAJ_SAMPLES)),
        lambda t: checks.index_mc(t, "di", Fraction(0), DI_MAJ_SAMPLES,
                                  exact_zero=True),
        "di_mc", {"mechanism.apply_calls": 2 * DI_MAJ_SAMPLES * 3}))
    return Workload("monte_carlo", timed)


SWEEP_TUPLES = 16**4          # 2^(2^2) tables per issue, four issues
SPECTRUM_VOTERS = 17


def _sweep(claim, size_flag, size, workers):
    return ["verify", claim, "--sweep", size_flag, str(size), "--voters", "2",
            "--workers", str(workers)]


def bound_checks(inp: inputs.Inputs) -> Workload:
    specs = inputs.read_blr(inp.blr_path)
    rejection = reference.blr_rejection(*(reference.table_bits(s) for s in specs))
    timed = [
        Command("sweep mand k=3 n=2", _sweep("mand", "--premises", 3, 1),
                lambda t: checks.sweep(t, "mand", SWEEP_TUPLES), "sweep",
                {"theorems.tuples_checked": SWEEP_TUPLES}),
        Command("sweep mxor m=4 n=2", _sweep("mxor", "--issues", 4, 1),
                lambda t: checks.sweep(t, "mxor", SWEEP_TUPLES), "sweep",
                {"theorems.tuples_checked": SWEEP_TUPLES}),
        # xor:2 at 3 voters: 2^3 characters times 2^2 sign patterns
        Command("oracle verify xor:2 n=3",
                ["oracle", "verify", "--agenda", "xor:2", "--voters", "3"],
                lambda t: checks.oracle_verify(t, 2**3 * 2**2), "oracle"),
        Command("oracle nearest conjunction:2 n=3",
                ["oracle", "nearest", "--agenda", "conjunction:2", "--voters", "3",
                 "--mech", "systematic:maj"],
                checks.nearest_distance, "oracle"),
        Command(f"spectrum maj n={SPECTRUM_VOTERS}",
                ["spectrum", "--fn", "maj", "--voters", str(SPECTRUM_VOTERS)],
                lambda t: checks.spectrum(t, SPECTRUM_VOTERS,
                                          reference.majority_level1(SPECTRUM_VOTERS)),
                "spectral",
                {"fourier.transform_points": 2**SPECTRUM_VOTERS}),
        Command(f"blr exact n={inputs.BLR_VOTERS}",
                ["blr", "--fns", ",".join(specs), "--voters", str(inputs.BLR_VOTERS)],
                lambda t: checks.blr(t, rejection), "spectral"),
    ]
    once = [Command("verify mand maj n=3",
                    ["verify", "mand", "--mech", "systematic:maj", "--voters", "3"],
                    checks.mand_distance)]
    cross = [("oracle nearest conjunction:2 n=3", "verify mand maj n=3",
              checks.same_distance)]
    for claim, flag, size in (("mand", "--premises", 2), ("mxor", "--issues", 3)):
        labels = [f"sweep {claim} n=2 workers={w}" for w in (1, 2)]
        for label, workers in zip(labels, (1, 2)):
            once.append(Command(label, _sweep(claim, flag, size, workers),
                                lambda t, c=claim: checks.sweep(t, c, 16**3)))
        cross.append((labels[0], labels[1],
                      lambda a, b: checks.identical(a, b, "--workers 1 vs 2")))
    return Workload("bound_checks", timed, once, cross)


WORKLOADS = {
    "exact_enum": exact_enum,
    "monte_carlo": monte_carlo,
    "bound_checks": bound_checks,
}

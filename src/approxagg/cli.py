"""Command-line front end: agendas, indices, enumeration, bound checks.

All outputs are CSV with headers (or plain serializations for `agenda
show` and `oracle enumerate`), written to --output or stdout.  Exit
status: 0 on success, 1 when --strict and a checked bound is violated,
2 on usage errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

from .agenda import Agenda, conjunction_agenda, parse_agenda_spec, read_at, xor_agenda
from .bitfn import BoolFn, constant, dictator, linear, majority, oligarchy
from .fourier import transform
from .indices import dependency_index, dependency_index_max, inconsistency_index
from .mechanism import (
    IndependentMechanism,
    closed_families,
    parse_mechanism,
    systematic,
)
from .oracle import enumerate_ci, nearest_ci
from .theorems import (
    CSV_HEADER,
    blr_three_function,
    check_boundpi,
    check_granularity,
    check_junta_lemma,
    check_mand,
    check_mxor,
    check_relax,
    rational_cells,
    sweep_mand,
    sweep_mxor,
)


class SpecError(ValueError):
    """A malformed agenda/mechanism/function spec string."""


# ---------------------------------------------------------------------------
# spec mini-languages


def build_agenda(spec: str | None):
    """Parse an agenda spec into (agenda_id, Agenda, tf | None); see
    agenda.parse_agenda_spec for the spec forms."""
    if spec is None:
        raise SpecError("missing --agenda; example: --agenda conjunction:2")
    try:
        agenda, tf = parse_agenda_spec(spec)
    except (ValueError, OSError) as exc:
        raise SpecError(f"bad agenda spec {spec!r}: {exc}; "
                        "example: --agenda conjunction:2") from exc
    return spec, agenda, tf


def build_fn(spec: str, voters: int) -> BoolFn:
    """Function specs: maj[:<mask>], dict:<i>, olig:<mask>, xor:<mask>,
    const:<0|1>, or a raw serialization n=<arity>:<hex>."""
    if spec.startswith("n="):
        return BoolFn.parse(spec)
    name, _, arg = spec.partition(":")
    if name == "maj":
        return majority(voters, int(arg) if arg else None)
    if name == "dict":
        return dictator(int(arg), voters)
    if name == "olig":
        return oligarchy(int(arg), voters)
    if name == "xor":
        return linear(int(arg), voters)
    if name == "const":
        if arg not in ("0", "1"):
            raise SpecError(f"constant must be 0 or 1, got {arg!r}")
        return constant(int(arg), voters)
    raise SpecError(f"unknown function spec {spec!r}; example: --mech systematic:maj")


def build_mechanism(spec: str | None, agenda: Agenda, voters: int):
    """Mechanism specs: systematic:<fn>, olig:<mask>, linear:<mask>:<signs>,
    or @<file> holding a serialized mechanism."""
    if spec is None:
        raise SpecError("missing --mech; example: --mech systematic:maj")
    if spec.startswith("@"):
        return parse_mechanism(read_at(spec), agenda)
    name, _, arg = spec.partition(":")
    if name == "systematic":
        return systematic(build_fn(arg, voters), agenda.issues)
    if name == "olig":
        return systematic(oligarchy(int(arg), voters), agenda.issues)
    if name == "linear":
        mask_s, _, signs = arg.partition(":")
        chi = linear(int(mask_s), voters)
        if len(signs) != agenda.issues or set(signs) - {"0", "1"}:
            raise SpecError("signs must be one 0 or 1 per issue")
        return IndependentMechanism(tuple(
            chi.negate() if s == "1" else chi for s in signs))
    raise SpecError(f"unknown mechanism spec {spec!r}; "
                    "example: --mech systematic:maj")


def _fn_list(spec: str | None, voters: int) -> list[BoolFn]:
    if spec is None:
        raise SpecError("missing --fns; example: --fns maj,maj")
    return [build_fn(tok, voters) for tok in spec.split(",")]


# Monte Carlo runs hold bounded memory however many samples they draw, so
# this cap on --samples is what bounds their running time.
MAX_SAMPLES = 1 << 32


def _samples(text: str) -> int:
    value = int(text)
    if not 1 <= value <= MAX_SAMPLES:
        raise argparse.ArgumentTypeError(f"must be in [1, {MAX_SAMPLES}], got {value}")
    return value


# ---------------------------------------------------------------------------
# output helpers


def _emit(lines, path: str | None):
    """Write each of the lines (any iterable of strings) and a newline to
    path, or to stdout."""
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(f"{line}\n" for line in lines)
    else:
        sys.stdout.writelines(f"{line}\n" for line in lines)


INDEX_HEADER = ("mechanism,agenda,index,issue,mode,value_num,value_log2den,"
                "samples,ci_low,ci_high,seed")


def _index_row(mech_id: str, agenda_id: str, kind: str, issue, report) -> str:
    cells = [mech_id, agenda_id, kind, "" if issue is None else str(issue),
             report.mode]
    cells += rational_cells(report.value)
    cells += ["" if report.samples is None else str(report.samples)]
    if report.ci is None:
        cells += ["", ""]
    else:
        cells += [repr(report.ci[0]), repr(report.ci[1])]
    cells += ["" if report.seed is None else str(report.seed)]
    return ",".join(cells)


def _bound_lines(reports) -> list[str]:
    lines = [",".join(CSV_HEADER)]
    lines += [",".join(r.csv_row()) for r in reports]
    return lines


# ---------------------------------------------------------------------------
# subcommands


def _cmd_agenda(args) -> int:
    if args.agenda:
        spec = args.agenda
    elif args.kind:
        spec = {"conjunction": f"conjunction:{args.premises}",
                "xor": f"xor:{args.premises}", "pref": f"pref:{args.candidates}",
                "affine": f"affine:@{args.file}", "tf": f"tf:@{args.file}",
                }.get(args.kind, args.kind)
    else:
        raise SpecError("agenda show needs --agenda or --kind; "
                        "example: agenda show --kind conjunction --premises 2")
    _, agenda, _ = build_agenda(spec)
    _emit(agenda.serialize().splitlines(), args.output)
    return 0


def _cmd_indices(args) -> int:
    _, agenda, _ = build_agenda(args.agenda)
    F = build_mechanism(args.mech, agenda, args.voters)
    lines = [INDEX_HEADER]
    if args.index == "ic":
        report = inconsistency_index(F, agenda, args.voters, args.mode,
                                     args.samples, args.seed)
        lines.append(_index_row(args.mech, args.agenda, "ic", None, report))
    else:
        if args.issue is not None:
            report = dependency_index(F, agenda, args.voters, args.issue,
                                      args.mode, args.samples, args.seed)
            lines.append(_index_row(args.mech, args.agenda, "di", args.issue, report))
        else:
            report = dependency_index_max(F, agenda, args.voters, args.mode,
                                          args.samples, args.seed)
            lines.append(_index_row(args.mech, args.agenda, "di", "max", report))
    _emit(lines, args.output)
    return 0


def _cmd_oracle(args) -> int:
    agenda_id, agenda, tf = build_agenda(args.agenda)
    family = enumerate_ci(agenda, args.voters, agenda_id, tf=tf)
    if args.oracle_cmd == "verify":
        expected = {m.serialize() for m in closed_families(args.agenda, args.voters)}
        ok = expected == {m.serialize() for m in family.mechanisms}
        _emit([f"{str(ok).lower()} {len(family.mechanisms)}"], args.output)
        return 1 if args.strict and not ok else 0
    if args.oracle_cmd == "enumerate":
        _emit(family.serialize().splitlines(), args.output)
        return 0
    # nearest
    F = build_mechanism(args.mech, agenda, args.voters)
    member, distance = nearest_ci(F, agenda, args.voters, family)
    lines = ["mechanism,distance_num,distance_log2den"]
    lines.append(",".join([member.serialize().replace("\n", ";")]
                          + rational_cells(distance)))
    _emit(lines, args.output)
    return 0


def _cmd_verify(args) -> int:
    reports = []
    summary = None
    if args.claim in ("mand", "mxor"):
        if args.claim == "mand":
            size, sweep, check = args.premises, sweep_mand, check_mand
            agenda = conjunction_agenda(args.premises)
        else:
            size, sweep, check = args.issues, sweep_mxor, check_mxor
            agenda = xor_agenda(args.issues - 1)
        if args.sweep:
            total, violations, mismatches = sweep(size, args.voters, args.workers)
            summary = (f"{args.claim}_sweep", total, violations + mismatches)
        else:
            F = build_mechanism(args.mech, agenda.expand(), args.voters)
            reports.append(check(F, size, args.voters))
    elif args.claim == "relax":
        agenda_id, agenda, _ = build_agenda(args.agenda)
        F = build_mechanism(args.mech, agenda, args.voters)
        reports.append(check_relax(F, agenda_id, agenda, args.voters,
                                   float(args.epsilon), args.beta))
    elif args.claim == "boundpi":
        fns = _fn_list(args.fns, args.voters)
        reports.append(check_boundpi(fns, args.voter, args.k, args.l))
    elif args.claim == "granularity":
        fns = _fn_list(args.fns, args.voters)
        reports.append(check_granularity(fns, args.junta))
    elif args.claim == "junta":
        fns = _fn_list(args.fns, args.voters)
        reports.append(check_junta_lemma(fns, args.delta, args.epsilon_frac))
    lines = _bound_lines(reports)
    violated = any(r.status == "violated" for r in reports)
    if summary is not None:
        claim, total, violations = summary
        lines.append(",".join([claim, "", "", "", "", "", "", "", "", "", "",
                               "violated" if violations else "satisfied",
                               f"{len(violations)}/{total}"]))
        violated = violated or bool(violations)
    _emit(lines, args.output)
    return 1 if args.strict and violated else 0


def _cmd_blr(args) -> int:
    f, g, h = _fn_list(args.fns, args.voters)
    report = blr_three_function(f, g, h, args.mode, args.samples, args.seed)
    _emit(_bound_lines([report]), args.output)
    return 1 if args.strict and report.status == "violated" else 0


def _cmd_spectrum(args) -> int:
    f = build_fn(args.fn, args.voters)

    def lines():
        # made while written: the 2^n lines are never all held at once
        yield "mask,numerator,log2_denominator"
        for mask, num, logden in transform(f).serialize_rows():
            yield f"{mask},{num},{logden}"

    _emit(lines(), args.output)
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="approxagg")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, mech=False):
        p.add_argument("--output")
        p.add_argument("--voters", type=int, default=3)
        # argparse converts a string default with `type` only when the
        # flag is absent, so a bad variable is a usage error (exit 2)
        p.add_argument("--workers", type=int,
                       default=os.environ.get("APPROXAGG_WORKERS", "1"))
        p.add_argument("--strict", action="store_true")
        if mech:
            p.add_argument("--mech", required=True)

    p = sub.add_parser("agenda")
    agenda_sub = p.add_subparsers(dest="agenda_cmd", required=True)
    pa = agenda_sub.add_parser("show")
    pa.add_argument("--agenda")
    pa.add_argument("--kind")
    pa.add_argument("--premises", type=int, default=2)
    pa.add_argument("--candidates", type=int, default=3)
    pa.add_argument("--file")
    pa.add_argument("--output")
    pa.set_defaults(func=_cmd_agenda)

    p = sub.add_parser("indices")
    p.add_argument("index", choices=["ic", "di"])
    p.add_argument("--agenda", required=True)
    p.add_argument("--issue", type=int)
    p.add_argument("--mode", choices=["exact", "mc"], default="exact")
    p.add_argument("--samples", type=_samples, default=100_000)
    p.add_argument("--seed", type=int)
    common(p, mech=True)
    p.set_defaults(func=_cmd_indices)

    p = sub.add_parser("oracle")
    p.add_argument("oracle_cmd", choices=["enumerate", "nearest", "verify"])
    p.add_argument("--agenda", required=True)
    p.add_argument("--mech")
    common(p)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("verify")
    p.add_argument("claim", choices=["mand", "mxor", "relax", "boundpi",
                                     "granularity", "junta"])
    p.add_argument("--agenda")
    p.add_argument("--mech")
    p.add_argument("--fns", help="comma-separated function specs")
    p.add_argument("--sweep", action="store_true")
    p.add_argument("--premises", type=int, default=2)
    p.add_argument("--issues", type=int, default=3)
    p.add_argument("--epsilon", type=float, default=0.25)
    p.add_argument("--beta", type=float)
    p.add_argument("--voter", type=int, default=1)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--l", type=int, default=2)
    p.add_argument("--junta", type=int, default=0)
    p.add_argument("--delta", type=Fraction, default=Fraction(1, 4))
    p.add_argument("--epsilon-frac", type=Fraction, default=Fraction(0))
    common(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("blr")
    p.add_argument("--fns", required=True, help="three function specs, comma-separated")
    p.add_argument("--mode", choices=["exact", "mc"], default="exact")
    p.add_argument("--samples", type=_samples, default=100_000)
    p.add_argument("--seed", type=int)
    common(p)
    p.set_defaults(func=_cmd_blr)

    p = sub.add_parser("spectrum")
    p.add_argument("--fn", required=True)
    common(p)
    p.set_defaults(func=_cmd_spectrum)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "mode", None) == "mc" and getattr(args, "seed", None) is None:
        parser.exit(2, "error: --seed is required with --mode mc; "
                       "example: --mode mc --seed 7 --samples 100000\n")
    try:
        return args.func(args)
    except SpecError as exc:
        parser.exit(2, f"error: {exc}\n")
    except (ValueError, OSError) as exc:
        parser.exit(2, f"error: {exc}\n")


if __name__ == "__main__":
    sys.exit(main())

"""Each check accepts the program's real output and rejects a wrong one."""

from fractions import Fraction

import pytest

from approxagg.cli import main
from perfbench import checks, reference
from perfbench.checks import CheckError


def cli(capsys, *argv):
    assert main(list(argv)) == 0
    return capsys.readouterr().out


def replace_cell(text, line, col, value):
    lines = text.splitlines()
    cells = lines[line].split(",")
    cells[col] = value
    lines[line] = ",".join(cells)
    return "\n".join(lines) + "\n"


def test_index_exact_dyadic(capsys):
    out = cli(capsys, "indices", "ic", "--agenda", "conjunction:2", "--mech",
              "systematic:maj", "--voters", "3")
    want = reference.majority_ic("conjunction:2", 3)
    checks.index_exact(out, "ic", want)
    with pytest.raises(CheckError):
        checks.index_exact(replace_cell(out, 1, 5, "4"), "ic", want)
    with pytest.raises(CheckError):
        checks.index_exact(out, "ic", want + Fraction(1, 64))
    with pytest.raises(CheckError):
        checks.index_exact(out, "di", want)


def test_index_exact_float_and_fraction_cells(capsys):
    out = cli(capsys, "indices", "ic", "--agenda", "pref:3", "--mech",
              "systematic:maj", "--voters", "3")
    checks.index_exact(out, "ic", Fraction(1, 18))
    checks.index_exact(replace_cell(out, 1, 5, "1/18"), "ic", Fraction(1, 18))
    with pytest.raises(CheckError):
        checks.index_exact(replace_cell(out, 1, 5, "0.0555555"), "ic", Fraction(1, 18))


def test_index_mc(capsys):
    out = cli(capsys, "indices", "ic", "--agenda", "conjunction:2", "--mech",
              "systematic:maj", "--voters", "5", "--mode", "mc", "--samples",
              "20000", "--seed", "3")
    exact = reference.majority_ic("conjunction:2", 5)
    checks.index_mc(out, "ic", exact, 20000)
    with pytest.raises(CheckError):      # interval moved off the exact value
        checks.index_mc(replace_cell(out, 1, 8, "0.5"), "ic", exact, 20000)
    with pytest.raises(CheckError):
        checks.index_mc(out, "ic", exact + Fraction(1, 10), 20000)
    with pytest.raises(CheckError):
        checks.index_mc(out, "ic", exact, 10000)
    with pytest.raises(CheckError):      # an independent mechanism's DI is 0.0
        checks.index_mc(out, "ic", exact, 20000, exact_zero=True)


def test_index_mc_zero_dependency(capsys):
    out = cli(capsys, "indices", "di", "--agenda", "pref:3", "--mech",
              "systematic:maj", "--voters", "5", "--mode", "mc", "--samples",
              "2000", "--seed", "3")
    checks.index_mc(out, "di", Fraction(0), 2000, exact_zero=True)
    with pytest.raises(CheckError):
        checks.index_mc(replace_cell(out, 1, 5, "0.001"), "di", Fraction(0), 2000,
                        exact_zero=True)


@pytest.mark.parametrize("claim,flag,size", [("mand", "--premises", 2),
                                             ("mxor", "--issues", 3)])
def test_sweep(capsys, claim, flag, size):
    out = cli(capsys, "verify", claim, "--sweep", flag, str(size), "--voters", "2")
    checks.sweep(out, claim, 16**3)
    with pytest.raises(CheckError):
        checks.sweep(out, claim, 16**4)
    with pytest.raises(CheckError):
        checks.sweep(out.replace("0/4096", "1/4096"), claim, 16**3)
    with pytest.raises(CheckError):
        checks.sweep(out.replace("satisfied", "violated"), claim, 16**3)
    with pytest.raises(CheckError):
        checks.sweep(out, "mxor" if claim == "mand" else "mand", 16**3)


def test_oracle_verify(capsys):
    out = cli(capsys, "oracle", "verify", "--agenda", "xor:2", "--voters", "2")
    checks.oracle_verify(out, 2**2 * 2**2)
    with pytest.raises(CheckError):
        checks.oracle_verify(out.replace("true", "false"), 16)
    with pytest.raises(CheckError):
        checks.oracle_verify(out, 32)


def test_same_distance(capsys):
    nearest = cli(capsys, "oracle", "nearest", "--agenda", "conjunction:2",
                  "--voters", "3", "--mech", "systematic:maj")
    mand = cli(capsys, "verify", "mand", "--mech", "systematic:maj", "--voters", "3")
    checks.same_distance(nearest, mand)
    with pytest.raises(CheckError):
        checks.same_distance(replace_cell(nearest, 1, 1, "5"), mand)
    with pytest.raises(CheckError):
        checks.same_distance(nearest, replace_cell(mand, 1, 8, "5"))
    with pytest.raises(CheckError):
        checks.mand_distance(replace_cell(mand, 1, 11, "violated"))


def test_blr(capsys):
    chi = int("".join(str(bin(x & 0b101).count("1") & 1) for x in range(16))[::-1], 2)
    specs = [f"n=4:{chi ^ 1:04x}", f"n=4:{chi:04x}", f"n=4:{chi ^ 1:04x}"]
    out = cli(capsys, "blr", "--fns", ",".join(specs), "--voters", "4")
    want = reference.blr_rejection(*(reference.table_bits(s) for s in specs))
    checks.blr(out, want)
    with pytest.raises(CheckError):
        checks.blr(out, want + Fraction(1, 256))
    with pytest.raises(CheckError):
        checks.blr(replace_cell(out, 1, 11, "violated"), want)


def test_spectrum(capsys):
    out = cli(capsys, "spectrum", "--fn", "maj", "--voters", "5")
    level1 = reference.majority_level1(5)
    checks.spectrum(out, 5, level1)
    lines = out.splitlines()
    with pytest.raises(CheckError):      # wrong closed form
        checks.spectrum(out, 5, level1 / 2)
    with pytest.raises(CheckError):      # a missing row
        checks.spectrum("\n".join(lines[:-1]), 5, level1)
    with pytest.raises(CheckError):      # rows out of order
        checks.spectrum("\n".join([lines[0], lines[2], lines[1]] + lines[3:]), 5, level1)
    with pytest.raises(CheckError):      # non-zero even level
        checks.spectrum(replace_cell(out, 1 + 0b11, 1, "1"), 5, level1)
    with pytest.raises(CheckError):      # one level-3 coefficient changed
        checks.spectrum(replace_cell(out, 1 + 0b111, 1, "-3"), 5, level1)
    with pytest.raises(CheckError):      # level-1 coefficients scaled: not Parseval
        scaled = out
        for mask in (1, 2, 4, 8, 16):
            scaled = replace_cell(scaled, 1 + mask, 2, "2")
        checks.spectrum(scaled, 5, Fraction(3, 4))


def test_agenda_show_identical_and_count(capsys):
    out = cli(capsys, "agenda", "show", "--kind", "conjunction", "--premises", "2")
    issues, opinions = reference.AGENDAS["conjunction:2"]
    checks.agenda_show(out, issues, opinions)
    with pytest.raises(CheckError):
        checks.agenda_show(out.replace("111", "110"), issues, opinions)
    checks.identical(out, out, "same")
    with pytest.raises(CheckError):
        checks.identical(out, out + "\n", "trailing newline")
    checks.count("mechanism.apply_calls", 6, 6)
    with pytest.raises(CheckError):
        checks.count("mechanism.apply_calls", 5, 6)

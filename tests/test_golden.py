"""Golden CLI outputs: each command's stdout, byte for byte.

The expected text is tests/golden/<name>.txt.  Any change to what a
command prints shows up here as a diff against it; a change meant to alter
an output updates that file with it.
"""

from pathlib import Path

import pytest

from approxagg.cli import main

GOLDEN = Path(__file__).parent / "golden"

COMMANDS = {
    # the README's CLI commands
    "agenda_show": "agenda show --kind conjunction --premises 2",
    "ic_exact": "indices ic --agenda conjunction:2 --mech systematic:maj --voters 3 "
                "--mode exact",
    "ic_mc": "indices ic --agenda conjunction:2 --mech systematic:maj --voters 3 "
             "--mode mc --samples 100000 --seed 7",
    "oracle_verify": "oracle verify --agenda xor:2 --voters 2",
    "oracle_nearest": "oracle nearest --agenda conjunction:2 --voters 3 "
                      "--mech systematic:maj",
    "mand_sweep": "verify mand --sweep --premises 2 --voters 2 --workers 4 --strict",
    "blr_exact": "blr --fns xor:5,xor:5,xor:5 --voters 3",
    "spectrum": "spectrum --fn maj --voters 3",
    # one command per remaining verdict, enumeration and estimator path
    "mxor_single": "verify mxor --mech linear:3:000 --issues 3 --voters 2",
    "mxor_sweep": "verify mxor --sweep --issues 3 --voters 2",
    "relax": "verify relax --agenda xor:2 --mech linear:3:000 --voters 2",
    "boundpi": "verify boundpi --fns maj,maj,const:0 --voters 3",
    "blr_mc": "blr --fns maj,maj,maj --voters 3 --mode mc --samples 2000 --seed 5",
    "oracle_enumerate": "oracle enumerate --agenda conjunction:2 --voters 2",
    "di_mc": "indices di --agenda pref:3 --mech systematic:maj --voters 5 "
             "--mode mc --samples 2000 --seed 3",
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_cli_stdout_matches_golden(capsys, name):
    code = main(COMMANDS[name].split())
    assert code == 0
    expected = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected

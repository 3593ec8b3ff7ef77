import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from approxagg.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_agenda_show_conjunction(capsys):
    code, out = run(capsys, "agenda", "show", "--kind", "conjunction", "--premises", "2")
    assert code == 0
    assert out.splitlines() == ["m=3", "000", "010", "100", "111"]


def test_agenda_show_spec_string(capsys):
    code, out = run(capsys, "agenda", "show", "--agenda", "id:2")
    assert code == 0
    assert out.splitlines() == ["m=2", "00", "11"]


def test_indices_ic_exact(capsys):
    code, out = run(capsys, "indices", "ic", "--agenda", "conjunction:2",
                    "--mech", "systematic:maj", "--voters", "3", "--mode", "exact")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("mechanism,agenda,index")
    cells = lines[1].split(",")
    assert cells[2] == "ic" and cells[5] == "3" and cells[6] == "5"  # 3/32


def test_indices_di_max(capsys):
    code, out = run(capsys, "indices", "di", "--agenda", "conjunction:2",
                    "--mech", "systematic:maj", "--voters", "3")
    assert code == 0
    cells = out.splitlines()[1].split(",")
    assert cells[5] == "0"


def test_indices_mc_requires_seed(capsys):
    with pytest.raises(SystemExit) as e:
        main(["indices", "ic", "--agenda", "conjunction:2", "--mech",
              "systematic:maj", "--voters", "3", "--mode", "mc"])
    assert e.value.code == 2


def test_oracle_verify(capsys):
    code, out = run(capsys, "oracle", "verify", "--agenda", "xor:2", "--voters", "2")
    assert code == 0
    assert out.strip() == "true 16"
    code, out = run(capsys, "oracle", "verify", "--agenda", "conjunction:2",
                    "--voters", "2")
    assert out.strip() == "true 35"
    # the closed family of id:3 repeats one function over all three issues
    code, out = run(capsys, "oracle", "verify", "--agenda", "id:3", "--voters", "1")
    assert out.strip() == "true 4"


@pytest.mark.parametrize("argv, expected", [
    ("verify mand --sweep --premises 1 --voters 1 --strict",
     "mand_sweep,,,,,,,,,,,satisfied,0/16"),
    ("oracle verify --agenda conjunction:1 --voters 1 --strict", "true 4"),
    ("oracle verify --agenda xor:1 --voters 2 --strict", "true 16"),
])
def test_one_premise_agendas_have_the_id_family(capsys, argv, expected):
    # one premise makes the conclusion equal to it: every (g, g) is consistent
    code, out = run(capsys, *argv.split())
    assert (code, out.splitlines()[-1]) == (0, expected)


def test_oracle_enumerate_and_nearest(capsys):
    code, out = run(capsys, "oracle", "enumerate", "--agenda", "id:2", "--voters", "1")
    assert code == 0
    assert out.splitlines()[0] == "family agenda=id:2 n=1 count=4"
    code, out = run(capsys, "oracle", "nearest", "--agenda", "conjunction:2",
                    "--voters", "3", "--mech", "systematic:maj")
    assert code == 0
    cells = out.splitlines()[1].split(",")
    assert cells[-2:] == ["7", "4"]  # distance 7/16


def test_verify_mand_single(capsys):
    code, out = run(capsys, "verify", "mand", "--mech", "systematic:maj",
                    "--premises", "2", "--voters", "3", "--strict")
    assert code == 0
    assert out.splitlines()[1].split(",")[11] == "vacuous"


def test_verify_mxor_single(capsys):
    code, out = run(capsys, "verify", "mxor", "--mech", "linear:3:000",
                    "--issues", "3", "--voters", "2", "--strict")
    assert code == 0
    assert out.splitlines()[1].split(",")[11] == "satisfied"


def test_verify_boundpi(capsys):
    code, out = run(capsys, "verify", "boundpi", "--fns", "maj,maj",
                    "--voters", "3", "--voter", "1", "--k", "1", "--l", "2")
    assert code == 0
    assert out.splitlines()[1].split(",")[11] == "satisfied"


def test_verify_junta_guard(capsys):
    code, out = run(capsys, "verify", "junta", "--fns", "maj,maj", "--voters", "3",
                    "--delta", "1/4", "--epsilon-frac", "1/2")
    assert code == 0
    assert out.splitlines()[1].split(",")[11] == "not-applicable"


def test_blr_command(capsys):
    code, out = run(capsys, "blr", "--fns", "xor:5,xor:5,xor:5", "--voters", "3")
    assert code == 0
    assert out.splitlines()[1].split(",")[11] == "satisfied"


def test_spectrum_command(capsys):
    code, out = run(capsys, "spectrum", "--fn", "dict:1", "--voters", "2")
    assert code == 0
    assert out.splitlines() == ["mask,numerator,log2_denominator",
                                "0,0,0", "1,1,0", "2,0,0", "3,0,0"]


def test_usage_error_bad_spec(capsys):
    with pytest.raises(SystemExit) as e:
        main(["indices", "ic", "--agenda", "nonsense:9", "--mech",
              "systematic:maj", "--voters", "2"])
    assert e.value.code == 2


def test_output_file_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["indices", "ic", "--agenda", "conjunction:2", "--mech", "systematic:maj",
            "--voters", "3", "--mode", "mc", "--samples", "2000", "--seed", "42"]
    assert main(args + ["--output", str(a)]) == 0
    assert main(args + ["--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_workers_identical_output(capsys):
    code1, out1 = run(capsys, "verify", "mand", "--sweep", "--premises", "1",
                      "--voters", "1", "--workers", "1")
    code2, out2 = run(capsys, "verify", "mand", "--sweep", "--premises", "1",
                      "--voters", "1", "--workers", "3")
    assert (code1, out1) == (code2, out2)


def test_mechanism_file_round_trip(tmp_path, capsys):
    from approxagg.bitfn import majority
    from approxagg.mechanism import systematic

    path = tmp_path / "mech.txt"
    path.write_text(systematic(majority(3), 3).serialize() + "\n", encoding="utf-8")
    code, out = run(capsys, "indices", "ic", "--agenda", "conjunction:2",
                    "--mech", f"@{path}", "--voters", "3")
    assert code == 0
    assert out.splitlines()[1].split(",")[5:7] == ["3", "5"]


def test_affine_agenda_file(tmp_path, capsys):
    path = tmp_path / "affine.txt"
    path.write_text("m=3 shift=000\n111\n", encoding="utf-8")
    code, out = run(capsys, "agenda", "show", "--agenda", f"affine:@{path}")
    assert code == 0
    assert out.splitlines() == ["m=3", "000", "011", "101", "110"]


def test_exact_value_with_odd_denominator_prints_fraction(capsys):
    # majority on pref:3 at 3 voters: the Condorcet paradox probability 1/18
    code, out = run(capsys, "indices", "ic", "--agenda", "pref:3", "--mech",
                    "systematic:maj", "--voters", "3", "--mode", "exact")
    assert code == 0
    assert out.splitlines()[1].split(",")[5:7] == ["1/18", ""]


def _table_file(tmp_path, rows):
    path = tmp_path / "table.txt"
    path.write_text("table n=1\n" + "".join(f"{r}\n" for r in rows), encoding="utf-8")
    return f"@{path}"


@pytest.mark.parametrize("rows, message", [
    (["0,000"], "misses row 1"),                                # 4 profiles at 1 voter
    (["0,000", "1,010", "1,100", "2,100", "3,111"], "row 1 is listed twice"),
    (["0,000", "1,010", "2,100", "4,111"], "row 4 is outside"),
    (["0,000", "1,010", "2,100", "3,0001"], "does not have 3 issues"),
])
def test_malformed_table_file_exits_2(tmp_path, capsys, rows, message):
    with pytest.raises(SystemExit) as e:
        main(["indices", "ic", "--agenda", "conjunction:2", "--mech",
              _table_file(tmp_path, rows), "--voters", "1"])
    assert e.value.code == 2
    assert message in capsys.readouterr().err


MC = "--mode mc --seed 1 --samples 0"


@pytest.mark.parametrize("argv", [
    "oracle nearest --agenda conjunction:2 --voters 2",
    "verify mand --voters 2",
    "verify mxor --voters 2",
    "verify boundpi --voters 3",
    "verify granularity --voters 3",
    "verify junta --voters 3",
    "verify relax --mech systematic:maj --voters 2",
    "verify relax --agenda conjunction:2 --voters 2",
    f"indices ic --agenda conjunction:2 --mech systematic:maj {MC}",
    f"indices di --agenda conjunction:2 --mech systematic:maj {MC}",
    f"blr --fns maj,maj,maj {MC}",
    # above MAX_SAMPLES: bounded memory, but hours to days of sampling
    "indices ic --agenda pref:3 --mech systematic:maj --voters 17 --mode mc "
    "--samples 1000000000000 --seed 1",
    "blr --fns maj,maj,maj --mode mc --seed 1 --samples 4294967297",
    "agenda show --agenda affine:@{tmp}/empty.txt",
    "agenda show --agenda affine:@{tmp}/no_m.txt",
    "agenda show --agenda affine:@{tmp}/wide.txt",
    "agenda show --agenda affine:@{tmp}/row_above_m.txt",
    "APPROXAGG_WORKERS=abc verify mand --sweep --premises 1 --voters 1",
    "oracle verify --agenda xor:2 --voters 4",
    # a constant is 0 or 1, not read as 1
    "indices ic --agenda conjunction:2 --mech systematic:const:2 --voters 2",
    # a sign is 0 or 1, not read as 0
    "indices ic --agenda conjunction:2 --mech linear:3:1x1 --voters 2",
])
def test_bad_input_exits_2_with_message(tmp_path, capsys, monkeypatch, argv):
    # exit 1 means a violated bound under --strict; bad input is exit 2
    (tmp_path / "empty.txt").write_text("", encoding="utf-8")
    (tmp_path / "no_m.txt").write_text("shift=000\n111\n", encoding="utf-8")
    # rejected before 2^40 candidate opinions are enumerated
    (tmp_path / "wide.txt").write_text("m=40\n11\n", encoding="utf-8")
    # a 3-issue row in a 2-issue system, not read as row 11
    (tmp_path / "row_above_m.txt").write_text("m=2\n111\n", encoding="utf-8")
    # leading NAME=value words set environment variables
    words = argv.format(tmp=tmp_path).split()
    while "=" in words[0]:
        name, _, value = words.pop(0).partition("=")
        monkeypatch.setenv(name, value)
    with pytest.raises(SystemExit) as e:
        main(words)
    assert e.value.code == 2
    assert "error:" in capsys.readouterr().err


_INT = st.one_of(st.integers(-2, 9).map(str), st.text("0123456789-x", max_size=3))
_FN = st.one_of(
    st.builds("{}:{}".format, st.sampled_from(["maj", "dict", "olig", "xor", "const"]), _INT),
    st.sampled_from(["maj", "const", "n=2:6", "n=3:e8", "n=9:1", "n=2:zz"]),
    st.text("majdictolgxorns=:0123456789", max_size=8))
_MECH = st.one_of(
    st.builds("systematic:{}".format, _FN),
    st.builds("olig:{}".format, _INT),
    st.builds("linear:{}:{}".format, _INT, st.text("01x2", max_size=4)),
    st.text("systemaiclnarog:0123456789", max_size=12))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(agenda=st.sampled_from(["conjunction:2", "xor:2", "pref:3", "id:2"]),
       mech=_MECH, voters=st.integers(1, 3))
def test_mechanism_spec_fuzz_exits_0_or_2(capsys, agenda, mech, voters):
    # a spec either works or is a usage error; never a traceback
    argv = ["indices", "ic", "--agenda", agenda, f"--mech={mech}",
            "--voters", str(voters), "--mode", "exact"]
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code in (0, 2)
    assert "Traceback" not in capsys.readouterr().err


# mostly small values, which make working agendas, and some that must fail
_AGENDA_INT = st.one_of(st.integers(0, 5).map(str), st.integers(-1, 18).map(str),
                        st.sampled_from(["", "x", "99999999999"]))
_AGENDA = st.one_of(
    st.builds("{}:{}".format, st.sampled_from(["conjunction", "xor", "pref", "id"]),
              _AGENDA_INT),
    st.sampled_from(["id", "tf:@", "affine:@", "tf:@{file}x", "affine", "conjunction"]),
    st.text("conjunctiorxpfda:0123456789@", max_size=14))
_BITS = st.one_of(st.text("01", min_size=1, max_size=4), st.text("01x-", max_size=4))
_AFFINE_TEXT = st.builds(
    "{}\n{}\n".format,
    st.one_of(st.builds("m={} shift={}".format, _AGENDA_INT, _BITS),
              st.builds("m={}".format, _AGENDA_INT)),
    st.lists(_BITS, max_size=4).map("\n".join))
_TF_LINE = st.one_of(
    st.builds("{} inputs={} negmask={} negout={}".format,
              st.sampled_from(["AND", "XOR", "OR"]),
              st.lists(_AGENDA_INT, min_size=1, max_size=3).map(",".join),
              _BITS, st.sampled_from(["0", "1", "2"])),
    st.builds("{} inputs={}".format, st.sampled_from(["AND", "XOR"]),
              st.lists(st.integers(1, 3).map(str), max_size=3).map(",".join)),
    st.text("ANDXOR inputs=,12", max_size=12))
_TF_TEXT = st.builds(
    "{}\n{}\n".format,
    st.builds("k={}".format, _AGENDA_INT),
    st.lists(_TF_LINE, max_size=3).map("\n".join))


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), command=st.sampled_from(["show", "ic"]))
def test_agenda_spec_fuzz_exits_0_or_2(tmp_path, capsys, data, command):
    # agenda specs and spec files either work or are usage errors; never a
    # traceback, and never a huge integer shift before the range checks
    path = tmp_path / "agenda.txt"
    spec = data.draw(st.one_of(
        _AGENDA,
        _TF_TEXT.map(lambda text: ("tf", text)),
        _AFFINE_TEXT.map(lambda text: ("affine", text))))
    if isinstance(spec, tuple):
        kind, text = spec
        path.write_text(text, encoding="utf-8")
        spec = f"{kind}:@{path}"
    spec = spec.replace("{file}", str(path))
    if command == "show":
        argv = ["agenda", "show", f"--agenda={spec}"]
    else:
        argv = ["indices", "ic", f"--agenda={spec}", "--mech", "systematic:maj",
                "--voters", str(data.draw(st.integers(1, 2))), "--mode", "exact"]
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code in (0, 2)
    assert "Traceback" not in capsys.readouterr().err


def test_cli_import_leaves_numpy_unloaded():
    # numpy costs the commands that need no profile space time and memory
    import subprocess
    import sys

    code = "import sys, approxagg.cli; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"

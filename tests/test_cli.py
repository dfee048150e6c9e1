import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import vkt.checks
import vkt.cli
import vkt.fusion
import vkt.twist
import vkt.zlattice
from vkt.cli import (
    JobSpec,
    cmd_basis,
    cmd_classes,
    cmd_example,
    cmd_fuse,
    cmd_info,
    cmd_table,
    cmd_verify,
    main,
    parse_spec_text,
    render,
)
from vkt.errors import NotPrimitive, SpecParseError

from test_known_tables import cartan_e


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_spec_text_values():
    data = parse_spec_text(
        'group = "SU(2) x U(1)"\n'
        "# a comment\n"
        "twist = { levels = [5], shift = \"none\", torus = [[2]], epsilon = [0, 1] }\n"
    )
    assert data["group"] == "SU(2) x U(1)"
    assert data["twist"]["levels"] == [5]
    assert data["twist"]["torus"] == [[2]]
    assert data["twist"]["epsilon"] == [0, 1]


def test_spec_parse_error_carries_position():
    with pytest.raises(SpecParseError) as err:
        parse_spec_text('group = "SU(2)"\ntwist = {oops}\n')
    assert err.value.line == 2
    assert err.value.column is not None


def test_jobspec_roundtrip():
    # each job's spec text parses back to the job
    job = JobSpec(group="SU(2) x U(1)",
                  twist={"levels": [3], "torus": [[2]], "epsilon": [0, 1],
                         "shift": "none"},
                  command="basis", format="json")
    assert JobSpec.parse(
        'group = "SU(2) x U(1)"\n'
        'twist = { levels = [3], torus = [[2]], epsilon = [0, 1], shift = "none" }\n'
        'command = "basis"\n'
        'format = "json"\n') == job

    explicit = JobSpec(group={"cartan": [[2, -1], [-1, 2]], "torus_rank": 1},
                       twist={"levels": [2], "torus": [[4]]}, format="tsv")
    assert JobSpec.parse(
        "cartan = [[2, -1], [-1, 2]]\n"
        "torus_rank = 1\n"
        "twist = { levels = [2], torus = [[4]] }\n"
        'format = "tsv"\n') == explicit


def test_cmd_info(capsys):
    code, out, _ = run_cli(capsys, "info", "--group", "SU(2)", "--twist", "5")
    assert code == 0
    data = json.loads(out)
    assert data["info"]["rank"] == 1
    assert data["info"]["weyl_order"] == 2
    assert data["twist"]["order_F"] == 10
    assert data["degree_parity"] == 1
    assert data["version"]


def test_cmd_info_u1(capsys):
    code, out, _ = run_cli(capsys, "info", "--group", "U(1)", "--twist", "3")
    data = json.loads(out)
    assert code == 0
    assert data["info"]["weyl_order"] == 1
    assert data["twist"]["order_F"] == 3


def test_cmd_info_su3(capsys):
    code, out, _ = run_cli(capsys, "info", "--group", "SU(3)", "--twist", "4")
    data = json.loads(out)
    assert code == 0
    assert data["info"]["rank"] == 2
    assert data["info"]["weyl_order"] == 6
    assert data["degree_parity"] == 0


def test_cmd_basis(capsys):
    code, out, _ = run_cli(capsys, "basis", "--group", "SU(2)", "--twist", "5")
    data = json.loads(out)
    assert code == 0
    assert data["basis"]["count"] == 4
    assert data["basis"]["orbit_representatives"] == [[1], [2], [3], [4]]
    assert data["rho_tilde"] == [1]


def test_cmd_classes(capsys):
    code, out, _ = run_cli(capsys, "classes", "--group", "SU(2)", "--twist", "5")
    data = json.loads(out)
    assert code == 0
    assert data["classes"]["count"] == 4
    assert data["classes"]["points"][0] == ["1/10"]


def test_cmd_fuse(capsys):
    code, out, _ = run_cli(capsys, "fuse", "--group", "SU(2)", "--twist", "5", "2", "2")
    data = json.loads(out)
    assert code == 0
    assert data["fuse"]["coefficients"] == {"0": 1, "2": 1}


def test_cmd_table(capsys):
    code, out, _ = run_cli(capsys, "table", "--group", "SU(2)", "--twist", "4")
    data = json.loads(out)
    assert code == 0
    nc = data["table"]["constants"]
    assert nc[0][1] == [0, 1, 0]  # unit times e_1 is e_1
    assert nc[1][1] == [1, 0, 1]  # rho_1 squared at level 2
    assert nc[2][2] == [1, 0, 0]  # the top class squares to the unit


def test_cmd_verify_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--group", "SU(2)", "--twist", "5")
    data = json.loads(out)
    assert code == 0
    assert data["verify"]["all_passed"] is True
    names = {c["name"] for c in data["verify"]["checks"]}
    assert {"double_count", "oracle_equivalence", "delta_identity"} <= names


def test_cmd_example(capsys):
    code, out, _ = run_cli(capsys, "example", "s3", "6")
    data = json.loads(out)
    assert code == 0
    assert data["K1"] == "Z/6"
    code, out, _ = run_cli(capsys, "example", "u1", "2", "--epsilon", "1")
    data = json.loads(out)
    assert data["relation"] == "-L^2 = 1"
    code, out, _ = run_cli(capsys, "example", "su2", "5")
    data = json.loads(out)
    assert data["K1_rank"] == 4


def test_not_primitive_surfaced(capsys):
    code, out, err = run_cli(capsys, "fuse", "--group", "U(1)", "--twist", "3",
                             "0", "1")
    assert code == 1
    assert "NotPrimitive" in err


def test_degenerate_surfaced(capsys):
    code, out, err = run_cli(capsys, "basis", "--group", "SU(2)", "--twist", "0")
    assert code == 1
    assert "Degenerate" in err


@pytest.mark.parametrize("command", ["info", "basis", "classes", "table", "verify"])
def test_shift_without_levels_is_degenerate(capsys, command):
    code, out, err = run_cli(capsys, command, "--group", "SU(2)", "--shift", "dual_coxeter")
    assert code == 1
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "Degenerate"


def test_spec_file(tmp_path, capsys):
    spec = tmp_path / "job.spec"
    spec.write_text('group = "SU(2) x U(1)"\n'
                    'twist = { levels = [2], torus = [[2]], epsilon = [0, 0] }\n')
    code, out, _ = run_cli(capsys, "basis", "--spec", str(spec))
    data = json.loads(out)
    assert code == 0
    assert data["basis"]["count"] == len(data["basis"]["orbit_representatives"])


def test_tsv_format(capsys):
    code, out, _ = run_cli(capsys, "info", "--group", "U(1)", "--twist", "2",
                           "--format", "tsv")
    assert code == 0
    lines = dict(line.split("\t") for line in out.strip().splitlines())
    assert lines["twist.order_F"] == "2"


def test_dual_coxeter_shift_flag(capsys):
    code, out, _ = run_cli(capsys, "basis", "--group", "SU(2)", "--twist", "3",
                           "--shift", "dual_coxeter")
    data = json.loads(out)
    assert code == 0
    assert data["basis"]["count"] == 4  # total twist 5


def test_reports_are_deterministic(capsys):
    first = run_cli(capsys, "basis", "--group", "SU(3)", "--twist", "4")
    second = run_cli(capsys, "basis", "--group", "SU(3)", "--twist", "4")
    assert first == second
    t1 = run_cli(capsys, "table", "--group", "SU(2)", "--twist", "6")
    t2 = run_cli(capsys, "table", "--group", "SU(2)", "--twist", "6")
    assert t1 == t2


def test_graded_basis_flags(capsys):
    code, out, _ = run_cli(capsys, "basis", "--group", "SU(2)", "--twist", "4",
                           "--epsilon", "1")
    data = json.loads(out)
    assert code == 0
    assert data["basis"]["grading_flags"]


@pytest.mark.parametrize("epsilon", ["", "1"])
def test_a_short_grading_is_refused(capsys, epsilon):
    # an empty grading is not read as zero: on rank 2 it is refused like a
    # one-entry grading
    code, out, err = run_cli(capsys, "info", "--group", "SU(2) x U(1)", "--twist", "3",
                             "--torus", "[[4]]", "--epsilon", epsilon)
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": "NotEquivariant",
                               "message": "grading vector length must equal the rank"}


def test_an_empty_spec_grading_is_refused(tmp_path, capsys):
    spec = tmp_path / "job.spec"
    spec.write_text('group = "SU(2) x U(1)"\n'
                    'twist = { levels = [3], torus = [[4]], epsilon = [] }\n')
    code, out, err = run_cli(capsys, "info", "--spec", str(spec))
    assert (code, out) == (1, "")
    assert json.loads(err)["error"] == "NotEquivariant"


def _usage_error(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    return json.loads(err)


def test_bad_twist_is_a_usage_error(capsys):
    err = _usage_error(capsys, "basis", "--group", "SU(2)", "--twist", "abc")
    assert err["error"] == "SpecParseError"
    assert "--twist" in err["message"]


def test_malformed_torus_is_a_usage_error(capsys):
    err = _usage_error(capsys, "basis", "--group", "U(1)", "--torus", "[[6]")
    assert err["error"] == "SpecParseError"
    assert "--torus" in err["message"]


def test_missing_spec_file_is_a_usage_error(tmp_path, capsys):
    missing = tmp_path / "missing.spec"
    err = _usage_error(capsys, "basis", "--spec", str(missing))
    assert err["error"] == "SpecParseError"
    assert str(missing) in err["message"]


def test_torus_of_strings_is_a_usage_error(capsys):
    err = _usage_error(capsys, "basis", "--group", "U(1)", "--torus", '[["a"]]')
    assert err["error"] == "SpecParseError"
    assert "torus" in err["message"]


def test_torus_string_is_a_usage_error(capsys):
    err = _usage_error(capsys, "basis", "--group", "U(1)", "--torus", '"abc"')
    assert err["error"] == "SpecParseError"
    assert "torus" in err["message"]


def test_spec_levels_of_strings_is_a_usage_error(tmp_path, capsys):
    spec = tmp_path / "job.spec"
    spec.write_text('group = "SU(2)"\ntwist = { levels = ["a"] }\n')
    err = _usage_error(capsys, "basis", "--spec", str(spec))
    assert err["error"] == "SpecParseError"
    assert "levels" in err["message"]


@pytest.mark.parametrize("text, message", [
    ('cartan = [["a"]]\n', "group cartan must be integers, got [['a']]"),
    ("cartan = 3\n", "group cartan must be integers, got 3"),
    ("cartan = [3]\n", "group cartan must be integers, got [3]"),
    ("cartan = [[2, -1], [-1]]\n", "group cartan must be rows of one length, got [[2, -1], [-1]]"),
    ('cartan = [[2]]\ntorus_rank = "x"\n', "group torus_rank must be an integer, got 'x'"),
    ("cartan = [[2]]\ntorus_rank = [1]\n", "group torus_rank must be an integer, got [1]"),
    ('cartan = [[2]]\ntorus_rank = 1\ntorus_form = [["q"]]\n',
     "group torus_form must be integers, got [['q']]"),
    ("cartan = [[2]]\ntorus_rank = 2\ntorus_form = [[1, 0], [0]]\n",
     "group torus_form must be rows of one length, got [[1, 0], [0]]"),
], ids=["cartan-strings", "cartan-int", "cartan-flat", "cartan-ragged", "torus_rank-string",
        "torus_rank-list", "torus_form-strings", "torus_form-ragged"])
def test_malformed_group_table_is_a_usage_error(tmp_path, capsys, text, message):
    # a group table's values are type-checked before the datum is built, as
    # the twist table's are: no ValueError or TypeError traceback
    spec = tmp_path / "job.spec"
    spec.write_text(text)
    err = _usage_error(capsys, "info", "--spec", str(spec))
    assert err == {"error": "SpecParseError", "message": message}


def test_ragged_twist_torus_is_a_usage_error(tmp_path, capsys):
    # from a spec file and from --torus: not IntMatrix's "ragged rows"
    spec = tmp_path / "job.spec"
    spec.write_text('group = "U(1)^2"\ntwist = { levels = [3], torus = [[1, 0], [0]] }\n')
    want = {"error": "SpecParseError",
            "message": "twist torus must be rows of one length, got [[1, 0], [0]]"}
    assert _usage_error(capsys, "info", "--spec", str(spec)) == want
    assert _usage_error(capsys, "basis", "--group", "U(1)^2", "--torus", "[[1,0],[0]]") == want


@pytest.mark.parametrize("levels, message, column", [
    ("[²]", "cannot parse value starting with '²'", 21),
    ("[-²]", "expected digits", 22),
    ("[1²]", "expected ']', found '²'", 22),
], ids=["digit", "after-minus", "after-a-digit"])
def test_a_digit_int_refuses_is_a_usage_error(tmp_path, capsys, levels, message, column):
    # str.isdigit admits the superscript two, which int refuses
    text = f'group = "SU(2)"\ntwist = {{ levels = {levels} }}\n'
    with pytest.raises(SpecParseError) as caught:
        parse_spec_text(text)
    assert (caught.value.line, caught.value.column) == (2, column)
    spec = tmp_path / "job.spec"
    spec.write_text(text, encoding="utf-8")
    err = _usage_error(capsys, "info", "--spec", str(spec))
    assert err == {"error": "SpecParseError",
                   "message": f"line 2, column {column}: {message}"}


def test_a_decimal_digit_of_any_script_is_read():
    # as int reads it, and as --twist already does
    assert parse_spec_text("twist = { levels = [٣, -1٣] }") == {"twist": {"levels": [3, -13]}}


def test_huge_f_is_refused_before_enumerating(tmp_path, capsys, monkeypatch):
    # E6 at loop level 1 has |F| = 14 480 427 cosets, over the cap: classes
    # refuses at once, with no coset enumerated
    def refuse(*args, **kwargs):
        raise AssertionError("coset_representatives was called")

    for module in (vkt.twist, vkt.zlattice):
        monkeypatch.setattr(module, "coset_representatives", refuse)
    spec = tmp_path / "e6.spec"
    spec.write_text(f"cartan = {cartan_e(6)}\ntwist = {{ levels = [1] }}\n")
    code, out, err = run_cli(capsys, "classes", "--spec", str(spec), "--shift", "dual_coxeter")
    assert (code, out) == (1, "")
    err = json.loads(err)
    assert err["error"] == "GroupTooLarge"
    assert "14480427" in err["message"]


def test_over_budget_pairing_kernel_is_refused(capsys, monkeypatch):
    # Spin(7) 6 has Smith factors 6, 6, 24 (|F| = 864), so the pairing kernel
    # takes 864 * 36 + 8 * 864 = 38016 steps; with the budget just under that,
    # verify refuses before any check runs and prints one JSON error line
    ran = []
    monkeypatch.setattr(vkt.checks, "check_double_count", lambda ring: ran.append(ring))
    monkeypatch.setattr(vkt.fusion, "MAX_PAIRING_WORK", 38016 - 1)
    code, out, err = run_cli(capsys, "verify", "--group", "Spin(7)", "--twist", "6")
    assert (code, out) == (1, "")
    assert ran == []
    lines = err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "GroupTooLarge"
    assert "38016" in err["message"]


@pytest.mark.parametrize("which, n", [("su2", "0"), ("u1", "0"), ("s3", "-1")])
def test_example_size_out_of_range_is_a_usage_error(capsys, which, n):
    err = _usage_error(capsys, "example", which, n)
    assert err["error"] == "SpecParseError"
    assert which in err["message"]


@pytest.mark.parametrize("group", ["SU(2)^0", "U(1)^0", "SU(2)^0 x U(1)"])
def test_zero_power_is_a_usage_error(capsys, group):
    # not the trivial group with the level dropped
    err = _usage_error(capsys, "info", "--group", group, "--twist", "3")
    assert err["error"] == "SpecParseError"
    assert "^0" in err["message"]


def test_torus_form_without_a_torus_is_refused(tmp_path, capsys):
    spec = tmp_path / "job.spec"
    spec.write_text("cartan = [[2]]\ntorus_form = [[5]]\ntwist = { levels = [3] }\n")
    code, out, err = run_cli(capsys, "info", "--spec", str(spec))
    assert (code, out) == (1, "")
    err = json.loads(err)
    assert err["error"] == "InvalidCartanData"
    assert "torus_form" in err["message"]


@pytest.mark.parametrize("text, key", [
    ('group = "SU(2)"\ntwist = { levles = [5] }\n', "levles"),
    ('group = "SU(2)"\ntwist = { levels = [5] }\nformt = "tsv"\n', "formt"),
    ('group = "SU(3)"\ncartan = [[2, -1], [-1, 2]]\ntwist = { levels = [4] }\n', "cartan"),
    ('group = "SU(2) x U(1)"\ntorus_rank = 1\ntwist = { levels = [2] }\n', "torus_rank"),
    ('group = "U(1)"\ntorus_form = [[1]]\ntwist = { torus = [[3]] }\n', "torus_form"),
], ids=["twist-levles", "formt", "group-cartan", "group-torus_rank", "group-torus_form"])
def test_unknown_or_conflicting_spec_key_is_a_usage_error(tmp_path, capsys, text, key):
    spec = tmp_path / "job.spec"
    spec.write_text(text)
    err = _usage_error(capsys, "basis", "--spec", str(spec))
    assert err["error"] == "SpecParseError"
    assert repr(key) in err["message"]


def test_spec_twist_that_is_not_a_table_is_a_usage_error(tmp_path, capsys):
    # with and without a --twist option to write into it
    spec = tmp_path / "job.spec"
    spec.write_text('group = "SU(2)"\ntwist = [5]\n')
    for extra in ((), ("--twist", "3")):
        err = _usage_error(capsys, "basis", "--spec", str(spec), *extra)
        assert err["error"] == "SpecParseError"
        assert "twist must be a table" in err["message"]


@pytest.mark.parametrize("text", ["group = 5\n", "group = [2]\n", "group = { group = 5 }\n"],
                         ids=["int", "list", "nested-int"])
def test_group_that_is_not_a_name_is_a_usage_error(tmp_path, capsys, text):
    spec = tmp_path / "job.spec"
    spec.write_text(text + "twist = { levels = [5] }\n")
    err = _usage_error(capsys, "basis", "--spec", str(spec))
    assert err["error"] == "SpecParseError"
    assert "a group is a name or a table" in err["message"]


@pytest.mark.parametrize("text, where", [
    ('group = "SU(2)"\ngroup = "SU(3)"\ntwist = { levels = [5] }\n', (2, 1)),
    ('group = "SU(2)"\ntwist = { levels = [5], levels = [4] }\n', (2, 25)),
], ids=["top-level", "inline-table"])
def test_repeated_spec_key_is_a_usage_error(tmp_path, capsys, text, where):
    with pytest.raises(SpecParseError) as caught:
        parse_spec_text(text)
    assert (caught.value.line, caught.value.column) == where
    spec = tmp_path / "job.spec"
    spec.write_text(text)
    err = _usage_error(capsys, "basis", "--spec", str(spec))
    assert err["error"] == "SpecParseError"
    assert f"line {where[0]}, column {where[1]}: duplicate key" in err["message"]


@pytest.mark.parametrize("argv, text, named", [
    (("table",), 'group = "SU(3)"\ntwist = { levels = [9] }\nformat = "xml"\n', "'xml'"),
    (("fuse", "0", "0"), 'group = "SU(2)"\ntwist = { levels = [5] }\ncommand = "info"\n',
     "'info'"),
], ids=["format-xml", "command-info-run-as-fuse"])
def test_spec_file_is_checked_before_any_work(tmp_path, capsys, monkeypatch, argv, text, named):
    # refused as a usage error while the job is built: no ring is ever made
    def refuse(*args, **kwargs):
        raise AssertionError("a FusionRing was built")

    monkeypatch.setattr(vkt.cli, "FusionRing", refuse)
    spec = tmp_path / "job.spec"
    spec.write_text(text)
    code, out, err = run_cli(capsys, argv[0], "--spec", str(spec), *argv[1:])
    assert (code, out) == (2, "")
    lines = err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "SpecParseError"
    assert named in err["message"]


def test_spec_command_that_names_the_subcommand_is_accepted(tmp_path, capsys):
    spec = tmp_path / "job.spec"
    spec.write_text('group = "SU(2)"\ntwist = { levels = [5] }\ncommand = "fuse"\n')
    code, out, _ = run_cli(capsys, "fuse", "--spec", str(spec), "1", "1")
    assert code == 0
    assert json.loads(out)["fuse"]["coefficients"] == {"0": 1, "2": 1}


def test_closed_stdout_exits_1_without_a_traceback():
    # `vkt table ... | head -1`: the reader goes away after one line of a
    # report larger than the pipe buffer
    src = str(Path(vkt.cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.Popen(
        [sys.executable, "-m", "vkt.cli", "table", "--group", "SU(3)", "--twist", "9"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert err == b""


# -- the report writer against json.dumps ---------------------------------------

def json_oracle(out):
    """The writer the CLI used before: the stdlib's pure-Python indent path."""
    return json.dumps(out, indent=2, sort_keys=True)


REPORT_GRID = [
    ("SU(2)", {"levels": [5]}),
    ("SU(3)", {"levels": [4]}),
    ("Spin(5)", {"levels": [5]}),
    ("U(1)^2", {"torus": [[2, 1], [1, 2]]}),
    ("SU(2) x U(1)", {"levels": [3], "torus": [[4]]}),
    ("SU(2) x U(1)", {"levels": [3], "torus": [[-4]], "epsilon": [0, 1]}),
    ("U(1)", {"torus": [[-6]], "epsilon": [1]}),
    ({"cartan": [[2, -1], [-3, 2]]}, {"levels": [2], "shift": "dual_coxeter"}),
]


def grid_reports():
    for group, twist in REPORT_GRID:
        job = JobSpec(group=group, twist=twist)
        n = cmd_basis(job)[0]["basis"]["count"]
        commands = [cmd_info, cmd_basis, cmd_classes, cmd_table, cmd_verify,
                    lambda job: cmd_fuse(job, 0, 0), lambda job: cmd_fuse(job, n - 1, n - 1)]
        for command in commands:
            try:
                yield command(job)[0]
            except NotPrimitive:
                continue
    for which, n, eps in (("s3", 6, 0), ("u1", 2, 1), ("u1", 3, 0), ("su2", 5, 0)):
        yield cmd_example(JobSpec(), which, n, eps)[0]


def test_reports_are_written_as_json_dumps_writes_them():
    payloads = set()
    for out in grid_reports():
        assert render(out, "json") == json_oracle(out)
        payloads.update(key for key in out if key not in ("version", "spec"))
    assert {"info", "basis", "classes", "fuse", "table", "verify", "example"} <= payloads


@pytest.mark.parametrize("value", [
    {}, [], (), {"a": {}, "b": [], "c": [[], {}], "d": ([], ())},
    {"e": {"f": {}}, "g": [[[]]]},
    (1, 2, (3, -4)), [[1, 2], (3,)], [10 ** 40, -10 ** 30, 0, -1],
    {"t": True, "f": False, "n": None}, [True, False, 1, 0], [None], [1, "1", [1]],
    {"s": "\u00e9\u2603\U0001f600 \n\t\"\\ \x00\x1f/"}, "\u00e9\"", 5, -7, None, True, False,
    {1: 2, 3: [True]}, {None: 1}, {True: 2}, {"z": 1, "a": 2, "\u00e9": 3, "": 4},
], ids=lambda value: repr(value)[:40])
def test_writer_matches_json_dumps_on_edge_cases(value):
    assert render(value, "json") == json_oracle(value)


def test_writer_refuses_what_json_dumps_refuses():
    for value in ({(1, 2): 3}, {1: object()}, [set()]):
        with pytest.raises(TypeError):
            json_oracle(value)
        with pytest.raises(TypeError):
            render(value, "json")


def test_table_rows_as_tuples_leave_tsv_unchanged():
    out = cmd_table(JobSpec(group="SU(2)", twist={"levels": [4]}))[0]
    listed = json.loads(json.dumps(out))
    assert isinstance(out["table"]["constants"][0][0], tuple)
    assert render(out, "tsv") == render(listed, "tsv")
    assert render(out, "json") == render(listed, "json") == json_oracle(listed)


def test_one_parser_per_process_parses_as_a_fresh_one(capsys):
    # main reads one parser per process; a report, a usage error, help and
    # --version leave it as a fresh build leaves it: the same help, the same
    # exits and the same parsed options
    parser = vkt.cli._parser()
    fresh = vkt.cli._parser.__wrapped__()
    used = [["verify", "--group", "SU(2)", "--twist", "3"], ["bogus"], ["--help"],
            ["--version"], ["fuse", "--group", "SU(2)", "--twist", "3", "0", "1"],
            ["verify", "--help"], ["example", "s3", "x"]]
    for argv in used:
        try:
            main(argv)
        except SystemExit:
            pass
    capsys.readouterr()
    assert vkt.cli._parser() is parser
    for argv in used + [["example", "u1", "2", "--epsilon", "1"],
                        ["table", "--spec", "x.spec", "--shift", "dual_coxeter"]]:
        outcomes = []
        for p in (parser, fresh):
            try:
                outcomes.append(vars(p.parse_args(argv)))
            except SystemExit as exc:
                outcomes.append(exc.code)
            outcomes.append(capsys.readouterr())
        assert outcomes[:2] == outcomes[2:], argv

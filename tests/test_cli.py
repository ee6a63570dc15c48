"""Command-line interface: exit codes, reports, file round trips."""

import json
import os
import subprocess
import sys

import pytest

import chowkunneth
from chowkunneth import cli, kunneth, serialize, spaces
from chowkunneth.correspondences import diagonal
from chowkunneth.errors import InvalidSpec
from chowkunneth.kunneth import ProjectorSet, full_projectors

P1 = '{"kind": "projective_space", "n": 1}'
P2 = '{"kind": "projective_space", "n": 2}'
P3 = '{"kind": "projective_space", "n": 3}'
SRC = os.path.dirname(os.path.dirname(chowkunneth.__file__))


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read(path):
    return json.loads(path.read_text(encoding="utf-8"))


# -- build / diagonal ----------------------------------------------------------


def test_build_projective_space(capsys, tmp_path):
    out = tmp_path / "ring.json"
    code, text, _ = run(capsys, "build", "--space", P3, "--out", str(out))
    assert code == 0
    assert "built: dimension 3, total rank 4, betti 1,0,1,0,1,0,1" in text
    doc = read(out)
    assert doc["dim"] == 3 and doc["rank"] == 4
    assert doc["basis"][0] == ["1", 0]
    assert doc["space"] == {"kind": "projective_space", "n": 3}


def test_build_accepts_file_path(capsys, tmp_path):
    spec = tmp_path / "space.json"
    spec.write_text(P2, encoding="utf-8")
    code, text, _ = run(capsys, "build", "--space", str(spec))
    assert code == 0 and "dimension 2" in text


def test_build_malformed_space_exits_2(capsys):
    code, _, err = run(capsys, "build", "--space", '{"kind": "mystery"}')
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("middle_rank", [True, -1, 1.5])
def test_plane_curve_family_bad_middle_rank_exits_2(capsys, middle_rank):
    spec = {"kind": "plane_curve_family", "d": 3, "middle_rank": middle_rank}
    code, text, err = run(capsys, "build", "--space", json.dumps(spec))
    assert code == 2 and text == ""
    assert err.startswith("error: plane_curve_family: ") and "'middle_rank'" in err


@pytest.mark.parametrize("kind", [[], {}, {"n": 1}, ["projective_space"]],
                         ids=["empty list", "empty object", "object", "list"])
@pytest.mark.parametrize("path", ["build", "lift", "verify set", "verify family"])
def test_space_kind_that_is_not_a_string_exits_2(capsys, tmp_path, path, kind):
    bad = {"kind": kind, "n": 1}
    if path in ("build", "lift"):
        argv = [path, "--space", json.dumps(bad)] + (["--bound", "4"] if path == "lift" else [])
    else:
        doc = tmp_path / "doc.json"
        if path == "verify set":
            run(capsys, "projectors", "--space", P1, "--out", str(doc))
        else:
            run(capsys, "lift", "--space", P1, "--bound", "4", "--out", str(doc))
        content = read(doc)
        (content["space"] if path == "verify set" else content["model"]["base"])["kind"] = kind
        doc.write_text(json.dumps(content), encoding="utf-8")
        argv = ["verify", str(doc)]
    code, text, err = run(capsys, *argv)
    assert code == 2 and text == ""
    assert err.startswith("error: ") and f"unknown space kind {kind!r}" in err


P3_CI = {"kind": "ci_model", "ambient": {"kind": "projective_space", "n": 3}}
BL_LINE = {
    "kind": "blowup",
    "base": {"kind": "projective_space", "n": 3},
    "center": {"kind": "projective_space", "n": 1},
    "codim": 2,
    "center_pushforward_expr": {"1": {"h^2": "1"}, "h": {"h^3": "1"}},
    "normal_chern": {"1": {"h": "2"}},
}

BL_LINE_IN_PLANE = {
    "kind": "blowup",
    "base": {"kind": "projective_space", "n": 2},
    "center": {"kind": "projective_space", "n": 1},
    "codim": 1,
    "center_pushforward_expr": {"1": {"h": "1"}, "h": {"h^2": "1"}},
    "normal_chern": {"1": {"h": "1"}},
}


def _with(base, **fields):
    return json.dumps(dict(base, **fields))


MALFORMED_SPACES = {
    "unknown label": _with(P3_CI, fundamental_class_expr={"zz": "2"}, middle_rank=0),
    "inhomogeneous": _with(
        P3_CI, fundamental_class_expr={"h": "2", "h^2": "1"}, middle_rank=0
    ),
    "float": _with(P3_CI, fundamental_class_expr={"h": 0.5}, middle_rank=0),
    "float pairing": _with(
        P3_CI, fundamental_class_expr={"h": "2"}, middle_rank=1, middle_pairing=[[1.0]]
    ),
    "chern unknown label": _with(BL_LINE, normal_chern={"1": {"zz": "2"}}),
    "chern wrong degree": _with(BL_LINE, normal_chern={"1": {"1": "2"}}),
    "chern not an object": _with(BL_LINE, normal_chern=["h"]),
    "chern unread unknown label": _with(BL_LINE, normal_chern={"1": {"h": "2"}, "2": {"zz": "1"}}),
    "chern key not an index": _with(BL_LINE, normal_chern={"1": {"h": "2"}, "x": 5}),
    "chern key zero": _with(BL_LINE, normal_chern={"1": {"h": "2"}, "0": {"1": "1"}}),
    "chern key above codim": _with(BL_LINE, normal_chern={"1": {"h": "2"}, "3": {}}),
    "chern unread wrong degree": _with(BL_LINE, normal_chern={"1": {"h": "2"}, "2": {"h": "1"}}),
    "pushforward unknown label": _with(
        BL_LINE, center_pushforward_expr={"1": {"zz": "1"}, "h": {"h^3": "1"}}
    ),
    "pushforward inhomogeneous": _with(
        BL_LINE, center_pushforward_expr={"1": {"h^2": "1", "h": "1"}, "h": {"h^3": "1"}}
    ),
    "pushforward float": _with(
        BL_LINE, center_pushforward_expr={"1": {"h^2": 2.5}, "h": {"h^3": "1"}}
    ),
    "codim 1 center dimension": _with(
        BL_LINE_IN_PLANE, center={"kind": "projective_space", "n": 5}
    ),
    "codim 1 pushforward": _with(BL_LINE_IN_PLANE, center_pushforward_expr="junk"),
    "codim 1 chern key": _with(BL_LINE_IN_PLANE, normal_chern={"x": 1}),
}


@pytest.mark.parametrize("space", MALFORMED_SPACES.values(), ids=MALFORMED_SPACES.keys())
def test_malformed_space_coefficients_exit_2(space):
    # A fresh process: a malformed description must end in an error
    # line, never in a traceback.
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-m", "chowkunneth.cli", "build", "--space", space],
        capture_output=True, text=True, env=env, check=False,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr + proc.stdout


def test_build_bad_inline_json_exits_2(capsys):
    code, _, err = run(capsys, "build", "--space", "{nope")
    assert code == 2 and "error:" in err


def test_diagonal_document_round_trips(capsys, tmp_path):
    out = tmp_path / "delta.json"
    code, text, _ = run(capsys, "diagonal", "--space", P2, "--out", str(out))
    assert code == 0 and "3 terms" in text
    back = serialize.correspondence_from_document(read(out))
    assert back == diagonal(spaces.projective_space(2))


# -- projectors / verify ------------------------------------------------------------


def test_projectors_verify_all_pass(capsys, tmp_path):
    out = tmp_path / "p1.json"
    code, text, _ = run(
        capsys, "projectors", "--space", P1, "--verify", "--out", str(out)
    )
    assert code == 0
    assert "projectors at degrees [0, 1, 2]; remainder at [1]" in text
    assert "16/16 checks passed" in text
    doc = read(out)
    assert doc["report"]["pass"] is True
    assert serialize.projector_set_from_document(doc) == full_projectors(
        spaces.projective_space(1)
    )


def test_verify_round_trip_from_file(capsys, tmp_path):
    out = tmp_path / "set.json"
    run(capsys, "projectors", "--space", P2, "--out", str(out))
    report = tmp_path / "report.json"
    code, text, _ = run(capsys, "verify", str(out), "--out", str(report))
    assert code == 0
    assert text.strip().endswith("checks passed")
    assert read(report)["pass"] is True


def test_verify_scaled_member_fails_idempotence(capsys, tmp_path):
    out = tmp_path / "set.json"
    run(capsys, "projectors", "--space", P1, "--out", str(out))
    doc = read(out)
    for entry in doc["projectors"]:
        if entry["index"] == 0:
            entry["terms"] = [[lx, ly, "2"] for lx, ly, _ in entry["terms"]]
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(doc), encoding="utf-8")
    report = tmp_path / "report.json"
    code, text, _ = run(capsys, "verify", str(broken), "--out", str(report))
    assert code == 1
    assert "FAIL idempotence [0]" in text
    assert "  residual: (2) h x 1" in text
    assert read(report)["pass"] is False


def test_verify_missing_member_fails_completeness(capsys, tmp_path):
    out = tmp_path / "set.json"
    run(capsys, "projectors", "--space", P2, "--out", str(out))
    doc = read(out)
    doc["projectors"] = [p for p in doc["projectors"] if p["index"] != 4]
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(doc), encoding="utf-8")
    code, text, _ = run(capsys, "verify", str(broken))
    assert code == 1
    assert "FAIL completeness" in text
    assert "FAIL idempotence" not in text


def test_projectors_degenerate_pairing_named_check(capsys, tmp_path):
    space = json.dumps(
        {
            "kind": "ci_model",
            "ambient": {"kind": "projective_space", "n": 3},
            "fundamental_class_expr": {"h": "2"},
            "middle_rank": 2,
            "middle_pairing": [["1", "1"], ["1", "1"]],
        }
    )
    report = tmp_path / "report.json"
    code, text, _ = run(
        capsys, "projectors", "--space", space, "--verify", "--out", str(report)
    )
    assert code == 1
    assert "FAIL pairing_nondegeneracy" in text
    doc = read(report)
    assert doc["pass"] is False
    assert doc["checks"][0]["check"] == "pairing_nondegeneracy"
    assert "singular" in doc["checks"][0]["detail"]


def test_verify_rejects_non_projector_document(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"foo": 1}', encoding="utf-8")
    code, _, err = run(capsys, "verify", str(bad))
    assert code == 2 and "error:" in err


def test_verify_missing_file_exits_2(capsys, tmp_path):
    code, _, err = run(capsys, "verify", str(tmp_path / "absent.json"))
    assert code == 2 and "error:" in err


def test_verify_lifted_family_prints_class_residuals(capsys, tmp_path):
    family = tmp_path / "family.json"
    run(capsys, "lift", "--space", P2, "--weights", "0,1,3", "--bound", "8",
        "--out", str(family))
    doc = read(family)
    for entry in doc["projectors"]:
        if entry["index"] == 2:
            for term in entry["terms"]:
                term[-1] = str(9 * int(term[-1]))
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(doc), encoding="utf-8")
    code, text, _ = run(capsys, "verify", str(broken))
    assert code == 1
    # graded-action rows are classes, idempotence rows correspondences
    assert "FAIL graded_action [2] on h\n  residual: (8) h\n" in text
    assert "  residual: (288) 1 x h t + (72) h x h\n" in text


NON_UTF8 = b"\xff\xfe{}"
DEEP_LIST = "[" * 100_000 + "]" * 100_000
DEEP_OBJECT = '{"a": ' * 100_000 + "1" + "}" * 100_000
# n = 10^5000: 5,001 digits, past json's 4,300-digit limit for integers
HUGE_INTEGER = '{"kind": "projective_space", "n": 1' + "0" * 5000 + "}"


@pytest.mark.parametrize("content", [NON_UTF8, DEEP_LIST.encode(), DEEP_OBJECT.encode(),
                                     HUGE_INTEGER.encode()],
                         ids=["non-UTF-8", "list nested 100000 deep", "object nested 100000 deep",
                              "integer of 5001 digits"])
@pytest.mark.parametrize("argv", [
    ["verify", "DOC"],
    ["build", "--space", "DOC"],
    ["compose", "DOC", "DOC"],
], ids=["verify", "build", "compose"])
def test_unreadable_document_exits_2(capsys, tmp_path, argv, content):
    doc = tmp_path / "bad.json"
    doc.write_bytes(content)
    code, text, err = run(capsys, *[str(doc) if a == "DOC" else a for a in argv])
    assert code == 2 and text == ""
    assert err.startswith(f"error: {doc} is ")


def test_deeply_nested_inline_json_exits_2(capsys, tmp_path):
    code, _, err = run(capsys, "build", "--space", DEEP_OBJECT)
    assert code == 2
    assert err == "error: inline description is nested too deeply to read\n"
    delta = tmp_path / "delta.json"
    run(capsys, "diagonal", "--space", P1, "--out", str(delta))
    code, _, err = run(capsys, "act", str(delta), "--argument", DEEP_OBJECT)
    assert code == 2
    assert err == "error: --argument is nested too deeply to read\n"


def test_huge_integer_literal_exits_2(capsys, tmp_path):
    code, text, err = run(capsys, "build", "--space", HUGE_INTEGER)
    assert code == 2 and text == ""
    assert err.startswith("error: inline description is not readable as JSON: ")
    assert "4300" in err and "\n" == err[-1] and err.count("\n") == 1
    doc = tmp_path / "huge.json"
    doc.write_text(HUGE_INTEGER, encoding="utf-8")
    code, text, err = run(capsys, "build", "--space", str(doc))
    assert code == 2 and text == ""
    assert err.startswith(f"error: {doc} is not readable as JSON: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["projectors", "--space", P1],
        ["verify", "set.json"],
        ["lift", "--space", P1, "--bound", "4"],
        ["restrict", "set.json"],
    ],
)
def test_there_is_no_jobs_flag(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--jobs", "4"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --jobs" in capsys.readouterr().err


# -- compose / act ---------------------------------------------------------------------


def test_compose_diagonal_is_identity(capsys, tmp_path):
    delta = tmp_path / "delta.json"
    run(capsys, "diagonal", "--space", P2, "--out", str(delta))
    out = tmp_path / "composed.json"
    code, text, _ = run(capsys, "compose", str(delta), str(delta), "--out", str(out))
    assert code == 0 and "composed (second after first): 3 terms" in text
    assert serialize.correspondence_from_document(read(out)) == diagonal(
        spaces.projective_space(2)
    )


def test_compose_mismatched_rings_exits_2(capsys, tmp_path):
    d1, d2 = tmp_path / "d1.json", tmp_path / "d2.json"
    run(capsys, "diagonal", "--space", P1, "--out", str(d1))
    run(capsys, "diagonal", "--space", P2, "--out", str(d2))
    code, _, err = run(capsys, "compose", str(d1), str(d2))
    assert code == 2 and "error:" in err


def test_act_with_label_and_json_argument(capsys, tmp_path):
    delta = tmp_path / "delta.json"
    run(capsys, "diagonal", "--space", P2, "--out", str(delta))
    code, text, _ = run(capsys, "act", str(delta), "--argument", "h")
    assert code == 0 and "image in degree 2: (1) h" in text
    gdelta = tmp_path / "gdelta.json"
    run(
        capsys, "diagonal",
        "--space", '{"kind": "grassmannian", "k": 2, "n": 4}',
        "--out", str(gdelta),
    )
    out = tmp_path / "image.json"
    code, text, _ = run(
        capsys, "act", str(gdelta),
        "--argument", '{"s[2]": "2", "s[1,1]": "-1/3"}',
        "--out", str(out),
    )
    assert code == 0
    doc = read(out)
    assert doc["class"] == [["s[1,1]", "-1/3"], ["s[2]", "2"]]


def test_act_unknown_label_exits_2(capsys, tmp_path):
    delta = tmp_path / "delta.json"
    run(capsys, "diagonal", "--space", P2, "--out", str(delta))
    code, _, err = run(capsys, "act", str(delta), "--argument", "zz")
    assert code == 2 and "error:" in err
    code, _, err = run(capsys, "act", str(delta), "--argument", "{}")
    assert code == 2


ACT_ARGUMENTS = {
    "mixed degrees, one coefficient zero": '{"h": 1, "h^2": 0}',
    "unknown label": "zz",
    "unknown label in an object": '{"h": 1, "zz": "2"}',
    "empty object": "{}",
    "float": '{"h": 0.5}',
    "bool": '{"h": true}',
    "division by zero": '{"h": "1/0"}',
    "bare float": "0.5",
    "bare rational string": '"1/0"',
}


@pytest.mark.parametrize("argument", ACT_ARGUMENTS.values(), ids=ACT_ARGUMENTS.keys())
def test_act_reads_its_argument_as_the_library_does(capsys, tmp_path, argument):
    """`--argument` is read by `from_label_dict`, a bare label as
    {label: 1}: each of these exits 2 with the library's message."""
    delta = tmp_path / "delta.json"
    run(capsys, "diagonal", "--space", P2, "--out", str(delta))
    with pytest.raises(InvalidSpec) as exc:
        spaces.projective_space(2).from_label_dict(
            json.loads(argument) if argument.startswith("{") else {argument: 1})
    assert run(capsys, "act", str(delta), "--argument", argument) == (
        2, "", f"error: --argument: {exc.value}\n")


def test_act_zero_coefficients_give_the_degree(capsys, tmp_path):
    delta = tmp_path / "delta.json"
    run(capsys, "diagonal", "--space", P2, "--out", str(delta))
    for argument, degree in (('{"h": "0"}', 2), ('{"h^2": 0}', 4), ('{"1": "0"}', 0)):
        assert run(capsys, "act", str(delta), "--argument", argument) == (
            0, f"image in degree {degree}: 0\n", "")


# -- lift / stabilize --------------------------------------------------------------------


def test_lift_trivial_torus(capsys, tmp_path):
    out = tmp_path / "family.json"
    code, text, _ = run(
        capsys, "lift", "--space", P2, "--bound", "8", "--verify",
        "--out", str(out),
    )
    assert code == 0
    assert "lifted 3 projectors into the bound-8 model" in text
    doc = read(out)
    assert doc["model"]["group"] == {"kind": "multiplicative_torus", "rank": 1}
    assert doc["report"]["pass"] is True


def test_lift_general_linear(capsys, tmp_path):
    code, text, _ = run(
        capsys, "lift", "--space", P2, "--group", "general_linear",
        "--rank", "2", "--bound", "8", "--verify",
    )
    assert code == 0 and "checks passed" in text


def test_lift_weighted_model(capsys, tmp_path):
    out = tmp_path / "family.json"
    code, text, _ = run(
        capsys, "lift", "--space", P1, "--weights", "0,1", "--bound", "8",
        "--verify", "--out", str(out),
    )
    assert code == 0
    doc = read(out)
    assert doc["model"]["weights"] == [0, 1]
    assert doc["report"]["pass"] is True


def test_lift_from_projector_file(capsys, tmp_path):
    pfile = tmp_path / "set.json"
    run(capsys, "projectors", "--space", P2, "--out", str(pfile))
    code, text, _ = run(capsys, "lift", str(pfile), "--bound", "4", "--verify")
    assert code == 0 and "checks passed" in text


def test_lift_argument_validation(capsys, tmp_path):
    pfile = tmp_path / "set.json"
    run(capsys, "projectors", "--space", P1, "--out", str(pfile))
    # both inputs
    code, _, err = run(
        capsys, "lift", str(pfile), "--space", P1, "--bound", "4"
    )
    assert code == 2 and "exactly one" in err
    # neither input
    code, _, _ = run(capsys, "lift", "--bound", "4")
    assert code == 2
    # odd bound
    code, _, _ = run(capsys, "lift", "--space", P1, "--bound", "3")
    assert code == 2
    # weights with the wrong group
    code, _, _ = run(
        capsys, "lift", "--space", P1, "--weights", "0,1",
        "--group", "general_linear", "--bound", "4",
    )
    assert code == 2
    # weight count does not match the base
    code, _, _ = run(
        capsys, "lift", "--space", P2, "--weights", "0,1", "--bound", "4"
    )
    assert code == 2


@pytest.mark.parametrize("flag, value, argv", [
    ("--weights", "0,,1,", ["lift", "--space", P1, "--bound", "4"]),
    ("--degrees", ",3,,", ["formulas", "fano", "--n", "4", "--r", "1"]),
], ids=["lift weights", "fano degrees"])
def test_empty_list_items_exit_2(capsys, flag, value, argv):
    code, text, err = run(capsys, *argv, flag, value)
    assert (code, text) == (2, "")
    assert err == f"error: {flag}: expected comma-separated integers, got {value!r}\n"


# One malformed model per row: the case, its base, group kind and rank, N,
# weights (None: no weights), the field the engine's message names, and the
# text that names the flag in the one error line of `lift`. The flags that
# parse reach the engine and name themselves with their values; the others
# are refused by the argument parser or the --weights reader.
MODEL_CORPUS = [
    ("odd N", P1, "multiplicative_torus", 1, 3, None, "'N'", "--bound 3"),
    ("negative N", P1, "multiplicative_torus", 1, -2, None, "'N'", "--bound -2"),
    ("bool N", P1, "multiplicative_torus", 1, True, None, "'N'",
     "argument --bound: invalid int value: 'true'"),
    ("string N", P1, "multiplicative_torus", 1, "4", None, "'N'",
     "argument --bound: invalid int value: '\"4\"'"),
    ("rank 0", P1, "multiplicative_torus", 0, 4, None, "'rank'", "--rank 0"),
    ("bool rank", P1, "general_linear", True, 4, None, "'rank'",
     "argument --rank: invalid int value: 'true'"),
    ("unknown kind", P1, "special_orthogonal", 2, 4, None, "'kind'",
     "argument --group: invalid choice: 'special_orthogonal'"),
    ("empty weights", P1, "multiplicative_torus", 1, 4, [], "'weights'",
     "--weights: expected comma-separated integers, got ''"),
    ("string weight", P1, "multiplicative_torus", 1, 4, [0, "1"], "'weights'",
     "--weights: expected comma-separated integers, got '0,\"1\"'"),
    ("bool weight", P1, "multiplicative_torus", 1, 4, [0, True], "'weights'",
     "--weights: expected comma-separated integers, got '0,true'"),
    ("fractional weight", P1, "multiplicative_torus", 1, 4, [0, 1.5], "'weights'",
     "--weights: expected comma-separated integers, got '0,1.5'"),
    ("weights with GL(1)", P1, "general_linear", 1, 4, [0, 1], "'weights'",
     "--group general_linear --rank 1 --bound 4 --weights 0,1"),
    ("weights with a rank-2 torus", P1, "multiplicative_torus", 2, 4, [0, 1], "'weights'",
     "--rank 2 --bound 4 --weights 0,1"),
    ("two weights on P^2", P2, "multiplicative_torus", 1, 4, [0, 1], "'weights'",
     "--weights 0,1"),
    # this model once built, its pairing one-exponent monomials in a
    # two-generator parameter ring
    ("two weights on G(2,4) under GL(3)", '{"kind": "grassmannian", "k": 2, "n": 4}',
     "general_linear", 3, 4, [1, 2], "'weights'", "--rank 3 --bound 4 --weights 1,2"),
]


def _flag_text(value):
    """A value as flag text: an int as itself, anything else as JSON,
    which no integer flag parses."""
    is_int = isinstance(value, int) and not isinstance(value, bool)
    return str(value) if is_int else json.dumps(value)


def test_weighted_model_checks_match_the_document_reader(capsys, tmp_path):
    from chowkunneth.equivariant import EquivariantModel, GroupSpec

    family = tmp_path / "family.json"
    assert run(capsys, "lift", "--space", P1, "--bound", "4", "--out", str(family))[0] == 0
    good = read(family)
    for case, space, kind, rank, N, weights, field, named in MODEL_CORPUS:
        base = spaces.build_space(json.loads(space))
        with pytest.raises(InvalidSpec) as exc:
            EquivariantModel(base, GroupSpec(kind, rank), N, weights)
        message = str(exc.value)
        assert message.startswith(field), case

        # a family document: one error line, ending in the engine's message
        model = {"base": json.loads(space), "group": {"kind": kind, "rank": rank}, "N": N}
        if weights is not None:
            model["weights"] = weights
        doc = tmp_path / f"{case}.json"
        doc.write_text(json.dumps({**good, "model": model}), encoding="utf-8")
        code, text, err = run(capsys, "verify", str(doc))
        assert (code, text) == (2, ""), case
        assert err.startswith(f"error: {doc}: model: ") and err.endswith(f": {message}\n"), case
        assert err.count("\n") == 1, case

        # the `lift` flags: one error line naming the flag
        argv = ["lift", "--space", space, "--group", kind, "--rank", _flag_text(rank),
                "--bound", _flag_text(N)]
        if weights is not None:
            argv += ["--weights", ",".join(_flag_text(w) for w in weights)]
        try:
            code, text, err = run(capsys, *argv)
        except SystemExit as parser_exit:
            code, (text, err) = parser_exit.code, capsys.readouterr()
        errors = [line for line in err.splitlines() if "error:" in line]
        assert (code, text) == (2, "") and len(errors) == 1, (case, err)
        assert named in errors[0], (case, err)
        if ":" not in named:  # the flags reached the engine
            assert err == f"{errors[0]}\n" and errors[0].endswith(f": {message}"), (case, err)


def test_stabilize_pass(capsys, tmp_path):
    report = tmp_path / "report.json"
    code, text, _ = run(
        capsys, "stabilize", "--space", P1, "--degrees", "4",
        "--n1", "6", "--n2", "10", "--out", str(report),
    )
    assert code == 0
    assert "PASS stabilization [4, 6, 10]" in text
    doc = read(report)
    assert doc == {
        "pass": True,
        "checks": [
            {"check": "stabilization", "indices": [4, 6, 10], "pass": True}
        ],
    }


def test_stabilize_scaled_member_exits_1(capsys, monkeypatch):
    def scaled(ring):
        P = full_projectors(ring)
        projs = dict(P.projectors)
        projs[2] = projs[2].scale(3)
        return ProjectorSet(ring, projs, complete=P.complete)

    monkeypatch.setattr(kunneth, "full_projectors", scaled)
    code, text, _ = run(
        capsys, "stabilize", "--space", P2, "--degrees", "4", "--n1", "6",
        "--n2", "10",
    )
    assert code == 1
    assert "FAIL stabilization [4, 6, 10]" in text


def test_stabilize_bound_validation(capsys):
    code, _, err = run(
        capsys, "stabilize", "--space", P1, "--degrees", "8", "--n1", "6",
        "--n2", "10",
    )
    assert code == 2 and "error:" in err
    code, _, _ = run(
        capsys, "stabilize", "--space", P1, "--degrees", "4", "--n1", "7",
        "--n2", "9",
    )
    assert code == 2


# -- restrict ---------------------------------------------------------------------------------


def test_restrict_family_to_base(capsys, tmp_path):
    family = tmp_path / "family.json"
    run(
        capsys, "lift", "--space", P1, "--weights", "0,1", "--bound", "8",
        "--out", str(family),
    )
    out = tmp_path / "restricted.json"
    code, text, _ = run(
        capsys, "restrict", str(family), "--verify", "--out", str(out)
    )
    assert code == 0
    assert "restricted the family along parameters -> 0" in text
    back = serialize.projector_set_from_document(read(out))
    assert back == full_projectors(spaces.projective_space(1))


def test_restrict_kills_primitive_middle(capsys, tmp_path):
    space = json.dumps(
        {
            "kind": "ci_model",
            "ambient": {"kind": "projective_space", "n": 3},
            "fundamental_class_expr": {"h": "3"},
            "middle_rank": 7,
        }
    )
    pfile = tmp_path / "cubic.json"
    run(capsys, "projectors", "--space", space, "--out", str(pfile))
    out = tmp_path / "restricted.json"
    code, text, _ = run(
        capsys, "restrict", str(pfile), "--verify", "--out", str(out)
    )
    assert code == 0
    assert "transported the set along the primitive-middle-killing surjection" in text
    back = serialize.projector_set_from_document(read(out))
    assert back.complete
    X = spaces.hypersurface_model(3, 3, 7)
    target, _ = spaces.kill_primitive_middle(X)
    assert back.ring is target


def test_restrict_without_primitives_is_identity(capsys, tmp_path):
    pfile = tmp_path / "set.json"
    run(capsys, "projectors", "--space", P3, "--out", str(pfile))
    out = tmp_path / "restricted.json"
    code, _, _ = run(capsys, "restrict", str(pfile), "--verify", "--out", str(out))
    assert code == 0
    back = serialize.projector_set_from_document(read(out))
    assert back == full_projectors(spaces.projective_space(3))


@pytest.mark.parametrize("command", ["verify", "restrict"])
def test_member_index_out_of_range_exits_2(capsys, tmp_path, command):
    family = tmp_path / "family.json"
    run(capsys, "lift", "--space", P2, "--weights", "0,1,3", "--bound", "8",
        "--out", str(family))
    doc = read(family)
    doc["projectors"].append({"index": 99, "terms": []})
    family.write_text(json.dumps(doc), encoding="utf-8")
    code, text, err = run(capsys, command, str(family))
    assert code == 2
    assert text == ""
    assert err.startswith("error: ") and "index 99 outside [0, 4]" in err
    assert "Traceback" not in err


def drop_member_4(doc):
    doc["projectors"] = [m for m in doc["projectors"] if m["index"] != 4]


MALFORMED_SETS = {
    "complete as a string": (
        lambda doc: (drop_member_4(doc), doc.update(complete="false")),
        "'complete' must be true or false",
    ),
    "complete as an integer": (
        lambda doc: doc.update(complete=1), "'complete' must be true or false"
    ),
    "remainder index not a member": (
        lambda doc: doc.update(remainder_indices=[99]),
        "remainder index 99 is not a member index",
    ),
}


@pytest.mark.parametrize("command", ["verify", "restrict"])
@pytest.mark.parametrize("case", MALFORMED_SETS.values(), ids=MALFORMED_SETS.keys())
def test_malformed_set_claims_exit_2(capsys, tmp_path, command, case):
    tamper, message = case
    path = tmp_path / "set.json"
    run(capsys, "projectors", "--space", P2, "--out", str(path))
    doc = read(path)
    tamper(doc)
    path.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "out.json"
    code, text, err = run(capsys, command, str(path), "--out", str(out))
    assert code == 2
    assert text == "" and not out.exists()
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err


# (index of member 0, complete, remainder_indices) of the set of P1, whose
# members sit at indices 0, 1 and 2, and the one message its constructor,
# its document and `verify FILE` give for it.
SET_INPUTS = {
    "index a float": ((0.5, False, []), "'index' must be an integer, got 0.5"),
    "index a bool": ((True, False, []), "'index' must be an integer, got True"),
    "index a string": (("0", False, []), "'index' must be an integer, got '0'"),
    "index out of range": ((5, False, []), "index 5 outside [0, 2]"),
    "complete a string": ((0, "no", []), "'complete' must be true or false"),
    "complete an integer": ((0, 1, []), "'complete' must be true or false"),
    "remainder a float": ((0, False, [2.7]),
                          "each of 'remainder_indices' must be an integer, got 2.7"),
    "remainder a bool": ((0, False, [True]),
                         "each of 'remainder_indices' must be an integer, got True"),
    "remainder not a member": ((0, False, [3]), "remainder index 3 is not a member index"),
}


@pytest.mark.parametrize("case", SET_INPUTS.values(), ids=SET_INPUTS.keys())
def test_set_inputs_give_one_message_everywhere(capsys, tmp_path, case):
    """`ProjectorSet` checks its inputs, and the document reader passes
    them through: a library call, a document and `verify FILE` (exit 2)
    give one InvalidSpec message."""
    (index, complete, remainder), message = case
    P = full_projectors(spaces.projective_space(1))
    with pytest.raises(InvalidSpec) as raised:
        ProjectorSet(P.ring, {index if i == 0 else i: p for i, p in P.projectors.items()},
                     complete=complete, remainder_indices=remainder)
    assert str(raised.value) == message
    doc = serialize.projector_set_document(P)
    doc["projectors"][0]["index"] = index
    doc.update(complete=complete, remainder_indices=remainder)
    with pytest.raises(InvalidSpec) as raised:
        serialize.projector_set_from_document(doc)
    assert str(raised.value) == f"projector set: {message}"
    path = tmp_path / "set.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert run(capsys, "verify", str(path)) == (2, "", f"error: {path}: {message}\n")


# -- formulas ----------------------------------------------------------------------------------


def test_formulas_fano(capsys, tmp_path):
    out = tmp_path / "fano.json"
    code, text, _ = run(
        capsys, "formulas", "fano", "--n", "3", "--degrees", "3", "--r", "1",
        "--out", str(out),
    )
    assert code == 0 and "delta = 0" in text
    assert read(out)["value"] == 0
    code, text, _ = run(
        capsys, "formulas", "fano", "--n", "4", "--degrees", "5", "--r", "1"
    )
    assert code == 0 and "delta = 0" in text


def test_formulas_fano_warning(capsys, tmp_path):
    out = tmp_path / "fano.json"
    code, text, _ = run(
        capsys, "formulas", "fano", "--n", "4", "--degrees", "3", "--r", "1",
        "--out", str(out),
    )
    assert code == 0
    assert "delta = 1" in text
    assert "warning" in text
    doc = read(out)
    assert doc["value"] == 1 and len(doc["notes"]) == 1


def test_formulas_rep(capsys):
    code, text, _ = run(capsys, "formulas", "rep", "--g", "2", "--n", "2")
    assert code == 0 and "dimension = 13" in text
    code, text, _ = run(capsys, "formulas", "rep", "--g", "1", "--n", "3")
    assert code == 0 and "dimension = 12" in text


def test_formulas_barth(capsys):
    code, text, _ = run(capsys, "formulas", "barth", "--n", "6", "--d", "4")
    assert code == 0 and "range = 2" in text


def test_formulas_invalid_input_exits_2(capsys):
    code, _, err = run(capsys, "formulas", "barth", "--n", "3", "--d", "4")
    assert code == 2 and "error:" in err
    code, _, _ = run(capsys, "formulas", "rep", "--g", "0", "--n", "2")
    assert code == 2
    code, _, _ = run(
        capsys, "formulas", "fano", "--n", "3", "--degrees", "x", "--r", "1"
    )
    assert code == 2


@pytest.mark.parametrize("argv, message", [
    (("fano", "--n", "3", "--degrees", "3", "--r", "-1"), "fano_delta requires 0 <= r <= n"),
    (("fano", "--n", "-1", "--degrees", "3", "--r", "0"), "fano_delta requires 0 <= r <= n"),
    (("fano", "--n", "2", "--degrees", "3", "--r", "3"), "fano_delta requires 0 <= r <= n"),
    (("barth", "--n", "2", "--d", "-5"), "barth_range requires 0 <= d <= n"),
])
def test_formulas_out_of_range_exit_2_without_traceback(capsys, tmp_path, argv, message):
    out = tmp_path / "formula.json"
    code, text, err = run(capsys, "formulas", *argv, "--out", str(out))
    assert code == 2 and text == "" and not out.exists()
    assert err == f"error: {message}\n"

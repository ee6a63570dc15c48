"""The package surface and what each command loads.

`import chowkunneth` loads no engine module: a public name is looked up
in its submodule when used. Each CLI command imports the modules it
runs, so the closed-form formulas start without the ring engine and an
ordinary projector set is built without the equivariant models or the
Schubert calculus.
"""

import json
import os
import subprocess
import sys
from importlib import import_module

import pytest

import chowkunneth
from chowkunneth import cli, kunneth
from chowkunneth.equivariant import GroupSpec

SRC = os.path.dirname(os.path.dirname(chowkunneth.__file__))
P2 = json.dumps({"kind": "projective_space", "n": 2})
CURVES = json.dumps({"kind": "plane_curve_family", "d": 3})

# Runs one command in this process and records its exit code and the
# package modules loaded by the time it ended.
PROBE = """
import json, sys
from chowkunneth import cli
try:
    code = cli.main(sys.argv[2:])
except SystemExit as exc:
    code = exc.code
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "chowkunneth")
with open(sys.argv[1], "w", encoding="utf-8") as handle:
    json.dump({"code": code, "loaded": loaded}, handle)
"""

FORMULAS_ONLY = {"chowkunneth", "chowkunneth.cli", "chowkunneth.errors", "chowkunneth.formulas"}


def probe(tmp_path, *argv):
    record = tmp_path / "loaded.json"
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, str(record), *argv],
        cwd=tmp_path, capture_output=True, text=True, env=env, check=False,
    )
    assert record.exists(), proc.stderr
    out = json.loads(record.read_text(encoding="utf-8"))
    return out["code"], set(out["loaded"])


# -- what each command loads ---------------------------------------------------


@pytest.mark.parametrize("argv", [
    ("formulas", "rep", "--g", "2", "--n", "2"),
    ("formulas", "fano", "--n", "4", "--degrees", "3", "--r", "1"),
    ("--help",),
], ids=["formulas rep", "formulas fano", "help"])
def test_formulas_and_help_load_no_engine(tmp_path, argv):
    code, loaded = probe(tmp_path, *argv)
    assert code == 0
    assert loaded <= FORMULAS_ONLY, sorted(loaded - FORMULAS_ONLY)


def test_ordinary_projectors_load_no_equivariant_or_schubert(tmp_path):
    code, loaded = probe(tmp_path, "projectors", "--space", CURVES, "--verify",
                         "--out", "curves.json")
    assert code == 0
    assert "chowkunneth.kunneth" in loaded
    assert not loaded & {"chowkunneth.equivariant", "chowkunneth.schubert"}


def test_lift_and_restrict_load_what_they_run(tmp_path):
    code, loaded = probe(tmp_path, "lift", "--space", P2, "--weights", "0,1,3",
                         "--bound", "8", "--verify", "--out", "family.json")
    assert code == 0 and "chowkunneth.equivariant" in loaded
    code, loaded = probe(tmp_path, "restrict", "family.json", "--verify")
    assert code == 0 and "chowkunneth.equivariant" in loaded
    code, _ = probe(tmp_path, "projectors", "--space", P2, "--out", "set.json")
    assert code == 0
    code, _ = probe(tmp_path, "restrict", "set.json", "--verify")
    assert code == 0


# -- the lazy package surface ----------------------------------------------------


def test_every_public_name_is_its_submodules_object():
    for name in chowkunneth.__all__:
        obj = getattr(chowkunneth, name)
        if name == "__version__":
            assert obj == "0.1.0"
        elif name in ("schubert", "serialize"):
            assert obj is import_module(f"chowkunneth.{name}")
        else:
            home = sys.modules[obj.__module__]
            assert home.__name__.startswith("chowkunneth."), name
            assert getattr(home, name) is obj, name


def test_star_import_and_dir_list_the_public_names():
    namespace = {}
    exec("from chowkunneth import *", namespace)
    assert set(chowkunneth.__all__) <= set(namespace)
    assert set(chowkunneth.__all__) <= set(dir(chowkunneth))
    assert len(set(chowkunneth.__all__)) == len(chowkunneth.__all__)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'chowkunneth' has no attribute 'no_such_name'"):
        chowkunneth.no_such_name
    assert not hasattr(chowkunneth, "no_such_name")


def test_a_patched_submodule_name_is_what_the_package_gives(monkeypatch):
    original = kunneth.verify_ck

    def replacement(P):
        return original(P)

    monkeypatch.setattr(kunneth, "verify_ck", replacement)
    assert chowkunneth.verify_ck is replacement
    monkeypatch.undo()
    assert chowkunneth.verify_ck is original


def test_formulas_keep_their_old_homes():
    from chowkunneth import formulas, spaces

    for name in ("fano_delta", "fano_delta_notes", "rep_variety_dim", "barth_range"):
        assert getattr(spaces, name) is getattr(formulas, name)
        assert getattr(chowkunneth, name) is getattr(formulas, name)


# -- group kinds -------------------------------------------------------------------


def test_cli_group_choices_are_the_group_kinds(capsys):
    assert cli._GROUP_KINDS == GroupSpec.KINDS
    with pytest.raises(SystemExit) as exc:
        cli.main(["lift", "--space", P2, "--group", "nope", "--bound", "4"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(
        "argument --group: invalid choice: 'nope' "
        "(choose from 'multiplicative_torus', 'general_linear')\n"
    )

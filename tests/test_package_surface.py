"""The package surface and what each command loads.

`import chowkunneth` loads no engine module: a public name is looked up
in its submodule when used. Each CLI command imports the modules it
runs, so the closed-form formulas start without the ring engine (with
`--out`, only the document writer joins them) and an ordinary projector set is built without the equivariant models or the
Schubert calculus.
"""

import ast
import json
import os
import re
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import chowkunneth
from chowkunneth import cli, kunneth
from chowkunneth.equivariant import GroupSpec

SRC = os.path.dirname(os.path.dirname(chowkunneth.__file__))
ROOT = Path(SRC).parent
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


def test_formulas_document_loads_serialize_without_the_engine(tmp_path):
    code, loaded = probe(tmp_path, "formulas", "rep", "--g", "2", "--n", "2",
                         "--out", "r.json")
    assert code == 0
    assert loaded == FORMULAS_ONLY | {"chowkunneth.serialize"}
    assert json.loads((tmp_path / "r.json").read_text(encoding="utf-8"))["value"] == 13


def test_every_serialize_name_resolves():
    from chowkunneth import serialize

    for name in serialize.__all__:
        assert callable(getattr(serialize, name)), name


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
    # The names after the first were public until they were deleted.
    for name in ("no_such_name", "MotiveObject", "remainder_projector",
                 "PreconditionViolated", "PairingMatrix", "tensor_class",
                 "algebraic_projectors", "coevaluation_projector", "hypersurface_projectors",
                 "failing_checks", "from_pair", "transpose"):
        with pytest.raises(AttributeError, match=f"'chowkunneth' has no attribute '{name}'"):
            getattr(chowkunneth, name)
        assert not hasattr(chowkunneth, name)


def _names_used(node):
    """The names a node refers to: a name, an attribute, an imported
    name, or each part of a dotted string."""
    if isinstance(node, ast.Name):
        return (node.id,)
    if isinstance(node, ast.Attribute):
        return (node.attr,)
    if isinstance(node, ast.alias):
        return (node.name.rpartition(".")[2],)
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        if re.fullmatch(r"[\w.]+", node.value):
            return tuple(node.value.split("."))
    return ()


# Public names that nothing calls yet, each with the roadmap item that
# gives it its caller. An excepted name's own uses count, so the helpers
# it alone calls (`exterior_product`) are not reported with it, and the
# guard fails once it has a use, so no exception outlives its reason.
AWAITING_A_CALLER = {"product_projectors": "ROADMAP item 2"}


def _unused_public_names(public, uses, excepted, home):
    """The public names with no use and not in `excepted`. `uses` holds
    (module, top-level definition or None, name used); `home(name)` is
    the module that defines a public name. A use inside the definition
    of the name itself, or of a public name that is itself unused, does
    not count: a class and the helpers that alone build it are unused
    together."""
    unused = set()
    while True:
        dead = {(home(name), name) for name in unused}
        used = {name for module, owner, name in uses
                if (module, owner) not in dead and (module, owner) != (home(name), name)}
        grown = public - used - excepted
        if grown == unused:
            return unused
        unused = grown


def test_every_public_name_has_a_use_outside_the_tests():
    """Each public name is used by a package module other than
    `__init__` or by the benchmark, save the names of
    `AWAITING_A_CALLER`, which must still have no use."""
    modules = [p for p in sorted((ROOT / "src" / "chowkunneth").glob("*.py"))
               if p.name != "__init__.py"] + sorted((ROOT / "perfbench").glob("*.py"))
    uses = set()  # (module, top-level definition or None, name used)
    for path in modules:
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = getattr(top, "name", None)
            for node in ast.walk(top):
                uses.update((path.stem, owner, name) for name in _names_used(node))

    def home(name):
        return chowkunneth._HOME_OF.get(name, "").rpartition(".")[2]

    public = {name for name in chowkunneth.__all__ if not name.startswith("__")}
    excepted = set(AWAITING_A_CALLER)
    unused = _unused_public_names(public, uses, excepted, home)
    assert not unused, "no use outside the tests: " + ", ".join(sorted(unused))
    called = excepted - _unused_public_names(public, uses, set(), home)
    assert not called, "has a use now, drop its exception: " + ", ".join(sorted(called))


def test_the_surface_guard_finds_names_only_unused_names_use():
    # Motive is a class that only refers to itself, twist a function that
    # only Motive calls, unit a function that only calls itself: all
    # three are unused. Diagonal is used by another module; point has no
    # use, whatever a document says of it.
    uses = {("m", "Motive", "Motive"), ("m", "Motive", "twist"), ("m", "unit", "unit"),
            ("k", "build", "diagonal"), ("k", None, "build")}
    public = {"Motive", "twist", "unit", "diagonal", "point"}
    found = _unused_public_names(public, uses, set(), lambda name: "m")
    assert found == {"Motive", "twist", "unit", "point"}
    # an excepted name is not reported, and the names it uses count as used
    assert _unused_public_names(public, uses, {"Motive"}, lambda name: "m") == {"unit", "point"}
    uses.add(("k", "build", "twist"))
    assert _unused_public_names(public, uses, set(), lambda name: "m") == {
        "Motive", "unit", "point"}
    nodes = ast.parse("import a.b as c\nx.motive_of('k.diagonal', 'not a name')").body
    assert {n for top in nodes for node in ast.walk(top) for n in _names_used(node)} >= {
        "b", "x", "motive_of", "k", "diagonal"}


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

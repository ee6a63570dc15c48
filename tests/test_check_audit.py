"""Falsifiability audit: every check name the command line can print has
a negative control that fails it.

A control is a command line that exits 1 where some input makes the
check fail; otherwise raw tables handed to `run_ring_checks`, or a
tampered set handed to `stabilization_check`. Each control returns the
distinct failing check names in report order. Ring construction stops
at its first failure, so its report names that one check. A
verification report runs every check, and a member that is not
idempotent, or not orthogonal to another, also acts wrongly on some
class; there the named check must be the first that fails.
"""

import json
from fractions import Fraction

import pytest

from chowkunneth import cli, spaces
from chowkunneth.equivariant import stabilization_check, torus_group
from chowkunneth.errors import NonLefschetzRange
from chowkunneth.graded_ring import (
    CHECK_NAMES,
    GradedBasisRing,
    _integer_table,
    run_ring_checks,
)
from chowkunneth.kunneth import ProjectorSet, full_projectors, verify_ck
from ring_oracles import failing_checks

P2 = {"kind": "projective_space", "n": 2}
P3 = {"kind": "projective_space", "n": 3}
VERIFY_CHECKS = ("idempotence", "orthogonality", "completeness", "graded_action")
PRINTABLE = (*CHECK_NAMES, NonLefschetzRange.check, *VERIFY_CHECKS, "stabilization")


def _cli(tmp_path, *argv):
    report = tmp_path / "report.json"
    assert cli.main([*argv, "--out", str(report)]) == 1
    return failing_checks(json.loads(report.read_text(encoding="utf-8"))["checks"])


def _build(spec):
    return lambda tmp_path: _cli(tmp_path, "build", "--space", json.dumps(spec))


def _verify(tamper):
    """`verify` of the P^2 projector set after `tamper` edits its
    members, given as {index: list of [label, label, coefficient]}."""
    def control(tmp_path):
        path = tmp_path / "set.json"
        assert cli.main(["projectors", "--space", json.dumps(P2), "--out", str(path)]) == 0
        doc = json.loads(path.read_text(encoding="utf-8"))
        members = {entry["index"]: entry["terms"] for entry in doc["projectors"]}
        tamper(members)
        doc["projectors"] = [{"index": i, "terms": t} for i, t in sorted(members.items())]
        path.write_text(json.dumps(doc), encoding="utf-8")
        return _cli(tmp_path, "verify", str(path))
    return control


def _raw(dim, basis, products, integration):
    """`run_ring_checks` on a table with a unit in position 0 and the
    given products of positive-degree classes; the control keeps its
    data as `raw`."""
    structure = {(0, i): {i: 1} for i in range(len(basis))}
    structure.update({(i, 0): {i: 1} for i in range(len(basis))})
    structure.update(products)

    def control(tmp_path):
        return [name for name, ok, _ in run_ring_checks(dim, basis, structure, integration)
                if not ok]
    control.raw = dim, basis, structure, integration
    return control


def _scale_member_2(members):
    members[2] = [[a, b, str(3 * Fraction(c))] for a, b, c in members[2]]


def _swap_members_0_and_4(members):
    members[0], members[4] = members[4], members[0]


def _stabilization(tmp_path):
    ring = spaces.projective_space(2)
    P = full_projectors(ring)
    members = dict(P.projectors)
    members[2] = members[2].scale(3)
    tampered = ProjectorSet(ring, members, complete=P.complete)
    return [] if stabilization_check(ring, torus_group(1), tampered, 4, 6, 10) else [
        "stabilization"]


PLANE = [("1", 0), ("h", 2), ("h^2", 4)]

CONTROLS = {
    "basis_shape": _raw(2, [("1", 0), ("h", 2), ("h", 4)], {(1, 1): {2: 1}}, {2: 1}),
    # h*h lands in degree 2
    "grading": _raw(2, PLANE, {(1, 1): {1: 1}}, {2: 1}),
    # 1*h = 2h
    "unit": _raw(2, PLANE, {(0, 1): {1: 2}, (1, 1): {2: 1}}, {2: 1}),
    # odd classes a, b of a curve with b*a = a*b
    "graded_commutativity": _raw(1, [("1", 0), ("a", 1), ("b", 1), ("pt", 2)],
                                 {(1, 2): {3: 1}, (2, 1): {3: 1}}, {3: 1}),
    # (x*x)*y = X*y = 0 while x*(x*y) = x*Y = t
    "associativity": _raw(
        3, [("1", 0), ("x", 2), ("y", 2), ("X", 4), ("Y", 4), ("t", 6)],
        {(1, 1): {3: 1}, (1, 2): {4: 1}, (2, 1): {4: 1}, (1, 4): {5: 1}, (4, 1): {5: 1}},
        {5: 1}),
    "integration_support": _raw(2, PLANE, {(1, 1): {2: 1}}, {1: 1, 2: 1}),
    "pairing_nondegeneracy": _build({
        "kind": "ci_model", "ambient": P3, "fundamental_class_expr": {"h": "3"},
        "middle_rank": 2, "middle_pairing": [["1", "1"], ["1", "1"]],
    }),
    "lefschetz_range": _build({
        "kind": "ci_model",
        "ambient": {"kind": "product", "factors": [{"kind": "projective_space", "n": 1}, P2]},
        "fundamental_class_expr": {"h # 1": "1"}, "middle_rank": 0,
    }),
    "idempotence": _verify(_scale_member_2),
    # the member at index 2 is the one at index 0
    "orthogonality": _verify(lambda members: members.update({2: members[0]})),
    "completeness": _verify(lambda members: members.pop(4)),
    "graded_action": _verify(_swap_members_0_and_4),
    "stabilization": _stabilization,
}


@pytest.mark.parametrize("name", PRINTABLE)
def test_every_printable_check_has_a_control_that_fails_it(name, tmp_path):
    assert set(CONTROLS) == set(PRINTABLE), "the controls and the check names differ"
    report = verify_ck(full_projectors(spaces.projective_space(2)))
    assert {entry["check"] for entry in report} == set(VERIFY_CHECKS)
    failed = CONTROLS[name](tmp_path)
    assert failed[:1] == [name], failed
    if name not in ("idempotence", "orthogonality"):
        assert failed == [name]


@pytest.mark.parametrize("name", [name for name in CHECK_NAMES if hasattr(CONTROLS[name], "raw")])
def test_raw_controls_fail_alike_on_integer_tables(name):
    """A raw control's table over `Fraction`s and on integer numerators,
    as a ring stores it, fails the same check with the same detail."""
    dim, basis, structure, integration = CONTROLS[name].raw
    fraction = {ij: {k: Fraction(c) for k, c in p.items()} for ij, p in structure.items()}
    rational = list(run_ring_checks(dim, basis, fraction, integration))
    integer = list(run_ring_checks(dim, basis, _integer_table(fraction), integration))
    assert rational == integer
    assert rational[-1][:2] == (name, False)


def test_a_table_with_an_explicit_zero_gets_one_verdict():
    """1·h = h + 0·h^2 on P^2: the raw checks pass all seven axioms, and
    the ring built from the same table is P^2."""
    basis = (("1", 0), ("h", 2), ("h^2", 4))
    structure = {(0, 0): {0: 1}, (0, 1): {1: 1, 2: 0}, (0, 2): {2: 1},
                 (1, 0): {1: 1}, (1, 1): {2: 1}, (2, 0): {2: 1}}
    integration = {2: Fraction(1)}
    verdicts = list(run_ring_checks(2, basis, structure, integration))
    assert [(name, ok) for name, ok, _ in verdicts] == [(name, True) for name in CHECK_NAMES]
    assert GradedBasisRing(2, basis, structure, integration) == spaces.projective_space(2)

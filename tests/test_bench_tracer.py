"""The benchmark's tracer still reaches the spans it times.

`perfbench/tracer.py` wraps module functions by name and a few methods
on their classes, and `perfbench/run.py --trace 1` fails a run whose
expected spans stay at zero. These tests run the same wrappers over one
ordinary and one lifted verification, over the curve ladder's commands
and over the library session's set-up and operations, so a refactor
that moves a traced function or method shows up here instead of only in
a traced benchmark run.
"""

import importlib
import json
import os
import random
import sys

from chowkunneth import spaces
from chowkunneth.equivariant import (
    equivariant_projective_torus,
    lift_projectors,
    torus_group,
    verify_equivariant,
)
from chowkunneth.kunneth import full_projectors, report_passes, verify_ck

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")

SPANS = (
    "kunneth.verify_ck",
    "correspondences.compose",
    "correspondences.act",
    "equivariant.compose",
    "equivariant.act",
    "equivariant.pair_poly",
    "equivariant.lift_projectors",
    "equivariant.verify_equivariant",
)


def _perfbench(name):
    """Import a module of perfbench/ without writing bytecode there."""
    sys.path.insert(0, PERFBENCH)
    keep, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(PERFBENCH)
        sys.dont_write_bytecode = keep


def test_tracer_reaches_the_verification_spans():
    """Passing reports decide the graded action without acting, so the
    action spans are reached through tampered sets, whose failing
    entries act to build their residuals."""
    t = _perfbench("tracer").Tracer().install()
    try:
        # Through the module attributes, which the tracer replaced.
        from chowkunneth import equivariant, kunneth

        X = spaces.product_space(spaces.projective_space(1), spaces.projective_space(2))
        P = kunneth.full_projectors(X)
        assert report_passes(kunneth.verify_ck(P))
        tampered = kunneth.ProjectorSet(X, {**P.projectors, 2: P.member(2).scale(3)})
        assert not report_passes(kunneth.verify_ck(tampered))
        M = equivariant_projective_torus((1, 2, -1, 4), 8)
        F = equivariant.lift_projectors(
            full_projectors(M.base), torus_group(1), 8, model=M
        )
        assert report_passes(equivariant.verify_equivariant(F))
        tampered = equivariant.EquivariantProjectorFamily(
            M, {**F.projectors, 2: F.member(2).scale(3)})
        assert not report_passes(equivariant.verify_equivariant(tampered))
    finally:
        t.uninstall()
    missing = [span for span in SPANS if not t.calls[span]]
    assert not missing, f"spans never reached: {missing}"
    assert t.coverage_errors == []
    # Uninstalling put the originals back.
    assert kunneth.verify_ck is verify_ck
    assert equivariant.lift_projectors is lift_projectors
    assert equivariant.verify_equivariant is verify_equivariant


def test_tracer_reaches_the_curve_ladder_spans(tmp_path, monkeypatch, capsys):
    """The ladder's commands on a curve family and a hypersurface, from an
    empty ring cache: products, ci_models, documents and restriction."""
    expected = _perfbench("run").EXPECTED_SPANS["curve_family_ladder"]
    monkeypatch.setattr(spaces, "_CACHE", {})
    curves = json.dumps({"kind": "plane_curve_family", "d": 3})
    cubic = json.dumps({"kind": "ci_model", "ambient": {"kind": "projective_space", "n": 3},
                        "fundamental_class_expr": {"h": "3"}, "middle_rank": 6})
    t = _perfbench("tracer").Tracer().install()
    try:
        from chowkunneth import cli

        for name, spec in (("curves", curves), ("cubic", cubic)):
            path = str(tmp_path / f"{name}.json")
            assert cli.main(["projectors", "--space", spec, "--verify", "--out", path]) == 0
        assert cli.main(["restrict", path, "--verify"]) == 0
    finally:
        t.uninstall()
    capsys.readouterr()
    missing = [span for span in expected if not t.calls[span]]
    assert not missing, f"spans never reached: {missing}"
    assert t.coverage_errors == []


def test_tracer_reaches_the_session_spans(tmp_path, monkeypatch):
    """The session's set-up and one pass of its operations, from an empty
    ring cache: Schubert tables, ring checks, projectors, weighted and
    trivial lifts with their verification, documents and restriction."""
    expected = _perfbench("run").EXPECTED_SPANS["equivariant_session"]
    monkeypatch.setattr(spaces, "_CACHE", {})
    session = _perfbench("session")
    t = _perfbench("tracer").Tracer().install()
    try:
        workload = session.SessionWorkload(str(tmp_path), random.Random(1), t)
        for _, step in workload.setup_steps(True):
            step()
        for _, run_op, check in workload.operations(True):
            check(run_op())
    finally:
        t.uninstall()
    missing = [span for span in expected if not t.calls[span]]
    assert not missing, f"spans never reached: {missing}"
    assert t.coverage_errors == []


def test_set_up_counts_the_rings_it_validates(tmp_path, monkeypatch):
    """A traced session set-up from an empty ring cache validates each of
    its 21 rings once, and `structure_nonzeros` sums the nonzero entries
    of their tables: the counters read what the rings hold."""
    monkeypatch.setattr(spaces, "_CACHE", {})
    session = _perfbench("session")
    t = _perfbench("tracer").Tracer().install()
    try:
        workload = session.SessionWorkload(str(tmp_path), random.Random(1), t)
        for _, step in workload.setup_steps(True):
            step()
    finally:
        t.uninstall()
    rings = {id(ring): ring for ring in spaces._CACHE.values()}.values()
    held = sum(len(p) for ring in rings for p in ring._table.values())
    assert (t.counters["rings_validated"], t.counters["structure_nonzeros"]) == (21, 2715)
    assert (len(rings), held) == (21, 2715)


def test_tracer_times_every_ring_check_by_its_name():
    """The tracer names its `graded_ring.check.*.s` metrics from its own
    list of the ring checks; it must be the one the checks run under, or
    a renamed or added check is timed under a counter no metric reads."""
    from chowkunneth.graded_ring import CHECK_NAMES

    assert _perfbench("tracer").CHECK_NAMES == CHECK_NAMES

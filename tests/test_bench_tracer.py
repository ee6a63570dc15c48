"""The benchmark's tracer still reaches the spans it times.

`perfbench/tracer.py` wraps module functions by name and a few methods
on their classes, and `perfbench/run.py --trace 1` fails a run whose
expected spans stay at zero. This test runs the same wrappers over one
ordinary and one lifted verification, so a refactor that moves a traced
function or method shows up here instead of only in a traced benchmark
run.
"""

import os
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


def test_tracer_reaches_the_verification_spans():
    sys.path.insert(0, PERFBENCH)
    keep, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        import tracer
    finally:
        sys.path.remove(PERFBENCH)
        sys.dont_write_bytecode = keep
    t = tracer.Tracer().install()
    try:
        # Through the module attributes, which the tracer replaced.
        from chowkunneth import equivariant, kunneth

        X = spaces.product_space(spaces.projective_space(1), spaces.projective_space(2))
        assert report_passes(kunneth.verify_ck(kunneth.full_projectors(X)))
        M = equivariant_projective_torus((1, 2, -1, 4), 8)
        F = equivariant.lift_projectors(
            full_projectors(M.base), torus_group(1), 8, model=M
        )
        assert report_passes(equivariant.verify_equivariant(F))
    finally:
        t.uninstall()
    missing = [span for span in SPANS if not t.calls[span]]
    assert not missing, f"spans never reached: {missing}"
    assert t.coverage_errors == []
    # Uninstalling put the originals back.
    assert kunneth.verify_ck is verify_ck
    assert equivariant.lift_projectors is lift_projectors
    assert equivariant.verify_equivariant is verify_equivariant

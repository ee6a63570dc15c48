"""Exact projector decompositions of the diagonal for spaces whose
cohomology is given by finite rational tables.

The package builds graded basis rings with exact structure constants,
runs the calculus of degree-shifted correspondences between them,
constructs graded projector decompositions of the diagonal class
(its components by target degree, or products of the factors' sets),
verifies idempotence / orthogonality / completeness / graded action
with zero tolerance, lifts decompositions into truncated
parameter-ring models of group actions, and transports them along the
supported ring surjections. A batch command-line front end mirrors
the library surface.
"""

import sys
from importlib import import_module

__version__ = "0.1.0"

# Each public name and the submodule that defines it. A name resolves on
# first use, so `import chowkunneth` loads no engine module.
_HOMES = {
    "errors": (
        "ChowKunnethError", "DegeneratePairing", "IncompleteInput", "InvalidSpec",
        "NonLefschetzRange", "NotIdempotent", "NotRingMap", "OddRankObstruction",
        "RingAxiomError", "RingMismatch", "SizeLimitExceeded", "UnsupportedAction",
    ),
    "graded_ring": (
        "ClassVector", "GradedBasisRing", "RingMap", "tensor_ring",
    ),
    "spaces": (
        "blowup", "build_space", "ci_model", "grassmannian", "hypersurface_model",
        "kill_primitive_middle", "plane_curve_family", "product_space",
        "projective_space",
    ),
    "formulas": (
        "barth_range", "fano_delta", "fano_delta_notes", "rep_variety_dim",
    ),
    "correspondences": (
        "CorrespondenceClass", "act", "compose", "diagonal", "exterior_product",
        "map_correspondence", "zero_correspondence",
    ),
    "kunneth": (
        "ProjectorSet", "full_projectors", "gram_schmidt_orthogonalize",
        "product_projectors", "report_passes", "verify_ck",
    ),
    "equivariant": (
        "EquivariantCorrespondence", "EquivariantModel", "EquivariantProjectorFamily",
        "GroupSpec", "TruncatedPolyRing", "bg_ring", "bottom_weight_restriction",
        "compare_lifted_coefficients", "equivariant_projective_torus",
        "equivariant_trivial_action", "general_linear_group", "lift_projectors",
        "stabilization_check", "torus_group", "verify_equivariant",
    ),
}
_SUBMODULES = ("schubert", "serialize")
_HOME_OF = {name: f"{__name__}.{module}" for module, names in _HOMES.items() for name in names}

__all__ = [*_HOME_OF, *_SUBMODULES, "__version__"]


def __getattr__(name):
    """The public object `name`, looked up in its submodule on every
    access: nothing is cached here, so an attribute patched on the
    submodule is what the package gives."""
    path = _HOME_OF.get(name)
    if path is not None:
        return getattr(sys.modules.get(path) or import_module(path), name)
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})

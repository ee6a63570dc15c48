"""Exact JSON forms for rings, correspondences, projector sets,
equivariant models and families, and verification reports.

Every rational coefficient is written as a canonical lowest-terms
string ("p/q", or just "p" when the denominator is 1), documents are
emitted with sorted keys, two-space indentation and a trailing
newline, and readers rebuild values that compare equal to what was
written, so identical inputs always produce byte-identical files.

Rings serialize as the space description they were built from;
correspondences as (source, target, degree_shift) plus a list of
(label, label, coefficient) term triples; projector sets as the space
plus one indexed member per projector; equivariant models as
{base, group, N, weights?}; equivariant families as the model plus
indexed members whose terms carry a parameter-monomial label.
"""

import json
from fractions import Fraction

from .correspondences import CorrespondenceClass
from .equivariant import (
    EquivariantCorrespondence,
    EquivariantModel,
    EquivariantProjectorFamily,
    GroupSpec,
    equivariant_projective_torus,
    equivariant_trivial_action,
)
from .errors import InvalidSpec
from .kunneth import ProjectorSet
from .spaces import build_space, parse_fraction

__all__ = [
    "fraction_str",
    "parse_fraction",
    "space_document",
    "load_space",
    "correspondence_document",
    "correspondence_from_document",
    "projector_set_document",
    "projector_set_from_document",
    "group_document",
    "group_from_document",
    "model_document",
    "model_from_document",
    "family_document",
    "family_from_document",
    "dumps",
    "write_document",
    "read_document",
]


# -- rational coefficients -----------------------------------------------------


def fraction_str(value):
    """Canonical lowest-terms string form: "p/q", or "p" when q = 1."""
    return str(Fraction(value))


# -- documents on disk ---------------------------------------------------------


def dumps(doc):
    """Deterministic text form of a document (sorted keys, trailing
    newline)."""
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def write_document(path, doc):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps(doc))


def read_document(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise InvalidSpec(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidSpec(f"{path} is not well-formed JSON: {exc}") from exc


def _require(doc, field, where):
    if not isinstance(doc, dict):
        raise InvalidSpec(f"{where}: expected an object, got {type(doc).__name__}")
    if field not in doc:
        raise InvalidSpec(f"{where}: missing field {field!r}")
    return doc[field]


def _require_index(value, where):
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidSpec(f"{where}: expected an integer index, got {value!r}")
    return value


# -- spaces --------------------------------------------------------------------


def space_document(ring):
    """The build description of a ring. Product rings assembled
    directly from factor rings recover a product description from the
    factors."""
    if isinstance(ring.space, dict):
        return json.loads(json.dumps(ring.space))
    factors = getattr(ring, "tensor_factors", None)
    if factors:
        return {"kind": "product", "factors": [space_document(f) for f in factors]}
    raise InvalidSpec("this ring carries no serializable build description")


def load_space(doc):
    return build_space(doc)


# -- correspondences -----------------------------------------------------------


def _label_index(ring):
    return {label: i for i, (label, _) in enumerate(ring.basis)}


def _terms_to_correspondence(source, target, shift, raw_terms, where):
    if not isinstance(raw_terms, list):
        raise InvalidSpec(f"{where}: 'terms' must be a list of [label, label, coeff]")
    by_label_src = _label_index(source)
    by_label_tgt = _label_index(target)
    terms = {}
    for k, item in enumerate(raw_terms):
        if not isinstance(item, list) or len(item) != 3:
            raise InvalidSpec(f"{where}: term {k} must be [label, label, coeff]")
        lx, ly, c = item
        if lx not in by_label_src:
            raise InvalidSpec(f"{where}: term {k}: unknown source class {lx!r}")
        if ly not in by_label_tgt:
            raise InvalidSpec(f"{where}: term {k}: unknown target class {ly!r}")
        key = (by_label_src[lx], by_label_tgt[ly])
        terms[key] = terms.get(key, Fraction(0)) + parse_fraction(
            c, f"{where}: term {k}"
        )
    try:
        return CorrespondenceClass(source, target, shift, terms)
    except ValueError as exc:
        raise InvalidSpec(f"{where}: {exc}") from exc


def correspondence_document(f):
    return {
        "source": space_document(f.source),
        "target": space_document(f.target),
        "degree_shift": f.shift,
        "terms": [[lx, ly, fraction_str(c)] for lx, ly, c in f.label_terms()],
    }


def correspondence_from_document(doc, where="correspondence"):
    source = load_space(_require(doc, "source", where))
    target = load_space(_require(doc, "target", where))
    shift = _require_index(_require(doc, "degree_shift", where), where)
    return _terms_to_correspondence(
        source, target, shift, _require(doc, "terms", where), where
    )


# -- projector sets ------------------------------------------------------------


def projector_set_document(P):
    return {
        "space": space_document(P.ring),
        "complete": bool(P.complete),
        "remainder_indices": sorted(P.remainder_indices),
        "projectors": [
            {
                "index": i,
                "terms": [
                    [lx, ly, fraction_str(c)]
                    for lx, ly, c in P.projectors[i].label_terms()
                ],
            }
            for i in P.indices()
        ],
    }


def projector_set_from_document(doc, where="projector set"):
    ring = load_space(_require(doc, "space", where))
    raw = _require(doc, "projectors", where)
    if not isinstance(raw, list):
        raise InvalidSpec(f"{where}: 'projectors' must be a list")
    members = {}
    for entry in raw:
        i = _require_index(_require(entry, "index", where), f"{where}: 'index'")
        if i in members:
            raise InvalidSpec(f"{where}: duplicate projector index {i}")
        members[i] = _terms_to_correspondence(
            ring, ring, 0,
            _require(entry, "terms", where),
            f"{where}: projector {i}",
        )
    remainder = doc.get("remainder_indices", [])
    if not isinstance(remainder, list) or not all(
        isinstance(r, int) and not isinstance(r, bool) for r in remainder
    ):
        raise InvalidSpec(f"{where}: 'remainder_indices' must be a list of integers")
    try:
        return ProjectorSet(
            ring,
            members,
            complete=bool(doc.get("complete", False)),
            remainder_indices=remainder,
        )
    except ValueError as exc:
        raise InvalidSpec(f"{where}: {exc}") from exc


# -- groups and equivariant models ---------------------------------------------


def group_document(G):
    return {"kind": G.kind, "rank": G.size}


def group_from_document(doc, where="group"):
    kind = _require(doc, "kind", where)
    rank = _require(doc, "rank", where)
    if kind not in GroupSpec.KINDS:
        raise InvalidSpec(f"{where}: unknown group kind {kind!r}")
    if isinstance(rank, bool) or not isinstance(rank, int) or rank < 1:
        raise InvalidSpec(f"{where}: 'rank' must be a positive integer")
    return GroupSpec(kind, rank)


def model_document(model):
    doc = {
        "base": space_document(model.base),
        "group": group_document(model.group),
        "N": model.N,
    }
    if model.kind == "projective_torus":
        doc["weights"] = list(model.weights)
    return doc


def model_from_document(doc, where="equivariant model"):
    base = load_space(_require(doc, "base", where))
    group = group_from_document(_require(doc, "group", where), f"{where}: group")
    N = _require(doc, "N", where)
    if isinstance(N, bool) or not isinstance(N, int) or N < 0 or N % 2:
        raise InvalidSpec(f"{where}: 'N' must be an even integer >= 0")
    weights = doc.get("weights")
    if weights is None:
        return equivariant_trivial_action(base, group, N)
    if not isinstance(weights, list) or not weights or not all(
        isinstance(w, int) and not isinstance(w, bool) for w in weights
    ):
        raise InvalidSpec(f"{where}: 'weights' must be a nonempty list of integers")
    if group != GroupSpec("multiplicative_torus", 1):
        raise InvalidSpec(
            f"{where}: weighted models require a rank-1 multiplicative torus"
        )
    model = equivariant_projective_torus(weights, N)
    if model.base != base:
        raise InvalidSpec(
            f"{where}: {len(weights)} weights act on a projective space of "
            f"dimension {len(weights) - 1}; the 'base' field disagrees"
        )
    return model


# -- equivariant projector families --------------------------------------------


def _mono_index(model):
    return {model.mono_label(m): m for m in model.bg.monomials()}


def _terms_to_equivariant(model, raw_terms, where):
    if not isinstance(raw_terms, list):
        raise InvalidSpec(
            f"{where}: 'terms' must be a list of [label, label, monomial, coeff]"
        )
    by_label = _label_index(model.base)
    by_mono = _mono_index(model)
    coeffs = {}
    for k, item in enumerate(raw_terms):
        if not isinstance(item, list) or len(item) != 4:
            raise InvalidSpec(
                f"{where}: term {k} must be [label, label, monomial, coeff]"
            )
        lx, ly, mono, c = item
        if lx not in by_label:
            raise InvalidSpec(f"{where}: term {k}: unknown source class {lx!r}")
        if ly not in by_label:
            raise InvalidSpec(f"{where}: term {k}: unknown target class {ly!r}")
        if mono not in by_mono:
            raise InvalidSpec(
                f"{where}: term {k}: unknown parameter monomial {mono!r}"
            )
        key = (by_label[lx], by_label[ly], by_mono[mono])
        coeffs[key] = coeffs.get(key, Fraction(0)) + parse_fraction(
            c, f"{where}: term {k}"
        )
    try:
        return EquivariantCorrespondence(model, 0, coeffs)
    except ValueError as exc:
        raise InvalidSpec(f"{where}: {exc}") from exc


def family_document(F):
    return {
        "model": model_document(F.model),
        "complete": bool(F.complete),
        "remainder_indices": sorted(F.remainder_indices),
        "projectors": [
            {
                "index": i,
                "terms": [
                    [lx, ly, mono, fraction_str(c)]
                    for lx, ly, mono, c in F.projectors[i].label_terms()
                ],
            }
            for i in F.indices()
        ],
    }


def family_from_document(doc, where="equivariant projector family"):
    model = model_from_document(_require(doc, "model", where), f"{where}: model")
    raw = _require(doc, "projectors", where)
    if not isinstance(raw, list):
        raise InvalidSpec(f"{where}: 'projectors' must be a list")
    members = {}
    for entry in raw:
        i = _require_index(_require(entry, "index", where), f"{where}: 'index'")
        if i in members:
            raise InvalidSpec(f"{where}: duplicate projector index {i}")
        members[i] = _terms_to_equivariant(
            model, _require(entry, "terms", where), f"{where}: projector {i}"
        )
    remainder = doc.get("remainder_indices", [])
    if not isinstance(remainder, list) or not all(
        isinstance(r, int) and not isinstance(r, bool) for r in remainder
    ):
        raise InvalidSpec(f"{where}: 'remainder_indices' must be a list of integers")
    try:
        return EquivariantProjectorFamily(
            model,
            members,
            complete=bool(doc.get("complete", False)),
            remainder_indices=remainder,
        )
    except ValueError as exc:
        raise InvalidSpec(f"{where}: {exc}") from exc

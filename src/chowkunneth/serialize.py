"""Exact JSON forms for rings, correspondences, projector sets,
equivariant models and families, and verification reports.

Every rational coefficient is written as a canonical lowest-terms
string ("p/q", or just "p" when the denominator is 1), documents are
emitted with sorted keys, two-space indentation and a trailing
newline, and readers rebuild values that compare equal to what was
written, so identical inputs always produce byte-identical files.

Rings serialize as the space description they were built from;
correspondences as (source, target, degree_shift) plus a list of
(label, label, coefficient) term triples; equivariant models as
{base, group, N, weights?}. Projector sets and lifted families share
one layout, written and read by one members codec: the space (for a
set) or the model (for a family), the completeness claim, the
remainder indices and one indexed member per projector. A family's
member terms carry a parameter-monomial label before the coefficient.
"""

import json
import sys
from contextlib import contextmanager
from fractions import Fraction
from json.encoder import encode_basestring

from .errors import InvalidSpec, SizeLimitExceeded

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
    """Canonical lowest-terms string form: "p/q", or "p" when q = 1; the
    one writer of a coefficient. One whose numerator or denominator is
    past Python's limit for printing an int (4300 digits) raises
    SizeLimitExceeded."""
    try:
        return str(value if type(value) is Fraction else Fraction(value))
    except ValueError as exc:
        raise SizeLimitExceeded(
            f"a coefficient of more than {sys.get_int_max_str_digits()} digits cannot be written"
        ) from exc


def parse_fraction(value, where="coefficient"):
    """An exact rational from a document or a library argument: an
    integer, a Fraction or a rational string such as "7/3". Floats and
    booleans are rejected, so no coefficient ever passes through binary
    floating point. A string of decimal digits, with at most one leading
    "-", is read by `int`, which gives what `Fraction` would."""
    if isinstance(value, bool) or not isinstance(value, (str, int, Fraction)):
        raise InvalidSpec(f"{where}: expected an exact rational string, got {value!r}")
    if not isinstance(value, str):
        return Fraction(value)
    try:
        if (value[1:] if value[:1] == "-" else value).isdecimal():
            return Fraction(int(value))
        return Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidSpec(f"{where}: bad rational {value!r}") from exc


# -- documents on disk ---------------------------------------------------------


def dumps(doc):
    """Deterministic text form of a document with string keys: the text
    of json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) and
    a trailing newline. json.dumps takes its pure-Python path whenever
    it indents, so the layout is written here and json encodes only the
    scalars."""
    if not (doc and isinstance(doc, (dict, list, tuple))):
        return json.dumps(doc, ensure_ascii=False) + "\n"
    parts = []
    _write(doc, "\n", parts)
    parts.append("\n")
    return "".join(parts)


# JSON text of the scalars documents hold; json.dumps encodes the rest.
_SCALARS = {str: encode_basestring, int: int.__repr__,
            bool: {True: "true", False: "false"}.__getitem__}


def _write(value, newline, parts):
    """Append the text of a nonempty list or object; `newline` is the
    line break and indentation of the lines holding its brackets."""
    inner = newline + "  "
    is_dict = isinstance(value, dict)
    head = "{" if is_dict else "["
    for item in sorted(value) if is_dict else value:
        if is_dict:
            head = f"{head}{inner}{encode_basestring(item)}: "
            item = value[item]
        else:
            head += inner
        encode = _SCALARS.get(type(item))
        if encode is not None:
            parts.append(head + encode(item))
        elif item and isinstance(item, (dict, list, tuple)):
            parts.append(head)
            _write(item, inner, parts)
        else:
            parts.append(head + json.dumps(item, ensure_ascii=False))
        head = ","
    parts.append(newline + ("}" if is_dict else "]"))


def write_document(path, doc):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps(doc))


def read_document(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise InvalidSpec(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InvalidSpec(f"{path} is not UTF-8 text: {exc}") from exc
    return _parse_json(text, path)


def _parse_json(text, what):
    """The JSON value of `text`, the one reader of JSON text: a
    document's or an inline command-line argument's, which `what` names
    in the error."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidSpec(f"{what} is not well-formed JSON: {exc}") from exc
    except ValueError as exc:
        # an integer literal past the interpreter's digit limit
        raise InvalidSpec(f"{what} is not readable as JSON: {exc}") from exc
    except RecursionError as exc:
        raise InvalidSpec(f"{what} is nested too deeply to read") from exc


def _require(doc, field, where):
    if not isinstance(doc, dict):
        raise InvalidSpec(f"{where}: expected an object, got {type(doc).__name__}")
    if field not in doc:
        raise InvalidSpec(f"{where}: missing field {field!r}")
    return doc[field]


@contextmanager
def _prefixed(where):
    """Raise a ValueError from the block, an InvalidSpec included, as an
    InvalidSpec whose message starts with `where`."""
    try:
        yield
    except ValueError as exc:
        raise InvalidSpec(f"{where}: {exc}") from exc


# -- spaces --------------------------------------------------------------------


def space_document(ring):
    """The build description of a ring."""
    if not isinstance(ring.space, dict):
        raise InvalidSpec("this ring carries no serializable build description")
    return json.loads(json.dumps(ring.space))


def load_space(doc):
    from .spaces import build_space

    return build_space(doc)


# -- correspondences -----------------------------------------------------------


def _read_terms(raw_terms, where, columns, make, parsed):
    """A correspondence from [label, ..., coeff] rows. `columns` gives,
    per label position, its name in the row shape, what it names (for
    errors) and its {label: key} lookup; repeated keys are summed and
    `make` builds the result from {key tuple: coefficient}. Each distinct
    coefficient string is parsed once, at its first term, into `parsed`
    {string: value}, which the members of one document share."""
    shape = "[" + ", ".join(name for name, _, _ in columns) + ", coeff]"
    if not isinstance(raw_terms, list):
        raise InvalidSpec(f"{where}: 'terms' must be a list of {shape}")
    width = len(columns) + 1
    terms = {}
    for k, item in enumerate(raw_terms):
        if not isinstance(item, list) or len(item) != width:
            raise InvalidSpec(f"{where}: term {k} must be {shape}")
        key = []
        for label, (_, what, lookup) in zip(item, columns):
            if not isinstance(label, str) or label not in lookup:
                raise InvalidSpec(f"{where}: term {k}: unknown {what} {label!r}")
            key.append(lookup[label])
        key = tuple(key)
        raw = item[-1]
        c = parsed.get(raw) if type(raw) is str else None
        if c is None:
            c = parse_fraction(raw, f"{where}: term {k}")
            if type(raw) is str:
                parsed[raw] = c
        terms[key] = terms[key] + c if key in terms else c
    with _prefixed(where):
        return make(terms)


def _columns(source, target):
    return (
        ("label", "source class", source.label_index),
        ("label", "target class", target.label_index),
    )


def _label_rows(f):
    return [[*labels, fraction_str(c)] for *labels, c in f.label_terms()]


def correspondence_document(f):
    return {
        "source": space_document(f.source),
        "target": space_document(f.target),
        "degree_shift": f.shift,
        "terms": _label_rows(f),
    }


def correspondence_from_document(doc, where="correspondence"):
    from .correspondences import CorrespondenceClass

    source = load_space(_require(doc, "source", where))
    target = load_space(_require(doc, "target", where))
    shift = _require(doc, "degree_shift", where)
    return _read_terms(
        _require(doc, "terms", where), where, _columns(source, target),
        lambda terms: CorrespondenceClass(source, target, shift, terms), {},
    )


# -- projector sets and lifted families ----------------------------------------


def _set_document(head, head_doc, P):
    return {
        head: head_doc,
        "complete": P.complete,
        "remainder_indices": sorted(P.remainder_indices),
        "projectors": [
            {"index": i, "terms": _label_rows(P.projectors[i])} for i in P.indices()
        ],
    }


def _set_from_document(doc, where, make_set, ring, columns, make_member):
    """The set or family of a document. `make_set` checks every field;
    its index check runs as each member is read, so duplicates are ints."""
    raw = _require(doc, "projectors", where)
    if not isinstance(raw, list):
        raise InvalidSpec(f"{where}: 'projectors' must be a list")
    members, parsed = {}, {}
    for entry in raw:
        i = _require(entry, "index", where)
        with _prefixed(where):
            make_set._index(i, 2 * ring.dim)
        if i in members:
            raise InvalidSpec(f"{where}: duplicate projector index {i}")
        members[i] = _read_terms(
            _require(entry, "terms", where), f"{where}: projector {i}",
            columns, make_member, parsed,
        )
    remainder = doc.get("remainder_indices", [])
    if not isinstance(remainder, list):
        raise InvalidSpec(f"{where}: 'remainder_indices' must be a list, got {remainder!r}")
    with _prefixed(where):
        return make_set(ring, members, complete=doc.get("complete", False),
                        remainder_indices=remainder)


def projector_set_document(P):
    return _set_document("space", space_document(P.ring), P)


def projector_set_from_document(doc, where="projector set"):
    from .correspondences import CorrespondenceClass
    from .kunneth import ProjectorSet

    ring = load_space(_require(doc, "space", where))
    return _set_from_document(
        doc, where, ProjectorSet, ring, _columns(ring, ring),
        lambda terms: CorrespondenceClass(ring, ring, 0, terms),
    )


# -- groups and equivariant models ---------------------------------------------


def group_document(G):
    return {"kind": G.kind, "rank": G.size}


def group_from_document(doc, where="group"):
    from .equivariant import GroupSpec

    kind, rank = _require(doc, "kind", where), _require(doc, "rank", where)
    with _prefixed(where):
        return GroupSpec(kind, rank)


def model_document(model):
    doc = {
        "base": space_document(model.base),
        "group": group_document(model.group),
        "N": model.N,
    }
    if model.weights is not None:
        doc["weights"] = list(model.weights)
    return doc


def model_from_document(doc, where="equivariant model"):
    """The model of {base, group, N, weights?}; `EquivariantModel`
    checks the bound and the weighted contract."""
    from .equivariant import EquivariantModel

    base = load_space(_require(doc, "base", where))
    group = group_from_document(_require(doc, "group", where), f"{where}: group")
    N = _require(doc, "N", where)
    with _prefixed(where):
        return EquivariantModel(base, group, N, doc.get("weights"))


def family_document(F):
    return _set_document("model", model_document(F.model), F)


def family_from_document(doc, where="equivariant projector family"):
    from .equivariant import EquivariantCorrespondence, EquivariantProjectorFamily

    model = model_from_document(_require(doc, "model", where), f"{where}: model")
    bg = model.bg
    monomials = {bg.mono_label(m): m for m in bg.monomials()}
    columns = _columns(model.base, model.base) + (
        ("monomial", "parameter monomial", monomials),
    )
    return _set_from_document(
        doc, where, EquivariantProjectorFamily, model, columns,
        lambda terms: EquivariantCorrespondence(model, 0, terms),
    )

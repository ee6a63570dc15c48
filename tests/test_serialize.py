"""Exact JSON round trips for every document shape."""

import ast
import collections
import json
from fractions import Fraction
from pathlib import Path

import pytest

from chowkunneth import serialize, spaces
from chowkunneth.correspondences import diagonal
from chowkunneth.equivariant import (
    equivariant_projective_torus,
    equivariant_trivial_action,
    general_linear_group,
    lift_projectors,
    torus_group,
)
from chowkunneth.errors import InvalidSpec
from chowkunneth.kunneth import full_projectors
from chowkunneth.serialize import (
    correspondence_document,
    correspondence_from_document,
    dumps,
    family_document,
    family_from_document,
    fraction_str,
    group_document,
    group_from_document,
    load_space,
    model_document,
    model_from_document,
    parse_fraction,
    projector_set_document,
    projector_set_from_document,
    read_document,
    space_document,
    write_document,
)
from ring_oracles import pure_tensor


# -- rational coefficients ------------------------------------------------------


def test_fraction_strings():
    assert fraction_str(Fraction(3)) == "3"
    assert fraction_str(Fraction(-1, 2)) == "-1/2"
    assert parse_fraction("7/3") == Fraction(7, 3)
    assert parse_fraction(5) == Fraction(5)
    assert parse_fraction("-2") == Fraction(-2)


def test_fraction_parse_rejects_junk():
    for bad in ("abc", "1/0", 1.5, True, None, ""):
        with pytest.raises(InvalidSpec):
            parse_fraction(bad)


EDGE_STRINGS = ("0", "7", "-7", "007", "-0", "+7", " 7", "7 ", "1_000", "١٢", "-١٢", "²",
                "1/2", "-4/6", "1.5", "1e3", "", "-", "--1", "-+1", "nan", "inf", "9" * 5000)


@pytest.mark.parametrize("text", EDGE_STRINGS, ids=[repr(s[:12]) for s in EDGE_STRINGS])
def test_integer_strings_parse_as_fraction_does(text):
    """Decimal-digit strings are read by `int`, everything else by
    `Fraction`: either way the value, or the refusal and its message,
    is what `Fraction(text)` gives."""
    try:
        want = Fraction(text)
    except (ValueError, ZeroDivisionError):
        with pytest.raises(InvalidSpec) as caught:
            parse_fraction(text, "term 3")
        assert str(caught.value) == f"term 3: bad rational {text!r}"
    else:
        got = parse_fraction(text)
        assert type(got) is Fraction and got == want


# -- document plumbing ------------------------------------------------------------


def test_dumps_is_deterministic():
    doc = {"b": [1, 2], "a": {"y": "2", "x": "1/2"}}
    text = dumps(doc)
    assert text == dumps(json.loads(text))
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')


class Label(str):
    pass


class Index(int):
    pass


def json_indent(doc):
    """The text `dumps` must produce: json's own indented encoder."""
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


SYNTHETIC = [
    {"floats": [1.5, -0.0, 1e300, 2.5e-8, float("nan"), float("inf"), -float("inf")]},
    {"ℙ²": "h × 1", "é": ["ü", "\u2028", "\x00\t\n\"\\"], "": "empty key"},
    {"empty": [[], {}, "", 0, [[]], [{}], {"a": []}, {"b": {}}]},
    {"flags": [True, False, None, 0, 1, -7, 10**30], "pass": True, "x": None},
    ([1, ("a", (2.0, False))], {"t": ()}),
    [[[[[[[[[[{"deep": [[[[["end"]]]]]}]]]]]]]]]],
    {"z": 1, "a": 2, "M": 3, "10": 4, "9": 5},
    {"subclasses": [Label("ℙ¹"), Index(3), collections.OrderedDict(b=1, a=[Label("é")])]},
    "scalar", 3, 2.5, True, None, [], {}, (),
]


@pytest.mark.parametrize("doc", SYNTHETIC, ids=range(len(SYNTHETIC)))
def test_dumps_matches_json_on_synthetic_values(doc):
    assert dumps(doc) == json_indent(doc)


def test_dumps_matches_json_on_the_golden_corpus(tmp_path):
    from test_golden_outputs import run_corpus

    run_corpus(tmp_path)
    paths = sorted(tmp_path.glob("*.json"))
    assert len(paths) > 30
    for path in paths:
        doc = json.loads(path.read_text(encoding="utf-8"))
        assert dumps(doc) == json_indent(doc), path.name


def test_file_round_trip(tmp_path):
    path = tmp_path / "doc.json"
    doc = {"kind": "projective_space", "n": 2}
    write_document(path, doc)
    assert read_document(path) == doc


def test_read_document_errors(tmp_path):
    with pytest.raises(InvalidSpec):
        read_document(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(InvalidSpec):
        read_document(bad)


# -- spaces --------------------------------------------------------------------------


def test_space_documents_round_trip():
    descriptions = [
        {"kind": "projective_space", "n": 3},
        {"kind": "grassmannian", "k": 2, "n": 4},
        {
            "kind": "product",
            "factors": [
                {"kind": "projective_space", "n": 1},
                {"kind": "projective_space", "n": 2},
            ],
        },
        {"kind": "plane_curve_family", "d": 3},
    ]
    for desc in descriptions:
        ring = load_space(desc)
        doc = space_document(ring)
        assert load_space(doc) is ring, desc
        assert dumps(doc) == dumps(space_document(load_space(doc)))


def test_space_document_from_derived_product():
    from chowkunneth.graded_ring import tensor_ring

    P1 = spaces.projective_space(1)
    T = tensor_ring((P1, P1))  # built directly, described by its factors
    doc = space_document(T)
    assert doc["kind"] == "product"
    rebuilt = load_space(doc)
    assert rebuilt.betti() == T.betti()


def test_hypersurface_space_document():
    X = spaces.hypersurface_model(3, 3, 7)
    doc = space_document(X)
    assert load_space(doc) is X


# -- correspondences ---------------------------------------------------------------------


def test_correspondence_round_trip():
    G = spaces.grassmannian(2, 4)
    f = diagonal(G)
    doc = correspondence_document(f)
    assert doc["degree_shift"] == 0
    assert correspondence_from_document(doc) == f
    scaled = f.scale(Fraction(-2, 3))
    assert correspondence_from_document(correspondence_document(scaled)) == scaled


def test_correspondence_between_different_rings():
    P1, P2 = spaces.projective_space(1), spaces.projective_space(2)
    f = pure_tensor(P1.point(), P2.basis_class("h"))
    back = correspondence_from_document(correspondence_document(f))
    assert back == f
    assert back.source is P1 and back.target is P2


def test_correspondence_duplicate_terms_are_summed():
    P1 = spaces.projective_space(1)
    doc = {
        "source": {"kind": "projective_space", "n": 1},
        "target": {"kind": "projective_space", "n": 1},
        "degree_shift": 0,
        "terms": [["1", "h", "1"], ["1", "h", "2"], ["h", "1", "-3"]],
    }
    f = correspondence_from_document(doc)
    assert f.label_terms() == [
        ("1", "h", Fraction(3)),
        ("h", "1", Fraction(-3)),
    ]


def test_correspondence_terms_that_cancel_are_dropped():
    doc = {
        "source": {"kind": "projective_space", "n": 1},
        "target": {"kind": "projective_space", "n": 1},
        "degree_shift": 0,
        "terms": [["1", "h", "1/2"], ["h", "1", "1"], ["1", "h", "-1/2"]],
    }
    assert correspondence_from_document(doc).label_terms() == [("h", "1", Fraction(1))]


def test_correspondence_document_errors():
    base = {
        "source": {"kind": "projective_space", "n": 1},
        "target": {"kind": "projective_space", "n": 1},
        "degree_shift": 0,
    }
    for terms in (
        [["nope", "h", "1"]],  # unknown label
        [["1", "h"]],  # not a triple
        [["1", "1", "1"]],  # inhomogeneous
        "h x 1",  # not a list
    ):
        with pytest.raises(InvalidSpec):
            correspondence_from_document({**base, "terms": terms})
    with pytest.raises(InvalidSpec):
        correspondence_from_document({**base})  # terms missing


def test_repeated_coefficient_strings_are_parsed_once(monkeypatch):
    """A coefficient string is parsed at its first term only; other
    values are parsed at every term, so `True` is refused after `1`,
    and a bad string is reported at its first term."""
    base = {
        "source": {"kind": "projective_space", "n": 1},
        "target": {"kind": "projective_space", "n": 1},
        "degree_shift": 0,
    }
    parsed = []

    def counted(value, where="coefficient"):
        parsed.append(value)
        return parse_fraction(value, where)

    monkeypatch.setattr(serialize, "parse_fraction", counted)
    terms = [["1", "h", "1/2"], ["h", "1", "1/2"], ["1", "h", 1], ["h", "1", 1]]
    f = correspondence_from_document({**base, "terms": terms})
    assert f.label_terms() == [("1", "h", Fraction(3, 2)), ("h", "1", Fraction(3, 2))]
    assert parsed == ["1/2", 1, 1]
    with pytest.raises(InvalidSpec, match="term 1: expected an exact rational"):
        correspondence_from_document({**base, "terms": [["1", "h", 1], ["h", "1", True]]})
    for bad in ("x", "1/0"):
        terms = [["1", "h", "1"], ["h", "1", bad], ["1", "h", bad]]
        with pytest.raises(InvalidSpec, match=f"term 1: bad rational '{bad}'"):
            correspondence_from_document({**base, "terms": terms})


def test_a_family_document_parses_each_coefficient_string_once(monkeypatch):
    """The members of one document share the parsed strings: reading a
    weighted family parses each distinct coefficient string once, in
    the order of first appearance, although strings repeat across
    members; a bad string is still reported at its first term."""
    M = equivariant_projective_torus((0, 1, 3, 7), 8)
    F = lift_projectors(full_projectors(M.base), M.group, M.N, model=M)
    doc = family_document(F)
    strings = [row[-1] for member in doc["projectors"] for row in member["terms"]]
    first = list(dict.fromkeys(strings))
    shared = [c for c in first if sum(c in {row[-1] for row in member["terms"]}
                                      for member in doc["projectors"]) > 1]
    assert shared and len(first) < len(strings)
    parsed = []

    def counted(value, where="coefficient"):
        parsed.append(value)
        return parse_fraction(value, where)

    monkeypatch.setattr(serialize, "parse_fraction", counted)
    assert family_from_document(doc) == F
    assert parsed == first
    bad = json.loads(json.dumps(doc))
    later = [member for member in bad["projectors"][1:] if member["terms"]]
    for member in later:
        member["terms"][0][-1] = "x"
    where = f"projector {later[0]['index']}: term 0: bad rational 'x'"
    with pytest.raises(InvalidSpec, match=where):
        family_from_document(bad)


# -- projector sets ------------------------------------------------------------------------


def test_projector_set_round_trip():
    for X in (
        spaces.projective_space(3),
        spaces.grassmannian(2, 4),
        spaces.hypersurface_model(3, 3, 7),
    ):
        P = full_projectors(X)
        doc = projector_set_document(P)
        back = projector_set_from_document(doc)
        assert back == P, X
        assert back.complete == P.complete
        assert back.remainder_indices == P.remainder_indices
        assert dumps(doc) == dumps(projector_set_document(back))


def test_projector_set_reader_tolerates_extra_keys():
    P = full_projectors(spaces.projective_space(1))
    doc = projector_set_document(P)
    doc["report"] = [{"check": "idempotence", "indices": [0], "pass": True}]
    assert projector_set_from_document(doc) == P


def test_projector_set_document_errors():
    P = full_projectors(spaces.projective_space(1))
    doc = projector_set_document(P)
    dup = json.loads(dumps(doc))
    dup["projectors"].append(dup["projectors"][0])
    with pytest.raises(InvalidSpec):
        projector_set_from_document(dup)
    bad_rem = json.loads(dumps(doc))
    bad_rem["remainder_indices"] = "1"
    with pytest.raises(InvalidSpec):
        projector_set_from_document(bad_rem)
    bad_idx = json.loads(dumps(doc))
    bad_idx["projectors"][0]["index"] = 99
    with pytest.raises(InvalidSpec):
        projector_set_from_document(bad_idx)


# -- groups and models ------------------------------------------------------------------------


def test_group_round_trip():
    for G in (torus_group(1), torus_group(3), general_linear_group(2)):
        doc = group_document(G)
        assert group_from_document(doc) == G
    assert group_document(general_linear_group(2)) == {
        "kind": "general_linear",
        "rank": 2,
    }


def test_group_document_errors():
    with pytest.raises(InvalidSpec):
        group_from_document({"kind": "special_orthogonal", "rank": 2})
    with pytest.raises(InvalidSpec):
        group_from_document({"kind": "multiplicative_torus", "rank": 0})
    with pytest.raises(InvalidSpec):
        group_from_document({"kind": "multiplicative_torus"})


def test_trivial_model_round_trip():
    M = equivariant_trivial_action(
        spaces.projective_space(2), general_linear_group(2), 8
    )
    doc = model_document(M)
    assert "weights" not in doc
    assert model_from_document(doc) == M


def test_weighted_model_document_pinned():
    M = equivariant_projective_torus((0, 1), 8)
    doc = model_document(M)
    assert doc == {
        "base": {"kind": "projective_space", "n": 1},
        "group": {"kind": "multiplicative_torus", "rank": 1},
        "N": 8,
        "weights": [0, 1],
    }
    assert model_from_document(doc) == M


def test_model_document_errors():
    good = model_document(equivariant_projective_torus((0, 1), 8))
    odd = dict(good)
    odd["N"] = 7
    with pytest.raises(InvalidSpec):
        model_from_document(odd)
    wrong_base = json.loads(dumps(good))
    wrong_base["base"] = {"kind": "projective_space", "n": 3}
    with pytest.raises(InvalidSpec):
        model_from_document(wrong_base)
    wrong_group = json.loads(dumps(good))
    wrong_group["group"] = {"kind": "multiplicative_torus", "rank": 2}
    with pytest.raises(InvalidSpec):
        model_from_document(wrong_group)


# -- lifted families -----------------------------------------------------------------------------


def test_family_round_trip_weighted():
    M = equivariant_projective_torus((0, 1), 8)
    F = lift_projectors(full_projectors(M.base), torus_group(1), 8, model=M)
    doc = family_document(F)
    back = family_from_document(doc)
    assert back.model == F.model
    assert back.indices() == F.indices()
    for i in F.indices():
        assert back.member(i) == F.member(i)
    assert back.complete == F.complete
    assert back.remainder_indices == F.remainder_indices
    assert dumps(doc) == dumps(family_document(back))


def test_family_round_trip_trivial():
    P = full_projectors(spaces.projective_space(2))
    F = lift_projectors(P, general_linear_group(2), 6)
    back = family_from_document(family_document(F))
    assert back.indices() == F.indices()
    for i in F.indices():
        assert back.member(i) == F.member(i)


def test_family_terms_carry_monomial_labels():
    M = equivariant_projective_torus((0, 1), 8)
    F = lift_projectors(full_projectors(M.base), torus_group(1), 8, model=M)
    doc = family_document(F)
    first = next(p for p in doc["projectors"] if p["index"] == 0)
    assert [t[:3] for t in first["terms"]] == [["1", "1", "t"], ["h", "1", "1"]]


def test_family_document_errors():
    M = equivariant_projective_torus((0, 1), 8)
    F = lift_projectors(full_projectors(M.base), torus_group(1), 8, model=M)
    doc = json.loads(dumps(family_document(F)))
    doc["projectors"][0]["terms"][0][2] = "t^9"  # unknown monomial label
    with pytest.raises(InvalidSpec):
        family_from_document(doc)


def test_member_rows_are_checked_alike_in_sets_and_families():
    # One members codec reads both layouts: an index outside [0, 2 dim]
    # and a label that is not a string (here a list, which cannot even
    # be looked up) are errors in either.
    M = equivariant_projective_torus((0, 1), 8)
    F = lift_projectors(full_projectors(M.base), torus_group(1), 8, model=M)
    docs = (
        (projector_set_from_document, projector_set_document(full_projectors(M.base))),
        (family_from_document, family_document(F)),
    )
    for read, doc in docs:
        for position in range(len(doc["projectors"][0]["terms"][0]) - 1):
            bad = json.loads(dumps(doc))
            bad["projectors"][0]["terms"][0][position] = ["1"]
            with pytest.raises(InvalidSpec, match="unknown"):
                read(bad)
        bad = json.loads(dumps(doc))
        bad["projectors"].append({"index": 99, "terms": []})
        with pytest.raises(InvalidSpec, match=r"index 99 outside \[0, 2\]"):
            read(bad)


# -- the one JSON reader ---------------------------------------------------------------


def json_parse_calls(source):
    """(line, call) for each parse of JSON text: a call of `load` or
    `loads` of the `json` module, by attribute or imported by name."""
    names = {f"json.{name}" for name in ("load", "loads")}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "json":
            names |= {alias.asname or alias.name for alias in node.names
                      if alias.name in ("load", "loads")}
    return [(node.lineno, ast.unparse(node.func)) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and ast.unparse(node.func) in names]


def test_only_serialize_parses_json_text():
    """Documents and inline command-line arguments are read by one
    function of `serialize`, which names the input in its errors."""
    found = [(path.name, *call)
             for path in sorted(Path(serialize.__file__).parent.glob("*.py"))
             if path.name != "serialize.py"
             for call in json_parse_calls(path.read_text(encoding="utf-8"))]
    assert not found


def test_the_json_guard_finds_every_parse():
    source = (
        "import json\n"
        "from json import loads as read, dumps\n"
        "def f(text, handle):\n"
        "    json.loads(text)\n"
        "    json.load(handle)\n"
        "    read(text)\n"
        "    json.dumps(text)\n"
        "    dumps(text)\n"
    )
    assert json_parse_calls(source) == [(4, "json.loads"), (5, "json.load"), (6, "read")]

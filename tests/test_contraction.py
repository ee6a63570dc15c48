"""Composition contracts only the middle classes it meets.

A correspondence pairs its target factor with a middle class the first
time a composition asks for that class (the sources of the class it is
composed with), keeps the row, and records the classes it reached but
was not asked for, so that a later composition that wants one of them
makes its row then. `eager_compose` in `ring_oracles`, which contracts
every class a correspondence reaches, is the oracle: ordinary and
lifted compositions, and the reports built on them, must equal it.
"""

import random

import pytest

from chowkunneth import equivariant, kunneth, spaces
from chowkunneth.correspondences import compose
from chowkunneth.equivariant import (
    EquivariantCorrespondence,
    EquivariantProjectorFamily,
    equivariant_projective_torus,
    general_linear_group,
    lift_projectors,
    torus_group,
    verify_equivariant,
)
from chowkunneth.kunneth import full_projectors, report_passes, verify_ck
from ring_oracles import eager_compose, eager_contraction
from test_acceptance import corpus_rings
from test_table_oracles import random_ordinary


def fresh(f):
    """A class over f's terms with no view built yet."""
    return f._trusted(f.source, f.target, f.shift, f.terms)


def assert_all_pairs_match(members):
    """Every ordered pair composes to the oracle's terms, in that order,
    so each class is asked for classes it skipped before; afterwards
    each class has been asked for every middle class (the members'
    sources cover the basis), so it skips none and keeps the oracle's
    rows."""
    for f in members:
        for g in members:
            got, want = compose(f, g), eager_compose(f, g)
            assert got.shift == want.shift and got.terms == want.terms
    for f in members:
        scale, rows, skipped = f._contracted
        want_scale, want_rows = eager_contraction(f)
        assert not skipped and scale == want_scale
        assert {k: {(i, m): a for (i, m), a in left.items() if a} for k, left in rows.items()} \
            == {k: {(i, m): a for m, i, a in entries} for k, entries in want_rows.items()}


def weighted_family(n, sign, seed=0):
    """The lift of P^n's full set into the model of a rank-one torus
    with the weights 0..n, shuffled by the seed and multiplied by
    `sign`, truncated at N = 4n, as the benchmark session builds it."""
    weights = list(range(n + 1))
    random.Random(seed).shuffle(weights)
    M = equivariant_projective_torus([sign * w for w in weights], 4 * n)
    return lift_projectors(full_projectors(M.base), M.group, 4 * n, model=M)


@pytest.mark.parametrize("sign", [1, -1], ids=["shuffled", "shuffled, negated"])
@pytest.mark.parametrize("n", [8, 12, 20])
def test_weighted_lift_compositions_match_the_eager_contraction(n, sign):
    F = weighted_family(n, sign, seed=n)
    assert_all_pairs_match([fresh(p) for p in F.projectors.values()])


TRIVIAL_LIFTS = {
    "G(3,6)xP1 under T2": (lambda: spaces.product_space(spaces.grassmannian(3, 6),
                                                        spaces.projective_space(1)),
                           torus_group(2)),
    "G(2,4)xG(2,4) under GL2": (lambda: spaces.product_space(spaces.grassmannian(2, 4),
                                                             spaces.grassmannian(2, 4)),
                                general_linear_group(2)),
}


@pytest.mark.parametrize("name", list(TRIVIAL_LIFTS))
def test_trivial_lift_compositions_and_report_match_the_eager_contraction(name, monkeypatch):
    make, group = TRIVIAL_LIFTS[name]
    F = lift_projectors(full_projectors(make()), group, 4)
    assert_all_pairs_match([fresh(p) for p in F.projectors.values()])
    report = verify_equivariant(F)
    monkeypatch.setattr(equivariant, "_compose", eager_compose)
    assert report_passes(report) and report == verify_equivariant(F)


@pytest.mark.parametrize("name", [repr(X) for X in corpus_rings()])
def test_full_set_compositions_and_report_match_the_eager_contraction(name, monkeypatch):
    (X,) = [X for X in corpus_rings() if repr(X) == name]
    P = full_projectors(X)
    assert_all_pairs_match([fresh(p) for p in P.projectors.values()])
    report = verify_ck(full_projectors(X))
    monkeypatch.setattr(kunneth, "compose", eager_compose)
    assert report_passes(report) and report == verify_ck(full_projectors(X))


def test_random_correspondences_on_g24_squared_match_the_eager_contraction():
    X = spaces.product_space(spaces.grassmannian(2, 4), spaces.grassmannian(2, 4))
    rng = random.Random("G(2,4)xG(2,4)")
    fs = [random_ordinary(X, X, rng, 120, shift) for shift in (-1, 0, 0, 1, 2)]
    nonzero = 0
    for f in fs:
        for g in fs:
            got, want = compose(f, g), eager_compose(f, g)
            assert got.shift == want.shift and got.terms == want.terms
            nonzero += bool(got.terms)
    assert nonzero


def test_tampered_lifted_member_matches_the_eager_contraction(monkeypatch):
    """Member 4 of a weighted P8 family gains h^3 x h^5 at the unit
    monomial: its square, its idempotence residual and the report that
    composes its pairs all equal the oracle's."""
    F = weighted_family(8, -1)
    M = F.model
    h3, h5 = M.base.label_index["h^3"], M.base.label_index["h^5"]
    projs = dict(F.projectors)
    projs[4] = projs[4] + EquivariantCorrespondence(M, 0, {(h3, h5, M.bg.unit_mono): 2})
    p = fresh(projs[4])
    square, want = p.compose(p), eager_compose(p, p)
    assert square.terms == want.terms and square != p
    assert (square - p).terms == (want - p).terms
    tampered = EquivariantProjectorFamily(M, projs, complete=True)
    report = verify_equivariant(tampered)
    idempotence = [e for e in report if e["check"] == "idempotence" and not e["pass"]]
    assert [e["indices"] for e in idempotence] == [[4]]
    monkeypatch.setattr(equivariant, "_compose", eager_compose)
    assert report == verify_equivariant(EquivariantProjectorFamily(M, projs, complete=True))


def deferred_runs(f, g1, g2):
    """For both orders of g1 and g2: (classes skipped after the first
    composition, classes skipped after the second), each composition
    checked against the oracle on a class with no view yet."""
    runs = []
    for first, second in ((g1, g2), (g2, g1)):
        h = fresh(f)
        skipped = []
        for g in (first, second):
            got, want = compose(h, g), eager_compose(h, g)
            assert got.shift == want.shift and got.terms == want.terms
            skipped.append(set(h._contracted[2]))
        runs.append(skipped)
    return runs


def test_a_later_composition_makes_the_rows_the_first_skipped():
    # lifted: member 4 of a weighted P8 family, composed with itself
    # and then with member 0, whose sources are every class
    F = weighted_family(8, 1)
    f, g1, g2 = F.member(4), F.member(4), F.member(0)
    (after_g1, after_g2), (after_g2_first, after_both) = deferred_runs(f, g1, g2)
    sources = g2._by_source()[1].keys()
    assert after_g1 & sources and not after_g2 and not after_g2_first and not after_both
    # ordinary: random classes on G(2,4) x G(2,4), g split by source
    X = spaces.product_space(spaces.grassmannian(2, 4), spaces.grassmannian(2, 4))
    rng = random.Random("deferred")
    f, g = random_ordinary(X, X, rng, 120, 0), random_ordinary(X, X, rng, 120, 0)
    half = sorted(g._by_source()[1])[::2]
    g1 = g._with_terms({key: c for key, c in g.terms.items() if key[0] in half})
    g2 = g._with_terms({key: c for key, c in g.terms.items() if key[0] not in half})
    (after_g1, after_g2), (after_g2_first, after_g1_too) = deferred_runs(f, g1, g2)
    assert after_g1 & g2._by_source()[1].keys() and after_g2 < after_g1
    assert after_g2_first & g1._by_source()[1].keys() and after_g1_too < after_g2_first


def test_weighted_p20_report_makes_one_contraction_row_per_member():
    """Member 2m of the weighted P20 lift has the target h^m, which
    pairs with the m + 1 classes h^(20 - m) .. h^20; its idempotence
    composition asks for its sources h^0 .. h^(20 - m), so it makes the
    one row of h^(20 - m): 21 rows with 231 entries, where contracting
    every class reached makes 231 rows with 1,771 entries."""
    F = weighted_family(20, 1)
    assert report_passes(verify_equivariant(F))
    members = list(F.projectors.values())
    views = [p._contracted[1] for p in members]
    assert sum(map(len, views)) == 21
    assert sum(len(left) for rows in views for left in rows.values()) == 231
    eager = [eager_contraction(p)[1] for p in members]
    assert sum(map(len, eager)) == 231
    assert sum(len(entries) for rows in eager for entries in rows.values()) == 1771

"""Projector decompositions: construction, orthogonalization, verification."""

from fractions import Fraction

import pytest

from chowkunneth import spaces
from chowkunneth.correspondences import (
    CorrespondenceClass,
    act,
    compose,
    diagonal,
    zero_correspondence,
)
from chowkunneth.errors import (
    IncompleteInput,
    NotIdempotent,
    OddRankObstruction,
)
from chowkunneth.graded_ring import tensor_ring
from chowkunneth.kunneth import (
    ProjectorSet,
    full_projectors,
    gram_schmidt_orthogonalize,
    product_projectors,
    report_passes,
    verify_ck,
)
from ring_oracles import diagonal_component, failing_checks, pure_tensor, transpose
from test_acceptance import corpus_rings


def cubic_curve():
    return spaces.ci_model(spaces.projective_space(2), {"h": 3}, 2)


def rank_one(ring, w, v):
    """The correspondence w x v; idempotent exactly when <v, w> = 1."""
    terms = {}
    for i, cw in w.coeffs.items():
        for j, cv in v.coeffs.items():
            terms[(i, j)] = cw * cv
    return CorrespondenceClass(ring, ring, 0, terms)


# -- single-degree projectors ---------------------------------------------------


def test_members_on_plane_pinned():
    P = full_projectors(spaces.projective_space(2))
    assert P.member(0).label_terms() == [
        ("h^2", "1", Fraction(1))
    ]
    assert P.member(2).label_terms() == [
        ("h", "h", Fraction(1))
    ]
    assert P.member(4).label_terms() == [
        ("1", "h^2", Fraction(1))
    ]


def test_member_graded_action():
    G = spaces.grassmannian(2, 4)
    pi4 = full_projectors(G).member(4)
    assert pi4.label_terms() == [
        ("s[2]", "s[2]", Fraction(1)),
        ("s[1,1]", "s[1,1]", Fraction(1)),
    ]
    for label, deg in G.basis:
        v = G.basis_class(label)
        want = v if deg == 4 else G.zero(deg)
        assert act(pi4, v) == want


# -- full decompositions -----------------------------------------------------------


def test_point_ring_projector_set():
    pt = spaces.projective_space(0)
    P = full_projectors(pt)
    assert P.indices() == (0,)
    assert P.member(0).label_terms() == [("1", "1", Fraction(1))]
    assert report_passes(verify_ck(P))


def test_full_projectors_shape():
    P3 = spaces.projective_space(3)
    P = full_projectors(P3)
    # rank-0 degrees away from the middle carry no member
    assert P.indices() == (0, 2, 3, 4, 6)
    assert P.complete and P.remainder_indices == frozenset({3})
    assert P.member(3).is_zero()  # stored even though the middle is empty
    assert report_passes(verify_ck(P))


def test_full_projectors_middle_member_always_stored():
    P2 = spaces.projective_space(2)
    P = full_projectors(P2)
    assert 2 in P.projectors
    assert P.member(2) == diagonal_component(P2, 2)
    P1 = full_projectors(spaces.projective_space(1))
    assert 1 in P1.projectors and P1.member(1).is_zero()


def test_full_projectors_handle_odd_middle():
    E = cubic_curve()
    P = full_projectors(E)
    assert P.indices() == (0, 1, 2)
    assert P.member(1).label_terms() == [
        ("m1", "m2", Fraction(-1)),
        ("m2", "m1", Fraction(1)),
    ]
    assert report_passes(verify_ck(P))


def test_full_projectors_verify_on_corpus():
    rings = [
        spaces.projective_space(4),
        spaces.grassmannian(2, 4),
        spaces.product_space(
            spaces.projective_space(1), spaces.projective_space(2)
        ),
        spaces.hypersurface_model(3, 3, 7),
        spaces.plane_curve_family(1),
    ]
    for X in rings:
        report = verify_ck(full_projectors(X))
        assert report_passes(report), X


def test_full_projectors_middle_member_is_what_the_others_leave():
    # The members away from the middle are the diagonal's components;
    # the middle one is the diagonal minus all of them. Each takes its
    # terms as they stand, so none may hold a zero coefficient.
    for X in (cubic_curve(), spaces.hypersurface_model(3, 3, 7), spaces.plane_curve_family(1),
              *corpus_rings()):
        P = full_projectors(X)
        rest = diagonal(X)
        for i in P.indices():
            assert all(P.member(i).terms.values()), (X, i)
            if i != X.dim:
                assert P.member(i) == diagonal_component(X, i), (X, i)
                rest = rest - P.member(i)
        assert P.member(X.dim) == rest, X


def test_projector_set_validation():
    P2 = spaces.projective_space(2)
    with pytest.raises(ValueError):
        ProjectorSet(P2, {7: diagonal_component(P2, 0)})
    with pytest.raises(ValueError):
        ProjectorSet(P2, {0: pure_tensor(P2.point(), P2.basis_class("h"))})


def test_cubic_surface_middle_projector_action():
    X = spaces.hypersurface_model(3, 3, 7)
    P = full_projectors(X)
    rem = P.member(2)
    assert X.rank(2) == 8
    for label, deg in X.basis:
        v = X.basis_class(label)
        want = v if deg == 2 else X.zero(deg)
        assert act(rem, v) == want


# -- hypersurface sets ------------------------------------------------------------------


def test_hypersurface_set_closed_form_pinned():
    P = full_projectors(spaces.hypersurface_model(3, 3, 7))
    X = P.ring
    # degree-0 projector: (1/3) H^2 x 1, with H^2 = 3 * point
    assert P.member(0).label_terms() == [("1*", "1", Fraction(1))]
    assert act(P.member(0), X.unit()) == X.unit()
    assert P.remainder_indices == frozenset({2})
    report = verify_ck(P)
    assert report_passes(report)


def test_hypersurface_remainder_orthogonal_and_idempotent():
    for n, d, r in [(3, 2, 1), (3, 3, 7), (4, 2, 0)]:
        P = full_projectors(spaces.hypersurface_model(n, d, r))
        mid = P.ring.dim
        rem = P.member(mid)
        assert compose(rem, rem) == rem, (n, d, r)
        for i in P.indices():
            if i != mid:
                assert compose(rem, P.member(i)).is_zero()
                assert compose(P.member(i), rem).is_zero()


def test_hypersurface_sets_make_no_composition(monkeypatch):
    from chowkunneth import kunneth

    calls = []
    inner = kunneth.compose

    def counted(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(kunneth, "compose", counted)
    for n, d, r in [(3, 3, 7), (4, 3, 10), (4, 2, 0), (5, 2, 1)]:
        full_projectors(spaces.hypersurface_model(n, d, r))
    assert calls == []


def test_quadric_threefold_middle_is_zero_but_stored():
    P = full_projectors(spaces.hypersurface_model(4, 2, 0))
    assert 3 in P.projectors and P.member(3).is_zero()
    assert P.complete and report_passes(verify_ck(P))


# -- products ----------------------------------------------------------------------------


def test_product_projectors_require_complete_factors():
    P1, P2 = spaces.projective_space(1), spaces.projective_space(2)
    partial = ProjectorSet(P2, {p: diagonal_component(P2, p) for p in (0, 4)})
    with pytest.raises(IncompleteInput):
        product_projectors(partial, full_projectors(P1))
    with pytest.raises(IncompleteInput):
        product_projectors(full_projectors(P1), partial)


def test_product_with_point_recovers_factor():
    P1 = spaces.projective_space(1)
    pt = spaces.projective_space(0)
    PP = product_projectors(full_projectors(P1), full_projectors(pt))
    base = full_projectors(P1)
    # zero middle sums are omitted from the product set
    assert PP.indices() == (0, 2)
    for i in PP.indices():
        assert PP.member(i).terms == base.member(i).terms


def test_product_of_lines_pinned():
    P1 = spaces.projective_space(1)
    PP = product_projectors(full_projectors(P1), full_projectors(P1))
    assert PP.complete
    assert PP.member(2).label_terms() == [
        ("1 # h", "h # 1", Fraction(1)),
        ("h # 1", "1 # h", Fraction(1)),
    ]
    assert report_passes(verify_ck(PP))


def test_product_agrees_with_direct_construction():
    P1, P2 = spaces.projective_space(1), spaces.projective_space(2)
    T = spaces.product_space(P1, P2)
    PP = product_projectors(full_projectors(P1), full_projectors(P2), T)
    direct = full_projectors(T)
    assert report_passes(verify_ck(PP))
    assert report_passes(verify_ck(direct))
    for i in direct.indices():
        for label, _ in T.basis:
            v = T.basis_class(label)
            got = act(PP.member(i), v) if i in PP.projectors else T.zero(v.degree)
            assert got == act(direct.member(i), v), (i, label)


# -- orthogonalization --------------------------------------------------------------------


def synthetic_families():
    """Non-orthogonal idempotent families on rings of dimension <= 4."""
    P1 = spaces.projective_space(1)
    fam1 = [diagonal_component(P1, 0), diagonal(P1)]

    P2 = spaces.projective_space(2)
    u0, u1, u2 = (diagonal_component(P2, t) for t in (0, 2, 4))
    fam2 = [u0 + u1, u1 + u2]

    G = spaces.grassmannian(2, 4)
    s2, s11 = G.basis_class("s[2]"), G.basis_class("s[1,1]")
    fam3 = [rank_one(G, s2, s2), rank_one(G, s11, s2 + s11)]

    Q = spaces.hypersurface_model(3, 2, 1)
    h, m1 = Q.basis_class("h"), Q.basis_class("m1")
    fam4 = [rank_one(Q, h, h).scale(Fraction(1, 2)), rank_one(Q, m1, h + m1)]

    E = cubic_curve()
    em1, em2 = E.basis_class("m1"), E.basis_class("m2")
    fam5 = [rank_one(E, em2, em1), rank_one(E, em2, em1 + em2)]

    B = spaces.blowup(
        spaces.projective_space(2),
        spaces.projective_space(0),
        2,
        {"1": {"h^2": 1}},
        normal_chern={1: {}},
    )
    bh, bE = B.basis_class("h"), B.basis_class("1 E")
    fam6 = [rank_one(B, bh, bh), rank_one(B, bh, bh + bE)]
    return [fam1, fam2, fam3, fam4, fam5, fam6]


def test_orthogonalization_on_synthetic_families():
    families = synthetic_families()
    assert len(families) >= 5
    for fam in families:
        for p in fam:
            assert compose(p, p) == p  # inputs are idempotent
        assert any(
            not compose(fam[i], fam[j]).is_zero()
            for i in range(len(fam))
            for j in range(len(fam))
            if i != j
        )  # and genuinely non-orthogonal
        out = gram_schmidt_orthogonalize(fam)
        assert len(out) == len(fam)
        for q in out:
            assert compose(q, q) == q
        for i, qi in enumerate(out):
            for j, qj in enumerate(out):
                if i != j:
                    assert compose(qi, qj).is_zero(), (fam, i, j)


def test_orthogonalization_fixes_orthogonal_families():
    for X in (spaces.projective_space(3), spaces.grassmannian(2, 4), cubic_curve()):
        P = full_projectors(X)
        members = [P.member(i) for i in P.indices()]
        assert gram_schmidt_orthogonalize(members) == members
    single = [diagonal_component(spaces.projective_space(2), 2)]
    assert gram_schmidt_orthogonalize(single) == single
    assert gram_schmidt_orthogonalize([]) == []


def test_orthogonalization_rejects_non_idempotents():
    P2 = spaces.projective_space(2)
    with pytest.raises(NotIdempotent):
        gram_schmidt_orthogonalize([diagonal(P2).scale(2)])


def test_orthogonalization_preserves_graded_image_rank():
    G = spaces.grassmannian(2, 4)
    s2, s11 = G.basis_class("s[2]"), G.basis_class("s[1,1]")
    fam = [rank_one(G, s2, s2), rank_one(G, s11, s2 + s11)]
    out = gram_schmidt_orthogonalize(fam)
    # both corrected members still project degree 4 onto a line
    for q in out:
        images = [act(q, v) for v in (s2, s11)]
        assert any(not v.is_zero() for v in images)


# -- construction oracle ------------------------------------------------------------------
#
# The projector sets used to be built in stages: a dual-basis loop per
# degree, transposes for the upper degrees, a Gram-Schmidt pass and the
# middle as the remainder of the diagonal. That construction is kept
# here as the oracle for the grouping of the diagonal that replaced it.


def oracle_coevaluation(X, p):
    terms = {}
    duals = X.dual_basis(p)
    for pos, i in enumerate(X.degree_indices(p)):
        for j, c in duals[pos].coeffs.items():
            terms[(j, i)] = terms.get((j, i), Fraction(0)) + c
    return CorrespondenceClass(X, X, 0, terms)


def oracle_algebraic(X, m):
    top = 2 * X.dim
    for t in X.degrees():
        if t % 2 and t <= m and X.rank(t) > 0:
            raise OddRankObstruction(
                f"degree {t} has rank {X.rank(t)} but lies below the cutoff {m}"
            )
    wanted = [t for t in X.degrees() if t % 2 == 0 and t <= m]
    projs = {}
    for t in sorted(wanted):
        if t in projs or X.rank(t) == 0:
            continue
        lower = min(t, top - t)
        pi = oracle_coevaluation(X, lower)
        projs[lower] = pi
        if top - lower != lower:
            projs[top - lower] = transpose(pi)
    order = sorted(projs)
    projs = dict(zip(order, gram_schmidt_orthogonalize([projs[i] for i in order])))
    total = zero_correspondence(X, X, 0)
    for p in projs.values():
        total = total + p
    return ProjectorSet(X, projs, complete=(total == diagonal(X)))


def oracle_full(X):
    d = X.dim
    partial = oracle_algebraic(X, m=d - 1) if d > 0 else ProjectorSet(X, {})
    projs = dict(partial.projectors)
    projs[d] = diagonal(X)
    for p in partial.projectors.values():
        projs[d] = projs[d] - p
    return ProjectorSet(X, projs, complete=True, remainder_indices={d})


def outcome(build, *args, **kwargs):
    """The built set, or the type and message of the error raised."""
    try:
        return build(*args, **kwargs)
    except OddRankObstruction as exc:
        return OddRankObstruction, str(exc)


def assert_construction_matches_oracle(name, X):
    got = outcome(full_projectors, X)
    assert got == outcome(oracle_full, X), name
    if isinstance(got, ProjectorSet):
        # every degree's projector, the zero ones off the members
        for p in range(2 * X.dim + 1):
            member = got.member(p) if p in got.projectors else zero_correspondence(X, X)
            assert member == oracle_coevaluation(X, p), (name, p)


def oracle_rings():
    from test_golden_outputs import SPACES

    # an antisymmetric middle pairing other than the default one
    pairing = [[0] * 10 for _ in range(10)]
    for k in range(5):
        pairing[2 * k][2 * k + 1], pairing[2 * k + 1][2 * k] = k + 1, -(k + 1)
    pairing[0][2], pairing[2][0] = 1, -1
    rings = {name: spaces.build_space(spec) for name, spec in SPACES.items()}
    rings.update({
        "G(4,8)": spaces.grassmannian(4, 8),
        "curves(8)": spaces.plane_curve_family(8),
        "G(3,6)xP1": spaces.product_space(
            spaces.grassmannian(3, 6), spaces.projective_space(1)
        ),
        "P20": spaces.projective_space(20),
        "cubic threefold, supplied pairing": spaces.ci_model(
            spaces.projective_space(4), {"h": 3}, 10, middle_pairing=pairing
        ),
    })
    return rings


def test_construction_matches_the_staged_oracle():
    rings = oracle_rings()
    assert {"E", "P0"} <= set(rings)
    for name, X in rings.items():
        assert_construction_matches_oracle(name, X)


def test_odd_rank_obstruction_message_unchanged():
    E = cubic_curve()
    for X, rank in ((spaces.product_space(E, spaces.projective_space(1)), 2),
                    (spaces.product_space(E, E), 4)):
        want = (OddRankObstruction, f"degree 1 has rank {rank} but lies below the cutoff 1")
        assert outcome(full_projectors, X) == outcome(oracle_full, X) == want


def test_full_projectors_group_one_diagonal_without_composing(monkeypatch):
    from chowkunneth import kunneth

    X = spaces.product_space(spaces.grassmannian(3, 6), spaces.projective_space(1))
    calls = {"compose": 0, "diagonal": 0}

    def counted(name):
        inner = getattr(kunneth, name)

        def wrapper(*args):
            calls[name] += 1
            return inner(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(kunneth, name, counted(name))
    P = full_projectors(X)
    assert calls == {"compose": 0, "diagonal": 1}
    assert P == oracle_full(X)


# -- verification reports --------------------------------------------------------------


def test_report_schema_and_order():
    P1 = spaces.projective_space(1)
    report = verify_ck(full_projectors(P1))
    checks = [e["check"] for e in report]
    n = 3  # indices 0, 1, 2
    assert checks[:n] == ["idempotence"] * n
    assert checks[n : n + n * (n - 1)] == ["orthogonality"] * n * (n - 1)
    assert checks[n + n * (n - 1)] == "completeness"
    assert checks[n + n * (n - 1) + 1 :] == ["graded_action"] * (n * 2)
    for entry in report:
        assert entry["pass"] is True
        assert "residual_class" not in entry
        if entry["check"] == "graded_action":
            assert entry["basis_class"] in ("1", "h")


def test_report_is_returned_not_stored():
    P = full_projectors(spaces.projective_space(2))
    report = verify_ck(P)
    assert report == verify_ck(P) and report is not verify_ck(P)
    assert not hasattr(P, "report")


def test_scaled_member_fails_idempotence():
    P3 = spaces.projective_space(3)
    P = full_projectors(P3)
    broken = dict(P.projectors)
    broken[0] = broken[0].scale(2)
    bad = ProjectorSet(P3, broken, complete=True, remainder_indices={3})
    report = verify_ck(bad)
    assert failing_checks(report) == ["idempotence", "completeness", "graded_action"]
    entry = next(e for e in report if e["check"] == "idempotence" and not e["pass"])
    assert entry["indices"] == [0]
    assert entry["residual_class"] == [["h^3", "1", "2"]]


def test_missing_member_fails_completeness_only():
    P3 = spaces.projective_space(3)
    P = full_projectors(P3)
    kept = {i: p for i, p in P.projectors.items() if i != 6}
    bad = ProjectorSet(P3, kept, complete=True, remainder_indices={3})
    report = verify_ck(bad)
    assert failing_checks(report) == ["completeness"]
    entry = next(e for e in report if e["check"] == "completeness")
    assert entry["residual_class"] == [["1", "h^3", "-1"]]


def test_orthogonality_failure_lists_ordered_pair():
    P2 = spaces.projective_space(2)
    pi0 = diagonal_component(P2, 0)
    bad = ProjectorSet(P2, {0: pi0, 2: pi0})
    report = verify_ck(bad)
    failing = [e for e in report if not e["pass"] and e["check"] == "orthogonality"]
    assert [e["indices"] for e in failing] == [[0, 2], [2, 0]]


def test_orthogonality_failure_residual_rows():
    # Two copies of the degree-0 projector: each composes to itself, so
    # both ordered pairs fail with that member as residual.
    P2 = spaces.projective_space(2)
    pi0 = diagonal_component(P2, 0)
    report = verify_ck(ProjectorSet(P2, {0: pi0, 2: pi0}))
    assert failing_checks(report) == ["orthogonality", "graded_action"]
    failing = [e for e in report if e["check"] == "orthogonality"]
    assert [e["residual_class"] for e in failing] == [[["h^2", "1", "1"]]] * 2


def test_graded_action_failure_rows_sorted_by_label():
    # Member 4 doubled and sending s[2] also to s[1,1]: on s[2] the
    # residual has two rows, sorted by label (s[1,1] first) although
    # s[2] comes first in the basis.
    G = spaces.grassmannian(2, 4)
    assert [label for label, _ in G.basis][2:4] == ["s[2]", "s[1,1]"]
    P = full_projectors(G)
    projs = dict(P.projectors)
    projs[4] = projs[4].scale(2) + CorrespondenceClass(G, G, 0, {(2, 3): 1})
    report = verify_ck(ProjectorSet(G, projs, complete=True))
    assert failing_checks(report) == ["idempotence", "completeness", "graded_action"]
    failing = [e for e in report if e["check"] == "graded_action" and not e["pass"]]
    assert [(e["indices"], e["basis_class"], e["residual_class"]) for e in failing] == [
        ([4], "s[2]", [["s[1,1]", "1"], ["s[2]", "1"]]),
        ([4], "s[1,1]", [["s[1,1]", "1"]]),
    ]


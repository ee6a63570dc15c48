"""Space constructors: shapes, products, sections, blow-ups, formulas."""

import inspect
import json
import sys
from fractions import Fraction
from math import comb, factorial

import pytest

from chowkunneth import cli, graded_ring, schubert, spaces
from chowkunneth.errors import (
    ChowKunnethError,
    DegeneratePairing,
    InvalidSpec,
    NonLefschetzRange,
)
from chowkunneth.graded_ring import GradedBasisRing
from chowkunneth.kunneth import full_projectors, report_passes, verify_ck
import ring_oracles
from schubert_oracles import lr_multiply, parse_partition_label


# -- projective spaces -----------------------------------------------------------


def test_projective_space_shape():
    P3 = spaces.projective_space(3)
    assert P3.dim == 3
    assert [l for l, _ in P3.basis] == ["1", "h", "h^2", "h^3"]
    assert P3.betti() == {0: 1, 2: 1, 4: 1, 6: 1}
    h = P3.basis_class("h")
    assert P3.integrate(h * h * h) == 1
    assert P3.point() == P3.basis_class("h^3")


def test_projective_space_point():
    P0 = spaces.projective_space(0)
    assert P0.dim == 0 and len(P0.basis) == 1
    assert P0.integrate(P0.unit()) == 1


def test_construction_is_cached_on_description():
    assert spaces.projective_space(3) is spaces.projective_space(3)
    assert spaces.grassmannian(2, 4) is spaces.build_space(
        {"kind": "grassmannian", "k": 2, "n": 4}
    )


def test_build_space_rejects_malformed_descriptions():
    with pytest.raises(InvalidSpec):
        spaces.build_space(["projective_space", 2])
    with pytest.raises(InvalidSpec):
        spaces.build_space({"kind": "mystery"})
    with pytest.raises(InvalidSpec):
        spaces.build_space({"kind": "projective_space", "n": -1})
    with pytest.raises(InvalidSpec):
        spaces.build_space({"kind": "grassmannian", "k": 4, "n": 4})


# -- Grassmannians ----------------------------------------------------------------


def test_grassmannian_two_four_shape():
    G = spaces.grassmannian(2, 4)
    assert G.dim == 4
    assert len(G.basis) == 6
    assert G.betti() == {0: 1, 2: 1, 4: 2, 6: 1, 8: 1}
    assert G.integrate(G.basis_class("s[2,2]")) == 1


def test_grassmannian_products_match_partition_products():
    G = spaces.grassmannian(2, 4)
    s1 = G.basis_class("s[1]")
    s21 = G.basis_class("s[2,1]")
    assert (s1 * s21).label_dict() == {"s[2,2]": Fraction(1)}
    assert (s1 * s1).label_dict() == {"s[2]": Fraction(1), "s[1,1]": Fraction(1)}
    for la, da in G.basis:
        for lb, db in G.basis:
            if da + db > 2 * G.dim:
                continue
            lam, mu = parse_partition_label(la), parse_partition_label(lb)
            want = {
                schubert.partition_label(nu): Fraction(c)
                for nu, c in lr_multiply(lam, mu, 2, 2).items()
            }
            got = G.multiply(G.basis_class(la), G.basis_class(lb)).label_dict()
            assert got == want, (la, lb)


def gaussian_binomial(n, k):
    """Coefficients of the q-binomial [n choose k] in q, lowest first:
    the Betti numbers of G(k, n) in even degrees."""
    if k == 0 or k == n:
        return [1]
    left, right = gaussian_binomial(n - 1, k - 1), gaussian_binomial(n - 1, k)
    # [n, k] = [n-1, k-1] + q^k [n-1, k]
    out = [0] * (k * (n - k) + 1)
    for i, c in enumerate(left):
        out[i] += c
    for i, c in enumerate(right):
        out[i + k] += c
    return out


def rectangle_tableaux(rows, cols):
    """Standard Young tableaux of a rows x cols rectangle, by the hook
    length formula."""
    hooks = 1
    for i in range(rows):
        for j in range(cols):
            hooks *= (rows - i - 1) + (cols - j - 1) + 1
    return factorial(rows * cols) // hooks


@pytest.mark.parametrize("k, n, degree", [(4, 9, 1_662_804), (5, 10, 701_149_020)])
def test_large_grassmannians_match_closed_forms(monkeypatch, k, n, degree):
    """G(4,9) (rank 126) and G(5,10) (rank 252) pass all seven ring
    checks; their Betti numbers are Gaussian binomials and the degree
    of the Plucker embedding, the integral of s[1]^(k(n-k)), counts
    standard tableaux of the k x (n-k) rectangle."""
    verdicts = []
    checks = graded_ring.run_ring_checks

    def recorded(*args):
        for verdict in checks(*args):
            verdicts.append(tuple(verdict))
            yield verdict

    monkeypatch.setattr(graded_ring, "run_ring_checks", recorded)
    monkeypatch.setattr(spaces, "_CACHE", {})
    G = spaces.grassmannian(k, n)
    assert [(name, ok) for name, ok, _ in verdicts] == [
        (name, True) for name in graded_ring.CHECK_NAMES]
    assert len(G.basis) == comb(n, k)
    assert list(G.betti().values()) == gaussian_binomial(n, k)
    assert sorted(G.betti()) == list(range(0, 2 * G.dim + 1, 2))
    s1 = G.basis_class("s[1]")
    power = G.unit()
    for _ in range(G.dim):
        power = power * s1
    assert G.integrate(power) == rectangle_tableaux(k, n - k) == degree


def test_line_grassmannian_is_projective_space_relabeled():
    G = spaces.grassmannian(1, 4)
    P3 = spaces.projective_space(3)
    assert G.dim == P3.dim and G.betti() == P3.betti()
    s1 = G.basis_class("s[1]")
    power = G.unit()
    for k in range(1, 4):
        power = power * s1
        assert power == G.basis_class(schubert.partition_label((k,)))
    assert G.integrate(power) == 1


# -- products ---------------------------------------------------------------------


def test_product_space_shape_and_integration():
    T = spaces.product_space(
        spaces.projective_space(1), spaces.projective_space(1)
    )
    assert T.betti() == {0: 1, 2: 2, 4: 1}
    pt = T.basis_class("h # h")
    assert T.integrate(pt) == 1


def test_product_integration_is_multiplicative():
    P1 = spaces.projective_space(1)
    P2 = spaces.projective_space(2)
    T = spaces.product_space(P1, P2)
    for la, da in P1.basis:
        for lb, db in P2.basis:
            v = T.basis_class(f"{la} # {lb}")
            want = (
                P1.integrate(P1.basis_class(la)) * P2.integrate(P2.basis_class(lb))
                if da + db == 2 * T.dim
                else 0
            )
            assert T.integrate(v) == want


def test_product_accepts_descriptions_and_rings():
    T1 = spaces.product_space(
        {"kind": "projective_space", "n": 1}, spaces.projective_space(2)
    )
    T2 = spaces.product_space(
        spaces.projective_space(1), {"kind": "projective_space", "n": 2}
    )
    assert T1 is T2


def test_product_of_a_directly_built_tensor_ring():
    from chowkunneth.graded_ring import tensor_ring

    P1 = spaces.projective_space(1)
    T = tensor_ring((P1, P1))
    assert T.space == {"kind": "product", "factors": [P1.space, P1.space]}
    assert T.parts["factors"] == (P1, P1)
    TT = spaces.product_space(T, P1)
    assert TT.betti() == {0: 1, 2: 3, 4: 3, 6: 1}
    assert TT.parts["factors"][0] == T


# -- complete-intersection models ---------------------------------------------------


def test_hyperplane_section_reproduces_smaller_projective_space():
    X = spaces.ci_model(spaces.projective_space(3), {"h": 1}, 0)
    P2 = spaces.projective_space(2)
    assert X.dim == 2 and X.betti() == P2.betti()
    h = X.basis_class("h")
    assert X.integrate(h * h) == 1
    assert (h * h) == X.point()


def test_quadric_surface_model():
    X = spaces.hypersurface_model(3, 2, 1)
    assert X.dim == 2
    assert X.betti() == {0: 1, 2: 2, 4: 1}
    h, m1 = X.basis_class("h"), X.basis_class("m1")
    assert X.integrate(h * h) == 2  # degree of the quadric
    assert X.integrate(m1 * m1) == 1  # default unimodular middle pairing
    assert (h * m1).is_zero()  # primitives orthogonal to restricted classes


def test_cubic_surface_model_middle_rank():
    X = spaces.hypersurface_model(3, 3, 7)
    assert X.betti() == {0: 1, 2: 8, 4: 1}
    assert len(X.parts["primitive_indices"]) == 7
    assert X.integrate(X.basis_class("h") * X.basis_class("h")) == 3


def test_plane_cubic_curve_model_with_odd_middle():
    X = spaces.ci_model(spaces.projective_space(2), {"h": 3}, 2)
    assert X.dim == 1
    assert X.betti() == {0: 1, 1: 2, 2: 1}
    m1, m2 = X.basis_class("m1"), X.basis_class("m2")
    assert X.integrate(m1 * m2) == 1
    assert X.integrate(m2 * m1) == -1
    assert (m1 * m1).is_zero()


def test_odd_middle_needs_even_rank_without_pairing():
    with pytest.raises(DegeneratePairing):
        spaces.ci_model(spaces.projective_space(2), {"h": 3}, 3)


def test_supplied_singular_middle_pairing_rejected():
    with pytest.raises(DegeneratePairing):
        spaces.ci_model(
            spaces.projective_space(3),
            {"h": 2},
            2,
            middle_pairing=[[1, 1], [1, 1]],
        )


def test_supplied_middle_pairing_symmetry_enforced():
    with pytest.raises(InvalidSpec):
        spaces.ci_model(
            spaces.projective_space(3),
            {"h": 2},
            2,
            middle_pairing=[[1, 2], [0, 1]],
        )


def test_restriction_map_images():
    X = spaces.hypersurface_model(3, 2, 1)
    amb = X.parts["restrict_map"].source
    q = X.parts["restrict_map"]
    assert q.apply(amb.basis_class("h")) == X.basis_class("h")
    # restricting a line of the ambient space to the quadric gives a
    # degree-2 point class
    image = q.apply(amb.basis_class("h^2"))
    assert image.label_dict() == {"1*": Fraction(2)}
    assert X.integrate(image * X.unit()) == 2


def test_lefschetz_range_failure_detected():
    T = spaces.product_space(
        spaces.projective_space(1),
        spaces.projective_space(1),
        spaces.projective_space(1),
    )
    with pytest.raises(NonLefschetzRange):
        spaces.ci_model(T, {"h # 1 # 1": 1}, 0)


def ci_model_grid():
    """ci_model descriptions: the plane curve families d = 1..6,
    hypersurfaces of degree 1..4 in P^n for n = 2..6 with middle rank 0,
    2 or 3, sections of G(2,5) and of P^2 x P^3 (one by a mixed class),
    supplied middle pairings, and sections of quadric models, one with a
    rational middle pairing; some of them fail to build."""
    def ci(ambient, xi, rank, **extra):
        return {"kind": "ci_model", "ambient": ambient, "fundamental_class_expr": xi,
                "middle_rank": rank, **extra}

    def pn(n):
        return {"kind": "projective_space", "n": n}

    grid = [ci({"kind": "product", "factors": [pn(2), pn(d * (d + 3) // 2)]},
               {"h # 1": str(d), "1 # h": "1"}, 0) for d in range(1, 7)]
    grid += [ci(pn(n), {"h": str(e)}, r)
             for n in range(2, 7) for e in range(1, 5) for r in (0, 2, 3)]
    g25 = {"kind": "grassmannian", "k": 2, "n": 5}
    grid += [ci(g25, {"s[1]": "1"}, 0), ci(g25, {"s[1]": "1"}, 2), ci(g25, {"s[1]": "2"}, 4),
             ci(g25, {"s[2]": "1"}, 0), ci(g25, {"s[1,1]": "1", "s[2]": "1"}, 1)]
    p2p3 = {"kind": "product", "factors": [pn(2), pn(3)]}
    grid += [ci(p2p3, {"h # 1": "2", "1 # h": "3"}, r) for r in (0, 2)]
    grid += [ci(p2p3, {"h # 1": "1"}, 0), ci(p2p3, {"h^2 # 1": "1", "1 # h^2": "1"}, 1)]
    grid += [ci(pn(3), {"h": "2"}, 2, middle_pairing=pairing)
             for pairing in ([["1", "1/2"], ["1/2", "-3"]], [["1", "1"], ["1", "1"]],
                             [["1", "2"], ["0", "1"]])]
    quadric = ci(pn(4), {"h": "2"}, 0)
    rational = ci(pn(3), {"h": "2"}, 1, middle_pairing=[["1/2"]])
    grid += [ci(quadric, {"h": "1"}, r) for r in (0, 1)]
    grid += [ci(quadric, {"h": "2"}, 0), ci(rational, {"h": "1"}, 2), ci(rational, {"m1": "1"}, 0)]
    return grid


def test_ci_model_tables_match_the_pairwise_oracle():
    """The table read off the restriction of each ambient class equals
    the one the pairwise oracle builds by the kinds of both factors, and
    so do the basis, integration, primitives and `restrict_map` images,
    or both raise the same error."""
    built = 0
    for spec in ci_model_grid():
        try:
            want = ring_oracles.pairwise_ci_model(spec)
        except ChowKunnethError as exc:
            with pytest.raises(type(exc)) as got:
                spaces._build_ci_model(spec)
            assert type(got.value) is type(exc) and str(got.value) == str(exc), spec
            continue
        ring = spaces._build_ci_model(spec)
        built += 1
        assert ring.basis == want.basis and ring.integration == want.integration, spec
        assert ring._table.denominator == want._table.denominator, spec
        assert sorted(ring._table.items()) == sorted(want._table.items()), spec
        assert ring.parts["primitive_indices"] == want.parts["primitive_indices"], spec
        got_images = [(v.degree, v.coeffs) for v in ring.parts["restrict_map"].images]
        assert got_images == [(v.degree, v.coeffs)
                              for v in want.parts["restrict_map"].images], spec
    assert built >= 60


# -- blow-ups -----------------------------------------------------------------------


def blowup_point_in_plane():
    return spaces.blowup(
        spaces.projective_space(2),
        spaces.projective_space(0),
        2,
        {"1": {"h^2": 1}},
        normal_chern={1: {}},
    )


def blowup_line_in_space():
    return spaces.blowup(
        spaces.projective_space(3),
        spaces.projective_space(1),
        2,
        {"1": {"h^2": 1}, "h": {"h^3": 1}},
        normal_chern={1: {"h": 2}},
    )


def test_blowup_of_point_in_plane():
    X = blowup_point_in_plane()
    assert X.dim == 2
    assert X.betti() == {0: 1, 2: 2, 4: 1}
    E = X.basis_class("1 E")
    assert X.integrate(E * E) == -1
    assert (X.basis_class("h") * E).is_zero()


def test_blowup_of_line_in_space():
    X = blowup_line_in_space()
    assert X.dim == 3
    assert X.betti() == {0: 1, 2: 2, 4: 2, 6: 1}
    assert all(ok for _, ok, _ in graded_ring.run_ring_checks(
        X.dim, X.basis, X._table, X.integration))


def test_blowup_rank_formula():
    for X in (blowup_point_in_plane(), blowup_line_in_space()):
        base, center = X.parts["base"], X.parts["center"]
        c = base.dim - center.dim
        for t in range(0, 2 * X.dim + 1):
            want = base.rank(t) + sum(
                center.rank(t - 2 * j) for j in range(1, c)
            )
            assert X.rank(t) == want, (t, X)


def iterated_point_blowup(r, n=2):
    """Bl_r P^n as r successive blow-ups of a point, each away from the
    exceptional divisors already made (its class is the point class h^n)."""
    spec = {"kind": "projective_space", "n": n}
    for _ in range(r):
        spec = {"kind": "blowup", "base": spec, "center": {"kind": "projective_space", "n": 0},
                "codim": n, "center_pushforward_expr": {"1": {f"h^{n}": "1"}},
                "normal_chern": {str(j): {} for j in range(1, n + 1)}}
    return spec


@pytest.mark.parametrize("r", range(1, 6))
def test_iterated_point_blowups_of_the_plane(r):
    # The i-th exceptional curve is labelled "1 E" for i = 1 and "1 Ei"
    # after, so one blow-up keeps its labels; K = -3h + sum E_i has
    # K^2 = 9 - r, and the projectors verify.
    X = spaces.build_space(iterated_point_blowup(r))
    marks = ["E"] + [f"E{i}" for i in range(2, r + 1)]
    assert [l for l, _ in X.basis] == ["1", "h", *(f"1 {m}" for m in marks), "h^2"]
    assert X.betti() == {0: 1, 2: r + 1, 4: 1}
    E = [X.basis_class(f"1 {m}") for m in marks]
    K = X.basis_class("h").scale(-3)
    for e in E:
        K = K + e
    assert X.integrate(K * K) == 9 - r
    assert [[X.integrate(a * b) for b in E] for a in E] == [
        [-1 if a is b else 0 for b in E] for a in E
    ]
    assert report_passes(verify_ck(full_projectors(X)))


def test_iterated_point_blowup_marks_the_powers_of_each_divisor():
    # In a threefold the exceptional divisor has a square: the second
    # blow-up's classes are "1 E2" and "1 E2^2", each E_i^3 = 1, and the
    # two divisors are disjoint.
    X = spaces.build_space(iterated_point_blowup(2, n=3))
    assert [l for l, _ in X.basis] == ["1", "h", "1 E", "1 E2", "h^2", "1 E^2", "1 E2^2", "h^3"]
    assert X.betti() == {0: 1, 2: 3, 4: 3, 6: 1}
    for mark in ("E", "E2"):
        E = X.basis_class(f"1 {mark}")
        assert E * E == X.basis_class(f"1 {mark}^2")
        assert X.integrate(E * E * E) == 1
    assert (X.basis_class("1 E") * X.basis_class("1 E2")).is_zero()
    assert report_passes(verify_ck(full_projectors(X)))


def test_iterated_point_blowup_builds_from_the_cli(capsys):
    code = cli.main(["build", "--space", json.dumps(iterated_point_blowup(2))])
    out = capsys.readouterr().out
    assert code == 0 and "FAIL" not in out
    assert "built: dimension 2, total rank 5, betti 1,0,3,0,1" in out


def pushforward_of(X, v):
    """i_* of a class of the center of the blow-up X, over the base."""
    base, center, push = X.parts["base"], X.parts["center"], X.space["center_pushforward_expr"]
    out = base.zero(v.degree + 2 * (base.dim - center.dim))
    for z, c in v.coeffs.items():
        out = out + base.from_label_dict(push[center.basis[z][0]], out.degree).scale(c)
    return out


def pullback_of(X, a):
    """i^* of a base class: the center class whose integral against each
    center class z is the base integral of a * i_*z."""
    base, center = X.parts["base"], X.parts["center"]
    q = 2 * center.dim - a.degree
    out = center.zero(a.degree)
    for z, dual in zip(center.degree_indices(q), center.dual_basis(q)):
        out = out + dual.scale(base.integrate(a * pushforward_of(X, center.basis_vector(z))))
    return out


def corpus_blowups():
    from test_acceptance import corpus_rings

    rings = [X for X in corpus_rings() if "center" in X.parts]
    rings += [blowup_point_in_plane(), blowup_line_in_space(),
              spaces.build_space(iterated_point_blowup(3)),
              spaces.build_space(iterated_point_blowup(2, n=3))]
    return rings


def test_blowup_pullback_satisfies_the_projection_formula():
    """i_*(i^*a * z) = a * i_*z for every base class a and center class
    z, on every blow-up the tests build and on a conic in P^3 (a line
    whose pushforward of 1 is twice the line class)."""
    conic = {"kind": "blowup", "base": {"kind": "projective_space", "n": 3},
             "center": {"kind": "projective_space", "n": 1}, "codim": 2,
             "center_pushforward_expr": {"1": {"h^2": "2"}, "h": {"h^3": "1"}},
             "normal_chern": {"1": {"h": "4"}}}
    rings = corpus_blowups() + [spaces.build_space(conic)]
    assert len(rings) >= 6
    for X in rings:
        base, center = X.parts["base"], X.parts["center"]
        for b in range(len(base.basis)):
            a = base.basis_vector(b)
            for z in range(len(center.basis)):
                e = center.basis_vector(z)
                assert pushforward_of(X, pullback_of(X, a) * e) == a * pushforward_of(X, e)


@pytest.mark.parametrize("base, center, push", [
    (3, 1, {"1": {"h^2": "1"}, "h": {"h^3": "2"}}),
    (2, 0, {"1": {"h^2": "0"}}),
])
def test_blowup_rejects_a_pushforward_with_no_unital_pullback(base, center, push, capsys):
    """A pushforward whose adjoint pullback is not a unital ring map is
    malformed input, not a failed ring axiom: exit 2 with `error:`."""
    spec = {"kind": "blowup", "base": {"kind": "projective_space", "n": base},
            "center": {"kind": "projective_space", "n": center}, "codim": base - center,
            "center_pushforward_expr": push,
            "normal_chern": {"1": {"h": "2"} if center else {}}}
    with pytest.raises(InvalidSpec, match="not a ring map .unit must map to unit"):
        spaces.build_space(spec)
    assert cli.main(["build", "--space", json.dumps(spec)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: blowup: 'center_pushforward_expr' is not a pushforward")


def test_codimension_one_blowup_is_the_base():
    # P^2 along a line: the description passes every check a higher
    # codimension does, then the base comes back unchanged.
    base = spaces.projective_space(2)
    X = spaces.blowup(base, spaces.projective_space(1), 1,
                      {"1": {"h": 1}, "h": {"h^2": 1}}, normal_chern={1: {"h": 1}})
    assert X is base
    with pytest.raises(InvalidSpec, match="pushforward missing"):
        spaces.blowup(base, spaces.projective_space(1), 1, {})
    with pytest.raises(InvalidSpec, match="not a ring map"):
        spaces.blowup(base, spaces.projective_space(1), 1,
                      {"1": {"h": 1}, "h": {"h^2": 2}}, normal_chern={1: {"h": 1}})


def test_blowup_missing_chern_class_rejected():
    with pytest.raises(InvalidSpec):
        spaces.blowup(
            spaces.projective_space(3),
            spaces.projective_space(1),
            2,
            {"1": {"h^2": 1}, "h": {"h^3": 1}},
        )


def test_blowup_accepts_an_unread_top_chern_class():
    # A codimension-2 blow-up never reads c_2, but may state it; it is
    # parsed as a degree-4 center class (malformed ones: test_cli.py).
    X = spaces.blowup(spaces.projective_space(3), spaces.projective_space(1), 2,
                      {"1": {"h^2": 1}, "h": {"h^3": 1}}, normal_chern={1: {"h": 2}, 2: {}})
    assert X.structure == blowup_line_in_space().structure


def test_helpers_take_rings_only_with_descriptions():
    point = GradedBasisRing(0, [("1", 0)], {(0, 0): {0: 1}}, {0: 1})
    P2 = spaces.projective_space(2)
    calls = {
        "product factors": lambda: spaces.product_space(P2, point),
        "ci_model ambient": lambda: spaces.ci_model(point, {"1": 1}, 0),
        "blowup base": lambda: spaces.blowup(point, P2, 2, {}),
        "blowup center": lambda: spaces.blowup(P2, point, 2, {"1": {"h^2": 1}}),
    }
    for what, call in calls.items():
        with pytest.raises(InvalidSpec, match=f"^{what} must carry a space description$"):
            call()


def test_blowup_malformed_pushforward_rejected():
    with pytest.raises(InvalidSpec):
        spaces.blowup(
            spaces.projective_space(2),
            spaces.projective_space(0),
            2,
            {"1": {"h": 1}},  # wrong degree: must land in degree 4
            normal_chern={1: {}},
        )


def test_helper_coefficients_are_exact():
    # Ints, Fractions and rational strings give one description; floats
    # are refused, as they are in a JSON description.
    P3 = spaces.projective_space(3)
    for h in (2, Fraction(4, 2), "2", "4/2"):
        X = spaces.ci_model(P3, {"h": h}, 1, middle_pairing=[[Fraction(1, 2)]])
        assert X.space["fundamental_class_expr"] == {"h": "2"}
        assert X.space["middle_pairing"] == [["1/2"]]
    with pytest.raises(InvalidSpec):
        spaces.ci_model(P3, {"h": 0.5}, 0)
    with pytest.raises(InvalidSpec):
        spaces.ci_model(P3, {"h": 2}, 1, middle_pairing=[[1.0]])
    assert blowup_line_in_space().space["normal_chern"] == {"1": {"h": "2"}}
    with pytest.raises(InvalidSpec):
        spaces.blowup(P3, spaces.projective_space(1), 2,
                      {"1": {"h^2": 1.0}, "h": {"h^3": 1}}, normal_chern={1: {"h": 2}})
    with pytest.raises(InvalidSpec):
        spaces.blowup(P3, spaces.projective_space(1), 2,
                      {"1": {"h^2": 1}, "h": {"h^3": 1}}, normal_chern={1: {"h": 2.0}})


# -- one reader per input ---------------------------------------------------------------


def _helper_table():
    """{helper: (call, its valid arguments, the description the call
    writes, the fields that hold coefficients)}. The description of a
    call is written by hand, not read off the helper."""
    P3, P1 = {"kind": "projective_space", "n": 3}, {"kind": "projective_space", "n": 1}
    return {
        "projective_space": (
            spaces.projective_space, {"n": 2},
            lambda n: {"kind": "projective_space", "n": n}, ()),
        "grassmannian": (
            spaces.grassmannian, {"k": 2, "n": 4},
            lambda k, n: {"kind": "grassmannian", "k": k, "n": n}, ()),
        "plane_curve_family": (
            spaces.plane_curve_family, {"d": 2, "middle_rank": 0},
            lambda d, middle_rank: {"kind": "plane_curve_family", "d": d,
                                    "middle_rank": middle_rank}, ()),
        "hypersurface_model": (
            spaces.hypersurface_model, {"n": 3, "d": 2, "middle_rank": 0},
            lambda n, d, middle_rank: {
                "kind": "ci_model", "ambient": {"kind": "projective_space", "n": n},
                "fundamental_class_expr": {"h": d}, "middle_rank": middle_rank}, ("d",)),
        "ci_model": (
            lambda xi, middle_rank, pairing: spaces.ci_model(
                spaces.projective_space(3), {"h": xi}, middle_rank, [[pairing]]),
            {"xi": 2, "middle_rank": 1, "pairing": 1},
            lambda xi, middle_rank, pairing: {
                "kind": "ci_model", "ambient": P3, "fundamental_class_expr": {"h": xi},
                "middle_rank": middle_rank, "middle_pairing": [[pairing]]},
            ("xi", "pairing")),
        "blowup": (
            lambda codim, push, chern: spaces.blowup(
                spaces.projective_space(3), spaces.projective_space(1), codim,
                {"1": {"h^2": push}, "h": {"h^3": 1}}, {1: {"h": chern}}),
            {"codim": 2, "push": 1, "chern": 2},
            lambda codim, push, chern: {
                "kind": "blowup", "base": P3, "center": P1, "codim": codim,
                "center_pushforward_expr": {"1": {"h^2": push}, "h": {"h^3": 1}},
                "normal_chern": {"1": {"h": chern}}},
            ("push", "chern")),
    }


def _outcome(call):
    """The ring a call builds, or the type and text of its error."""
    try:
        return call()
    except ChowKunnethError as exc:
        return type(exc), str(exc)


def _cli_outcome(capsys, spec):
    code = cli.main(["build", "--space", json.dumps(spec)])
    return code, capsys.readouterr().err


PARITY_VALUES = {"float": 2.5, "bool": True, "numeric string": "2", "negative": -1}


@pytest.mark.parametrize("value", PARITY_VALUES.values(), ids=PARITY_VALUES.keys())
@pytest.mark.parametrize("helper", sorted(_helper_table()))
def test_helpers_documents_and_the_cli_share_one_reader(capsys, helper, value):
    """Each field of each helper given a float, a bool, a numeric string
    or a negative: the helper, `build_space` on the description and
    `build --space` end alike, in the same InvalidSpec message (exit 2,
    one `error:` line) or in equal rings. An int field refuses all four;
    a coefficient field refuses a float and a bool."""
    call, good, describe, coefficients = _helper_table()[helper]
    for field in good:
        args = {**good, field: value}
        spec = describe(**args)
        got = _outcome(lambda: call(**args))
        want = _outcome(lambda: spaces.build_space(spec))
        code, err = _cli_outcome(capsys, spec)
        refused = field not in coefficients or isinstance(value, (bool, float))
        if refused:
            assert got[0] is InvalidSpec, (helper, field, got)
        if isinstance(want, tuple):
            assert got == want and (code, err) == (2, f"error: {want[1]}\n"), (helper, field)
        else:
            assert got == want and code == 0 and err == "", (helper, field)


@pytest.mark.parametrize("helper", sorted(_helper_table()))
def test_a_missing_field_is_named_alike_by_the_library_and_the_cli(capsys, helper):
    _, good, describe, _ = _helper_table()[helper]
    full = describe(**good)
    assert spaces.build_space(full).space == full
    for field in set(full) - {"kind"}:
        spec = {k: v for k, v in full.items() if k != field}
        want = _outcome(lambda: spaces.build_space(spec))
        code, err = _cli_outcome(capsys, spec)
        if (helper, field) in (("plane_curve_family", "middle_rank"),
                               ("ci_model", "middle_pairing")):
            assert code == 0 and not isinstance(want, tuple), (helper, field)
            continue
        assert want[0] is InvalidSpec and (code, err) == (2, f"error: {want[1]}\n"), field
    assert "plane_curve_family: missing field 'd'" in _outcome(
        lambda: spaces.build_space({"kind": "plane_curve_family"}))


def test_a_description_must_be_json_data():
    for spec in ({"kind": "projective_space", "n": Fraction(2)},
                 {"kind": "projective_space", "n": 10**5000},
                 {"kind": "projective_space", "n": -10**5000},
                 {"kind": "product", "factors": [{"kind": "projective_space", "n": 1}, {1, 2}]}):
        with pytest.raises(InvalidSpec, match="^space description must be JSON data: "):
            spaces.build_space(spec)
    for call in (lambda: spaces.projective_space(Fraction(2)),
                 lambda: spaces.grassmannian(2, 10**5000)):
        with pytest.raises(InvalidSpec, match="^space description must be JSON data: "):
            call()


def test_a_description_nested_too_deeply_is_malformed_input(capsys, monkeypatch):
    """Products nested ever deeper, each built afresh under a recursion
    limit 150 frames above the test's: each builds or ends in one
    `error:` line. The nesting runs out inside a builder or inside the
    cache key; once a builder's RecursionError ended `build` in a
    traceback."""
    monkeypatch.setattr(spaces, "_CACHE", {})
    spec, refused = {"kind": "projective_space", "n": 1}, 0
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 150)
    try:
        for _ in range(200):
            spec = {"kind": "product", "factors": [spec]}
            spaces._CACHE.clear()
            code, err = cli.main(["build", "--space", json.dumps(spec)]), capsys.readouterr().err
            if code:
                assert (code, err) == (2, "error: space description is nested too deeply "
                                          "to build\n")
                refused += 1
                if refused == 20:
                    break
    finally:
        sys.setrecursionlimit(limit)
    assert refused == 20


# -- the universal family ------------------------------------------------------------


def test_plane_curve_family_dimensions():
    for d, dim in [(1, 3), (2, 6), (3, 10)]:
        X = spaces.plane_curve_family(d)
        assert X.dim == dim
        assert X.rank(0) == 1
        assert X.space["kind"] == "plane_curve_family"
    assert spaces.plane_curve_family(3) is spaces.plane_curve_family(3)


def test_plane_curve_family_validates_each_ring_once(monkeypatch):
    built = []
    init = GradedBasisRing.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(spaces, "_CACHE", {})
    monkeypatch.setattr(GradedBasisRing, "__init__", counting_init)
    X = spaces.plane_curve_family(3)
    assert [r.space["kind"] for r in built] == [
        "projective_space", "projective_space", "product", "plane_curve_family",
    ]
    assert [r.dim for r in built] == [2, 9, 11, 10]
    assert built[-1] is X
    assert X.parts["restrict_map"].target is X
    assert X.parts["restrict_map"].source is built[2]
    assert X.parts["restrict_map"].source is built[2]


def test_plane_curve_family_middle_rank_defaults_to_zero():
    spec = {"kind": "plane_curve_family", "d": 2}
    X = spaces.build_space(spec)
    Y = spaces.build_space({**spec, "middle_rank": 0})
    assert X.basis == Y.basis and X.structure == Y.structure
    assert X.parts["primitive_indices"] == ()


def test_plane_curve_family_middle_rank_parameter():
    X = spaces.plane_curve_family(1, middle_rank=2)
    assert len(X.parts["primitive_indices"]) == 2
    base = spaces.plane_curve_family(1)
    assert X.rank(X.dim) == base.rank(base.dim) + 2


# -- the primitive-killing surjection -------------------------------------------------


def test_kill_primitive_middle_is_identity_without_primitives():
    P2 = spaces.projective_space(2)
    target, q = spaces.kill_primitive_middle(P2)
    assert target is P2
    assert q.apply(P2.basis_class("h")) == P2.basis_class("h")


def test_kill_primitive_middle_collapses_primitives():
    X = spaces.hypersurface_model(3, 2, 1)
    target, q = spaces.kill_primitive_middle(X)
    assert target.rank(2) == X.rank(2) - 1
    assert q.apply(X.basis_class("m1")).is_zero()
    assert q.apply(X.basis_class("h")) == target.basis_class("h")
    assert q.apply(X.point()) == target.point()


# -- closed-form dimension counts ------------------------------------------------------


def test_fano_dimension_bound_values():
    assert spaces.fano_delta(3, (3,), 1) == 0
    assert spaces.fano_delta(4, (5,), 1) == 0
    assert spaces.fano_delta(4, (3,), 1) == 1
    assert spaces.fano_delta(5, (2, 2), 1) == 1


def test_fano_dimension_bound_notes():
    assert spaces.fano_delta_notes(3, (3,), 1) == []
    notes = spaces.fano_delta_notes(4, (3,), 1)
    assert len(notes) == 1 and "2-dimensional" in notes[0]
    notes = spaces.fano_delta_notes(5, (2, 2), 1)
    assert len(notes) == 1 and "largest degree" in notes[0]


def test_fano_rejects_bad_degrees():
    with pytest.raises(InvalidSpec):
        spaces.fano_delta(3, (), 1)
    with pytest.raises(InvalidSpec):
        spaces.fano_delta(3, (0,), 1)


@pytest.mark.parametrize("call, args", [
    (spaces.fano_delta, (4.9, [3.2], 1.5)),
    (spaces.fano_delta, (4.0, [3], 1)),
    (spaces.fano_delta, (4, [3.0], 1)),
    (spaces.fano_delta, (4, [3], True)),
    (spaces.fano_delta, (4, [True], 1)),
    (spaces.fano_delta_notes, (4, [3], 1.0)),
    (spaces.rep_variety_dim, (True, 2.9)),
    (spaces.rep_variety_dim, (2, 2.0)),
    (spaces.barth_range, (6.0, 4)),
    (spaces.barth_range, (6, True)),
])
def test_formulas_refuse_arguments_that_are_not_ints(call, args):
    """A float or a bool is refused, not truncated: `fano_delta(4.9,
    [3.2], 1.5)` once returned 1 and `rep_variety_dim(True, 2.9)` 6."""
    with pytest.raises(InvalidSpec, match="must be an integer"):
        call(*args)


def test_representation_variety_dimension_values():
    assert spaces.rep_variety_dim(2, 2) == 13
    assert spaces.rep_variety_dim(1, 3) == 12
    assert spaces.rep_variety_dim(2, 1) == 4
    assert spaces.rep_variety_dim(1, 1) == 2
    with pytest.raises(InvalidSpec):
        spaces.rep_variety_dim(0, 2)


def test_ambient_pinning_range_values():
    assert spaces.barth_range(6, 4) == 2
    assert spaces.barth_range(8, 4) == 0
    assert spaces.barth_range(5, 4) == 3
    with pytest.raises(InvalidSpec):
        spaces.barth_range(3, 4)

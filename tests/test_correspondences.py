"""Correspondence calculus: diagonal, composition, transpose, products."""

import random
from fractions import Fraction

import pytest

from chowkunneth import spaces
from chowkunneth.correspondences import (
    CorrespondenceClass,
    act,
    compose,
    diagonal,
    exterior_product,
    map_correspondence,
    zero_correspondence,
)
from chowkunneth.equivariant import (
    EquivariantCorrespondence,
    equivariant_projective_torus,
    equivariant_trivial_action,
    torus_group,
    unit_lift,
)
from chowkunneth.errors import InvalidSpec, RingMismatch
from chowkunneth.graded_ring import ClassVector
import ring_oracles
from ring_oracles import pure_tensor, transpose
from test_acceptance import corpus_rings


def cubic_curve():
    """dim-1 ring with two odd middle classes (ranks 1, 2, 1)."""
    return spaces.ci_model(spaces.projective_space(2), {"h": 3}, 2)


def dual_basis_diagonal(X):
    """The diagonal validated term by term: (-1)^p e_i x its dual class,
    over every degree p, each dual class read off the block inverses by
    the oracle, since `dual_basis` itself reads the diagonal."""
    terms = {}
    for p in X.degrees():
        for i, dual in zip(X.degree_indices(p), ring_oracles.block_dual_basis(X, p)):
            for j, c in dual.coeffs.items():
                terms[i, j] = (-1) ** p * c
    return CorrespondenceClass(X, X, 0, terms)


def test_cached_diagonal_is_the_validated_one():
    """The diagonal read off the block inverses, its terms kept on the
    ring, equals the validated one in terms and their order, on every
    corpus ring, an odd curve and a product with it; a model's diagonal,
    its terms kept on the model, equals its validated construction."""
    for X in [*corpus_rings(), cubic_curve(),
              spaces.product_space(cubic_curve(), spaces.projective_space(1))]:
        delta = diagonal(X)
        assert delta.terms is diagonal(X).terms
        want = dual_basis_diagonal(X)
        assert delta == want and list(delta.terms.items()) == list(want.terms.items()), X
    M = equivariant_projective_torus((3, -2, 0, 1, 1, 5, -4, 2, 7), 32)
    assert M.diagonal().terms is M.diagonal().terms
    assert M.diagonal() == EquivariantCorrespondence(M, 0, M._divided_difference())
    T = equivariant_trivial_action(cubic_curve(), torus_group(2), 4)
    assert T.diagonal().terms is T.diagonal().terms
    assert T.diagonal() == unit_lift(T, dual_basis_diagonal(T.base))


def test_dual_bases_are_dual_and_match_the_block_reading():
    """∫ e_i · ê_j = δ_ij in every degree p on the cubic curve, its
    square and cubic x P^1, and on those and every corpus ring each dual
    basis equals the one read off the block inverses directly."""
    E = cubic_curve()
    odd = [E, spaces.product_space(E, E), spaces.product_space(E, spaces.projective_space(1))]
    for X in odd:
        for p in X.degrees():
            duals = X.dual_basis(p)
            for a, i in enumerate(X.degree_indices(p)):
                for b, dual in enumerate(duals):
                    assert X.integrate(X.basis_vector(i) * dual) == (a == b), (X, p)
    for X in [*odd, *corpus_rings()]:
        for p in range(-1, X.top_degree + 2):
            assert X.dual_basis(p) == ring_oracles.block_dual_basis(X, p), (X, p)


def random_corr(rng, X, Y, shift):
    degree = 2 * (X.dim + shift)
    terms = {}
    for i, (_, di) in enumerate(X.basis):
        for j, (_, dj) in enumerate(Y.basis):
            if di + dj == degree:
                c = rng.randrange(-3, 4)
                if c:
                    terms[(i, j)] = Fraction(c)
    return CorrespondenceClass(X, Y, shift, terms)


# -- construction ------------------------------------------------------------------


def test_terms_must_be_homogeneous():
    P1 = spaces.projective_space(1)
    with pytest.raises(ValueError):
        CorrespondenceClass(P1, P1, 0, {(0, 0): 1})  # 1 x 1 has degree 0, not 2


@pytest.mark.parametrize("value", [0.5, 1.0, True])
def test_correspondences_refuse_floats_and_bools(value):
    P2 = spaces.projective_space(2)
    with pytest.raises(InvalidSpec, match=f"expected an exact rational string, got {value}$"):
        CorrespondenceClass(P2, P2, 0, {(0, 2): value})
    with pytest.raises(InvalidSpec, match=f"expected an exact rational string, got {value}$"):
        diagonal(P2).scale(value)
    assert CorrespondenceClass(P2, P2, 0, {(0, 2): "1/2"}).terms == {(0, 2): Fraction(1, 2)}
    with pytest.raises(InvalidSpec, match=f"^'degree_shift' must be an integer, got {value}$"):
        CorrespondenceClass(P2, P2, value, {})


def test_pure_tensor_infers_shift():
    P1, P2 = spaces.projective_space(1), spaces.projective_space(2)
    f = pure_tensor(P1.point(), P2.basis_class("h"))
    assert f.source is P1 and f.target is P2
    assert f.shift == 1  # degrees 2 + 2 = 2(dim P1 + 1)
    E = cubic_curve()
    with pytest.raises(ValueError):
        pure_tensor(E.basis_class("m1"), P1.unit())  # odd total degree


def test_addition_requires_matching_shape():
    P1, P2 = spaces.projective_space(1), spaces.projective_space(2)
    f = diagonal(P1)
    with pytest.raises(RingMismatch):
        f + diagonal(P2)
    with pytest.raises(RingMismatch):
        f + pure_tensor(P1.point(), P1.point())  # shift 1 vs 0


def test_scale_add_subtract():
    f = diagonal(spaces.projective_space(2))
    assert (f + f) == f.scale(2)
    assert (f - f).is_zero()
    assert (-f).scale(-1) == f


# -- the diagonal -------------------------------------------------------------------


def test_diagonal_of_projective_line_pinned():
    P1 = spaces.projective_space(1)
    assert diagonal(P1).label_terms() == [
        ("1", "h", Fraction(1)),
        ("h", "1", Fraction(1)),
    ]


def test_diagonal_with_odd_classes_pinned():
    E = cubic_curve()
    assert diagonal(E).label_terms() == [
        ("1", "1*", Fraction(1)),
        ("m1", "m2", Fraction(-1)),
        ("m2", "m1", Fraction(1)),
        ("1*", "1", Fraction(1)),
    ]


def test_diagonal_acts_as_identity_on_classes():
    for X in (
        spaces.projective_space(3),
        spaces.grassmannian(2, 4),
        cubic_curve(),
        spaces.hypersurface_model(3, 3, 7),
    ):
        delta = diagonal(X)
        for label, _ in X.basis:
            v = X.basis_class(label)
            assert act(delta, v) == v, (X, label)


def test_diagonal_is_two_sided_composition_identity():
    rng = random.Random(7)
    X, Y = spaces.projective_space(2), cubic_curve()
    for shift in (-1, 0, 1):
        f = random_corr(rng, X, Y, shift)
        assert compose(diagonal(X), f) == f
        assert compose(f, diagonal(Y)) == f


# -- action -------------------------------------------------------------------------


def test_action_pinned_example():
    P1, P2 = spaces.projective_space(1), spaces.projective_space(2)
    f = pure_tensor(P1.point(), P2.basis_class("h"))
    image = act(f, P1.unit())
    assert image == P2.basis_class("h")
    assert act(f, P1.point()).is_zero()


def test_action_degree_bookkeeping():
    P2 = spaces.projective_space(2)
    f = pure_tensor(P2.point(), P2.unit())
    assert f.shift == 0
    assert act(f, P2.unit()).label_dict() == {"1": Fraction(1)}
    assert act(f, P2.basis_class("h^2")).is_zero()
    g = pure_tensor(P2.unit(), P2.basis_class("h"))  # shift -1, lowers degree
    image = act(g, P2.basis_class("h^2"))
    assert image.degree == 2
    assert image == P2.basis_class("h")


def test_action_requires_source_ring():
    P1, P2 = spaces.projective_space(1), spaces.projective_space(2)
    with pytest.raises(RingMismatch):
        act(diagonal(P1), P2.unit())


def act_by_integration(gamma, alpha):
    """The action integrated out term by term from the structure
    constants: the oracle for `act`, which reads the pairing table."""
    X = gamma.source
    out = {}
    for (i, j), c in gamma.terms.items():
        e_i = X.basis_vector(i)
        out[j] = out.get(j, Fraction(0)) + c * X.integrate(X.multiply(alpha, e_i))
    return ClassVector(gamma.target, alpha.degree + 2 * gamma.shift, out)


def test_action_agrees_with_integrating_structure_constants():
    rng = random.Random(17)
    P1, P2, E = spaces.projective_space(1), spaces.projective_space(2), cubic_curve()
    EP1 = spaces.product_space(E, P1)
    for X, Y in ((P2, E), (E, P2), (E, E), (EP1, EP1), (EP1, E)):
        for shift in range(-X.dim, Y.dim + 1):
            f = random_corr(rng, X, Y, shift)
            for p in X.degrees():
                alpha = ClassVector(
                    X, p, {i: rng.randrange(-3, 4) for i in X.degree_indices(p)}
                )
                assert act(f, alpha) == act_by_integration(f, alpha), (X, shift, p)


# -- composition laws ----------------------------------------------------------------


def test_composition_requires_matching_middle():
    P1, P2 = spaces.projective_space(1), spaces.projective_space(2)
    with pytest.raises(RingMismatch):
        compose(diagonal(P1), diagonal(P2))


def test_composition_is_associative():
    rng = random.Random(11)
    P1, P2, E = spaces.projective_space(1), spaces.projective_space(2), cubic_curve()
    for trial in range(8):
        f = random_corr(rng, P1, P2, rng.choice([0, 1]))
        g = random_corr(rng, P2, E, rng.choice([-1, 0]))
        h = random_corr(rng, E, P1, rng.choice([0, 1]))
        assert compose(compose(f, g), h) == compose(f, compose(g, h)), trial


def test_composition_is_functorial_on_classes():
    rng = random.Random(13)
    P2, E = spaces.projective_space(2), cubic_curve()
    for trial in range(8):
        f = random_corr(rng, P2, E, rng.choice([-1, 0]))
        g = random_corr(rng, E, P2, rng.choice([0, 1]))
        fg = compose(f, g)
        for label, _ in P2.basis:
            v = P2.basis_class(label)
            assert act(fg, v) == act(g, act(f, v)), (trial, label)


def test_compose_with_zero_is_zero():
    P1, P2 = spaces.projective_space(1), spaces.projective_space(2)
    f = random_corr(random.Random(3), P1, P2, 0)
    assert compose(f, zero_correspondence(P2, P1, 0)).is_zero()
    assert compose(zero_correspondence(P2, P1, 0), f).is_zero()


# -- transpose, the oracles' helper, against compose and the diagonal --------------


def test_transpose_is_involutive():
    rng = random.Random(17)
    P2, E = spaces.projective_space(2), cubic_curve()
    for shift in (-1, 0, 1):
        f = random_corr(rng, P2, E, shift)
        ft = transpose(f)
        assert ft.source is E and ft.target is P2
        assert ft.shift == shift + P2.dim - E.dim
        assert transpose(ft) == f


def test_transpose_reverses_composition():
    rng = random.Random(19)
    P1, E = spaces.projective_space(1), cubic_curve()
    for trial in range(8):
        f = random_corr(rng, P1, E, rng.choice([0, 1]))
        g = random_corr(rng, E, P1, rng.choice([-1, 0]))
        assert transpose(compose(f, g)) == compose(transpose(g), transpose(f)), trial


def test_transpose_of_diagonal_is_diagonal():
    for X in (spaces.projective_space(3), cubic_curve()):
        assert transpose(diagonal(X)) == diagonal(X)


# -- exterior products ----------------------------------------------------------------


def test_exterior_product_of_diagonals_is_product_diagonal():
    P1, P2 = spaces.projective_space(1), spaces.projective_space(2)
    T = spaces.product_space(P1, P2)
    assert exterior_product(diagonal(P1), diagonal(P2), T, T) == diagonal(T)


def test_exterior_product_sign_with_odd_classes():
    E = cubic_curve()
    T = spaces.product_space(E, E)
    assert exterior_product(diagonal(E), diagonal(E), T, T) == diagonal(T)


def test_exterior_product_checks_factors():
    P1, P2 = spaces.projective_space(1), spaces.projective_space(2)
    T = spaces.product_space(P1, P2)
    with pytest.raises(RingMismatch):
        exterior_product(diagonal(P2), diagonal(P1), T, T)


# -- transport along ring maps ----------------------------------------------------------


def test_map_correspondence_along_identity():
    from chowkunneth.graded_ring import RingMap

    P2 = spaces.projective_space(2)
    ident = RingMap(P2, P2, [P2.basis_class(l) for l, _ in P2.basis])
    f = random_corr(random.Random(23), P2, P2, 0)
    assert map_correspondence(ident, ident, f) == f


def test_killing_primitives_transports_diagonal_to_diagonal():
    for X in (spaces.hypersurface_model(3, 2, 1), spaces.hypersurface_model(3, 3, 7)):
        target, q = spaces.kill_primitive_middle(X)
        assert map_correspondence(q, q, diagonal(X)) == diagonal(target)


def test_map_correspondence_checks_sources():
    from chowkunneth.graded_ring import RingMap

    P1, P2 = spaces.projective_space(1), spaces.projective_space(2)
    ident = RingMap(P1, P1, [P1.basis_class(l) for l, _ in P1.basis])
    with pytest.raises(RingMismatch):
        map_correspondence(ident, ident, diagonal(P2))

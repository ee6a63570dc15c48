"""Truncated parameter models, lifted projectors, stabilization."""

import copy
import itertools
import random
from fractions import Fraction
from math import lcm

import pytest

from chowkunneth import spaces
from chowkunneth.correspondences import act, compose
from chowkunneth.equivariant import (
    EquivariantCorrespondence,
    EquivariantModel,
    EquivariantProjectorFamily,
    GroupSpec,
    TruncatedPolyRing,
    bg_ring,
    bottom_weight_restriction,
    compare_lifted_coefficients,
    equivariant_projective_torus,
    equivariant_trivial_action,
    general_linear_group,
    lift_projectors,
    stabilization_check,
    torus_group,
    unit_lift,
    verify_equivariant,
)
from chowkunneth.errors import (
    InvalidSpec, RingMismatch, SizeLimitExceeded, UnsupportedAction,
)
from chowkunneth.graded_ring import RingMap
from chowkunneth.kunneth import (
    ProjectorSet,
    _components,
    full_projectors,
    report_passes,
    verify_ck,
)
from chowkunneth.serialize import family_document, family_from_document
from ring_oracles import diagonal_component, failing_checks, fraction_partners


# -- groups -------------------------------------------------------------------


def test_group_generators():
    assert torus_group(1).generators() == (("t", 2),)
    assert torus_group(3).generators() == (("t1", 2), ("t2", 2), ("t3", 2))
    assert general_linear_group(3).generators() == (
        ("c1", 2),
        ("c2", 4),
        ("c3", 6),
    )


def test_group_validation():
    with pytest.raises(ValueError):
        GroupSpec("orthogonal", 2)
    with pytest.raises(ValueError):
        torus_group(0)


# -- truncated parameter rings ---------------------------------------------------


def test_torus_parameter_ring_pinned():
    R = bg_ring(torus_group(1), 6)
    assert R.basis == (("1", 0), ("t", 2), ("t^2", 4), ("t^3", 6))


def test_general_linear_parameter_ring_pinned():
    R = bg_ring(general_linear_group(2), 4)
    assert R.basis == (("1", 0), ("c1", 2), ("c1^2", 4), ("c2", 4))


def test_zero_bound_parameter_ring_is_unit():
    assert bg_ring(general_linear_group(3), 0).basis == (("1", 0),)


def test_parameter_ring_bound_validation():
    with pytest.raises(ValueError):
        TruncatedPolyRing((("t", 2),), 3)
    with pytest.raises(ValueError):
        TruncatedPolyRing((("t", 2),), -2)


def brute_force_monomial_count(degrees, bound):
    """Independent count of exponent tuples with weighted degree <= bound."""
    ranges = [range(bound // d + 1) for d in degrees]
    return sum(
        1
        for exps in itertools.product(*ranges)
        if sum(e * d for e, d in zip(exps, degrees)) <= bound
    )


def test_parameter_ring_rank_matches_brute_force():
    for n in (2, 3):
        for N in (0, 4, 8):
            R = bg_ring(general_linear_group(n), N)
            degrees = [2 * i for i in range(1, n + 1)]
            assert len(R.basis) == brute_force_monomial_count(degrees, N), (n, N)
    R = bg_ring(torus_group(2), 6)
    assert len(R.basis) == brute_force_monomial_count([2, 2], 6)


def test_monomial_arithmetic():
    R = bg_ring(general_linear_group(2), 8)
    c1c2 = (1, 1)
    assert R.mono_degree(c1c2) == 6
    assert R.mono_label(c1c2) == "c1 c2"
    assert R.mono_label((2, 1)) == "c1^2 c2"
    code = R.code_of
    assert R.mono_of[code[1, 0] + code[1, 1]] == (2, 1)
    assert code[2, 1] + code[1, 1] >= R.limit  # degree 10 overflows


def test_monomial_products_match_the_definition():
    """Codes add to the code of the product, or past the limit exactly
    when the product overflows the bound."""
    for R in (bg_ring(torus_group(2), 6), bg_ring(general_linear_group(3), 8)):
        weights = [d for _, d in R.gens]
        for a in R.monomials():
            for b in R.monomials():
                out = tuple(x + y for x, y in zip(a, b))
                want = out if sum(e * w for e, w in zip(out, weights)) <= R.bound else None
                m = R.code_of[a] + R.code_of[b]
                assert (R.mono_of[m] if m < R.limit else None) == want, (a, b)


def test_monomial_codes():
    """code(m) = deg(m) B^r + sum e_g B^g with B = N/2 + 1; the unit is 0
    and every code of the basis is below the limit (N + 1) B^r."""
    R = bg_ring(general_linear_group(2), 8)
    assert R.limit == 9 * 5 ** 2
    assert R.code_of[R.unit_mono] == 0
    assert R.code_of[(1, 1)] == 6 * 25 + 1 + 5
    assert R.mono_of[6 * 25 + 1 + 5] == (1, 1)
    assert sorted(R.code_of) == sorted(R.monomials())
    assert all(c < R.limit for c in R.mono_of)
    assert bg_ring(torus_group(3), 0).limit == 1


def test_parameter_generators_of_degree_below_two_are_rejected():
    with pytest.raises(ValueError, match="degree >= 2"):
        TruncatedPolyRing((("s", 1),), 4)


@pytest.mark.parametrize("degree", [2.9, 2.0, True])
def test_parameter_generator_degrees_must_be_ints(degree):
    # a float or a bool degree is refused, not truncated to an int
    with pytest.raises(InvalidSpec, match="a parameter generator's degree must be an integer"):
        TruncatedPolyRing((("t", degree),), 4)


# -- trivial-action models ---------------------------------------------------------


def test_trivial_model_zero_bound_is_the_base():
    X = spaces.projective_space(2)
    M = equivariant_trivial_action(X, torus_group(1), 0)
    one = M.bg.unit_mono
    assert M.bg.monomials() == (one,)
    for j in range(len(X.basis)):
        assert fraction_partners(M, j) == tuple(
            (k, {one: v}) for k, v in fraction_partners(X, j))


def test_model_bound_validation():
    X = spaces.projective_space(1)
    with pytest.raises(ValueError, match="the truncation bound must be an even integer >= 0"):
        EquivariantModel(X, torus_group(1), 3)


@pytest.mark.parametrize("call, error, message", [
    (lambda: GroupSpec("general_linear", -10**5000), InvalidSpec,
     "'rank': the group rank must be an integer >= 1, got less than -10^30"),
    (lambda: GroupSpec(10**5000, 1), InvalidSpec, "'kind': unknown group kind more than 10^30"),
    (lambda: EquivariantModel(spaces.projective_space(1), torus_group(1), -10**5000),
     InvalidSpec, "'N': the truncation bound must be an integer >= 0, got less than -10^30"),
    (lambda: EquivariantModel(spaces.projective_space(1), torus_group(1), 10**5000 + 1),
     InvalidSpec, "'N': the truncation bound must be an even integer >= 0, got more than 10^30"),
    (lambda: EquivariantModel(spaces.projective_space(1), torus_group(1), 10**5000),
     SizeLimitExceeded, "the parameter ring of multiplicative_torus of rank 1 truncated at "
     "N = more than 10^30 would hold more than 10^30 monomials of 1 exponents each, past "
     "the limit of 1000000 exponents"),
    (lambda: EquivariantModel(spaces.projective_space(1), torus_group(10**5000), 2),
     SizeLimitExceeded, "the parameter ring of multiplicative_torus of rank more than 10^30 "
     "truncated at N = 2 would hold more than 10^30 monomials of more than 10^30 exponents "
     "each, past the limit of 1000000 exponents"),
], ids=["GL rank", "group kind", "negative bound", "odd bound", "even bound", "torus rank"])
def test_ints_too_long_to_print_are_named_by_a_bound(call, error, message):
    """Python prints no int of over 4300 digits; each of these once
    ended in its ValueError instead of the engine's error."""
    with pytest.raises(error) as got:
        call()
    assert str(got.value) == message


def test_trivial_model_diagonal_has_unit_parameters():
    X = spaces.projective_space(1)
    M = equivariant_trivial_action(X, torus_group(1), 4)
    assert M.diagonal().label_terms() == [
        ("1", "h", "1", Fraction(1)),
        ("h", "1", "1", Fraction(1)),
    ]


# -- equivariant correspondences ------------------------------------------------------


def test_correspondence_homogeneity_enforced():
    M = equivariant_trivial_action(spaces.projective_space(1), torus_group(1), 4)
    with pytest.raises(ValueError):
        EquivariantCorrespondence(M, 0, {(0, 1, (1,)): 1})  # degree 4, not 2


def test_correspondence_rejects_non_monomials():
    """A negative exponent or a wrong number of exponents names no
    parameter monomial, even where the degree would fit: (-1,) on
    h^2 x h of P^2 has total degree 4."""
    M = equivariant_projective_torus((0, 1, 2), 4)
    for mono in ((-1,), (0, 0), ()):
        with pytest.raises(ValueError, match="not a parameter monomial"):
            EquivariantCorrespondence(M, 0, {(2, 1, mono): 1})


def test_correspondence_truncation_drops_overflow():
    M = equivariant_trivial_action(spaces.projective_space(1), torus_group(1), 2)
    # 1 x 1 t^2 would be homogeneous for shift 1, but t^2 overflows N=2
    c = EquivariantCorrespondence(M, 1, {(0, 0, (2,)): 1})
    assert c.is_zero()


def test_lifted_terms_read_their_degree_from_the_code(monkeypatch):
    """Reading a family document and `unit_lift` make no `mono_degree`
    call: a monomial within the bound has a code, which holds its
    degree. A monomial past the bound is still dropped, and a term of
    the wrong degree or a non-monomial still named."""
    M = equivariant_projective_torus((0, 1, 3, 7), 8)
    F = lift_projectors(full_projectors(M.base), M.group, M.N, model=M)
    doc = family_document(F)
    T = equivariant_trivial_action(spaces.grassmannian(2, 4), torus_group(2), 6)
    P = full_projectors(T.base)
    calls = []
    original = TruncatedPolyRing.mono_degree

    def counted(self, exps):
        calls.append(exps)
        return original(self, exps)

    monkeypatch.setattr(TruncatedPolyRing, "mono_degree", counted)
    assert family_from_document(doc) == F
    for i in P.indices():
        assert unit_lift(T, P.member(i)).restrict() == P.member(i)
    assert calls == []

    L = equivariant_trivial_action(spaces.projective_space(1), torus_group(1), 2)
    assert EquivariantCorrespondence(L, 0, {(0, 0, (1,)): 1}).terms == {(0, 0, (1,)): 1}
    assert EquivariantCorrespondence(L, 1, {(0, 0, (2,)): 1}).is_zero()
    with pytest.raises(ValueError, match=r"^term \(1, h, t\) has degree 4, expected 2$"):
        EquivariantCorrespondence(L, 0, {(0, 1, (1,)): 1})
    with pytest.raises(ValueError, match=r"^\(0, -1\) is not a parameter monomial"):
        EquivariantCorrespondence(L, 0, {(0, 1, (0, -1)): 1})


def test_correspondence_linear_structure():
    M = equivariant_trivial_action(spaces.projective_space(1), torus_group(1), 4)
    d = M.diagonal()
    assert (d + d) == d.scale(2)
    assert (d - d).is_zero()
    with pytest.raises(RingMismatch):
        d + EquivariantCorrespondence(M, 1, {})


def test_lifted_compose_adds_shifts():
    """Lifted classes of different shifts compose as ordinary ones do:
    on P^2 under a trivial torus, (1 x h) then (h x h) is 1 x h."""
    X = spaces.projective_space(2)
    M = equivariant_trivial_action(X, torus_group(1), 4)
    one, h, unit = X.label_index["1"], X.label_index["h"], M.bg.unit_mono
    f = EquivariantCorrespondence(M, -1, {(one, h, unit): 1})
    g = EquivariantCorrespondence(M, 0, {(h, h, unit): 1})
    lifted = f.compose(g)
    assert lifted.shift == -1
    assert lifted.label_terms() == [("1", "h", "1", Fraction(1))]
    assert lifted.restrict() == compose(f.restrict(), g.restrict())
    # With weights the parameters enter the pairing; the diagonal is
    # still a two-sided unit for a class of another shift.
    W = equivariant_projective_torus((0, 1, 3), 8)
    k = EquivariantCorrespondence(W, -1, {(0, 1, (0,)): 2, (0, 0, (1,)): 3, (1, 0, (0,)): -1})
    assert k.compose(W.diagonal()) == k == W.diagonal().compose(k)
    with pytest.raises(RingMismatch):
        f.compose(EquivariantCorrespondence(W, 0, {}))


# -- the weighted projective-line model ------------------------------------------------


def weighted_line(N=8):
    return equivariant_projective_torus((0, 1), N)


def test_weighted_model_pairing_pinned():
    M = weighted_line()
    X = M.base
    i_one, i_h = X.label_index["1"], X.label_index["h"]
    assert M.pair_poly(i_one, i_one) == {}
    assert M.pair_poly(i_one, i_h) == {(0,): Fraction(1)}
    assert M.pair_poly(i_h, i_h) == {(1,): Fraction(-1)}  # h^2 = -t h


def test_weighted_model_diagonal_pinned():
    M = weighted_line()
    assert M.diagonal().label_terms() == [
        ("1", "1", "t", Fraction(1)),
        ("1", "h", "1", Fraction(1)),
        ("h", "1", "1", Fraction(1)),
    ]


def test_weighted_model_requires_weights():
    with pytest.raises(ValueError):
        equivariant_projective_torus((), 4)


def test_weighted_lift_is_exactly_idempotent():
    M = weighted_line()
    P = full_projectors(M.base)
    F = lift_projectors(P, torus_group(1), 8, model=M)
    assert F.indices() == (0, 1, 2)
    pi0 = F.member(0)
    assert pi0.label_terms() == [
        ("1", "1", "t", Fraction(1)),
        ("h", "1", "1", Fraction(1)),
    ]
    assert pi0.compose(pi0) == pi0
    assert F.member(1).is_zero()  # zero input member kept as zero
    assert report_passes(verify_equivariant(F))


def test_weighted_lift_restricts_to_input():
    M = weighted_line()
    P = full_projectors(M.base)
    F = lift_projectors(P, torus_group(1), 8, model=M)
    back = F.restrict()
    assert back == P
    assert back.complete and back.remainder_indices == P.remainder_indices


def test_weighted_lift_rejects_nonstandard_sets():
    from chowkunneth.kunneth import ProjectorSet

    M = weighted_line()
    X = M.base
    swapped = ProjectorSet(
        X,
        {0: diagonal_component(X, 2), 2: diagonal_component(X, 0)},
        complete=True,
    )
    with pytest.raises(UnsupportedAction):
        lift_projectors(swapped, torus_group(1), 8, model=M)


def test_weighted_model_with_higher_weights():
    M = equivariant_projective_torus((1, 2, 3), 8)
    F = lift_projectors(full_projectors(M.base), torus_group(1), 8, model=M)
    assert report_passes(verify_equivariant(F))
    assert F.restrict() == full_projectors(M.base)


# -- the weighted closed forms against the solvers they replaced ---------------------------
#
# The model reads its pushforwards from a Segre list and its diagonal
# from a divided difference. The relation-reduction and back-substitution
# solvers that computed them before are kept here as oracles.


def elementary(weights):
    e = [Fraction(1)]
    for w in weights:
        e = [a + w * b for a, b in zip(e + [Fraction(0)], [Fraction(0)] + e)]
    return e


def reduced_pushforwards(weights):
    """Row q is the pushforward of h^q, as {t-exponent: coefficient},
    for q up to 2(m-1): h^q is reduced with the relation
    h^m = -(e1 t h^(m-1) + ... + em t^m) and its h^(m-1) coefficient read."""
    m, e = len(weights), elementary(weights)
    state = {(0, 0): Fraction(1)}  # {(t exponent, h exponent): coefficient}
    table = []
    for _ in range(2 * m - 1):
        table.append({t: c for (t, hdeg), c in state.items() if hdeg == m - 1 and c})
        nxt = {}
        for (t, hdeg), c in state.items():
            if hdeg + 1 < m:
                nxt[(t, hdeg + 1)] = nxt.get((t, hdeg + 1), 0) + c
            else:
                for i in range(1, m + 1):
                    nxt[(t + i, m - i)] = nxt.get((t + i, m - i), 0) - c * e[i]
        state = {key: v for key, v in nxt.items() if v}
    return table


def back_substituted_duals(weights):
    """Row k is the class dual to h^k, as {h-exponent: {t-exponent:
    coefficient}}: the pushforward of h^a times row k is delta(a, k).
    Solved ascending in a on the anti-triangular pushforward matrix,
    whose anti-diagonal entries are 1."""
    m, table = len(weights), reduced_pushforwards(weights)
    duals = []
    for k in range(m):
        row = {}
        for a in range(m):
            res = {0: Fraction(int(a == k))}
            for b2 in range(m - a, m):
                for t2, c2 in row.get(b2, {}).items():
                    for t1, c1 in table[a + b2].items():
                        res[t1 + t2] = res.get(t1 + t2, 0) - c1 * c2
            res = {t: c for t, c in res.items() if c}
            if res:
                row[m - 1 - a] = res
        duals.append(row)
    return duals


def oracle_weight_cases():
    """Seeded weight vectors with zero, repeated and negative weights,
    each with bounds below, at and above 2(m-1)."""
    rng = random.Random(7)
    vectors = [(0,), (5,), (0, 0), (3, 3), (0, 0, 0), (2, 2, -2), (-1, -4, 0, 5)]
    vectors += [tuple(rng.randint(-3, 3) for _ in range(rng.randint(1, 7))) for _ in range(12)]
    for w in vectors:
        top = 2 * (len(w) - 1)
        for N in sorted({0, max(top - 2, 0), top, top + 2, 6 * len(w)}):
            yield w, N


def test_weighted_pushforwards_match_relation_reduction():
    for weights, N in oracle_weight_cases():
        M = equivariant_projective_torus(weights, N)
        table = reduced_pushforwards(weights)
        for j, (_, dj) in enumerate(M.base.basis):
            for k, (_, dk) in enumerate(M.base.basis):
                want = {(t,): c for t, c in table[(dj + dk) // 2].items() if 2 * t <= N}
                assert M.pair_poly(j, k) == want, (weights, N, j, k)


def test_weighted_diagonal_matches_back_substituted_duals():
    for weights, N in oracle_weight_cases():
        M = equivariant_projective_torus(weights, N)
        terms = {
            (b, k, (t,)): c
            for k, row in enumerate(back_substituted_duals(weights))
            for b, poly in row.items()
            for t, c in poly.items()
        }
        assert M.diagonal() == EquivariantCorrespondence(M, 0, terms), (weights, N)


# The model runs the Segre recurrence on ints (e_0 = 1, so every s_r is
# an integer). The recurrence in `Fraction`s, as the model first ran it,
# is kept here as an oracle for everything the model builds from it.


def fraction_segre(weights):
    e = elementary(weights)
    s = [Fraction(1)]
    for r in range(1, len(weights)):
        s.append(-sum(e[i] * s[r - i] for i in range(1, r + 1)))
    return e, s


def segre_weight_cases():
    """Weight vectors with zero, repeated and negative weights, a single
    weight, and weights like those of P^20 in the benchmark's session
    workload (0..20 permuted, either sign), each at bounds below, at and
    above 2(m-1)."""
    rng = random.Random("session weights")
    permuted = list(range(21))
    rng.shuffle(permuted)
    vectors = [(0, 1, 2), (0, 1, 3, 7), (1, 2, 5, 5, 9), (-3, 0, 4), (6,),
               tuple(permuted), tuple(-w for w in permuted)]
    for w in vectors:
        top = 2 * (len(w) - 1)
        for N in sorted({0, 2, top, 4 * top}):
            yield w, N


@pytest.mark.parametrize("weights, N", list(segre_weight_cases()))
def test_integer_segre_numbers_match_the_fraction_recurrence(weights, N):
    M = equivariant_projective_torus(weights, N)
    e, s = fraction_segre(weights)
    assert M._chern == tuple(e) and all(type(c) is int for c in M._chern)
    assert M._segre == tuple(s) and all(type(c) is Fraction for c in M._segre)
    m, basis = len(weights), M.base.basis
    pairs = {}
    for j, (_, dj) in enumerate(basis):
        for k, (_, dk) in enumerate(basis):
            r = (dj + dk) // 2 - M.dim
            want = {(r,): s[r]} if 0 <= r and 2 * r <= N and s[r] else {}
            got = M.pair_poly(j, k)
            assert got == want and all(type(c) is Fraction for c in got.values()), (j, k)
            if want:
                pairs.setdefault(j, []).append((k, M.bg.code_of[(r,)], int(s[r])))
    assert M._integer_partners() == (1, [pairs.get(j, []) for j in range(m)])
    terms = {(a, b, (c,)): e[c] for a in range(m) for b in range(m - a)
             if 2 * (c := m - 1 - a - b) <= N and e[c]}
    delta = M.diagonal()
    assert delta == EquivariantCorrespondence(M, 0, terms)
    assert all(type(c) is Fraction for c in delta.terms.values())


# -- trivial lifts ----------------------------------------------------------------------


def test_trivial_lift_verifies_for_torus_and_general_linear():
    P2 = spaces.projective_space(2)
    P = full_projectors(P2)
    for G in (torus_group(1), general_linear_group(2)):
        F = lift_projectors(P, G, 8)
        assert F.indices() == P.indices()
        assert report_passes(verify_equivariant(F)), G
        assert F.restrict() == P


@pytest.mark.parametrize("make", [
    lambda: spaces.ci_model(spaces.projective_space(2), {"h": 3}, 2),
    lambda: spaces.hypersurface_model(4, 3, 10),
], ids=["plane cubic", "cubic threefold"])
def test_trivial_lift_over_odd_cohomology(make):
    # Odd middle classes make the pairing antisymmetric, so a lifted
    # action that read the pairing with its factors swapped would flip
    # the middle member's sign.
    X = make()
    P = full_projectors(X)
    F = lift_projectors(P, torus_group(1), 4)
    assert report_passes(verify_equivariant(F))
    unit = F.model.bg.unit_mono
    for k in range(len(X.basis)):
        e = X.basis_vector(k)
        want = {(j, unit): c for j, c in act(P.projectors[X.dim], e).coeffs.items()}
        assert F.projectors[X.dim].act(e) == want, X.basis[k][0]


def models_in_this_file():
    """Every model the tests of this file build."""
    P, T, GL = spaces.projective_space, torus_group, general_linear_group
    trivial = [
        (P(2), T(1), 0), (P(1), T(1), 4), (P(1), T(1), 2),
        (P(2), T(1), 4), (P(2), T(1), 8), (P(2), GL(2), 8),
        (P(2), T(1), 6), (P(2), T(1), 10), (P(2), GL(2), 6), (P(2), GL(2), 10),
        (spaces.ci_model(P(2), {"h": 3}, 2), T(1), 4),
        (spaces.ci_model(P(2), {"h": 3}, 2), GL(2), 4),
        (spaces.hypersurface_model(4, 3, 10), T(1), 4),
        (spaces.product_space(spaces.grassmannian(3, 6), P(1)), T(2), 4),
        (spaces.grassmannian(2, 4), GL(2), 4),
    ]
    weighted = [((0, 1), N) for N in (6, 8, 10)]
    weighted += [((1, 2, 3), 8), ((0, 1, 3), 8), ((0, 1, 3, -2), 4)]
    weighted += list(oracle_weight_cases())
    return ([equivariant_trivial_action(*args) for args in trivial]
            + [equivariant_projective_torus(w, N) for w, N in weighted])


def oracle_partner_table(M):
    """The model's partner table as it was built before a trivial model
    read it from the base ring and a weighted one filled it with one
    cell per parameter degree: `pair_poly` over every pair whose
    parameter degree lies in [0, N]."""
    degree = [d for _, d in M.base.basis]
    low, high = 2 * M.dim, 2 * M.dim + M.N
    return [[(k, M.pair_poly(j, k)) for k, dk in enumerate(degree)
             if low <= dj + dk <= high and M.pair_poly(j, k)]
            for j, dj in enumerate(degree)]


def test_model_pairing_partners_are_the_nonzero_pairings():
    for M in models_in_this_file():
        n = len(M.base.basis)
        table = oracle_partner_table(M)
        for j in range(n):
            want = [(k, M.pair_poly(j, k)) for k in range(n) if M.pair_poly(j, k)]
            assert list(fraction_partners(M, j)) == want == table[j], (M, j)


def test_weighted_partner_table_scales_every_cell(monkeypatch):
    # Weighted pairings are integers, so L = 1 whatever the table reads.
    # Divided by s + 2, each parameter degree s gets its own denominator:
    # the table must still be pair_poly's over one lcm of every cell.
    inner = EquivariantModel.pair_poly

    def divided(self, j, k):
        s = (self.base.basis[j][1] + self.base.basis[k][1]) // 2 - self.dim
        return {m: v / (s + 2) for m, v in inner(self, j, k).items()}

    monkeypatch.setattr(EquivariantModel, "pair_poly", divided)
    for weights, N in oracle_weight_cases():
        M = equivariant_projective_torus(weights, N)
        table = oracle_partner_table(M)
        scale, rows = M._integer_partners()
        assert [list(fraction_partners(M, j)) for j in range(len(rows))] == table, (weights, N)
        assert scale == lcm(*(v.denominator for row in table for _, p in row for v in p.values()))
        assert all(type(v) is int for row in rows for _, _, v in row)


def test_partner_table_skips_pairs_outside_the_parameter_range(monkeypatch):
    # The pairing of e_a and e_k has parameter degree
    # deg e_a + deg e_k - 2 dim; outside [0, N] it is zero or truncated,
    # so the table must not call pair_poly there. Within it a weighted
    # pairing depends on that degree alone, so the table calls pair_poly
    # once per degree. A trivial model reads the base ring's pairing
    # table and calls pair_poly nowhere.
    calls = []
    inner = EquivariantModel.pair_poly

    def counted(self, j, k):
        calls.append((j, k))
        return inner(self, j, k)

    monkeypatch.setattr(EquivariantModel, "pair_poly", counted)
    X = spaces.product_space(spaces.grassmannian(3, 6), spaces.projective_space(1))
    cases = (
        (equivariant_trivial_action(X, torus_group(2), 4), 0),  # read from the base
        (equivariant_projective_torus((0, 1, 3, -2), 4), 3),  # degrees 0, 2, 4
    )
    for M, expected in cases:
        calls.clear()
        M._integer_partners()
        degree = [d for _, d in M.base.basis]
        assert len(calls) == expected, M
        assert all(0 <= degree[j] + degree[k] - 2 * M.dim <= M.N for j, k in calls), M


def test_lift_model_consistency_checks():
    P = full_projectors(spaces.projective_space(1))
    M = equivariant_trivial_action(
        spaces.projective_space(1), torus_group(1), 4
    )
    with pytest.raises(RingMismatch):
        lift_projectors(P, general_linear_group(1), 4, model=M)
    with pytest.raises(RingMismatch):
        lift_projectors(P, torus_group(1), 6, model=M)
    with pytest.raises(RingMismatch):
        lift_projectors(full_projectors(spaces.projective_space(2)),
                        torus_group(1), 4, model=M)


@pytest.mark.parametrize("N", [4.9, 4.0, True])
def test_lift_refuses_a_bound_that_is_not_an_int(N):
    """The bound a model is checked against is read as `bg_ring` reads
    one, not truncated: a model at N = 4 once took N = 4.9."""
    P = full_projectors(spaces.projective_space(1))
    M = equivariant_trivial_action(spaces.projective_space(1), torus_group(1), 4)
    with pytest.raises(InvalidSpec, match="'N': the truncation bound must be an integer"):
        lift_projectors(P, torus_group(1), N, model=M)


def test_lifted_family_validation():
    M = equivariant_trivial_action(spaces.projective_space(1), torus_group(1), 4)
    other = equivariant_trivial_action(spaces.projective_space(2), torus_group(1), 4)
    with pytest.raises(RingMismatch):
        EquivariantProjectorFamily(M, {0: other.diagonal()})
    with pytest.raises(ValueError):
        EquivariantProjectorFamily(
            M, {0: EquivariantCorrespondence(M, 1, {})}
        )


# -- verification reports -----------------------------------------------------------------


def test_equivariant_report_schema():
    M = weighted_line()
    F = lift_projectors(full_projectors(M.base), torus_group(1), 8, model=M)
    report = verify_equivariant(F)
    assert report_passes(report)
    checks = [e["check"] for e in report]
    assert checks.count("completeness") == 1
    assert all("basis_class" in e for e in report if e["check"] == "graded_action")


def test_equivariant_failure_residuals_include_monomials():
    M = weighted_line()
    F = lift_projectors(full_projectors(M.base), torus_group(1), 8, model=M)
    broken = dict(F.projectors)
    broken[0] = broken[0].scale(2)
    bad = EquivariantProjectorFamily(M, broken, complete=True)
    report = verify_equivariant(bad)
    entry = next(e for e in report if not e["pass"])
    assert entry["check"] == "idempotence"
    assert entry["residual_class"] == [
        ["1", "1", "t", "2"],
        ["h", "1", "1", "2"],
    ]


def weighted_plane():
    M = equivariant_projective_torus((0, 1, 3), 8)
    return M, lift_projectors(full_projectors(M.base), torus_group(1), 8, model=M)


def test_equivariant_scaled_member_residual_rows():
    # Member 2 of weighted P^2 times 9 fails idempotence, completeness
    # and graded action; residual rows carry the monomial label.
    M, F = weighted_plane()
    projs = dict(F.projectors)
    projs[2] = projs[2].scale(9)
    report = verify_equivariant(EquivariantProjectorFamily(M, projs, complete=True))
    failing = [e for e in report if not e["pass"]]
    assert [(e["check"], e["indices"], e["residual_class"]) for e in failing] == [
        ("idempotence", [2], [["1", "h", "t", "288"], ["h", "h", "1", "72"]]),
        ("completeness", [0, 2, 4], [["1", "h", "t", "32"], ["h", "h", "1", "8"]]),
        ("graded_action", [2], [["h", "1", "8"]]),
    ]


def test_reports_leave_the_shared_partner_cells_alone():
    # One cell per parameter degree fills every row of a weighted partner
    # table, which the joins of every report read; a lift, its report and
    # the report of a tampered family, which acts on its failing entries,
    # must leave the table as built.
    M = equivariant_projective_torus((0, 1, 3, -2, 5), 8)
    table = copy.deepcopy(M._integer_partners())
    F = lift_projectors(full_projectors(M.base), torus_group(1), 8, model=M)
    assert report_passes(verify_equivariant(F))
    projs = dict(F.projectors)
    projs[2] = projs[2].scale(9)
    tampered = verify_equivariant(EquivariantProjectorFamily(M, projs, complete=True))
    assert failing_checks(tampered) == ["idempotence", "completeness", "graded_action"]
    assert M._integer_partners() == table


def test_weighted_lift_members_are_the_filtered_diagonal_components():
    # lift_projectors takes each component's terms as they stand; they
    # must be the zero-filtering construction's, with no zero coefficient.
    for weights, N in oracle_weight_cases():
        M = equivariant_projective_torus(weights, N)
        F = lift_projectors(full_projectors(M.base), torus_group(1), N, model=M)
        delta = M.diagonal()
        components = _components(delta, M.base.basis)
        for i in F.indices():
            member = F.member(i)
            assert member == delta._with_terms(components.get(i, {})), (weights, N, i)
            assert all(member.terms.values()), (weights, N, i)


def test_equivariant_orthogonality_failure_residual_rows():
    M, F = weighted_plane()
    p0 = F.member(0)
    report = verify_equivariant(EquivariantProjectorFamily(M, {0: p0, 2: p0}))
    failing = [e for e in report if e["check"] == "orthogonality"]
    rows = [["1", "1", "t^2", "3"], ["h", "1", "t", "4"], ["h^2", "1", "1", "1"]]
    assert [(e["indices"], e["pass"], e["residual_class"]) for e in failing] == [
        ([0, 2], False, rows),
        ([2, 0], False, rows),
    ]


def test_equivariant_graded_action_rows_sorted_by_index_and_monomial():
    # On G(2,4) s[2] precedes s[1,1] in the basis and the monomial c2
    # precedes c1^2 as an exponent tuple; both orders are the reverse of
    # the label order, and the lifted residual rows follow them.
    G = spaces.grassmannian(2, 4)
    GL2 = general_linear_group(2)
    M = equivariant_trivial_action(G, GL2, 4)
    F = lift_projectors(full_projectors(G), GL2, 4)
    extra = EquivariantCorrespondence(
        M, 0, {(2, 3, (0, 0)): 1, (1, 1, (2, 0)): 1, (1, 1, (0, 1)): 1}
    )
    projs = dict(F.projectors)
    projs[4] = projs[4].scale(2) + extra
    report = verify_equivariant(EquivariantProjectorFamily(M, projs, complete=True))
    failing = [e for e in report if e["check"] == "graded_action" and not e["pass"]]
    assert [(e["basis_class"], e["residual_class"]) for e in failing] == [
        ("s[2]", [["s[2]", "1", "1"], ["s[1,1]", "1", "1"]]),
        ("s[1,1]", [["s[1,1]", "1", "1"]]),
        ("s[2,1]", [["s[1]", "c2", "1"], ["s[1]", "c1^2", "1"]]),
    ]


# -- stabilization ------------------------------------------------------------------------


def test_stabilization_for_trivial_lifts():
    P2 = spaces.projective_space(2)
    P = full_projectors(P2)
    assert stabilization_check(P2, torus_group(1), P, 4, 6, 10)
    assert stabilization_check(P2, general_linear_group(2), P, 4, 6, 10)
    # GL(3) keeps c1 alone at N = 2 and c1, c2, c3 at N = 6
    assert stabilization_check(P2, general_linear_group(3), P, 2, 2, 6)


def scaled_member_set(ring, index, factor):
    P = full_projectors(ring)
    projs = dict(P.projectors)
    projs[index] = projs[index].scale(factor)
    return ProjectorSet(ring, projs, complete=P.complete)


def test_stabilization_fails_when_a_lift_fails_verification():
    # Member 2 scaled by 3 is no projector; the lifts at both bounds
    # still agree coefficient by coefficient, so only their verification
    # can see it, as verify_ck does on the base.
    P2 = spaces.projective_space(2)
    bad = scaled_member_set(P2, 2, 3)
    assert not report_passes(verify_ck(bad))
    assert not stabilization_check(P2, torus_group(1), bad, 4, 6, 10)
    assert not stabilization_check(P2, general_linear_group(2), bad, 4, 6, 10)


def test_stabilization_bound_validation():
    P2 = spaces.projective_space(2)
    P = full_projectors(P2)
    with pytest.raises(ValueError):
        stabilization_check(P2, torus_group(1), P, 8, 6, 10)
    with pytest.raises(ValueError):
        stabilization_check(P2, torus_group(1), P, 4, 10, 6)
    with pytest.raises(ValueError):
        stabilization_check(P2, torus_group(1), P, -2, 6, 10)
    with pytest.raises(InvalidSpec, match="D must be an integer, got 1.5"):
        stabilization_check(P2, torus_group(1), P, 1.5, 2, 4)
    with pytest.raises(RingMismatch):
        stabilization_check(
            spaces.projective_space(3), torus_group(1), P, 4, 6, 10
        )


def test_coefficient_comparison_detects_corruption():
    M6, M10 = weighted_line(6), weighted_line(10)
    P = full_projectors(M6.base)
    F1 = lift_projectors(P, torus_group(1), 6, model=M6)
    F2 = lift_projectors(P, torus_group(1), 10, model=M10)
    assert compare_lifted_coefficients(F1, F2, 4)
    tampered = {
        i: EquivariantCorrespondence(M10, 0, dict(p.terms))
        for i, p in F2.projectors.items()
    }
    coeffs = dict(tampered[0].terms)
    key = next(iter(coeffs))
    coeffs[key] += 1
    tampered[0] = EquivariantCorrespondence(M10, 0, coeffs)
    F2bad = EquivariantProjectorFamily(M10, tampered, complete=True)
    assert not compare_lifted_coefficients(F1, F2bad, 4)


def test_coefficient_comparison_requires_same_indices():
    M = weighted_line()
    P = full_projectors(M.base)
    F = lift_projectors(P, torus_group(1), 8, model=M)
    partial = EquivariantProjectorFamily(M, {0: F.member(0)})
    assert not compare_lifted_coefficients(F, partial, 0)


# -- restriction to the base ---------------------------------------------------------------


def test_family_restriction_via_model():
    M = weighted_line()
    P = full_projectors(M.base)
    F = lift_projectors(P, torus_group(1), 8, model=M)
    assert bottom_weight_restriction(M, F) == P


def test_family_restriction_requires_its_own_model():
    M = weighted_line()
    F = lift_projectors(full_projectors(M.base), torus_group(1), 8, model=M)
    with pytest.raises(UnsupportedAction):
        bottom_weight_restriction(weighted_line(6), F)
    with pytest.raises(UnsupportedAction):
        bottom_weight_restriction(None, F)


def test_projector_transport_along_primitive_killing():
    for X in (
        spaces.hypersurface_model(3, 2, 1),
        spaces.hypersurface_model(3, 3, 7),
    ):
        target, q = spaces.kill_primitive_middle(X)
        P = full_projectors(X)
        Q = bottom_weight_restriction(q, P)
        assert Q.ring is target
        assert Q.complete
        assert Q.remainder_indices == P.remainder_indices
        assert report_passes(verify_ck(Q)), X


def test_projector_transport_validation():
    P = full_projectors(spaces.projective_space(2))
    with pytest.raises(TypeError):
        bottom_weight_restriction(42, P)
    X = spaces.hypersurface_model(3, 2, 1)
    _, q = spaces.kill_primitive_middle(X)
    with pytest.raises(RingMismatch):
        bottom_weight_restriction(q, P)


def test_projector_transport_along_identity():
    P2 = spaces.projective_space(2)
    ident = RingMap(P2, P2, [P2.basis_class(l) for l, _ in P2.basis])
    P = full_projectors(P2)
    assert bottom_weight_restriction(ident, P) == P

"""Table-speed ring assembly and ring-map checks against the slow paths
they replaced, and the universal plane curve against the projective
bundle formula.

`RingMap` checks multiplicativity with a middle factor from a
generating set; the loop over every basis pair is kept here as its
oracle. `_build_ci_model` reads the ambient structure table and one
xi-twisted pairing table, and `_build_blowup` reads the base and center
tables; the assemblies through `multiply` and `integrate` on basis
classes are kept here as their oracles. `tensor_ring` folds the
factor tables one factor at a time; the assembly over every pair of
product classes, with tuple terms and the Koszul sign of the whole
tuples, is kept here as its oracle. Ordinary and lifted `compose` and
`act` are one pair of joins over two views each correspondence keeps
of its terms, in integer numerators with parameter monomials as
integer codes, built without re-validation; both reports decide
the graded action from one integer join per member and act only on a
failing class. The loops over every term (on
`Fraction`s and exponent tuples for lifted ones), and the reports that
act on every class, are kept here as their oracles, and the codes are
checked against the product of monomials on every pair.
"""

import random
from fractions import Fraction

import pytest

from chowkunneth import kunneth, spaces
from chowkunneth.correspondences import CorrespondenceClass, act, compose, diagonal
from chowkunneth.equivariant import (
    EquivariantCorrespondence,
    EquivariantProjectorFamily,
    equivariant_projective_torus,
    equivariant_trivial_action,
    general_linear_group,
    lift_projectors,
    torus_group,
    verify_equivariant,
)
from chowkunneth.errors import NotRingMap, RingMismatch
from chowkunneth.graded_ring import ClassVector, RingMap, _generators, tensor_ring
from chowkunneth.kunneth import (
    ProjectorSet,
    _components,
    _report,
    full_projectors,
    report_passes,
    verify_ck,
)
from ring_oracles import fraction_partners
from test_acceptance import corpus_rings
from test_equivariant import oracle_weight_cases

LADDER_HYPERSURFACES = [(3, 3, 6), (3, 4, 21), (4, 3, 10), (5, 3, 22)]


def all_pairs_verdict(source, target, images):
    """First basis pair (i, j) with f(e_i*e_j) != f(e_i)*f(e_j), or None."""

    def apply(v):
        out = target.zero(v.degree)
        for i, c in v.coeffs.items():
            out = out + images[i].scale(c)
        return out

    n = len(source.basis)
    for i in range(n):
        for j in range(n):
            lhs = apply(source.multiply(source.basis_vector(i), source.basis_vector(j)))
            if lhs != target.multiply(images[i], images[j]):
                return (i, j)
    return None


def generator_verdict(source, target, images):
    try:
        RingMap(source, target, images)
    except NotRingMap as exc:
        assert "not multiplicative" in str(exc)
        return False
    return True


def corpus_maps():
    """Identity maps of the corpus rings, and the restriction maps of
    every ci_model among them, the curve families d = 4 and 5 and the
    ladder hypersurfaces."""
    rings = corpus_rings() + [spaces.plane_curve_family(d) for d in (4, 5)]
    rings += [spaces.hypersurface_model(*args) for args in LADDER_HYPERSURFACES]
    maps = []
    for ring in rings:
        maps.append((ring, ring, [ring.basis_vector(i) for i in range(len(ring.basis))]))
        if "restrict_map" in ring.parts:
            q = ring.parts["restrict_map"]
            maps.append((q.source, q.target, list(q.images)))
    return maps


def test_ring_map_same_verdict_on_corpus_maps():
    maps = corpus_maps()
    assert len(maps) == 36
    for source, target, images in maps:
        assert generator_verdict(source, target, images)
        assert all_pairs_verdict(source, target, images) is None


def test_ring_map_both_reject_perturbed_images():
    """A class in a degree without generators is a combination of
    products of lower-degree classes, so moving its image alone breaks
    multiplicativity: both checks must reject every such perturbation."""
    rng = random.Random(6)
    perturbed = 0
    for source, target, images in corpus_maps():
        deg = [d for _, d in source.basis]
        gen_degrees = {deg[g] for g in _generators(
            deg, lambda i, j: source.structure.get((i, j), {}))}
        movable = [i for i, d in enumerate(deg)
                   if d and d not in gen_degrees and target.degree_indices(d)]
        for i in rng.sample(movable, min(2, len(movable))):
            k = rng.choice(target.degree_indices(deg[i]))
            shift = Fraction(rng.choice([-2, -1, 1, 3]), rng.choice([1, 2, 5]))
            bad = list(images)
            bad[i] = images[i] + ClassVector(target, deg[i], {k: shift})
            assert not generator_verdict(source, target, bad)
            assert all_pairs_verdict(source, target, bad) is not None
            perturbed += 1
    assert perturbed >= 30


def test_ring_map_checks_every_generator():
    """On P1 x P1 with a = h # 1 and b = 1 # h, generated by b and then
    a, the map fixing b and sending a to a + b respects every product
    with b, but not a * a = 0, whose image would be 2 a*b."""
    P1 = spaces.projective_space(1)
    Q = spaces.product_space(P1, P1)
    a, b = Q.label_index["h # 1"], Q.label_index["1 # h"]
    assert _generators([d for _, d in Q.basis], lambda i, j: Q.structure.get((i, j), {})) == [b, a]
    images = [Q.basis_vector(i) for i in range(4)]
    images[a] = images[a] + images[b]
    assert not generator_verdict(Q, Q, images)
    assert all_pairs_verdict(Q, Q, images) == (a, a)


# -- the ci_model assembly through classes -----------------------------------------


def class_ci_tables(amb, xi, k_prim):
    """Basis, structure, integration and restriction images of the
    ci_model with the default middle pairing, each structure constant
    computed by multiplying basis classes of the ambient ring."""
    s = xi.degree // 2
    d = amb.dim - s
    top = 2 * d
    prim_pairing = spaces._default_middle_pairing(k_prim, bool(d % 2))

    def amb_class(i):
        return amb.basis_vector(i)

    def pair_xi(i, j):
        return amb.integrate(amb.multiply(amb.multiply(amb_class(i), amb_class(j)), xi))

    basis, amb_to_x, dual_to_x, prim_to_x = [], {}, {}, {}
    for t in range(0, top + 1):
        if t <= d:
            for i in amb.degree_indices(t):
                amb_to_x[i] = len(basis)
                basis.append((amb.basis[i][0], t))
        if t == d:
            for p in range(k_prim):
                prim_to_x[p] = len(basis)
                basis.append((f"m{p + 1}", d))
        if t > d:
            for i in amb.degree_indices(top - t):
                dual_to_x[i] = len(basis)
                basis.append((amb.basis[i][0] + "*", t))
    point_index = dual_to_x[amb.degree_indices(0)[0]]
    kind_of = {x: ("amb", i) for i, x in amb_to_x.items()}
    kind_of.update({x: ("dual", i) for i, x in dual_to_x.items()})
    kind_of.update({x: ("prim", p) for p, x in prim_to_x.items()})

    structure = {}
    for a in range(len(basis)):
        ka, pa = kind_of[a]
        for b in range(len(basis)):
            kb, pb = kind_of[b]
            da, db = basis[a][1], basis[b][1]
            total = da + db
            if total > top:
                continue
            out = {}
            if ka == "amb" and kb == "amb":
                prod = amb.multiply(amb_class(pa), amb_class(pb))
                if total <= d:
                    out = {amb_to_x[i]: c for i, c in prod.coeffs.items()}
                else:
                    for i in amb.degree_indices(top - total):
                        c = amb.integrate(amb.multiply(amb.multiply(amb_class(i), prod), xi))
                        if c != 0:
                            out[dual_to_x[i]] = c
            elif ka == "amb" and kb == "dual":
                for i in amb.degree_indices(top - total):
                    c = amb.multiply(amb_class(i), amb_class(pa)).coeffs.get(pb, 0)
                    if c != 0:
                        out[dual_to_x[i]] = c
            elif ka == "dual" and kb == "amb":
                for i in amb.degree_indices(top - total):
                    c = amb.multiply(amb_class(i), amb_class(pb)).coeffs.get(pa, 0)
                    if c != 0:
                        out[dual_to_x[i]] = c
            elif ka == "prim" and kb == "prim":
                if prim_pairing[pa][pb] != 0:
                    out[point_index] = prim_pairing[pa][pb]
            elif ka == "prim" and kb == "amb" and db == 0:
                out = {a: Fraction(1)}
            elif kb == "prim" and ka == "amb" and da == 0:
                out = {b: Fraction(1)}
            if out:
                structure[(a, b)] = out

    images = []
    for i, (_, t) in enumerate(amb.basis):
        if t <= d:
            images.append({amb_to_x[i]: Fraction(1)})
        else:
            coeffs = {dual_to_x[j]: pair_xi(j, i) for j in amb.degree_indices(top - t)}
            images.append({x: c for x, c in coeffs.items() if c != 0})
    return basis, structure, {point_index: Fraction(1)}, images


@pytest.mark.parametrize(
    "make",
    [lambda d=d: spaces.plane_curve_family(d) for d in range(1, 6)]
    + [lambda a=a: spaces.hypersurface_model(*a) for a in LADDER_HYPERSURFACES],
    ids=[f"curves(d={d})" for d in range(1, 6)]
    + [f"X{e}(P{n})" for n, e, _ in LADDER_HYPERSURFACES],
)
def test_ci_assembly_matches_class_assembly(make):
    X = make()
    q = X.parts["restrict_map"]
    amb = q.source
    spec = X.space if X.space["kind"] == "ci_model" else None
    xi = (amb.from_label_dict(spec["fundamental_class_expr"]) if spec else
          amb.from_label_dict({"h # 1": X.space["d"], "1 # h": 1}))
    basis, structure, integration, images = class_ci_tables(
        amb, xi, len(X.parts["primitive_indices"]))
    assert X.basis == tuple(basis)
    assert X.structure == structure
    assert X.integration == integration
    assert [v.coeffs for v in q.images] == images


# -- the projective bundle formula -----------------------------------------------


def power(x, e):
    out = x.ring.unit()
    for _ in range(e):
        out = out * x
    return out


@pytest.mark.parametrize("d", range(1, 9))
def test_plane_curve_family_is_a_projective_bundle(d):
    """The universal plane curve of degree d is P(K) over P^2, with K the
    rank-N kernel of evaluation, N = d(d+3)/2, so c(K) = (1 + d h)^-1
    (Fulton, Intersection Theory, 3.2)."""
    X = spaces.plane_curve_family(d)
    N = d * (d + 3) // 2
    h, H = X.basis_class("h # 1"), X.basis_class("1 # h")
    assert X.dim == N + 1
    assert power(h, 3).is_zero()
    relation = (power(H, N) - h * power(H, N - 1) * d
                + power(h, 2) * power(H, N - 2) * (d * d))
    assert relation.is_zero()
    assert [(power(h, a) * power(H, N + 1 - a)).integrate() for a in range(3)] == [0, d, 1]


# -- the blow-up assembly through classes ------------------------------------------


def _power_label(a):
    return "1" if a == 0 else "h" if a == 1 else f"h^{a}"


def seven_blowups():
    """Blow-ups with centers of codimension 2, 3, 4 and 6, trivial and
    nontrivial normal bundles, and a center that is not a point or a
    linear space: the diagonal of P^3 x P^3, whose normal bundle is
    the tangent bundle, c = (1 + h)^4."""
    P = spaces.projective_space
    P3xP3 = spaces.product_space(P(3), P(3))
    diagonal_push = {_power_label(k): {f"{_power_label(a)} # {_power_label(3 + k - a)}": 1
                                       for a in range(k, 4)} for k in range(4)}
    return {
        "P2 at a point": lambda: spaces.blowup(
            P(2), P(0), 2, {"1": {"h^2": 1}}, normal_chern={1: {}}),
        "P3 along a line": lambda: spaces.blowup(
            P(3), P(1), 2, {"1": {"h^2": 1}, "h": {"h^3": 1}}, normal_chern={1: {"h": 2}}),
        "P3 at a point": lambda: spaces.blowup(
            P(3), P(0), 3, {"1": {"h^3": 1}}, normal_chern={1: {}, 2: {}, 3: {}}),
        "G(2,5) at a point": lambda: spaces.blowup(
            spaces.grassmannian(2, 5), P(0), 6, {"1": {"s[3,3]": 1}},
            normal_chern={j: {} for j in range(1, 7)}),
        "P5 along a plane": lambda: spaces.blowup(
            P(5), P(2), 3, {"1": {"h^3": 1}, "h": {"h^4": 1}, "h^2": {"h^5": 1}},
            normal_chern={1: {"h": 3}, 2: {"h^2": 3}, 3: {}}),
        "P5 along a line": lambda: spaces.blowup(
            P(5), P(1), 4, {"1": {"h^4": 1}, "h": {"h^5": 1}},
            normal_chern={1: {"h": 4}, 2: {}, 3: {}, 4: {}}),
        "diagonal of P3xP3": lambda: spaces.blowup(
            P3xP3, P(3), 3, diagonal_push,
            normal_chern={1: {"h": 4}, 2: {"h^2": 6}, 3: {"h^3": 4}}),
    }


def class_blowup_tables(base, center, c, push, chern):
    """Basis, structure and integration of the blow-up, each product
    computed by multiplying, integrating and pulling back basis classes;
    `push` and `chern` map center indices and j to classes."""
    d = base.dim

    def i_upper_star(x):
        t = x.degree
        td = 2 * center.dim - t
        rows = center.degree_indices(td)
        if t > 2 * center.dim or not rows:
            return center.zero(max(t, 0))
        duals = center.dual_basis(td)
        out = center.zero(t)
        for pos, zi in enumerate(rows):
            val = base.integrate(base.multiply(x, push[zi]))
            if val != 0:
                out = out + duals[pos].scale(val)
        return out

    entries = [(bdeg, 0, bi) for bi, (_, bdeg) in enumerate(base.basis)]
    entries += [(zdeg + 2 * j, j, zi) for j in range(1, c)
                for zi, (_, zdeg) in enumerate(center.basis)]
    entries.sort()
    basis, base_to_bl, exc_to_bl = [], {}, {}
    for deg, j, i in entries:
        if j == 0:
            base_to_bl[i] = len(basis)
            basis.append((base.basis[i][0], deg))
        else:
            exc_to_bl[(i, j)] = len(basis)
            zl = center.basis[i][0]
            basis.append((f"{zl} E" if j == 1 else f"{zl} E^{j}", deg))

    def add(out, terms, sign=1):
        for idx, cc in terms.items():
            out[idx] = out.get(idx, Fraction(0)) + sign * cc

    def push_fn(v, p):
        """j_*(g^* v * zeta^p) over the blow-up basis."""
        out = {}
        if v.is_zero():
            return out
        if p <= c - 2:
            add(out, {exc_to_bl[(zi, p + 1)]: cc for zi, cc in v.coeffs.items()}, (-1) ** p)
            return out
        if p == c - 1:
            for zi, cc in v.coeffs.items():
                add(out, {base_to_bl[bi]: s for bi, s in push[zi].coeffs.items()}, cc)
            for i in range(1, c):
                add(out, push_fn(center.multiply(v, chern[i]), c - 1 - i), -1)
            return out
        for i in range(1, c + 1):
            add(out, push_fn(center.multiply(v, chern[i]), p - i), -1)
        return out

    structure = {}
    for a, (da, ja, ia) in enumerate(entries):
        for b, (db, jb, ib) in enumerate(entries):
            if da + db > 2 * d:
                continue
            out = {}
            if ja == 0 and jb == 0:
                prod = base.multiply(base.basis_class(base.basis[ia][0]),
                                     base.basis_class(base.basis[ib][0]))
                add(out, {base_to_bl[i]: cc for i, cc in prod.coeffs.items()})
            elif ja == 0 or jb == 0:
                bi, zi, j = (ia, ib, jb) if ja == 0 else (ib, ia, ja)
                pulled = i_upper_star(base.basis_class(base.basis[bi][0]))
                w = center.multiply(pulled, center.basis_class(center.basis[zi][0]))
                add(out, {exc_to_bl[(zk, j)]: cc for zk, cc in w.coeffs.items()})
            else:
                prod = center.multiply(center.basis_class(center.basis[ia][0]),
                                       center.basis_class(center.basis[ib][0]))
                add(out, push_fn(prod, ja + jb - 1), (-1) ** (ja + jb - 1))
            out = {idx: cc for idx, cc in out.items() if cc != 0}
            if out:
                structure[(a, b)] = out

    integration = {base_to_bl[bi]: cc for bi, cc in base.integration.items()}
    return basis, structure, integration


@pytest.mark.parametrize("make", seven_blowups().values(), ids=seven_blowups().keys())
def test_blowup_assembly_matches_class_assembly(make):
    X = make()
    base, center = X.parts["base"], X.parts["center"]
    c = X.space["codim"]
    push = [base.from_label_dict(X.space["center_pushforward_expr"][label])
            for label, _ in center.basis]
    chern = {int(j): center.from_label_dict(raw, degree=2 * int(j))
             for j, raw in X.space["normal_chern"].items()}
    basis, structure, integration = class_blowup_tables(base, center, c, push, chern)
    assert X.basis == tuple(basis)
    assert X.structure == structure
    assert X.integration == integration


# -- the tensor product over all pairs of product classes --------------------------


def tuple_tensor_tables(factors):
    """Basis, structure, integration and index of the tensor product,
    each product of two product classes built from tuple terms, with
    the Koszul sign (-1)^(sum over i < j of |b_i| |a_j|) of the whole
    tuples a and b."""
    tuples = [()]
    for f in factors:
        tuples = [t + (i,) for t in tuples for i in range(len(f.basis))]

    def tup_degree(t):
        return sum(f.basis[i][1] for f, i in zip(factors, t))

    tuples.sort(key=lambda t: (tup_degree(t), t))
    degs = [tup_degree(t) for t in tuples]
    index = {t: g for g, t in enumerate(tuples)}
    basis = [(" # ".join(f.basis[i][0] for f, i in zip(factors, t)), d)
             for t, d in zip(tuples, degs)]

    def koszul(left, right):
        exp = 0
        for i in range(len(factors)):
            if factors[i].basis[right[i]][1] % 2:
                exp += sum(factors[j].basis[left[j]][1] for j in range(i + 1, len(factors)))
        return -1 if exp % 2 else 1

    top = 2 * sum(f.dim for f in factors)
    structure = {}
    for a, ta in enumerate(tuples):
        for b, tb in enumerate(tuples):
            if degs[a] + degs[b] > top:
                break  # tuples are sorted by degree
            terms = [((), koszul(ta, tb))]
            for f, i, j in zip(factors, ta, tb):
                prod = f.structure.get((i, j))
                if not prod:
                    terms = []
                    break
                terms = [(t + (k,), c * s) for t, c in terms for k, s in prod.items()]
            if terms:
                structure[(a, b)] = {index[t]: c for t, c in terms}

    integration = {}
    for t in tuples:
        if tup_degree(t) != top:
            continue
        val = Fraction(1)
        for f, i in zip(factors, t):
            val *= f.integration.get(i, Fraction(0))
        if val != 0:
            integration[index[t]] = val
    return basis, structure, integration, index


def thirteen_products():
    """Products of projective spaces and Grassmannians (even classes
    only), and products with the plane cubic E and the cubic threefold
    Y, whose odd classes meet in every pattern of the Koszul sign."""
    P, G = spaces.projective_space, spaces.grassmannian

    def E():
        return spaces.ci_model(P(2), {"h": 3}, 2)

    def Y():
        return spaces.hypersurface_model(4, 3, 10)

    return {
        "P2xP9": lambda: (P(2), P(9)),
        "P2xP14": lambda: (P(2), P(14)),
        "P2xP44": lambda: (P(2), P(44)),
        "P1xG(2,4)": lambda: (P(1), G(2, 4)),
        "G(2,5)xP2": lambda: (G(2, 5), P(2)),
        "G(2,4)xG(2,4)": lambda: (G(2, 4), G(2, 4)),
        "G(3,6)xP1": lambda: (G(3, 6), P(1)),
        "P2xP2": lambda: (P(2), P(2)),
        "P2xP2xP2": lambda: (P(2), P(2), P(2)),
        "ExE": lambda: (E(), E()),
        "ExP1xE": lambda: (E(), P(1), E()),
        "YxE": lambda: (Y(), E()),
        "ExY": lambda: (E(), Y()),
    }


@pytest.mark.parametrize("make", thirteen_products().values(), ids=thirteen_products().keys())
def test_tensor_fold_matches_tuple_assembly(make):
    factors = make()
    X = tensor_ring(factors)
    basis, structure, integration, index = tuple_tensor_tables(factors)
    assert X.basis == tuple(basis)
    assert X.structure == structure
    assert X.integration == integration
    assert X.parts["index"] == index


# -- lifted composition and action on Fractions --------------------------------------


def mono_product(bg, a, b):
    """Product monomial by its definition, or None past the bound."""
    out = tuple(x + y for x, y in zip(a, b))
    return None if bg.mono_degree(out) > bg.bound else out


def fraction_compose(f, g):
    """Lifted composition with f applied first, accumulated in Fractions:
    the middle factor is contracted with the parameter-valued pairing and
    monomials overflowing the bound are dropped."""
    f._compat(g)
    model = f.source
    g_by_k = {}
    for (k, l, m2), cg in g.terms.items():
        g_by_k.setdefault(k, []).append((l, m2, cg))
    out = {}
    for (i, j, m1), cf in f.terms.items():
        for k, poly in fraction_partners(model, j):
            rows = g_by_k.get(k)
            if not rows:
                continue
            for mp, vp in poly.items():
                m1p = mono_product(model.bg, m1, mp)
                if m1p is None:
                    continue
                for l, m2, cg in rows:
                    mono = mono_product(model.bg, m1p, m2)
                    if mono is None:
                        continue
                    key = (i, l, mono)
                    out[key] = out.get(key, Fraction(0)) + cf * vp * cg
    return EquivariantCorrespondence(model, f.shift + g.shift, out)


def fraction_act(p, alpha):
    """Lifted action on a base class, accumulated in Fractions, as
    {(index, monomial): coefficient}."""
    model = p.source
    paired = {}
    for a, ca in alpha.coeffs.items():
        for i, poly in fraction_partners(model, a):
            paired.setdefault(i, []).append((ca, poly))
    out = {}
    for (i, j, mono), c in p.terms.items():
        for ca, poly in paired.get(i, ()):
            for mp, vp in poly.items():
                m = mono_product(model.bg, mono, mp)
                if m is not None:
                    out[(j, m)] = out.get((j, m), 0) + c * ca * vp
    return {key: v for key, v in out.items() if v}


def lifted_models():
    """name -> (make(N), n) for a model over an n-dimensional base:
    weighted projective spaces with repeated, zero and negative weights,
    and trivial actions on Grassmannian products, on spaces with odd
    classes and on a plane cubic whose middle pairing has denominators."""
    P, G = spaces.projective_space, spaces.grassmannian

    def weighted(weights):
        return lambda N: equivariant_projective_torus(weights, N)

    def trivial(make_space, group):
        return lambda N: equivariant_trivial_action(make_space(), group, N)

    third = Fraction(1, 3)
    return {
        "P2 (1,1,2)": (weighted((1, 1, 2)), 2),
        "P3 (0,0,3,-1)": (weighted((0, 0, 3, -1)), 3),
        "P5 (2,-1,-1,0,3,5)": (weighted((2, -1, -1, 0, 3, 5)), 5),
        "P10 (-5..5)": (weighted(range(-5, 6)), 10),
        "G(3,6)xP1 T2": (trivial(lambda: spaces.product_space(G(3, 6), P(1)),
                                 torus_group(2)), 10),
        "G(2,4)xG(2,4) GL2": (trivial(lambda: spaces.product_space(G(2, 4), G(2, 4)),
                                      general_linear_group(2)), 8),
        "plane cubic T1": (trivial(lambda: spaces.ci_model(P(2), {"h": 3}, 2),
                                   torus_group(1)), 1),
        "plane cubic, pairing 1/3, GL2": (trivial(
            lambda: spaces.ci_model(P(2), {"h": 3}, 2, [[0, third], [-third, 0]]),
            general_linear_group(2)), 1),
        "cubic threefold T3": (trivial(lambda: spaces.hypersurface_model(4, 3, 10),
                                       torus_group(3)), 3),
    }


def lifted_cases():
    """(name, N) at N = 0, at N = 2, where products of monomials overflow,
    and at N = 4n."""
    return [(name, N) for name, (_, n) in lifted_models().items() for N in (0, 2, 4 * n)]


def mixed_coefficient(rng):
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 6))


def random_lifted(M, rng, count, shift):
    """A lifted correspondence with `count` seeded terms (i, j, monomial)
    of the right degree, with coefficients +-k/1..6."""
    base, bg = M.base, M.bg
    by_degree = {}
    for m in bg.monomials():
        by_degree.setdefault(bg.mono_degree(m), []).append(m)
    want = 2 * (M.dim + shift)
    slots = [(i, j, m) for i, (_, di) in enumerate(base.basis)
             for j, (_, dj) in enumerate(base.basis) for m in by_degree.get(want - di - dj, ())]
    picked = rng.sample(slots, min(count, len(slots)))
    return EquivariantCorrespondence(M, shift, {key: mixed_coefficient(rng) for key in picked})


def random_classes(X, rng, count):
    """Homogeneous classes in seeded degrees with coefficients +-k/1..6."""
    degrees = sorted({d for _, d in X.basis})
    out = []
    for _ in range(count):
        d = rng.choice(degrees)
        out.append(ClassVector(X, d, {k: mixed_coefficient(rng)
                                      for k, (_, dk) in enumerate(X.basis) if dk == d}))
    return out


def test_integer_partner_view_is_the_partner_table_scaled():
    models = [(name, make(4 * n)) for name, (make, n) in lifted_models().items()]
    models += [(f"weights {w} N={N}", equivariant_projective_torus(w, N))
               for w, N in oracle_weight_cases()]
    for name, M in models:
        scale, rows = M._integer_partners()
        for j, row in enumerate(rows):
            scaled = {}
            for k, m, v in row:
                scaled.setdefault(k, {})[M.bg.mono_of[m]] = Fraction(v, scale)
            want = [(k, poly) for k in range(len(rows)) if (poly := M.pair_poly(j, k))]
            assert list(scaled.items()) == want, (name, j)
        assert all(type(v) is int for row in rows for _, _, v in row)
        assert scale == (3 if "1/3" in name else 1), name


LIFTED_CASES = lifted_cases()
LIFTED_IDS = [f"{name} N={N}" for name, N in LIFTED_CASES]


@pytest.mark.parametrize("name, N", LIFTED_CASES, ids=LIFTED_IDS)
def test_monomial_codes_add_exactly_within_the_bound(name, N):
    """For every pair of monomials, the codes' sum is below the limit
    exactly when the product stays within the bound, and it is then the
    product's code."""
    bg = lifted_models()[name][0](N).bg
    code, mono = bg.code_of, bg.mono_of
    assert code[bg.unit_mono] == 0 and len(mono) == len(bg.monomials())
    for a in bg.monomials():
        for b in bg.monomials():
            product = mono_product(bg, a, b)
            m = code[a] + code[b]
            assert (m < bg.limit) == (product is not None), (a, b)
            if product is not None:
                assert mono[m] == product, (a, b)


@pytest.mark.parametrize("name, N", LIFTED_CASES, ids=LIFTED_IDS)
def test_lifted_kernels_match_fraction_loops(name, N):
    make, _ = lifted_models()[name]
    M = make(N)
    rng = random.Random(f"{name} {N}")
    members = [random_lifted(M, rng, 30, shift) for shift in (-1, -1, 0, 0, 1, 1)]
    nonzero = 0
    for f in members:
        for g in members:
            if f.shift == g.shift:
                got = f.compose(g).terms
                assert got == fraction_compose(f, g).terms
                nonzero += bool(got)
    base = M.base
    classes = [base.basis_vector(k) for k in range(len(base.basis))]
    classes += random_classes(base, rng, 6)
    for f in members:
        for alpha in classes:
            got = f.act(alpha)
            assert got == fraction_act(f, alpha)
            assert all(type(v) is Fraction for v in got.values())
            nonzero += bool(got)
    assert nonzero
    if N == 2:
        # truncation drops a product of the members' monomials on this bound
        monos = {m for f in members for _, _, m in f.terms}
        assert any(mono_product(M.bg, a, b) is None for a in monos for b in monos)


@pytest.mark.parametrize("name, N", LIFTED_CASES, ids=LIFTED_IDS)
def test_lifted_reports_match_fraction_loops(name, N, monkeypatch):
    make, _ = lifted_models()[name]
    M = make(N)
    rng = random.Random(f"report {name} {N}")
    F = lift_projectors(full_projectors(M.base), M.group, N, model=M)
    projs = dict(F.projectors)
    i = rng.choice(F.indices())
    projs[i] = projs[i] + random_lifted(M, rng, 12, 0)
    families = [F, EquivariantProjectorFamily(M, projs, complete=True)]
    reports = [verify_equivariant(X) for X in families]
    assert report_passes(reports[0]) and not report_passes(reports[1])
    monkeypatch.setattr(EquivariantCorrespondence, "compose", fraction_compose)
    monkeypatch.setattr(EquivariantCorrespondence, "act", fraction_act)
    assert [verify_equivariant(X) for X in families] == reports


def fraction_verify_equivariant(F):
    """`verify_equivariant` on the `Fraction` loops, acting on every
    basis class."""
    base, bg = F.model.base, F.model.bg

    def action_rows(i, p):
        for k, (label, degree) in enumerate(base.basis):
            residual = fraction_act(p, base.basis_vector(k))
            if degree == i:
                residual[k, bg.unit_mono] = residual.get((k, bg.unit_mono), 0) - 1
            yield label, [[base.basis[j][0], bg.mono_label(m), str(c)]
                          for (j, m), c in sorted(residual.items()) if c] or None

    return _report(F, fraction_compose, F.model.diagonal, action_rows)


def test_joins_build_their_results_without_revalidation(monkeypatch):
    """A join's result is valid by construction: over a report on
    `plane_curve_family(4)` and one on a weighted P8 lift, `compose`
    calls neither correspondence class's constructor nor `ClassVector`'s,
    and a passing report builds no validated class at all: the diagonal
    of the completeness check is built once from the pairing block
    inverses or the model's closed form, and the graded-action join
    decides every entry without a basis vector or an action. The
    ordinary report composes every ordered pair; the lifted one
    composes each member with itself."""
    P = full_projectors(spaces.plane_curve_family(4))
    M = equivariant_projective_torus((3, -2, 0, 1, 1, 5, -4, 2, 7), 32)
    F = lift_projectors(full_projectors(M.base), M.group, 32, model=M)
    built, from_joins = [], []
    for cls in (CorrespondenceClass, EquivariantCorrespondence, ClassVector):
        def counted(self, *args, _init=cls.__dict__["__init__"], _cls=cls):
            if type(self) is _cls:
                built.append(_cls)
            _init(self, *args)
        monkeypatch.setattr(cls, "__init__", counted)

    def watched(fn):
        def run(*args):
            before = len(built)
            out = fn(*args)
            from_joins.append(len(built) - before)
            return out
        return run

    monkeypatch.setattr(kunneth, "compose", watched(compose))
    monkeypatch.setattr(kunneth, "act", watched(act))
    for method in ("compose", "act"):
        inner = EquivariantCorrespondence.__dict__[method]
        monkeypatch.setattr(EquivariantCorrespondence, method, watched(inner))
    for verify, S, joins in ((verify_ck, P, len(P.indices()) ** 2),
                             (verify_equivariant, F, len(F.indices()))):
        built.clear()
        from_joins.clear()
        assert report_passes(verify(S))
        assert len(from_joins) == joins
        assert sum(from_joins) == 0
        assert built == []


# -- ordinary composition and action, term by term ----------------------------------


def oracle_compose(f, g):
    """Composition with f applied first, term by term: each term of f
    meets every term of g through the pairing of the middle factor."""
    if f.target != g.source:
        raise RingMismatch("inner rings do not match for composition")
    Y = f.target
    g_by_k = {}
    for (k, l), cg in g.terms.items():
        g_by_k.setdefault(k, []).append((l, cg))
    out = {}
    for (i, j), cf in f.terms.items():
        for k, val in fraction_partners(Y, j):
            for l, cg in g_by_k.get(k, ()):
                out[(i, l)] = out.get((i, l), Fraction(0)) + cf * val * cg
    return CorrespondenceClass(f.source, g.target, f.shift + g.shift, out)


def oracle_act(gamma, alpha):
    """Action on a class, term by term: the integral of alpha times the
    source class of each term, times its target class."""
    X = gamma.source
    if alpha.ring != X:
        raise RingMismatch("class does not live over the correspondence's source")
    paired = {}
    for m, ca in alpha.coeffs.items():
        for i, val in fraction_partners(X, m):
            paired[i] = paired.get(i, 0) + ca * val
    out = {}
    for (i, j), c in gamma.terms.items():
        if i in paired:
            out[j] = out.get(j, 0) + paired[i] * c
    return ClassVector(gamma.target, alpha.degree + 2 * gamma.shift, out)


def oracle_verify_ck(P):
    """`verify_ck` on the term loops, acting on every basis class."""
    X = P.ring

    def action_rows(i, p):
        for k, (label, degree) in enumerate(X.basis):
            e = X.basis_vector(k)
            residual = oracle_act(p, e) - e if degree == i else oracle_act(p, e)
            yield label, [[lab, str(c)] for lab, c in sorted(residual.label_dict().items())] or None

    return _report(P, oracle_compose, lambda: diagonal(X), action_rows)


def random_ordinary(X, Y, rng, count, shift):
    """A correspondence from X to Y with `count` seeded terms of the
    right degree, with coefficients +-k/1..6."""
    want = 2 * (X.dim + shift)
    slots = [(i, j) for i, (_, di) in enumerate(X.basis)
             for j, (_, dj) in enumerate(Y.basis) if di + dj == want]
    picked = rng.sample(slots, min(count, len(slots)))
    return CorrespondenceClass(X, Y, shift, {key: mixed_coefficient(rng) for key in picked})


def shifts_between(X, Y):
    """Every degree shift with a term from X to Y."""
    twice = {dx + dy for _, dx in X.basis for _, dy in Y.basis}
    return sorted(t // 2 - X.dim for t in twice if t % 2 == 0)


def plane_cubic_times_line():
    return spaces.product_space(spaces.ci_model(spaces.projective_space(2), {"h": 3}, 2),
                                spaces.projective_space(1))


def ordinary_chains():
    """name -> (X, Y, Z): self-correspondences of every golden-corpus
    ring and of E x P1 (E a plane cubic, with odd classes), and a chain
    through three different rings."""
    chains = {repr(X): (X, X, X) for X in corpus_rings()}
    chains["E x P1"] = (plane_cubic_times_line(),) * 3
    chains["P1 -> E x P1 -> G(2,4)"] = (spaces.projective_space(1), plane_cubic_times_line(),
                                        spaces.grassmannian(2, 4))
    return chains


ORDINARY_CHAINS = ordinary_chains()


@pytest.mark.parametrize("name", list(ORDINARY_CHAINS))
def test_ordinary_kernels_match_term_loops(name):
    """Term-for-term equal compositions X -> Y -> Z at every pair of
    shifts, and actions on every basis class and on random classes."""
    X, Y, Z = ORDINARY_CHAINS[name]
    rng = random.Random(name)
    fs = [random_ordinary(X, Y, rng, 12, r) for r in shifts_between(X, Y)]
    gs = [random_ordinary(Y, Z, rng, 12, r) for r in shifts_between(Y, Z)]
    nonzero = 0
    for f in fs:
        for g in gs:
            got = compose(f, g)
            want = oracle_compose(f, g)
            assert got.shift == want.shift and got.terms == want.terms
            assert all(type(c) is Fraction for c in got.terms.values())
            nonzero += bool(got.terms)
    classes = [X.basis_vector(k) for k in range(len(X.basis))] + random_classes(X, rng, 6)
    for f in fs:
        for alpha in classes:
            got = act(f, alpha)
            assert got == oracle_act(f, alpha)
            nonzero += bool(got.coeffs)
    assert nonzero
    # the kept views answer again, and sums start with their own
    f = fs[0] + fs[0]
    assert compose(fs[0], gs[0]).scale(2) == compose(f, gs[0]) == oracle_compose(f, gs[0])


@pytest.mark.parametrize("name", [repr(X) for X in corpus_rings()])
def test_ordinary_reports_match_term_loops(name, monkeypatch):
    (X,) = [X for X in corpus_rings() if repr(X) == name]
    rng = random.Random(f"report {name}")
    P = full_projectors(X)
    projs = dict(P.projectors)
    i = rng.choice(P.indices())
    projs[i] = projs[i] + random_ordinary(X, X, rng, 12, 0)
    sets = [P, ProjectorSet(X, projs, complete=True)]
    reports = [verify_ck(S) for S in sets]
    assert report_passes(reports[0]) and not report_passes(reports[1])
    assert [oracle_verify_ck(S) for S in sets] == reports
    monkeypatch.setattr(kunneth, "compose", oracle_compose)
    monkeypatch.setattr(kunneth, "act", oracle_act)
    assert [verify_ck(S) for S in sets] == reports


# -- the classes a report skips -----------------------------------------------------


def graded_action_failures(report):
    return [(e["indices"], e["basis_class"], e["residual_class"])
            for e in report if e["check"] == "graded_action" and not e["pass"]]


def test_off_degree_term_fails_graded_action_at_its_class():
    """Member 0 of P3 gains h x h^2. Its source h pairs with h^2, which
    is off the member's degree and pairs with none of its targets 1 and
    h^2: a report that took the reachable classes from the targets would
    skip h^2 and pass."""
    X = spaces.projective_space(3)
    P = full_projectors(X)
    h, h2 = X.label_index["h"], X.label_index["h^2"]
    projs = dict(P.projectors)
    projs[0] = projs[0] + CorrespondenceClass(X, X, 0, {(h, h2): Fraction(5, 2)})
    tampered = ProjectorSet(X, projs, complete=True)
    e = X.basis_vector(h2)
    rows = sorted(oracle_act(projs[0], e).label_dict().items())
    want = [[[0], "h^2", [[lab, str(c)] for lab, c in rows]]]
    assert [list(f) for f in graded_action_failures(verify_ck(tampered))] == want
    assert verify_ck(tampered) == oracle_verify_ck(tampered)
    # the same member lifted into a trivial model
    F = lift_projectors(tampered, torus_group(1), 4)
    report = verify_equivariant(F)
    rows = fraction_act(F.projectors[0], e)
    want = [[[0], "h^2", [[X.basis[j][0], F.model.bg.mono_label(m), str(c)]
                          for (j, m), c in sorted(rows.items())]]]
    assert [list(f) for f in graded_action_failures(report)] == want
    assert report == fraction_verify_equivariant(F)


def test_tampering_after_verification_is_reported():
    """Members whose views were built by a passing report, tampered by
    a multiple, a sum and a subset: each new correspondence reads its
    own terms. On P3 and on E x P1 (its diagonal's components, odd
    members included), and on a weighted lift."""
    ExP1 = plane_cubic_times_line()
    delta = diagonal(ExP1)
    components = {p: delta._with_terms(t) for p, t in _components(delta, ExP1.basis).items()}
    for P in (full_projectors(spaces.projective_space(3)),
              ProjectorSet(ExP1, components, complete=True)):
        assert report_passes(verify_ck(P))
        projs = dict(P.projectors)
        first, second, last = P.indices()[0], P.indices()[1], P.indices()[-1]
        projs[first] = projs[first].scale(3)
        projs[second] = projs[second] + projs[last]
        projs[last] = projs[last]._with_terms(dict(list(projs[last].terms.items())[1:]))
        tampered = ProjectorSet(P.ring, projs, complete=True)
        report = verify_ck(tampered)
        assert not report_passes(report) and report == oracle_verify_ck(tampered)
    M = equivariant_projective_torus((1, 2, -1, 4), 8)
    F = lift_projectors(full_projectors(M.base), M.group, 8, model=M)
    assert report_passes(verify_equivariant(F))
    projs = dict(F.projectors)
    projs[2] = projs[2].scale(2)
    projs[4] = projs[4] + projs[0]
    projs[0] = projs[0]._with_terms(dict(list(projs[0].terms.items())[1:]))
    tampered = EquivariantProjectorFamily(M, projs, complete=True)
    report = verify_equivariant(tampered)
    assert not report_passes(report) and report == fraction_verify_equivariant(tampered)


def graded_action_failures_count(report):
    return sum(e["check"] == "graded_action" and not e["pass"] for e in report)


def test_plane_curve_family_8_report_acts_only_on_failing_entries(monkeypatch):
    """|I|^2 compositions, and no action on a passing set: the join
    decides all 132 x |I| graded-action entries (6,204 actions when every
    member acted on every class). A set whose member 2 is scaled by 3
    fails on each class of degree 2 and acts once per failing entry,
    with the same compositions."""
    P = full_projectors(spaces.plane_curve_family(8))
    calls = {"compose": 0, "act": 0}

    def counted(name, fn):
        def run(*args):
            calls[name] += 1
            return fn(*args)
        return run

    monkeypatch.setattr(kunneth, "compose", counted("compose", compose))
    monkeypatch.setattr(kunneth, "act", counted("act", act))
    assert report_passes(verify_ck(P))
    assert len(P.ring.basis) == 132
    assert calls == {"compose": len(P.indices()) ** 2, "act": 0}
    tampered = ProjectorSet(P.ring, {**P.projectors, 2: P.member(2).scale(3)}, complete=True)
    calls.update(compose=0, act=0)
    report = verify_ck(tampered)
    failing = graded_action_failures_count(report)
    assert failing == P.ring.rank(2) > 0
    assert calls == {"compose": len(P.indices()) ** 2, "act": failing}
    assert report == oracle_verify_ck(tampered)


def counted_lifted_joins(monkeypatch):
    """{"compose": 0, "act": 0}, counting the lifted joins from now on."""
    calls = {"compose": 0, "act": 0}
    for name in calls:
        def run(*args, _name=name, _fn=EquivariantCorrespondence.__dict__[name]):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(EquivariantCorrespondence, name, run)
    return calls


def weighted_p8_family():
    M = equivariant_projective_torus((3, -2, 0, 1, 1, 5, -4, 2, 7), 32)
    return lift_projectors(full_projectors(M.base), M.group, 32, model=M)


def test_weighted_p8_report_acts_only_on_failing_entries(monkeypatch):
    """The lifted twin: one composition per member, its square, since
    orthogonality of members that pass the graded action is read off
    their actions, and no action at all: the join decides all 81
    entries. When member 4 gains h^3 x h^5 at the unit monomial the
    report composes the 2(|I| - 1) ordered pairs with member 4 as well,
    and acts once per failing entry."""
    F = weighted_p8_family()
    calls = counted_lifted_joins(monkeypatch)
    assert report_passes(verify_equivariant(F))
    assert len(F.indices()) == len(F.model.base.basis) == 9
    assert calls == {"compose": 9, "act": 0}
    M = F.model
    h3, h5 = M.base.label_index["h^3"], M.base.label_index["h^5"]
    extra = EquivariantCorrespondence(M, 0, {(h3, h5, M.bg.unit_mono): 2})
    tampered = EquivariantProjectorFamily(M, {**F.projectors, 4: F.member(4) + extra},
                                          complete=True)
    calls.update(compose=0, act=0)
    report = verify_equivariant(tampered)
    failing = graded_action_failures_count(report)
    assert failing > 0
    assert calls == {"compose": 9 + 2 * 8, "act": failing}


def test_weighted_p8_report_composes_the_pairs_of_a_failing_member(monkeypatch):
    """Member 4 of the weighted P8 family gains h^3 x h^5 at the unit
    monomial, off its degree, and fails its graded action: the report
    composes each member with itself and the 2(|I| - 1) ordered pairs
    with member 4, 9 + 16 = 25 compositions, and equals the report that
    composes every pair."""
    F = weighted_p8_family()
    M = F.model
    h3, h5 = M.base.label_index["h^3"], M.base.label_index["h^5"]
    projs = dict(F.projectors)
    projs[4] = projs[4] + EquivariantCorrespondence(M, 0, {(h3, h5, M.bg.unit_mono): 2})
    tampered = EquivariantProjectorFamily(M, projs, complete=True)
    calls = counted_lifted_joins(monkeypatch)
    report = verify_equivariant(tampered)
    assert calls["compose"] == 9 + 2 * 8
    assert {e["check"] for e in report if not e["pass"]} >= {"orthogonality", "graded_action"}
    assert all(4 in e["indices"] for e in report
               if e["check"] == "orthogonality" and not e["pass"])
    assert report == fraction_verify_equivariant(tampered)

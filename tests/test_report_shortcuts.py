"""The verification report's shortcuts against the arithmetic they
replaced.

`kunneth._report` decides idempotence by comparing the terms of p∘p
with those of p, and builds the residual p∘p − p only when they differ;
it passes completeness without arithmetic when the members' supports
are disjoint and their union is the diagonal's terms, and otherwise
sums every member's terms, less the diagonal's, in one dict. The
graded-action check decides every entry from one integer join per
member and acts only on a failing class, to build its residual rows.
The loop these replaced, which subtracted p from every p∘p, added the
members one by one to −Δ, scanned each class's partner row for one of
the member's sources and subtracted e from every image on the member's
degree, is kept here as `subtraction_report`. Both verify paths,
ordinary and lifted, run once with each, and the whole reports,
residual classes included, must be equal: on every corpus set and on
seeded tampered sets that fail idempotence, completeness, the graded
action, several of them, or none. `subtraction_report` composes every
ordered pair of members, as the ordinary report still does.

A lifted report decides the orthogonality of two members that both
pass their graded action without composing them. A later section
pins each step of the argument for that, and holds the lifted report
against `fraction_verify_equivariant`, which composes every pair, on
seeded tampered families whose failing members carry orthogonality
residuals.

The last section holds the join's verdicts against a term-loop action
on every basis class, on sets with odd classes and with a partner table
whose scale is not 1, and on tampered copies of each.
"""

import random
from fractions import Fraction

import pytest

from chowkunneth import equivariant, kunneth, spaces
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
from chowkunneth.kunneth import (
    ProjectorSet,
    _components,
    _entry,
    full_projectors,
    report_passes,
    verify_ck,
)
from chowkunneth.linalg import inverse
from chowkunneth.serialize import model_document, model_from_document
from ring_oracles import failing_checks
from test_acceptance import corpus_rings
from test_equivariant import oracle_weight_cases
from test_golden_outputs import SPACES as GOLDEN_SPACES
from test_table_oracles import (
    fraction_act,
    fraction_verify_equivariant,
    lifted_models,
    mixed_coefficient,
    mono_product,
    oracle_act,
    oracle_verify_ck,
    random_classes,
    random_lifted,
    random_ordinary,
)


def scan_action_rows(P):
    """The graded action's rows as they were first checked: each class's
    partner row scanned for one of the member's sources, and every
    reached class's residual built by subtraction."""
    lifted = isinstance(P, EquivariantProjectorFamily)
    base = P.model.base if lifted else P.ring
    partners = P.ring._integer_partners()[1]

    def residual_rows(p, k, on_degree):
        e = base.basis_vector(k)
        if not lifted:
            residual = act(p, e) - e if on_degree else act(p, e)
            return [[lab, str(c)] for lab, c in sorted(residual.label_dict().items())]
        bg = P.model.bg
        residual = p.act(e)
        if on_degree:
            residual[k, bg.unit_mono] = residual.get((k, bg.unit_mono), 0) - 1
        return [[base.basis[j][0], bg.mono_label(m), str(c)]
                for (j, m), c in sorted(residual.items()) if c]

    def action_rows(i, p):
        sources = p._by_source()[1]
        for k, (label, degree) in enumerate(base.basis):
            if degree != i and not any(s in sources for s, _, _ in partners[k]):
                yield label, []
            else:
                yield label, residual_rows(p, k, degree == i)

    return action_rows


def subtraction_report(P, compose_pair, delta, action_rows, *, orthogonality_from_action=False):
    """`_report` with a residual class for every idempotence and
    completeness check, one composition for every orthogonality entry
    whatever `orthogonality_from_action` says, and the graded action of
    `scan_action_rows` in place of the `action_rows` given."""
    members = P.projectors
    idx = P.indices()
    entries = [
        _entry("idempotence", (i,), compose_pair(members[i], members[i]) - members[i])
        for i in idx
    ]
    entries.extend(
        _entry("orthogonality", (i, j), compose_pair(members[i], members[j]))
        for i in idx for j in idx if i != j
    )
    if P.complete:
        residual = -delta()
        for i in idx:
            residual = residual + members[i]
        entries.append(_entry("completeness", idx, residual))
    action_rows = scan_action_rows(P)
    for i in idx:
        for label, rows in action_rows(i, members[i]):
            entry = {"check": "graded_action", "indices": [i],
                     "basis_class": label, "pass": not rows}
            if rows:
                entry["residual_class"] = rows
            entries.append(entry)
    return entries


def off_degree_term(P, i, rng):
    """A degree-0 correspondence e_a x e_b with deg e_b != i, lifted at
    the unit monomial for a family. Added to member i, it carries the
    classes that pair with e_a, those of degree deg e_b among them, to
    multiples of e_b: off the member's degree, where the check reaches
    a class only through the pairing with one of the member's sources."""
    lifted = isinstance(P, EquivariantProjectorFamily)
    base = P.model.base if lifted else P.ring
    top = 2 * base.dim
    pairs = [(a, b) for a, (_, da) in enumerate(base.basis)
             for b, (_, db) in enumerate(base.basis) if db != i and da + db == top]
    a, b = rng.choice(pairs)
    if lifted:
        return EquivariantCorrespondence(P.model, 0, {(a, b, P.model.bg.unit_mono): 1})
    return CorrespondenceClass(base, base, 0, {(a, b): 1})


def tampered_sets(P, rng, extra):
    """Sets over P's ring, each claiming completeness, made from P's
    members with `extra()` (a seeded degree-0 correspondence) and one
    nonzero member i: 3 p_i (idempotence and completeness fail), p_i + x with
    p_j - x (the sum is kept), P without p_i (completeness alone fails),
    p_i folded into p_j (both hold; graded action fails), 3 p_i
    without the completeness claim, and p_i plus a term that reaches
    classes off degree i through the pairing alone (`off_degree_term`;
    graded action fails there)."""
    projs, cls = P.projectors, type(P)
    i = rng.choice([k for k in P.indices() if not projs[k].is_zero()])
    others = [j for j in P.indices() if j != i]
    sets = []

    def add(changes, complete=True):
        members = {**projs, **changes}
        sets.append(cls(P.ring, {k: p for k, p in members.items() if p is not None},
                        complete=complete))

    add({i: projs[i].scale(3)})
    add({i: projs[i].scale(3)}, complete=False)
    add({i: None})
    if others:
        j = rng.choice(others)
        x = extra()
        add({i: projs[i] + x, j: projs[j] - x})
        add({i: None, j: projs[i] + projs[j]})
    add({i: projs[i] + off_degree_term(P, i, rng)})
    return sets


def compare(sets, verify, monkeypatch):
    """Each set's report with the shortcuts and with the subtractions;
    the names of the checks that failed, over all sets."""
    reports = [verify(S) for S in sets]
    with monkeypatch.context() as patch:
        patch.setattr(kunneth, "_report", subtraction_report)
        patch.setattr(equivariant, "_report", subtraction_report)
        oracle = [verify(S) for S in sets]
    for S, got, want in zip(sets, reports, oracle):
        assert got == want, S
    return {name for report in reports for name in failing_checks(report)}


def fails_off_degree(report, base):
    """Whether a graded-action entry fails on a class off its member's
    degree."""
    degree = dict(base.basis)
    return any(e["check"] == "graded_action" and not e["pass"]
               and degree[e["basis_class"]] != e["indices"][0] for e in report)


@pytest.mark.parametrize("name", [repr(X) for X in corpus_rings()])
def test_ordinary_reports_match_the_subtractions(name, monkeypatch):
    (X,) = [X for X in corpus_rings() if repr(X) == name]
    rng = random.Random(f"shortcuts {name}")
    P = full_projectors(X)
    sets = [P, *tampered_sets(P, rng, lambda: random_ordinary(X, X, rng, 8, 0))]
    failed = compare(sets, verify_ck, monkeypatch)
    assert {"idempotence", "completeness", "graded_action"} <= failed
    assert fails_off_degree(verify_ck(sets[-1]), X)


LIFTED = [(name, N) for name, (_, n) in lifted_models().items() for N in (2, 4 * n)]


@pytest.mark.parametrize("name, N", LIFTED, ids=[f"{name} N={N}" for name, N in LIFTED])
def test_lifted_reports_match_the_subtractions(name, N, monkeypatch):
    M = lifted_models()[name][0](N)
    rng = random.Random(f"shortcuts {name} {N}")
    F = lift_projectors(full_projectors(M.base), M.group, N, model=M)
    sets = [F, *tampered_sets(F, rng, lambda: random_lifted(M, rng, 8, 0))]
    failed = compare(sets, verify_equivariant, monkeypatch)
    assert {"idempotence", "completeness", "graded_action"} <= failed
    assert fails_off_degree(verify_equivariant(sets[-1]), M.base)


def one_term(S, key, c):
    """The degree-0 correspondence c * key over the ring of S."""
    if isinstance(S, EquivariantProjectorFamily):
        return EquivariantCorrespondence(S.ring, 0, {key: c})
    return CorrespondenceClass(S.ring, S.ring, 0, {key: c})


def keys_off_the_diagonal(S):
    """Term keys of degree-0 correspondences over the ring of S that
    the diagonal does not hold."""
    if isinstance(S, EquivariantProjectorFamily):
        base, bg, delta = S.model.base, S.model.bg, S.model.diagonal()
        tails = [((m,), bg.mono_degree(m)) for m in bg.monomials()]
    else:
        base, delta, tails = S.ring, diagonal(S.ring), [((), 0)]
    return [key for a, (_, da) in enumerate(base.basis) for b, (_, db) in enumerate(base.basis)
            for tail, dm in tails
            if da + db + dm == 2 * base.dim and (key := (a, b, *tail)) not in delta.terms]


def supports_disjoint(S):
    keys = [key for p in S.projectors.values() for key in p.terms]
    return len(set(keys)) == len(keys)


def test_each_shortcut_decides_a_check_the_other_passes(monkeypatch):
    """On P^3, G(2,4) and weighted lifts of P^3: half of p_2 moved onto
    p_0 keeps the sum, so idempotence fails and completeness holds,
    through the sum, since the supports now overlap; dropping p_2 keeps
    every member idempotent, and completeness fails. With disjoint
    supports, a perturbed coefficient, a dropped diagonal term and a
    term off the diagonal (where the ring has one) each fail
    completeness with the subtraction's residual; so does p_0 counted
    twice, in p_0 and in p_2, whose supports overlap while their union
    is still the diagonal's terms."""
    X, G = spaces.projective_space(3), spaces.grassmannian(2, 4)
    cases = [(full_projectors(X), verify_ck), (full_projectors(G), verify_ck)]
    for weights in ((1, 2, -1, 4), (1, -1, 2, -2)):
        M = equivariant.equivariant_projective_torus(weights, 8)
        cases.append((lift_projectors(full_projectors(X), M.group, 8, model=M),
                      verify_equivariant))
    extra_keys = 0
    for S, verify in cases:
        assert supports_disjoint(S) and report_passes(verify(S))
        projs, half = S.projectors, S.projectors[2].scale(Fraction(1, 2))
        moved = type(S)(S.ring, {**projs, 0: projs[0] + half, 2: projs[2] - half},
                        complete=True)
        dropped = type(S)(S.ring, {k: p for k, p in projs.items() if k != 2}, complete=True)
        assert not supports_disjoint(moved)
        compare([moved, dropped], verify, monkeypatch)
        decided = [{"idempotence", "completeness"} & set(failing_checks(verify(T)))
                   for T in (moved, dropped)]
        assert decided == [{"idempotence"}, {"completeness"}]

        key = min(projs[0].terms)
        changed = [projs[0] + one_term(S, key, 1), projs[0] - one_term(S, key, projs[0].terms[key])]
        off = keys_off_the_diagonal(S)
        if off:
            extra_keys += 1
            changed.append(projs[0] + one_term(S, off[0], 1))
        controls = [type(S)(S.ring, {**projs, 0: p}, complete=True) for p in changed]
        assert all(supports_disjoint(T) for T in controls)
        controls.append(type(S)(S.ring, {**projs, 2: projs[2] + projs[0]}, complete=True))
        compare(controls, verify, monkeypatch)
        for T in controls:
            assert "completeness" in failing_checks(verify(T))
    assert extra_keys == 2


# -- orthogonality read off the graded action ----------------------------------------
#
# A lifted report composes only the pairs with a member that fails its
# graded action. That is exact because the action determines a lifted
# correspondence: over the truncated parameter ring the pairing G = J + U
# (J its unit-monomial part, the base pairing; U of positive parameter
# degree) has the inverse sum_k (-J^-1 U)^k J^-1, the action matrix is
# A = G C for the coefficient matrix C, and A_{f∘g} = A_f A_g. The tests
# below pin each step of that argument, and hold the report against
# `fraction_verify_equivariant`, which composes every pair.


def g24_times_p1():
    return spaces.product_space(spaces.grassmannian(2, 4), spaces.projective_space(1))


ORTHOGONALITY_MODELS = {
    "P2 (0,1,3) N=8": lambda: equivariant_projective_torus((0, 1, 3), 8),
    "P3 (1,2,-1,4) N=10": lambda: equivariant_projective_torus((1, 2, -1, 4), 10),
    "P4 (2,-1,0,3,1) N=16": lambda: equivariant_projective_torus((2, -1, 0, 3, 1), 16),
    "P5 (2,-1,-1,0,3,5) N=20": lambda: equivariant_projective_torus((2, -1, -1, 0, 3, 5), 20),
    "G(2,4)xP1 T2 N=4": lambda: equivariant_trivial_action(g24_times_p1(), torus_group(2), 4),
    "G(2,4)xP1 GL2 N=4": lambda: equivariant_trivial_action(
        g24_times_p1(), general_linear_group(2), 4),
}


def orthogonality_tampered(F, rng):
    """Families of F's members, each claiming completeness: one
    coefficient of a member perturbed; a term of another member copied
    onto it, or moved onto it; a term off its degree
    (`off_degree_term`); and a member added at an index F lacks, zero
    or a seeded correspondence."""
    M, projs = F.model, F.projectors
    nonzero = [k for k in F.indices() if not projs[k].is_zero()]
    i = rng.choice(nonzero)
    j = rng.choice([k for k in nonzero if k != i])
    key = rng.choice(sorted(projs[i].terms))
    moved = rng.choice(sorted(projs[j].terms))
    term = one_term(F, moved, projs[j].terms[moved])

    def family(changes):
        return EquivariantProjectorFamily(M, {**projs, **changes}, complete=True)

    families = [
        family({i: projs[i] + one_term(F, key, mixed_coefficient(rng))}),
        family({i: projs[i] + term}),
        family({i: projs[i] + term, j: projs[j] - term}),
        family({i: projs[i] + off_degree_term(F, i, rng)}),
    ]
    free = [k for k in range(2 * M.dim + 1) if k not in projs]
    if free:
        k = rng.choice(free)
        families.append(family({k: EquivariantCorrespondence(M, 0, {})}))
        families.append(family({k: random_lifted(M, rng, 4, 0)}))
    return families


@pytest.mark.parametrize("name", list(ORTHOGONALITY_MODELS))
def test_lifted_orthogonality_matches_the_composed_pairs(name):
    """Seeded tampered families report entry for entry as the report
    that composes every pair; each failing orthogonality entry names a
    member that fails its graded action, and some carry residuals."""
    M = ORTHOGONALITY_MODELS[name]()
    F = lift_projectors(full_projectors(M.base), M.group, M.N, model=M)
    rng = random.Random(f"orthogonality {name}")
    families = [F]
    for _ in range(6):
        families += orthogonality_tampered(F, rng)
    residuals = 0
    for S in families:
        report = verify_equivariant(S)
        assert report == fraction_verify_equivariant(S), S
        acting_wrongly = {e["indices"][0] for e in report
                          if e["check"] == "graded_action" and not e["pass"]}
        for e in report:
            if e["check"] == "orthogonality" and not e["pass"]:
                assert acting_wrongly & set(e["indices"]), (S, e)
                residuals += bool(e["residual_class"])
    assert residuals


def premise_models():
    """name -> model: the weighted, trivial torus and trivial GL models of
    `lifted_models` at N = 4n, and each of them read back from its
    document."""
    models = {name: make(4 * n) for name, (make, n) in lifted_models().items()}
    for name, M in list(models.items()):
        models[f"{name}, read back"] = model_from_document(model_document(M))
    return models


PREMISE_MODELS = premise_models()


@pytest.mark.parametrize("name", list(PREMISE_MODELS))
def test_unit_monomial_part_of_the_pairing_is_the_base_pairing(name):
    """J, the unit-monomial part of the model's partner table, is the
    base ring's partner table, which `pairing_nondegeneracy` checked to
    be invertible; every other entry, U, has positive parameter degree."""
    M = PREMISE_MODELS[name]
    scale, rows = M._integer_partners()
    base_scale, base_rows = M.base._integer_partners()
    assert len(rows) == len(base_rows)
    for row, base_row in zip(rows, base_rows):
        unit = {k: Fraction(v, scale) for k, code, v in row if code == 0}
        assert unit == {k: Fraction(v, base_scale) for k, _, v in base_row}
        assert all(M.bg.mono_degree(M.bg.mono_of[code]) > 0 for _, code, _ in row if code)


def poly_product(bg, p, q):
    out = {}
    for a, x in p.items():
        for b, y in q.items():
            if (m := mono_product(bg, a, b)) is not None:
                out[m] = out.get(m, 0) + x * y
    return {m: c for m, c in out.items() if c}


def matrix_product(bg, A, B):
    """The product of two matrices of {monomial: coefficient} over the
    truncated parameter ring."""
    out = [[{} for _ in B[0]] for _ in A]
    for i, row in enumerate(A):
        for k, a in enumerate(row):
            for j, b in enumerate(B[k]):
                for m, c in poly_product(bg, a, b).items():
                    out[i][j][m] = out[i][j].get(m, 0) + c
    return [[{m: c for m, c in p.items() if c} for p in row] for row in out]


def matrix_sum(A, B):
    out = [[dict(p) for p in row] for row in A]
    for row, other in zip(out, B):
        for p, q in zip(row, other):
            for m, c in q.items():
                p[m] = p.get(m, 0) + c
    return [[{m: c for m, c in p.items() if c} for p in row] for row in out]


def pairing_and_series_inverse(M):
    """G, the model's pairing on base classes, and sum_k (-J^-1 U)^k J^-1
    for k <= N/2; also checks that the next power of -J^-1 U is zero."""
    bg, n, unit = M.bg, len(M.base.basis), M.bg.unit_mono
    G = [[M.pair_poly(j, k) for k in range(n)] for j in range(n)]
    J_inv = [[{unit: v} if v else {} for v in row]
             for row in inverse([[G[j][k].get(unit, 0) for k in range(n)] for j in range(n)])]
    minus_U = [[{m: -c for m, c in p.items() if m != unit} for p in row] for row in G]
    step = matrix_product(bg, J_inv, minus_U)
    term = total = J_inv
    for _ in range(bg.bound // 2):
        term = matrix_product(bg, step, term)
        total = matrix_sum(total, term)
    assert not any(matrix_product(bg, step, term)[j][k] for j in range(n) for k in range(n))
    return G, total


PRODUCT_MODELS = {
    "P5 (2,-1,-1,0,3,5) N=20": lambda: equivariant_projective_torus((2, -1, -1, 0, 3, 5), 20),
    "G(2,4)xP1 T2 N=8": lambda: equivariant_trivial_action(g24_times_p1(), torus_group(2), 8),
}


@pytest.mark.parametrize("name", list(PRODUCT_MODELS))
def test_the_action_determines_a_lifted_correspondence(name):
    """G has the series inverse, and C = G^-1 A recovers each seeded
    correspondence's coefficient matrix from its action on base classes."""
    M = PRODUCT_MODELS[name]()
    bg, base, n = M.bg, M.base, len(M.base.basis)
    G, G_inv = pairing_and_series_inverse(M)
    identity = [[{bg.unit_mono: 1} if j == k else {} for k in range(n)] for j in range(n)]
    assert matrix_product(bg, G, G_inv) == identity == matrix_product(bg, G_inv, G)
    rng = random.Random(f"injective {name}")
    for _ in range(4):
        gamma = random_lifted(M, rng, 10, 0)
        A = [[{} for _ in range(n)] for _ in range(n)]
        for k in range(n):
            for (j, m), c in gamma.act(base.basis_vector(k)).items():
                A[k][j][m] = c
        C = [[{} for _ in range(n)] for _ in range(n)]
        for (i, j, m), c in gamma.terms.items():
            C[i][j][m] = c
        assert matrix_product(bg, G, C) == A
        assert matrix_product(bg, G_inv, A) == C


@pytest.mark.parametrize("name", list(PRODUCT_MODELS))
def test_composite_acts_as_the_second_after_the_first(name):
    """act(compose(f, g), e) is act(g, .), extended linearly over the
    truncated parameter ring, applied to act(f, e): on seeded f and g of
    every pair of shifts, on basis classes and on seeded classes."""
    M = PRODUCT_MODELS[name]()
    bg, base = M.bg, M.base
    rng = random.Random(f"composite {name}")
    classes = [base.basis_vector(k) for k in range(len(base.basis))]
    classes += random_classes(base, rng, 6)
    nonzero = 0
    for f_shift, g_shift in ((0, 0), (-1, 1), (1, -1), (0, 1), (-1, 0)):
        f = random_lifted(M, rng, 12, f_shift)
        g = random_lifted(M, rng, 12, g_shift)
        images = [g.act(base.basis_vector(j)) for j in range(len(base.basis))]
        fg = f.compose(g)
        for alpha in classes:
            want = {}
            for (j, m), c in f.act(alpha).items():
                for (l, m2), c2 in images[j].items():
                    if (p := mono_product(bg, m, m2)) is not None:
                        want[l, p] = want.get((l, p), 0) + c * c2
            got = fg.act(alpha)
            assert got == {key: c for key, c in want.items() if c}
            nonzero += bool(got)
    assert nonzero


# -- the graded action decided by one join per member --------------------------------
#
# `kunneth._action_rows` passes or fails every (member, class) entry from
# one integer join of the member's rows with the partner table, which
# carries the graded sign ∫e_k·e_s = (-1)^(deg s·deg k) ∫e_s·e_k, and acts
# only on a failing class to build its residual. Its verdicts are read here
# with a `residual_rows` that never acts, and held against the term loops
# `oracle_act` and `fraction_act`, one action per basis class.


def plane_cubic(pairing=None):
    return spaces.ci_model(spaces.projective_space(2), {"h": 3}, 2, pairing)


def components_set(X):
    """The diagonal's components as a complete set, on a ring with odd
    classes below the middle, which `full_projectors` refuses."""
    delta = diagonal(X)
    return ProjectorSet(X, {p: delta._with_terms(t) for p, t in _components(delta, X.basis).items()},
                        complete=True)


def parity_sets():
    """name -> a passing set or family: every golden-corpus ring,
    `plane_curve_family(4)`, E x P1 and E x E with odd classes (E a plane
    cubic), E with a middle pairing of denominator 3 (a partner table
    whose scale is not 1) times P1, the weighted P8 family, the trivial
    torus and GL lifts of the benchmark session and trivial lifts of the
    sets with odd classes."""
    P1, G = spaces.projective_space(1), spaces.grassmannian
    third = Fraction(1, 3)
    sets = {repr(X): full_projectors(X) for X in corpus_rings()}
    sets["curves(4)"] = full_projectors(spaces.plane_curve_family(4))
    for name, X in (("E x P1", spaces.product_space(plane_cubic(), P1)),
                    ("E x E", spaces.product_space(plane_cubic(), plane_cubic())),
                    ("E(1/3) x P1", spaces.product_space(
                        plane_cubic([[0, third], [-third, 0]]), P1))):
        sets[name] = components_set(X)
        sets[f"{name} T1"] = lift_projectors(sets[name], torus_group(1), 4)
    M = equivariant_projective_torus((3, -2, 0, 1, 1, 5, -4, 2, 7), 32)
    sets["weighted P8"] = lift_projectors(full_projectors(M.base), M.group, 32, model=M)
    for name, X, group in (
            ("G(3,6)xP1 T2", spaces.product_space(G(3, 6), P1), torus_group(2)),
            ("G(2,4)xG(2,4) GL2", spaces.product_space(G(2, 4), G(2, 4)),
             general_linear_group(2))):
        sets[name] = lift_projectors(full_projectors(X), group, 4)
    return sets


PARITY_SETS = parity_sets()


def odd_term(S, rng):
    """A degree-0 term e_a x e_b with a and b both odd, lifted at the unit
    monomial for a family, or None when the ring has no odd classes."""
    lifted = isinstance(S, EquivariantProjectorFamily)
    base = S.model.base if lifted else S.ring
    top = 2 * base.dim
    pairs = [(a, b) for a, (_, da) in enumerate(base.basis)
             for b, (_, db) in enumerate(base.basis) if da % 2 and db % 2 and da + db == top]
    if not pairs:
        return None
    key = rng.choice(pairs) + ((S.model.bg.unit_mono,) if lifted else ())
    return one_term(S, key, mixed_coefficient(rng))


def parity_tampered(S, rng):
    """Copies of S, each claiming completeness: a nonzero member scaled
    by 3, and one plus a term off its degree (`off_degree_term`), and
    when the ring has odd classes one plus an odd x odd term."""
    projs = S.projectors
    i = rng.choice([k for k in S.indices() if not projs[k].is_zero()])
    changes = [projs[i].scale(3), projs[i] + off_degree_term(S, i, rng)]
    if (x := odd_term(S, rng)) is not None:
        changes.append(projs[i] + x)
    return [type(S)(S.ring, {**projs, i: p}, complete=True) for p in changes]


def join_verdicts(S):
    """{(i, k): pass} for every member i and basis class k, as
    `_action_rows` decides them; its `residual_rows` never acts."""
    base = S.model.base if isinstance(S, EquivariantProjectorFamily) else S.ring
    action_rows = kunneth._action_rows(S, base, lambda p, k, on_degree: [])
    return {(i, k): rows is None for i in S.indices()
            for k, (_, rows) in enumerate(action_rows(i, S.member(i)))}


def action_verdicts(S):
    """{(i, k): pass}, each from the term-loop action of member i on
    e_k: e_k (at the unit monomial) on the member's degree, else zero."""
    lifted = isinstance(S, EquivariantProjectorFamily)
    base = S.model.base if lifted else S.ring
    verdicts = {}
    for i in S.indices():
        for k, (_, degree) in enumerate(base.basis):
            e = base.basis_vector(k)
            if lifted:
                unit = S.model.bg.unit_mono
                passes = fraction_act(S.member(i), e) == ({(k, unit): 1} if degree == i else {})
            else:
                passes = oracle_act(S.member(i), e).coeffs == (e.coeffs if degree == i else {})
            verdicts[i, k] = passes
    return verdicts


@pytest.mark.parametrize("name", list(PARITY_SETS))
def test_join_verdicts_equal_the_action_verdicts(name):
    """On each set and its tampered copies, the join passes exactly the
    (member, class) entries whose term-loop action is the expected
    class, and the whole report equals the one that acts on every
    class. Every tampered copy fails some entry."""
    S = PARITY_SETS[name]
    rng = random.Random(f"parity {name}")
    lifted = isinstance(S, EquivariantProjectorFamily)
    verify, oracle = ((verify_equivariant, fraction_verify_equivariant) if lifted
                      else (verify_ck, oracle_verify_ck))
    for k, T in enumerate([S, *parity_tampered(S, rng)]):
        verdicts = join_verdicts(T)
        assert verdicts == action_verdicts(T), (name, k)
        assert all(verdicts.values()) == (k == 0), (name, k)
        assert verify(T) == oracle(T), (name, k)


def test_odd_sets_carry_the_graded_sign():
    """The parity sets hold what the join must get right: on the rings
    with odd classes the partner table is antisymmetric on odd pairs, so
    a join that read ∫e_s·e_k for ∫e_k·e_s would fail their passing
    sets, and the table of E(1/3) x P1 has the scale 3, not 1."""
    for name in ("E x P1", "E x E", "E(1/3) x P1"):
        X = PARITY_SETS[name].ring
        table = {(j, k): v for j, row in enumerate(X._integer_partners()[1]) for k, _, v in row}
        odd = [(j, k) for j, k in table if X.basis[j][1] % 2 and X.basis[k][1] % 2]
        assert odd and all(table[k, j] == -table[j, k] for j, k in odd), name
    assert PARITY_SETS["E(1/3) x P1"].ring._integer_partners()[0] == 3


def test_every_pairing_joins_classes_of_equal_degree_parity():
    """The join negates a row of odd source once, which is exact only if
    (-1)^(deg s·deg k) = (-1)^(deg s) on every nonzero entry (k, code,
    v) of row s: deg s + deg k is 2 dim plus the parameter degree of
    the code, and that is even. Checked on every golden-corpus ring, on
    every parity set's ring or model and on every model of the weighted
    and lifted oracles."""
    tables = [spaces.build_space(spec) for spec in GOLDEN_SPACES.values()]
    tables += [S.ring for S in PARITY_SETS.values()]
    tables += [equivariant_projective_torus(w, N) for w, N in oracle_weight_cases()]
    tables += [make(4 * n) for make, n in lifted_models().values()]
    for T in tables:
        scale, rows = T._integer_partners()
        bg = getattr(T, "bg", None)
        base = T if bg is None else T.base
        degree = [d for _, d in base.basis]
        for s, row in enumerate(rows):
            for k, code, v in row:
                extra = 0 if bg is None else bg.mono_degree(bg.mono_of[code])
                assert code == 0 or bg is not None, (T, s, k)
                assert v and degree[s] + degree[k] == 2 * base.dim + extra, (T, s, k)
                assert extra % 2 == 0 and degree[s] % 2 == degree[k] % 2, (T, s, k)
        assert any(rows), T


def test_a_failing_verdict_stays_a_failing_entry():
    """`_report` takes each graded-action verdict as `action_rows` gives
    it: None passes the entry, and rows fail it, even empty ones. So a
    class the join failed is reported as failing whatever its residual
    turns out to be, and is never masked to a pass."""
    P = full_projectors(spaces.projective_space(2))
    verdicts = [None, [], [["h", "1"]]]

    def action_rows(i, p):
        for (label, _), rows in zip(P.ring.basis, verdicts):
            yield label, rows

    report = kunneth._report(P, compose, lambda: diagonal(P.ring), action_rows)
    entries = [e for e in report if e["check"] == "graded_action" and e["indices"] == [0]]
    assert [(e["pass"], e.get("residual_class")) for e in entries] == [
        (True, None), (False, []), (False, [["h", "1"]])]

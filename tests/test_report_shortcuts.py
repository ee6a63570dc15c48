"""The verification report's shortcuts against the arithmetic they
replaced.

`kunneth._report` decides idempotence by comparing the terms of p∘p
with those of p, and builds the residual p∘p − p only when they differ;
it passes completeness without arithmetic when the members' supports
are disjoint and their union is the diagonal's terms, and otherwise
sums every member's terms, less the diagonal's, in one dict. The
graded-action check gathers the classes a member reaches once, from
its sources' partner rows, and compares each image with the expected
class, building residual rows only when they differ.
The loop these replaced, which subtracted p from every p∘p, added the
members one by one to −Δ, scanned each class's partner row for one of
the member's sources and subtracted e from every image on the member's
degree, is kept here as `subtraction_report`. Both verify paths,
ordinary and lifted, run once with each, and the whole reports,
residual classes included, must be equal: on every corpus set and on
seeded tampered sets that fail idempotence, completeness, the graded
action, several of them, or none.
"""

import random
from fractions import Fraction

import pytest

from chowkunneth import equivariant, kunneth, spaces
from chowkunneth.correspondences import CorrespondenceClass, act, diagonal
from chowkunneth.equivariant import (
    EquivariantCorrespondence,
    EquivariantProjectorFamily,
    lift_projectors,
    verify_equivariant,
)
from chowkunneth.kunneth import (
    _entry,
    failing_checks,
    full_projectors,
    report_passes,
    verify_ck,
)
from test_acceptance import corpus_rings
from test_table_oracles import lifted_models, random_lifted, random_ordinary


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
            if degree != i and not any(s in sources for s, _ in partners[k]):
                yield label, []
            else:
                yield label, residual_rows(p, k, degree == i)

    return action_rows


def subtraction_report(P, compose_pair, delta, action_rows):
    """`_report` with a residual class for every idempotence and
    completeness check, and the graded action of `scan_action_rows` in
    place of the `action_rows` given."""
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
    P.report = entries
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
    assert fails_off_degree(sets[-1].report, X)


LIFTED = [(name, N) for name, (_, n) in lifted_models().items() for N in (2, 4 * n)]


@pytest.mark.parametrize("name, N", LIFTED, ids=[f"{name} N={N}" for name, N in LIFTED])
def test_lifted_reports_match_the_subtractions(name, N, monkeypatch):
    M = lifted_models()[name][0](N)
    rng = random.Random(f"shortcuts {name} {N}")
    F = lift_projectors(full_projectors(M.base), M.group, N, model=M)
    sets = [F, *tampered_sets(F, rng, lambda: random_lifted(M, rng, 8, 0))]
    failed = compare(sets, verify_equivariant, monkeypatch)
    assert {"idempotence", "completeness", "graded_action"} <= failed
    assert fails_off_degree(sets[-1].report, M.base)


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
            assert "completeness" in failing_checks(T.report)
    assert extra_keys == 2

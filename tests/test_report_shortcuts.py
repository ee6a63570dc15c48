"""The verification report's shortcuts against the arithmetic they
replaced.

`kunneth._report` decides idempotence by comparing the terms of p∘p
with those of p, and builds the residual p∘p − p only when they differ;
it decides completeness from one dict of every member's terms less the
diagonal's. The loop it replaced, which subtracted p from every p∘p
and added the members one by one to −Δ, is kept here as
`subtraction_report`. Both verify paths, ordinary and lifted, run once
with each, and the whole reports, residual classes included, must be
equal: on every corpus set and on seeded tampered sets that fail
idempotence, completeness, both, or neither.
"""

import random
from fractions import Fraction

import pytest

from chowkunneth import equivariant, kunneth, spaces
from chowkunneth.equivariant import lift_projectors, verify_equivariant
from chowkunneth.kunneth import _entry, failing_checks, full_projectors, verify_ck
from test_acceptance import corpus_rings
from test_table_oracles import lifted_models, random_lifted, random_ordinary


def subtraction_report(P, compose_pair, delta, action_rows):
    """`_report` with a residual class for every idempotence and
    completeness check."""
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
    for i in idx:
        for label, rows in action_rows(i, members[i]):
            entry = {"check": "graded_action", "indices": [i],
                     "basis_class": label, "pass": not rows}
            if rows:
                entry["residual_class"] = rows
            entries.append(entry)
    P.report = entries
    return entries


def tampered_sets(P, rng, extra):
    """Sets over P's ring, each claiming completeness, made from P's
    members with `extra()` (a seeded degree-0 correspondence) and one
    nonzero member i: 3 p_i (idempotence and completeness fail), p_i + x with
    p_j - x (the sum is kept), P without p_i (completeness alone fails),
    p_i folded into p_j (both hold; graded action fails), and 3 p_i
    without the completeness claim."""
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


@pytest.mark.parametrize("name", [repr(X) for X in corpus_rings()])
def test_ordinary_reports_match_the_subtractions(name, monkeypatch):
    (X,) = [X for X in corpus_rings() if repr(X) == name]
    rng = random.Random(f"shortcuts {name}")
    P = full_projectors(X)
    sets = [P, *tampered_sets(P, rng, lambda: random_ordinary(X, X, rng, 8, 0))]
    failed = compare(sets, verify_ck, monkeypatch)
    assert {"idempotence", "completeness"} <= failed


LIFTED = [(name, N) for name, (_, n) in lifted_models().items() for N in (2, 4 * n)]


@pytest.mark.parametrize("name, N", LIFTED, ids=[f"{name} N={N}" for name, N in LIFTED])
def test_lifted_reports_match_the_subtractions(name, N, monkeypatch):
    M = lifted_models()[name][0](N)
    rng = random.Random(f"shortcuts {name} {N}")
    F = lift_projectors(full_projectors(M.base), M.group, N, model=M)
    sets = [F, *tampered_sets(F, rng, lambda: random_lifted(M, rng, 8, 0))]
    failed = compare(sets, verify_equivariant, monkeypatch)
    assert {"idempotence", "completeness"} <= failed


def test_each_shortcut_decides_a_check_the_other_passes(monkeypatch):
    """On P^3 and its weighted lift: half of p_2 moved onto p_0 keeps
    the sum, so idempotence fails and completeness holds; dropping p_2
    keeps every member idempotent, and completeness fails."""
    X = spaces.projective_space(3)
    M = equivariant.equivariant_projective_torus((1, 2, -1, 4), 8)
    for S, verify in ((full_projectors(X), verify_ck),
                      (lift_projectors(full_projectors(X), M.group, 8, model=M),
                       verify_equivariant)):
        projs, half = S.projectors, S.projectors[2].scale(Fraction(1, 2))
        moved = type(S)(S.ring, {**projs, 0: projs[0] + half, 2: projs[2] - half},
                        complete=True)
        dropped = type(S)(S.ring, {k: p for k, p in projs.items() if k != 2}, complete=True)
        compare([moved, dropped], verify, monkeypatch)
        decided = [{"idempotence", "completeness"} & set(failing_checks(verify(T)))
                   for T in (moved, dropped)]
        assert decided == [{"idempotence"}, {"completeness"}]

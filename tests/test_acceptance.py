"""Acceptance gate: one test and one printed status line per criterion.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines. Every check is exact; nothing is compared with a tolerance.
"""

import json
from contextlib import contextmanager
from fractions import Fraction

import pytest

from chowkunneth import cli, schubert, spaces
from chowkunneth.correspondences import (
    CorrespondenceClass,
    act,
    compose,
    diagonal,
)
from chowkunneth.equivariant import (
    bottom_weight_restriction,
    equivariant_projective_torus,
    general_linear_group,
    lift_projectors,
    stabilization_check,
    torus_group,
    verify_equivariant,
)
from chowkunneth.errors import ChowKunnethError
from chowkunneth.kunneth import (
    full_projectors,
    gram_schmidt_orthogonalize,
    product_projectors,
    report_passes,
    verify_ck,
)
from ring_oracles import closed_form_hypersurface_projectors, diagonal_component
from schubert_oracles import lr_multiply


@contextmanager
def criterion(line):
    try:
        yield
    except BaseException:
        print(f"FAIL {line}")
        raise
    print(f"PASS {line}")


def corpus_rings():
    """Every space named by the verification criterion."""
    rings = [spaces.projective_space(n) for n in range(1, 6)]
    rings.append(spaces.grassmannian(2, 4))
    rings.append(spaces.grassmannian(2, 5))
    rings.append(
        spaces.blowup(
            spaces.projective_space(3),
            spaces.projective_space(1),
            2,
            {"1": {"h^2": 1}, "h": {"h^3": 1}},
            normal_chern={1: {"h": 2}},
        )
    )
    rings.append(
        spaces.blowup(
            spaces.projective_space(2),
            spaces.projective_space(0),
            2,
            {"1": {"h^2": 1}},
            normal_chern={1: {}},
        )
    )
    rings.append(
        spaces.product_space(spaces.projective_space(1), spaces.projective_space(2))
    )
    for n, d, r in [(3, 1, 0), (3, 2, 1), (3, 3, 7), (4, 2, 0)]:
        rings.append(spaces.hypersurface_model(n, d, r))
    for d in (1, 2, 3):
        rings.append(spaces.plane_curve_family(d))
    return rings


def test_criterion_1_full_verification_on_corpus():
    with criterion("criterion 1: full projector verification across the corpus"):
        for X in corpus_rings():
            P = full_projectors(X)
            assert P.complete
            report = verify_ck(P)
            assert report_passes(report), X


def test_criterion_2_closed_form_hypersurface_projectors():
    """The diagonal's components on a hypersurface model equal the
    closed form (1/d) H^(n-1-r) x H^r away from the middle, with the
    same middle member, on every n, d and middle rank below, or both
    raise the same error."""
    with criterion("criterion 2: closed-form hypersurface projectors are exact"):
        built = 0
        for n in range(1, 7):
            for d in range(1, 5):
                for r in (0, 1, 2, 4, 6):
                    try:
                        want = closed_form_hypersurface_projectors(n, d, r)
                    except ChowKunnethError as exc:
                        with pytest.raises(type(exc)) as got:
                            full_projectors(spaces.hypersurface_model(n, d, r))
                        assert type(got.value) is type(exc), (n, d, r)
                        assert str(got.value) == str(exc), (n, d, r)
                        continue
                    P = full_projectors(spaces.hypersurface_model(n, d, r))
                    assert P == want, (n, d, r)
                    built += 1
                    dim = n - 1
                    rem = P.member(dim)
                    assert compose(rem, rem) == rem
                    for i in P.indices():
                        if i != dim:
                            assert compose(rem, P.member(i)).is_zero()
                            assert compose(P.member(i), rem).is_zero()
        assert built >= 60


def test_criterion_3_product_cross_validation():
    with criterion("criterion 3: product projectors match the direct construction"):
        P1, P2 = spaces.projective_space(1), spaces.projective_space(2)
        T = spaces.product_space(P1, P2)
        via_product = product_projectors(full_projectors(P1), full_projectors(P2), T)
        direct = full_projectors(T)
        indices = sorted(set(via_product.indices()) | set(direct.indices()))
        for i in indices:
            for label, _ in T.basis:
                v = T.basis_class(label)
                a = (
                    act(via_product.member(i), v)
                    if i in via_product.projectors
                    else T.zero(v.degree)
                )
                b = (
                    act(direct.member(i), v)
                    if i in direct.projectors
                    else T.zero(v.degree)
                )
                assert a == b, (i, label)


def test_criterion_4_schubert_backend_against_tableau_oracle():
    with criterion("criterion 4: Pieri-path products equal the tableau oracle"):
        total = 0
        for k, m in [(2, 2), (2, 3), (3, 3)]:
            shapes = schubert.partitions_in_box(k, m)
            table = schubert.product_table(k, m)
            for lam in shapes:
                for mu in shapes:
                    got = table.get((lam, mu), {})
                    want = {
                        nu: c
                        for nu, c in lr_multiply(lam, mu, k, m).items()
                        if c
                    }
                    assert got == want, (k, m, lam, mu)
                    total += 1
        assert total == 36 + 100 + 400


def rank_one(ring, w, v):
    terms = {}
    for i, cw in w.coeffs.items():
        for j, cv in v.coeffs.items():
            terms[(i, j)] = cw * cv
    return CorrespondenceClass(ring, ring, 0, terms)


def test_criterion_5_gram_schmidt_on_synthetic_families():
    with criterion("criterion 5: orthogonalization of synthetic families"):
        P1 = spaces.projective_space(1)
        P2 = spaces.projective_space(2)
        G = spaces.grassmannian(2, 4)
        Q = spaces.hypersurface_model(3, 2, 1)
        E = spaces.ci_model(spaces.projective_space(2), {"h": 3}, 2)
        u0, u1, u2 = (diagonal_component(P2, t) for t in (0, 2, 4))
        s2, s11 = G.basis_class("s[2]"), G.basis_class("s[1,1]")
        qh, qm = Q.basis_class("h"), Q.basis_class("m1")
        m1, m2 = E.basis_class("m1"), E.basis_class("m2")
        families = [
            [diagonal_component(P1, 0), diagonal(P1)],
            [u0 + u1, u1 + u2],
            [rank_one(G, s2, s2), rank_one(G, s11, s2 + s11)],
            [rank_one(Q, qh, qh).scale(Fraction(1, 2)), rank_one(Q, qm, qh + qm)],
            [rank_one(E, m2, m1), rank_one(E, m2, m1 + m2)],
        ]
        assert len(families) >= 5
        for fam in families:
            assert all(compose(p, p) == p for p in fam)
            assert any(
                not compose(fam[i], fam[j]).is_zero()
                for i in range(len(fam))
                for j in range(len(fam))
                if i != j
            )
            out = gram_schmidt_orthogonalize(fam)
            assert all(compose(q, q) == q for q in out)
            for i, qi in enumerate(out):
                for j, qj in enumerate(out):
                    if i != j:
                        assert compose(qi, qj).is_zero()
        for X in (P1, P2, G, Q, E):
            members = [
                full_projectors(X).member(i) for i in full_projectors(X).indices()
            ]
            assert gram_schmidt_orthogonalize(members) == members


def test_criterion_6_equivariant_lifts_and_stabilization():
    with criterion("criterion 6: lifts verify, restrict back, and stabilize"):
        P2 = spaces.projective_space(2)
        P = full_projectors(P2)
        for G in (torus_group(1), general_linear_group(2)):
            F = lift_projectors(P, G, 8)
            assert report_passes(verify_equivariant(F)), G
            assert F.restrict() == P
            assert stabilization_check(P2, G, P, 4, 6, 10)


def test_criterion_7_restriction_of_every_verified_complete_set():
    with criterion("criterion 7: verified sets restrict to verified sets"):
        # the equivariant parameter-annihilation surjection
        M = equivariant_projective_torus((0, 1), 8)
        base_set = full_projectors(M.base)
        family = lift_projectors(base_set, torus_group(1), 8, model=M)
        assert report_passes(verify_equivariant(family))
        restricted = bottom_weight_restriction(M, family)
        assert report_passes(verify_ck(restricted))
        trivial = lift_projectors(
            full_projectors(spaces.projective_space(2)), general_linear_group(2), 6
        )
        assert report_passes(verify_equivariant(trivial))
        assert report_passes(
            verify_ck(bottom_weight_restriction(trivial.model, trivial))
        )
        # the primitive-middle-killing surjection on every corpus ring
        for X in corpus_rings():
            P = full_projectors(X)
            assert report_passes(verify_ck(P))
            target, q = spaces.kill_primitive_middle(X)
            Q = bottom_weight_restriction(q, P)
            assert Q.complete
            assert report_passes(verify_ck(Q)), X
            assert Q.ring is target


def test_criterion_8_closed_form_dimension_formulas():
    with criterion("criterion 8: dimension formulas and the documented warning"):
        assert spaces.fano_delta(3, (3,), 1) == 0
        assert spaces.fano_delta(4, (5,), 1) == 0
        assert spaces.rep_variety_dim(2, 2) == 13
        assert spaces.rep_variety_dim(1, 3) == 12
        assert spaces.barth_range(6, 4) == 2
        notes = spaces.fano_delta_notes(4, (3,), 1)
        assert len(notes) == 1 and "2-dimensional" in notes[0]


def test_criterion_9_negative_controls(capsys, tmp_path):
    with criterion("criterion 9: negative controls fail by name with exit 1"):
        space = '{"kind": "projective_space", "n": 2}'
        pfile = tmp_path / "set.json"
        assert cli.main(["projectors", "--space", space, "--out", str(pfile)]) == 0
        doc = json.loads(pfile.read_text(encoding="utf-8"))

        scaled = json.loads(json.dumps(doc))
        for entry in scaled["projectors"]:
            if entry["index"] == 0:
                entry["terms"] = [
                    [lx, ly, str(2 * Fraction(c))] for lx, ly, c in entry["terms"]
                ]
        sfile = tmp_path / "scaled.json"
        sfile.write_text(json.dumps(scaled), encoding="utf-8")
        code = cli.main(["verify", str(sfile)])
        text = capsys.readouterr().out
        assert code == 1
        assert "FAIL idempotence [0]" in text

        missing = json.loads(json.dumps(doc))
        missing["projectors"] = [p for p in missing["projectors"] if p["index"] != 4]
        mfile = tmp_path / "missing.json"
        mfile.write_text(json.dumps(missing), encoding="utf-8")
        code = cli.main(["verify", str(mfile)])
        text = capsys.readouterr().out
        assert code == 1
        assert "FAIL completeness" in text
        assert "FAIL idempotence" not in text

        corrupted = json.dumps(
            {
                "kind": "ci_model",
                "ambient": {"kind": "projective_space", "n": 3},
                "fundamental_class_expr": {"h": "2"},
                "middle_rank": 2,
                "middle_pairing": [["1", "1"], ["1", "1"]],
            }
        )
        code = cli.main(["projectors", "--space", corrupted, "--verify"])
        text = capsys.readouterr().out
        assert code == 1
        assert "FAIL pairing_nondegeneracy" in text

"""The size guards of parameter rings and of rings.

`bg_ring` counts a group's monomials within the bound before it lists a
single generator (`GroupSpec.monomial_count`), and refuses a ring that
would hold more than `MAX_PARAMETER_EXPONENTS` exponents, one per kept
generator in each monomial (GL(r) keeps c_1 .. c_min(r, N/2)), with
`SizeLimitExceeded`: `error:` and exit 2 from `lift`, `stabilize` and
every command that reads a model document. The refusals run with the
enumeration replaced by one that raises, so a guard that stops guarding
fails at once instead of building a huge ring.

Each builder of `spaces` predicts its ring's rank before it allocates
any of it, and refuses a rank past `MAX_RING_RANK` the same way. Those
refusals run in a child process with its address space capped and a
timeout, so a guard that stops guarding fails the test instead of
exhausting the machine.
"""

import json
import os
import resource
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest

from chowkunneth import cli, equivariant, spaces
from chowkunneth.equivariant import (
    MAX_PARAMETER_EXPONENTS,
    GroupSpec,
    TruncatedPolyRing,
    bg_ring,
    general_linear_group,
    lift_projectors,
    torus_group,
)
from chowkunneth.errors import SizeLimitExceeded
from chowkunneth.kunneth import full_projectors
from chowkunneth.serialize import dumps, family_document

P2 = json.dumps({"kind": "projective_space", "n": 2})
HUGE = 100_000_000

SMALL = [(kind, r, N) for kind in GroupSpec.KINDS for r in (1, 2, 3, 5)
         for N in (0, 2, 4, 6, 10, 16)]


@pytest.mark.parametrize("kind, r, N", SMALL)
def test_predicted_count_is_the_built_rank(kind, r, N):
    G = GroupSpec(kind, r)
    count = len(bg_ring(G, N).basis)
    assert G.monomial_count(N) == count
    if kind == "multiplicative_torus":
        assert count == comb(r + N // 2, r)
    # past a cap the count stops at a lower bound above it
    for cap in range(count + 2):
        got = G.monomial_count(N, cap)
        assert got == count if count <= cap else cap < got <= count, cap


def test_the_limit_counts_exponents(monkeypatch):
    """At a limit of 21 exponents: t^0..t^20 (N = 40) builds and N = 42
    does not; a rank-3 torus at N = 4 has 10 monomials of 3 exponents."""
    monkeypatch.setattr(equivariant, "MAX_PARAMETER_EXPONENTS", 21)
    assert len(bg_ring(torus_group(1), 40).basis) == 21
    with pytest.raises(SizeLimitExceeded, match="at least 22 monomials of 1 exponents"):
        bg_ring(torus_group(1), 42)
    with pytest.raises(SizeLimitExceeded, match="at least 10 monomials of 3 exponents"):
        bg_ring(torus_group(3), 4)
    monkeypatch.setattr(equivariant, "MAX_PARAMETER_EXPONENTS", 30)
    assert len(bg_ring(torus_group(3), 4).basis) == 10


def test_the_limit_admits_the_models_in_use():
    assert MAX_PARAMETER_EXPONENTS == 1_000_000
    assert torus_group(5).monomial_count(40) * 5 <= MAX_PARAMETER_EXPONENTS


@pytest.fixture
def no_enumeration(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a parameter ring past the size guard was enumerated")

    monkeypatch.setattr(GroupSpec, "generators", refuse)
    monkeypatch.setattr(TruncatedPolyRing, "__init__", refuse)


@pytest.mark.parametrize("G, N, count, kept", [
    (torus_group(HUGE), 4, HUGE + 1, HUGE),
    (torus_group(3), HUGE, HUGE // 2 + 1, 3),
    (torus_group(HUGE), HUGE, HUGE + 1, HUGE),
    (general_linear_group(3), HUGE, HUGE // 2 + 1, 3),
    (general_linear_group(HUGE), HUGE, HUGE // 2 + 1, HUGE // 2),
])
def test_huge_rings_are_refused_before_enumeration(no_enumeration, G, N, count, kept):
    with pytest.raises(SizeLimitExceeded, match=f"at least {count} monomials of {kept} "):
        bg_ring(G, N)


def test_general_linear_keeps_the_generators_within_the_bound(monkeypatch):
    """GL(10^6) at N = 4 builds its 3 monomials in c_1, c_2 without
    listing the group's generators, and GL(2) keeps both of its."""
    def refuse(*args, **kwargs):
        raise AssertionError("the generators of a trimmed group were listed")

    monkeypatch.setattr(GroupSpec, "generators", refuse)
    R = bg_ring(general_linear_group(10**6), 4)
    assert R.basis == (("1", 0), ("c1", 2), ("c1^2", 4), ("c2", 4))
    assert R.gens == (("c1", 2), ("c2", 4))
    assert bg_ring(general_linear_group(3), 2).gens == (("c1", 2),)
    monkeypatch.undo()
    assert bg_ring(general_linear_group(2), 4).gens == general_linear_group(2).generators()


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv, count", [
    (("lift", "--space", P2, "--bound", "4", "--rank", str(HUGE)), HUGE + 1),
    (("lift", "--space", P2, "--bound", str(HUGE), "--rank", "3"), HUGE // 2 + 1),
    (("lift", "--space", P2, "--bound", str(HUGE), "--group", "general_linear",
      "--rank", "3"), HUGE // 2 + 1),
    (("lift", "--space", P2, "--bound", str(HUGE), "--weights", "0,1,2"), HUGE // 2 + 1),
    (("stabilize", "--space", P2, "--rank", str(HUGE), "--degrees", "2",
      "--n1", "4", "--n2", "6"), HUGE + 1),
])
def test_commands_refuse_huge_rings(no_enumeration, capsys, argv, count):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: the parameter ring of ")
    assert f"at least {count} monomials" in err
    assert err.count("\n") == 1


def test_a_huge_general_linear_group_lifts_at_a_small_bound(capsys):
    code, out, err = run(capsys, "lift", "--space", P2, "--bound", "4", "--group",
                         "general_linear", "--rank", str(HUGE), "--verify")
    assert code == 0 and err == ""
    assert out.endswith("19/19 checks passed\n")


# A lifted family over P^1 at N = 2, as `lift --out` writes it.
FAMILY = {
    "complete": True,
    "model": {"N": 2, "base": {"kind": "projective_space", "n": 1},
              "group": {"kind": "multiplicative_torus", "rank": 1}},
    "projectors": [{"index": 0, "terms": [["h", "1", "1", "1"]]},
                   {"index": 1, "terms": []},
                   {"index": 2, "terms": [["1", "h", "1", "1"]]}],
    "remainder_indices": [1],
}


def test_the_family_document_is_what_lift_writes():
    F = lift_projectors(full_projectors(spaces.projective_space(1)), torus_group(1), 2)
    assert json.loads(dumps(family_document(F))) == FAMILY


@pytest.mark.parametrize("command", ["verify", "restrict"])
@pytest.mark.parametrize("model", [{"group": {"kind": "multiplicative_torus", "rank": HUGE}},
                                   {"N": HUGE}])
def test_model_documents_refuse_huge_rings(no_enumeration, tmp_path, capsys, command, model):
    path = tmp_path / "family.json"
    doc = {**FAMILY, "model": {**FAMILY["model"], **model}}
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, command, str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: the parameter ring of multiplicative_torus")


# -- rings ---------------------------------------------------------------------------


def test_the_limit_admits_the_rings_in_use():
    assert spaces.MAX_RING_RANK == 1000
    assert comb(12, 6) <= spaces.MAX_RING_RANK  # G(6,12), rank 924


@pytest.fixture
def predictions(monkeypatch):
    """Every (rank, exact) a builder predicts, on an empty ring cache."""
    records = []
    inner = spaces._require_rank

    def recorded(what, rank, exact=True):
        records.append((rank, exact))
        inner(what, rank, exact)

    monkeypatch.setattr(spaces, "_require_rank", recorded)
    monkeypatch.setattr(spaces, "_CACHE", {})
    return records


def _prediction_cases():
    from test_golden_outputs import ExE, SPACES

    point = {"kind": "projective_space", "n": 0}
    return {
        **SPACES,
        "ExE": ExE,
        "G(4,8)": {"kind": "grassmannian", "k": 4, "n": 8},
        "curves(2), 4 primitives": {"kind": "plane_curve_family", "d": 2, "middle_rank": 4},
        "P3 blown up at a point": {
            "kind": "blowup", "base": {"kind": "projective_space", "n": 3}, "center": point,
            "codim": 3, "center_pushforward_expr": {"1": {"h^3": "1"}},
            "normal_chern": {"1": {}, "2": {}, "3": {}},
        },
        "a codimension-1 blow-up": {
            "kind": "blowup", "base": {"kind": "projective_space", "n": 1}, "center": point,
            "codim": 1, "center_pushforward_expr": {"1": {"h": "1"}}, "normal_chern": {},
        },
    }


@pytest.mark.parametrize("name", sorted(_prediction_cases()))
def test_predicted_rank_is_the_built_rank(predictions, name):
    """The last prediction is the ring's own rank; every other one is
    the exact rank of a ring built on the way (a factor, an ambient, a
    base or a center), or, for a plane curve family, its own again."""
    ring = spaces.build_space(_prediction_cases()[name])
    assert predictions[-1] == (len(ring.basis), True), name
    built = {len(r.basis) for r in spaces._CACHE.values()}
    assert all(exact and rank in built for rank, exact in predictions), name


# Runs `cli.main` on its arguments in a child process and prints its exit
# code, its standard error and the seconds it took, as JSON.
REFUSAL_PROBE = """
import io, json, sys, time
from contextlib import redirect_stderr
from chowkunneth import cli
err = io.StringIO()
start = time.perf_counter()
with redirect_stderr(err):
    code = cli.main(sys.argv[1:])
print(json.dumps({"code": code, "err": err.getvalue(),
                  "seconds": time.perf_counter() - start}))
"""

ADDRESS_SPACE = 1 << 30


def _capped():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


def refused(tmp_path, *argv):
    src = str(Path(spaces.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", REFUSAL_PROBE, *argv], cwd=tmp_path, capture_output=True,
        text=True, env=dict(os.environ, PYTHONPATH=src), preexec_fn=_capped, timeout=60,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout)


def projective(n):
    return {"kind": "projective_space", "n": n}


@pytest.mark.parametrize("spec, message", [
    (projective(10**11), "P^100000000000 would have rank 100000000001, "),
    (projective(10**4299), "would have rank more than 10^30, "),
    ({"kind": "grassmannian", "k": 3, "n": 100_000},
     "G(3,100000) would have rank at least 100000, "),
    ({"kind": "grassmannian", "k": 8, "n": 16}, "G(8,16) would have rank 12870, "),
    ({"kind": "grassmannian", "k": 5 * 10**10, "n": 10**11},
     "G(50000000000,100000000000) would have rank at least 100000000000, "),
    ({"kind": "plane_curve_family", "d": 100_000},
     "the plane curve family of degree 100000 would have rank 15000450000, "),
    ({"kind": "product", "factors": [projective(3000), projective(3000)]},
     "P^3000 would have rank 3001, "),
    ({"kind": "product", "factors": [projective(1)] * 10},
     "a product of 10 factors would have rank 1024, "),
    ({"kind": "ci_model", "ambient": projective(3), "fundamental_class_expr": {"h": "3"},
      "middle_rank": 10**8}, "the ci_model would have rank 100000003, "),
], ids=["P^1e11", "P^1e4299", "G(3,1e5)", "G(8,16)", "G(5e10,1e11)", "curves(1e5)",
        "P^3000xP^3000", "(P^1)^10", "ci_model 1e8 primitives"])
def test_oversized_descriptions_are_refused_at_once(tmp_path, spec, message):
    got = refused(tmp_path, "build", "--space", json.dumps(spec))
    assert got["code"] == 2, got
    assert got["err"].startswith("error: ") and got["err"].count("\n") == 1, got
    assert message + "past the limit of 1000\n" in got["err"], got
    assert got["seconds"] < 1, got


def test_a_family_over_a_huge_base_is_refused_at_once(tmp_path):
    path = tmp_path / "family.json"
    doc = {**FAMILY, "model": {**FAMILY["model"], "base": projective(10**30)}}
    path.write_text(json.dumps(doc), encoding="utf-8")
    got = refused(tmp_path, "verify", str(path))
    assert got["code"] == 2 and got["seconds"] < 1, got
    assert got["err"] == (f"error: P^{10**30} would have rank more than 10^30, "
                          "past the limit of 1000\n")

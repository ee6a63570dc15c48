"""Byte-identity of command output against recorded digests.

Each case runs the command line in-process and hashes its exit code,
its standard output and every document it writes with --out. The
digests were recorded from the code before ordinary projector sets and
lifted families were folded onto one set type, one report loop and one
document codec, the blow-up cases before the blow-up ring was
assembled from structure tables, and the three-factor product and the
E x E diagonal before product rings were folded from the factors'
tables, the G(3,6) and G(2,5) x P^2 cases before Schubert tables
were filled by Pieri recursion, and the plane cubic E (odd middle) and
P^0 cases before projector sets were built by grouping the diagonal,
and the `build-fails-*` cases before the ring checks became a
table and construction errors began to carry their check's name;
any change to a report, a document or an exit code shows up here as a
changed digest. One digest was re-recorded on purpose:
`verify-tampered-family`, when the residual rows of lifted graded-action
checks began to print as classes ("(8) h") instead of as correspondence
terms ("(8) h x 1"). One case changed on purpose: the blow-up of a
point whose pushforward is zero failed `unit` as `build-fails-unit`
(exit 1) until blow-ups checked that their pullback is a ring map; it
is now `build-rejects-point_pushed_to_zero` (exit 2), recorded with
`build-rejects-line_with_doubled_point` from the first code that
rejected them. `verify-tampered-weighted-P3`, a weighted lift with a
term off one member's degree (its orthogonality entries carry
residuals), was recorded from the code that composed every pair of
members, before lifted reports read orthogonality off the graded
action.

The digests leave standard error out. Every case that writes to it is
listed in `STDERR` with the exact text it writes (the `error:` line of
an exit-2 case), and every other case must write nothing there. The
`build-rejects-*` texts were recorded from the code before the
parameter-ring size guard; `lift-rejects-oversized_torus`, the guard's
case, from the first code that had it, and likewise
`build-rejects-oversized_projective_space` from the first code with the
ring size guard. Their digest (exit 2, empty stdout, no document) is
the one the other two `build-rejects-*` cases share.

To re-record after an intended change of output, run this file as a
script: it prints the digest table and the standard-error table.
"""

import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

from chowkunneth import cli

P2 = {"kind": "projective_space", "n": 2}
P3 = {"kind": "projective_space", "n": 3}
G24 = {"kind": "grassmannian", "k": 2, "n": 4}
G36 = {"kind": "grassmannian", "k": 3, "n": 6}
P1 = {"kind": "projective_space", "n": 1}
P0 = {"kind": "projective_space", "n": 0}
P1xP2 = {"kind": "product", "factors": [P1, P2]}
P1xP1xP2 = {"kind": "product", "factors": [P1, P1, P2]}
G25xP2 = {"kind": "product", "factors": [{"kind": "grassmannian", "k": 2, "n": 5}, P2]}
CUBIC_SURFACE = {
    "kind": "ci_model",
    "ambient": P3,
    "fundamental_class_expr": {"h": "3"},
    "middle_rank": 7,
}
CUBIC_THREEFOLD = {
    "kind": "ci_model",
    "ambient": {"kind": "projective_space", "n": 4},
    "fundamental_class_expr": {"h": "3"},
    "middle_rank": 10,
}
PLANE_CUBICS = {"kind": "plane_curve_family", "d": 3}
# E x E, E a plane cubic curve: odd x odd classes carry Koszul signs.
# Its odd part has odd rank, so `projectors` exits 2 on it; only its
# diagonal is in the corpus.
PLANE_CUBIC = {
    "kind": "ci_model",
    "ambient": P2,
    "fundamental_class_expr": {"h": "3"},
    "middle_rank": 2,
}
ExE = {"kind": "product", "factors": [PLANE_CUBIC, PLANE_CUBIC]}
BL_LINE = {
    "kind": "blowup",
    "base": P3,
    "center": {"kind": "projective_space", "n": 1},
    "codim": 2,
    "center_pushforward_expr": {"1": {"h^2": "1"}, "h": {"h^3": "1"}},
    "normal_chern": {"1": {"h": "2"}},
}

# Descriptions whose ring construction fails one named check: `build`
# exits 1 with a one-entry report naming it.
CONSTRUCTION_FAILURES = {
    "odd_middle_rank": {
        "kind": "ci_model",
        "ambient": P2,
        "fundamental_class_expr": {"h": "3"},
        "middle_rank": 3,
    },
    "singular_middle_pairing": {
        "kind": "ci_model",
        "ambient": P3,
        "fundamental_class_expr": {"h": "3"},
        "middle_rank": 2,
        "middle_pairing": [["1", "1"], ["1", "1"]],
    },
    "lefschetz_range": {
        "kind": "ci_model",
        "ambient": P1xP2,
        "fundamental_class_expr": {"h # 1": "1"},
        "middle_rank": 0,
    },
}

# Blow-up descriptions whose pushforward is no pushforward of a
# subvariety, as its adjoint pullback is not unital: `build` exits 2
# with an `error:` line.
INVALID_BLOWUPS = {
    "point_pushed_to_zero": {
        "kind": "blowup",
        "base": P2,
        "center": P0,
        "codim": 2,
        "center_pushforward_expr": {"1": {"h^2": "0"}},
        "normal_chern": {"1": {}},
    },
    "line_with_doubled_point": {
        **BL_LINE,
        "center_pushforward_expr": {"1": {"h^2": "1"}, "h": {"h^3": "2"}},
    },
}

SPACES = {
    "P2": P2,
    "P3": P3,
    "G24": G24,
    "G36": G36,
    "P1xP2": P1xP2,
    "P1xP1xP2": P1xP1xP2,
    "G25xP2": G25xP2,
    "cubic_surface": CUBIC_SURFACE,
    "cubic_threefold": CUBIC_THREEFOLD,
    "plane_cubics": PLANE_CUBICS,
    "blowup_line": BL_LINE,
    "E": PLANE_CUBIC,
    "P0": P0,
}


def _scaled(doc, index, factor):
    """A copy of a set or family document with one member scaled."""
    doc = json.loads(json.dumps(doc))
    doc.pop("report", None)
    for entry in doc["projectors"]:
        if entry["index"] == index:
            for term in entry["terms"]:
                term[-1] = str(Fraction(term[-1]) * factor)
    return doc


def _with_term(doc, index, term):
    """A copy of a set or family document with one term added to one
    member."""
    doc = json.loads(json.dumps(doc))
    doc.pop("report", None)
    for entry in doc["projectors"]:
        if entry["index"] == index:
            entry["terms"].append(term)
    return doc


def corpus(workdir):
    """(name, argv, out path or None) in run order; later cases read
    documents written by earlier ones. A callable in place of argv
    writes the tampered inputs and is not itself a case."""
    d = Path(workdir)
    cases = []

    def add(name, *argv, out=True):
        path = d / f"{name}.json" if out else None
        cases.append((name, list(argv) + (["--out", str(path)] if out else []), path))
        return path

    sets = {}
    for name, spec in SPACES.items():
        sets[name] = add(f"projectors-{name}", "projectors", "--space",
                         json.dumps(spec), "--verify")
    for name in ("P2", "P1xP2", "plane_cubics", "blowup_line"):
        add(f"verify-{name}", "verify", str(sets[name]))
    for name, spec in (("ExE", ExE), ("G36", G36), ("G25xP2", G25xP2)):
        add(f"diagonal-{name}", "diagonal", "--space", json.dumps(spec))
    add("lift-torus-P2", "lift", "--space", json.dumps(P2), "--bound", "8", "--verify")
    add("lift-gl2-P2", "lift", str(sets["P2"]), "--group", "general_linear",
        "--rank", "2", "--bound", "6", "--verify")
    add("lift-torus2-G24", "lift", str(sets["G24"]), "--rank", "2",
        "--bound", "4", "--verify")
    wP2 = add("lift-weighted-P2", "lift", "--space", json.dumps(P2),
              "--weights", "0,1,3", "--bound", "8", "--verify")
    wP3 = add("lift-weighted-P3", "lift", "--space", json.dumps(P3),
              "--weights", "1,2,-1,4", "--bound", "10", "--verify")
    add("verify-weighted-P3", "verify", str(wP3))
    add("restrict-weighted-P2", "restrict", str(wP2), "--verify")
    add("restrict-weighted-P3", "restrict", str(wP3), "--verify")
    for name in ("cubic_surface", "cubic_threefold", "P3"):
        add(f"restrict-{name}", "restrict", str(sets[name]), "--verify")
    add("stabilize-P2", "stabilize", "--space", json.dumps(P2), "--degrees", "4",
        "--n1", "6", "--n2", "10")
    add("stabilize-gl2-P1xP2", "stabilize", "--space", json.dumps(P1xP2),
        "--group", "general_linear", "--rank", "2", "--degrees", "2",
        "--n1", "4", "--n2", "6")

    for name, spec in CONSTRUCTION_FAILURES.items():
        add(f"build-fails-{name}", "build", "--space", json.dumps(spec))
    for name, spec in INVALID_BLOWUPS.items():
        add(f"build-rejects-{name}", "build", "--space", json.dumps(spec))
    # 1,001 monomials of 1,000 exponents each, just past the size guard's
    # limit, and quick to build should the guard ever stop refusing it.
    add("lift-rejects-oversized_torus", "lift", "--space", json.dumps(P2),
        "--bound", "2", "--rank", "1000")
    # Rank 1,001, just past the ring size guard's limit: P^1000 builds in
    # about a second should the guard ever stop refusing it.
    add("build-rejects-oversized_projective_space", "build", "--space",
        json.dumps({"kind": "projective_space", "n": 1000}))

    tampered_set = d / "tampered-set.json"
    tampered_family = d / "tampered-family.json"
    tampered_weighted = d / "tampered-weighted-P3.json"

    def tamper():
        doc = json.loads(sets["P2"].read_text(encoding="utf-8"))
        tampered_set.write_text(json.dumps(_scaled(doc, 2, 3)), encoding="utf-8")
        doc = json.loads(wP2.read_text(encoding="utf-8"))
        tampered_family.write_text(json.dumps(_scaled(doc, 2, 9)), encoding="utf-8")
        # h x h^2 at the unit monomial: off member 2's degree
        doc = json.loads(wP3.read_text(encoding="utf-8"))
        tampered_weighted.write_text(json.dumps(_with_term(doc, 2, ["h", "h^2", "1", "5/2"])),
                                     encoding="utf-8")

    cases.append(("tamper", tamper, None))
    add("verify-tampered-set", "verify", str(tampered_set))
    add("verify-tampered-family", "verify", str(tampered_family))
    add("restrict-tampered-family", "restrict", str(tampered_family), "--verify")
    add("verify-tampered-weighted-P3", "verify", str(tampered_weighted))
    return cases


def run_corpus(workdir):
    """({case name: sha256 of exit code, stdout and --out bytes},
    {case name: stderr text, for the cases that write any})."""
    digests, errors = {}, {}
    for name, argv, out in corpus(workdir):
        if callable(argv):
            argv()
            continue
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = cli.main(argv)
        h = hashlib.sha256()
        h.update(f"exit {code}\n".encode())
        h.update(stdout.getvalue().encode())
        if out is not None and out.exists():
            h.update(b"\0--out\0" + out.read_bytes())
        digests[name] = h.hexdigest()
        if stderr.getvalue():
            errors[name] = stderr.getvalue()
    return digests, errors


GOLDEN = {
    'projectors-P2': '4723fb136112a3c108c66ef5b71f67c7fa3bc9401349a5222d9ec171caf291c9',
    'projectors-P3': 'e9da38274b33c7d590723a64dd6716f11d9bbe276876fcfb83352057c3856d5c',
    'projectors-G24': '20e8943f610fc3117758838b96caf6835a46688b7d0d9b3cfc853ee1d32811ee',
    'projectors-G36': '4b325807ed548553c24d45467b6ebbef4e9fd278ca0978849c16699cc5b02bdb',
    'projectors-P1xP2': 'c20382eddd3185674b2d03842d4ab2ad1e570080eed014e641148eb401a56b98',
    'projectors-P1xP1xP2': '8300b1ab6aedc3997d0b41058c3b12520f239b1964657494a6a5ad4382f75f30',
    'projectors-G25xP2': 'e71e98dd5d342b894ed3606276a004f63b4159a691fd8cb97d36669799035be3',
    'projectors-cubic_surface': '254a604a7bf84fb0160d2525dca264cfc18e3fbc8c8d30793f2a4f2cbe275752',
    'projectors-cubic_threefold': '7b1dfbedfa6df8f4665aaff5ccb8c79723c2b12b70c52474f77ea2ce3a14822e',
    'projectors-plane_cubics': 'd06a23491d1e2ded683b60b67b1ef773f8464be608fdeaa170cc13966f4111c6',
    'projectors-blowup_line': 'd4308f1a3c3bd78bba442d713854ca10da6b1ea8a2eccbaf571d443e78c448d4',
    'projectors-E': '62fd592c6e14b580447ae4351333cce56db664520e6dc1208e820ba729cb981b',
    'projectors-P0': 'dc4424aab94599bb65d9f9fc440b6678de5cc93c9cb73ef857d2891e233e34ff',
    'verify-P2': 'acbfe283bf98a6f38a78719c95f1c8e67fd267033eeda2f2a1bec765e9e6f6c4',
    'verify-P1xP2': '6b3e37a4710a0fb19de97d7b921b87735a763d345d88ec12b9fe9e438baffbf4',
    'verify-plane_cubics': '8eabc3e4b90cc4f091a989f32aed0e868099b660b4066bb031ab74b6a0851770',
    'verify-blowup_line': 'ff76a7de6d8f76cc345ea8e3e130d9060b97269c7567d59c8a1fef55fb363773',
    'diagonal-ExE': 'c08d60cba831d1de268a80b27bc6f84842119e66bd02053aa505d44d5d10d272',
    'diagonal-G36': '57523a8165c14bc14e2c0bae96344e5b0a59ccdf17e87d05befc35505a960c05',
    'diagonal-G25xP2': 'a6a1d468dc89c731ef86714a835dd86e652e44f07e6bdcf295f5d4d90775ad95',
    'lift-torus-P2': '173fac1ba90a2ad22ee4c099edb951a15fcc679379907b2a913f02effda7ade5',
    'lift-gl2-P2': '5855fc81e57cf1700561b133e5783d313bae2672fcb82eef91f2700a8a61988f',
    'lift-torus2-G24': '8e86f3b2767c660cc5e4400c032e091e801c00875a1ee17a8ba87afe317938bc',
    'lift-weighted-P2': '875bd664eefb95b97801634e2675f283cdfa0245e2edc8235f1de9e02819870c',
    'lift-weighted-P3': '84a02bc93cf5b67235ec4716fe39a28dbb43c3471913792155d718c9973ed601',
    'verify-weighted-P3': '5fae7648978883219c57bc8f181d172754b80f5ff68395b084b49ab4e9d44b71',
    'restrict-weighted-P2': 'd3433cda2b6be0c31fc55514eb58a05bf791021a34eb62657b6009d2f467afdd',
    'restrict-weighted-P3': '058bd190d83590b4af2d3876eefb7022ceec5756bcf14d602c8a1f4c40cdaab9',
    'restrict-cubic_surface': '0e5527b6adc0ebbe02cebeacdd52a7926572bb732b6db4cb50ecfe22b9713240',
    'restrict-cubic_threefold': '5a83abaf237c798307717d4b2463fec5151cf05d06dc49f1d245730fa73abed2',
    'restrict-P3': '2ce98f3b86e2dceb42453596c9ab93e7847eed77c99ec07a3846b39031a18e19',
    'stabilize-P2': '1f1643609abc6c8272573da37a03ebb994bc3dcf2e503080037dde9f5a7ec302',
    'stabilize-gl2-P1xP2': 'a3a06eaf0c2436250b703bdb13963bde07f5aec3eae06c177c548386db2eb348',
    'build-fails-odd_middle_rank': 'db36d4072df0c1c669c357066b1620b062424c800cfa5d3b9b5813c690c3c467',
    'build-fails-singular_middle_pairing': '72d6a49fdd1c9fa0aea81afdebefa5033489446e21f5e6485f8ec28f28f3c6be',
    'build-fails-lefschetz_range': '49be3899590b33f04c84a54ae32d0c275d2c409fa611e34ef8a6ed6a35217fdc',
    'build-rejects-point_pushed_to_zero': '5362fb632b157f283b9135804a517da6491d939d8635435911a91f389c9e4aff',
    'build-rejects-line_with_doubled_point': '5362fb632b157f283b9135804a517da6491d939d8635435911a91f389c9e4aff',
    'lift-rejects-oversized_torus': '5362fb632b157f283b9135804a517da6491d939d8635435911a91f389c9e4aff',
    'build-rejects-oversized_projective_space': '5362fb632b157f283b9135804a517da6491d939d8635435911a91f389c9e4aff',
    'verify-tampered-set': '3fb89bf1f24d2c5576d016f76f64cb290760604b1537a168f231c8850426f36c',
    'verify-tampered-family': 'fa64897a00f7f1c242e52a11ef7f4dab619b592363223d56f3b804b3f9bbcd5c',
    'restrict-tampered-family': '0553556f486b1d8cece9354f418b552aff43a4914a27d64ea18cd8744c5a6f97',
    'verify-tampered-weighted-P3': '41589dd0ed2f90fad4660fdfafab449b53950b6a80e51ed55a20971637c6d3ec',
}


STDERR = {
    'build-rejects-point_pushed_to_zero':
        "error: blowup: 'center_pushforward_expr' is not a pushforward: the pullback "
        "adjoint to it is not a ring map (unit must map to unit)\n",
    'build-rejects-line_with_doubled_point':
        "error: blowup: 'center_pushforward_expr' is not a pushforward: the pullback "
        "adjoint to it is not a ring map (unit must map to unit)\n",
    'lift-rejects-oversized_torus':
        'error: the parameter ring of multiplicative_torus of rank 1000 truncated '
        'at N = 2 would hold at least 1001 monomials of 1000 exponents each, past '
        'the limit of 1000000 exponents\n',
    'build-rejects-oversized_projective_space':
        'error: P^1000 would have rank 1001, past the limit of 1000\n',
}


@pytest.fixture(scope="module")
def corpus_run(tmp_path_factory):
    return run_corpus(tmp_path_factory.mktemp("corpus"))


def test_outputs_are_byte_identical_to_the_recorded_ones(corpus_run):
    got, _ = corpus_run
    assert sorted(got) == sorted(GOLDEN)
    changed = [name for name in GOLDEN if got[name] != GOLDEN[name]]
    assert not changed, f"output changed for {changed}"


def test_error_output_is_the_recorded_text(corpus_run):
    """Exactly the cases of `STDERR` write to standard error, and each
    writes its recorded text."""
    _, errors = corpus_run
    assert errors == STDERR


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as workdir:
        digests, errors = run_corpus(workdir)
    for name, digest in digests.items():
        print(f"    {name!r}: {digest!r},")
    for name, text in errors.items():
        print(f"    {name!r}: {text!r},")

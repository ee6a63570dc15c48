"""A seeded mutation fuzzer over the golden corpus's inputs.

Each case takes one space description or one document of the corpus in
`test_golden_outputs`, applies one mutation to it (a field dropped or
retyped, a float, a huge or negative int, an unknown kind, deep
nesting) and runs the command that reads it through `cli.main` in this
process. Whatever the input, the command must exit 0, 1 or 2, raise
nothing else, and on exit 2 write one `error:` line and nothing more.
Each crash the fuzzer has found is pinned in `REGRESSIONS`.

Stdlib only; the seed and the case count are fixed, so a failure
names a case that reproduces.
"""

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout

import pytest

from chowkunneth import cli
from test_golden_outputs import (
    CONSTRUCTION_FAILURES, INVALID_BLOWUPS, SPACES, corpus,
)

SEED = 20261020
CASES = 400

# The corpus cases whose documents the fuzzer mutates, and the commands
# that read each kind of document ("DOC" is the mutated file).
DOCUMENTS = {
    "projectors-P2": [["verify", "DOC"], ["restrict", "DOC"]],
    "projectors-blowup_line": [["verify", "DOC"]],
    "lift-torus-P2": [["verify", "DOC"], ["restrict", "DOC"]],
    "lift-weighted-P2": [["verify", "DOC"], ["restrict", "DOC"]],
    "diagonal-G36": [["act", "DOC", "--argument", "s[1]"], ["compose", "DOC", "DOC"]],
}

RETYPED = [None, True, False, 0, 2.5, "x", "2", "-1/3", [], {}, [1], {"kind": "x"}]
FLOATS = [0.5, 2.0, -1.0, 1e300, float("inf"), float("nan")]
INTS = [-1, -7, 10**40, -10**40, 10**4000, -10**4000]
KINDS = ["mystery", "", "Projective_Space", "product "]
NEST = "\0nest\0"


def _paths(value, path=()):
    """Every path into a JSON value, the root's included."""
    yield path
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _paths(item, path + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _paths(item, path + (i,))


def _at(value, path):
    for step in path:
        value = value[step]
    return value


def mutate(rng, value):
    """(text, what) for one mutation of a JSON value: its JSON text and
    a name of the mutation."""
    value = json.loads(json.dumps(value))
    path = rng.choice(list(_paths(value)))
    old = _at(value, path)
    kind = rng.choice(["drop", "retype", "float", "int", "kind", "nest"])
    if kind == "drop" and path:
        parent = _at(value, path[:-1])
        del parent[path[-1]]
        return json.dumps(value), f"drop {path}"
    if kind == "kind":
        dicts = [p for p in _paths(value) if isinstance(_at(value, p), dict)]
        if dicts:
            node = _at(value, rng.choice(dicts))
            node["kind"] = rng.choice(KINDS)
            return json.dumps(value), "unknown kind"
    if kind == "nest":
        depth = rng.choice([3, 40, 400, 100_000])
        if isinstance(old, dict) and "kind" in old and depth < 1000:
            head, tail = '{"kind": "product", "factors": [', "]}"
        else:
            head, tail = rng.choice([("[", "]"), ('{"a": ', "}")])
        new = head * depth + json.dumps(old) + tail * depth
        if not path:
            return new, f"nest {depth}"
        _at(value, path[:-1])[path[-1]] = NEST
        return json.dumps(value).replace(json.dumps(NEST), new), f"nest {path} {depth}"
    new = rng.choice({"float": FLOATS, "int": INTS}.get(kind, RETYPED))
    if not path:
        return json.dumps(new), f"root {new!r:.40}"
    _at(value, path[:-1])[path[-1]] = new
    return json.dumps(value), f"{kind} {path} {new!r:.40}"


def run_cli(argv):
    """(exit code, stdout, stderr) of `cli.main`; an exception other
    than SystemExit propagates."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse refusing the arguments
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def broken(argv):
    """Why a run breaks the invariant, or None."""
    try:
        code, _, err = run_cli(argv)
    except Exception as exc:  # the invariant: nothing escapes
        return f"raised {type(exc).__name__}: {str(exc)[:200]}"
    if code not in (0, 1, 2):
        return f"exit {code}"
    if code == 2 and not (err.startswith("error: ") and err.count("\n") == 1):
        return f"exit 2 with {err[:200]!r}"
    if code in (0, 1) and err:
        return f"exit {code} with {err[:200]!r}"
    return None


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    """{corpus case name: its --out document}, written by the corpus's
    own commands."""
    workdir = tmp_path_factory.mktemp("fuzz")
    written = {}
    for name, argv, out in corpus(workdir):
        if name in DOCUMENTS:
            assert run_cli(argv)[0] == 0, name
            written[name] = json.loads(out.read_text(encoding="utf-8"))
    return written


def cases(rng, documents, workdir):
    """(argv, what) for each fuzz case."""
    spaces = {**SPACES, **CONSTRUCTION_FAILURES, **INVALID_BLOWUPS}
    for n in range(CASES):
        if rng.random() < 0.5:
            name = rng.choice(sorted(spaces))
            text, what = mutate(rng, spaces[name])
            yield ["build", "--space", text], f"{name}: {what}"
        elif rng.random() < 0.2:
            text, what = mutate(rng, {"s[1]": "1", "s[2]": "-1/3"})
            path = workdir / "G36-diagonal.json"
            path.write_text(json.dumps(documents["diagonal-G36"]), encoding="utf-8")
            yield ["act", str(path), "--argument", text], f"--argument: {what}"
        else:
            name = rng.choice(sorted(DOCUMENTS))
            text, what = mutate(rng, documents[name])
            path = workdir / f"case-{n}.json"
            path.write_text(text, encoding="utf-8")
            argv = rng.choice(DOCUMENTS[name])
            yield [str(path) if a == "DOC" else a for a in argv], f"{name}: {what}"


def test_mutated_inputs_exit_0_1_or_2(documents, tmp_path):
    rng = random.Random(SEED)
    failures = [(what, argv[0], why) for argv, what in cases(rng, documents, tmp_path)
                if (why := broken(argv))]
    assert not failures, failures[:10]


def _with_huge_term(tmp_path, argv, command):
    """`command` on the document `argv` writes, its first term's
    coefficient replaced by -10^4000: it reads, but its square does not
    print."""
    path = tmp_path / "doc.json"
    assert run_cli([*argv, "--out", str(path)])[0] == 0
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc.pop("report", None)
    terms = doc["projectors"][0]["terms"] if "projectors" in doc else doc["terms"]
    terms[0][-1] = -10**4000
    path.write_text(json.dumps(doc), encoding="utf-8")
    return [str(path) if a == "DOC" else a for a in command]


P2 = '{"kind": "projective_space", "n": 2}'
TOO_LONG = "a coefficient of more than 4300 digits cannot be written"

# Inputs the fuzzer found to end in a traceback: {name: (argv from a
# temporary directory, the error line they now end in)}.
REGRESSIONS = {
    "products nested 400 deep": (
        lambda tmp_path: ["build", "--space", '{"kind": "product", "factors": [' * 400
                          + P2 + "]}" * 400],
        "space description is nested too deeply to build"),
    "a composition too long to write": (
        lambda tmp_path: _with_huge_term(tmp_path, ["diagonal", "--space", P2],
                                         ["compose", "DOC", "DOC"]), TOO_LONG),
    "an image too long to write": (
        lambda tmp_path: _with_huge_term(tmp_path, ["diagonal", "--space", P2],
                                         ["act", "DOC", "--argument",
                                          '{"h^2": "1' + "0" * 4000 + '"}']),
        TOO_LONG),
    "a residual too long to write": (
        lambda tmp_path: _with_huge_term(tmp_path, ["projectors", "--space", P2],
                                         ["verify", "DOC"]), TOO_LONG),
    "a lifted residual too long to write": (
        lambda tmp_path: _with_huge_term(tmp_path, ["lift", "--space", P2, "--bound", "4"],
                                         ["verify", "DOC"]), TOO_LONG),
}


@pytest.mark.parametrize("make, message", REGRESSIONS.values(), ids=REGRESSIONS.keys())
def test_fuzzer_regressions(tmp_path, make, message):
    assert run_cli(make(tmp_path)) == (2, "", f"error: {message}\n")

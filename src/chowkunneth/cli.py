"""Batch front end.

Builds rings from space descriptions, constructs and verifies
projector decompositions, composes correspondences and applies them to
classes, lifts decompositions into truncated parameter rings, checks
truncation stability, transports decompositions along the supported
surjections, and prints the closed-form dimension formulas.

Exit codes: 0 — every requested check passed; 1 — a verification
check failed (the machine report is still written); 2 — malformed
input or configuration. Human-readable text goes to standard output;
a machine-readable JSON document is written when --out is given.

Space descriptions may be given inline (a JSON object string) or as a
path to a JSON file. All other file arguments are paths. A ring
construction that fails a named check (a `RingAxiomError`: one of the
ring axioms, or "lefschetz_range") is reported as that one failed
check with exit code 1, the same way a failed verification is.

Each subcommand imports the package modules it runs when it starts,
before any work, so a process loads and compiles only those: `--help`
and the formulas load none of the ring engine, `projectors` loads no
equivariant models, and only a Grassmannian loads the Schubert
calculus. `verify` and `restrict` take an ordinary set or a lifted
family and tell them apart by type, so they load the equivariant
models for every document.
"""

import argparse
import sys

from .errors import ChowKunnethError, InvalidSpec, RingAxiomError

__all__ = ["main"]

# The kinds of `GroupSpec.KINDS`, spelled here so that building the
# parser loads no engine module; a test holds the two equal.
_GROUP_KINDS = ("multiplicative_torus", "general_linear")


# -- shared plumbing -----------------------------------------------------------


def _spec_arg(text):
    """A space description: inline JSON object or a file path."""
    from .serialize import _parse_json, read_document

    stripped = text.strip()
    if stripped.startswith("{"):
        return _parse_json(stripped, "inline description")
    return read_document(text)


def _int_csv(text, flag):
    """The integers of a comma-separated flag value; an empty item is
    refused, like any other that is not an integer."""
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise InvalidSpec(f"{flag}: expected comma-separated integers, got {text!r}")


def _flags(args, *names):
    """The named flags as given, `--name value` each, leaving out those
    not given: the prefix of the errors of what they describe."""
    return " ".join(f"--{name} {getattr(args, name)}" for name in names
                    if getattr(args, name) is not None)


def _residual_text(entry):
    """An entry's residual rows as text: `(c) label[ monomial]` for the
    class rows of a graded-action entry (it names its `basis_class`),
    `(c) a x b[ monomial]` for correspondence rows; a unit monomial is
    not printed."""
    width = 1 if "basis_class" in entry else 2
    parts = []
    for *labels, c in entry["residual_class"]:
        mono = "".join(f" {m}" for m in labels[width:] if m != "1")
        parts.append(f"({c}) {' x '.join(labels[:width])}{mono}")
    return " + ".join(parts)


def _print_checks(checks):
    """Write one line per check, with its residual or detail when it
    failed, and the count of passes, in one write."""
    lines = []
    for e in checks:
        status = "PASS" if e["pass"] else "FAIL"
        line = f"{status} {e['check']}"
        indices = e.get("indices", [])
        if indices:
            line += " [" + ", ".join(str(i) for i in indices) + "]"
        if "basis_class" in e:
            line += f" on {e['basis_class']}"
        lines.append(line)
        if not e["pass"]:
            if "residual_class" in e:
                lines.append("  residual: " + _residual_text(e))
            if "detail" in e:
                lines.append("  " + e["detail"])
    passed = sum(1 for e in checks if e["pass"])
    lines.append(f"{passed}/{len(checks)} checks passed\n")
    sys.stdout.write("\n".join(lines))


def _write_out(args, doc):
    out = getattr(args, "out", None)
    if out:
        from .serialize import write_document

        write_document(out, doc)


def _finish(args, checks, doc=None):
    """Print the checks, write the report {pass, checks} to --out, under
    `doc`'s "report" field when a document is given, and return the exit
    code: 0 when every check passed, else 1."""
    report = {"pass": all(e["pass"] for e in checks), "checks": checks}
    if doc is not None:
        doc["report"] = report
    _print_checks(checks)
    _write_out(args, report if doc is None else doc)
    return 0 if report["pass"] else 1


def _load_projector_file(path):
    from . import serialize

    return serialize.projector_set_from_document(
        serialize.read_document(path), where=path
    )


def _load_set(path):
    """A projector set or a lifted family, as the document's head field
    ('space' or 'model') says."""
    from . import serialize

    doc = serialize.read_document(path)
    if isinstance(doc, dict) and "model" in doc:
        return serialize.family_from_document(doc, where=path)
    if isinstance(doc, dict) and "space" in doc:
        return serialize.projector_set_from_document(doc, where=path)
    raise InvalidSpec(
        f"{path}: not a projector document (expected a 'space' or 'model' field)"
    )


# -- subcommands ---------------------------------------------------------------


def _cmd_build(args):
    from . import serialize
    from .spaces import build_space

    ring = build_space(_spec_arg(args.space))
    betti = [ring.rank(t) for t in range(2 * ring.dim + 1)]
    doc = {
        "space": serialize.space_document(ring),
        "dim": ring.dim,
        "rank": len(ring.basis),
        "betti": betti,
        "basis": [[label, degree] for label, degree in ring.basis],
    }
    print(
        f"built: dimension {ring.dim}, total rank {len(ring.basis)}, "
        "betti " + ",".join(str(b) for b in betti)
    )
    _write_out(args, doc)
    return 0


def _cmd_diagonal(args):
    from . import serialize
    from .correspondences import diagonal
    from .spaces import build_space

    ring = build_space(_spec_arg(args.space))
    delta = diagonal(ring)
    doc = serialize.correspondence_document(delta)
    print(
        f"diagonal: {len(delta.terms)} terms over a rank-{len(ring.basis)} ring, "
        f"degree shift {delta.shift}"
    )
    _write_out(args, doc)
    return 0


def _cmd_projectors(args):
    from . import serialize
    from .kunneth import full_projectors, verify_ck
    from .spaces import build_space

    ring = build_space(_spec_arg(args.space))
    P = full_projectors(ring)
    doc = serialize.projector_set_document(P)
    indices = ", ".join(str(i) for i in P.indices())
    print(
        f"projectors at degrees [{indices}]"
        + (f"; remainder at {sorted(P.remainder_indices)}" if P.remainder_indices else "")
    )
    if args.verify:
        return _finish(args, verify_ck(P), doc)
    _write_out(args, doc)
    return 0


def _cmd_verify(args):
    from .equivariant import EquivariantProjectorFamily, verify_equivariant
    from .kunneth import verify_ck

    P = _load_set(args.input)
    lifted = isinstance(P, EquivariantProjectorFamily)
    return _finish(args, verify_equivariant(P) if lifted else verify_ck(P))


def _cmd_compose(args):
    from . import serialize
    from .correspondences import compose

    f = serialize.correspondence_from_document(
        serialize.read_document(args.first), where=args.first
    )
    g = serialize.correspondence_from_document(
        serialize.read_document(args.second), where=args.second
    )
    result = compose(f, g)
    doc = serialize.correspondence_document(result)
    print(
        f"composed (second after first): {len(result.terms)} terms, "
        f"degree shift {result.shift}"
    )
    _write_out(args, doc)
    return 0


def _cmd_act(args):
    from . import serialize
    from .correspondences import act

    corr = serialize.correspondence_from_document(
        serialize.read_document(args.correspondence), where=args.correspondence
    )
    raw = args.argument.strip()
    coeffs = serialize._parse_json(raw, "--argument") if raw.startswith("{") else {raw: 1}
    with serialize._prefixed("--argument"):
        vec = corr.source.from_label_dict(coeffs)
    image = act(corr, vec)
    items = [[label, serialize.fraction_str(c)] for label, c in sorted(image.label_dict().items())]
    doc = {"degree": image.degree, "class": items}
    text = " + ".join(f"({c}) {label}" for label, c in items) or "0"
    print(f"image in degree {image.degree}: {text}")
    _write_out(args, doc)
    return 0


def _cmd_lift(args):
    from . import serialize
    from .equivariant import lift_projectors, verify_equivariant
    from .kunneth import full_projectors
    from .spaces import build_space

    if (args.input is None) == (args.space is None):
        raise InvalidSpec("pass exactly one of a projector file or --space")
    if args.space is not None:
        P = full_projectors(build_space(_spec_arg(args.space)))
    else:
        P = _load_projector_file(args.input)
    spec = {"base": serialize.space_document(P.ring),
            "group": {"kind": args.group, "rank": args.rank}, "N": args.bound}
    if args.weights is not None:
        spec["weights"] = _int_csv(args.weights, "--weights")
    model = serialize.model_from_document(spec, _flags(args, "group", "rank", "bound", "weights"))
    family = lift_projectors(P, model.group, model.N, model=model)
    doc = serialize.family_document(family)
    print(
        f"lifted {len(family.indices())} projectors into the bound-{model.N} model"
    )
    if args.verify:
        return _finish(args, verify_equivariant(family), doc)
    _write_out(args, doc)
    return 0


def _cmd_stabilize(args):
    from .equivariant import GroupSpec, stabilization_check
    from .kunneth import full_projectors
    from .serialize import _prefixed
    from .spaces import build_space

    ring = build_space(_spec_arg(args.space))
    P = full_projectors(ring)
    with _prefixed(_flags(args, "group", "rank", "degrees", "n1", "n2")):
        group = GroupSpec(args.group, args.rank)
        ok = stabilization_check(ring, group, P, args.degrees, args.n1, args.n2)
    return _finish(args, [
        {"check": "stabilization", "indices": [args.degrees, args.n1, args.n2], "pass": ok}
    ])


def _cmd_restrict(args):
    from . import serialize
    from .equivariant import EquivariantProjectorFamily, bottom_weight_restriction
    from .kunneth import verify_ck
    from .spaces import kill_primitive_middle

    P = _load_set(args.input)
    if isinstance(P, EquivariantProjectorFamily):
        restricted = bottom_weight_restriction(P.model, P)
        print("restricted the family along parameters -> 0")
    else:
        _, q = kill_primitive_middle(P.ring)
        restricted = bottom_weight_restriction(q, P)
        print("transported the set along the primitive-middle-killing surjection")
    out_doc = serialize.projector_set_document(restricted)
    if args.verify:
        return _finish(args, verify_ck(restricted), out_doc)
    _write_out(args, out_doc)
    return 0


def _cmd_formulas(args):
    from .formulas import barth_range, fano_delta, fano_delta_notes, rep_variety_dim

    if args.formula == "fano":
        degrees = _int_csv(args.degrees, "--degrees")
        value = fano_delta(args.n, degrees, args.r)
        notes = fano_delta_notes(args.n, degrees, args.r)
        print(f"delta = {value}")
        for note in notes:
            print(note)
        doc = {
            "formula": "fano_delta",
            "inputs": {"n": args.n, "degrees": degrees, "r": args.r},
            "value": value,
            "notes": notes,
        }
    elif args.formula == "rep":
        value = rep_variety_dim(args.g, args.n)
        print(f"dimension = {value}")
        doc = {
            "formula": "rep_variety_dim",
            "inputs": {"g": args.g, "n": args.n},
            "value": value,
        }
    else:
        value = barth_range(args.n, args.d)
        print(f"range = {value}")
        doc = {
            "formula": "barth_range",
            "inputs": {"n": args.n, "d": args.d},
            "value": value,
        }
    _write_out(args, doc)
    return 0


# -- parser --------------------------------------------------------------------


def _add_out(p):
    p.add_argument("--out", help="write the machine-readable JSON document here")


def _add_verify_flag(p):
    p.add_argument("--verify", action="store_true", help="run the exact checks")


def _add_group_flags(p):
    p.add_argument(
        "--group", choices=_GROUP_KINDS, default="multiplicative_torus",
        help="acting group kind",
    )
    p.add_argument("--rank", type=int, default=1, help="group rank")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="chowkunneth",
        description=(
            "Construct and verify exact projector decompositions of the "
            "diagonal for spaces given by finite rational cohomology tables."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="build a ring and print its shape")
    p.add_argument("--space", required=True, help="space description (inline JSON or path)")
    _add_out(p)
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("diagonal", help="the diagonal self-correspondence")
    p.add_argument("--space", required=True, help="space description (inline JSON or path)")
    _add_out(p)
    p.set_defaults(func=_cmd_diagonal)

    p = sub.add_parser("projectors", help="construct the full projector set")
    p.add_argument("--space", required=True, help="space description (inline JSON or path)")
    _add_verify_flag(p)
    _add_out(p)
    p.set_defaults(func=_cmd_projectors)

    p = sub.add_parser("verify", help="verify a projector file (ordinary or lifted)")
    p.add_argument("input", help="projector set or family document")
    _add_out(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("compose", help="compose two correspondence files")
    p.add_argument("first", help="applied first")
    p.add_argument("second", help="applied second; its source must match the first's target")
    _add_out(p)
    p.set_defaults(func=_cmd_compose)

    p = sub.add_parser("act", help="apply a correspondence to a class")
    p.add_argument("correspondence", help="correspondence document")
    p.add_argument(
        "--argument", required=True,
        help="a basis label, or an inline JSON object label -> coefficient",
    )
    _add_out(p)
    p.set_defaults(func=_cmd_act)

    p = sub.add_parser("lift", help="lift a projector set into a truncated model")
    p.add_argument("input", nargs="?", help="projector set document")
    p.add_argument("--space", help="build the set from this space instead")
    _add_group_flags(p)
    p.add_argument("--bound", type=int, required=True, help="even truncation bound N")
    p.add_argument("--weights", help="comma-separated torus weights (weighted model)")
    _add_verify_flag(p)
    _add_out(p)
    p.set_defaults(func=_cmd_lift)

    p = sub.add_parser("stabilize", help="compare lifts at two truncation bounds")
    p.add_argument("--space", required=True, help="space description (inline JSON or path)")
    _add_group_flags(p)
    p.add_argument("--degrees", type=int, required=True, help="compare through this degree")
    p.add_argument("--n1", type=int, required=True, help="smaller truncation bound")
    p.add_argument("--n2", type=int, required=True, help="larger truncation bound")
    _add_out(p)
    p.set_defaults(func=_cmd_stabilize)

    p = sub.add_parser(
        "restrict",
        help=(
            "restrict a lifted family to the base (parameters -> 0), or "
            "transport an ordinary set along the primitive-middle-killing surjection"
        ),
    )
    p.add_argument("input", help="projector set or family document")
    _add_verify_flag(p)
    _add_out(p)
    p.set_defaults(func=_cmd_restrict)

    p = sub.add_parser("formulas", help="closed-form dimension formulas")
    fsub = p.add_subparsers(dest="formula", required=True)

    q = fsub.add_parser("fano", help="expected Fano-scheme dimension bound")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--degrees", required=True, help="comma-separated degrees")
    q.add_argument("--r", type=int, required=True)
    _add_out(q)
    q.set_defaults(func=_cmd_formulas)

    q = fsub.add_parser("rep", help="surface-group representation variety dimension")
    q.add_argument("--g", type=int, required=True)
    q.add_argument("--n", type=int, required=True)
    _add_out(q)
    q.set_defaults(func=_cmd_formulas)

    q = fsub.add_parser("barth", help="ambient-pinned cohomology range")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--d", type=int, required=True)
    _add_out(q)
    q.set_defaults(func=_cmd_formulas)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except RingAxiomError as exc:
        failed = {"check": exc.check, "indices": [], "pass": False, "detail": str(exc)}
    except ChowKunnethError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return _finish(args, [failed])


if __name__ == "__main__":
    sys.exit(main())

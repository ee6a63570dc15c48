"""Construction and verification of graded projector decompositions.

A projector set splits the diagonal of a space into orthogonal
idempotent self-correspondences, one per cohomological degree, each
acting as the identity on its own degree and as zero elsewhere. On a
ring whose pairing is nondegenerate these are the components of the
diagonal, grouped by the degree of their target class;
`full_projectors` takes them from there, `product_projectors` from the
sets of a product's factors, and `verify_ck` re-checks every defining
identity in exact arithmetic.
"""

from .correspondences import (
    act,
    compose,
    diagonal,
    exterior_product,
    zero_correspondence,
)
from .errors import (
    IncompleteInput, InvalidSpec, NotIdempotent, OddRankObstruction, RingMismatch, _require_int,
)
from .graded_ring import tensor_ring
from .serialize import fraction_str


class ProjectorSet:
    """A family of degree-shift-0 self-correspondences indexed by
    cohomological degree, over a ring or (for lifted families) a
    truncated model; only the ring's `dim` and the members' `source`,
    `target` and `shift` are read here.

    `complete` is a claim (sum equals the diagonal) recorded by the
    constructor, not inferred; `remainder_indices` marks the members
    that complete the others to the diagonal, and must name members.
    The constructor checks them for library calls and documents alike:
    each index by `_index`, `complete` a bool, each remainder an int.
    """

    __slots__ = ("ring", "projectors", "complete", "remainder_indices")

    def __init__(self, ring, projectors, complete=False, remainder_indices=()):
        self.ring = ring
        projs = {}
        for i in sorted(self._index(i, 2 * ring.dim) for i in projectors):
            p = projectors[i]
            if p.source != ring or p.target != ring:
                raise RingMismatch(
                    "projector members must be self-correspondences of the set's ring"
                )
            if p.shift != 0:
                raise InvalidSpec(f"member at index {i} has degree shift {p.shift}, expected 0")
            projs[i] = p
        self.projectors = projs
        self.remainder_indices = frozenset(
            _require_int(i, "each of 'remainder_indices'") for i in remainder_indices)
        if not isinstance(complete, bool):
            raise InvalidSpec("'complete' must be true or false")
        self.complete = complete
        stray = sorted(self.remainder_indices - set(projs))
        if stray:
            raise InvalidSpec(f"remainder index {stray[0]} is not a member index")

    @staticmethod
    def _index(i, top):
        """`i`, checked to be a member index: an int in [0, top]."""
        if not 0 <= _require_int(i, "'index'") <= top:
            raise InvalidSpec(f"index {i} outside [0, {top}]")
        return i

    def indices(self):
        return tuple(sorted(self.projectors))

    def member(self, i):
        return self.projectors[i]

    def __eq__(self, other):
        if not isinstance(other, ProjectorSet):
            return NotImplemented
        return (
            self.ring == other.ring
            and self.projectors == other.projectors
            and self.complete == other.complete
            and self.remainder_indices == other.remainder_indices
        )

    def __repr__(self):
        flags = []
        if self.complete:
            flags.append("complete")
        if self.remainder_indices:
            flags.append(f"remainder={sorted(self.remainder_indices)}")
        tail = " " + " ".join(flags) if flags else ""
        return f"<{type(self).__name__} indices={list(self.indices())}{tail}>"


def _components(delta, basis):
    """A diagonal's terms grouped by the degree of their target class
    (the second index of a term key), {degree: terms}. By the dual-basis
    identity these are orthogonal idempotents summing to the diagonal."""
    groups = {}
    for key, c in delta.terms.items():
        groups.setdefault(basis[key[1]][1], {})[key] = c
    return groups


def full_projectors(X):
    """The complete decomposition: one member per component of the
    diagonal, its valid, nonzero terms taken as they stand. Odd degrees
    strictly below the middle must have rank zero (OddRankObstruction
    otherwise); the middle member, whatever its parity, is always
    present, even when zero, and is the set's remainder index."""
    d = X.dim
    for t in X.degrees():
        if t % 2 and t < d and X.rank(t) > 0:
            raise OddRankObstruction(
                f"degree {t} has rank {X.rank(t)} but lies below the cutoff {d - 1}"
            )
    delta = diagonal(X)
    groups = _components(delta, X.basis)
    groups.setdefault(d, {})
    projs = {p: delta._trusted(X, X, 0, terms) for p, terms in groups.items()}
    return ProjectorSet(X, projs, complete=True, remainder_indices={d})


def product_projectors(PX, PY, product_ring=None):
    """Projectors on the product: the index-i member is the sum over
    p + q = i of the exterior products of the factors' members. Both
    inputs must claim completeness (IncompleteInput otherwise); the
    result is complete. Zero sums are omitted."""
    if not PX.complete:
        raise IncompleteInput("left factor set does not claim completeness")
    if not PY.complete:
        raise IncompleteInput("right factor set does not claim completeness")
    XY = product_ring if product_ring is not None else tensor_ring((PX.ring, PY.ring))
    if XY.parts.get("factors") != (PX.ring, PY.ring):
        raise RingMismatch("product ring does not have the two input rings as factors")
    sums = {}
    for p, fp in PX.projectors.items():
        for q, gq in PY.projectors.items():
            term = exterior_product(fp, gq, XY, XY)
            i = p + q
            sums[i] = sums[i] + term if i in sums else term
    projs = {i: c for i, c in sums.items() if not c.is_zero()}
    return ProjectorSet(XY, projs, complete=True)


def gram_schmidt_orthogonalize(projectors):
    """Successively replace each idempotent by its two-sided correction
    against the sum of the already-processed ones: with A the diagonal
    minus that sum, the member becomes A-then-member-then-A. Inputs that
    are not idempotent raise NotIdempotent, as does a correction step
    that fails to produce an idempotent; an already pairwise-orthogonal
    family is returned unchanged. Orthogonality of the output is then
    automatic: each corrected member annihilates the running sum on
    both sides."""
    projs = list(projectors)
    if not projs:
        return []
    X = projs[0].source
    for k, p in enumerate(projs):
        if p.source != X or p.target != X:
            raise RingMismatch("all members must be self-correspondences of one ring")
        if p.shift != 0:
            raise ValueError(f"member at position {k} has nonzero degree shift")
        if compose(p, p) != p:
            raise NotIdempotent(f"input at position {k} is not idempotent")
    delta = diagonal(X)
    out = []
    running = zero_correspondence(X, X, 0)
    for k, p in enumerate(projs):
        complement = delta - running
        corrected = compose(compose(complement, p), complement)
        if compose(corrected, corrected) != corrected:
            raise NotIdempotent(
                f"correction at position {k} did not produce an idempotent"
            )
        out.append(corrected)
        running = running + corrected
    return out


# -- verification -----------------------------------------------------------


def _entry(check, indices, residual):
    """A report entry; `residual` is None or zero when the check held."""
    entry = {"check": check, "indices": list(indices),
             "pass": residual is None or residual.is_zero()}
    if not entry["pass"]:
        entry["residual_class"] = [
            [*labels, fraction_str(c)] for *labels, c in residual.label_terms()
        ]
    return entry


def _report(P, compose_pair, delta, action_rows, *, orthogonality_from_action=False):
    """The report loop shared by `verify_ck` and `verify_equivariant`,
    which supply the composition of two members (`compose_pair(f, g)`
    applies f first), the diagonal (`delta()`, called only when the set
    claims completeness) and `action_rows(i, p)`: a list of (basis
    label, residual rows), one per basis class, None where member p at
    index i passes; rows decide no verdict. Every member's list comes
    first, kept as given; the entries follow in report order. A residual
    is built only for a failed check: idempotence compares terms, and
    completeness holds at once when the members' supports are disjoint
    and their union is the diagonal's terms (as for members cut from the
    diagonal); otherwise it sums every member's terms, less the
    diagonal's, in one dict.

    Orthogonality composes every ordered pair unless
    `orthogonality_from_action` is set. Then only the pairs with a member
    that fails a graded-action entry compose: that is exact when the
    action determines a member, as `verify_equivariant` proves for a
    truncated model."""
    members = P.projectors
    idx = P.indices()
    rows = {i: action_rows(i, members[i]) for i in idx}
    entries = []
    for i in idx:
        p = members[i]
        square = compose_pair(p, p)
        entries.append(_entry("idempotence", (i,),
                              None if square.terms == p.terms else square - p))
    passing = {i for i in idx
               if orthogonality_from_action and all(r is None for _, r in rows[i])}
    entries.extend(
        _entry("orthogonality", (i, j), None if i in passing and j in passing
               else compose_pair(members[i], members[j]))
        for i in idx for j in idx if i != j
    )
    if P.complete:
        whole, union = delta(), {}
        for p in members.values():
            union.update(p.terms)
        residual = None
        if len(union) != sum(len(p.terms) for p in members.values()) or union != whole.terms:
            sums = {}
            for i in idx:
                for key, c in members[i].terms.items():
                    sums[key] = sums.get(key, 0) + c
            for key, c in whole.terms.items():
                sums[key] = sums.get(key, 0) - c
            residual = whole._with_terms(sums)
        entries.append(_entry("completeness", idx, residual))
    for i in idx:
        for label, residual in rows[i]:
            entry = {"check": "graded_action", "indices": [i],
                     "basis_class": label, "pass": residual is None}
            if residual is not None:
                entry["residual_class"] = residual
            entries.append(entry)
    return entries


def _action_rows(P, base, residual_rows):
    """`action_rows` for `_report` over the basis of `base`: one join in
    integer numerators decides every class for member p at index i, and
    `residual_rows(p, k, on_degree)` acts on a failing class k only. The
    join meets each source s of p's rows with its partner row: the image
    of e_k gains ∫e_k·e_s = (-1)^(deg s·deg k) ∫e_s·e_k times the row,
    under the int k S + j W + code, W the `_limit` and S = W |basis|. A
    nonzero pairing has deg s + deg k = 2 dim plus an even parameter
    degree, so the sign is (-1)^(deg s): a row of odd source is negated
    once. Over the scale L of rows and table, the nonzero images must be
    {k S + k W: L} on p's degree: one dict comparison; only a failing p
    sorts out the classes at fault."""
    scale_p, partners = P.ring._integer_partners()
    degrees = [d for _, d in base.basis]
    limit = next((p._limit for p in P.projectors.values()), 1)
    stride = limit * len(degrees)

    def action_rows(i, p):
        scale_g, rows = p._by_source()
        images = {}
        for s, row in rows.items():
            if degrees[s] % 2:
                row = [(m2, key, -c) for m2, key, c in row]
            for m2, key, c in row:
                for k, mp, v in partners[s]:
                    if mp + m2 < limit:
                        at = k * stride + mp + key
                        images[at] = images.get(at, 0) + v * c
        unit = scale_g * scale_p
        expected = {k * (stride + limit): unit for k, d in enumerate(degrees) if d == i}
        nonzero = {key: v for key, v in images.items() if v}
        wrong = () if nonzero == expected else nonzero.items() ^ expected.items()
        failing = {key // stride for key, _ in wrong}
        return [(label, residual_rows(p, k, degree == i) if k in failing else None)
                for k, (label, degree) in enumerate(base.basis)]

    return action_rows


def verify_ck(P):
    """Exact verification of a projector set. Checks, in order:
    idempotence of each member, orthogonality of every ordered pair
    (one `compose` each), completeness (only when the set claims it),
    and the graded action of each member on every basis class. Returns
    the report, a list of entries {check, indices, pass,
    residual_class?}. Graded-action entries are decided in integer
    numerators from one join per member (`_action_rows`); `act` builds
    the residual of a failing entry only, a class listed by label: the
    image less e on the member's degree, the image elsewhere."""
    X = P.ring

    def residual_rows(p, k, on_degree):
        e = X.basis_vector(k)
        residual = act(p, e) - e if on_degree else act(p, e)
        return [[lab, fraction_str(c)] for lab, c in sorted(residual.label_dict().items())]

    return _report(P, compose, lambda: diagonal(X), _action_rows(P, X, residual_rows))


def report_passes(report):
    return all(entry["pass"] for entry in report)


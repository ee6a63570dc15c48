"""The calculus of correspondences between basis rings.

A correspondence of degree shift r from X to Y is a homogeneous class
of degree 2(dim X + r) on X x Y, stored sparsely over the pair basis
(never materializing the product ring). Composition integrates out the
middle factor by pairing-contraction, which makes the diagonal's
identity laws exact theorems of the implementation; the same joins
compose and act for lifted correspondences.
"""

from fractions import Fraction

from .errors import RingMismatch, _require_int, _shown
from .graded_ring import ClassVector
from .linalg import _integer_scaled
from .serialize import parse_fraction


class CorrespondenceClass:
    """Sparse homogeneous class on X x Y with explicit degree shift.

    The one correspondence calculus: a term key stands for (source
    class, target class, code of a parameter monomial), here (i, j) with
    code 0 (`_coded`, `_decoded`); codes add to multiply, and sums past
    `_limit` are dropped. Lifted correspondences change only that map.

    `terms` never changes once built (the hash reads it), so the joins
    `_compose` and `_act` read two views built on first use and kept,
    in integer numerators: the rows by source class (`_by_source`),
    each target class and code packed into one int j * `_limit` + code,
    and the target factor contracted with the pairing (`_contraction`),
    by middle class, a class's row made only once a composition asks
    for it. The joins add into int keys and split each once.
    """

    __slots__ = ("source", "target", "shift", "terms", "_rows", "_contracted")

    _limit = 1

    def __init__(self, source, target, shift, terms):
        self.source = source
        self.target = target
        self.shift = _require_int(shift, "'degree_shift'")
        clean = {}
        for key, c in terms.items():
            c = c if type(c) is Fraction else parse_fraction(c)
            if c and (key := self._checked(key)) is not None:
                clean[key] = c
        self.terms = clean
        self._rows = self._contracted = None

    def _checked(self, key):
        """The term key (i, j), checked to have the class's degree."""
        i, j = key
        (si, di), (sj, dj) = self.source.basis[i], self.target.basis[j]
        if di + dj != self.degree:
            raise ValueError(
                f"term {si} x {sj} has degree {di + dj}, expected {_shown(self.degree)}")
        return i, j

    @classmethod
    def _trusted(cls, source, target, shift, terms):
        """A class on valid, nonzero `Fraction` terms, not re-checked."""
        out = object.__new__(cls)
        out.source, out.target, out.shift, out.terms = source, target, shift, terms
        out._rows = out._contracted = None
        return out

    @property
    def degree(self):
        return 2 * (self.source.dim + self.shift)

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, CorrespondenceClass):
            return NotImplemented
        return (
            self.source == other.source
            and self.target == other.target
            and self.shift == other.shift
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.shift, tuple(sorted(self.terms.items()))))

    def _compat(self, other):
        if self.source != other.source or self.target != other.target:
            raise RingMismatch("correspondences live over different ring pairs")
        if self.shift != other.shift:
            raise RingMismatch(
                f"degree shifts differ: {self.shift} vs {other.shift}"
            )

    def _with_terms(self, terms):
        """Same type, rings and shift with other terms. Sums, multiples
        and subsets of valid terms stay valid, so only zero coefficients
        are dropped."""
        return self._trusted(self.source, self.target, self.shift,
                             {k: c for k, c in terms.items() if c})

    def _coded(self):
        """The term keys as (i, j, code), in term order."""
        return [(i, j, 0) for i, j in self.terms]

    def _decoded(self, packed, stride, scale):
        """{term key: c} from the compose join's {i * stride + j * W +
        code: scale * c}, W the `_limit`: the inverse of `_coded`."""
        return {divmod(key, stride): Fraction(v, scale) for key, v in packed.items() if v}

    def _by_source(self):
        """(L, {i: [(code, j * W + code, L * c)]}): the terms (i, j,
        code) -> c as rows by source class, W the `_limit` and L the lcm
        of the denominators."""
        if self._rows is None:
            width = self._limit
            scale, nums = _integer_scaled(self.terms.values())
            rows = {}
            for (i, j, m), c in zip(self._coded(), nums):
                rows.setdefault(i, []).append((m, j * width + m, c))
            self._rows = scale, rows
        return self._rows

    def _contraction(self, wanted):
        """(L * Lp, {k: {(i, code): a}}, skipped): the target factor
        paired with e_k through the target's partner table, scaled by
        its Lp, for the middle classes k in `wanted` that it reaches
        (the sources of the class it is composed with). Rows are made
        once and kept; entries that cancel to 0 stay, and the join's
        decoding drops them. `skipped` holds the classes it reached but
        was not asked for: a later call that wants one of them makes its
        row then, and a call that wants none of them costs one test."""
        view = self._contracted
        if view is not None:
            skipped = view[2]
            if not skipped or skipped.isdisjoint(wanted):
                return view
            wanted = skipped.intersection(wanted)
            skipped -= wanted
        limit = self._limit
        scale_p, partners = self.target._integer_partners()
        scale, rows = self._by_source()
        sums, skipped = {k: {} for k in wanted}, set()
        for i, row in rows.items():
            for m1, key, c in row:
                for k, mp, vp in partners[key // limit]:
                    if k not in sums:
                        skipped.add(k)
                    elif (m := m1 + mp) < limit:
                        left = sums[k]
                        left[i, m] = left.get((i, m), 0) + c * vp
        made = {k: left for k, left in sums.items() if left}
        if view is None:
            view = self._contracted = scale * scale_p, made, skipped
        else:
            view[1].update(made)
        return view

    def __add__(self, other):
        self._compat(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, Fraction(0)) + c
        return self._with_terms(out)

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, r):
        r = r if type(r) is Fraction else parse_fraction(r, "scalar")
        return self._with_terms({k: r * c for k, c in self.terms.items()})

    def label_terms(self):
        """Terms as (source label, target label, coefficient), in stable
        basis-index order."""
        sb, tb = self.source.basis, self.target.basis
        return [
            (sb[i][0], tb[j][0], c)
            for (i, j), c in sorted(self.terms.items())
        ]

    def __repr__(self):
        if not self.terms:
            return f"<0 corr shift {self.shift}>"
        parts = []
        for lx, ly, *rest, c in self.label_terms():
            head = "" if c == 1 else ("-" if c == -1 else f"({c})*")
            tail = "".join(f" {label}" for label in rest if label != "1")
            parts.append(f"{head}{lx} x {ly}{tail}")
        return " + ".join(parts).replace("+ -", "- ")


def zero_correspondence(source, target, shift=0):
    return CorrespondenceClass(source, target, shift, {})


def diagonal(X):
    """The diagonal of X as a degree-0 self-correspondence: summed over
    every degree p, the sign (-1)^p times basis x dual-basis, its terms
    read off the block inverses once per ring (`_diagonal_terms`)."""
    return CorrespondenceClass._trusted(X, X, 0, X._diagonal_terms())


def _act(gamma, alpha):
    """The action join, (L, {j * W + code: L * c}), W the `_limit`:
    the pairing partners of alpha's classes joined with gamma's rows by
    source."""
    limit = gamma._limit
    scale_p, partners = gamma.source._integer_partners()
    scale_g, rows = gamma._by_source()
    scale_a, nums = _integer_scaled(alpha.coeffs.values())
    out = {}
    for a, ca in zip(alpha.coeffs, nums):
        for i, mp, vp in partners[a]:
            row = rows.get(i)
            if row is None:
                continue
            v = ca * vp
            for m2, key, c in row:
                if mp + m2 < limit:
                    key += mp
                    out[key] = out.get(key, 0) + v * c
    return scale_a * scale_g * scale_p, out


def _compose(f, g):
    """The composition join, f applied first: f's contraction, asked
    for g's sources, joined with g's rows by source on the middle
    classes both have, each sum kept under one int key
    i * (W * |target basis|) + l * W + code and decoded once. The
    result is valid by construction."""
    scale_g, rows = g._by_source()
    scale_f, contracted, _ = f._contraction(rows)
    if contracted.keys().isdisjoint(rows):
        return f._trusted(f.source, g.target, f.shift + g.shift, {})
    limit = f._limit
    # the partner table has one row per target basis class
    stride = limit * len(g.target._integer_partners()[1])
    out = {}
    for k in contracted.keys() & rows.keys():
        left = contracted[k].items()
        for m2, tail, c in rows[k]:
            for (i, m1), a in left:
                if m1 + m2 < limit:
                    key = i * stride + m1 + tail
                    out[key] = out.get(key, 0) + a * c
    terms = f._decoded(out, stride, scale_f * scale_g)
    return f._trusted(f.source, g.target, f.shift + g.shift, terms)


def act(gamma, alpha):
    """Action of a correspondence on a class: alpha on the source is
    carried to the target, raising degree by twice the shift."""
    if alpha.ring != gamma.source:
        raise RingMismatch("class does not live over the correspondence's source")
    scale, out = _act(gamma, alpha)
    return ClassVector._trusted(gamma.target, alpha.degree + 2 * gamma.shift,
                                {j: Fraction(v, scale) for j, v in out.items() if v})


def compose(f, g):
    """Composition with f applied first: act(compose(f, g), a) equals
    act(g, act(f, a))."""
    if f.target != g.source:
        raise RingMismatch("inner rings do not match for composition")
    return _compose(f, g)


def exterior_product(f, g, product_source, product_target):
    """The product correspondence on (X1 x X2, Y1 x Y2) from f on
    (X1, Y1) and g on (X2, Y2), with the Koszul sign of interleaving the
    middle tensor factors."""
    fs, ft = f.source, f.target
    gs, gt = g.source, g.target
    if product_source.parts.get("factors") != (fs, gs):
        raise RingMismatch("product source does not match the factors")
    if product_target.parts.get("factors") != (ft, gt):
        raise RingMismatch("product target does not match the factors")
    source_index = product_source.parts["index"]
    target_index = product_target.parts["index"]
    terms = {}
    for (a, b), cf in f.terms.items():
        db = ft.basis[b][1]
        for (c, dd), cg in g.terms.items():
            dc = gs.basis[c][1]
            sign = -1 if (db % 2 and dc % 2) else 1
            i = source_index[(a, c)]
            j = target_index[(b, dd)]
            terms[(i, j)] = terms.get((i, j), Fraction(0)) + sign * cf * cg
    return CorrespondenceClass(
        product_source, product_target, f.shift + g.shift, terms
    )


def map_correspondence(q_source, q_target, f):
    """Transport a correspondence along ring maps on each factor
    (coefficientwise image of each a x b term)."""
    if f.source != q_source.source or f.target != q_target.source:
        raise RingMismatch("correspondence does not live over the maps' sources")
    terms = {}
    for (i, j), c in f.terms.items():
        vi = q_source.images[i]
        vj = q_target.images[j]
        for a, ca in vi.coeffs.items():
            for b, cb in vj.coeffs.items():
                key = (a, b)
                terms[key] = terms.get(key, Fraction(0)) + c * ca * cb
    shift = f.shift + (q_source.target.dim - q_source.source.dim)
    return CorrespondenceClass(q_source.target, q_target.target, shift, terms)

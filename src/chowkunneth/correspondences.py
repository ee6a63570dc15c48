"""The calculus of correspondences between basis rings.

A correspondence of degree shift r from X to Y is a homogeneous class
of degree 2(dim X + r) on X x Y, stored sparsely over the pair basis
(never materializing the product ring). Composition integrates out the
middle factor by pairing-contraction, which makes the diagonal's
identity laws exact theorems of the implementation.
"""

from fractions import Fraction

from .errors import RingMismatch
from .graded_ring import ClassVector, _pure_tensor


class CorrespondenceClass:
    """Sparse homogeneous class on X x Y with explicit degree shift.

    Sums, multiples and equality combine terms by key only, so a
    subclass with other term keys (the lifted correspondences of
    `equivariant`) shares them and supplies its own validation,
    composition and labels.

    `terms` is never changed once built (the hash reads it); every sum,
    multiple or subset is a new class. So two views of the terms are
    built on first use and kept: the rows by source class
    (`_by_source`) and the target factor contracted with the pairing
    (`_contraction`), which `compose` and `act` join. A new class,
    however made, starts with neither.
    """

    __slots__ = ("source", "target", "shift", "terms", "_rows", "_contracted")

    def __init__(self, source, target, shift, terms):
        self.source = source
        self.target = target
        self.shift = int(shift)
        degree = 2 * (source.dim + self.shift)
        clean = {}
        for (i, j), c in terms.items():
            c = Fraction(c)
            if c == 0:
                continue
            if source.basis[i][1] + target.basis[j][1] != degree:
                raise ValueError(
                    f"term {source.basis[i][0]} x {target.basis[j][0]} has degree "
                    f"{source.basis[i][1] + target.basis[j][1]}, expected {degree}"
                )
            clean[(i, j)] = c
        self.terms = clean
        self._rows = self._contracted = None

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
        out = object.__new__(type(self))
        out.source, out.target, out.shift = self.source, self.target, self.shift
        out.terms = {k: c for k, c in terms.items() if c}
        out._rows = out._contracted = None
        return out

    def _by_source(self):
        """{i: [(j, c)]}, the terms (i, j) -> c as rows by source class."""
        if self._rows is None:
            rows = {}
            for (i, j), c in self.terms.items():
                rows.setdefault(i, []).append((j, c))
            self._rows = rows
        return self._rows

    def _contraction(self):
        """{k: {i: a}} with a the sum over terms (i, j) -> c of c times
        the integral of e_j * e_k: the target factor paired with e_k."""
        if self._contracted is None:
            partners = self.target.pairing_partners
            out = {}
            for (i, j), c in self.terms.items():
                for k, val in partners(j):
                    row = out.setdefault(k, {})
                    row[i] = row.get(i, 0) + c * val
            self._contracted = out
        return self._contracted

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
        r = Fraction(r)
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


def from_pair(a, b, shift=None):
    """The correspondence a x b from a's ring to b's ring."""
    source, target = a.ring, b.ring
    if shift is None:
        twice = a.degree + b.degree - 2 * source.dim
        if twice % 2:
            raise ValueError("pair degrees do not give an integer degree shift")
        shift = twice // 2
    return CorrespondenceClass(source, target, shift, _pure_tensor((a.coeffs, b.coeffs)))


def diagonal(X):
    """The diagonal of X as a degree-0 self-correspondence: summed over
    every degree p, the sign (-1)^p times basis x dual-basis."""
    terms = {}
    for p in X.degrees():
        idx = X.degree_indices(p)
        duals = X.dual_basis(p)
        sign = Fraction(-1) ** p
        for pos, i in enumerate(idx):
            for j, c in duals[pos].coeffs.items():
                terms[(i, j)] = terms.get((i, j), Fraction(0)) + sign * c
    return CorrespondenceClass(X, X, 0, terms)


def act(gamma, alpha):
    """Action of a correspondence on a class: alpha on the source is
    carried to the target, raising degree by twice the shift. Joins the
    pairing partners of alpha's classes with gamma's rows by source."""
    X = gamma.source
    if alpha.ring != X:
        raise RingMismatch("class does not live over the correspondence's source")
    rows = gamma._by_source()
    out = {}
    for m, ca in alpha.coeffs.items():
        for i, val in X.pairing_partners(m):
            for j, c in rows.get(i, ()):
                out[j] = out.get(j, 0) + ca * val * c
    return ClassVector(gamma.target, alpha.degree + 2 * gamma.shift, out)


def compose(f, g):
    """Composition with f applied first: act(compose(f, g), a) equals
    act(g, act(f, a)). Joins f's target factor, contracted with the
    middle ring's pairing, with g's rows by source."""
    if f.target != g.source:
        raise RingMismatch("inner rings do not match for composition")
    rows = g._by_source()
    out = {}
    for k, left in f._contraction().items():
        right = rows.get(k)
        if not right:
            continue
        for i, a in left.items():
            for l, cg in right:
                out[(i, l)] = out.get((i, l), 0) + a * cg
    return CorrespondenceClass(f.source, g.target, f.shift + g.shift, out)


def transpose(f):
    """Swap the factors with the Koszul sign; the shift adjusts by the
    dimension difference."""
    X, Y = f.source, f.target
    terms = {}
    for (i, j), c in f.terms.items():
        sign = -1 if (X.basis[i][1] % 2 and Y.basis[j][1] % 2) else 1
        terms[(j, i)] = sign * c
    return CorrespondenceClass(Y, X, f.shift + X.dim - Y.dim, terms)


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

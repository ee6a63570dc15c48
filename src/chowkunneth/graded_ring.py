"""Finite graded basis rings with exact rational structure constants.

A ring here is the cohomology (or Chow) ring of a smooth projective
variety presented by a finite homogeneous basis: labels with degrees,
a full multiplication table, and a top-degree integration functional.
Poincare duality is an axiom, not a theorem: construction fails unless
every complementary pairing block is invertible over Q.

A ring stores its multiplication table once, on integer numerators
over the lcm of the reduced denominators of its constants
(`_IntegerTable`), which the construction checks and the tensor fold
read as stored; classes, integrals and dual bases are `Fraction`s, and
nothing here ever touches a float.
"""

from fractions import Fraction
from math import gcd
from types import SimpleNamespace

from . import linalg
from .linalg import _integer_scaled
from .errors import DegeneratePairing, InvalidSpec, RingAxiomError, RingMismatch
from .serialize import parse_fraction


def _coerce_coeffs(coeffs):
    out = {}
    for k, v in coeffs.items():
        f = v if type(v) is Fraction else parse_fraction(v)
        if f:
            out[k] = f
    return out


class _IntegerTable(dict):
    """{(i, j): {k: n}}: e_i * e_j is the sum of n / `denominator` * e_k
    over the entries of (i, j), and missing pairs multiply to zero."""

    denominator = 1


def _integer_table(structure):
    """A rational table on integer numerators over their lcm, in its
    order, without zero entries and empty products."""
    table = _IntegerTable()
    table.denominator, nums = _integer_scaled(c for p in structure.values() for c in p.values())
    for ij, p in structure.items():
        row = {k: n for k, n in zip(p, nums) if n}
        if row:
            table[ij] = row
    return table


def _product(structure, a, b):
    """The product of coefficient dicts a and b under a structure table,
    without zero entries."""
    out = {}
    for i, ca in a.items():
        for j, cb in b.items():
            prod = structure.get((i, j))
            if not prod:
                continue
            c = ca * cb
            for k, s in prod.items():
                out[k] = out.get(k, 0) + c * s
    return {k: c for k, c in out.items() if c}


def _combine(coeffs, rows):
    """The combination sum of c * rows[i] over coeffs {i: c}, without
    zero entries."""
    out = {}
    for i, c in coeffs.items():
        for k, s in rows[i].items():
            out[k] = out.get(k, 0) + c * s
    return {k: v for k, v in out.items() if v}


class ClassVector:
    """A homogeneous class: rational coefficients over one degree's basis."""

    __slots__ = ("ring", "degree", "coeffs")

    def __init__(self, ring, degree, coeffs):
        self.ring = ring
        self.degree = degree
        self.coeffs = _coerce_coeffs(coeffs)
        for i in self.coeffs:
            if ring.basis[i][1] != degree:
                raise ValueError(
                    f"coefficient on basis index {i} of degree {ring.basis[i][1]}, "
                    f"expected degree {degree}"
                )

    @classmethod
    def _trusted(cls, ring, degree, coeffs):
        """A class on nonzero `Fraction` coefficients of its degree, not
        re-checked."""
        out = object.__new__(cls)
        out.ring, out.degree, out.coeffs = ring, degree, coeffs
        return out

    def is_zero(self):
        return not self.coeffs

    def __eq__(self, other):
        if not isinstance(other, ClassVector):
            return NotImplemented
        return (
            self.ring == other.ring
            and self.degree == other.degree
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.degree, tuple(sorted(self.coeffs.items()))))

    def _check_compat(self, other):
        if self.ring is not other.ring and self.ring != other.ring:
            raise RingMismatch("classes live over different rings")

    def __add__(self, other):
        self._check_compat(other)
        if self.degree != other.degree:
            raise ValueError("cannot add classes of different degrees")
        out = dict(self.coeffs)
        for i, c in other.coeffs.items():
            out[i] = out.get(i, Fraction(0)) + c
        return ClassVector(self.ring, self.degree, out)

    def __neg__(self):
        return ClassVector(self.ring, self.degree, {i: -c for i, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, r):
        r = r if type(r) is Fraction else parse_fraction(r, "scalar")
        return ClassVector(self.ring, self.degree, {i: r * c for i, c in self.coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, ClassVector):
            return self.ring.multiply(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def integrate(self):
        return self.ring.integrate(self)

    def label_dict(self):
        basis = self.ring.basis
        return {basis[i][0]: c for i, c in sorted(self.coeffs.items())}

    def __repr__(self):
        if not self.coeffs:
            return f"<0 in degree {self.degree}>"
        parts = []
        for i, c in sorted(self.coeffs.items()):
            label = self.ring.basis[i][0]
            parts.append(label if c == 1 else f"({c})*{label}")
        return " + ".join(parts)


def _generators(deg, prod):
    """Basis indices that generate the ring under `prod`, degree by degree.

    In each positive degree the products g*e of the generators g found
    so far with basis classes e of positive degree are row reduced
    exactly on integer numerators, without division (x becomes
    p * x - c * (pivot row), p and c over their gcd; echelon rows are
    kept primitive); the basis classes on the non-pivot columns complete
    them to a basis of that degree and join the generators. By induction
    on the degree every class is then a combination of products of
    generators, whatever the table, so the search itself proves that
    they generate.
    """
    by_degree = {}
    for i, d in enumerate(deg):
        by_degree.setdefault(d, []).append(i)
    gens = []
    for d, cols in sorted(by_degree.items()):
        if d == 0:
            continue
        pivots = {}  # pivot column -> echelon row, in insertion order
        for g in gens:
            for e in by_degree.get(d - deg[g], ()):
                if len(pivots) == len(cols):
                    break
                ge = prod(g, e)
                vec = {t: c for t, c in zip(ge, _integer_scaled(ge.values())[1]) if c}
                for col, row in pivots.items():
                    if c := vec.get(col):
                        p = row[col]
                        if (f := gcd(p, c)) != p:
                            vec = {t: v * (p // f) for t, v in vec.items()}
                        c //= f
                        for t, v in row.items():
                            w = vec.get(t, 0) - c * v
                            if w:
                                vec[t] = w
                            else:
                                vec.pop(t, None)
                if vec:
                    f = gcd(*vec.values())
                    pivots[min(vec)] = {t: v // f for t, v in vec.items()} if f != 1 else vec
        gens.extend(i for i in cols if i not in pivots)
    return gens


# The construction checks. Each reads the raw data `r` that
# `run_ring_checks` gathers and returns the detail of its first
# failure, or None; it may assume that every check before it in
# `_CHECKS` passed. They read the integer table `r.table` as it is,
# over its `denominator` L, and from `graded_commutativity` on by rows
# too, `r.rows[i][j]` the product e_i * e_j.


def _basis_shape(r):
    if len(set(r.labels)) != len(r.labels):
        return "duplicate basis labels"
    if any(not isinstance(label, str) or not label for label in r.labels):
        return "basis labels must be nonempty strings"
    if any(type(d) is not int for d in (r.dim, *r.deg)):
        return "the dimension and basis degrees must be integers"
    if any(d < 0 or d > r.top for d in r.deg):
        return f"basis degrees must lie in [0, {r.top}]"
    if r.deg.count(0) != 1:
        return "degree 0 must have rank exactly 1"


def _grading(r):
    deg = r.deg
    for (i, j), prod in r.table.items():
        target = deg[i] + deg[j]
        for k, c in prod.items():
            if (target > r.top or deg[k] != target) and c != 0:
                return (f"product {r.labels[i]}*{r.labels[j]} has a degree-{deg[k]} term, "
                        f"expected degree {target}")


def _unit(r):
    table, unit = r.table, r.deg.index(0)
    for j, label in enumerate(r.labels):
        want = {j: table.denominator}
        if table.get((unit, j)) != want or table.get((j, unit)) != want:
            return f"unit does not act as identity on {label}"


def _graded_commutativity(r):
    deg, table = r.deg, r.table
    r.rows = rows = [{} for _ in deg]
    for (i, j), p in table.items():
        rows[i][j] = p
    # Each product is compared once with its swap, and the detail names
    # the least failing pair (i <= j), as a loop over all pairs would.
    failing = []
    for i, row in enumerate(rows):
        for j, a in row.items():
            b = rows[j].get(i)
            if b is None:
                b = {}
            elif j < i:
                continue  # compared as (j, i)
            if deg[i] % 2 and deg[j] % 2:
                b = {k: -c for k, c in b.items()}
            if a != b:
                failing.append((min(i, j), max(i, j)))
    if failing:
        i, j = min(failing)
        return f"graded commutativity fails on {r.labels[i]}, {r.labels[j]}"


def _associativity(r):
    deg, n, top, table, rows = r.deg, len(r.deg), r.top, r.table, r.rows
    # On numerators over L, L^2 (x*s)*y = L^2 x*(s*y) is the same
    # identity, so the test below runs on ints.
    #
    # Light's associativity test (Clifford & Preston, The Algebraic Theory
    # of Semigroups I, 1961): the classes s with (x*s)*y = x*(s*y) for all
    # basis x, y form a subspace closed under products that holds the unit,
    # so checking s over a generating set proves associativity. Graded
    # commutativity turns (e_k*s)*e_i = e_k*(s*e_i) into (e_i*s)*e_k =
    # e_i*(s*e_k) times one Koszul sign on both sides, so k >= i suffices.
    # For each s and i, `diff` collects (e_i*s)*e_k - e_i*(s*e_k) for every
    # k >= i at once, keyed k*n + t for the coefficient of e_t; the least
    # k with a nonzero entry names the triple a loop over k finds first.
    # Triples beyond the top degree are zero on both sides by grading, and
    # those through the unit hold by the unit axiom.
    unit = deg.index(0)
    diff = {}
    get = diff.get
    for s in _generators(deg, lambda i, j: table.get((i, j), {})):
        right = rows[s]
        for i in range(n):
            if i == unit or deg[i] + deg[s] > top:
                continue
            for m, c in rows[i].get(s, {}).items():
                for k, p in rows[m].items():
                    if k >= i:
                        kn = k * n
                        for t, v in p.items():
                            key = kn + t
                            diff[key] = get(key, 0) + c * v
            row = rows[i]
            for k, p in right.items():
                if k >= i:
                    kn = k * n
                    for m, c in p.items():
                        for t, v in row.get(m, {}).items():
                            key = kn + t
                            diff[key] = get(key, 0) - c * v
            if any(diff.values()):
                k = min(key for key, v in diff.items() if v) // n
                return f"associativity fails on ({r.labels[i]}, {r.labels[s]}, {r.labels[k]})"
            diff.clear()


def _integration_support(r):
    for i, c in r.integration.items():
        if r.deg[i] != r.top and c != 0:
            return f"integration supported on degree {r.deg[i]} class {r.labels[i]}"


def _pairing_nondegeneracy(r):
    top, deg, rows, pairing = r.top, r.deg, r.rows, r.pairing
    by_degree = {}
    for i, d in enumerate(deg):
        by_degree.setdefault(d, []).append(i)

    # The integrals come from the products of top degree alone: e_i * e_j
    # with deg i <= deg j is integrated once, over L * M, M the scale of
    # the integration functional, and fills the pairing table in both
    # orientations, since by graded commutativity e_j * e_i is e_i * e_j
    # times (-1)^(deg i * deg j), and deg i, deg j have the same parity.
    scale, nums = _integer_scaled(r.integration.values())
    volume = dict(zip(r.integration, nums))
    denominator = r.table.denominator * scale
    for i, row in enumerate(rows):
        p = deg[i]
        if 2 * p > top:
            continue
        for j, prod in row.items():
            if p + deg[j] == top:
                v = sum(c * volume.get(k, 0) for k, c in prod.items())
                if v:
                    pairing[i, j] = Fraction(v, denominator)
                    if 2 * p < top:
                        pairing[j, i] = Fraction(-v if p % 2 else v, denominator)

    # Each block of degrees p <= q = 2*dim - p is read off that table.
    for p, rows_p in sorted(by_degree.items()):
        q = top - p
        if q < p and q in by_degree:
            continue  # the block of degrees (q, p) was checked
        cols = by_degree.get(q, [])
        if len(rows_p) != len(cols):
            return f"rank {len(rows_p)} in degree {p} vs rank {len(cols)} in degree {q}"
        block = [[pairing.get((i, j), 0) for j in cols] for i in rows_p]
        r.inverses[p] = linalg.inverse(block)
        if r.inverses[p] is None:
            return f"pairing block between degrees {p} and {q} is singular"
    missing = [q for q in by_degree if top - q not in by_degree]
    if missing:
        return f"degree {missing[0]} has no complementary degree {top - missing[0]}"


_CHECKS = (
    ("basis_shape", _basis_shape),
    ("grading", _grading),
    ("unit", _unit),
    ("graded_commutativity", _graded_commutativity),
    ("associativity", _associativity),
    ("integration_support", _integration_support),
    ("pairing_nondegeneracy", _pairing_nondegeneracy),
)

CHECK_NAMES = tuple(name for name, _ in _CHECKS)


def run_ring_checks(dim, basis, structure, integration):
    """Yield (check_name, ok, detail) for the graded ring axioms, in
    `CHECK_NAMES` order, and stop after the first that fails.

    A pure function of the raw data, so a table can be checked without
    building a ring; the constructor raises the failure as an error that
    carries the check's name, which the command line reports alone. Each
    verdict also carries what the pairing check computed (empty until it
    runs): the table `pairing` {(i, j): integral of e_i * e_j} of every
    nonzero integral, in both orientations, and the block inverses,
    `inverses[p]` inverting the block of degrees p <= 2*dim - p. Any
    `structure` but an `_IntegerTable` is put on one as the constructor
    puts it, zero entries dropped, so both give one verdict.
    """
    if not isinstance(structure, _IntegerTable):
        structure = _integer_table(structure)
    r = SimpleNamespace(
        dim=dim, top=2 * dim, labels=[b[0] for b in basis], deg=[b[1] for b in basis],
        table=structure, integration=integration, pairing={}, inverses={},
    )
    for name, check in _CHECKS:
        detail = check(r)
        yield _Verdict(name, detail, r)
        if detail is not None:
            return


class _Verdict(tuple):
    """A check's (name, ok, detail), with the `pairing` and `inverses`
    of the data under check."""

    def __new__(cls, name, detail, r):
        verdict = super().__new__(cls, (name, detail is None, detail or ""))
        verdict.pairing, verdict.inverses = r.pairing, r.inverses
        return verdict


class GradedBasisRing:
    """Immutable graded ring with basis, products, integration, pairing.

    The pairing is the one table of nonzero integrals of e_i * e_j that
    the pairing check of `run_ring_checks` fills while proving it
    nondegenerate; `pair_basis` reads it, `_integer_partners` holds its
    rows in integer numerators, the diagonal's terms, kept once made,
    read the inverses of its blocks that the check made, and
    `dual_basis` reads the diagonal.

    Parameters
    ----------
    dim : complex dimension; cohomological degrees run 0..2*dim.
    basis : sequence of (label, degree) pairs; emission order is the
        stable basis order.
    structure : {(i, j): {k: rational}} full multiplication table on
        basis indices (missing pairs multiply to zero), or a canonical
        `_IntegerTable` without zeros, kept as it is.
    integration : {i: Fraction} functional on the top-degree basis.
    space : optional serializable description of how the ring was built.
    parts : the rings and maps the ring was built from, by name: a
        tensor product's `factors` and `index` (tuple of factor indices
        -> global index), a blow-up's `base` and `center`, a ci_model's
        `primitive_indices` and `restrict_map` from its ambient ring.
    """

    __slots__ = ("dim", "basis", "integration", "space", "parts", "label_index", "_by_degree",
                 "_table", "_structure", "_integrals", "_partners", "_inverses", "_diagonal")

    def __init__(self, dim, basis, structure, integration, space=None, parts=None):
        self.dim = dim
        self.basis = tuple((l, d) for l, d in basis)
        if not isinstance(structure, _IntegerTable):
            structure = _integer_table(structure)
        self._table = structure
        self._structure = self._diagonal = None
        self.integration = _coerce_coeffs(integration)
        self.space = space
        self.parts = dict(parts or {})

        for verdict in run_ring_checks(self.dim, self.basis, structure, self.integration):
            name, ok, detail = verdict
            if not ok:
                if name == DegeneratePairing.check:
                    raise DegeneratePairing(detail)
                raise RingAxiomError(name, detail)
        self._integrals, self._inverses = verdict.pairing, verdict.inverses
        pairs = sorted(self._integrals.items())
        scale, nums = _integer_scaled(v for _, v in pairs)
        rows = [[] for _ in self.basis]
        for ((i, j), _), v in zip(pairs, nums):
            rows[i].append((j, 0, v))
        self._partners = scale, rows

        self.label_index = {l: i for i, (l, _) in enumerate(self.basis)}
        self._by_degree = {}
        for i, (_, d) in enumerate(self.basis):
            self._by_degree.setdefault(d, []).append(i)
        self._by_degree = {d: tuple(v) for d, v in self._by_degree.items()}

    # -- identity ---------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, GradedBasisRing):
            return NotImplemented
        if self is other:
            return True
        return (
            self.dim == other.dim
            and self.basis == other.basis
            and self._table.denominator == other._table.denominator
            and self._table == other._table
            and self.integration == other.integration
        )

    def __hash__(self):
        return hash((self.dim, self.basis))

    def __repr__(self):
        kind = self.space.get("kind") if isinstance(self.space, dict) else None
        tag = f" {kind}" if kind else ""
        return f"<GradedBasisRing{tag} dim={self.dim} rank={len(self.basis)}>"

    # -- basic queries ----------------------------------------------------

    @property
    def structure(self):
        """{(i, j): {k: rational}}: the integer table itself over
        denominator 1, else its `Fraction` view, made on first request."""
        table = self._table
        if table.denominator == 1:
            return table
        if self._structure is None:
            d = table.denominator
            self._structure = {ij: {k: Fraction(n, d) for k, n in p.items()}
                               for ij, p in table.items()}
        return self._structure

    @property
    def top_degree(self):
        return 2 * self.dim

    def degrees(self):
        return tuple(sorted(self._by_degree))

    def rank(self, degree):
        return len(self._by_degree.get(degree, ()))

    def degree_indices(self, degree):
        return self._by_degree.get(degree, ())

    def betti(self):
        return {d: len(ix) for d, ix in sorted(self._by_degree.items())}

    # -- class construction -----------------------------------------------

    def zero(self, degree):
        return ClassVector(self, degree, {})

    def basis_class(self, label):
        i = self.label_index[label]
        return ClassVector(self, self.basis[i][1], {i: Fraction(1)})

    def basis_vector(self, i):
        return ClassVector(self, self.basis[i][1], {i: Fraction(1)})

    def unit(self):
        (i,) = self.degree_indices(0)
        return ClassVector(self, 0, {i: Fraction(1)})

    def from_label_dict(self, coeffs, degree=None):
        """The class of {label: coefficient}, each coefficient an exact
        rational (`parse_fraction`). Every label named, zero coefficients
        included, must have degree `degree`, or when it is omitted the
        one degree the labels share; only an empty object needs `degree`."""
        if not isinstance(coeffs, dict) or not (coeffs or degree is not None):
            raise InvalidSpec("expected a nonempty object of label -> coefficient")
        unknown = sorted(str(label) for label in coeffs if label not in self.label_index)
        if unknown:
            raise InvalidSpec(f"unknown basis labels {unknown}")
        idx = {self.label_index[label]: parse_fraction(c, f"coefficient of {label!r}")
               for label, c in coeffs.items()}
        degrees = {self.basis[i][1] for i in idx}
        if degree is None and len(degrees) == 1:
            (degree,) = degrees
        if degrees - {degree}:
            raise InvalidSpec("class is not homogeneous" if degree is None
                              else f"expected classes of degree {degree}")
        return ClassVector(self, degree, idx)

    # -- ring operations ---------------------------------------------------

    def multiply(self, a, b):
        if a.ring is not self and a.ring != self:
            raise RingMismatch("left factor lives over a different ring")
        if b.ring is not self and b.ring != self:
            raise RingMismatch("right factor lives over a different ring")
        return ClassVector(self, a.degree + b.degree,
                           _product(self.structure, a.coeffs, b.coeffs))

    def integrate(self, a):
        if a.ring is not self and a.ring != self:
            raise RingMismatch("class lives over a different ring")
        if a.degree != self.top_degree:
            return Fraction(0)
        return sum((c * self.integration.get(i, 0) for i, c in a.coeffs.items()), Fraction(0))

    def pair_basis(self, i, j):
        """Integral of e_i * e_j."""
        return self._integrals.get((i, j), Fraction(0))

    def _integer_partners(self):
        """(L, rows): the pairing table in integer numerators over their
        lcm L; row j lists (k, 0, L * value), 0 the unit's code."""
        return self._partners

    def _diagonal_terms(self):
        """The diagonal's terms {(i, j): c}, kept once made (not as a
        class, which would hold the ring in a cycle): over every degree
        p, (-1)^p e_i x ê_i, read off the inverse of the block of degrees
        (p, q), q = 2*dim - p, or for p > q of the block of (q, p), which
        is this one transposed and times (-1)^(p*q), and so is its inverse."""
        if self._diagonal is None:
            terms = {}
            for p in self.degrees():
                q = self.top_degree - p
                inv, sign = self._inverses[min(p, q)], (-1) ** p if p <= q else 1
                for j, i in enumerate(self.degree_indices(p)):
                    for k, col in enumerate(self.degree_indices(q)):
                        if c := inv[k][j] if p <= q else inv[j][k]:
                            terms[i, col] = sign * c
            self._diagonal = terms
        return self._diagonal

    def dual_basis(self, p):
        """Classes (ê_j) in degree 2*dim - p with ∫ e_i · ê_j = δ_ij,
        indexed like the degree-p basis: (-1)^p times the diagonal's
        terms whose source class has degree p."""
        sign = -1 if p % 2 else 1
        rows = {i: {} for i in self.degree_indices(p)}
        for (i, j), c in self._diagonal_terms().items():
            if i in rows:
                rows[i][j] = sign * c
        return tuple(ClassVector(self, self.top_degree - p, row) for row in rows.values())

    def point(self):
        """The degree-2*dim class integrating to 1."""
        return self.dual_basis(0)[0]


class RingMap:
    """Degree-preserving ring homomorphism given on basis classes.

    `images` maps each source basis index to a ClassVector over the
    target. Construction checks unitality, degree preservation and
    f(x*s) = f(x)*f(s) for every basis class x and every s in the
    source's generating set (`_generators`). That proves
    multiplicativity: the s that satisfy it form a subspace that holds
    the unit and, both rings being associative, is closed under
    products. Surjectivity is checked when `require_surjective` is set
    (bottom-weight restrictions need it, ambient restriction maps do
    not). With `strict=False`, every basis pair is checked except pairs
    whose factors BOTH map to zero — the contract of quotient maps that
    collapse a middle block whose internal products land in surviving
    degrees; the exemption does not compose, and callers of such maps
    re-verify the transported structures directly.
    """

    def __init__(self, source, target, images, require_surjective=False, strict=True):
        from .errors import NotRingMap

        self.source = source
        self.target = target
        self.images = tuple(images)
        if len(self.images) != len(source.basis):
            raise NotRingMap("one image per source basis class is required")
        for i, v in enumerate(self.images):
            if v.ring != target:
                raise NotRingMap("images must live over the target ring")
            if v.degree != source.basis[i][1]:
                raise NotRingMap(
                    f"image of {source.basis[i][0]} has degree {v.degree}, "
                    f"expected {source.basis[i][1]}"
                )
        unit_i = source.degree_indices(0)[0]
        if self.images[unit_i] != target.unit():
            raise NotRingMap("unit must map to unit")
        n = len(source.basis)
        coeffs = [v.coeffs for v in self.images]
        if strict:
            middles = _generators([d for _, d in source.basis],
                                  lambda i, j: source.structure.get((i, j), {}))
        else:
            middles = range(n)
        for i in range(n):
            for j in middles:
                if not strict and not coeffs[i] and not coeffs[j]:
                    continue
                lhs = _combine(source.structure.get((i, j), {}), coeffs)
                if lhs != _product(target.structure, coeffs[i], coeffs[j]):
                    raise NotRingMap(
                        f"not multiplicative on "
                        f"({source.basis[i][0]}, {source.basis[j][0]})"
                    )
        if require_surjective:
            for d in target.degrees():
                cols = target.degree_indices(d)
                rows = [[coeffs[i].get(c, Fraction(0)) for c in cols]
                        for i in source.degree_indices(d)]
                if linalg.rank(linalg.mat(rows) if rows else ()) != len(cols):
                    raise NotRingMap(f"not surjective in degree {d}")

    def apply(self, v):
        if v.ring != self.source:
            raise RingMismatch("class does not live over the map's source")
        return ClassVector(self.target, v.degree,
                           _combine(v.coeffs, [w.coeffs for w in self.images]))


def _pure_tensor(coeff_dicts):
    """The pure tensor of coefficient dicts over basis indices:
    {index tuple: product of coefficients}."""
    out = {(): Fraction(1)}
    for coeffs in coeff_dicts:
        out = {t + (i,): c * ci for t, c in out.items() for i, ci in coeffs.items()}
    return out


def tensor_ring(factors, space=None):
    """Graded tensor product of basis rings, with Koszul signs.

    The product table is folded from the factors' integer tables, one
    factor at a time, the last step into global indices: a prefix pair
    (x, y) with product xy and a factor pair (a, b) with product ab give
    (x # a)*(y # b) = (-1)^(|a| |y|) xy # ab, |y| the right prefix's
    degree. The product of the factors' denominators is again the lcm of
    the reduced ones: a prime dividing it spares a numerator of every
    factor, and their product. Basis classes are all tuples of factor
    basis classes, labelled by joining the factor labels with " # ",
    ordered by total degree and then by the factor index tuple. The
    returned ring records its `factors` and `index` in `parts`, for
    callers that address pure tensors. Without a `space`, a product of
    described factors is described as the product of their descriptions.
    """
    factors = tuple(factors)
    if not factors:
        raise ValueError("tensor product needs at least one factor")

    *first, last = factors
    degree = {(): 0}  # the degree of each prefix
    table = {((), ()): {(): 1}}
    denominator = last._table.denominator
    for f in first:
        fdeg = [d for _, d in f.basis]
        denominator *= f._table.denominator
        table = {
            (x + (a,), y + (b,)): {k + (l,): -c * s if fdeg[a] % 2 and degree[y] % 2 else c * s
                                   for k, c in xy.items() for l, s in ab.items()}
            for (x, y), xy in table.items()
            for (a, b), ab in f._table.items()
        }
        degree = {t + (i,): d + fdeg[i] for t, d in degree.items() for i in range(len(fdeg))}

    ldeg = [d for _, d in last.basis]
    total = {t + (i,): d + e for t, d in degree.items() for i, e in enumerate(ldeg)}
    tuples = sorted(total, key=lambda t: (total[t], t))
    index = {t: g for g, t in enumerate(tuples)}
    glob = {t: [index[t + (i,)] for i in range(len(ldeg))] for t in degree}
    structure = _IntegerTable()
    structure.denominator = denominator
    for (x, y), xy in table.items():
        gx, gy, terms = glob[x], glob[y], [(glob[k], c) for k, c in xy.items()]
        for (a, b), ab in last._table.items():
            structure[gx[a], gy[b]] = {gk[l]: -c * s if ldeg[a] % 2 and degree[y] % 2 else c * s
                                       for gk, c in terms for l, s in ab.items()}
    basis = [(" # ".join(f.basis[i][0] for f, i in zip(factors, t)), total[t]) for t in tuples]
    integration = {index[t]: c for t, c in
                   _pure_tensor(f.integration for f in factors).items()}

    if space is None and all(isinstance(f.space, dict) for f in factors):
        space = {"kind": "product", "factors": [f.space for f in factors]}
    return GradedBasisRing(sum(f.dim for f in factors), basis, structure, integration,
                           space=space, parts={"factors": factors, "index": index})

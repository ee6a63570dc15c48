"""`Fraction` oracles for the integer kernels of ring construction.

`gauss_jordan` is the elimination `linalg` ran over `Fraction`s before
it became fraction-free; `fraction_tensor_table` is the tensor fold
`graded_ring.tensor_ring` ran over `Fraction`s before it folded integer
numerators; `dense_pairing` integrates every entry of every pairing
block, as the pairing check did before it read the products of top
degree alone. `fraction_table` is a ring's table as rings stored it
before they kept integer numerators, and `fraction_product` the product
`multiply` took over it. `pairwise_ci_model` builds a ci_model's table
by a loop over every pair of its basis classes, as `spaces` did before
it read the table off the restriction of each ambient class;
`block_dual_basis` reads dual bases off the pairing's block inverses, as
`dual_basis` did before it read them off the diagonal; and
`closed_form_hypersurface_projectors` is the (1/d) H^(n-1-r) x H^r set
a hypersurface model's decomposition was built as before it became
`full_projectors` of the model; and `eager_compose` joins over
`eager_contraction`, which pairs a correspondence's target factor with
every middle class it reaches, as `compose` did before it contracted
only the classes a composition asks for. All of them now serve only to
check the faster or shorter paths.

The helpers at the end build what the tests need and the engine does
not: a pure tensor a x b, one component of the diagonal, the transpose
of a correspondence, the failed check names of a report, and the
`Fraction` view of a pairing partner row.
"""

from fractions import Fraction

from chowkunneth import kunneth, linalg, spaces
from chowkunneth.correspondences import CorrespondenceClass, diagonal
from chowkunneth.errors import DegeneratePairing, InvalidSpec, NonLefschetzRange
from chowkunneth.graded_ring import ClassVector, GradedBasisRing, RingMap
from chowkunneth.kunneth import ProjectorSet
from chowkunneth.serialize import _prefixed, _require


def gauss_jordan(rows, ncols):
    """(rank, reduced rows) of Gauss-Jordan elimination over `Fraction`s
    on the first `ncols` columns: each pivot is the first nonzero entry
    at or below the current row, scaled to 1 and cleared from every
    other row."""
    rows = [[Fraction(x) for x in row] for row in rows]
    n, rk = len(rows), 0
    for col in range(ncols):
        if rk == n:
            break
        piv = next((r for r in range(rk, n) if rows[r][col] != 0), None)
        if piv is None:
            continue
        rows[rk], rows[piv] = rows[piv], rows[rk]
        inv = 1 / rows[rk][col]
        rows[rk] = [x * inv for x in rows[rk]]
        for r in range(n):
            if r != rk and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rk])]
        rk += 1
    return rk, rows


def solve(a, rhs_cols):
    """X with a @ X = B for square a, or None if a is singular."""
    n = len(a)
    if n == 0:
        return ()
    rk, rows = gauss_jordan([list(a[i]) + list(rhs_cols[i]) for i in range(n)], n)
    if rk < n:
        return None
    return tuple(tuple(row[n:]) for row in rows)


def inverse(a):
    n = len(a)
    return solve(a, [[Fraction(int(i == j)) for j in range(n)] for i in range(n)])


def rank(a):
    if not a or not a[0]:
        return 0
    return gauss_jordan(a, len(a[0]))[0]


def fraction_tensor_table(factors):
    """The structure table of the tensor product of `factors`, folded
    over `Fraction`s with Koszul signs, keyed and ordered as
    `tensor_ring` keys and orders it."""
    degree = {(): 0}
    table = {((), ()): {(): Fraction(1)}}
    for f in factors:
        fdeg = [d for _, d in f.basis]
        table = {
            (x + (a,), y + (b,)): {
                k + (l,): -c * s if fdeg[a] % 2 and degree[y] % 2 else c * s
                for k, c in xy.items() for l, s in ab.items()
            }
            for (x, y), xy in table.items()
            for (a, b), ab in f.structure.items()
        }
        degree = {t + (i,): d + fdeg[i] for t, d in degree.items() for i in range(len(fdeg))}
    index = {t: g for g, t in enumerate(sorted(degree, key=lambda t: (degree[t], t)))}
    return {(index[x], index[y]): {index[k]: c for k, c in xy.items()}
            for (x, y), xy in table.items()}


def dense_pairing(ring):
    """(pairing, inverses) of `ring` by integrating every entry of each
    block of degrees p <= q = 2*dim - p over `Fraction`s: the nonzero
    integrals in both orientations, and the inverse of each block by
    `inverse` above."""
    top = ring.top_degree
    pairing, inverses = {}, {}
    for p in ring.degrees():
        q = top - p
        if q < p:
            continue
        rows, cols = ring.degree_indices(p), ring.degree_indices(q)
        block = [[sum((c * ring.integration.get(k, Fraction(0))
                       for k, c in ring.structure.get((i, j), {}).items()), Fraction(0))
                  for j in cols] for i in rows]
        sign = -1 if p % 2 else 1
        for i, values in zip(rows, block):
            for j, v in zip(cols, values):
                if v:
                    pairing[i, j] = v
                    if p < q:
                        pairing[j, i] = sign * v
        inverses[p] = inverse(block)
    return pairing, inverses


def fraction_table(ring):
    """{(i, j): {k: Fraction}}: the ring's structure table over
    `Fraction`s, one per entry, in the order of its integer table."""
    d = ring._table.denominator
    return {ij: {k: Fraction(n, d) for k, n in p.items()} for ij, p in ring._table.items()}


def fraction_product(structure, a, b):
    """The product of coefficient dicts a and b over a `Fraction` table,
    summed term by term, without zero entries."""
    out = {}
    for i, ca in a.items():
        for j, cb in b.items():
            for k, s in structure.get((i, j), {}).items():
                out[k] = out.get(k, Fraction(0)) + ca * cb * s
    return {k: c for k, c in out.items() if c}


def pairwise_ci_model(spec):
    """The ci_model ring of `spec`, uncached, with its `restrict_map`:
    every product of two basis classes is found by the kinds of its
    factors (restricted ambient, primitive or dual), each restricted
    ambient product twisted by xi above the middle."""
    amb = spaces.build_space(_require(spec, "ambient", "ci_model"))
    if any(deg % 2 for _, deg in amb.basis):
        raise InvalidSpec("ci_model ambient must have even cohomology only")
    with _prefixed("ci_model fundamental_class_expr"):
        xi = amb.from_label_dict(_require(spec, "fundamental_class_expr", "ci_model"))
    if xi.is_zero() or xi.degree % 2 or xi.degree == 0:
        raise InvalidSpec(
            "ci_model fundamental_class_expr must be homogeneous of positive even degree"
        )
    d = amb.dim - xi.degree // 2
    if d < 1:
        raise InvalidSpec("ci_model requires ambient dimension > codimension")
    top = 2 * d
    k_prim = spaces._int_field(spec, "middle_rank", 0)

    amb_deg = [t for _, t in amb.basis]
    xi_value = {k: sum(c * amb.pair_basis(k, x) for x, c in xi.coeffs.items())
                for k in amb.degree_indices(top)}
    twisted = {}
    for (i, j), prod in amb.structure.items():
        if amb_deg[i] + amb_deg[j] == top:
            val = sum(c * xi_value[k] for k, c in prod.items())
            if val:
                twisted[(i, j)] = val
    for t in range(0, d + 1):
        rows = amb.degree_indices(t)
        if not rows:
            continue
        cols = amb.degree_indices(top - t)
        m = linalg.mat([[twisted.get((i, j), Fraction(0)) for j in cols] for i in rows])
        if linalg.rank(m) != len(rows):
            raise NonLefschetzRange(f"xi-twisted ambient pairing drops rank in degree {t}")

    odd_middle = bool(d % 2)
    if "middle_pairing" in spec:
        rawp = spec["middle_pairing"]
        if (
            not isinstance(rawp, list)
            or len(rawp) != k_prim
            or any(not isinstance(r, list) or len(r) != k_prim for r in rawp)
        ):
            raise InvalidSpec("middle_pairing must be a middle_rank x middle_rank matrix")
        prim_pairing = [[spaces.parse_fraction(v, "middle_pairing") for v in row]
                        for row in rawp]
        for i in range(k_prim):
            for j in range(k_prim):
                want = -prim_pairing[j][i] if odd_middle else prim_pairing[j][i]
                if prim_pairing[i][j] != want:
                    kind = "antisymmetric" if odd_middle else "symmetric"
                    raise InvalidSpec(f"middle_pairing must be {kind}")
        if k_prim and linalg.inverse(linalg.mat(prim_pairing)) is None:
            raise DegeneratePairing("supplied middle pairing is singular")
    else:
        prim_pairing = spaces._default_middle_pairing(k_prim, odd_middle)

    basis, kind_of = [], []  # kind_of[x] = (kind, ambient or primitive index)
    for t in range(0, top + 1):
        if t <= d:
            for i in amb.degree_indices(t):
                kind_of.append(("amb", i))
                basis.append((amb.basis[i][0], t))
        if t == d:
            for p in range(k_prim):
                kind_of.append(("prim", p))
                basis.append((f"m{p + 1}", d))
        if t > d:
            for i in amb.degree_indices(top - t):
                kind_of.append(("dual", i))
                basis.append((amb.basis[i][0] + "*", t))
    amb_to_x = {i: x for x, (kind, i) in enumerate(kind_of) if kind == "amb"}
    dual_to_x = {i: x for x, (kind, i) in enumerate(kind_of) if kind == "dual"}
    point_index = dual_to_x[amb.degree_indices(0)[0]]

    amb_table, structure = amb.structure, {}
    for a, (ka, pa) in enumerate(kind_of):
        da = basis[a][1]
        for b, (kb, pb) in enumerate(kind_of):
            db = basis[b][1]
            total = da + db
            if total > top:
                continue
            out = {}
            if ka == "amb" and kb == "amb":
                prod = amb_table.get((pa, pb), {})
                if total <= d:
                    out = {amb_to_x[i]: c for i, c in prod.items()}
                else:
                    for i in amb.degree_indices(top - total):
                        c = sum(s * twisted.get((i, k), 0) for k, s in prod.items())
                        if c:
                            out[dual_to_x[i]] = c
            elif "amb" in (ka, kb) and "dual" in (ka, kb):
                # e_u * (e_v)* = sum over i of (the e_v term of e_i * e_u) (e_i)*
                u, v = (pa, pb) if ka == "amb" else (pb, pa)
                for i in amb.degree_indices(top - total):
                    if c := amb_table.get((i, u), {}).get(v):
                        out[dual_to_x[i]] = c
            elif ka == "prim" and kb == "prim":
                c = prim_pairing[pa][pb]
                if c != 0:
                    out[point_index] = c
            elif ka == "prim" and kb == "amb" and db == 0:
                out = {a: Fraction(1)}
            elif kb == "prim" and ka == "amb" and da == 0:
                out = {b: Fraction(1)}
            if out:
                structure[(a, b)] = out

    ring = GradedBasisRing(
        d, basis, structure, {point_index: Fraction(1)}, space=spec,
        parts={"primitive_indices": tuple(x for x, (kind, _) in enumerate(kind_of)
                                          if kind == "prim")},
    )
    images = []
    for i, t in enumerate(amb_deg):
        if t <= d:
            images.append(ring.basis_vector(amb_to_x[i]))
        else:
            images.append(ClassVector(ring, t, {
                dual_to_x[jx]: twisted.get((jx, i), 0) for jx in amb.degree_indices(top - t)
            }))
    ring.parts["restrict_map"] = RingMap(amb, ring, images)
    return ring


def block_dual_basis(ring, p):
    """The dual classes of the degree-p basis, read off the inverse of
    the pairing block of degrees (p, q), q = 2*dim - p, or for p > q off
    that of (q, p), transposed and times (-1)^(p*q)."""
    q = ring.top_degree - p
    rows, cols = ring.degree_indices(p), ring.degree_indices(q)
    if p <= q:
        inv = ring._inverses.get(p, ())
    else:
        sign = -1 if p % 2 else 1
        inv = [[sign * c for c in col] for col in zip(*ring._inverses.get(q, ()))]
    return tuple(
        ClassVector(ring, q, {cols[k]: inv[k][j] for k in range(len(cols))})
        for j in range(len(rows))
    )


def closed_form_hypersurface_projectors(n, d, middle_rank):
    """The degree-d hypersurface model in P^n split in closed form: away
    from the middle, the member in degree 2r is (1/d) H^(n-1-r) x H^r
    for the restricted hyperplane class H; the middle member is the
    diagonal's component in the middle degree, the set's remainder."""
    X = spaces.hypersurface_model(n, d, middle_rank)
    dim = n - 1
    q = X.parts["restrict_map"]
    H = q.apply(q.source.basis_class("h" if n >= 1 else "1"))
    powers = [X.unit()]
    for _ in range(dim):
        powers.append(X.multiply(powers[-1], H))
    projs = {}
    for r in range(dim + 1):
        if 2 * r == dim:
            continue
        projs[2 * r] = pure_tensor(powers[dim - r], powers[r]).scale(Fraction(1, d))
    projs[dim] = diagonal_component(X, dim)
    return ProjectorSet(X, projs, complete=True, remainder_indices={dim})


def eager_contraction(f):
    """(L * Lp, {k: [(code, i, a)]}): f's target factor paired with
    every middle class e_k its targets pair with, through the target's
    integer partner table scaled by its Lp, one nonzero entry per
    (i, code)."""
    limit = f._limit
    scale_p, partners = f.target._integer_partners()
    scale, rows = f._by_source()
    sums = {}
    for i, row in rows.items():
        for m1, key, c in row:
            for k, mp, vp in partners[key // limit]:
                left = sums.setdefault(k, {})
                m = m1 + mp
                if m < limit:
                    left[i, m] = left.get((i, m), 0) + c * vp
    return scale * scale_p, {k: entries for k, left in sums.items()
                             if (entries := [(m, i, a) for (i, m), a in left.items() if a])}


def eager_compose(f, g):
    """The composition with f applied first, ordinary or lifted: the
    whole `eager_contraction(f)` joined with g's rows by source on the
    middle classes both have."""
    limit = f._limit
    scale_f, contracted = eager_contraction(f)
    scale_g, rows = g._by_source()
    stride = limit * len(g.target._integer_partners()[1])
    out = {}
    for k in contracted.keys() & rows.keys():
        for m2, tail, c in rows[k]:
            for m1, i, a in contracted[k]:
                if m1 + m2 < limit:
                    key = i * stride + m1 + tail
                    out[key] = out.get(key, 0) + a * c
    terms = f._decoded(out, stride, scale_f * scale_g)
    return f._trusted(f.source, g.target, f.shift + g.shift, terms)


# -- helpers -------------------------------------------------------------------


def pure_tensor(a, b, shift=None):
    """The correspondence a x b from a's ring to b's ring, its degree
    shift read off the degrees unless given."""
    source, target = a.ring, b.ring
    if shift is None:
        twice = a.degree + b.degree - 2 * source.dim
        if twice % 2:
            raise ValueError("pair degrees do not give an integer degree shift")
        shift = twice // 2
    terms = {(i, j): ca * cb for i, ca in a.coeffs.items() for j, cb in b.coeffs.items()}
    return CorrespondenceClass(source, target, shift, terms)


def diagonal_component(X, p):
    """The component of X's diagonal whose target class has degree p:
    the projector onto degree p, zero where X has no degree-p class."""
    delta = diagonal(X)
    return delta._with_terms(kunneth._components(delta, X.basis).get(p, {}))


def transpose(f):
    """f with its factors swapped and the Koszul sign; the shift adjusts
    by the dimension difference."""
    X, Y = f.source, f.target
    terms = {(j, i): -c if X.basis[i][1] % 2 and Y.basis[j][1] % 2 else c
             for (i, j), c in f.terms.items()}
    return CorrespondenceClass(Y, X, f.shift + X.dim - Y.dim, terms)


def failing_checks(report):
    """The distinct check names that failed, in report order."""
    return list(dict.fromkeys(entry["check"] for entry in report if not entry["pass"]))


def fraction_partners(table, j):
    """Row j of the pairing partners of a ring, (k, value), or of a
    model, (k, {monomial: value}), over `Fraction`s and in basis order
    of k: the view of the integer rows (`_integer_partners`) that the
    engine reads."""
    scale, rows = table._integer_partners()
    bg = getattr(table, "bg", None)
    if bg is None:
        assert all(code == 0 for _, code, _ in rows[j])
        return tuple((k, Fraction(v, scale)) for k, _, v in rows[j])
    polys = {}
    for k, m, v in rows[j]:
        polys.setdefault(k, {})[bg.mono_of[m]] = Fraction(v, scale)
    return tuple(polys.items())

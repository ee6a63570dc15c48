"""`Fraction` oracles for the integer kernels of ring construction.

`gauss_jordan` is the elimination `linalg` ran over `Fraction`s before
it became fraction-free; `fraction_tensor_table` is the tensor fold
`graded_ring.tensor_ring` ran over `Fraction`s before it folded integer
numerators; `dense_pairing` integrates every entry of every pairing
block, as the pairing check did before it read the products of top
degree alone. `fraction_table` is a ring's table as rings stored it
before they kept integer numerators, and `fraction_product` the product
`multiply` took over it. All of them now serve only to check the
faster paths.
"""

from fractions import Fraction


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

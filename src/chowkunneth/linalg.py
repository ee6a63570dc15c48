"""Small dense exact linear algebra over Fraction.

Matrices are tuples of tuples (immutable, hashable); all arithmetic is
exact. Sizes here are tiny (pairing blocks of cohomology rings), so
plain Gaussian elimination is the right tool.
"""

from fractions import Fraction


def mat(rows):
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def identity(n):
    return tuple(
        tuple(Fraction(1) if i == j else Fraction(0) for j in range(n)) for i in range(n)
    )


def _eliminate(rows, ncols):
    """Gauss-Jordan elimination in place on the first `ncols` columns of
    the row lists `rows`: each pivot is the first nonzero entry at or
    below the current row, scaled to 1 and cleared from every other
    row. Returns the number of pivots (the rank of those columns)."""
    n = len(rows)
    rk = 0
    for col in range(ncols):
        if rk == n:
            break
        piv = next((r for r in range(rk, n) if rows[r][col] != 0), None)
        if piv is None:
            continue
        rows[rk], rows[piv] = rows[piv], rows[rk]
        inv = Fraction(1) / rows[rk][col]
        rows[rk] = [x * inv for x in rows[rk]]
        for r in range(n):
            if r != rk and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rk])]
        rk += 1
    return rk


def solve(a, rhs_cols):
    """Solve a @ X = B for square a; B given as a matrix of columns stacked
    row-wise (same row count as a). Returns X, or None if a is singular."""
    n = len(a)
    if n == 0:
        return ()
    aug = [list(a[i]) + list(rhs_cols[i]) for i in range(n)]
    if _eliminate(aug, n) < n:
        return None
    return tuple(tuple(row[n:]) for row in aug)


def inverse(a):
    return solve(a, identity(len(a)))


def rank(a):
    if not a or not a[0]:
        return 0
    return _eliminate([list(r) for r in a], len(a[0]))

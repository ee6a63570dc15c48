"""Small dense exact linear algebra over the rationals.

Matrices are tuples of tuples (immutable, hashable) of `Fraction`s, and
every result is exact. Sizes here are tiny (pairing blocks of
cohomology rings), so plain elimination is the right tool; it runs
fraction-free on integer rows (Bareiss, "Sylvester's identity and
multistep integer-preserving Gaussian elimination", Math. Comp. 1968),
and only the solutions are turned into `Fraction`s. `_integer_scaled`,
which scales rationals to integer numerators over one lcm, serves the
ring checks, the tensor fold and the correspondence joins as well.
"""

from fractions import Fraction
from math import lcm


def mat(rows):
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def _integer_scaled(values):
    """(L, an iterator over the ints L * v for v in values), L the lcm of their denominators."""
    ratios = [v.as_integer_ratio() for v in values]
    scale = lcm(*{d for _, d in ratios})
    return scale, iter([n * (scale // d) for n, d in ratios])


def _eliminate(rows, ncols):
    """Fraction-free Gauss-Jordan elimination in place on the first
    `ncols` columns of the integer row lists `rows`. Each pivot is the
    first nonzero entry at or below the current row, and is cleared from
    every other row. Returns the number r of pivots (the rank of those
    columns); rows[:r] are then the pivot rows, the pivot of each its
    only nonzero entry in the pivot columns, and all r pivots are equal.

    This is Bareiss's elimination carried on to the rows above the
    pivot: at pivot step t every other row x becomes
    (d_t * x - x[col] * pivot row) / d_(t-1), d_t the pivot (d_0 = 1),
    and the division is exact. A row whose entry in the pivot column is
    zero would only be multiplied by d_t / d_(t-1), so it is left as it
    is, and `level[r]` records the step whose state it holds; it is
    brought to the state of step t - 1, x * d_(t-1) / d_level, only when
    a later step touches it, which is again exact. At the end the pivot
    rows are brought to the last state, where every pivot is the last d.
    """
    n = len(rows)
    d = [1]  # d[t]: the pivot of step t
    level = [0] * n
    for col in range(ncols):
        rk = len(d) - 1
        if rk == n:
            break
        piv = next((r for r in range(rk, n) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rk], rows[piv] = rows[piv], rows[rk]
        level[rk], level[piv] = level[piv], level[rk]
        prev = d[rk]
        _catch_up(rows, level, d, rk)
        pivot_row = rows[rk]
        p = pivot_row[col]
        for r in range(n):
            if r != rk and rows[r][col]:
                _catch_up(rows, level, d, r)
                row = rows[r]
                f = row[col]
                rows[r] = [(p * x - f * y) // prev for x, y in zip(row, pivot_row)]
                level[r] = rk + 1
        level[rk] = rk + 1
        d.append(p)
    for r in range(len(d) - 1):
        _catch_up(rows, level, d, r)
    return len(d) - 1


def _catch_up(rows, level, d, r):
    """Bring row r from the state of step level[r] to that of the last
    finished step."""
    t = len(d) - 1
    if d[level[r]] != d[t]:
        rows[r] = [x * d[t] // d[level[r]] for x in rows[r]]
    level[r] = t


def solve(a, rhs_cols):
    """Solve a @ X = B for square a; B given as a matrix of columns stacked
    row-wise (same row count as a). Returns X, or None if a is singular."""
    n = len(a)
    if n == 0:
        return ()
    aug = [list(_integer_scaled([*a[i], *rhs_cols[i]])[1]) for i in range(n)]
    if _eliminate(aug, n) < n:
        return None
    d = aug[0][0]  # every pivot; the solution is the right-hand part over d
    exact = {x: Fraction(x, d) for x in {x for row in aug for x in row[n:]}}
    return tuple(tuple(exact[x] for x in row[n:]) for row in aug)


def inverse(a):
    n = len(a)
    return solve(a, [[int(i == j) for j in range(n)] for i in range(n)])


def rank(a):
    if not a or not a[0]:
        return 0
    return _eliminate([list(_integer_scaled(r)[1]) for r in a], len(a[0]))

"""Values the benchmark checks the program against, computed without it.

Every function here uses only integer arithmetic and closed formulas
from the literature; none of them imports the package under test.
"""

from fractions import Fraction
from math import factorial


def gaussian_binomial(n, k):
    """Coefficients of the Gaussian binomial [n choose k]_q, lowest
    power first, from [n, k] = [n-1, k-1] + q^k [n-1, k]."""
    if k < 0 or k > n:
        return [0]
    if k == 0 or k == n:
        return [1]
    left = gaussian_binomial(n - 1, k - 1)
    right = [0] * k + gaussian_binomial(n - 1, k)
    size = max(len(left), len(right))
    left += [0] * (size - len(left))
    right += [0] * (size - len(right))
    return [a + b for a, b in zip(left, right)]


def rectangle_tableaux(rows, cols):
    """Standard Young tableaux of a rows x cols rectangle, by the
    hook-length formula; equals the degree of the Plucker embedding."""
    hooks = 1
    for i in range(rows):
        for j in range(cols):
            hooks *= (cols - 1 - j) + (rows - 1 - i) + 1
    return factorial(rows * cols) // hooks


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def plane_curve_params(d):
    """N = d(d+3)/2: plane curves of degree d form a P^N."""
    return d * (d + 3) // 2


def plane_curve_betti(d):
    """Even Betti numbers of the universal degree-d plane curve, a
    P^(N-1)-bundle over P^2: (1+q+q^2)(1+...+q^(N-1))."""
    return poly_mul([1, 1, 1], [1] * plane_curve_params(d))


def plane_curve_degree(d):
    """Integral of (h1+h2)^(N+1) over the universal curve, a
    bidegree-(d, 1) hypersurface in P^2 x P^N: d(N+1) + N(N+1)/2."""
    n = plane_curve_params(d)
    return d * (n + 1) + n * (n + 1) // 2


def hypersurface_betti(n, middle_rank):
    """Betti numbers (by cohomological degree) of a hypersurface model
    in P^n with `middle_rank` primitive middle classes."""
    dim = n - 1
    betti = {2 * i: 1 for i in range(dim + 1)}
    betti[dim] = betti.get(dim, 0) + middle_rank
    return betti


def betti_from_poly(coeffs):
    return {2 * i: c for i, c in enumerate(coeffs) if c}


def projector_indices(betti):
    """Indices of the full decomposition of an even-below-the-middle
    ring: every nonzero degree off the middle, plus the middle itself."""
    dim = max(betti) // 2
    return sorted({t for t, b in betti.items() if b and t != dim} | {dim})


def report_size(n_indices, rank):
    """Entries of a verification report: idempotence per member,
    orthogonality per ordered pair, one completeness entry, and the
    graded action of each member on each basis class."""
    i = n_indices
    return i + i * (i - 1) + 1 + i * rank


def complete_homogeneous(values, j):
    """h_j(values), the complete homogeneous symmetric polynomial."""
    h = [Fraction(1)] + [Fraction(0)] * j
    for x in values:
        for k in range(1, j + 1):
            h[k] += x * h[k - 1]
    return h[j]

"""Closed-form dimension formulas.

Integer arithmetic only: nothing here builds a ring, so the
`formulas` command loads this module and none of the engine. Every
argument must be an int (a bool is not one), or InvalidSpec names it.
"""

from math import comb

from .errors import InvalidSpec, _require_int


def _fano_inputs(n, degrees, r):
    """(n, the degrees sorted, r), checked: ints with 0 <= r <= n, and
    a nonempty list of degrees >= 1."""
    degrees = tuple(sorted(_require_int(x, "each degree", 1) for x in degrees))
    if not degrees:
        raise InvalidSpec("degrees must be a nonempty list of positive integers")
    _require_int(n, "n"), _require_int(r, "r")
    if not 0 <= r <= n:
        raise InvalidSpec("fano_delta requires 0 <= r <= n")
    return n, degrees, r


def fano_delta(n, degrees, r):
    """The printed lower-bound formula for the dimension of the Fano
    scheme of r-planes on a complete intersection of the given degrees
    in P^n; the binomial term reads the largest degree only."""
    n, degrees, r = _fano_inputs(n, degrees, r)
    s = len(degrees)
    dmax = degrees[-1]
    return min((r + 1) * (n - r) - comb(dmax + r, r), n - 2 * r - s)


def fano_delta_notes(n, degrees, r):
    """Caveats accompanying fano_delta, as printable warning strings."""
    n, degrees, r = _fano_inputs(n, degrees, r)
    notes = []
    if len(degrees) > 1:
        notes.append(
            "warning: multidegree input — the formula's binomial term uses only the "
            "largest degree as printed; a per-degree sum is NOT assumed"
        )
    if (n, degrees, r) == (4, (3,), 1):
        notes.append(
            "warning: for lines on a cubic threefold the printed formula gives 1, "
            "while the classical Fano surface of lines is 2-dimensional; the printed "
            "value is reported unchanged"
        )
    return notes


def rep_variety_dim(g, n):
    """Dimension of the representation variety of a genus-g surface
    group into GL(n): (2g-1)n^2+1 for g>1, n^2+n for g=1."""
    _require_int(g, "g"), _require_int(n, "n")
    if g < 1 or n < 1:
        raise InvalidSpec("rep_variety_dim requires g >= 1 and n >= 1")
    if g == 1:
        return n * n + n
    return (2 * g - 1) * n * n + 1


def barth_range(n, d):
    """Largest degree through which the cohomology of a d-dimensional
    subvariety of P^n is pinned to the ambient one: 2d - n."""
    _require_int(n, "n"), _require_int(d, "d")
    if not 0 <= d <= n:
        raise InvalidSpec("barth_range requires 0 <= d <= n")
    return 2 * d - n

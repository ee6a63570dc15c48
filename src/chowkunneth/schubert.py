"""Exact Schubert calculus in the cohomology of a Grassmannian.

Partitions live inside a `max_rows x max_cols` box (for the space of
`k`-planes in an `n`-space: `k` rows, `n - k` columns). The product
table of a box is filled by Pieri recursion (Pieri's rule as in Fulton,
*Young Tableaux*, 1997). Write lam = (l, rest) with l its first part:
the rule gives s[l] * s[rest] = s[lam] + the sum of s[nu] over the other
partitions nu obtained from rest by adding a horizontal strip of l boxes,
and each such nu has the weight of lam and a first part larger than l.
So, with partitions taken in the order of `partitions_in_box` (by
weight, then by decreasing first part),

    s[lam] * s[mu] = Pieri_l(s[rest] * s[mu]) - sum over nu of s[nu] * s[mu]

reads only products already in the table. Partitions that leave the box
are dropped as soon as they appear, which is exact because the quotient
map onto the classes of the box is a ring homomorphism.
"""


def partition_label(lam):
    if not lam:
        return "1"
    return "s[" + ",".join(str(x) for x in lam) + "]"


def partitions_in_box(max_rows, max_cols):
    """All partitions with at most max_rows parts, each at most max_cols,
    ordered by weight and then by descending lexicographic order."""
    out = []

    def rec(prefix, cap):
        out.append(tuple(prefix))
        if len(prefix) == max_rows:
            return
        for p in range(min(cap, max_cols), 0, -1):
            prefix.append(p)
            rec(prefix, p)
            prefix.pop()

    rec([], max_cols)

    def key(lam):
        padded = lam + (0,) * (max_rows - len(lam))
        return (sum(lam), tuple(-x for x in padded))

    out.sort(key=key)
    return out


def pieri(lam, m, max_rows, max_cols):
    """Partitions obtained from lam by adding a horizontal strip of size
    m, kept inside the max_rows x max_cols box."""
    lam = tuple(lam)
    if m < 0:
        return []
    padded = list(lam) + [0] * (max_rows - len(lam))
    results = []
    built = []

    def rec(i, remaining):
        if i == max_rows:
            if remaining == 0:
                results.append(tuple(x for x in built if x))
            return
        lo = padded[i]
        hi = padded[i - 1] if i > 0 else max_cols
        hi = min(hi, lo + remaining)
        for mu_i in range(lo, hi + 1):
            built.append(mu_i)
            rec(i + 1, remaining - (mu_i - lo))
            built.pop()

    rec(0, m)
    return results


def multiply_partitions(lam, mu, max_rows, max_cols, table, strips):
    """The product s[lam] * s[mu] in the box, as {partition: coefficient},
    by one Pieri step.

    `table` holds s[kappa] * s[mu], keyed (kappa, mu), for every kappa
    before lam in the order of `partitions_in_box`; `strips` memoises
    `pieri`, keyed (partition, strip size). Both belong to one
    `product_table` call.
    """
    if not lam:
        return {mu: 1}
    first, rest = lam[0], lam[1:]

    def strip(rho):
        out = strips.get((rho, first))
        if out is None:
            out = strips[(rho, first)] = pieri(rho, first, max_rows, max_cols)
        return out

    acc = {}
    for rho, c in table[(rest, mu)].items():
        for nu in strip(rho):
            acc[nu] = acc.get(nu, 0) + c
    for kappa in strip(rest):
        if kappa != lam:
            for nu, c in table[(kappa, mu)].items():
                acc[nu] = acc.get(nu, 0) - c
    return {nu: c for nu, c in acc.items() if c}


def product_table(max_rows, max_cols):
    """{(lam, mu): s[lam] * s[mu]} over the pairs of partitions in the
    box whose weights add up to at most its area, row-major in the order
    of `partitions_in_box`, with int coefficients. The table and its
    `pieri` memo are built afresh on every call."""
    parts = partitions_in_box(max_rows, max_cols)
    area = max_rows * max_cols
    table, strips = {}, {}
    for lam in parts:
        room = area - sum(lam)
        for mu in parts:
            if sum(mu) > room:
                break  # parts are ordered by weight
            table[(lam, mu)] = multiply_partitions(lam, mu, max_rows, max_cols, table, strips)
    return table

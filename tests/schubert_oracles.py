"""Schubert product oracles, independent of the Pieri-recursive table.

`determinantal_product` expands the first factor as a determinant in
special classes (the Jacobi-Trudi identity, Fulton, *Young Tableaux*,
1997) and applies the horizontal-strip rule once per special factor,
with r! terms for a partition of r rows; `lr_multiply` counts lattice
skew semistandard tableaux. Both were the library's products before the
table was filled by Pieri recursion, and both now serve only to check it.
"""

from itertools import permutations

from chowkunneth.schubert import partitions_in_box, pieri


def validate_partition(lam):
    lam = tuple(int(x) for x in lam)
    if any(x <= 0 for x in lam):
        raise ValueError(f"partition parts must be positive: {lam}")
    if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
        raise ValueError(f"partition parts must be weakly decreasing: {lam}")
    return lam


def parse_partition_label(label):
    """The partition of a Schubert class label, the inverse of
    `schubert.partition_label`."""
    if label == "1":
        return ()
    if not (label.startswith("s[") and label.endswith("]")):
        raise ValueError(f"not a Schubert class label: {label!r}")
    return validate_partition(tuple(int(x) for x in label[2:-1].split(",")))


def perm_sign(perm):
    """The sign of a permutation of range(n), given as its tuple of images."""
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def determinantal_product(lam, mu, max_rows, max_cols):
    """Product of two Schubert classes as {partition: coefficient}.

    Expands the first factor as a determinant in special classes (rows
    of lam), drops special classes outside [0, max_cols], and applies
    the horizontal-strip rule once per special factor.
    """
    lam = validate_partition(lam)
    mu = validate_partition(mu)
    if len(lam) > max_rows or (lam and lam[0] > max_cols):
        return {}
    if len(mu) > max_rows or (mu and mu[0] > max_cols):
        return {}
    if not lam:
        return {mu: 1}
    r = len(lam)
    acc = {}
    for perm in permutations(range(r)):
        ms = [lam[i] - (i + 1) + (perm[i] + 1) for i in range(r)]
        if any(m < 0 or m > max_cols for m in ms):
            continue
        cur = {mu: perm_sign(perm)}
        for m in ms:
            if m == 0:
                continue
            nxt = {}
            for nu, c in cur.items():
                for rho in pieri(nu, m, max_rows, max_cols):
                    nxt[rho] = nxt.get(rho, 0) + c
            cur = nxt
        for nu, c in cur.items():
            acc[nu] = acc.get(nu, 0) + c
    return {nu: c for nu, c in acc.items() if c != 0}


def lr_coefficient(lam, mu, nu):
    """Littlewood-Richardson coefficient by direct tableau count:
    lattice skew semistandard fillings of nu/lam with content mu."""
    lam, mu, nu = validate_partition(lam), validate_partition(mu), validate_partition(nu)
    if sum(nu) != sum(lam) + sum(mu):
        return 0
    if len(lam) > len(nu):
        return 0
    lam_p = list(lam) + [0] * (len(nu) - len(lam))
    if any(lam_p[i] > nu[i] for i in range(len(nu))):
        return 0
    nvals = len(mu)
    if nvals == 0:
        return 1 if sum(nu) == sum(lam) else 0

    # Cells in reverse reading order: row by row, right to left, so every
    # constraint (row weak increase, column strictness, lattice word,
    # content) refers only to cells already placed.
    cells = []
    for r in range(len(nu)):
        for c in range(nu[r] - 1, lam_p[r] - 1, -1):
            cells.append((r, c))

    grid = {}
    counts = [0] * (nvals + 1)
    total = 0

    def rec(pos):
        nonlocal total
        if pos == len(cells):
            total += 1
            return
        r, c = cells[pos]
        hi = nvals
        right = grid.get((r, c + 1))
        if right is not None:
            hi = min(hi, right)
        lo = 1
        above = grid.get((r - 1, c))
        if above is not None:
            lo = max(lo, above + 1)
        for v in range(lo, hi + 1):
            if counts[v - 1] >= mu[v - 1]:
                continue
            if v > 1 and counts[v - 1] + 1 > counts[v - 2]:
                continue
            counts[v - 1] += 1
            grid[(r, c)] = v
            rec(pos + 1)
            del grid[(r, c)]
            counts[v - 1] -= 1

    rec(0)
    return total


def lr_multiply(lam, mu, max_rows, max_cols):
    """Independent product oracle: {nu in box: lr_coefficient}."""
    out = {}
    for nu in partitions_in_box(max_rows, max_cols):
        if sum(nu) != sum(lam) + sum(mu):
            continue
        c = lr_coefficient(lam, mu, nu)
        if c:
            out[nu] = c
    return out

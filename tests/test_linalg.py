"""Exact dense linear algebra, against the `Fraction` elimination it replaced."""

import random
from fractions import Fraction

from chowkunneth import linalg
import ring_oracles


def random_matrix(rng, n, m, lo=-4, hi=4):
    return linalg.mat(
        [[Fraction(rng.randint(lo, hi), rng.randint(1, 3)) for _ in range(m)]
         for _ in range(n)]
    )


def identity(n):
    return linalg.mat([[int(i == j) for j in range(n)] for i in range(n)])


def mat_mul(a, b):
    """The matrix product, for checking inverses."""
    return tuple(tuple(sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*b))
                 for row in a)


def test_mat_normalizes_to_fractions():
    m = linalg.mat([[1, "1/2"], [0.0, 3]])
    assert m == ((Fraction(1), Fraction(1, 2)), (Fraction(0), Fraction(3)))
    assert all(isinstance(x, Fraction) for row in m for x in row)


def test_identity_and_multiplication():
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randint(1, 5)
        a = random_matrix(rng, n, n)
        assert mat_mul(a, identity(n)) == a
        assert mat_mul(identity(n), a) == a


def test_multiplication_is_associative():
    rng = random.Random(12)
    for _ in range(20):
        n, m, k, l = (rng.randint(1, 4) for _ in range(4))
        a = random_matrix(rng, n, m)
        b = random_matrix(rng, m, k)
        c = random_matrix(rng, k, l)
        assert mat_mul(mat_mul(a, b), c) == mat_mul(a, mat_mul(b, c))


def test_inverse_of_random_invertible_matrices():
    rng = random.Random(14)
    produced = 0
    while produced < 20:
        n = rng.randint(1, 5)
        a = random_matrix(rng, n, n)
        inv = linalg.inverse(a)
        if inv is None:
            continue
        produced += 1
        assert mat_mul(a, inv) == identity(n)
        assert mat_mul(inv, a) == identity(n)


def test_singular_matrix_has_no_inverse():
    a = linalg.mat([[1, 2], [2, 4]])
    assert linalg.inverse(a) is None
    assert linalg.rank(a) == 1


def test_solve_against_known_system():
    a = linalg.mat([[2, 1], [1, 1]])
    b = linalg.mat([[3], [2]])
    assert linalg.solve(a, b) == ((Fraction(1),), (Fraction(1),))


def test_rank_of_outer_products():
    rng = random.Random(15)
    for _ in range(20):
        n, m = rng.randint(2, 5), rng.randint(2, 5)
        u = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
        v = [Fraction(rng.randint(-3, 3)) for _ in range(m)]
        a = linalg.mat([[ui * vj for vj in v] for ui in u])
        expected = 1 if any(u) and any(v) else 0
        assert linalg.rank(a) == expected


def test_rank_bounds_and_empty():
    assert linalg.rank(()) == 0
    assert linalg.rank(((Fraction(0),),)) == 0
    assert linalg.rank(identity(4)) == 4


def seeded_matrices(seed, count=300):
    """Seeded square and rectangular matrices up to 8 x 8: dense, sparse
    (most entries zero, often a signed permutation as pairing blocks
    are) and singular (one row a combination of two others)."""
    rng = random.Random(seed)
    for trial in range(count):
        n, m = rng.randint(1, 8), rng.randint(1, 8)
        kind = trial % 3
        if kind == 1 and rng.random() < 0.5:
            m = n
            perm = rng.sample(range(n), n)
            a = [[Fraction(rng.choice([-1, 1])) if perm[i] == j else Fraction(0)
                  for j in range(m)] for i in range(n)]
        else:
            density = 1.0 if kind == 0 else 0.25
            a = [[Fraction(rng.randint(-6, 6), rng.randint(1, 5)) if rng.random() < density
                  else Fraction(0) for _ in range(m)] for _ in range(n)]
        if kind == 2 and n > 2:
            x, y = Fraction(rng.randint(-3, 3), 2), Fraction(rng.randint(1, 3))
            a[-1] = [x * u + y * v for u, v in zip(a[0], a[1])]
        yield linalg.mat(a)


def test_fraction_free_elimination_matches_the_fraction_oracle():
    rng = random.Random(16)
    singular = 0
    for a in seeded_matrices(17):
        assert linalg.rank(a) == ring_oracles.rank(a), a
        if len(a) != len(a[0]):
            continue
        inv = linalg.inverse(a)
        assert inv == ring_oracles.inverse(a), a
        singular += inv is None
        b = [[Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(3)] for _ in a]
        x = linalg.solve(a, b)
        assert x == ring_oracles.solve(a, b), a
        if x is not None:
            assert all(type(v) is Fraction for row in (*inv, *x) for v in row)
    assert singular >= 20


def test_every_corpus_pairing_block_matches_the_fraction_oracle():
    from test_graded_ring import pairing_oracle_rings

    blocks = 0
    for name, ring in pairing_oracle_rings().items():
        for p in ring.degrees():
            q = ring.top_degree - p
            block = linalg.mat([[ring.pair_basis(i, j) for j in ring.degree_indices(q)]
                                for i in ring.degree_indices(p)])
            assert linalg.inverse(block) == ring_oracles.inverse(block), (name, p)
            assert linalg.rank(block) == ring_oracles.rank(block) == len(block), (name, p)
            blocks += 1
    assert blocks > 50

"""Light's associativity test against the full triple loop.

The construction check verifies associativity only with a middle factor
from a generating set found degree by degree. The O(n^3) loop over every
basis triple, which the check used before, is kept here as the oracle:
both must give the same verdict on every ring of the acceptance corpus,
on G(4,8), on seeded perturbations of their structure constants, and on
rescaled copies whose constants have mixed denominators (the check runs
on the table scaled to integers). The check also takes the last factor
of a triple only from the first factor's index on, which graded
commutativity makes enough; on every one of those tables it must give
the (ok, detail) of Light's test with the last factor over every basis
class, so it names the same failing triple. On each of those tables all
the checks give the same verdicts whether handed the `Fraction` table
or its integer numerators, as a ring stores them.
"""

import random
from fractions import Fraction

from chowkunneth import spaces
from chowkunneth.graded_ring import (
    GradedBasisRing,
    _generators,
    _integer_table,
    _product,
    run_ring_checks,
)
from test_acceptance import corpus_rings
import ring_oracles


def full_associativity(dim, basis, structure):
    """First basis triple (i, j, k) with (e_i*e_j)*e_k != e_i*(e_j*e_k)
    inside the top degree, or None when there is none."""
    n = len(basis)
    top = 2 * dim
    deg = [d for _, d in basis]

    def prod(i, j):
        return structure.get((i, j), {})

    def combine(vec, product):
        out = {}
        for m, c in vec.items():
            for t, s in product(m).items():
                out[t] = out.get(t, Fraction(0)) + c * s
        return {t: c for t, c in out.items() if c != 0}

    for i in range(n):
        for j in range(n):
            if deg[i] + deg[j] > top:
                continue
            ij = prod(i, j)
            for k in range(n):
                if deg[i] + deg[j] + deg[k] > top:
                    continue
                left = combine(ij, lambda m: prod(m, k))
                right = combine(prod(j, k), lambda m: prod(i, m))
                if left != right:
                    return (i, j, k)
    return None


def light_full_loop(dim, basis, structure):
    """(ok, detail) of Light's test with the last factor running over
    every basis class, where the construction check takes only the
    classes from the first factor's index on."""
    n = len(basis)
    top = 2 * dim
    deg = [d for _, d in basis]
    labels = [label for label, _ in basis]

    def prod(i, j):
        return structure.get((i, j), {})

    for s in _generators(deg, prod):
        for i in range(n):
            if deg[i] + deg[s] > top:
                continue
            for k in range(n):
                if deg[i] + deg[s] + deg[k] > top:
                    continue
                if _product(structure, prod(i, s), {k: 1}) != _product(
                        structure, {i: 1}, prod(s, k)):
                    return False, f"associativity fails on ({labels[i]}, {labels[s]}, {labels[k]})"
    return True, ""


def light_verdict(ring, structure):
    """The associativity verdict of the construction checks, which must
    equal the full loop's verdict and name the same triple; every check
    before it must pass, so that it is reached."""
    for name, ok, detail in run_ring_checks(
        ring.dim, ring.basis, structure, ring.integration
    ):
        if name == "associativity":
            assert ok == (detail == "")
            assert (ok, detail) == light_full_loop(ring.dim, ring.basis, structure)
            return ok
        assert ok, f"{name} failed before associativity: {detail}"
    raise AssertionError("associativity check not reached")


def perturbations(ring, count, seed):
    """Seeded copies of the structure table, each with one product
    e_i*e_j of positive-degree classes shifted by a rational multiple of
    a class of the right degree, mirrored onto e_j*e_i with the graded
    sign, so grading, unit and graded commutativity still hold."""
    rng = random.Random(seed)
    deg = [d for _, d in ring.basis]
    top = 2 * ring.dim
    pairs = [
        (i, j)
        for i in range(len(deg))
        for j in range(i, len(deg))
        if deg[i] and deg[j] and deg[i] + deg[j] <= top
        and ring.degree_indices(deg[i] + deg[j])
        and not (i == j and deg[i] % 2)
    ]
    for _ in range(count if pairs else 0):
        i, j = rng.choice(pairs)
        k = rng.choice(ring.degree_indices(deg[i] + deg[j]))
        c = Fraction(rng.choice([-2, -1, 1, 2]), rng.choice([1, 2, 3]))
        sign = -1 if deg[i] % 2 and deg[j] % 2 else 1
        structure = {key: dict(prod) for key, prod in ring.structure.items()}
        for a, b, s in {(i, j, 1), (j, i, sign)}:
            entry = structure.setdefault((a, b), {})
            entry[k] = entry.get(k, Fraction(0)) + s * c
        yield structure


def extra_rings():
    """Rings with generators in degrees other than 2: primitive middle
    classes in degrees 1, 4 and 5, and a point blow-up of P^3."""
    return {
        "plane cubic, 2 primitives": spaces.hypersurface_model(2, 3, 2),
        "cubic fourfold, 2 primitives": spaces.hypersurface_model(5, 3, 2),
        "quadric fivefold, 2 primitives": spaces.hypersurface_model(6, 2, 2),
        "P^3 blown up at a point": spaces.blowup(
            spaces.projective_space(3),
            spaces.projective_space(0),
            3,
            {"1": {"h^3": 1}},
            normal_chern={1: {}, 2: {}, 3: {}},
        ),
    }


def oracle_rings():
    rings = {spaces.canonical_spec_key(r.space): r for r in corpus_rings()}
    rings.update(extra_rings())
    return rings


def must_break(ring):
    """Whether some mirrored perturbation must be rejected. Exempt are
    rings where every product of two positive-degree classes lands in
    the top degree (P^1, P^2 and its blow-up, curves, surfaces), and
    rings of rank at most one in every degree where no triple of
    positive-degree classes stays below the top degree (P^3, the quadric
    threefold): no single perturbation makes those non-associative."""
    top = 2 * ring.dim
    low = min(d for _, d in ring.basis if d)
    if 2 * low >= top:
        return False
    return 3 * low < top or any(ring.rank(d) > 1 for d in ring.degrees())


def test_generators_span_other_degrees():
    degrees = {
        name: sorted(ring.basis[g][1] for g in _generators(
            [d for _, d in ring.basis], lambda i, j, r=ring: r.structure.get((i, j), {})
        ))
        for name, ring in extra_rings().items()
    }
    assert degrees == {
        "plane cubic, 2 primitives": [1, 1],
        "cubic fourfold, 2 primitives": [2, 4, 4],
        "quadric fivefold, 2 primitives": [2, 5, 5],
        "P^3 blown up at a point": [2, 2],
    }
    G25 = spaces.grassmannian(2, 5)
    gens = _generators([d for _, d in G25.basis], lambda i, j: G25.structure.get((i, j), {}))
    assert [G25.basis[g][1] for g in gens] == [2, 4]


def test_same_verdict_on_corpus_and_grassmannian():
    rings = list(oracle_rings().values()) + [spaces.grassmannian(4, 8)]
    for ring in rings:
        assert light_verdict(ring, ring.structure)
        assert full_associativity(ring.dim, ring.basis, ring.structure) is None


def test_same_verdict_on_perturbed_tables():
    required = 0
    for seed, (name, ring) in enumerate(sorted(oracle_rings().items())):
        rejected = 0
        for structure in perturbations(ring, 30, seed):
            light = light_verdict(ring, structure)
            oracle = full_associativity(ring.dim, ring.basis, structure) is None
            assert light == oracle, name
            rejected += not light
        if must_break(ring):
            required += 1
            assert rejected, f"no perturbation of {name} was rejected"
    assert required == 12


def rescaled(ring, seed):
    """The ring in the basis l_i e_i for seeded rationals l_i (1 on the
    unit): its constants l_i l_j / l_k c_ijk carry mixed denominators,
    which the integer form of Light's test must clear exactly."""
    rng = random.Random(seed)
    lam = [Fraction(1) if d == 0 else Fraction(rng.choice([1, 2, 3, 5]), rng.choice([1, 2, 3, 7]))
           for _, d in ring.basis]
    structure = {
        (i, j): {k: lam[i] * lam[j] / lam[k] * c for k, c in prod.items()}
        for (i, j), prod in ring.structure.items()
    }
    integration = {k: lam[k] * c for k, c in ring.integration.items()}
    return GradedBasisRing(ring.dim, ring.basis, structure, integration)


def test_same_verdict_on_rescaled_tables():
    mixed = 0
    for seed, (name, ring) in enumerate(sorted(oracle_rings().items())):
        X = rescaled(ring, seed)
        mixed += len({c.denominator for p in X.structure.values() for c in p.values()}) > 2
        assert light_verdict(X, X.structure), name
        for structure in perturbations(X, 8, seed):
            light = light_verdict(X, structure)
            assert light == (full_associativity(X.dim, X.basis, structure) is None), name
    assert mixed >= 12


def test_odd_class_times_its_own_product_is_rejected():
    """For an odd class x the triple (x, s, x) asks x*(x*s) = 0. On the
    plane cubic times P^1, a table with m1*(m1*h) equal to the point
    class, mirrored with the graded sign so the checks before
    associativity still pass, is rejected, naming the full loop's
    triple."""
    ring = extra_rings()["plane cubic, 2 primitives"]
    X = spaces.product_space(ring, spaces.projective_space(1))
    x, h, xh, point = (X.label_index[label]
                       for label in ("m1 # 1", "1 # h", "m1 # h", "1* # h"))
    assert X.structure[(x, h)] == {xh: 1}
    structure = {key: dict(prod) for key, prod in X.structure.items()}
    structure[(x, xh)] = {point: Fraction(1)}
    structure[(xh, x)] = {point: Fraction(-1)}
    assert not light_verdict(X, structure)


def same_verdicts(ring, structure):
    """The (name, ok, detail) list of the checks on a `Fraction` table,
    which must equal the one on its integer numerators."""
    rational = list(run_ring_checks(ring.dim, ring.basis, structure, ring.integration))
    integer = list(run_ring_checks(ring.dim, ring.basis, _integer_table(structure),
                                   ring.integration))
    assert rational == integer
    return rational


def test_fraction_and_integer_tables_give_the_same_verdicts():
    """On the corpus rings, G(4,8), their rescaled copies and seeded
    perturbations of both, every negative control fails alike."""
    rings = sorted(oracle_rings().items()) + [("G(4,8)", spaces.grassmannian(4, 8))]
    failed = set()
    for seed, (name, ring) in enumerate(rings):
        X = rescaled(ring, seed)
        count = 2 if name == "G(4,8)" else 8
        for R in (ring, X):
            tables = [ring_oracles.fraction_table(R), *perturbations(R, count, seed)]
            for structure in tables:
                verdicts = same_verdicts(R, structure)
                failed.update(check for check, ok, _ in verdicts if not ok)
    assert {"associativity", "pairing_nondegeneracy"} <= failed

"""Graded basis rings: axioms, pairing, duals, maps, tensor products."""

import ast
import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest

from chowkunneth import graded_ring, spaces
from chowkunneth.errors import (
    DegeneratePairing,
    InvalidSpec,
    NotRingMap,
    RingAxiomError,
    RingMismatch,
)
from chowkunneth.graded_ring import (
    ClassVector,
    GradedBasisRing,
    RingMap,
    _integer_table,
    run_ring_checks,
    tensor_ring,
)
import ring_oracles
from ring_oracles import fraction_partners


def plane_ring():
    """Rank-3 ring 1, h, h^2 with h^3 = 0 and integral of h^2 = 1."""
    basis = [("1", 0), ("h", 2), ("h^2", 4)]
    structure = {
        (0, 0): {0: 1}, (0, 1): {1: 1}, (0, 2): {2: 1},
        (1, 0): {1: 1}, (1, 1): {2: 1}, (1, 2): {},
        (2, 0): {2: 1}, (2, 1): {}, (2, 2): {},
    }
    return GradedBasisRing(2, basis, structure, {2: 1})


def curve_ring():
    """Rank-4 ring of complex dimension 1 with two odd classes a, b in
    degree 1 pairing antisymmetrically: a*b = pt = -b*a."""
    basis = [("1", 0), ("a", 1), ("b", 1), ("pt", 2)]
    structure = {
        (0, 0): {0: 1}, (0, 1): {1: 1}, (0, 2): {2: 1}, (0, 3): {3: 1},
        (1, 0): {1: 1}, (2, 0): {2: 1}, (3, 0): {3: 1},
        (1, 2): {3: 1}, (2, 1): {3: -1},
    }
    return GradedBasisRing(1, basis, structure, {3: 1})


def line_ring():
    """Rank-2 ring 1, h of P^1."""
    return GradedBasisRing(1, [("1", 0), ("h", 2)],
                           {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}}, {1: 1})


def curve_times_line():
    """The curve ring times P^1: odd classes in degrees 1 and 3, whose
    pairing block is the degree-1 block transposed and negated."""
    return tensor_ring([curve_ring(), line_ring()])


def stored_checks(ring):
    """The construction checks re-run on a ring's stored table: their
    (check, ok, detail) list."""
    return list(run_ring_checks(ring.dim, ring.basis, ring._table, ring.integration))


# -- construction axioms --------------------------------------------------------


def test_all_checks_pass_on_valid_ring():
    ring = plane_ring()
    assert all(ok for _, ok, _ in stored_checks(ring))
    names = [name for name, _, _ in stored_checks(ring)]
    assert names == [
        "basis_shape", "grading", "unit", "graded_commutativity",
        "associativity", "integration_support", "pairing_nondegeneracy",
    ]


def test_duplicate_labels_rejected():
    with pytest.raises(RingAxiomError) as err:
        GradedBasisRing(1, [("1", 0), ("1", 2)], {(0, 0): {0: 1}}, {1: 1})
    assert err.value.check == "basis_shape"


def test_missing_unit_rejected():
    with pytest.raises(RingAxiomError) as err:
        GradedBasisRing(1, [("a", 2)], {}, {0: 1})
    assert err.value.check == "basis_shape"


@pytest.mark.parametrize("dim, basis", [
    (1, [("1", 0), ("h", 2.2)]),
    (1.5, [("1", 0), ("h", 2)]),
    (1, [("1", 0), (1, 2)]),
    (True, [("1", 0), ("h", 2)]),
], ids=["degree 2.2", "dim 1.5", "label 1", "dim True"])
def test_raw_data_of_the_wrong_type_fails_basis_shape_on_both_paths(dim, basis):
    # P^1's table under a dim, degree or label that is not an int or a
    # str: the checks and the constructor both refuse it at basis_shape,
    # where the constructor used to coerce it and build P^1
    structure, integration = {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}}, {1: 1}
    assert GradedBasisRing(1, [("1", 0), ("h", 2)], structure, integration).betti() == {0: 1, 2: 1}
    verdicts = list(run_ring_checks(dim, basis, structure, integration))
    assert [(name, ok) for name, ok, _ in verdicts] == [("basis_shape", False)]
    with pytest.raises(RingAxiomError) as err:
        GradedBasisRing(dim, basis, structure, integration)
    assert (err.value.check, str(err.value)) == ("basis_shape", verdicts[0][2])


def test_grading_violation_rejected():
    basis = [("1", 0), ("h", 2), ("h^2", 4)]
    structure = {
        (0, 0): {0: 1}, (0, 1): {1: 1}, (0, 2): {2: 1},
        (1, 0): {1: 1}, (1, 1): {1: 1},  # h*h lands in degree 2: wrong
        (2, 0): {2: 1},
    }
    with pytest.raises(RingAxiomError) as err:
        GradedBasisRing(2, basis, structure, {2: 1})
    assert err.value.check == "grading"


def test_broken_unit_rejected():
    basis = [("1", 0), ("h", 2), ("h^2", 4)]
    structure = {
        (0, 0): {0: 1}, (0, 1): {1: 2}, (0, 2): {2: 1},
        (1, 0): {1: 1}, (1, 1): {2: 1}, (2, 0): {2: 1},
    }
    with pytest.raises(RingAxiomError) as err:
        GradedBasisRing(2, basis, structure, {2: 1})
    assert err.value.check == "unit"


def test_commutativity_violation_rejected():
    ring = curve_ring()
    structure = dict(ring.structure)
    structure[(2, 1)] = {3: Fraction(1)}  # should be -1 for odd classes
    with pytest.raises(RingAxiomError) as err:
        GradedBasisRing(1, ring.basis, structure, ring.integration)
    assert err.value.check == "graded_commutativity"


def test_associativity_violation_rejected():
    # (x*x)*y = X*y = 0 while x*(x*y) = x*Y = t
    basis = [("1", 0), ("x", 2), ("y", 2), ("X", 4), ("Y", 4), ("t", 6)]
    structure = {
        (0, 0): {0: 1}, (0, 1): {1: 1}, (0, 2): {2: 1},
        (0, 3): {3: 1}, (0, 4): {4: 1}, (0, 5): {5: 1},
        (1, 0): {1: 1}, (2, 0): {2: 1}, (3, 0): {3: 1},
        (4, 0): {4: 1}, (5, 0): {5: 1},
        (1, 1): {3: 1}, (1, 2): {4: 1}, (2, 1): {4: 1},
        (1, 4): {5: 1}, (4, 1): {5: 1},
    }
    with pytest.raises(RingAxiomError) as err:
        GradedBasisRing(3, basis, structure, {5: 1})
    assert err.value.check == "associativity"


def test_integration_support_violation_rejected():
    basis = [("1", 0), ("h", 2), ("h^2", 4)]
    structure = {
        (0, 0): {0: 1}, (0, 1): {1: 1}, (0, 2): {2: 1},
        (1, 0): {1: 1}, (1, 1): {2: 1}, (2, 0): {2: 1},
    }
    with pytest.raises(RingAxiomError) as err:
        GradedBasisRing(2, basis, structure, {1: 1, 2: 1})
    assert err.value.check == "integration_support"


def test_rank_mismatch_between_complementary_degrees():
    basis = [("1", 0), ("x", 2), ("y", 2), ("pt", 4)]
    structure = {
        (0, 0): {0: 1}, (0, 1): {1: 1}, (0, 2): {2: 1}, (0, 3): {3: 1},
        (1, 0): {1: 1}, (2, 0): {2: 1}, (3, 0): {3: 1},
        (1, 1): {3: 1}, (2, 2): {3: 1}, (1, 2): {}, (2, 1): {},
    }
    ring = GradedBasisRing(2, basis, structure, {3: 1})
    assert ring.rank(2) == 2
    # at dimension 3 the same data has no degree-6 partner for degree 0
    with pytest.raises(DegeneratePairing):
        GradedBasisRing(3, basis, structure, {})


def test_singular_pairing_rejected():
    basis = [("1", 0), ("h", 2), ("h^2", 4)]
    structure = {
        (0, 0): {0: 1}, (0, 1): {1: 1}, (0, 2): {2: 1},
        (1, 0): {1: 1}, (1, 1): {}, (2, 0): {2: 1},
    }
    with pytest.raises(DegeneratePairing):
        GradedBasisRing(2, basis, structure, {2: 1})


def test_run_ring_checks_reports_rather_than_raises():
    basis = [("1", 0), ("h", 2), ("h^2", 4)]
    structure = {
        (0, 0): {0: 1}, (0, 1): {1: 2}, (0, 2): {2: 1},
        (1, 0): {1: 1}, (1, 1): {2: 1}, (2, 0): {2: 1},
    }
    report = list(run_ring_checks(2, [(l, d) for l, d in basis],
                                  {k: {i: Fraction(c) for i, c in v.items()}
                                   for k, v in structure.items()},
                                  {2: Fraction(1)}))
    by_name = {name: ok for name, ok, _ in report}
    assert by_name["basis_shape"] and by_name["grading"] and not by_name["unit"]


# -- queries, classes, arithmetic ------------------------------------------------


def test_degree_bookkeeping():
    ring = plane_ring()
    assert ring.top_degree == 4
    assert ring.degrees() == (0, 2, 4)
    assert ring.betti() == {0: 1, 2: 1, 4: 1}
    assert ring.rank(2) == 1 and ring.rank(3) == 0
    assert ring.degree_indices(4) == (2,)


def test_class_construction_and_arithmetic():
    ring = plane_ring()
    h = ring.basis_class("h")
    assert ring.basis_vector(1) == h
    assert ring.unit() == ring.basis_class("1")
    v = h + h.scale("1/2")
    assert v.label_dict() == {"h": Fraction(3, 2)}
    assert (v - v).is_zero()
    assert (2 * h).label_dict() == {"h": Fraction(2)}
    assert (h * h).label_dict() == {"h^2": Fraction(1)}
    assert (h * h).integrate() == 1
    assert h.integrate() == 0


def test_from_label_dict_requires_homogeneity():
    ring = plane_ring()
    v = ring.from_label_dict({"h": "2/3"})
    assert v.degree == 2 and v.label_dict() == {"h": Fraction(2, 3)}
    with pytest.raises(ValueError):
        ring.from_label_dict({"1": 1, "h": 1})
    with pytest.raises(InvalidSpec, match=r"^unknown basis labels \['nope'\]$"):
        ring.from_label_dict({"nope": 1})


def test_zero_coefficients_count_toward_the_degree():
    ring = plane_ring()
    assert ring.from_label_dict({"h": "0"}) == ring.zero(2)
    assert ring.from_label_dict({}, degree=4) == ring.zero(4)
    with pytest.raises(InvalidSpec, match="^class is not homogeneous$"):
        ring.from_label_dict({"h": 1, "h^2": 0})
    with pytest.raises(InvalidSpec, match="^expected classes of degree 4$"):
        ring.from_label_dict({"h^2": 1, "h": 0}, degree=4)
    for empty in ({}, [], "h"):
        with pytest.raises(InvalidSpec, match="^expected a nonempty object of label"):
            ring.from_label_dict(empty)


@pytest.mark.parametrize("value", [0.1, 0.5, 1.0, True])
def test_library_classes_refuse_floats_and_bools(value):
    """As documents do: `from_label_dict({"h": 0.1})` once built
    (3602879701896397/36028797018963968)*h."""
    ring = plane_ring()
    h = ring.basis_class("h")
    for call in (lambda: ring.from_label_dict({"h": value}),
                 lambda: ClassVector(ring, 2, {1: value}),
                 lambda: h.scale(value), lambda: value * h):
        with pytest.raises(InvalidSpec, match=f"expected an exact rational string, got {value}$"):
            call()


def test_class_degree_mismatch_and_ring_mismatch():
    ring = plane_ring()
    other = curve_ring()
    with pytest.raises(ValueError):
        ring.basis_class("1") + ring.basis_class("h")
    with pytest.raises(RingMismatch):
        ring.basis_class("h") + other.basis_class("a")
    with pytest.raises(ValueError):
        ClassVector(ring, 2, {2: Fraction(1)})


def test_multiply_respects_odd_sign():
    ring = curve_ring()
    a, b = ring.basis_class("a"), ring.basis_class("b")
    assert ring.multiply(a, b).label_dict() == {"pt": Fraction(1)}
    assert ring.multiply(b, a).label_dict() == {"pt": Fraction(-1)}
    assert ring.multiply(a, a).is_zero()


# -- pairing and duals ------------------------------------------------------------


def test_pair_basis_and_partners():
    ring = plane_ring()
    assert ring.pair_basis(1, 1) == 1
    assert ring.pair_basis(0, 2) == 1
    assert ring.pair_basis(0, 1) == 0
    assert fraction_partners(ring, 1) == ((1, Fraction(1)),)
    assert fraction_partners(ring, 0) == ((2, Fraction(1)),)


def oracle_pairing(ring):
    """The nonzero integrals of e_a * e_b by a scan of the whole
    structure table, as rings computed them before the pairing check
    filled their table: the oracle for `pair_basis` and the partner
    rows."""
    values = {}
    for (a, b), prod in ring.structure.items():
        if ring.basis[a][1] + ring.basis[b][1] != ring.top_degree:
            continue
        val = sum((c * ring.integration.get(k, Fraction(0)) for k, c in prod.items()),
                  Fraction(0))
        if val != 0:
            values[(a, b)] = val
    return values


def pairing_oracle_rings():
    from test_acceptance import corpus_rings
    from test_golden_outputs import SPACES

    from chowkunneth import spaces

    E = spaces.ci_model(spaces.projective_space(2), {"h": 3}, 2)
    rings = {spaces.canonical_spec_key(r.space): r for r in corpus_rings()}
    rings.update({name: spaces.build_space(spec) for name, spec in SPACES.items()})
    rings.update({
        "G(4,8)": spaces.grassmannian(4, 8),
        "E": E,
        "E x P1": spaces.product_space(E, spaces.projective_space(1)),
        "E x E": spaces.product_space(E, E),
        "curve x line": curve_times_line(),
    })
    return rings


def test_pairing_table_matches_the_structure_scan():
    for name, ring in pairing_oracle_rings().items():
        want = oracle_pairing(ring)
        n = len(ring.basis)
        for j in range(n):
            row = sorted((k, v) for (a, k), v in want.items() if a == j)
            assert list(fraction_partners(ring, j)) == row, (name, j)
        assert ring._integrals == want, name
        for a, b in itertools.product(range(n), repeat=2):
            assert ring.pair_basis(a, b) == want.get((a, b), 0), (name, a, b)


def test_tensor_fold_matches_the_fraction_fold():
    """On every product among the pairing oracle rings, the integer fold
    gives the structure table of the `Fraction` fold, in the same key
    order at both levels."""
    rings = {name: ring for name, ring in pairing_oracle_rings().items()
             if "factors" in ring.parts}
    assert len(rings) >= 6
    for name, ring in rings.items():
        want = ring_oracles.fraction_tensor_table(ring.parts["factors"])
        assert [(ij, list(p.items())) for ij, p in ring.structure.items()] == [
            (ij, list(p.items())) for ij, p in want.items()], name


def test_pairing_and_inverses_match_the_dense_fraction_integration():
    for name, ring in pairing_oracle_rings().items():
        pairing, inverses = ring_oracles.dense_pairing(ring)
        assert ring._integrals == pairing, name
        assert ring._inverses == inverses, name


def test_ring_data_is_exact():
    """No structure coefficient, integral, pairing value or inverse entry
    of a corpus ring, a product or G(4,8) is a float."""
    for name, ring in pairing_oracle_rings().items():
        values = [c for p in ring.structure.values() for c in p.values()]
        values += list(ring.integration.values()) + list(ring._integrals.values())
        values += [c for inv in ring._inverses.values() for row in inv for c in row]
        values += [c for p in ring.degrees() for v in ring.dual_basis(p)
                   for c in v.coeffs.values()]
        assert all(type(c) in (Fraction, int) for c in values), name


def test_stored_table_is_the_fraction_table_on_canonical_numerators():
    """Each ring keeps its table on integer numerators over the lcm of
    the reduced denominators of its constants, in the order of its
    `Fraction` table, which `structure` shows; products among them, whose
    fold multiplies the factors' denominators, too."""
    for name, ring in pairing_oracle_rings().items():
        want = ring_oracles.fraction_table(ring)
        table = _integer_table(want)
        assert list(ring._table.items()) == list(table.items()), name
        assert ring._table.denominator == table.denominator, name
        assert list(ring.structure.items()) == list(want.items()), name
        assert all(type(n) is int and n for p in ring._table.values() for n in p.values())
    X = spaces.ci_model(spaces.projective_space(3), {"h": 3}, 2, [["1/2", "0"], ["0", "1/3"]])
    XxX = spaces.product_space(X, X)
    assert (X._table.denominator, XxX._table.denominator) == (6, 36)
    assert _integer_table(ring_oracles.fraction_table(XxX)).denominator == 36
    assert XxX.structure is XxX.structure


def test_both_tables_give_the_same_verdicts():
    """`run_ring_checks` on a ring's `Fraction` table and on its stored
    integer table: the same (name, ok, detail) list, and the same
    pairing and inverses."""
    for name, ring in pairing_oracle_rings().items():
        rational = list(run_ring_checks(ring.dim, ring.basis,
                                        ring_oracles.fraction_table(ring), ring.integration))
        stored = stored_checks(ring)
        assert rational == stored and all(ok for _, ok, _ in stored), name
        assert (rational[-1].pairing, rational[-1].inverses) == (
            stored[-1].pairing, stored[-1].inverses), name


def test_multiply_matches_the_fraction_product():
    """`multiply` on seeded classes of mixed denominators, against the
    product over the `Fraction` table."""
    rng = random.Random(5)

    def random_class(ring, d):
        return ClassVector(ring, d, {i: Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                                     for i in ring.degree_indices(d)})

    for name, ring in pairing_oracle_rings().items():
        structure = ring_oracles.fraction_table(ring)
        for _ in range(12):
            a, b = (random_class(ring, rng.choice(ring.degrees())) for _ in range(2))
            got = ring.multiply(a, b)
            assert got.coeffs == ring_oracles.fraction_product(structure, a.coeffs, b.coeffs), name


def test_builds_hold_no_fraction_table():
    """Building G(4,8), a product and a ci_model from an empty cache
    leaves every ring built with its integer table alone: no
    `Fraction` view, and int entries."""
    cache = dict(spaces._CACHE)
    spaces._CACHE.clear()
    try:
        G = spaces.grassmannian(4, 8)
        rings = [G, spaces.product_space(G, spaces.projective_space(2)),
                 spaces.plane_curve_family(4)]
        rings.append(rings[-1].parts["restrict_map"].source)
        for ring in rings:
            assert ring._structure is None, ring
            assert ring._table.denominator == 1, ring
            assert all(type(n) is int for p in ring._table.values() for n in p.values()), ring
            assert ring.structure is ring._table
    finally:
        spaces._CACHE.clear()
        spaces._CACHE.update(cache)


def test_dual_basis_is_dual():
    for ring in (plane_ring(), curve_ring(), curve_times_line()):
        for p in ring.degrees():
            idx = ring.degree_indices(p)
            duals = ring.dual_basis(p)
            for a, i in enumerate(idx):
                e = ring.basis_vector(i)
                for b in range(len(idx)):
                    got = ring.integrate(ring.multiply(e, duals[b]))
                    assert got == (1 if a == b else 0)


def test_point_class_integrates_to_one():
    for ring in (plane_ring(), curve_ring()):
        assert ring.integrate(ring.point()) == 1
        assert ring.point().degree == ring.top_degree


def test_structural_equality_ignores_description():
    r1, r2 = plane_ring(), plane_ring()
    assert r1 == r2 and r1 is not r2
    assert hash(r1) == hash(r2)
    r3 = GradedBasisRing(
        r1.dim, r1.basis, r1.structure, r1.integration, space={"kind": "x"}
    )
    assert r3 == r1


def private_slot_writes(source, slots):
    """(line, target, slot) for each write of an attribute named in
    `slots` on a target other than `self`: `x.slot = ...` alone, in a
    chain, unpacked or augmented, and `setattr(x, "slot", ...)`."""
    found = []

    def targets(node):
        if isinstance(node, (ast.Tuple, ast.List)):
            for element in node.elts:
                yield from targets(element)
        elif isinstance(node, ast.Starred):
            yield from targets(node.value)
        else:
            yield node

    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Assign):
            written = [t for target in node.targets for t in targets(target)]
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            written = list(targets(node.target))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "setattr" and len(node.args) >= 2
              and isinstance(node.args[1], ast.Constant) and node.args[1].value in slots):
            if not (isinstance(node.args[0], ast.Name) and node.args[0].id == "self"):
                found.append((node.lineno, ast.unparse(node.args[0]), node.args[1].value))
            continue
        else:
            continue
        for t in written:
            if (isinstance(t, ast.Attribute) and t.attr in slots
                    and not (isinstance(t.value, ast.Name) and t.value.id == "self")):
                found.append((t.lineno, ast.unparse(t.value), t.attr))
    return found


def test_only_graded_ring_writes_private_ring_slots():
    """No module but `graded_ring` assigns a private slot of a ring."""
    slots = {slot for slot in GradedBasisRing.__slots__ if slot.startswith("_")}
    found = [(path.name, *write)
             for path in sorted(Path(graded_ring.__file__).parent.glob("*.py"))
             if path.name != "graded_ring.py"
             for write in private_slot_writes(path.read_text(encoding="utf-8"), slots)]
    assert not found


def test_the_slot_guard_finds_writes_from_outside():
    source = (
        "def diagonal(X, Y):\n"
        "    X._diagonal = terms\n"
        "    self._diagonal = Y.parts['k'] = Y._inverses[0] = 1\n"
        "    a, (Y._inverses, *X._table) = 1, (2, 3)\n"
        "    X._partners += 1\n"
        "    setattr(Y, '_diagonal', 0)\n"
        "    setattr(self, '_diagonal', 0)\n"
        "    X._rows = Y.basis = 0\n"
    )
    slots = {"_diagonal", "_inverses", "_table", "_partners"}
    assert private_slot_writes(source, slots) == [
        (2, "X", "_diagonal"), (4, "Y", "_inverses"), (4, "X", "_table"),
        (5, "X", "_partners"), (6, "Y", "_diagonal"),
    ]


# -- ring maps ---------------------------------------------------------------------


def test_identity_ring_map():
    ring = plane_ring()
    q = RingMap(ring, ring, [ring.basis_vector(i) for i in range(3)])
    h = ring.basis_class("h")
    assert q.apply(h) == h


def test_ring_map_degree_violation():
    ring = plane_ring()
    images = [ring.unit(), ring.unit(), ring.basis_class("h^2")]
    with pytest.raises(NotRingMap):
        RingMap(ring, ring, images)


def test_ring_map_unit_violation():
    ring = plane_ring()
    images = [ring.unit().scale(2), ring.basis_class("h"), ring.basis_class("h^2")]
    with pytest.raises(NotRingMap):
        RingMap(ring, ring, images)


def test_ring_map_multiplicativity_violation():
    ring = plane_ring()
    images = [ring.unit(), ring.basis_class("h").scale(2), ring.basis_class("h^2")]
    with pytest.raises(NotRingMap):
        RingMap(ring, ring, images)


def test_ring_map_scaling_consistently_is_allowed():
    ring = plane_ring()
    images = [
        ring.unit(),
        ring.basis_class("h").scale(2),
        ring.basis_class("h^2").scale(4),
    ]
    q = RingMap(ring, ring, images)
    assert q.apply(ring.basis_class("h^2")).label_dict() == {"h^2": Fraction(4)}


def test_ring_map_surjectivity_flag():
    ring = plane_ring()
    zero_mid = [ring.unit(), ring.zero(2), ring.zero(4)]
    with pytest.raises(NotRingMap):
        RingMap(ring, ring, zero_mid, require_surjective=True)
    # without the flag the same data is rejected only if multiplicativity
    # fails; h -> 0 forces h^2 -> 0, which this data satisfies
    q = RingMap(ring, ring, zero_mid)
    assert q.apply(ring.basis_class("h")).is_zero()


def test_ring_map_strict_flag_skips_jointly_killed_pairs():
    E = curve_ring()
    images = [E.unit(), E.zero(1), E.zero(1), E.basis_class("pt")]
    # a*b = pt survives while a and b both die: not multiplicative
    with pytest.raises(NotRingMap):
        RingMap(E, E, images)
    q = RingMap(E, E, images, strict=False)
    assert q.apply(E.basis_class("a")).is_zero()
    assert q.apply(E.basis_class("pt")) == E.basis_class("pt")


# -- tensor products ---------------------------------------------------------------


def test_tensor_ring_labels_and_ranks():
    P1 = GradedBasisRing(
        1, [("1", 0), ("h", 2)],
        {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}},
        {1: 1},
    )
    T = tensor_ring((P1, P1))
    assert T.dim == 2
    assert [l for l, _ in T.basis] == ["1 # 1", "1 # h", "h # 1", "h # h"]
    assert T.betti() == {0: 1, 2: 2, 4: 1}
    hh = T.basis_class("h # 1") * T.basis_class("1 # h")
    assert hh.label_dict() == {"h # h": Fraction(1)}
    assert T.integrate(hh) == 1


def test_tensor_ring_koszul_sign():
    E = curve_ring()
    T = tensor_ring((E, E))
    a1 = T.basis_class("a # 1")
    b2 = T.basis_class("1 # b")
    # moving b past a picks up a sign: (a x 1)(1 x b) = a x b,
    # (1 x b)(a x 1) = -(a x b)
    left = T.multiply(a1, b2)
    right = T.multiply(b2, a1)
    assert left == right.scale(-1)
    assert left.label_dict() == {"a # b": Fraction(1)}


def test_tensor_ring_pairing_nondegenerate():
    E = curve_ring()
    T = tensor_ring((E, E))
    assert all(ok for _, ok, _ in stored_checks(T))
    for p in T.degrees():
        T.dual_basis(p)  # raises if any block were singular


def test_rings_declare_their_attributes():
    ring = plane_ring()
    assert ring.parts == {}
    with pytest.raises(AttributeError):
        ring.tensor_factors = (ring, ring)
    T = tensor_ring((ring, ring))
    assert T.parts["factors"] == (ring, ring)
    assert T.parts["index"][(1, 2)] == T.label_index["h # h^2"]
    assert T.space is None  # the factors carry no description


def test_one_inverse_per_pairing_block(monkeypatch):
    """Construction inverts the pairing block of each pair of degrees
    p <= 2*dim - p once; the dual bases of both degrees reuse that
    inverse. Over a ring's whole life that is one inverse per
    complementary pair of degrees."""
    from chowkunneth import linalg

    calls = []
    inverse = linalg.inverse

    def counting_inverse(a):
        calls.append(a)
        return inverse(a)

    monkeypatch.setattr(linalg, "inverse", counting_inverse)
    factors = [curve_ring(), line_ring()]
    for make in (plane_ring, curve_ring, lambda: tensor_ring(factors)):
        del calls[:]
        ring = make()
        for p in ring.degrees():
            ring.dual_basis(p)
            ring.dual_basis(p)
        pairs = {min(p, ring.top_degree - p) for p in ring.degrees()}
        assert len(calls) == len(pairs), ring

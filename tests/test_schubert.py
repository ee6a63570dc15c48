"""Schubert calculus: labels, boxes, the strip rule, and products.

The production table is filled by Pieri recursion (`product_table`);
the oracles in `schubert_oracles` expand one factor determinantally in
special classes (`determinantal_product`) or count lattice tableaux
(`lr_multiply`). Pinned products hold for the table and the
determinantal oracle alike, and all three agree on every basis product
of every box up to 3 x 4, the table and the determinantal oracle also
on G(4,8).
"""

from fractions import Fraction
from math import comb

import pytest

from chowkunneth import schubert, spaces
from schubert_oracles import (
    determinantal_product,
    lr_coefficient,
    lr_multiply,
    parse_partition_label,
    validate_partition,
)


def table_product(lam, mu, max_rows, max_cols):
    """s[lam] * s[mu] read from the box's Pieri table."""
    return schubert.product_table(max_rows, max_cols).get((lam, mu), {})


PRODUCTS = (table_product, determinantal_product)


def test_partition_validation():
    assert validate_partition((3, 1)) == (3, 1)
    assert validate_partition([]) == ()
    with pytest.raises(ValueError):
        validate_partition((1, 3))
    with pytest.raises(ValueError):
        validate_partition((2, 0))


def test_labels_round_trip():
    for lam in [(), (1,), (3, 1), (2, 2, 1)]:
        label = schubert.partition_label(lam)
        assert parse_partition_label(label) == lam
    assert schubert.partition_label(()) == "1"
    assert schubert.partition_label((2, 1)) == "s[2,1]"
    with pytest.raises(ValueError):
        parse_partition_label("sigma_2")


def test_partitions_in_box_counts():
    # number of partitions in a k x m box is C(k + m, k)
    for k, m in [(1, 1), (2, 2), (2, 3), (3, 3), (3, 4)]:
        parts = schubert.partitions_in_box(k, m)
        assert len(parts) == comb(k + m, k)
        assert len(set(parts)) == len(parts)
        for lam in parts:
            assert len(lam) <= k and all(x <= m for x in lam)


def test_partitions_in_box_ordering():
    parts = schubert.partitions_in_box(2, 2)
    assert parts == [(), (1,), (2,), (1, 1), (2, 1), (2, 2)]


def test_pieri_adds_horizontal_strips():
    assert sorted(schubert.pieri((), 2, 2, 2)) == [(2,)]
    assert sorted(schubert.pieri((1,), 1, 2, 2)) == [(1, 1), (2,)]
    assert sorted(schubert.pieri((2, 1), 1, 2, 2)) == [(2, 2)]
    assert schubert.pieri((2, 2), 1, 2, 2) == []
    # strips never stack two new boxes in one column
    assert sorted(schubert.pieri((1,), 2, 3, 3)) == [(2, 1), (3,)]


def test_products_in_the_two_by_two_box():
    for mult in PRODUCTS:
        assert mult((1,), (1,), 2, 2) == {(2,): 1, (1, 1): 1}
        assert mult((1,), (2,), 2, 2) == {(2, 1): 1}
        assert mult((1,), (1, 1), 2, 2) == {(2, 1): 1}
        assert mult((2,), (1, 1), 2, 2) == {}
        assert mult((2,), (2,), 2, 2) == {(2, 2): 1}
        assert mult((1, 1), (1, 1), 2, 2) == {(2, 2): 1}
        assert mult((2, 1), (1,), 2, 2) == {(2, 2): 1}
        assert mult((), (2, 1), 2, 2) == {(2, 1): 1}


def test_product_with_multiplicity():
    for mult in PRODUCTS:
        # in a 2 x 3 box: s[1] * s[2,1] = s[3,1] + s[2,2]
        assert mult((1,), (2, 1), 2, 3) == {
            (3, 1): 1,
            (2, 2): 1,
        }
        # in a 3 x 3 box: s[2,1] * s[2,1] contains s[3,2,1] twice
        prod = mult((2, 1), (2, 1), 3, 3)
        assert prod == {(3, 3): 1, (3, 2, 1): 2, (2, 2, 2): 1}


def test_lr_coefficient_pinned_values():
    assert lr_coefficient((), (2, 1), (2, 1)) == 1
    assert lr_coefficient((1,), (1,), (2,)) == 1
    assert lr_coefficient((1,), (1,), (1, 1)) == 1
    assert lr_coefficient((2, 1), (2, 1), (3, 2, 1)) == 2
    assert lr_coefficient((2, 1), (2, 1), (4, 2)) == 1
    assert lr_coefficient((1,), (1,), (3,)) == 0


def test_multiplication_is_commutative_and_unital():
    box = (2, 3)
    parts = schubert.partitions_in_box(*box)
    for mult in PRODUCTS:
        for lam in parts:
            assert mult((), lam, *box) == ({lam: 1} if lam else {(): 1})
            for mu in parts:
                assert mult(lam, mu, *box) == mult(mu, lam, *box)


@pytest.mark.parametrize("box", [(2, 2), (2, 3), (3, 3)])
def test_strip_rule_products_match_tableau_counts(box):
    parts = schubert.partitions_in_box(*box)
    for lam in parts:
        for mu in parts:
            assert determinantal_product(lam, mu, *box) == (
                lr_multiply(lam, mu, *box)
            ), (lam, mu, box)


def test_duality_in_the_box():
    # each class pairs to 1 against exactly its box complement
    k, m = 2, 2
    parts = schubert.partitions_in_box(k, m)
    full = (m,) * k
    for mult in PRODUCTS:
        for lam in parts:
            for mu in parts:
                prod = mult(lam, mu, k, m)
                coeff = prod.get(full, 0)
                padded = tuple(lam) + (0,) * (k - len(lam))
                complement = tuple(
                    x for x in (m - padded[k - 1 - i] for i in range(k)) if x
                )
                assert coeff == (1 if mu == complement else 0)


def test_pieri_table_matches_both_oracles_up_to_three_by_four():
    for rows in range(1, 4):
        for cols in range(1, 5):
            table = schubert.product_table(rows, cols)
            parts = schubert.partitions_in_box(rows, cols)
            pairs = 0
            for lam in parts:
                for mu in parts:
                    want = determinantal_product(lam, mu, rows, cols)
                    assert want == lr_multiply(lam, mu, rows, cols), (rows, cols, lam, mu)
                    if sum(lam) + sum(mu) > rows * cols:
                        assert not want and (lam, mu) not in table
                        continue
                    assert table[(lam, mu)] == want, (rows, cols, lam, mu)
                    pairs += 1
            assert len(table) == pairs


def test_pieri_table_matches_the_determinantal_oracle_on_g48():
    table = schubert.product_table(4, 4)
    parts = schubert.partitions_in_box(4, 4)
    assert len(parts) == comb(8, 4)
    for lam in parts:
        for mu in parts:
            want = determinantal_product(lam, mu, 4, 4)
            assert table.get((lam, mu), {}) == want, (lam, mu)


def determinantal_structure(k, n):
    """The Grassmannian structure dict the build assembled before Pieri
    tables: one determinantal product per pair, row-major."""
    parts = schubert.partitions_in_box(k, n - k)
    index = {lam: i for i, lam in enumerate(parts)}
    structure = {}
    for a, lam in enumerate(parts):
        for b, mu in enumerate(parts):
            if sum(lam) + sum(mu) > k * (n - k):
                continue
            prod = determinantal_product(lam, mu, k, n - k)
            if prod:
                structure[(a, b)] = {index[nu]: Fraction(c) for nu, c in prod.items()}
    return structure


@pytest.mark.parametrize("k, n", [(2, 4), (2, 5), (3, 6)])
def test_grassmannian_structure_equals_the_determinantal_one(k, n):
    G = spaces.grassmannian(k, n)
    assert list(G.structure.items()) == list(determinantal_structure(k, n).items())


def test_every_build_fills_its_own_table(monkeypatch):
    """No Schubert table or `pieri` memo outlives a build: two builds of
    G(3,6), each from an empty ring cache, make the same calls."""
    calls = []
    for name in ("pieri", "multiply_partitions"):
        original = getattr(schubert, name)

        def counted(*args, name=name, original=original):
            calls.append(name)
            return original(*args)

        monkeypatch.setattr(schubert, name, counted)
    counts = []
    for _ in range(2):
        monkeypatch.setattr(spaces, "_CACHE", {})
        del calls[:]
        spaces.grassmannian(3, 6)
        counts.append((calls.count("pieri"), calls.count("multiply_partitions")))
    assert counts[0] == counts[1]
    assert min(counts[0]) > 0

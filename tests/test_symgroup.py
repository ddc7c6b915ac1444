import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partmix.partitions import lattice
from partmix.symgroup import (
    Permutation,
    conjugate,
    cycle_partition,
    enumerate_permutations,
    group_table,
    permutation_ranks,
    rencontres,
)


def perms(max_n=6):
    return st.integers(2, max_n).flatmap(
        lambda n: st.permutations(list(range(n))).map(lambda im: Permutation(tuple(im)))
    )


def test_enumerate_counts_and_uniqueness():
    for n in range(1, 7):
        all_perms = list(enumerate_permutations(n))
        assert len(all_perms) == math.factorial(n)
        assert len(set(all_perms)) == math.factorial(n)


def test_enumerate_is_lexicographic():
    images = [p.images for p in enumerate_permutations(4)]
    assert images == sorted(images)


def test_enumerate_bounds():
    with pytest.raises(ValueError):
        list(enumerate_permutations(0))
    with pytest.raises(ValueError):
        list(enumerate_permutations(9))


def test_rejects_non_bijection():
    with pytest.raises(ValueError):
        Permutation((0, 0, 1))


@given(perms())
@settings(max_examples=60)
def test_inverse_roundtrip(p):
    assert p.compose(p.inverse()) == Permutation.identity(p.n)
    assert p.inverse().compose(p) == Permutation.identity(p.n)


@given(perms(4), perms(4), perms(4))
@settings(max_examples=40)
def test_composition_associative(a, b, c):
    if not (a.n == b.n == c.n):
        return
    assert a.compose(b).compose(c) == a.compose(b.compose(c))


def test_cycles_reconstruct():
    for p in enumerate_permutations(5):
        assert Permutation.from_cycles(5, p.cycles()) == p


def test_cycles_canonical_form():
    p = Permutation.from_cycles(5, [(3, 4), (0, 2, 1)])
    assert p.cycles() == ((0, 2, 1), (3, 4))


def test_cycle_partition_examples():
    ident = Permutation.identity(3)
    assert cycle_partition(ident).cells == ((0,), (1,), (2,))
    three_cycle = Permutation.from_cycles(3, [(0, 1, 2)])
    assert cycle_partition(three_cycle).cells == ((0, 1, 2),)
    double = Permutation.from_cycles(4, [(0, 1), (2, 3)])
    assert cycle_partition(double).cells == ((0, 1), (2, 3))


def test_conjugate_examples():
    sigma = Permutation.from_cycles(3, [(0, 1)])
    assert conjugate(sigma, Permutation.identity(3)) == sigma
    # relabeling 0 <-> 2 turns (1 2) into (2 3)
    nu = Permutation.from_cycles(3, [(0, 2)])
    assert conjugate(sigma, nu) == Permutation.from_cycles(3, [(1, 2)])


def test_conjugate_size_mismatch():
    with pytest.raises(ValueError):
        conjugate(Permutation.identity(2), Permutation.identity(3))


def test_conjugation_preserves_cycle_type_exhaustive():
    for n in (3, 4, 5):
        group = list(enumerate_permutations(n))
        for sigma, tau in itertools.product(group, repeat=2):
            assert conjugate(sigma, tau).cycle_type() == sigma.cycle_type()


def test_group_table_matches_the_permutations():
    for n in range(1, 7):
        table = group_table(n)
        parts = lattice(n).partitions
        types = {}
        for r, sigma in enumerate(enumerate_permutations(n)):
            assert tuple(table.images[r].tolist()) == sigma.images
            assert tuple(table.inverses[r].tolist()) == sigma.inverse().images
            assert parts[table.partition_id[r]] == cycle_partition(sigma)
            types.setdefault(sigma.cycle_type(), set()).add(int(table.type_id[r]))
        # one number per cycle type, and distinct types get distinct numbers
        assert all(len(ids) == 1 for ids in types.values())
        assert len(set().union(*types.values())) == len(types)


def test_group_table_at_eight():
    table = group_table(8)
    assert table.images.shape == (40320, 8)
    assert (permutation_ranks(table.images) == np.arange(40320)).all()
    composed = np.take_along_axis(table.images, table.inverses, axis=1)
    assert (composed == np.arange(8)).all()
    assert np.bincount(table.type_id).size == 22  # p(8) cycle types
    assert group_table(8) is table
    with pytest.raises(ValueError):
        group_table(9)


def test_permutation_ranks_of_shuffled_rows():
    rng = np.random.default_rng(7)
    images = np.array([p.images for p in enumerate_permutations(5)])
    shuffle = rng.permutation(len(images))
    assert (permutation_ranks(images[shuffle]) == shuffle).all()


def test_rencontres_against_brute_force():
    for n in range(1, 7):
        counts = {}
        for p in enumerate_permutations(n):
            counts[len(p.fixed_points())] = counts.get(len(p.fixed_points()), 0) + 1
        for j in range(n + 1):
            assert rencontres(n, j) == counts.get(j, 0)


def test_rencontres_examples():
    assert rencontres(3, 3) == 1
    assert rencontres(3, 0) == 2
    assert rencontres(4, 1) == 8


def test_rencontres_sums_to_factorial():
    for n in range(1, 9):
        assert sum(rencontres(n, j) for j in range(n + 1)) == math.factorial(n)


def test_rencontres_bounds():
    with pytest.raises(ValueError):
        rencontres(13, 0)
    with pytest.raises(ValueError):
        rencontres(4, 5)
    with pytest.raises(ValueError):
        rencontres(4, -1)


def test_json_rendering():
    p = Permutation.from_cycles(3, [(0, 1, 2)])
    assert p.to_json() == [1, 2, 0]
    assert str(p) == "(1 2 3)"

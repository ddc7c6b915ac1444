import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import closed_form_mobius, forward_substitution, random_nonneg_distribution
from partmix.errors import CoherenceResidueError
from partmix.partitions import (
    PartitionDistribution,
    SetPartition,
    enumerate_partitions,
    forward_map,
    lattice,
    matrix_order,
    mobius_invert,
    refines,
    stabilizer_size,
)
from partmix.symgroup import cycle_partition, enumerate_permutations

BELL = {1: 1, 2: 2, 3: 5, 4: 15, 5: 52, 6: 203, 7: 877, 8: 4140}


def test_bell_counts():
    for n, b in BELL.items():
        parts = enumerate_partitions(n)
        assert len(parts) == b
        assert len(set(parts)) == b


def test_enumeration_order():
    parts = enumerate_partitions(3)
    assert parts[0] == SetPartition.singletons(3)
    assert parts[-1] == SetPartition.full(3)
    counts = [p.num_cells for p in parts]
    assert counts == sorted(counts, reverse=True)


def test_enumerate_bounds():
    with pytest.raises(ValueError):
        enumerate_partitions(0)
    with pytest.raises(ValueError):
        enumerate_partitions(9)


def test_canonical_form_and_validation():
    p = SetPartition.of(4, [[3, 1], [0], [2]])
    assert p.cells == ((0,), (1, 3), (2,))
    with pytest.raises(ValueError):
        SetPartition.of(3, [[0, 1]])
    with pytest.raises(ValueError):
        SetPartition.of(3, [[0, 1], [1, 2]])


def test_refines_examples():
    full = SetPartition.full(4)
    pairs = SetPartition.of(4, [[0, 1], [2, 3]])
    crossed = SetPartition.of(4, [[0, 2], [1, 3]])
    assert refines(full, pairs)
    assert not refines(pairs, crossed)
    with pytest.raises(ValueError):
        refines(SetPartition.full(3), full)


def test_partial_order_axioms_exhaustive():
    for n in (2, 3, 4, 5):
        parts = enumerate_partitions(n)
        geq = np.array(
            [[refines(a, b) for b in parts] for a in parts], dtype=bool
        )
        assert np.all(np.diag(geq))  # reflexive
        assert not np.any(geq & geq.T & ~np.eye(len(parts), dtype=bool))  # antisymmetric
        assert not np.any((geq @ geq) & ~geq)  # transitive: composition stays inside


def test_cell_number_lemma():
    # strictly coarser partitions have strictly fewer cells
    for n in (3, 4, 5):
        parts = enumerate_partitions(n)
        for a, b in itertools.product(parts, repeat=2):
            if refines(a, b) and a != b:
                assert a.num_cells < b.num_cells


def test_stabilizer_sizes():
    assert stabilizer_size(SetPartition.full(3)) == 6
    assert stabilizer_size(SetPartition.singletons(3)) == 1
    assert stabilizer_size(SetPartition.of(5, [[0, 1], [2, 3, 4]])) == 12


def test_stabilizer_matches_brute_force():
    for n in (3, 4, 5):
        for lam in enumerate_partitions(n):
            count = sum(
                1
                for sigma in enumerate_permutations(n)
                if refines(lam, cycle_partition(sigma))
            )
            assert count == stabilizer_size(lam)


def test_stabilizer_bound_appendix_f():
    for n in range(2, 9):
        full = SetPartition.full(n)
        for lam in enumerate_partitions(n):
            if lam != full:
                assert stabilizer_size(lam) * n <= math.factorial(n)


def _indicator(n):
    """The lattice and its refinement indicator, R[r, c] = 1 iff
    partitions[c] ⪰ partitions[r], filled from the pair table."""
    lat = lattice(n)
    entries = np.zeros((len(lat.partitions),) * 2, dtype=np.int64)
    entries[lat.fine, lat.coarse] = 1
    return lat, entries


def test_reconstruction_matrix_n2():
    lat, entries = _indicator(2)
    full, single = SetPartition.full(2), SetPartition.singletons(2)
    index = lat.partitions.index
    assert lat.partitions == (full, single)
    assert entries[index(full), index(full)] == 1
    assert entries[index(full), index(single)] == 0
    assert list(entries[index(single)]) == [1, 1]


def test_reconstruction_matrix_n3_row():
    lat, entries = _indicator(3)
    row = lat.partitions.index(SetPartition.of(3, [[0, 1], [2]]))
    ones = {lat.partitions[c] for c in range(len(lat.partitions)) if entries[row, c]}
    assert ones == {SetPartition.full(3), SetPartition.of(3, [[0, 1], [2]])}


def test_reconstruction_matrix_triangular():
    for n in range(1, 7):
        lat, entries = _indicator(n)
        b = len(lat.partitions)
        assert np.all(np.diag(entries) == 1)
        assert np.all(np.triu(entries, k=1) == 0)  # lower triangular
        if n <= 5:
            assert abs(np.linalg.det(entries.astype(float)) - 1.0) < 1e-9
        assert b == BELL[n]


def test_pairs_equal_brute_force_refines():
    for n in range(1, 7):
        lat = lattice(n)
        pairs = set(zip(lat.coarse.tolist(), lat.fine.tolist()))
        assert len(pairs) == len(lat.coarse)
        brute = {
            (c, f)
            for c, f in itertools.product(range(len(lat.partitions)), repeat=2)
            if refines(lat.partitions[c], lat.partitions[f])
        }
        assert pairs == brute


def _stirling2(n, k):
    return sum((-1) ** j * math.comb(k, j) * (k - j) ** n for j in range(k + 1)) // math.factorial(k)


def test_pair_counts_at_seven_and_eight():
    for n, count in ((7, 19302), (8, 167894)):
        lat = lattice(n)
        assert len(lat.coarse) == count
        assert count == sum(_stirling2(n, k) * BELL[k] for k in range(1, n + 1))
        assert len(lat.partitions) == BELL[n]
        assert lattice(n) is lat
        # spot check: every pair refines, and the coarse side never has more cells
        for k in np.random.default_rng(n).integers(len(lat.coarse), size=300):
            assert refines(lat.partitions[lat.coarse[k]], lat.partitions[lat.fine[k]])
        assert (lat.num_cells[lat.coarse] <= lat.num_cells[lat.fine]).all()


def test_lattice_orders_read_one_table():
    for n in range(1, 9):
        lat = lattice(n)
        assert matrix_order(n) == list(lat.partitions)
        assert enumerate_partitions(n) == list(lat.finest_first)
        keys = [(p.num_cells, p.rgs()) for p in lat.partitions]
        assert keys == sorted(keys)
        keys = [(-p.num_cells, p.rgs()) for p in lat.finest_first]
        assert keys == sorted(keys)
        assert [p.rgs() for p in lat.partitions] == [tuple(r) for r in lat.rgs.tolist()]
        assert (lat.locate(lat.rgs) == np.arange(len(lat.partitions))).all()


def test_matrix_order_is_coarsest_first():
    order = matrix_order(4)
    assert order[0] == SetPartition.full(4)
    assert order[-1] == SetPartition.singletons(4)
    counts = [p.num_cells for p in order]
    assert counts == sorted(counts)


def test_mobius_all_ones():
    for n in (2, 3, 4):
        values = {p: 1.0 + 0j for p in enumerate_partitions(n)}
        dist = mobius_invert(values)
        assert dist.weights[SetPartition.full(n)] == pytest.approx(1.0, abs=1e-14)
        for p, w in dist.weights.items():
            if p != SetPartition.full(n):
                assert w == pytest.approx(0.0, abs=1e-14)


def test_mobius_negative_partition_example():
    n = 3
    full = SetPartition.full(n)
    singles = SetPartition.singletons(n)
    values = {}
    for p in enumerate_partitions(n):
        if p == full:
            values[p] = -0.125
        elif p == singles:
            values[p] = 1.0
        else:
            values[p] = 0.25
    dist = mobius_invert(values)
    assert dist.weights[full] == pytest.approx(-0.125, abs=1e-14)
    assert dist.weights[singles] == pytest.approx(0.0, abs=1e-14)
    for p in enumerate_partitions(n):
        if p not in (full, singles):
            assert dist.weights[p] == pytest.approx(0.375, abs=1e-14)
    assert dist.negativity() == pytest.approx(0.125, abs=1e-14)


def test_roundtrip_random_distributions():
    rng = np.random.default_rng(3)
    for n in range(1, 7):
        for _ in range(3):
            dist = random_nonneg_distribution(rng, n)
            classes = {p: complex(v) for p, v in forward_map(dist).items()}
            back = mobius_invert(classes)
            for p in dist.weights:
                assert abs(back.weights[p] - dist.weights[p]) < 1e-10


def test_roundtrip_other_direction():
    rng = np.random.default_rng(4)
    for n in (2, 3, 4, 5):
        parts = enumerate_partitions(n)
        values = {p: complex(rng.random()) for p in parts}
        dist = mobius_invert(values)
        again = forward_map(dist)
        for p in parts:
            assert abs(again[p] - values[p].real) < 1e-10


@given(st.integers(2, 5), st.data())
@settings(max_examples=25, deadline=None)
def test_roundtrip_hypothesis(n, data):
    parts = enumerate_partitions(n)
    raw = data.draw(
        st.lists(
            st.floats(0.0, 1.0, allow_nan=False), min_size=len(parts), max_size=len(parts)
        )
    )
    total = sum(raw) or 1.0
    dist = PartitionDistribution.of(n, {p: w / total for p, w in zip(parts, raw)})
    back = mobius_invert({p: complex(v) for p, v in forward_map(dist).items()})
    for p in parts:
        assert abs(back.weights[p] - dist.weights[p]) < 1e-10


def test_mobius_matches_closed_form_and_forward_substitution():
    rng = np.random.default_rng(6)
    for n in range(1, 7):
        parts = enumerate_partitions(n)
        values = {p: complex(rng.uniform(-1, 1), rng.uniform(-1e-3, 1e-3)) for p in parts}
        got = mobius_invert(values, tol=1.0)
        for reference in (closed_form_mobius(values), forward_substitution(values)):
            for p in parts:
                assert abs(got.weights[p] - reference[p].real) <= 1e-12


def test_roundtrip_at_seven_and_eight():
    rng = np.random.default_rng(8)
    for n in (7, 8):
        dist = random_nonneg_distribution(rng, n)
        back = mobius_invert({p: complex(v) for p, v in forward_map(dist).items()})
        worst = max(abs(back.weights[p] - w) for p, w in dist.weights.items())
        assert worst < 1e-12


def test_mobius_rejects_complex_residue():
    n = 3
    values = {p: 0.5 + 0j for p in enumerate_partitions(n)}
    values[SetPartition.full(n)] = 0.5 + 0.5j
    with pytest.raises(CoherenceResidueError):
        mobius_invert(values)


def test_mobius_requires_complete_keying():
    values = {SetPartition.full(3): 1.0 + 0j}
    with pytest.raises(ValueError):
        mobius_invert(values)


def test_forward_map_identity_class_is_total():
    rng = np.random.default_rng(5)
    dist = random_nonneg_distribution(rng, 4)
    classes = forward_map(dist)
    assert classes[SetPartition.singletons(4)] == pytest.approx(dist.total(), abs=1e-12)


def test_forward_map_delta_distributions():
    n = 4
    fully_distinguishable = PartitionDistribution.of(n, {SetPartition.singletons(n): 1.0})
    classes = forward_map(fully_distinguishable)
    for p, v in classes.items():
        assert v == (1.0 if p == SetPartition.singletons(n) else 0.0)
    fully_indistinguishable = PartitionDistribution.of(n, {SetPartition.full(n): 1.0})
    assert all(v == 1.0 for v in forward_map(fully_indistinguishable).values())


def test_distribution_json():
    dist = PartitionDistribution.of(2, {SetPartition.full(2): 1.0})
    as_json = dist.to_json()
    assert {"partition": [[0, 1]], "weight": 1.0} in as_json
    assert {"partition": [[0], [1]], "weight": 0.0} in as_json


def test_partition_json_and_str():
    p = SetPartition.of(3, [[0, 1], [2]])
    assert p.to_json() == [[0, 1], [2]]
    assert str(p) == "{1,2}{3}"

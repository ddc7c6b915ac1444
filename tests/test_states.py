import numpy as np
import pytest

from helpers import random_pure_state, random_mixed_state
from partmix.errors import NormalizationError
from partmix.partitions import SetPartition, enumerate_partitions, refines
from partmix.spectrum import mask_spectrum, spectrum_of
from partmix.states import (
    InternalState,
    Mixture,
    apply_time_delay_partition,
    ideal_state,
    negative_partition_state,
    obb_partition_distribution,
    obb_state,
    partition_state,
    pure_product,
    triad_phase_state,
)
from partmix.symgroup import Permutation, cycle_partition, enumerate_permutations


def test_pure_product_checks_normalization():
    with pytest.raises(NormalizationError):
        pure_product([[1.0, 1.0]])


def test_internal_state_validation():
    with pytest.raises(ValueError):
        InternalState.from_matrix(np.array([[0.5, 0.5], [0.1, 0.5]]))  # not Hermitian
    with pytest.raises(ValueError):
        InternalState.from_matrix(np.array([[1.5, 0.0], [0.0, -0.5]]))  # not PSD
    with pytest.raises(ValueError):
        InternalState.from_matrix(np.eye(2))  # trace 2
    rho = InternalState.from_matrix(np.diag([0.25, 0.75]))
    assert not rho.is_pure
    comps = rho.pure_components()
    assert sorted(w for w, _ in comps) == pytest.approx([0.25, 0.75])


def test_non_finite_ket_rejected():
    with pytest.raises(ValueError, match="finite"):
        pure_product([[np.nan, 0.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match="finite"):
        InternalState.from_ket([np.inf, 0.0])


def test_non_finite_matrix_rejected():
    with pytest.raises(ValueError, match="finite"):
        InternalState.from_matrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_product_state_dimension_mismatch():
    with pytest.raises(ValueError):
        pure_product([[1.0], [1.0, 0.0]])


def test_mixture_weight_checks():
    comp = ideal_state(2)
    with pytest.raises(NormalizationError):
        Mixture(2, ((0.5, comp),))
    mix = Mixture(2, ((0.5, comp), (0.5, comp)))
    assert mix.n == 2


def test_pairwise_overlaps_flow_downstream():
    same = pure_product([[1.0, 0.0], [1.0, 0.0]])
    swap = Permutation.from_cycles(2, [(0, 1)])
    assert spectrum_of(same).value(swap) == pytest.approx(1.0)
    ortho = pure_product([[1.0, 0.0], [0.0, 1.0]])
    assert spectrum_of(ortho).value(swap) == pytest.approx(0.0)


@pytest.mark.parametrize(
    "phi,expected",
    [(0.0, 0.5), (np.pi, 0.0), (np.pi / 2, 0.25 + 0.25j)],
)
def test_triad_three_cycle_values(phi, expected):
    spec = spectrum_of(triad_phase_state(phi))
    got = spec.value(Permutation.from_cycles(3, [(0, 1, 2)]))
    assert got == pytest.approx(expected, abs=1e-12)


def test_negative_partition_state_values():
    spec = spectrum_of(negative_partition_state())
    assert spec.value(Permutation.from_cycles(3, [(0, 1, 2)])) == pytest.approx(-0.125, abs=1e-12)
    assert spec.value(Permutation.from_cycles(3, [(0, 1)])) == pytest.approx(0.25, abs=1e-12)
    assert spec.m_id == pytest.approx(1.0, abs=1e-12)


def test_obb_endpoints():
    swap = Permutation.from_cycles(2, [(0, 1)])
    assert spectrum_of(obb_state(2, 1.0)).value(swap) == pytest.approx(1.0)
    assert spectrum_of(obb_state(2, 0.0)).value(swap) == pytest.approx(0.0)


def test_obb_moved_point_law():
    x = 0.5
    spec = spectrum_of(obb_state(3, x))
    for sigma in enumerate_permutations(3):
        assert spec.value(sigma) == pytest.approx(x ** sigma.moved(), abs=1e-12)


def test_obb_bounds():
    with pytest.raises(ValueError):
        obb_state(9, 0.5)
    with pytest.raises(ValueError):
        obb_state(3, 1.5)


def test_obb_partition_distribution_values():
    n, x = 3, 0.5
    dist = obb_partition_distribution(n, x)
    full = SetPartition.full(n)
    singles = SetPartition.singletons(n)
    assert dist.weights[full] == pytest.approx(x**3, abs=1e-14)
    for p in enumerate_partitions(n):
        if p.cell_sizes() == (2, 1):
            assert dist.weights[p] == pytest.approx(x**2 * (1 - x), abs=1e-14)
    # the all-singletons weight aggregates every draw with fewer than two
    # signal photons, keeping the total at one
    assert dist.weights[singles] == pytest.approx((1 - x) ** 3 + 3 * x * (1 - x) ** 2, abs=1e-14)
    assert dist.total() == pytest.approx(1.0, abs=1e-12)


def test_obb_partition_distribution_endpoints():
    d1 = obb_partition_distribution(3, 1.0)
    assert d1.weights[SetPartition.full(3)] == pytest.approx(1.0)
    d0 = obb_partition_distribution(3, 0.0)
    assert d0.weights[SetPartition.singletons(3)] == pytest.approx(1.0)


def test_partition_state_indicator_rule_exhaustive():
    for n in (2, 3, 4, 5):
        for lam in enumerate_partitions(n):
            spec = spectrum_of(partition_state(lam))
            for sigma in enumerate_permutations(n):
                expected = 1.0 if refines(lam, cycle_partition(sigma)) else 0.0
                assert spec.value(sigma) == pytest.approx(expected, abs=1e-12)


def test_partition_state_representative_is_immaterial():
    # any unitary rotation of the internal basis leaves the spectrum unchanged
    rng = np.random.default_rng(8)
    lam = SetPartition.of(4, [[0, 2], [1], [3]])
    base = partition_state(lam)
    z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    q, _ = np.linalg.qr(z)
    rotated = pure_product([q @ k for k in base.kets()])
    s0, s1 = spectrum_of(base), spectrum_of(rotated)
    for sigma in enumerate_permutations(4):
        assert s0.value(sigma) == pytest.approx(s1.value(sigma), abs=1e-12)


def test_delay_masks_spectrum_random_states():
    rng = np.random.default_rng(9)
    for n in (2, 3, 4):
        state = random_pure_state(rng, n, 2)
        base = spectrum_of(state)
        for lam in enumerate_partitions(n):
            delayed = spectrum_of(apply_time_delay_partition(state, lam))
            masked = mask_spectrum(base, lam)
            for sigma in enumerate_permutations(n):
                assert delayed.value(sigma) == pytest.approx(masked.value(sigma), abs=1e-12)


def test_delay_on_mixed_photons():
    rng = np.random.default_rng(10)
    state = random_mixed_state(rng, 3, 2)
    lam = SetPartition.of(3, [[0, 1], [2]])
    delayed = spectrum_of(apply_time_delay_partition(state, lam))
    masked = mask_spectrum(spectrum_of(state), lam)
    for sigma in enumerate_permutations(3):
        assert delayed.value(sigma) == pytest.approx(masked.value(sigma), abs=1e-12)


def test_delay_endpoints():
    state = obb_state(3, 0.7)
    spec = spectrum_of(state)
    same = spectrum_of(apply_time_delay_partition(state, SetPartition.full(3)))
    for sigma in enumerate_permutations(3):
        assert same.value(sigma) == pytest.approx(spec.value(sigma), abs=1e-12)
    cut = spectrum_of(apply_time_delay_partition(state, SetPartition.singletons(3)))
    for sigma in enumerate_permutations(3):
        expected = spec.m_id if sigma.is_identity() else 0.0
        assert cut.value(sigma) == pytest.approx(expected, abs=1e-12)


def test_delay_obb_example():
    # x = 0.7, cells {1,2}{3}: the kept transposition reads x^2, 3-cycles vanish
    delayed = apply_time_delay_partition(obb_state(3, 0.7), SetPartition.of(3, [[0, 1], [2]]))
    spec = spectrum_of(delayed)
    assert spec.value(Permutation.from_cycles(3, [(0, 1)])) == pytest.approx(0.49, abs=1e-12)
    assert spec.value(Permutation.from_cycles(3, [(0, 1, 2)])) == pytest.approx(0.0, abs=1e-12)

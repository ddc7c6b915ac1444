import math

import numpy as np
import pytest

from helpers import closed_form_mobius, random_nonneg_distribution, random_unitary
from partmix.errors import SingularDiagonalError
from partmix.interference import ideal_probability, probability_from_spectrum
from partmix.partitions import (
    SetPartition,
    enumerate_partitions,
    forward_map,
    lattice,
    matrix_order,
    refines,
)
from partmix.reconstruct import apply_mitigation, classify, mitigation_weights
from partmix.spectrum import (
    class_reduce,
    mask_spectrum,
    spectrum_from_class_values,
    spectrum_of,
)
from partmix.states import (
    negative_partition_state,
    obb_partition_distribution,
    obb_state,
    partition_state,
    triad_phase_state,
)


def test_classify_negative_partition_example():
    result = classify(spectrum_of(negative_partition_state()))
    assert result.member
    dist = result.distribution
    assert dist.weights[SetPartition.full(3)] == pytest.approx(-0.125, abs=1e-12)
    for p in enumerate_partitions(3):
        if p.cell_sizes() == (2, 1):
            assert dist.weights[p] == pytest.approx(0.375, abs=1e-12)
    assert dist.weights[SetPartition.singletons(3)] == pytest.approx(0.0, abs=1e-12)
    assert result.negativity == pytest.approx(0.125, abs=1e-12)


def test_classify_triad_not_member():
    result = classify(spectrum_of(triad_phase_state(np.pi / 2)))
    assert not result.member
    assert result.distribution is None
    assert result.max_orbit_deviation > 0.1


def test_classify_obb_matches_coin_flip_distribution():
    n, x = 3, 0.5
    result = classify(spectrum_of(obb_state(n, x)))
    assert result.member
    expected = obb_partition_distribution(n, x)
    for p in enumerate_partitions(n):
        assert result.distribution.weights[p] == pytest.approx(
            expected.weights[p], abs=1e-12
        )


def test_classify_inverts_forward_map():
    rng = np.random.default_rng(31)
    for n in range(1, 7):
        dist = random_nonneg_distribution(rng, n)
        spec = spectrum_from_class_values(n, forward_map(dist))
        result = classify(spec)
        assert result.member
        for p, w in dist.weights.items():
            assert result.distribution.weights[p] == pytest.approx(w, abs=1e-10)


def test_mitigation_weights_two_photon_analytic():
    x = 0.37
    spec = spectrum_of(obb_state(2, math.sqrt(x)))  # M_(12) = x
    plan = mitigation_weights(spec)
    full, singles = SetPartition.full(2), SetPartition.singletons(2)
    assert plan.weights[full] == pytest.approx(1 / x, abs=1e-12)
    assert plan.weights[singles] == pytest.approx((x - 1) / x, abs=1e-12)


def test_mitigation_ideal_state_passthrough():
    from partmix.spectrum import ideal_spectrum

    plan = mitigation_weights(ideal_spectrum(3))
    assert plan.weights[SetPartition.full(3)] == pytest.approx(1.0)
    for p, w in plan.weights.items():
        if p != SetPartition.full(3):
            assert w == 0.0
    # zero-weight partitions need no probability tables
    table = {(1, 1, 1): 0.4, (2, 1, 0): 0.6}
    out = apply_mitigation(plan, {SetPartition.full(3): table})
    assert out == pytest.approx(table)


def test_mitigation_requires_orbit_invariance():
    with pytest.raises(ValueError, match="orbit-invariant"):
        mitigation_weights(spectrum_of(triad_phase_state(np.pi / 2)))


def test_mitigation_zero_diagonal_raises():
    spec = spectrum_of(partition_state(SetPartition.of(3, [[0], [1, 2]])))
    with pytest.raises(SingularDiagonalError) as err:
        mitigation_weights(spec)
    assert err.value.partition == SetPartition.full(3)


def test_mitigation_reproduces_all_ones_on_solved_rows():
    rng = np.random.default_rng(32)
    for n in (2, 3, 4, 5):
        classes = {p: complex(rng.uniform(0.2, 1.0)) for p in enumerate_partitions(n)}
        classes[SetPartition.singletons(n)] = 1.0 + 0j
        spec = spectrum_from_class_values(n, classes)
        plan = mitigation_weights(spec)
        combined = {}
        for p in plan.partitions:
            masked = class_reduce(mask_spectrum(spec, p))
            w = plan.weights[p]
            for cls, v in masked.items():
                combined[cls] = combined.get(cls, 0.0) + w * v.real
        for cls, v in combined.items():
            assert v == pytest.approx(1.0, abs=1e-9)


def test_truncated_plan_satisfies_exactly_the_solved_rows():
    rng = np.random.default_rng(33)
    n, depth = 4, 6
    classes = {p: complex(rng.uniform(0.3, 1.0)) for p in enumerate_partitions(n)}
    spec = spectrum_from_class_values(n, classes)
    plan = mitigation_weights(spec, depth=depth)
    assert plan.order == depth
    assert len(plan.partitions) == depth
    assert plan.partitions == tuple(matrix_order(n)[:depth])
    for row in plan.partitions:
        total = sum(
            plan.weights[col] * classes[row].real
            for col in plan.partitions
            if refines(col, row)
        )
        assert total == pytest.approx(1.0, abs=1e-9)


def test_apply_mitigation_beam_splitter_cancellation():
    # (1/x) p_x + ((x-1)/x) p_distinguishable vanishes at the coincidence
    x = 0.6
    bs = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
    spec = spectrum_of(obb_state(2, math.sqrt(x)))
    plan = mitigation_weights(spec)
    full, singles = SetPartition.full(2), SetPartition.singletons(2)
    outcomes = [(1, 1), (2, 0), (0, 2)]
    tables = {
        lam: {
            o: probability_from_spectrum(bs, mask_spectrum(spec, lam), o)
            if max(o) == 1
            else None
            for o in outcomes
        }
        for lam in (full, singles)
    }
    # fill bunched entries from the convolution route
    from partmix.interference import partition_probability

    for lam in tables:
        for o in outcomes:
            if tables[lam][o] is None:
                tables[lam][o] = sum(
                    w * partition_probability(bs, p, o)
                    for p, w in classify(mask_spectrum(spec, lam)).distribution.weights.items()
                    if w != 0.0
                )
    mitigated = apply_mitigation(plan, tables)
    assert mitigated[(1, 1)] == pytest.approx(0.0, abs=1e-12)
    assert mitigated[(2, 0)] == pytest.approx(0.5, abs=1e-9)
    assert sum(mitigated.values()) == pytest.approx(1.0, abs=1e-9)


def test_apply_mitigation_validates_tables():
    from partmix.spectrum import ideal_spectrum

    plan = mitigation_weights(ideal_spectrum(2))
    with pytest.raises(ValueError, match="missing"):
        apply_mitigation(plan, {})
    spec = spectrum_of(obb_state(2, 0.8))
    plan2 = mitigation_weights(spec)
    full, singles = SetPartition.full(2), SetPartition.singletons(2)
    with pytest.raises(ValueError, match="outcome sets"):
        apply_mitigation(plan2, {full: {(1, 1): 1.0}, singles: {(2, 0): 1.0}})


def test_mitigation_on_physically_delayed_states():
    # tables from the independent oracle on actually delayed copies, all
    # outcomes including bunched ones: the combination is the ideal law
    from partmix.interference import fock_oracle_probability, outcome_patterns
    from partmix.states import apply_time_delay_partition, pure_product

    rng = np.random.default_rng(35)
    state = pure_product(
        [[1.0, 0.0], [math.sqrt(0.55), math.sqrt(0.45)]]
    )  # swap overlap 0.55
    spec = spectrum_of(state)
    plan = mitigation_weights(spec)
    U = random_unitary(rng, 2)
    outs = outcome_patterns(2, 2)
    tables = {
        lam: {
            o: fock_oracle_probability(apply_time_delay_partition(state, lam), U, o)
            for o in outs
        }
        for lam in plan.partitions
    }
    mitigated = apply_mitigation(plan, tables)
    for o in outs:
        assert mitigated[o] == pytest.approx(ideal_probability(U, o), abs=1e-12)


def test_classify_recovers_mixture_of_partition_states():
    from partmix.states import Mixture

    rng = np.random.default_rng(36)
    parts = enumerate_partitions(3)
    w = rng.random(len(parts))
    w /= w.sum()
    mix = Mixture(3, tuple((float(wi), partition_state(p)) for wi, p in zip(w, parts)))
    result = classify(spectrum_of(mix))
    assert result.member
    for p, wi in zip(parts, w):
        assert result.distribution.weights[p] == pytest.approx(wi, abs=1e-12)


def test_full_depth_mitigation_recovers_permanent_law():
    rng = np.random.default_rng(34)
    spec = spectrum_of(obb_state(3, 0.7))
    plan = mitigation_weights(spec)
    for _ in range(4):
        U = random_unitary(rng, 3)
        outcome = (1, 1, 1)
        tables = {
            p: {outcome: probability_from_spectrum(U, mask_spectrum(spec, p), outcome)}
            for p in plan.partitions
        }
        mitigated = apply_mitigation(plan, tables)
        assert mitigated[outcome] == pytest.approx(
            ideal_probability(U, outcome), abs=1e-9
        )


def test_mitigation_is_the_mobius_inverse_of_one_over_m_at_every_depth():
    rng = np.random.default_rng(37)
    for n in range(1, 6):
        order = matrix_order(n)
        randomized = {p: complex(rng.uniform(0.2, 1.0)) for p in order}
        for spec in (spectrum_from_class_values(n, randomized), spectrum_of(obb_state(n, 0.6))):
            classes = class_reduce(spec)
            reference = closed_form_mobius({p: 1.0 / v.real for p, v in classes.items()})
            for depth in range(1, len(order) + 1):
                plan = mitigation_weights(spec, depth=depth)
                assert plan.partitions == tuple(order[:depth])
                for p in plan.partitions:
                    scale = max(1.0, abs(reference[p]))
                    assert abs(plan.weights[p] - reference[p].real) <= 1e-12 * scale


def test_mitigation_at_seven_and_eight():
    for n, x in ((7, 0.6), (8, 0.7)):
        classes = forward_map(obb_partition_distribution(n, x))
        plan = mitigation_weights(spectrum_from_class_values(n, classes))
        assert len(plan.partitions) == len(matrix_order(n))
        lat = lattice(n)
        w = np.array([plan.weights[p] for p in lat.partitions])
        m = np.array([classes[p] for p in lat.partitions])
        rows = m * np.bincount(lat.fine, weights=w[lat.coarse])
        assert np.abs(rows - 1.0).max() < 1e-9
        # a few rows by the refinement predicate itself
        for row in lat.partitions[:: len(lat.partitions) // 7]:
            total = sum(plan.weights[col] for col in lat.partitions if refines(col, row))
            assert classes[row] * total == pytest.approx(1.0, abs=1e-9)

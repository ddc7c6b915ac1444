import itertools
import math

import numpy as np
import pytest

from helpers import (
    double_sum_probability,
    random_mixed_state,
    random_nonneg_distribution,
    random_pure_state,
    random_unitary,
    ryser_reference,
)
from partmix.interference import (
    Interferometer,
    check_unitary,
    fock_oracle_probability,
    ideal_outcome_distribution,
    ideal_probability,
    mixture_probability,
    no_collision_outcomes,
    outcome_patterns,
    partition_probability,
    path_amplitude,
    permanent,
    permanents,
    probability_from_spectrum,
)
from partmix.partitions import PartitionDistribution, SetPartition, enumerate_partitions
from partmix.spectrum import ideal_spectrum, spectrum_from_class_values, spectrum_of
from partmix.partitions import forward_map
from partmix.states import (
    Mixture,
    ideal_state,
    obb_partition_distribution,
    obb_state,
    partition_state,
    triad_phase_state,
)
from partmix.symgroup import Permutation

BS = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)


def test_permanent_2x2_definition():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert permanent(a) == pytest.approx(1 * 4 + 2 * 3)


def test_permanent_identity():
    for k in (1, 3, 5):
        assert permanent(np.eye(k)) == pytest.approx(1.0)


def test_permanent_methods_agree():
    rng = np.random.default_rng(41)
    for k in range(1, 9):
        a = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
        naive = permanent(a, "naive")
        ryser = permanent(a, "ryser")
        assert abs(naive - ryser) <= 1e-10 * max(1.0, abs(naive))


def test_permanent_is_bitwise_the_single_matrix_ryser():
    rng = np.random.default_rng(59)
    for k in range(1, 9):
        stack = rng.standard_normal((40, k, k)) + 1j * rng.standard_normal((40, k, k))
        batched = permanents(stack)
        for a, p in zip(stack, batched):
            reference = ryser_reference(a)
            assert permanent(a) == reference  # bit for bit: sampler tables stay put
            assert abs(p - reference) <= 1e-12 * max(1.0, abs(reference))
    assert permanents(np.zeros((3, 0, 0))).tolist() == [1.0, 1.0, 1.0]


def test_permanent_bounds_and_empty():
    assert permanent(np.zeros((0, 0))) == 1.0
    with pytest.raises(ValueError):
        permanent(np.eye(9), "naive")
    with pytest.raises(ValueError):
        permanent(np.eye(17), "ryser")
    with pytest.raises(ValueError):
        permanent(np.eye(3), "glynn")


def test_interferometer_validation():
    rng = np.random.default_rng(42)
    U = random_unitary(rng, 4)
    inter = Interferometer.of(U, n=3)
    assert inter.unitarity_defect() < 1e-12
    with pytest.raises(ValueError):
        Interferometer.of(U * 1.01)
    with pytest.raises(ValueError):
        Interferometer.of(U, n=5)


def test_engine_rejects_non_unitary_matrices():
    # 50·I used to give p = 6.25e6
    for bad in (50 * np.eye(2), np.ones((2, 3)), np.full((2, 2), np.nan)):
        with pytest.raises(ValueError, match="unitarity defect|square"):
            probability_from_spectrum(bad, ideal_spectrum(2), (1, 1))
    assert check_unitary(BS) < 1e-15
    with pytest.raises(ValueError, match="unitarity defect"):
        check_unitary(BS * (1 + 1e-7), tol=1e-9)


def test_path_amplitude_figure_convention():
    # 1-based (132) sends 1->3, 3->2, 2->1: X = U13 U32 U21
    U = np.arange(1, 10, dtype=complex).reshape(3, 3)
    sigma = Permutation((2, 0, 1))
    amp = path_amplitude(U, sigma, [0, 1, 2], [0, 1, 2])
    assert amp == pytest.approx(U[0, 2] * U[2, 1] * U[1, 0])


def test_path_amplitudes_sum_to_permanent():
    rng = np.random.default_rng(43)
    U = random_unitary(rng, 4)
    total = sum(
        path_amplitude(U, Permutation(im), [0, 1, 2], [1, 2, 3])
        for im in itertools.permutations(range(3))
    )
    assert total == pytest.approx(permanent(U[np.ix_([0, 1, 2], [1, 2, 3])]))


def test_hom_coincidence_vanishes():
    assert probability_from_spectrum(BS, ideal_spectrum(2), (1, 1)) == pytest.approx(
        0.0, abs=1e-12
    )
    assert fock_oracle_probability(ideal_state(2), BS, (1, 1)) == pytest.approx(
        0.0, abs=1e-12
    )


def test_partial_hom_coincidence():
    x = 0.35
    spec = spectrum_of(obb_state(2, math.sqrt(x)))  # M_(12) = x
    p = probability_from_spectrum(BS, spec, (1, 1))
    assert p == pytest.approx((1 - x) / 2, abs=1e-12)


def test_ideal_probability_is_permanent_law():
    rng = np.random.default_rng(44)
    U = random_unitary(rng, 4)
    for outcome in no_collision_outcomes(4, 3):
        assert probability_from_spectrum(U, ideal_spectrum(3), outcome) == pytest.approx(
            ideal_probability(U, outcome), abs=1e-12
        )


def test_engine_matches_oracle_bunched_outcomes():
    rng = np.random.default_rng(60)
    for n, m in [(2, 3), (3, 4), (4, 5)]:
        U = random_unitary(rng, m)
        a, b = random_pure_state(rng, n, 2), random_mixed_state(rng, n, 2)
        for state in (a, b, Mixture(n, ((0.3, a), (0.7, b)))):
            spec = spectrum_of(state)
            for outcome in outcome_patterns(m, n):  # bunched ones included
                assert probability_from_spectrum(U, spec, outcome) == pytest.approx(
                    fock_oracle_probability(state, U, outcome), abs=1e-14
                )
    assert probability_from_spectrum(BS, ideal_spectrum(2), (2, 0)) == pytest.approx(0.5)


def test_engine_matches_double_sum():
    rng = np.random.default_rng(61)
    for n in range(1, 7):
        m = n + 2
        a, b = random_pure_state(rng, n, 3), random_mixed_state(rng, n, 2)
        for state in (a, b, Mixture(n, ((0.6, a), (0.4, b)))):
            spec = spectrum_of(state)
            U = random_unitary(rng, m)
            inputs = list(rng.permutation(m)[:n])
            for outcome in no_collision_outcomes(m, n)[:3]:
                for modes in (None, inputs):
                    assert probability_from_spectrum(
                        U, spec, outcome, input_modes=modes
                    ) == pytest.approx(
                        double_sum_probability(U, spec, outcome, input_modes=modes), abs=1e-12
                    )


def test_engine_batches_are_exact(monkeypatch):
    from partmix import interference

    rng = np.random.default_rng(62)
    state = random_mixed_state(rng, 4, 2)
    spec = spectrum_of(state)
    U = random_unitary(rng, 5)
    outcomes = [(1, 1, 0, 1, 1), (2, 0, 1, 0, 1)]
    whole = [probability_from_spectrum(U, spec, o) for o in outcomes]
    monkeypatch.setattr(interference, "STACK_CHUNK_ENTRIES", 40)  # 2 permutations per batch
    for o, p in zip(outcomes, whole):
        assert probability_from_spectrum(U, spec, o) == pytest.approx(p, abs=1e-15)


def test_engine_at_seven_and_eight_photons():
    rng = np.random.default_rng(63)
    U = random_unitary(rng, 9)
    groups = SetPartition.of(7, [[0, 1, 2, 3], [4, 5, 6]])
    spec = spectrum_of(partition_state(groups))  # M = 1 inside the groups, 0 across
    for outcome in [(1, 1, 1, 1, 0, 1, 1, 1, 0), (0, 3, 0, 1, 0, 2, 1, 0, 0)]:
        assert probability_from_spectrum(U, ideal_spectrum(7), outcome) == pytest.approx(
            ideal_probability(U, outcome), abs=1e-14
        )
        assert probability_from_spectrum(U, spec, outcome) == pytest.approx(
            partition_probability(U, groups, outcome), abs=1e-14
        )
    U = random_unitary(rng, 9)
    outcome = (1, 1, 0, 1, 1, 1, 1, 1, 1)
    assert probability_from_spectrum(U, ideal_spectrum(8), outcome) == pytest.approx(
        ideal_probability(U, outcome), abs=1e-14
    )


def test_engine_matches_oracle_random_states():
    rng = np.random.default_rng(45)
    worst = 0.0
    for n in (2, 3, 4):
        for _ in range(5):
            U = random_unitary(rng, n + 1)
            state = random_pure_state(rng, n, 3)
            spec = spectrum_of(state)
            for outcome in no_collision_outcomes(n + 1, n):
                a = probability_from_spectrum(U, spec, outcome)
                b = fock_oracle_probability(state, U, outcome)
                worst = max(worst, abs(a - b))
    assert worst <= 1e-9


def test_engine_matches_oracle_mixed_states():
    rng = np.random.default_rng(46)
    state = random_mixed_state(rng, 3, 2)
    U = random_unitary(rng, 3)
    spec = spectrum_of(state)
    for outcome in no_collision_outcomes(3, 3):
        a = probability_from_spectrum(U, spec, outcome)
        b = fock_oracle_probability(state, U, outcome)
        assert a == pytest.approx(b, abs=1e-10)


def test_oracle_on_mixtures():
    rng = np.random.default_rng(47)
    a, b = random_pure_state(rng, 2, 2), random_pure_state(rng, 2, 2)
    mix = Mixture(2, ((0.3, a), (0.7, b)))
    U = random_unitary(rng, 2)
    for outcome in [(1, 1), (2, 0), (0, 2)]:
        expected = 0.3 * fock_oracle_probability(a, U, outcome) + 0.7 * fock_oracle_probability(
            b, U, outcome
        )
        assert fock_oracle_probability(mix, U, outcome) == pytest.approx(expected, abs=1e-12)


def test_oracle_bounds():
    with pytest.raises(ValueError):
        fock_oracle_probability(ideal_state(6), np.eye(6), (1,) * 6)


def test_oracle_stack_matches_single_calls():
    rng = np.random.default_rng(57)
    a, b = random_pure_state(rng, 3, 2), random_mixed_state(rng, 3, 2)
    cases = [
        (random_pure_state(rng, 3, 3), 5, (1, 0, 1, 1, 0), None),
        (random_mixed_state(rng, 3, 2), 4, (0, 1, 1, 1), None),
        (Mixture(3, ((0.4, a), (0.6, b))), 4, (1, 1, 0, 1), None),
        (random_pure_state(rng, 4, 3), 5, (2, 0, 1, 1, 0), None),  # bunched
        (random_mixed_state(rng, 2, 2), 5, (0, 2, 0, 0, 0), None),  # bunched, mixed
        (random_pure_state(rng, 3, 2), 6, (0, 1, 0, 1, 1, 0), [5, 0, 3]),  # remapped
        (random_pure_state(rng, 5, 2), 6, (1, 1, 1, 0, 1, 1), None),
    ]
    for state, m, outcome, inputs in cases:
        stack = np.array([random_unitary(rng, m) for _ in range(4)])
        batched = fock_oracle_probability(state, stack, outcome, input_modes=inputs)
        assert batched.shape == (4,)
        for U, p in zip(stack, batched):
            single = fock_oracle_probability(state, U, outcome, input_modes=inputs)
            assert isinstance(single, float)
            assert p == pytest.approx(single, abs=1e-12)
    with pytest.raises(ValueError):
        fock_oracle_probability(ideal_state(2), np.ones((2, 3, 4)), (1, 1, 0, 0))


def test_oracle_kernel_chunking_is_exact(monkeypatch):
    from partmix import interference

    rng = np.random.default_rng(58)
    state = random_mixed_state(rng, 3, 3)  # 27 pure terms
    U = random_unitary(rng, 4)
    for outcome in [(1, 1, 0, 1), (2, 0, 1, 0)]:
        whole = fock_oracle_probability(state, U, outcome)
        monkeypatch.setattr(interference, "KERNEL_CHUNK_ENTRIES", 1)  # one term per chunk
        assert fock_oracle_probability(state, U, outcome) == pytest.approx(whole, abs=1e-12)
        monkeypatch.undo()


def test_input_modes_must_lie_in_range():
    U = np.eye(4)
    state = ideal_state(2)
    for inputs in ([-1, -2], [0, 4], [0, 0], [0, 1, 2], [0.5, 1]):
        with pytest.raises(ValueError, match="input modes"):
            fock_oracle_probability(state, U, (0, 0, 1, 1), input_modes=inputs)
        with pytest.raises(ValueError, match="input modes"):
            probability_from_spectrum(U, ideal_spectrum(2), (0, 0, 1, 1), input_modes=inputs)
        with pytest.raises(ValueError, match="input modes"):
            ideal_probability(U, (0, 0, 1, 1), input_modes=inputs)
        with pytest.raises(ValueError, match="input modes"):
            partition_probability(U, SetPartition.full(2), (0, 0, 1, 1), input_modes=inputs)
    with pytest.raises(ValueError, match="input modes"):
        ideal_probability(np.eye(2), (1, 1, 1))  # three photons in two modes


def test_partition_probability_single_cell_is_ideal():
    rng = np.random.default_rng(48)
    U = random_unitary(rng, 3)
    lam = SetPartition.full(3)
    for outcome in outcome_patterns(3, 3):
        assert partition_probability(U, lam, outcome) == pytest.approx(
            ideal_probability(U, outcome), abs=1e-12
        )


def test_partition_probability_singletons_classical():
    rng = np.random.default_rng(49)
    U = random_unitary(rng, 3)
    lam = SetPartition.singletons(2)
    # two distinguishable photons in modes 0 and 1
    expected = abs(U[0, 0] * U[1, 1]) ** 2 + abs(U[0, 1] * U[1, 0]) ** 2
    assert partition_probability(U, lam, (1, 1, 0)) == pytest.approx(expected, abs=1e-12)


def test_partition_probability_matches_oracle_all_outcomes():
    rng = np.random.default_rng(50)
    U = random_unitary(rng, 3)
    lam = SetPartition.of(3, [[0, 1], [2]])
    state = partition_state(lam)
    total = 0.0
    for outcome in outcome_patterns(3, 3):
        a = partition_probability(U, lam, outcome)
        b = fock_oracle_probability(state, U, outcome)
        assert a == pytest.approx(b, abs=1e-9)
        total += a
    assert total == pytest.approx(1.0, abs=1e-8)


def test_partition_probability_completeness():
    rng = np.random.default_rng(51)
    for n, m in [(2, 4), (3, 4), (4, 5)]:
        U = random_unitary(rng, m)
        for lam in enumerate_partitions(n)[:4]:
            total = sum(partition_probability(U, lam, o) for o in outcome_patterns(m, n))
            assert total == pytest.approx(1.0, abs=1e-8)


def test_mixture_law_obb():
    rng = np.random.default_rng(52)
    n, x = 3, 0.6
    dist = obb_partition_distribution(n, x)
    spec = spectrum_of(obb_state(n, x))
    U = random_unitary(rng, 4)
    for outcome in no_collision_outcomes(4, n):
        assert mixture_probability(U, dist, outcome) == pytest.approx(
            probability_from_spectrum(U, spec, outcome), abs=1e-9
        )


def test_mixture_law_random_distributions():
    rng = np.random.default_rng(53)
    for n in (2, 3, 4):
        dist = random_nonneg_distribution(rng, n)
        spec = spectrum_from_class_values(n, forward_map(dist))
        U = random_unitary(rng, n + 1)
        for outcome in no_collision_outcomes(n + 1, n):
            assert mixture_probability(U, dist, outcome) == pytest.approx(
                probability_from_spectrum(U, spec, outcome), abs=1e-9
            )


def test_oracle_equals_mixture_law_for_obb_state():
    rng = np.random.default_rng(54)
    n, x = 3, 0.45
    U = random_unitary(rng, 3)
    state = obb_state(n, x)
    dist = obb_partition_distribution(n, x)
    for outcome in outcome_patterns(3, n):
        assert fock_oracle_probability(state, U, outcome) == pytest.approx(
            mixture_probability(U, dist, outcome), abs=1e-9
        )


def test_triad_oracle_equals_engine():
    rng = np.random.default_rng(55)
    U = random_unitary(rng, 3)
    state = triad_phase_state(np.pi / 2)
    spec = spectrum_of(state)
    assert fock_oracle_probability(state, U, (1, 1, 1)) == pytest.approx(
        probability_from_spectrum(U, spec, (1, 1, 1)), abs=1e-10
    )


def test_custom_input_modes():
    rng = np.random.default_rng(56)
    U = random_unitary(rng, 4)
    state = random_pure_state(rng, 2, 2)
    spec = spectrum_of(state)
    inputs = [1, 3]
    for outcome in no_collision_outcomes(4, 2):
        a = probability_from_spectrum(U, spec, outcome, input_modes=inputs)
        b = fock_oracle_probability(state, U, outcome, input_modes=inputs)
        assert a == pytest.approx(b, abs=1e-10)


def test_outcome_validation():
    with pytest.raises(ValueError):
        probability_from_spectrum(BS, ideal_spectrum(2), (1, 0))
    with pytest.raises(ValueError):
        partition_probability(BS, SetPartition.full(2), (1, 1, 1))


def test_outcome_patterns_order():
    for m, n in [(1, 2), (3, 0), (3, 3), (4, 2), (5, 3)]:
        every = [s for s in itertools.product(range(n + 1), repeat=m) if sum(s) == n]
        assert outcome_patterns(m, n) == every
        bound = [1, 0, 2, 1, 3][:m]
        assert outcome_patterns(m, n, bound) == [
            s for s in every if all(v <= b for v, b in zip(s, bound))
        ]
        combinations = itertools.combinations(range(m), n)
        first_modes_first = [tuple(int(j in c) for j in range(m)) for c in combinations]
        assert no_collision_outcomes(m, n) == first_modes_first
    assert outcome_patterns(6, 6, [6] * 6) == outcome_patterns(6, 6)  # 462, quickly
    assert len(outcome_patterns(8, 4, [4] * 8)) == math.comb(11, 4)


def test_ideal_probability_validates_outcome():
    U = random_unitary(np.random.default_rng(64), 4)
    for outcome in [(1, 1), (1, 1, 0, 0, 0, 0), (2, -1, 0, 0)]:
        with pytest.raises(ValueError, match="outcome"):
            ideal_probability(U, outcome)
        with pytest.raises(ValueError, match="outcome"):
            partition_probability(U, SetPartition.full(2), outcome)


def test_cell_laws_match_ideal_probability(monkeypatch):
    from partmix import interference

    rng = np.random.default_rng(65)
    for k, m in [(1, 4), (2, 5), (3, 6), (4, 6), (5, 7)]:
        U = random_unitary(rng, m)
        rows = [int(j) for j in rng.permutation(m)[:k]]
        law = ideal_outcome_distribution(U, rows)
        assert list(law) == outcome_patterns(m, k)
        for outcome, p in law.items():
            assert p == pytest.approx(ideal_probability(U, outcome, rows), abs=1e-15)
        assert sum(law.values()) == pytest.approx(1.0, abs=1e-12)
        bound = [1] * m if k == 1 else [2, 0] + [1] * (m - 2)
        occ, probs = interference.cell_law(U, rows, bound)
        assert [tuple(o) for o in occ.tolist()] == outcome_patterns(m, k, bound)
        for outcome, p in zip(occ.tolist(), probs):
            assert p == pytest.approx(ideal_probability(U, outcome, rows), abs=1e-15)
        whole = {None: interference.cell_law(U, rows), tuple(bound): (occ, probs)}
        with monkeypatch.context() as patch:  # many small permanents stacks
            patch.setattr(interference, "STACK_CHUNK_ENTRIES", 40)
            for b, (occ_w, probs_w) in whole.items():
                occ_c, probs_c = interference.cell_law(U, rows, b)
                assert np.array_equal(occ_c, occ_w)
                np.testing.assert_allclose(probs_c, probs_w, rtol=0, atol=1e-15)


def test_partition_probability_matches_oracle_remapped():
    rng = np.random.default_rng(66)
    for n, m in [(2, 6), (3, 6), (4, 5)]:
        U = random_unitary(rng, m)
        inputs = [int(j) for j in rng.permutation(m)[:n]]
        for lam in enumerate_partitions(n):
            state = partition_state(lam)
            for outcome in outcome_patterns(m, n):
                assert partition_probability(
                    U, lam, outcome, input_modes=inputs
                ) == pytest.approx(
                    fock_oracle_probability(state, U, outcome, input_modes=inputs), abs=1e-14
                )


def test_mixture_builds_each_cell_law_once(monkeypatch):
    from partmix import interference

    built = []
    real = interference.cell_law

    def counted(U, rows, bound=None):
        built.append(tuple(rows))
        return real(U, rows, bound)

    monkeypatch.setattr(interference, "cell_law", counted)
    dist = obb_partition_distribution(4, 0.6)
    U = random_unitary(np.random.default_rng(67), 5)
    mixture_probability(U, dist, (1, 1, 0, 1, 1))
    cells = {c for p, w in dist.weights.items() if w != 0.0 for c in p.cells}
    assert sorted(built) == sorted(cells)


def test_unbounded_law_is_exact_beyond_int64_keys():
    from partmix.sampling import SamplerConfig, sampler_exact_distribution

    m = 64  # 3^64 occupation keys would not fit in 64 bits
    U = random_unitary(np.random.default_rng(68), m)
    dist = PartitionDistribution.of(2, {SetPartition.singletons(2): 1.0})
    law = sampler_exact_distribution(SamplerConfig(U, dist, seed=0, count=1))
    assert len(law) == m * (m + 1) // 2
    assert sum(law.values()) == pytest.approx(1.0, abs=1e-12)

    def alone(photon, mode):
        return ideal_probability(U, [int(j == mode) for j in range(m)], [photon])

    for a, b in [(0, 63), (5, 40), (62, 63), (17, 17), (63, 63)]:
        outcome = [0] * m
        outcome[a] += 1
        outcome[b] += 1
        expected = alone(0, a) * alone(1, b) + (alone(0, b) * alone(1, a) if a != b else 0.0)
        assert law[tuple(outcome)] == pytest.approx(expected, abs=1e-15)


def test_mixture_law_at_seven_and_eight_photons():
    rng = np.random.default_rng(69)
    for n, outcomes in [
        (7, [(1, 1, 1, 1, 1, 1, 1, 0, 0), (2, 0, 1, 1, 0, 1, 1, 1, 0)]),
        (8, [(1, 1, 0, 1, 1, 1, 1, 1, 1)]),
    ]:
        U = random_unitary(rng, 9)
        dist = obb_partition_distribution(n, 0.6)
        spec = spectrum_of(obb_state(n, 0.6))
        for outcome in outcomes:
            assert mixture_probability(U, dist, outcome) == pytest.approx(
                probability_from_spectrum(U, spec, outcome), abs=1e-12
            )

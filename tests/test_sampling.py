import itertools
import math

import numpy as np
import pytest
import scipy.stats

from helpers import haar_experiment_reference, random_pure_state, random_unitary
from partmix.errors import NegativeWeightError
from partmix.interference import mixture_probability, outcome_patterns
from partmix.partitions import PartitionDistribution, SetPartition
from partmix.sampling import (
    MAX_HAAR_N,
    CostReport,
    SamplerConfig,
    haar_unitary,
    haar_variance_experiment,
    obb_cost_curve,
    partition_cost,
    partition_sample,
    sampler_exact_distribution,
)
from partmix.states import obb_partition_distribution, obb_state, triad_phase_state


def delta_distribution(n, partition):
    return PartitionDistribution.of(n, {partition: 1.0})


def test_haar_unitary_is_unitary():
    rng = np.random.default_rng(71)
    for m in (2, 5, 16):
        U = haar_unitary(m, rng)
        assert np.max(np.abs(U @ U.conj().T - np.eye(m))) < 1e-12


def test_singletons_identity_unitary_fixed_point():
    cfg = SamplerConfig(
        unitary=np.eye(3, dtype=complex),
        distribution=delta_distribution(3, SetPartition.singletons(3)),
        seed=1,
        count=50,
    )
    assert set(partition_sample(cfg)) == {(1, 1, 1)}


def test_hom_bunching_samples():
    bs = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
    cfg = SamplerConfig(
        unitary=bs,
        distribution=delta_distribution(2, SetPartition.full(2)),
        seed=2,
        count=4000,
    )
    samples = partition_sample(cfg)
    counts = {s: samples.count(s) for s in set(samples)}
    assert set(counts) == {(2, 0), (0, 2)}
    ratio = counts[(2, 0)] / counts[(0, 2)]
    assert 0.9 < ratio < 1.1


def test_sampler_is_deterministic_per_seed():
    rng = np.random.default_rng(72)
    U = random_unitary(rng, 4)
    dist = obb_partition_distribution(3, 0.5)
    cfg = SamplerConfig(unitary=U, distribution=dist, seed=9, count=64)
    assert partition_sample(cfg) == partition_sample(cfg)
    other = SamplerConfig(unitary=U, distribution=dist, seed=10, count=64)
    assert partition_sample(other) != partition_sample(cfg)


def test_sampler_rejects_negative_weights():
    dist = PartitionDistribution.of(
        2, {SetPartition.full(2): 1.125, SetPartition.singletons(2): -0.125}
    )
    cfg = SamplerConfig(unitary=np.eye(2, dtype=complex), distribution=dist, seed=0, count=1)
    with pytest.raises(NegativeWeightError):
        partition_sample(cfg)


def test_exact_distribution_delta_cases():
    rng = np.random.default_rng(73)
    U = random_unitary(rng, 3)
    # full partition: the ideal boson-sampling law
    cfg = SamplerConfig(
        unitary=U, distribution=delta_distribution(3, SetPartition.full(3)), seed=0, count=1
    )
    from partmix.interference import ideal_probability

    exact = sampler_exact_distribution(cfg)
    for outcome in outcome_patterns(3, 3):
        assert exact.get(outcome, 0.0) == pytest.approx(
            ideal_probability(U, outcome), abs=1e-12
        )
    # singletons: product of classical row distributions
    cfg = SamplerConfig(
        unitary=U,
        distribution=delta_distribution(3, SetPartition.singletons(3)),
        seed=0,
        count=1,
    )
    exact = sampler_exact_distribution(cfg)
    p_classical = np.abs(U[:3]) ** 2
    for outcome, p in exact.items():
        brute = sum(
            math.prod(p_classical[i, f[i]] for i in range(3))
            for f in itertools.product(range(3), repeat=3)
            if tuple(np.bincount(f, minlength=3)) == outcome
        )
        assert p == pytest.approx(brute, abs=1e-12)


def test_exact_distribution_equals_engine_mixture_law():
    rng = np.random.default_rng(74)
    U = random_unitary(rng, 4)
    dist = obb_partition_distribution(3, 0.7)
    cfg = SamplerConfig(unitary=U, distribution=dist, seed=0, count=1)
    exact = sampler_exact_distribution(cfg)
    assert sum(exact.values()) == pytest.approx(1.0, abs=1e-10)
    for outcome in outcome_patterns(4, 3):
        assert exact.get(outcome, 0.0) == pytest.approx(
            mixture_probability(U, dist, outcome), abs=1e-10
        )


def test_empirical_samples_match_exact_chi_square():
    rng = np.random.default_rng(75)
    U = random_unitary(rng, 5)
    dist = obb_partition_distribution(3, 0.5)
    cfg = SamplerConfig(unitary=U, distribution=dist, seed=2024, count=20_000)
    exact = sampler_exact_distribution(cfg)
    samples = partition_sample(cfg)
    pvalue = chi_square_pvalue(samples, exact)
    assert pvalue > 1e-3


def chi_square_pvalue(samples, exact):
    n_samples = len(samples)
    counts = {}
    for s in samples:
        counts[s] = counts.get(s, 0) + 1
    # pool outcomes with expected count below 5 into one bin
    observed, expected = [], []
    pool_obs = pool_exp = 0.0
    for outcome, p in sorted(exact.items()):
        e = p * n_samples
        o = counts.get(outcome, 0)
        if e < 5.0:
            pool_obs += o
            pool_exp += e
        else:
            observed.append(o)
            expected.append(e)
    if pool_exp > 0:
        observed.append(pool_obs)
        expected.append(pool_exp)
    observed = np.array(observed, dtype=float)
    expected = np.array(expected, dtype=float)
    expected *= observed.sum() / expected.sum()
    return scipy.stats.chisquare(observed, expected).pvalue


def test_cost_report_and_bound():
    rng = np.random.default_rng(76)
    U = random_unitary(rng, 4)
    dist = obb_partition_distribution(3, 0.6)
    cfg = SamplerConfig(unitary=U, distribution=dist, seed=3, count=500)
    samples, report = partition_sample(cfg, return_cost=True)
    assert len(samples) == 500
    n = 3
    assert np.all(report.per_sample <= n * 2**n + 1e-9)
    assert report.mean == pytest.approx(report.per_sample.mean())


def test_partition_cost_values():
    assert partition_cost(SetPartition.full(3)) == 3 * 8
    assert partition_cost(SetPartition.singletons(3)) == 3 * 2
    assert partition_cost(SetPartition.of(3, [[0, 1], [2]])) == 2 * 4 + 1 * 2


def test_obb_cost_identity():
    for n in range(1, 16):
        for x in np.linspace(0.0, 1.0, 11):
            direct = obb_cost_curve(n, float(x))
            closed = n * (1 + x) ** n
            assert abs(direct - closed) <= 1e-9 * max(1.0, closed)


def test_obb_cost_endpoints():
    assert obb_cost_curve(7, 0.0) == pytest.approx(7.0)
    assert obb_cost_curve(7, 1.0) == pytest.approx(7 * 2**7)
    assert obb_cost_curve(10, 0.5) == pytest.approx(10 * 1.5**10)


def test_haar_experiment_ideal_state_near_zero():
    from partmix.states import ideal_state

    report = haar_variance_experiment(ideal_state(2), m=8, trials=1000, seed=81)
    assert report.mean_sq_raw < 1e-20
    assert report.mean_sq_twirled < 1e-20


def test_haar_experiment_class_constant_state_identical():
    # twirl fixes the OBB spectrum, so raw and twirled deviations coincide
    report = haar_variance_experiment(obb_state(2, 0.5), m=8, trials=1000, seed=82)
    assert report.mean_sq_raw == pytest.approx(report.mean_sq_twirled, rel=1e-12)


def test_haar_experiment_triad_inequality():
    report = haar_variance_experiment(
        triad_phase_state(np.pi / 2), m=12, trials=1500, seed=83
    )
    assert report.inequality_holds(sigmas=2.0)
    assert report.mean_sq_raw >= report.mean_sq_twirled  # comfortably separated here


def test_haar_experiment_validation():
    with pytest.raises(ValueError):
        haar_variance_experiment(obb_state(2, 0.5), m=8, trials=10, seed=1)
    with pytest.raises(ValueError):
        haar_variance_experiment(obb_state(2, 0.5), m=1, trials=1000, seed=1)
    with pytest.raises(ValueError, match="limited"):
        haar_variance_experiment(obb_state(MAX_HAAR_N + 1, 0.5), m=16, trials=1000, seed=1)


def test_haar_experiment_matches_per_trial_loop():
    rng = np.random.default_rng(84)
    for n in (2, 3, 4):
        state = random_pure_state(rng, n, 2)
        report = haar_variance_experiment(state, m=16, trials=1000, seed=85 + n)
        reference = haar_experiment_reference(state, m=16, trials=1000, seed=85 + n)
        for key, value in reference.items():
            assert getattr(report, key) == pytest.approx(value, rel=1e-12)


def test_sampler_rejects_negative_count():
    with pytest.raises(ValueError, match="nonnegative"):
        SamplerConfig(
            unitary=np.eye(2, dtype=complex),
            distribution=delta_distribution(2, SetPartition.full(2)),
            seed=0,
            count=-3,
        )


def test_sampler_checks_input_modes():
    U = random_unitary(np.random.default_rng(87), 4)
    dist = obb_partition_distribution(2, 0.5)
    for modes in [(-1, 0), (0, 9), (0, 0), (0, 1, 2)]:
        config = SamplerConfig(U, dist, seed=0, count=3, input_modes=modes)
        with pytest.raises(ValueError, match="input modes"):
            partition_sample(config)
        with pytest.raises(ValueError, match="input modes"):
            sampler_exact_distribution(config)


def test_cost_report_from_partitions():
    report = CostReport.from_partitions([SetPartition.full(2), SetPartition.singletons(2)])
    assert report.per_sample.tolist() == [8.0, 4.0]
    assert report.mean == 6.0

"""Shared construction helpers and slow reference routes for the test suite."""

import itertools
import math

import numpy as np

from partmix.interference import permanent
from partmix.partitions import PartitionDistribution, enumerate_partitions
from partmix.sampling import haar_unitary
from partmix.spectrum import spectrum_of, twirl
from partmix.states import mixed_product, pure_product
from partmix.symgroup import Permutation


def random_pure_state(rng, n, d):
    kets = []
    for _ in range(n):
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        kets.append(v / np.linalg.norm(v))
    return pure_product(kets)


def random_mixed_state(rng, n, d):
    rhos = []
    for _ in range(n):
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        rho = a @ a.conj().T
        rhos.append(rho / np.trace(rho))
    return mixed_product(rhos)


def random_unitary(rng, m):
    return haar_unitary(m, rng)


def random_nonneg_distribution(rng, n):
    parts = enumerate_partitions(n)
    w = rng.random(len(parts))
    w /= w.sum()
    return PartitionDistribution.of(n, dict(zip(parts, w)))


def ryser_reference(a):
    """Single-matrix Ryser permanent with Gray-code column updates, in the
    update and sign order that ``permanent`` must reproduce bit for bit."""
    k = a.shape[0]
    sums = np.zeros(k, dtype=complex)
    total = 0.0 + 0.0j
    prev = 0
    for idx in range(1, 1 << k):
        gray = idx ^ (idx >> 1)
        bit = gray ^ prev
        j = bit.bit_length() - 1
        if gray & bit:
            sums += a[:, j]
        else:
            sums -= a[:, j]
        prev = gray
        sign = -1.0 if gray.bit_count() & 1 else 1.0
        total += sign * np.prod(sums)
    return total if k % 2 == 0 else -total


def double_sum_probability(U, spec, outcome, input_modes=None):
    """No-collision probability as the double sum over path pairs,
    p = sum_sigma M_sigma sum_tau X_tau conj(X_{tau∘sigma})."""
    n = spec.n
    inputs = list(range(n)) if input_modes is None else list(input_modes)
    assert max(outcome) == 1
    outputs = [j for j, v in enumerate(outcome) if v == 1]
    sub = np.asarray(U, dtype=complex)[np.ix_(inputs, outputs)]
    images = np.array(list(itertools.permutations(range(n))))
    powers = n ** np.arange(n)
    order = np.argsort(images @ powers)
    sorted_keys = (images @ powers)[order]
    amps = np.prod(sub[np.arange(n)[None, :], images], axis=1)
    total = 0.0 + 0.0j
    for sigma in images:
        idx = order[np.searchsorted(sorted_keys, images[:, sigma] @ powers)]
        total += spec.values[Permutation(tuple(sigma))] * np.sum(amps * np.conj(amps[idx]))
    assert abs(total.imag) <= 1e-10 * max(1.0, abs(total))
    return float(total.real)


def haar_experiment_reference(state, m, trials, seed):
    """The Haar experiment as a per-trial loop: |Perm|^2 for the ideal law and
    the double sum for the raw and the twirled spectrum."""
    n = state.n
    raw = spectrum_of(state)
    twirled = twirl(raw)
    outcome = (1,) * n + (0,) * (m - n)
    dsq_raw, dsq_tw = np.empty(trials), np.empty(trials)
    for t in range(trials):
        U = haar_unitary(m, np.random.default_rng([seed, t]))
        ideal = abs(permanent(U[:n, :n])) ** 2
        dsq_raw[t] = (double_sum_probability(U, raw, outcome) - ideal) ** 2
        dsq_tw[t] = (double_sum_probability(U, twirled, outcome) - ideal) ** 2
    root = math.sqrt(trials)
    return {
        "mean_sq_raw": dsq_raw.mean(),
        "mean_sq_twirled": dsq_tw.mean(),
        "se_raw": dsq_raw.std(ddof=1) / root,
        "se_twirled": dsq_tw.std(ddof=1) / root,
    }

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


# ---------------------------------------------------------------------------
# JSON Schema (draft 2020-12) versions of the four document formats, the slow
# reference that the typed loaders in ``partmix.serialize`` are checked against.

COMPLEX_SCHEMA = {
    "type": "array",
    "items": {"type": "number"},
    "minItems": 2,
    "maxItems": 2,
}

PHOTON_SCHEMA = {
    "type": "object",
    "oneOf": [{"required": ["ket"]}, {"required": ["rho"]}],
    "properties": {
        "ket": {"type": "array", "items": COMPLEX_SCHEMA, "minItems": 1},
        "rho": {
            "type": "array",
            "items": {"type": "array", "items": COMPLEX_SCHEMA, "minItems": 1},
            "minItems": 1,
        },
    },
    "additionalProperties": False,
}

STATE_SCHEMA = {
    "type": "object",
    "properties": {
        "family": {
            "type": "string",
            "enum": ["obb", "triad", "partition", "ideal", "negative"],
        },
        "n": {"type": "integer", "minimum": 1},
        "x": {"type": "number", "minimum": 0, "maximum": 1},
        "phi": {"type": "number"},
        "cells": {
            "type": "array",
            "items": {"type": "array", "items": {"type": "integer", "minimum": 0}},
        },
        "dim": {"type": "integer", "minimum": 1},
        "photons": {"type": "array", "items": PHOTON_SCHEMA, "minItems": 1},
        "mixture": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["weight", "photons"],
                "properties": {
                    "weight": {"type": "number", "minimum": 0},
                    "photons": {"type": "array", "items": PHOTON_SCHEMA, "minItems": 1},
                },
                "additionalProperties": False,
            },
        },
    },
}

UNITARY_SCHEMA = {
    "type": "object",
    "required": ["matrix"],
    "properties": {
        "matrix": {
            "type": "array",
            "minItems": 1,
            "items": {"type": "array", "items": COMPLEX_SCHEMA, "minItems": 1},
        },
    },
}

SPECTRUM_SCHEMA = {
    "type": "object",
    "required": ["n", "values"],
    "properties": {
        "n": {"type": "integer", "minimum": 1, "maximum": 8},
        "values": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["sigma", "re", "im"],
                "properties": {
                    "sigma": {"type": "array", "items": {"type": "integer", "minimum": 0}},
                    "re": {"type": "number"},
                    "im": {"type": "number"},
                },
                "additionalProperties": False,
            },
        },
    },
}

DISTRIBUTION_SCHEMA = {
    "type": "object",
    "required": ["n", "weights"],
    "properties": {
        "n": {"type": "integer", "minimum": 1, "maximum": 8},
        "weights": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["partition", "weight"],
                "properties": {
                    "partition": {
                        "type": "array",
                        "items": {"type": "array", "items": {"type": "integer", "minimum": 0}},
                    },
                    "weight": {"type": "number"},
                },
                "additionalProperties": False,
            },
        },
    },
}


def schema_accepts(doc, schema) -> bool:
    """Whether ``doc`` is valid under ``schema`` by jsonschema; skips the test
    when jsonschema is not installed."""
    import pytest

    jsonschema = pytest.importorskip("jsonschema")
    return jsonschema.Draft202012Validator(schema).is_valid(doc)


def has_non_finite(doc) -> bool:
    if isinstance(doc, dict):
        return any(has_non_finite(v) for v in doc.values())
    if isinstance(doc, list):
        return any(has_non_finite(v) for v in doc)
    return isinstance(doc, float) and not math.isfinite(doc)

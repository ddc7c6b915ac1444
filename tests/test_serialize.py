import json
import math

import numpy as np
import pytest

from helpers import random_mixed_state, random_pure_state, random_unitary
from partmix.errors import SchemaError
from partmix.partitions import SetPartition, enumerate_partitions
from partmix.serialize import (
    canonical_dumps,
    distribution_from_json,
    distribution_to_json,
    spectrum_from_json,
    spectrum_to_json,
    state_from_json,
    state_to_json,
    unitary_from_json,
    unitary_to_json,
)
from partmix.spectrum import spectrum_of
from partmix.states import Mixture, obb_partition_distribution, obb_state
from partmix.symgroup import enumerate_permutations


def spectra_equal(a, b, tol=0.0):
    return all(abs(a.value(s) - b.value(s)) <= tol for s in enumerate_permutations(a.n))


def test_canonical_dumps_is_sorted_and_fixed_precision():
    doc = {"b": 1 / 3, "a": [True, None, 2]}
    text = canonical_dumps(doc)
    assert text == '{"a":[true,null,2],"b":0.33333333333333331}'


def test_canonical_dumps_rejects_non_finite():
    with pytest.raises(ValueError):
        canonical_dumps({"x": float("inf")})


def test_pure_state_roundtrip():
    rng = np.random.default_rng(90)
    state = random_pure_state(rng, 3, 2)
    doc = state_to_json(state)
    assert doc["n"] == 3 and doc["dim"] == 2
    back = state_from_json(json.loads(json.dumps(doc)))
    assert spectra_equal(spectrum_of(state), spectrum_of(back), tol=1e-12)


def test_mixed_state_roundtrip():
    rng = np.random.default_rng(91)
    state = random_mixed_state(rng, 2, 3)
    back = state_from_json(state_to_json(state))
    assert spectra_equal(spectrum_of(state), spectrum_of(back), tol=1e-12)


def test_mixture_roundtrip():
    rng = np.random.default_rng(92)
    mix = Mixture(
        2, ((0.4, random_pure_state(rng, 2, 2)), (0.6, random_pure_state(rng, 2, 2)))
    )
    doc = state_to_json(mix)
    back = state_from_json(doc)
    assert isinstance(back, Mixture)
    assert spectra_equal(spectrum_of(mix), spectrum_of(back), tol=1e-12)


def test_family_builders():
    obb = state_from_json({"family": "obb", "n": 3, "x": 0.5})
    assert spectra_equal(spectrum_of(obb), spectrum_of(obb_state(3, 0.5)), tol=0.0)
    triad = state_from_json({"family": "triad", "phi": 1.57})
    assert triad.n == 3
    part = state_from_json({"family": "partition", "cells": [[0, 1], [2]]})
    assert part.partition == SetPartition.of(3, [[0, 1], [2]])
    with pytest.raises(SchemaError, match="requires"):
        state_from_json({"family": "obb", "n": 3})
    with pytest.raises(SchemaError):
        state_from_json({"family": "septuplet"})


def test_declared_counts_must_match():
    doc = {"n": 3, "photons": [{"ket": [[1.0, 0.0]]}]}
    with pytest.raises(SchemaError, match="/n"):
        state_from_json(doc)
    doc = {"dim": 4, "photons": [{"ket": [[1.0, 0.0]]}]}
    with pytest.raises(SchemaError, match="/dim"):
        state_from_json(doc)


def test_state_schema_errors_carry_pointers():
    with pytest.raises(SchemaError) as err:
        state_from_json({"photons": [{"ket": [[1.0, 0.0]]}, {"ket": 5}]})
    assert err.value.path == "/photons/1/ket"


def test_heterogeneous_photons_in_one_product():
    # one photon given as a ket, one as a density matrix
    doc = {
        "photons": [
            {"ket": [[1.0, 0.0], [0.0, 0.0]]},
            {"rho": [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]},
        ]
    }
    state = state_from_json(doc)
    assert state.n == 2 and not state.is_pure
    spec = spectrum_of(state)
    swap = next(s for s in enumerate_permutations(2) if not s.is_identity())
    assert spec.value(swap) == pytest.approx(0.5, abs=1e-14)
    back = state_from_json(state_to_json(state))
    assert spectra_equal(spec, spectrum_of(back), tol=1e-14)


def test_spectrum_roundtrip():
    spec = spectrum_of(obb_state(3, 0.7))
    back = spectrum_from_json(spectrum_to_json(spec))
    assert spectra_equal(spec, back, tol=0.0)


def test_spectrum_json_requires_completeness():
    spec = spectrum_of(obb_state(2, 0.7))
    doc = spectrum_to_json(spec)
    doc["values"] = doc["values"][:1]
    with pytest.raises(SchemaError, match="cover all"):
        spectrum_from_json(doc)
    doc2 = spectrum_to_json(spec)
    doc2["values"][0]["sigma"] = [0, 0]
    with pytest.raises(SchemaError, match="permutation"):
        spectrum_from_json(doc2)


def test_spectrum_json_rejects_repeated_sigma():
    # every permutation present, but the identity twice: the last entry used to win
    doc = spectrum_to_json(spectrum_of(obb_state(2, 0.7)))
    doc["values"].append({"sigma": [0, 1], "re": 0.2, "im": 0.0})
    with pytest.raises(SchemaError, match="twice") as info:
        spectrum_from_json(doc)
    assert info.value.path == "/values/2/sigma"


def test_unitary_roundtrip_and_defect_gate():
    rng = np.random.default_rng(93)
    U = random_unitary(rng, 3)
    back = unitary_from_json(unitary_to_json(U))
    assert np.max(np.abs(back - U)) < 1e-15
    with pytest.raises(SchemaError, match="defect"):
        unitary_from_json(unitary_to_json(U * 1.01))
    ragged = {"matrix": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0]]]}
    with pytest.raises(SchemaError, match="/matrix/1"):
        unitary_from_json(ragged)


def test_distribution_roundtrip():
    dist = obb_partition_distribution(3, 0.4)
    back = distribution_from_json(distribution_to_json(dist))
    for p in enumerate_partitions(3):
        assert back.weights[p] == dist.weights[p]


def test_distribution_rejects_bad_partition():
    doc = {"n": 3, "weights": [{"partition": [[0, 1]], "weight": 1.0}]}
    with pytest.raises(SchemaError, match="/weights/0/partition"):
        distribution_from_json(doc)


def test_seventeen_digit_floats_roundtrip_exactly():
    values = [1 / 3, math.pi, 0.1 + 0.2, 1e-300, 123456789.123456789]
    for v in values:
        assert float(f"{v:.17g}") == v

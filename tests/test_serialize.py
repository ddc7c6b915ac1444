import copy
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    DISTRIBUTION_SCHEMA,
    SPECTRUM_SCHEMA,
    STATE_SCHEMA,
    UNITARY_SCHEMA,
    has_non_finite,
    random_mixed_state,
    random_nonneg_distribution,
    random_pure_state,
    random_unitary,
    schema_accepts,
)
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
from partmix.symgroup import Permutation, enumerate_permutations


def spectra_equal(a, b, tol=0.0):
    return all(abs(a.value(s) - b.value(s)) <= tol for s in enumerate_permutations(a.n))


def test_canonical_dumps_is_sorted_and_fixed_precision():
    doc = {"b": 1 / 3, "a": [True, None, 2]}
    text = canonical_dumps(doc)
    assert text == '{"a":[true,null,2],"b":0.33333333333333331}'


def test_cli_import_leaves_jsonschema_out():
    import partmix

    code = "import sys, partmix.cli\nsys.exit('jsonschema' in sys.modules)\n"
    env = dict(os.environ, PYTHONPATH=str(Path(partmix.__file__).parents[1]))
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


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
    swap = next(s for s in enumerate_permutations(2) if s != Permutation.identity(2))
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


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), 10**400])
def test_non_finite_numbers_are_rejected_with_a_pointer(bad):
    dist = {"n": 2, "weights": [{"partition": [[0, 1]], "weight": bad}]}
    with pytest.raises(SchemaError) as info:
        distribution_from_json(dist)
    assert info.value.path == "/weights/0/weight"
    spec = spectrum_to_json(spectrum_of(obb_state(2, 0.7)))
    spec["values"][1]["re"] = bad
    with pytest.raises(SchemaError) as info:
        spectrum_from_json(spec)
    assert info.value.path == "/values/1/re"
    state = {"photons": [{"ket": [[1.0, 0.0]]}, {"ket": [[1.0, bad]]}]}
    with pytest.raises(SchemaError) as info:
        state_from_json(state)
    assert info.value.path == "/photons/1/ket/0/1"
    unitary = {"matrix": [[[bad, 0.0]]]}
    with pytest.raises(SchemaError) as info:
        unitary_from_json(unitary)
    assert info.value.path == "/matrix/0/0/0"


def test_type_rules_follow_json_schema():
    # an integral float is an integer; a bool is neither a number nor an integer
    assert state_from_json({"family": "ideal", "n": 3.0}).n == 3
    for doc, path in (
        ({"family": "ideal", "n": 2.5}, "/n"),
        ({"family": "ideal", "n": True}, "/n"),
        ({"family": "obb", "n": 2, "x": False}, "/x"),
        ({"family": "triad", "phi": "1.0"}, "/phi"),
        ({"family": "obb", "n": 2, "x": 1.5}, "/x"),
        ({"family": "partition", "cells": [[0, -1]]}, "/cells/0/1"),
        ({"family": "partition", "cells": [[0], []]}, "/cells"),
        ({"family": "partition", "cells": []}, "/cells"),
        ({"family": "quartet"}, "/family"),
        ({"photons": [{"ket": [[1.0, 0.0]], "rho": [[[1.0, 0.0]]]}]}, "/photons/0"),
        ({"photons": [{"ket": [[1.0, 0.0]], "spin": 1}]}, "/photons/0"),
        ({"photons": [{"ket": [[1.0, 0.0, 0.0]]}]}, "/photons/0/ket/0"),
        ({"photons": [{"ket": [[0.5, 0.0]]}]}, "/photons/0/ket"),
        ({"mixture": [{"weight": 1.0}]}, "/mixture/0"),
        ([], ""),
    ):
        with pytest.raises(SchemaError) as info:
            state_from_json(doc)
        assert info.value.path == path, doc
    with pytest.raises(SchemaError) as info:
        distribution_from_json({"n": 2, "weights": [{"partition": [[0, 1]], "weight": True}]})
    assert info.value.path == "/weights/0/weight"


def test_distribution_rejects_repeated_partition():
    # the last entry used to win silently
    doc = {"n": 2, "weights": [{"partition": [[0, 1]], "weight": 0.5}] * 2}
    with pytest.raises(SchemaError, match="twice") as info:
        distribution_from_json(doc)
    assert info.value.path == "/weights/1/partition"


# ---------------------------------------------------------------------------
# parity with the JSON Schema reference (tests/helpers.py)

LOADERS = {
    "state": (state_from_json, STATE_SCHEMA),
    "spectrum": (spectrum_from_json, SPECTRUM_SCHEMA),
    "unitary": (unitary_from_json, UNITARY_SCHEMA),
    "distribution": (distribution_from_json, DISTRIBUTION_SCHEMA),
}

# Messages of faults that a JSON Schema can express; every other SchemaError
# is a check made on a schema-valid document.
TYPING_FAULT = re.compile(
    r"^expected |is a required property$|^additional property |is not a finite number$"
    r"|than the (minimum|maximum) of |is not one of |^a photon needs exactly one of "
)

POOL = [
    None, True, False, 0, 1, -1, 2, 9, 1.5, 3.0, -0.5, "x", "obb", [], [1.0, 0.0], [0, 1],
    [[0, 1]], {}, {"ket": [[1.0, 0.0]]}, float("nan"), float("inf"),
]
KEYS = ["extra", "ket", "rho", "n", "dim", "family", "weight", "x", "cells", "photons"]


def _valid_doc(kind: str, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 4))
    if kind == "unitary":
        return unitary_to_json(random_unitary(rng, n))
    if kind == "distribution":
        return distribution_to_json(random_nonneg_distribution(rng, n))
    if kind == "spectrum":
        doc = spectrum_to_json(spectrum_of(random_pure_state(rng, n, 2)))
        rng.shuffle(doc["values"])
        return doc
    shape = int(rng.integers(6))
    if shape == 0:
        return state_to_json(random_pure_state(rng, n, int(rng.integers(1, 4))))
    if shape == 1:
        return state_to_json(random_mixed_state(rng, n, 2))
    if shape == 2:
        w = float(rng.random())
        comps = ((w, random_pure_state(rng, n, 2)), (1.0 - w, random_pure_state(rng, n, 2)))
        return state_to_json(Mixture(n, comps))
    if shape == 3:
        return {"family": "obb", "n": n, "x": float(rng.random())}
    if shape == 4:
        return {"family": "partition", "cells": [[i] for i in range(n)]}
    return {"family": str(rng.choice(["triad", "negative"])), "phi": 0.3}


def _nodes(doc, path=()):
    yield path, doc
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _nodes(value, path + (key,))


@st.composite
def documents(draw):
    kind = draw(st.sampled_from(sorted(LOADERS)))
    doc = _valid_doc(kind, draw(st.integers(0, 2**32 - 1)))
    for _ in range(draw(st.integers(0, 2))):
        path, node = draw(st.sampled_from(list(_nodes(doc))))
        op = draw(st.sampled_from(["replace", "drop", "add"]))
        if op == "replace" or not isinstance(node, (dict, list)) or (op == "drop" and not node):
            value = copy.deepcopy(draw(st.sampled_from(POOL)))
            if not path:
                doc = value
                continue
            parent = doc
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]] = value
        elif op == "drop":
            del node[draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))]
        elif isinstance(node, dict):
            node[draw(st.sampled_from(KEYS))] = copy.deepcopy(draw(st.sampled_from(POOL)))
        else:
            node.append(copy.deepcopy(draw(st.sampled_from(POOL + node))))
    return kind, doc


@pytest.mark.parametrize("kind", sorted(LOADERS))
@pytest.mark.parametrize("seed", range(10))
def test_valid_documents_load(kind, seed):
    load, schema = LOADERS[kind]
    doc = _valid_doc(kind, seed)
    assert schema_accepts(doc, schema)
    load(doc)


@given(documents())
@settings(max_examples=400, deadline=None)
def test_loaders_agree_with_json_schema(case):
    kind, doc = case
    load, schema = LOADERS[kind]
    try:
        load(copy.deepcopy(doc))
        fault = None
    except SchemaError as exc:
        fault = exc
    if not schema_accepts(doc, schema):
        assert fault is not None, doc
    elif fault is not None and not has_non_finite(doc):
        assert not TYPING_FAULT.search(fault.message), (doc, fault)

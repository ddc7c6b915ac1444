"""JSON schemas, loaders, and canonical serialization.

Canonical output: keys sorted, floats rendered with 17 significant digits,
so identical inputs produce byte-identical artifacts through the CLI and
the library alike.
"""

from __future__ import annotations

import json
import math
from typing import Any

import jsonschema
import numpy as np

from .errors import SchemaError
from .interference import UNITARY_TOL, check_unitary
from .partitions import PartitionDistribution, SetPartition, enumerate_partitions
from .spectrum import Spectrum
from .states import (
    Mixture,
    ProductState,
    State,
    ideal_state,
    negative_partition_state,
    obb_state,
    partition_state,
    triad_phase_state,
)
from .symgroup import Permutation, enumerate_permutations

COMPLEX = {
    "type": "array",
    "items": {"type": "number"},
    "minItems": 2,
    "maxItems": 2,
}

PHOTON = {
    "type": "object",
    "oneOf": [{"required": ["ket"]}, {"required": ["rho"]}],
    "properties": {
        "ket": {"type": "array", "items": COMPLEX, "minItems": 1},
        "rho": {
            "type": "array",
            "items": {"type": "array", "items": COMPLEX, "minItems": 1},
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
        "photons": {"type": "array", "items": PHOTON, "minItems": 1},
        "mixture": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["weight", "photons"],
                "properties": {
                    "weight": {"type": "number", "minimum": 0},
                    "photons": {"type": "array", "items": PHOTON, "minItems": 1},
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
            "items": {"type": "array", "items": COMPLEX, "minItems": 1},
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


def validate_schema(doc: Any, schema: dict) -> None:
    validator = jsonschema.Draft202012Validator(schema)
    errors = sorted(validator.iter_errors(doc), key=lambda e: list(e.absolute_path))
    if errors:
        err = errors[0]
        path = "/" + "/".join(str(p) for p in err.absolute_path)
        raise SchemaError(path, err.message)


def _canonical(obj: Any, out: list[str]) -> None:
    if isinstance(obj, dict):
        out.append("{")
        for i, key in enumerate(sorted(obj)):
            if i:
                out.append(",")
            out.append(json.dumps(str(key)))
            out.append(":")
            _canonical(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(",")
            _canonical(item, out)
        out.append("]")
    elif isinstance(obj, bool) or obj is None:
        out.append(json.dumps(obj))
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        v = float(obj)
        if not math.isfinite(v):
            raise ValueError(f"non-finite float {v} in canonical JSON")
        out.append(f"{v:.17g}")
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    else:
        raise TypeError(f"cannot serialize {type(obj)}")


def canonical_dumps(obj: Any) -> str:
    out: list[str] = []
    _canonical(obj, out)
    return "".join(out)


def _complex_pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _as_complex(pair, path: str) -> complex:
    if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
        raise SchemaError(path, "expected a [re, im] pair")
    return complex(pair[0], pair[1])


# ---------------------------------------------------------------------------
# states


def state_to_json(state: State) -> dict:
    if isinstance(state, Mixture):
        return {
            "n": state.n,
            "dim": state.components[0][1].dim,
            "mixture": [
                {"weight": w, "photons": _photons_to_json(s)} for w, s in state.components
            ],
        }
    return {"n": state.n, "dim": state.dim, "photons": _photons_to_json(state)}


def _photons_to_json(state: ProductState) -> list[dict]:
    out = []
    for p in state.photons:
        if p.is_pure:
            out.append({"ket": [_complex_pair(z) for z in p.ket]})
        else:
            out.append({"rho": [[_complex_pair(z) for z in row] for row in p.matrix]})
    return out


def _photons_from_json(photons: list, path: str) -> ProductState:
    from .states import InternalState

    parsed = []
    for i, photon in enumerate(photons):
        if "ket" in photon:
            ket = np.array([_as_complex(z, f"{path}/{i}/ket") for z in photon["ket"]])
            parsed.append(InternalState.from_ket(ket))
        else:
            rho = np.array(
                [[_as_complex(z, f"{path}/{i}/rho") for z in row] for row in photon["rho"]]
            )
            parsed.append(InternalState.from_matrix(rho))
    return ProductState(n=len(parsed), photons=tuple(parsed))


def state_from_json(doc: dict) -> State:
    validate_schema(doc, STATE_SCHEMA)
    if "family" in doc:
        return _family_state(doc)
    if "mixture" in doc:
        comps = tuple(
            (float(c["weight"]), _photons_from_json(c["photons"], f"/mixture/{i}/photons"))
            for i, c in enumerate(doc["mixture"])
        )
        state: State = Mixture(n=comps[0][1].n, components=comps)
        dim = comps[0][1].dim
    elif "photons" in doc:
        state = _photons_from_json(doc["photons"], "/photons")
        dim = state.dim
    else:
        raise SchemaError("", "state needs one of: family, photons, mixture")
    if "n" in doc and doc["n"] != state.n:
        raise SchemaError("/n", f"declared n={doc['n']} but found {state.n} photons")
    if "dim" in doc and doc["dim"] != dim:
        raise SchemaError("/dim", f"declared dim={doc['dim']} but photons have dim {dim}")
    return state


def _family_state(doc: dict) -> State:
    family = doc["family"]
    if family == "obb":
        _need(doc, ["n", "x"], "obb")
        return obb_state(int(doc["n"]), float(doc["x"]))
    if family == "triad":
        _need(doc, ["phi"], "triad")
        return triad_phase_state(float(doc["phi"]))
    if family == "partition":
        _need(doc, ["cells"], "partition")
        cells = doc["cells"]
        n = sum(len(c) for c in cells)
        return partition_state(SetPartition.of(n, cells))
    if family == "ideal":
        _need(doc, ["n"], "ideal")
        return ideal_state(int(doc["n"]))
    if family == "negative":
        return negative_partition_state()
    raise SchemaError("/family", f"unknown family {family!r}")


def _need(doc: dict, keys: list[str], family: str) -> None:
    for k in keys:
        if k not in doc:
            raise SchemaError(f"/{k}", f"family {family!r} requires {k!r}")


# ---------------------------------------------------------------------------
# spectra


def spectrum_to_json(spec: Spectrum) -> dict:
    return {"n": spec.n, "values": spec.to_json()}


def spectrum_from_json(doc: dict) -> Spectrum:
    validate_schema(doc, SPECTRUM_SCHEMA)
    n = doc["n"]
    values = {}
    for i, rec in enumerate(doc["values"]):
        sigma = rec["sigma"]
        if sorted(sigma) != list(range(n)):
            raise SchemaError(f"/values/{i}/sigma", f"not a permutation of 0..{n - 1}")
        key = Permutation(tuple(sigma))
        if key in values:
            raise SchemaError(f"/values/{i}/sigma", f"permutation {sigma} appears twice")
        values[key] = complex(rec["re"], rec["im"])
    expected = set(enumerate_permutations(n))
    if set(values) != expected:
        raise SchemaError("/values", f"spectrum must cover all {len(expected)} permutations")
    return Spectrum(n, values)


def class_values_to_json(class_values: dict[SetPartition, complex]) -> list[dict]:
    return [
        {"partition": p.to_json(), "re": complex(v).real, "im": complex(v).imag}
        for p, v in sorted(class_values.items(), key=lambda kv: kv[0].rgs())
    ]


# ---------------------------------------------------------------------------
# unitaries


def unitary_to_json(U: np.ndarray) -> dict:
    U = np.asarray(U, dtype=complex)
    return {"matrix": [[_complex_pair(z) for z in row] for row in U]}


def unitary_from_json(doc: dict, defect_tol: float = UNITARY_TOL) -> np.ndarray:
    validate_schema(doc, UNITARY_SCHEMA)
    rows = doc["matrix"]
    m = len(rows)
    for i, row in enumerate(rows):
        if len(row) != m:
            raise SchemaError(f"/matrix/{i}", f"row has {len(row)} entries, expected {m}")
    U = np.array(
        [[_as_complex(z, f"/matrix/{i}/{j}") for j, z in enumerate(row)] for i, row in enumerate(rows)]
    )
    try:
        check_unitary(U, defect_tol)
    except ValueError as exc:
        raise SchemaError("/matrix", str(exc)) from None
    return U


# ---------------------------------------------------------------------------
# partition distributions


def distribution_to_json(dist: PartitionDistribution) -> dict:
    return {"n": dist.n, "weights": dist.to_json()}


def distribution_from_json(doc: dict) -> PartitionDistribution:
    validate_schema(doc, DISTRIBUTION_SCHEMA)
    n = doc["n"]
    valid = set(enumerate_partitions(n))
    weights = {}
    for i, rec in enumerate(doc["weights"]):
        try:
            p = SetPartition.of(n, rec["partition"])
        except ValueError as exc:
            raise SchemaError(f"/weights/{i}/partition", str(exc)) from exc
        if p not in valid:
            raise SchemaError(f"/weights/{i}/partition", "not a valid partition")
        weights[p] = float(rec["weight"])
    return PartitionDistribution.of(n, weights)


def partition_from_cells(cells, n: int | None = None) -> SetPartition:
    if n is None:
        n = sum(len(c) for c in cells)
    return SetPartition.of(n, cells)

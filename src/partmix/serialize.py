"""Typed JSON loaders and canonical serialization.

Canonical output: keys sorted, floats rendered with 17 significant digits,
so identical inputs produce byte-identical artifacts through the CLI and
the library alike.
"""

from __future__ import annotations

import json
import math
from typing import Any

import numpy as np

from .errors import SchemaError
from .interference import UNITARY_TOL, check_unitary
from .partitions import PartitionDistribution, SetPartition
from .spectrum import Spectrum
from .states import (
    InternalState,
    Mixture,
    ProductState,
    State,
    ideal_state,
    negative_partition_state,
    obb_state,
    partition_state,
    triad_phase_state,
)
from .symgroup import Permutation

# ---------------------------------------------------------------------------
# typed readers: each walks one node at a JSON-pointer path and raises
# SchemaError on the first fault. A bool is not a number, an integral float
# is an integer, and a non-finite number is rejected.


_KINDS = {int: "number", float: "number", dict: "object", list: "array", str: "string",
          bool: "boolean", type(None): "null"}


def _kind(value: Any) -> str:
    if type(value) in _KINDS:
        return _KINDS[type(value)]
    if isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool):
        return "number"
    return type(value).__name__


def _object(value: Any, path: str, required: tuple = (), allowed: tuple | None = None) -> dict:
    if not isinstance(value, dict):
        raise SchemaError(path, f"expected object, got {_kind(value)}")
    for key in required:
        if key not in value:
            raise SchemaError(path, f"{key!r} is a required property")
    if allowed is not None:
        for key in value:
            if key not in allowed:
                raise SchemaError(path, f"additional property {key!r} is not allowed")
    return value


def _array(value: Any, path: str, min_items: int = 0) -> list:
    if not isinstance(value, list):
        raise SchemaError(path, f"expected array, got {_kind(value)}")
    if len(value) < min_items:
        raise SchemaError(path, f"expected at least {min_items} item(s), got {len(value)}")
    return value


def _number(value: Any, path: str, lo=None, hi=None, expected: str = "number") -> float:
    if _kind(value) != "number":
        raise SchemaError(path, f"expected {expected}, got {_kind(value)}")
    try:
        v = float(value)
    except OverflowError:
        v = math.inf
    if not math.isfinite(v):
        raise SchemaError(path, f"{value!r} is not a finite number")
    if lo is not None and value < lo:
        raise SchemaError(path, f"{value!r} is less than the minimum of {lo}")
    if hi is not None and value > hi:
        raise SchemaError(path, f"{value!r} is greater than the maximum of {hi}")
    return v


def _integer(value: Any, path: str, lo: int | None = None, hi: int | None = None) -> int:
    _number(value, path, lo, hi, "integer")
    if isinstance(value, (float, np.floating)) and not value.is_integer():
        raise SchemaError(path, f"expected integer, got {value!r}")
    return int(value)


def _complex(value: Any, path: str) -> complex:
    pair = _array(value, path)
    if len(pair) != 2:
        raise SchemaError(path, "expected a [re, im] pair")
    return complex(_number(pair[0], f"{path}/0"), _number(pair[1], f"{path}/1"))


def _complexes(value: Any, path: str) -> list[complex]:
    return [_complex(z, f"{path}/{j}") for j, z in enumerate(_array(value, path, min_items=1))]


def _square(value: Any, path: str) -> np.ndarray:
    """A non-empty square matrix of [re, im] pairs."""
    rows = [_complexes(row, f"{path}/{i}") for i, row in enumerate(_array(value, path, 1))]
    for i, row in enumerate(rows):
        if len(row) != len(rows):
            raise SchemaError(f"{path}/{i}", f"row has {len(row)} entries, expected {len(rows)}")
    return np.array(rows)


def _indices(value: Any, path: str) -> list[int]:
    return [_integer(v, f"{path}/{j}", lo=0) for j, v in enumerate(_array(value, path))]


def _cells(value: Any, path: str) -> list[list[int]]:
    return [_indices(cell, f"{path}/{i}") for i, cell in enumerate(_array(value, path))]


def _built(path: str, build, *args):
    """``build(*args)``, with a ValueError from the builder reported at ``path``."""
    try:
        return build(*args)
    except ValueError as exc:
        raise SchemaError(path, str(exc)) from None


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


# ---------------------------------------------------------------------------
# states

# Each family and the fields it requires.
_FAMILIES = {"obb": ("n", "x"), "triad": ("phi",), "partition": ("cells",), "ideal": ("n",),
             "negative": ()}


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


def _read_photons(value: Any, path: str) -> list[tuple[str, Any, np.ndarray]]:
    """Each photon as (path, builder, array), typed but not built."""
    out = []
    for i, photon in enumerate(_array(value, path, min_items=1)):
        at = f"{path}/{i}"
        photon = _object(photon, at, allowed=("ket", "rho"))
        if len(photon) != 1:
            raise SchemaError(at, "a photon needs exactly one of 'ket', 'rho'")
        if "ket" in photon:
            ket = np.array(_complexes(photon["ket"], f"{at}/ket"))
            out.append((f"{at}/ket", InternalState.from_ket, ket))
        else:
            rho = _square(photon["rho"], f"{at}/rho")
            out.append((f"{at}/rho", InternalState.from_matrix, rho))
    return out


def _read_mixture(value: Any, path: str) -> list[tuple[float, list]]:
    out = []
    for i, comp in enumerate(_array(value, path, min_items=1)):
        at = f"{path}/{i}"
        comp = _object(comp, at, required=("weight", "photons"), allowed=("weight", "photons"))
        weight = _number(comp["weight"], f"{at}/weight", lo=0)
        out.append((weight, _read_photons(comp["photons"], f"{at}/photons")))
    return out


def _family(value: Any, path: str) -> str:
    if not isinstance(value, str) or value not in _FAMILIES:
        raise SchemaError(path, f"{value!r} is not one of {list(_FAMILIES)}")
    return value


_STATE_FIELDS = {
    "family": _family,
    "n": lambda v, at: _integer(v, at, lo=1),
    "x": lambda v, at: _number(v, at, 0, 1),
    "phi": _number,
    "cells": _cells,
    "dim": lambda v, at: _integer(v, at, lo=1),
    "photons": _read_photons,
    "mixture": _read_mixture,
}


def _product(photons: list[tuple[str, Any, np.ndarray]], path: str) -> ProductState:
    built = tuple(_built(at, build, a) for at, build, a in photons)
    return _built(path, ProductState, len(built), built)


def state_from_json(doc: dict) -> State:
    doc = _object(doc, "")
    fields = {key: read(doc[key], f"/{key}") for key, read in _STATE_FIELDS.items() if key in doc}
    if "family" in fields:
        return _family_state(fields)
    if "mixture" in fields:
        comps = tuple(
            (w, _product(photons, f"/mixture/{i}/photons"))
            for i, (w, photons) in enumerate(fields["mixture"])
        )
        state: State = _built("/mixture", Mixture, comps[0][1].n, comps)
        dim = comps[0][1].dim
    elif "photons" in fields:
        state = _product(fields["photons"], "/photons")
        dim = state.dim
    else:
        raise SchemaError("", "state needs one of: family, photons, mixture")
    if "n" in fields and fields["n"] != state.n:
        raise SchemaError("/n", f"declared n={fields['n']} but found {state.n} photons")
    if "dim" in fields and fields["dim"] != dim:
        raise SchemaError("/dim", f"declared dim={fields['dim']} but photons have dim {dim}")
    return state


def _family_state(fields: dict) -> State:
    family = fields["family"]
    for key in _FAMILIES[family]:
        if key not in fields:
            raise SchemaError(f"/{key}", f"family {family!r} requires {key!r}")
    if family == "obb":
        return _built("/n", obb_state, fields["n"], fields["x"])
    if family == "triad":
        return triad_phase_state(fields["phi"])
    if family == "partition":
        return partition_state(partition_from_cells(fields["cells"]))
    if family == "ideal":
        return ideal_state(fields["n"])
    return negative_partition_state()


# ---------------------------------------------------------------------------
# spectra


def spectrum_to_json(spec: Spectrum) -> dict:
    return {"n": spec.n, "values": spec.to_json()}


def spectrum_from_json(doc: dict) -> Spectrum:
    doc = _object(doc, "", required=("n", "values"))
    n = _integer(doc["n"], "/n", lo=1, hi=8)
    identity = list(range(n))
    values = {}
    for i, rec in enumerate(_array(doc["values"], "/values")):
        at = f"/values/{i}"
        rec = _object(rec, at, required=("sigma", "re", "im"), allowed=("sigma", "re", "im"))
        sigma = _indices(rec["sigma"], f"{at}/sigma")
        value = complex(_number(rec["re"], f"{at}/re"), _number(rec["im"], f"{at}/im"))
        if sorted(sigma) != identity:
            raise SchemaError(f"{at}/sigma", f"not a permutation of 0..{n - 1}")
        key = Permutation(tuple(sigma))
        if key in values:
            raise SchemaError(f"{at}/sigma", f"permutation {sigma} appears twice")
        values[key] = value
    total = math.factorial(n)
    if len(values) != total:
        raise SchemaError("/values", f"spectrum must cover all {total} permutations")
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
    doc = _object(doc, "", required=("matrix",))
    U = _square(doc["matrix"], "/matrix")
    _built("/matrix", check_unitary, U, defect_tol)
    return U


# ---------------------------------------------------------------------------
# partition distributions


def distribution_to_json(dist: PartitionDistribution) -> dict:
    return {"n": dist.n, "weights": dist.to_json()}


def distribution_from_json(doc: dict) -> PartitionDistribution:
    doc = _object(doc, "", required=("n", "weights"))
    n = _integer(doc["n"], "/n", lo=1, hi=8)
    weights = {}
    for i, rec in enumerate(_array(doc["weights"], "/weights")):
        at = f"/weights/{i}"
        rec = _object(rec, at, required=("partition", "weight"), allowed=("partition", "weight"))
        p = partition_from_cells(rec["partition"], n, f"{at}/partition")
        weight = _number(rec["weight"], f"{at}/weight")
        if p in weights:
            raise SchemaError(f"{at}/partition", f"partition {p.to_json()} appears twice")
        weights[p] = weight
    return PartitionDistribution.of(n, weights)


def partition_from_cells(cells: Any, n: int | None = None, path: str = "/cells") -> SetPartition:
    """The set partition of 0..n-1 given by JSON cells such as [[0, 1], [2]];
    n defaults to the number of elements listed."""
    cells = _cells(cells, path)
    if not cells or not all(cells):
        raise SchemaError(path, "a partition needs one or more cells, none of them empty")
    return _built(path, SetPartition.of, sum(map(len, cells)) if n is None else n, cells)

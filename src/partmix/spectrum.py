"""Generalized indistinguishability spectra and their transformations.

The spectrum of an n-photon state is the map sigma -> M_sigma over all of
S_n; it carries everything photocounting can resolve. Sign conventions are
anchored so that the triad-phase state has M_(123) = (1 + e^{iφ})/4: for a
pure product, M_sigma = prod_i <phi_i | phi_sigma(i)>, equivalently one
trace of the ordered density-matrix product per cycle, taken in traversal
order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .partitions import SetPartition, lattice
from .states import Mixture, ProductState, State
from .symgroup import Permutation, enumerate_permutations, group_table, permutation_ranks

ORBIT_TOLERANCE = 1e-9

MAX_SPECTRUM_N = 8


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Dense map sigma -> M_sigma over all n! permutations."""

    n: int
    values: Mapping[Permutation, complex]

    def __post_init__(self):
        if len(self.values) != math.factorial(self.n):
            raise ValueError(
                f"spectrum must cover all {math.factorial(self.n)} permutations, "
                f"got {len(self.values)}"
            )

    def value(self, sigma: Permutation) -> complex:
        return self.values[sigma]

    @property
    def m_id(self) -> complex:
        return self.values[Permutation.identity(self.n)]

    def to_json(self) -> list[dict]:
        return [
            {"sigma": s.to_json(), "re": v.real, "im": v.imag}
            for s, v in sorted(self.values.items(), key=lambda kv: kv[0].images)
        ]


def ideal_spectrum(n: int) -> Spectrum:
    return Spectrum(n, {s: 1.0 + 0.0j for s in enumerate_permutations(n)})


def _cycle_value_pure(gram: np.ndarray, sigma: Permutation) -> complex:
    acc = 1.0 + 0.0j
    for i, j in enumerate(sigma.images):
        acc *= gram[i, j]
    return acc


def _spectrum_of_product(state: ProductState) -> dict[Permutation, complex]:
    n = state.n
    if state.is_pure:
        gram = state.gram()
        return {s: _cycle_value_pure(gram, s) for s in enumerate_permutations(n)}

    # Separable mixed product: one trace of the ordered matrix product per
    # cycle, multiplied over cycles. Cached per traversal-ordered cycle.
    rhos = [p.matrix for p in state.photons]
    cache: dict[tuple[int, ...], complex] = {}

    def cycle_trace(cycle: tuple[int, ...]) -> complex:
        if cycle not in cache:
            prod = rhos[cycle[0]]
            for i in cycle[1:]:
                prod = prod @ rhos[i]
            cache[cycle] = complex(np.trace(prod))
        return cache[cycle]

    out = {}
    for sigma in enumerate_permutations(n):
        acc = 1.0 + 0.0j
        for cycle in sigma.cycles():
            acc *= cycle_trace(cycle)
        out[sigma] = acc
    return out


def spectrum_of(state: State) -> Spectrum:
    """Compute M_sigma for every permutation of the input photons."""
    if state.n > MAX_SPECTRUM_N:
        raise ValueError(f"n={state.n} exceeds the dense-spectrum bound {MAX_SPECTRUM_N}")
    if isinstance(state, Mixture):
        acc: dict[Permutation, complex] = {
            s: 0.0 + 0.0j for s in enumerate_permutations(state.n)
        }
        for w, comp in state.components:
            for s, v in _spectrum_of_product(comp).items():
                acc[s] += w * v
        return Spectrum(state.n, acc)
    return Spectrum(state.n, _spectrum_of_product(state))


def _ranked(spec: Spectrum) -> tuple[np.ndarray, np.ndarray]:
    """M in rank order, and the rank of each key of ``spec.values`` in its order."""
    ranks = permutation_ranks(np.array([s.images for s in spec.values], dtype=np.intp))
    vec = np.empty(len(ranks), dtype=complex)
    vec[ranks] = list(spec.values.values())
    return vec, ranks


def spectrum_vector(spec: Spectrum) -> np.ndarray:
    """M_sigma in the rank order of ``group_table`` and ``enumerate_permutations``."""
    return _ranked(spec)[0]


def _with_values(spec: Spectrum, ranks: np.ndarray, vec: np.ndarray) -> Spectrum:
    """A spectrum on the keys of ``spec`` holding the rank-ordered values ``vec``."""
    return Spectrum(spec.n, dict(zip(spec.values, vec[ranks].tolist())))


def _means(vec: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """The mean of ``vec`` over each id, summed in rank order."""
    sums = np.empty(ids.max() + 1, dtype=complex)
    sums.real = np.bincount(ids, vec.real)
    sums.imag = np.bincount(ids, vec.imag)
    return sums / np.bincount(ids)


def orbit_classes(n: int) -> dict[SetPartition, list[Permutation]]:
    """Permutations grouped by the partition their cycles induce."""
    parts = lattice(n).partitions
    classes: dict[SetPartition, list[Permutation]] = {}
    for sigma, i in zip(enumerate_permutations(n), group_table(n).partition_id.tolist()):
        classes.setdefault(parts[i], []).append(sigma)
    return classes


@dataclass(frozen=True)
class OrbitInvarianceReport:
    invariant: bool
    max_deviation: float
    worst_pair: tuple[Permutation, Permutation] | None

    def __bool__(self) -> bool:
        return self.invariant


def is_orbit_invariant(spec: Spectrum, tol: float = ORBIT_TOLERANCE) -> OrbitInvarianceReport:
    """Check M_sigma = M_tau whenever sigma and tau induce the same partition."""
    vec = spectrum_vector(spec)
    table = group_table(spec.n)
    worst, pair = 0.0, None
    grouped = np.argsort(table.partition_id, kind="stable")
    for members in np.split(grouped, np.cumsum(np.bincount(table.partition_id))[:-1]):
        vals = vec[members]
        # exact pairwise diameter, chunked to bound memory on big classes
        for lo in range(0, len(members), 256):
            diffs = np.abs(vals[lo : lo + 256, None] - vals)
            a, b = divmod(int(np.argmax(diffs)), len(members))
            if diffs[a, b] > worst:
                worst, pair = float(diffs[a, b]), (members[lo + a], members[b])
    worst_pair = None if pair is None else tuple(
        Permutation(tuple(table.images[r].tolist())) for r in pair
    )
    return OrbitInvarianceReport(worst <= tol, worst, worst_pair)


def class_reduce(spec: Spectrum) -> dict[SetPartition, complex]:
    """Arithmetic mean of M over each orbit class, keyed by partition."""
    means = _means(spectrum_vector(spec), group_table(spec.n).partition_id)
    return dict(zip(lattice(spec.n).partitions, means.tolist()))


def spectrum_from_class_values(
    n: int, class_values: Mapping[SetPartition, complex]
) -> Spectrum:
    """Expand per-partition values into a dense (orbit-invariant) spectrum."""
    values = np.array([complex(class_values[p]) for p in lattice(n).partitions])
    ranked = values[group_table(n).partition_id].tolist()
    return Spectrum(n, dict(zip(enumerate_permutations(n), ranked)))


def mask_spectrum(spec: Spectrum, partition: SetPartition) -> Spectrum:
    """The partitioning condition: keep M_sigma where Π_sigma ⪯ partition, zero elsewhere."""
    lat = lattice(spec.n)
    finer = lat.fine[lat.coarse == lat.partitions.index(partition)]
    vec, ranks = _ranked(spec)
    keep = np.isin(group_table(spec.n).partition_id, finer)
    return _with_values(spec, ranks, np.where(keep, vec, 0.0))


def twirl(spec: Spectrum) -> Spectrum:
    """Average over random mode permutations: M'_sigma = (1/n!) Σ_tau M_{tau sigma tau^-1}.

    Conjugation sweeps the full conjugacy class uniformly, so the result is
    the class mean and depends only on the cycle-length multiset.
    """
    vec, ranks = _ranked(spec)
    types = group_table(spec.n).type_id
    return _with_values(spec, ranks, _means(vec, types)[types])


def strict_projection(spec: Spectrum) -> Spectrum:
    """Least destructive projection onto orbit invariance.

    M'_sigma = (1/prod_i (|sigma_i| - 1)!) * Σ_{Π_tau = Π_sigma} M_tau. The
    permutations sharing a cycle partition are exactly the independent
    re-orderings of each cell as one cycle, so the normalizer equals the
    class size and the projection is ``class_reduce`` expanded back.
    """
    vec, ranks = _ranked(spec)
    ids = group_table(spec.n).partition_id
    return _with_values(spec, ranks, _means(vec, ids)[ids])


def gi_part(spec: Spectrum) -> complex:
    """Genuine indistinguishability, partition view: mean of M over maximal cycles."""
    return class_reduce(spec)[SetPartition.full(spec.n)]


def gi_sym(spec: Spectrum) -> float:
    """Genuine indistinguishability, symmetric-subspace view: (1/n!) Σ_sigma M_sigma."""
    total = sum(spec.values.values()) / math.factorial(spec.n)
    if abs(total.imag) > 1e-10:
        raise ValueError(f"gi_sym has imaginary residue {total.imag:.3e}")
    return float(total.real)

"""Constructors for n-photon inputs.

A product state is a list of single-photon internal density matrices; no
joint density matrix is ever materialized. Classically correlated (but not
separable) inputs are weighted mixtures of pure product states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import NormalizationError
from .partitions import SetPartition

HERMITICITY_TOL = 1e-12
PSD_TOL = 1e-10
TRACE_TOL = 1e-10
KET_NORM_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class InternalState:
    """Single-photon internal density operator (d x d, trace 1)."""

    dim: int
    matrix: np.ndarray
    ket: np.ndarray | None = None  # set when the state is known rank-1

    @classmethod
    def from_ket(cls, ket: Sequence[complex]) -> "InternalState":
        v = np.asarray(ket, dtype=complex)
        if v.ndim != 1:
            raise ValueError("ket must be a vector")
        if not np.all(np.isfinite(v)):
            raise ValueError("ket entries must be finite")
        norm = np.linalg.norm(v)
        if abs(norm - 1.0) > KET_NORM_TOL:
            raise NormalizationError(f"ket norm {norm} deviates from 1 beyond {KET_NORM_TOL}")
        return cls(dim=v.size, matrix=np.outer(v, v.conj()), ket=v)

    @classmethod
    def from_matrix(cls, rho: np.ndarray) -> "InternalState":
        rho = np.asarray(rho, dtype=complex)
        if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
            raise ValueError("density matrix must be square")
        if not np.all(np.isfinite(rho)):
            raise ValueError("density matrix entries must be finite")
        state = cls(dim=rho.shape[0], matrix=rho)
        state.validate()
        return state

    @property
    def is_pure(self) -> bool:
        return self.ket is not None

    def validate(self, norm: float = 1.0) -> None:
        h = np.max(np.abs(self.matrix - self.matrix.conj().T))
        if h > HERMITICITY_TOL:
            raise ValueError(f"density matrix not Hermitian: defect {h:.3e}")
        eigmin = float(np.linalg.eigvalsh(self.matrix).min())
        if eigmin < -PSD_TOL:
            raise ValueError(f"density matrix not PSD: min eigenvalue {eigmin:.3e}")
        tr = complex(np.trace(self.matrix))
        if abs(tr - norm) > TRACE_TOL:
            raise ValueError(f"trace {tr} deviates from {norm}")

    def pure_components(self, tol: float = 1e-12) -> list[tuple[float, np.ndarray]]:
        """Eigendecomposition into (weight, ket) pairs, dropping weights <= tol."""
        if self.ket is not None:
            return [(1.0, self.ket)]
        w, v = np.linalg.eigh(self.matrix)
        return [(float(w[i]), v[:, i]) for i in range(self.dim) if w[i] > tol]


@dataclass(frozen=True, eq=False)
class ProductState:
    """n single photons in input modes 0..n-1, one internal state each."""

    n: int
    photons: tuple[InternalState, ...]

    def __post_init__(self):
        if self.n != len(self.photons):
            raise ValueError("n must match the number of photons")
        dims = {p.dim for p in self.photons}
        if len(dims) != 1:
            raise ValueError(f"photons disagree on internal dimension: {sorted(dims)}")

    @property
    def dim(self) -> int:
        return self.photons[0].dim

    @property
    def is_pure(self) -> bool:
        return all(p.is_pure for p in self.photons)

    def kets(self) -> list[np.ndarray]:
        if not self.is_pure:
            raise ValueError("state is not a pure product")
        return [p.ket for p in self.photons]

    def gram(self) -> np.ndarray:
        """Pairwise overlaps G[i, j] = <phi_i | phi_j> (pure products only)."""
        kets = np.array(self.kets())
        return kets.conj() @ kets.T


@dataclass(frozen=True, eq=False)
class PartitionState(ProductState):
    """Canonical representative of a distinguishability configuration.

    Photons in the same cell share one basis ket; different cells get
    mutually orthogonal kets. Internal dimension is the number of cells.
    """

    partition: SetPartition = None

    def __post_init__(self):
        super().__post_init__()
        if self.partition is None:
            raise ValueError("partition is required")


@dataclass(frozen=True, eq=False)
class Mixture:
    """Classically correlated input: weighted pure product states."""

    n: int
    components: tuple[tuple[float, ProductState], ...]

    def __post_init__(self):
        if not self.components:
            raise ValueError("mixture needs at least one component")
        for w, s in self.components:
            if s.n != self.n:
                raise ValueError("mixture components disagree on n")
            if w < 0:
                raise ValueError("mixture weights must be nonnegative")
        total = sum(w for w, _ in self.components)
        if abs(total - 1.0) > 1e-10:
            raise NormalizationError(f"mixture weights sum to {total}")


State = ProductState | Mixture


def pure_product(kets: Iterable[Sequence[complex]]) -> ProductState:
    photons = tuple(InternalState.from_ket(k) for k in kets)
    return ProductState(n=len(photons), photons=photons)


def mixed_product(matrices: Iterable[np.ndarray]) -> ProductState:
    photons = tuple(InternalState.from_matrix(m) for m in matrices)
    return ProductState(n=len(photons), photons=photons)


def ideal_state(n: int) -> ProductState:
    """n identical photons: every overlap is 1."""
    return pure_product([[1.0]] * n)


def triad_phase_state(phi: float) -> ProductState:
    """Three photons in a plane spanned by two modes, with a collective phase.

    |a> ⊗ (|a>+|b>)/√2 ⊗ (|a>+e^{iφ}|b>)/√2; the 3-cycle overlap equals
    (1 + e^{iφ})/4 and is complex away from φ = mπ.
    """
    s = 1 / math.sqrt(2)
    return pure_product(
        [
            [1.0, 0.0],
            [s, s],
            [s, s * np.exp(1j * phi)],
        ]
    )


def negative_partition_state() -> ProductState:
    """The fixed three-photon state whose partition weights include -1/8.

    Factors (|c>+|a>), (|a>+|b>), (-|b>+|c>), each normalized by 1/√2,
    in the orthonormal basis (a, b, c).
    """
    s = 1 / math.sqrt(2)
    return pure_product(
        [
            [s, 0.0, s],
            [s, s, 0.0],
            [0.0, -s, s],
        ]
    )


def obb_state(n: int, x: float) -> ProductState:
    """Orthogonal Bad Bits family: each photon splits between one shared mode
    (weight x) and its own private orthogonal mode (weight 1-x)."""
    if not 1 <= n <= 8:
        raise ValueError(f"n must be in 1..8, got {n}")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must be in [0, 1], got {x}")
    kets = []
    for i in range(n):
        v = np.zeros(n + 1, dtype=complex)
        v[0] = math.sqrt(x)
        v[i + 1] = math.sqrt(1.0 - x)
        kets.append(v)
    return pure_product(kets)


def obb_partition_distribution(n: int, x: float):
    """Coin-flip partition weights of the OBB model.

    Each subset S of photons lands in the shared mode with probability
    x^|S| (1-x)^(n-|S|), producing the partition {S} ∪ singletons. Subsets
    of size 0 or 1 all collapse onto the all-singletons partition, whose
    weight aggregates those draws so the distribution sums to one.
    """
    from .partitions import PartitionDistribution

    if not 1 <= n <= 8:
        raise ValueError(f"n must be in 1..8, got {n}")
    weights: dict[SetPartition, float] = {}
    for mask in range(1 << n):
        signal = [i for i in range(n) if mask >> i & 1]
        k = len(signal)
        w = x**k * (1.0 - x) ** (n - k)
        if k >= 2:
            cells = [signal] + [[i] for i in range(n) if i not in signal]
        else:
            cells = [[i] for i in range(n)]
        p = SetPartition.of(n, cells)
        weights[p] = weights.get(p, 0.0) + w
    return PartitionDistribution.of(n, weights)


def partition_state(partition: SetPartition) -> PartitionState:
    cell_of = partition.cell_of()
    d = partition.num_cells
    photons = []
    for i in range(partition.n):
        v = np.zeros(d, dtype=complex)
        v[cell_of[i]] = 1.0
        photons.append(InternalState.from_ket(v))
    return PartitionState(n=partition.n, photons=tuple(photons), partition=partition)


def apply_time_delay_partition(state: State, partition: SetPartition) -> State:
    """Delay the cells of ``partition`` into mutually distinguishable groups.

    Modeled exactly: each photon's internal space is tensored with an
    orthonormal tag indexed by its cell, so overlaps across cells vanish
    and overlaps within a cell are unchanged.
    """
    if isinstance(state, Mixture):
        return Mixture(
            state.n,
            tuple((w, apply_time_delay_partition(s, partition)) for w, s in state.components),
        )
    if state.n != partition.n:
        raise ValueError(f"size mismatch: state n={state.n}, partition n={partition.n}")
    cell_of = partition.cell_of()
    k = partition.num_cells
    photons = []
    for i, photon in enumerate(state.photons):
        tag = np.zeros(k, dtype=complex)
        tag[cell_of[i]] = 1.0
        if photon.is_pure:
            photons.append(InternalState.from_ket(np.kron(photon.ket, tag)))
        else:
            rho = np.kron(photon.matrix, np.outer(tag, tag.conj()))
            photons.append(InternalState(dim=rho.shape[0], matrix=rho))
    return ProductState(n=state.n, photons=tuple(photons))

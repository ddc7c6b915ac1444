"""Set-partition lattice: enumeration, refinement order, Möbius inversion.

The refinement order follows the coarsening convention: ``refines(a, b)``
is true when a is coarser than (or equal to) b, i.e. every cell of b sits
inside a cell of a. The full one-cell partition dominates everything.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from .errors import CoherenceResidueError

MAX_N = 8

REAL_TOLERANCE = 1e-9


@dataclass(frozen=True)
class SetPartition:
    """A partition of {0..n-1} into disjoint cells.

    Canonical form: each cell sorted ascending, cells sorted by minimum element.
    """

    n: int
    cells: tuple[tuple[int, ...], ...]

    @classmethod
    def of(cls, n: int, cells: Iterable[Iterable[int]]) -> "SetPartition":
        canon = tuple(sorted((tuple(sorted(c)) for c in cells), key=lambda c: c[0]))
        flat = [i for c in canon for i in c]
        if sorted(flat) != list(range(n)):
            raise ValueError(f"cells {canon} do not partition 0..{n - 1}")
        return cls(n, canon)

    @classmethod
    def singletons(cls, n: int) -> "SetPartition":
        return cls(n, tuple((i,) for i in range(n)))

    @classmethod
    def full(cls, n: int) -> "SetPartition":
        return cls(n, (tuple(range(n)),))

    @classmethod
    def from_rgs(cls, rgs: Iterable[int]) -> "SetPartition":
        rgs = list(rgs)
        cells: dict[int, list[int]] = {}
        for i, c in enumerate(rgs):
            cells.setdefault(c, []).append(i)
        return cls.of(len(rgs), cells.values())

    @property
    def num_cells(self) -> int:
        return len(self.cells)

    def cell_sizes(self) -> tuple[int, ...]:
        return tuple(sorted((len(c) for c in self.cells), reverse=True))

    def cell_of(self) -> list[int]:
        """cell_of[i] = index of the cell containing i (cells in canonical order)."""
        out = [0] * self.n
        for k, cell in enumerate(self.cells):
            for i in cell:
                out[i] = k
        return out

    def rgs(self) -> tuple[int, ...]:
        """Restricted growth string; stable lexicographic key."""
        return tuple(self.cell_of())

    def to_json(self) -> list[list[int]]:
        return [list(c) for c in self.cells]

    def __str__(self) -> str:
        return "".join("{" + ",".join(str(i + 1) for i in c) + "}" for c in self.cells)


def _all_rgs(n: int) -> list[tuple[int, ...]]:
    out: list[tuple[int, ...]] = []

    def grow(prefix: list[int], top: int):
        if len(prefix) == n:
            out.append(tuple(prefix))
            return
        for c in range(top + 2):
            prefix.append(c)
            grow(prefix, max(top, c))
            prefix.pop()

    grow([0], 0)
    return out


def enumerate_partitions(n: int) -> list[SetPartition]:
    """All B_n partitions, finest first (decreasing cell count, then lex by RGS)."""
    if not 1 <= n <= MAX_N:
        raise ValueError(f"n must be in 1..{MAX_N}, got {n}")
    parts = [SetPartition.from_rgs(r) for r in _all_rgs(n)]
    parts.sort(key=lambda p: (-p.num_cells, p.rgs()))
    return parts


def matrix_order(n: int) -> list[SetPartition]:
    """Canonical row/column order for triangular solves: coarsest first.

    Under this order the refinement indicator matrix is lower triangular
    with unit diagonal; forward substitution runs top to bottom.
    """
    if not 1 <= n <= MAX_N:
        raise ValueError(f"n must be in 1..{MAX_N}, got {n}")
    parts = [SetPartition.from_rgs(r) for r in _all_rgs(n)]
    parts.sort(key=lambda p: (p.num_cells, p.rgs()))
    return parts


def refines(a: SetPartition, b: SetPartition) -> bool:
    """True iff a ⪰ b: every cell of b is contained in some cell of a."""
    if a.n != b.n:
        raise ValueError(f"size mismatch: {a.n} vs {b.n}")
    cell_of_a = a.cell_of()
    for cell in b.cells:
        k = cell_of_a[cell[0]]
        if any(cell_of_a[i] != k for i in cell[1:]):
            return False
    return True


def stabilizer_size(p: SetPartition) -> int:
    """|S_Λ| = ∏_i |Λ_i|!, the number of permutations moving elements only within cells."""
    return math.prod(math.factorial(len(c)) for c in p.cells)


@dataclass(frozen=True)
class ReconstructionMatrix:
    """0/1 indicator of the refinement order over all B_n partitions.

    entry[r, c] = 1 iff partitions[c] ⪰ partitions[r]. Rows and columns share
    the coarsest-first canonical order, making the matrix lower triangular
    with unit diagonal (determinant 1).
    """

    n: int
    partitions: tuple[SetPartition, ...]
    entries: np.ndarray = field(repr=False)

    def index(self, p: SetPartition) -> int:
        return self.partitions.index(p)


def build_reconstruction_matrix(n: int) -> ReconstructionMatrix:
    parts = matrix_order(n)
    b = len(parts)
    entries = np.zeros((b, b), dtype=np.int64)
    for r, row in enumerate(parts):
        for c, col in enumerate(parts):
            if refines(col, row):
                entries[r, c] = 1
    return ReconstructionMatrix(n, tuple(parts), entries)


@dataclass(frozen=True)
class PartitionDistribution:
    """Quasi-probability weights over all B_n partitions (may be negative)."""

    n: int
    weights: Mapping[SetPartition, float]

    @classmethod
    def of(cls, n: int, weights: Mapping[SetPartition, float]) -> "PartitionDistribution":
        dense = {p: 0.0 for p in enumerate_partitions(n)}
        for p, w in weights.items():
            if p not in dense:
                raise ValueError(f"{p} is not a partition of 0..{n - 1}")
            dense[p] = float(w)
        return cls(n, dense)

    def total(self) -> float:
        return float(sum(self.weights.values()))

    def negativity(self) -> float:
        return float(sum(max(0.0, -w) for w in self.weights.values()))

    def nonzero(self, tol: float = 0.0) -> dict[SetPartition, float]:
        return {p: w for p, w in self.weights.items() if abs(w) > tol}

    def to_json(self) -> list[dict]:
        return [
            {"partition": p.to_json(), "weight": w}
            for p, w in sorted(self.weights.items(), key=lambda kv: kv[0].rgs())
        ]


def forward_map(dist: PartitionDistribution) -> dict[SetPartition, float]:
    """Class values implied by a partition distribution: M_Π = Σ_{Λ ⪰ Π} p_Λ."""
    out = {}
    for pi in enumerate_partitions(dist.n):
        out[pi] = float(
            sum(w for lam, w in dist.weights.items() if w != 0.0 and refines(lam, pi))
        )
    return out


def mobius_invert(
    class_values: Mapping[SetPartition, complex],
    tol: float = REAL_TOLERANCE,
) -> PartitionDistribution:
    """Solve M_Π = Σ_{Λ ⪰ Π} p_Λ for the unique weights p_Λ.

    The system is lower triangular with unit diagonal in the coarsest-first
    order, so forward substitution is exact up to rounding. Inputs must be
    keyed by every partition of the lattice; imaginary parts of the solution
    beyond ``tol`` raise :class:`CoherenceResidueError`.
    """
    if not class_values:
        raise ValueError("empty class-value map")
    n = next(iter(class_values)).n
    order = matrix_order(n)
    if set(class_values) != set(order):
        raise ValueError(f"class values must cover all {len(order)} partitions of n={n}")

    solved: dict[SetPartition, complex] = {}
    for r, row in enumerate(order):
        acc = complex(class_values[row])
        for col in order[:r]:
            if refines(col, row):
                acc -= solved[col]
        solved[row] = acc

    worst = max(abs(v.imag) for v in solved.values())
    if worst > tol:
        raise CoherenceResidueError(
            f"partition weights have imaginary residue {worst:.3e} > {tol:.1e}; "
            "input is not an orbit-invariant spectrum"
        )
    return PartitionDistribution(n, {p: v.real for p, v in solved.items()})

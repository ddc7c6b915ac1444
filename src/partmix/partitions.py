"""Set-partition lattice: enumeration, refinement order, Möbius inversion.

The refinement order follows the coarsening convention: ``refines(a, b)``
is true when a is coarser than (or equal to) b, i.e. every cell of b sits
inside a cell of a. The full one-cell partition dominates everything.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
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


def _all_rgs(n: int) -> np.ndarray:
    """Every restricted growth string of length n, as (B_n, n) rows in lexicographic order."""
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
    return np.array(out, dtype=np.intp).reshape(len(out), n)


@dataclass(frozen=True, eq=False)
class Lattice:
    """The partition lattice of 0..n-1 as arrays, shared by every lattice solve.

    ``partitions`` runs coarsest first (cell count, then RGS) and
    ``finest_first`` by decreasing cell count, then RGS; ``rgs`` and
    ``num_cells`` follow ``partitions``. Each comparable pair, the diagonal
    included, appears once as ``partitions[coarse[k]] ⪰ partitions[fine[k]]``,
    sorted by fine, then coarse index.
    """

    n: int
    partitions: tuple[SetPartition, ...]
    finest_first: tuple[SetPartition, ...]
    rgs: np.ndarray = field(repr=False)
    num_cells: np.ndarray = field(repr=False)
    coarse: np.ndarray = field(repr=False)
    fine: np.ndarray = field(repr=False)

    def locate(self, rgs: np.ndarray) -> np.ndarray:
        """The index in ``partitions`` of each row of restricted growth strings."""
        return _locator(self.rgs)(rgs)


def _locator(rgs: np.ndarray):
    """A map from restricted growth strings to their row index in ``rgs``."""
    powers = rgs.shape[1] ** np.arange(rgs.shape[1] - 1, -1, -1)
    keys = rgs @ powers
    order = np.argsort(keys)
    return lambda rows: order[np.searchsorted(keys[order], rows @ powers)]


@lru_cache(maxsize=None)
def lattice(n: int) -> Lattice:
    """The cached partition lattice of 0..n-1. A partition with k cells has
    B_k coarsenings, one per partition of its cells, so the pairs are built by
    merging cells rather than by testing all B_n^2 candidates."""
    if not 1 <= n <= MAX_N:
        raise ValueError(f"n must be in 1..{MAX_N}, got {n}")
    lex = _all_rgs(n)
    rgs = lex[np.argsort(lex.max(axis=1), kind="stable")]
    num_cells = rgs.max(axis=1) + 1
    locate = _locator(rgs)
    coarse, fine = [], []
    for k in range(1, n + 1):
        members = np.flatnonzero(num_cells == k)
        merges = _all_rgs(k)  # merges[a, c]: the cell that cell c joins in merge a
        coarse.append(locate(merges[:, rgs[members]].reshape(-1, n)))
        fine.append(np.tile(members, len(merges)))
    coarse, fine = np.concatenate(coarse), np.concatenate(fine)
    by_fine = np.lexsort((coarse, fine))
    parts = tuple(SetPartition.from_rgs(r) for r in rgs.tolist())
    finest_first = tuple(sorted(parts, key=lambda p: p.num_cells, reverse=True))
    return Lattice(n, parts, finest_first, rgs, num_cells, coarse[by_fine], fine[by_fine])


def enumerate_partitions(n: int) -> list[SetPartition]:
    """All B_n partitions, finest first (decreasing cell count, then lex by RGS)."""
    return list(lattice(n).finest_first)


def matrix_order(n: int) -> list[SetPartition]:
    """Canonical row/column order for triangular solves: coarsest first.

    Under this order the refinement indicator matrix is lower triangular
    with unit diagonal; forward substitution runs top to bottom.
    """
    return list(lattice(n).partitions)


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
class PartitionDistribution:
    """Quasi-probability weights over all B_n partitions (may be negative)."""

    n: int
    weights: Mapping[SetPartition, float]

    @classmethod
    def of(cls, n: int, weights: Mapping[SetPartition, float]) -> "PartitionDistribution":
        dense = dict.fromkeys(lattice(n).finest_first, 0.0)
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
    lat = lattice(dist.n)
    p = np.array([dist.weights.get(q, 0.0) for q in lat.partitions], dtype=float)
    values = np.bincount(lat.fine, weights=p[lat.coarse], minlength=len(p))
    return dict(zip(lat.partitions, values.tolist()))


def _solve(lat: Lattice, values: np.ndarray) -> np.ndarray:
    """x with Σ_{Λ ⪰ Π} x_Λ = values_Π for every Π: forward substitution in the
    coarsest-first order over the comparable pairs, one cell count at a time
    (partitions with equally many cells are incomparable)."""
    x = np.array(values)
    strict = lat.coarse != lat.fine
    coarse, fine = lat.coarse[strict], lat.fine[strict]
    cuts = np.searchsorted(fine, np.searchsorted(lat.num_cells, np.arange(2, lat.n + 1)))
    for c, f in zip(np.split(coarse, cuts), np.split(fine, cuts)):
        np.subtract.at(x, f, x[c])
    return x


def mobius_invert(
    class_values: Mapping[SetPartition, complex],
    tol: float = REAL_TOLERANCE,
) -> PartitionDistribution:
    """Solve M_Π = Σ_{Λ ⪰ Π} p_Λ for the unique weights p_Λ.

    The system is lower triangular with unit diagonal in the coarsest-first
    order, so forward substitution is exact up to rounding; it equals the
    Möbius sum p_Π = Σ_{Λ ⪰ Π} μ(Π, Λ) M_Λ. Inputs must be keyed by every
    partition of the lattice; imaginary parts of the solution beyond ``tol``
    raise :class:`CoherenceResidueError`.
    """
    if not class_values:
        raise ValueError("empty class-value map")
    lat = lattice(next(iter(class_values)).n)
    if set(class_values) != set(lat.partitions):
        raise ValueError(
            f"class values must cover all {len(lat.partitions)} partitions of n={lat.n}"
        )
    solved = _solve(lat, np.array([complex(class_values[p]) for p in lat.partitions]))
    worst = float(np.abs(solved.imag).max())
    if worst > tol:
        raise CoherenceResidueError(
            f"partition weights have imaginary residue {worst:.3e} > {tol:.1e}; "
            "input is not an orbit-invariant spectrum"
        )
    return PartitionDistribution(lat.n, dict(zip(lat.partitions, solved.real.tolist())))

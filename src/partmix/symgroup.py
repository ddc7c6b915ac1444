"""Symmetric-group machinery: permutations, cycles, conjugation, rencontres
numbers, and the cached array table of S_n that the spectrum transforms read.

Everything is 0-based internally; 1-based labels appear only in rendered text.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator

import numpy as np

MAX_ENUM_N = 8

# Canonical cycle decomposition: each cycle starts at its smallest element,
# cycles sorted by smallest element, fixed points kept as length-1 cycles.
CycleDecomposition = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class Permutation:
    """A permutation of {0..n-1} stored as its image tuple: images[i] = sigma(i)."""

    images: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.images) != list(range(len(self.images))):
            raise ValueError(f"not a bijection of 0..{len(self.images) - 1}: {self.images}")

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i]

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(n)))

    @classmethod
    def from_cycles(cls, n: int, cycles: Iterable[Iterable[int]]) -> "Permutation":
        """Build a permutation from (not necessarily complete) disjoint cycles."""
        images = list(range(n))
        seen = set()
        for cycle in cycles:
            cycle = list(cycle)
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                if a in seen:
                    raise ValueError(f"cycles are not disjoint at element {a}")
                seen.add(a)
                images[a] = b
        return cls(tuple(images))

    def compose(self, other: "Permutation") -> "Permutation":
        """Return self∘other, i.e. i -> self(other(i))."""
        if self.n != other.n:
            raise ValueError(f"size mismatch: {self.n} vs {other.n}")
        return Permutation(tuple(self.images[other.images[i]] for i in range(self.n)))

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, j in enumerate(self.images):
            inv[j] = i
        return Permutation(tuple(inv))

    def cycles(self) -> CycleDecomposition:
        """Canonical cycle decomposition covering all of {0..n-1}."""
        seen = [False] * self.n
        out = []
        for start in range(self.n):
            if seen[start]:
                continue
            cycle = [start]
            seen[start] = True
            j = self.images[start]
            while j != start:
                cycle.append(j)
                seen[j] = True
                j = self.images[j]
            out.append(tuple(cycle))
        return tuple(out)

    def cycle_type(self) -> tuple[int, ...]:
        """Sorted (descending) multiset of cycle lengths; labels the conjugacy class."""
        return tuple(sorted((len(c) for c in self.cycles()), reverse=True))

    def fixed_points(self) -> tuple[int, ...]:
        return tuple(i for i, j in enumerate(self.images) if i == j)

    def moved(self) -> int:
        return self.n - len(self.fixed_points())

    def to_json(self) -> list[int]:
        return list(self.images)

    def __str__(self) -> str:
        # 1-based cycle notation for humans
        parts = ["(" + " ".join(str(i + 1) for i in c) + ")" for c in self.cycles() if len(c) > 1]
        return "".join(parts) if parts else "id"


def enumerate_permutations(n: int) -> Iterator[Permutation]:
    """Yield all n! permutations in lexicographic order of their image tuples."""
    if not 1 <= n <= MAX_ENUM_N:
        raise ValueError(f"n must be in 1..{MAX_ENUM_N}, got {n}")
    for images in itertools.permutations(range(n)):
        yield Permutation(images)


@dataclass(frozen=True, eq=False)
class GroupTable:
    """S_n as arrays, one row per permutation in the rank order of
    ``enumerate_permutations``: the image tuples of each permutation and of
    its inverse, the index of its cycle partition in ``lattice(n).partitions``,
    and a number for its cycle type."""

    images: np.ndarray
    inverses: np.ndarray
    partition_id: np.ndarray
    type_id: np.ndarray


@lru_cache(maxsize=None)
def group_table(n: int) -> GroupTable:
    """The cached table of S_n; it holds arrays only, no Permutation objects."""
    from .partitions import lattice

    if not 1 <= n <= MAX_ENUM_N:
        raise ValueError(f"n must be in 1..{MAX_ENUM_N}, got {n}")
    flat = itertools.chain.from_iterable(itertools.permutations(range(n)))
    images = np.fromiter(flat, dtype=np.int8, count=n * math.factorial(n)).reshape(-1, n)
    # low[r, i]: the least element of the cycle of i, over the powers of sigma
    low, power = np.minimum(np.arange(n), images), images
    for _ in range(n - 2):
        power = np.take_along_axis(images, power, axis=1)
        low = np.minimum(low, power)
    firsts = np.cumsum(low == np.arange(n), axis=1) - 1
    lat = lattice(n)
    partition_id = lat.locate(np.take_along_axis(firsts, low, axis=1))
    # the cycle type of a partition: each element's cell size, sorted
    sizes = np.sort((lat.rgs[:, :, None] == lat.rgs[:, None, :]).sum(axis=2), axis=1)
    type_of_partition = np.unique(sizes, axis=0, return_inverse=True)[1].ravel()
    return GroupTable(images, np.argsort(images, axis=1).astype(np.int8), partition_id,
                      type_of_partition[partition_id])


def permutation_ranks(images: np.ndarray) -> np.ndarray:
    """The rank in ``enumerate_permutations`` order of each row of image tuples."""
    n = images.shape[1]
    later_smaller = (images[:, :, None] > images[:, None, :]) & np.triu(np.ones((n, n), bool), 1)
    return later_smaller.sum(axis=2) @ np.array([math.factorial(n - 1 - i) for i in range(n)])


def cycle_partition(sigma: Permutation):
    """The set partition of {0..n-1} whose cells are the orbits of sigma."""
    from .partitions import SetPartition

    return SetPartition.of(sigma.n, sigma.cycles())


def conjugate(sigma: Permutation, nu: Permutation) -> Permutation:
    """Return nu∘sigma∘nu^{-1}."""
    if sigma.n != nu.n:
        raise ValueError(f"size mismatch: {sigma.n} vs {nu.n}")
    return nu.compose(sigma).compose(nu.inverse())


@lru_cache(maxsize=None)
def _derangements(k: int) -> int:
    if k == 0:
        return 1
    if k == 1:
        return 0
    return (k - 1) * (_derangements(k - 1) + _derangements(k - 2))


def rencontres(n: int, j: int) -> int:
    """Number of permutations of n elements with exactly j fixed points."""
    if not (0 <= j <= n <= 12):
        raise ValueError(f"need 0 <= j <= n <= 12, got n={n}, j={j}")
    return math.comb(n, j) * _derangements(n - j)

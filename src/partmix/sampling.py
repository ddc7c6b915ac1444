"""Partition sampling, its exact audit distribution, and the Haar experiment.

The sampler draws a partition from the (nonnegative) partition
distribution, then draws one outcome per cell from that cell's exact ideal
law by inverse CDF, and sums the occupation vectors. Per-sample generators
are derived from (seed, sample index), so results do not depend on how
samples are scheduled across workers.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .errors import NegativeWeightError
from .interference import (
    Outcome,
    cell_law,
    check_inputs,
    mix_laws,
    pair_permanent_sums,
    real_part,
    spectrum_vector,
)
from .partitions import PartitionDistribution, SetPartition
from .spectrum import spectrum_of, twirl
from .states import State

WEIGHT_FLOOR = -1e-12

MAX_CELL_PHOTONS = 5

MAX_HAAR_N = 6


@dataclass(frozen=True, eq=False)
class SamplerConfig:
    unitary: np.ndarray
    distribution: PartitionDistribution
    seed: int
    count: int
    input_modes: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.count < 0:
            raise ValueError(f"sample count must be nonnegative, got {self.count}")

    def inputs(self) -> list[int]:
        m = np.asarray(self.unitary).shape[1]
        return check_inputs(self.distribution.n, m, self.input_modes)


@dataclass(frozen=True)
class CostReport:
    """Op-count proxy Σ_i |Λ_i| 2^{|Λ_i|} per drawn partition."""

    per_sample: np.ndarray
    mean: float

    @classmethod
    def from_partitions(cls, partitions: Sequence[SetPartition]) -> "CostReport":
        costs = np.array([partition_cost(p) for p in partitions], dtype=float)
        return cls(per_sample=costs, mean=float(costs.mean()))


def partition_cost(p: SetPartition) -> int:
    return sum(len(c) * 2 ** len(c) for c in p.cells)


def _normalized_weights(dist: PartitionDistribution):
    parts = []
    weights = []
    for p, w in dist.weights.items():
        if w < WEIGHT_FLOOR:
            raise NegativeWeightError(
                f"partition {p} has negative weight {w}; quasi-probability "
                "sampling is unsupported"
            )
        if w > 0.0:
            parts.append(p)
            weights.append(w)
    total = float(sum(weights))
    if total <= 0.0:
        raise ValueError("distribution has no positive weight")
    w = np.array(weights) / total
    if abs(w.sum() - 1.0) > 1e-10:
        raise ValueError("weights failed to renormalize to 1")
    return parts, w


class _CellSampler:
    """Exact per-cell outcome tables, shared across samples and partitions."""

    def __init__(self, U: np.ndarray, inputs: list[int]):
        self.U = np.asarray(U, dtype=complex)
        self.inputs = inputs
        self.m = self.U.shape[1]
        self._tables: dict[tuple[int, ...], tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    def table(self, cell: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The cell's occupation patterns, normalized probabilities and their cumsum."""
        rows = tuple(self.inputs[i] for i in cell)
        if rows not in self._tables:
            if len(rows) > MAX_CELL_PHOTONS:
                raise ValueError(
                    f"cell of {len(rows)} photons exceeds the exact-sampling "
                    f"bound {MAX_CELL_PHOTONS}"
                )
            outcomes, probs = cell_law(self.U, rows)
            probs = np.clip(probs, 0.0, None)
            probs /= probs.sum()
            self._tables[rows] = (outcomes, probs, np.cumsum(probs))
        return self._tables[rows]


def partition_sample(config: SamplerConfig, return_cost: bool = False):
    """Draw ``config.count`` outcomes; deterministic for a fixed seed."""
    parts, weights = _normalized_weights(config.distribution)
    cells = _CellSampler(config.unitary, config.inputs())
    cum_w = np.cumsum(weights)

    samples: list[Outcome] = []
    drawn: list[SetPartition] = []
    for i in range(config.count):
        rng = np.random.default_rng([config.seed, i])
        p = parts[min(int(np.searchsorted(cum_w, rng.random(), side="right")), len(parts) - 1)]
        drawn.append(p)
        acc = np.zeros(cells.m, dtype=int)
        for cell in p.cells:
            outcomes, _, cum = cells.table(cell)
            idx = int(np.searchsorted(cum, rng.random(), side="right"))
            acc += outcomes[min(idx, len(outcomes) - 1)]
        samples.append(tuple(int(v) for v in acc))
    if return_cost:
        return samples, CostReport.from_partitions(drawn)
    return samples


def sampler_exact_distribution(config: SamplerConfig) -> dict[Outcome, float]:
    """The exact output law of the sampler's probability tree.

    Convolves the per-cell tables the sampler actually draws from and mixes
    over partitions; a deterministic audit of the sampling path.
    """
    parts, weights = _normalized_weights(config.distribution)
    cells = _CellSampler(config.unitary, config.inputs())
    tables = zip(weights, (p.cells for p in parts))
    occ, probs = mix_laws(tables, lambda cell: cells.table(cell)[:2], cells.m)
    return dict(zip(map(tuple, occ.tolist()), probs.tolist()))


def obb_cost_curve(n: int, x: float) -> float:
    """Mean op count of partition sampling an OBB state, by direct summation.

    Equals n (1 + x)^n: a k-photon signal group costs n 2^k and occurs with
    binomial weight C(n,k) x^k (1-x)^(n-k).
    """
    if not 1 <= n <= 20:
        raise ValueError(f"n must be in 1..20, got {n}")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must be in [0, 1], got {x}")
    return float(
        sum(
            math.comb(n, k) * x**k * (1.0 - x) ** (n - k) * n * 2**k
            for k in range(n + 1)
        )
    )


def haar_unitary(m: int, rng: np.random.Generator) -> np.ndarray:
    """Circular-unitary-ensemble sample: QR of a complex Ginibre matrix with
    the R diagonal's phases folded back in."""
    z = (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


@dataclass(frozen=True)
class HaarExperimentReport:
    trials: int
    modes: int
    photons: int
    seed: int
    mean_sq_raw: float
    mean_sq_twirled: float
    se_raw: float
    se_twirled: float

    def combined_se(self) -> float:
        return math.hypot(self.se_raw, self.se_twirled)

    def inequality_holds(self, sigmas: float = 2.0) -> bool:
        return self.mean_sq_raw >= self.mean_sq_twirled - sigmas * self.combined_se()

    def to_json(self) -> dict:
        return asdict(self)


def haar_variance_experiment(
    state: State, m: int, trials: int, seed: int
) -> HaarExperimentReport:
    """Monte Carlo check that twirling moves outcomes toward the ideal law.

    Per trial: one Haar unitary, the fixed no-collision outcome on the
    first n output modes, and the squared deviation from the ideal
    probability for the raw and for the twirled spectrum. One pass over the
    pair permanents of each unitary's n x n block scores the ideal (M = 1,
    giving |Perm|^2), raw and twirled spectra together.
    """
    n = state.n
    if n > MAX_HAAR_N:
        raise ValueError(f"haar experiment limited to n <= {MAX_HAAR_N}")
    if trials < 1000:
        raise ValueError("need at least 1000 trials for meaningful statistics")
    if m < n:
        raise ValueError(f"{n} photons need at least {n} modes")
    raw = spectrum_of(state)
    weights = np.stack(
        [np.ones(math.factorial(n)), spectrum_vector(raw), spectrum_vector(twirl(raw))], axis=1
    )
    blocks = np.empty((trials, n, n), dtype=complex)
    for t in range(trials):
        blocks[t] = haar_unitary(m, np.random.default_rng([seed, t]))[:n, :n]
    p_ideal, p_raw, p_tw = real_part(pair_permanent_sums(blocks, weights)).T
    dsq_raw = (p_raw - p_ideal) ** 2
    dsq_tw = (p_tw - p_ideal) ** 2
    return HaarExperimentReport(
        trials=trials,
        modes=m,
        photons=n,
        seed=seed,
        mean_sq_raw=float(dsq_raw.mean()),
        mean_sq_twirled=float(dsq_tw.mean()),
        se_raw=float(dsq_raw.std(ddof=1) / math.sqrt(trials)),
        se_twirled=float(dsq_tw.std(ddof=1) / math.sqrt(trials)),
    )

"""Incoherent-regime services: classification, inversion, mitigation weights."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .errors import SingularDiagonalError
from .partitions import PartitionDistribution, SetPartition, matrix_order, mobius_invert
from .spectrum import Spectrum, class_reduce, is_orbit_invariant

CLASSIFY_TOLERANCE = 1e-9


@dataclass(frozen=True)
class IncoherentClassification:
    """Outcome of testing a spectrum for membership in the incoherent regime."""

    member: bool
    max_orbit_deviation: float
    distribution: PartitionDistribution | None
    negativity: float

    def to_json(self) -> dict:
        out = {
            "member": self.member,
            "max_orbit_deviation": self.max_orbit_deviation,
            "negativity": self.negativity,
        }
        out["distribution"] = self.distribution.to_json() if self.member else None
        return out


def classify(spec: Spectrum, tol: float = CLASSIFY_TOLERANCE) -> IncoherentClassification:
    """Decide membership in the incoherent class and recover the weights.

    If the spectrum is orbit invariant within ``tol``, each orbit class is
    reduced to its arithmetic mean (the strict projection acts trivially at
    this tolerance) and the triangular system is inverted. Negative weights
    are reported, never clipped.
    """
    report = is_orbit_invariant(spec, tol)
    if not report.invariant:
        return IncoherentClassification(
            member=False,
            max_orbit_deviation=report.max_deviation,
            distribution=None,
            negativity=0.0,
        )
    dist = mobius_invert(class_reduce(spec), tol=tol)
    return IncoherentClassification(
        member=True,
        max_orbit_deviation=report.max_deviation,
        distribution=dist,
        negativity=dist.negativity(),
    )


@dataclass(frozen=True)
class MitigationPlan:
    """Correction weights for partitioned (time-delayed) copies of a state.

    ``partitions`` lists the solved rows, coarsest first; ``order`` is the
    truncation depth (number of rows solved).
    """

    partitions: tuple[SetPartition, ...]
    weights: Mapping[SetPartition, float]
    order: int

    def to_json(self) -> dict:
        return {
            "order": self.order,
            "weights": [
                {"partition": p.to_json(), "w": self.weights[p]} for p in self.partitions
            ],
        }


def mitigation_weights(
    spec: Spectrum,
    depth: int | None = None,
    tol: float = CLASSIFY_TOLERANCE,
) -> MitigationPlan:
    """Solve 1 = Σ_Ξ R_{ΛΞ} w_Ξ on the first ``depth`` rows for the correction weights.

    Column Ξ holds the spectrum of the state delayed by Ξ, which is the
    original class value masked by Π_sigma ⪯ Ξ; row Λ therefore reads
    M_Λ · Σ_{Ξ ⪰ Λ} w_Ξ = 1, and the weights are the Möbius inverse of 1/M.
    The coarsest-first rows form an up-set, so a truncated plan keeps the
    full plan's weights on its rows. Every class value reached before
    ``depth`` must have a nonzero real part.
    """
    report = is_orbit_invariant(spec, tol)
    if not report.invariant:
        raise ValueError(
            f"mitigation requires an orbit-invariant spectrum; "
            f"max deviation {report.max_deviation:.3e} exceeds {tol:.1e}"
        )
    class_values = class_reduce(spec)
    order = matrix_order(spec.n)
    depth = len(order) if depth is None else depth
    if not 1 <= depth <= len(order):
        raise ValueError(f"depth must be in 1..{len(order)}")
    solved = tuple(order[:depth])
    inverse = dict.fromkeys(order, 0.0)
    for row in solved:
        diagonal = class_values[row].real
        if abs(diagonal) <= tol:
            raise SingularDiagonalError(row, diagonal)
        inverse[row] = 1.0 / diagonal
    weights = mobius_invert(inverse).weights
    return MitigationPlan(
        partitions=solved, weights={p: weights[p] for p in solved}, order=depth
    )


def apply_mitigation(
    plan: MitigationPlan,
    tables: Mapping[SetPartition, Mapping],
) -> dict:
    """Combine per-partition probability tables with the plan's weights.

    ``tables[Ξ]`` maps outcomes to probabilities measured on the state
    delayed by Ξ. Tables are required for every partition with nonzero
    weight and must share one outcome set.
    """
    needed = [p for p in plan.partitions if plan.weights[p] != 0.0]
    missing = [p for p in needed if p not in tables]
    if missing:
        raise ValueError(f"missing probability tables for partitions {missing}")
    outcome_sets = {frozenset(tables[p].keys()) for p in needed}
    if len(outcome_sets) > 1:
        raise ValueError("probability tables disagree on their outcome sets")

    out: dict = {}
    for p in needed:
        w = plan.weights[p]
        for outcome, prob in tables[p].items():
            out[outcome] = out.get(outcome, 0.0) + w * prob
    return out

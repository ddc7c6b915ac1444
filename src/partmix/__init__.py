"""Multi-photon interference under partial distinguishability.

Library layout:
  symgroup      permutations, cycles, conjugation, rencontres numbers
  partitions    set-partition lattice, refinement order, Möbius inversion
  states        product/partition/OBB/triad state constructors
  spectrum      generalized indistinguishabilities and projections
  reconstruct   incoherent classification and mitigation weights
  interference  permanents, outcome probabilities, Fock oracle
  tomography    cyclic interferometers and fringe-based extraction
  sampling      partition sampling, cost model, Haar variance experiment
  cli           command-line front door
"""

from .errors import (
    CoherenceResidueError,
    DegenerateCalibrationError,
    NegativeWeightError,
    NoConjugatorError,
    NormalizationError,
    PartmixError,
    SchemaError,
    SingularDiagonalError,
)
from .interference import (
    fock_oracle_probability,
    partition_probability,
    permanent,
    probability_from_spectrum,
)
from .partitions import PartitionDistribution, SetPartition, forward_map, mobius_invert
from .reconstruct import apply_mitigation, classify, mitigation_weights
from .sampling import haar_variance_experiment, partition_sample
from .spectrum import (
    Spectrum,
    gi_part,
    gi_sym,
    is_orbit_invariant,
    spectrum_of,
    strict_projection,
    twirl,
)
from .states import (
    Mixture,
    PartitionState,
    ProductState,
    apply_time_delay_partition,
    obb_partition_distribution,
    obb_state,
    partition_state,
    pure_product,
    triad_phase_state,
)
from .symgroup import Permutation
from .tomography import full_tomography

__all__ = [
    "CoherenceResidueError",
    "DegenerateCalibrationError",
    "Mixture",
    "NegativeWeightError",
    "NoConjugatorError",
    "NormalizationError",
    "PartitionDistribution",
    "PartitionState",
    "PartmixError",
    "Permutation",
    "ProductState",
    "SchemaError",
    "SetPartition",
    "SingularDiagonalError",
    "Spectrum",
    "apply_mitigation",
    "apply_time_delay_partition",
    "classify",
    "fock_oracle_probability",
    "forward_map",
    "full_tomography",
    "gi_part",
    "gi_sym",
    "haar_variance_experiment",
    "is_orbit_invariant",
    "mitigation_weights",
    "mobius_invert",
    "obb_partition_distribution",
    "obb_state",
    "partition_probability",
    "partition_sample",
    "partition_state",
    "permanent",
    "probability_from_spectrum",
    "pure_product",
    "spectrum_of",
    "strict_projection",
    "triad_phase_state",
    "twirl",
]

__version__ = "0.1.0"

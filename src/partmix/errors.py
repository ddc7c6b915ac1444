"""Exception types shared across the package."""


class PartmixError(Exception):
    """Base class for all package-specific errors."""


class NoConjugatorError(PartmixError, ValueError):
    """Raised when two permutations have different cycle structures."""


class NormalizationError(PartmixError, ValueError):
    """Raised when a state vector or density matrix fails its norm check."""


class CoherenceResidueError(PartmixError, ValueError):
    """Raised when a partition-distribution solve leaves an imaginary residue.

    Signals a non-orbit-invariant or unphysical class-value input.
    """


class SingularDiagonalError(PartmixError, ValueError):
    """Raised when a mitigation solve hits a (near-)zero diagonal value."""

    def __init__(self, partition, value):
        self.partition = partition
        self.value = value
        super().__init__(
            f"mitigation diagonal vanishes for class {partition}: |M| = {abs(value):.3e}"
        )


class NegativeWeightError(PartmixError, ValueError):
    """Raised when a sampler receives a distribution with negative weights."""


class DegenerateCalibrationError(PartmixError, ValueError):
    """Raised when a calibration fringe has no usable frequency component."""


class SchemaError(PartmixError, ValueError):
    """Raised when a JSON document fails validation.

    Carries a JSON-pointer path to the offending element.
    """

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{path or '/'}: {message}")

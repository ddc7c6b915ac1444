"""Distinguishability tomography with cyclic interferometers.

A 2n-mode network per permutation sigma: a layer of n balanced beam
splitters, a phase shifter per disjoint cycle (on the first even mode of
the rows that cycle touches), a permutation of the odd modes by sigma, and
a second beam-splitter layer. Photons enter the even modes; scanning a
common phase and Fourier-transforming the probability of the reference
outcome [1,0,1,0,...] isolates M_sigma in the highest frequency bin.

All sign and scale conventions of the network are absorbed by calibrating
against the ideal indistinguishable state on the same interferometer
family. The extraction reads the DFT at +k (k = cycle count), the bin that
reproduces spectrum_of on the triad-phase state; -k would give the
conjugate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateCalibrationError
from .interference import check_unitary, fock_oracle_probability
from .spectrum import Spectrum
from .states import State, ideal_state
from .symgroup import Permutation, enumerate_permutations

MAX_TOMOGRAPHY_N = 4
MAX_BUILD_N = 5


def _beam_splitter_layer(n: int) -> np.ndarray:
    b = np.zeros((2 * n, 2 * n), dtype=complex)
    h = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
    for r in range(n):
        b[2 * r : 2 * r + 2, 2 * r : 2 * r + 2] = h
    return b


@dataclass(frozen=True, eq=False)
class CyclicInterferometer:
    sigma: Permutation
    phases: tuple[float, ...]  # one per disjoint cycle, canonical order
    matrix: np.ndarray

    @property
    def n(self) -> int:
        return self.sigma.n

    def input_modes(self) -> list[int]:
        return [2 * r for r in range(self.n)]

    def reference_outcome(self) -> tuple[int, ...]:
        return tuple(1 if j % 2 == 0 else 0 for j in range(2 * self.n))

    def unitarity_defect(self) -> float:
        return check_unitary(self.matrix, math.inf)


def build_cyclic(sigma: Permutation, phases) -> CyclicInterferometer:
    """Assemble the 2n x 2n unitary for sigma with one phase per cycle."""
    n = sigma.n
    if n > MAX_BUILD_N:
        raise ValueError(f"cyclic interferometers limited to n <= {MAX_BUILD_N}")
    cycles = sigma.cycles()
    phases = tuple(float(p) for p in phases)
    if len(phases) != len(cycles):
        raise ValueError(f"need {len(cycles)} phases (one per cycle), got {len(phases)}")

    mid = np.zeros((2 * n, 2 * n), dtype=complex)
    for cycle, phi in zip(cycles, phases):
        for r in cycle:
            mid[2 * r + 1, 2 * sigma(r) + 1] = 1.0  # odd modes permuted by sigma
        mid[2 * cycle[0], 2 * cycle[0]] = np.exp(1j * phi)  # first even mode of the cycle
    for r in range(n):
        if mid[2 * r, 2 * r] == 0.0:
            mid[2 * r, 2 * r] = 1.0

    b = _beam_splitter_layer(n)
    return CyclicInterferometer(sigma=sigma, phases=phases, matrix=b @ mid @ b)


@dataclass(frozen=True, eq=False)
class FringeScan:
    """Reference-outcome probabilities over a uniform common-phase grid."""

    phases: np.ndarray
    probabilities: np.ndarray

    def __len__(self) -> int:
        return len(self.phases)


def fringe_scan(
    state: State,
    sigma: Permutation,
    L: int,
    shots: int | None = None,
    rng: np.random.Generator | None = None,
) -> FringeScan:
    """Scan all cycle phases together through L points of [0, 2pi).

    Probabilities are exact oracle values, from one oracle call on the stack
    of L interferometers. With ``shots`` set, each point is replaced by a
    binomial draw from ``rng`` (the marginal of multinomial resampling of the
    full outcome distribution on the reference outcome).
    """
    k = len(sigma.cycles())
    if L < 2 * k + 1:
        raise ValueError(f"L must be at least 2k+1 = {2 * k + 1} for k = {k} cycles")
    if shots is not None and rng is None:
        raise ValueError("shot noise needs an rng, so that the scan is reproducible")
    phases = 2.0 * math.pi * np.arange(L) / L
    inters = [build_cyclic(sigma, [phi] * k) for phi in phases]
    probs = fock_oracle_probability(
        state,
        np.array([inter.matrix for inter in inters]),
        inters[0].reference_outcome(),
        inters[0].input_modes(),
    )
    if shots is not None:
        probs = rng.binomial(shots, np.clip(probs, 0.0, 1.0)) / shots
    return FringeScan(phases=phases, probabilities=probs)


def _dft_bin(values: np.ndarray, k: int) -> complex:
    coeffs = np.fft.fft(values) / len(values)
    return complex(coeffs[k % len(values)])  # bin +k, see module docstring


def extract_M(scan: FringeScan, sigma: Permutation, calibration: FringeScan) -> complex:
    """Ratio of the top-frequency fringe components of state and calibration."""
    if len(scan) != len(calibration):
        raise ValueError("scan and calibration must share the phase grid")
    k = len(sigma.cycles())
    ref = _dft_bin(calibration.probabilities, k)
    if abs(ref) < 1e-12:
        raise DegenerateCalibrationError(
            f"calibration fringe has no frequency-{k} component (|c| = {abs(ref):.1e})"
        )
    return _dft_bin(scan.probabilities, k) / ref


def default_scan_length(sigma: Permutation) -> int:
    return 4 * len(sigma.cycles()) + 1


def full_tomography(state: State, scan_length: int | None = None) -> Spectrum:
    """Extract every M_sigma from noiseless fringe scans (n <= 4: n! scans)."""
    n = state.n
    if n > MAX_TOMOGRAPHY_N:
        raise ValueError(f"full tomography limited to n <= {MAX_TOMOGRAPHY_N}")
    reference = ideal_state(n)
    values = {}
    for sigma in enumerate_permutations(n):
        L = scan_length or default_scan_length(sigma)
        calibration = fringe_scan(reference, sigma, L)
        scan = fringe_scan(state, sigma, L)
        values[sigma] = extract_M(scan, sigma, calibration)
    return Spectrum(n, values)


__all__ = [
    "CyclicInterferometer",
    "FringeScan",
    "build_cyclic",
    "default_scan_length",
    "extract_M",
    "fringe_scan",
    "full_tomography",
]

import math

import numpy as np
import pytest

from helpers import random_pure_state
from partmix.errors import DegenerateCalibrationError
from partmix.spectrum import spectrum_of
from partmix.states import ideal_state, negative_partition_state, obb_state, triad_phase_state
from partmix.symgroup import Permutation, enumerate_permutations
from partmix.tomography import (
    FringeScan,
    build_cyclic,
    default_scan_length,
    extract_M,
    fringe_scan,
    full_tomography,
)


def test_built_unitaries_are_unitary():
    rng = np.random.default_rng(61)
    for n in (1, 2, 3, 4, 5):
        for sigma in list(enumerate_permutations(n))[:6]:
            k = len(sigma.cycles())
            inter = build_cyclic(sigma, rng.uniform(0, 2 * np.pi, k))
            assert inter.unitarity_defect() < 1e-10


def test_phase_count_must_match_cycles():
    sigma = Permutation.from_cycles(3, [(0, 1)])
    with pytest.raises(ValueError):
        build_cyclic(sigma, [0.1])  # two cycles: (0 1) and the fixed point (2)


def test_build_bounds():
    with pytest.raises(ValueError):
        build_cyclic(Permutation.identity(6), [0.0] * 6)


def test_wiring_recovers_permutation_layer():
    # the beam-splitter layer is involutory, so B U B reveals the mid layer
    sigma = Permutation.from_cycles(4, [(0, 1, 3, 2)])
    phases = [0.7]
    inter = build_cyclic(sigma, phases)
    n = 4
    b = np.zeros((2 * n, 2 * n), dtype=complex)
    h = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
    for r in range(n):
        b[2 * r : 2 * r + 2, 2 * r : 2 * r + 2] = h
    mid = b @ inter.matrix @ b
    for r in range(n):
        # odd mode of row r feeds the odd mode of row sigma(r)
        assert mid[2 * r + 1, 2 * sigma(r) + 1] == pytest.approx(1.0, abs=1e-12)
    assert mid[0, 0] == pytest.approx(np.exp(0.7j), abs=1e-12)  # phase on first even mode
    for r in range(1, n):
        assert mid[2 * r, 2 * r] == pytest.approx(1.0, abs=1e-12)
    nonzero = np.abs(mid) > 1e-12
    assert nonzero.sum() == 2 * n  # one entry per mode: a permutation matrix with phases


def test_two_photon_reference_outcome_branches():
    # all phases zero, ideal photons: p(s0) takes the two fringe extremes 1/4 and 0
    sigma = Permutation.from_cycles(2, [(0, 1)])
    state = ideal_state(2)
    scan = fringe_scan(state, sigma, 8)
    assert scan.probabilities[0] == pytest.approx(0.25, abs=1e-12)  # phase 0
    assert scan.probabilities[4] == pytest.approx(0.0, abs=1e-12)  # phase pi
    assert np.all(scan.probabilities <= 0.25 + 1e-12)


def test_ideal_single_cycle_fringe_amplitude():
    # amplitude 1/2^(2n-1) in probability, so the complex bin holds 1/2^(2n)
    for n, cyc in [(2, [(0, 1)]), (3, [(0, 1, 2)]), (4, [(0, 1, 2, 3)])]:
        sigma = Permutation.from_cycles(n, cyc)
        scan = fringe_scan(ideal_state(n), sigma, 8)
        c1 = np.fft.fft(scan.probabilities)[1] / 8
        assert abs(c1) == pytest.approx(1 / 2 ** (2 * n), abs=1e-14)


def test_fringe_requires_nyquist_length():
    sigma = Permutation.identity(3)  # three cycles
    with pytest.raises(ValueError):
        fringe_scan(ideal_state(3), sigma, 6)


def test_flat_fringe_for_distinguishable_state():
    sigma = Permutation.from_cycles(3, [(0, 1, 2)])
    state = obb_state(3, 0.0)
    scan = fringe_scan(state, sigma, 8)
    coeffs = np.fft.fft(scan.probabilities) / len(scan.probabilities)
    assert abs(coeffs[1]) < 1e-12  # no top-frequency fringe: M_sigma = 0


def test_single_cycle_fringe_fits_cosine():
    rng = np.random.default_rng(62)
    for n, sigma in [
        (2, Permutation.from_cycles(2, [(0, 1)])),
        (3, Permutation.from_cycles(3, [(0, 1, 2)])),
    ]:
        state = random_pure_state(rng, n, 2)
        scan = fringe_scan(state, sigma, 12)
        design = np.column_stack(
            [np.ones_like(scan.phases), np.cos(scan.phases), np.sin(scan.phases)]
        )
        coef, *_ = np.linalg.lstsq(design, scan.probabilities, rcond=None)
        residual = np.max(np.abs(design @ coef - scan.probabilities))
        assert residual < 1e-10


def test_extraction_examples():
    sigma = Permutation.from_cycles(3, [(0, 1, 2)])
    L = default_scan_length(sigma)
    cal = fringe_scan(ideal_state(3), sigma, L)
    assert extract_M(cal, sigma, cal) == pytest.approx(1.0, abs=1e-12)

    obb = fringe_scan(obb_state(3, 0.6), sigma, L)
    assert extract_M(obb, sigma, cal) == pytest.approx(0.216, abs=1e-8)

    neg = fringe_scan(negative_partition_state(), sigma, L)
    assert extract_M(neg, sigma, cal) == pytest.approx(-0.125, abs=1e-8)


def test_degenerate_calibration_raises():
    sigma = Permutation.from_cycles(2, [(0, 1)])
    flat = FringeScan(phases=np.linspace(0, 2 * np.pi, 8, endpoint=False), probabilities=np.full(8, 0.125))
    scan = fringe_scan(ideal_state(2), sigma, 8)
    with pytest.raises(DegenerateCalibrationError):
        extract_M(scan, sigma, flat)


def test_extraction_conjugate_pairing():
    state = triad_phase_state(0.9)
    sigma = Permutation.from_cycles(3, [(0, 1, 2)])
    inv = sigma.inverse()
    L = default_scan_length(sigma)
    cal = fringe_scan(ideal_state(3), sigma, L)
    cal_inv = fringe_scan(ideal_state(3), inv, L)
    m = extract_M(fringe_scan(state, sigma, L), sigma, cal)
    m_inv = extract_M(fringe_scan(state, inv, L), inv, cal_inv)
    assert m_inv == pytest.approx(np.conj(m), abs=1e-6)


def test_full_tomography_matches_spectrum():
    rng = np.random.default_rng(63)
    for state in [
        random_pure_state(rng, 2, 2),
        random_pure_state(rng, 3, 3),
        triad_phase_state(1.0),
        obb_state(3, 0.4),
        random_pure_state(rng, 4, 3),
        obb_state(4, 0.7),
    ]:
        tomo = full_tomography(state)
        direct = spectrum_of(state)
        for sigma in tomo.values:
            assert tomo.value(sigma) == pytest.approx(direct.value(sigma), abs=1e-6)


def test_four_photon_extraction_at_oracle_bound():
    # 2n = 8 modes sits exactly at the oracle's mode limit
    state = obb_state(4, 0.6)
    direct = spectrum_of(state)
    for cycles in ([(0, 1, 2, 3)], [(0, 1), (2, 3)]):
        sigma = Permutation.from_cycles(4, cycles)
        L = default_scan_length(sigma)
        cal = fringe_scan(ideal_state(4), sigma, L)
        scan = fringe_scan(state, sigma, L)
        assert extract_M(scan, sigma, cal) == pytest.approx(
            direct.value(sigma), abs=1e-8
        )


def test_full_tomography_ideal_three_photons():
    tomo = full_tomography(ideal_state(3))
    for v in tomo.values.values():
        assert v == pytest.approx(1.0, abs=1e-10)


def test_tomography_bounds():
    with pytest.raises(ValueError):
        full_tomography(ideal_state(5))


def test_shot_noise_scan_is_seeded_and_close():
    sigma = Permutation.from_cycles(2, [(0, 1)])
    rng1 = np.random.default_rng(64)
    rng2 = np.random.default_rng(64)
    noisy1 = fringe_scan(ideal_state(2), sigma, 8, shots=200_000, rng=rng1)
    noisy2 = fringe_scan(ideal_state(2), sigma, 8, shots=200_000, rng=rng2)
    assert np.array_equal(noisy1.probabilities, noisy2.probabilities)
    exact = fringe_scan(ideal_state(2), sigma, 8)
    assert np.max(np.abs(noisy1.probabilities - exact.probabilities)) < 0.01


def test_shot_noise_requires_rng():
    sigma = Permutation.from_cycles(2, [(0, 1)])
    with pytest.raises(ValueError, match="rng"):
        fringe_scan(ideal_state(2), sigma, 8, shots=1000)

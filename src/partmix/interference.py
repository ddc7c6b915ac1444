"""Photocounting engine: permanents, path amplitudes, outcome probabilities.

Conventions, fixed package-wide:
  * U[i, j] is the amplitude for input mode i -> output mode j, so a
    path amplitude along a bijection f is X_f = prod_i U[i, f(i)].
  * Input photons occupy modes 0..n-1 unless ``input_modes`` says otherwise.
  * For a no-collision outcome the probability is

        p = sum_sigma M_sigma * sum_tau X_tau * conj(X_{tau∘sigma}),

    which pairs the spectrum convention of :mod:`partmix.spectrum` with the
    amplitude convention above (verified against the Fock oracle).
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import UnsupportedOutcomeError
from .partitions import SetPartition
from .spectrum import Spectrum
from .states import Mixture, ProductState, State
from .symgroup import Permutation

NAIVE_PERMANENT_MAX = 8
RYSER_PERMANENT_MAX = 16
KERNEL_CHUNK_ENTRIES = 1 << 20  # bound on the oracle's gathered overlap array

Outcome = tuple[int, ...]


@dataclass(frozen=True, eq=False)
class Interferometer:
    """An m x m scattering matrix with its unitarity defect on record."""

    matrix: np.ndarray
    n: int = 0  # photons fed in, metadata only

    @classmethod
    def of(cls, matrix, n: int = 0, tol: float = 1e-9) -> "Interferometer":
        m = np.asarray(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("scattering matrix must be square")
        inter = cls(matrix=m, n=n)
        defect = inter.unitarity_defect()
        if defect > tol:
            raise ValueError(f"unitarity defect {defect:.3e} exceeds {tol:.1e}")
        if n > m.shape[0]:
            raise ValueError(f"{n} photons cannot occupy {m.shape[0]} distinct modes")
        return inter

    @property
    def m(self) -> int:
        return self.matrix.shape[0]

    def unitarity_defect(self) -> float:
        eye = np.eye(self.m)
        return float(np.max(np.abs(self.matrix @ self.matrix.conj().T - eye)))


def _permanent_naive(a: np.ndarray) -> complex:
    k = a.shape[0]
    total = 0.0 + 0.0j
    for perm in itertools.permutations(range(k)):
        prod = 1.0 + 0.0j
        for i, j in enumerate(perm):
            prod *= a[i, j]
        total += prod
    return total


def _permanent_ryser(a: np.ndarray) -> complex:
    """Ryser's inclusion-exclusion formula with Gray-code column updates."""
    k = a.shape[0]
    sums = np.zeros(k, dtype=complex)
    total = 0.0 + 0.0j
    prev = 0
    for idx in range(1, 1 << k):
        gray = idx ^ (idx >> 1)
        bit = gray ^ prev
        j = bit.bit_length() - 1
        if gray & bit:
            sums += a[:, j]
        else:
            sums -= a[:, j]
        prev = gray
        sign = -1.0 if gray.bit_count() & 1 else 1.0
        total += sign * np.prod(sums)
    return total if k % 2 == 0 else -total


def permanent(a: np.ndarray, method: str = "ryser") -> complex:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("permanent needs a square matrix")
    k = a.shape[0]
    if k == 0:
        return 1.0 + 0.0j
    if method == "naive":
        if k > NAIVE_PERMANENT_MAX:
            raise ValueError(f"naive permanent limited to k <= {NAIVE_PERMANENT_MAX}")
        return _permanent_naive(a)
    if method == "ryser":
        if k > RYSER_PERMANENT_MAX:
            raise ValueError(f"ryser permanent limited to k <= {RYSER_PERMANENT_MAX}")
        return _permanent_ryser(a)
    raise ValueError(f"unknown permanent method {method!r}")


def path_amplitude(
    U: np.ndarray,
    sigma: Permutation,
    input_modes: Sequence[int],
    output_modes: Sequence[int],
) -> complex:
    """X_sigma: the product of matrix entries along one photon routing."""
    U = np.asarray(U)
    if len(input_modes) != sigma.n or len(output_modes) != sigma.n:
        raise ValueError("mode lists must match the permutation size")
    acc = 1.0 + 0.0j
    for i in range(sigma.n):
        acc *= U[input_modes[i], output_modes[sigma(i)]]
    return acc


def outcome_patterns(m: int, n: int) -> list[Outcome]:
    """All C(m+n-1, n) occupation vectors of n photons in m modes."""
    out = []

    def grow(prefix: list[int], left: int):
        if len(prefix) == m - 1:
            out.append(tuple(prefix) + (left,))
            return
        for k in range(left + 1):
            prefix.append(k)
            grow(prefix, left - k)
            prefix.pop()

    grow([], n)
    return out


def no_collision_outcomes(m: int, n: int) -> list[Outcome]:
    out = []
    for modes in itertools.combinations(range(m), n):
        s = [0] * m
        for j in modes:
            s[j] = 1
        out.append(tuple(s))
    return out


def _check_outcome(outcome: Sequence[int], n: int, m: int) -> Outcome:
    s = tuple(int(v) for v in outcome)
    if len(s) != m:
        raise ValueError(f"outcome has {len(s)} modes, interferometer has {m}")
    if any(v < 0 for v in s) or sum(s) != n:
        raise ValueError(f"outcome {s} must be nonnegative and sum to {n}")
    return s


def _default_inputs(n: int, m: int, input_modes: Sequence[int] | None) -> list[int]:
    if input_modes is None:
        modes = list(range(n))
    else:
        try:
            modes = [operator.index(j) for j in input_modes]
        except TypeError:
            raise ValueError(f"input modes {list(input_modes)} must be integers") from None
        if len(modes) != n or len(set(modes)) != n:
            raise ValueError("input modes must be n distinct mode indices")
    if modes and (min(modes) < 0 or max(modes) >= m):
        raise ValueError(f"input modes {modes} must lie in 0..{m - 1}")
    return modes


@lru_cache(maxsize=8)
def _perm_tables(n: int):
    images = np.array(list(itertools.permutations(range(n))), dtype=np.int64)
    powers = n ** np.arange(n, dtype=np.int64)
    keys = images @ powers
    order = np.argsort(keys)
    return images, powers, keys[order], order


def probability_from_spectrum(
    U: np.ndarray,
    spec: Spectrum,
    outcome: Sequence[int],
    input_modes: Sequence[int] | None = None,
) -> float:
    """Outcome probability from the permutation spectrum (no-collision only)."""
    U = np.asarray(U, dtype=complex)
    n = spec.n
    if n > 7:
        raise ValueError("spectrum-based probabilities limited to n <= 7")
    m = U.shape[1] if U.ndim == 2 else 0
    s = _check_outcome(outcome, n, m)
    if any(v > 1 for v in s):
        raise UnsupportedOutcomeError(
            "bunched outcome: use fock_oracle_probability or partition_probability"
        )
    inputs = _default_inputs(n, m, input_modes)
    outputs = [j for j, v in enumerate(s) if v == 1]

    sub = U[np.ix_(inputs, outputs)]
    images, powers, sorted_keys, order = _perm_tables(n)
    amps = np.prod(sub[np.arange(n)[None, :], images], axis=1)
    m_vec = np.array([spec.values[Permutation(tuple(im))] for im in images])

    total = 0.0 + 0.0j
    for k, sigma in enumerate(images):
        composed = images[:, sigma]  # (tau∘sigma)(i) = tau(sigma(i))
        idx = order[np.searchsorted(sorted_keys, composed @ powers)]
        total += m_vec[k] * np.sum(amps * np.conj(amps[idx]))
    if abs(total.imag) > 1e-10 * max(1.0, abs(total)):
        raise ValueError(f"probability has imaginary residue {total.imag:.3e}")
    return float(total.real)


def ideal_probability(
    U: np.ndarray, outcome: Sequence[int], input_modes: Sequence[int] | None = None
) -> float:
    """Ideal indistinguishable probability |Perm(U^[s])|^2 / prod_j s_j!."""
    U = np.asarray(U, dtype=complex)
    s = tuple(int(v) for v in outcome)
    n = sum(s)
    rows = _default_inputs(n, U.shape[1], input_modes)
    cols = [j for j, c in enumerate(s) for _ in range(c)]
    val = permanent(U[np.ix_(rows, cols)])
    return float(abs(val) ** 2 / math.prod(math.factorial(c) for c in s))


def ideal_outcome_distribution(
    U: np.ndarray, input_modes: Sequence[int]
) -> dict[Outcome, float]:
    """Exact ideal boson-sampling law for photons fed in ``input_modes``."""
    U = np.asarray(U, dtype=complex)
    m = U.shape[1]
    k = len(input_modes)
    return {
        s: ideal_probability(U, s, input_modes)
        for s in outcome_patterns(m, k)
    }


def _cell_suboutcomes(remaining: Sequence[int], k: int) -> list[Outcome]:
    """Occupation vectors of k photons bounded above by ``remaining``."""
    m = len(remaining)
    out = []

    def grow(j: int, prefix: list[int], left: int):
        if j == m:
            if left == 0:
                out.append(tuple(prefix))
            return
        for c in range(min(left, remaining[j]) + 1):
            prefix.append(c)
            grow(j + 1, prefix, left - c)
            prefix.pop()

    grow(0, [], k)
    return out


def partition_probability(
    U: np.ndarray,
    partition: SetPartition,
    outcome: Sequence[int],
    input_modes: Sequence[int] | None = None,
) -> float:
    """Outcome probability for the partition state of ``partition``.

    Cells are mutually distinguishable, so the outcome is the classical
    convolution of each cell's ideal distribution; per-cell probabilities
    are squared sub-permanents with repeated output columns.
    """
    U = np.asarray(U, dtype=complex)
    n = partition.n
    s = _check_outcome(outcome, n, U.shape[1])
    inputs = _default_inputs(n, U.shape[1], input_modes)
    cells = [tuple(inputs[i] for i in cell) for cell in partition.cells]

    def conv(cell_idx: int, remaining: tuple[int, ...]) -> float:
        if cell_idx == len(cells):
            return 1.0 if all(v == 0 for v in remaining) else 0.0
        rows = cells[cell_idx]
        total = 0.0
        for t in _cell_suboutcomes(remaining, len(rows)):
            p_cell = ideal_probability(U, t, rows)
            if p_cell == 0.0:
                continue
            rest = tuple(r - c for r, c in zip(remaining, t))
            total += p_cell * conv(cell_idx + 1, rest)
        return total

    return conv(0, s)


def _pure_component_states(state: ProductState) -> list[tuple[float, list[np.ndarray]]]:
    """Expand a (possibly mixed) product into weighted lists of pure kets."""
    per_photon = [p.pure_components() for p in state.photons]
    out = []
    for combo in itertools.product(*per_photon):
        weight = math.prod(w for w, _ in combo)
        if weight > 0.0:
            out.append((weight, [ket for _, ket in combo]))
    return out


def _oracle_terms(state: State, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Weights and Gram matrices gram[a, b] = <phi_a | phi_b> of every pure
    product term of ``state``, mixture components and eigen-kets expanded."""
    if isinstance(state, Mixture):
        parts = [(w, _oracle_terms(comp, m)) for w, comp in state.components]
        weights = np.concatenate([w * cw for w, (cw, _) in parts])
        grams = np.concatenate([g for _, (_, g) in parts])
        return weights, grams
    if state.n > 5 or m > 8 or state.dim > 8:
        raise ValueError("fock oracle limited to n <= 5, m <= 8, d <= 8")
    terms = _pure_component_states(state)
    kets = np.array([k for _, k in terms])  # (terms, n, d)
    grams = np.einsum("tad,tbd->tab", kets.conj(), kets)
    return np.array([w for w, _ in terms]), grams


def _oracle_kernel(
    weights: np.ndarray, grams: np.ndarray, holders: np.ndarray, blocks: list[tuple[int, int]]
) -> np.ndarray:
    """C[f, g] = sum_t w_t prod_j perm(gram_t[g_j, f_j]) over all assignment pairs.

    ``holders[f]`` lists the photons of assignment f sorted by output mode;
    each ``(offset, count)`` block of it holds one occupied mode. A block's
    permanent is summed over its count! orderings. Terms are processed in
    chunks that keep the gathered array below ``KERNEL_CHUNK_ENTRIES``.
    """
    F = len(holders)
    width = max(math.factorial(c) * c for _, c in blocks)
    step = max(1, KERNEL_CHUNK_ENTRIES // (F * F * width))
    kernel = np.zeros((F, F), dtype=complex)
    for lo in range(0, len(weights), step):
        chunk = grams[lo : lo + step]
        term = weights[lo : lo + step, None, None]
        for off, c in blocks:
            rows = holders[None, :, off : off + c, None]  # bra photons of g
            cols = holders[:, None, None, off : off + c]  # ket photons of f
            block = chunk[:, rows, cols]  # (t, f, g, c, c)
            orderings = np.array(list(itertools.permutations(range(c))))
            term = term * np.prod(block[..., np.arange(c), orderings], axis=-1).sum(axis=-1)
        kernel += term.sum(axis=0)
    return kernel


def fock_oracle_probability(
    state: State,
    U: np.ndarray,
    outcome: Sequence[int],
    input_modes: Sequence[int] | None = None,
) -> float | np.ndarray:
    """Brute-force probability by direct expansion over output assignments.

    Independent of the permutation formalism: enumerates every pair of
    photon-to-mode assignments consistent with the outcome and contracts
    internal states mode by mode (a permanent of overlaps per mode).

    ``U`` is one (m, m) matrix, giving a float, or an (L, m, m) stack,
    giving L probabilities. The contraction kernel does not depend on U, so
    it is built once per call and shared by every matrix of the stack.
    """
    stack = np.asarray(U, dtype=complex)
    single = stack.ndim == 2
    if single:
        stack = stack[None]
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
        raise ValueError("U must be one (m, m) matrix or an (L, m, m) stack")
    n, m = state.n, stack.shape[2]
    weights, grams = _oracle_terms(state, m)
    s = _check_outcome(outcome, n, m)
    inputs = _default_inputs(n, m, input_modes)

    mode_slots = [j for j, c in enumerate(s) for _ in range(c)]
    assignments = np.array(sorted(set(itertools.permutations(mode_slots))))  # (F, n)
    holders = np.argsort(assignments, axis=1, kind="stable")
    counts = [c for c in s if c > 0]
    blocks = list(zip(itertools.accumulate([0] + counts[:-1]), counts))
    kernel = _oracle_kernel(weights, grams, holders, blocks)

    # amps[l, f] = prod_i U[l, inputs[i], f(i)]
    amps = np.prod(stack[:, np.asarray(inputs), assignments], axis=-1)
    totals = np.einsum("lf,fg,lg->l", amps, kernel, amps.conj())
    residue = np.abs(totals.imag) > 1e-10 * np.maximum(1.0, np.abs(totals))
    if residue.any():
        imag = totals.imag[residue][0]
        raise ValueError(f"oracle probability has imaginary residue {imag:.3e}")
    return float(totals.real[0]) if single else totals.real


def mixture_probability(
    U: np.ndarray,
    dist,
    outcome: Sequence[int],
    input_modes: Sequence[int] | None = None,
) -> float:
    """Σ_Λ p_Λ · partition_probability: the partition-representation law."""
    return float(
        sum(
            w * partition_probability(U, p, outcome, input_modes)
            for p, w in dist.weights.items()
            if w != 0.0
        )
    )

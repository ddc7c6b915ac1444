"""Photocounting engine: permanents, path amplitudes, outcome probabilities.

Conventions, fixed package-wide:
  * U[i, j] is the amplitude for input mode i -> output mode j, so a
    path amplitude along a bijection f is X_f = prod_i U[i, f(i)].
  * Input photons occupy modes 0..n-1 unless ``input_modes`` says otherwise.
  * For an outcome s, with A = U[inputs, slots] where output mode j fills
    s_j slots, the probability is

        p = sum_sigma M_sigma * sum_tau X_tau * conj(X_{tau∘sigma}) / prod_j s_j!
          = sum_sigma M_sigma * perm(A ∘ conj(A[sigma^-1(.), :])) / prod_j s_j!,

    which pairs the spectrum convention of :mod:`partmix.spectrum` with the
    amplitude convention above (verified against the Fock oracle). The n!
    pair permanents do not depend on M (Shchesnovich, PRA 91, 013844 (2015);
    Tichy, PRA 91, 022316 (2015)).
"""

from __future__ import annotations

import itertools
import math
import operator
from functools import lru_cache
from typing import Sequence

import numpy as np

from .partitions import SetPartition
from .spectrum import Spectrum
from .states import Mixture, ProductState, State
from .symgroup import Permutation, enumerate_permutations

NAIVE_PERMANENT_MAX = 8
RYSER_PERMANENT_MAX = 16
MAX_ENGINE_N = 8
UNITARY_TOL = 1e-6
KERNEL_CHUNK_ENTRIES = 1 << 20  # bound on the oracle's gathered overlap array
STACK_CHUNK_ENTRIES = 1 << 16  # bound on the matrix entries of one permanents stack

Outcome = tuple[int, ...]


def check_unitary(U: np.ndarray, tol: float = UNITARY_TOL) -> float:
    """The unitarity defect max |U U^dagger - I|; ValueError above ``tol`` or if NaN."""
    U = np.asarray(U)
    if U.ndim != 2 or U.shape[0] != U.shape[1]:
        raise ValueError("scattering matrix must be square")
    defect = float(np.max(np.abs(U @ U.conj().T - np.eye(len(U)))))
    if not defect <= tol:
        raise ValueError(f"unitarity defect {defect:.3e} exceeds {tol:.1e}")
    return defect


def _permanent_naive(a: np.ndarray) -> complex:
    k = a.shape[0]
    total = 0.0 + 0.0j
    for perm in itertools.permutations(range(k)):
        prod = 1.0 + 0.0j
        for i, j in enumerate(perm):
            prod *= a[i, j]
        total += prod
    return total


def permanents(mats: np.ndarray) -> np.ndarray:
    """Permanents of a stack (..., k, k): Ryser's formula with Gray-code column
    updates, one Python loop over the 2^k subsets for the whole stack."""
    mats = np.asarray(mats, dtype=complex)
    k = mats.shape[-1]
    if k == 0:
        return np.ones(mats.shape[:-2], dtype=complex)[()]
    cols = mats.T  # cols[j, i] = mats[..., i, j] with the stack axes reversed
    sums = np.zeros(cols.shape[1:], dtype=complex)
    total = 0.0 + 0.0j  # one matrix runs on scalars, as a plain Ryser would
    prev = 0
    for idx in range(1, 1 << k):
        gray = idx ^ (idx >> 1)
        bit = gray ^ prev
        j = bit.bit_length() - 1
        if gray & bit:
            sums += cols[j]
        else:
            sums -= cols[j]
        prev = gray
        sign = -1.0 if gray.bit_count() & 1 else 1.0
        total = total + sign * np.prod(sums, axis=0)
    return (total if k % 2 == 0 else -total).T


def permanent(a: np.ndarray, method: str = "ryser") -> complex:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("permanent needs a square matrix")
    k = a.shape[0]
    if method == "naive":
        if k > NAIVE_PERMANENT_MAX:
            raise ValueError(f"naive permanent limited to k <= {NAIVE_PERMANENT_MAX}")
        return _permanent_naive(a)
    if method == "ryser":
        if k > RYSER_PERMANENT_MAX:
            raise ValueError(f"ryser permanent limited to k <= {RYSER_PERMANENT_MAX}")
        return permanents(a)
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


def _patterns(m: int, n: int, bound: Sequence[int] | None = None):
    """Every occupation vector of n photons in m modes (at most ``bound`` mode by
    mode) in lexicographic order, as (P, n) sorted output modes and (P, m)
    occupations. Sorted mode lists run in the reverse order of their vectors."""
    bound = np.full(m, n) if bound is None else np.asarray(bound)
    modes = [j for j in range(m) if bound[j] > 0]
    lists = list(itertools.combinations_with_replacement(modes, n))
    slots = np.array(lists[::-1], dtype=np.int64).reshape(len(lists), n)
    occ = (slots[:, :, None] == np.arange(m)).sum(axis=1)
    keep = (occ <= bound).all(axis=1)
    return slots[keep], occ[keep]


def outcome_patterns(m: int, n: int, bound: Sequence[int] | None = None) -> list[Outcome]:
    """Occupation vectors of n photons in m modes in lexicographic order: all
    C(m+n-1, n) of them, or those at most ``bound`` mode by mode."""
    return [tuple(s) for s in _patterns(m, n, bound)[1].tolist()]


def no_collision_outcomes(m: int, n: int) -> list[Outcome]:
    """Outcomes with at most one photon per mode, first modes filled first."""
    return outcome_patterns(m, n, [1] * m)[::-1]


def _check_outcome(outcome: Sequence[int], n: int, m: int) -> Outcome:
    s = tuple(int(v) for v in outcome)
    if len(s) != m:
        raise ValueError(f"outcome has {len(s)} modes, interferometer has {m}")
    if any(v < 0 for v in s) or sum(s) != n:
        raise ValueError(f"outcome {s} must be nonnegative and sum to {n}")
    return s


def check_inputs(n: int, m: int, input_modes: Sequence[int] | None) -> list[int]:
    """The input modes of n photons in m modes, 0..n-1 by default; ValueError
    unless they are n distinct integers in 0..m-1."""
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
def _perm_tables(n: int) -> tuple[list[Permutation], np.ndarray]:
    """S_n in lexicographic rank order, with the image array of each inverse."""
    perms = list(enumerate_permutations(n))
    return perms, np.argsort(np.array([p.images for p in perms]), axis=1)


def spectrum_vector(spec: Spectrum) -> np.ndarray:
    """M_sigma in the rank order of ``_perm_tables``."""
    perms, _ = _perm_tables(spec.n)
    return np.array([spec.values[p] for p in perms], dtype=complex)


def pair_permanent_sums(A: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """(T, K) sums over sigma of P[t, sigma] * weights[sigma, c] for a stack A of
    T (n, n) matrices, P[t, sigma] = perm(A_t ∘ conj(A_t[sigma^-1(.), :])) with
    sigma in rank order. One pass over P scores K spectra; each batch holds
    at most about STACK_CHUNK_ENTRIES matrix entries."""
    n = A.shape[-1]
    _, inverses = _perm_tables(n)
    sstep = min(len(inverses), max(1, STACK_CHUNK_ENTRIES // (n * n)))
    tstep = max(1, STACK_CHUNK_ENTRIES // (sstep * n * n))
    out = np.zeros((len(A), weights.shape[1]), dtype=complex)
    for t0 in range(0, len(A), tstep):
        a = A[t0 : t0 + tstep]
        for s0 in range(0, len(inverses), sstep):
            mats = a[:, inverses[s0 : s0 + sstep]]  # [t, sigma, i, j] = a[t, sigma^-1(i), j]
            np.conjugate(mats, out=mats)
            mats *= a[:, None]
            out[t0 : t0 + tstep] += permanents(mats) @ weights[s0 : s0 + sstep]
    return out


def real_part(totals, what: str = "probability"):
    """The real part of computed probabilities whose imaginary residue is negligible."""
    totals = np.asarray(totals)
    residue = np.abs(totals.imag) > 1e-10 * np.maximum(1.0, np.abs(totals))
    if residue.any():
        imag = totals.imag[residue].flat[0]
        raise ValueError(f"{what} has imaginary residue {imag:.3e}")
    return totals.real


def probability_from_spectrum(
    U: np.ndarray,
    spec: Spectrum,
    outcome: Sequence[int],
    input_modes: Sequence[int] | None = None,
) -> float:
    """Outcome probability from the permutation spectrum, bunched outcomes
    included: n! pair permanents contracted with M (see the module notes)."""
    U = np.asarray(U, dtype=complex)
    n = spec.n
    if n > MAX_ENGINE_N:
        raise ValueError(f"spectrum-based probabilities limited to n <= {MAX_ENGINE_N}")
    check_unitary(U)
    m = U.shape[1]
    s = _check_outcome(outcome, n, m)
    inputs = check_inputs(n, m, input_modes)
    cols = [j for j, c in enumerate(s) for _ in range(c)]
    A = U[np.ix_(inputs, cols)][None]
    total = pair_permanent_sums(A, spectrum_vector(spec)[:, None])[0, 0]
    return float(real_part(total / math.prod(math.factorial(c) for c in s)))


def ideal_probability(
    U: np.ndarray, outcome: Sequence[int], input_modes: Sequence[int] | None = None
) -> float:
    """Ideal indistinguishable probability |Perm(U^[s])|^2 / prod_j s_j!."""
    U = np.asarray(U, dtype=complex)
    n = sum(int(v) for v in outcome)
    rows = check_inputs(n, U.shape[1], input_modes)
    s = _check_outcome(outcome, n, U.shape[1])
    cols = [j for j, c in enumerate(s) for _ in range(c)]
    val = permanent(U[np.ix_(rows, cols)])
    return float(abs(val) ** 2 / math.prod(math.factorial(c) for c in s))


def cell_law(U: np.ndarray, rows: Sequence[int], bound: Sequence[int] | None = None):
    """The ideal law of the photons fed in ``rows``: a (P, m) array of every
    occupation pattern, in ``outcome_patterns`` order and at most ``bound`` mode
    by mode, and the (P,) probabilities |perm|^2 / prod_j s_j!, from
    ``permanents`` stacks of at most about STACK_CHUNK_ENTRIES matrix entries."""
    m, k = U.shape[1], len(rows)
    cols, occ = _patterns(m, k, bound)
    step = max(1, STACK_CHUNK_ENTRIES // (k * k))
    block = U[np.asarray(rows)]
    perms = [permanents(block[:, cols[lo : lo + step]].transpose(1, 0, 2))
             for lo in range(0, len(cols), step)]
    factorials = np.array([math.factorial(c) for c in range(k + 1)], dtype=float)
    return occ, np.abs(np.concatenate(perms)) ** 2 / np.prod(factorials[occ], axis=1)


def _collect(occ: np.ndarray, probs: np.ndarray):
    """Sum the probabilities of equal occupation vectors; rows in lexicographic order."""
    occ, inv = np.unique(occ, axis=0, return_inverse=True)
    return occ, np.bincount(inv.ravel(), weights=probs)


def mix_laws(parts, law_of, m: int, bound: Sequence[int] | None = None):
    """Σ_Λ w_Λ · (the convolution of Λ's cell laws) over occupation vectors, as
    ``cell_law``'s arrays in ``outcome_patterns`` order. ``parts`` pairs each
    w_Λ with Λ's cells, and ``law_of(cell)`` gives a cell's law in the same
    form; it runs once per distinct cell. Partial sums above ``bound`` are
    dropped, so the law is exact at every vector up to ``bound``."""
    laws, occs, probs = {}, [np.zeros((0, m), dtype=np.int64)], [np.zeros(0)]
    for w, cells in parts:
        occ, p = np.zeros((1, m), dtype=np.int64), np.ones(1)
        for cell in cells:
            if cell not in laws:
                laws[cell] = law_of(cell)
            occ = (occ[:, None] + laws[cell][0]).reshape(-1, m)
            p = np.outer(p, laws[cell][1]).ravel()
            keep = slice(None) if bound is None else (occ <= bound).all(axis=1)
            occ, p = _collect(occ[keep], p[keep])
        occs.append(occ)
        probs.append(w * p)
    return _collect(np.concatenate(occs), np.concatenate(probs))


def partition_law(U: np.ndarray, mixture, input_modes=None, outcome=None):
    """The photocount law of a ``SetPartition``'s partition state, or of a
    ``PartitionDistribution``'s mixture of them, over every outcome (as
    ``mix_laws``). Bounded by ``outcome``, the only n-photon vector left is
    the outcome itself, so the law's sum is its probability."""
    U = np.asarray(U, dtype=complex)
    weights = {mixture: 1.0} if isinstance(mixture, SetPartition) else mixture.weights
    parts = [(w, p.cells) for p, w in weights.items() if w != 0.0]
    bound = None if outcome is None else _check_outcome(outcome, mixture.n, U.shape[1])
    inputs = check_inputs(mixture.n, U.shape[1], input_modes)
    return mix_laws(parts, lambda cell: cell_law(U, [inputs[i] for i in cell], bound),
                    U.shape[1], bound)


def ideal_outcome_distribution(
    U: np.ndarray, input_modes: Sequence[int]
) -> dict[Outcome, float]:
    """Exact ideal boson-sampling law for photons fed in ``input_modes``."""
    U = np.asarray(U, dtype=complex)
    occ, probs = cell_law(U, check_inputs(len(input_modes), U.shape[1], input_modes))
    return dict(zip(map(tuple, occ.tolist()), probs.tolist()))


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
    return float(partition_law(U, partition, input_modes, outcome)[1].sum())


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
    inputs = check_inputs(n, m, input_modes)

    mode_slots = [j for j, c in enumerate(s) for _ in range(c)]
    assignments = np.array(sorted(set(itertools.permutations(mode_slots))))  # (F, n)
    holders = np.argsort(assignments, axis=1, kind="stable")
    counts = [c for c in s if c > 0]
    blocks = list(zip(itertools.accumulate([0] + counts[:-1]), counts))
    kernel = _oracle_kernel(weights, grams, holders, blocks)

    # amps[l, f] = prod_i U[l, inputs[i], f(i)]
    amps = np.prod(stack[:, np.asarray(inputs), assignments], axis=-1)
    totals = real_part(np.einsum("lf,fg,lg->l", amps, kernel, amps.conj()), "oracle probability")
    return float(totals[0]) if single else totals


def mixture_probability(
    U: np.ndarray,
    dist,
    outcome: Sequence[int],
    input_modes: Sequence[int] | None = None,
) -> float:
    """Σ_Λ p_Λ · partition_probability: the partition-representation law."""
    return float(partition_law(U, dist, input_modes, outcome)[1].sum())

"""Seeded inputs, op lists and output checks for the benchmark workloads.

A workload is a round of CLI ops that the benchmark repeats with fresh
inputs until its time is up. ``Workload.round(seed, r, directory)`` writes
the inputs of round ``r`` as state, spectrum or unitary JSON and returns the
ops; the same (seed, r) always gives the same files. Each op carries a check
that reads its ``--out`` file after timing and raises ``CheckFailed`` when
the output disagrees with a reference computed independently here.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

TOL = 1e-9

# Sizes. Each is chosen so that a run holds enough ops for a tail latency;
# the note beside this file gives the reasons.
ANALYSE_INCOHERENT_N = 6
ANALYSE_COHERENT_N = 7
ANALYSE_COHERENT_DIM = 3
# With two incoherent states per round, three coherent ones put as many ops
# below the mitigate/classify n=6 cluster as above it, so the median op
# latency falls in the middle of one cluster rather than between two.
ANALYSE_COHERENT_STATES = 3
PHOTOCOUNT_N, PHOTOCOUNT_M = 6, 12
# The ops of one round of the other workloads spread over about a twofold
# range of sizes. Op latencies then form no narrow cluster: the median of a
# narrow cluster jumps when the host switches between a fast and a slow
# speed, while that of a spread one moves in step with the mean.
# Trials of the experiments that follow each n=6 probability; the CLI needs
# at least 1000. The experiments give the engine most of the op time.
HAAR_N, HAAR_M, HAAR_TRIALS = 3, 16, (1000, 1200, 1450, 1700, 2000)
# None is the CLI's default scan length, 4k + 1 points for k cycles.
TOMOGRAPHY_N, TOMOGRAPHY_DIM, TOMOGRAPHY_SCAN_LENGTHS = 3, 3, (None, 11, 13, 16, 19)
TABLES_N, TABLES_MODES, TABLES_COUNT = 4, (10, 11, 12, 13, 14), 2000
DRAWS_N, DRAWS_M, DRAWS_COUNTS = 3, 5, (3000, 3700, 4500, 5500, 6500)

# Probability that a correct sampler fails its sample check.
SAMPLE_FALSE_ALARM = 1e-9


class CheckFailed(AssertionError):
    """An op's output disagrees with its reference."""


@dataclass
class Op:
    kind: str  # subcommand and size; the warm-up runs one op of each kind
    argv: list[str]
    out: str
    check: Callable[[str], None] = field(repr=False)


def _expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _read_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _write_json(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc))
    return str(path)


# ---------------------------------------------------------------------------
# independent references


def _pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def random_kets(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    kets = rng.standard_normal((n, dim)) + 1j * rng.standard_normal((n, dim))
    return kets / np.linalg.norm(kets, axis=1, keepdims=True)


def obb_kets(n: int, x: float) -> np.ndarray:
    """One shared mode with weight x, one private mode per photon."""
    kets = np.zeros((n, n + 1), dtype=complex)
    kets[:, 0] = math.sqrt(x)
    kets[np.arange(n), np.arange(n) + 1] = math.sqrt(1.0 - x)
    return kets


def photons_doc(kets: np.ndarray) -> list[dict]:
    return [{"ket": [_pair(z) for z in ket]} for ket in kets]


def haar(rng: np.random.Generator, m: int) -> np.ndarray:
    """A Haar unitary drawn here, so that no change to partmix changes the inputs."""
    z = (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def permanents(mats: np.ndarray) -> np.ndarray:
    """Permanents of a stack of k x k matrices, by Ryser's formula."""
    k = mats.shape[-1]
    masks = (np.arange(1 << k)[:, None] >> np.arange(k)) & 1
    signs = (-1.0) ** (k - masks.sum(axis=1))
    return np.sum(signs * np.prod(mats @ masks.T, axis=-2), axis=-1)


def cycle_blocks(images: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The orbits of a permutation as sorted cells, sorted by first element."""
    seen, cells = set(), []
    for start in range(len(images)):
        if start in seen:
            continue
        cell, j = [], start
        while j not in seen:
            seen.add(j)
            cell.append(j)
            j = images[j]
        cells.append(tuple(sorted(cell)))
    return tuple(sorted(cells))


@functools.cache
def cycle_classes(n: int) -> dict[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """The cycle blocks of every permutation of 0..n-1."""
    return {sigma: cycle_blocks(sigma) for sigma in itertools.permutations(range(n))}


def set_partitions(n: int) -> list[tuple[tuple[int, ...], ...]]:
    """Every partition of 0..n-1 as sorted cells."""
    out = []

    def grow(i: int, cells: list[list[int]]):
        if i == n:
            out.append(tuple(tuple(c) for c in cells))
            return
        for c in cells:
            c.append(i)
            grow(i + 1, cells)
            c.pop()
        cells.append([i])
        grow(i + 1, cells)
        cells.pop()

    grow(0, [])
    return out


@functools.cache
def coarser_pairs(n: int) -> dict:
    """For each partition, the partitions coarser than or equal to it."""
    lattice = set_partitions(n)
    homes = {a: {i: k for k, cell in enumerate(a) for i in cell} for a in lattice}
    return {
        b: [a for a in lattice if all(len({homes[a][i] for i in cell}) == 1 for cell in b)]
        for b in lattice
    }


def _canon(cells) -> tuple[tuple[int, ...], ...]:
    return tuple(sorted(tuple(sorted(c)) for c in cells))


def obb_weights(n: int, x: float) -> dict:
    """Closed-form OBB partition weights, through the program's own formula."""
    from partmix.states import obb_partition_distribution

    dist = obb_partition_distribution(n, x)
    return {_canon(p.cells): w for p, w in dist.weights.items()}


def obb_class_value(cells, x: float) -> float:
    """M of an OBB state on any permutation with these cycles."""
    return x ** sum(len(c) for c in cells if len(c) > 1)


def gi_reference(components) -> tuple[complex, float]:
    """gi_part and gi_sym of a weighted list of pure products (kets)."""
    part, sym = 0.0 + 0.0j, 0.0
    for w, kets in components:
        n = len(kets)
        gram = kets.conj() @ kets.T
        sym += w * permanents(gram).real / math.factorial(n)
        total = 0.0 + 0.0j
        for rest in itertools.permutations(range(1, n)):
            cycle = (0,) + rest
            prod = 1.0 + 0.0j
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                prod *= gram[a, b]
            total += prod
        part += w * total / math.factorial(n - 1)
    return part, sym


def obb_probability(U: np.ndarray, x: float, n: int, outs: list[int]) -> float:
    """No-collision probability of the OBB state by the partition law.

    Sums over the photon set S that lands in the shared mode and the output
    set A it occupies: |Perm U[S, A]|^2 Perm |U|^2[rest, outs - A], weighted
    x^|S| (1-x)^(n-|S|). Sub-permanents come from one Laplace recursion.
    """
    Q = np.abs(U) ** 2

    def sub_permanents(M):
        memo = {(0, 0): 1.0 + 0.0j}

        def perm(rows: int, cols: int) -> complex:
            if (rows, cols) not in memo:
                r = (rows & -rows).bit_length() - 1
                total = 0.0 + 0.0j
                for k, c in enumerate(outs):
                    if cols >> k & 1:
                        total += M[r, c] * perm(rows & ~(1 << r), cols & ~(1 << k))
                memo[rows, cols] = total
            return memo[rows, cols]

        return perm

    amp, dist = sub_permanents(U), sub_permanents(Q)
    full_rows, full_cols = (1 << n) - 1, (1 << len(outs)) - 1
    p = 0.0
    for rows in range(1 << n):
        k = bin(rows).count("1")
        weight = x**k * (1.0 - x) ** (n - k)
        for cols in range(1 << len(outs)):
            if bin(cols).count("1") == k:
                p += weight * abs(amp(rows, cols)) ** 2 * dist(
                    full_rows & ~rows, full_cols & ~cols
                ).real
    return p


def _keys(occupations: np.ndarray, base: int) -> np.ndarray:
    return occupations @ (base ** np.arange(occupations.shape[-1], dtype=np.int64))


def _cell_law(U: np.ndarray, rows: tuple[int, ...], base: int):
    """Exact ideal law of one cell of photons: outcome keys and probabilities."""
    k, m = len(rows), U.shape[1]
    cols = np.array(list(itertools.combinations_with_replacement(range(m), k)))
    perms = permanents(U[list(rows)][:, cols].transpose(1, 0, 2))  # one per pattern
    occupation = np.zeros((len(cols), m), dtype=np.int64)
    np.add.at(occupation, (np.arange(len(cols))[:, None], cols), 1)
    factorials = np.array([math.factorial(v) for v in range(k + 1)], dtype=float)
    norm = np.prod(factorials[occupation], axis=1)
    return _keys(occupation, base), np.abs(perms) ** 2 / norm


def _convolve(a, b):
    keys = (a[0][:, None] + b[0][None, :]).ravel()
    probs = (a[1][:, None] * b[1][None, :]).ravel()
    uniq, inv = np.unique(keys, return_inverse=True)
    return uniq, np.bincount(inv, weights=probs)


def sample_law(U: np.ndarray, weights: dict, n: int):
    """Exact output law of partition sampling, as sorted keys and probabilities."""
    base = n + 1
    cells: dict[tuple[int, ...], tuple] = {}
    parts_keys, parts_probs = [], []
    for partition, w in weights.items():
        if w <= 0.0:
            continue
        law = (np.zeros(1, dtype=np.int64), np.ones(1))
        for cell in partition:
            if cell not in cells:
                cells[cell] = _cell_law(U, cell, base)
            law = _convolve(law, cells[cell])
        parts_keys.append(law[0])
        parts_probs.append(w * law[1])
    uniq, inv = np.unique(np.concatenate(parts_keys), return_inverse=True)
    probs = np.bincount(inv, weights=np.concatenate(parts_probs))
    return uniq, probs / probs.sum()


def _moment_features(occupations: np.ndarray) -> np.ndarray:
    """Per outcome: every mode occupation n_j and every product n_j n_k, j <= k."""
    j, k = np.triu_indices(occupations.shape[1])
    return np.concatenate(
        [occupations, occupations[:, j] * occupations[:, k]], axis=1
    ).astype(float)


def total_variation_test(samples: np.ndarray, law, n: int, delta: float) -> None:
    """Total-variation distance of the samples to the exact law.

    E[TV] <= 1/2 sum_o sqrt(p_o (1 - p_o) / N), and TV moves by at most 1/N
    per sample, so TV exceeds that plus sqrt(ln(1/delta) / 2N) with
    probability below delta (McDiarmid). The test has power only when the
    draws far outnumber the outcomes.
    """
    keys, probs = law
    count = len(samples)
    seen, counts = np.unique(_keys(samples, n + 1), return_counts=True)
    idx = np.minimum(np.searchsorted(keys, seen), len(keys) - 1)
    _expect(bool(np.all(keys[idx] == seen)), "a sample has zero exact probability")
    tv = float(np.sum(np.maximum(counts / count - probs[idx], 0.0)))
    bound = 0.5 * float(np.sum(np.sqrt(probs * (1 - probs) / count))) + math.sqrt(
        math.log(1 / delta) / (2 * count)
    )
    _expect(tv <= bound, f"total variation {tv:.4f} exceeds {bound:.4f}")


def moment_test(samples: np.ndarray, law, n: int, delta: float) -> None:
    """Sample means of every n_j and n_j n_k against their exact values.

    Bernstein's inequality with the exact variance and range of each feature,
    and a union bound over the features, gives a deviation limit that a
    correct sampler exceeds with probability below delta. The test keeps its
    power when the outcomes outnumber the draws.
    """
    keys, probs = law
    count, m = samples.shape
    exact = _moment_features((keys[:, None] // (n + 1) ** np.arange(m)) % (n + 1))
    mean = probs @ exact
    var = probs @ (exact - mean) ** 2
    spread = np.max(np.abs(exact - mean), axis=0)
    log_term = math.log(2 * exact.shape[1] / delta)
    a = spread * log_term / (3 * count)
    limit = a + np.sqrt(a * a + 2 * var * log_term / count)
    ratio = np.abs(_moment_features(samples).mean(axis=0) - mean) / limit
    worst = int(np.argmax(ratio))
    _expect(ratio[worst] <= 1.0, f"moment {worst} is {ratio[worst]:.2f} times its deviation limit")


def check_samples(path: str, law, count: int, n: int) -> None:
    """Row and photon counts, then both tests, sharing SAMPLE_FALSE_ALARM."""
    with open(path) as fh:
        rows = [json.loads(line) for line in fh if line.strip()]
    _expect(len(rows) == count, f"{len(rows)} samples, expected {count}")
    samples = np.array(rows, dtype=np.int64)
    _expect(bool(np.all(samples.sum(axis=1) == n)), "a sample lost or gained photons")
    total_variation_test(samples, law, n, SAMPLE_FALSE_ALARM / 2)
    moment_test(samples, law, n, SAMPLE_FALSE_ALARM / 2)


# ---------------------------------------------------------------------------
# output checks


def _spectrum_values(doc: dict, n: int) -> dict[tuple[int, ...], complex]:
    values = {tuple(v["sigma"]): complex(v["re"], v["im"]) for v in doc["values"]}
    _expect(doc["n"] == n and len(values) == math.factorial(n), "spectrum is not dense")
    return values


def check_orbit_invariant(n: int):
    def check(path: str) -> None:
        blocks, classes = cycle_classes(n), {}
        for sigma, v in _spectrum_values(_read_json(path), n).items():
            classes.setdefault(blocks[sigma], []).append(v)
        worst = max(max(abs(v - vals[0]) for v in vals) for vals in classes.values())
        _expect(worst <= TOL, f"output is not orbit invariant: deviation {worst:.2e}")

    return check


def check_classify(n: int, weights: dict | None):
    def check(path: str) -> None:
        doc = _read_json(path)
        if weights is None:
            _expect(doc["member"] is False, "coherent state classified as a member")
            return
        _expect(doc["member"] is True, "incoherent state classified as a non-member")
        got = {_canon(rec["partition"]): rec["weight"] for rec in doc["distribution"]}
        _expect(set(got) == set(weights), "weights do not cover the lattice")
        worst = max(abs(got[p] - weights[p]) for p in weights)
        _expect(worst <= TOL, f"weights differ from the closed form by {worst:.2e}")

    return check


def check_gi(components):
    def check(path: str) -> None:
        part, sym = gi_reference(components)
        doc = _read_json(path)
        got = complex(doc["gi_part"]["re"], doc["gi_part"]["im"])
        _expect(abs(got - part) <= TOL, f"gi_part {got} differs from {part}")
        _expect(abs(doc["gi_sym"] - sym) <= TOL, f"gi_sym {doc['gi_sym']} differs from {sym}")

    return check


def check_mitigate(n: int, class_value: Callable):
    """The weights solve 1 = sum over coarser-or-equal Xi of M_Lambda w_Xi."""

    def check(path: str) -> None:
        doc = _read_json(path)
        w = {_canon(rec["partition"]): rec["w"] for rec in doc["weights"]}
        coarser = coarser_pairs(n)
        _expect(set(w) == set(coarser), "weights do not cover the lattice")
        for row, cols in coarser.items():
            m_row = class_value(row)
            terms = [m_row * w[col] for col in cols]
            residual = abs(sum(terms) - 1.0)
            _expect(
                residual <= TOL * (1.0 + sum(abs(t) for t in terms)),
                f"mitigation row {row} misses 1 by {residual:.2e}",
            )

    return check


def check_probability(U: np.ndarray, x: float, n: int, outs: list[int]):
    def check(path: str) -> None:
        reference = obb_probability(U, x, n, outs)
        p = _read_json(path)["probability"]
        _expect(
            abs(p - reference) <= TOL * abs(reference) + 1e-15,
            f"probability {p!r} differs from the partition law {reference!r}",
        )

    return check


def check_haar(path: str) -> None:
    from partmix.sampling import HaarExperimentReport

    doc = _read_json(path)
    report = HaarExperimentReport(**{k: doc[k] for k in HaarExperimentReport.__dataclass_fields__})
    _expect(report.inequality_holds(), "twirling did not reduce the mean squared deviation")


def check_tomography(state_doc: dict, n: int):
    def check(path: str) -> None:
        from partmix.serialize import state_from_json
        from partmix.spectrum import spectrum_of

        spec = spectrum_of(state_from_json(state_doc))
        expected = {s.images: v for s, v in spec.values.items()}
        got = _spectrum_values(_read_json(path), n)
        worst = max(abs(got[s] - v) for s, v in expected.items())
        _expect(worst <= TOL, f"tomography differs from spectrum_of by {worst:.2e}")

    return check


# ---------------------------------------------------------------------------
# workloads


class Workload:
    name = ""
    dominant: tuple[str, ...] = ()

    def round(self, seed: int, r: int, directory: Path) -> list[Op]:
        rng = np.random.default_rng([seed, r + 1])
        return self.make(rng, directory / f"r{r + 1}")

    def make(self, rng: np.random.Generator, stem: Path) -> list[Op]:
        raise NotImplementedError


def _op(kind: str, stem: Path, idx: int, argv: list[str], check) -> Op:
    out = f"{stem}_{idx}.out"
    return Op(kind=kind, argv=argv + ["--out", out], out=out, check=check)


class Analyse(Workload):
    name = "analyse"
    dominant = (
        "partitions.mobius_invert",
        "reconstruct.classify",
        "reconstruct.mitigation_weights",
        "spectrum.spectrum_of",
        "spectrum.is_orbit_invariant",
        "spectrum.class_reduce",
        "spectrum.twirl",
        "spectrum.strict_projection",
        "spectrum.gi_part",
        "spectrum.gi_sym",
    )

    def make(self, rng, stem):
        n, nc = ANALYSE_INCOHERENT_N, ANALYSE_COHERENT_N
        x = float(rng.uniform(0.2, 0.8))
        x1, x2 = (float(v) for v in rng.uniform(0.2, 0.8, size=2))
        w1 = float(rng.uniform(0.2, 0.8))
        w_a, w_b = obb_weights(n, x1), obb_weights(n, x2)
        states = [
            (
                f"obb{n}",
                {"n": n, "photons": photons_doc(obb_kets(n, x))},
                [(1.0, obb_kets(n, x))],
                obb_weights(n, x),
                lambda cells, x=x: obb_class_value(cells, x),
            ),
            (
                f"obb{n}",
                {
                    "n": n,
                    "mixture": [
                        {"weight": w1, "photons": photons_doc(obb_kets(n, x1))},
                        {"weight": 1.0 - w1, "photons": photons_doc(obb_kets(n, x2))},
                    ],
                },
                [(w1, obb_kets(n, x1)), (1.0 - w1, obb_kets(n, x2))],
                {p: w1 * w_a[p] + (1.0 - w1) * w_b[p] for p in w_a},
                lambda cells: w1 * obb_class_value(cells, x1)
                + (1.0 - w1) * obb_class_value(cells, x2),
            ),
        ]
        for _ in range(ANALYSE_COHERENT_STATES):
            kets = random_kets(rng, nc, ANALYSE_COHERENT_DIM)
            states.append((f"pure{nc}", {"n": nc, "photons": photons_doc(kets)}, [(1.0, kets)],
                           None, None))
        ops = []
        for s, (label, doc, components, weights, class_value) in enumerate(states):
            size = len(components[0][1])
            path = _write_json(stem.with_name(f"{stem.name}_state{s}.json"), doc)
            src = ["--state", path]
            jobs = [
                ("classify", check_classify(size, weights)),
                ("twirl", check_orbit_invariant(size)),
                ("project", check_orbit_invariant(size)),
                ("gi", check_gi(components)),
            ]
            if weights is not None:
                jobs.append(("mitigate", check_mitigate(size, class_value)))
            for cmd, check in jobs:
                ops.append(_op(f"{cmd}/{label}", stem, len(ops), [cmd] + src, check))
        return ops


class Photocount(Workload):
    name = "photocount"
    dominant = ("interference.probability_from_spectrum",)

    def make(self, rng, stem):
        n, m = PHOTOCOUNT_N, PHOTOCOUNT_M
        x = float(rng.uniform(0.2, 0.8))
        U = haar(rng, m)
        outs = sorted(int(v) for v in rng.choice(m, size=n, replace=False))
        values = [
            {"sigma": list(s), "re": x ** sum(i != v for i, v in enumerate(s)), "im": 0.0}
            for s in itertools.permutations(range(n))
        ]
        spec = _write_json(stem.with_name(f"{stem.name}_spec.json"), {"n": n, "values": values})
        uni = _write_json(stem.with_name(f"{stem.name}_u.json"),
                          {"matrix": [[_pair(z) for z in row] for row in U]})
        outcome = ",".join("1" if k in outs else "0" for k in range(m))
        argv = ["probability", "--spectrum", spec, "--unitary", uni, "--outcome", outcome]
        ops = [_op(f"probability/n{n}", stem, 0, argv, check_probability(U, x, n, outs))]
        for trials in HAAR_TRIALS:
            state = _write_json(
                stem.with_name(f"{stem.name}_haar{len(ops)}.json"),
                {"n": HAAR_N, "photons": photons_doc(random_kets(rng, HAAR_N, 2))},
            )
            argv = ["haar-experiment", "--state", state, "--modes", str(HAAR_M),
                    "--trials", str(trials), "--seed", str(int(rng.integers(2**31)))]
            ops.append(_op(f"haar-experiment/n{HAAR_N}", stem, len(ops), argv, check_haar))
        return ops


class Tomography(Workload):
    name = "tomography"
    dominant = ("interference.fock_oracle_probability",)

    def make(self, rng, stem):
        n = TOMOGRAPHY_N
        ops = []
        for length in TOMOGRAPHY_SCAN_LENGTHS:
            doc = {"n": n, "photons": photons_doc(random_kets(rng, n, TOMOGRAPHY_DIM))}
            path = _write_json(stem.with_name(f"{stem.name}_state{len(ops)}.json"), doc)
            argv = ["tomography", "--state", path]
            if length is not None:
                argv += ["--scan-length", str(length)]
            ops.append(_op(f"tomography/n{n}", stem, len(ops), argv, check_tomography(doc, n)))
        return ops


class Sample(Workload):
    """OBB partition sampling, each op on a fresh Haar unitary."""

    n = 0
    sizes: tuple[tuple[int, int], ...] = ()  # (modes, draws) of each op of a round

    def make(self, rng, stem):
        from partmix.sampling import haar_unitary

        ops = []
        for m, count in self.sizes:
            x = float(rng.uniform(0.3, 0.7))
            seed = int(rng.integers(2**31))
            argv = ["sample", "--family", "obb", "--n", str(self.n), "--x", repr(x),
                    "--haar", str(m), "--count", str(count), "--seed", str(seed)]

            def check(path: str, m=m, count=count, x=x, seed=seed) -> None:
                U = haar_unitary(m, np.random.default_rng(seed))  # as the CLI draws it
                check_samples(path, self.law(U, x), count, self.n)

            ops.append(_op(f"sample/n{self.n}", stem, len(ops), argv, check))
        return ops


class SampleTables(Sample):
    name = "sample-tables"
    dominant = ("interference.ideal_outcome_distribution",)
    n, sizes = TABLES_N, tuple((m, TABLES_COUNT) for m in TABLES_MODES)

    def law(self, U, x):
        return sample_law(U, obb_weights(self.n, x), self.n)


class SampleDraws(Sample):
    name = "sample-draws"
    dominant = ("sampling.partition_sample", "cli.main")
    n, sizes = DRAWS_N, tuple((DRAWS_M, count) for count in DRAWS_COUNTS)

    def law(self, U, x):
        from partmix.sampling import SamplerConfig, sampler_exact_distribution
        from partmix.states import obb_partition_distribution

        config = SamplerConfig(U, obb_partition_distribution(self.n, x), seed=0, count=1)
        exact = sampler_exact_distribution(config)
        outcomes = np.array(list(exact), dtype=np.int64)
        keys = _keys(outcomes, self.n + 1)
        order = np.argsort(keys)
        return keys[order], np.array(list(exact.values()))[order]


WORKLOADS = {w.name: w for w in (Analyse(), Photocount(), Tomography(), SampleTables(), SampleDraws())}

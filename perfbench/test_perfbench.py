"""Self-tests of the benchmark harness.

Run with: python3 -m pytest -q perfbench
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import partmix.cli as cli  # noqa: E402
from partmix import spectrum as spectrum_mod  # noqa: E402
from partmix.interference import mixture_probability  # noqa: E402
from partmix.sampling import (  # noqa: E402
    SamplerConfig,
    partition_sample,
    sampler_exact_distribution,
)
from partmix.states import obb_partition_distribution  # noqa: E402

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SELF_TIME_TOLERANCE_S = 5e-4  # per op, or 1% of its wall time if larger


def _snapshot(directory: Path, ops) -> list:
    files = sorted((p.name, p.read_bytes()) for p in directory.iterdir())
    argvs = [[a.replace(str(directory), "<dir>") for a in op.argv] for op in ops]
    return [files, argvs, [op.kind for op in ops]]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_are_deterministic_for_a_seed(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    snaps = []
    for sub in ("a", "b"):
        d = tmp_path / sub
        d.mkdir()
        snaps.append(_snapshot(d, workload.round(11, 0, d) + workload.round(11, 1, d)))
    assert snaps[0] == snaps[1]
    other = tmp_path / "c"
    other.mkdir()
    assert _snapshot(other, workload.round(12, 0, other) + workload.round(12, 1, other)) != snaps[0]


def test_missing_layer_fails_loudly(monkeypatch):
    monkeypatch.setattr(layers, "SPANS", layers.SPANS + ("spectrum.no_such_function",))
    with pytest.raises(layers.LayerMissing, match="spectrum.no_such_function"):
        layers.Tracer().install()
    assert layers.wrappers_left() == []


def test_renamed_layer_fails_loudly(monkeypatch):
    monkeypatch.delattr(spectrum_mod, "twirl")
    with pytest.raises(layers.LayerMissing, match="spectrum.twirl"):
        layers.Tracer().install()
    assert layers.wrappers_left() == []


def test_install_reaches_every_binding_and_uninstall_restores_them():
    originals = layers.resolve()
    tracer = layers.Tracer()
    patches = tracer.install()
    try:
        assert spectrum_mod.spectrum_of is not originals["spectrum.spectrum_of"]
        assert cli.spectrum_of is not originals["spectrum.spectrum_of"]  # from-import binding
        assert {f"{m.__name__}.{a}" for m, a, _ in patches} == set(layers.wrappers_left())
    finally:
        layers.Tracer.uninstall(patches)
    assert layers.wrappers_left() == []
    assert cli.spectrum_of is originals["spectrum.spectrum_of"]


@pytest.fixture(scope="module")
def traced_phase(tmp_path_factory):
    work = tmp_path_factory.mktemp("traced")
    tracer = layers.Tracer()
    records, elapsed = run.run_phase(cli, workloads.WORKLOADS["tomography"], 3, 0.0, work, tracer)
    return records, elapsed, tracer


def test_wrappers_are_gone_after_a_traced_run(traced_phase):
    records, _, tracer = traced_phase
    assert any(rec.traced for rec in records) and tracer.calls["cli.main"] > 0
    assert layers.wrappers_left() == []
    for name, fn in layers.resolve().items():
        assert not hasattr(fn, "__wrapped__"), name


def test_self_times_sum_to_op_wall_time(traced_phase):
    records, _, tracer = traced_phase
    traced = [rec for rec in records if rec.traced]
    assert traced
    for rec in traced:
        assert rec.error is None and run.check_op(rec.op) is None
        total = sum(span[6] for span in tracer.spans if span[2] == rec.op_id) / 1e9
        assert abs(total - rec.latency) <= max(SELF_TIME_TOLERANCE_S, 0.01 * rec.latency)
    assert tracer.calls["interference.fock_oracle_probability"] > 0


def test_tail_latency_keeps_ten_ops_beyond():
    lat = [float(i) for i in range(1, 41)]
    value, pct, beyond = run.tail_latency(lat)
    assert (value, beyond) == (30.0, 10) and math.isclose(pct, 75.0)
    assert run.tail_latency([1.0, 2.0, 3.0])[2] == 0


def test_photocount_reference_matches_partition_law():
    rng = np.random.default_rng(4)
    n, m, x = 4, 7, 0.35
    U = workloads.haar(rng, m)
    outs = [0, 2, 3, 6]
    outcome = tuple(1 if k in outs else 0 for k in range(m))
    expected = mixture_probability(U, obb_partition_distribution(n, x), outcome)
    assert math.isclose(workloads.obb_probability(U, x, n, outs), expected, rel_tol=1e-12)


def test_sample_law_matches_sampler_exact_distribution(tmp_path):
    rng = np.random.default_rng(5)
    n, m, x = 3, 4, 0.6
    U = workloads.haar(rng, m)
    dist = obb_partition_distribution(n, x)
    exact = sampler_exact_distribution(SamplerConfig(U, dist, seed=0, count=1))
    keys, probs = workloads.sample_law(U, workloads.obb_weights(n, x), n)
    ours = dict(zip(keys.tolist(), probs.tolist()))
    for outcome, p in exact.items():
        key = sum(v * (n + 1) ** j for j, v in enumerate(outcome))
        assert math.isclose(ours.pop(key), p, rel_tol=1e-9, abs_tol=1e-15)
    assert all(p < 1e-15 for p in ours.values())


@pytest.mark.parametrize(
    "n, m, count",
    [
        # the fewest draws of sample-draws, and the most modes of sample-tables
        (workloads.DRAWS_N, workloads.DRAWS_M, min(workloads.DRAWS_COUNTS)),
        (workloads.TABLES_N, max(workloads.TABLES_MODES), workloads.TABLES_COUNT),
    ],
    ids=["sample-draws", "sample-tables"],
)
def test_sample_check_rejects_samples_from_another_unitary(n, m, count, tmp_path):
    rng = np.random.default_rng(6)
    x = 0.5
    U, V = workloads.haar(rng, m), workloads.haar(rng, m)
    samples = partition_sample(SamplerConfig(V, obb_partition_distribution(n, x), 1, count))
    path = tmp_path / "samples.jsonl"
    path.write_text("\n".join(str(list(s)) for s in samples) + "\n")
    right = workloads.sample_law(V, workloads.obb_weights(n, x), n)
    wrong = workloads.sample_law(U, workloads.obb_weights(n, x), n)
    workloads.check_samples(str(path), right, count, n)
    with pytest.raises(workloads.CheckFailed):
        workloads.check_samples(str(path), wrong, count, n)
    # The moment test rejects on its own, at the false-alarm level check_samples gives it.
    delta = workloads.SAMPLE_FALSE_ALARM / 2
    with pytest.raises(workloads.CheckFailed, match="moment"):
        workloads.moment_test(np.array(samples), wrong, n, delta)

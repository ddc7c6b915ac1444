"""partmix benchmark: CLI workloads end to end, or traced per layer.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client drives ``partmix.cli.main(argv)`` in this process as a closed
loop: each op starts when the previous one has finished. Rounds of ops with
fresh seeded inputs run until ``--seconds`` of op time have passed. Every
op's output is checked after the timed phase. The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``. Details and spans go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from layers import COUNTS, EXTRAS, SPANS, Tracer, wrappers_left

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench_work"
OUT_DIR = ROOT / ".perfbench_out"

SETUP_RUNS = 3  # fresh processes per run; setup_s is their median
TAIL_BEYOND = 10  # ops that must lie above the tail percentile
BLAS_THREADS = "1"  # matrices here are at most 16 x 16


@dataclass
class Record:
    op: object
    latency: float
    traced: bool
    op_id: int
    error: str | None = None  # raised, nonzero exit or failed check


def tail_latency(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with TAIL_BEYOND ops above it.

    Returns (latency, percentile, ops beyond). With too few ops it falls
    back to the maximum and says so through ops beyond = 0.
    """
    ordered = sorted(latencies)
    beyond = TAIL_BEYOND if len(ordered) > TAIL_BEYOND else 0
    idx = len(ordered) - 1 - beyond
    return ordered[idx], 100.0 * (idx + 1) / len(ordered), beyond


def _blas_threads() -> int | None:
    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _os_threads() -> int | None:
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def _git(*args: str) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True,
                          timeout=30, check=False)
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    status = _git("status", "--porcelain")
    return {
        "git_sha": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(),
        "os_threads": _os_threads(),
        "seed": seed,
    }


def probe_setup(ops, work: Path) -> float:
    """Set-up seconds of one fresh process: import plus one op of each kind."""
    ops_file = work / "setup_ops.json"
    ops_file.write_text(json.dumps([op.argv for op in ops]))
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(SRC), str(ops_file)],
        capture_output=True, text=True, timeout=150, check=False,
    )
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def call_op(cli, op, tracer) -> str | None:
    """Run one op; return why it failed, or None."""
    try:
        rc = tracer.op(cli.main, op.argv) if tracer is not None else cli.main(op.argv)
    except Exception:  # the loop must go on; the op counts as failed
        return traceback.format_exc(limit=3)
    return None if rc == 0 else f"exit code {rc}"


def check_op(op) -> str | None:
    try:
        op.check(op.out)
    except Exception as exc:  # a malformed output fails its check too
        return f"{type(exc).__name__}: {exc}"
    return None


def run_phase(cli, workload, seed: int, seconds: float, work: Path, tracer):
    """Closed loop over rounds until the op time reaches ``seconds``.

    Inputs are written and the heap is collected between ops, outside the
    timed region. Without a tracer, the phase may end inside a round. With
    one, rounds alternate between untraced and traced, and the phase ends
    after an equal number of each. Returns the records and the op time spent
    on each side.
    """
    records: list[Record] = []
    elapsed = {False: 0.0, True: 0.0}

    def done() -> bool:
        return sum(elapsed.values()) >= seconds and len(records) > TAIL_BEYOND

    r = 0
    while True:
        traced = tracer is not None and r % 2 == 1
        ops = workload.round(seed, r, work)
        patches = tracer.install() if traced else None
        for op in ops:
            gc.collect()  # each op starts on a clean heap, as a fresh CLI process would
            t0 = perf_counter()
            error = call_op(cli, op, tracer if traced else None)
            latency = perf_counter() - t0
            elapsed[traced] += latency
            records.append(Record(op, latency, traced, tracer.op_id if traced else -1, error))
            if tracer is None and done():
                break
        if traced:
            Tracer.uninstall(patches)
        r += 1
        if done() and (tracer is None or r % 2 == 0):
            return records, elapsed


def end_to_end(records, elapsed, setup, rss_mb):
    latencies = [rec.latency for rec in records]
    ok = sum(rec.error is None for rec in records)
    tail, pct, beyond = tail_latency(latencies)
    metrics = {
        "ops_per_s": (ok / elapsed[False], "1/s"),
        "op_s_p50": (statistics.median(latencies), "s"),
        "op_s_tail": (tail, "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    notes = {
        "ops_per_s": f"{ok} verified ops in {elapsed[False]:.3f} s, closed loop, 1 client",
        "op_s_p50": f"median of {len(latencies)} ops",
        "op_s_tail": f"p{pct:.1f}, {beyond} ops beyond, {len(latencies)} ops",
        "setup_s": f"median of {len(setup)} fresh processes: "
        + ", ".join(f"{s:.4f}" for s in setup),
        "peak_rss_mb": "peak resident set of this process at the end of the timed phase",
    }
    return metrics, notes


def per_layer(records, elapsed, tracer, workload):
    traced = [rec for rec in records if rec.traced]
    n = len(traced)
    metrics = {}
    for name in SPANS:
        metrics[f"{name}.self_s"] = (tracer.self_ns[name] / 1e9 / n, "s/op")
        metrics[f"{name}.calls"] = (tracer.calls[name] / n, "count/op")
        metrics[f"{name}.errors"] = (tracer.errors[name], "count")
    for name in COUNTS:
        metrics[f"{name}.calls"] = (tracer.calls[name] / n, "count/op")
    for name, key in EXTRAS.items():
        unit = "bytes/op" if key == "bytes_out" else "count/op"
        metrics[f"{name}.{key}"] = (tracer.extras[f"{name}.{key}"] / n, unit)

    def rate(side):
        ok = sum(rec.error is None for rec in records if rec.traced == side)
        return ok / elapsed[side]

    op_ns = sum(rec.latency for rec in traced) * 1e9
    metrics["trace.overhead_frac"] = (1.0 - rate(True) / rate(False), "frac")
    metrics["trace.dominant_frac"] = (
        sum(tracer.self_ns[name] for name in workload.dominant) / op_ns, "frac")
    notes = {
        "trace.overhead_frac": f"traced {rate(True):.4f} vs untraced {rate(False):.4f} ops/s",
        "trace.dominant_frac": "self time of " + " + ".join(workload.dominant)
        + " over traced op time",
    }
    return metrics, notes


def bench(args, work: Path) -> int:
    import partmix.cli as cli
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    warm, kinds = [], set()
    for op in workload.round(args.seed, -1, work):
        if op.kind not in kinds:
            kinds.add(op.kind)
            warm.append(op)
    setup = [] if args.trace else [probe_setup(warm, work) for _ in range(SETUP_RUNS)]
    for op in warm:
        error = call_op(cli, op, None) or check_op(op)
        if error:
            raise RuntimeError(f"warm-up op {op.argv} failed: {error}")

    tracer = Tracer() if args.trace else None
    records, elapsed = run_phase(cli, workload, args.seed, args.seconds, work, tracer)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    left = wrappers_left()
    if left:
        raise RuntimeError(f"tracing wrappers left installed: {left}")

    for rec in records:
        if rec.error is None:
            rec.error = check_op(rec.op)
    failed = [rec for rec in records if rec.error is not None]

    if args.trace:
        metrics, notes = per_layer(records, elapsed, tracer, workload)
    else:
        metrics, notes = end_to_end(records, elapsed, setup, rss_mb)
    prov = provenance(args.seed)

    print(f"partmix benchmark: workload {workload.name}, seed {args.seed}, "
          f"trace {args.trace}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    for name, (value, unit) in metrics.items():
        note = notes.get(name, "")
        print(f"  {name:<52} {value:>14.6g} {unit:<9} {note}")
    print(f"  {'failed_frac':<52} {len(failed) / len(records):>14.6g} {'frac':<9} "
          f"{len(failed)} of {len(records)} ops failed")
    for rec in failed[:5]:
        print(f"  failed {rec.op.kind}: {rec.error.strip().splitlines()[-1]}")

    kinds = sorted({rec.op.kind for rec in records})
    detail = {
        "workload": workload.name,
        "trace": args.trace,
        "provenance": prov,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "notes": notes,
        "failed": [{"kind": rec.op.kind, "argv": rec.op.argv, "error": rec.error}
                   for rec in failed],
        "latency_by_kind": {
            k: sorted(rec.latency for rec in records if rec.op.kind == k) for k in kinds
        },
    }
    if tracer is not None:
        detail["spans"] = {
            "fields": ["id", "parent", "op", "name", "start_ns", "end_ns", "self_ns"],
            "rows": tracer.spans,
        }
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(detail))

    print(json.dumps({
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", BLAS_THREADS)  # before numpy loads
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    try:
        import partmix
        import partmix.cli  # noqa: F401
    except ImportError as exc:
        print(f"error: cannot import partmix from {SRC}: {exc}", file=sys.stderr)
        return 2
    if Path(partmix.__file__).resolve().parent.parent != SRC:
        print(f"error: partmix imported from {partmix.__file__}, not {SRC}", file=sys.stderr)
        return 2

    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR))
    try:
        return bench(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())

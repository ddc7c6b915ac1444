"""Per-layer tracing from outside the program.

The traced run wraps the public functions listed in ``SPANS`` and ``COUNTS``
in every ``partmix`` module namespace that binds them, so calls made inside
the package are caught as well as calls from the CLI. Span wrappers time
each call and keep the span in memory; count wrappers only count calls.
``Tracer.install`` returns the patches so that they can be undone, and it
refuses to run when a listed function is missing or is not callable.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter_ns

# Timed functions: self time, calls and errors are recorded per function.
SPANS = (
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
    "serialize.state_from_json",
    "serialize.spectrum_from_json",
    "serialize.unitary_from_json",
    "serialize.canonical_dumps",
    "interference.probability_from_spectrum",
    "interference.fock_oracle_probability",
    "interference.ideal_outcome_distribution",
    "sampling.haar_variance_experiment",
    "sampling.haar_unitary",
    "sampling.partition_sample",
    "tomography.full_tomography",
    "tomography.fringe_scan",
    "cli.main",
)

# Counted functions: calls only. Their time stays in the caller's self time.
COUNTS = (
    "partitions.matrix_order",
    "partitions.enumerate_partitions",
    "spectrum.orbit_classes",
    "symgroup.enumerate_permutations",
    "interference.permanent",
)


# Work counters: the metric suffix under which len(result) of each traced
# call is summed.
EXTRAS = {
    "serialize.canonical_dumps": "bytes_out",
    "tomography.fringe_scan": "points",
    "sampling.partition_sample": "draws",
}

ROOT = "bench.op"
PACKAGE = "partmix"

_MARK = "__perfbench_traced__"


class LayerMissing(RuntimeError):
    """A function the trace is meant to wrap does not exist in the program."""


def _package_modules() -> list:
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def resolve() -> dict[str, object]:
    """Map each listed name to its function, or raise LayerMissing."""
    found, missing = {}, []
    for name in SPANS + COUNTS:
        modname, fn = name.rsplit(".", 1)
        mod = sys.modules.get(f"{PACKAGE}.{modname}")
        obj = getattr(mod, fn, None)
        if not callable(obj):
            missing.append(name)
        else:
            found[name] = obj
    if missing:
        raise LayerMissing(
            "traced layers not found in the program (renamed or removed?): "
            + ", ".join(missing)
        )
    return found


def wrappers_left() -> list[str]:
    """Module attributes that still hold a tracing wrapper."""
    return [
        f"{mod.__name__}.{attr}"
        for mod in _package_modules()
        for attr, value in vars(mod).items()
        if getattr(value, _MARK, False)
    ]


class Tracer:
    """Spans and counters for one traced phase, kept in memory."""

    def __init__(self):
        self.self_ns: dict[str, int] = {name: 0 for name in SPANS + (ROOT,)}
        self.calls: dict[str, int] = {name: 0 for name in SPANS + COUNTS + (ROOT,)}
        self.errors: dict[str, int] = {name: 0 for name in SPANS + (ROOT,)}
        self.extras: dict[str, int] = {f"{name}.{key}": 0 for name, key in EXTRAS.items()}
        # (span id, parent id, op id, name, start ns, end ns, self ns)
        self.spans: list[tuple] = []
        self._stack: list[list[int]] = []
        self._next_id = 0
        self.op_id = -1

    def call(self, name, fn, args, kwargs, extra=None):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else -1
        frame = [span_id, 0]
        self._stack.append(frame)
        failed = True
        start = perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
            failed = False
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            duration = end - start
            if self._stack:
                self._stack[-1][1] += duration
            own = duration - frame[1]
            self.self_ns[name] += own
            self.calls[name] += 1
            self.errors[name] += failed
            self.spans.append((span_id, parent, self.op_id, name, start, end, own))
        if extra is not None:
            self.extras[f"{name}.{extra}"] += len(result)
        return result

    def op(self, fn, *args):
        """Run one benchmark op as the root span of its own tree."""
        self.op_id += 1
        return self.call(ROOT, fn, args, {})

    def _span_wrapper(self, name, fn):
        extra = EXTRAS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, extra)

        setattr(traced, _MARK, True)
        return traced

    def _count_wrapper(self, name, fn):
        calls = self.calls

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        setattr(counted, _MARK, True)
        return counted

    def install(self) -> list[tuple]:
        """Wrap every binding of every listed function; return the patches."""
        originals = resolve()
        wrapped = {}
        for name, fn in originals.items():
            make = self._span_wrapper if name in SPANS else self._count_wrapper
            wrapped[id(fn)] = (fn, make(name, fn))
        patches = []
        for mod in _package_modules():
            for attr, value in list(vars(mod).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    patches.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        return patches

    @staticmethod
    def uninstall(patches: list[tuple]) -> None:
        for mod, attr, original in reversed(patches):
            setattr(mod, attr, original)

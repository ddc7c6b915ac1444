"""Command-line front door.

Every subcommand is a thin shell over one library operation; artifacts are
canonical JSON (sorted keys, 17 significant digits) with the resolved
configuration embedded under "config". Scans and samples can be emitted as
CSV instead.

Exit codes: 0 success, 2 input/validation error (machine-readable JSON on
stderr), 64 usage error or unknown subcommand.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import reconstruct, sampling, serialize, spectrum as spectrum_mod, tomography
from .errors import PartmixError, SchemaError
from .interference import (
    fock_oracle_probability,
    partition_law,
    partition_probability,
    probability_from_spectrum,
)
from .sampling import SamplerConfig, haar_unitary
from .serialize import canonical_dumps
from .spectrum import gi_part, gi_sym, spectrum_of, strict_projection, twirl
from .states import obb_partition_distribution
from .symgroup import Permutation

USAGE_EXIT = 64
VALIDATION_EXIT = 2


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _state_options(p: _Parser):
    p.add_argument("--family", choices=["obb", "triad", "partition", "ideal", "negative"])
    p.add_argument("--n", type=int)
    p.add_argument("--x", type=float)
    p.add_argument("--phi", type=float)
    p.add_argument("--cells", type=str, help="JSON cells, e.g. [[0,1],[2]]")
    p.add_argument("--state", type=str, help="path to a state JSON file")
    p.add_argument("--state-json", type=str, help="inline state JSON")


def _spectrum_options(p: _Parser):
    _state_options(p)
    p.add_argument("--spectrum", type=str, help="path to a spectrum JSON file")


def _unitary_options(p: _Parser):
    p.add_argument("--unitary", type=str, help="path to a unitary JSON file")
    p.add_argument("--haar", type=int, metavar="M", help="draw a seeded Haar unitary instead")


def _common_options(p: _Parser):
    p.add_argument("--out", type=str, default="-", help="output path, '-' for stdout")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=None, help="worker cap (PARTMIX_THREADS fallback)")
    p.add_argument("--tol", type=float, default=None, help="tolerance override where applicable")


def build_parser() -> _Parser:
    parser = _Parser(prog="partmix", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("spectrum", help="compute the full M_sigma spectrum of a state")
    _state_options(p)
    _common_options(p)

    p = sub.add_parser("classify", help="test orbit invariance and recover partition weights")
    _spectrum_options(p)
    _common_options(p)

    p = sub.add_parser("twirl", help="conjugacy-class average of a spectrum")
    _spectrum_options(p)
    _common_options(p)

    p = sub.add_parser("project", help="strict partition projection of a spectrum")
    _spectrum_options(p)
    _common_options(p)

    p = sub.add_parser("gi", help="genuine-indistinguishability measures")
    _spectrum_options(p)
    _common_options(p)

    p = sub.add_parser("probability", help="outcome probability for a state or spectrum")
    _spectrum_options(p)
    _unitary_options(p)
    p.add_argument("--outcome", type=str, required=True, help="occupations, e.g. 1,1,0 or JSON")
    p.add_argument("--method", choices=["spectrum", "oracle"], default="spectrum")
    p.add_argument("--input-modes", type=str, help="remap photon inputs, e.g. 0,2,4")
    _common_options(p)

    p = sub.add_parser("partition-prob", help="outcome probability of a partition state")
    p.add_argument("--cells", type=str, required=True)
    _unitary_options(p)
    p.add_argument("--outcome", type=str, help="occupations; omit with --all-outcomes")
    p.add_argument("--all-outcomes", action="store_true")
    p.add_argument("--input-modes", type=str, help="remap photon inputs, e.g. 0,2,4")
    _common_options(p)

    p = sub.add_parser("mitigate", help="correction weights for time-delay partitioning")
    _spectrum_options(p)
    p.add_argument("--depth", type=int, default=None, help="rows to solve (default: all)")
    _common_options(p)

    p = sub.add_parser("sample", help="run the partition sampling algorithm")
    p.add_argument("--distribution", type=str, help="partition distribution JSON file")
    p.add_argument("--family", choices=["obb"], help="named distribution family")
    p.add_argument("--n", type=int)
    p.add_argument("--x", type=float)
    _unitary_options(p)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--format", choices=["jsonl", "csv"], default="jsonl")
    p.add_argument("--input-modes", type=str, help="remap photon inputs, e.g. 0,2,4")
    _common_options(p)

    p = sub.add_parser("tomography", help="extract a spectrum from fringe scans")
    _state_options(p)
    p.add_argument("--sigma", type=str, help="single permutation (JSON images): emit its scan as CSV")
    p.add_argument("--scan-length", type=int, default=None)
    p.add_argument(
        "--export-unitary",
        type=str,
        metavar="PATH",
        help="with --sigma: also write the zero-phase interferometer as unitary JSON",
    )
    _common_options(p)

    p = sub.add_parser("haar-experiment", help="raw vs twirled deviation under Haar averaging")
    _state_options(p)
    p.add_argument("--modes", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    _common_options(p)

    p = sub.add_parser("obb-cost", help="mean partition-sampling cost of the OBB model")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--x", type=str, required=True, help="single value or comma list")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    _common_options(p)

    return parser


def _load_json(source: str, inline: bool = False) -> dict:
    try:
        if inline:
            return json.loads(source)
        with open(source) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"/(char {exc.pos})", f"malformed JSON: {exc.msg}") from exc
    except OSError as exc:
        raise SchemaError("", f"cannot read {source}: {exc}") from exc


def _resolve_state(args):
    given = [s for s in (args.family, args.state, getattr(args, "state_json", None)) if s]
    if len(given) != 1:
        raise UsageError("provide exactly one of --family, --state, --state-json")
    if args.family:
        doc = {"family": args.family}
        for key in ("n", "x", "phi"):
            if getattr(args, key, None) is not None:
                doc[key] = getattr(args, key)
        if getattr(args, "cells", None):
            doc["cells"] = _load_json(args.cells, inline=True)
        return serialize.state_from_json(doc), doc
    if args.state:
        doc = _load_json(args.state)
    else:
        doc = _load_json(args.state_json, inline=True)
    return serialize.state_from_json(doc), doc


def _resolve_spectrum(args):
    """A spectrum from --spectrum, or computed from a state source."""
    if getattr(args, "spectrum", None):
        doc = _load_json(args.spectrum)
        return serialize.spectrum_from_json(doc), {"spectrum": args.spectrum}
    state, doc = _resolve_state(args)
    return spectrum_of(state), {"state": doc}


def _resolve_unitary(args):
    if bool(args.unitary) == bool(args.haar):
        raise UsageError("provide exactly one of --unitary, --haar")
    if args.unitary:
        return serialize.unitary_from_json(_load_json(args.unitary)), {"unitary": args.unitary}
    U = haar_unitary(args.haar, np.random.default_rng(args.seed))
    return U, {"haar": args.haar, "seed": args.seed}


def _parse_outcome(text: str) -> tuple[int, ...]:
    text = text.strip()
    if text.startswith("["):
        return tuple(serialize._indices(_load_json(text, inline=True), "/outcome"))
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError as exc:
        raise SchemaError("/outcome", f"cannot parse outcome {text!r}") from exc


def _threads(args) -> int:
    threads = args.threads
    if threads is None:
        threads = int(os.environ.get("PARTMIX_THREADS", "1"))
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    return threads


def _emit(args, payload: str) -> None:
    if args.out == "-":
        sys.stdout.write(payload + "\n")
    else:
        with open(args.out, "w") as fh:
            fh.write(payload + "\n")


def _emit_artifact(args, config: dict, body: dict) -> None:
    config = dict(config)
    config["threads"] = _threads(args)
    if args.tol is not None:
        config["tol"] = args.tol
    artifact = {"command": args.command, "config": config}
    artifact.update(body)
    _emit(args, canonical_dumps(artifact))


# ---------------------------------------------------------------------------
# subcommand bodies


def _cmd_spectrum(args):
    state, doc = _resolve_state(args)
    spec = spectrum_of(state)
    _emit_artifact(args, {"state": doc}, serialize.spectrum_to_json(spec))


def _cmd_classify(args):
    spec, cfg = _resolve_spectrum(args)
    tol = args.tol if args.tol is not None else reconstruct.CLASSIFY_TOLERANCE
    result = reconstruct.classify(spec, tol=tol)
    body = result.to_json()
    body["classes"] = serialize.class_values_to_json(spectrum_mod.class_reduce(spec))
    _emit_artifact(args, cfg, body)


def _cmd_twirl(args):
    spec, cfg = _resolve_spectrum(args)
    _emit_artifact(args, cfg, serialize.spectrum_to_json(twirl(spec)))


def _cmd_project(args):
    spec, cfg = _resolve_spectrum(args)
    _emit_artifact(args, cfg, serialize.spectrum_to_json(strict_projection(spec)))


def _cmd_gi(args):
    spec, cfg = _resolve_spectrum(args)
    part = gi_part(spec)
    _emit_artifact(
        args,
        cfg,
        {"gi_part": {"re": part.real, "im": part.imag}, "gi_sym": gi_sym(spec)},
    )


def _parse_input_modes(args):
    text = getattr(args, "input_modes", None)
    if not text:
        return None
    return [int(v) for v in text.split(",")]


def _cmd_probability(args):
    U, ucfg = _resolve_unitary(args)
    outcome = _parse_outcome(args.outcome)
    inputs = _parse_input_modes(args)
    if args.method == "oracle":
        state, doc = _resolve_state(args)
        p = fock_oracle_probability(state, U, outcome, input_modes=inputs)
        cfg = {"state": doc}
    else:
        spec, cfg = _resolve_spectrum(args)
        p = probability_from_spectrum(U, spec, outcome, input_modes=inputs)
    cfg.update(ucfg)
    cfg["outcome"] = list(outcome)
    cfg["method"] = args.method
    if inputs is not None:
        cfg["input_modes"] = inputs
    _emit_artifact(args, cfg, {"probability": p})


def _cmd_partition_prob(args):
    U, ucfg = _resolve_unitary(args)
    cells = _load_json(args.cells, inline=True)
    p = serialize.partition_from_cells(cells)
    inputs = _parse_input_modes(args)
    cfg = dict(ucfg, cells=cells)
    if inputs is not None:
        cfg["input_modes"] = inputs
    if args.all_outcomes:
        occ, probs = partition_law(U, p, inputs)
        table = [{"outcome": o, "p": v} for o, v in zip(occ.tolist(), probs.tolist())]
        _emit_artifact(args, cfg, {"table": table})
    else:
        if not args.outcome:
            raise UsageError("provide --outcome or --all-outcomes")
        outcome = _parse_outcome(args.outcome)
        cfg["outcome"] = list(outcome)
        _emit_artifact(
            args, cfg, {"probability": partition_probability(U, p, outcome, input_modes=inputs)}
        )


def _cmd_mitigate(args):
    spec, cfg = _resolve_spectrum(args)
    tol = args.tol if args.tol is not None else reconstruct.CLASSIFY_TOLERANCE
    plan = reconstruct.mitigation_weights(spec, depth=args.depth, tol=tol)
    _emit_artifact(args, cfg, plan.to_json())


def _resolve_distribution(args):
    if args.distribution:
        doc = _load_json(args.distribution)
        return serialize.distribution_from_json(doc), {"distribution": args.distribution}
    if args.family == "obb":
        if args.n is None or args.x is None:
            raise UsageError("--family obb needs --n and --x")
        return obb_partition_distribution(args.n, args.x), {
            "family": "obb",
            "n": args.n,
            "x": args.x,
        }
    raise UsageError("provide --distribution or --family obb")


def _cmd_sample(args):
    U, ucfg = _resolve_unitary(args)
    dist, dcfg = _resolve_distribution(args)
    inputs = _parse_input_modes(args)
    config = SamplerConfig(
        unitary=U,
        distribution=dist,
        seed=args.seed,
        count=args.count,
        input_modes=None if inputs is None else tuple(inputs),
    )
    samples = sampling.partition_sample(config)
    if args.format == "csv":
        lines = [",".join(str(v) for v in s) for s in samples]
    else:
        lines = [json.dumps(list(s)) for s in samples]
    _emit(args, "\n".join(lines))
    del ucfg, dcfg  # provenance lives in the run configuration, not sample rows


def _cmd_tomography(args):
    state, doc = _resolve_state(args)
    if args.sigma:
        sigma = Permutation(tuple(_load_json(args.sigma, inline=True)))
        if args.export_unitary:
            k = len(sigma.cycles())
            inter = tomography.build_cyclic(sigma, [0.0] * k)
            with open(args.export_unitary, "w") as fh:
                fh.write(canonical_dumps(serialize.unitary_to_json(inter.matrix)) + "\n")
        L = args.scan_length or tomography.default_scan_length(sigma)
        scan = tomography.fringe_scan(state, sigma, L)
        lines = ["phase,probability"] + [
            f"{phi:.17g},{p:.17g}" for phi, p in zip(scan.phases, scan.probabilities)
        ]
        _emit(args, "\n".join(lines))
        return
    if args.export_unitary:
        raise UsageError("--export-unitary needs --sigma")
    spec = tomography.full_tomography(state, scan_length=args.scan_length)
    _emit_artifact(args, {"state": doc}, serialize.spectrum_to_json(spec))


def _cmd_haar_experiment(args):
    state, doc = _resolve_state(args)
    report = sampling.haar_variance_experiment(state, args.modes, args.trials, args.seed)
    _emit_artifact(args, {"state": doc}, report.to_json())


def _cmd_obb_cost(args):
    xs = [float(v) for v in args.x.split(",")]
    rows = [{"x": x, "cost": sampling.obb_cost_curve(args.n, x)} for x in xs]
    if args.format == "csv":
        lines = ["x,cost"] + [f"{r['x']:.17g},{r['cost']:.17g}" for r in rows]
        _emit(args, "\n".join(lines))
        return
    body = {"costs": rows} if len(rows) > 1 else rows[0]
    _emit_artifact(args, {"n": args.n, "x": xs}, body)


_COMMANDS = {
    "spectrum": _cmd_spectrum,
    "classify": _cmd_classify,
    "twirl": _cmd_twirl,
    "project": _cmd_project,
    "gi": _cmd_gi,
    "probability": _cmd_probability,
    "partition-prob": _cmd_partition_prob,
    "mitigate": _cmd_mitigate,
    "sample": _cmd_sample,
    "tomography": _cmd_tomography,
    "haar-experiment": _cmd_haar_experiment,
    "obb-cost": _cmd_obb_cost,
}


def _error_json(kind: str, message: str, path: str | None = None) -> str:
    return canonical_dumps({"error": {"type": kind, "message": message, "path": path}})


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        sys.stderr.write(parser.format_usage())
        sys.stderr.write(f"error: {exc}\n")
        return USAGE_EXIT
    if not args.command:
        sys.stderr.write(parser.format_usage())
        return USAGE_EXIT
    try:
        _threads(args)  # a bad worker cap or tolerance fails before any work
        if args.tol is not None:
            serialize._number(args.tol, "/tol", lo=0)
        _COMMANDS[args.command](args)
    except UsageError as exc:
        sys.stderr.write(parser.format_usage())
        sys.stderr.write(f"error: {exc}\n")
        return USAGE_EXIT
    except SchemaError as exc:
        sys.stderr.write(_error_json("schema", exc.message, exc.path) + "\n")
        return VALIDATION_EXIT
    except (PartmixError, ValueError) as exc:
        sys.stderr.write(_error_json(type(exc).__name__, str(exc)) + "\n")
        return VALIDATION_EXIT
    return 0


if __name__ == "__main__":
    sys.exit(main())

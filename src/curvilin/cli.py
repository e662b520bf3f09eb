"""Command line front end: run suites, apply operators to files, emit reports.

The command line is the only way in: ``main(argv)`` parses argv and
``run`` hands the parsed namespace to the command's handler.  Every
command is a thin wrapper over one library entry point and takes only
the flags it reads:

* ``verify``   --suite --seed --workers --grid --lambda-points --out --format
* ``sum``      --a --b --grid --lambda-points --p --t --alphas --out --format
* ``conv``     --a --b --grid --lambda-points --p --t --alphas --out --format
* ``compress`` --a --out --format
* ``surface``  --a --b --grid --lambda-points --p --alphas --out --format

Any other flag is a usage error.  ``sum``, ``conv`` and ``surface`` read
--a and --b through one loader: both files must hold one carrier type the
command takes (``sum`` interval unions, box unions or staircases, ``conv``
grid functions, ``surface`` staircases over one base axis), and
--grid refines staircase and function operands only.  Defaults:
``--suite default``, ``--seed 0``, ``--workers`` from ``CURVILIN_WORKERS``
else the CPU count, ``--grid`` and ``--lambda-points`` the manifest's
values for ``verify`` and 0 (no refinement) and 64 for the operators,
``--p 1``, ``--t 0.5``, ``--alphas`` all 1, ``--out`` stdout, ``--format``
csv for ``verify`` and json otherwise.  An operator's CSV is read off its
result carrier, one row per cell, box or interval (``surface``: one per
quotient); its JSON holds the carrier's payload.  Outputs are
deterministic for a fixed command line: JSON is dumped with sorted keys,
suites order their reports by check id and seed, and nothing here stamps
times or hostnames into artifacts.

Exit codes: 0 when no check failed (refine verdicts allowed), 1 when any
suite check reports a fail verdict, 2 on malformed input files or flags.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import ctypes
import functools
import json
import os
import sys

import numpy as np

from .curvsum import (
    SumSpec,
    curvilinear_sum_1d,
    curvilinear_sum_boxes,
    curvilinear_sum_grid,
)
from .errors import CurvilinError, DomainError, RangeError
from .funcs import sup_convolve
from .means import PowerVector
from .measures import surface_area_sets
from .sets import (
    BoxUnion,
    GridFunction,
    IntervalUnion,
    StaircaseSet,
    compress,
    load_set,
)
from . import verify

FORMATS = ("json", "csv")


# ---------------------------------------------------------------------------
# flags


def _parse_alphas(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(x) for x in text.split(","))
    except ValueError as exc:
        raise RangeError(f"bad alphas list {text!r}") from exc


# flag -> argparse keywords; the one home of every default
_FLAGS = {
    "a": dict(required=True, help="first input file"),
    "b": dict(required=True, help="second input file"),
    "suite": dict(default="default",
                  help="'default' (the default) or a manifest JSON path"),
    "seed": dict(type=int, default=0, help="suite seed, default 0"),
    "workers": dict(type=int, help="default CURVILIN_WORKERS, else the CPU count"),
    "grid": dict(type=int, help="refinement level; each level doubles the density"),
    "lambda_points": dict(type=int, help="lam grid size; operators default to 64"),
    "p": dict(type=float, default=1.0, help="exponent p, default 1"),
    "t": dict(type=float, default=0.5, help="weight t in (0, 1), default 0.5"),
    "alphas": dict(type=_parse_alphas, help="comma separated powers, default all 1"),
    "out": dict(help="output file; for verify, the artifact directory"),
    "format": dict(choices=FORMATS, help="default csv for verify, json otherwise"),
}


def _resolve_workers(args: argparse.Namespace) -> int:
    """--workers, else CURVILIN_WORKERS, else the CPU count; below 1 is refused."""
    workers, source = args.workers, "--workers"
    if workers is None:
        env = os.environ.get("CURVILIN_WORKERS")
        if env is None:
            return os.cpu_count() or 1
        try:
            workers, source = int(env), "CURVILIN_WORKERS"
        except ValueError as exc:
            raise RangeError(f"bad CURVILIN_WORKERS value {env!r}") from exc
    if workers < 1:
        raise RangeError(f"{source} must be at least 1, got {workers}")
    return workers


# ---------------------------------------------------------------------------
# payload emission


def _dump_json(payload: dict, stream) -> None:
    json.dump(payload, stream, sort_keys=True, indent=1)
    stream.write("\n")


def _carrier_rows(out) -> tuple[list[str], list[list[float]]]:
    """CSV header and rows of a result carrier, one row per cell or piece."""
    if isinstance(out, (StaircaseSet, GridFunction)):
        name, values = (("height", out.heights) if isinstance(out, StaircaseSet)
                        else ("value", out.values))
        header = [f"x{i}" for i in range(out.grid.ndim)] + [name]
        rows = np.column_stack([out.grid.cell_lower_corners(), values.ravel()])
        return header, rows.tolist()
    if isinstance(out, BoxUnion):
        header = [f"lo{i}" for i in range(out.dim)] + [f"hi{i}" for i in range(out.dim)]
        return header, out.boxes.reshape(len(out.boxes), 2 * out.dim).tolist()
    return ["lo", "hi"], [list(iv) for iv in out.intervals]


def _emit(payload: dict, args: argparse.Namespace, out) -> None:
    """``payload`` as JSON, or ``out`` as CSV: a carrier or (header, rows)."""
    if args.out:
        target = open(args.out, "w", encoding="ascii", newline="")
    else:
        target = contextlib.nullcontext(sys.stdout)
    with target as fh:
        if (args.format or "json") == "json":
            _dump_json(payload, fh)
        else:
            header, rows = out if isinstance(out, tuple) else _carrier_rows(out)
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)


# ---------------------------------------------------------------------------
# commands


def _operands(args: argparse.Namespace, kinds: tuple) -> tuple:
    """--a and --b, of one carrier type from ``kinds``, refined by --grid."""
    a, b = load_set(args.a), load_set(args.b)
    if type(a) is not type(b) or not isinstance(a, kinds):
        names = " or ".join(k.__name__ for k in kinds)
        raise DomainError(f"{args.command} needs two operands of one type: {names}")
    level = args.grid or 0
    if level < 0:
        raise RangeError("grid level must be nonnegative")
    if level:
        if not isinstance(a, (StaircaseSet, GridFunction)):
            raise RangeError("--grid refines staircase operands only")
        a, b = a.refined(1 << level), b.refined(1 << level)
    return a, b


def _powers(args: argparse.Namespace, entries: int) -> PowerVector:
    alphas = args.alphas or (1.0,) * entries
    if len(alphas) != entries:
        raise RangeError(
            f"need {entries} powers for these operands, got {len(alphas)}")
    return PowerVector(alphas)


def _lambda_points(args: argparse.Namespace) -> int:
    return 64 if args.lambda_points is None else args.lambda_points


def _spec_for(args: argparse.Namespace, entries: int) -> SumSpec:
    return SumSpec(p=args.p, alphas=_powers(args, entries), t=args.t,
                   lambda_points=_lambda_points(args))


def _run_sum(args: argparse.Namespace) -> int:
    a, b = _operands(args, (IntervalUnion, BoxUnion, StaircaseSet))
    if isinstance(a, IntervalUnion):
        spec, kernel = _spec_for(args, 1), curvilinear_sum_1d
    elif isinstance(a, BoxUnion):
        spec, kernel = _spec_for(args, a.dim), curvilinear_sum_boxes
    else:
        spec, kernel = _spec_for(args, a.base_dim + 1), curvilinear_sum_grid
    out = kernel(a, b, spec)
    payload = {"kind": "sum", "spec": spec.to_json(),
               "result": out.to_json(), "volume": out.volume}
    _emit(payload, args, out)
    return 0


def _run_conv(args: argparse.Namespace) -> int:
    f, g = _operands(args, (GridFunction,))
    spec = _spec_for(args, f.ndim + 1)
    out = sup_convolve(f, g, spec)
    payload = {"kind": "convolution", "spec": spec.to_json(),
               "result": out.to_json(), "integral": out.integral}
    _emit(payload, args, out)
    return 0


def _run_compress(args: argparse.Namespace) -> int:
    a = load_set(args.a)
    if isinstance(a, StaircaseSet):
        boxes, spacing = a.boxes(), a.grid.spacing
    elif isinstance(a, BoxUnion):
        boxes, spacing = a, None
    else:
        raise DomainError("compression expects boxes or a staircase")
    out = compress(boxes, spacing)
    payload = {"kind": "compression", "result": out.to_json(),
               "volume": out.volume, "source_volume": boxes.volume}
    _emit(payload, args, out)
    return 0


def _run_surface(args: argparse.Namespace) -> int:
    a, b = _operands(args, (StaircaseSet,))
    alphas = _powers(args, a.base_dim + 1)
    # the t-free sum: surface_area_sets checks the base axes, p and the lam
    # grid size
    est = surface_area_sets(a, b, args.p, alphas, lambda_points=_lambda_points(args))
    payload = {
        "kind": "surface",
        "p": args.p,
        "alphas": list(alphas.alphas),
        "estimate": est.estimate,
        "trend": est.trend,
        "unsettled": est.unsettled,
        "quotients": [[e, q] for e, q in est.quotients],
    }
    _emit(payload, args, (["eps", "quotient"], payload["quotients"]))
    return 0


def _load_manifest(args: argparse.Namespace) -> dict:
    if args.suite == "default":
        return verify.default_suite(seed=args.seed)
    with open(args.suite) as fh:
        manifest = json.load(fh)
    if not isinstance(manifest, dict):
        raise DomainError("manifest must be a JSON object")
    if "checks" not in manifest:
        raise DomainError("manifest has no checks list")
    manifest.setdefault("seed", args.seed)
    return manifest


def _run_verify(args: argparse.Namespace) -> int:
    manifest = _load_manifest(args)
    if args.lambda_points is not None:
        manifest["lambda_points"] = args.lambda_points
    if args.grid is not None:
        manifest["grid"] = args.grid
    result = verify.run_suite(manifest, workers=_resolve_workers(args))
    fmt = args.format or "csv"
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "manifest.json"), "w",
                  encoding="ascii") as fh:
            _dump_json(manifest, fh)
        verify.write_reports_jsonl(
            os.path.join(args.out, "reports.jsonl"), result.reports)
        verify.write_summary_csv(
            os.path.join(args.out, "summary.csv"), result.summary)
    if fmt == "json":
        _dump_json({"kind": "summary", "failures": result.failures,
                    "summary": list(result.summary)}, sys.stdout)
    else:
        verify._write_summary(sys.stdout, result.summary)
    return 1 if result.failures else 0


# one declaration per command: help text, the flags it reads, its handler
_OPERANDS = "a b grid lambda_points p t alphas out format"
_COMMANDS = {
    "verify": ("run an inequality suite",
               "suite seed workers grid lambda_points out format", _run_verify),
    "sum": ("curvilinear sum of two set files", _OPERANDS, _run_sum),
    "conv": ("supremal convolution of two function files", _OPERANDS, _run_conv),
    "compress": ("compress a set file", "a out format", _run_compress),
    "surface": ("surface quotient of two staircase files",
                "a b grid lambda_points p alphas out format", _run_surface),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curvilin",
        description="curvilinear summation operators and inequality suites")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (text, flags, _) in _COMMANDS.items():
        sp = sub.add_parser(command, help=text)
        for flag in flags.split():
            sp.add_argument("--" + flag.replace("_", "-"), dest=flag,
                            **_FLAGS[flag])
    return parser


def run(args: argparse.Namespace) -> int:
    """Execute one parsed command line; returns the process exit status."""
    try:
        return _COMMANDS[args.command][2](args)
    except (CurvilinError, OSError, KeyError, TypeError, ValueError) as exc:
        print(f"curvilin: {exc}", file=sys.stderr)
        return 2


# glibc's mallopt parameter numbers, and the ceilings its dynamic mmap
# threshold climbs to (M_MMAP_THRESHOLD's, and twice it for the trim)
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD = 32 << 20
_TRIM_THRESHOLD = 64 << 20


@functools.cache
def _tune_allocator() -> None:
    """Set glibc's mmap and trim thresholds to their ceilings; elsewhere do nothing."""
    try:
        if not (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc"):
            return
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, ValueError, OSError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


def main(argv=None) -> int:
    """Run one command line; returns the process exit status.

    On glibc, the first call sets the process's allocator policy:
    ``mallopt`` raises the mmap threshold to 32 MiB and the trim threshold
    to 64 MiB, the ceilings glibc's own dynamic rule climbs to.  A process
    starts at 128 KiB, so every short-lived array above that (the
    envelope's lattice, rank and level arrays, the grid sum's pair and run
    arrays) is a fresh ``mmap`` or a trimmed heap page that is faulted in
    again on the next call: one benchmark ``surface`` pass takes 13.5k
    page faults at the starting thresholds and 1.0k under the policy.
    Pool workers forked from the process inherit it; arrays above 32 MiB
    still come straight from ``mmap``, so an address-space limit still
    fails them at their first allocation.  It is set here and not on
    import, because a library must not retune the allocator of the
    process that imports it.
    """
    _tune_allocator()
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse reports its own message; normalize the status
        return int(exc.code or 0) and 2
    return run(args)


if __name__ == "__main__":
    raise SystemExit(main())

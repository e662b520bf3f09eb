"""Command line front end: run suites, apply operators to files, emit reports.

Every command is a thin wrapper over one library entry point and takes
only the flags it reads:

* ``verify``   --suite --seed --workers --grid --lambda-points --out --format
* ``sum``      --a --b --grid --lambda-points --p --t --alphas --out --format
* ``conv``     --a --b --grid --lambda-points --p --t --alphas --out --format
* ``compress`` --a --out --format
* ``surface``  --a --b --grid --lambda-points --p --alphas --out --format

Any other flag is a usage error.  Outputs are deterministic for a fixed
config: JSON is dumped with sorted keys, suites order their reports by
check id and seed, and nothing here stamps times or hostnames into
artifacts.

Exit codes: 0 when no check failed (refine verdicts allowed), 1 when any
suite check reports a fail verdict, 2 on malformed input files or flags.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import sys
from dataclasses import asdict, dataclass

import numpy as np

from .curvsum import (
    SumSpec,
    curvilinear_sum_1d,
    curvilinear_sum_boxes,
    curvilinear_sum_grid,
)
from .errors import CurvilinError, DomainError, RangeError
from .funcs import load_function, sup_convolve
from .means import PowerVector
from .measures import lebesgue, surface_area_sets
from .sets import (
    BoxUnion,
    Grid,
    IntervalUnion,
    StaircaseSet,
    compress,
    load_set,
)
from . import verify

FORMATS = ("json", "csv")


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class RunConfig:
    """Complete description of one invocation; round-trips through JSON."""

    command: str
    a: str | None = None
    b: str | None = None
    suite: str | None = None
    seed: int = 0
    workers: int | None = None
    grid: int | None = None
    lambda_points: int | None = None
    p: float = 1.0
    t: float = 0.5
    alphas: tuple[float, ...] | None = None
    out: str | None = None
    format: str | None = None

    def __post_init__(self) -> None:
        if self.command not in COMMANDS:
            raise RangeError(f"unknown command {self.command!r}")
        if self.format is not None and self.format not in FORMATS:
            raise RangeError(f"unknown format {self.format!r}")

    def to_json(self) -> dict:
        return {**asdict(self), "alphas": None if self.alphas is None else list(self.alphas)}

    @classmethod
    def from_json(cls, data: dict) -> "RunConfig":
        alphas = data.get("alphas")
        return cls(
            command=data["command"],
            a=data.get("a"),
            b=data.get("b"),
            suite=data.get("suite"),
            seed=int(data.get("seed", 0)),
            workers=None if data.get("workers") is None else int(data["workers"]),
            grid=None if data.get("grid") is None else int(data["grid"]),
            lambda_points=(None if data.get("lambda_points") is None
                           else int(data["lambda_points"])),
            p=float(data.get("p", 1.0)),
            t=float(data.get("t", 0.5)),
            alphas=None if alphas is None else tuple(float(x) for x in alphas),
            out=data.get("out"),
            format=data.get("format"),
        )


def _parse_alphas(text: str) -> tuple[float, ...]:
    try:
        vals = tuple(float(x) for x in text.split(","))
    except ValueError as exc:
        raise RangeError(f"bad alphas list {text!r}") from exc
    if not vals:
        raise RangeError("alphas list is empty")
    return vals


# flag -> argparse keywords; defaults live in RunConfig
_FLAGS = {
    "a": dict(required=True, help="first input file"),
    "b": dict(required=True, help="second input file"),
    "suite": dict(help="'default' (the default) or a manifest JSON path"),
    "seed": dict(type=int, help="suite seed, default 0"),
    "workers": dict(type=int, help="default CURVILIN_WORKERS, else the CPU count"),
    "grid": dict(type=int, help="refinement level; each level doubles the density"),
    "lambda_points": dict(type=int, help="lam grid size; operators default to 64"),
    "p": dict(type=float, help="exponent p, default 1"),
    "t": dict(type=float, help="weight t in (0, 1), default 0.5"),
    "alphas": dict(type=_parse_alphas, help="comma separated powers, default all 1"),
    "out": dict(help="output file; for verify, the artifact directory"),
    "format": dict(choices=FORMATS, help="default csv for verify, json otherwise"),
}
_OPERANDS = "a b grid lambda_points p t alphas out format"
_COMMANDS = {
    "verify": ("run an inequality suite",
               "suite seed workers grid lambda_points out format"),
    "sum": ("curvilinear sum of two set files", _OPERANDS),
    "conv": ("supremal convolution of two function files", _OPERANDS),
    "compress": ("compress a set file", "a out format"),
    "surface": ("surface quotient of two staircase files",
                "a b grid lambda_points p alphas out format"),
}
COMMANDS = tuple(_COMMANDS)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curvilin",
        description="curvilinear summation operators and inequality suites")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (text, flags) in _COMMANDS.items():
        # an absent flag stays out of the namespace, so RunConfig fills it in
        sp = sub.add_parser(command, help=text,
                            argument_default=argparse.SUPPRESS)
        for flag in flags.split():
            sp.add_argument("--" + flag.replace("_", "-"), dest=flag,
                            **_FLAGS[flag])
    return parser


def config_from_args(argv) -> RunConfig:
    return RunConfig(**vars(build_parser().parse_args(argv)))


def _resolve_workers(config: RunConfig) -> int:
    """--workers, else CURVILIN_WORKERS, else the CPU count; below 1 is refused."""
    workers, source = config.workers, "--workers"
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


def _grid_rows(origin, spacing, values) -> list[list[float]]:
    arr = np.asarray(values)
    rows = []
    for cell in np.ndindex(arr.shape):
        corner = [o + i * spacing for o, i in zip(origin, cell)]
        rows.append([*corner, float(arr[cell])])
    return rows


def _payload_rows(payload: dict) -> tuple[list[str], list[list]]:
    kind = payload["kind"]
    if kind == "surface":
        return (["eps", "quotient"],
                [[e, q] for e, q in payload["quotients"]])
    result = payload["result"]
    if "heights" in result or "values" in result:
        key = "heights" if "heights" in result else "values"
        dim = len(result["shape"])
        header = [f"x{i}" for i in range(dim)] + [key[:-1]]
        vals = np.asarray(result[key]).reshape(result["shape"])
        return header, _grid_rows(result["origin"], result["spacing"], vals)
    if "boxes" in result:
        dim = result["dim"]
        header = [f"lo{i}" for i in range(dim)] + [f"hi{i}" for i in range(dim)]
        return header, [[*b["lo"], *b["hi"]] for b in result["boxes"]]
    header = ["lo", "hi"]
    return header, [[a, b] for a, b in result["intervals"]]


def _emit(payload: dict, config: RunConfig) -> None:
    if config.out:
        target = open(config.out, "w", encoding="ascii", newline="")
    else:
        target = contextlib.nullcontext(sys.stdout)
    with target as fh:
        if (config.format or "json") == "json":
            _dump_json(payload, fh)
        else:
            header, rows = _payload_rows(payload)
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)


# ---------------------------------------------------------------------------
# commands


def _refine_level(config: RunConfig) -> int:
    level = config.grid or 0
    if level < 0:
        raise RangeError("grid level must be nonnegative")
    return level


def _spec_for(config: RunConfig, entries: int) -> SumSpec:
    alphas = config.alphas
    if alphas is None:
        alphas = (1.0,) * entries
    if len(alphas) != entries:
        raise RangeError(
            f"need {entries} powers for these operands, got {len(alphas)}")
    lam = config.lambda_points if config.lambda_points is not None else 64
    return SumSpec(p=config.p, alphas=PowerVector(alphas), t=config.t,
                   lambda_points=lam)


def _run_sum(config: RunConfig) -> int:
    a = load_set(config.a)
    b = load_set(config.b)
    level = _refine_level(config)
    if level and not isinstance(a, StaircaseSet):
        raise RangeError("--grid refines staircase operands only")
    if isinstance(a, IntervalUnion) and isinstance(b, IntervalUnion):
        spec = _spec_for(config, 1)
        out = curvilinear_sum_1d(a, b, spec)
        vol = out.volume
    elif isinstance(a, BoxUnion) and isinstance(b, BoxUnion):
        if a.dim != b.dim:
            raise DomainError("box unions live in different dimensions")
        spec = _spec_for(config, a.dim)
        out = curvilinear_sum_boxes(a, b, spec)
        vol = out.volume
    elif isinstance(a, StaircaseSet) and isinstance(b, StaircaseSet):
        if a.base_dim != b.base_dim:
            raise DomainError("staircases live in different dimensions")
        if level:
            a, b = a.refined(1 << level), b.refined(1 << level)
        spec = _spec_for(config, a.base_dim + 1)
        out = curvilinear_sum_grid(a, b, spec)
        vol = out.volume
    else:
        raise DomainError("operands must share one set representation")
    payload = {"kind": "sum", "spec": spec.to_json(),
               "result": out.to_json(), "volume": vol}
    _emit(payload, config)
    return 0


def _run_conv(config: RunConfig) -> int:
    f = load_function(config.a)
    g = load_function(config.b)
    level = _refine_level(config)
    if level:
        f, g = f.refined(1 << level), g.refined(1 << level)
    if f.ndim != g.ndim:
        raise DomainError("functions live in different dimensions")
    spec = _spec_for(config, f.ndim + 1)
    out = sup_convolve(f, g, spec)
    payload = {"kind": "convolution", "spec": spec.to_json(),
               "result": out.to_json(), "integral": out.integral}
    _emit(payload, config)
    return 0


def _run_compress(config: RunConfig) -> int:
    a = load_set(config.a)
    if isinstance(a, StaircaseSet):
        boxes, spacing = a.boxes(), a.grid.spacing
    elif isinstance(a, BoxUnion):
        boxes, spacing = a, None
    else:
        raise DomainError("compression expects boxes or a staircase")
    out = compress(boxes, spacing)
    payload = {"kind": "compression", "result": out.to_json(),
               "volume": out.volume, "source_volume": boxes.volume}
    _emit(payload, config)
    return 0


def _cover_for(a: StaircaseSet, b: StaircaseSet) -> Grid:
    spacing = min(a.grid.spacing, b.grid.spacing)
    shape = []
    for ax in range(a.base_dim):
        hi = (a.grid.origin[ax] + a.grid.shape[ax] * a.grid.spacing
              + b.grid.origin[ax] + b.grid.shape[ax] * b.grid.spacing)
        shape.append(int(math.ceil(hi / spacing)) + 2)
    return Grid((0.0,) * a.base_dim, spacing, tuple(shape))


def _run_surface(config: RunConfig) -> int:
    a = load_set(config.a)
    b = load_set(config.b)
    if not (isinstance(a, StaircaseSet) and isinstance(b, StaircaseSet)):
        raise DomainError("surface quotients expect two staircases")
    if a.base_dim != b.base_dim:
        raise DomainError("staircases live in different dimensions")
    level = _refine_level(config)
    if level:
        a, b = a.refined(1 << level), b.refined(1 << level)
    spec = _spec_for(config, a.base_dim + 1)
    est = surface_area_sets(a, b, lebesgue(_cover_for(a, b)), spec.p, spec.alphas,
                            lambda_points=spec.lambda_points)
    payload = {
        "kind": "surface",
        "p": config.p,
        "alphas": list(spec.alphas.alphas),
        "estimate": est.estimate,
        "trend": est.trend,
        "unsettled": est.unsettled,
        "quotients": [[e, q] for e, q in est.quotients],
    }
    _emit(payload, config)
    return 0


def _load_manifest(config: RunConfig) -> dict:
    name = config.suite or "default"
    if name == "default":
        return verify.default_suite(seed=config.seed)
    with open(name) as fh:
        manifest = json.load(fh)
    if "checks" not in manifest:
        raise DomainError("manifest has no checks list")
    manifest.setdefault("seed", config.seed)
    return manifest


def _run_verify(config: RunConfig) -> int:
    manifest = _load_manifest(config)
    if config.lambda_points is not None:
        manifest["lambda_points"] = config.lambda_points
    if config.grid is not None:
        manifest["grid"] = config.grid
    result = verify.run_suite(manifest, workers=_resolve_workers(config))
    fmt = config.format or "csv"
    if config.out:
        os.makedirs(config.out, exist_ok=True)
        with open(os.path.join(config.out, "manifest.json"), "w",
                  encoding="ascii") as fh:
            _dump_json(manifest, fh)
        verify.write_reports_jsonl(
            os.path.join(config.out, "reports.jsonl"), result.reports)
        verify.write_summary_csv(
            os.path.join(config.out, "summary.csv"), result.summary)
    if fmt == "json":
        _dump_json({"kind": "summary", "failures": result.failures,
                    "summary": list(result.summary)}, sys.stdout)
    else:
        verify._write_summary(sys.stdout, result.summary)
    return 1 if result.failures else 0


def run(config: RunConfig) -> int:
    """Execute one config; returns the process exit status."""
    handlers = {
        "verify": _run_verify,
        "sum": _run_sum,
        "conv": _run_conv,
        "compress": _run_compress,
        "surface": _run_surface,
    }
    try:
        return handlers[config.command](config)
    except (CurvilinError, OSError, KeyError,
            json.JSONDecodeError, ValueError) as exc:
        print(f"curvilin: {exc}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    try:
        config = config_from_args(argv)
    except CurvilinError as exc:
        print(f"curvilin: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:
        # argparse reports its own message; normalize the status
        return int(exc.code or 0) and 2
    return run(config)


if __name__ == "__main__":
    raise SystemExit(main())

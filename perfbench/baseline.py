"""Measure the benchmark's baseline and write ``perfbench/baseline.json``.

    python3 perfbench/baseline.py --label "<commit>"

For every workload: one untraced run per seed in ``SEEDS`` (end-to-end
medians, quartiles and their spread over the seeds), one traced run on the
first seed (per-layer values) and one untraced run on the held-out seed
(its correctness only).  The file also records what
``BENCHMARK.json`` has no keys for: how each workload uses the seed, the
held-out seed, and which end-to-end metric each layer metric should move
on which workload.  Takes about 25 minutes on a 2-CPU machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

SEEDS = range(101, 111)
# surface and operator inputs come from seed % workloads.INPUT_SEEDS; SEEDS
# cover residues 5-14 and 20 is none of them.  On the suites the seed only
# reorders the checks, so no seed is held out there.
HELD_OUT_SEED = 20
SEED_USE = {
    "suite": "permutes the default manifest's check order, and with it the "
             "workers=2 gate pass's chunk schedule; reports do not change",
    "surface": "draws staircase heights from seed % 32 at fixed sizes",
    "operators": "draws staircases, functions, intervals and boxes from "
                 "seed % 32 at fixed sizes",
}
# layer metric prefix -> the end-to-end metrics and workloads it should move
LAYER_MAP = {
    "cli.main.self_s": ["run_p50_ms on operators"],
    "verify.calibrate_grid_constant": [
        "wall_s on suite (paid once per process, and once per pool worker "
        "in the untimed workers=2 gate pass)"],
    "verify.level": ["decided_share on suite"],
    "verify.pool_cpu_s": [
        "no bounded metric: read from the suite's untimed workers=2 gate pass"],
    "verify.pool_idle_share": [
        "no bounded metric: read from the suite's untimed workers=2 gate pass"],
    "curvsum.lp_minkowski_sum_base": [
        "wall_s and run_p90_ms on suite; absent from surface and operators"],
    "curvsum.envelope_segments": [
        "wall_s, run_p50_ms and run_p90_ms on surface; a few percent of "
        "suite; absent from operators"],
    "curvsum.staircase_sum_regions": ["wall_s on surface"],
    "curvsum.curvilinear_sum_grid": ["wall_s and run_p90_ms on operators"],
    "curvsum.quasi_sum_grid": ["wall_s on suite (small)"],
    "curvsum.convex_quasi_sum_grid": ["wall_s on suite (small)"],
    "funcs.sup_convolve": ["wall_s on operators"],
    "funcs.bbl_min_witness": ["wall_s on suite (small)"],
    "curvsum.curvilinear_sum_boxes": ["wall_s on suite and operators"],
    "curvsum.sum_oracle": ["wall_s on suite, inside calibration"],
    "curvsum.curvilinear_sum_1d": ["wall_s on suite (small) and operators (small)"],
    "sets.box_union_volume": [
        "wall_s on suite (3-D compression_monotone runs)",
        "wall_s and peak_rss_mb on operators"],
    "sets.compress": ["wall_s on operators"],
    "measures.surface_area_sets": ["wall_s on surface; minkowski_first runs of suite"],
    "measures.measure_of": ["wall_s on suite (measure_bm runs)"],
    "measures.minkowski_first_check": ["wall_s on suite (minkowski_first runs)"],
    "measures.mixed_volume_check": ["wall_s on suite (minkowski_first runs)"],
    "other.self_s": ["whatever the listed layers do not cover"],
    "trace_overhead_share": ["none: cost of tracing, traced over untraced wall_s"],
    "trace.root_share": ["none: share of a traced pass inside cli.main spans"],
}


def _run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[str]]:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    lines = done.stdout.strip().splitlines()
    print(f"baseline: {workload} seed {seed} trace {trace}: {lines[-1][:300]}",
          file=sys.stderr, flush=True)
    return json.loads(lines[-1]), lines[:-1]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="the measured commit")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as fh:
        bench = json.load(fh)
    import numpy

    out = {
        "commit": args.label,
        "machine": f"{os.cpu_count()} CPUs, Python {platform.python_version()}, "
                   f"numpy {numpy.__version__}",
        "run_seconds": bench["run_seconds"],
        "seeds": list(SEEDS),
        "held_out_seed": HELD_OUT_SEED,
        "layer_map": LAYER_MAP,
        "workloads": {},
    }
    for w in bench["workloads"]:
        name = w["name"]
        runs = [_run(name, s, bench["run_seconds"], 0) for s in SEEDS]
        e2e = {}
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r, _ in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            e2e[m["name"]] = {
                "unit": m["unit"], "better": m["better"], "bound": m["bound"],
                "n": len(values), "median": median, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / median if median else 0.0}
        samples = [line for line in runs[0][1]
                   if line.startswith(("repetitions", "request_samples",
                                       "setup_samples"))]
        traced, _ = _run(name, SEEDS[0], bench["run_seconds"], 1)
        held, _ = _run(name, HELD_OUT_SEED, bench["run_seconds"], 0)
        out["workloads"][name] = {
            "why": w["why"],
            "seed_argument": SEED_USE[name],
            "correct": all(r["correct"] for r, _ in runs) and traced["correct"],
            "failed": sum(r["failed"] for r, _ in runs) + traced["failed"],
            "held_out": {"correct": held["correct"], "attempted": held["attempted"],
                         "failed": held["failed"]},
            "samples_first_seed": samples,
            "end_to_end": e2e,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    with open(os.path.join(HERE, "baseline.json"), "w", encoding="ascii") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Warm-call timings of the north-star kernels, each at two or more fixed seeded sizes.

Run from the repository root:

    python3 scripts/bench_kernels.py > BENCH_<n>.json
    python3 scripts/bench_kernels.py --before PATH > BENCH_<n>.json

The first form times the ``src`` tree next to this script.  The second
also times the ``src`` tree of the checkout at PATH, with the same inputs,
and reports both sides as ``before`` and ``after``.  Each side runs in a
process of its own, and the two take turns case by case, the side that
goes first alternating too, so a drift of the host's speed falls on both
sides alike.  Every call is made once untimed, so imports and lazy set-up
are done, then ``CALLS`` times; the report gives the median and the
quartiles of those calls in milliseconds.  Inputs come from fixed seeds,
so the two sides see the same values.

The kernels: the grid sum (a union at p=2 and an intersection at
p=0.75, on 2-D operands of 10x10 and 20x20 cells and, as
``grid_sum_suite``, on 1-D and 2-D operands of the default suite's
sizes), the exact envelope
(``staircase_sum_volume_exact`` on the operands of a surface quotient: a
dilated b and the reach lam values), ``box_union_volume`` (the image union
of a 2-D box sum, as the benchmark's ``operators`` workload makes it, and two
unions of 3-D boxes), ``compress``, ``curvilinear_sum_1d``,
``sup_convolve``, ``surface_area_sets``, the recipe behind
``calibrate_grid_constant``, the layered base integral and the density-tag
spot check.  The calibration recipe has one fixed size (3-cell operands),
so it is timed at two seeds instead of two sizes; seed 0 reads a committed
constant and runs nothing.  The layered base integral is timed on a 1-D and
a 2-D profile pair, with the base-sum coefficient cache cleared inside every
call, because each fresh ``curvilin verify`` process starts with it empty.
The spot check is timed on the Lebesgue and the tent density of the
suite's 48x48 density grid.

Beside the kernels, a fixed numpy workload (sort then cumsum of seeded
floats, at two lengths) is timed as ``reference``.  Host speed moves every
timing between two reports; a kernel's time divided by the reference's
can be compared across them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CALLS = 21


def _cases():
    """(kernel, size, call) for every kernel at both of its sizes."""
    from curvilin import curvsum
    from curvilin.curvsum import (
        SumSpec,
        curvilinear_sum_1d,
        curvilinear_sum_boxes,
        curvilinear_sum_grid,
        scalar_dilate,
        staircase_sum_volume_exact,
    )
    from curvilin.funcs import sup_convolve
    from curvilin.means import PowerVector
    from curvilin.measures import (
        DensityMeasure,
        _reach_extras,
        lebesgue,
        surface_area_sets,
        tent_density,
    )
    from curvilin.sets import (
        BoxUnion,
        Grid,
        GridFunction,
        IntervalUnion,
        StaircaseSet,
        box_union_volume,
        compress,
    )
    from curvilin.verify import _calibrate, _layered_base_integral

    def stair(rng, n, dim):
        shape = (n,) * dim
        return StaircaseSet(Grid((0.0,) * dim, 0.25, shape), rng.uniform(0.2, 2.0, shape))

    def spec(dim, lams):
        return SumSpec(2.0, PowerVector((1.0,) * dim), 0.5, lams)

    cases = []
    for n in (1 << 16, 1 << 18):
        x = np.random.default_rng(n).uniform(0.0, 1.0, n)
        cases.append(("reference", f"numpy sort then cumsum of {n} floats",
                      lambda x=x: np.cumsum(np.sort(x))))
    for n in (10, 20):
        rng = np.random.default_rng(n)
        a, b = stair(rng, n, 2), stair(rng, n, 2)
        cases.append(("grid_sum", f"2-D staircases {n}x{n}, p=2, 16 lam",
                      lambda a=a, b=b: curvilinear_sum_grid(a, b, spec(3, 16))))
        cases.append(("grid_sum_intersection", f"2-D staircases {n}x{n}, p=0.75, 16 lam",
                      lambda a=a, b=b: curvilinear_sum_grid(
                          a, b, SumSpec(0.75, PowerVector((1.0,) * 3), 0.5, 16))))
    # suite-sized grid sums (the default suite's median is 40 cell pairs,
    # its largest 1,176): below the run path's size rule, so every lam
    # takes the pair path
    for dim, n in ((1, 6), (1, 24), (2, 3), (2, 5)):
        rng = np.random.default_rng(200 + 10 * dim + n)
        a, b = stair(rng, n, dim), stair(rng, n, dim)
        size = f"{dim}-D staircases of {n ** dim} cells ({n ** (2 * dim)} pairs)"
        cases.append(("grid_sum_suite", f"{size}, p=2, 16 lam",
                      lambda a=a, b=b, dim=dim: curvilinear_sum_grid(a, b, spec(dim + 1, 16))))
        cases.append(("grid_sum_suite_intersection", f"{size}, p=0.75, 16 lam",
                      lambda a=a, b=b, dim=dim: curvilinear_sum_grid(
                          a, b, SumSpec(0.75, PowerVector((1.0,) * (dim + 1)), 0.5, 16))))
    for n in (14, 28):
        # one surface quotient's sum: t-free, b dilated, reach lam values added
        rng = np.random.default_rng(n)
        a, b = stair(rng, n, 1), stair(rng, n, 1)
        s = SumSpec(2.0, PowerVector((1.0, 1.0)), None, 64, coefficient_form="t_free")
        eb = scalar_dilate(2.0**-7, b, s)
        s = s.with_extra_lambdas(_reach_extras(a, eb, s))
        cases.append(("envelope", f"1-D staircases of {n} cells, b dilated by 2^-7, "
                      "p=2, 64 lam and the reach lam values",
                      lambda a=a, eb=eb, s=s: staircase_sum_volume_exact(a, eb, s)))
    # the image union of a 2-D box sum: two 8-box unions at p=2, 16 lam,
    # 1,088 boxes with distinct edges, about 4.7 M occupancy cells
    rng = np.random.default_rng(8)
    operands = []
    for _ in range(2):
        lo = rng.uniform(0.0, 1.5, (8, 2))
        operands.append(BoxUnion(2, np.stack([lo, lo + rng.uniform(0.25, 1.0, (8, 2))], axis=1)))
    u = curvilinear_sum_boxes(*operands, spec(2, 16))
    cases.append(("box_union_volume", f"{len(u.boxes)} boxes in 2-D, the image union "
                  "of two 8-box unions at p=2, 16 lam", lambda u=u: box_union_volume(u)))
    for m in (50, 100):
        lo = np.random.default_rng(m).uniform(0.0, 1.0, size=(m, 3))
        hi = lo + np.random.default_rng(m + 1).uniform(0.05, 0.5, size=(m, 3))
        u = BoxUnion(3, np.stack([lo, hi], axis=1))
        cases.append(("box_union_volume", f"{m} boxes in 3-D",
                      lambda u=u: box_union_volume(u)))
    for n in (10, 20):
        u = stair(np.random.default_rng(n), n, 2).boxes()
        cases.append(("compress", f"{n * n} boxes of a {n}x{n} staircase",
                      lambda u=u: compress(u, 0.25)))
    for m in (6, 12):
        rng = np.random.default_rng(m)
        k, l = (IntervalUnion(np.sort(rng.uniform(0.0, 4.0, 2 * m)).reshape(m, 2))
                for _ in range(2))
        cases.append(("curvilinear_sum_1d", f"{m} intervals each, p=2, 64 lam",
                      lambda k=k, l=l: curvilinear_sum_1d(k, l, spec(1, 64))))
    for n in (8, 16):
        rng = np.random.default_rng(n)
        grid = Grid((0.0, 0.0), 0.25, (n, n))
        f, g = (GridFunction(grid, rng.uniform(0.2, 2.0, (n, n))) for _ in range(2))
        cases.append(("sup_convolve", f"2-D functions {n}x{n}, p=2, 16 lam",
                      lambda f=f, g=g: sup_convolve(f, g, spec(3, 16))))
    for n in (7, 14):
        rng = np.random.default_rng(n)
        a, b = stair(rng, n, 1), stair(rng, n, 1)
        mu = lebesgue(Grid((0.0,), 0.25, (2 * n + 2,)))
        cases.append(("surface_area_sets", f"1-D staircases of {n} cells, p=2, 64 lam",
                      lambda a=a, b=b, mu=mu: surface_area_sets(
                          a, b, mu, 2.0, PowerVector((1.0, 1.0)))))
    for seed in (1, 2):
        cases.append(("calibrate_grid_constant", f"recipe at seed {seed}",
                      lambda seed=seed: _calibrate(seed)))
    # the cache is absent from trees older than it
    clear = getattr(getattr(curvsum, "_base_sum_table", None), "cache_clear", lambda: None)

    def layered(fa, fb):
        clear()
        return _layered_base_integral(fa, fb, 2.0, 0.4, 16)

    for dim, n in ((1, 12), (2, 6)):
        rng = np.random.default_rng(100 + dim)
        grid = Grid((0.0,) * dim, 0.25, (n,) * dim)
        fa, fb = (GridFunction(grid, rng.uniform(0.2, 2.0, (n,) * dim)) for _ in range(2))
        cases.append(("layered_base_integral", f"{dim}-D profiles of {n ** dim} cells, "
                      "p=2, 16 lam", lambda fa=fa, fb=fb: layered(fa, fb)))
    grid = Grid((0.0, 0.0), 0.25, (48, 48))
    for name, mu in (("lebesgue", lebesgue(grid)),
                     ("tent_density", tent_density(grid, (2.0, 2.0), 6.0))):
        cases.append(("density_spot_check", f"{name} on a 48x48 grid",
                      lambda mu=mu: DensityMeasure(mu.density, mu.alpha_concavity)))
    return cases


def _time(call) -> dict:
    """One untimed call, then the median and quartiles of ``CALLS`` timed ones."""
    call()
    times = []
    for _ in range(CALLS):
        t0 = time.perf_counter()
        call()
        times.append(1e3 * (time.perf_counter() - t0))
    q1, med, q3 = np.percentile(times, [25, 50, 75])
    return {"calls": CALLS, "median_ms": round(float(med), 4),
            "q1_ms": round(float(q1), 4), "q3_ms": round(float(q3), 4)}


def _host() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "cpus": os.cpu_count()}


def measure(src: str) -> dict:
    """Timings of every case on the ``src`` tree, in this process."""
    sys.path.insert(0, src)
    kernels: dict = {}
    for kernel, size, call in _cases():
        kernels.setdefault(kernel, []).append({"size": size, **_time(call)})
    return {**_host(), "kernels": kernels}


def serve(src: str) -> None:
    """Time, on the ``src`` tree, the case whose index each stdin line holds.

    The first stdout line lists the cases; each later one holds the
    timings of one requested case, as JSON.
    """
    sys.path.insert(0, src)
    cases = _cases()
    print(json.dumps({**_host(), "cases": [[kernel, size] for kernel, size, _ in cases]}),
          flush=True)
    for line in sys.stdin:
        print(json.dumps(_time(cases[int(line)][2])), flush=True)


def compare(before: str) -> dict:
    """Timings of both trees, taking turns case by case."""
    sides = {}
    for side, checkout in (("before", before), ("after", ROOT)):
        src = os.path.join(os.path.abspath(checkout), "src")
        sides[side] = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--serve", "--src", src],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    report = {side: json.loads(proc.stdout.readline()) for side, proc in sides.items()}
    cases = report["before"].pop("cases")
    if report["after"].pop("cases") != cases:
        raise SystemExit("the two trees list different cases")
    for side in sides:
        report[side]["kernels"] = {}
    for i, (kernel, size) in enumerate(cases):
        for side in ("before", "after") if i % 2 == 0 else ("after", "before"):
            proc = sides[side]
            proc.stdin.write(f"{i}\n")
            proc.stdin.flush()
            timing = json.loads(proc.stdout.readline())
            report[side]["kernels"].setdefault(kernel, []).append({"size": size, **timing})
    for proc in sides.values():
        proc.stdin.close()
        if proc.wait():
            raise SystemExit("a timing process failed")
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--before", help="another checkout, timed as 'before'")
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="the source tree to time in this process")
    parser.add_argument("--serve", action="store_true",
                        help="time the cases whose indices stdin names (used by --before)")
    args = parser.parse_args(argv)
    if args.serve:
        serve(args.src)
        return 0
    report = compare(args.before) if args.before else measure(args.src)
    json.dump(report, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

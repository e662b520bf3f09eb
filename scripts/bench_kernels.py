"""Warm-call timings of the north-star kernels, each at two or more fixed seeded sizes.

Run from the repository root:

    python3 scripts/bench_kernels.py > BENCH_<n>.json
    python3 scripts/bench_kernels.py --before PATH > BENCH_<n>.json

The first form times the ``src`` tree next to this script.  The second
also times the ``src`` tree of the checkout at PATH, with the same inputs,
and reports both sides as ``before`` and ``after``.  Both trees run in
this one process: PATH's package is imported as ``curvilin_before``
beside ``curvilin``, and each case is built on each package.  Every call
is made once untimed per side, so imports and lazy set-up are done, then
``CALLS`` times per side, the two sides taking turns call by call and the
side that goes first alternating too.  A drift of the host's speed, and
whatever the earlier cases left behind (heap, caches), so falls on both
sides alike.  The report gives the median and the quartiles of each
side's calls in milliseconds, and as ``peak_mib`` the peak allocation
that ``tracemalloc`` traces in one more untimed call per side.  Inputs
come from fixed seeds, so the two sides see the same values.

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
The density-tag spot check is timed on the Lebesgue, the tent and the
Gaussian density (its alpha = 0 branch) on 24x24 grids and on 48x48 grids,
the suite's size, each warm and cold: a cold call clears the cache of the
check's seeded draws first, as each fresh ``curvilin verify`` process
meets each of its support sizes once with that cache empty.

Beside the warm in-process calls, the script times ``cli`` cases: one
``curvilin`` command per fresh interpreter, as a user runs it, which shows
what a process pays once (the allocator's state, first-use set-up) and an
in-process call cannot.  The child imports the tree it is given, times its
own ``cli.main`` call and reports the exact ``ru_minflt`` delta around it
as ``minflt``; the two trees take turns process by process.  The cases:
``surface`` at p=2 on 14- and 28-cell staircases, and ``sum`` at p=2 on
10x10 and 20x20 staircases and on the two 8-box unions at 16 lam.

Beside the kernels, a fixed numpy workload (sort then cumsum of seeded
floats, at two lengths) is timed as ``reference``.  Host speed moves every
timing between two reports; a kernel's time divided by the reference's
can be compared across them.
"""

from __future__ import annotations

import argparse
import importlib.util
import inspect
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
import tracemalloc

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CALLS = 21
CLI_CALLS = 11
BEFORE = "curvilin_before"
# a fresh-process case's child: import the tree at argv[1], then time one
# cli.main call on argv[2:] and count the page faults it takes
CHILD = """
import json, resource, sys, time
sys.path.insert(0, sys.argv[1])
from curvilin import cli
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
t0 = time.perf_counter()
status = cli.main(sys.argv[2:])
ms = 1e3 * (time.perf_counter() - t0)
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
print(json.dumps({"file": cli.__file__, "status": status, "ms": ms, "minflt": faults}))
"""


def _box_operands(box_union) -> list:
    """The two seeded 8-box unions in 2-D of the box-sum cases."""
    rng = np.random.default_rng(8)
    operands = []
    for _ in range(2):
        lo = rng.uniform(0.0, 1.5, (8, 2))
        hi = lo + rng.uniform(0.25, 1.0, (8, 2))
        operands.append(box_union(2, np.stack([lo, hi], axis=1)))
    return operands


def _cli_cases(pkg, workdir: str) -> list:
    """(command, size, argv) of every fresh-process case; operands go to ``workdir``."""
    sets = pkg.sets

    def write(name, obj):
        path = os.path.join(workdir, name + ".json")
        with open(path, "w", encoding="ascii") as fh:
            json.dump(obj.to_json(), fh)
        return path

    def stairs(n, dim):
        rng = np.random.default_rng(n)
        grid = sets.Grid((0.0,) * dim, 0.25, (n,) * dim)
        return [write(f"stair{n}_{dim}d_{tag}", sets.StaircaseSet(
            grid, rng.uniform(0.2, 2.0, (n,) * dim))) for tag in "ab"]

    out = os.path.join(workdir, "out.json")
    cases = []
    for n in (14, 28):
        a, b = stairs(n, 1)
        cases.append(("cli_surface", f"1-D staircases of {n} cells, p=2",
                      ["surface", "--a", a, "--b", b, "--p", "2", "--out", out]))
    for n in (10, 20):
        a, b = stairs(n, 2)
        cases.append(("cli_sum", f"2-D staircases {n}x{n}, p=2",
                      ["sum", "--a", a, "--b", b, "--p", "2", "--out", out]))
    a, b = (write(f"boxes8_{tag}", u) for tag, u in zip("ab", _box_operands(sets.BoxUnion)))
    cases.append(("cli_sum", "two 8-box unions in 2-D, p=2, 16 lam",
                  ["sum", "--a", a, "--b", b, "--p", "2", "--lambda-points", "16",
                   "--out", out]))
    return cases


def _cli_call(src: str, argv: list) -> dict:
    """One ``curvilin`` command in a fresh interpreter on the tree at ``src``.

    Returns the child's ``ms`` and ``minflt`` around its ``cli.main`` call.
    """
    proc = subprocess.run([sys.executable, "-c", CHILD, src, *argv],
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{argv[0]} on {src}: exit {proc.returncode}: {proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if not os.path.realpath(result["file"]).startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"{argv[0]}: curvilin imported from {result['file']}, not {src}")
    if result["status"] != 0:
        raise SystemExit(f"{argv[0]} on {src}: status {result['status']}")
    return result


def _cases(pkg):
    """(kernel, size, call) for every kernel at both of its sizes, on package ``pkg``."""
    curvsum, measures, sets = pkg.curvsum, pkg.measures, pkg.sets
    SumSpec, PowerVector = curvsum.SumSpec, pkg.means.PowerVector
    Grid, GridFunction, StaircaseSet = sets.Grid, sets.GridFunction, sets.StaircaseSet

    def stair(rng, n, dim):
        shape = (n,) * dim
        return StaircaseSet(Grid((0.0,) * dim, 0.25, shape), rng.uniform(0.2, 2.0, shape))

    def spec(dim, lams):
        return SumSpec(2.0, PowerVector((1.0,) * dim), 0.5, lams)

    grid_sum = curvsum.curvilinear_sum_grid
    cases = []
    for n in (1 << 16, 1 << 18):
        x = np.random.default_rng(n).uniform(0.0, 1.0, n)
        cases.append(("reference", f"numpy sort then cumsum of {n} floats",
                      lambda x=x: np.cumsum(np.sort(x))))
    for n in (10, 20):
        rng = np.random.default_rng(n)
        a, b = stair(rng, n, 2), stair(rng, n, 2)
        cases.append(("grid_sum", f"2-D staircases {n}x{n}, p=2, 16 lam",
                      lambda a=a, b=b: grid_sum(a, b, spec(3, 16))))
        cases.append(("grid_sum_intersection", f"2-D staircases {n}x{n}, p=0.75, 16 lam",
                      lambda a=a, b=b: grid_sum(
                          a, b, SumSpec(0.75, PowerVector((1.0,) * 3), 0.5, 16))))
    # suite-sized grid sums (the default suite's median is 40 cell pairs,
    # its largest 1,176): below the run path's size rule, so every lam
    # takes the pair path
    for dim, n in ((1, 6), (1, 24), (2, 3), (2, 5)):
        rng = np.random.default_rng(200 + 10 * dim + n)
        a, b = stair(rng, n, dim), stair(rng, n, dim)
        size = f"{dim}-D staircases of {n ** dim} cells ({n ** (2 * dim)} pairs)"
        cases.append(("grid_sum_suite", f"{size}, p=2, 16 lam",
                      lambda a=a, b=b, dim=dim: grid_sum(a, b, spec(dim + 1, 16))))
        cases.append(("grid_sum_suite_intersection", f"{size}, p=0.75, 16 lam",
                      lambda a=a, b=b, dim=dim: grid_sum(
                          a, b, SumSpec(0.75, PowerVector((1.0,) * (dim + 1)), 0.5, 16))))
    for n in (14, 28):
        # one surface quotient's sum: t-free, b dilated, reach lam values added
        rng = np.random.default_rng(n)
        a, b = stair(rng, n, 1), stair(rng, n, 1)
        s = SumSpec(2.0, PowerVector((1.0, 1.0)), None, 64, coefficient_form="t_free")
        eb = curvsum.scalar_dilate(2.0**-7, b, s)
        s = s.with_extra_lambdas(measures._reach_extras(a, eb, s))
        cases.append(("envelope", f"1-D staircases of {n} cells, b dilated by 2^-7, "
                      "p=2, 64 lam and the reach lam values",
                      lambda a=a, eb=eb, s=s: curvsum.staircase_sum_volume_exact(a, eb, s)))
    # the image union of a 2-D box sum: two 8-box unions at p=2, 16 lam,
    # 1,088 boxes with distinct edges, about 4.7 M occupancy cells
    u = curvsum.curvilinear_sum_boxes(*_box_operands(sets.BoxUnion), spec(2, 16))
    cases.append(("box_union_volume", f"{len(u.boxes)} boxes in 2-D, the image union "
                  "of two 8-box unions at p=2, 16 lam", lambda u=u: sets.box_union_volume(u)))
    for m in (50, 100):
        lo = np.random.default_rng(m).uniform(0.0, 1.0, size=(m, 3))
        hi = lo + np.random.default_rng(m + 1).uniform(0.05, 0.5, size=(m, 3))
        u = sets.BoxUnion(3, np.stack([lo, hi], axis=1))
        cases.append(("box_union_volume", f"{m} boxes in 3-D",
                      lambda u=u: sets.box_union_volume(u)))
    for n in (10, 20):
        u = stair(np.random.default_rng(n), n, 2).boxes()
        cases.append(("compress", f"{n * n} boxes of a {n}x{n} staircase",
                      lambda u=u: sets.compress(u, 0.25)))
    for m in (6, 12, 24):
        rng = np.random.default_rng(m)
        k, l = (sets.IntervalUnion(np.sort(rng.uniform(0.0, 4.0, 2 * m)).reshape(m, 2))
                for _ in range(2))
        cases.append(("curvilinear_sum_1d", f"{m} intervals each, p=2, 64 lam",
                      lambda k=k, l=l: curvsum.curvilinear_sum_1d(k, l, spec(1, 64))))
    for n in (8, 16):
        rng = np.random.default_rng(n)
        grid = Grid((0.0, 0.0), 0.25, (n, n))
        f, g = (GridFunction(grid, rng.uniform(0.2, 2.0, (n, n))) for _ in range(2))
        cases.append(("sup_convolve", f"2-D functions {n}x{n}, p=2, 16 lam",
                      lambda f=f, g=g: pkg.funcs.sup_convolve(f, g, spec(3, 16))))
    # trees older than the one-route surface quotient take a density third
    takes_mu = "mu" in inspect.signature(measures.surface_area_sets).parameters
    for n in (7, 14):
        rng = np.random.default_rng(n)
        a, b = stair(rng, n, 1), stair(rng, n, 1)
        density = (measures.lebesgue(Grid((0.0,), 0.25, (2 * n + 2,))),) if takes_mu else ()
        cases.append(("surface_area_sets", f"1-D staircases of {n} cells, p=2, 64 lam",
                      lambda a=a, b=b, density=density: measures.surface_area_sets(
                          a, b, *density, 2.0, PowerVector((1.0, 1.0)))))
    for seed in (1, 2):
        cases.append(("calibrate_grid_constant", f"recipe at seed {seed}",
                      lambda seed=seed: pkg.verify._calibrate(seed)))
    # the cache is absent from trees older than it
    clear = getattr(getattr(curvsum, "_base_sum_table", None), "cache_clear", lambda: None)

    def layered(fa, fb):
        clear()
        return pkg.verify._layered_base_integral(fa, fb, 2.0, 0.4, 16)

    for dim, n in ((1, 12), (2, 6)):
        rng = np.random.default_rng(100 + dim)
        grid = Grid((0.0,) * dim, 0.25, (n,) * dim)
        fa, fb = (GridFunction(grid, rng.uniform(0.2, 2.0, (n,) * dim)) for _ in range(2))
        cases.append(("layered_base_integral", f"{dim}-D profiles of {n ** dim} cells, "
                      "p=2, 16 lam", lambda fa=fa, fb=fb: layered(fa, fb)))
    # the draw cache is absent from trees older than it
    clear_draws = getattr(getattr(measures, "_spot_draws", None), "cache_clear", lambda: None)

    def spot_check(mu, cold):
        if cold:
            clear_draws()
        return measures.DensityMeasure(mu.density, mu.alpha_concavity)

    for n in (24, 48):
        grid = Grid((0.0, 0.0), 0.25, (n, n))
        for name, mu in (("lebesgue", measures.lebesgue(grid)),
                         ("tent_density", measures.tent_density(grid, (2.0, 2.0), 6.0)),
                         ("gaussian_density", measures.gaussian_density(grid, (2.0, 2.0), 1.5))):
            for cold in (False, True):
                cases.append(("density_spot_check", f"{name} on a {n}x{n} grid, "
                              + ("cold (draw cache cleared)" if cold else "warm"),
                              lambda mu=mu, cold=cold: spot_check(mu, cold)))
    return cases


def _import_before(checkout: str):
    """The package of ``checkout``'s src tree, imported as ``curvilin_before``.

    Its modules import each other relatively, so under this second name
    they never reach ``curvilin``.  The name is dropped from
    ``sys.modules`` once the package is loaded, so a later call loads its
    tree afresh; no ``curvilin`` entry is touched.
    """
    pkg_dir = os.path.join(os.path.abspath(checkout), "src", "curvilin")
    spec = importlib.util.spec_from_file_location(
        BEFORE, os.path.join(pkg_dir, "__init__.py"), submodule_search_locations=[pkg_dir])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[BEFORE] = pkg
    try:
        spec.loader.exec_module(pkg)
    finally:
        for name in [n for n in sys.modules if n.split(".")[0] == BEFORE]:
            del sys.modules[name]
    return pkg


def _timing(times: list) -> dict:
    """Count, median and quartiles of ``times`` (ms)."""
    q1, med, q3 = np.percentile(times, [25, 50, 75])
    return {"calls": len(times), "median_ms": round(float(med), 4),
            "q1_ms": round(float(q1), 4), "q3_ms": round(float(q3), 4)}


def _spread(counts: list) -> dict:
    """Median, least and most of ``counts``."""
    return {"median": int(np.median(counts)), "min": min(counts), "max": max(counts)}


def _peak_mib(call) -> float:
    """Peak allocation traced during one ``call()`` (MiB)."""
    tracemalloc.start()
    try:
        call()
        return round(tracemalloc.get_traced_memory()[1] / 2**20, 4)
    finally:
        tracemalloc.stop()


def measure(before: str | None = None) -> dict:
    """Timings of every case on this tree and, if given, on the tree at ``before``.

    Each case: one untimed call per side, one traced for its peak
    allocation per side, then ``CALLS`` rounds of one timed call per side,
    the first side alternating round by round and case by case.  Each
    fresh-process case: ``CLI_CALLS`` rounds of one process per side,
    alternating the same way.  Returns one side's report, or ``before``
    and ``after``.
    """
    import curvilin

    packages = {"after": curvilin}
    if before:
        packages = {"before": _import_before(before), **packages}
    sides = {side: _cases(pkg) for side, pkg in packages.items()}
    listed = [[(kernel, size) for kernel, size, _ in cases] for cases in sides.values()]
    if any(names != listed[0] for names in listed):
        raise SystemExit("the two trees list different cases")
    host = {"python": platform.python_version(), "numpy": np.__version__,
            "cpus": os.cpu_count()}
    report = {side: {**host, "kernels": {}} for side in sides}
    for i, (kernel, size) in enumerate(listed[0]):
        calls = [(side, cases[i][2]) for side, cases in sides.items()]
        times = {side: [] for side in sides}
        for _, call in calls:
            call()
        peaks = {side: _peak_mib(call) for side, call in calls}
        for j in range(CALLS):
            for side, call in calls if (i + j) % 2 == 0 else calls[::-1]:
                t0 = time.perf_counter()
                call()
                times[side].append(1e3 * (time.perf_counter() - t0))
        for side in sides:
            report[side]["kernels"].setdefault(kernel, []).append(
                {"size": size, **_timing(times[side]), "peak_mib": peaks[side]})
    srcs = {"after": os.path.join(ROOT, "src")}
    if before:
        srcs = {"before": os.path.join(os.path.abspath(before), "src"), **srcs}
    with tempfile.TemporaryDirectory() as workdir:
        for i, (command, size, argv) in enumerate(_cli_cases(curvilin, workdir)):
            runs = {side: [] for side in srcs}
            order = list(srcs.items())
            for j in range(CLI_CALLS):
                for side, src in order if (i + j) % 2 == 0 else order[::-1]:
                    runs[side].append(_cli_call(src, argv))
            for side in srcs:
                report[side].setdefault("cli", {}).setdefault(command, []).append(
                    {"size": size, **_timing([r["ms"] for r in runs[side]]),
                     "minflt": _spread([r["minflt"] for r in runs[side]])})
    return report if before else report["after"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--before", help="another checkout, timed as 'before'")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    json.dump(measure(args.before), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

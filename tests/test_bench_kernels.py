"""The kernel timing script runs against the current package."""

import importlib.util
import sys
from pathlib import Path

import curvilin

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_kernels.py"
# six cases of about a millisecond or less, enough to exercise the timing loop
FEW = ("grid_sum_suite_intersection", "density_spot_check")


def _bench():
    spec = importlib.util.spec_from_file_location("bench_kernels", SCRIPT)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


def _loaded():
    return {name: mod for name, mod in sys.modules.items() if name.startswith("curvilin")}


def test_every_bench_case_runs_once():
    cases = _bench()._cases(curvilin)
    # every kernel the script times appears at two sizes or more
    kernels = [kernel for kernel, _, _ in cases]
    assert all(kernels.count(k) >= 2 for k in kernels)
    assert kernels.count("box_union_volume") == 3
    for _, _, call in cases:
        call()


def test_a_a_comparison_times_two_packages_in_this_process(monkeypatch):
    bench = _bench()
    monkeypatch.setattr(bench, "CALLS", 1)
    all_cases, built = bench._cases, []

    def few(pkg):
        built.append(pkg)
        return [case for case in all_cases(pkg) if case[0] in FEW]

    monkeypatch.setattr(bench, "_cases", few)
    # one fresh-process case, the 14-cell surface command
    monkeypatch.setattr(bench, "CLI_CALLS", 1)
    all_cli_cases = bench._cli_cases
    monkeypatch.setattr(bench, "_cli_cases", lambda pkg, workdir: all_cli_cases(pkg, workdir)[:1])
    modules = _loaded()
    report = bench.measure(before=bench.ROOT)
    listed = {side: [(kernel, timing["size"]) for kernel, timings in rep["kernels"].items()
                     for timing in timings] for side, rep in report.items()}
    assert len(listed["after"]) == 6
    assert listed["before"] == listed["after"]
    for side in ("before", "after"):
        for timings in report[side]["kernels"].values():
            assert all(timing["calls"] == bench.CALLS for timing in timings)
            # each case allocates its result at least
            assert all(timing["peak_mib"] > 0 for timing in timings)
        (surface,) = report[side]["cli"]["cli_surface"]
        assert surface["size"] == "1-D staircases of 14 cells, p=2"
        assert surface["calls"] == 1 and surface["median_ms"] > 0
        # every process faults in at least the pages its command touches
        assert surface["minflt"]["min"] > 0
    before, after = built
    assert after is curvilin
    assert before.__name__ == bench.BEFORE
    assert Path(before.__file__) == Path(bench.ROOT) / "src" / "curvilin" / "__init__.py"
    assert before is not curvilin and before.curvsum is not curvilin.curvsum
    # the before tree is loaded beside the tests' modules, never in their place
    assert sys.modules["curvilin"] is curvilin
    assert _loaded() == modules

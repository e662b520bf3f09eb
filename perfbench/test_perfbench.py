"""Tests of the benchmark's own machinery.

    python3 -m pytest perfbench

Not part of the repository's tier-1 suite (``testpaths`` is ``tests``).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path[:0] = [HERE, SRC]

import pytest  # noqa: E402

from curvilin import cli, verify  # noqa: E402

import counters  # noqa: E402
import gate  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _all_bindings() -> dict:
    return {(id(space), key): value for space, key, value in spans.bindings()}


def test_patch_wraps_every_binding_and_restores_them(tmp_path):
    before = _all_bindings()
    originals = spans.layer_functions()
    assert "curvsum.lp_minkowski_sum_base" in originals.values()
    patch = spans.Patch(spans.Recorder(str(tmp_path)))
    try:
        wrappers = set(patch.wrappers.values())
        held = [v for v in _all_bindings().values()]
        assert not [v for v in held if v in originals], "an original is still bound"
        # the re-exports and the kernels imported by other modules are wrapped
        assert verify.lp_minkowski_sum_base in wrappers
        assert verify._CHECK_FNS["bm_curvilinear"] in wrappers
        assert sys.modules["curvilin"].sum_oracle in wrappers
        assert cli.curvilinear_sum_grid in wrappers
    finally:
        patch.remove()
    after = _all_bindings()
    assert not [v for v in after.values() if v in wrappers], "a wrapper is still bound"
    assert after == before


def _run_traced(calls: list[list[str]], proc_dir: str) -> tuple[dict, dict, list]:
    verify._CAL_CACHE.clear()  # as in the fresh process of a repetition
    recorder = spans.Recorder(proc_dir, counters.COUNTERS)
    patch = spans.Patch(recorder)
    try:
        for argv in calls:
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv) == 0
    finally:
        patch.remove()
    rec = spans.combine([recorder.snapshot(), spans.merge_workers(proc_dir)])
    return ({k: v[0] for k, v in rec["stats"].items()}, rec["counts"],
            rec["requests"])


def _small_manifest(path) -> str:
    manifest = {"suite": "small", "seed": 0, "checks": [
        {"check": "refinement", "count": 2, "seed": 0},
        {"check": "compression_monotone", "count": 3, "seed": 0},
        {"check": "bm_curvilinear", "count": 3, "seed": 0},
        {"check": "minkowski_first", "count": 1, "seed": 0},
    ]}
    path.write_text(json.dumps(manifest))
    return str(path)


@pytest.mark.parametrize("workers", [1, 2])
def test_two_traced_runs_give_identical_counts(tmp_path, workers):
    manifest = _small_manifest(tmp_path / "manifest.json")
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    calls = [a for a in workloads.build("operators", 3, str(inputs))
             if a[0] != "compress"]
    calls.append(["verify", "--suite", manifest, "--workers", str(workers),
                  "--out", "{out}/verify"])
    runs = []
    for k in range(2):
        out = tmp_path / f"run{k}"
        (out / "proc").mkdir(parents=True)
        argv = [[a.replace("{out}", str(out)) for a in c] for c in calls]
        runs.append(_run_traced(argv, str(out / "proc")))
    (calls0, counts0, req0), (calls1, counts1, req1) = runs
    assert calls0 == calls1
    assert counts0 == counts1
    # forked pool workers report every check run back to the parent
    assert len(req0) == len(req1) == 9
    assert counts0["curvsum.lp_minkowski_sum_base.pairs"] > 0
    assert counts0["curvsum.curvilinear_sum_grid.cell_pairs"] > 0
    assert counts0["sets.box_union_volume.occupancy_cells"] > 0


def test_gate_tolerances():
    rows = [["bbl", 0, "pass", 1.0, 0.5, 0.5]]
    assert gate.bad_report_rows(rows, [["bbl", 0, "pass", 1.0 + 1e-14, 0.5, 0.5]]) == set()
    assert gate.bad_report_rows(rows, [["bbl", 0, "pass", 1.0 + 1e-9, 0.5, 0.5]]) == {0}
    assert gate.bad_report_rows(rows, [["bbl", 0, "refine", 1.0, 0.5, 0.5]]) == {0}
    assert gate.bad_report_rows(rows, []) == {0}
    ref = {"volume": 2.0}
    assert gate.fields_match(ref, {"volume": 2.0 * (1 + 1e-13)})
    assert not gate.fields_match(ref, {"volume": 2.0 * (1 + 1e-10)})
    surf = {"estimate": 3.0, "trend": "monotone", "unsettled": False,
            "quotients": [3.0, 3.1]}
    assert gate.fields_match(surf, dict(surf, quotients=[3.0 * (1 + 1e-10), 3.1]))
    assert not gate.fields_match(surf, dict(surf, unsettled=True))


def test_memory_cap_records_a_failed_call(tmp_path):
    # two 5-box 3-D unions at the default 64 lam: a dense occupancy grid of
    # tens of GiB, refused by the address-space limit before it is touched
    boxes = {"dim": 3, "boxes": [
        {"lo": [0.1 * i, 0.13 * i, 0.17 * i],
         "hi": [0.1 * i + 0.7, 0.13 * i + 0.9, 0.17 * i + 1.1]} for i in range(5)]}
    a = tmp_path / "a.json"
    a.write_text(json.dumps(boxes))
    proc = tmp_path / "proc"
    proc.mkdir()
    job = {"src": SRC, "mem_limit_bytes": 1 << 30, "trace": False,
           "proc_dir": str(proc), "result": str(tmp_path / "result.json"),
           "calls": [["sum", "--a", str(a), "--b", str(a),
                      "--p", "2", "--out", str(tmp_path / "out.json")]]}
    (tmp_path / "job.json").write_text(json.dumps(job))
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "rep.py"), str(tmp_path / "job.json")],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr
    call = json.loads((tmp_path / "result.json").read_text())["calls"][0]
    assert call["status"] is None
    assert call["error"].startswith("MemoryError")


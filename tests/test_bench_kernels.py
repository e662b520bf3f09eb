"""The kernel timing script runs against the current package."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_kernels.py"


def test_every_bench_case_runs_once():
    spec = importlib.util.spec_from_file_location("bench_kernels", SCRIPT)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    cases = bench._cases()
    # every kernel the script times appears at two sizes or more
    kernels = [kernel for kernel, _, _ in cases]
    assert all(kernels.count(k) >= 2 for k in kernels)
    assert kernels.count("box_union_volume") == 3
    for _, _, call in cases:
        call()

"""Record the reference outputs that the correctness gate compares against.

    python3 perfbench/record.py

Runs every workload pass once with the checkout's ``src`` -- the suite
once, since its reports do not depend on the benchmark seed, and the
surface and operator passes for each input seed -- and rewrites
``perfbench/reference/*.json``.  Run it only on a commit whose outputs are
the accepted ones; the files in the repository were recorded this way.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from curvilin import cli  # noqa: E402

import gate  # noqa: E402
import workloads  # noqa: E402


def run_pass(calls: list[list[str]], out: str) -> dict:
    """Run one pass quietly; return {output file name: path}."""
    outputs = {}
    for argv in calls:
        argv = [a.replace("{out}", out) for a in argv]
        with contextlib.redirect_stdout(io.StringIO()):
            status = cli.main(argv)
        if status != 0:
            raise SystemExit(f"record: {argv} exited {status}")
        path = argv[argv.index("--out") + 1]
        outputs[os.path.basename(path)] = path
    return outputs


def main() -> int:
    os.makedirs(gate.REFERENCE_DIR, exist_ok=True)
    refs = {}
    with tempfile.TemporaryDirectory() as tmp:
        calls = workloads.build("suite", 0, tmp)
        out = run_pass(calls, tmp)
        refs["suite"] = {"reports": gate.report_rows(
            os.path.join(out["verify"], "reports.jsonl"))}
        for workload in ("surface", "operators"):
            refs[workload] = {}
            for seed in range(workloads.INPUT_SEEDS):
                calls = workloads.build(workload, seed, tmp)
                out = run_pass(calls, tmp)
                refs[workload][str(seed)] = {
                    name: gate.output_fields(path) for name, path in out.items()}
                print(f"record: {workload} input seed {seed}", file=sys.stderr)
    for name, ref in refs.items():
        with open(os.path.join(gate.REFERENCE_DIR, name + ".json"), "w",
                  encoding="ascii") as fh:
            json.dump(ref, fh, indent=0, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Benchmark of the ``curvilin`` CLI: end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its
``src`` directory.  The workloads and why each was chosen are described in
``workloads.py``; ``BENCHMARK.json`` lists the metrics and their units.

A closed loop runs one repetition at a time, each in a fresh process
(``rep.py``) under an address-space limit, until ``--seconds`` have passed.
With ``--trace 0`` every repetition is untraced and the end-to-end metrics
are reported.  With ``--trace 1`` untraced and traced repetitions
alternate; the traced ones wrap every layer function (``spans.py``) and
give the per-layer metrics, the untraced ones the tracing overhead.

The correctness gate runs after the timed loop: every output is compared
with the recorded references (``gate.py``) and with the first
repetition's output byte for byte (traced outputs included); on ``suite``
one more, untimed pass at workers=2 runs the process pool, and its reports
must be byte-identical too.  Two oracles run on seeded inputs
(``oracles.py``).  Every mismatch, failed verdict, nonzero
exit or exception counts as a failed request; none stops the run.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Without ``src/curvilin`` the
script exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import counters
import gate
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench")

MEM_LIMIT_BYTES = 3 << 30
SETUP_SAMPLES = 15
RUN_DEADLINE_S = 165.0  # whole run, gate included; the contract allows 180
REPORTS = os.path.join("verify", "reports.jsonl")
# what reading a damaged output file raises; the gate counts it as a failure
UNREADABLE = (OSError, ValueError, KeyError, IndexError, TypeError)


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _merge(res: dict) -> dict:
    """Span record of one repetition: parent and pool workers summed."""
    return spans.combine([res["own"], res["workers"]])


def _lines(p: dict, name: str) -> list[bytes] | None:
    path = os.path.join(p["out"], name)
    if not os.path.exists(path):
        return None
    with open(path, "rb") as fh:
        return fh.read().splitlines()


class Run:
    """One benchmark invocation: repetitions, gate and metrics."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool,
                 workdir: str):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.workdir = workdir
        self.start = time.perf_counter()
        self.is_suite = workload == "suite"
        inputs = os.path.join(workdir, "inputs")
        os.makedirs(inputs)
        self.calls = workloads.build(workload, seed, inputs)
        ref = gate.load_reference(workload)
        self.ref = ref if self.is_suite else ref[str(seed % workloads.INPUT_SEEDS)]
        self.passes: list[dict] = []
        self.pool_pass: dict | None = None
        self.import_s: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self._jobs = 0

    def _fail(self, count: int, why: str) -> None:
        self.failed += count
        self.notes.append(why)

    # -- repetitions --------------------------------------------------------

    def _rep(self, job: dict) -> dict | None:
        """Run one repetition process; None if it crashed or timed out."""
        self._jobs += 1
        tag = os.path.join(self.workdir, f"job{self._jobs}")
        job.update(src=SRC, mem_limit_bytes=MEM_LIMIT_BYTES,
                   result=tag + ".result.json")
        with open(tag + ".json", "w", encoding="ascii") as fh:
            json.dump(job, fh)
        env = dict(os.environ, PYTHONPATH=SRC)
        timeout = RUN_DEADLINE_S - (time.perf_counter() - self.start)
        if timeout <= 0:
            self.notes.append(f"job{self._jobs}: not started, out of time")
            return None
        with open(tag + ".stderr", "w+", encoding="utf-8") as err:
            proc = subprocess.Popen(
                [sys.executable, os.path.join(HERE, "rep.py"), tag + ".json"],
                cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=err,
                start_new_session=True)
            try:
                proc.wait(timeout=timeout)
            except BaseException as exc:  # a timeout, or this run being stopped
                os.killpg(proc.pid, signal.SIGKILL)  # pool workers too
                proc.wait()
                if not isinstance(exc, subprocess.TimeoutExpired):
                    raise
                self.notes.append(f"job{self._jobs}: killed after {timeout:.0f} s")
                return None
            if proc.returncode != 0 or not os.path.exists(job["result"]):
                err.seek(0)
                tail = " | ".join(err.read().strip().splitlines()[-3:])
                self.notes.append(f"job{self._jobs}: exit {proc.returncode}: {tail}")
                return None
        with open(job["result"], encoding="ascii") as fh:
            result = json.load(fh)
        self.import_s.append(result["import_s"])
        return result

    def _pass(self, calls: list[list[str]], traced: bool, pool: bool = False) -> dict:
        out = os.path.join(self.workdir, f"pass{len(self.passes)}")
        proc_dir = os.path.join(out, "proc")
        os.makedirs(proc_dir)
        job = {"calls": [[a.replace("{out}", out) for a in argv] for argv in calls],
               "trace": traced, "proc_dir": proc_dir}
        p = {"traced": traced, "pool": pool, "out": out, "result": self._rep(job)}
        self.passes.append(p)
        return p

    def measure(self) -> None:
        """Closed loop of repetitions for --seconds, then set-up samples."""
        while True:
            round_start = time.perf_counter()
            for traced in ((False, True) if self.trace else (False,)):
                self._pass(self.calls, traced)
            now = time.perf_counter()
            # stop before a round that would likely end past --seconds
            if now + (now - round_start) - self.start > self.seconds:
                break
        # every repetition is a fresh process, so each one timed its import;
        # import-only processes top the samples up
        while len(self.import_s) < SETUP_SAMPLES:
            if self._rep({"calls": [], "trace": False, "proc_dir": self.workdir}) is None:
                break

    # -- correctness gate ---------------------------------------------------

    def check(self) -> None:
        import oracles

        first = next((p for p in self.passes if p["result"]), None)
        if self.is_suite:
            parallel = [["2" if i and argv[i - 1] == "--workers" else a
                         for i, a in enumerate(argv)] for argv in self.calls]
            self.pool_pass = self._pass(parallel, traced=False, pool=True)
        for p in self.passes:
            if self.is_suite:
                self._check_suite(p, first)
            else:
                self._check_calls(p, first)
        expected = 2 * oracles.CASES
        self.attempted += expected
        result = self._rep({"oracles": self.seed})
        if result is None:
            self._fail(expected, "oracles did not run")
            return
        for case in result["oracles"]:
            if not case["ok"]:
                self._fail(1, f"oracle {case['name']}: {case['detail']}")

    def _check_suite(self, p: dict, first: dict | None) -> None:
        expected = len(self.ref["reports"])
        self.attempted += expected
        tag = "workers=2 pass" if p["pool"] else os.path.basename(p["out"])
        lines = _lines(p, REPORTS) if p["result"] else None
        if lines is None:
            self._fail(expected, f"{tag}: no reports")
            return
        try:
            rows = gate.report_rows(os.path.join(p["out"], REPORTS))
            bad = gate.bad_report_rows(self.ref["reports"], rows)
        except UNREADABLE as exc:
            self._fail(expected, f"{tag}: unreadable reports: {exc!r}")
            return
        bad |= {i for i, row in enumerate(rows) if row[2] == "fail"}
        first_lines = _lines(first, REPORTS) if first else None
        if first_lines is not None:
            bad |= {i for i in range(max(len(lines), len(first_lines)))
                    if i >= len(lines) or i >= len(first_lines)
                    or lines[i] != first_lines[i]}
        if bad:
            self._fail(min(len(bad), expected),
                       f"{tag}: report lines {sorted(bad)[:8]} failed or differ")
        call = p["result"]["calls"][0]
        if call["status"] != 0 or call["error"]:
            self._fail(0 if bad else 1, f"{tag}: verify returned "
                       f"{call['error'] or call['status']}")
        timed = len(_merge(p["result"])["requests"])
        if timed != expected:
            self.notes.append(f"{tag}: {timed} check runs timed, {expected} expected")

    def _check_calls(self, p: dict, first: dict | None) -> None:
        self.attempted += len(self.calls)
        tag = os.path.basename(p["out"])
        for i, argv in enumerate(self.calls):
            name = os.path.basename(argv[argv.index("--out") + 1])
            call = p["result"]["calls"][i] if p["result"] else None
            if call is None or call["status"] != 0 or call["error"]:
                why = "no result" if call is None else call["error"] or call["status"]
                self._fail(1, f"{tag} {argv[0]} {name}: {why}")
                continue
            try:
                same = gate.fields_match(
                    self.ref[name], gate.output_fields(os.path.join(p["out"], name)))
            except UNREADABLE as exc:
                self._fail(1, f"{tag} {name}: unreadable output: {exc!r}")
                continue
            if not same:
                self._fail(1, f"{tag} {name}: differs from the reference")
            elif first and _lines(first, name) != _lines(p, name):
                self._fail(1, f"{tag} {name}: differs from the first pass")

    # -- metrics ------------------------------------------------------------

    def _done(self, traced: bool) -> list[dict]:
        return [p["result"] for p in self.passes
                if p["traced"] == traced and p["result"] and not p["pool"]]

    def end_to_end(self) -> tuple[dict, dict]:
        reps = self._done(False)
        if self.is_suite:
            requests = [r for res in reps for r in _merge(res)["requests"]]
            samples = [r[0] for r in requests]
            decided = [r[2] in ("pass", "fail") for r in requests]
        else:
            samples = [c["s"] for res in reps for c in res["calls"]]
            decided = [c["status"] == 0 for res in reps for c in res["calls"]]
        metrics = {
            "setup_s": _median(self.import_s),
            "wall_s": _median([res["wall_s"] for res in reps]),
            "run_p50_ms": 1e3 * _median(samples),
            "run_p90_ms": (1e3 * statistics.quantiles(samples, n=10)[8]
                           if len(samples) > 1 else 1e3 * _median(samples)),
            "peak_rss_mb": _median([res["peak_rss_mb"] for res in reps]),
            "decided_share": sum(decided) / len(decided) if decided else 0.0,
        }
        info = {"repetitions": len(reps),
                "wall_s_each": [round(res["wall_s"], 4) for res in reps],
                "request_samples": len(samples),
                "setup_samples": len(self.import_s)}
        return metrics, info

    def per_layer(self, listed: list[str]) -> tuple[dict, dict]:
        traced = self._done(True)
        plain = self._done(False)
        info = {"wall_s_each": [round(res["wall_s"], 4) for res in plain],
                "traced_wall_s_each": [round(res["wall_s"], 4) for res in traced]}
        if not traced:
            return {}, info
        merged = [(rec["stats"], rec["counts"]) for rec in map(_merge, traced)]
        stats0, counts0 = merged[0]
        calls0 = {k: v[0] for k, v in stats0.items()}
        if any({k: v[0] for k, v in stats.items()} != calls0 or counts != counts0
               for stats, counts in merged[1:]):
            self.notes.append("traced repetitions disagree on call counts")
        metrics: dict[str, float] = dict(counts0)
        for name, stat in stats0.items():
            metrics[name + ".calls"] = stat[0]
            for i, suffix in ((1, ".self_s"), (2, ".total_s")):
                metrics[name + suffix] = _median([s[name][i] for s, _ in merged])
        shown = {m.rsplit(".", 1)[0] for m in listed if m.endswith(".self_s")}
        metrics["other.self_s"] = _median(
            [sum(v[1] for k, v in stats.items() if k not in shown)
             for stats, _ in merged])
        for name, (num, den) in counters.RATIOS.items():
            if counts0.get(den):
                metrics[name] = counts0.get(num, 0) / counts0[den]
        levels = [r[1] for r in _merge(traced[0])["requests"]]
        for level in range(3):
            metrics[f"verify.level{level}"] = levels.count(level)
        # pool figures come from the untraced workers=2 pass, read in the parent
        pool = self.pool_pass["result"] if self.pool_pass else None
        if pool:
            cpu = pool["children_cpu_s"]
            metrics["verify.pool_cpu_s"] = cpu
            metrics["verify.pool_idle_share"] = 1.0 - cpu / (2 * pool["wall_s"])
        wall = _median([res["wall_s"] for res in plain])
        if wall:
            metrics["trace_overhead_share"] = (
                _median([res["wall_s"] for res in traced]) / wall - 1.0)
        metrics["trace.root_share"] = _median(
            [res["own"]["root_s"] / res["span_clock_s"] for res in traced])
        return metrics, info


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # a stopped run still kills its repetition and removes its work files
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(SRC, "curvilin", "__init__.py")):
        print("perfbench: no src/curvilin package in this checkout", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as fh:
        bench = json.load(fh)
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    try:
        run = Run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
        run.measure()
        run.check()
        listed = bench["per_layer" if args.trace else "end_to_end"]
        if args.trace:
            values, info = run.per_layer([m["name"] for m in listed])
        else:
            values, info = run.end_to_end()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = {m["name"]: m["unit"] for m in listed}
    for name in sorted(values):
        print(f"{name} = {values[name]:.6g} {units.get(name, '')}".rstrip())
    for key, value in info.items():
        print(f"{key} = {value}")
    failed = min(run.failed, run.attempted)
    print(f"attempted = {run.attempted}, failed = {failed}, "
          f"fail_share = {failed / max(run.attempted, 1):.6g}")
    for note in run.notes[:20]:
        print(f"failure: {note}")
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
               for m in listed}
    print(json.dumps({"correct": not run.notes, "attempted": run.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

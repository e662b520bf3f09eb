"""One repetition: a fresh process that imports curvilin and runs one pass.

    python3 perfbench/rep.py JOB_JSON

The job file names the checkout's ``src`` directory, the pass's command
lines, whether to trace, an address-space limit and the result path.  The
limit is set before anything is imported, and forked pool workers inherit
it, so a path that tries to allocate a huge dense grid fails with
MemoryError and is recorded as a failed call instead of exhausting the
machine.  ``run.py`` starts this script; it is not meant to be run by hand.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


def _run_calls(main, calls, clock) -> tuple[list[dict], float, float]:
    """Run the pass; return call records, wall seconds and span-clock seconds.

    Call and wall times are real time, tracing cost included.  The pass is
    also timed on the recorder's clock, which leaves out counter time as
    the spans do, so that root-span coverage compares like with like.
    """
    records = []
    start, span_start = time.perf_counter(), clock()
    for argv in calls:
        t0 = time.perf_counter()
        try:
            status, error = main(argv), None
        except Exception as exc:  # a failed call is recorded, not fatal
            status, error = None, f"{type(exc).__name__}: {exc}"
        records.append({"s": time.perf_counter() - t0, "status": status,
                        "error": error})
    return records, time.perf_counter() - start, clock() - span_start


def main(job_path: str) -> int:
    with open(job_path, encoding="ascii") as fh:
        job = json.load(fh)
    limit = int(job["mem_limit_bytes"])
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    t0 = time.perf_counter()
    import curvilin
    import_s = time.perf_counter() - t0
    src = os.path.realpath(job["src"])
    if not os.path.realpath(curvilin.__file__).startswith(src + os.sep):
        print(f"rep: curvilin imported from {curvilin.__file__}, not {src}",
              file=sys.stderr)
        return 2

    import counters
    import spans
    from curvilin import cli

    result = {"import_s": import_s}
    if job.get("oracles") is not None:
        import oracles

        result["oracles"] = oracles.run(int(job["oracles"]))
    else:
        recorder = spans.Recorder(job["proc_dir"], counters.COUNTERS)
        # untraced passes wrap only the check-run boundary, to time requests
        patch = spans.Patch(recorder, None if job["trace"] else {spans.REQUEST})
        try:
            result["calls"], result["wall_s"], result["span_clock_s"] = _run_calls(
                cli.main, job["calls"], recorder.clock)
        finally:
            patch.remove()
        me = resource.getrusage(resource.RUSAGE_SELF)
        kids = resource.getrusage(resource.RUSAGE_CHILDREN)
        result.update(
            # own peak plus the largest pool worker's peak (ru_maxrss is KiB)
            peak_rss_mb=(me.ru_maxrss + kids.ru_maxrss) / 1024.0,
            children_cpu_s=kids.ru_utime + kids.ru_stime,
            own=recorder.snapshot(),
            workers=spans.merge_workers(job["proc_dir"]),
        )
    tmp = job["result"] + ".tmp"
    with open(tmp, "w", encoding="ascii") as fh:
        json.dump(result, fh)
    os.replace(tmp, job["result"])
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))

"""Span recorder that wraps curvilin's public functions from the outside.

The program has no tracing of its own, so every layer boundary is a
wrapper installed over a module binding.  ``verify``, ``measures``,
``funcs`` and ``cli`` bind kernels with ``from .curvsum import ...``, so a
wrapper is installed on *every* binding of an original: each curvilin
module's globals, the package namespace, and module-level dict values
(``verify._CHECK_FNS``).  ``remove`` puts every original back.

A span's self time is its duration minus the time its child spans cover.
Boundary counters (``counters.COUNTERS``) are computed from arguments and
results after the span closes; the time they take is subtracted from the
recorder's clock so it lands in no span.

Pool workers are forked from a traced process, so they inherit the
wrappers.  After a fork the recorder starts empty in the child and
appends what each of its root spans recorded to ``proc-<pid>.jsonl`` in
``proc_dir``; the parent merges those files with ``merge_workers``.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
import types

# modules whose public functions are layers; means, reports and errors
# are not wrapped, so their time counts in their callers' self time
LAYERS = ("cli", "verify", "curvsum", "sets", "funcs", "measures")
REQUEST = "verify.run_check_refined"


def layer_functions() -> dict:
    """Original public function -> span name, for every layer module."""
    found = {}
    for short in LAYERS:
        mod = sys.modules[f"curvilin.{short}"]
        for name, value in vars(mod).items():
            if (isinstance(value, types.FunctionType)
                    and value.__module__ == mod.__name__
                    and not name.startswith("_")):
                found[value] = f"{short}.{name}"
    return found


def bindings():
    """(namespace dict, key, value) for every function a curvilin module holds."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "curvilin"
                               or modname.startswith("curvilin.")):
            continue
        for key, value in list(vars(mod).items()):
            if isinstance(value, types.FunctionType):
                yield vars(mod), key, value
            elif isinstance(value, dict):
                for k, v in list(value.items()):
                    if isinstance(v, types.FunctionType):
                        yield value, k, v


class Recorder:
    """Per-process span statistics, boundary counts and request samples.

    ``stats`` maps a span name to [calls, self seconds, total seconds];
    ``requests`` holds [seconds, refine level, verdict] per check run.
    """

    def __init__(self, proc_dir: str, counters: dict | None = None):
        self.proc_dir = proc_dir
        self.counters = counters or {}
        self.skew = 0.0
        self.paused = False
        self.worker = False
        self._reset()
        os.register_at_fork(after_in_child=self.forked)

    def _reset(self) -> None:
        self.stack: list[list[float]] = []
        self.stats: dict[str, list] = {}
        self.counts: dict[str, float] = {}
        self.requests: list[list] = []
        self.root_s = 0.0

    def clock(self) -> float:
        """perf_counter minus the time spent computing counters."""
        return time.perf_counter() - self.skew

    def forked(self) -> None:
        self._reset()
        self.worker = True

    def wrap(self, name: str, fn):
        counter = self.counters.get(name)
        binder = inspect.signature(fn).bind if counter else None

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            frame = [self.clock(), 0.0]
            self.stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.stack.pop()
                dur = self.clock() - frame[0]
                st = self.stats.get(name)
                if st is None:
                    st = self.stats[name] = [0, 0.0, 0.0]
                st[0] += 1
                st[1] += dur - frame[1]
                st[2] += dur
                if self.stack:
                    self.stack[-1][1] += dur
                else:
                    self.root_s += dur
            t0 = time.perf_counter()
            if name == REQUEST:
                self.requests.append(
                    [dur, int(result.params.get("level", 0)), result.verdict])
            if counter:
                self.paused = True
                try:
                    bound = binder(*args, **kwargs)
                    bound.apply_defaults()
                    for key, inc in counter(bound.arguments, result).items():
                        self.counts[key] = self.counts.get(key, 0) + inc
                finally:
                    self.paused = False
            if self.worker and not self.stack:
                self._flush()
            self.skew += time.perf_counter() - t0
            return result

        return span

    def _flush(self) -> None:
        path = os.path.join(self.proc_dir, f"proc-{os.getpid()}.jsonl")
        with open(path, "a", encoding="ascii") as fh:
            fh.write(json.dumps(self.snapshot()) + "\n")
        self._reset()

    def snapshot(self) -> dict:
        return {"stats": self.stats, "counts": self.counts,
                "requests": self.requests, "root_s": self.root_s}


class Patch:
    """Wrappers installed over every binding; ``remove`` restores them."""

    def __init__(self, recorder: Recorder, names: set[str] | None = None):
        """Wrap every layer function, or only those whose span name is in ``names``."""
        originals = {fn: label for fn, label in layer_functions().items()
                     if names is None or label in names}
        self.wrappers = {fn: recorder.wrap(label, fn)
                         for fn, label in originals.items()}
        self.undo: list[tuple[dict, str, object]] = []
        for space, key, value in bindings():
            wrapper = self.wrappers.get(value)
            if wrapper is not None:
                space[key] = wrapper
                self.undo.append((space, key, value))

    def remove(self) -> None:
        for space, key, value in reversed(self.undo):
            space[key] = value
        self.undo = []


def combine(records) -> dict:
    """Sum span records (``stats``, ``counts``, ``requests``) into one."""
    total = {"stats": {}, "counts": {}, "requests": []}
    for rec in records:
        for name, values in rec["stats"].items():
            st = total["stats"].setdefault(name, [0, 0.0, 0.0])
            for i, v in enumerate(values):
                st[i] += v
        for key, inc in rec["counts"].items():
            total["counts"][key] = total["counts"].get(key, 0) + inc
        total["requests"].extend(rec["requests"])
    return total


def merge_workers(proc_dir: str) -> dict:
    """Sum what forked pool workers appended to ``proc_dir``."""
    records = []
    for fname in sorted(os.listdir(proc_dir)):
        if fname.startswith("proc-"):
            with open(os.path.join(proc_dir, fname), encoding="ascii") as fh:
                records.extend(json.loads(line) for line in fh)
    return combine(records)

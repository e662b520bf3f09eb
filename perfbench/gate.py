"""Correctness gate: compare a pass's outputs with the recorded references.

References live in ``perfbench/reference`` and were recorded from the
program by ``record.py``.  Verdicts, trends and flags must match exactly;
``lhs``, ``rhs``, ``slack`` and operator volumes must agree to 1e-12
relative.  A surface quotient divides a volume difference by eps >= 2^-10,
which magnifies a 1e-12 volume error up to 1024 times, so quotients get
that much more room.
"""

from __future__ import annotations

import json
import math
import os

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")
REL_TOL = 1e-12
QUOTIENT_TOL = REL_TOL * 1024


def close(ref: float, got: float, tol: float = REL_TOL) -> bool:
    """Equal within ``tol`` relative; infinities must match exactly."""
    if math.isinf(ref) or math.isinf(got):
        return ref == got
    return abs(ref - got) <= tol * max(abs(ref), abs(got), 1e-300)


def load_reference(workload: str) -> dict:
    with open(os.path.join(REFERENCE_DIR, workload + ".json"), encoding="ascii") as fh:
        return json.load(fh)


def report_rows(path: str) -> list[list]:
    """[check, seed, verdict, lhs, rhs, slack] per line of a reports.jsonl."""
    rows = []
    with open(path, encoding="ascii") as fh:
        for line in fh:
            r = json.loads(line)
            rows.append([r["check"], r["seed"], r["verdict"],
                         r["lhs"], r["rhs"], r["slack"]])
    return rows


def bad_report_rows(ref_rows: list, rows: list) -> set[int]:
    """Indices of report lines that differ from the reference."""
    bad = {i for i in range(len(ref_rows), len(rows))}
    for i, ref in enumerate(ref_rows):
        if i >= len(rows):
            bad.add(i)
            continue
        got = rows[i]
        if got[:3] != ref[:3] or not all(
                close(r, g) for r, g in zip(ref[3:], got[3:])):
            bad.add(i)
    return bad


def payload_fields(payload: dict) -> dict:
    """The fields of a CLI output payload that the gate compares."""
    kind = payload["kind"]
    if kind == "surface":
        return {"estimate": payload["estimate"], "trend": payload["trend"],
                "unsettled": payload["unsettled"],
                "quotients": [q for _, q in payload["quotients"]]}
    if kind == "convolution":
        return {"integral": payload["integral"]}
    if kind == "compression":
        return {"volume": payload["volume"],
                "source_volume": payload["source_volume"]}
    return {"volume": payload["volume"]}


def fields_match(ref: dict, got: dict) -> bool:
    if ref.keys() != got.keys():
        return False
    for key, r in ref.items():
        g = got[key]
        if key == "quotients":
            if len(r) != len(g) or not all(
                    close(a, b, QUOTIENT_TOL) for a, b in zip(r, g)):
                return False
        elif key == "estimate":
            if not close(r, g, QUOTIENT_TOL):
                return False
        elif isinstance(r, (bool, str)):
            if r != g:
                return False
        elif not close(r, g):
            return False
    return True


def output_fields(path: str) -> dict:
    with open(path, encoding="ascii") as fh:
        return payload_fields(json.load(fh))

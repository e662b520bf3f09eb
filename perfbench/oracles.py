"""Independent oracles on small seeded inputs, part of the correctness gate.

* ``curvsum.sum_oracle`` (scalar loops) against ``curvilinear_sum_grid``
  on tiny staircases, cell for cell on the same output grid.
* ``sets.box_union_volume_ie`` (inclusion-exclusion) against
  ``box_union_volume`` on unions of at most 12 boxes.  Corners sit on a
  quarter grid, so every inclusion-exclusion term is exact.

Runs inside a repetition process (``rep.py``), under its memory limit.
"""

from __future__ import annotations

import numpy as np

from curvilin.curvsum import SumSpec, curvilinear_sum_grid, sum_oracle
from curvilin.means import PowerVector
from curvilin.sets import (
    BoxUnion, Grid, StaircaseSet, box_union_volume, box_union_volume_ie,
)

from gate import REL_TOL, close

CASES = 4


def _grid_case(rng, dim: int) -> dict:
    shape = tuple(int(rng.integers(2, 5 if dim == 1 else 3)) for _ in range(dim))
    a, b = (StaircaseSet(Grid((0.0,) * dim, 0.25, shape),
                         rng.uniform(0.2, 2.0, size=shape)) for _ in range(2))
    p = float(rng.choice([1.0, 1.5, 2.0]))
    alphas = tuple(float(x) for x in rng.uniform(0.3, 1.0, size=dim + 1))
    if dim > 1:
        alphas = (1.0,) * dim + alphas[-1:]
    spec = SumSpec(p, PowerVector(alphas), float(rng.uniform(0.25, 0.75)), 9)
    fast = curvilinear_sum_grid(a, b, spec)
    slow = sum_oracle(a, b, spec, out_grid=fast.grid)
    ok = bool(np.all(np.abs(fast.heights - slow.heights)
                     <= REL_TOL * np.maximum(np.abs(slow.heights), 1e-300)))
    return {"name": f"sum_oracle/{dim}d", "ok": ok,
            "detail": [fast.volume, slow.volume]}


def _box_case(rng, dim: int) -> dict:
    boxes = []
    for _ in range(int(rng.integers(6, 13))):
        lo = rng.integers(0, 12, size=dim) * 0.25
        hi = lo + rng.integers(1, 6, size=dim) * 0.25
        boxes.append((tuple(map(float, lo)), tuple(map(float, hi))))
    u = BoxUnion(dim, tuple(boxes))
    fast, slow = box_union_volume(u), box_union_volume_ie(u)
    return {"name": f"box_union_volume_ie/{dim}d", "ok": close(fast, slow),
            "detail": [fast, slow]}


def run(seed: int) -> list[dict]:
    """Run every oracle case for ``seed``; a case that raises is a failed case."""
    results = []
    for i in range(CASES):
        rng = np.random.default_rng((seed, i))
        for case, dim in ((_grid_case, 1 + i % 2), (_box_case, 2 + i % 2)):
            try:
                results.append(case(rng, dim))
            except Exception as exc:  # recorded as a mismatch, never fatal
                results.append({"name": f"{case.__name__}/{dim}d", "ok": False,
                                "detail": f"{type(exc).__name__}: {exc}"})
    return results

"""Boundary counters: work implied by a layer call's arguments and result.

Each function takes the bound arguments of one call (a name -> value
dict, defaults applied) and its result, and returns counter increments.
They use only public attributes of the argument and result types, so
they stay exact however a kernel is implemented inside.  The recorder
pauses its spans while a counter runs, so a public function called here
(``BoxUnion.volume`` is one) is not recorded as work.
"""

from __future__ import annotations

import math

import numpy as np


def _uniform_lams(n: int) -> np.ndarray:
    """The spec's uniform lam grid, i / (n + 1) for i = 1..n."""
    return np.arange(1, n + 1, dtype=float) / (n + 1)


def lp_minkowski_sum_base(args, result) -> dict:
    # evaluation set: uniform grid, lam = t, and in one dimension with
    # p > 1 one per-pair maximizer
    x, y, p = args["x"], args["y"], args["p"]
    lams = np.unique(np.append(_uniform_lams(args["lambda_points"]), args["t"]))
    per_pair = lams.size + (1 if x.dim == 1 and p > 1.0 else 0)
    return {
        "curvsum.lp_minkowski_sum_base.pairs": x.count * y.count * per_pair,
        "curvsum.lp_minkowski_sum_base.cells_out": result.count,
    }


def envelope_segments(args, result) -> dict:
    bps, _ = result
    return {
        "curvsum.envelope_segments.rects": int(np.size(args["z_lo"])),
        "curvsum.envelope_segments.breakpoints": int(np.size(bps)),
    }


def _grid_sum(name: str):
    """Counter for a grid sum; quasi-mode specs inject crossing maximizers."""

    def count(args, result) -> dict:
        a, b, spec = args["a"], args["b"], args["spec"]
        pairs = int(np.count_nonzero(a.heights)) * int(np.count_nonzero(b.heights))
        grid = spec.lambda_grid()
        if spec.p < 1.0:
            lams = grid.size  # one single-lam slice per grid value
        else:
            a_last = spec.alphas.last
            inject = spec.p > 1.0 and a_last != 0.0 and not math.isinf(a_last)
            if inject:
                va, vb = a.volume, b.volume
                if spec.mode == "quasi":
                    extra = spec.quasi_crossing_lambda(va, vb, a_last)
                else:
                    extra = spec.pair_lambda_star(va, vb, a_last)
                grid = np.unique(np.append(grid, float(extra)))
            # plus one per-pair maximizer when injecting
            lams = grid.size + (1 if inject else 0)
        return {
            f"{name}.cell_pairs": pairs,
            f"{name}.lams": lams,
            f"{name}.out_cells": int(result.heights.size),
        }

    return count


def curvilinear_sum_boxes(args, result) -> dict:
    return {"curvsum.curvilinear_sum_boxes.boxes_out": len(result.boxes)}


def _solid_boxes(u) -> list:
    return [b for b in u.boxes if all(h > l for l, h in zip(*b))]


def box_union_volume(args, result) -> dict:
    u = args["u"]
    boxes = _solid_boxes(u)
    cells = 0
    if boxes:
        cells = 1
        for ax in range(u.dim):
            cells *= len({b[0][ax] for b in boxes} | {b[1][ax] for b in boxes})
    return {
        "sets.box_union_volume.boxes": len(boxes),
        # product of distinct edge counts: the dense occupancy grid
        "sets.box_union_volume.occupancy_cells": cells,
        # an 8-byte word per cell for the grid and each of its prefix sums
        "sets.box_union_volume.bytes_computed": 8 * cells * (u.dim + 1),
    }


def compress(args, result) -> dict:
    return {"sets.compress.box_tests":
            int(result.heights.size) * len(_solid_boxes(args["a"]))}


def surface_area_sets(args, result) -> dict:
    return {"measures.surface_area_sets.eps": len(result.quotients)}


COUNTERS = {
    "curvsum.lp_minkowski_sum_base": lp_minkowski_sum_base,
    "curvsum.envelope_segments": envelope_segments,
    "curvsum.curvilinear_sum_grid": _grid_sum("curvsum.curvilinear_sum_grid"),
    "curvsum.quasi_sum_grid": _grid_sum("curvsum.quasi_sum_grid"),
    "curvsum.convex_quasi_sum_grid": _grid_sum("curvsum.convex_quasi_sum_grid"),
    "curvsum.curvilinear_sum_boxes": curvilinear_sum_boxes,
    "sets.box_union_volume": box_union_volume,
    "sets.compress": compress,
    "measures.surface_area_sets": surface_area_sets,
}

# derived ratios: name -> (numerator counter, denominator counter)
RATIOS = {
    "curvsum.lp_minkowski_sum_base.yield": (
        "curvsum.lp_minkowski_sum_base.cells_out",
        "curvsum.lp_minkowski_sum_base.pairs"),
    "curvsum.envelope_segments.bp_per_rect": (
        "curvsum.envelope_segments.breakpoints",
        "curvsum.envelope_segments.rects"),
}

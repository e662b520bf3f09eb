"""Curvilinear and quasi-curvilinear set summation.

The two-set sum is a union over the coefficient parameter lam of
coordinatewise combined point sets, with coefficients (C, D) drawn from
either the with-t form ((1-t)^(1/p) (1-lam)^(1/q), t^(1/p) lam^(1/q)) or the
t-free form ((1-lam)^(1/q), lam^(1/q)).  ``SumSpec.mode`` picks how
coordinate i of a combined point is formed: the (C, D)-weighted
alpha_i-mean of the parent coordinates (``curvilinear``), min(C^(1/alpha_i)
x_i, D^(1/alpha_i) y_i) (``quasi``), or the convex-combination form that the
sectional and marginal bounds quantify over, C x_i + D y_i on the base axes
(all base powers 1, p >= 1) and the quasi min on the vertical axis
(``convex_quasi``).  ``SumSpec.kernels`` is the (base, vertical) kernel
pair that every path reads.  For p >= 1 the sum is the union over lam, for
0 < p < 1 the intersection (supported, flagged experimental).

Grid realization: operands are staircase sets; every pair of support cells
is combined at every lam of the evaluation set and the result is snapped to
the floor cell of an output grid, keeping the recorded (cell, height) pairs
dominated by true members of the sum.  The evaluation set is the uniform
lam grid of the spec augmented with the closed-form maximizers for the
volume pair and for each height pair, so suprema realized at isolated lam
values are not lost to the grid.  Recorded volumes are exact cell sums of
the recorded heights.  Coordinate i of a combined point depends only on the
coordinate pair on axis i, so each axis is snapped once per (lam, unique a
coordinate, unique b coordinate), into a small per-axis table of output
indices that covers a block of lam values in one broadcast; a cell pair's
output cell is a sum of table lookups.  Only the per-pair maximizers, whose
(C, D) differ from pair to pair, are snapped pair by pair.

Every fast path (grid, interval, box and envelope) takes its lam set from
one rule, ``_lambda_values``.  At p = 1, (C, D) does not depend on lam and
one lam is evaluated.

Exact realizations are kept alongside the grid path: interval unions in
one dimension, explicit region boxes for box-union operands, and an exact
max-envelope for staircase operands with one base axis, computed as an
offline range-max over breakpoint indices (the workhorse of the
surface-area quotients, where grid snapping would drown the signal).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .errors import (
    BudgetError,
    DegenerateInputError,
    DomainError,
    GridAlignmentError,
    RangeError,
    RegimeError,
    ResolutionError,
)
from .means import PowerVector, conjugate, mean_alpha
from .sets import (
    BoxUnion,
    Grid,
    GridPointSet,
    IntervalUnion,
    StaircaseSet,
    _merged,
    _sorted_unique,
    normalize,
)

_INF = math.inf
_SNAP = 1e-9  # floor snap guard, in cell units
_PAIR_CHUNK = 1 << 22
# most (cell pair, lam) images of one block of the pair path of
# ``_accumulate``; a chunk with more pairs takes one lam per block.
# Replaying the 113 grid sums of one default-suite pass (2 CPUs, numpy
# 2.4.6; medians of 21 passes, the budgets in turns): 2^10 images took
# 81.0 ms, 2^12 49.5 ms, 2^14 41.8 ms, 2^16 41.5 ms, 2^18 41.1 ms and
# 2^20 46.6 ms, against 82.2 ms for one lam at a time.  2^16 is on the
# flat part and keeps a block's index and height arrays at 512 KiB each
_LAM_BLOCK = 1 << 16
# the run path of ``_accumulate`` is taken where its predicted time is
# below the pair path's.  In units of one pair of the pair path, it costs
# this much per range-max element, per snapped-table entry and per lam.
# Least squares over 156 timed (operands, lam) cases, 1-D to 3-D, full
# and sparse supports, on 2 CPUs with numpy 2.4.6: the pair path took
# 11.7 us + 5.8 ns a pair, the run path with its planning 65.9 us +
# 3.7 ns an element + 5.7 ns a table entry, in pair units 0.64, 0.98 and
# 9,300.  Rounded as below, the rule took the faster path in 148 cases.
_RUN_ELEMENT = 0.75
_RUN_TABLE_ENTRY = 1.0
_RUN_FIXED = 9_000
# most bytes of the exact envelope's working set
_REGION_BUDGET = 1 << 30
# envelope bytes charged per rectangle: a 24 B row of ends and height and
# a 128 B working set, the peak of the former flat-row envelope.  The
# tracemalloc peak of staircase_sum_volume_exact is 85-89 B a rectangle;
# the charge stays at 152 B so that the refusal threshold does not move
_RECT_BYTES = 24 + 128
# most lam values of a grid, box or envelope sum (``_check_lams``), and
# most (piece pair, lam) images of a box or interval sum (``_check_images``).
# Both are checked before any lam is built.  The lam grid and the (C, D)
# list hold 138 B a lam (170 B at their tracemalloc peak).  A grid sum's
# other buffers are chunked by ``_PAIR_CHUNK`` and ``_LAM_BLOCK``, so its
# pair count is not limited; a box or interval sum keeps every image, 16 B
# per axis.  The largest box sum of the tests, CI, perfbench and the
# default suite at --grid 2 has 9 x 6 boxes at up to 68 lam values
_SUM_LAMS = 1 << 20
_BOX_IMAGES = 1 << 22

CURVILINEAR = "curvilinear"
QUASI = "quasi"
CONVEX_QUASI = "convex_quasi"
WITH_T = "with_t"
T_FREE = "t_free"


@dataclass(frozen=True)
class SumSpec:
    """Parameters of a summation: exponent p, weight t, powers, lam grid."""

    p: float
    alphas: PowerVector
    t: float | None = None
    lambda_points: int = 64
    mode: str = CURVILINEAR
    coefficient_form: str = WITH_T
    extra_lambdas: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if not 0.0 < self.p < math.inf:
            raise RangeError(f"p must be finite and positive, got {self.p}")
        if self.mode not in (CURVILINEAR, QUASI, CONVEX_QUASI):
            raise RangeError(f"unknown mode {self.mode!r}")
        if self.coefficient_form not in (WITH_T, T_FREE):
            raise RangeError(f"unknown coefficient form {self.coefficient_form!r}")
        if self.coefficient_form == WITH_T:
            if self.t is None or not 0.0 < self.t < 1.0:
                raise RangeError("with_t coefficients need t in (0, 1)")
        if self.lambda_points < 1:
            raise RangeError("lambda_points must be >= 1")
        if self.mode != CURVILINEAR and any(a == 0.0 for a in self.alphas.alphas):
            raise DomainError("quasi summation requires nonzero powers")
        if self.mode == CONVEX_QUASI:
            if self.p < 1.0:
                raise RegimeError("convex combination form covers p >= 1 only")
            if any(a != 1.0 for a in self.alphas.alphas[:-1]):
                raise DomainError("convex combination form needs base powers all 1")
        if any(not 0.0 < lam < 1.0 for lam in self.extra_lambdas):
            raise RangeError("extra lam values must lie in (0, 1)")

    @property
    def q(self) -> float:
        return conjugate(self.p)

    @property
    def kernels(self):
        """(base, vertical) kernel pair of the mode."""
        return (
            combine_quasi if self.mode == QUASI else combine,
            combine if self.mode == CURVILINEAR else combine_quasi,
        )

    def lambda_grid(self) -> np.ndarray:
        n = self.lambda_points
        grid = np.arange(1, n + 1, dtype=float) / (n + 1)
        if self.extra_lambdas:
            grid = _sorted_unique(np.concatenate([grid, np.asarray(self.extra_lambdas)]))
        return grid

    def with_extra_lambdas(self, extras: tuple[float, ...]) -> "SumSpec":
        merged = tuple(sorted(set(self.extra_lambdas) | set(extras)))
        return replace(self, extra_lambdas=merged)

    def coefficients(self, lam):
        """(C, D) for scalar or array lam."""
        return _coefficients(self.p, self.t, self.coefficient_form, lam)

    def pair_lambda_star(self, a, b, alpha: float):
        """Maximizer of lam -> combined alpha-mean of the positive pair (a, b)."""
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        pa = self.p * alpha
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            if self.coefficient_form == WITH_T:
                r = (1.0 - self.t) / self.t * (a / b) ** pa
            else:
                r = (a / b) ** pa
            lam = 1.0 / (1.0 + r)
        # NaN at 0/0 or inf/inf; 1/(1+r) is never infinite, so only NaN is mapped
        return np.clip(np.where(np.isnan(lam), 0.5, lam), 1e-300, 1.0 - 1e-16)

    def quasi_crossing_lambda(self, a, b, alpha: float):
        """Crossing of C^(1/alpha) a = D^(1/alpha) b, the maximizer of their min."""
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        if self.p == 1.0:
            return np.full(np.broadcast(a, b).shape, 0.5)
        q = self.q
        with np.errstate(divide="ignore", invalid="ignore"):
            logr = alpha * (np.log(b) - np.log(a))
            if self.coefficient_form == WITH_T:
                logr = logr + (math.log(self.t) - math.log(1.0 - self.t)) / self.p
            x = np.atleast_1d(q * logr)
            lam = np.empty_like(x)
            pos = x >= 0
            e = np.exp(-x[pos])
            lam[pos] = e / (1.0 + e)
            lam[~pos] = 1.0 / (1.0 + np.exp(x[~pos]))
        lam = np.clip(np.where(np.isnan(lam), 0.5, lam), 1e-300, 1.0 - 1e-16)
        return lam.reshape(np.broadcast(a, b).shape) if np.ndim(a) or np.ndim(b) else lam[0]

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "t": self.t,
            "alphas": list(self.alphas.alphas),
            "lambda_points": self.lambda_points,
            "mode": self.mode,
            "coefficient_form": self.coefficient_form,
            "extra_lambdas": list(self.extra_lambdas),
        }


# ---------------------------------------------------------------------------
# kernels


def combine(u, v, c, d, alpha: float):
    """Coordinatewise (c, d)-weighted alpha-mean, continuous at zero.

    For alpha > 0 a zero argument contributes nothing (the limit value
    d^(1/alpha) v survives); for alpha <= 0 a zero argument forces zero.
    Inputs are nonnegative arrays or scalars.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if alpha == _INF:
        return np.maximum(u, v)
    if alpha == -_INF:
        return np.minimum(u, v)
    if alpha == 0.0:
        return u**c * v**d
    if alpha == 1.0:
        return c * u + d * v
    with np.errstate(divide="ignore", over="ignore"):
        out = (c * u**alpha + d * v**alpha) ** (1.0 / alpha)
    return out


def combine_quasi(u, v, c, d, alpha: float):
    """Coordinatewise min(c^(1/alpha) u, d^(1/alpha) v)."""
    if alpha == 0.0:
        raise RegimeError("quasi combination undefined for zero power")
    if math.isinf(alpha):
        return np.minimum(u, v)
    e = 1.0 / alpha
    return np.minimum(c**e * np.asarray(u, dtype=float), d**e * np.asarray(v, dtype=float))


def _axis_extent(spec: SumSpec, amax: float, bmax: float, alpha: float) -> float:
    """Upper bound for sup over lam of the combined coordinate.

    For p >= 1 the bound covers the full open interval of lam (closed
    forms); for 0 < p < 1 only the spec's lam grid is ever evaluated, so
    the grid maximum suffices.
    """
    if spec.p < 1.0:
        base_kernel = spec.kernels[0]
        c, d = spec.coefficients(spec.lambda_grid())
        return float(np.max(base_kernel(amax, bmax, c, d, alpha)))
    if spec.mode == QUASI:
        if math.isinf(alpha) or alpha > 0:
            return min(amax, bmax)
        lam = spec.quasi_crossing_lambda(amax, bmax, alpha)
        c, d = spec.coefficients(lam)
        return float(combine_quasi(amax, bmax, c, d, alpha))
    if alpha == _INF:
        return max(amax, bmax)
    if alpha == 0.0:
        return max(amax, 1.0) * max(bmax, 1.0)
    if spec.coefficient_form == WITH_T:
        if alpha > 0:
            return mean_alpha(amax, bmax, spec.t, spec.p * alpha)
        return max(
            (1.0 - spec.t) ** (1.0 / (spec.p * alpha)) * amax,
            spec.t ** (1.0 / (spec.p * alpha)) * bmax,
        )
    if alpha > 0:
        return (amax ** (spec.p * alpha) + bmax ** (spec.p * alpha)) ** (
            1.0 / (spec.p * alpha)
        )
    return max(amax, bmax)


def _extents(a: StaircaseSet, b: StaircaseSet, spec: SumSpec) -> list[float]:
    ua, ub = a.grid.upper(), b.grid.upper()
    return [_axis_extent(spec, ua[ax], ub[ax], spec.alphas.alphas[ax]) for ax in range(a.base_dim)]


def derive_out_grid(a: StaircaseSet, b: StaircaseSet, spec: SumSpec) -> Grid:
    """Output grid from the origin covering every reachable coordinate."""
    h = min(a.grid.spacing, b.grid.spacing)
    shape = tuple(max(1, int(math.ceil(ext / h + _SNAP))) for ext in _extents(a, b, spec))
    return Grid((0.0,) * a.base_dim, h, shape)


def _check_out_grid(grid: Grid, a: StaircaseSet, b: StaircaseSet, spec: SumSpec) -> None:
    if grid.ndim != a.base_dim:
        raise ResolutionError("output grid dimension mismatch")
    for ax, ext in enumerate(_extents(a, b, spec)):
        if grid.origin[ax] > 0.0 or grid.upper()[ax] < ext - 1e-9:
            raise ResolutionError(
                f"output grid does not cover [0, {ext:.6g}] on axis {ax}"
            )


def _support(s: StaircaseSet):
    corners, heights = s.support_cells()
    if corners.shape[0] == 0:
        raise DegenerateInputError("summand has empty support")
    return corners, heights


def _injects(spec: SumSpec) -> bool:
    """Whether the fast paths inject closed-form lam maximizers.

    Only for p > 1 and a finite nonzero vertical power; elsewhere (C, D)
    does not depend on lam, or the vertical kernel has no interior
    maximizer to find.
    """
    alpha = spec.alphas.last
    return spec.p > 1.0 and alpha != 0.0 and not math.isinf(alpha)


def _lambda_star(spec: SumSpec, u, v):
    """Maximizer over lam of the vertical combination of (u, v).

    The mean's closed-form maximizer for curvilinear sums, the crossing
    of the min for both quasi modes.
    """
    if spec.mode == CURVILINEAR:
        return spec.pair_lambda_star(u, v, spec.alphas.last)
    return spec.quasi_crossing_lambda(u, v, spec.alphas.last)


def _lambda_values(spec: SumSpec, a, b, pairs=()) -> np.ndarray:
    """The evaluation set of every fast sum path, for operands a and b.

    At p = 1 (C, D) does not depend on lam, so one lam stands for all.
    Otherwise the spec's lam grid plus, when injecting, the maximizer for
    the volume pair and for each positive scalar pair of ``pairs``.  The
    volumes are only computed when injecting; a box union's costs a
    union-volume pass.  At p = 1 the grid's first lam is returned without
    building the grid.
    """
    if spec.p == 1.0:
        return np.array([min((1.0 / (spec.lambda_points + 1), *spec.extra_lambdas))])
    lams = spec.lambda_grid()
    if _injects(spec):
        stars = [float(_lambda_star(spec, u, v))
                 for u, v in ((a.volume, b.volume), *pairs) if u > 0 and v > 0]
        lams = np.concatenate([lams, stars])
    return _sorted_unique(lams)


def _lam_bound(spec: SumSpec, maximizers: int = 0) -> int:
    """Most lam values ``_lambda_values`` can return, with ``maximizers`` scalar pairs."""
    if spec.p == 1.0:
        return 1
    return spec.lambda_points + len(spec.extra_lambdas) + (1 + maximizers) * _injects(spec)


def _check_lams(spec: SumSpec) -> None:
    """BudgetError above ``_SUM_LAMS`` lam values, before any lam is built."""
    if (lam_count := _lam_bound(spec)) > _SUM_LAMS:
        raise BudgetError(f"up to {lam_count} lam values, budget {_SUM_LAMS}")


def _coefficients(p: float, t: float | None, form: str, lam):
    """(C, D) of ``SumSpec.coefficients``."""
    lam = np.asarray(lam, dtype=float)
    if p == 1.0:
        if form == WITH_T:
            return np.full_like(lam, 1.0 - t), np.full_like(lam, t)
        return np.ones_like(lam), np.ones_like(lam)
    invq = 1.0 - 1.0 / p
    c = (1.0 - lam) ** invq
    d = lam**invq
    if form == WITH_T:
        c = (1.0 - t) ** (1.0 / p) * c
        d = t ** (1.0 / p) * d
    return c, d


@lru_cache(maxsize=1024)
def _scalar_coefficients(p: float, t: float | None, form: str, lam: float):
    """(C, D) at one scalar lam, memoized: float64 scalars, or 0-d arrays at p = 1.

    The 0-d arrays are made read-only, since every caller shares them.
    """
    cd = _coefficients(p, t, form, lam)
    for x in cd:
        if isinstance(x, np.ndarray):
            x.flags.writeable = False
    return cd


def _coefficient_list(spec: SumSpec, lams) -> list:
    """(C, D) per lam, one scalar evaluation each, memoized per (p, t, form, lam).

    Array powers, and powers of float64 scalars, can round differently.
    The eps of one surface estimate repeat the same grid lam values.
    """
    t = spec.t if spec.coefficient_form == WITH_T else None
    return [_scalar_coefficients(spec.p, t, spec.coefficient_form, float(lam)) for lam in lams]


def _lam_rows(kernel, x, y, cd, alpha):
    """``kernel(x, y, C, D, alpha)`` at every (C, D), lam on a new last axis.

    ``cd`` holds the (C, D) scalars per lam and their (lam, 2) array, made
    once per lam set by the caller.  Array powers, and powers of float64
    scalars, can round differently, so no power of C or D is taken on an
    array.  Where C and D only scale (``combine`` at alpha != 0) one
    broadcast covers every lam; for ``combine_quasi`` C^(1/alpha) and
    D^(1/alpha) are scalar powers per lam, then one broadcast; ``combine``
    at alpha = 0 stays one scalar call per lam, and so does a single
    (C, D).  Where the kernel ignores (C, D) (alpha = +-inf) the result is
    a read-only broadcast view.
    """
    cd_list, cd_arr = cd
    if len(cd_list) == 1:
        return kernel(x, y, *cd_list[0], alpha)[..., None]
    if kernel is combine and alpha == 0.0:
        out = np.empty(np.broadcast_shapes(x.shape, y.shape) + (len(cd_list),))
        for i, (c, d) in enumerate(cd_list):
            out[..., i] = combine(x, y, c, d, alpha)
        return out
    x, y = x[..., None], y[..., None]
    if kernel is combine_quasi and not math.isinf(alpha):
        e = 1.0 / alpha
        ce, de = np.array([(c**e, d**e) for c, d in cd_list]).T
        return np.minimum(ce * x, de * y)
    out = kernel(x, y, cd_arr[:, 0], cd_arr[:, 1], alpha)
    if out.shape[-1] != len(cd_list):
        out = np.broadcast_to(out, out.shape[:-1] + (len(cd_list),))
    return out


def _range_max_table(axes, heights):
    """Sparse table of range maxima of one side's heights.

    ``axes`` holds (unique coordinates, cell inverse) per axis.  The dense
    grid over the unique coordinates holds each support cell's height and 0
    where no support cell lies (support heights are positive).  Axis ax of
    the table has length L * U for U unique coordinates and L = U's bit
    length; entry k * U + i on each axis is the maximum over the box that
    starts at i and spans 2^k grid cells on that axis: the sparse table of
    Bender & Farach-Colton ("The LCA problem revisited", LATIN 2000), one
    level per axis.  Level 0 on every axis is the dense grid.  Returns the
    table and whether every grid cell is on the support.
    """
    sizes = tuple(len(u) for u, _ in axes)
    levels = tuple(u.bit_length() for u in sizes)
    n = len(sizes)
    table = np.zeros([k for pair in zip(levels, sizes) for k in pair])
    table[(0, slice(None)) * n][tuple(inv for _, inv in axes)] = heights
    for ax in range(n):
        # every level of the axes before ax, level 0 of the axes after it;
        # positions past the last whole box are never read
        head = (slice(None),) * (2 * ax)
        tail = (0, slice(None)) * (n - ax - 1)
        for k in range(1, levels[ax]):
            half = 1 << (k - 1)
            src = table[head + (k - 1,)]
            np.maximum(src[head + (slice(sizes[ax] - half),) + tail],
                       src[head + (slice(half, None),) + tail],
                       out=table[head + (k, slice(sizes[ax] - half)) + tail])
    return table.reshape([k * u for k, u in zip(levels, sizes)]), math.prod(sizes) == len(heights)


def _table_size(axes) -> int:
    """Element count of ``_range_max_table`` over these axes."""
    return math.prod(len(u) * len(u).bit_length() for u, _ in axes)


def _run_sides(a_side, b_side, a_sizes, b_sizes):
    """Both run reductions of a chunk: (reduce a, reduced, kept, tails).

    ``a_side`` / ``b_side`` are the sides' ``_range_max_table`` and
    ``a_sizes`` / ``b_sizes`` their unique-coordinate counts.  Step ax of
    ``_run_images`` writes (records on axes <= ax) times the reduced
    table's and the kept grid's extent past axis ax; ``tails[ax]`` holds
    the sum and the larger of those two extents.
    """
    sides = []
    for reduce_a, reduced, kept, kept_sizes in ((True, a_side, b_side, b_sizes),
                                                (False, b_side, a_side, a_sizes)):
        shape = reduced[0].shape
        tails = [(math.prod(shape[ax + 1 :]) + math.prod(kept_sizes[ax + 1 :]),
                  max(math.prod(shape[ax + 1 :]), math.prod(kept_sizes[ax + 1 :])))
                 for ax in range(len(shape))]
        sides.append((reduce_a, reduced, kept, tails))
    return sides


def _run_plan(tables, fixed, sides, pairs):
    """The cheaper run reduction of one chunk at one lam, if it pays.

    ``tables`` holds the snapped (a coordinate, b coordinate) table of each
    axis and ``sides`` comes from ``_run_sides``.  A run record is (kept
    coordinate, run of equal index along the reduced coordinates): one per
    kept coordinate plus one per index change.  Returns (reduced, kept,
    steps, whether a is reduced) for ``_run_images``, or None when the
    predicted time, ``fixed`` plus ``_RUN_ELEMENT`` per element of the
    range-max steps, is not below the pair count, or an array would hold
    more elements than the chunk has pairs, or than ``_PAIR_CHUNK``.
    """
    limit = min(pairs, _PAIR_CHUNK)
    best = None
    for reduce_a, reduced, kept, tails in sides:
        if reduce_a:
            steps = [(t.T, (t[1:] != t[:-1]).T) for t in tables]
        else:
            steps = [(t, t[:, 1:] != t[:, :-1]) for t in tables]
        records, cost, largest = 1, 0, 0
        for (t, changes), (both, wider) in zip(steps, tails):
            records *= t.shape[0] + int(np.count_nonzero(changes))
            cost += records * both
            largest = max(largest, records * wider)
        if (_RUN_ELEMENT * cost + fixed < pairs and largest <= limit
                and (best is None or cost < best[0])):
            best = cost, (reduced, kept, steps, reduce_a)
    return best and best[1]


def _run_images(target, reduced, kept, steps, vert):
    """Scatter one image per (kept grid cell, box of reduced runs).

    ``steps`` holds per axis the snapped table with the kept coordinate
    first and whether the index changes between neighbouring reduced
    coordinates.  One run record per axis picks a kept grid cell and a box
    of reduced cells that all land in one output cell, so the box's image
    is ``vert(range max, kept height)``.  The range max is taken axis by
    axis, each run as the max of two overlapping power-of-two spans.
    Records whose kept cell or box holds no support cell are dropped.
    """
    hmax, full = reduced
    hk, kept_full = kept
    hk = hk[tuple(slice(t.shape[0]) for t, _ in steps)]
    for ax, (t, changes) in enumerate(steps):
        starts = np.ones(t.shape, dtype=bool)
        starts[:, 1:] = changes
        rec = np.flatnonzero(starts)
        width = np.append(rec[1:], t.size) - rec
        level = np.frexp(width)[1] - 1
        j, lo = np.divmod(rec, t.shape[1])
        lo += level * t.shape[1]
        hi = lo + width - (1 << level)
        hmax = np.maximum(hmax.take(lo, axis=ax), hmax.take(hi, axis=ax))
        hk = hk.take(j, axis=ax)
        val = t.ravel()[rec]
        idx = np.add.outer(idx, val) if ax else val
    hk = hk.ravel()
    hmax = hmax.ravel()
    idx = idx.ravel()
    if not (full and kept_full):
        on = (hk > 0) & (hmax > 0)
        idx, hmax, hk = idx[on], hmax[on], hk[on]
    np.maximum.at(target, idx, vert(hmax, hk))


def _accumulate(out, out_grid, spec, xa, ha, xb, hb, lam_values):
    """Accumulate all (cell pair, lam) images into the output heights.

    For p >= 1 every image is max-accumulated into ``out`` (the union over
    lam).  For 0 < p < 1 the images of each lam are max-accumulated into a
    row of their own and ``out`` receives the minimum over the rows (the
    intersection over lam).

    Coordinate i of a combined point depends on the coordinate pair on axis
    i alone, so at a scalar lam the output index on an axis is a function
    of the pair of unique axis coordinates.  The lam values are taken in
    blocks of at most ``_LAM_BLOCK`` images of the largest row chunk (one
    lam per block above it).  Per chunk and block, each axis gets one
    table over (unique a coordinate, unique b coordinate, lam), one
    broadcast of the base kernel (``_lam_rows``), holding the snapped
    index times the row-major output stride; a cell pair's flat output
    indices are the sum over axes of ``table[ia][:, ib]``, where ia and ib
    map cells to unique coordinates, an array over (a cell, b cell, lam).
    The vertical kernel is one broadcast over the same axes and one
    ``np.maximum.at`` scatters the block.  For 0 < p < 1 lam i of a block
    is offset to row i of a (block, output cells) array, and the block
    also holds at most ``_LAM_BLOCK`` output cells.  An index off the
    output grid raises ResolutionError: no image is clamped to an edge.
    The injected per-pair maximizer gives every height pair its own
    (C, D), so that pass snaps every cell pair directly.  The unique
    coordinates do not depend on lam and are computed once per call; the
    heights enter the vertical kernel as a column and a row, so each lam
    raises only rows + mb heights to the power alpha.

    Run reduction.  Along one column of a table (a fixed b coordinate) the
    a coordinates that share an index form runs of consecutive unique
    coordinates, few of them since the base kernel is nondecreasing.  The
    runs are read off the table as it stands, so the grouping is exact
    however the kernel rounds.  For one b cell, the a cells that land in
    one output cell fill a box of one run per axis.  The vertical kernel
    and the scatter-max then run once per (b cell, box), at the largest a
    height in the box: a range max from a sparse table of the a heights
    over the grid of unique coordinates (``_range_max_table``).  The b
    cells are enumerated as their own grid of unique coordinates; grid
    cells off either support are dropped.  When the b side has fewer runs
    the roles swap (``_run_plan``, ``_run_images``).  The run path is
    planned per lam of a block, on that lam's slice of the tables; the lam
    it rejects take the pair path together.

    - Exactness: the result is bit for bit the pairwise one as long as
      the vertical kernel is nondecreasing in each height in floating
      point.  That holds exactly at power 1 (each product and the sum are
      rounded monotonically), at +-inf (max, min) and for the quasi min
      (one fixed factor per argument).  At other powers it rests on
      numpy's ``pow`` being monotone: on numpy 2.4.6 (x86-64 with
      AVX-512), 4 M adjacent-float pairs per power, kernel and height
      argument showed no violation.
    - Size rule: per chunk and lam, the run path is taken when its
      predicted time is below the pair path's: ``_RUN_ELEMENT`` per
      element of its range-max steps, plus ``_RUN_TABLE_ENTRY`` per
      snapped-table entry, plus ``_RUN_FIXED``, in units of one pair of
      the pair path, is below the chunk's pair count.  The constants come
      from a least-squares fit of both paths' time per lam (see their
      comment).  Planning a lam has a cost of its own, so a chunk with
      fewer pairs than twice the fixed part plans nothing; that covers
      every grid sum of the default suite at refinement level 0.
    - Memory: a side's sparse table is built only if it holds no more
      elements than the chunk has pairs, nor than ``_PAIR_CHUNK``, and no
      array of the run path is larger; a call above ``_PAIR_CHUNK`` pairs
      takes the path chunk by chunk.  The pair path's index buffers hold
      one block, at most the larger of ``_LAM_BLOCK`` and one chunk's
      pairs.
    """
    n = xa.shape[1]
    alphas = spec.alphas.alphas
    base_kernel, vert_kernel = spec.kernels
    shape = out.shape
    strides = [math.prod(shape[ax + 1 :]) for ax in range(n)]
    flat = out.ravel()
    ma = xa.shape[0]
    mb = xb.shape[0]
    chunk = max(1, _PAIR_CHUNK // max(mb, 1))
    a_last = alphas[-1]
    h_out = out_grid.spacing
    v = hb[None, :]

    def snap(z, ax):
        k = np.floor((z - out_grid.origin[ax]) / h_out + _SNAP).astype(np.int64)
        if k.size and (k.min() < 0 or k.max() >= shape[ax]):
            raise ResolutionError(f"output grid does not cover the sum on axis {ax}")
        k *= strides[ax]
        return k

    b_axes = [_ranks(xb[:, ax]) for ax in range(n)]
    b_side = None
    chunks = []
    for start in range(0, ma, chunk):
        stop = min(ma, start + chunk)
        a_axes = [_ranks(xa[start:stop, ax]) for ax in range(n)]
        pairs = (stop - start) * mb
        # the run path's cost per lam apart from its range-max elements.
        # Planning a lam costs about 2,000 pairs' time whether or not the
        # run path is taken, so below twice this cost no lam is planned and
        # no sparse table is built
        fixed = _RUN_FIXED + _RUN_TABLE_ENTRY * sum(
            len(ua) * len(ub) for (ua, _), (ub, _) in zip(a_axes, b_axes))
        runs = None
        if 2 * fixed < pairs and max(_table_size(a_axes), _table_size(b_axes)) <= min(
                pairs, _PAIR_CHUNK):
            if b_side is None:
                b_side = _range_max_table(b_axes, hb)
            runs = fixed, _run_sides(_range_max_table(a_axes, ha[start:stop]), b_side,
                                     [len(u) for u, _ in a_axes], [len(u) for u, _ in b_axes])
        chunks.append((start, stop, a_axes, runs))
    # lam per block: at most _LAM_BLOCK images of the largest chunk, and for
    # 0 < p < 1 at most _LAM_BLOCK cells of the per-lam output rows
    pairs_max = min(chunk, ma) * mb
    block = max(1, _LAM_BLOCK // max(pairs_max, flat.size if spec.p < 1.0 else 0))
    # row-major index buffers reused for every block and chunk: fresh
    # pair-sized arrays per lam made the allocator return and refault pages,
    # and the row-major order keeps ravel() a view
    idx_buf = np.empty(block * pairs_max, dtype=np.int64)
    part_buf = np.empty(idx_buf.size if n > 1 else 0, dtype=np.int64)

    def images(target, cd, row):
        """Every chunk's images at the lam of ``cd`` (see ``_lam_rows``); lam i
        lands at offset i * row."""
        cd_list, cd_arr = cd
        for start, stop, a_axes, runs in chunks:
            size = (stop - start) * mb
            tables = [snap(_lam_rows(base_kernel, ua[:, None], ub[None, :], cd, alphas[ax]), ax)
                      for ax, ((ua, _), (ub, _)) in enumerate(zip(a_axes, b_axes))]
            if row and len(cd_list) > 1:
                tables[0] += np.arange(len(cd_list)) * row
            pending = list(range(len(cd_list)))
            if runs:
                pending = []
                for i, (c, d) in enumerate(cd_list):
                    plan = _run_plan([t[..., i] for t in tables], *runs, size)
                    if not plan:
                        pending.append(i)
                        continue
                    reduced, kept, steps, reduce_a = plan
                    _run_images(target, reduced, kept, steps, lambda m, k: vert_kernel(
                        *((m, k) if reduce_a else (k, m)), c, d, a_last))
                if not pending:
                    continue
                if len(pending) < len(cd_list):
                    tables = [t[..., pending] for t in tables]
                    cd = [cd_list[i] for i in pending], cd_arr[pending]
            shape3 = (stop - start, mb, len(pending))
            flat_idx = idx_buf[: math.prod(shape3)].reshape(shape3)
            part = part_buf[: flat_idx.size].reshape(shape3) if n > 1 else None
            for ax, table in enumerate(tables):
                # ib is always in range; mode="clip" only skips an output copy
                np.take(table[a_axes[ax][1]], b_axes[ax][1], axis=1,
                        out=flat_idx if ax == 0 else part, mode="clip")
                if ax:
                    flat_idx += part
            vert = _lam_rows(vert_kernel, ha[start:stop, None], v, cd, a_last)
            np.maximum.at(target, flat_idx.ravel(), vert.ravel())

    cd_list = _coefficient_list(spec, lam_values)
    cd_arr = np.asarray(cd_list)
    blocks = [(cd_list[i : i + block], cd_arr[i : i + block])
              for i in range(0, len(cd_list), block)]
    if spec.p < 1.0:
        rows = np.empty((block, flat.size))
        flat.fill(_INF)
        for cd in blocks:
            own = rows[: len(cd[0])]
            own.fill(0.0)
            images(own.ravel(), cd, flat.size)
            for r in own:
                np.minimum(flat, r, out=flat)
        return out
    for cd in blocks:
        images(flat, cd, 0)
    if _injects(spec):
        for start, stop, *_ in chunks:
            xs = xa[start:stop]
            u = ha[start:stop, None]
            c, d = spec.coefficients(_lambda_star(spec, u, v))
            flat_idx = snap(base_kernel(xs[:, 0][:, None], xb[None, :, 0], c, d, alphas[0]), 0)
            for ax in range(1, n):
                flat_idx += snap(
                    base_kernel(xs[:, ax][:, None], xb[None, :, ax], c, d, alphas[ax]), ax
                )
            vert = vert_kernel(u, v, c, d, a_last)
            np.maximum.at(flat, flat_idx.ravel(), vert.ravel())
    return out


def curvilinear_sum_grid(
    a: StaircaseSet,
    b: StaircaseSet,
    spec: SumSpec,
    out_grid: Grid | None = None,
) -> StaircaseSet:
    """Sum of two staircases on an output grid, in the spec's mode.

    Union over lam for p >= 1; intersection over the lam grid for
    0 < p < 1 (experimental regime: only containment monotonicity is
    asserted there).
    """
    if a.base_dim != b.base_dim:
        raise DomainError("summands live in different dimensions")
    if a.base_dim != spec.alphas.n:
        raise DomainError(
            f"power vector has {spec.alphas.n} base entries, sets have {a.base_dim}"
        )
    xa, ha = _support(a)
    xb, hb = _support(b)
    _check_lams(spec)
    if out_grid is None:
        out_grid = derive_out_grid(a, b, spec)
    else:
        _check_out_grid(out_grid, a, b, spec)
    out = np.zeros(out_grid.shape)
    # for 0 < p < 1 the lam values are the spec's grid and the result is
    # the intersection over them
    _accumulate(out, out_grid, spec, xa, ha, xb, hb, _lambda_values(spec, a, b))
    return StaircaseSet(out_grid, out)


# ---------------------------------------------------------------------------
# exact box and interval paths


def _check_images(kind: str, na: int, nb: int, spec: SumSpec, maximizers: int = 0) -> None:
    """``_check_lams``, then BudgetError if na x nb pieces give over ``_BOX_IMAGES`` images."""
    _check_lams(spec)
    images = na * nb * _lam_bound(spec, maximizers)
    if images > _BOX_IMAGES:
        raise BudgetError(f"{na} x {nb} {kind} give up to {images} images, budget {_BOX_IMAGES}")


def _images(a: np.ndarray, b: np.ndarray, spec: SumSpec, lam_arr: np.ndarray) -> np.ndarray:
    """Image box of every (a box, b box, lam), in that row order; a, b are (m, 2, dim)."""
    c, d = spec.coefficients(lam_arr)
    dim = a.shape[2]
    # axes (box_a, box_b, lam, lo/hi, coordinate)
    ab, bb = a[:, None, None], b[None, :, None]
    img = np.empty((len(a), len(b), lam_arr.size, 2, dim))
    for ax in range(dim):
        img[..., ax] = combine(ab[..., ax], bb[..., ax], c[:, None], d[:, None],
                               spec.alphas.alphas[ax])
    return img.reshape(-1, 2, dim)


def curvilinear_sum_boxes(a: BoxUnion, b: BoxUnion, spec: SumSpec) -> BoxUnion:
    """Exact region boxes of the sum of two box unions at the lam set.

    Every (box pair, lam) contributes the product of per-axis image
    intervals; the union of these boxes is exactly the sum restricted to
    the evaluated lam values, so its volume lower-bounds the full sum.
    At p = 1 one lam is evaluated, so each box pair gives at most one box.
    """
    if spec.mode != CURVILINEAR:
        raise RegimeError("box path supports curvilinear mode only")
    if spec.p < 1.0:
        raise RegimeError("box path supports p >= 1 only")
    if a.dim != b.dim or a.dim != spec.alphas.n + 1:
        raise DomainError("box dimensions do not match the power vector")
    _check_images("boxes", len(a.boxes), len(b.boxes), spec)
    img = _images(a.boxes, b.boxes, spec, _lambda_values(spec, a, b))
    return BoxUnion(a.dim, img[(img[:, 1] > img[:, 0]).all(axis=1)])


def curvilinear_sum_1d(k: IntervalUnion, l: IntervalUnion, spec: SumSpec) -> IntervalUnion:
    """Exact curvilinear sum of interval unions on the half line.

    Per (lam, interval pair) the image of [a,b] x [c,d] under the
    combined mean is the interval [m(a,c), m(b,d)] (monotone continuous
    map); the result is the normalized union over the lam evaluation set,
    including the closed-form maximizers for the volume pair, each length
    pair, and each right-endpoint pair.  At p = 1 one lam is evaluated.
    The images are the box path's, counted before the pair list is built.
    """
    if spec.alphas.n != 0:
        raise DomainError("curvilinear_sum_1d needs a single-entry power vector")
    if spec.mode != CURVILINEAR:
        raise RegimeError("interval path supports curvilinear mode only")
    if spec.p < 1.0:
        raise RegimeError("interval path supports p >= 1 only")
    ka, la = (np.array(normalize(u).intervals) for u in (k, l))
    if not ka.size or not la.size:
        raise DegenerateInputError("summand has empty support")
    _check_images("intervals", len(ka), len(la), spec, 2 * len(ka) * len(la))
    # per interval pair its (length, length) and (right end, right end)
    qk, ql = (np.stack([u[:, 1] - u[:, 0], u[:, 1]], axis=1) for u in (ka, la))
    pairs = np.stack(np.broadcast_arrays(qk[:, None], ql[None]), axis=-1).reshape(-1, 2)
    lam_arr = _lambda_values(spec, k, l, pairs.tolist())
    img = _images(ka[:, :, None], la[:, :, None], spec, lam_arr)
    lo, hi = img[:, 0, 0], img[:, 1, 0]
    if not ((0 <= lo) & (lo <= hi) & (hi < _INF)).all():
        IntervalUnion(tuple(zip(lo.tolist(), hi.tolist())))  # refuses an overflowed image
    return _merged(lo, hi)


# ---------------------------------------------------------------------------
# exact envelope path (one base axis)


def _ranks(values):
    """(uniq, rank): the distinct ``values`` sorted, and each value's index in uniq.

    ``np.unique(values, return_inverse=True)`` for NaN-free 1-D input, by
    the same steps: one argsort and a neighbour mask give the distinct
    values, and one scatter of the mask's running count ranks every value.
    ``values`` must not be empty.
    """
    order = np.argsort(values)
    ranked = values[order]
    new = np.empty(ranked.size, dtype=bool)
    new[0] = True
    np.not_equal(ranked[1:], ranked[:-1], out=new[1:])
    count = np.cumsum(new)
    count -= 1
    rank = np.empty_like(count)
    rank[order] = count
    return ranked[new], rank


def _envelope(bps, parts):
    """Envelope values over ``bps`` of rectangles given by breakpoint index.

    ``parts`` is a list of flat (lo, hi, v) arrays, one rectangle
    [bps[lo], bps[hi]) at height v > 0 per entry; an entry with hi = lo
    covers nothing and is skipped whatever its v, but at least one entry
    must have hi > lo.  Returns the value on each segment between
    consecutive breakpoints, 0 where no rectangle covers it.

    Offline range-max over breakpoint indices: rectangle [l, r) is covered
    by the two power-of-two blocks [l, l + 2^k) and [r - 2^k, r), with
    k = floor(log2(r - l)).  Going from the widest level down, one
    ``np.maximum.at`` per block end writes a level's block maxima, and each
    level then passes its maxima into the two halves one level below
    (a sparse table run backwards).  Only two level arrays are live at a
    time.  A max selects and never rounds, so the values are exactly those
    of a sweep over the breakpoints.
    """
    # exact floor(log2(hi - lo)), -1 at hi = lo; a float log2 can round up
    # just below 2^k
    levels = [np.frexp(hi - lo)[1] - 1 for lo, hi, _ in parts]
    n_seg = bps.size - 1
    above = None
    for k in range(max(int(level.max(initial=-1)) for level in levels), -1, -1):
        width = 1 << k
        # block maxima of width 2^k, one per block start; block j of the
        # level above halves into blocks j and j + 2^k here (cur starts at
        # 0 and every value is positive, so the first half is a copy)
        cur = np.zeros(n_seg - width + 1)
        if above is not None:
            cur[: above.size] = above
            np.maximum(cur[width:], above, out=cur[width:])
        for (lo, hi, v), level in zip(parts, levels):
            at = np.flatnonzero(level == k)
            v_at = v[at]
            np.maximum.at(cur, lo[at], v_at)
            np.maximum.at(cur, hi[at] - width, v_at)
        above = cur
    return above


def _lattice_ranks(a: StaircaseSet, b: StaircaseSet, spec: SumSpec):
    """(bps, parts) of the sum's kept rectangles, ranked on the corner lattice.

    Each (cell pair, lam) yields the base interval [m(x_lo, y_lo),
    m(x_hi, y_hi)] at height m(h_a, h_b); the anchored union of these
    rectangles is exactly the sum restricted to the lam set.  The base ends
    are kernel values of one a-cell edge and one b-cell edge, so at a
    scalar lam every end lies on the lattice of distinct a-edges by
    distinct b-edges: ``z`` has shape (a-edges, b-edges, lam), and each
    cell's lo and hi edge index picks its ends off it.  The heights ``v``
    have shape (a-cells, b-cells, lam); lam comes last so that picking
    cells off the lattice gives C-ordered arrays.  The per-pair maximizer
    gives every cell pair its own (C, D), so its ends and heights are
    computed per pair.

    (C, D) is computed per lam as scalars, and both kernels cover every lam
    through ``_lam_rows``, which takes no power of C or D on an array.

    Only the lattice nodes that a kept rectangle uses, and the maximizer
    row's kept ends, go through the sort of ``_ranks``.  A grid rectangle
    reads its ends' ranks off the lattice through its cells' edge indices,
    so no per-rectangle inverse is built, and a dropped one (zero width or
    height) gets zero width instead of being filtered out.  Returns the
    arguments of ``_envelope``, or None when no rectangle is kept.

    Above ``_SUM_LAMS`` lam values (``_check_lams``), BudgetError is
    raised before the lam set is built; above ``_REGION_BUDGET`` bytes at
    ``_RECT_BYTES`` a rectangle, before any coefficient is computed.
    """
    if a.base_dim != 1 or b.base_dim != 1:
        raise DomainError("region path needs one base axis")
    if spec.alphas.n != 1:
        raise DomainError("power vector must have one base entry")
    if spec.p < 1.0:
        raise RegimeError("region path supports p >= 1 only")
    xa, ha = _support(a)
    xb, hb = _support(b)
    alpha0 = spec.alphas.alphas[0]
    alpha1 = spec.alphas.last
    base_kernel, vert_kernel = spec.kernels
    _check_lams(spec)
    lams = _lambda_values(spec, a, b)
    injects = _injects(spec)
    need = (len(lams) + injects) * len(ha) * len(hb) * _RECT_BYTES
    if need > _REGION_BUDGET:
        raise BudgetError(
            f"region buffer and envelope for {len(lams)} lam values and "
            f"{len(ha)} x {len(hb)} cells need {need} bytes, budget {_REGION_BUDGET}"
        )
    cd_list = _coefficient_list(spec, lams)
    cd = cd_list, np.asarray(cd_list)
    # (lo, hi) edges of every cell, the distinct edges, each cell's edge indices
    a_cells = np.stack([xa[:, 0], xa[:, 0] + a.grid.spacing])
    b_cells = np.stack([xb[:, 0], xb[:, 0] + b.grid.spacing])
    ea, eb = _sorted_unique(a_cells), _sorted_unique(b_cells)
    a_ends, b_ends = np.searchsorted(ea, a_cells), np.searchsorted(eb, b_cells)
    u = ha[:, None]
    w = hb[None, :]
    z = _lam_rows(base_kernel, ea[:, None], eb[None, :], cd, alpha0)
    v = _lam_rows(vert_kernel, u, w, cd, alpha1)
    # each grid rectangle's lo and hi ends as (a-cell, b-cell, lam) picks;
    # a cell's lo (hi) edge is its own, so each pick is one to one
    lo_at = (a_ends[0][:, None], b_ends[0])
    hi_at = (a_ends[1][:, None], b_ends[1])
    keep = (z[hi_at] > z[lo_at]) & (v > 0)
    used = np.zeros(z.shape, dtype=bool)
    used[lo_at] = keep
    used[hi_at] |= keep
    nodes = np.flatnonzero(used)
    values = [z.ravel()[nodes]]
    if injects:
        c, d = spec.coefficients(_lambda_star(spec, u, w))
        star_lo, star_hi = (base_kernel(a_cells[k][:, None], b_cells[k][None, :], c, d, alpha0)
                            for k in (0, 1))
        star_v = vert_kernel(u, w, c, d, alpha1)
        star_keep = (star_hi > star_lo) & (star_v > 0)
        values += [star_lo[star_keep], star_hi[star_keep]]
    values = np.concatenate(values)
    if values.size == 0:
        return None
    bps, rank = _ranks(values)
    node_rank = np.zeros(z.shape, dtype=np.intp)
    node_rank.ravel()[nodes] = rank[: nodes.size]
    lo, hi = node_rank[lo_at], node_rank[hi_at]
    np.copyto(hi, lo, where=~keep)
    parts = [(lo.ravel(), hi.ravel(), v.ravel())]
    if injects:
        star_rank = rank[nodes.size :].reshape(2, -1)
        parts.append((star_rank[0], star_rank[1], star_v[star_keep]))
    return bps, parts


def staircase_sum_volume_exact(a: StaircaseSet, b: StaircaseSet, spec: SumSpec) -> float:
    """Exact volume of the lam-set sum for one-base-axis staircases.

    The integral of the max envelope of the sum's rectangles: the
    breakpoints are every distinct end of a kept rectangle
    (``_lattice_ranks``), and the value on each segment between two of
    them is the largest height over it (``_envelope``).
    """
    ranked = _lattice_ranks(a, b, spec)
    if ranked is None:
        return 0.0
    bps, parts = ranked
    return float(np.sum(np.diff(bps) * _envelope(bps, parts)))


# ---------------------------------------------------------------------------
# dilation


def scalar_dilate(c: float, x, spec: SumSpec):
    """Dilation c x X: coordinate i scales by c^(1 / (p alpha_i)).

    Satisfies the group law c x (c' x X) = (c c') x X and turns the
    t-free sum of (1-t) x A and t x B into the with-t sum.
    """
    if c <= 0:
        raise DomainError(f"dilation factor must be positive, got {c}")
    alphas = spec.alphas.alphas
    if any(a == 0.0 or math.isinf(a) for a in alphas):
        raise DomainError("dilation needs finite nonzero powers")
    factors = [c ** (1.0 / (spec.p * a)) for a in alphas]
    if isinstance(x, StaircaseSet):
        if x.base_dim != spec.alphas.n:
            raise DomainError("power vector does not match set dimension")
        base = factors[:-1]
        if any(abs(f - base[0]) > 1e-12 * base[0] for f in base):
            raise GridAlignmentError(
                "unequal base powers need per-axis spacings; dilate as boxes"
            )
        f = base[0]
        grid = Grid(
            tuple(o * f for o in x.grid.origin), x.grid.spacing * f, x.grid.shape
        )
        return StaircaseSet(grid, x.heights * factors[-1])
    if isinstance(x, BoxUnion):
        if x.dim != len(factors):
            raise DomainError("power vector does not match box dimension")
        return BoxUnion(x.dim, x.boxes * np.asarray(factors))
    raise DomainError(f"cannot dilate {type(x).__name__}")


# ---------------------------------------------------------------------------
# base-space sums of grid point sets


@lru_cache(maxsize=128, typed=True)
def _base_sum_table(p, t, lambda_points, dim):
    """Spec, lam set and (C, D) columns of the base sum, cached per key.

    The base sum is the support of the min-kernel sum of the indicators,
    so its spec has base powers 1 and vertical power -inf.  The lam set
    ignores the operands only because that -inf power never injects a
    maximizer: ``_lambda_values`` reads the operands for nothing else.
    (C, D) come from the scalar ``_coefficient_list`` calls, since array
    powers can round differently.  Every caller shares the returned
    arrays, so they are read-only.
    """
    spec = SumSpec(p, PowerVector((1.0,) * dim + (-_INF,)), t, lambda_points,
                   extra_lambdas=(t,))
    lams = _lambda_values(spec, None, None)
    cd = np.asarray(_coefficient_list(spec, lams))
    lams.setflags(write=False)
    cd.setflags(write=False)
    return spec, lams, cd[:, :1], cd[:, 1:]


def lp_minkowski_sum_base(
    x: GridPointSet,
    y: GridPointSet,
    p: float,
    t: float,
    lambda_points: int = 64,
) -> GridPointSet:
    """Union over lam of {C u + D v} for grid cells u, v, snapped to the lattice.

    The lam evaluation set is the uniform grid plus lam = t (where
    C + D = 1) and, in one dimension, the per-pair maximizers of C u + D v;
    at p = 1 (C, D) is the same for every lam, so one lam is evaluated.
    The spec, the lam grid and its (C, D) table depend only on
    (p, t, lambda_points, dimension); ``_base_sum_table`` builds them once
    per key and every call reads the same cached, read-only arrays.
    All scalar lam values are snapped in one broadcast pass (chunked to
    ``_PAIR_CHUNK`` values), each snapped row is encoded as one int64
    mixed-radix code over the box of reached lattice indices, and the
    unique codes decode to the rows in lexicographic order.  Raises
    BudgetError, before the broadcast snapping pass, when that box has too
    many cells for int64 codes; the box grows with the spread of the points,
    not their number, so far-apart points can be refused.  In one dimension
    at p > 1 the per-pair maximizer slice (one point per pair) is snapped
    first, because it widens the box.
    """
    if p < 1.0:
        raise RegimeError("base-space sums cover p >= 1 only")
    if abs(x.spacing - y.spacing) > 1e-9 * x.spacing:
        raise GridAlignmentError("point sets live on different lattices")
    if x.count == 0 or y.count == 0:
        raise DegenerateInputError("point set is empty")
    if x.dim != y.dim:
        raise DomainError("point sets live in different dimensions")
    spec, lams, c, d = _base_sum_table(p, t, lambda_points, x.dim)
    h = x.spacing
    u = x.coords[:, None, :]
    v = y.coords[None, :, :]
    # C, D > 0 and rounding is monotone, so on every axis the lowest and
    # highest snapped index come from the per-axis minimum and maximum points
    lo = np.floor((c * x.coords.min(axis=0) + d * y.coords.min(axis=0)).min(axis=0) / h + _SNAP)
    hi = np.floor((c * x.coords.max(axis=0) + d * y.coords.max(axis=0)).max(axis=0) / h + _SNAP)
    star = None
    if x.dim == 1 and p > 1.0:
        c_star, d_star = spec.coefficients(spec.pair_lambda_star(u[..., 0], v[..., 0], 1.0))
        star = np.floor((c_star[..., None] * u + d_star[..., None] * v) / h + _SNAP)
        lo = np.minimum(lo, star.min(axis=(0, 1)))
        hi = np.maximum(hi, star.max(axis=(0, 1)))
    if not np.all((np.abs(lo) < 2.0**62) & (np.abs(hi) < 2.0**62)):
        raise BudgetError("base-space sum reaches lattice indices beyond 2^62")
    lo = [int(k) for k in lo]
    radix = [int(k) - l + 1 for k, l in zip(hi, lo)]
    if math.prod(radix) >= 2**63:
        raise BudgetError(
            f"base-space sum spans {math.prod(radix)} lattice cells, beyond int64 codes"
        )
    place = np.asarray([math.prod(radix[ax + 1 :]) for ax in range(x.dim)], dtype=np.int64)
    lo = np.asarray(lo, dtype=np.int64)

    def encode(snapped):
        idx = snapped.astype(np.int64)
        idx -= lo
        return (idx @ place).ravel()

    c, d = c[:, :, None, None], d[:, :, None, None]
    step = max(1, _PAIR_CHUNK // (x.count * y.count * x.dim))
    codes = [
        encode(np.floor((c[i : i + step] * u + d[i : i + step] * v) / h + _SNAP))
        for i in range(0, lams.size, step)
    ]
    if star is not None:
        codes.append(encode(star))
    uniq = _sorted_unique(np.concatenate(codes))
    all_idx = uniq[:, None] // place % np.asarray(radix, dtype=np.int64) + lo
    return GridPointSet(all_idx.astype(float) * h, h)


# ---------------------------------------------------------------------------
# oracle


def sum_oracle(
    a: StaircaseSet,
    b: StaircaseSet,
    spec: SumSpec,
    budget: int = 4_000_000,
    out_grid: Grid | None = None,
) -> StaircaseSet:
    """Brute-force reference sum: plain Python loops, scalar arithmetic.

    Enumerates the same (cell pair, lam) tuples as the fast path,
    including the injected maximizers, but shares none of its array
    machinery.  At p = 1 it keeps every lam of the grid, where the fast
    path evaluates one.  Intended for tiny operands; raises BudgetError beyond the
    evaluation budget, and ResolutionError, as the fast path does, for an
    image off the output grid.
    """
    if spec.mode != CURVILINEAR or spec.p < 1.0:
        raise RegimeError("oracle covers the curvilinear p >= 1 regime")
    xa, ha = _support(a)
    xb, hb = _support(b)
    if spec.p == 1.0:
        lams = spec.lambda_grid()
    else:
        lams = _lambda_values(spec, a, b)
    lam_values = [float(l) for l in lams]
    n = a.base_dim
    alphas = spec.alphas.alphas
    a_last = alphas[-1]
    inject = spec.p > 1.0 and a_last != 0.0 and not math.isinf(a_last)
    total = len(xa) * len(xb) * (len(lam_values) + (1 if inject else 0))
    if total > budget:
        raise BudgetError(f"oracle would evaluate {total} tuples, budget {budget}")
    if out_grid is None:
        out_grid = derive_out_grid(a, b, spec)

    def scalar_combine(uu: float, vv: float, cc: float, dd: float, al: float) -> float:
        if al == _INF:
            return max(uu, vv)
        if al == -_INF:
            return min(uu, vv)
        if al == 0.0:
            return uu**cc * vv**dd
        if al < 0.0 and (uu == 0.0 or vv == 0.0):
            return 0.0
        if al == 1.0:
            return cc * uu + dd * vv
        return (cc * uu**al + dd * vv**al) ** (1.0 / al)

    def coeff(lam: float) -> tuple[float, float]:
        if spec.p == 1.0:
            if spec.coefficient_form == WITH_T:
                return 1.0 - spec.t, spec.t
            return 1.0, 1.0
        invq = 1.0 - 1.0 / spec.p
        cc = (1.0 - lam) ** invq
        dd = lam**invq
        if spec.coefficient_form == WITH_T:
            cc *= (1.0 - spec.t) ** (1.0 / spec.p)
            dd *= spec.t ** (1.0 / spec.p)
        return cc, dd

    heights = np.zeros(out_grid.shape)
    h_out = out_grid.spacing
    for i in range(len(xa)):
        for j in range(len(xb)):
            lams = list(lam_values)
            if inject:
                lams.append(float(spec.pair_lambda_star(ha[i], hb[j], a_last)))
            for lam in lams:
                cc, dd = coeff(lam)
                idx = []
                for ax in range(n):
                    z = scalar_combine(xa[i, ax], xb[j, ax], cc, dd, alphas[ax])
                    k = int(math.floor((z - out_grid.origin[ax]) / h_out + _SNAP))
                    if not 0 <= k < out_grid.shape[ax]:
                        raise ResolutionError(
                            f"output grid does not cover the sum on axis {ax}")
                    idx.append(k)
                vert = scalar_combine(ha[i], hb[j], cc, dd, a_last)
                key = tuple(idx)
                if vert > heights[key]:
                    heights[key] = vert
    return StaircaseSet(out_grid, heights)

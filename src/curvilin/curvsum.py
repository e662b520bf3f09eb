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
coordinate pair on axis i, so at a scalar lam each axis is snapped once per
pair of unique axis coordinates, into a small per-axis table of output
indices; a cell pair's output cell is a sum of table lookups.  Only the
per-pair maximizers, whose (C, D) differ from pair to pair, are snapped
pair by pair.

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
from .sets import BoxUnion, Grid, GridPointSet, IntervalUnion, StaircaseSet, normalize

_INF = math.inf
_SNAP = 1e-9  # floor snap guard, in cell units
_PAIR_CHUNK = 1 << 22

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
        if self.p <= 0:
            raise RangeError(f"p must be positive, got {self.p}")
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
            grid = np.unique(np.concatenate([grid, np.asarray(self.extra_lambdas)]))
        return grid

    def with_lambda_points(self, n: int) -> "SumSpec":
        return replace(self, lambda_points=n)

    def with_extra_lambdas(self, extras: tuple[float, ...]) -> "SumSpec":
        merged = tuple(sorted(set(self.extra_lambdas) | set(extras)))
        return replace(self, extra_lambdas=merged)

    def coefficients(self, lam):
        """(C, D) for scalar or array lam."""
        lam = np.asarray(lam, dtype=float)
        if self.p == 1.0:
            if self.coefficient_form == WITH_T:
                c = np.full_like(lam, 1.0 - self.t)
                d = np.full_like(lam, self.t)
            else:
                c = np.ones_like(lam)
                d = np.ones_like(lam)
            return c, d
        invq = 1.0 - 1.0 / self.p
        c = (1.0 - lam) ** invq
        d = lam**invq
        if self.coefficient_form == WITH_T:
            c = (1.0 - self.t) ** (1.0 / self.p) * c
            d = self.t ** (1.0 / self.p) * d
        return c, d

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
        return np.clip(np.nan_to_num(lam, nan=0.5), 1e-300, 1.0 - 1e-16)

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
        lam = np.clip(np.nan_to_num(lam, nan=0.5), 1e-300, 1.0 - 1e-16)
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

    @classmethod
    def from_json(cls, data: dict) -> "SumSpec":
        return cls(
            p=float(data["p"]),
            alphas=PowerVector(tuple(data["alphas"])),
            t=None if data.get("t") is None else float(data["t"]),
            lambda_points=int(data.get("lambda_points", 64)),
            mode=data.get("mode", CURVILINEAR),
            coefficient_form=data.get("coefficient_form", WITH_T),
            extra_lambdas=tuple(float(x) for x in data.get("extra_lambdas", ())),
        )


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
    union-volume pass.
    """
    lams = spec.lambda_grid()
    if spec.p == 1.0:
        return lams[:1]
    if _injects(spec):
        stars = [float(_lambda_star(spec, u, v))
                 for u, v in ((a.volume, b.volume), *pairs) if u > 0 and v > 0]
        lams = np.concatenate([lams, stars])
    return np.unique(lams)


def _coefficient_list(spec: SumSpec, lams) -> list:
    """(C, D) per lam as 0-d arrays, one scalar call each.

    Array powers, and powers of float64 scalars, can round differently.
    """
    return [spec.coefficients(lam) for lam in lams]


def _accumulate(out, out_grid, spec, xa, ha, xb, hb, lam_values):
    """Accumulate all (cell pair, lam) images into the output heights.

    For p >= 1 every image is max-accumulated into ``out`` (the union over
    lam).  For 0 < p < 1 the images of each lam are max-accumulated into a
    slice of their own and ``out`` receives the minimum over the slices
    (the intersection over lam).

    Coordinate i of a combined point depends on the coordinate pair on axis
    i alone, so at a scalar lam the output index on an axis is a function
    of the pair of unique axis coordinates.  Per row chunk and lam, each
    axis gets one table over (unique a coordinate, unique b coordinate)
    holding the snapped, clipped index times the row-major output stride;
    a cell pair's flat output index is the sum over axes of
    ``table[ia][:, ib]``, where ia and ib map cells to unique coordinates.
    The injected per-pair maximizer gives every height pair its own
    (C, D), so that pass snaps every cell pair directly.  The unique
    coordinates do not depend on lam and are computed once per call; the
    heights enter the vertical kernel as a column and a row, so each lam
    raises only rows + mb heights to the power alpha.
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
        np.clip(k, 0, shape[ax] - 1, out=k)
        k *= strides[ax]
        return k

    b_axes = [np.unique(xb[:, ax], return_inverse=True) for ax in range(n)]
    chunks = [
        (start, min(ma, start + chunk),
         [np.unique(xa[start : start + chunk, ax], return_inverse=True) for ax in range(n)])
        for start in range(0, ma, chunk)
    ]
    # row-major index buffers reused for every lam and chunk: fresh
    # pair-sized arrays per lam made the allocator return and refault pages,
    # and the row-major order keeps ravel() a view
    idx_buf = np.empty(min(chunk, ma) * mb, dtype=np.int64)
    part_buf = np.empty(idx_buf.size if n > 1 else 0, dtype=np.int64)

    def images(target, c, d):
        for start, stop, a_axes in chunks:
            size = (stop - start) * mb
            flat_idx = idx_buf[:size].reshape(stop - start, mb)
            part = part_buf[:size].reshape(stop - start, mb) if n > 1 else None
            for ax in range(n):
                (ua, ia), (ub, ib) = a_axes[ax], b_axes[ax]
                table = snap(base_kernel(ua[:, None], ub[None, :], c, d, alphas[ax]), ax)
                # ib is always in range; mode="clip" only skips an output copy
                np.take(table[ia], ib, axis=1, out=flat_idx if ax == 0 else part, mode="clip")
                if ax:
                    flat_idx += part
            vert = vert_kernel(ha[start:stop, None], v, c, d, a_last)
            np.maximum.at(target, flat_idx.ravel(), vert.ravel())

    cd_list = _coefficient_list(spec, lam_values)
    if spec.p < 1.0:
        lam_slice = np.empty_like(flat)
        for i, (c, d) in enumerate(cd_list):
            lam_slice.fill(0.0)
            images(lam_slice, c, d)
            if i == 0:
                flat[:] = lam_slice
            else:
                np.minimum(flat, lam_slice, out=flat)
        return out
    for c, d in cd_list:
        images(flat, c, d)
    if _injects(spec):
        for start, stop, _ in chunks:
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
# exact one-dimensional path


def curvilinear_sum_1d(k: IntervalUnion, l: IntervalUnion, spec: SumSpec) -> IntervalUnion:
    """Exact curvilinear sum of interval unions on the half line.

    Per (lam, interval pair) the image of [a,b] x [c,d] under the
    combined mean is the interval [m(a,c), m(b,d)] (monotone continuous
    map); the result is the normalized union over the lam evaluation set,
    including the closed-form maximizers for the volume pair, each length
    pair, and each right-endpoint pair.  At p = 1 one lam is evaluated.
    """
    if spec.alphas.n != 0:
        raise DomainError("curvilinear_sum_1d needs a single-entry power vector")
    if spec.mode != CURVILINEAR:
        raise RegimeError("interval path supports curvilinear mode only")
    if spec.p < 1.0:
        raise RegimeError("interval path supports p >= 1 only")
    alpha = spec.alphas.last
    ka = normalize(k).intervals
    la = normalize(l).intervals
    if not ka or not la:
        raise DegenerateInputError("summand has empty support")

    pairs = [q for a, b in ka for c, d in la for q in ((b - a, d - c), (b, d))]
    lam_arr = _lambda_values(spec, k, l, pairs)
    c_arr, d_arr = spec.coefficients(lam_arr)

    pieces = []
    for a, b in ka:
        for c, d in la:
            # max/min powers ignore the lam coefficients; force lam shape
            lo = np.broadcast_to(combine(a, c, c_arr, d_arr, alpha), lam_arr.shape)
            hi = np.broadcast_to(combine(b, d, c_arr, d_arr, alpha), lam_arr.shape)
            pieces.extend(zip(lo.tolist(), hi.tolist()))
    return normalize(IntervalUnion(tuple(pieces)))


# ---------------------------------------------------------------------------
# exact box path


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
    dim = a.dim
    alphas = spec.alphas.alphas
    lam_arr = _lambda_values(spec, a, b)
    c, d = spec.coefficients(lam_arr)
    # axes (box_a, box_b, lam, lo/hi, coordinate); rows come out in that order
    ab = a.as_array()[:, None, None]
    bb = b.as_array()[None, :, None]
    img = np.empty((len(a.boxes), len(b.boxes), lam_arr.size, 2, dim))
    for ax in range(dim):
        img[..., ax] = combine(ab[..., ax], bb[..., ax], c[:, None], d[:, None], alphas[ax])
    img = img.reshape(-1, 2, dim)
    return BoxUnion(dim, img[(img[:, 1] > img[:, 0]).all(axis=1)])


# ---------------------------------------------------------------------------
# exact envelope path (one base axis)


def staircase_sum_regions(a: StaircaseSet, b: StaircaseSet, spec: SumSpec):
    """(z_lo, z_hi, v) region arrays of the sum for one-base-axis staircases.

    Each (cell pair, lam) yields the base interval [m(x_lo, y_lo),
    m(x_hi, y_hi)] at height m(h_a, h_b); the anchored union of these
    rectangles is exactly the sum restricted to the lam set.

    Rows come in (lam, a-cell, b-cell) order, then one row per cell pair
    at its own maximizer.  (C, D) is computed per lam as scalars.  Where C
    and D only scale (``combine`` at alpha != 0) one broadcast over
    (lam, a-cell, b-cell) covers every lam; a power of C or D
    (``combine_quasi``, or ``combine`` at alpha = 0) stays one scalar
    call per lam, because array powers can round differently.
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
    u = ha[:, None]
    v = hb[None, :]
    cd_list = _coefficient_list(spec, _lambda_values(spec, a, b))
    c_col, d_col = np.asarray(cd_list).T[..., None, None]
    star = spec.coefficients(_lambda_star(spec, u, v)) if _injects(spec) else None
    xlo_a = xa[:, 0][:, None]
    xhi_a = xlo_a + a.grid.spacing
    xlo_b = xb[:, 0][None, :]
    xhi_b = xlo_b + b.grid.spacing
    n_lam = len(cd_list)
    out = np.empty((3, n_lam + (star is not None), len(ha), len(hb)))
    terms = (
        (base_kernel, xlo_a, xlo_b, alpha0),
        (base_kernel, xhi_a, xhi_b, alpha0),
        (vert_kernel, u, v, alpha1),
    )
    for rows, (kernel, x, y, alpha) in zip(out, terms):
        if kernel is combine and alpha != 0.0:
            rows[:n_lam] = combine(x, y, c_col, d_col, alpha)
        else:
            for row, (c, d) in zip(rows, cd_list):
                row[...] = kernel(x, y, c, d, alpha)
        if star is not None:
            rows[n_lam] = kernel(x, y, *star, alpha)
    return out[0].ravel(), out[1].ravel(), out[2].ravel()


def envelope_segments(z_lo, z_hi, v):
    """Max envelope of anchored rectangles as (breakpoints, values).

    Returns (bps, vals) with len(vals) = len(bps) - 1; the envelope is
    vals[i] on [bps[i], bps[i+1]), or 0 where no rectangle covers it.
    Rectangles with z_hi <= z_lo or v <= 0 are dropped first.

    Offline range-max over breakpoint indices: rectangle [l, r) is covered
    by the two power-of-two blocks [l, l + 2^k) and [r - 2^k, r), with
    k = floor(log2(r - l)).  Going from the widest level down, one
    ``np.maximum.at`` per block end writes a level's block maxima, and each
    level then passes its maxima into the two halves one level below
    (a sparse table run backwards).  Only two level arrays are live at a
    time.  A max selects and never rounds, so the values are exactly those
    of a sweep over the breakpoints.
    """
    z_lo = np.asarray(z_lo, dtype=float)
    z_hi = np.asarray(z_hi, dtype=float)
    v = np.asarray(v, dtype=float)
    keep = (z_hi > z_lo) & (v > 0)
    z_lo, z_hi, v = z_lo[keep], z_hi[keep], v[keep]
    if z_lo.size == 0:
        return np.asarray([0.0]), np.asarray([])
    bps, inv = np.unique(np.concatenate([z_lo, z_hi]), return_inverse=True)
    lo, hi = inv[: z_lo.size], inv[z_lo.size :]
    # exact floor(log2(hi - lo)); a float log2 can round up just below 2^k
    level = np.frexp(hi - lo)[1] - 1
    n_seg = bps.size - 1
    above = None
    for k in range(int(level.max()), -1, -1):
        width = 1 << k
        # block maxima of width 2^k, one per block start; block j of the
        # level above halves into blocks j and j + 2^k here (cur starts at
        # 0 and every value is positive, so the first half is a copy)
        cur = np.zeros(n_seg - width + 1)
        if above is not None:
            cur[: above.size] = above
            np.maximum(cur[width:], above, out=cur[width:])
        at = np.flatnonzero(level == k)
        v_at = v[at]
        np.maximum.at(cur, lo[at], v_at)
        np.maximum.at(cur, hi[at] - width, v_at)
        above = cur
    return bps, above


def envelope_volume(z_lo, z_hi, v) -> float:
    bps, vals = envelope_segments(z_lo, z_hi, v)
    if vals.size == 0:
        return 0.0
    return float(np.sum(np.diff(bps) * vals))


def staircase_sum_volume_exact(a: StaircaseSet, b: StaircaseSet, spec: SumSpec) -> float:
    """Exact volume of the lam-set sum for one-base-axis staircases."""
    z_lo, z_hi, v = staircase_sum_regions(a, b, spec)
    return envelope_volume(z_lo, z_hi, v)


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
        boxes = tuple(
            (
                tuple(l * f for l, f in zip(lo, factors)),
                tuple(h * f for h, f in zip(hi, factors)),
            )
            for lo, hi in x.boxes
        )
        return BoxUnion(x.dim, boxes)
    if isinstance(x, GridPointSet):
        if x.dim > len(factors):
            raise DomainError("power vector does not match point dimension")
        base = factors[: x.dim]
        if any(abs(f - base[0]) > 1e-12 * base[0] for f in base):
            raise GridAlignmentError("unequal powers need per-axis spacings")
        f = base[0]
        return GridPointSet(x.coords * f, x.spacing * f)
    raise DomainError(f"cannot dilate {type(x).__name__}")


# ---------------------------------------------------------------------------
# base-space sums of grid point sets


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
    spec = SumSpec(
        p=p,
        alphas=PowerVector((1.0,) * (x.dim + 1)),
        t=t,
        lambda_points=lambda_points,
    )
    lams = np.asarray([t]) if p == 1.0 else np.unique(np.append(spec.lambda_grid(), t))
    cd = np.asarray(_coefficient_list(spec, lams))
    c, d = cd[:, :1], cd[:, 1:]
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
    uniq = np.unique(np.concatenate(codes))
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
    evaluation budget.
    """
    if spec.mode != CURVILINEAR or spec.p < 1.0:
        raise RegimeError("oracle covers the curvilinear p >= 1 regime")
    xa, ha = _support(a)
    xb, hb = _support(b)
    if spec.p == 1.0:
        lams = np.unique(spec.lambda_grid())
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
                    k = min(max(k, 0), out_grid.shape[ax] - 1)
                    idx.append(k)
                vert = scalar_combine(ha[i], hb[j], cc, dd, a_last)
                key = tuple(idx)
                if vert > heights[key]:
                    heights[key] = vert
    return StaircaseSet(out_grid, heights)

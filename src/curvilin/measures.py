"""Densities, weighted measures of sets, F-maps and surface quotients.

This module computes quantities of staircase sets: measures, surface
quotients, the worst F-concavity gap and the dilation rate.  The
inequality checks that compare them, and their reports, live in
``verify``.  A grid function enters as its hypograph.

A measure here is always d(mu) = phi dx with phi sampled per cell of a
uniform grid (midpoint rule).  Staircase sets are integrated column by
column: the base contribution is the midpoint value times the cell area,
the vertical contribution is exact overlap against the density's vertical
cells, so constant densities reproduce Lebesgue volume to rounding.

The surface quotients are one-sided difference quotients of
eps -> V(A + eps x B) on a geometric epsilon schedule, for staircases over
one base axis; the liminf is operationalized as the minimum of the last
three quotients.  Each V(A + eps x B) is the exact volume of the sum over
a finite lam set, which lies inside the sum over all lam, so each
quotient is at most the true one at its eps.  No grid sum stands in for
more base axes: it takes the dilated operand's spacing, h eps^(1/(p alpha)),
keeps almost none of A, and every quotient would read about -V(A)/eps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .curvsum import (
    T_FREE,
    WITH_T,
    SumSpec,
    curvilinear_sum_grid,
    scalar_dilate,
    staircase_sum_volume_exact,
)
from .errors import (
    CoverageError,
    DegenerateInputError,
    DomainError,
    RangeError,
    RegimeError,
)
from .means import PowerVector, mean_alpha
from .sets import (
    Grid,
    GridFunction,
    StaircaseSet,
    _integrate_leading,
    _sorted_unique,
)

EPS_SCHEDULE = tuple(2.0**-j for j in range(4, 11))

_SPOT_SEED = 1723
_SPOT_TRIPLES = 60


# ---------------------------------------------------------------------------
# densities


@dataclass(frozen=True)
class DensityMeasure:
    """Measure with density phi on a grid, optionally tagged alpha-concave.

    A set tag is spot-verified on construction: for lattice-aligned
    triples x, y, (1-s)x + sy with phi(x) phi(y) > 0 the sampled density
    must dominate the s-weighted alpha-mean of the endpoint values.  The
    check samples, it does not prove.  Its 60 triples come from a fixed
    seed, drawn one after another (a support cell x, then a step to y), and
    are tested in draw order at s = 1/4, 1/2, 3/4; the draws and their order
    are part of the check, since they pick the triples tested and the first
    failing one named in the error.
    """

    density: GridFunction
    alpha_concavity: float | None = None

    def __post_init__(self) -> None:
        if self.alpha_concavity is not None:
            self._spot_verify()

    @property
    def grid(self) -> Grid:
        return self.density.grid

    @property
    def is_lebesgue(self) -> bool:
        return bool(np.all(self.density.values == 1.0))

    def _spot_verify(self) -> None:
        alpha = float(self.alpha_concavity)
        vals = self.density.values
        shape = vals.shape
        support = np.argwhere(vals > 0)
        if support.shape[0] < 2:
            return
        rng = np.random.default_rng(_SPOT_SEED)
        # one support cell, then one step, per triple
        i, w = map(np.array, zip(*[(support[rng.integers(support.shape[0])],
                                    rng.integers(-3, 4, size=len(shape)))
                                   for _ in range(_SPOT_TRIPLES)]))
        # steps of 4 keep all three interior combination points on cells
        j = i + 4 * w
        top = np.asarray(shape) - 1
        inside = np.all((j >= 0) & (j <= top), axis=1)
        # i is drawn from the support, so only phi(j) can vanish; clipping
        # only moves the gathers of triples that are skipped anyway
        fi = vals[tuple(i.T)]
        fj = vals[tuple(np.clip(j, 0, top).T)]
        # have[k, m]: the density at i + (m + 1) w, the cell at s = (m + 1) / 4
        mids = i[:, None, :] + np.arange(1, 4)[None, :, None] * w[:, None, :]
        have = vals[tuple(np.clip(mids, 0, top).T)].T
        for k in np.flatnonzero(inside & (fj > 0.0)):
            for num in (1, 2, 3):
                s = num / 4.0
                want = mean_alpha(float(fi[k]), float(fj[k]), s, alpha)
                if have[k, num - 1] < want - 1e-9:
                    raise DomainError(
                        f"declared {alpha}-concavity fails at cells {tuple(i[k])}, "
                        f"{tuple(j[k])}, s={s}: {float(have[k, num - 1])} < {want}"
                    )


def _midpoints(grid: Grid) -> np.ndarray:
    return grid.cell_lower_corners() + grid.spacing / 2.0


def lebesgue(grid: Grid) -> DensityMeasure:
    return DensityMeasure(GridFunction(grid, np.ones(grid.shape)), math.inf)


def tent_density(grid: Grid, center: tuple[float, ...], scale: float) -> DensityMeasure:
    """(1 - |x - c|_1 / scale)_+ sampled at midpoints; 1-concave."""
    if scale <= 0:
        raise RangeError("scale must be positive")
    mids = _midpoints(grid)
    dist = np.abs(mids - np.asarray(center, dtype=float)).sum(axis=1)
    vals = np.maximum(0.0, 1.0 - dist / scale).reshape(grid.shape)
    return DensityMeasure(GridFunction(grid, vals), 1.0)


def gaussian_density(grid: Grid, center: tuple[float, ...], sigma: float) -> DensityMeasure:
    """exp(-|x-c|^2 / (2 sigma^2)) at midpoints; log-concave (alpha = 0)."""
    if sigma <= 0:
        raise RangeError("sigma must be positive")
    mids = _midpoints(grid)
    d2 = ((mids - np.asarray(center, dtype=float)) ** 2).sum(axis=1)
    vals = np.exp(-d2 / (2.0 * sigma * sigma)).reshape(grid.shape)
    return DensityMeasure(GridFunction(grid, vals), 0.0)


# ---------------------------------------------------------------------------
# integration


def _cell_indices(points: np.ndarray, grid: Grid, ndim: int) -> tuple:
    """Grid cell indices containing the given points, or CoverageError."""
    origin = np.asarray(grid.origin[:ndim])
    idx = np.floor((points - origin) / grid.spacing).astype(np.int64)
    shape = np.asarray(grid.shape[:ndim])
    if np.any(idx < 0) or np.any(idx >= shape):
        raise CoverageError("set extends beyond the density grid")
    return tuple(idx.T)


def _column_masses(a: StaircaseSet, mu: DensityMeasure) -> np.ndarray:
    """Integral of the density over each base cell's column, full grid shape.

    The density grid may live on the base space (values constant in the
    vertical, column integral = phi * height, exact) or on the ambient
    space (midpoint rule per vertical density cell with exact overlap
    lengths against [0, height]).
    """
    nb = a.base_dim
    dgrid = mu.grid
    heights = a.heights.ravel()
    corners = a.grid.cell_lower_corners()
    mids = corners + a.grid.spacing / 2.0
    mask = heights > 0
    out = np.zeros(heights.shape)
    if not np.any(mask):
        return out.reshape(a.grid.shape)
    mids = mids[mask]
    hv = heights[mask]
    if dgrid.ndim == nb:
        phi = mu.density.values[_cell_indices(mids, dgrid, nb)]
        out[mask] = phi * hv
        return out.reshape(a.grid.shape)
    if dgrid.ndim != nb + 1:
        raise DomainError(
            f"density dimension {dgrid.ndim} matches neither base {nb} nor ambient"
        )
    z0 = dgrid.origin[-1]
    hz = dgrid.spacing
    top = z0 + dgrid.shape[-1] * hz
    if z0 > 1e-12 or np.any(hv > top + 1e-9):
        raise CoverageError("columns extend beyond the density grid vertically")
    base_idx = _cell_indices(mids, dgrid, nb)
    cols = mu.density.values[base_idx]  # (m, K)
    k = np.arange(dgrid.shape[-1])
    z_lo = z0 + k * hz
    z_hi = z_lo + hz
    overlap = np.clip(np.minimum(hv[:, None], z_hi) - np.maximum(0.0, z_lo), 0.0, None)
    out[mask] = np.sum(cols * overlap, axis=1)
    return out.reshape(a.grid.shape)


def measure_of(a, mu: DensityMeasure) -> float:
    """mu-measure of a staircase set."""
    if isinstance(a, StaircaseSet):
        col = _column_masses(a, mu)
        return float(np.sum(col)) * a.grid.spacing**a.base_dim
    raise DomainError(f"cannot integrate over {type(a).__name__}")


def mu_section_quantities(a: StaircaseSet, mu: DensityMeasure, k: int) -> GridFunction:
    """Fiber masses over the first k base axes, on the remaining ones.

    The value at u is the mu-mass of the fiber through u, and ``.sup_norm``
    the largest such mass; row j of sets.superlevel_masks(profile, rs)
    flags the grid cells where the fiber mass reaches rs[j] times it.  With
    a constant density the profile is sets.section_profile of the same
    staircase.
    """
    profile = _integrate_leading(_column_masses(a, mu), a.grid, k)
    if profile.sup_norm <= 0.0:
        raise DegenerateInputError("all fibers have zero mass")
    return profile


# ---------------------------------------------------------------------------
# F-maps


F_POWER = "power"
F_LOG = "log"
F_LINEAR = "linear"

_F_CHECK_POINTS = (0.25, 0.5, 1.0, 2.0, 4.0)


@dataclass(frozen=True)
class FSpec:
    """Invertible differentiable scalar map from a small built-in family.

    kind "power" is x**param (param != 0), "log" is ln x, "linear" is
    param*x + offset.  Construction self-checks the inverse and the
    derivative against finite differences on a fixed sample range.
    """

    kind: str
    param: float = 1.0
    offset: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in (F_POWER, F_LOG, F_LINEAR):
            raise RangeError(f"unknown F kind {self.kind!r}")
        if self.kind in (F_POWER, F_LINEAR) and self.param == 0.0:
            raise RangeError("param must be nonzero")
        for x in _F_CHECK_POINTS:
            y = self.value(x)
            back = self.inverse(y)
            if abs(back - x) > 1e-10 * max(1.0, abs(x)):
                raise RangeError(f"inverse check failed at {x}: {back}")
            d = 1e-6 * max(1.0, x)
            fd = (self.value(x + d) - self.value(x - d)) / (2.0 * d)
            want = self.derivative(x)
            if abs(fd - want) > 1e-6 * max(1e-12, abs(want)):
                raise RangeError(f"derivative check failed at {x}: {fd} vs {want}")

    def value(self, x: float) -> float:
        if self.kind == F_POWER:
            if x < 0 or (x == 0 and self.param < 0):
                raise RangeError(f"power map needs x >= 0, got {x}")
            return float(x**self.param)
        if self.kind == F_LOG:
            if x <= 0:
                raise RangeError(f"log map needs x > 0, got {x}")
            return math.log(x)
        return self.param * x + self.offset

    def inverse(self, y: float) -> float:
        if self.kind == F_POWER:
            if y < 0 or (y == 0 and self.param < 0):
                raise RangeError(f"power inverse got out-of-range {y}")
            return float(y ** (1.0 / self.param))
        if self.kind == F_LOG:
            return math.exp(y)
        return (y - self.offset) / self.param

    def derivative(self, x: float) -> float:
        if self.kind == F_POWER:
            if x <= 0 and self.param != 1.0:
                raise RangeError(f"power derivative needs x > 0, got {x}")
            return float(self.param * x ** (self.param - 1.0))
        if self.kind == F_LOG:
            if x <= 0:
                raise RangeError(f"log derivative needs x > 0, got {x}")
            return 1.0 / x
        return self.param

    @property
    def derivative_at_one(self) -> float:
        return self.derivative(1.0)

    def describe(self) -> dict:
        return {"kind": self.kind, "param": self.param, "offset": self.offset}


# ---------------------------------------------------------------------------
# surface quotients


@dataclass(frozen=True)
class SurfaceEstimate:
    """Difference quotients on a decreasing epsilon schedule.

    estimate is the minimum of the last three quotients; trend records
    whether the sequence moved one way or oscillated.  A spread above 20%
    of scale among the last three marks the estimate unsettled; callers
    report that, it is not an error here.
    """

    quotients: tuple[tuple[float, float], ...]
    estimate: float
    trend: str

    def __post_init__(self) -> None:
        eps = [e for e, _ in self.quotients]
        if any(b >= a for a, b in zip(eps, eps[1:])):
            raise RangeError("epsilon schedule must be strictly decreasing")

    @classmethod
    def build(cls, quotients: list[tuple[float, float]]) -> "SurfaceEstimate":
        if not quotients:
            raise RangeError("need at least one quotient")
        vals = [q for _, q in quotients]
        tail = vals[-3:]
        scale = max(1e-12, max(abs(v) for v in vals))
        diffs = [b - a for a, b in zip(vals, vals[1:])]
        up = all(d >= -1e-12 * scale for d in diffs)
        down = all(d <= 1e-12 * scale for d in diffs)
        trend = "monotone" if (up or down) else "oscillating"
        return cls(tuple(quotients), min(tail), trend)

    @property
    def unsettled(self) -> bool:
        tail = [q for _, q in self.quotients[-3:]]
        scale = max(1e-12, max(abs(v) for v in tail))
        return (max(tail) - min(tail)) > 0.2 * scale


def _t_free_spec(p: float, alphas: PowerVector, lambda_points: int) -> SumSpec:
    if p < 1.0:
        raise RegimeError("surface quotients cover p >= 1 only")
    return SumSpec(
        p=p, alphas=alphas, t=None,
        lambda_points=lambda_points, coefficient_form=T_FREE,
    )


def _exact_sum_path(a: StaircaseSet, mu: DensityMeasure) -> bool:
    return a.base_dim == 1 and mu.is_lebesgue


def _mu_of_sum(a, b, spec: SumSpec, mu: DensityMeasure) -> float:
    """mu of the sum: the exact envelope volume, or the grid sum measured."""
    if _exact_sum_path(a, mu):
        return staircase_sum_volume_exact(a, b, spec)
    return measure_of(curvilinear_sum_grid(a, b, spec), mu)


def _reach_extras(a: StaircaseSet, b: StaircaseSet, spec: SumSpec) -> tuple:
    """Per-axis base-reach maximizers over support-cell edge pairs.

    The sum paths inject the vertical per-pair maximizer themselves, but
    the base-coordinate one lives near 0 or 1 when the operands are at
    very different scales (surface quotients dilate one operand by eps),
    far below any uniform grid value; without it the evaluated union
    misses a first-order boundary strip of the larger operand.
    """
    if spec.p <= 1.0:
        return ()
    ca, _ = a.support_cells()
    cb, _ = b.support_cells()
    if ca.shape[0] == 0 or cb.shape[0] == 0:
        return ()
    alphas = spec.alphas.alphas
    found = []
    for ax in range(a.base_dim):
        u = _sorted_unique(ca[:, ax]) + a.grid.spacing
        v = _sorted_unique(cb[:, ax]) + b.grid.spacing
        lam = spec.pair_lambda_star(u[:, None], v[None, :], alphas[ax])
        found.append(_sorted_unique(lam))
    return tuple(float(x) for x in _sorted_unique(np.concatenate(found)))


def surface_area_sets(
    a: StaircaseSet,
    b: StaircaseSet,
    p: float,
    alphas: PowerVector,
    lambda_points: int = 64,
) -> SurfaceEstimate:
    """Difference quotients of eps -> V(A + eps x B) at eps -> 0.

    The sum is the t-free one; eps x B is realized by scalar dilation, and
    every sum's volume is the exact envelope's, so both staircases must
    have one base axis (RegimeError otherwise).
    """
    if a.base_dim != 1 or b.base_dim != 1:
        raise RegimeError(
            "surface quotients take staircases over one base axis, got base "
            f"dimensions {a.base_dim} and {b.base_dim}")
    spec = _t_free_spec(p, alphas, lambda_points)
    if b.volume == 0.0:
        qs = [(float(e), 0.0) for e in EPS_SCHEDULE]
        return SurfaceEstimate.build(qs)
    vol_a = a.volume
    qs = []
    for eps in EPS_SCHEDULE:
        eb = scalar_dilate(float(eps), b, spec)
        spec_e = spec.with_extra_lambdas(_reach_extras(a, eb, spec))
        val = staircase_sum_volume_exact(a, eb, spec_e)
        qs.append((float(eps), (val - vol_a) / float(eps)))
    return SurfaceEstimate.build(qs)


# ---------------------------------------------------------------------------
# concavity gap and dilation rate


def f_concavity_gap(a: StaircaseSet, b: StaircaseSet, mu: DensityMeasure, F: FSpec,
                    spec: SumSpec, t_samples: tuple, mu_a: float,
                    mu_b: float) -> tuple[float, float, float]:
    """(t, lhs, rhs) of the worst t sample of F-concavity of mu.

    lhs is mu of the sum at t, rhs is F^{-1}((1-t) F(mu A) + t F(mu B)),
    with mu A and mu B given as ``mu_a`` and ``mu_b``; the worst sample
    has the smallest lhs - rhs, the first one on a tie.  A function enters
    as its hypograph (``f.hypograph()``).
    """
    if not t_samples:
        raise RangeError("need at least one t sample")
    worst = None
    for t in t_samples:
        t = float(t)
        lhs = _mu_of_sum(a, b, replace(spec, t=t, coefficient_form=WITH_T), mu)
        rhs = F.inverse((1.0 - t) * F.value(mu_a) + t * F.value(mu_b))
        if worst is None or (lhs - rhs) < (worst[1] - worst[2]):
            worst = (t, lhs, rhs)
    return worst


def dilation_rate(a: StaircaseSet, mu: DensityMeasure, p: float, alphas: PowerVector,
                  lambda_points: int = 64) -> tuple[float, float]:
    """(mu(A), one-sided derivative of eps -> mu(eps x A) at eps = 1).

    The derivative is the estimate of the quotients (mu(A) - mu((1-e) x A))
    / e on the epsilon schedule, from below one.  Under a constant density
    both measures are staircase volumes.
    """
    spec = _t_free_spec(p, alphas, lambda_points)
    exact = mu.is_lebesgue
    mu_a = a.volume if exact else measure_of(a, mu)
    qs = []
    for eps in EPS_SCHEDULE:
        ca = scalar_dilate(1.0 - float(eps), a, spec)
        val = ca.volume if exact else measure_of(ca, mu)
        qs.append((float(eps), (mu_a - val) / float(eps)))
    return mu_a, SurfaceEstimate.build(qs).estimate

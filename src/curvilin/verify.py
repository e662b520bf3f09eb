"""Theorem harness: seeded instance families and one check per inequality.

Every check computes its left side from an inner approximation and its
right side from closed forms or exact envelope paths, reports the slack,
and lets the suite runner retry at doubled grid and lam densities before
a fail verdict is allowed.  Instance draws are keyed on (kind, seed,
index) through a seed sequence, so identical manifests produce identical
reports byte for byte, in any worker layout.
"""

from __future__ import annotations

import concurrent.futures
import csv
import json
import math
import zlib
from dataclasses import dataclass, replace

import numpy as np

from .curvsum import (
    CONVEX_QUASI,
    CURVILINEAR,
    SumSpec,
    curvilinear_sum_1d,
    curvilinear_sum_boxes,
    curvilinear_sum_grid,
    derive_out_grid,
    lp_minkowski_sum_base,
    staircase_sum_volume_exact,
    sum_oracle,
)
from .errors import CurvilinError, DomainError, RangeError
from .funcs import sup_convolve
from .means import PowerVector, mean_alpha, sup_lambda_min_form
from .measures import (
    F_LOG,
    F_POWER,
    DensityMeasure,
    FSpec,
    dilation_rate,
    f_concavity_gap,
    gaussian_density,
    lebesgue,
    measure_of,
    mu_section_quantities,
    surface_area_sets,
    tent_density,
)
from .reports import FAIL, PASS, REFINE, InequalityReport, verdict_for
from .sets import (
    BoxUnion,
    Grid,
    GridFunction,
    GridPointSet,
    IntervalUnion,
    StaircaseSet,
    _sorted_unique,
    box_union_volume,
    compress,
    normalized_compression,
    section_profile,
    superlevel_masks,
)

INTERVAL_UNIONS = "interval_unions"
BOX_UNIONS = "box_unions"
STAIRCASES = "staircases"
GRID_FUNCTIONS = "grid_functions"
DENSITIES = "densities"
KINDS = (INTERVAL_UNIONS, BOX_UNIONS, STAIRCASES, GRID_FUNCTIONS, DENSITIES)

REFINE_BUDGET = 2  # levels of doubling before fail is allowed
_R_POINTS = 64
_EXACT_TOL = 1e-9
_VALUE_RANGE = (0.2, 2.0)  # cell values of staircase and function draws


# ---------------------------------------------------------------------------
# instance families


@dataclass(frozen=True)
class InstanceGen:
    """Deterministic instance family.

    The same (kind, seed, index) triple always yields the same object:
    the generator seeds a fresh bit stream from that triple, so draws are
    independent of call order and of how work is split across processes.
    """

    kind: str
    seed: int = 0
    dim: int = 1
    cells: int = 6
    pieces: int = 3
    zero_frac: float = 0.18

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise RangeError(f"unknown instance kind {self.kind!r}")
        if self.dim < 1 or self.cells < 2 or self.pieces < 1:
            raise RangeError("instance family sizes must be positive")

    def rng(self, index: int) -> np.random.Generator:
        return np.random.default_rng((KINDS.index(self.kind), self.seed, index))

    def draw(self, index: int):
        rng = self.rng(index)
        if self.kind == INTERVAL_UNIONS:
            return self._interval_union(rng)
        if self.kind == BOX_UNIONS:
            return self._box_union(rng)
        if self.kind == STAIRCASES:
            return StaircaseSet(*self._grid_values(rng))
        if self.kind == GRID_FUNCTIONS:
            return GridFunction(*self._grid_values(rng))
        return self._density(rng)

    def _interval_union(self, rng) -> IntervalUnion:
        m = int(rng.integers(1, self.pieces + 1))
        ends = np.sort(rng.choice(np.arange(1, 41), size=2 * m, replace=False))
        ends = ends.astype(float) * 0.1
        if rng.random() < 0.3:
            ends = ends - ends[0]  # anchored variant
        return IntervalUnion(
            tuple((float(ends[2 * i]), float(ends[2 * i + 1])) for i in range(m))
        )

    def _box_union(self, rng) -> BoxUnion:
        m = int(rng.integers(1, self.pieces + 1))
        boxes = []
        for _ in range(m):
            lo = rng.integers(0, 7, size=self.dim) * 0.25
            hi = lo + rng.integers(1, 5, size=self.dim) * 0.25
            boxes.append((lo, hi))
        return BoxUnion(self.dim, boxes)

    def _grid_values(self, rng):
        shape = tuple(
            int(rng.integers(max(2, self.cells - 2), self.cells + 3))
            for _ in range(self.dim)
        )
        values = rng.uniform(*_VALUE_RANGE, size=shape)
        if self.zero_frac > 0.0:
            values[rng.random(shape) < self.zero_frac] = 0.0
            if not values.any():
                values.flat[0] = _VALUE_RANGE[1]
        return Grid((0.0,) * self.dim, 0.25, shape), values

    def _density(self, rng) -> DensityMeasure:
        # wide grid: sums of the staircase families stay well inside
        grid = Grid((0.0,) * self.dim, 0.25, (48,) * self.dim)
        kind = int(rng.integers(0, 3))
        if kind == 0:
            return lebesgue(grid)
        center = tuple(float(c) for c in rng.uniform(1.0, 3.0, size=self.dim))
        if kind == 1:
            # support must reach the origin and cover the sums
            scale = float(rng.uniform(4.0, 8.0))
            return tent_density(grid, center, scale)
        return gaussian_density(grid, center, float(rng.uniform(0.8, 2.0)))


def _pairs(kind: str, dim: int, period: int = 0, **sizes):
    """Builder of the operand pair (draw 2i, draw 2i+1) of run i.

    With a period, every run i with i % period == period - 1 draws one
    dimension up.  The keyword sizes go to InstanceGen unchanged.
    """
    def build(seed: int, index: int):
        up = period and index % period == period - 1
        gen = InstanceGen(kind, seed=seed, dim=dim + 1 if up else dim, **sizes)
        return gen.draw(2 * index), gen.draw(2 * index + 1)
    return build


def _measure_instance(seed: int, index: int):
    a, b = _pairs(STAIRCASES, 1, cells=6, zero_frac=0.0)(seed, index)
    return a, b, InstanceGen(DENSITIES, seed=seed, dim=2).draw(index)


def _minkowski_instance(seed: int, index: int):
    raw, b = _pairs(STAIRCASES, 1, cells=5, zero_frac=0.0)(seed, index)
    # the first operand must be closed under its own lam combinations
    # (self-sum equal to its dilate), which anchored boxes are exactly;
    # rough first operands gain first-order corner bulk in the
    # self-quotient and push the right side above the true variation
    box = StaircaseSet(raw.grid, np.full(raw.grid.shape, raw.sup_height))
    # surface checks run against volume: tagged densities have no
    # provable concavity here and would only ever reach refine
    return box, b, lebesgue(Grid((0.0, 0.0), 0.25, (48, 48)))


# ---------------------------------------------------------------------------
# shared plumbing


def _param_rng(check_id: str, seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng((zlib.crc32(check_id.encode("ascii")), seed, index))


def _draw_p(rng) -> float:
    return float(rng.choice(np.asarray([1.0, 1.5, 2.0, 3.0]), p=[0.3, 0.2, 0.3, 0.2]))


def _levels(params) -> tuple[int, bool]:
    """(lam points at the run's level, whether a finer level is left)."""
    level = params["level"]
    # (b+1)*2^k - 1 keeps the lam grids nested level to level
    return (params["lambda_points"] + 1) * (1 << level) - 1, level < REFINE_BUDGET


def _pair_at_level(instance, level: int):
    a, b = instance[0], instance[1]
    if level <= 0:
        return a, b
    return a.refined(1 << level), b.refined(1 << level)


def _clean(value):
    """JSON-safe copy: non-finite floats to strings, arrays to lists."""
    if isinstance(value, dict):
        return {k: _clean(v) for k, v in value.items()}
    if isinstance(value, (tuple, list)):
        return [_clean(v) for v in value]
    if isinstance(value, (np.floating, np.integer)):
        value = float(value)
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    return value


def _report(check_id, params, lhs, rhs, tol, *, slack=None, grid_h=None,
            lambda_points=None, can_refine=True, extra=None):
    report = InequalityReport.from_values(
        check_id, int(params["run_seed"]), float(lhs), float(rhs), tol, grid_h,
        lambda_points, can_refine, _clean({**params, "tol": tol, **(extra or {})}),
    )
    if slack is None:
        return report
    slack = float(slack)
    return replace(report, slack=slack, verdict=verdict_for(slack, tol, can_refine))


def _delta_exponent(alpha: float, beta: float, k: int) -> float:
    return PowerVector((1.0, alpha)).delta(beta, k)


def _quasi_pair(rng, k: int, fixed_alpha: float | None = None):
    """Draw (alpha, beta) with alpha+beta >= 0 on the min-branch side.

    alpha is drawn per try unless fixed.  The region below the -1/k
    threshold with a nonnegative sum is thin; after a bounded number of
    tries the caller falls back to the mean branch, which is reported,
    not failed.
    """
    for _ in range(40):
        alpha = float(rng.uniform(0.3, 1.0)) if fixed_alpha is None else fixed_alpha
        beta = -alpha + float(rng.uniform(0.02, 0.3))
        if alpha + beta < 0.02:
            continue
        if (1.0 + k * alpha) * (1.0 + k * beta) < 0.92:
            delta = _delta_exponent(alpha, beta, k)
            if 0.0 < delta < 20.0:
                return alpha, beta
    return None


def _base_reach_extras(a: StaircaseSet, b: StaircaseSet, spec: SumSpec):
    """lam values maximizing the base reach of support-cell pairs.

    One-dimensional base sums inject per-pair reach maximizers while the
    grid sums only inject vertical ones; matching the sets keeps a sum
    and the base sums of its level sets comparable slice by slice.
    """
    extras = [spec.t]
    if spec.p > 1.0 and a.base_dim == 1:
        ca, _ = a.support_cells()
        cb, _ = b.support_cells()
        lam = spec.pair_lambda_star(ca[:, 0][:, None], cb[None, :, 0], 1.0)
        extras.extend(float(x) for x in _sorted_unique(lam))
    return tuple(extras)


def _layered_base_integral(prof_a, prof_b, p, t, lambda_points):
    """Right-endpoint quadrature of r -> V(base sum of the r-superlevels).

    The integrand is nonincreasing in r, so the rule underestimates the
    integral and the bound direction stays sound.  Each profile gives one
    (``_R_POINTS``, cells) mask matrix from one comparison and its cell
    corners once.  Adjacent r levels often cut the same cells, and their
    base sum is the same, so the base sum runs once per distinct mask pair,
    in r order.
    """
    rs = np.arange(1, _R_POINTS + 1) / _R_POINTS
    profs = (prof_a, prof_b)
    masks = [superlevel_masks(prof, rs) for prof in profs]
    corners = [prof.grid.cell_lower_corners() for prof in profs]
    fresh = np.ones(_R_POINTS, dtype=bool)
    fresh[1:] = np.logical_or(*(np.any(m[1:] != m[:-1], axis=1) for m in masks))
    acc = 0.0
    for j in range(_R_POINTS):
        if fresh[j]:
            x, y = (GridPointSet(c[m[j]], prof.grid.spacing)
                    for c, m, prof in zip(corners, masks, profs))
            vol = lp_minkowski_sum_base(x, y, p, t, lambda_points).volume
        acc += vol / _R_POINTS
    return acc


def _closed_bound(min_branch: bool, va: float, vb: float, p, t, gamma) -> float:
    """sup over lam of the min form on the min branch, else the (p gamma)-mean."""
    return (sup_lambda_min_form(va, vb, p, t, gamma) if min_branch
            else mean_alpha(va, vb, t, p * gamma))


def _branch_bound(spec: SumSpec, va: float, vb: float):
    """(rhs, spec, extra): the mean or min branch bound from two volumes.

    On the min branch at p > 1 the closed-form crossing lam joins the
    spec, so the evaluated lam set contains the slice attaining the bound.
    """
    p, t, gamma = spec.p, spec.t, spec.alphas.gamma
    min_branch = spec.alphas.uses_min_branch()
    rhs = _closed_bound(min_branch, va, vb, p, t, gamma)
    if min_branch and p > 1.0:
        spec = spec.with_extra_lambdas((float(spec.quasi_crossing_lambda(va, vb, gamma)),))
    return rhs, spec, {"branch": "min" if min_branch else "mean", "gamma": gamma}


def _sum_volume(a: StaircaseSet, b: StaircaseSet, spec: SumSpec):
    """Sum volume and grid spacing; exact envelope (spacing None) on one base axis."""
    if a.base_dim == 1:
        return staircase_sum_volume_exact(a, b, spec), None
    out = curvilinear_sum_grid(a, b, spec)
    return out.volume, out.grid.spacing


def _hypograph_sum(prof_a, prof_b, params, lp: int, delta: float) -> float:
    """Volume of the sum of two profiles' hypographs, each scaled to sup 1.

    delta is the vertical power; the quasi branch takes the convex quasi
    kernel, the mean branch the mean kernel.
    """
    a = StaircaseSet(prof_a.grid, prof_a.values / prof_a.sup_norm)
    b = StaircaseSet(prof_b.grid, prof_b.values / prof_b.sup_norm)
    p, t = params["p"], params["t"]
    alphas = PowerVector((1.0,) * a.base_dim + (delta,))
    mode = CONVEX_QUASI if params["branch"] == "quasi" else CURVILINEAR
    return _sum_volume(a, b, SumSpec(p, alphas, t, lp, mode))[0]


# ---------------------------------------------------------------------------
# calibration

_CAL_CACHE: dict[int, float] = {}
# what the recipe gives at seed 0, the seed every check run uses
_CAL_SEED0 = 2.652446547886875


def calibrate_grid_constant(seed: int = 0) -> float:
    """Tolerance slope c for grid paths, recorded in every grid report.

    Level-zero grid sums are compared against oracle runs on refined
    copies of tiny operands with a denser nested lam grid; the worst
    deviation per unit cell width, doubled and floored at one, becomes
    the constant in tol = c * h.

    Seed 0, the seed of every check run, returns the committed value of
    that recipe, so no process reruns the oracle; the tests recompute it.
    Any other seed runs the recipe once per process.
    """
    if seed == 0:
        return _CAL_SEED0
    if seed not in _CAL_CACHE:
        _CAL_CACHE[seed] = _calibrate(seed)
    return _CAL_CACHE[seed]


def _calibrate(seed: int) -> float:
    gen = InstanceGen(STAIRCASES, seed=seed, dim=1, cells=3, zero_frac=0.0)
    worst = 0.0
    for index in range(4):
        a, b = gen.draw(2 * index), gen.draw(2 * index + 1)
        rng = _param_rng("calibration", seed, index)
        p = float(rng.choice(np.asarray([1.0, 1.5, 2.0])))
        t = float(rng.uniform(0.25, 0.75))
        alpha = float(rng.uniform(0.3, 1.0))
        spec = SumSpec(p, PowerVector((1.0, alpha)), t, 9)
        coarse = curvilinear_sum_grid(a, b, spec).volume
        fine = sum_oracle(
            a.refined(4), b.refined(4), replace(spec, lambda_points=79)
        ).volume
        worst = max(worst, abs(fine - coarse) / a.grid.spacing)
    return max(1.0, 2.0 * worst)


# ---------------------------------------------------------------------------
# checks


def check_lemma_1d(instance, params):
    """Interval-union sum volume against the pooled mean of the volumes.

    Exact path: interval arithmetic with closed-form lam injection, so
    there is nothing to refine and the verdict is decided at 1e-9.
    """
    k, l = instance
    p, t, alpha = params["p"], params["t"], params["alpha"]
    spec = SumSpec(p, PowerVector((alpha,)), t, params["lambda_points"])
    lhs = curvilinear_sum_1d(k, l, spec).volume
    rhs = mean_alpha(k.volume, l.volume, t, p * alpha)
    return _report(
        "lemma_1d", params, lhs, rhs, _EXACT_TOL,
        lambda_points=spec.lambda_points, can_refine=False,
    )


def check_compression_monotone(instance, params):
    """Box-union sum volume against the sum of the compressed operands.

    Compression preserves volume, so the injected volume maximizer agrees
    on both sides and the two sums run on the same lam set; the residual
    asymmetry of the lam unions shrinks as the lam grid refines.
    """
    a, b = instance
    p, t, alpha = params["p"], params["t"], params["alpha"]
    lp, can_refine = _levels(params)
    spec = SumSpec(p, PowerVector((1.0,) * (a.dim - 1) + (alpha,)), t, lp)
    ca, cb = compress(a), compress(b)
    drift = max(abs(ca.volume - a.volume), abs(cb.volume - b.volume))
    lhs = box_union_volume(curvilinear_sum_boxes(a, b, spec))
    rhs = box_union_volume(curvilinear_sum_boxes(ca.boxes(), cb.boxes(), spec))
    scale = max(1.0, a.volume + b.volume)
    tol = _EXACT_TOL + 0.5 * scale / (lp + 1)
    report = _report(
        "compression_monotone", params, lhs, rhs, tol,
        lambda_points=lp, can_refine=can_refine,
        extra={"volume_drift": drift},
    )
    if drift > 1e-12 * scale and report.verdict != FAIL:
        # the exact side condition broke; no refinement can recover that
        return replace(report, verdict=FAIL)
    return report


def check_bm_curvilinear(instance, params):
    """Staircase sum volume against the branch bound from the volumes.

    One base axis goes through the exact envelope path; higher dimensions
    run the grid sum with the calibrated tolerance.  On the min branch
    the closed-form crossing lam is injected so the evaluated lam set
    contains the slice attaining the bound.
    """
    a, b = _pair_at_level(instance, params["level"])
    lp, can_refine = _levels(params)
    spec = SumSpec(params["p"], PowerVector(tuple(params["alphas"])), params["t"], lp)
    rhs, spec, extra = _branch_bound(spec, a.volume, b.volume)
    lhs, grid_h = _sum_volume(a, b, spec)
    if grid_h is None:
        tol, can_refine = _EXACT_TOL, False
    else:
        tol = params["c"] * grid_h
    return _report(
        "bm_curvilinear", params, lhs, rhs, tol,
        grid_h=grid_h, lambda_points=lp, can_refine=can_refine, extra=extra,
    )


def check_refinement(instance, params):
    """Chain from the mean-power sum through the min sum to level sets.

    First gap: both sums on one grid and one lam set, where the vertical
    mean kernel dominates the min kernel for the sampled powers (any
    power at p = 1, nonpositive powers otherwise).  Second gap: the min
    sum against right-endpoint quadrature of base sums of superlevel
    sets, which matches its layer cake on the shared lam set.
    """
    a, b = _pair_at_level(instance, params["level"])
    p, t, alpha = params["p"], params["t"], params["alpha"]
    lp, can_refine = _levels(params)
    n = a.base_dim
    a0 = normalized_compression(a, 0)
    b0 = normalized_compression(b, 0)
    spec_mean = SumSpec(p, PowerVector((1.0,) * n + (alpha,)), t, lp)
    extras = _base_reach_extras(a0, b0, spec_mean)
    spec_mean = spec_mean.with_extra_lambdas(extras)
    spec_min = SumSpec(
        p, PowerVector((1.0,) * n + (-math.inf,)), t, lp
    ).with_extra_lambdas(extras)
    out_grid = derive_out_grid(a0, b0, spec_mean)
    v_mean = curvilinear_sum_grid(a0, b0, spec_mean, out_grid=out_grid).volume
    v_min = curvilinear_sum_grid(a0, b0, spec_min, out_grid=out_grid).volume
    layers = _layered_base_integral(
        section_profile(a0, 0), section_profile(b0, 0), p, t, lp
    )
    slack1 = v_mean - v_min
    slack2 = v_min - layers
    tol = params["c"] * out_grid.spacing
    return _report(
        "refinement", params, v_mean, layers, tol,
        slack=min(slack1, slack2), grid_h=out_grid.spacing, lambda_points=lp,
        can_refine=can_refine,
        extra={"slack_mean_min": slack1, "slack_min_layers": slack2,
               "middle": v_min},
    )


def check_normalized_bm(instance, params):
    """Sum volume scaled by the reciprocal-sup mean against level sets.

    The left side is exact on one base axis (envelope path) and a grid
    sum otherwise; the right side integrates base sums of superlevel
    sets of the unnormalized segment functions.
    """
    a, b = _pair_at_level(instance, params["level"])
    p, t, alpha = params["p"], params["t"], params["alpha"]
    lp, can_refine = _levels(params)
    n = a.base_dim
    spec = SumSpec(p, PowerVector((1.0,) * n + (alpha,)), t, lp)
    spec = spec.with_extra_lambdas(_base_reach_extras(a, b, spec))
    sa, sb = a.sup_height, b.sup_height
    factor = mean_alpha(1.0 / sa, 1.0 / sb, t, -(p * alpha))
    vol, _ = _sum_volume(a, b, spec)
    lhs = vol * factor
    rhs = _layered_base_integral(
        section_profile(a, 0), section_profile(b, 0), p, t, lp
    )
    h = a.grid.spacing
    tol = params["c"] * h * max(1.0, factor)
    return _report(
        "normalized_bm", params, lhs, rhs, tol,
        grid_h=h, lambda_points=lp, can_refine=can_refine,
        extra={"sum_volume": vol, "factor": factor},
    )


def check_sectional(instance, params):
    """Full sum volume, scaled by a sectional mean, against section sums.

    Sections are taken over the first k base axes; the right side is the
    sum of the normalized section hypographs with the combined exponent,
    through the mean kernel or the convex quasi kernel by branch.
    """
    a, b = _pair_at_level(instance, params["level"])
    p, t = params["p"], params["t"]
    alpha, beta, k = params["alpha"], params["beta"], params["k"]
    lp, can_refine = _levels(params)
    n = a.base_dim
    spec = SumSpec(p, PowerVector((1.0,) * n + (alpha,)), t, lp)
    spec = spec.with_extra_lambdas((t,))
    out = curvilinear_sum_grid(a, b, spec)
    prof_a, prof_b = section_profile(a, k), section_profile(b, k)
    lhs = out.volume * mean_alpha(1.0 / prof_a.sup_norm, 1.0 / prof_b.sup_norm, t, p * beta)
    delta = _delta_exponent(alpha, beta, k)
    rhs = _hypograph_sum(prof_a, prof_b, params, lp, delta)
    tol = params["c"] * out.grid.spacing
    return _report(
        "sectional", params, lhs, rhs, tol,
        grid_h=out.grid.spacing, lambda_points=lp,
        can_refine=can_refine, extra={"delta": delta},
    )


def check_bbl(instance, params):
    """Integral of the minimal admissible witness against the branch bound.

    The witness is the supremal convolution of the two functions, the
    pointwise smallest function satisfying the hypothesis on the
    evaluated lam set, so its integral is the sharpest testable left side.
    """
    f, g = _pair_at_level(instance, params["level"])
    p, t, alpha = params["p"], params["t"], params["alpha"]
    lp, can_refine = _levels(params)
    spec = SumSpec(p, PowerVector((1.0,) * f.ndim + (alpha,)), t, lp)
    rhs, spec, extra = _branch_bound(spec, f.integral, g.integral)
    witness = sup_convolve(f, g, spec)
    lhs = witness.integral
    tol = params["c"] * witness.grid.spacing
    return _report(
        "bbl", params, lhs, rhs, tol,
        grid_h=witness.grid.spacing, lambda_points=lp,
        can_refine=can_refine, extra=extra,
    )


def check_marginal_bbl(instance, params):
    """Witness integral scaled by a marginal-sup mean against section sums.

    For k < n the right side is the sum of the hypographs of normalized
    marginals with the combined exponent; at k = n it collapses to the
    closed-form mean (or min form) of the normalized integrals with the
    sup norm of the functions themselves.
    """
    f, g = _pair_at_level(instance, params["level"])
    p, t = params["p"], params["t"]
    alpha, beta, k = params["alpha"], params["beta"], params["k"]
    lp, can_refine = _levels(params)
    n = f.ndim
    spec = SumSpec(p, PowerVector((1.0,) * n + (alpha,)), t, lp)
    spec = spec.with_extra_lambdas((t,))
    witness = sup_convolve(f, g, spec)
    exponent = _delta_exponent(alpha, beta, k)
    if k == n:
        nf, ng = f.sup_norm, g.sup_norm
        rhs = _closed_bound(params["branch"] == "quasi", f.integral / nf,
                            g.integral / ng, p, t, exponent)
    else:
        mf, mg = section_profile(f.hypograph(), k), section_profile(g.hypograph(), k)
        nf, ng = mf.sup_norm, mg.sup_norm
        rhs = _hypograph_sum(mf, mg, params, lp, exponent)
    lhs = witness.integral * mean_alpha(1.0 / nf, 1.0 / ng, t, p * beta)
    tol = params["c"] * witness.grid.spacing
    return _report(
        "marginal_bbl", params, lhs, rhs, tol,
        grid_h=witness.grid.spacing, lambda_points=lp,
        can_refine=can_refine, extra={"exponent": exponent},
    )


def check_measure_bm(instance, params):
    """Measure of the base sum, scaled by a fiber-mass mean, vs level sets.

    The operands are planar sets (staircases over one base axis), the
    density is ambient, and sections are the vertical columns.  The mean
    branch integrates Lebesgue base sums of the fiber-mass superlevels;
    the min branch is the convex quasi sum of the normalized fiber-mass
    hypographs, evaluated exactly.
    """
    a, b = _pair_at_level(instance, params["level"])
    mu = instance[2]
    p, t = params["p"], params["t"]
    alpha, beta, k = params["alpha"], params["beta"], params["k"]
    lp, can_refine = _levels(params)
    n = a.base_dim + 1
    spec = SumSpec(p, PowerVector((1.0,) * n), t, lp)
    spec = spec.with_extra_lambdas((t,))
    out = curvilinear_sum_grid(a, b, spec)
    prof_a, prof_b = mu_section_quantities(a, mu, 0), mu_section_quantities(b, mu, 0)
    ma, mb = prof_a.sup_norm, prof_b.sup_norm
    lhs = measure_of(out, mu) * mean_alpha(1.0 / ma, 1.0 / mb, t, p * beta)
    if params["branch"] == "quasi":
        rhs = _hypograph_sum(prof_a, prof_b, params, lp, _delta_exponent(alpha, beta, k))
    else:
        rhs = _layered_base_integral(prof_a, prof_b, p, t, lp)
    tol = params["c"] * out.grid.spacing
    return _report(
        "measure_bm", params, lhs, rhs, tol,
        grid_h=out.grid.spacing, lambda_points=lp, can_refine=can_refine,
        extra={"density": "lebesgue" if mu.is_lebesgue else "tagged"},
    )


def check_minkowski_first(instance, params):
    """Surface-quotient inequalities of the first variation of mu.

    Route "first": S(A,B) >= S(A,A) + (F(mu B) - F(mu A)) / F'(mu A), after
    an F-concavity gate on the same pair; a gate that does not pass caps
    the verdict at refine (the hypothesis is unverified, not falsified).
    Route "mixed": V + F'(1) M >= F'(1) (F(mu B) - F(mu A)) / F'(mu A) + mu(A)
    with V = F'(1) S(A,B) and M = mu(A) / F'(1) - the dilation rate.
    """
    a, b, mu = instance
    p, t = params["p"], params["t"]
    lp, can_refine = _levels(params)
    alphas = PowerVector(tuple(params["alphas"]))
    fmap = FSpec(F_LOG) if params["fkind"] == F_LOG else FSpec(F_POWER, params["fparam"])
    mu_a, mu_b = measure_of(a, mu), measure_of(b, mu)
    shift = fmap.value(mu_b) - fmap.value(mu_a)
    s_ab = surface_area_sets(a, b, mu, p, alphas, lp)
    gate = PASS
    if params["route"] == "mixed":
        d1 = fmap.derivative_at_one
        v = d1 * s_ab.estimate
        vol_a, rate = dilation_rate(a, mu, p, alphas, lp)
        m = vol_a / d1 - rate
        lhs = v + d1 * m
        rhs = d1 * shift / fmap.derivative(mu_a) + mu_a
        info = {"route_id": "mixed_volume_variation", "V": v, "M": m}
    else:
        gate_spec = SumSpec(p=p, alphas=alphas, t=0.5, lambda_points=lp)
        _, gate_lhs, gate_rhs = f_concavity_gap(a, b, mu, fmap, gate_spec,
                                                (0.25, t, 0.75), mu_a, mu_b)
        gate = verdict_for(gate_lhs - gate_rhs, _EXACT_TOL, False)
        s_aa = surface_area_sets(a, a, mu, p, alphas, lp)
        lhs = s_ab.estimate
        rhs = s_aa.estimate + shift / fmap.derivative(mu_a)
        info = {"route_id": "minkowski_first_sets", "gate": gate,
                "trend_ab": s_ab.trend, "trend_aa": s_aa.trend,
                "unsettled": bool(s_ab.unsettled or s_aa.unsettled)}
    # unlike _report, tol is not written into params
    report = InequalityReport.from_values(
        "minkowski_first", params["run_seed"], lhs, rhs, _EXACT_TOL,
        lambda_points=lp, can_refine=can_refine,
        params=_clean({**params, **info, "F": fmap.describe()}),
    )
    if gate != PASS:
        # hypothesis unverified: the instance is inconclusive either way
        return replace(report, verdict=REFINE)
    return report


def check_power_monotonicity(instance, params):
    """Inclusion between sums at comparable power vectors, cell by cell.

    Both sums run on a shared output grid; the margin is the minimum
    height difference of the claimed-larger sum over the smaller one.
    The powers differ only in the vertical entry and share a sign, where
    the kernels are ordered for every lam; p = 1 and the p < 1 quasi
    form evaluate identical lam sets and are compared exactly.
    """
    a, b = _pair_at_level(instance, params["level"])
    p, t = params["p"], params["t"]
    lp, can_refine = _levels(params)
    mode, form = params["mode"], params["form"]
    spec_lo = SumSpec(p, PowerVector(tuple(params["alphas_low"])), t, lp, mode, form)
    spec_hi = SumSpec(p, PowerVector(tuple(params["alphas_high"])), t, lp, mode, form)
    if params["bigger"] == "high":
        big, small = spec_hi, spec_lo
    else:
        big, small = spec_lo, spec_hi
    g1 = derive_out_grid(a, b, big)
    g2 = derive_out_grid(a, b, small)
    grid = Grid(g1.origin, g1.spacing,
                tuple(max(x, y) for x, y in zip(g1.shape, g2.shape)))
    s_big = curvilinear_sum_grid(a, b, big, out_grid=grid)
    s_small = curvilinear_sum_grid(a, b, small, out_grid=grid)
    margin = float(np.min(s_big.heights - s_small.heights))
    exact = p <= 1.0  # identical lam sets, ordered kernels
    scale = max(1.0, float(np.max(s_big.heights)))
    tol = 1e-12 * scale if exact else params["c"] * grid.spacing
    return _report(
        "power_monotonicity", params, s_big.volume, s_small.volume, tol,
        slack=margin, grid_h=grid.spacing, lambda_points=lp,
        can_refine=can_refine and not exact,
        extra={"pointwise": True},
    )


# ---------------------------------------------------------------------------
# parameter draws (one stream per check, keyed off the check id)


def _params_lemma_1d(rng, instance):
    u = rng.random()
    if u < 0.55:
        alpha = float(rng.uniform(0.05, 1.0))
    elif u < 0.8:
        alpha = -float(rng.uniform(0.05, 2.0))
    elif u < 0.9:
        alpha = 1.0
    else:
        alpha = 0.0
    return {"p": _draw_p(rng), "t": float(rng.uniform(0.15, 0.85)),
            "alpha": alpha, "lambda_points": 33}


def _params_compression(rng, instance):
    u = rng.random()
    if u < 0.55:
        alpha = float(rng.uniform(0.25, 1.0))
    elif u < 0.75:
        alpha = -float(rng.uniform(0.1, 1.5))
    elif u < 0.9:
        alpha = 1.0
    else:
        alpha = -math.inf
    return {"p": _draw_p(rng), "t": float(rng.uniform(0.2, 0.8)),
            "alpha": alpha, "lambda_points": 16}


def _params_bm(rng, instance):
    n = instance[0].base_dim
    if rng.random() < 0.5:
        base = (1.0,) * n
    else:
        base = tuple(float(x) for x in rng.uniform(0.4, 1.0, size=n))
    s = 0.0  # left to right; builtin sum is compensated from Python 3.12
    for x in base:
        s += 1.0 / x
    u = rng.random()
    if u < 0.5:
        last = float(rng.uniform(0.15, 1.0))
    elif u < 0.7:
        last = -float(rng.uniform(0.05, 0.85)) / s  # mean branch, negative
    else:
        last = -(1.0 + float(rng.uniform(0.15, 1.2))) / s  # min branch
    return {"p": _draw_p(rng), "t": float(rng.uniform(0.2, 0.8)),
            "alphas": base + (last,), "lambda_points": 16}


def _params_refinement(rng, instance):
    if rng.random() < 0.5:
        p = 1.0
        u = rng.random()
        if u < 0.4:
            alpha = float(rng.uniform(0.1, 1.0))
        elif u < 0.8:
            alpha = -float(rng.uniform(0.05, 2.0))
        else:
            alpha = -math.inf
    else:
        # mean-over-min kernel domination needs nonpositive powers here
        p = float(rng.choice(np.asarray([1.5, 2.0])))
        alpha = -float(rng.uniform(0.1, 2.2)) if rng.random() < 0.8 else -math.inf
    return {"p": p, "t": float(rng.uniform(0.2, 0.8)), "alpha": alpha,
            "lambda_points": 16}


def _params_normalized_bm(rng, instance):
    u = rng.random()
    if u < 0.6:
        alpha = float(rng.uniform(0.05, 1.0))
    elif u < 0.9:
        alpha = -float(rng.uniform(0.05, 1.2))
    else:
        alpha = 1.0
    return {"p": _draw_p(rng), "t": float(rng.uniform(0.2, 0.8)),
            "alpha": alpha, "lambda_points": 16}


def _mean_pair(rng, k):
    # both exponents positive: a negative second exponent flips the
    # crossing value of the lam family from a supremum to an infimum,
    # and the mean-kernel sum then outgrows the scaled volume
    alpha = float(rng.uniform(0.25, 1.2))
    beta = float(rng.uniform(0.25, 1.2))
    delta = _delta_exponent(alpha, beta, k)
    if delta != 0.0 and abs(1.0 / delta) < 0.05:
        beta += 0.1
    return alpha, beta


def _pair_params(rng, k, alpha, beta, branch):
    return {"p": _draw_p(rng), "t": float(rng.uniform(0.25, 0.75)),
            "alpha": alpha, "beta": beta, "k": k, "branch": branch,
            "lambda_points": 16}


def _branch_params(rng, k):
    """Section-sum params: the quasi branch for about a third of k >= 1 draws."""
    pair = _quasi_pair(rng, k) if k >= 1 and rng.random() < 0.35 else None
    if pair is None:
        return _pair_params(rng, k, *_mean_pair(rng, k), "mean")
    return _pair_params(rng, k, *pair, "quasi")


def _params_sectional(rng, instance):
    return _branch_params(rng, 1 if rng.random() < 0.75 else 0)


def _params_bbl(rng, instance):
    n = instance[0].ndim
    u = rng.random()
    if u < 0.55:
        alpha = float(rng.uniform(0.1, 1.0))
    elif u < 0.7:
        alpha = -float(rng.uniform(0.05, 0.85)) / n
    elif u < 0.9:
        alpha = -(1.0 + float(rng.uniform(0.15, 1.2))) / n  # min branch
    else:
        alpha = 1.0
    return {"p": _draw_p(rng), "t": float(rng.uniform(0.2, 0.8)),
            "alpha": alpha, "lambda_points": 16}


def _params_marginal_bbl(rng, instance):
    return _branch_params(rng, instance[0].ndim if rng.random() < 0.25 else 1)


def _params_measure_bm(rng, instance):
    mu = instance[2]
    cap = mu.alpha_concavity if mu.alpha_concavity is not None else math.inf
    if cap <= 0.0:
        alpha = -float(rng.uniform(0.05, 0.6))
    else:
        alpha = float(rng.uniform(0.2, min(1.0, cap)))
    # thin quasi region for this fixed alpha: beta just above -alpha
    pair = _quasi_pair(rng, 1, alpha) if rng.random() < 0.35 else None
    if pair is not None:
        return _pair_params(rng, 1, *pair, "quasi")
    beta = float(rng.uniform(0.25, 1.2))
    if beta + alpha < 0.15:
        beta = -alpha + 0.15
    return _pair_params(rng, 1, alpha, beta, "mean")


def _params_minkowski(rng, instance):
    n = instance[0].base_dim
    p = float(rng.choice(np.asarray([1.0, 2.0])))
    alpha = float(rng.uniform(0.3, 1.0))
    alphas = (1.0,) * n + (alpha,)
    gamma = PowerVector(alphas).gamma
    if rng.random() < 0.7:
        fkind, fparam = F_POWER, p * gamma
    else:
        fkind, fparam = F_LOG, 0.0
    route = "first" if rng.random() < 0.6 else "mixed"
    return {"p": p, "t": float(rng.uniform(0.3, 0.7)), "alphas": alphas,
            "fkind": fkind, "fparam": fparam, "route": route,
            "lambda_points": 32}


def _params_power_mono(rng, instance):
    n = instance[0].base_dim
    u = rng.random()
    if u < 0.3:
        mode, p, form = "curvilinear", 1.0, "with_t"
        av = float(rng.uniform(0.2, 1.0))
        bv = av - float(rng.uniform(0.3, 1.6))  # p = 1 allows mixed signs
    elif u < 0.6:
        mode, p, form = "curvilinear", float(rng.choice(np.asarray([1.5, 2.0]))), "with_t"
        if rng.random() < 0.6:
            av = float(rng.uniform(0.3, 1.0))
            bv = av * float(rng.uniform(0.25, 0.85))
        else:
            av = -float(rng.uniform(0.15, 0.8))
            bv = av * float(rng.uniform(1.3, 2.5))
    elif u < 0.85:
        mode, p, form = "quasi", float(rng.choice(np.asarray([1.0, 1.5, 2.0]))), "with_t"
        av = float(rng.uniform(0.3, 1.0))
        bv = av * float(rng.uniform(0.25, 0.85))
    else:
        mode, p, form = "quasi", float(rng.choice(np.asarray([0.5, 0.75]))), "t_free"
        av = float(rng.uniform(0.3, 1.0))
        bv = av * float(rng.uniform(0.25, 0.85))
    if rng.random() < 0.6:
        base = (1.0,) * n
    else:
        base = tuple(float(x) for x in rng.uniform(0.4, 1.0, size=n))
    bigger = "low" if p < 1.0 else "high"
    return {"p": p, "t": float(rng.uniform(0.25, 0.75)), "mode": mode,
            "form": form, "alphas_low": base + (bv,),
            "alphas_high": base + (av,), "bigger": bigger,
            "lambda_points": 16}


# ---------------------------------------------------------------------------
# dispatch


# id -> (check, parameter draw, instance builder, default-suite count)
_CHECKS = {
    "lemma_1d": (check_lemma_1d, _params_lemma_1d,
                 _pairs(INTERVAL_UNIONS, 1, pieces=3), 40),
    "compression_monotone": (check_compression_monotone, _params_compression,
                             _pairs(BOX_UNIONS, 2, 4, pieces=4), 20),
    "bm_curvilinear": (check_bm_curvilinear, _params_bm,
                       _pairs(STAIRCASES, 1, 3, cells=6), 28),
    "refinement": (check_refinement, _params_refinement,
                   _pairs(STAIRCASES, 1, 4, cells=6), 10),
    "normalized_bm": (check_normalized_bm, _params_normalized_bm,
                      _pairs(STAIRCASES, 1, 4, cells=6), 10),
    "sectional": (check_sectional, _params_sectional,
                  _pairs(STAIRCASES, 2, cells=5), 12),
    "bbl": (check_bbl, _params_bbl, _pairs(GRID_FUNCTIONS, 1, 3, cells=5), 18),
    "marginal_bbl": (check_marginal_bbl, _params_marginal_bbl,
                     _pairs(GRID_FUNCTIONS, 2, cells=5), 10),
    "measure_bm": (check_measure_bm, _params_measure_bm, _measure_instance, 10),
    "minkowski_first": (check_minkowski_first, _params_minkowski,
                        _minkowski_instance, 6),
    "power_monotonicity": (check_power_monotonicity, _params_power_mono,
                           _pairs(STAIRCASES, 1, 4, cells=5, zero_frac=0.0), 16),
}
CHECK_IDS = tuple(_CHECKS)
# run_check and shrink call checks through this dict, so a wrapper
# installed over one of its values sees every check run
_CHECK_FNS = {cid: row[0] for cid, row in _CHECKS.items()}


def _row(check_id: str):
    try:
        return _CHECKS[check_id]
    except KeyError:
        raise RangeError(f"unknown check id {check_id!r}") from None


def make_instance(check_id: str, seed: int, index: int):
    """Build the deterministic instance for one check run."""
    return _row(check_id)[2](seed, index)


def make_params(check_id: str, seed: int, index: int, instance) -> dict:
    """Draw the deterministic parameter set for one check run."""
    params = _row(check_id)[1](_param_rng(check_id, seed, index), instance)
    params["seed"] = int(seed)
    params["index"] = int(index)
    params["run_seed"] = int(seed) * 1000 + int(index)
    params["level"] = 0
    return params


def _setup(check_id: str, seed: int, index: int, level: int, lambda_points):
    """Instance and params of one check run at a refinement level."""
    instance = make_instance(check_id, seed, index)
    params = make_params(check_id, seed, index, instance)
    params["level"] = int(level)
    if lambda_points is not None:
        params["lambda_points"] = int(lambda_points)
    params["c"] = calibrate_grid_constant()
    return instance, params


def run_check(check_id: str, seed: int, index: int, level: int = 0,
              lambda_points: int | None = None) -> InequalityReport:
    """One check run at a fixed refinement level."""
    return _CHECK_FNS[check_id](*_setup(check_id, seed, index, level, lambda_points))


def run_check_refined(check_id: str, seed: int, index: int,
                      lambda_points: int | None = None,
                      start_level: int = 0) -> InequalityReport:
    """Run a check, doubling densities while the verdict stays refine."""
    level = int(start_level)
    report = run_check(check_id, seed, index, level, lambda_points)
    while report.verdict == REFINE and level < REFINE_BUDGET:
        level += 1
        report = run_check(check_id, seed, index, level, lambda_points)
    return report


# ---------------------------------------------------------------------------
# shrinking


def _mutants(obj):
    if isinstance(obj, (StaircaseSet, GridFunction)):
        vals = obj.heights if isinstance(obj, StaircaseSet) else obj.values
        idx = np.argwhere(vals > 0.0)
        if idx.shape[0] > 1:
            for cell in idx:
                v2 = vals.copy()
                v2[tuple(cell)] = 0.0
                yield type(obj)(obj.grid, v2)
        yield type(obj)(obj.grid, vals / 2.0)
    elif isinstance(obj, BoxUnion):
        if len(obj.boxes) > 1:
            for i in range(len(obj.boxes)):
                yield BoxUnion(obj.dim, np.delete(obj.boxes, i, axis=0))
    elif isinstance(obj, IntervalUnion):
        if len(obj.intervals) > 1:
            for i in range(len(obj.intervals)):
                yield IntervalUnion(obj.intervals[:i] + obj.intervals[i + 1:])


def _instance_size(instance) -> int:
    total = 0
    for obj in instance:
        if isinstance(obj, StaircaseSet):
            total += int(np.count_nonzero(obj.heights))
        elif isinstance(obj, GridFunction):
            total += int(np.count_nonzero(obj.values))
        elif isinstance(obj, BoxUnion):
            total += len(obj.boxes)
        elif isinstance(obj, IntervalUnion):
            total += len(obj.intervals)
    return total


def shrink(report: InequalityReport) -> InequalityReport:
    """Greedy reduction of a failing instance, preserving the failure.

    Support cells, boxes, or intervals are dropped one at a time, then
    values halved; a candidate is kept only while the check still fails.
    Pass and refine reports come back unchanged.
    """
    if report.verdict != FAIL:
        return report
    check_id = report.check_id
    instance, params = _setup(
        check_id, int(report.params["seed"]), int(report.params["index"]),
        report.params.get("level", 0), report.params.get("lambda_points"),
    )
    fn = _CHECK_FNS[check_id]
    current = list(instance)
    best = report
    changed = True
    while changed:
        changed = False
        for slot in range(len(current)):
            for cand in _mutants(current[slot]):
                trial = list(current)
                trial[slot] = cand
                try:
                    rep = fn(tuple(trial), dict(params))
                except CurvilinError:
                    continue
                if rep.verdict == FAIL:
                    current, best, changed = trial, rep, True
                    break
            if changed:
                break
    final = dict(best.params)
    final["shrunk_size"] = _instance_size(tuple(current))
    return replace(best, params=final)


# ---------------------------------------------------------------------------
# suite


def default_suite(seed: int = 0) -> dict:
    """Manifest covering every check with the stock instance counts."""
    return {
        "suite": "default",
        "seed": int(seed),
        "checks": [
            {"check": cid, "count": row[3], "seed": int(seed)}
            for cid, row in _CHECKS.items()
        ],
    }


@dataclass(frozen=True)
class SuiteResult:
    """All reports of a suite run plus the per-check summary rows."""

    manifest: dict
    reports: tuple
    summary: tuple

    @property
    def failures(self) -> int:
        return sum(r.verdict == FAIL for r in self.reports)


def _run_job(job):
    check_id, seed, index, lam, level = job
    return run_check_refined(check_id, seed, index, lambda_points=lam,
                             start_level=level)


def _manifest_int(field: str, value) -> int:
    """A manifest ``field`` as an int; whole numbers only."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise RangeError(f"{field} must be an integer, got {value!r}")


def run_suite(manifest: dict, workers: int = 1) -> SuiteResult:
    """Run a manifest; reports come back sorted and order-insensitive."""
    lam = manifest.get("lambda_points")
    if lam is not None:
        lam = _manifest_int("manifest lambda_points", lam)
    level = _manifest_int("manifest grid", manifest.get("grid", 0))
    if not 0 <= level <= REFINE_BUDGET:
        raise RangeError(f"grid level {level} outside [0, {REFINE_BUDGET}]")
    checks = manifest["checks"]
    if not isinstance(checks, list):
        raise DomainError("manifest checks must be a list of entries")
    jobs = []
    for k, entry in enumerate(checks):
        if not isinstance(entry, dict) or "check" not in entry:
            raise DomainError(f"manifest entry {k} needs a check field")
        cid = entry["check"]
        _row(cid)
        count = _manifest_int(f"manifest entry {k}: count", entry.get("count"))
        if count < 0:
            raise RangeError(f"manifest entry {k}: count must be >= 0, got {count}")
        seed = _manifest_int(f"manifest entry {k}: seed",
                             entry.get("seed", manifest.get("seed", 0)))
        jobs.extend((cid, seed, i, lam, level) for i in range(count))
    if workers > 1 and len(jobs) > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            reports = list(pool.map(_run_job, jobs, chunksize=4))
    else:
        reports = [_run_job(j) for j in jobs]
    reports.sort(key=lambda r: (r.check_id, r.instance_seed))
    summary = []
    for cid in sorted({r.check_id for r in reports}):
        rs = [r for r in reports if r.check_id == cid]
        summary.append({
            "check_id": cid,
            "runs": len(rs),
            "passes": sum(r.verdict == PASS for r in rs),
            "refines": sum(r.verdict == REFINE for r in rs),
            "min_slack": min(r.slack for r in rs),
        })
    return SuiteResult(dict(manifest), tuple(reports), tuple(summary))


def write_reports_jsonl(path: str, reports) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for r in reports:
            fh.write(json.dumps(r.to_json(), sort_keys=True))
            fh.write("\n")


def _write_summary(stream, summary) -> None:
    """Summary rows as CSV with a header line, to an open text stream."""
    fields = ("check_id", "runs", "passes", "refines", "min_slack")
    writer = csv.DictWriter(stream, fieldnames=fields)
    writer.writeheader()
    writer.writerows(summary)


def write_summary_csv(path: str, summary) -> None:
    with open(path, "w", encoding="ascii", newline="") as fh:
        _write_summary(fh, summary)

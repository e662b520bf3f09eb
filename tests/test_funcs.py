import math
from dataclasses import replace

import numpy as np
import pytest

from curvilin import (
    DomainError,
    GridFunction,
    RangeError,
    RegimeError,
    curvilinear_sum_grid,
    lp_minkowski_sum_base,
    section_profile,
    set_from_json,
    sup_convolve,
)
from curvilin.curvsum import QUASI, SumSpec
from curvilin.means import PowerVector
from curvilin.sets import Grid, GridPointSet, StaircaseSet
from scalar_oracles import MeanParams, mean_p_alpha


def vec(*alphas):
    return PowerVector(tuple(float(a) for a in alphas))


def gf(values, origin=0.0, spacing=0.125):
    v = np.asarray(values, dtype=float)
    grid = Grid((origin,) * v.ndim, spacing, v.shape)
    return GridFunction(grid, v)


def rng_gf(seed, cells=8, spacing=0.125, lo=0.2, hi=1.5):
    r = np.random.default_rng(seed)
    return gf(r.uniform(lo, hi, size=cells), spacing=spacing)


def test_grid_function_basics():
    f = gf([1.0] * 8)
    assert f.integral == 1.0
    assert f.sup_norm == 1.0
    hyp = f.hypograph()
    assert isinstance(hyp, StaircaseSet)
    assert hyp.volume == f.integral
    with pytest.raises(DomainError):
        gf([1.0, -0.5])
    with pytest.raises(DomainError):
        GridFunction(Grid((0.0,), 0.5, (4,)), np.ones(3))


def test_hypograph_volume_matches_integral_exactly():
    f = rng_gf(11, cells=13, spacing=0.25)
    assert f.hypograph().volume == f.integral
    g = GridFunction(Grid((0.0, 0.0), 0.5, (3, 5)), np.arange(15.0).reshape(3, 5))
    assert g.hypograph().volume == g.integral


def test_json_roundtrip():
    f = rng_gf(3, cells=6)
    back = GridFunction.from_json(f.to_json())
    assert back.grid == f.grid
    assert np.array_equal(back.values, f.values)
    read = set_from_json(f.to_json())
    assert type(read) is GridFunction and read.grid == f.grid
    with pytest.raises(DomainError, match="unrecognized set payload"):
        set_from_json({"value": [1.0]})


def test_sup_convolve_is_segment_function_of_hypograph_sum():
    f = rng_gf(5)
    g = rng_gf(6)
    spec = SumSpec(p=2.0, alphas=vec(1, 1), t=0.4, lambda_points=7)
    conv = sup_convolve(f, g, spec)
    s = curvilinear_sum_grid(f.hypograph(), g.hypograph(), spec)
    assert conv.grid == s.grid
    assert np.array_equal(conv.values, s.heights)
    assert conv.integral == s.volume


def test_indicator_classical_reduction():
    # p = 1 collapses the coefficients to (1-t, t): the convolution of two
    # indicators is the indicator of the Minkowski combination.
    f = gf([1.0] * 8)
    spec = SumSpec(p=1.0, alphas=vec(1, 1), t=0.5, lambda_points=9)
    conv = sup_convolve(f, f, spec)
    # derived grids round the extent up, so allow trailing empty cells
    assert np.all(conv.values[:8] == 1.0)
    assert np.all(conv.values[8:] == 0.0)
    assert conv.integral == 1.0


def test_indicator_support_matches_base_sum():
    mask_x = np.array([1.0, 1.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0])
    mask_y = np.array([0.0, 1.0, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0])
    h = 0.125
    f = gf(mask_x, spacing=h)
    g = gf(mask_y, spacing=h)
    spec = SumSpec(p=1.0, alphas=vec(1, 1), t=0.3, lambda_points=5)
    conv = sup_convolve(f, g, spec)
    cells_conv = np.flatnonzero(conv.values > 0)

    xs = GridPointSet(np.flatnonzero(mask_x)[:, None] * h, h)
    ys = GridPointSet(np.flatnonzero(mask_y)[:, None] * h, h)
    base = lp_minkowski_sum_base(xs, ys, p=1.0, t=0.3, lambda_points=5)
    cells_base = np.sort(np.round(base.coords[:, 0] / h).astype(int))
    assert np.array_equal(cells_conv, cells_base)
    assert np.all(conv.values[cells_conv] == 1.0)


def test_indicator_values_bounded_for_p_above_one():
    mask = np.array([1.0, 0.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0])
    f = gf(mask)
    spec = SumSpec(p=2.0, alphas=vec(1, 2), t=0.4, lambda_points=16)
    conv = sup_convolve(f, f, spec)
    # C + D <= 1 for p >= 1, so means of values <= 1 stay <= 1.
    assert conv.sup_norm <= 1.0 + 1e-12
    # the lam = t injection (value pair (1,1) has lam* = t) places the
    # full-weight slice C_t x + D_t y among the support cells
    c, d = spec.coefficients(0.4)
    support = set(np.flatnonzero(conv.values > 0).tolist())
    xs = np.flatnonzero(mask) * 0.125
    for u in xs:
        for v in xs:
            z = c * u + d * v
            assert int(math.floor(z / 0.125 + 1e-9)) in support


def test_witness_dominates_sampled_condition():
    f = rng_gf(21, cells=6)
    g = rng_gf(22, cells=6)
    spec = SumSpec(p=1.5, alphas=vec(1, 2), t=0.35, lambda_points=11)
    w = sup_convolve(f, g, spec)
    h = w.grid.spacing
    xs = f.grid.cell_lower_corners()[:, 0]
    ys = g.grid.cell_lower_corners()[:, 0]
    for lam in spec.lambda_grid():
        params = MeanParams(1.5, 0.35, float(lam))
        cc, dd = params.coefficients()
        for i, u in enumerate(xs):
            for j, v in enumerate(ys):
                # lower-corner representatives, affine coordinate kernel
                z = cc * u + dd * v
                val = mean_p_alpha(f.values[i], g.values[j], params, 2.0)
                cell = int(math.floor(z / h + 1e-9))
                assert cell < w.grid.shape[0]
                assert w.values[cell] >= val - 1e-12


def test_monotone_in_both_arguments():
    f = rng_gf(31)
    g = rng_gf(32)
    bump_f = GridFunction(f.grid, f.values + 0.3)
    bump_g = GridFunction(g.grid, g.values + 0.2)
    # p = 1 keeps the coefficient pair lam-free, so both convolutions
    # evaluate identical (pair, lam) tuples and compare pointwise.
    spec = SumSpec(p=1.0, alphas=vec(2, -1), t=0.45, lambda_points=6)
    lo = sup_convolve(f, g, spec)
    hi = sup_convolve(bump_f, bump_g, spec, out_grid=lo.grid)
    assert np.all(hi.values >= lo.values - 1e-15)
    # p > 1 with an infinite vertical power: no value-dependent lam
    # injection, same tuple set again.
    spec2 = SumSpec(p=2.0, alphas=vec(1, math.inf), t=0.45, lambda_points=6)
    lo2 = sup_convolve(f, g, spec2)
    hi2 = sup_convolve(bump_f, bump_g, spec2, out_grid=lo2.grid)
    assert np.all(hi2.values >= lo2.values - 1e-15)


def test_lambda_refinement_monotone():
    f = rng_gf(41, cells=6)
    g = rng_gf(42, cells=6)
    base = SumSpec(p=2.0, alphas=vec(1, 2), t=0.3, lambda_points=16)
    # 17 divides 34, so the coarse lam grid embeds in the fine one
    fine = replace(base, lambda_points=33)
    coarse_out = sup_convolve(f, g, base)
    fine_out = sup_convolve(f, g, fine, out_grid=coarse_out.grid)
    assert np.all(fine_out.values >= coarse_out.values)


def test_marginal_orders():
    # a function's marginals are the section profiles of its hypograph
    ones = GridFunction(Grid((0.0, 0.0), 0.25, (4, 4)), np.ones((4, 4)))
    mid = section_profile(ones.hypograph(), 1)
    assert isinstance(mid, GridFunction)
    assert np.allclose(mid.values, 1.0)
    assert mid.sup_norm == 1.0
    same = section_profile(ones.hypograph(), 0)
    # k = 0 copies the values, it does not hand back the function
    assert same is not ones and same.grid == ones.grid
    assert np.array_equal(same.values, ones.values) and same.sup_norm == 1.0
    total = section_profile(ones.hypograph(), 2)
    assert total.grid == Grid((), 0.25, ())
    assert float(total.values) == pytest.approx(1.0, rel=1e-15)
    assert total.sup_norm == float(total.values)
    with pytest.raises(RangeError):
        section_profile(ones.hypograph(), 3)


def test_marginal_separable():
    r = np.random.default_rng(7)
    av = r.uniform(0.1, 2.0, 5)
    bv = r.uniform(0.1, 2.0, 3)
    h = 0.2
    f = GridFunction(Grid((0.0, 0.0), h, (5, 3)), np.outer(av, bv))
    mid = section_profile(f.hypograph(), 1)
    expect = bv * (av.sum() * h)
    assert mid.grid == Grid((0.0,), h, (3,))
    assert np.allclose(mid.values, expect, rtol=1e-12)
    assert mid.sup_norm == pytest.approx(expect.max(), rel=1e-12)


def test_sup_convolve_guards():
    f = rng_gf(51)
    with pytest.raises(RegimeError):
        sup_convolve(f, f, SumSpec(p=0.5, alphas=vec(1, 1), t=0.5))
    with pytest.raises(RegimeError):
        sup_convolve(f, f, SumSpec(p=2.0, alphas=vec(1, 1), t=0.5, mode=QUASI))
    g2 = GridFunction(Grid((0.0, 0.0), 0.125, (2, 2)), np.ones((2, 2)))
    with pytest.raises(DomainError):
        sup_convolve(f, g2, SumSpec(p=2.0, alphas=vec(1, 1), t=0.5))
    with pytest.raises(DomainError):
        sup_convolve(f, f, SumSpec(p=2.0, alphas=vec(1, 1, 1), t=0.5))

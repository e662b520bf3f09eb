import contextlib
import json
import math
import time
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from curvilin import (
    BudgetError,
    DegenerateInputError,
    DomainError,
    GridAlignmentError,
    RangeError,
    RegimeError,
    ResolutionError,
)
from curvilin import cli, curvsum
from curvilin.curvsum import (
    _SNAP,
    CONVEX_QUASI,
    CURVILINEAR,
    QUASI,
    T_FREE,
    WITH_T,
    SumSpec,
    combine,
    combine_quasi,
    curvilinear_sum_1d,
    curvilinear_sum_boxes,
    curvilinear_sum_grid,
    derive_out_grid,
    lp_minkowski_sum_base,
    scalar_dilate,
    staircase_sum_volume_exact,
    sum_oracle,
)
from curvilin.funcs import sup_convolve
from curvilin.means import PowerVector
from curvilin.sets import (
    BoxUnion,
    Grid,
    GridFunction,
    GridPointSet,
    IntervalUnion,
    StaircaseSet,
)
from scalar_oracles import curvilinear_sum_1d_loop


def vec(*alphas):
    return PowerVector(tuple(float(a) for a in alphas))


def cube_staircase(side, height, cells=4, base_dim=1):
    h = side / cells
    shape = (cells,) * base_dim
    return StaircaseSet(Grid((0.0,) * base_dim, h, shape), np.full(shape, height))


def rng_staircase(rng, base_dim=1, cells=3, spacing=0.25):
    heights = rng.integers(0, 4, size=(cells,) * base_dim).astype(float) * 0.5
    if not heights.any():
        heights.flat[0] = 1.0
    return StaircaseSet(Grid((0.0,) * base_dim, spacing, heights.shape), heights)


# ---------------------------------------------------------------------------
# spec plumbing


def test_spec_validation_and_roundtrip():
    spec = SumSpec(p=2.0, alphas=vec(1, -1, 2), t=0.3, lambda_points=16)
    # every spec field reaches the CLI payload
    assert spec.to_json() == {
        "p": 2.0, "t": 0.3, "alphas": [1.0, -1.0, 2.0], "lambda_points": 16,
        "mode": CURVILINEAR, "coefficient_form": WITH_T, "extra_lambdas": []}
    with pytest.raises(RangeError):
        SumSpec(p=0.0, alphas=vec(1), t=0.5)
    with pytest.raises(RangeError):
        SumSpec(p=1.0, alphas=vec(1), t=1.5)
    with pytest.raises(RangeError):
        SumSpec(p=1.0, alphas=vec(1), t=0.5, lambda_points=0)
    with pytest.raises(DomainError):
        SumSpec(p=2.0, alphas=vec(1, 0), t=0.5, mode=QUASI)
    # t-free form does not need t
    SumSpec(p=2.0, alphas=vec(1), t=None, coefficient_form=T_FREE)


@pytest.mark.parametrize("mode", [QUASI, CONVEX_QUASI])
@pytest.mark.parametrize(
    "op", [curvilinear_sum_1d, curvilinear_sum_boxes, sum_oracle, sup_convolve]
)
def test_curvilinear_only_paths_refuse_quasi_modes(mode, op):
    # the interval path takes a single-entry power vector
    alphas = vec(-1) if op is curvilinear_sum_1d else vec(1, -1)
    spec = SumSpec(p=2.0, alphas=alphas, t=0.5, mode=mode)
    assert spec.to_json() == {
        "p": 2.0, "t": 0.5, "alphas": list(alphas.alphas), "lambda_points": 64,
        "mode": mode, "coefficient_form": WITH_T, "extra_lambdas": []}
    a = cube_staircase(1.0, 1.0)
    operand = {
        curvilinear_sum_1d: IntervalUnion(((0.0, 1.0),)),
        curvilinear_sum_boxes: BoxUnion(2, (((0.0, 0.0), (1.0, 1.0)),)),
        sum_oracle: a,
        sup_convolve: GridFunction(a.grid, a.heights),
    }[op]
    with pytest.raises(RegimeError):
        op(operand, operand, spec)


def test_p1_coefficients_ignore_lambda():
    spec = SumSpec(p=1.0, alphas=vec(1), t=0.3)
    c, d = spec.coefficients(np.asarray([0.1, 0.5, 0.9]))
    assert np.all(c == 0.7) and np.all(d == 0.3)
    free = SumSpec(p=1.0, alphas=vec(1), coefficient_form=T_FREE)
    c, d = free.coefficients(np.asarray([0.2, 0.8]))
    assert np.all(c == 1.0) and np.all(d == 1.0)


# ---------------------------------------------------------------------------
# exact interval path


def test_interval_sum_classical():
    k = IntervalUnion(((0.0, 2.0),))
    l = IntervalUnion(((0.0, 4.0),))
    spec = SumSpec(p=1.0, alphas=vec(1), t=0.5, lambda_points=8)
    out = curvilinear_sum_1d(k, l, spec)
    assert out.intervals == ((0.0, 3.0),)


def test_interval_sum_negative_and_log_powers():
    k = IntervalUnion(((1.0, 2.0),))
    l = IntervalUnion(((1.0, 3.0),))
    harm = curvilinear_sum_1d(k, l, SumSpec(p=1.0, alphas=vec(-1), t=0.5))
    (lo, hi), = harm.intervals
    assert lo == pytest.approx(1.0, abs=1e-15)
    assert hi == pytest.approx(2.4, abs=1e-12)
    geom = curvilinear_sum_1d(k, l, SumSpec(p=1.0, alphas=vec(0), t=0.5))
    (lo, hi), = geom.intervals
    assert hi == pytest.approx(math.sqrt(6.0), abs=1e-12)


def test_interval_sum_p2_hits_supremum():
    k = IntervalUnion(((0.0, 2.0),))
    l = IntervalUnion(((0.0, 4.0),))
    out = curvilinear_sum_1d(k, l, SumSpec(p=2.0, alphas=vec(1), t=0.5, lambda_points=4))
    (lo, hi), = out.intervals
    # sup over lam of C*2 + D*4 is the (p*alpha)-mean of the endpoints
    assert hi == pytest.approx(math.sqrt(10.0), abs=1e-12)
    free = curvilinear_sum_1d(
        k, l, SumSpec(p=2.0, alphas=vec(1), coefficient_form=T_FREE, lambda_points=4)
    )
    (lo, hi), = free.intervals
    assert hi == pytest.approx(math.sqrt(20.0), abs=1e-12)


@given(
    a=st.floats(0.1, 10.0),
    b=st.floats(0.1, 10.0),
    p=st.floats(1.0, 4.0),
    t=st.floats(0.05, 0.95),
)
@settings(max_examples=60, deadline=None)
def test_interval_sum_endpoint_identity(a, b, p, t):
    k = IntervalUnion(((0.0, a),))
    l = IntervalUnion(((0.0, b),))
    out = curvilinear_sum_1d(k, l, SumSpec(p=p, alphas=vec(1), t=t, lambda_points=6))
    hi = out.intervals[-1][1]
    expect = ((1 - t) * a**p + t * b**p) ** (1.0 / p)
    assert hi == pytest.approx(expect, rel=1e-12)


def test_interval_sum_union_pieces():
    k = IntervalUnion(((0.0, 1.0), (3.0, 4.0)))
    l = IntervalUnion(((0.0, 2.0),))
    spec = SumSpec(p=1.0, alphas=vec(1), t=0.5)
    out = curvilinear_sum_1d(k, l, spec)
    # piecewise images: [0, 1.5] and [1.5, 3.0] merge
    assert out.intervals == ((0.0, 3.0),)


def test_interval_sum_rejects_degenerate():
    spec = SumSpec(p=1.0, alphas=vec(1), t=0.5)
    with pytest.raises(DegenerateInputError):
        curvilinear_sum_1d(IntervalUnion(()), IntervalUnion(((0.0, 1.0),)), spec)


def test_interval_sum_refuses_beyond_piece_budget(tmp_path, capsys):
    # 48 x 48 pairs at 64 + 1 + 2 * 48^2 lam values: 10.8M images
    rng = np.random.default_rng(48)
    k, l = (IntervalUnion(np.sort(rng.uniform(0.0, 4.0, 96)).reshape(48, 2))
            for _ in range(2))
    t0 = time.perf_counter()
    with pytest.raises(BudgetError, match="budget"):
        curvilinear_sum_1d(k, l, SumSpec(p=2.0, alphas=vec(1), t=0.5))
    assert time.perf_counter() - t0 < 0.1
    pk, pl = tmp_path / "k.json", tmp_path / "l.json"
    pk.write_text(json.dumps(k.to_json()))
    pl.write_text(json.dumps(l.to_json()))
    assert cli.main(["sum", "--a", str(pk), "--b", str(pl), "--p", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("curvilin: ") and "images, budget" in err


def test_interval_sum_budget_counts_images(monkeypatch):
    # 2 x 2 interval pairs, each with a length and a right-end maximizer
    k = IntervalUnion(((0.0, 1.0), (2.0, 3.0)))
    spec = SumSpec(p=2.0, alphas=vec(1), t=0.5, lambda_points=8)
    images = 4 * curvsum._lam_bound(spec, 8)
    monkeypatch.setattr(curvsum, "_BOX_IMAGES", images)
    curvilinear_sum_1d(k, k, spec)
    monkeypatch.setattr(curvsum, "_BOX_IMAGES", images - 1)
    with pytest.raises(BudgetError,
                       match=f"2 x 2 intervals give up to {images} images, budget {images - 1}"):
        curvilinear_sum_1d(k, k, spec)


# intervals on a quarter grid: touching ends, nesting, zero lengths and
# repeated pieces are common
_QUARTER_INTERVALS = st.lists(st.tuples(st.integers(0, 12), st.integers(0, 4)), max_size=6).map(
    lambda ends: IntervalUnion(tuple((a / 4, (a + n) / 4) for a, n in ends)))


def _outcome(call):
    try:
        return call()
    except (DegenerateInputError, DomainError) as exc:
        return type(exc), str(exc)


@given(
    k=_QUARTER_INTERVALS,
    l=_QUARTER_INTERVALS,
    p=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
    alpha=st.one_of(st.sampled_from([0.0, math.inf, -math.inf, 1.0]),
                    st.floats(-3.0, 3.0)),
    t=st.floats(0.05, 0.95),
    form=st.sampled_from([WITH_T, T_FREE]),
    lambda_points=st.integers(1, 20),
)
@example(k=IntervalUnion(((0.0, 1.0), (1.0, 2.0))), l=IntervalUnion(((1.0, 1.0), (2.0, 3.0))),
         p=1.0, alpha=0.0, t=0.5, form=WITH_T, lambda_points=8)
@example(k=IntervalUnion(((0.0, 3.0), (1.0, 2.0))), l=IntervalUnion(((0.5, 1.0), (0.5, 1.0))),
         p=2.0, alpha=math.inf, t=0.3, form=T_FREE, lambda_points=4)
@example(k=IntervalUnion(((0.0, 1.0), (3.0, 3.0))), l=IntervalUnion(((0.0, 1.0), (1.0, 2.0))),
         p=3.0, alpha=-math.inf, t=0.7, form=WITH_T, lambda_points=6)
@example(k=IntervalUnion(((2.0, 2.0),)), l=IntervalUnion(((0.0, 1.0),)),
         p=2.0, alpha=1.0, t=0.5, form=WITH_T, lambda_points=4)
# the images overflow: both paths refuse the first, [inf, inf]
@example(k=IntervalUnion(((1e200, 2e200),)), l=IntervalUnion(((1e200, 3e200),)),
         p=1.0, alpha=3.0, t=0.5, form=WITH_T, lambda_points=4)
@settings(max_examples=300, deadline=None)
def test_interval_sum_equals_pair_loop(k, l, p, alpha, t, form, lambda_points):
    # p = 1 evaluates one lam on both sides; repr tells -0.0 from 0.0
    spec = SumSpec(p=p, alphas=vec(alpha), t=t, lambda_points=lambda_points,
                   coefficient_form=form)
    assert repr(_outcome(lambda: curvilinear_sum_1d(k, l, spec))) \
        == repr(_outcome(lambda: curvilinear_sum_1d_loop(k, l, spec)))


# ---------------------------------------------------------------------------
# grid path


def test_grid_sum_same_cube_is_identity():
    a = cube_staircase(1.0, 1.0, cells=4)
    spec = SumSpec(p=1.0, alphas=vec(1, 1), t=0.5, lambda_points=8)
    out = curvilinear_sum_grid(a, a, spec)
    assert out.volume == pytest.approx(1.0, abs=1e-12)


def test_grid_sum_matches_oracle_exactly():
    rng = np.random.default_rng(7)
    cases = [
        (1.0, vec(1, 1), 1),
        (2.0, vec(1, 1), 1),
        (2.0, vec(1, -1), 1),
        (3.5, vec(2, 0.5), 1),
        (2.0, vec(1, 0), 1),
        (2.0, vec(1, math.inf), 1),
        (2.0, vec(1, 1, -2), 2),
        (1.5, vec(0.5, 2, 1), 2),
    ]
    for p, alphas, base_dim in cases:
        a = rng_staircase(rng, base_dim=base_dim)
        b = rng_staircase(rng, base_dim=base_dim)
        spec = SumSpec(p=p, alphas=alphas, t=0.35, lambda_points=5)
        fast = curvilinear_sum_grid(a, b, spec)
        slow = sum_oracle(a, b, spec)
        assert fast.grid == slow.grid
        assert np.array_equal(fast.heights, slow.heights), (p, alphas)


def test_grid_sum_volume_grows_under_refinement():
    rng = np.random.default_rng(11)
    a = rng_staircase(rng, cells=4)
    b = rng_staircase(rng, cells=4)
    spec = SumSpec(p=2.0, alphas=vec(1, 1), t=0.4, lambda_points=16)
    vols = []
    for _ in range(3):
        vols.append(curvilinear_sum_grid(a, b, spec).volume)
        a = a.refined(2)
        b = b.refined(2)
        spec = replace(spec, lambda_points=2 * spec.lambda_points + 1)
    assert vols[0] <= vols[1] + 1e-12 and vols[1] <= vols[2] + 1e-12


def test_grid_sum_p1_invariant_under_lambda_grid():
    rng = np.random.default_rng(3)
    a = rng_staircase(rng, base_dim=2)
    b = rng_staircase(rng, base_dim=2)
    coarse = curvilinear_sum_grid(a, b, SumSpec(p=1.0, alphas=vec(1, 2, -1), t=0.25, lambda_points=5))
    fine = curvilinear_sum_grid(a, b, SumSpec(p=1.0, alphas=vec(1, 2, -1), t=0.25, lambda_points=64))
    assert np.array_equal(coarse.heights, fine.heights)


def test_grid_sum_nested_lambda_grids_monotone():
    rng = np.random.default_rng(19)
    a = rng_staircase(rng)
    b = rng_staircase(rng)
    for mode in (CURVILINEAR, QUASI, CONVEX_QUASI):
        spec = SumSpec(p=2.0, alphas=vec(1, 1), t=0.5, mode=mode)
        v16 = curvilinear_sum_grid(a, b, replace(spec, lambda_points=16)).volume
        v33 = curvilinear_sum_grid(a, b, replace(spec, lambda_points=33)).volume
        assert v16 <= v33 + 1e-12


def test_grid_sum_out_grid_validation():
    a = cube_staircase(1.0, 1.0)
    spec = SumSpec(p=1.0, alphas=vec(1, 1), t=0.5)
    small = Grid((0.0,), 0.25, (2,))
    with pytest.raises(ResolutionError):
        curvilinear_sum_grid(a, a, spec, out_grid=small)
    with pytest.raises(DegenerateInputError):
        empty = StaircaseSet(Grid((0.0,), 0.25, (4,)), np.zeros(4))
        curvilinear_sum_grid(a, empty, spec)


@pytest.mark.parametrize("p", [0.75, 1.0, 2.0])
def test_grid_kernel_refuses_images_off_the_output_grid(p):
    # a grid that passes the coverage check yet is too small must not pile
    # the images beyond its edge into the edge cells, in the kernel or in
    # the brute-force oracle (which covers p >= 1 only)
    a = cube_staircase(1.0, 1.0, cells=4, base_dim=2)
    b = cube_staircase(0.5, 2.0, cells=2, base_dim=2)
    spec = SumSpec(p=p, alphas=vec(1, 0.5, 2), t=0.5, lambda_points=8)
    halved = curvsum._extents
    with mock.patch.object(curvsum, "_extents",
                           lambda *args: [e / 2 for e in halved(*args)]):
        with pytest.raises(ResolutionError, match="does not cover the sum"):
            curvilinear_sum_grid(a, b, spec)
        with pytest.raises(RegimeError if p < 1.0 else ResolutionError):
            sum_oracle(a, b, spec)


def test_oracle_budget():
    a = cube_staircase(1.0, 1.0, cells=64)
    spec = SumSpec(p=2.0, alphas=vec(1, 1), t=0.5, lambda_points=64)
    with pytest.raises(BudgetError):
        sum_oracle(a, a, spec, budget=1000)


def test_oracle_keeps_every_lambda_at_p1():
    # the fast path evaluates one lam at p = 1; the oracle stays independent
    a = cube_staircase(1.0, 1.0, cells=4)
    spec = SumSpec(p=1.0, alphas=vec(1, 2), t=0.5, lambda_points=64)
    tuples = 16 * spec.lambda_grid().size
    with pytest.raises(BudgetError):
        sum_oracle(a, a, spec, budget=tuples - 1)
    slow = sum_oracle(a, a, spec, budget=tuples)
    assert np.array_equal(curvilinear_sum_grid(a, a, spec).heights, slow.heights)


def test_quasi_p1_matches_brute_force():
    rng = np.random.default_rng(23)
    a = rng_staircase(rng)
    b = rng_staircase(rng)
    spec = SumSpec(p=1.0, alphas=vec(2, -1), t=0.3, mode=QUASI, lambda_points=4)
    fast = curvilinear_sum_grid(a, b, spec)
    xa, ha = a.support_cells()
    xb, hb = b.support_cells()
    grid = derive_out_grid(a, b, spec)
    expect = np.zeros(grid.shape)
    for i in range(len(xa)):
        for j in range(len(xb)):
            z = min(0.7 ** (1 / 2.0) * xa[i, 0], 0.3 ** (1 / 2.0) * xb[j, 0])
            v = min(0.7 ** (1 / -1.0) * ha[i], 0.3 ** (1 / -1.0) * hb[j])
            k = min(int(math.floor(z / grid.spacing + 1e-9)), grid.shape[0] - 1)
            expect[k] = max(expect[k], v)
    assert fast.grid == grid
    assert np.allclose(fast.heights, expect, atol=1e-15)


# (base, vertical) kernels per mode, kept apart from ``SumSpec.kernels``
_MODE_KERNELS = {
    CURVILINEAR: (combine, combine),
    QUASI: (combine_quasi, combine_quasi),
    CONVEX_QUASI: (combine, combine_quasi),
}


def _accumulate_pairwise(out, out_grid, spec, xa, ha, xb, hb, lam_values):
    """Oracle for ``curvsum._accumulate``: snaps every cell pair on every axis."""
    n = xa.shape[1]
    alphas = spec.alphas.alphas
    base_kernel, vert_kernel = _MODE_KERNELS[spec.mode]
    shape = out.shape
    flat = out.ravel()
    ma = xa.shape[0]
    mb = xb.shape[0]
    chunk = max(1, (1 << 22) // max(mb, 1))
    a_last = alphas[-1]
    inject_pairs = spec.p > 1.0 and a_last != 0.0 and not math.isinf(a_last)
    h_out = out_grid.spacing
    for start in range(0, ma, chunk):
        stop = min(ma, start + chunk)
        xs = xa[start:stop]
        hs = ha[start:stop]
        u = hs[:, None]
        v = hb[None, :]
        cd_list = [spec.coefficients(lam) for lam in lam_values]
        if inject_pairs:
            if spec.mode == CURVILINEAR:
                lam_star = spec.pair_lambda_star(u, v, a_last)
            else:
                lam_star = spec.quasi_crossing_lambda(u, v, a_last)
            cd_list.append(spec.coefficients(lam_star))
        for c, d in cd_list:
            vert = vert_kernel(u, v, c, d, a_last)
            idx = np.empty((xs.shape[0], mb, n), dtype=np.int64)
            for ax in range(n):
                z = base_kernel(xs[:, ax][:, None], xb[:, ax][None, :], c, d, alphas[ax])
                k = np.floor((z - out_grid.origin[ax]) / h_out + _SNAP).astype(np.int64)
                np.clip(k, 0, shape[ax] - 1, out=k)
                idx[:, :, ax] = k
            flat_idx = np.ravel_multi_index(
                tuple(idx[:, :, ax].ravel() for ax in range(n)), shape
            )
            np.maximum.at(flat, flat_idx, vert.ravel())
    return out


def _pairwise_every_lam(out, out_grid, spec, xa, ha, xb, hb, lam_values):
    # every lam of the spec at p = 1, where the fast path evaluates just one
    if spec.p == 1.0:
        lam_values = spec.lambda_grid()
    if spec.p >= 1.0:
        return _accumulate_pairwise(out, out_grid, spec, xa, ha, xb, hb, lam_values)
    # 0 < p < 1: intersection of single-lam slices
    for i, lam in enumerate(lam_values):
        lam_slice = _accumulate_pairwise(
            np.zeros(out.shape), out_grid, spec, xa, ha, xb, hb, [lam]
        )
        out[...] = lam_slice if i == 0 else np.minimum(out, lam_slice)
    return out


_POWERS = [1.0, -1.0, 0.5, 2.0, 0.0, math.inf, -math.inf]


@st.composite
def _grid_sum_case(draw):
    mode = draw(st.sampled_from([CURVILINEAR, QUASI, CONVEX_QUASI]))
    ps = [1.0, 1.5, 2.0, 3.0] if mode == CONVEX_QUASI else [0.6, 1.0, 1.5, 2.0, 3.0]
    powers = _POWERS if mode == CURVILINEAR else [a for a in _POWERS if a != 0.0]
    base_dim = draw(st.integers(1, 2))
    if mode == CONVEX_QUASI:
        base = [1.0] * base_dim
    else:
        base = [draw(st.sampled_from(powers)) for _ in range(base_dim)]
    form = draw(st.sampled_from([WITH_T, T_FREE]))
    spec = SumSpec(
        p=draw(st.sampled_from(ps)),
        alphas=vec(*base, draw(st.sampled_from(powers))),
        t=draw(st.sampled_from([0.2, 0.5, 0.7])) if form == WITH_T else None,
        lambda_points=draw(st.integers(1, 9)),
        mode=mode,
        coefficient_form=form,
    )
    sets = []
    for _ in range(2):
        cells = draw(st.integers(1, 4))
        # zero heights drop cells from the support, so the unique axis
        # coordinates of the two operands differ
        heights = np.asarray(
            draw(st.lists(st.sampled_from([0.0, 0.0, 0.5, 1.0, 1.5]),
                          min_size=cells**base_dim, max_size=cells**base_dim))
        ).reshape((cells,) * base_dim)
        if not heights.any():
            heights.flat[-1] = 1.0
        spacing = draw(st.sampled_from([0.25, 0.5]))
        sets.append(StaircaseSet(Grid((0.0,) * base_dim, spacing, heights.shape), heights))
    supplied = draw(st.booleans())
    pair_chunk = draw(st.sampled_from([None, 1, 5, 40]))
    # these operands are far below the run path's size rule; a zero rule
    # takes it wherever both sides' sparse tables fit the chunk
    runs = draw(st.booleans())
    # images per lam block: small budgets split the lam set across blocks,
    # for 0 < p < 1 too, where the output rows count against the budget
    lam_block = draw(st.sampled_from([None, 1, 2, 7, 60, 400]))
    return spec, sets[0], sets[1], supplied, pair_chunk, runs, lam_block


def _force_runs():
    """Patches that make the run path's size rule admit every chunk."""
    return [mock.patch.object(curvsum, name, 0)
            for name in ("_RUN_ELEMENT", "_RUN_TABLE_ENTRY", "_RUN_FIXED")]


@given(_grid_sum_case())
@settings(max_examples=250, deadline=None)
def test_grid_kernel_equals_pairwise_oracle(case):
    spec, a, b, supplied, pair_chunk, runs, lam_block = case
    out_grid = None
    if supplied:
        # a finer grid reaching past the derived one
        derived = derive_out_grid(a, b, spec)
        out_grid = Grid(
            derived.origin, derived.spacing / 2, tuple(2 * k + 3 for k in derived.shape)
        )
    with mock.patch.object(curvsum, "_accumulate", _pairwise_every_lam):
        want = curvilinear_sum_grid(a, b, spec, out_grid)
    with contextlib.ExitStack() as stack:
        if pair_chunk is not None:
            stack.enter_context(mock.patch.object(curvsum, "_PAIR_CHUNK", pair_chunk))
        if lam_block is not None:
            stack.enter_context(mock.patch.object(curvsum, "_LAM_BLOCK", lam_block))
        for patch in _force_runs() if runs else ():
            stack.enter_context(patch)
        got = curvilinear_sum_grid(a, b, spec, out_grid)
    assert got.grid == want.grid
    assert np.array_equal(got.heights, want.heights)


def _run_path_stair(rng, shape, zeros=0.0, adjacent=False, spacing=0.25):
    """A staircase with uniform heights, or heights a few ulps apart; a
    share ``zeros`` of its cells is dropped from the support."""
    if adjacent:
        # consecutive floats: a box's images differ in their last bits
        heights = 1.3 + np.spacing(1.3) * rng.integers(0, 6, shape)
    else:
        heights = rng.uniform(0.2, 2.0, shape)
    heights[rng.random(shape) < zeros] = 0.0
    heights.flat[0] = 1.0
    return StaircaseSet(Grid((0.0,) * len(shape), spacing, shape), heights)


def test_run_path_equals_pairwise_oracle():
    rng = np.random.default_rng(17)
    reduced = []  # per run-path image pass: whether the a side was reduced
    plan = curvsum._run_plan

    def recording(*args):
        got = plan(*args)
        if got:
            reduced.append(got[3])
        return got

    def check(a, b, spec, forced=False, pair_chunk=None):
        with mock.patch.object(curvsum, "_accumulate", _pairwise_every_lam):
            want = curvilinear_sum_grid(a, b, spec)
        reduced.clear()
        with contextlib.ExitStack() as stack:
            stack.enter_context(mock.patch.object(curvsum, "_run_plan", recording))
            if pair_chunk is not None:
                stack.enter_context(mock.patch.object(curvsum, "_PAIR_CHUNK", pair_chunk))
            for patch in _force_runs() if forced else ():
                stack.enter_context(patch)
            got = curvilinear_sum_grid(a, b, spec)
        assert reduced, "the run path did not run"
        assert np.array_equal(got.heights, want.heights)
        return set(reduced)

    # lam near 0 reduces b, near 1 reduces a
    ends = (0.002, 0.998)
    a, b = _run_path_stair(rng, (20, 20)), _run_path_stair(rng, (20, 20))
    for p in (2.0, 0.75):
        spec = SumSpec(p, vec(1, 1, 1), 0.5, 6, extra_lambdas=ends)
        # full 20x20 operands: the size rule as it stands takes the path
        assert check(a, b, spec) == {True, False}
    # 40,000 pairs a chunk, four chunks
    assert check(a, b, SumSpec(2.0, vec(1, 1, 1), 0.5, 6, extra_lambdas=ends),
                 pair_chunk=40_000) == {True, False}
    spec3 = SumSpec(2.0, vec(1, 0.5, 2, 1), 0.3, 4, extra_lambdas=ends)
    check(_run_path_stair(rng, (6, 6, 6)), _run_path_stair(rng, (5, 5, 5), zeros=0.2), spec3)
    check(_run_path_stair(rng, (60,), zeros=0.3), _run_path_stair(rng, (45,), zeros=0.3),
          SumSpec(2.0, vec(1, 1), 0.5, 6, extra_lambdas=ends), forced=True)
    # sparse supports: grid cells off the support on both sides
    check(_run_path_stair(rng, (14, 14), zeros=0.4), _run_path_stair(rng, (12, 12), zeros=0.5),
          SumSpec(1.5, vec(1, 1, 1), 0.5, 6, extra_lambdas=ends), forced=True)
    # every vertical power each mode admits, on heights a few ulps apart
    inf = math.inf
    for mode, base, ps in ((CURVILINEAR, (0.5, -1), (2.0, 0.75)), (QUASI, (1, -1), (2.0, 0.75)),
                           (CONVEX_QUASI, (1, 1), (2.0, 1.5))):
        for alpha in (1, -1, 0.5, 2, 0, -2.5, inf, -inf):
            if alpha == 0 and mode != CURVILINEAR:
                continue
            for p in ps:
                spec = SumSpec(p, vec(*base, alpha), 0.4, 4, mode=mode, extra_lambdas=ends)
                a = _run_path_stair(rng, (8, 8), zeros=0.2, adjacent=True)
                b = _run_path_stair(rng, (7, 7), adjacent=True, spacing=0.5)
                check(a, b, spec, forced=True)


def test_p1_evaluates_one_lambda():
    from curvilin.curvsum import _lambda_values

    rng = np.random.default_rng(4)
    a = rng_staircase(rng, cells=6)
    b = rng_staircase(rng, cells=6)
    spec = SumSpec(p=1.0, alphas=vec(2, -1), t=0.3, lambda_points=64)
    assert _lambda_values(spec, a, b).size == 1
    pairs = len(a.support_cells()[1]) * len(b.support_cells()[1])
    bps, parts = curvsum._lattice_ranks(a, b, spec)
    assert [lo.size for lo, _, _ in parts] == [pairs]
    with mock.patch.object(curvsum, "_lambda_values", lambda s, a, b: s.lambda_grid()):
        every = _regions_loop(a, b, spec)
    assert every[0].size == 64 * pairs
    want_bps, want_vals = _envelope_heap(*every)
    assert np.array_equal(bps, want_bps)
    assert np.array_equal(curvsum._envelope(bps, parts), want_vals)


@pytest.mark.parametrize("points, extras", [
    (1, ()), (7, ()), (64, ()), (64, (0.001,)), (5, (0.5, 0.9)), (2_000_000_000, ()),
])
def test_p1_lambda_is_the_grids_first_without_the_grid(points, extras):
    from curvilin.curvsum import _lambda_values

    spec = SumSpec(p=1.0, alphas=vec(1, 1), t=0.3, lambda_points=points, extra_lambdas=extras)
    got = _lambda_values(spec, None, None)
    if points < 1000:
        assert np.array_equal(got, spec.lambda_grid()[:1])
    else:
        assert got.tolist() == [1.0 / (points + 1)]


def test_grid_sum_budget_counts_lams_not_images(monkeypatch):
    # the grid sum's buffers are chunked, so only its lam count, at its
    # upper bound, is limited, whatever the number of cell pairs
    a = cube_staircase(1.0, 1.0, cells=12, base_dim=2)
    spec = SumSpec(p=2.0, alphas=vec(1, 1, 1), t=0.5, lambda_points=30)
    bound = curvsum._lam_bound(spec)
    monkeypatch.setattr(curvsum, "_SUM_LAMS", bound)
    assert curvilinear_sum_grid(a, a, spec).volume > 0
    monkeypatch.setattr(curvsum, "_SUM_LAMS", bound - 1)
    with pytest.raises(BudgetError, match=f"up to {bound} lam values, budget {bound - 1}"):
        curvilinear_sum_grid(a, a, spec)


def test_box_sum_budget_counts_images(monkeypatch):
    sq = BoxUnion(2, (((0.0, 0.0), (1.0, 1.0)), ((0.5, 0.5), (2.0, 1.5))))
    spec = SumSpec(p=2.0, alphas=vec(1, 1), t=0.5, lambda_points=8)
    images = 4 * curvsum._lam_bound(spec)
    monkeypatch.setattr(curvsum, "_BOX_IMAGES", images)
    curvilinear_sum_boxes(sq, sq, spec)
    monkeypatch.setattr(curvsum, "_BOX_IMAGES", images - 1)
    with pytest.raises(BudgetError, match=f"up to {images} images, budget {images - 1}"):
        curvilinear_sum_boxes(sq, sq, spec)


@st.composite
def _interval_union(draw):
    ends = sorted(draw(st.lists(st.integers(0, 40), min_size=2, max_size=6, unique=True)))
    return IntervalUnion(tuple(
        (ends[i] / 4, ends[i + 1] / 4) for i in range(0, len(ends) - 1, 2)
    ))


@given(
    k=_interval_union(),
    l=_interval_union(),
    alpha=st.sampled_from(_POWERS),
    t=st.floats(0.05, 0.95),
    form=st.sampled_from([WITH_T, T_FREE]),
    lambda_points=st.integers(1, 20),
)
@settings(max_examples=100, deadline=None)
def test_interval_sum_p1_one_lambda_equals_every_lambda(k, l, alpha, t, form, lambda_points):
    spec = SumSpec(p=1.0, alphas=vec(alpha), t=t, lambda_points=lambda_points,
                   coefficient_form=form)
    got = curvilinear_sum_1d(k, l, spec)
    with mock.patch.object(curvsum, "_lambda_values",
                           lambda s, k, l, pairs=(): s.lambda_grid()):
        want = curvilinear_sum_1d(k, l, spec)
    assert got == want


# ---------------------------------------------------------------------------
# exact box and envelope paths


def test_box_sum_unit_squares_exact():
    sq = BoxUnion(2, (((0.0, 0.0), (1.0, 1.0)),))
    spec = SumSpec(p=2.0, alphas=vec(1, 1), t=0.5, lambda_points=8)
    out = curvilinear_sum_boxes(sq, sq, spec)
    from curvilin.sets import box_union_volume

    # sup over lam of (C + D)^2 is 1, realized at the injected maximizer
    assert box_union_volume(out) == pytest.approx(1.0, abs=1e-12)


def test_box_path_agrees_with_envelope_path():
    rng = np.random.default_rng(5)
    a = rng_staircase(rng)
    b = rng_staircase(rng)
    spec = SumSpec(p=1.0, alphas=vec(1, 1), t=0.4, lambda_points=6)
    from curvilin.sets import box_union_volume

    via_boxes = box_union_volume(curvilinear_sum_boxes(a.boxes(), b.boxes(), spec))
    via_regions = staircase_sum_volume_exact(a, b, spec)
    assert via_regions == pytest.approx(via_boxes, rel=1e-12)
    spec2 = SumSpec(p=2.0, alphas=vec(1, 1), t=0.4, lambda_points=6)
    lower = box_union_volume(curvilinear_sum_boxes(a.boxes(), b.boxes(), spec2))
    assert staircase_sum_volume_exact(a, b, spec2) >= lower - 1e-12


def _curvilinear_sum_boxes_loop(a, b, spec):
    """Oracle for ``curvilinear_sum_boxes``: one (box pair, lam) image at a time."""
    dim = a.dim
    alphas = spec.alphas.alphas
    lams = list(spec.lambda_grid())
    a_last = alphas[-1]
    if spec.p > 1.0 and a_last != 0.0 and not math.isinf(a_last):
        va, vb = a.volume, b.volume
        if va > 0 and vb > 0:
            lams.append(float(spec.pair_lambda_star(va, vb, a_last)))
    lam_arr = np.unique(np.asarray(lams))
    c_arr, d_arr = spec.coefficients(lam_arr)
    boxes = []
    for alo, ahi in a.boxes.tolist():
        for blo, bhi in b.boxes.tolist():
            los = [
                np.broadcast_to(
                    combine(alo[ax], blo[ax], c_arr, d_arr, alphas[ax]), lam_arr.shape
                )
                for ax in range(dim)
            ]
            his = [
                np.broadcast_to(
                    combine(ahi[ax], bhi[ax], c_arr, d_arr, alphas[ax]), lam_arr.shape
                )
                for ax in range(dim)
            ]
            for i in range(len(lam_arr)):
                lo = tuple(float(los[ax][i]) for ax in range(dim))
                hi = tuple(float(his[ax][i]) for ax in range(dim))
                if all(h > l for l, h in zip(lo, hi)):
                    boxes.append((lo, hi))
    return BoxUnion(dim, tuple(boxes))


_POWERS = [1.0, -1.0, 0.5, 2.0, 0.0, math.inf, -math.inf]


@st.composite
def _box_pair(draw):
    dim = draw(st.integers(1, 3))
    unions = []
    for _ in range(2):
        boxes = []
        # empty operands and zero-width boxes included
        for _ in range(draw(st.integers(0, 4))):
            lo = [draw(st.integers(0, 8)) / 4 for _ in range(dim)]
            hi = [l + draw(st.integers(0, 4)) / 4 for l in lo]
            boxes.append((tuple(lo), tuple(hi)))
        unions.append(BoxUnion(dim, tuple(boxes)))
    alphas = PowerVector(tuple(draw(st.sampled_from(_POWERS)) for _ in range(dim)))
    return unions[0], unions[1], alphas


@given(
    pair=_box_pair(),
    p=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
    t=st.floats(0.05, 0.95),
    form=st.sampled_from([WITH_T, T_FREE]),
    lambda_points=st.integers(1, 20),
)
@settings(max_examples=300, deadline=None)
def test_box_sum_equals_loop_oracle(pair, p, t, form, lambda_points):
    a, b, alphas = pair
    spec = SumSpec(p, alphas, t, lambda_points, coefficient_form=form)
    got = curvilinear_sum_boxes(a, b, spec)
    want = _curvilinear_sum_boxes_loop(a, b, spec)
    if p == 1.0:
        # the oracle keeps every lam; at p = 1 they share one (C, D), so each
        # box pair yields n identical rows or none, and the fast path one
        n = spec.lambda_grid().size
        assert np.array_equal(got.boxes, want.boxes[::n])
    else:
        assert np.array_equal(got.boxes, want.boxes)
    assert got.volume == want.volume


def _segments(z_lo, z_hi, v):
    """Max envelope (bps, vals) of anchored rectangles, by ``_ranks`` and ``_envelope``.

    Rectangles with z_hi <= z_lo or v <= 0 are dropped; the breakpoints
    are the kept lo ends followed by the kept hi ends, ranked.
    """
    z_lo, z_hi, v = (np.asarray(x, dtype=float) for x in (z_lo, z_hi, v))
    keep = (z_hi > z_lo) & (v > 0)
    n = int(np.count_nonzero(keep))
    if n == 0:
        return np.asarray([0.0]), np.asarray([])
    bps, rank = curvsum._ranks(np.concatenate([z_lo[keep], z_hi[keep]]))
    return bps, curvsum._envelope(bps, [(rank[:n], rank[n:], v[keep])])


def test_envelope_volume_basic():
    bps, vals = _segments([0.0, 1.0], [2.0, 3.0], [2.0, 1.0])
    assert np.array_equal(bps, [0.0, 1.0, 2.0, 3.0])
    assert np.array_equal(vals, [2.0, 2.0, 1.0])
    assert float(np.sum(np.diff(bps) * vals)) == pytest.approx(2 * 2 + 1 * 1, abs=1e-15)
    assert _segments([], [], [])[1].size == 0


def _envelope_heap(z_lo, z_hi, v):
    """Oracle for the max envelope: a linear sweep with a lazy-deletion heap."""
    import heapq

    z_lo = np.asarray(z_lo, dtype=float)
    z_hi = np.asarray(z_hi, dtype=float)
    v = np.asarray(v, dtype=float)
    keep = (z_hi > z_lo) & (v > 0)
    z_lo, z_hi, v = z_lo[keep], z_hi[keep], v[keep]
    if z_lo.size == 0:
        return np.asarray([0.0]), np.asarray([])
    bps = np.unique(np.concatenate([z_lo, z_hi]))
    order = np.argsort(z_lo, kind="stable")
    z_lo_s, z_hi_s, v_s = z_lo[order], z_hi[order], v[order]
    heap: list[tuple[float, float]] = []
    vals = np.zeros(len(bps) - 1)
    ptr = 0
    m = len(z_lo_s)
    for i in range(len(bps) - 1):
        z0 = bps[i]
        while ptr < m and z_lo_s[ptr] <= z0:
            heapq.heappush(heap, (-v_s[ptr], z_hi_s[ptr]))
            ptr += 1
        while heap and heap[0][1] <= z0:
            heapq.heappop(heap)
        vals[i] = -heap[0][0] if heap else 0.0
    return bps, vals


def _heap_volume(z_lo, z_hi, v):
    bps, vals = _envelope_heap(z_lo, z_hi, v)
    return float(np.sum(np.diff(bps) * vals)) if vals.size else 0.0


def assert_matches_heap(z_lo, z_hi, v):
    bps, vals = _segments(z_lo, z_hi, v)
    want_bps, want_vals = _envelope_heap(z_lo, z_hi, v)
    assert np.array_equal(bps, want_bps)
    assert np.array_equal(vals, want_vals)


# integer endpoints on a short line: shared and duplicate endpoints, zero and
# negative widths, and (over a ruler of unit rectangles, which makes every
# integer a breakpoint) index ranges of exactly 2^k and 2^k - 1 segments
_ENDS = 80
_rect = st.tuples(
    st.integers(0, _ENDS),
    st.one_of(
        st.integers(-3, _ENDS),
        st.tuples(st.integers(0, 6), st.integers(0, 1)).map(lambda km: 2 ** km[0] - km[1]),
    ),
    st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0, 1.5, 2.0, 3.25]),  # ties, v <= 0
)


@given(st.lists(_rect, max_size=40), st.sampled_from([None, -0.5, 0.0, 0.25]))
@example(rects=[], ruler=None)
@settings(max_examples=300, deadline=None)
def test_envelope_segments_equals_heap_oracle(rects, ruler):
    z_lo = [float(a) for a, _, _ in rects]
    z_hi = [float(a + w) for a, w, _ in rects]
    v = [h for _, _, h in rects]
    if ruler is not None:
        z_lo += [float(i) for i in range(_ENDS)]
        z_hi += [float(i + 1) for i in range(_ENDS)]
        v += [ruler] * _ENDS
    assert_matches_heap(z_lo, z_hi, v)


def test_envelope_segments_ranges_up_to_2_pow_20():
    n_seg = (1 << 20) + 1
    ruler = np.arange(n_seg + 1, dtype=float)
    lengths = sorted({m for k in range(21) for m in (1 << k, (1 << k) - 1) if m})
    # nests sharing a start and sharing an end, shorter rectangles higher, so
    # a block that overshot either end of its range would change a value
    height = np.arange(len(lengths), 0, -1, dtype=float)
    m = np.asarray(lengths, dtype=float)
    z_lo = np.concatenate([ruler[:-1], np.full(m.size, 1.0), n_seg - m])
    z_hi = np.concatenate([ruler[1:], 1.0 + m, np.full(m.size, float(n_seg))])
    v = np.concatenate([np.full(n_seg, 0.5), height, height])
    assert_matches_heap(z_lo, z_hi, v)


@pytest.mark.parametrize("seed", [3, 17])
@pytest.mark.parametrize("p", [1.0, 2.0])
def test_envelope_volume_equals_oracle_on_staircase_regions(seed, p):
    from curvilin.curvsum import _lambda_values

    rng = np.random.default_rng(seed)
    a = rng_staircase(rng, cells=16, spacing=1 / 16)
    b = rng_staircase(rng, cells=16, spacing=1 / 16)
    spec = SumSpec(p=p, alphas=vec(1, 2), t=0.35, lambda_points=32)
    regions = _regions_loop(a, b, spec)
    if p > 1.0:
        # the per-pair maximizer adds one lam per cell pair, as a part of its own
        pairs = len(a.support_cells()[1]) * len(b.support_cells()[1])
        n_lam = len(_lambda_values(spec, a, b))
        assert regions[0].size == pairs * (n_lam + 1)
        _, parts = curvsum._lattice_ranks(a, b, spec)
        assert len(parts) == 2 and parts[0][0].size == pairs * n_lam
    assert_matches_heap(*regions)
    assert staircase_sum_volume_exact(a, b, spec) == _heap_volume(*regions)


def test_convex_quasi_volume_equals_oracle_on_regions():
    rng = np.random.default_rng(23)
    a = rng_staircase(rng, cells=16, spacing=1 / 16)
    b = rng_staircase(rng, cells=16, spacing=1 / 16)
    spec = SumSpec(p=1.5, alphas=vec(1, -0.5), t=0.3, lambda_points=32, mode=CONVEX_QUASI)
    regions = _regions_loop(a, b, spec)
    assert_matches_heap(*regions)
    assert staircase_sum_volume_exact(a, b, spec) == _heap_volume(*regions)


def _regions_loop(a, b, spec):
    """The sum's rectangles as flat (z_lo, z_hi, v) rows, one scalar (C, D) per kernel call.

    Each (cell pair, lam) yields the base interval [m(x_lo, y_lo),
    m(x_hi, y_hi)] at height m(h_a, h_b).  Rows come in (lam, a-cell,
    b-cell) order, then one row per cell pair at its own maximizer.
    """
    if a.base_dim != 1 or b.base_dim != 1:
        raise DomainError("region path needs one base axis")
    if spec.alphas.n != 1:
        raise DomainError("power vector must have one base entry")
    if spec.p < 1.0:
        raise RegimeError("region path supports p >= 1 only")
    xa, ha = curvsum._support(a)
    xb, hb = curvsum._support(b)
    alpha0 = spec.alphas.alphas[0]
    alpha1 = spec.alphas.last
    base_kernel, vert_kernel = _MODE_KERNELS[spec.mode]
    lam_values = curvsum._lambda_values(spec, a, b)
    u = ha[:, None]
    v = hb[None, :]
    cd_list = [spec.coefficients(lam) for lam in lam_values]
    if spec.p > 1.0 and alpha1 != 0.0 and not math.isinf(alpha1):
        if spec.mode == CURVILINEAR:
            cd_list.append(spec.coefficients(spec.pair_lambda_star(u, v, alpha1)))
        else:
            cd_list.append(spec.coefficients(spec.quasi_crossing_lambda(u, v, alpha1)))
    xlo_a = xa[:, 0][:, None]
    xhi_a = xlo_a + a.grid.spacing
    xlo_b = xb[:, 0][None, :]
    xhi_b = xlo_b + b.grid.spacing
    z_lo, z_hi, vert = [], [], []
    for c, d in cd_list:
        z_lo.append(base_kernel(xlo_a, xlo_b, c, d, alpha0).ravel())
        z_hi.append(base_kernel(xhi_a, xhi_b, c, d, alpha0).ravel())
        vert.append(vert_kernel(u, v, c, d, alpha1).ravel())
    return np.concatenate(z_lo), np.concatenate(z_hi), np.concatenate(vert)


@st.composite
def _region_case(draw):
    mode = draw(st.sampled_from([CURVILINEAR, QUASI, CONVEX_QUASI]))
    powers = _POWERS if mode == CURVILINEAR else [a for a in _POWERS if a != 0.0]
    base = 1.0 if mode == CONVEX_QUASI else draw(st.sampled_from(powers))
    form = draw(st.sampled_from([WITH_T, T_FREE]))
    spec = SumSpec(
        p=draw(st.sampled_from([1.0, 1.25, 1.5, 2.0, 3.0])),
        alphas=vec(base, draw(st.sampled_from(powers))),
        t=draw(st.floats(0.05, 0.95)) if form == WITH_T else None,
        lambda_points=draw(st.integers(1, 40)),
        mode=mode,
        coefficient_form=form,
        extra_lambdas=tuple(draw(st.lists(st.floats(0.01, 0.99), max_size=3))),
    )
    sets = []
    for _ in range(2):
        # one-cell operands included; zero heights drop cells from the support
        cells = draw(st.integers(1, 12))
        heights = np.asarray(draw(st.lists(
            st.one_of(st.just(0.0), st.floats(0.01, 4.0)),
            min_size=cells, max_size=cells)))
        if not heights.any():
            heights[-1] = 1.0
        spacing = draw(st.sampled_from([0.1, 0.25, 1 / 3]))
        sets.append(StaircaseSet(Grid((0.0,), spacing, heights.shape), heights))
    return spec, sets[0], sets[1]


def _assert_lattice_equals_heap(a, b, spec):
    """The lattice-ranked envelope against the heap sweep of the loop rows, bit for bit."""
    rows = _regions_loop(a, b, spec)
    want_bps, want_vals = _envelope_heap(*rows)
    ranked = curvsum._lattice_ranks(a, b, spec)
    if ranked is None:
        assert want_vals.size == 0
    else:
        bps, parts = ranked
        assert np.array_equal(bps, want_bps)
        assert np.array_equal(curvsum._envelope(bps, parts), want_vals)
    assert staircase_sum_volume_exact(a, b, spec) == _heap_volume(*rows)


@given(_region_case())
@settings(max_examples=300, deadline=None)
def test_regions_equal_loop_oracle(case):
    spec, a, b = case
    _assert_lattice_equals_heap(a, b, spec)


def _gapped_pair():
    # support gaps and zero heights on both sides; on b's spacing a cell's
    # x + h and the next cell's x round apart (after cells 5 and 6), as a
    # dilated operand's do, so b has more distinct edges than cells + 1
    a = StaircaseSet(Grid((0.0,), 0.25, (7,)),
                     np.asarray([0.5, 0.0, 1.25, 2.0, 0.0, 0.0, 0.75]))
    b = StaircaseSet(Grid((0.0,), 0.3, (8,)),
                     np.asarray([1.0, 0.0, 0.3, 1.7, 0.9, 0.6, 1.2, 0.4]))
    return a, b


# every base power each mode admits: quasi needs a nonzero one, the convex
# combination form a base power of 1
_LATTICE_CASES = [
    (mode, alpha0)
    for mode in (CURVILINEAR, QUASI, CONVEX_QUASI)
    for alpha0 in (1.0, 0.5, 2.0, -1.0, 0.0, math.inf, -math.inf)
    if not (mode == QUASI and alpha0 == 0.0) and not (mode == CONVEX_QUASI and alpha0 != 1.0)
]


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
@pytest.mark.parametrize("mode, alpha0", _LATTICE_CASES)
def test_lattice_volume_equals_flat_regions(mode, alpha0, p):
    a, b = _gapped_pair()
    for alpha1, extras in ((1.0, ()), (-0.5, (0.013, 0.5, 0.987))):
        spec = SumSpec(p=p, alphas=vec(alpha0, alpha1), t=0.35, lambda_points=9,
                       mode=mode, extra_lambdas=extras)
        _assert_lattice_equals_heap(a, b, spec)
        _assert_lattice_equals_heap(b, a, spec)


@pytest.mark.parametrize("alphas, a_heights", [
    # C^(1/alpha0) underflows at a tiny base power and rectangles lose their
    # width: some grid and maximizer rows, every maximizer row, every one
    ((0.002, 1.0), None),
    ((0.001, 1.0), None),
    ((1e-6, 1.0), None),
    # the height underflows over the 1e-250 cells alone: a dropped
    # rectangle keeps its width, and no kept one shares some of its ends;
    # at the smaller power half the maximizer rows' heights underflow too
    ((1.0, 0.003), [1.0, 1e-250, 1.0, 1e-250, 1e-250, 1.0]),
    ((1.0, 0.001), [1.0, 1e-250, 1.0, 1e-250, 1e-250, 1.0]),
])
def test_lattice_drops_rectangles_as_the_flat_rows_do(alphas, a_heights):
    a, b = _gapped_pair()
    if a_heights is not None:
        a = StaircaseSet(Grid((0.0,), 0.25, (len(a_heights),)), np.asarray(a_heights))
    spec = SumSpec(p=2.0, alphas=vec(*alphas), t=0.35, lambda_points=16, mode=QUASI)
    z_lo, z_hi, v = _regions_loop(a, b, spec)
    assert not ((z_hi > z_lo) & (v > 0)).all()
    _assert_lattice_equals_heap(a, b, spec)


def test_lattice_volume_equals_flat_regions_on_surface_operands():
    # the surface path: a t-free sum with a dilated b and its reach extras
    from curvilin.measures import _reach_extras

    rng = np.random.default_rng(14)
    a = StaircaseSet(Grid((0.0,), 0.25, (14,)), rng.uniform(0.2, 2.0, 14))
    b = StaircaseSet(Grid((0.0,), 0.25, (14,)), rng.uniform(0.2, 2.0, 14))
    spec = SumSpec(p=2.0, alphas=vec(1, 1), lambda_points=64, coefficient_form=T_FREE)
    for eps in (2.0**-4, 2.0**-7, 2.0**-10):
        eb = scalar_dilate(eps, b, spec)
        _assert_lattice_equals_heap(a, eb, spec.with_extra_lambdas(_reach_extras(a, eb, spec)))


def test_surface_closed_form_square():
    # [0,1]^2 plus its eps-dilation: exact volume (1 + eps)^(2/p)
    for p in (1.0, 2.0, 3.0):
        spec = SumSpec(p=p, alphas=vec(1, 1), coefficient_form=T_FREE, lambda_points=8)
        a = cube_staircase(1.0, 1.0, cells=1)
        for eps in (1.0, 0.5, 2.0**-6):
            b = scalar_dilate(eps, a, spec)
            vol = staircase_sum_volume_exact(a, b, spec)
            assert vol == pytest.approx((1.0 + eps) ** (2.0 / p), rel=1e-12), (p, eps)


# ---------------------------------------------------------------------------
# dilation


def test_dilate_cube_law():
    spec = SumSpec(p=2.0, alphas=vec(1, 1, 1), t=0.5)
    cube = cube_staircase(1.0, 1.0, cells=4, base_dim=2)
    for eps in (0.5, 1.0, 3.0):
        scaled = scalar_dilate(eps, cube, spec)
        assert scaled.volume == pytest.approx(eps ** (3.0 / 2.0), rel=1e-12)


def test_dilate_group_law():
    spec = SumSpec(p=1.5, alphas=vec(1, 2, -1), t=0.5)
    box = BoxUnion(3, (((0.0, 0.5, 1.0), (2.0, 1.0, 4.0)),))
    once = scalar_dilate(0.3, scalar_dilate(1.7, box, spec), spec)
    direct = scalar_dilate(0.3 * 1.7, box, spec)
    for (lo1, hi1), (lo2, hi2) in zip(once.boxes, direct.boxes):
        assert np.allclose(lo1, lo2, rtol=1e-12)
        assert np.allclose(hi1, hi2, rtol=1e-12)


def test_dilate_staircase_unequal_base_powers_rejected():
    spec = SumSpec(p=1.0, alphas=vec(1, 2, 1), t=0.5)
    cube = cube_staircase(1.0, 1.0, cells=2, base_dim=2)
    with pytest.raises(GridAlignmentError):
        scalar_dilate(0.5, cube, spec)


def test_tfree_dilation_matches_with_t_coefficients():
    # coefficient-level identity behind splitting t out of the sum
    for p in (1.5, 2.0, 4.0):
        for alpha in (-1.5, 1.0, 2.0):
            for t in (0.3, 0.5, 0.8):
                w = SumSpec(p=p, alphas=vec(alpha), t=t)
                f = SumSpec(p=p, alphas=vec(alpha), coefficient_form=T_FREE)
                lams = np.linspace(0.05, 0.95, 7)
                cw, dw = w.coefficients(lams)
                cf, df = f.coefficients(lams)
                u, v = 1.3, 0.7
                su = (1 - t) ** (1.0 / (p * alpha)) * u
                sv = t ** (1.0 / (p * alpha)) * v
                lhs = combine(su, sv, cf, df, alpha)
                rhs = combine(u, v, cw, dw, alpha)
                assert np.allclose(lhs, rhs, rtol=1e-12)


# ---------------------------------------------------------------------------
# base-space lattice sums


def test_lp_minkowski_base_frozen():
    x = GridPointSet(np.asarray([[0.0], [1.0], [2.0]]), 1.0)
    y = GridPointSet(np.asarray([[0.0], [1.0]]), 1.0)
    out = lp_minkowski_sum_base(x, y, p=1.0, t=0.5, lambda_points=8)
    assert out.count == 2  # snapped midpoints land in cells 0 and 1
    out2 = lp_minkowski_sum_base(x, y, p=2.0, t=0.5, lambda_points=8)
    assert out2.count >= out.count
    with pytest.raises(GridAlignmentError):
        lp_minkowski_sum_base(x, GridPointSet(np.asarray([[0.0]]), 0.5), 1.0, 0.5)


def test_coefficient_memo_equals_fresh_coefficients():
    lams = np.concatenate([SumSpec(2.0, vec(1, 1), 0.5, 64).lambda_grid(),
                           [1e-300, 1e-9, 0.37, 1 - 1e-9, 1 - 1e-16]])
    for p in (0.6, 1.0, 1.5, 2.0, 3.0):
        for t, form in ((0.2, WITH_T), (0.5, WITH_T), (0.73, WITH_T), (None, T_FREE)):
            spec = SumSpec(p, vec(1, 1), t, 8, coefficient_form=form)
            for _ in range(2):  # the second pass reads the memo
                for lam, cd in zip(lams, curvsum._coefficient_list(spec, lams)):
                    for got, want in zip(cd, spec.coefficients(lam)):
                        assert type(got) is type(want)
                        assert np.array_equal(got, want)
                        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
                        if isinstance(got, np.ndarray):
                            assert not got.flags.writeable
    # a t-free spec's memo entry ignores t; a with-t spec's does not
    one = curvsum._coefficient_list(SumSpec(2.0, vec(1, 1), 0.3, 8, coefficient_form=T_FREE), [0.4])
    two = curvsum._coefficient_list(SumSpec(2.0, vec(1, 1), 0.6, 8, coefficient_form=T_FREE), [0.4])
    assert one[0] is two[0]
    c3, _ = curvsum._coefficient_list(SumSpec(2.0, vec(1, 1), 0.3, 8), [0.4])[0]
    c6, _ = curvsum._coefficient_list(SumSpec(2.0, vec(1, 1), 0.6, 8), [0.4])[0]
    assert c3 != c6


def test_base_sum_table_is_read_only_and_scalar_exact():
    inf = float("inf")
    tables = {}
    for p in (1.0, 1.5, 2.0, 3.0):
        for t in (0.2, 0.5, 0.73):
            for dim in (1, 2):
                spec, lams, c, d = curvsum._base_sum_table(p, t, 9, dim)
                assert curvsum._base_sum_table(p, t, 9, dim)[1] is lams
                fresh = SumSpec(p, PowerVector((1.0,) * dim + (-inf,)), t, 9,
                                extra_lambdas=(t,))
                assert spec == fresh
                x = GridPointSet(np.zeros((1, dim)), 0.5)
                want_lams = curvsum._lambda_values(fresh, x, x)
                want = np.asarray(curvsum._coefficient_list(fresh, want_lams))
                assert np.array_equal(lams, want_lams)
                assert np.array_equal(c[:, 0], want[:, 0])
                assert np.array_equal(d[:, 0], want[:, 1])
                for arr in (lams, c, d):
                    assert not arr.flags.writeable
                    with pytest.raises(ValueError):
                        arr[0] = 0.5
                tables[p, t, dim] = (spec, c, d)
    # keys that differ only in t, or only in dim, never share a table
    for (p, t, dim), (spec, c, d) in tables.items():
        for t2 in (0.2, 0.5, 0.73):
            if t2 != t:
                other = tables[p, t2, dim]
                assert other[0].t == t2
                assert not np.array_equal(c, other[1]) or not np.array_equal(d, other[2])
        assert tables[p, t, 3 - dim][0].alphas.n == 3 - dim
        assert spec.alphas.n == dim


def test_lp_minkowski_base_contains_t_slice():
    rng = np.random.default_rng(2)
    coords = np.unique(rng.integers(0, 6, size=(5, 2)), axis=0).astype(float) * 0.5
    x = GridPointSet(coords, 0.5)
    y = GridPointSet(np.asarray([[0.0, 0.5], [0.5, 0.0]]), 0.5)
    t = 0.4
    out = lp_minkowski_sum_base(x, y, p=3.0, t=t, lambda_points=6)
    got = {tuple(row) for row in np.round(out.coords / 0.5).astype(int)}
    for u in x.coords:
        for v in y.coords:
            z = (1 - t) * u + t * v
            cell = tuple(np.floor(z / 0.5 + 1e-9).astype(int))
            assert cell in got


def _lp_minkowski_sum_base_loop(x, y, p, t, lambda_points=64):
    """Oracle for ``lp_minkowski_sum_base``: one snapping pass per lam, row unique."""
    spec = SumSpec(
        p=p,
        alphas=PowerVector((1.0,) * (x.dim + 1)),
        t=t,
        lambda_points=lambda_points,
    )
    lams = list(spec.lambda_grid()) + [t]
    h = x.spacing
    u = x.coords[:, None, :]
    v = y.coords[None, :, :]
    cells = []
    cd_list = [spec.coefficients(lam) for lam in np.unique(np.asarray(lams))]
    if x.dim == 1 and p > 1.0:
        lam_star = spec.pair_lambda_star(u[..., 0], v[..., 0], 1.0)
        cd_list.append(spec.coefficients(lam_star))
    for c, d in cd_list:
        c = np.asarray(c)[..., None] if np.ndim(c) else c
        d = np.asarray(d)[..., None] if np.ndim(d) else d
        z = c * u + d * v
        idx = np.floor(z / h + _SNAP).astype(np.int64)
        cells.append(idx.reshape(-1, x.dim))
    all_idx = np.unique(np.concatenate(cells, axis=0), axis=0)
    return GridPointSet(all_idx.astype(float) * h, h)


@st.composite
def _point_sets(draw):
    dim = draw(st.integers(1, 3))
    h = draw(st.sampled_from([1.0, 0.5, 1 / 3]))
    sets = []
    for _ in range(2):
        # one-point sets included; negative lattice indices too
        rows = draw(st.lists(st.tuples(*[st.integers(-4, 9)] * dim), min_size=1, max_size=6,
                             unique=True))
        sets.append(GridPointSet(np.asarray(rows, dtype=float) * h, h))
    return sets[0], sets[1]


@given(
    sets=_point_sets(),
    p=st.sampled_from([1.0, 1.25, 2.0, 3.5]),
    t=st.floats(0.05, 0.95),
    lambda_points=st.integers(1, 70),
)
@settings(max_examples=300, deadline=None)
def test_lp_minkowski_base_equals_loop_oracle(sets, p, t, lambda_points):
    x, y = sets
    got = lp_minkowski_sum_base(x, y, p, t, lambda_points)
    want = _lp_minkowski_sum_base_loop(x, y, p, t, lambda_points)
    assert got.spacing == want.spacing
    assert np.array_equal(got.coords, want.coords)


def test_lp_minkowski_base_refuses_code_box_overflow():
    near = GridPointSet(np.asarray([[0.0, 0.0]]), 1.0)
    far = GridPointSet(np.asarray([[1e12, 1e12]]), 1.0)
    with pytest.raises(BudgetError):
        lp_minkowski_sum_base(near, far, p=2.0, t=0.5)
    # beyond int64 on a single axis
    with pytest.raises(BudgetError):
        lp_minkowski_sum_base(GridPointSet(np.asarray([[0.0]]), 1.0),
                              GridPointSet(np.asarray([[1e300]]), 1.0), p=1.0, t=0.5)


# ---------------------------------------------------------------------------
# extra lam values and the convex combination form


def test_extra_lambdas_merge_and_roundtrip():
    spec = SumSpec(p=2.0, alphas=vec(1, 1), t=0.5, lambda_points=4,
                   extra_lambdas=(0.125, 0.9))
    grid = spec.lambda_grid()
    assert 0.125 in grid and 0.9 in grid
    assert len(grid) == 6
    assert spec.to_json()["extra_lambdas"] == [0.125, 0.9]
    merged = spec.with_extra_lambdas((0.9, 0.25))
    assert merged.extra_lambdas == (0.125, 0.25, 0.9)
    with pytest.raises(RangeError):
        SumSpec(p=2.0, alphas=vec(1, 1), t=0.5, extra_lambdas=(1.5,))


def test_extra_lambda_reaches_new_cells():
    # alpha_last = inf disables pair injections, so the lean spec sees only
    # lam = 1/2; for unequal reaches the optimum sits elsewhere and only the
    # injected lam exposes it
    a = cube_staircase(1.0, 1.0, cells=20)
    b = cube_staircase(2.0, 1.0, cells=40)
    lean = SumSpec(p=2.0, alphas=vec(1, math.inf), t=0.5, lambda_points=1)
    out_grid = derive_out_grid(a, b, replace(lean, lambda_points=64))
    thin = curvilinear_sum_grid(a, b, lean, out_grid=out_grid)
    fat = curvilinear_sum_grid(a, b, lean.with_extra_lambdas((0.8,)),
                               out_grid=out_grid)
    assert fat.volume > thin.volume
    assert np.all(fat.heights >= thin.heights)


def test_convex_quasi_sum_matches_direct_loop():
    rng = np.random.default_rng(11)
    a = rng_staircase(rng, cells=4)
    b = rng_staircase(rng, cells=4)
    delta = -0.8
    spec = SumSpec(p=2.0, alphas=vec(1, delta), t=0.4, lambda_points=8, mode=CONVEX_QUASI)
    out = curvilinear_sum_grid(a, b, spec)
    # direct replay: affine base, quasi vertical, same lam values
    expect = np.zeros(out.grid.shape)
    h = out.grid.spacing
    xa, ha = a.support_cells()
    xb, hb = b.support_cells()
    lams = list(spec.lambda_grid())
    lams.append(float(spec.quasi_crossing_lambda(a.volume, b.volume, delta)))
    for i in range(len(xa)):
        for j in range(len(xb)):
            pair = lams + [float(spec.quasi_crossing_lambda(ha[i], hb[j], delta))]
            for lam in pair:
                c, d = spec.coefficients(lam)
                z = c * xa[i, 0] + d * xb[j, 0]
                val = min(c ** (1 / delta) * ha[i], d ** (1 / delta) * hb[j])
                cell = min(int(np.floor(z / h + 1e-9)), out.grid.shape[0] - 1)
                expect[cell] = max(expect[cell], val)
    assert np.allclose(out.heights, expect, rtol=0, atol=1e-12)


def test_convex_quasi_exact_envelope_dominates_grid():
    rng = np.random.default_rng(12)
    a = rng_staircase(rng, cells=5)
    b = rng_staircase(rng, cells=5)
    spec = SumSpec(p=1.5, alphas=vec(1, -0.5), t=0.3, lambda_points=16, mode=CONVEX_QUASI)
    exact = staircase_sum_volume_exact(a, b, spec)
    grid = curvilinear_sum_grid(a, b, spec).volume
    assert exact >= grid - 1e-12
    assert exact <= grid + 0.5  # same lam set, snapping loss only


def test_convex_quasi_guards():
    spec = SumSpec(p=1.5, alphas=vec(1, 1, -0.5), t=0.3, lambda_points=8, mode=CONVEX_QUASI)
    assert spec.to_json() == {
        "p": 1.5, "t": 0.3, "alphas": [1.0, 1.0, -0.5], "lambda_points": 8,
        "mode": CONVEX_QUASI, "coefficient_form": WITH_T, "extra_lambdas": []}
    assert spec.kernels == (combine, combine_quasi)
    with pytest.raises(RegimeError):
        SumSpec(p=0.75, alphas=vec(1, -1), t=0.5, mode=CONVEX_QUASI)
    with pytest.raises(DomainError):
        SumSpec(p=2.0, alphas=vec(0.5, -1), t=0.5, mode=CONVEX_QUASI)
    with pytest.raises(DomainError):
        SumSpec(p=2.0, alphas=vec(1, 0), t=0.5, mode=CONVEX_QUASI)

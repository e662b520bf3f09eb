import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from curvilin import cli, sets
from curvilin.errors import (
    BudgetError,
    CurvilinError,
    DegenerateInputError,
    DomainError,
    GridAlignmentError,
    RangeError,
)
from curvilin.sets import (
    BoxUnion,
    Grid,
    GridFunction,
    GridPointSet,
    IntervalUnion,
    StaircaseSet,
    box_union_volume,
    box_union_volume_ie,
    compress,
    load_set,
    normalized_compression,
    section_profile,
    set_from_json,
    superlevel_masks,
)
from scalar_oracles import normalize_loop, superlevel


def staircase(heights, spacing=0.25, origin=None):
    h = np.asarray(heights, dtype=float)
    if origin is None:
        origin = (0.0,) * h.ndim
    return StaircaseSet(Grid(origin, spacing, h.shape), h)


@pytest.mark.parametrize("values", [
    [],
    [0.0, -0.0],
    [-0.0, 0.0],
    [1.5, -0.0, 0.0, 2.0, 0.0, 1.5, -0.0],
    [[3.0, 1.0], [3.0, 2.0]],
    # duplicates with both zeros scattered among them, past the small-sort size
    np.where(np.random.default_rng(3).random(1000) < 0.1, -0.0,
             np.random.default_rng(4).integers(0, 9, 1000) * 0.5),
    np.random.default_rng(5).integers(0, 50, 1000),
])
def test_sorted_unique_equals_np_unique(values):
    values = np.asarray(values)
    got = sets._sorted_unique(values)
    want = np.unique(values)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)
    # the same sort keeps the same zero
    assert np.array_equal(np.signbit(got), np.signbit(want))


def test_interval_union_is_held_merged():
    u = IntervalUnion(((1.0, 2.0), (1.5, 3.0), (5.0, 5.0), (4.0, 4.5)))
    assert u.intervals == ((1.0, 3.0), (4.0, 4.5))
    assert u.volume == 2.5
    assert u == IntervalUnion([[4.0, 4.5], [1.0, 3.0]])
    assert u.to_json() == {"intervals": [[1.0, 3.0], [4.0, 4.5]]}
    assert IntervalUnion.from_json(u.to_json()) == u
    with pytest.raises(DomainError, match=r"^bad interval \[2\.0, 1\.0\]$"):
        IntervalUnion(((0.0, 1.0), (2.0, 1.0), (-1.0, 0.0)))


def test_interval_union_refuses_malformed_shapes():
    # reshaping would pair up the ends of a flat list or a long row silently
    for bad in ([[0.0, 1.0, 2.0, 3.0]], [0.0, 1.0], 1.0, [[0.0], [1.0]]):
        with pytest.raises(DomainError, match=r"^intervals must be \(lo, hi\) pairs, got shape"):
            IntervalUnion(bad)
    with pytest.raises(DomainError, match=r"^intervals must be \(lo, hi\) pairs of numbers$"):
        IntervalUnion([[0.0, 1.0], [2.0]])
    assert IntervalUnion(()).intervals == IntervalUnion(np.empty((0, 2))).intervals == ()


def test_interval_volume_reads_run_no_merge():
    u = IntervalUnion(((0.0, 1.0), (0.5, 2.0), (3.0, 4.0)))
    with mock.patch.object(np, "lexsort", wraps=np.lexsort) as lexsort:
        assert u.volume == 3.0
        assert u.volume == 3.0
    assert lexsort.call_count == 0


# raw (lo, hi) pairs on a quarter grid: touching ends, nesting, zero
# lengths and repeated pieces are common
_QUARTER_INTERVALS = st.lists(st.tuples(st.integers(0, 12), st.integers(0, 4)), max_size=12).map(
    lambda ends: tuple((a / 4, (a + n) / 4) for a, n in ends))


@given(raw=_QUARTER_INTERVALS)
@example(raw=())
@example(raw=((0.0, 1.0), (1.0, 2.0)))  # touching ends merge
@example(raw=((0.0, 3.0), (1.0, 2.0), (0.5, 2.5)))  # nested
@example(raw=((1.0, 1.0), (2.0, 3.0), (3.0, 3.0)))  # zero lengths
@example(raw=((0.0, 1.0), (0.0, 1.0), (0.0, 0.5)))  # repeats
# the first of (lo, hi) order opens the piece: 0.0 here, not -0.0
@example(raw=((-0.0, 2.0), (0.0, 1.0)))
@settings(max_examples=300, deadline=None)
def test_interval_union_merge_equals_tuple_merge(raw):
    # repr tells -0.0 from 0.0, which == does not
    assert repr(IntervalUnion(raw).intervals) == repr(normalize_loop(raw))


def test_interval_volume_adds_left_to_right():
    # a compensated builtin sum, as Python 3.12 has, must not reach the
    # volume: compress heights are bitwise left-to-right fiber volumes
    u = IntervalUnion(((0.1, 0.743625), (0.8868, 0.93), (1.66472, 2.6), (2.7074, 2.7459),
                       (2.90341, 2.972587), (3.4, 3.7), (3.7566, 3.75667), (3.8, 3.89301)))
    want = 0.0
    for a, b in u.intervals:
        want += b - a
    assert math.fsum(b - a for a, b in u.intervals) != want
    with mock.patch.object(sets, "sum", math.fsum, create=True):
        assert u.volume == want
    assert IntervalUnion(()).volume == 0.0


def test_box_union_volume_overlap():
    u = BoxUnion(2, (((0, 0), (1, 1)), ((0.5, 0.5), (1.5, 1.5))))
    assert u.volume == pytest.approx(1.75)
    assert box_union_volume_ie(u) == pytest.approx(1.75)
    empty = BoxUnion(2, (((0, 0), (0, 1)),))
    assert empty.volume == 0.0


@given(st.integers(1, 4), st.data())
@settings(max_examples=120, deadline=None)
def test_box_union_volume_matches_inclusion_exclusion(nboxes, data):
    dim = data.draw(st.integers(2, 3))
    boxes = []
    for _ in range(nboxes):
        lo = [data.draw(st.integers(0, 6)) / 4 for _ in range(dim)]
        hi = [l + data.draw(st.integers(1, 5)) / 4 for l in lo]
        boxes.append((tuple(lo), tuple(hi)))
    u = BoxUnion(dim, tuple(boxes))
    assert u.volume == pytest.approx(box_union_volume_ie(u), abs=1e-12)


@st.composite
def _general_box_unions(draw, max_boxes=10):
    """Box unions with continuous corners and widths from 1e-9 to 1."""
    dim = draw(st.integers(1, 3))
    coord = st.floats(0.0, 2.0, allow_nan=False, allow_infinity=False)
    width = st.one_of(st.floats(1e-9, 1.0), st.sampled_from([1e-9, 1e-6]))
    boxes = []
    for _ in range(draw(st.integers(1, max_boxes))):
        lo = [draw(coord) for _ in range(dim)]
        boxes.append((tuple(lo), tuple(l + draw(width) for l in lo)))
    return BoxUnion(dim, tuple(boxes))


@given(_general_box_unions())
@settings(max_examples=150, deadline=None)
def test_box_union_volume_matches_inclusion_exclusion_in_general_position(u):
    assert u.volume == pytest.approx(box_union_volume_ie(u), rel=1e-12)


def _box_union_volume_loop(u: BoxUnion) -> float:
    """Oracle for ``box_union_volume``: per-box corner marking on the dense grid.

    Counts come from per-box Python marking and ``np.cumsum`` along every
    axis; the volume is summed in the kernel's order (axes by edge count,
    the longest innermost, masked row sums of the innermost widths, then
    ``@`` with each outer axis's widths), so the two agree bit for bit.
    """
    boxes = [b for b in u.boxes if all(h > l for l, h in zip(*b))]
    if not boxes:
        return 0.0
    d = u.dim
    edges = []
    for ax in range(d):
        vals = sorted({b[0][ax] for b in boxes} | {b[1][ax] for b in boxes})
        edges.append(np.asarray(vals))
    order = sorted(range(d), key=lambda ax: len(edges[ax]))
    edges = [edges[ax] for ax in order]
    counts_shape = tuple(len(e) - 1 + 1 for e in edges)  # +1 slot absorbs hi deltas
    delta = np.zeros(counts_shape, dtype=np.int32)
    for lo, hi in boxes:
        ilo = [int(np.searchsorted(edges[k], lo[ax])) for k, ax in enumerate(order)]
        ihi = [int(np.searchsorted(edges[k], hi[ax])) for k, ax in enumerate(order)]
        for corner in range(1 << d):
            idx = tuple(
                ihi[k] if corner >> k & 1 else ilo[k] for k in range(d)
            )
            sign = -1 if bin(corner).count("1") % 2 else 1
            delta[idx] += sign
    occ = delta
    for k in range(d):
        occ = np.cumsum(occ, axis=k)
    occ = occ[tuple(slice(0, len(e) - 1) for e in edges)]
    widths = [np.diff(e) for e in edges]
    vol = np.einsum("...i,i->...", occ > 0, widths[-1])
    for w in reversed(widths[:-1]):
        vol = vol @ w
    return float(vol)


_COORDS = st.one_of(
    st.integers(0, 12).map(lambda k: k / 4),
    st.sampled_from([-0.0, 0.1, 1 / 3, 2.7, 1e-9]),
)


@st.composite
def _box_unions(draw):
    """Box unions on a coarse lattice plus stray floats; zero widths included."""
    dim = draw(st.integers(1, 3))
    boxes = []
    for _ in range(draw(st.integers(0, 12))):
        lo = [draw(_COORDS) for _ in range(dim)]
        hi = [l + draw(st.sampled_from([0.0, 0.25, 0.5, 1.0, 0.3])) for l in lo]
        boxes.append((tuple(lo), tuple(hi)))
    return BoxUnion(dim, tuple(boxes))


@given(_box_unions())
@settings(max_examples=300, deadline=None)
def test_box_union_volume_equals_loop_oracle(u):
    assert box_union_volume(u) == _box_union_volume_loop(u)


@given(st.one_of(_box_unions(), _general_box_unions()), st.data())
@settings(max_examples=200, deadline=None)
def test_box_union_volume_ignores_the_axis_order(u, data):
    # the kernel orders axes by edge count, so a permutation changes which
    # axis is innermost and the order of the sums, not the volume; lattice
    # corners give axes of unequal edge counts, general ones equal counts
    perm = data.draw(st.permutations(range(u.dim)))
    moved = BoxUnion(u.dim, u.boxes[:, :, perm])
    assert box_union_volume(moved) == pytest.approx(box_union_volume(u), rel=1e-12)


def test_box_union_volume_is_computed_once(monkeypatch):
    calls = []

    def counted(u):
        calls.append(u)
        return box_union_volume(u)

    monkeypatch.setattr(sets, "box_union_volume", counted)
    u = BoxUnion(2, (((0, 0), (1, 2)), ((0.5, 1), (2, 3)), ((3, 0), (4, 1))))
    assert u.volume == u.volume == box_union_volume_ie(u)
    assert len(calls) == 1


def _traced_peak(u: BoxUnion) -> int:
    """Peak bytes traced by one ``box_union_volume(u)`` call."""
    # a first call does any lazy set-up outside the measured peak
    box_union_volume(BoxUnion(u.dim, (((0.0,) * u.dim, (1.0,) * u.dim),)))
    tracemalloc.start()
    try:
        box_union_volume(u)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _grid_and_one_block(u: BoxUnion) -> tuple[int, int]:
    """(cells, the bytes the kernel may hold at once) of a general-position union.

    The count grid at its width (one spare slot per axis), one block of
    covered mask, the per-row floats (the masked row sums and their
    contraction), and a fixed allowance for numpy's cast buffers and the
    per-box index arrays.  Any further array per cell, even a 1 B one,
    overshoots this.
    """
    m = len(u.boxes)
    itemsize = 1 if m <= 127 else 2 if m <= 32767 else 4
    edges = [np.unique(u.boxes[:, :, ax]).size for ax in range(u.dim)]
    cells = math.prod(e - 1 for e in edges)
    rows = cells // (max(edges) - 1)
    return cells, itemsize * math.prod(edges) + sets._MASK_BLOCK_CELLS + 16 * rows + (1 << 18)


def _general_position(m: int, dim: int, seed: int) -> BoxUnion:
    rng = np.random.default_rng(seed)
    lo = rng.uniform(0.0, 1.0, size=(m, dim))
    return BoxUnion(dim, np.stack([lo, lo + rng.uniform(0.05, 0.5, size=(m, dim))], axis=1))


def test_box_union_volume_prefix_sums_stay_in_place():
    # 50 boxes in general position: 99^3, about 10^6 occupancy cells in an
    # int8 grid; the prefix sums make no copy of it
    u = _general_position(50, 3, 5)
    cells, bound = _grid_and_one_block(u)
    assert cells > 900_000
    assert _traced_peak(u) < bound
    assert box_union_volume(u) == _box_union_volume_loop(u)


def test_box_union_volume_holds_one_count_grid_and_one_mask_block():
    # 300 boxes in general position: 599^2 cells in an int16 grid; the
    # covered mask is built one row block at a time, never per cell
    u = _general_position(300, 2, 6)
    cells, bound = _grid_and_one_block(u)
    # the int32 grid and whole-grid mask of 5 B a cell would not fit
    assert bound < 5 * cells
    assert _traced_peak(u) < bound
    assert box_union_volume(u) == _box_union_volume_loop(u)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("m", [127, 128, 32767, 32768])
def test_box_union_volume_counts_to_m_at_every_grid_width(dim, m):
    # m copies of one box cover its one cell m times, the most a count of m
    # boxes reaches: the top of int8 (127), of int16 (32,767), and one past
    # each, where the grid widens.  A count that wrapped would read the
    # cell as uncovered.  The copies' union is the box itself, so the loop
    # oracle runs on one copy: on 32,768 it would take seconds.
    box = ((0.25,) * dim, tuple(0.5 + 0.25 * k for k in range(dim)))
    u = BoxUnion(dim, np.broadcast_to(np.array(box), (m, 2, dim)))
    want = _box_union_volume_loop(BoxUnion(dim, (box,)))
    assert want == math.prod(0.25 * (k + 1) for k in range(dim))
    assert box_union_volume(u) == want


def test_box_union_validation():
    u = BoxUnion(2, (((0, 1), (2, 3)), ((-0.0, 0.5), (0.0, 0.5))))
    # one read-only float64 (m, 2, dim) array; ints become floats
    assert u.boxes.dtype == np.float64 and u.boxes.shape == (2, 2, 2)
    assert u.boxes.tolist() == [[[0.0, 1.0], [2.0, 3.0]], [[0.0, 0.5], [0.0, 0.5]]]
    assert not u.boxes.flags.writeable
    with pytest.raises(ValueError):
        u.boxes[0, 0, 0] = 5.0
    assert math.copysign(1.0, u.boxes[1, 0, 0]) == -1.0
    assert BoxUnion(3, ()).boxes.shape == (0, 2, 3)
    # an array argument is copied, so the caller keeps a writable array
    given = np.asarray([[[0.5], [1.0]]])
    v = BoxUnion(1, given)
    given[0, 1, 0] = 2.0
    assert v.boxes.tolist() == [[[0.5], [1.0]]]
    # == is identity, not an elementwise array comparison
    assert v == v and v != BoxUnion(1, v.boxes)
    with pytest.raises(DomainError, match="^box dimension mismatch$"):
        BoxUnion(2, (((0.0, 0.0), (1.0, 1.0)), ((0.0,), (1.0, 1.0))))
    with pytest.raises(DomainError, match="^box dimension mismatch$"):
        BoxUnion(2, (((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)),))
    with pytest.raises(DomainError) as neg:
        BoxUnion(2, (((0.0, 0.0), (1.0, 1.0)), ((0, -1), (1, 1)), ((-2.0, 0.0), (1.0, 1.0))))
    assert str(neg.value) == "bad box (0.0, -1.0)..(1.0, 1.0)"
    with pytest.raises(DomainError) as flipped:
        BoxUnion(1, (((0.5,), (0.25,)),))
    assert str(flipped.value) == "bad box (0.5,)..(0.25,)"
    # a box has at least one axis
    with pytest.raises(DomainError, match="^box dimension must be at least 1, got 0$"):
        BoxUnion(0, [((), ())])
    with pytest.raises(DomainError, match="^box dimension must be at least 1, got -1$"):
        BoxUnion(-1, [])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_carriers_refuse_non_finite_coordinates(bad):
    # NaN fails every comparison, so the ordering tests alone let it through
    for ivs in (((bad, 1.0), (2.0, 3.0)), ((0.5, bad),)):
        with pytest.raises(DomainError, match="^bad interval "):
            IntervalUnion(ivs)
    for box in (((0.0, bad), (1.0, 1.0)), ((0.0, 0.0), (bad, 1.0))):
        with pytest.raises(DomainError, match="^bad box "):
            BoxUnion(2, (((0.0, 0.0), (1.0, 1.0)), box))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_grid_refuses_a_non_finite_origin_or_spacing(bad):
    with pytest.raises(RangeError, match="^grid spacing must be finite and positive"):
        Grid((0.0,), bad, (4,))
    with pytest.raises(RangeError, match="^grid origin must be finite"):
        Grid((0.0, bad), 0.25, (4, 4))
    assert Grid((0.0, -1.5), 0.25, (4, 4)).upper() == (1.0, -0.5)


def test_box_union_volume_monte_carlo():
    rng = np.random.default_rng(42)
    u = BoxUnion(
        2,
        (((0.0, 0.0), (1.0, 0.75)), ((0.5, 0.25), (2.0, 1.0)), ((1.5, 0.0), (2.5, 0.5))),
    )
    lo, hi = np.array([0.0, 0.0]), np.array([2.5, 1.0])
    pts = rng.uniform(lo, hi, size=(20000, 2))
    inside = np.zeros(len(pts), dtype=bool)
    for blo, bhi in u.boxes:
        inside |= np.all((pts >= blo) & (pts <= bhi), axis=1)
    box_vol = float(np.prod(hi - lo))
    p = inside.mean()
    est = p * box_vol
    sigma = math.sqrt(p * (1 - p) / len(pts)) * box_vol
    assert abs(u.volume - est) <= 3 * sigma + 1e-9


def test_staircase_basics():
    s = staircase([[1.0, 2.0], [0.0, 0.5]], spacing=0.5)
    assert s.base_dim == 2
    assert s.volume == pytest.approx(0.25 * 3.5)
    corners, heights = s.support_cells()
    assert corners.shape == (3, 2)
    assert set(heights) == {1.0, 2.0, 0.5}
    r = s.refined(2)
    assert r.volume == pytest.approx(s.volume)
    assert r.grid.spacing == 0.25
    b = s.boxes()
    assert b.volume == pytest.approx(s.volume)


def test_refinement_past_the_cell_budget_is_refused():
    grid = Grid((0.0, 0.0), 0.25, (3, 3))
    budget = sets._REFINED_CELLS
    # 9 * 1365^2 cells fit, 9 * 1366^2 do not
    assert grid.refined(math.isqrt(budget // 9)).shape == (4095, 4095)
    with pytest.raises(BudgetError, match=r"refining a \(3, 3\) grid by 1366 per axis"):
        grid.refined(math.isqrt(budget // 9) + 1)
    # a factor of 2^20000 has too many digits to print; it is refused as
    # over the budget, and no 2^40000-sized product is formed
    with pytest.raises(BudgetError, match=f"by over {budget} per axis"):
        grid.refined(1 << 20_000)


def test_staircase_support_stays_in_the_orthant():
    # as BoxUnion and IntervalUnion, a staircase refuses a cell below 0
    with pytest.raises(DomainError, match=r"cell at \(-1.0,\) leaves"):
        staircase(np.ones(8), origin=(-1.0,))
    with pytest.raises(DomainError, match=r"cell at \(0.25, -0.25\) leaves"):
        staircase([[0.0, 1.0, 1.0], [2.0, 1.0, 1.0]], origin=(0.0, -0.25))
    # a grid may start below 0 with zero heights there
    s = staircase([0.0, 0.0, 0.0, 0.0, 1.0, 2.0], origin=(-1.0,))
    assert s.volume == pytest.approx(0.75)
    # a function on such a grid is legal; its hypograph is not
    f = GridFunction(Grid((-1.0,), 0.25, (8,)), np.ones(8))
    with pytest.raises(DomainError, match="leaves the nonnegative orthant"):
        f.hypograph()


def test_staircase_json_roundtrip():
    s = staircase([0.5, 1.5, 0.0], spacing=0.125)
    data = json.loads(json.dumps(s.to_json()))
    s2 = set_from_json(data)
    assert isinstance(s2, StaircaseSet)
    assert s2.grid == s.grid
    assert np.array_equal(s2.heights, s.heights)


@pytest.mark.parametrize("carrier", [
    IntervalUnion(((0.0, 0.5), (1.0, 1.25))),
    BoxUnion(2, (((0.0, -0.0), (1.0, 0.5)), ((0.25, 0.25), (2.0, 1.0)))),
    StaircaseSet(Grid((0.0, 0.5), 0.25, (2, 3)), np.arange(6.0).reshape(2, 3)),
    GridFunction(Grid((0.0,), 0.125, (4,)), [0.5, 1.5, 0.0, 2.0]),
])
def test_one_reader_round_trips_every_payload(tmp_path, carrier):
    text = json.dumps(carrier.to_json())
    path = tmp_path / "carrier.json"
    path.write_text(text)
    for read in (set_from_json(json.loads(text)), load_set(str(path))):
        assert type(read) is type(carrier)
        assert json.dumps(read.to_json()) == text


def test_compress_stacks_fibers():
    # two boxes over the same base cell stack their vertical extents
    u = BoxUnion(2, (((0.0, 0.0), (1.0, 1.0)), ((0.0, 2.0), (1.0, 2.5))))
    s = compress(u, spacing=1.0)
    assert s.volume == pytest.approx(u.volume, abs=1e-12)
    assert s.sup_height == pytest.approx(1.5)
    # overlapping vertical extents are counted once
    v = BoxUnion(2, (((0.0, 0.0), (1.0, 1.0)), ((0.0, 0.5), (1.0, 1.25))))
    sv = compress(v, spacing=1.0)
    assert sv.sup_height == pytest.approx(1.25)
    assert sv.volume == pytest.approx(v.volume, abs=1e-12)


def test_compress_derives_spacing():
    u = BoxUnion(2, (((0.25, 0.0), (0.75, 1.0)), ((0.5, 0.5), (1.0, 2.0))))
    s = compress(u)
    assert s.grid.spacing == pytest.approx(0.25)
    assert s.volume == pytest.approx(u.volume, abs=1e-12)


def test_compress_misaligned_raises():
    u = BoxUnion(2, (((0.0, 0.0), (1 / 3, 1.0)),))
    with pytest.raises(GridAlignmentError):
        compress(u, spacing=0.25)
    # aligned to 0.5 within tolerance, but thinner than one cell: no grid
    sliver = BoxUnion(2, (((0.5, 0.0), (0.5 + 1e-11, 1.0)),))
    for run in (compress, _compress_loop):
        with pytest.raises(GridAlignmentError, match="spacing 0.5"):
            run(sliver, 0.5)


def test_compress_idempotent_on_stacks():
    s = staircase([1.0, 0.25, 0.75], spacing=0.5)
    again = compress(s.boxes(), spacing=0.5)
    assert np.allclose(again.heights, s.heights)
    assert again.volume == pytest.approx(s.volume)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_compress_volume_invariance(data):
    dim = data.draw(st.integers(2, 3))
    nboxes = data.draw(st.integers(1, 4))
    boxes = []
    for _ in range(nboxes):
        lo = [data.draw(st.integers(0, 8)) / 8 for _ in range(dim)]
        hi = [l + data.draw(st.integers(1, 8)) / 8 for l in lo]
        boxes.append((tuple(lo), tuple(hi)))
    u = BoxUnion(dim, tuple(boxes))
    s = compress(u, spacing=1 / 8)
    assert s.volume == pytest.approx(u.volume, abs=1e-12)


def _compress_loop(a: BoxUnion, spacing: float | None = None) -> StaircaseSet:
    """Reference compress: a Python loop over cells and boxes, one merge per cell."""
    if a.dim < 2:
        raise DomainError("compress needs dim >= 2 (base plus vertical)")
    n = a.dim - 1
    boxes = [b for b in a.boxes if all(h > l for l, h in zip(*b))]
    if not boxes:
        raise DegenerateInputError("cannot compress an empty union")
    base_edges = [v for (lo, hi) in boxes for v in list(lo[:n]) + list(hi[:n])]
    h = sets._aligned_spacing(base_edges, spacing)
    hi_max = [max(b[1][ax] for b in boxes) for ax in range(n)]
    lo_min = [min(b[0][ax] for b in boxes) for ax in range(n)]
    origin = tuple(math.floor(l / h + 1e-9) * h for l in lo_min)
    shape = tuple(
        int(math.ceil((hm - o) / h - 1e-9)) for hm, o in zip(hi_max, origin)
    )
    if min(shape) < 1:
        raise GridAlignmentError(f"every box base is thinner than one cell of spacing {h}")
    grid = Grid(origin, h, shape)
    heights = np.zeros(shape)
    corners = grid.cell_lower_corners().reshape(shape + (n,))
    it = np.ndindex(*shape)
    for idx in it:
        c = corners[idx]
        mid = c + h / 2.0
        fibers = []
        for lo, hi in boxes:
            if all(lo[ax] <= mid[ax] <= hi[ax] for ax in range(n)):
                fibers.append((lo[n], hi[n]))
        if fibers:
            heights[idx] = IntervalUnion(tuple(fibers)).volume
    return StaircaseSet(grid, heights)


@st.composite
def _compress_inputs(draw):
    """(union, spacing, cells per chunk) with touching, nested, identical
    and zero-width fibers; with an explicit spacing, base slivers that
    cover no cell midpoint."""
    dim = draw(st.integers(2, 4))
    q = draw(st.sampled_from([1, 2, 3, 4]))
    spacing = draw(st.sampled_from([None, 1 / q, 1 / (2 * q)]))
    # a few shared vertical values make fibers touch, nest and repeat;
    # decimal ones make the order of subtractions and sums show
    pool = draw(st.lists(
        st.one_of(st.integers(0, 6).map(lambda k: k / q),
                  st.sampled_from([0.1, 0.2, 0.3, 0.7, 1.1]),
                  st.floats(0.0, 10.0, allow_subnormal=False)),
        min_size=3, max_size=5))
    boxes = []
    for _ in range(draw(st.integers(1, 12))):
        lo = [draw(st.integers(0, 5)) / q for _ in range(dim - 1)]
        hi = []
        for l in lo:
            width = draw(st.sampled_from([1, 2, 0, 3]))
            if spacing is not None and width == 0 and draw(st.booleans()):
                hi.append(l + 1e-11)
            else:
                hi.append(l + width / q)
        v0, v1 = sorted(draw(st.sampled_from(pool)) for _ in range(2))
        boxes.append((tuple(lo + [v0]), tuple(hi + [v1])))
    return BoxUnion(dim, tuple(boxes)), spacing, draw(st.sampled_from([None, 1, 3]))


# twelve disjoint fibers whose lengths sum differently when paired up
_TWELVE_FIBERS = BoxUnion(2, tuple(
    ((0.0, 2.0 * k), (1.0, 2.0 * k + v)) for k, v in enumerate(
        [0.16, 0.02, 0.6, 0.55, 0.75, 0.86, 0.47, 0.53, 0.59, 0.34, 0.8, 0.77])))


@given(_compress_inputs())
@example((_TWELVE_FIBERS, None, None))
@settings(max_examples=300, deadline=None)
def test_compress_equals_loop_oracle(case):
    u, spacing, per_chunk = case
    try:
        want = _compress_loop(u, spacing)
    except CurvilinError as exc:
        with pytest.raises(type(exc)):
            compress(u, spacing)
        return
    solid = sum(all(h > l for l, h in zip(*b)) for b in u.boxes)
    chunk = sets._COMPRESS_CHUNK if per_chunk is None else per_chunk * solid
    with mock.patch.object(sets, "_COMPRESS_CHUNK", chunk):
        got = compress(u, spacing)
    assert got.grid == want.grid
    assert np.array_equal(got.heights, want.heights)


def test_compress_refuses_grid_beyond_budget_before_allocating(tmp_path, capsys):
    # a base edge at 1/1048575 derives that spacing: a 2,097,150^2 grid
    e = 1 / 1048575
    u = BoxUnion(3, (((0.0, 0.0, 0.0), (2.0, 2.0, 1.0)),
                     ((0.0, 0.0, 0.0), (e, e, 1.0))))
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError, match="budget"):
            compress(u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    path = tmp_path / "far.json"
    path.write_text(json.dumps(u.to_json()))
    assert cli.main(["compress", "--a", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("curvilin: ") and "budget" in err


def test_section_profile_k0_and_kn():
    s = staircase([[1.0, 2.0], [3.0, 4.0]], spacing=0.5)
    p0 = section_profile(s, 0)
    assert isinstance(p0, GridFunction) and p0.grid == s.grid
    assert np.array_equal(p0.values, s.heights)
    assert p0.sup_norm == s.sup_height
    p2 = section_profile(s, 2)
    assert p2.grid == Grid((), s.grid.spacing, ())
    assert p2.values.shape == ()
    assert float(p2.values) == pytest.approx(s.volume)
    assert p2.sup_norm == p2.integral == float(p2.values)
    with pytest.raises(RangeError):
        section_profile(s, 3)


def test_section_profile_k1():
    s = staircase([[1.0, 2.0], [3.0, 4.0]], spacing=0.5)
    p = section_profile(s, 1)
    # integrate over the first axis: columns summed times spacing
    assert p.values == pytest.approx([0.5 * 4.0, 0.5 * 6.0])
    assert p.sup_norm == pytest.approx(3.0)


def test_superlevel():
    s = staircase([0.2, 1.0, 0.6, 0.9], spacing=1.0)
    prof = section_profile(s, 0)
    top = superlevel(prof, 1.0)
    assert top.count == 1
    assert top.coords[0, 0] == pytest.approx(1.0)
    half = superlevel(prof, 0.5)
    assert half.count == 3
    assert half.volume == pytest.approx(3.0)
    everything = superlevel(prof, 0.0)
    assert everything.count == 4


def _superlevel_mask_scalar(profile, r):
    """Oracle: the one-r threshold rule in scalar arithmetic."""
    sup = float(np.max(profile.values))
    thresh = r * sup
    return profile.values.ravel() >= thresh - 1e-12 * sup


def _superlevel_profiles():
    rng = np.random.default_rng(404)
    yield GridFunction(Grid((0.0,), 0.5, (23,)), rng.uniform(0.0, 3.0, 23))
    yield GridFunction(Grid((0.0, 0.0), 0.25, (6, 9)), rng.uniform(0.0, 2.0, (6, 9)))
    # plateaus: few distinct levels, zero cells included
    yield GridFunction(Grid((0.0, 0.0), 0.5, (5, 5)), rng.integers(0, 4, (5, 5)) * 0.25)
    # every value exactly on a threshold r * sup of the r grid below
    yield GridFunction(Grid((0.0,), 1.0, (65,)), np.arange(65) / 64 * 3.0)
    # values at, and one ulp under, the threshold minus its tolerance
    sup = 1.7
    edge = np.array([0.5 * sup - 1e-12 * sup, sup])
    edge = np.append(edge, np.nextafter(edge[0], 0.0))
    yield GridFunction(Grid((0.0,), 1.0, (3,)), edge)


def test_superlevel_masks_rows_equal_one_r_masks():
    rs = np.concatenate([np.arange(65) / 64, [1 / 3, 0.999, 1e-300]])
    profiles = list(_superlevel_profiles())
    for prof in profiles:
        masks = superlevel_masks(prof, rs)
        assert masks.shape == (rs.size, prof.values.size)
        for row, r in zip(masks, rs):
            assert np.array_equal(row, superlevel_masks(prof, (float(r),))[0])
            assert np.array_equal(row, _superlevel_mask_scalar(prof, float(r)))
    # at the tolerance edge a cell counts, one ulp under it does not
    assert superlevel_masks(profiles[-1], [0.5])[0].tolist() == [True, True, False]


def test_superlevel_masks_errors_match_one_r():
    prof = GridFunction(Grid((0.0,), 1.0, (3,)), [0.0, 1.0, 2.0])
    for bad in (-0.25, 1.5, math.nan):
        with pytest.raises(RangeError, match=f"got {bad}"):
            superlevel(prof, bad)
        with pytest.raises(RangeError, match=f"got {bad}"):
            superlevel_masks(prof, [0.5, bad, 2.0])
    zero = GridFunction(Grid((0.0,), 1.0, (3,)), np.zeros(3))
    with pytest.raises(DegenerateInputError):
        superlevel_masks(zero, [0.5])
    # the r range is checked before the support, as in the one-r rule
    with pytest.raises(RangeError):
        superlevel_masks(zero, [1.5])
    total = section_profile(staircase([1.0, 2.0]), 1)
    with pytest.raises(DomainError, match="positive-dimension"):
        superlevel_masks(total, [0.5])


def test_normalized_compression():
    s = staircase([[1.0, 2.0], [3.0, 4.0]], spacing=0.5)
    a1 = normalized_compression(s, 1)
    assert a1.sup_height == pytest.approx(1.0)
    assert a1.base_dim == 1
    z = staircase([0.0, 0.0])
    with pytest.raises(DegenerateInputError):
        normalized_compression(z, 0)


def test_layer_cake_identity():
    # V(A) = sup * integral over r of measure of superlevel sets
    s = staircase([0.2, 1.0, 0.6, 0.9], spacing=0.5)
    prof = section_profile(s, 0)
    sup = prof.sup_norm
    total = 0.0
    prev = 0.0
    for lv in sorted(set(prof.values)):
        r_lo, r_hi = prev / sup, lv / sup
        total += (r_hi - r_lo) * superlevel(prof, (r_lo + r_hi) / 2).volume
        prev = lv
    assert sup * total == pytest.approx(s.volume, rel=1e-12)


def test_grid_point_set_volume():
    g = GridPointSet(np.array([[0.0, 0.0], [0.5, 0.5]]), spacing=0.5)
    assert g.volume == pytest.approx(2 * 0.25)
    assert g.dim == 2

"""Finite set representations on the nonnegative orthant.

Three concrete carriers, each held in one form:

* :class:`IntervalUnion` for subsets of the half line (a tuple of pairs),
* :class:`BoxUnion` for finite unions of axis-aligned boxes (one read-only
  (m, 2, dim) float64 array of (lo, hi) rows),
* :class:`StaircaseSet` for vertically anchored cell stacks over a uniform
  base grid (the compressed normal form every summation routine consumes).

A staircase over base cells Q_i with heights v_i is the set
union_i Q_i x [0, v_i]; compression of a box union rearranges each vertical
fiber into such a stack, which preserves volume exactly as long as the box
edges live on a common rational grid.

:class:`GridFunction` is the one per-cell function type: one nonnegative
value per grid cell, whose hypograph is the staircase with those heights.
Section profiles (a set's fiber heights integrated over its first k base
axes) are grid functions on the remaining axes, down to a 0-dim function
holding the total at k = n.

Each carrier has one JSON payload, told apart by its key: "intervals",
"boxes", "heights" or "values"; the two per-cell payloads share one
codec.  ``set_from_json`` and ``load_set`` are the one reader of all four.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import (
    BudgetError,
    DegenerateInputError,
    DomainError,
    GridAlignmentError,
    RangeError,
)

_EDGE_DENOMINATOR_CAP = 1 << 20
# compress: most base cells per grid, and most cell-box pairs per chunk
_COMPRESS_CELL_BUDGET = 1 << 22
_COMPRESS_CHUNK = 1 << 18
# box_union_volume: cells of covered mask per block of leading-axis slices
_MASK_BLOCK_CELLS = 1 << 16
# most cells of a refined grid, 128 MiB of float64 values; the largest
# refinement of the tests and the default suite at --grid 2 has 784 cells
_REFINED_CELLS = 1 << 24


def _sorted_unique(x) -> np.ndarray:
    """Sorted distinct values of ``x``, flattened: one sort and a neighbour mask.

    A plain ``np.unique`` call imports ``numpy.ma`` on first use (about
    15 ms per process under numpy 2.4).  For NaN-free float input this is
    its copy, in-place sort and mask, so it equals ``np.unique`` bit for
    bit, the sign of a kept zero included.
    """
    s = np.asarray(x).flatten()
    s.sort()
    new = np.empty(s.size, dtype=bool)
    new[:1] = True
    np.not_equal(s[1:], s[:-1], out=new[1:])
    return s[new]


# ---------------------------------------------------------------------------
# grids


@dataclass(frozen=True)
class Grid:
    """Uniform cell grid: cell index i covers origin + [i*h, (i+1)*h) per axis."""

    origin: tuple[float, ...]
    spacing: float
    shape: tuple[int, ...]

    def __post_init__(self) -> None:
        if not 0 < self.spacing < math.inf:
            raise RangeError(f"grid spacing must be finite and positive, got {self.spacing}")
        if len(self.origin) != len(self.shape):
            raise RangeError("origin and shape dimensions differ")
        if any(s < 1 for s in self.shape):
            raise RangeError("grid shape entries must be >= 1")
        object.__setattr__(self, "origin", tuple(float(x) for x in self.origin))
        if not all(map(math.isfinite, self.origin)):
            raise RangeError(f"grid origin must be finite, got {self.origin}")
        object.__setattr__(self, "shape", tuple(int(s) for s in self.shape))

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def cell_volume(self) -> float:
        return self.spacing**self.ndim

    def upper(self) -> tuple[float, ...]:
        return tuple(o + s * self.spacing for o, s in zip(self.origin, self.shape))

    def cell_lower_corners(self) -> np.ndarray:
        """(N, ndim) array of cell lower corners in row-major cell order."""
        axes = [self.origin[i] + self.spacing * np.arange(self.shape[i]) for i in range(self.ndim)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def refined(self, factor: int) -> "Grid":
        """The grid with every cell split by ``factor`` per axis.

        Above ``_REFINED_CELLS`` cells BudgetError is raised, counted in
        Python ints before any value array is split; a factor above the
        budget is capped first, so a huge one costs no huge product.
        """
        capped = min(factor, _REFINED_CELLS + 1)
        if math.prod(self.shape) * capped**self.ndim > _REFINED_CELLS:
            shown = factor if capped == factor else f"over {_REFINED_CELLS}"
            raise BudgetError(f"refining a {self.shape} grid by {shown} per axis "
                              f"gives over {_REFINED_CELLS} cells")
        return Grid(self.origin, self.spacing / factor, tuple(s * factor for s in self.shape))


# ---------------------------------------------------------------------------
# interval unions


@dataclass(frozen=True)
class IntervalUnion:
    """Finite union of closed bounded intervals in [0, inf), stored as given."""

    intervals: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        ivs = tuple((float(a), float(b)) for a, b in self.intervals)
        for a, b in ivs:
            if not 0 <= a <= b < math.inf:  # NaN fails every comparison
                raise DomainError(f"bad interval [{a}, {b}]")
        object.__setattr__(self, "intervals", ivs)

    @property
    def volume(self) -> float:
        total = 0.0  # left to right, as compress adds; builtin sum compensates from 3.12
        for a, b in normalize(self).intervals:
            total += b - a
        return total

    def to_json(self) -> dict:
        return {"intervals": [[a, b] for a, b in self.intervals]}

    @classmethod
    def from_json(cls, data: dict) -> "IntervalUnion":
        return cls(tuple((a, b) for a, b in data["intervals"]))


def normalize(u: IntervalUnion) -> IntervalUnion:
    """Canonical form: sorted, disjoint, zero-length pieces dropped."""
    return _merged(*np.array(u.intervals, dtype=float).reshape(-1, 2).T)


def _merged(lo: np.ndarray, hi: np.ndarray) -> IntervalUnion:
    """``normalize`` of the intervals [lo, hi], given 0 <= lo <= hi < inf.

    Sorted by (lo, hi), a piece opens where lo exceeds the running max of
    the hi before it, the rule of ``_merged_length``, and ends at that max.
    """
    keep = hi > lo
    order = np.lexsort((hi[keep], lo[keep]))
    lo, hi = lo[keep][order], hi[keep][order]
    reach = np.maximum.accumulate(hi)
    opens = np.empty(lo.size, dtype=bool)
    opens[:1] = True
    np.greater(lo[1:], reach[:-1], out=opens[1:])
    ends = np.concatenate([reach[:-1][opens[1:]], reach[-1:]])
    return IntervalUnion(tuple(zip(lo[opens].tolist(), ends.tolist())))


# ---------------------------------------------------------------------------
# box unions


@dataclass(frozen=True, eq=False)
class BoxUnion:
    """Finite union of axis-aligned boxes in the nonnegative orthant.

    ``boxes`` may be given as any (m, 2, dim) nested sequence or array of
    (lo, hi) corners; it is stored as one read-only (m, 2, dim) float64
    array.  ``==`` is identity: compare ``boxes`` with ``np.array_equal``.
    """

    dim: int
    boxes: np.ndarray

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise DomainError(f"box dimension must be at least 1, got {self.dim}")
        shape = (len(self.boxes), 2, self.dim)
        try:
            arr = np.array(self.boxes, dtype=float)
        except ValueError:
            if any(len(lo) != self.dim or len(hi) != self.dim for lo, hi in self.boxes):
                raise DomainError("box dimension mismatch") from None
            raise
        if shape[0] and arr.shape != shape:
            raise DomainError("box dimension mismatch")
        arr = arr.reshape(shape)
        lo, hi = arr[:, 0], arr[:, 1]
        # NaN fails every comparison, so a NaN corner is bad too
        ok = (lo >= 0) & (hi >= lo) & (hi < np.inf)
        bad = np.flatnonzero(~ok.all(axis=1))
        if bad.size:
            blo, bhi = arr[bad[0]].tolist()
            raise DomainError(f"bad box {tuple(blo)}..{tuple(bhi)}")
        arr.setflags(write=False)
        object.__setattr__(self, "boxes", arr)

    @cached_property
    def volume(self) -> float:
        # the boxes never change, so one sweep serves every read
        return box_union_volume(self)

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "boxes": [{"lo": lo, "hi": hi} for lo, hi in self.boxes.tolist()],
        }

    @classmethod
    def from_json(cls, data: dict) -> "BoxUnion":
        return cls(int(data["dim"]), [(b["lo"], b["hi"]) for b in data["boxes"]])


def box_union_volume(u: BoxUnion) -> float:
    """Exact volume of a box union by coordinate-sweep occupancy.

    Edge coordinates are compressed per axis and the axes are ordered by
    edge count, ties in input order, so the longest axis is innermost.
    Each box marks its covered cell range in an integer grid with a corner
    delta of alternating sign, and prefix sums run in place on that grid
    recover per-cell cover counts: on each outer axis as adds of
    neighbouring hyperplanes, which read whole contiguous rows, and on
    the innermost axis as one ``add.accumulate``.  The volume is then
    summed in a fixed order: the innermost widths over each row's covered
    cells (a masked row sum), then the row sums contracted with each outer
    axis's widths by ``@``, innermost outer axis first.

    The grid is int8 for m <= 127 kept boxes, int16 for m <= 32,767, else
    int32: each box adds -1, 0 or +1 to a value at every stage (corner
    marks, each prefix sum), so all values lie in [-m, m].  Memory is 1, 2
    or 4 B a cell for the grid (one spare slot per axis takes the hi
    deltas) plus the covered mask of one block of leading-axis slices,
    about 2^16 cells (one slice if that is larger).  The grid is the first
    and largest allocation, so an input too large for memory fails there,
    before any work is done.
    """
    boxes = u.boxes[(u.boxes[:, 1] > u.boxes[:, 0]).all(axis=1)]
    m, d = len(boxes), u.dim
    if not m:
        return 0.0
    edges = [_sorted_unique(boxes[:, :, ax]) for ax in range(d)]
    order = sorted(range(d), key=lambda ax: len(edges[ax]))
    edges = [edges[ax] for ax in order]
    # column 0 indexes the lo edge of each box, column 1 the hi edge
    ends = [np.searchsorted(e, boxes[:, :, ax]) for e, ax in zip(edges, order)]
    dt = np.int8 if m <= 127 else np.int16 if m <= 32767 else np.int32
    delta = np.zeros(tuple(len(e) for e in edges), dtype=dt)
    # bit k of corner c picks the hi end on axis k; odd corners subtract
    bits = np.arange(1 << d)[:, None] >> np.arange(d) & 1
    sign = np.where(bits.sum(axis=1) % 2, -1, 1).astype(dt)
    # flat indices with one value each: numpy 2.4's add.at misreads values
    # broadcast against a 2-D index on a 1-D target
    idx = tuple(ends[k][:, bits[:, k]].ravel() for k in range(d))
    np.add.at(delta, idx, np.tile(sign, m))
    for k in range(d - 1):
        planes = np.moveaxis(delta, k, 0)
        # the spare last slot is never read, so its sum is skipped
        for i in range(1, len(edges[k]) - 1):
            np.add(planes[i - 1], planes[i], out=planes[i])
    # cumsum would upcast a small integer type to int64
    np.add.accumulate(delta, axis=-1, dtype=dt, out=delta)
    widths = [np.diff(e) for e in edges]
    # a view, never reshaped: that would copy the whole grid in 3-D
    counts = delta[(slice(0, -1),) * d]
    if d == 1:
        return float(np.einsum("...i,i->...", counts > 0, widths[0]))
    # each row's sum is the same in any block, so the volume does not
    # depend on the block size
    vol = np.empty(counts.shape[:-1])
    step = max(1, _MASK_BLOCK_CELLS // math.prod(counts.shape[1:]))
    for i in range(0, len(vol), step):
        vol[i:i + step] = np.einsum("...i,i->...", counts[i:i + step] > 0, widths[-1])
    for w in reversed(widths[:-1]):
        vol = vol @ w
    return float(vol)


def box_union_volume_ie(u: BoxUnion) -> float:
    """Inclusion-exclusion over box subsets; oracle for small unions."""
    # Python floats, so the result is a float and not a numpy scalar
    boxes = [b for b in u.boxes.tolist() if all(h > l for l, h in zip(*b))]
    m = len(boxes)
    if m > 20:
        raise DomainError("inclusion-exclusion oracle limited to 20 boxes")
    total = 0.0
    for mask in range(1, 1 << m):
        los = [max(boxes[i][0][ax] for i in range(m) if mask >> i & 1) for ax in range(u.dim)]
        his = [min(boxes[i][1][ax] for i in range(m) if mask >> i & 1) for ax in range(u.dim)]
        vol = 1.0
        for l, h in zip(los, his):
            if h <= l:
                vol = 0.0
                break
            vol *= h - l
        sign = -1.0 if bin(mask).count("1") % 2 == 0 else 1.0
        total += sign * vol
    return total


# ---------------------------------------------------------------------------
# per-cell values (staircase heights, grid function values)


def _cell_values(grid: Grid, values, name: str) -> np.ndarray:
    """Read-only float copy of one finite nonnegative value per grid cell."""
    v = np.asarray(values, dtype=float)
    if v.shape != grid.shape:
        raise DomainError(f"{name} shape {v.shape} does not match grid shape {grid.shape}")
    if np.any(v < 0) or not np.all(np.isfinite(v)):
        raise DomainError(f"{name} must be finite and nonnegative")
    v = v.copy()
    v.setflags(write=False)
    return v


def _grid_payload(grid: Grid, key: str, values: np.ndarray) -> dict:
    """The one wire form of per-cell values: the grid, then a flat ``key`` list."""
    return {"origin": list(grid.origin), "spacing": grid.spacing,
            "shape": list(grid.shape), key: values.ravel().tolist()}


def _from_grid_payload(data: dict, key: str) -> tuple[Grid, np.ndarray]:
    """(grid, values) of a payload written by ``_grid_payload``."""
    grid = Grid(tuple(data["origin"]), float(data["spacing"]), tuple(data["shape"]))
    return grid, np.asarray(data[key], dtype=float).reshape(grid.shape)


def _split_cells(values: np.ndarray, factor: int) -> np.ndarray:
    """Per-cell values after splitting every cell by ``factor`` per axis."""
    for ax in range(values.ndim):
        values = np.repeat(values, factor, axis=ax)
    return values


# ---------------------------------------------------------------------------
# staircase sets


@dataclass(frozen=True)
class StaircaseSet:
    """Vertically anchored stack of cells over a uniform base grid.

    heights[i] is the vertical extent of the fiber over base cell i; the
    represented set is union of cell x [0, height].  The base grid lives
    in R^n and the set in R^(n+1).
    """

    grid: Grid
    heights: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "heights", _cell_values(self.grid, self.heights, "heights"))
        # a grid below 0 may carry zero heights there, never a cell of the set
        if min(self.grid.origin, default=0.0) < 0.0:
            corners = self.grid.cell_lower_corners()
            bad = np.flatnonzero((corners < 0.0).any(axis=1) & (self.heights.ravel() > 0.0))
            if bad.size:
                raise DomainError(f"staircase cell at {tuple(corners[bad[0]].tolist())} "
                                  "leaves the nonnegative orthant")

    @property
    def base_dim(self) -> int:
        return self.grid.ndim

    @property
    def volume(self) -> float:
        return float(np.sum(self.heights)) * self.grid.cell_volume

    @property
    def sup_height(self) -> float:
        return float(np.max(self.heights)) if self.heights.size else 0.0

    def support_cells(self) -> tuple[np.ndarray, np.ndarray]:
        """(lower corners (m, n), heights (m,)) of the cells with mass."""
        mask = self.heights.ravel() > 0
        corners = self.grid.cell_lower_corners()[mask]
        return corners, self.heights.ravel()[mask]

    def refined(self, factor: int = 2) -> "StaircaseSet":
        """Same set on a grid with cells split by ``factor`` per axis."""
        return StaircaseSet(self.grid.refined(factor), _split_cells(self.heights, factor))

    def boxes(self) -> BoxUnion:
        """The staircase as an explicit box union in R^(n+1)."""
        corners, heights = self.support_cells()
        n = self.base_dim
        boxes = np.zeros((len(heights), 2, n + 1))
        boxes[:, 0, :n] = corners
        boxes[:, 1, :n] = corners + self.grid.spacing
        boxes[:, 1, n] = heights
        return BoxUnion(n + 1, boxes)

    def to_json(self) -> dict:
        return _grid_payload(self.grid, "heights", self.heights)

    @classmethod
    def from_json(cls, data: dict) -> "StaircaseSet":
        return cls(*_from_grid_payload(data, "heights"))


@dataclass(frozen=True)
class GridFunction:
    """Nonnegative piecewise-constant function sampled per grid cell."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _cell_values(self.grid, self.values, "values"))

    @property
    def ndim(self) -> int:
        return self.grid.ndim

    @property
    def integral(self) -> float:
        return float(np.sum(self.values)) * self.grid.cell_volume

    @property
    def sup_norm(self) -> float:
        return float(np.max(self.values))

    def hypograph(self) -> StaircaseSet:
        """The region under the graph, as a staircase one dimension up."""
        return StaircaseSet(self.grid, self.values)

    def refined(self, factor: int = 2) -> "GridFunction":
        """Same function on a grid with cells split by ``factor`` per axis."""
        return GridFunction(self.grid.refined(factor), _split_cells(self.values, factor))

    def to_json(self) -> dict:
        return _grid_payload(self.grid, "values", self.values)

    @classmethod
    def from_json(cls, data: dict) -> "GridFunction":
        return cls(*_from_grid_payload(data, "values"))


@dataclass(frozen=True)
class GridPointSet:
    """Finite set of grid cells given by lower corners; volume is count * h^d."""

    coords: np.ndarray
    spacing: float

    def __post_init__(self) -> None:
        c = np.atleast_2d(np.asarray(self.coords, dtype=float))
        if self.spacing <= 0:
            raise RangeError("spacing must be positive")
        c = c.copy()
        c.setflags(write=False)
        object.__setattr__(self, "coords", c)

    @property
    def dim(self) -> int:
        return self.coords.shape[1]

    @property
    def count(self) -> int:
        return 0 if self.coords.size == 0 else self.coords.shape[0]

    @property
    def volume(self) -> float:
        return self.count * self.spacing**self.dim


# ---------------------------------------------------------------------------
# compression


def _aligned_spacing(values: list[float], spacing: float | None) -> float:
    """Common rational spacing for the given edge coordinates."""
    if spacing is not None:
        for v in values:
            k = round(v / spacing)
            if abs(v - k * spacing) > 1e-9 * max(1.0, abs(v)):
                raise GridAlignmentError(
                    f"coordinate {v} is not a multiple of spacing {spacing}"
                )
        return spacing
    fracs = [Fraction(v).limit_denominator(_EDGE_DENOMINATOR_CAP) for v in values]
    for v, f in zip(values, fracs):
        if abs(float(f) - v) > 1e-12 * max(1.0, abs(v)):
            raise GridAlignmentError(
                f"coordinate {v} has no small rational representation; "
                "pass an explicit spacing"
            )
    den = 1
    for f in fracs:
        den = den * f.denominator // math.gcd(den, f.denominator)
        if den > _EDGE_DENOMINATOR_CAP:
            raise GridAlignmentError("edge coordinates are not commensurate")
    nums = [f.numerator * (den // f.denominator) for f in fracs]
    g = 0
    for n in nums:
        g = math.gcd(g, n)
    if g == 0:
        return 1.0
    return g / den


def compress(a: BoxUnion, spacing: float | None = None) -> StaircaseSet:
    """Rearrange each vertical fiber of a box union into an anchored stack.

    The last coordinate is vertical.  The base grid spacing is taken from
    ``spacing`` or derived as the coarsest rational grid through all base
    edge coordinates; misaligned inputs raise GridAlignmentError.  Volume
    is preserved exactly because each fiber is a 1-D interval union whose
    measure becomes the stack height.

    A box's vertical extent lies in the fiber over a cell when the cell
    midpoint lies in the box's closed base.  The solid boxes are sorted
    once by vertical (lo, hi), the order ``normalize`` sorts intervals in,
    and each cell's fibers are merged in one pass over that order: a
    fiber opens a new piece when its lo exceeds the running max of the hi
    before it.  The pieces' lengths are summed left to right, as
    ``IntervalUnion.volume`` sums them, so each height is bitwise the
    volume of the cell's fibers as an ``IntervalUnion``.  Cells go through
    in chunks of at most ``_COMPRESS_CHUNK`` cell-box pairs, so memory
    stays bounded, and a grid of more than ``_COMPRESS_CELL_BUDGET`` cells
    raises BudgetError before anything is allocated.
    """
    if a.dim < 2:
        raise DomainError("compress needs dim >= 2 (base plus vertical)")
    n = a.dim - 1
    boxes = a.boxes[(a.boxes[:, 1] > a.boxes[:, 0]).all(axis=1)]
    if not len(boxes):
        raise DegenerateInputError("cannot compress an empty union")
    h = _aligned_spacing(boxes[:, :, :n].ravel().tolist(), spacing)
    hi_max = boxes[:, 1, :n].max(axis=0).tolist()
    lo_min = boxes[:, 0, :n].min(axis=0).tolist()
    origin = tuple(math.floor(l / h + 1e-9) * h for l in lo_min)
    shape = tuple(
        int(math.ceil((hm - o) / h - 1e-9)) for hm, o in zip(hi_max, origin)
    )
    if min(shape) < 1:
        raise GridAlignmentError(f"every box base is thinner than one cell of spacing {h}")
    grid = Grid(origin, h, shape)
    cells = math.prod(shape)
    if cells > _COMPRESS_CELL_BUDGET:
        raise BudgetError(
            f"compression grid of shape {shape} has {cells} cells, "
            f"budget {_COMPRESS_CELL_BUDGET}"
        )
    boxes = boxes[np.lexsort((boxes[:, 1, n], boxes[:, 0, n]))]
    mids = grid.cell_lower_corners()
    mids += h / 2.0
    lo, hi = boxes[:, 0], boxes[:, 1]
    heights = np.empty(cells)
    step = max(1, _COMPRESS_CHUNK // len(boxes))
    for s in range(0, cells, step):
        mid = mids[s : s + step, :, None]
        inside = np.ones((len(mid), len(boxes)), dtype=bool)
        for ax in range(n):
            inside &= (lo[:, ax] <= mid[:, ax]) & (mid[:, ax] <= hi[:, ax])
        heights[s : s + step] = _merged_length(inside, lo[:, n], hi[:, n])
    return StaircaseSet(grid, heights.reshape(shape))


def _merged_length(inside: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Per row, the length of the union of the intervals [lo, hi] it selects.

    ``inside`` is a (rows, m) mask over m intervals sorted by (lo, hi).
    Unselected entries read as -inf; only their comparisons are computed.
    """
    reach = np.maximum.accumulate(np.where(inside, hi, -np.inf), axis=1)
    before = np.empty_like(reach)
    before[:, 0] = -np.inf
    before[:, 1:] = reach[:, :-1]
    opens = inside & (lo > before)
    start = np.maximum.accumulate(np.where(opens, lo, -np.inf), axis=1)
    # column k - 1 holds the piece that the opening at k closes, the last
    # column the piece still open at the row's end
    pieces = np.zeros(inside.shape)
    np.subtract(before[:, 1:], start[:, :-1], out=pieces[:, :-1],
                where=opens[:, 1:] & (before[:, 1:] > -np.inf))
    np.subtract(reach[:, -1], start[:, -1], out=pieces[:, -1],
                where=reach[:, -1] > -np.inf)
    # cumsum adds left to right, where sum would pair terms up
    return np.cumsum(pieces, axis=1)[:, -1]


# ---------------------------------------------------------------------------
# volumes and sections


def _integrate_leading(values: np.ndarray, grid: Grid, k: int) -> GridFunction:
    """Integrate per-cell values over the first k axes of ``grid``.

    The result lives on the grid of the remaining axes: k = 0 copies the
    values, k = ndim leaves a 0-dim function whose one value is the total.
    """
    n = grid.ndim
    if not 0 <= k <= n:
        raise RangeError(f"k must lie in [0, {n}], got {k}")
    h = grid.spacing
    for _ in range(k):
        values = values.sum(axis=0) * h
    return GridFunction(Grid(grid.origin[k:], h, grid.shape[k:]), values)


def section_profile(a: StaircaseSet, k: int) -> GridFunction:
    """Section volumes u -> V_{k+1}(A cap (span(e_1..e_k) x R_+ + u)).

    The fiber heights integrated over the first k base axes, as a function
    on the remaining ones; its sup is the largest section volume.  k = 0
    gives the heights themselves, k = n a 0-dim function whose value is the
    total volume.  A function f's marginal over its first k axes is
    ``section_profile(f.hypograph(), k)``.
    """
    return _integrate_leading(a.heights, a.grid, k)


def superlevel_masks(profile: GridFunction, rs) -> np.ndarray:
    """Flat masks of the cells where the profile reaches each fraction in rs.

    Row j of the (len(rs), cells) result flags the cells whose value is at
    least rs[j] * sup less 1e-12 * sup: the one threshold rule.
    """
    rs = np.asarray(rs, dtype=float)
    outside = ~((rs >= 0.0) & (rs <= 1.0))
    if outside.any():
        raise RangeError(f"r must lie in [0, 1], got {float(rs[outside][0])}")
    sup = profile.sup_norm
    if sup <= 0:
        raise DegenerateInputError("profile has empty support")
    if profile.ndim == 0:
        raise DomainError("superlevel needs a positive-dimension profile")
    return profile.values.ravel() >= (rs * sup)[:, None] - 1e-12 * sup


def normalized_compression(a: StaircaseSet, k: int) -> StaircaseSet:
    """Section profile over the last n-k axes scaled to sup 1."""
    prof = section_profile(a, k)
    if prof.sup_norm <= 0:
        raise DegenerateInputError("set has zero volume")
    if prof.ndim == 0:
        raise DomainError("k = n leaves no base axes; use section_profile")
    return StaircaseSet(prof.grid, prof.values / prof.sup_norm)


# ---------------------------------------------------------------------------
# io helpers


def load_set(path: str):
    """Read a carrier from a JSON file; see ``set_from_json``."""
    with open(path) as f:
        data = json.load(f)
    return set_from_json(data)


def set_from_json(data: dict):
    """The carrier whose key the payload holds, looked for in this order."""
    for key, carrier in (("boxes", BoxUnion), ("heights", StaircaseSet),
                         ("values", GridFunction), ("intervals", IntervalUnion)):
        if key in data:
            return carrier.from_json(data)
    raise DomainError("unrecognized set payload")

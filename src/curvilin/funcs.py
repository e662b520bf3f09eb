"""Grid functions, hypographs, marginals, and the supremal convolution.

A :class:`GridFunction` is piecewise constant: one nonnegative value per
cell of a uniform grid.  Its hypograph is a :class:`StaircaseSet` with the
same value array, so the supremal convolution of two functions is obtained
by summing their hypographs as sets and reading the resulting heights back
as function values.  That makes the bridge identity

    integral(sup_convolve(f, g)) = volume(sum of hypographs)

exact by construction rather than a quadrature statement.  For the same
reason the measure checks (``measures``) take a function pair as its pair
of hypographs and run the set sums on them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .curvsum import CURVILINEAR, SumSpec, curvilinear_sum_grid
from .errors import DomainError, RegimeError
from .sets import Grid, StaircaseSet, _cell_values, _integrate_leading, _split_cells


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
        return {
            "origin": list(self.grid.origin),
            "spacing": self.grid.spacing,
            "shape": list(self.grid.shape),
            "values": [float(v) for v in self.values.ravel()],
        }

    @classmethod
    def from_json(cls, data: dict) -> "GridFunction":
        grid = Grid(tuple(data["origin"]), float(data["spacing"]), tuple(data["shape"]))
        values = np.asarray(data["values"], dtype=float).reshape(grid.shape)
        return cls(grid, values)


def sup_convolve(
    f: GridFunction,
    g: GridFunction,
    spec: SumSpec,
    out_grid: Grid | None = None,
) -> GridFunction:
    """Supremal convolution of f and g.

    The value at z is the max over evaluated lam and argument pairs (x, y)
    whose coordinate means land in the cell of z of the vertical mean of
    f(x) and g(y).  Implemented as the segment function of the set sum of
    the two hypographs, which is the same computation cell for cell.
    """
    if spec.mode != CURVILINEAR:
        raise RegimeError("supremal convolution uses curvilinear mode")
    if spec.p < 1.0:
        raise RegimeError("supremal convolution covers p >= 1 only")
    if f.ndim != g.ndim:
        raise DomainError("functions live in different dimensions")
    if spec.alphas.n != f.ndim:
        raise DomainError("power vector does not match function dimension")
    s = curvilinear_sum_grid(f.hypograph(), g.hypograph(), spec, out_grid=out_grid)
    return GridFunction(s.grid, s.heights)


def marginal(f: GridFunction, k: int) -> tuple[GridFunction | float, float]:
    """Integrate out the first k coordinates.

    Returns (I, norm) where I(z) = h^k * sum of f over the fiber above z
    and norm is the sup of I.  k = 0 returns f itself with its sup norm;
    k = n collapses to the total integral in both slots.
    """
    prof = _integrate_leading(f.values, f.grid, k)
    if k == 0:
        return f, f.sup_norm
    if prof.grid is None:
        total = float(prof.values)
        return total, total
    out = GridFunction(prof.grid, prof.values)
    return out, out.sup_norm


def load_function(path: str) -> GridFunction:
    """Read a GridFunction from a JSON file (StaircaseSet layout, "values" key)."""
    with open(path) as fh:
        data = json.load(fh)
    return function_from_json(data)


def function_from_json(data: dict) -> GridFunction:
    if "values" not in data:
        raise DomainError("unrecognized function payload")
    return GridFunction.from_json(data)

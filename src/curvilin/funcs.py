"""The supremal convolution of grid functions.

A :class:`~curvilin.sets.GridFunction` is piecewise constant: one
nonnegative value per cell of a uniform grid.  Its hypograph is a
:class:`~curvilin.sets.StaircaseSet` with the same value array, so the
supremal convolution of two functions is obtained by summing their
hypographs as sets and reading the resulting heights back as function
values.  That makes the bridge identity

    integral(sup_convolve(f, g)) = volume(sum of hypographs)

exact by construction rather than a quadrature statement.  For the same
reason the measure quantities (``measures``) take a function as its
hypograph.  A function's marginal over its first k axes is
``sets.section_profile(f.hypograph(), k)``, and a function file (the
"values" payload) is read by ``sets.load_set``.
"""

from __future__ import annotations

from .curvsum import CURVILINEAR, SumSpec, curvilinear_sum_grid
from .errors import DomainError, RegimeError
from .sets import Grid, GridFunction


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

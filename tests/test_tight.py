"""Equality cases: check functions called on inputs where their theorem is tight."""

import numpy as np
import pytest

from curvilin import verify
from curvilin.reports import PASS
from curvilin.sets import Grid, StaircaseSet


def _box(shape):
    """An anchored box staircase, every height 1.3, spacing 1/4."""
    return StaircaseSet(Grid((0.0,) * len(shape), 0.25, shape), np.full(shape, 1.3))


@pytest.mark.parametrize("shape", [(6,), (5, 5)], ids=["exact", "grid"])
@pytest.mark.parametrize("vertical", [1.0, 0.5])
@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
def test_bm_curvilinear_is_tight_for_equal_sets(shape, vertical, p):
    """Brunn-Minkowski is an equality for equal sets: A = B = one box.

    With base powers 1 the (p, alpha)-sum of a box anchored at the origin
    with itself is that box (lam = t gives it, every other lam a part of
    it), and the mean-branch bound of two equal volumes is that volume.
    One base axis takes the exact envelope, two take the grid sum, which
    is exact on these box-aligned cells.
    """
    a = _box(shape)
    params = {"p": p, "t": 0.4, "alphas": (1.0,) * len(shape) + (vertical,),
              "lambda_points": 16, "level": 0, "run_seed": 0,
              "c": verify.calibrate_grid_constant()}
    rep = verify.check_bm_curvilinear((a, a), params)
    assert rep.verdict == PASS
    assert abs(rep.slack) <= 1e-12 * abs(rep.lhs)
    assert rep.lhs == pytest.approx(a.volume, rel=1e-12)

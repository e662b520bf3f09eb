"""Equality cases: check functions called on inputs where their theorem is tight."""

import numpy as np
import pytest

from curvilin import verify
from curvilin.means import PowerVector
from curvilin.measures import F_POWER
from curvilin.reports import PASS
from curvilin.sets import Grid, IntervalUnion, StaircaseSet


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


@pytest.mark.parametrize("t", [0.25, 0.4, 0.5, 0.7])
@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
@pytest.mark.parametrize("alpha", [0.1, 0.5, 1.0, 2.0])
@pytest.mark.parametrize("ends", [(1.0, 2.5), (0.3, 0.7), (2.0, 2.0), (0.5, 0.5)])
def test_lemma_1d_is_tight_for_single_intervals(ends, alpha, p, t):
    """The 1-D lemma is an equality for anchored single intervals.

    [0, a] + [0, b] is [0, max over lam of m_lam(a, b)], the largest
    combination of the two right ends, and its length is the (p alpha)-mean
    of a and b.  The volume pair's closed-form maximizer is in the evaluated lam
    set for p > 1, and p = 1 needs no lam, so the exact path reaches it.
    """
    k, l = (IntervalUnion(np.array([[0.0, end]])) for end in ends)
    params = {"p": p, "t": t, "alpha": alpha, "lambda_points": 33, "level": 0,
              "run_seed": 0}
    rep = verify.check_lemma_1d((k, l), params)
    assert rep.verdict == PASS
    assert abs(rep.slack) <= 1e-12 * abs(rep.lhs)


# (cells of 1/4, height) of A and of B, each pair homothetic
_HOMOTHETIC = {"1.3-2.6": {"A": (6, 1.3), "B": (12, 2.6)},
               "1.0-1.25": {"A": (4, 1.0), "B": (5, 1.25)}}


def _cells(count, height):
    """An anchored box staircase of ``count`` cells of 1/4 at ``height``."""
    return StaircaseSet(Grid((0.0,), 0.25, (count,)), np.full(count, height))


# on the first route A = B gives the same expression on both sides, which
# proves nothing, so only the mixed route takes it
_FIRST_VARIATION_CASES = [(boxes, pair, route) for boxes in sorted(_HOMOTHETIC)
                          for pair in ("A-B", "A-A", "B-B") for route in ("first", "mixed")
                          if route == "mixed" or pair == "A-B"]


@pytest.mark.parametrize("boxes, pair, route", _FIRST_VARIATION_CASES)
def test_minkowski_first_is_tight_for_homothetic_boxes(boxes, pair, route):
    """The first-variation inequalities are equalities for homothetic boxes.

    At p = 2, alpha = (1, 1) and F = x^{p gamma} = x, volume is F-concave
    along the sum with equality for homothetic anchored boxes, so both
    routes hold with equality; the quotients of a box are exact at p = 2.
    """
    a, b = (_cells(*_HOMOTHETIC[boxes][name]) for name in pair.split("-"))
    p, alphas = 2.0, (1.0, 1.0)
    params = {"p": p, "t": 0.4, "alphas": alphas, "fkind": F_POWER,
              "fparam": p * PowerVector(alphas).gamma, "route": route,
              "lambda_points": 16, "level": 0, "run_seed": 0}
    rep = verify.check_minkowski_first((a, b), params)
    assert rep.verdict == PASS
    assert rep.params.get("gate", PASS) == PASS
    assert abs(rep.slack) <= 1e-12 * abs(rep.lhs)

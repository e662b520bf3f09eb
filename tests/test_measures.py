import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvilin import (
    CoverageError,
    DomainError,
    GridFunction,
    InequalityReport,
    PowerVector,
    RangeError,
)
from curvilin import measures
from curvilin.curvsum import SumSpec
from curvilin.means import mean_alpha
from curvilin.measures import (
    _SPOT_SEED,
    _SPOT_TRIPLES,
    EPS_SCHEDULE,
    DensityMeasure,
    FSpec,
    SurfaceEstimate,
    dilation_rate,
    f_concavity_gap,
    gaussian_density,
    lebesgue,
    measure_of,
    mu_section_quantities,
    surface_area_sets,
    tent_density,
)
from curvilin.sets import (
    Grid,
    GridPointSet,
    StaircaseSet,
    section_profile,
    superlevel,
)


def vec(*alphas):
    return PowerVector(tuple(float(a) for a in alphas))


def cube(side=1.0, cells=8):
    h = side / cells
    return StaircaseSet(Grid((0.0,), h, (cells,)), np.full(cells, side))


def rng_staircase(seed, cells=16, spacing=1 / 16, hi=1.5):
    r = np.random.default_rng(seed)
    heights = r.uniform(0.1, hi, size=cells)
    return StaircaseSet(Grid((0.0,), spacing, (cells,)), heights)


def line_density(extent=2.5, cells=40, slope=0.125):
    h = extent / cells
    grid = Grid((0.0,), h, (cells,))
    mids = grid.cell_lower_corners()[:, 0] + h / 2
    return DensityMeasure(GridFunction(grid, 1.0 + slope * mids), None)


# ---------------------------------------------------------------------------
# densities


def test_density_constructors_pass_spot_check():
    g1 = Grid((0.0,), 0.125, (32,))
    g2 = Grid((0.0, 0.0), 0.25, (16, 16))
    assert lebesgue(g1).is_lebesgue
    assert tent_density(g1, (2.0,), 2.0).alpha_concavity == 1.0
    assert gaussian_density(g2, (2.0, 2.0), 1.0).alpha_concavity == 0.0


def test_density_spot_check_rejects_dip():
    grid = Grid((0.0,), 0.125, (17,))
    vals = np.ones(17)
    vals[6:11] = 0.01
    with pytest.raises(DomainError):
        DensityMeasure(GridFunction(grid, vals), 1.0)
    # untagged construction accepts anything nonnegative
    DensityMeasure(GridFunction(grid, vals), None)


def _spot_verify_loop(vals, alpha):
    """Oracle for ``DensityMeasure._spot_verify``: one triple per loop pass."""
    shape = vals.shape
    support = np.argwhere(vals > 0)
    if support.shape[0] < 2:
        return
    rng = np.random.default_rng(_SPOT_SEED)
    for _ in range(_SPOT_TRIPLES):
        i = support[rng.integers(support.shape[0])]
        w = rng.integers(-3, 4, size=len(shape))
        j = i + 4 * w
        if np.any(j < 0) or np.any(j >= shape):
            continue
        fi = float(vals[tuple(i)])
        fj = float(vals[tuple(j)])
        if fi <= 0.0 or fj <= 0.0:
            continue
        for num in (1, 2, 3):
            s = num / 4.0
            mid = tuple(i + num * w)
            have = float(vals[mid])
            want = mean_alpha(fi, fj, s, alpha)
            if have < want - 1e-9:
                raise DomainError(
                    f"declared {alpha}-concavity fails at cells {tuple(i)}, "
                    f"{tuple(j)}, s={s}: {have} < {want}"
                )


def _spot_outcome(check):
    try:
        check()
    except DomainError as exc:
        return str(exc)
    return None


@settings(max_examples=80, deadline=None)
@given(
    shape=st.sampled_from([(6,), (17,), (40,), (9, 9), (13, 6), (20, 20)]),
    alpha=st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0, math.inf]),
    seed=st.integers(0, 2**16),
    dips=st.integers(0, 6),
    depth=st.sampled_from([0.0, 0.01, 0.5, 0.99, 1.0 - 1e-12]),
)
def test_spot_verify_equals_loop_oracle(shape, alpha, seed, dips, depth):
    # a tent, zero near the edges, with some cells dipped by the factor depth
    rng = np.random.default_rng(seed)
    grid = Grid((0.0,) * len(shape), 0.25, shape)
    mids = grid.cell_lower_corners() + 0.125
    center = rng.uniform(0.0, 0.25 * np.asarray(shape))
    scale = rng.uniform(0.5, 0.4 * sum(shape))
    vals = np.maximum(0.0, 1.0 - np.abs(mids - center).sum(axis=1) / scale)
    vals[rng.integers(vals.size, size=dips)] *= depth
    vals = vals.reshape(shape)
    got = _spot_outcome(lambda: DensityMeasure(GridFunction(grid, vals), alpha))
    assert got == _spot_outcome(lambda: _spot_verify_loop(vals, float(alpha)))


# ---------------------------------------------------------------------------
# F maps


def test_fspec_families():
    pw = FSpec("power", 1.5)
    assert pw.inverse(pw.value(2.0)) == pytest.approx(2.0, rel=1e-12)
    assert pw.derivative_at_one == 1.5
    lg = FSpec("log")
    assert lg.inverse(lg.value(3.0)) == pytest.approx(3.0, rel=1e-12)
    assert lg.derivative_at_one == 1.0
    ln = FSpec("linear", 2.0, 1.0)
    assert ln.value(2.0) == 5.0
    assert ln.inverse(5.0) == 2.0
    assert ln.derivative_at_one == 2.0


def test_fspec_guards():
    with pytest.raises(RangeError):
        FSpec("exp")
    with pytest.raises(RangeError):
        FSpec("power", 0.0)
    with pytest.raises(RangeError):
        FSpec("power", 2.0).inverse(-1.0)
    with pytest.raises(RangeError):
        FSpec("power", 2.0).value(-1.0)
    with pytest.raises(RangeError):
        FSpec("log").value(0.0)


# ---------------------------------------------------------------------------
# integration


def test_measure_of_constant_density_is_volume():
    a = rng_staircase(1)
    mu = lebesgue(Grid((0.0,), 1 / 16, (24,)))
    assert measure_of(a, mu) == pytest.approx(a.volume, rel=1e-12)
    # a point set's Lebesgue measure is its count * spacing**dim
    pts = GridPointSet(np.array([[0.0], [0.25], [0.75]]), 0.25)
    mu1 = lebesgue(Grid((0.0,), 0.25, (8,)))
    with pytest.raises(DomainError, match="cannot integrate over GridPointSet"):
        measure_of(pts, mu1)


def test_measure_of_linear_density_midpoint_exact():
    cells = 64
    h = 1.0 / cells
    grid = Grid((0.0,), h, (cells,))
    mids = grid.cell_lower_corners()[:, 0] + h / 2
    mu = DensityMeasure(GridFunction(grid, mids), None)
    a = StaircaseSet(grid, np.ones(cells))
    # midpoint rule integrates linear densities exactly
    assert measure_of(a, mu) == pytest.approx(0.5, rel=1e-12)


def test_measure_of_ambient_density_overlap_exact():
    base = Grid((0.0,), 0.25, (4,))
    heights = np.array([0.31, 0.77, 0.113, 0.5])
    a = StaircaseSet(base, heights)
    amb = Grid((0.0, 0.0), 0.25, (4, 4))
    mu = lebesgue(amb)
    assert measure_of(a, mu) == pytest.approx(a.volume, rel=1e-12)


def test_measure_of_coverage_errors():
    a = rng_staircase(2, cells=16, spacing=0.25)
    small = lebesgue(Grid((0.0,), 0.25, (8,)))
    with pytest.raises(CoverageError):
        measure_of(a, small)
    amb = lebesgue(Grid((0.0, 0.0), 0.25, (16, 4)))
    tall = StaircaseSet(Grid((0.0,), 0.25, (16,)), np.full(16, 2.0))
    with pytest.raises(CoverageError):
        measure_of(tall, amb)


def test_measure_of_empty_is_zero():
    empty = StaircaseSet(Grid((0.0,), 0.25, (4,)), np.zeros(4))
    mu = lebesgue(Grid((0.0,), 0.25, (4,)))
    assert measure_of(empty, mu) == 0.0
    no_pts = GridPointSet(np.zeros((0, 1)), 0.25)
    with pytest.raises(DomainError, match="cannot integrate over GridPointSet"):
        measure_of(no_pts, mu)


# ---------------------------------------------------------------------------
# sections and layer cake


def test_mu_sections_reduce_to_section_profile():
    r = np.random.default_rng(9)
    heights = r.uniform(0.0, 1.0, size=(6, 5))
    a = StaircaseSet(Grid((0.0, 0.0), 0.25, (6, 5)), heights)
    mu = lebesgue(Grid((0.0, 0.0), 0.25, (6, 5)))
    profile = mu_section_quantities(a, mu, 1)
    plain = section_profile(a, 1)
    assert profile.grid == plain.grid
    assert np.array_equal(profile.values, plain.values)
    assert profile.sup_norm == plain.sup_norm
    got = superlevel(profile, 0.5)
    want = superlevel(plain, 0.5)
    assert np.array_equal(got.coords, want.coords)


def test_mu_sections_layer_cake():
    r = np.random.default_rng(19)
    heights = r.uniform(0.0, 1.2, size=(8, 8))
    a = StaircaseSet(Grid((0.0, 0.0), 0.25, (8, 8)), heights)
    mu = gaussian_density(Grid((0.0, 0.0), 0.25, (8, 8)), (1.0, 1.0), 1.2)
    profile = mu_section_quantities(a, mu, 1)
    m = profile.sup_norm
    total = measure_of(a, mu)
    R = 256
    quad = sum(superlevel(profile, j / R).volume for j in range(1, R + 1)) / R
    # right-endpoint quadrature of a nonincreasing level function
    # under-estimates, and by at most the full support per step
    support = superlevel(profile, 0.0).volume
    assert total - m * quad >= -1e-9
    assert total - m * quad <= m * support / R + 1e-9


def test_mu_sections_degenerate():
    a = StaircaseSet(Grid((0.0,), 0.25, (4,)), np.zeros(4))
    mu = lebesgue(Grid((0.0,), 0.25, (4,)))
    with pytest.raises(Exception):
        mu_section_quantities(a, mu, 0)


# ---------------------------------------------------------------------------
# surface quotients


def test_surface_estimate_build():
    qs = [(0.1, 3.0), (0.05, 2.5), (0.025, 2.4)]
    est = SurfaceEstimate.build(qs)
    assert est.estimate == 2.4
    assert est.trend == "monotone"
    assert not est.unsettled
    wob = SurfaceEstimate.build([(0.1, 1.0), (0.05, 3.0), (0.025, 1.0)])
    assert wob.trend == "oscillating"
    assert wob.unsettled
    with pytest.raises(RangeError):
        SurfaceEstimate(((0.1, 1.0), (0.2, 1.0)), 1.0, "monotone")


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
def test_surface_unit_square_two_over_p(p):
    a = cube()
    mu = lebesgue(Grid((0.0,), 0.125, (8,)))
    est = surface_area_sets(a, a, mu, p, vec(1, 1))
    assert est.estimate == pytest.approx(2.0 / p, rel=0.02)


def test_surface_zero_summand():
    a = cube()
    b = StaircaseSet(a.grid, np.zeros(8))
    mu = lebesgue(a.grid)
    est = surface_area_sets(a, b, mu, 2.0, vec(1, 1))
    assert est.estimate == 0.0
    assert all(q == 0.0 for _, q in est.quotients)


def test_surface_quotient_nonnegative_random():
    a = rng_staircase(4)
    mu = lebesgue(Grid((0.0,), 1 / 16, (16,)))
    est = surface_area_sets(a, a, mu, 2.0, vec(1, 1))
    assert est.estimate >= 0.0


# ---------------------------------------------------------------------------
# concavity gap, dilation rate and the first-variation inequalities


def first_sides(a, b, mu, F, p, alphas):
    """Both sides of S(A,B) >= S(A,A) + (F(mu B) - F(mu A)) / F'(mu A)."""
    mu_a, mu_b = measure_of(a, mu), measure_of(b, mu)
    lhs = surface_area_sets(a, b, mu, p, alphas).estimate
    rhs = surface_area_sets(a, a, mu, p, alphas).estimate \
        + (F.value(mu_b) - F.value(mu_a)) / F.derivative(mu_a)
    return lhs, rhs


def gate_gap(a, b, mu, F, p, alphas):
    """Worst lhs - rhs of F-concavity over t = 1/4, 1/2, 3/4 at 64 lam points."""
    spec = SumSpec(p=p, alphas=alphas, t=0.5, lambda_points=64)
    _, lhs, rhs = f_concavity_gap(a, b, mu, F, spec, (0.25, 0.5, 0.75),
                                  measure_of(a, mu), measure_of(b, mu))
    return lhs - rhs


def mixed_quantities(a, b, mu, F, p, alphas):
    """(V, M, lhs, rhs) of V + F'(1) M >= F'(1) (F(mu B) - F(mu A)) / F'(mu A) + mu(A)."""
    d1 = F.derivative_at_one
    v = d1 * surface_area_sets(a, b, mu, p, alphas).estimate
    vol_a, rate = dilation_rate(a, mu, p, alphas)
    m = vol_a / d1 - rate
    mu_a, mu_b = measure_of(a, mu), measure_of(b, mu)
    rhs = d1 * (F.value(mu_b) - F.value(mu_a)) / F.derivative(mu_a) + mu_a
    return v, m, v + d1 * m, rhs


def test_f_concavity_sets_power_branch():
    a = rng_staircase(31)
    b = rng_staircase(32)
    spec = SumSpec(p=1.5, alphas=vec(1, 1), t=0.5, lambda_points=24)
    mu = line_density(slope=0.0)  # constant 1 on [0, 2.5]
    gamma = 0.5
    F = FSpec("power", 1.5 * gamma)
    t, lhs, rhs = f_concavity_gap(a, b, mu, F, spec, (0.25, 0.5, 0.75),
                                  measure_of(a, mu), measure_of(b, mu))
    assert t in (0.25, 0.5, 0.75)
    assert lhs - rhs >= -0.15


def test_f_concavity_gap_is_the_first_worst_sample(monkeypatch):
    # equal gaps at every t: the first sample wins
    monkeypatch.setattr(measures, "staircase_sum_volume_exact",
                        lambda a, b, spec: 2.0)
    a = cube()
    spec = SumSpec(p=2.0, alphas=vec(1, 1), t=0.5, lambda_points=8)
    mu = lebesgue(a.grid)
    mass = measure_of(a, mu)
    got = f_concavity_gap(a, a, mu, FSpec("power", 1.0), spec, (0.75, 0.25, 0.5),
                          mass, mass)
    assert got == (0.75, 2.0, 1.0)
    with pytest.raises(RangeError):
        f_concavity_gap(a, a, mu, FSpec("power", 1.0), spec, (), mass, mass)


def test_f_concavity_same_set_small_slack():
    a = cube()
    spec = SumSpec(p=2.0, alphas=vec(1, 1), t=0.5, lambda_points=32)
    mu = line_density(slope=0.0)
    F = FSpec("power", 1.0)
    _, lhs, rhs = f_concavity_gap(a, a, mu, F, spec, (0.25, 0.5, 0.75),
                                  measure_of(a, mu), measure_of(a, mu))
    assert abs(lhs - rhs) <= 0.1


def test_f_concavity_keeps_the_callers_extra_lambdas(monkeypatch):
    seen = []

    def recording(a, b, spec):
        seen.append(spec)
        return exact(a, b, spec)

    exact = measures.staircase_sum_volume_exact
    monkeypatch.setattr(measures, "staircase_sum_volume_exact", recording)
    a, b = rng_staircase(31), rng_staircase(32)
    spec = SumSpec(p=1.5, alphas=vec(1, 1), t=0.5, lambda_points=8,
                   extra_lambdas=(0.001,))
    mu = line_density(slope=0.0)
    f_concavity_gap(a, b, mu, FSpec("power", 0.75), spec, (0.25, 0.5, 0.75),
                    measure_of(a, mu), measure_of(b, mu))
    assert [s.t for s in seen] == [0.25, 0.5, 0.75]
    assert all(s.extra_lambdas == (0.001,) for s in seen)


def test_dilation_rate_under_a_tagged_density_measures_the_dilates(monkeypatch):
    # a 2-D hypograph under a tent density: mu(A) is measure_of, not the
    # volume, and every dilate on the schedule is measured too
    grid = Grid((0.0, 0.0), 0.25, (4, 4))
    f = GridFunction(grid, np.random.default_rng(42).uniform(0.2, 1.0, grid.shape))
    a = f.hypograph()
    mu = tent_density(Grid((0.0, 0.0), 0.25, (16, 16)), (2.0, 2.0), 4.5)
    measured = []

    def recording(s, density):
        measured.append(s)
        return exact(s, density)

    exact = measures.measure_of
    monkeypatch.setattr(measures, "measure_of", recording)
    mu_a, rate = dilation_rate(a, mu, 2.0, vec(1, 1, 1), lambda_points=12)
    assert mu_a == exact(a, mu) != a.volume
    assert len(measured) == 1 + len(EPS_SCHEDULE)
    assert math.isfinite(rate) and rate > 0.0


def test_minkowski_first_equality_on_cubes():
    a = cube(1.0)
    b = cube(1.25, cells=10)
    mu = lebesgue(Grid((0.0,), 0.125, (32,)))
    # p = 2 makes the per-axis sup linear in eps: quotients are exact
    F = FSpec("power", 2.0 * 0.5)
    assert gate_gap(a, b, mu, F, 2.0, vec(1, 1)) >= -0.1
    lhs, rhs = first_sides(a, b, mu, F, 2.0, vec(1, 1))
    assert abs(lhs - rhs) <= 1e-9
    # p = 1 quotients carry curvature error of order the last eps
    F1 = FSpec("power", 1.0 * 0.5)
    assert gate_gap(a, b, mu, F1, 1.0, vec(1, 1)) >= -0.1
    lhs1, rhs1 = first_sides(a, b, mu, F1, 1.0, vec(1, 1))
    assert lhs1 - rhs1 >= -0.02


def test_minkowski_first_isoperimetric_same_set():
    a = cube()
    mu = lebesgue(a.grid)
    F = FSpec("power", 1.0)
    assert gate_gap(a, a, mu, F, 2.0, vec(1, 1)) >= -0.1
    lhs, rhs = first_sides(a, a, mu, F, 2.0, vec(1, 1))
    assert abs(lhs - rhs) <= 1e-9


def test_mixed_volume_cube_closed_forms():
    a = cube()
    mu = lebesgue(a.grid)
    # F = x: V = S(A,A) = 2/p = 1 at p = 2 and the dilation derivative is 1
    v, m, _, _ = mixed_quantities(a, a, mu, FSpec("power", 1.0), 2.0, vec(1, 1))
    assert v == pytest.approx(1.0, abs=1e-9)
    assert m == pytest.approx(0.0, abs=1e-9)
    # F = x^2 reweights both slots
    v2, m2, _, _ = mixed_quantities(a, a, mu, FSpec("power", 2.0), 2.0, vec(1, 1))
    assert v2 == pytest.approx(2.0, abs=1e-9)
    assert m2 == pytest.approx(-0.5, abs=1e-9)


def test_mixed_volume_variation_equality_cases():
    a = cube()
    mu = lebesgue(a.grid)
    for F in (FSpec("power", 1.0), FSpec("power", 2.0)):
        _, _, lhs, rhs = mixed_quantities(a, a, mu, F, 2.0, vec(1, 1))
        assert abs(lhs - rhs) <= 1e-9
    b = cube(2.0, cells=16)
    mub = lebesgue(Grid((0.0,), 0.125, (16,)))
    _, _, lhs, rhs = mixed_quantities(a, b, mub, FSpec("power", 1.0), 2.0, vec(1, 1))
    assert abs(lhs - rhs) <= 1e-9


def test_dilation_map_concavity_samples():
    # F(mu(A + eps x A)) for a cube with F = x^(p/2) is exactly 1 + eps
    from curvilin.curvsum import scalar_dilate, staircase_sum_volume_exact

    a = cube()
    F = FSpec("power", 1.0)
    spec = SumSpec(p=2.0, alphas=vec(1, 1), t=None, coefficient_form="t_free")
    vals = {}
    for eps in (0.1, 0.2, 0.3):
        s = staircase_sum_volume_exact(a, scalar_dilate(eps, a, spec), spec)
        vals[eps] = F.value(s)
    assert vals[0.2] >= 0.5 * (vals[0.1] + vals[0.3]) - 1e-12
    assert vals[0.2] == pytest.approx(1.2, rel=1e-12)
    lg = FSpec("log")
    logs = {e: lg.value(1.0 + e) for e in vals}
    assert logs[0.2] >= 0.5 * (logs[0.1] + logs[0.3]) - 1e-12


def test_report_json_shape():
    a = cube()
    mu = lebesgue(a.grid)
    spec = SumSpec(p=2.0, alphas=vec(1, 1), t=0.5)
    _, lhs, rhs = f_concavity_gap(a, a, mu, FSpec("power", 1.0), spec, (0.25, 0.5, 0.75),
                                  measure_of(a, mu), measure_of(a, mu))
    payload = InequalityReport.from_values("f_concavity", 0, lhs, rhs, 0.1).to_json()
    assert set(payload) == {
        "check", "seed", "params", "lhs", "rhs", "slack",
        "grid", "lambda_points", "verdict",
    }
    assert payload["slack"] == payload["lhs"] - payload["rhs"]
    assert payload["verdict"] == "pass"
    assert len(EPS_SCHEDULE) == 7

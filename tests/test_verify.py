import json
import tracemalloc

import numpy as np
import pytest

from curvilin import BudgetError, DomainError, PowerVector, RangeError
from curvilin import curvsum, measures, verify
from curvilin.curvsum import SumSpec, lp_minkowski_sum_base, staircase_sum_volume_exact
from curvilin.means import mean_alpha
from curvilin.measures import SurfaceEstimate
from curvilin.reports import FAIL, PASS, REFINE
from curvilin.sets import (
    BoxUnion,
    Grid,
    GridFunction,
    IntervalUnion,
    StaircaseSet,
    normalized_compression,
    superlevel,
    superlevel_masks,
)


# ---------------------------------------------------------------------------
# instance generation


def test_instance_generator_is_deterministic():
    gen = verify.InstanceGen(verify.STAIRCASES, seed=5, dim=2)
    a = gen.draw(3)
    b = verify.InstanceGen(verify.STAIRCASES, seed=5, dim=2).draw(3)
    assert np.array_equal(a.heights, b.heights)
    assert a.grid == b.grid


def test_instance_generator_varies_with_index():
    gen = verify.InstanceGen(verify.STAIRCASES, seed=5, dim=1)
    assert not np.array_equal(gen.draw(0).heights, gen.draw(1).heights)


def test_instance_kinds_cover_every_check():
    for cid in verify.CHECK_IDS:
        inst = verify.make_instance(cid, seed=1, index=0)
        params = verify.make_params(cid, seed=1, index=0, instance=inst)
        assert params["run_seed"] == 1000
        assert params["level"] == 0


def test_calibration_constant_is_stable():
    # the recipe rerun against the dense-lambda interval oracle at seed 0;
    # a kernel change that moves c fails here
    c = verify._calibrate(0)
    assert c == pytest.approx(2.652446547886875, rel=1e-12)
    assert c >= 1.0
    assert verify.calibrate_grid_constant() == 2.652446547886875


def test_other_calibration_seeds_run_the_recipe_once(monkeypatch):
    monkeypatch.setattr(verify, "_CAL_CACHE", {})
    c = verify.calibrate_grid_constant(3)
    assert c == verify._calibrate(3)
    assert verify._CAL_CACHE == {3: c}


# ---------------------------------------------------------------------------
# single checks


@pytest.mark.parametrize("check_id", verify.CHECK_IDS)
def test_checks_pass_on_stock_instances(check_id):
    for index in range(3):
        rep = verify.run_check_refined(check_id, seed=7, index=index)
        assert rep.verdict == PASS, (check_id, index, rep.slack)


def test_report_carries_tolerance_and_calibration():
    rep = verify.run_check("bm_curvilinear", seed=7, index=2)
    assert rep.params["c"] == pytest.approx(verify.calibrate_grid_constant())
    assert rep.params["tol"] >= 0.0
    assert rep.slack == pytest.approx(rep.lhs - rep.rhs, abs=1e-15)


def test_refined_run_tightens_lambda_grid():
    base = verify.run_check("sectional", seed=7, index=0)
    finer = verify.run_check("sectional", seed=7, index=0, level=1)
    assert finer.params["level"] == 1
    assert finer.lambda_points == 2 * (base.lambda_points + 1) - 1


def test_region_buffer_refused_before_allocating():
    # level 5 of this draw has 7.25 GiB of rectangles at 24 B each; the
    # exact envelope refuses it before computing a coefficient
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError, match="budget"):
            verify.run_check("normalized_bm", 0, 4, level=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 20


def test_envelope_working_set_refused_before_allocating():
    # level 4 of the same draw has 0.47 GiB of rectangles at 24 B each,
    # under the budget alone, but at the 152 B a rectangle that the
    # envelope is charged it needs 3.0 GiB
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError, match="region buffer and envelope"):
            verify.run_check("normalized_bm", 0, 4, level=4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 20


def test_classical_reduction_keeps_verdicts():
    # p = 1 with first power one is the classical scalar route; the same
    # draw must agree with itself across two fresh runs bit for bit
    r1 = verify.run_check("lemma_1d", seed=3, index=4)
    r2 = verify.run_check("lemma_1d", seed=3, index=4)
    assert json.dumps(r1.to_json(), sort_keys=True) == json.dumps(
        r2.to_json(), sort_keys=True)


def _lower_cross_quotients(monkeypatch):
    """Lower every quotient of S(A, B) with B not A by 100: the inequality fails."""
    real = verify.surface_area_sets

    def lowered(a, b, *args):
        est = real(a, b, *args)
        if b is a:
            return est
        return SurfaceEstimate.build([(e, q - 100.0) for e, q in est.quotients])

    monkeypatch.setattr(verify, "surface_area_sets", lowered)


@pytest.mark.parametrize("lowered", [False, True])
def test_failed_gate_caps_the_first_route_at_refine(monkeypatch, lowered):
    # seed 0, index 4 draws the first route; at the last level a failing
    # inequality is a fail, so the cap shows on a pass and on a fail
    if lowered:
        _lower_cross_quotients(monkeypatch)
    level = verify.REFINE_BUDGET
    gated = verify.run_check("minkowski_first", 0, 4, level)
    assert gated.params["route_id"] == "minkowski_first_sets"
    assert (gated.params["gate"], gated.verdict) == (PASS, FAIL if lowered else PASS)
    monkeypatch.setattr(verify, "f_concavity_gap", lambda *args: (0.5, 1.0, 2.0))
    capped = verify.run_check("minkowski_first", 0, 4, level)
    assert (capped.params["gate"], capped.verdict) == (FAIL, REFINE)
    assert (capped.lhs, capped.rhs, capped.slack) == (gated.lhs, gated.rhs, gated.slack)


def test_mixed_route_is_never_capped(monkeypatch):
    # seed 0, index 0 draws the mixed route: it samples no gate, so its
    # failing inequality stays a fail at the last level
    _lower_cross_quotients(monkeypatch)
    monkeypatch.setattr(verify, "f_concavity_gap", lambda *args: pytest.fail("gate sampled"))
    rep = verify.run_check("minkowski_first", 0, 0, verify.REFINE_BUDGET)
    assert rep.params["route_id"] == "mixed_volume_variation"
    assert "gate" not in rep.params
    assert rep.verdict == FAIL


def test_first_route_measures_each_operand_once(monkeypatch):
    # the gate reuses the route's (mu A, mu B); the list keeps every
    # measured object alive, so no two of them share an id
    measured = []
    measure_of = measures.measure_of

    def counting(x, mu):
        measured.append(x)
        return measure_of(x, mu)

    monkeypatch.setattr(verify, "measure_of", counting)
    monkeypatch.setattr(measures, "measure_of", counting)
    rep = verify.run_check("minkowski_first", 0, 4)
    assert rep.params["route_id"] == "minkowski_first_sets"
    assert len(measured) == len({id(x) for x in measured}) == 2


def test_level_2_grid_sum_is_not_limited_by_its_images(monkeypatch):
    # bm_curvilinear instance 11 at level 2 and 256 lam points sums 448 x 672
    # cells at up to 1,029 lam values, over 2^28 (pair, lam) images
    images = []
    grid_sum = verify.curvilinear_sum_grid

    def counting(a, b, spec, out_grid=None):
        pairs = np.count_nonzero(a.heights) * np.count_nonzero(b.heights)
        images.append(pairs * curvsum._lam_bound(spec))
        return grid_sum(a, b, spec, out_grid)

    monkeypatch.setattr(verify, "curvilinear_sum_grid", counting)
    rep = verify.run_check("bm_curvilinear", 0, 11, level=2, lambda_points=256)
    assert max(images) > 1 << 28
    assert rep.verdict == PASS


# ---------------------------------------------------------------------------
# layered base integral


def _layered_base_integral_loop(prof_a, prof_b, p, t, lambda_points, r_points=64):
    """Oracle for ``_layered_base_integral``: one base sum at every r level."""
    acc = 0.0
    for j in range(1, r_points + 1):
        r = j / r_points
        s = lp_minkowski_sum_base(
            superlevel(prof_a, r), superlevel(prof_b, r), p, t, lambda_points
        )
        acc += s.volume / r_points
    return acc


def _profile(values, spacing=0.5):
    values = np.asarray(values, dtype=float)
    grid = Grid((0.0,) * values.ndim, spacing, values.shape)
    return GridFunction(grid, values)


@pytest.mark.parametrize("plateaus", [True, False])
@pytest.mark.parametrize("dim", [1, 2])
def test_layered_base_integral_equals_every_level_loop(monkeypatch, plateaus, dim):
    rng = np.random.default_rng(31 + dim)
    calls = []

    def counted(*args):
        calls.append(args)
        return lp_minkowski_sum_base(*args)

    monkeypatch.setattr(verify, "lp_minkowski_sum_base", counted)
    for case in range(6):
        shape = (int(rng.integers(2, 6)),) * dim
        profs = []
        for _ in range(2):
            if plateaus:
                # few distinct levels, zero cells included: many r share a mask
                vals = rng.integers(0, 4, size=shape) * 0.25
                vals.flat[0] = 1.0
            else:
                vals = rng.permutation(np.arange(1, np.prod(shape) + 1)).reshape(shape)
                vals = vals + rng.uniform(0.0, 0.5, size=shape)
            profs.append(_profile(vals))
        p = float(rng.choice([1.0, 1.5, 2.0]))
        t = float(rng.uniform(0.2, 0.8))
        lp = int(rng.integers(2, 12))
        calls.clear()
        got = verify._layered_base_integral(profs[0], profs[1], p, t, lp)
        assert got == _layered_base_integral_loop(profs[0], profs[1], p, t, lp)
        levels = [
            tuple(superlevel_masks(prof, (j / 64,))[0].tobytes() for prof in profs)
            for j in range(1, 65)
        ]
        distinct = 1 + sum(x != y for x, y in zip(levels, levels[1:]))
        assert len(calls) == distinct < 64


# ---------------------------------------------------------------------------
# the negative second exponent is excluded on the mean branch: the
# crossing identity flips to an infimum there and the mean-kernel sum
# genuinely outgrows the scaled volume


def test_mean_branch_draws_keep_second_exponent_positive():
    for seed in range(0, 24, 3):
        for index in range(6):
            for cid in ("sectional", "marginal_bbl", "measure_bm"):
                inst = verify.make_instance(cid, seed, index)
                params = verify.make_params(cid, seed, index, instance=inst)
                if params.get("branch") == "mean" and "beta" in params:
                    assert params["beta"] > 0.0, (cid, seed, index)


def test_negative_exponent_mean_sum_outgrows_scaled_volume():
    # frozen witness: the sectional mean-branch relation fails once the
    # second exponent goes negative, because every coefficient pair with
    # lam near the ends scales the reach by (1-t)**(1/(p*delta)) > 1
    a, b = verify.make_instance("sectional", 11, 0)
    p, t, alpha, beta, k = 1.5, 0.5575998395078624, 0.6876302977037323, -0.14519648711711958, 1
    delta = PowerVector((1.0, alpha)).delta(beta, k)
    assert delta == pytest.approx(-0.22558345931408239, rel=1e-12)
    ca = normalized_compression(a, k)
    cb = normalized_compression(b, k)
    edges = (1e-6, 1e-3, 1e-2, 0.99, 0.999, 1 - 1e-6)
    spec = SumSpec(p=p, alphas=PowerVector((1.0, delta)), t=t,
                   lambda_points=65, extra_lambdas=edges)
    grown = staircase_sum_volume_exact(ca, cb, spec)
    # the scaled volume side converges near 2.2; the sum side keeps
    # growing as the lam set approaches the ends of (0, 1)
    assert grown > 8.0


# ---------------------------------------------------------------------------
# shrinking


def test_shrink_returns_passing_reports_unchanged():
    rep = verify.run_check("bm_curvilinear", seed=7, index=1)
    assert rep.verdict == PASS
    assert verify.shrink(rep) is rep


def test_shrink_reduces_injected_failure_to_two_pieces(monkeypatch):
    # inflating the scalar mean forges a violation of the exact interval
    # identity; the minimal failing instance is one interval per side
    def fat_mean(x, y, t, exponent):
        return 3.0 * mean_alpha(x, y, t, exponent)

    monkeypatch.setattr(verify, "mean_alpha", fat_mean)
    rep = verify.run_check_refined("lemma_1d", seed=7, index=0)
    assert rep.verdict == FAIL
    small = verify.shrink(rep)
    assert small.verdict == FAIL
    assert small.params["shrunk_size"] <= 2


def test_shrink_preserves_failure_on_cell_instances(monkeypatch):
    def fat_mean(x, y, t, exponent):
        return 3.0 * mean_alpha(x, y, t, exponent)

    monkeypatch.setattr(verify, "mean_alpha", fat_mean)
    rep = verify.run_check_refined("bm_curvilinear", seed=7, index=0)
    assert rep.verdict == FAIL
    small = verify.shrink(rep)
    assert small.verdict == FAIL
    assert small.params["shrunk_size"] <= 6


def test_box_union_mutants_drop_one_box_each():
    u = BoxUnion(2, [((0, 0), (1, 1)), ((1, 0), (2, 1)), ((0, 1), (1, 3))])
    rows = u.boxes.tolist()
    assert [m.boxes.tolist() for m in verify._mutants(u)] == [
        rows[:i] + rows[i + 1:] for i in range(len(rows))]


# ---------------------------------------------------------------------------
# suite running


def small_manifest(seed=7):
    return {
        "suite": "smoke",
        "seed": seed,
        "checks": [
            {"check": "lemma_1d", "count": 4, "seed": seed},
            {"check": "bm_curvilinear", "count": 3, "seed": seed},
            {"check": "compression_monotone", "count": 3, "seed": seed},
            {"check": "power_monotonicity", "count": 3, "seed": seed},
        ],
    }


def test_suite_results_are_order_insensitive(tmp_path):
    man = small_manifest()
    serial = verify.run_suite(man, workers=1)
    parallel = verify.run_suite(man, workers=2)
    p1 = tmp_path / "serial.jsonl"
    p2 = tmp_path / "parallel.jsonl"
    verify.write_reports_jsonl(p1, serial.reports)
    verify.write_reports_jsonl(p2, parallel.reports)
    assert p1.read_bytes() == p2.read_bytes()
    s1 = tmp_path / "serial.csv"
    s2 = tmp_path / "parallel.csv"
    verify.write_summary_csv(s1, serial.summary)
    verify.write_summary_csv(s2, parallel.summary)
    assert s1.read_bytes() == s2.read_bytes()


def test_check_runs_never_rerun_the_calibration_oracle(monkeypatch):
    def no_oracle(*args, **kwargs):
        raise AssertionError("sum_oracle called")

    monkeypatch.setattr(verify, "sum_oracle", no_oracle)
    monkeypatch.setattr(verify, "_CAL_CACHE", {})
    rep = verify.run_check("bm_curvilinear", seed=7, index=2)
    assert rep.params["c"] == 2.652446547886875
    # forked pool workers inherit the patch
    for workers in (1, 2):
        assert verify.run_suite(small_manifest(), workers=workers).failures == 0


def test_suite_reruns_are_byte_identical(tmp_path):
    man = small_manifest()
    paths = []
    for tag in ("one", "two"):
        res = verify.run_suite(man, workers=1)
        path = tmp_path / f"{tag}.jsonl"
        verify.write_reports_jsonl(path, res.reports)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_suite_summary_shape(tmp_path):
    res = verify.run_suite(small_manifest(), workers=1)
    assert res.failures == 0
    assert {row["check_id"] for row in res.summary} == {
        "lemma_1d", "bm_curvilinear", "compression_monotone",
        "power_monotonicity"}
    for row in res.summary:
        assert row["passes"] + row["refines"] <= row["runs"]
    path = tmp_path / "summary.csv"
    verify.write_summary_csv(path, res.summary)
    head = path.read_text().splitlines()[0]
    assert head == "check_id,runs,passes,refines,min_slack"


def test_default_suite_covers_every_check():
    man = verify.default_suite(seed=7)
    assert {e["check"] for e in man["checks"]} == set(verify.CHECK_IDS)
    assert man["seed"] == 7
    assert all(e["count"] > 0 for e in man["checks"])


def test_reports_jsonl_lines_are_valid(tmp_path):
    res = verify.run_suite(small_manifest(), workers=1)
    path = tmp_path / "reports.jsonl"
    verify.write_reports_jsonl(path, res.reports)
    lines = path.read_text().splitlines()
    assert len(lines) == len(res.reports)
    for line in lines:
        row = json.loads(line)
        for key in ("check", "lhs", "rhs", "slack", "verdict", "params"):
            assert key in row


@pytest.mark.parametrize("checks, error, message", [
    ([{"check": "lemma_1d", "count": -1}], RangeError,
     "manifest entry 0: count must be >= 0, got -1"),
    ([{"check": "lemma_1d", "count": 1}, {"check": "lemma_1d", "count": 1.5}],
     RangeError, "manifest entry 1: count must be an integer, got 1.5"),
    ([{"check": "lemma_1d"}], RangeError,
     "manifest entry 0: count must be an integer, got None"),
    ([{"check": "lemma_1d", "count": True}], RangeError,
     "manifest entry 0: count must be an integer, got True"),
    ([{"check": "lemma_1d", "count": 1, "seed": "7"}], RangeError,
     "manifest entry 0: seed must be an integer, got '7'"),
    ([{"count": 1}], DomainError, "manifest entry 0 needs a check field"),
    (["lemma_1d"], DomainError, "manifest entry 0 needs a check field"),
    ("x", DomainError, "manifest checks must be a list of entries"),
])
def test_malformed_manifest_entries_are_named(checks, error, message):
    with pytest.raises(error) as info:
        verify.run_suite({"seed": 0, "checks": checks})
    assert str(info.value) == message


def test_whole_number_counts_and_zero_counts_run():
    man = {"seed": 0, "checks": [{"check": "lemma_1d", "count": 2.0},
                                 {"check": "bm_curvilinear", "count": 0}]}
    res = verify.run_suite(man)
    assert [r.check_id for r in res.reports] == ["lemma_1d", "lemma_1d"]


def test_unknown_check_is_rejected():
    man = {"suite": "bad", "seed": 0,
           "checks": [{"check": "nope", "count": 1, "seed": 0}]}
    with pytest.raises(Exception):
        verify.run_suite(man)

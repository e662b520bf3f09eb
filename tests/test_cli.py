import hashlib
import json
import os
import subprocess
import sys
from argparse import Namespace
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from curvilin import cli, verify
from curvilin.curvsum import SumSpec, curvilinear_sum_grid
from curvilin.means import PowerVector, mean_alpha
from curvilin.sets import Grid, IntervalUnion, StaircaseSet

SCHEMA_DIR = Path(cli.__file__).parent / "schemas"


def schema(name):
    return json.loads((SCHEMA_DIR / f"{name}.schema.json").read_text())


def write_inputs(tmp_path):
    gen = verify.InstanceGen(verify.STAIRCASES, seed=2, dim=1, cells=5,
                             zero_frac=0.0)
    paths = {}
    for tag, idx in (("a", 0), ("b", 1)):
        p = tmp_path / f"{tag}.json"
        p.write_text(json.dumps(gen.draw(idx).to_json()))
        paths[tag] = str(p)
    boxes = verify.InstanceGen(verify.BOX_UNIONS, seed=2, dim=2,
                               pieces=3).draw(0)
    p = tmp_path / "boxes.json"
    p.write_text(json.dumps(boxes.to_json()))
    paths["boxes"] = str(p)
    fgen = verify.InstanceGen(verify.GRID_FUNCTIONS, seed=2, dim=1, cells=5)
    for tag, idx in (("f", 0), ("g", 1)):
        p = tmp_path / f"{tag}.json"
        p.write_text(json.dumps(fgen.draw(idx).to_json()))
        paths[tag] = str(p)
    return paths


# ---------------------------------------------------------------------------
# flags


def test_unknown_command_or_format_exits_2(capsys):
    assert cli.main(["explode"]) == 2
    assert cli.main(["sum", "--a", "x.json", "--b", "y.json",
                     "--format", "xml"]) == 2
    assert "invalid choice" in capsys.readouterr().err


def test_flag_parsing_covers_documented_surface():
    ns = cli.build_parser().parse_args([
        "sum", "--a", "x.json", "--b", "y.json", "--p", "1.5", "--t", "0.3",
        "--alphas", "1,0.5", "--lambda-points", "17", "--grid", "1",
        "--out", "o.json", "--format", "json"])
    assert vars(ns) == dict(command="sum", a="x.json", b="y.json", p=1.5,
                            t=0.3, alphas=(1.0, 0.5), lambda_points=17,
                            grid=1, out="o.json", format="json")
    ns = cli.build_parser().parse_args([
        "verify", "--suite", "m.json", "--seed", "9", "--workers", "3",
        "--grid", "1", "--lambda-points", "17", "--out", "d",
        "--format", "csv"])
    assert vars(ns) == dict(command="verify", suite="m.json", seed=9,
                            workers=3, grid=1, lambda_points=17, out="d",
                            format="csv")


OPERANDS = dict(grid=None, lambda_points=None, out=None, format=None)


@pytest.mark.parametrize("argv, expected", [
    (["verify"], dict(suite="default", seed=0, workers=None, **OPERANDS)),
    (["sum", "--a", "x", "--b", "y"],
     dict(a="x", b="y", p=1.0, t=0.5, alphas=None, **OPERANDS)),
    (["conv", "--a", "x", "--b", "y"],
     dict(a="x", b="y", p=1.0, t=0.5, alphas=None, **OPERANDS)),
    (["compress", "--a", "x"], dict(a="x", out=None, format=None)),
    (["surface", "--a", "x", "--b", "y"],
     dict(a="x", b="y", p=1.0, alphas=None, **OPERANDS)),
])
def test_namespace_holds_exactly_the_commands_flags(argv, expected):
    ns = cli.build_parser().parse_args(argv)
    flags = cli._COMMANDS[argv[0]][1].split()
    assert set(vars(ns)) == {"command"} | set(flags)
    assert vars(ns) == {"command": argv[0], **expected}


@pytest.mark.parametrize("argv", [
    ["verify", "--p", "2"],
    ["sum", "--a", "x.json", "--b", "y.json", "--workers", "2"],
    ["compress", "--a", "x.json", "--grid", "1"],
    ["surface", "--a", "x.json", "--b", "y.json", "--t", "0.3"],
])
def test_flags_a_command_does_not_read_exit_2(monkeypatch, capsys, argv):
    def no_work(*args, **kwargs):
        raise AssertionError("no command may start")

    monkeypatch.setattr(cli, "run", no_work)
    assert cli.main(argv) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_workers_fallback_order(monkeypatch):
    monkeypatch.delenv("CURVILIN_WORKERS", raising=False)
    assert cli._resolve_workers(Namespace(workers=5)) == 5
    monkeypatch.setenv("CURVILIN_WORKERS", "3")
    assert cli._resolve_workers(Namespace(workers=None)) == 3
    monkeypatch.delenv("CURVILIN_WORKERS")
    assert cli._resolve_workers(Namespace(workers=None)) >= 1


@pytest.mark.parametrize("bad", [0, -1])
def test_workers_below_one_are_refused(monkeypatch, capsys, bad):
    def no_suite(*args, **kwargs):
        raise AssertionError("the suite must not start")

    monkeypatch.setattr(cli.verify, "run_suite", no_suite)
    monkeypatch.delenv("CURVILIN_WORKERS", raising=False)
    assert cli.main(["verify", "--workers", str(bad)]) == 2
    assert "--workers must be at least 1" in capsys.readouterr().err
    monkeypatch.setenv("CURVILIN_WORKERS", str(bad))
    assert cli.main(["verify"]) == 2
    assert "CURVILIN_WORKERS must be at least 1" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# operator commands


def test_sum_matches_library_route(tmp_path):
    paths = write_inputs(tmp_path)
    out = tmp_path / "sum.json"
    assert cli.main(["sum", "--a", paths["a"], "--b", paths["b"], "--p", "1",
                     "--t", "0.5", "--alphas", "1,1", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    jsonschema.validate(payload, schema("result"))
    gen = verify.InstanceGen(verify.STAIRCASES, seed=2, dim=1, cells=5,
                             zero_frac=0.0)
    spec = SumSpec(p=1.0, alphas=PowerVector((1.0, 1.0)), t=0.5,
                   lambda_points=64)
    direct = curvilinear_sum_grid(gen.draw(0), gen.draw(1), spec)
    assert payload["volume"] == pytest.approx(direct.volume, rel=1e-12)


def test_sum_output_is_deterministic(tmp_path):
    paths = write_inputs(tmp_path)
    outs = []
    for tag in ("one", "two"):
        out = tmp_path / f"{tag}.json"
        assert cli.main(["sum", "--a", paths["a"], "--b", paths["b"],
                         "--p", "2", "--t", "0.4", "--alphas", "1,0.5",
                         "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_conv_payload_validates(tmp_path):
    paths = write_inputs(tmp_path)
    out = tmp_path / "conv.json"
    assert cli.main(["conv", "--a", paths["f"], "--b", paths["g"], "--p", "2",
                     "--t", "0.4", "--alphas", "1,0.5", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    jsonschema.validate(payload, schema("result"))
    assert payload["integral"] > 0


def test_compress_preserves_volume_field(tmp_path):
    paths = write_inputs(tmp_path)
    out = tmp_path / "comp.json"
    assert cli.main(["compress", "--a", paths["boxes"], "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    jsonschema.validate(payload, schema("result"))
    assert payload["volume"] == pytest.approx(payload["source_volume"],
                                              abs=1e-12)


def test_surface_square_hits_closed_form(tmp_path):
    sq = StaircaseSet(Grid((0.0,), 1 / 8, (8,)), np.ones(8))
    path = tmp_path / "square.json"
    path.write_text(json.dumps(sq.to_json()))
    out = tmp_path / "surf.json"
    assert cli.main(["surface", "--a", str(path), "--b", str(path), "--p", "2",
                     "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    jsonschema.validate(payload, schema("result"))
    assert payload["estimate"] == pytest.approx(1.0, rel=0.02)


def test_csv_format_emits_rows(tmp_path):
    paths = write_inputs(tmp_path)
    out = tmp_path / "sum.csv"
    assert cli.main(["sum", "--a", paths["a"], "--b", paths["b"], "--alphas",
                     "1,1", "--out", str(out), "--format", "csv"]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x0,height"
    assert len(lines) > 1


# ---------------------------------------------------------------------------
# malformed input


def test_malformed_set_file_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"bogus": 1}')
    paths = write_inputs(tmp_path)
    assert cli.main(["sum", "--a", str(bad), "--b", paths["b"]]) == 2


def test_unreadable_path_exits_2(tmp_path):
    assert cli.main(["compress", "--a", str(tmp_path / "missing.json")]) == 2


def test_wrong_power_count_exits_2(tmp_path):
    paths = write_inputs(tmp_path)
    assert cli.main(["sum", "--a", paths["a"], "--b", paths["b"],
                     "--alphas", "1,1,1"]) == 2


@pytest.mark.parametrize("payload", [
    {"intervals": [[0.0, 1.0], [1.5, 2.0]]},
    {"dim": 2, "boxes": [{"lo": [0.0, 0.0], "hi": [1.0, 0.5]}]},
])
def test_sum_grid_on_interval_or_box_operands_exits_2(tmp_path, capsys,
                                                      payload):
    path = tmp_path / "operand.json"
    path.write_text(json.dumps(payload))
    out = tmp_path / "sum.json"
    assert cli.main(["sum", "--a", str(path), "--b", str(path), "--grid", "1",
                     "--out", str(out)]) == 2
    assert "--grid refines staircase operands only" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, a, b", [
    ("conv", "a", "b"),  # staircase (heights) files
    ("conv", "f", "a"),
    ("sum", "f", "g"),  # function (values) files
    ("sum", "a", "boxes"),
    ("sum", "boxes", "a"),
    ("surface", "f", "g"),
    ("surface", "a", "boxes"),
])
def test_operands_of_the_wrong_or_mixed_carriers_exit_2(tmp_path, capsys,
                                                       command, a, b):
    paths = write_inputs(tmp_path)
    out = tmp_path / "out.json"
    assert cli.main([command, "--a", paths[a], "--b", paths[b],
                     "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"curvilin: {command} needs two operands of one type")
    assert "Traceback" not in err
    assert not out.exists()


def test_conv_grid_refines_function_operands(tmp_path):
    paths = write_inputs(tmp_path)
    out = tmp_path / "conv.json"
    assert cli.main(["conv", "--a", paths["f"], "--b", paths["g"], "--grid", "1",
                     "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    f = verify.InstanceGen(verify.GRID_FUNCTIONS, seed=2, dim=1, cells=5).draw(0)
    assert payload["result"]["spacing"] == f.grid.spacing / 2


def _write_3x3(tmp_path, key):
    path = tmp_path / f"{key}.json"
    path.write_text(json.dumps({"origin": [0.0, 0.0], "spacing": 0.25, "shape": [3, 3],
                                key: np.linspace(0.5, 1.5, 9).tolist()}))
    return str(path)


@pytest.mark.parametrize("command, key, level", [
    ("conv", "values", 30),  # the first split alone asks for 72 GiB
    ("sum", "heights", 40),  # 72 TiB
])
def test_huge_grid_level_exits_2_before_splitting(tmp_path, capsys, command, key, level):
    path = _write_3x3(tmp_path, key)
    out = tmp_path / "out.json"
    assert cli.main([command, "--a", path, "--b", path, "--p", "2",
                     "--grid", str(level), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("curvilin: refining a (3, 3) grid")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("operands", ["heights", "boxes", "line"])
def test_huge_lambda_count_exits_2_before_the_lam_grid(tmp_path, capsys, operands):
    command = "sum"
    if operands == "boxes":
        path = tmp_path / "boxes.json"
        path.write_text(json.dumps({"dim": 2, "boxes": [
            {"lo": [0.0, 0.0], "hi": [1.0, 0.5]}, {"lo": [0.5, 0.25], "hi": [1.5, 1.0]}]}))
        path = str(path)
    elif operands == "line":
        # one base axis: the surface quotients' exact envelope
        command, path = "surface", tmp_path / "line.json"
        path.write_text(json.dumps(StaircaseSet(
            Grid((0.0,), 0.25, (6,)), np.linspace(0.5, 1.5, 6)).to_json()))
        path = str(path)
    else:
        path = _write_3x3(tmp_path, operands)
    out = tmp_path / "out.json"
    # 2e9 lam values: 14.9 GiB of lam grid alone
    assert cli.main([command, "--a", path, "--b", path, "--p", "2",
                     "--lambda-points", "2000000000", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("curvilin: ")
    # a surface quotient's bound also counts its reach lam values
    lams = "up to 2000000" if command == "surface" else "up to 2000000001 lam values"
    assert lams in err and "lam values, budget" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("dims", [(2, 2), (1, 2)])
def test_surface_on_two_base_axes_exits_2(tmp_path, capsys, dims):
    # a grid sum at the dilate's spacing keeps almost none of A: on the 3x3
    # pair it read about -V(A)/eps, -538 at eps = 2^-10, with status 0
    line = tmp_path / "line.json"
    line.write_text(json.dumps(StaircaseSet(
        Grid((0.0,), 0.25, (6,)), np.linspace(0.5, 1.5, 6)).to_json()))
    a, b = (str(line) if d == 1 else _write_3x3(tmp_path, "heights") for d in dims)
    out = tmp_path / "out.json"
    assert cli.main(["surface", "--a", a, "--b", b, "--p", "2", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "curvilin: surface quotients take staircases over one base axis, got "
        f"base dimensions {dims[0]} and {dims[1]}\n")
    assert not out.exists()


@pytest.mark.parametrize("command, payload", [
    ("sum", {"dim": 2, "boxes": 5}),
    ("compress", {"dim": 2, "boxes": 5}),
    ("verify", {"checks": ["lemma_1d"]}),
    ("sum", {"dim": -1, "boxes": []}),
    ("verify", {"checks": [{"check": "lemma_1d", "count": -1}]}),
    ("verify", {"checks": [{"check": "lemma_1d", "count": 1.5}]}),
    ("verify", {"checks": [{"check": "lemma_1d"}]}),
    ("verify", {"checks": "x"}),
    ("verify", ["checks"]),
    ("verify", {"lambda_points": 2.5, "checks": [{"check": "lemma_1d", "count": 1}]}),
    ("verify", {"grid": 0.9, "checks": [{"check": "lemma_1d", "count": 1}]}),
])
def test_malformed_structure_exits_2_without_traceback(tmp_path, capsys,
                                                       command, payload):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    flags = {"sum": ["--a", str(path), "--b", str(path)],
             "compress": ["--a", str(path)],
             "verify": ["--suite", str(path), "--workers", "1"]}[command]
    assert cli.main([command, *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("curvilin: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["sum", "surface"])
def test_staircase_below_the_orthant_exits_2(tmp_path, capsys, command):
    path = tmp_path / "shifted.json"
    path.write_text(json.dumps({"origin": [-1.0], "spacing": 0.25, "shape": [8],
                                "heights": [1.0] * 8}))
    out = tmp_path / "out.json"
    assert cli.main([command, "--a", str(path), "--b", str(path), "--p", "2",
                     "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "curvilin: staircase cell at (-1.0,) leaves the nonnegative orthant\n"
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    (["--p", "nan"], "p must be finite and positive, got nan"),
    (["--p", "inf"], "p must be finite and positive, got inf"),
    (["--alphas", "1,nan"], "powers must not be NaN, got (1.0, nan)"),
])
def test_non_finite_p_or_nan_powers_exit_2(tmp_path, capsys, flags, message):
    paths = write_inputs(tmp_path)
    out = tmp_path / "sum.json"
    assert cli.main(["sum", "--a", paths["a"], "--b", paths["b"], *flags,
                     "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"curvilin: {message}\n"
    assert not out.exists()


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize("payload, message", [
    ({"intervals": [[_NAN, 1.0], [2.0, 3.0]]}, "bad interval [nan, 1.0]"),
    ({"dim": 2, "boxes": [{"lo": [0.0, _NAN], "hi": [1.0, 1.0]}]},
     "bad box (0.0, nan)..(1.0, 1.0)"),
    ({"dim": 2, "boxes": [{"lo": [0.0, 0.0], "hi": [_INF, 1.0]}]},
     "bad box (0.0, 0.0)..(inf, 1.0)"),
    ({"origin": [0.0], "spacing": _NAN, "shape": [2], "heights": [1.0, 1.0]},
     "grid spacing must be finite and positive, got nan"),
    ({"origin": [0.0], "spacing": _INF, "shape": [2], "heights": [1.0, 1.0]},
     "grid spacing must be finite and positive, got inf"),
    ({"origin": [_NAN], "spacing": 0.25, "shape": [2], "heights": [1.0, 1.0]},
     "grid origin must be finite, got (nan,)"),
])
def test_non_finite_coordinates_exit_2(tmp_path, capsys, payload, message):
    # before the check a NaN piece was dropped, an inf corner was written
    # out as Infinity, and a NaN spacing died in an integer conversion
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    out = tmp_path / "sum.json"
    assert cli.main(["sum", "--a", str(path), "--b", str(path), "--p", "2",
                     "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"curvilin: {message}\n"
    assert not out.exists()


def test_bad_manifest_exits_2(tmp_path):
    man = tmp_path / "man.json"
    man.write_text('{"seed": 0}')
    assert cli.main(["verify", "--suite", str(man), "--workers", "1"]) == 2


# ---------------------------------------------------------------------------
# verify command


def small_manifest(tmp_path, seed=7):
    man = {
        "suite": "smoke",
        "seed": seed,
        "checks": [
            {"check": "lemma_1d", "count": 4, "seed": seed},
            {"check": "bm_curvilinear", "count": 3, "seed": seed},
        ],
    }
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(man))
    return path, man


def test_verify_writes_validating_artifacts(tmp_path, capsys):
    path, man = small_manifest(tmp_path)
    jsonschema.validate(man, schema("manifest"))
    out_dir = tmp_path / "artifacts"
    assert cli.main(["verify", "--suite", str(path), "--workers", "1",
                     "--out", str(out_dir)]) == 0
    caps = capsys.readouterr()
    assert caps.out.splitlines()[0] == "check_id,runs,passes,refines,min_slack"
    report_schema = schema("report")
    lines = (out_dir / "reports.jsonl").read_text().splitlines()
    assert len(lines) == 7
    for line in lines:
        jsonschema.validate(json.loads(line), report_schema)
    written = json.loads((out_dir / "manifest.json").read_text())
    jsonschema.validate(written, schema("manifest"))
    assert (out_dir / "summary.csv").exists()


def test_verify_json_summary_validates(tmp_path, capsys):
    path, _ = small_manifest(tmp_path)
    assert cli.main(["verify", "--suite", str(path), "--workers", "1",
                     "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    jsonschema.validate(payload, schema("summary"))
    assert payload["failures"] == 0


def test_verify_artifacts_are_deterministic(tmp_path, capsys):
    path, _ = small_manifest(tmp_path)
    blobs = []
    for tag in ("one", "two"):
        out_dir = tmp_path / tag
        assert cli.main(["verify", "--suite", str(path), "--workers", "1",
                         "--out", str(out_dir)]) == 0
        capsys.readouterr()
        blobs.append((out_dir / "reports.jsonl").read_bytes()
                     + (out_dir / "summary.csv").read_bytes())
    assert blobs[0] == blobs[1]


def test_verify_fail_verdict_exits_1(tmp_path, capsys, monkeypatch):
    def fat_mean(x, y, t, exponent):
        return 3.0 * mean_alpha(x, y, t, exponent)

    monkeypatch.setattr(verify, "mean_alpha", fat_mean)
    path, _ = small_manifest(tmp_path)
    assert cli.main(["verify", "--suite", str(path), "--workers", "1"]) == 1
    capsys.readouterr()


def test_lambda_points_override_reaches_reports(tmp_path, capsys):
    path, _ = small_manifest(tmp_path)
    out_dir = tmp_path / "artifacts"
    assert cli.main(["verify", "--suite", str(path), "--workers", "1",
                     "--lambda-points", "9", "--out", str(out_dir)]) == 0
    capsys.readouterr()
    rows = [json.loads(line) for line in
            (out_dir / "reports.jsonl").read_text().splitlines()]
    assert all(r["lambda_points"] == 9 for r in rows
               if r["check"] == "lemma_1d")


# ---------------------------------------------------------------------------
# entry point


def test_module_entry_point_runs(tmp_path):
    paths = write_inputs(tmp_path)
    out = tmp_path / "sum.json"
    proc = subprocess.run(
        [sys.executable, "-m", "curvilin.cli", "sum", "--a", paths["a"],
         "--b", paths["b"], "--p", "1", "--alphas", "1,1", "--t", "0.5",
         "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(out.read_text())
    assert payload["kind"] == "sum"


@pytest.mark.parametrize("module", ["curvilin", "curvilin.cli"])
def test_module_help_without_runpy_warning(module):
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", module, "--help"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "usage: curvilin" in proc.stdout


def test_main_rejects_bad_alphas_text():
    assert cli.main(["sum", "--a", "x", "--b", "y",
                     "--alphas", "one,two"]) == 2


# ---------------------------------------------------------------------------
# pinned outputs

# sha256 of what a change must not move without a CHANGES.md note.  The
# bitwise paths rest on numpy's scalar versus SIMD pow, so a miss on another
# numpy build or CPU (CI prints numpy.show_runtime()) is a finding about
# that dependence, not a digest to update.
_DEFAULT_SUITE_DIGESTS = {
    "reports.jsonl": "4eae74195e366b872ca5e56e36f854287cd1b872488f6bc6282ec9932efa3803",
    "summary.csv": "bea37d22631b04356fb7989a161491eed23ab405c8c65323dab725ce690fd19b",
}
_SURFACE_DIGEST = "e447dbcba853f1a959f877495ee19ec63f3c4e5d151651cdd0faf215950bf9c3"


def _surface_argv(tmp_path):
    """A seeded p=2 surface call on two 14-cell one-base-axis staircases."""
    rng = np.random.default_rng(20)
    paths = []
    for tag in ("a", "b"):
        path = tmp_path / f"surface_{tag}.json"
        path.write_text(json.dumps({"origin": [0.0], "spacing": 0.25, "shape": [14],
                                    "heights": rng.uniform(0.2, 2.0, 14).tolist()}))
        paths.append(str(path))
    return ["surface", "--a", paths[0], "--b", paths[1], "--p", "2",
            "--out", str(tmp_path / "surface.json")]


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# --format csv of each operator command, one case per row layout
_CSV_DIGESTS = {
    "sum_stair1": "cd84db55f5e63987a9bd108c6cb61eb03ccc23daa05555f8853bf211771be1d6",
    "sum_stair2": "e7f69e274473965470839516c3dfa900afd934b8b9bb8ac89215c8f02859fa0b",
    "sum_intervals": "0f3cc591867d3243e4b1678464c2d63a5d4aee1ff3bb58e72a20933ff0fb0cb5",
    "sum_intervals6": "ce18479f49b3561694f3f42ba57cdb9dacf52ee25b958db413f07c18513ee9e1",
    "sum_intervals6_p3": "308694b8b7c44c83ec7260199fe19a7b1b69acbc737577968cdd6d16fe131d02",
    "sum_boxes": "3873aaf1f3c1a0c5f394d1ab0aed9e8f7c1992d3da453bb9cfa0aa2e584ea6b8",
    "conv": "4f357571d2daedc0e875abfdfa3e69f7a1b6e8427c9c02f579236995acf0a3d4",
    "compress": "923905ad2d6633bf0566683f4c510f406f49ccca9019ec9ffe1703519bd70807",
    "surface": "c87cb4d854758f98844eed7d348d17a9a4f30084a63bf765b97293a7eab0e6e7",
}


def _csv_argv(tmp_path, case):
    paths = write_inputs(tmp_path)
    rng = np.random.default_rng(12)
    grid = Grid((0.0, 0.0), 0.25, (3, 3))

    def short_intervals():
        lo = np.sort(rng.uniform(0.0, 40.0, 6))
        return IntervalUnion(np.stack([lo, lo + rng.uniform(0.01, 0.2, 6)], axis=1))

    for tag, obj in (
            ("iv_a", IntervalUnion(((0.0, 0.1), (3.0, 3.2)))),
            ("iv_b", IntervalUnion(((0.0, 0.1), (5.0, 5.1)))),
            ("sq_a", StaircaseSet(grid, rng.uniform(0.2, 2.0, (3, 3)))),
            ("sq_b", StaircaseSet(grid, rng.uniform(0.2, 2.0, (3, 3)))),
            # 6 intervals each, as in the benchmark's operators, but short
            # and spread out, so that the sum has some 30 separate pieces
            ("iv6_a", short_intervals()),
            ("iv6_b", short_intervals())):
        paths[tag] = str(tmp_path / f"{tag}.json")
        Path(paths[tag]).write_text(json.dumps(obj.to_json()))
    pair = {"sum_stair1": ("a", "b"), "sum_stair2": ("sq_a", "sq_b"),
            "sum_intervals": ("iv_a", "iv_b"), "sum_boxes": ("boxes", "boxes")}
    if case in pair:
        a, b = pair[case]
        return ["sum", "--a", paths[a], "--b", paths[b], "--p", "2",
                "--lambda-points", "16"]
    if case == "sum_intervals6":
        return ["sum", "--a", paths["iv6_a"], "--b", paths["iv6_b"], "--p", "2",
                "--lambda-points", "64"]
    if case == "sum_intervals6_p3":
        return ["sum", "--a", paths["iv6_a"], "--b", paths["iv6_b"], "--p", "3",
                "--alphas=-0.5", "--lambda-points", "64"]
    if case == "conv":
        return ["conv", "--a", paths["f"], "--b", paths["g"], "--p", "2"]
    if case == "compress":
        return ["compress", "--a", paths["a"]]
    return _surface_argv(tmp_path)[:-2]


def test_default_suite_reports_are_pinned(tmp_path):
    assert cli.main(["verify", "--workers", "1", "--out", str(tmp_path)]) == 0
    assert {name: _sha256(tmp_path / name) for name in _DEFAULT_SUITE_DIGESTS} \
        == _DEFAULT_SUITE_DIGESTS


def test_seeded_surface_output_is_pinned(tmp_path):
    assert cli.main(_surface_argv(tmp_path)) == 0
    assert _sha256(tmp_path / "surface.json") == _SURFACE_DIGEST


@pytest.mark.parametrize("case", sorted(_CSV_DIGESTS))
def test_csv_output_is_pinned(tmp_path, case):
    out = tmp_path / "out.csv"
    assert cli.main([*_csv_argv(tmp_path, case), "--out", str(out),
                     "--format", "csv"]) == 0
    assert _sha256(out) == _CSV_DIGESTS[case]


def test_surface_call_leaves_numpy_ma_unimported(tmp_path):
    # a plain np.unique imports numpy.ma, about 15 ms of a fresh process
    code = ("import sys\n"
            "from curvilin import cli\n"
            f"assert cli.main({_surface_argv(tmp_path)!r}) == 0\n"
            "print('numpy.ma' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def _on_glibc() -> bool:
    try:
        return (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc")
    except (AttributeError, ValueError, OSError):
        return False


@pytest.mark.skipif(not _on_glibc(), reason="the allocator policy is glibc's mallopt")
def test_surface_call_does_not_refault_its_arrays(tmp_path):
    # at glibc's starting 128 KiB thresholds each short-lived array above
    # that is mapped or trimmed, then faulted in afresh: about 6.8k-8.3k
    # faults around this call, and about 0.9k-1.2k under cli.main's policy
    code = ("import resource\n"
            "from curvilin import cli\n"
            "faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            f"assert cli.main({_surface_argv(tmp_path)!r}) == 0\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 3000

"""Static checks on the package source."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "curvilin"


def _unused_imports(tree: ast.Module) -> list[str]:
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in bound.items() if name not in used]


def test_no_unused_imports():
    # __init__ imports names to re-export them
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = {}
    for path in modules:
        names = _unused_imports(ast.parse(path.read_text(), filename=str(path)))
        if names:
            unused[path.name] = names
    assert unused == {}


def test_package_exports_resolve_once():
    import curvilin

    names = curvilin.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(curvilin, name)]
    assert missing == []


# Changing what the package exports is a deliberate act: edit this list and
# name each added or removed name in CHANGES.md.
EXPORTS = [
    "BoxUnion",
    "BudgetError",
    "CHECK_IDS",
    "CoverageError",
    "CurvilinError",
    "DegenerateInputError",
    "DensityMeasure",
    "DomainError",
    "EPS_SCHEDULE",
    "FSpec",
    "Grid",
    "GridAlignmentError",
    "GridFunction",
    "GridPointSet",
    "InequalityReport",
    "InstanceGen",
    "IntervalUnion",
    "PowerVector",
    "RangeError",
    "RegimeError",
    "ResolutionError",
    "StaircaseSet",
    "SuiteResult",
    "SumSpec",
    "SurfaceEstimate",
    "box_union_volume",
    "combine",
    "combine_quasi",
    "compress",
    "conjugate",
    "curvilinear_sum_1d",
    "curvilinear_sum_boxes",
    "curvilinear_sum_grid",
    "default_suite",
    "derive_out_grid",
    "gaussian_density",
    "lebesgue",
    "load_set",
    "lp_minkowski_sum_base",
    "mean_alpha",
    "measure_of",
    "mu_section_quantities",
    "normalized_compression",
    "run_check",
    "run_check_refined",
    "run_suite",
    "scalar_dilate",
    "section_profile",
    "set_from_json",
    "staircase_sum_volume_exact",
    "sum_oracle",
    "sup_convolve",
    "sup_lambda_min_form",
    "surface_area_sets",
    "tent_density",
    "verdict_for",
    "write_reports_jsonl",
    "write_summary_csv",
]


def test_package_exports_are_pinned():
    import curvilin

    assert sorted(curvilin.__all__) == EXPORTS


def test_no_module_calls_np_unique():
    # sets._sorted_unique and curvsum._ranks run np.unique's sort and
    # neighbour mask without importing numpy.ma on first use
    calls = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree)
                 if isinstance(node, ast.Call)
                 and isinstance(node.func, ast.Attribute) and node.func.attr == "unique"
                 and isinstance(node.func.value, ast.Name)
                 and node.func.value.id in ("np", "numpy")]
        if lines:
            calls[path.name] = lines
    assert calls == {}

"""The check table against the checks the suites run, and the package exports."""

from __future__ import annotations

import inspect
from pathlib import Path

import diskcheck
from diskcheck import CHECKS, SuiteConfig, run_suite
from diskcheck import ballgeom, corpus, harness, holodisk, reports, search, weierstrass


def _readme_check_table() -> dict:
    """The README's check table: name to (suites, kind, tolerance), in row order."""
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8").splitlines()
    start = lines.index("| check | suite | kind | tolerance |") + 2
    rows = {}
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        name, suites, kind, tolerance = (cell.strip() for cell in line.strip("|").split("|"))
        assert name.startswith("`") and name.endswith("`") and name.strip("`") not in rows, line
        rows[name.strip("`")] = (tuple(suites.split(", ")), kind, float(tolerance))
    return rows


def test_table_names_and_kinds_match_the_suites():
    report = run_suite(SuiteConfig(samples=8, search_restarts=2, dimensions=(1, 2)))
    emitted, suites = {}, {}
    for suite_name, suite in report.suites.items():
        for name, slot in suite["checks"].items():
            emitted[name] = slot["equality"]
            suites.setdefault(name, []).append(suite_name)
    assert set(emitted) == set(CHECKS)
    for name, equality in emitted.items():
        assert equality is (CHECKS[name][0] == "equality"), name
    table = _readme_check_table()
    assert list(table) == list(CHECKS)
    for name, (row_suites, kind, tolerance) in table.items():
        assert (kind, tolerance) == CHECKS[name], name
        assert row_suites == tuple(suites[name]), name


def test_package_exports_every_module_export():
    modules = (ballgeom, corpus, harness, holodisk, reports, search, weierstrass)
    expected = {name for module in modules for name in module.__all__} | {"__version__"}
    assert set(diskcheck.__all__) == expected
    assert len(diskcheck.__all__) == len(expected)
    for name in diskcheck.__all__:
        assert hasattr(diskcheck, name), name


def test_every_override_reaches_its_check():
    # A distinct, exactly representable override for every check name.
    overrides = {name: (i + 1) / 1024 for i, name in enumerate(sorted(CHECKS))}
    report = run_suite(SuiteConfig(samples=8, search_restarts=2, dimensions=(1, 2), tolerances=overrides))
    emitted = set()
    for suite in report.suites.values():
        for name, slot in suite["checks"].items():
            emitted.add(name)
            assert slot["tolerance"] == overrides[name], name
        for failure in suite["failures"]:
            assert failure["tolerance"] == overrides[failure["name"]], failure["name"]
    assert emitted == set(CHECKS)
    floor = report.suites["search"]["checks"]["family_1d_restricted_floor"]
    assert floor["worst_rhs"] == overrides["family_1d_restricted_floor"]
    assert floor["passed"] is (floor["worst_lhs"] > floor["worst_rhs"])


def test_check_functions_return_raw_values():
    planar, named = weierstrass.planar_disk(), weierstrass.WeierstrassDisk([2.0, 1.0], [0.0, 0.5], halfsphere=True)
    family = holodisk.extremal_family_1d(0.3)
    values = [
        holodisk.boundary_bound_origin(family, 1.0),
        holodisk.boundary_bound_shifted(holodisk.Blaschke(0.5), 1.0),
        holodisk.schwarz_derivative_bound(family),
        holodisk.nonreal_parameter_strictness(0.5j),
        holodisk.affine_rigidity_check(holodisk.affine_disk([0.6, 0.8])),
        weierstrass.null_condition_report(planar),
        weierstrass.interior_growth_margin(planar, 0.5),
        weierstrass.boundary_minimal_margin(planar, 1.0),
        weierstrass.halfsphere_chain_check(named),
        weierstrass.inverse_lipschitz_check(planar, [(0.0, 0.5)]),
    ]
    for module in (holodisk, weierstrass):
        for name in module.__all__:
            obj = getattr(module, name)
            if inspect.isfunction(obj):
                assert "tolerances" not in inspect.signature(obj).parameters, name
    for v in values:
        assert type(v) is reports.CheckValues
        assert v._fields == ("lhs", "rhs", "margin")
        assert all(isinstance(x, float) for x in v)


def test_floor_check_passes_only_above_its_floor():
    name = "family_1d_restricted_floor"
    at_default = harness._SuiteAccumulator({})
    at_default.value(name, "best", 0.25)
    suite = at_default.as_dict()
    slot = suite["checks"][name]
    assert (slot["worst_rhs"], slot["worst_margin"], slot["passed"]) == (1e-4, 0.25 - 1e-4, True)
    assert suite["failures"] == []
    at_floor = harness._SuiteAccumulator({name: 0.25})
    at_floor.value(name, "best", 0.25)
    [failure] = at_floor.as_dict()["failures"]
    assert (failure["rhs"], failure["margin"], failure["passed"]) == (0.25, 0.0, False)

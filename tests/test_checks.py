"""The check table against the checks the suites run, and the package exports."""

from __future__ import annotations

import diskcheck
from diskcheck import CHECKS, SuiteConfig, run_suite
from diskcheck import ballgeom, corpus, harness, holodisk, reports, search, weierstrass


def test_table_names_and_kinds_match_the_suites():
    report = run_suite(SuiteConfig(samples=8, search_restarts=2, dimensions=(1, 2)))
    emitted = {}
    for suite in report.suites.values():
        for name, slot in suite["checks"].items():
            emitted[name] = slot["equality"]
    assert set(emitted) == set(CHECKS)
    for name, equality in emitted.items():
        assert equality is CHECKS[name][0], name


def test_package_exports_every_module_export():
    modules = (ballgeom, corpus, harness, holodisk, reports, search, weierstrass)
    expected = {name for module in modules for name in module.__all__} | {"__version__"}
    assert set(diskcheck.__all__) == expected
    assert len(diskcheck.__all__) == len(expected)
    for name in diskcheck.__all__:
        assert hasattr(diskcheck, name), name

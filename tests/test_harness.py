"""Unit tests for suite execution, report files and the CLI."""

from __future__ import annotations

import csv
import json
import math
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diskcheck import (
    DomainError,
    KNOWN_SUITES,
    SuiteConfig,
    WeierstrassDisk,
    affine_rigidity_check,
    boundary_bound_origin,
    boundary_bound_shifted,
    boundary_minimal_margin,
    family_1d_spec,
    family_md_quotient_spec,
    halfsphere_chain_check,
    holo_corpus,
    interior_growth_margin,
    inverse_lipschitz_check,
    julia_corpus,
    nonreal_parameter_strictness,
    null_condition_report,
    restricted_family_1d_spec,
    run_suite,
    schwarz_derivative_bound,
    vnorm,
    weierstrass_corpus,
)
from diskcheck.cli import _ulps, diff_reports, main as cli_main
from diskcheck import corpus, harness, holodisk, search
from diskcheck.ballgeom import _BALL_SLACK
from diskcheck.harness import RunReport, _SuiteAccumulator

from oracles import scalar_ball_distances

FAST = dict(samples=8, search_restarts=2)


class TestSuiteConfig:
    def test_defaults_echoed_in_dict(self):
        cfg = SuiteConfig()
        d = cfg.as_dict()
        assert d["suites"] == list(KNOWN_SUITES)
        assert d["dimensions"] == [1, 2, 3]
        assert d["seed"] == 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(samples=0),
            dict(suites=()),
            dict(suites=("ball", "bogus")),
            dict(dimensions=()),
            dict(dimensions=(0,)),
            dict(search_restarts=0),
            dict(tolerances={"not_a_check": 1.0}),
            dict(samples=2.5),
            dict(dimensions=(1.5,)),
            dict(dimensions=(np.float64(2.0),)),
            dict(dimensions=3),
            dict(seed=1.0),
            dict(search_restarts="8"),
            dict(dimensions=(harness.DIMENSION_LIMIT,)),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(DomainError):
            SuiteConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(samples=True),
            dict(seed=False),
            dict(seed=True),
            dict(search_restarts=True),
            dict(dimensions=(True,)),
            dict(dimensions=(1, True)),
        ],
    )
    def test_booleans_are_not_integers(self, kwargs):
        # operator.index(True) is 1: without the check these would run with 1 sample, seed 0 or m = 1.
        with pytest.raises(DomainError, match="must be integers"):
            SuiteConfig(**kwargs)

    def test_sample_count_message_names_the_field(self):
        with pytest.raises(DomainError, match="^samples must be at least 1$"):
            SuiteConfig(samples=0)

    def test_numpy_integers_are_stored_as_ints(self):
        cfg = SuiteConfig(seed=np.int64(3), samples=np.int32(5), search_restarts=np.uint8(2),
                          dimensions=np.array([1, harness.DIMENSION_LIMIT - 1]))
        assert cfg.as_dict() == {**SuiteConfig().as_dict(), "seed": 3, "samples": 5, "search_restarts": 2,
                                 "dimensions": [1, harness.DIMENSION_LIMIT - 1]}
        assert all(type(x) is int for x in (cfg.seed, cfg.samples, cfg.search_restarts, *cfg.dimensions))

    def test_known_tolerance_override_accepted(self):
        cfg = SuiteConfig(tolerances={"growth_margin": 1e-6})
        assert cfg.as_dict()["tolerances"] == {"growth_margin": 1e-6}

    @pytest.mark.parametrize("value", ["1e-3", None, [1e-3], 1e-3 + 0j, b"1", math.nan, -math.inf, True, False])
    def test_tolerance_override_must_be_a_finite_real_number(self, value):
        with pytest.raises(DomainError, match="growth_margin"):
            SuiteConfig(tolerances={"growth_margin": value})

    @pytest.mark.parametrize("tolerances", [None, [("growth_margin", 1e-3)], "growth_margin", 1e-3])
    def test_tolerances_must_be_a_mapping(self, tolerances):
        with pytest.raises(DomainError, match="mapping"):
            SuiteConfig(tolerances=tolerances)

    def test_tolerance_overrides_are_stored_as_floats(self):
        given = {"growth_margin": 1, "phi_involution": np.float32(0.5), "opnorm_anchor": Fraction(1, 4)}
        cfg = SuiteConfig(tolerances=given)
        assert cfg.tolerances == {"growth_margin": 1.0, "phi_involution": 0.5, "opnorm_anchor": 0.25}
        assert all(type(v) is float for v in cfg.tolerances.values())
        assert type(given["growth_margin"]) is int


class TestStreamKeys:
    """Each per-case random stream has its own id: (stream id + m) keys are distinct below each dimension limit."""

    # (stream id, offset by the dimension m) for every stream a run or a corpus dump draws from.
    CORPUS = [(corpus.HOLO_STREAM, True), (corpus.JULIA_STREAM, False), (corpus.SURFACE_STREAM, False)]
    SUITE = CORPUS + [(stream, False) for stream, _ in search._FAMILIES.values()] + [
        (harness.BALL_POINT_STREAM, True),
        (harness.HOLO_POINT_STREAM, False),
        (harness.HOLO_POINT_STREAM, True),
        (harness.JULIA_POINT_STREAM, False),
        (harness.MINIMAL_POINT_STREAM, False),
        (harness.MINIMAL_SWEEP_STREAM, False),
    ]

    @staticmethod
    def keys(table, limit):
        return [stream + m for stream, offset in table for m in (range(1, limit) if offset else [0])]

    @pytest.mark.parametrize(
        "table, limit", [(CORPUS, corpus.CORPUS_DIMENSION_LIMIT), (SUITE, harness.DIMENSION_LIMIT)]
    )
    def test_keys_are_distinct_below_the_limit_and_collide_at_it(self, table, limit):
        assert len(set(self.keys(table, limit))) == len(self.keys(table, limit))
        assert len(set(self.keys(table, limit + 1))) < len(self.keys(table, limit + 1))

    def test_holo_corpus_refuses_the_limit(self):
        assert len(holo_corpus(0, corpus.CORPUS_DIMENSION_LIMIT - 1, 14)) == 14
        with pytest.raises(DomainError, match="dimension"):
            holo_corpus(0, corpus.CORPUS_DIMENSION_LIMIT, 14)


class TestRunSuite:
    def test_all_suites_pass_at_small_scale(self):
        report = run_suite(SuiteConfig(seed=3, **FAST))
        assert report.passed
        assert set(report.suites) == set(KNOWN_SUITES)
        for name in KNOWN_SUITES:
            suite = report.suites[name]
            assert suite["failures"] == []
            assert suite["cases"] > 0
            assert suite["checks"]
            assert name in report.wall_times

    def test_report_shape_and_check_slots(self):
        report = run_suite(SuiteConfig(seed=1, suites=("ball",), dimensions=(2,), samples=6))
        suite = report.suites["ball"]
        slot = suite["checks"]["phi_involution"]
        assert set(slot) >= {
            "count", "equality", "worst_margin", "worst_lhs", "worst_rhs",
            "tolerance", "passed", "worst_instance",
        }
        assert slot["count"] == 6
        assert slot["equality"] is True
        assert suite["min_margin"] is not None

    def test_impossible_tolerance_fails_the_run(self):
        cfg = SuiteConfig(seed=1, suites=("ball",), dimensions=(2,), samples=4,
                          tolerances={"phi_involution": 1e-30})
        report = run_suite(cfg)
        assert not report.passed
        names = {f["name"] for f in report.suites["ball"]["failures"]}
        assert names == {"phi_involution"}
        slot = report.suites["ball"]["checks"]["phi_involution"]
        assert slot["tolerance"] == 1e-30
        assert not slot["passed"]

    def test_byte_identical_reports_for_equal_configs(self):
        cfg = SuiteConfig(seed=11, **FAST)
        a = run_suite(cfg).json_text()
        b = run_suite(SuiteConfig(seed=11, **FAST)).json_text()
        assert a == b
        c = run_suite(SuiteConfig(seed=12, **FAST)).json_text()
        assert c != a

    def test_search_suite_exposes_family_reports(self):
        report = run_suite(SuiteConfig(seed=2, suites=("search",), search_restarts=2, samples=8))
        inner = report.suites["search"]["reports"]
        specs = {"family_1d": family_1d_spec(), "family_1d_restricted": restricted_family_1d_spec(),
                 "family_md": family_md_quotient_spec(2)}
        assert set(inner) == set(specs)
        for name, spec in specs.items():
            assert (inner[name]["family"], inner[name]["dimension"]) == (spec.family, spec.dim)
            assert inner[name]["bounds"] == {"lower": list(spec.lower), "upper": list(spec.upper)}
        assert inner["family_1d"]["best_margin"] <= 1e-8
        assert inner["family_1d_restricted"]["best_margin"] > 1e-4

    def test_family_1d_phase_fails_on_the_negative_real_ray(self, monkeypatch):
        """At phase pi the margin is 4 rho/((1 + rho)(1 - rho)), its largest, though sin(pi) is 0 to rounding."""
        real = harness.sharpness_report

        def negative_ray(spec, **options):
            report = real(spec, **options)
            if spec == family_1d_spec():
                report["argmin"] = [0.5, math.pi]
            return report

        monkeypatch.setattr(harness, "sharpness_report", negative_ray)
        report = run_suite(SuiteConfig(seed=0, suites=("search",), search_restarts=1))
        checks = report.suites["search"]["checks"]
        assert not checks["family_1d_phase"]["passed"]
        assert checks["family_1d_phase"]["worst_lhs"] == math.pi
        assert {f["name"] for f in report.suites["search"]["failures"]} == {"family_1d_phase"}

    def test_default_report_is_verdict_sized(self):
        """A search report holds its verdict's numbers and no per-iteration history."""
        report = run_suite(SuiteConfig())
        fields = {"argmin", "best_margin", "best_restart", "bounds", "dimension", "evaluations", "family",
                  "refine_sweeps", "restarts", "seed"}
        reports = report.suites["search"]["reports"]
        assert {name: set(srep) for name, srep in reports.items()} == {
            "family_1d": fields, "family_1d_restricted": fields, "family_md": fields | {"full_argmin"}}
        assert len(report.json_text().encode("utf-8")) < 32 * 1024

    def test_findings_are_reported_not_asserted(self):
        report = run_suite(SuiteConfig(seed=5, suites=("minimal",), samples=8))
        findings = report.suites["minimal"]["findings"]
        assert findings["audited_metric_constant"] == pytest.approx(0.25, rel=1e-10)
        assert findings["claimed_metric_constant"] == 1.0
        assert findings["planar_general_pair_min_margin"] > 0.0
        assert findings["gauss_normal_orthogonality_max_residual"] > 1e-3
        holo = run_suite(SuiteConfig(seed=5, suites=("holo",), samples=8)).suites["holo"]
        assert holo["findings"]["julia_multi_factor_min_margin"] > 1e-10
        ball = run_suite(SuiteConfig(seed=5, suites=("ball",), dimensions=(1,), samples=8)).suites["ball"]
        assert ball["findings"]["opnorm_formula_origin_deviation_m1"] > 0.1


# A tolerance of -10 fails every case of each per-instance check: a bound
# check passes only at margin >= 10, an equality check never.
EVERY_CASE_FAILS = dict.fromkeys([
    "boundary_origin_margin", "boundary_shifted_margin", "schwarz_derivative", "strictness_margin",
    "affine_rigidity", "null_condition", "lemma0_margin", "boundary_minimal_margin", "halfsphere_chain",
    "inverse_lipschitz"], -10.0)


def _holo_cases(config):
    """Per check, (member text, values of a direct call) for every corpus case, in corpus order."""
    cases = {name: [] for name in ("schwarz_derivative", "boundary_origin_margin", "boundary_shifted_margin",
                                   "affine_rigidity")}
    for m in config.dimensions:
        for member in holo_corpus(config.seed, m, max(12, min(60, config.samples // 4))):
            disk, text, zeta = member.disk, member.disk.to_text(), member.boundary_contact
            cases["schwarz_derivative"].append((text, schwarz_derivative_bound(disk)))
            if zeta is not None and member.zero_at_origin:
                cases["boundary_origin_margin"].append((text, boundary_bound_origin(disk, zeta)))
            if zeta is not None:
                cases["boundary_shifted_margin"].append((text, boundary_bound_shifted(disk, zeta)))
            if member.name == "archetype-affine" or member.name.startswith("zblaschke"):
                cases["affine_rigidity"].append((text, affine_rigidity_check(disk)))
    return cases


def _minimal_cases(config, failures):
    """As ``_holo_cases`` for the minimal suite; sample points are read back from the failures."""
    points = iter(complex(f["instance"].rpartition(" @ a=")[2]) for f in failures if f["name"] == "lemma0_margin")
    cases = {name: [] for name in ("null_condition", "lemma0_margin", "boundary_minimal_margin", "halfsphere_chain",
                                   "inverse_lipschitz")}
    for member in weierstrass_corpus(config.seed, max(8, min(24, config.samples // 10))):
        w, text, zeta = member.surface, repr(member.surface), member.boundary_contact_point
        cases["null_condition"].append((text, null_condition_report(w)))
        if w.max_norm() <= 1.0 + _BALL_SLACK:
            cases["lemma0_margin"] += [(text, interior_growth_margin(w, next(points))) for _ in range(8)]
        if zeta is not None:
            cases["boundary_minimal_margin"].append((text, boundary_minimal_margin(w, zeta)))
        if w.halfsphere:
            cases["halfsphere_chain"].append((text, halfsphere_chain_check(w)))
        if w.halfsphere and (member.full_circle_contact or zeta is not None or member.name == "enneper-halfsphere"):
            # The direct call's pairs differ from the run's, so only its instance text is compared.
            cases["inverse_lipschitz"].append((text, inverse_lipschitz_check(w, [(0.0, 0.5)] * 20)))
    named = WeierstrassDisk([2.0, 1.0], [0.0, 0.5], halfsphere=True)
    cases["halfsphere_chain"].append((repr(named), halfsphere_chain_check(named)))
    return cases


class TestFailuresNameTheirCases:
    """With every case of the per-instance checks failing, each failure names its own member."""

    @pytest.fixture(scope="class")
    def run(self):
        config = SuiteConfig(suites=("holo", "minimal"), samples=20, tolerances=EVERY_CASE_FAILS)
        return config, run_suite(config)

    @pytest.mark.parametrize("suite", ["holo", "minimal"])
    def test_each_failure_names_its_member_in_corpus_order(self, run, suite):
        config, report = run
        failures = report.suites[suite]["failures"]
        cases = _holo_cases(config) if suite == "holo" else _minimal_cases(config, failures)
        for name, expected in cases.items():
            failed = [f for f in failures if f["name"] == name]
            assert len(failed) == len(expected) == report.suites[suite]["checks"][name]["count"] > 0, name
            for failure, (text, values) in zip(failed, expected):
                instance = failure["instance"]
                assert instance == text or instance.startswith(text + " @ "), (name, instance, text)
                if name != "inverse_lipschitz":
                    assert (failure["lhs"], failure["rhs"], failure["margin"]) == values, (name, instance)

    def test_strictness_failures_name_their_parameter(self, run):
        _, report = run
        failed = [f for f in report.suites["holo"]["failures"] if f["name"] == "strictness_margin"]
        assert len(failed) == report.suites["holo"]["checks"]["strictness_margin"]["count"] == 20
        for failure in failed:
            text = failure["instance"].removeprefix("z*blaschke(").removesuffix(") rotated to fix 1")
            values = nonreal_parameter_strictness(complex(text))
            assert (failure["lhs"], failure["rhs"], failure["margin"]) == values


def _counting_describe() -> tuple:
    """A ``describe`` that names case i "case i", and the list of the cases it named, in call order."""
    described = []

    def describe(i):
        described.append(i)
        return f"case {i}"

    return describe, described


class TestSuiteAccumulator:
    @pytest.mark.parametrize("name,passing", [("growth_margin", 0.5), ("phi_involution", 0.0)])
    def test_nan_failure_takes_the_worst_slot(self, name, passing):
        acc = _SuiteAccumulator({})
        acc.check(name, "a", 0.0, 0.0, passing)
        acc.check(name, "b", 0.0, 0.0, math.nan)
        suite = acc.as_dict()
        slot = suite["checks"][name]
        assert slot["passed"] is False
        assert math.isnan(slot["worst_margin"])
        assert slot["worst_instance"] == "b"
        if not slot["equality"]:
            assert math.isnan(suite["min_margin"])

    @pytest.mark.parametrize("fold", ["fold_max", "fold_min"])
    def test_a_folded_nan_stays_nan(self, fold):
        acc = _SuiteAccumulator({})
        getattr(acc, fold)("finding", np.array([0.5, -0.5]))
        getattr(acc, fold)("finding", np.array([1.0, math.nan, -1.0]))
        for later in (2.0, -2.0, math.inf, -math.inf, np.array([3.0, -3.0])):
            getattr(acc, fold)("finding", later)
        assert math.isnan(acc.findings["finding"])
        assert type(acc.findings["finding"]) is float

    def test_folds_start_from_zero_and_from_inf(self):
        acc = _SuiteAccumulator({})
        acc.fold_max("largest", np.array([-3.0, -1.0]))
        acc.fold_max("largest", -0.5)
        acc.fold_min("smallest", np.array([2.0, 0.75]))
        acc.fold_min("smallest", 1.0)
        assert acc.findings == {"largest": 0.0, "smallest": 0.75}

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from([1.0, 0.5, -0.5, -2.0, math.nan, -math.inf]), min_size=1, max_size=30), st.data())
    def test_the_sampled_fold_picks_argmins_sample(self, values, data):
        """Over any split into blocks, with ties and NaNs, the fold keeps np.argmin's margin and its point."""
        margins = np.array(values)
        cuts = sorted(data.draw(st.lists(st.integers(1, len(values)), max_size=5)))
        acc = _SuiteAccumulator({})
        for a, b in zip([0, *cuts], [*cuts, len(values)]):
            if a < b:
                acc.fold_sampled("growth_margin", "member", margins[a:b], np.arange(a, b))
        i = int(np.argmin(margins))
        margin, point = acc.minima["growth_margin", "member"]
        assert point == i and np.array_equal(margin, margins[i], equal_nan=True)
        acc.sampled("growth_margin", "member", lambda k: f"sample {k}")
        slot = acc.as_dict()["checks"]["growth_margin"]
        assert slot["worst_instance"] == f"sample {i}" and acc.minima == {}
        assert np.array_equal(slot["worst_margin"], margins[i], equal_nan=True)

    def test_sampled_minima_are_kept_per_member_with_points_of_their_own(self):
        """Each member folds into its own minimum, whose point is a copy: no minimum keeps a block alive."""
        acc = _SuiteAccumulator({})
        pairs = np.arange(8.0).reshape(2, 4)  # a block of four pairs, one pair per column
        block = weakref.ref(pairs)
        acc.fold_sampled("distance_decreasing", 0, np.array([3.0, 1.0, 2.0, 5.0]), pairs.T)
        acc.fold_sampled("distance_decreasing", 1, np.array([0.0, 1.0, -2.0, 5.0]), pairs.T)
        del pairs
        assert block() is None
        (first_margin, first), (second_margin, second) = (acc.minima["distance_decreasing", k] for k in (0, 1))
        assert (first_margin, first.tolist(), second_margin, second.tolist()) == (1.0, [1.0, 5.0], -2.0, [2.0, 6.0])
        assert first.base is None and second.base is None
        acc.sampled("distance_decreasing", 1, lambda pair: f"pair {pair.tolist()}")
        acc.sampled("distance_decreasing", 0, lambda pair: f"pair {pair.tolist()}")
        failures = acc.as_dict()["failures"]
        assert [(f["instance"], f["margin"]) for f in failures] == [("pair [2.0, 6.0]", -2.0)]

    def test_nan_outranks_every_finite_failure(self):
        acc = _SuiteAccumulator({"growth_margin": 1.0})
        acc.check("growth_margin", "pass", 0.0, 0.0, -0.9)
        acc.check("growth_margin", "fail", 0.0, 0.0, -1.5)
        acc.check("growth_margin", "nan", 0.0, 0.0, math.nan)
        acc.check("growth_margin", "fail-again", 0.0, 0.0, -2.0)
        slot = acc.as_dict()["checks"]["growth_margin"]
        assert slot["worst_instance"] == "nan"
        assert slot["count"] == 4


    def test_a_passing_column_builds_one_report_per_check(self):
        describe, described = _counting_describe()
        acc = _SuiteAccumulator({})
        margins = np.linspace(0.0, 1e-13, 1000)
        acc.record(describe, {"phi_involution": (margins, np.zeros(1000), margins),
                              "growth_margin": (margins, np.zeros(1000), 1.0 - margins)})
        suite = acc.as_dict()
        assert suite["cases"] == 2000 and suite["failures"] == []
        assert suite["checks"]["phi_involution"]["worst_instance"] == "case 999"
        assert suite["checks"]["growth_margin"]["worst_instance"] == "case 999"
        assert sorted(described) == [999, 999]

    def test_reports_are_built_only_for_failures_and_the_worst_case(self):
        describe, described = _counting_describe()
        acc = _SuiteAccumulator({})
        margins = np.zeros(1000)
        margins[[10, 500, 990]] = [-1.0, -3.0, -2.0]
        acc.record(describe, {"growth_margin": (margins, margins, margins)})
        suite = acc.as_dict()
        assert [f["instance"] for f in suite["failures"]] == ["case 10", "case 500", "case 990"]
        assert suite["checks"]["growth_margin"]["worst_instance"] == "case 500"
        assert set(described) == {10, 500, 990}

    def test_each_check_is_judged_once_into_plain_failure_records(self, monkeypatch):
        judged = []
        judge = harness._judge
        monkeypatch.setattr(harness, "_judge", lambda name, *args: judged.append(name) or judge(name, *args))
        # Every case of an equality, a bound and the floor check fails.
        tolerances = {"phi_involution": -1.0, "quotient_domination": -10.0, "family_1d_restricted_floor": 10.0}
        report = run_suite(SuiteConfig(suites=("ball", "search"), dimensions=(1,), samples=3, search_restarts=1,
                                       tolerances=tolerances))
        checked = [name for suite in report.suites.values() for name in suite["checks"]]
        assert sorted(judged) == sorted(checked) and len(set(checked)) == len(checked)
        failures = [f for suite in report.suites.values() for f in suite["failures"]]
        assert {f["name"] for f in failures} == set(tolerances)
        for failure in failures:
            assert list(failure) == ["name", "instance", "lhs", "rhs", "margin", "tolerance", "passed"]
            assert type(failure["name"]) is str and type(failure["instance"]) is str
            assert all(type(failure[key]) is float for key in ("lhs", "rhs", "margin", "tolerance"))
            assert failure["passed"] is False

    @pytest.mark.parametrize("name", ["growth_margin", "phi_involution"])
    def test_a_nan_in_the_middle_of_a_column_takes_the_worst_slot(self, name):
        acc = _SuiteAccumulator({})
        margins = np.full(1000, 1e-14)
        margins[500] = math.nan
        acc.record(lambda i: f"case {i}", {name: (margins, np.zeros(1000), margins)})
        suite = acc.as_dict()
        slot = suite["checks"][name]
        assert slot["worst_instance"] == "case 500" and slot["passed"] is False
        assert math.isnan(slot["worst_margin"])
        assert [f["instance"] for f in suite["failures"]] == ["case 500"]

    @pytest.mark.parametrize(
        "name,margins,worst",
        [
            ("phi_involution", [0.0, -0.0, 0.0], 0),
            ("phi_involution", [-0.0, 0.0], 0),
            ("growth_margin", [0.0, -0.0, 0.0], 0),
            ("growth_margin", [-0.0, 0.0], 0),
            ("phi_involution", [1e-3, -2e-3, 2e-3, -2e-3], 1),
            ("growth_margin", [-1.0, -2.0, -2.0, -1.0], 1),
            ("family_1d_restricted_floor", [0.5, 0.0, 0.0, 1e-4], 1),
            ("growth_margin", [1.0, -math.inf, math.nan], 1),
            ("phi_involution", [0.0, math.inf, math.nan], 1),
        ],
    )
    def test_equal_badness_keeps_the_first_case(self, name, margins, worst):
        table, scalars = _SuiteAccumulator({}), _SuiteAccumulator({})
        column = np.asarray(margins)
        table.record(lambda i: f"case {i}", {name: (column, np.zeros(len(margins)), column)})
        for i, margin in enumerate(margins):
            scalars.value(name, f"case {i}", margin)
        for acc in (table, scalars):
            slot = acc.as_dict()["checks"][name]
            assert slot["worst_instance"] == f"case {worst}"
            assert math.copysign(1.0, slot["worst_lhs"]) == math.copysign(1.0, margins[worst])

    def test_ball_failures_are_listed_case_by_case_in_column_order(self):
        # Both overrides fail every case: quotient_domination records before
        # opnorm_anchor in each case, though it sorts after it by name.
        tolerances = {"quotient_domination": -10.0, "opnorm_anchor": -1.0}
        suite = run_suite(SuiteConfig(suites=("ball",), dimensions=(1, 2), samples=3, tolerances=tolerances))
        failures = [(f["name"], f["instance"]) for f in suite.suites["ball"]["failures"]]
        assert failures == [
            (name, f"m={m} case={k}")
            for m in (1, 2)
            for k in range(3)
            for name in ("quotient_domination", "opnorm_anchor")
        ]



class TestStackedBallDistances:
    def test_every_case_matches_the_per_case_scalar_checks(self):
        # Tolerance -1 fails every case, so every value is listed.
        names = ("metric_plane_consistency", "poincare_invariance", "cayley_klein_radial")
        dims, samples = (1, 2, 3, 8), 200
        config = SuiteConfig(suites=("ball",), dimensions=dims, samples=samples, tolerances=dict.fromkeys(names, -1.0))
        listed = {(f["name"], f["instance"]): f["lhs"] for f in run_suite(config).suites["ball"]["failures"]}
        assert len(listed) == len(names) * len(dims) * samples
        for m in dims:
            stacked = [[listed[name, f"m={m} case={k}"] for k in range(samples)] for name in names]
            assert np.array(stacked).tobytes() == scalar_ball_distances(0, m, samples).tobytes()


class TestReportFiles:
    def test_write_report_and_margin_table(self, tmp_path):
        out = tmp_path / "run.json"
        cfg = SuiteConfig(seed=4, suites=("ball", "holo"), dimensions=(1, 2), samples=6, out=str(out))
        report = run_suite(cfg)
        data = json.loads(out.read_text(encoding="utf-8"))
        assert data["passed"] is True
        assert data["tool"]["name"] == "diskcheck"
        assert data["config"]["seed"] == 4
        assert "wall_times" not in data

        csv_path = tmp_path / "run.margins.csv"
        with open(csv_path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["suite", "check", "instance", "lhs", "rhs", "margin", "tolerance", "passed"]
        body = rows[1:]
        expected = sum(len(report.suites[s]["checks"]) for s in ("ball", "holo"))
        assert len(body) == expected
        assert {r[0] for r in body} == {"ball", "holo"}
        for r in body:
            float(r[3]), float(r[4]), float(r[5]), float(r[6])

    def test_json_is_sorted_and_round_trips(self):
        report = run_suite(SuiteConfig(seed=6, suites=("ball",), dimensions=(1,), samples=4))
        text = report.json_text()
        data = json.loads(text)
        assert json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n" == text
        assert data["suites"]["ball"]["cases"] > 0

    def test_non_finite_values_are_written_as_standard_json(self, tmp_path):
        acc = _SuiteAccumulator({})
        acc.check("growth_margin", "nan-case", 0.0, 0.0, math.nan)
        acc.check("boundary_membership", "far", 0.0, 1.0, math.inf)
        acc.findings["negative"] = -math.inf
        acc.findings["listed"] = [1.5, np.float64(math.nan), (math.inf, -0.25)]
        report = RunReport(config=SuiteConfig().as_dict(), tool={}, passed=False, suites={"holo": acc.as_dict()})

        def refuse(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        path = tmp_path / "report.json"
        harness.write_report(report, str(path))
        assert path.read_text(encoding="utf-8") == report.json_text()
        suite = json.loads(report.json_text(), parse_constant=refuse)["suites"]["holo"]
        # The same spelling as the margins CSV, which writes repr(float(x)).
        assert suite["checks"]["growth_margin"]["worst_margin"] == "nan" == repr(math.nan)
        assert suite["min_margin"] == "nan"
        failure = suite["failures"][0]
        assert (failure["name"], failure["margin"]) == ("growth_margin", "nan")
        assert suite["checks"]["boundary_membership"]["worst_margin"] == "inf"
        assert suite["findings"] == {"listed": [1.5, "nan", ["inf", -0.25]], "negative": "-inf"}

    def test_a_nan_julia_margin_makes_its_finding_nan(self, tmp_path, monkeypatch):
        """A NaN margin of one multi-factor member is written as the finding's value, not dropped."""
        margins = harness.julia_margins
        seen = []

        def one_nan(disk, zs):
            values = margins(disk, zs)
            if len(seen) == 1:
                values[7] = math.nan
            seen.append(values)
            return values

        monkeypatch.setattr(harness, "julia_margins", one_nan)
        path = tmp_path / "report.json"
        run_suite(SuiteConfig(suites=("holo",), dimensions=(1,), samples=8, out=str(path)))
        assert seen and math.isnan(seen[1][7])
        findings = json.loads(path.read_text(encoding="utf-8"))["suites"]["holo"]["findings"]
        assert findings["julia_multi_factor_min_margin"] == "nan"


def _fine_circle_max_norm(disk) -> float:
    """Max of ||F|| over 2^17 roots of unity, 32 times the corpus's grid."""
    return float(np.max(vnorm(disk._eval(holodisk._boundary_grid(2**17)))))


class TestCorpus:
    def test_generation_is_deterministic(self):
        a = holo_corpus(seed=3, m=2, count=10) + weierstrass_corpus(seed=3, count=10)
        b = holo_corpus(seed=3, m=2, count=10) + weierstrass_corpus(seed=3, count=10)
        assert len(a) == len(b) > 0
        for left, right in zip(a, b):
            assert left.name == right.name

    def test_holo_corpus_has_archetypes_and_stays_in_ball(self):
        members = list(holo_corpus(seed=0, m=2, count=12))
        names = [member.name for member in members]
        assert any("affine" in n for n in names)
        assert any("square" in n for n in names)
        assert any("family" in n for n in names)
        from diskcheck import certify_in_ball

        for member in members:
            assert certify_in_ball(member.disk) <= 1.0 + 1e-9
            assert member.disk.dim == 2

    @pytest.mark.parametrize(
        "seed, m, count, name",
        [(191, 1, 50, "poly-47"), (74, 2, 50, "poly-34"), (145, 1, 50, "poly-14"), (139, 1, 50, "poly-24"),
         (79, 1, 60, "poly-54")],
    )
    def test_polynomial_members_once_outside_the_ball_are_inside(self, seed, m, count, name):
        """Scaling by a 4096-node grid maximum left these members up to 1.9e-7 outside the ball."""
        (member,) = [member for member in holo_corpus(seed, m, count) if member.name == name]
        assert _fine_circle_max_norm(member.disk) < 1.0

    def test_every_polynomial_member_is_inside_the_ball(self):
        for seed in range(5):
            for m in (1, 2, 3, 8):
                for member in holo_corpus(seed, m, 60):
                    if member.name.startswith("poly-"):
                        assert _fine_circle_max_norm(member.disk) < 1.0, (seed, m, member.name)

    def test_circle_points_are_within_four_ulp_of_exp(self):
        import mpmath

        rng = np.random.default_rng(17)
        turns = np.concatenate([rng.random(3000), [0.0, np.nextafter(1.0, 0.0)], np.arange(4096) / 4096])
        z = corpus._on_circle(1.0, turns)
        with mpmath.workdps(40):
            for u, value in zip(turns, z):
                exact = mpmath.expjpi(2 * mpmath.mpf(float(u)))
                assert abs(value.real - exact.real) <= 9e-16, u
                assert abs(value.imag - exact.imag) <= 9e-16, u

    def test_circle_points_do_not_depend_on_the_batch_shape(self):
        rng = np.random.default_rng(18)
        radii, turns = rng.random(500), rng.random(500)
        z = corpus._on_circle(radii, turns)
        one = np.array([corpus._on_circle(radii[i : i + 1], turns[i : i + 1])[0] for i in range(500)])
        assert np.array_equal(z.view(float), one.view(float))

    def test_disk_points_draw_the_same_uniforms(self):
        drawn, reference = np.random.default_rng(19), np.random.default_rng(19)
        z = corpus._disk_points(drawn, 2000)
        # Each point takes two consecutive outputs: its radius uniform, then its angle in turns.
        radii, turns = reference.random((2000, 2)).T
        radii = 0.02 + (0.97 - 0.02) * np.sqrt(radii)
        assert drawn.random() == reference.random()
        assert np.all(np.abs(np.abs(z) - radii) <= 2 * np.spacing(radii))
        assert np.all(np.abs(z - radii * np.exp(2j * np.pi * turns)) <= 1e-15)

    def test_disk_point_angles_are_not_quantised(self):
        z = corpus._disk_points(np.random.default_rng(20), 50000)
        assert len(np.unique(np.angle(z))) >= 49000

    def test_julia_corpus_members_fix_one(self):
        members = list(julia_corpus(seed=0, count=9))
        assert {member.factors for member in members} >= {1, 2}
        for member in members:
            assert complex(member.disk.eval(1.0)[0]) == pytest.approx(1.0, abs=1e-10)

    def test_surface_corpus_fixed_heads(self):
        members = list(weierstrass_corpus(seed=0, count=10))
        names = [member.name for member in members]
        assert names[0] == "planar"
        assert any("enneper" in n for n in names)
        assert any(n.startswith("surface-") for n in names)
        planar = members[0]
        assert planar.planar_through_origin and planar.full_circle_contact


class TestDiff:
    @pytest.fixture(scope="class")
    def report(self):
        config = SuiteConfig(suites=("ball", "search"), dimensions=(1,), samples=4, search_restarts=1)
        return json.loads(run_suite(config).json_text())

    def test_equal_reports_match(self, report):
        lines, same = diff_reports(report, json.loads(json.dumps(report)))
        assert same and lines == [f"0 verdict flip(s) over {sum(len(s['checks']) for s in report['suites'].values())} checks"]

    def test_each_kind_of_change_is_listed(self, report):
        other = json.loads(json.dumps(report))
        checks = other["suites"]["ball"]["checks"]
        checks["phi_involution"]["passed"] = False
        margin = checks["phi_fixed_point"]["worst_margin"]
        checks["phi_fixed_point"]["worst_margin"] = math.nextafter(margin, math.inf)
        checks["phi_norm_identity"]["worst_instance"] = "elsewhere"
        checks["poincare_invariance"]["count"] += 1
        checks["opnorm_anchor"]["worst_margin"] = "nan"
        del other["suites"]["search"]["checks"]["family_md_margin"]
        other["suites"]["search"]["reports"]["family_md"]["evaluations"] += 1
        lines, same = diff_reports(report, other)
        assert not same
        assert "verdict   ball/phi_involution: pass -> FAIL" in lines
        assert "verdict   search/family_md_margin: only in the first report" in lines
        assert any(line.startswith("margin    ball/phi_fixed_point:") and line.endswith(", 1 ulps)") for line in lines)
        assert any(line.startswith("margin    ball/opnorm_anchor:") and line.endswith("nan ulps)") for line in lines)
        assert any(line.startswith("instance  ball/phi_norm_identity:") for line in lines)
        assert any(line.startswith("count     ball/poincare_invariance:") for line in lines)
        assert "field     suites.search.reports.family_md.evaluations" in lines
        assert lines[-1].startswith("2 verdict flip(s)")
        # rtol hides the one-ulp move, never the NaN.
        lines, _ = diff_reports(report, other, rtol=1e-12)
        assert not any(line.startswith("margin    ball/phi_fixed_point:") for line in lines)
        assert any(line.startswith("margin    ball/opnorm_anchor:") for line in lines)
        with pytest.raises(DomainError):
            diff_reports(report, other, rtol=math.nan)
        checks["phi_involution"]["worst_margin"] = "abc"
        with pytest.raises(DomainError, match="second report"):
            diff_reports(report, other)

    def test_ulps(self):
        assert _ulps(1.0, math.nextafter(1.0, 2.0)) == 1
        assert _ulps(-0.0, 0.0) == 0
        assert _ulps(-5e-324, 5e-324) == 2
        assert _ulps(-1.0, 1.0) == 2 * _ulps(0.0, 1.0)
        assert math.isnan(_ulps(math.nan, 1.0))

    def test_diff_verb_exit_codes(self, report, tmp_path, capsys):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            path.write_text(json.dumps(report), encoding="utf-8")
        assert cli_main(["diff", *map(str, paths)]) == 0
        report = json.loads(json.dumps(report))
        report["suites"]["ball"]["checks"]["phi_involution"]["passed"] = False
        paths[1].write_text(json.dumps(report), encoding="utf-8")
        assert cli_main(["diff", *map(str, paths)]) == 1
        assert "verdict   ball/phi_involution: pass -> FAIL" in capsys.readouterr().out


class TestCli:
    def test_verify_pass_and_outputs(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        rc = cli_main([
            "verify", "--seed", "3", "--samples", "8", "--search-restarts", "2",
            "--out", str(out),
        ])
        captured = capsys.readouterr().out
        assert rc == 0
        assert "PASS" in captured
        assert out.exists() and (tmp_path / "report.margins.csv").exists()

    def test_verify_fails_with_impossible_tolerance(self, tmp_path):
        rc = cli_main([
            "verify", "--suites", "ball", "--dimensions", "1", "--samples", "4",
            "--tolerance", "phi_involution=1e-30",
        ])
        assert rc == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--dimensions", "1,x"],
            ["verify", "--tolerance", "phi_involution=abc"],
            ["verify", "--samples", "0"],
            ["verify", "--seed", "-1"],
            ["verify", "--search-restarts", "0"],
            ["diff", "{tmp}/missing.json", "{tmp}/bad.json"],
            ["verify", "--suites", "ball", "--dimensions", "1", "--samples", "2",
             "--out", "{tmp}/missing/r.json"],
            ["verify", "--dimensions", "0"],
            ["verify", "--tolerance", "growth_margin"],
            ["verify", "--suites", "holo", "--samples", "4", "--dimensions", "1",
             "--tolerance", "growth_margin=1e-300", "--tolerance", "growth_margin=1e-9"],
            ["diff", "{tmp}/suites_list.json", "{tmp}/latin1.json"],
            ["diff", "{tmp}/checks_list.json", "{tmp}/checks_list.json"],
            ["verify", "--suites", "holo", "--dimensions", "1", "--samples", "4",
             "--tolerance", "growth_margin=nan"],
            ["verify", "--suites", "holo", "--dimensions", "1", "--samples", "4",
             "--tolerance", "growth_margin=inf"],
            ["diff", "{tmp}/list.json", "{tmp}/list.json"],
            ["diff", "{tmp}/suites_list.json", "{tmp}/suites_list.json"],
            ["diff", "{tmp}/no_checks.json", "{tmp}/missing.json"],
            ["diff", "{tmp}/bad.json", "{tmp}/bad.json"],
            ["verify", "--suites", "ball", "--dimensions", "1", "--samples", "2", "--seed", "1", "--seed", "2"],
            ["verify", "--suites", "ball,ball", "--samples", "2"],
            ["verify", "--suites", "ball", "--dimensions", "1,1", "--samples", "2"],
            ["verify", "--suites", "holo", "--dimensions", "50", "--samples", "2"],
        ],
    )
    def test_invalid_input_exits_2(self, tmp_path, argv):
        (tmp_path / "bad.json").write_text("{", encoding="utf-8")
        (tmp_path / "latin1.json").write_bytes('{"caf\u00e9": 1}'.encode("latin-1"))
        (tmp_path / "list.json").write_text("[1, 2]", encoding="utf-8")
        (tmp_path / "suites_list.json").write_text('{"suites": []}', encoding="utf-8")
        (tmp_path / "no_checks.json").write_text('{"suites": {"search": {"reports": {}}}}', encoding="utf-8")
        (tmp_path / "checks_list.json").write_text('{"suites": {"ball": {"checks": []}}}', encoding="utf-8")
        try:
            rc = cli_main([arg.format(tmp=tmp_path) for arg in argv])
        except SystemExit as exc:
            rc = exc.code
        assert rc == 2

    @pytest.mark.parametrize("verb", [["verify"]])
    def test_negative_seed_exits_2(self, tmp_path, capsys, verb):
        assert cli_main(verb + ["--seed", "-1", "--out", str(tmp_path / "out")]) == 2
        assert "error: seed must be nonnegative" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_verify_rejects_bad_input(self, capsys):
        assert cli_main(["verify", "--suites", "bogus"]) == 2
        assert "unknown suite" in capsys.readouterr().err

    def test_each_verify_flag_reaches_the_report(self, tmp_path):
        out = tmp_path / "r.json"
        rc = cli_main([
            "verify", "--seed", "4", "--samples", "3", "--suites", "search,ball", "--dimensions", "2,1",
            "--search-restarts", "1", "--tolerance", "growth_margin=1e-9", "--out", str(out),
        ])
        assert rc == 0
        assert json.loads(out.read_text(encoding="utf-8"))["config"] == {
            "seed": 4,
            "dimensions": [2, 1],
            "samples": 3,
            "suites": ["search", "ball"],
            "tolerances": {"growth_margin": 1e-9},
            "search_restarts": 1,
        }
        assert (tmp_path / "r.margins.csv").exists()

    def test_repeated_tolerance_exits_2_in_either_order(self, capsys):
        for first, second in (("1e-300", "1e-9"), ("1e-9", "1e-300")):
            argv = ["verify", "--suites", "holo", "--samples", "4", "--dimensions", "1",
                    "--tolerance", f"growth_margin={first}", "--tolerance", f"growth_margin={second}"]
            assert cli_main(argv) == 2
            assert "error: --tolerance growth_margin is given more than once" in capsys.readouterr().err

    def test_no_config_flag(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text("seed = 3\nsamples = 4\nsuites = ball\ndimensions = 1\n", encoding="utf-8")
        with pytest.raises(SystemExit) as exc:
            cli_main(["verify", "--config", str(path)])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            cli_main(["verify", "--help"])
        assert exc.value.code == 0
        assert "--config" not in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--seed", "1", "--seed", "2"],
            ["verify", "--samples", "2", "--samples", "3"],
            ["verify", "--suites", "ball", "--suites", "holo"],
            ["verify", "--dimensions", "1", "--dimensions", "2"],
            ["verify", "--search-restarts", "1", "--search-restarts", "2"],
            ["verify", "--out", "{tmp}/r.json", "--out", "{tmp}/s.json"],
            ["diff", "{tmp}/r.json", "{tmp}/s.json", "--rtol", "0", "--rtol", "0.5"],
        ],
        ids=["seed", "samples", "suites", "dimensions", "search-restarts", "out", "diff-rtol"],
    )
    def test_a_repeated_flag_exits_2(self, tmp_path, capsys, argv):
        """A flag given twice is refused before anything runs, so the order of the flags never picks a run."""
        flag = argv[-2]
        small_run = {"--suites": "ball", "--dimensions": "1", "--samples": "2", "--out": "{tmp}/r.json"}
        if argv[0] == "verify":  # a small run that would write its report, were the flag accepted
            for name, value in small_run.items():
                argv = argv + ([name, value] if name != flag else [])
        with pytest.raises(SystemExit) as exc:
            cli_main([arg.format(tmp=tmp_path) for arg in argv])
        assert exc.value.code == 2
        assert f"error: {flag} is given more than once" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_version_and_help(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["--version"])
        assert exc.value.code == 0
        assert "diskcheck" in capsys.readouterr().out
        with pytest.raises(SystemExit) as exc:
            cli_main(["--help"])
        assert exc.value.code == 0
        assert "{verify,diff}" in capsys.readouterr().out
        for verb in ("corpus", "search"):
            with pytest.raises(SystemExit) as exc:
                cli_main([verb])
            assert exc.value.code == 2
            assert f"invalid choice: '{verb}'" in capsys.readouterr().err

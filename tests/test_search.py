"""Unit tests for the deterministic simplex search and the sharpness families."""

from __future__ import annotations

import math

import numpy as np
import pytest

from diskcheck import (
    DomainError,
    FamilySpec,
    family_1d_spec,
    family_md_spec,
    margin_objective_1d,
    margin_objective_md,
    nelder_mead,
    restricted_family_1d_spec,
    sharpness_report,
)
from diskcheck.search import _lockstep_nelder_mead
from oracles import sequential_nelder_mead, sequential_sharpness_report


class TestNelderMead:
    def test_quadratic_minimum(self):
        target = np.asarray([0.3, -0.2])
        res = nelder_mead(lambda x: float(np.sum((x - target) ** 2)), np.zeros(2))
        assert float(np.max(np.abs(res.x - target))) < 1e-6
        assert res.value < 1e-12
        assert res.evaluations > 0
        assert res.min_evaluated <= res.value

    def test_banana_valley(self):
        rosen = lambda x: float((1 - x[0]) ** 2 + 100 * (x[1] - x[0] ** 2) ** 2)
        res = nelder_mead(rosen, np.asarray([-1.2, 1.0]))
        assert float(np.max(np.abs(res.x - 1.0))) < 1e-5

    def test_deterministic_repeats(self):
        obj = lambda x: float(np.cos(3 * x[0]) + x[0] ** 2)
        r1 = nelder_mead(obj, np.asarray([0.7]))
        r2 = nelder_mead(obj, np.asarray([0.7]))
        assert np.array_equal(r1.x, r2.x)
        assert r1.value == r2.value
        assert r1.trace == r2.trace

    def test_bounds_are_respected_at_every_evaluation(self):
        lower, upper = np.asarray([-0.5, 0.0]), np.asarray([0.5, 1.0])
        seen = []

        def obj(x):
            seen.append(np.array(x))
            return float(np.sum((x - np.asarray([2.0, -1.0])) ** 2))

        res = nelder_mead(obj, np.asarray([0.0, 0.5]), bounds=(lower, upper))
        pts = np.stack(seen)
        assert np.all(pts >= lower - 1e-12) and np.all(pts <= upper + 1e-12)
        # constrained optimum sits at the box corner nearest the target
        assert np.allclose(res.x, [0.5, 0.0], atol=1e-6)

    def test_trace_is_monotone_best_so_far(self):
        res = nelder_mead(lambda x: float(np.sum(x**2)), np.asarray([1.0, 2.0]))
        vals = [v for _, v in res.trace]
        assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))

    def test_iteration_cap_and_bad_bounds(self):
        res = nelder_mead(lambda x: float(np.sum(x**2)), np.asarray([1.0]), max_iterations=3)
        assert res.iterations <= 3
        with pytest.raises(DomainError):
            nelder_mead(lambda x: 0.0, np.asarray([0.0]), bounds=([0.0], [0.0]))

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_start_point_is_evaluated_once(self, n):
        calls = []

        def objective(x):
            calls.append(x)
            return float(np.sum(x**2))

        res = nelder_mead(objective, np.linspace(0.2, 1.0, n), max_iterations=0)
        assert len(calls) == res.evaluations == n + 1

    def test_nan_after_the_start_point_is_rejected(self):
        calls = []

        def objective(x):
            calls.append(x)
            return math.nan if len(calls) > 4 else float(np.sum(x**2))

        with pytest.raises(DomainError, match="NaN"):
            nelder_mead(objective, np.asarray([1.0, 2.0]))
        assert len(calls) == 5


class TestLockstep:
    """K runs advanced together give each run's sequential result."""

    def test_runs_equal_sequential_runs(self):
        lower, upper = np.asarray([-2.0, -1.0, -1.5]), np.asarray([2.0, 3.0, 1.5])
        rosen = lambda x: float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))
        starts = np.random.default_rng(3).uniform(lower, upper, size=(5, 3))
        for bounds, steps in (((lower, upper), 60), (None, 10_000)):
            batched = lambda points: [rosen(x) for x in points]
            together = _lockstep_nelder_mead(batched, starts, bounds=bounds, max_iterations=steps)
            for start, result in zip(starts, together):
                alone = sequential_nelder_mead(rosen, start, bounds=bounds, max_iterations=steps)
                assert np.array_equal(result.x, alone.x)
                assert (result.value, result.iterations, result.evaluations) == (
                    alone.value,
                    alone.iterations,
                    alone.evaluations,
                )
                assert result.trace == alone.trace
                assert result.min_evaluated == alone.min_evaluated

    def test_nan_or_infinite_start_in_any_run_is_rejected(self):
        starts = np.asarray([[0.5, 0.5], [1.0, 2.0], [-1.0, 0.3]])
        calls = []

        def objective(points):
            calls.append(len(points))
            values = np.sum(points**2, axis=1)
            if len(calls) == 4:
                values[-1] = math.nan
            return values

        with pytest.raises(DomainError, match="NaN"):
            _lockstep_nelder_mead(objective, starts)
        assert len(calls) == 4
        infinite_start = lambda points: np.where(points[:, 0] > 0.9, math.inf, np.sum(points**2, axis=1))
        with pytest.raises(DomainError, match="not finite at the start point"):
            _lockstep_nelder_mead(infinite_start, starts)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_sharpness_reports_equal_the_sequential_search(self, seed):
        # The restart counts of a default verify run.
        for spec, restarts in (
            (family_1d_spec(), 8),
            (restricted_family_1d_spec(), 8),
            (family_md_spec(2), 6),
        ):
            expected = sequential_sharpness_report(spec, restarts=restarts, seed=seed)
            assert sharpness_report(spec, restarts=restarts, seed=seed) == expected, spec.family


class TestObjectives:
    def test_real_parameter_gives_zero_margin(self):
        assert margin_objective_1d((0.5, 0.0)) == pytest.approx(0.0, abs=1e-14)
        assert margin_objective_1d((0.25, 2.0 * math.pi)) == pytest.approx(0.0, abs=1e-12)

    def test_rotated_parameter_oracle(self):
        assert margin_objective_1d((0.5, math.pi / 2)) == pytest.approx(0.5 / 1.875, rel=1e-12)

    def test_closed_form_shape_near_real_ray(self):
        r = 0.7
        for t in (1e-3, -1e-3):
            closed = 2 * r * (1 - math.cos(t)) * (1 - r) / ((1 + 2 * r * math.cos(t) + r * r) * (1 + r))
            assert margin_objective_1d((r, t)) == pytest.approx(closed, rel=1e-9)

    def test_modulus_domain(self):
        with pytest.raises(DomainError):
            margin_objective_1d((1.0, 0.1))

    def test_vector_family_composed_square(self):
        params = np.zeros(10)
        params[6] = 1.0  # direction = first coordinate axis
        assert margin_objective_md(params, m=2) == pytest.approx(0.0, abs=1e-12)

    def test_vector_family_normalizations(self):
        # oversized basepoint and factor are projected, zero direction defaults
        params = np.asarray([0.9, 0.9, 0.0, 0.0, 0.9, 0.9, 0.0, 0.0, 0.0, 0.0])
        assert margin_objective_md(params, m=2) > -1e-8
        with pytest.raises(DomainError):
            margin_objective_md(np.zeros(7), m=2)


class TestFamilySpecs:
    def test_boxes(self):
        s = family_1d_spec()
        assert s.lower == (0.05, -math.pi) and s.upper == (1.0 - 1e-6, math.pi)
        r = restricted_family_1d_spec()
        assert r.lower == (0.05, math.pi / 4.0) and r.upper == (0.9, math.pi)
        v = family_md_spec(2)
        assert len(v.lower) == 10 and v.dim == 2
        with pytest.raises(DomainError):
            family_md_spec(0)
        with pytest.raises(DomainError):
            FamilySpec(family="nope", lower=(0.0,), upper=(1.0,))


class TestSharpnessReport:
    def test_full_family_reaches_the_zero_set(self):
        report = sharpness_report(family_1d_spec(), restarts=6, seed=1)
        assert report["best_margin"] <= 1e-8
        assert abs(math.sin(report["argmin"][1])) <= 1e-4
        assert report["min_evaluated"] >= -1e-9
        assert report["polish_rounds"] == 6
        # restart traces + polish traces + one combined refinement trace
        assert len(report["traces"]) == 6 + report["polish_rounds"] + 1
        for trace in report["traces"]:
            assert all(v >= report["min_evaluated"] - 1e-15 for _, v in trace)

    def test_restricted_family_is_bounded_away_from_zero(self):
        report = sharpness_report(restricted_family_1d_spec(), restarts=6, seed=1)
        assert report["best_margin"] > 1e-4
        # the floor sits at the box corner (modulus 0.9, phase pi/4)
        assert report["best_margin"] == pytest.approx(9.0007e-3, rel=1e-3)
        assert np.allclose(report["argmin"], [0.9, math.pi / 4.0], atol=1e-5)

    def test_determinism(self):
        a = sharpness_report(family_1d_spec(), restarts=3, seed=7)
        b = sharpness_report(family_1d_spec(), restarts=3, seed=7)
        assert a == b
        c = sharpness_report(family_1d_spec(), restarts=3, seed=8)
        assert c["argmin"] != a["argmin"] or c["evaluations"] != a["evaluations"]

    def test_vector_family_margin_nonnegative(self):
        report = sharpness_report(family_md_spec(2), restarts=2, seed=0)
        assert report["best_margin"] > -1e-8
        assert report["min_evaluated"] > -1e-8
        assert report["dimension"] == 2

    def test_restart_validation(self):
        with pytest.raises(DomainError):
            sharpness_report(family_1d_spec(), restarts=0)

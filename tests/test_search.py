"""Unit tests for the deterministic simplex search and the sharpness families."""

from __future__ import annotations

import math

import numpy as np
import pytest

from diskcheck import (
    DomainError,
    FamilySpec,
    family_1d_spec,
    family_md_quotient_spec,
    restricted_family_1d_spec,
    sharpness_report,
)
from diskcheck import search
from diskcheck.search import (
    REFINE_SPAN,
    REFINE_SWEEPS,
    _family_1d_margins,
    _family_md_margins,
    _golden_section,
    _lockstep_nelder_mead,
    _quotient_rows,
)
from diskcheck.holodisk import boundary_bound_shifted
from oracles import (
    family_md_box,
    family_md_tree,
    sequential_golden_section,
    sequential_nelder_mead,
    sequential_sharpness_report,
)


def box(n: int) -> tuple[list, list]:
    """The box [-2, 2]^n, which holds every start point and minimum of these tests."""
    return [-2.0] * n, [2.0] * n


def single_run(objective, x0, bounds=None, **options):
    """One run of the lockstep core, with ``objective`` called once per point; ``bounds`` defaults to ``box(n)``."""
    x0 = np.asarray(x0, dtype=float)
    one_run = lambda points: [objective(x) for x in points]
    return _lockstep_nelder_mead(one_run, x0[None, :], bounds or box(x0.shape[0]), **options)[0]


def margin_1d(params) -> float:
    """The ``family_1d`` margin of one parameter row."""
    return float(_family_1d_margins(np.asarray(params, dtype=float)[None, :])[0])


def margin_md(params, m: int) -> float:
    """The ``family_md`` margin of one full parameter row (b, c, u)."""
    return float(_family_md_margins(np.asarray(params, dtype=float)[None, :], m)[0])


class TestNelderMead:
    def test_quadratic_minimum(self):
        target = np.asarray([0.3, -0.2])
        res = single_run(lambda x: float(np.sum((x - target) ** 2)), np.zeros(2))
        assert float(np.max(np.abs(res.x - target))) < 1e-6
        assert res.value < 1e-12
        assert res.evaluations > 0

    def test_banana_valley(self):
        rosen = lambda x: float((1 - x[0]) ** 2 + 100 * (x[1] - x[0] ** 2) ** 2)
        res = single_run(rosen, np.asarray([-1.2, 1.0]))
        assert float(np.max(np.abs(res.x - 1.0))) < 1e-5

    def test_deterministic_repeats(self):
        obj = lambda x: float(np.cos(3 * x[0]) + x[0] ** 2)
        r1 = single_run(obj, np.asarray([0.7]))
        r2 = single_run(obj, np.asarray([0.7]))
        assert np.array_equal(r1.x, r2.x)
        assert (r1.value, r1.iterations, r1.evaluations) == (r2.value, r2.iterations, r2.evaluations)

    def test_bounds_are_respected_at_every_evaluation(self):
        lower, upper = np.asarray([-0.5, 0.0]), np.asarray([0.5, 1.0])
        seen = []

        def obj(x):
            seen.append(np.array(x))
            return float(np.sum((x - np.asarray([2.0, -1.0])) ** 2))

        res = single_run(obj, np.asarray([0.0, 0.5]), bounds=(lower, upper))
        pts = np.stack(seen)
        assert np.all(pts >= lower - 1e-12) and np.all(pts <= upper + 1e-12)
        # constrained optimum sits at the box corner nearest the target
        assert np.allclose(res.x, [0.5, 0.0], atol=1e-6)

    def test_iteration_cap_and_bad_bounds(self):
        res = single_run(lambda x: float(np.sum(x**2)), np.asarray([1.0]), max_iterations=3)
        assert res.iterations <= 3
        with pytest.raises(DomainError):
            single_run(lambda x: 0.0, np.asarray([0.0]), bounds=([0.0], [0.0]))

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_start_point_is_evaluated_once(self, n):
        calls = []

        def objective(x):
            calls.append(x)
            return float(np.sum(x**2))

        res = single_run(objective, np.linspace(0.2, 1.0, n), max_iterations=0)
        assert len(calls) == res.evaluations == n + 1

    def test_nan_after_the_start_point_is_rejected(self):
        calls = []

        def objective(x):
            calls.append(x)
            return math.nan if len(calls) > 4 else float(np.sum(x**2))

        with pytest.raises(DomainError, match="NaN"):
            single_run(objective, np.asarray([1.0, 2.0]))
        assert len(calls) == 5


class TestLockstep:
    """K runs advanced together give each run's sequential result."""

    def test_runs_equal_sequential_runs(self):
        lower, upper = np.asarray([-2.0, -1.0, -1.5]), np.asarray([2.0, 3.0, 1.5])
        rosen = lambda x: float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))
        starts = np.random.default_rng(3).uniform(lower, upper, size=(5, 3))
        batched = lambda points: [rosen(x) for x in points]
        together = _lockstep_nelder_mead(batched, starts, bounds=(lower, upper), max_iterations=60)
        for start, result in zip(starts, together):
            alone = sequential_nelder_mead(rosen, start, bounds=(lower, upper), max_iterations=60)
            assert np.array_equal(result.x, alone.x)
            assert (result.value, result.iterations, result.evaluations) == (
                alone.value,
                alone.iterations,
                alone.evaluations,
            )

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
            _lockstep_nelder_mead(objective, starts, box(2))
        assert len(calls) == 4
        infinite_start = lambda points: np.where(points[:, 0] > 0.9, math.inf, np.sum(points**2, axis=1))
        with pytest.raises(DomainError, match="not finite at the start point"):
            _lockstep_nelder_mead(infinite_start, starts, box(2))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_sharpness_reports_equal_the_sequential_search(self, seed):
        # The restart counts of a default verify run.
        for spec, restarts in (
            (family_1d_spec(), 8),
            (restricted_family_1d_spec(), 8),
            (family_md_quotient_spec(2), 6),
        ):
            expected = sequential_sharpness_report(spec, restarts=restarts, seed=seed)
            assert sharpness_report(spec, restarts=restarts, seed=seed) == expected, spec.family


def same_run(result, alone) -> bool:
    """Whether two Nelder-Mead results agree bit for bit, zero signs included."""
    return (
        result.x.tobytes() == alone.x.tobytes()
        and repr((result.value, result.iterations, result.evaluations))
        == repr((alone.value, alone.iterations, alone.evaluations))
    )


class TestInsertionOrderedSimplex:
    """Inserting each replacing vertex by rank gives the runs a full stable argsort gives."""

    def floor_steps(self, x):
        return math.floor(4.0 * float(np.sum((x - 0.3) ** 2))) / 4.0

    def signed_zeros(self, x):
        # -0.0 and +0.0 compare equal, so only the order of ties decides
        # which zero vertex is best.
        r = float(np.sum(x**2)) - 0.25
        if r > 0.0:
            return r
        return -0.0 if x[0] < x[1] else 0.0

    def walled(self, x):
        # +inf outside the unit disk and across a moat, so reflections fail.
        if float(np.sum(x**2)) > 1.0 or abs(x[0] - 0.9) < 0.05:
            return math.inf
        return float((x[0] - 1.0) ** 2 + x[1] ** 2)

    @pytest.mark.parametrize("name", ["floor_steps", "signed_zeros", "walled"])
    def test_runs_with_ties_equal_sequential_runs(self, name):
        objective = getattr(self, name)
        starts = np.random.default_rng(5).uniform(-0.6, 0.6, size=(6, 2))
        shrinks = iterations = 0
        bounds = ([-1.0, -1.0], [1.0, 1.0])
        together = _lockstep_nelder_mead(lambda points: [objective(x) for x in points], starts, bounds=bounds)
        for start, result in zip(starts, together):
            alone = sequential_nelder_mead(objective, start, bounds=bounds)
            assert same_run(result, alone)
            iterations += alone.iterations
            blocks = []

            def one_run(points):
                blocks.append(len(points))
                return [objective(x) for x in points]

            assert same_run(_lockstep_nelder_mead(one_run, start[None, :], bounds)[0], alone)
            # After the initial simplex, only a shrink asks for more than one point.
            shrinks += sum(size > 1 for size in blocks[1:])
        assert iterations > 0
        assert shrinks > 0 or name == "signed_zeros"


class TestLookaheadGoldenSection:
    """The lookahead golden section takes the sequential steps and returns the best of every point it evaluated."""

    @staticmethod
    def batched(f, seen=None):
        def line(ts):
            if seen is not None:
                seen.extend(ts)
            return [f(t) for t in ts]

        return line

    def check(self, f, lo, hi):
        seen, used = [], []
        got = _golden_section(self.batched(f, seen), lo, hi)
        assert repr(got) == repr(sequential_golden_section(f, lo, hi, search._LOOKAHEAD))
        # Every point of the sequential steps is evaluated, and the first least value of all wins.
        steps = sequential_golden_section(lambda t: used.append(t) or f(t), lo, hi)
        assert set(used) <= set(seen)
        values = [f(t) for t in seen]
        best = int(np.argmin(values))
        assert repr(got) == repr((seen[best], values[best], 50)) and got[1] <= steps[1]
        assert got[2] == steps[2] == 50
        return got

    @pytest.mark.parametrize("span", [REFINE_SPAN, 0.3])
    def test_family_lines_equal_sequential_sections(self, span):
        md = family_md_quotient_spec(2)
        base_md = np.asarray(md.lower) + 0.37 * (np.asarray(md.upper) - np.asarray(md.lower))
        lines = [((0.4, 0.01), 0, lambda p: _family_1d_margins(p)), ((0.4, 0.01), 1, lambda p: _family_1d_margins(p))]
        lines += [(base_md, i, lambda p: _family_md_margins(_quotient_rows(p, 2), 2)) for i in range(5)]
        for base, i, margins in lines:
            base = np.asarray(base, dtype=float)

            def f(t, base=base, i=i, margins=margins):
                point = base.copy()
                point[i] = t
                return float(margins(point[None, :])[0])

            self.check(f, base[i] - span, base[i] + span)

    def test_ties_and_plateaus(self):
        self.check(lambda t: 0.25, -1.0, 1.0)
        self.check(lambda t: -0.0, -1.0, 1.0)
        self.check(lambda t: math.floor(abs(t - 0.3) * 20.0) / 20.0, -1.0, 1.0)
        self.check(lambda t: math.floor(8.0 * math.sin(5.0 * t)) / 8.0, 0.0, 3.0)

    def test_unused_speculative_points_do_not_steer_the_path(self):
        f = lambda t: (t - 0.3) ** 2
        used = []
        sequential_golden_section(lambda t: used.append(t) or f(t), -1.0, 1.0)
        used = set(used)
        # Every point the sequential search never visits gets the lowest value:
        # the steps are still the sequential ones, and the result is the first such point.
        trap = lambda t: f(t) if t in used else -1.0
        seen = []
        got = _golden_section(self.batched(trap, seen), -1.0, 1.0)
        assert set(seen) > used
        first = next(t for t in seen if t not in used)
        assert got == (first, -1.0, 50) == sequential_golden_section(trap, -1.0, 1.0, search._LOOKAHEAD)


class TestObjectives:
    def test_real_parameter_gives_zero_margin(self):
        assert margin_1d((0.5, 0.0)) == pytest.approx(0.0, abs=1e-14)
        assert margin_1d((0.25, 2.0 * math.pi)) == pytest.approx(0.0, abs=1e-12)

    def test_rotated_parameter_oracle(self):
        assert margin_1d((0.5, math.pi / 2)) == pytest.approx(0.5 / 1.875, rel=1e-12)

    def test_closed_form_shape_near_real_ray(self):
        r = 0.7
        for t in (1e-3, -1e-3):
            closed = 2 * r * (1 - math.cos(t)) * (1 - r) / ((1 + 2 * r * math.cos(t) + r * r) * (1 + r))
            assert margin_1d((r, t)) == pytest.approx(closed, rel=1e-9)

    def test_modulus_domain(self):
        with pytest.raises(DomainError):
            margin_1d((1.0, 0.1))

    def test_vector_family_composed_square(self):
        params = np.zeros(10)
        params[6] = 1.0  # direction = first coordinate axis
        assert margin_md(params, 2) == pytest.approx(0.0, abs=1e-12)

    def test_vector_family_normalizations(self):
        # oversized basepoint and factor are projected, zero direction defaults
        params = np.asarray([0.9, 0.9, 0.0, 0.0, 0.9, 0.9, 0.0, 0.0, 0.0, 0.0])
        assert margin_md(params, 2) > -1e-8
        with pytest.raises(DomainError):
            margin_md(np.zeros(7), 2)


class TestFamilySpecs:
    def test_boxes(self):
        s = family_1d_spec()
        assert s.lower == (0.05, -math.pi) and s.upper == (1.0 - 1e-6, math.pi)
        r = restricted_family_1d_spec()
        assert r.lower == (0.05, math.pi / 4.0) and r.upper == (0.9, math.pi)
        assert family_md_quotient_spec(1).lower == (0.0, -math.pi, -0.9, -0.9)
        q = family_md_quotient_spec(3)
        assert q.lower == (0.0, 0.0, -math.pi, -0.9, -0.9) and q.upper == (0.9, math.pi / 2.0, math.pi, 0.9, 0.9)
        with pytest.raises(DomainError):
            family_md_quotient_spec(0)
        with pytest.raises(DomainError):
            _quotient_rows(np.zeros((1, 5)), 1)
        with pytest.raises(DomainError):
            FamilySpec(family="nope", lower=(0.0,), upper=(1.0,))
        # Only searched families have specs: the full family_md box is sampled, never searched.
        with pytest.raises(DomainError, match="unknown family"):
            FamilySpec(family="family_md", lower=(-0.9,) * 10, upper=(0.9,) * 10, dim=2)


class TestSharpnessReport:
    def test_full_family_reaches_the_zero_set(self):
        report = sharpness_report(family_1d_spec(), restarts=6, seed=1)
        assert report["best_margin"] <= 1e-8
        assert abs(report["argmin"][1]) <= 1e-4

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
        report = sharpness_report(family_md_quotient_spec(2), restarts=2, seed=0)
        assert report["best_margin"] > -1e-8
        assert report["dimension"] == 2

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_quotient_report_carries_its_full_parameters(self, m):
        report = sharpness_report(family_md_quotient_spec(m), restarts=2, seed=0)
        full = report["full_argmin"]
        assert (report["family"], report["dimension"]) == ("family_md_quotient", m)
        assert len(full) == 4 * m + 2 and len(report["argmin"]) == 4 + (m >= 2)
        assert repr(margin_md(full, m)) == repr(report["best_margin"])
        assert abs(complex(full[2 * m], full[2 * m + 1])) <= 0.9 + 1e-15

    @pytest.mark.parametrize("seed", [0, 1, 3, 7])
    def test_quotient_search_ends_on_the_equality_slice(self, seed):
        # The default verify search; its argmin is on the slice b = t u,
        # t in [0, 0.9], real c >= 0, measured without coordinates:
        # ||b - max(Re<b, u>, 0) u|| stays small wherever r is.
        report = sharpness_report(family_md_quotient_spec(2), restarts=6, seed=seed)
        assert abs(report["best_margin"]) <= 1e-12
        full = np.asarray(report["full_argmin"])
        b, c, u = full[[0, 1]] + 1j * full[[2, 3]], complex(*full[4:6]), full[[6, 7]] + 1j * full[[8, 9]]
        assert abs(c.imag) <= 1e-5 and c.real >= 0.0
        assert float(np.linalg.norm(b - max(np.vdot(u, b).real, 0.0) * u)) <= 1e-5

    @pytest.mark.parametrize("seed", [0, 1, 3, 7])
    def test_best_margin_is_the_least_value_the_objective_returned(self, seed, monkeypatch):
        # The default verify searches: no margin the objective returned, on a
        # golden-section branch not taken included, lies below the best one.
        specs = ((family_1d_spec(), 8), (restricted_family_1d_spec(), 8), (family_md_quotient_spec(2), 6))
        expected = [sharpness_report(spec, restarts=restarts, seed=seed) for spec, restarts in specs]
        returned = []
        for name, (family_id, margins) in list(search._FAMILIES.items()):

            def recorder(params, m, margins=margins):
                values = margins(params, m)
                returned.extend(values.tolist())
                return values

            monkeypatch.setitem(search._FAMILIES, name, (family_id, recorder))
        # Each golden-section line evaluates, on top of the points it uses, the other branches of its lookahead.
        depths = [min(search._LOOKAHEAD, search._REFINE_ITERATIONS - step)
                  for step in range(0, search._REFINE_ITERATIONS, search._LOOKAHEAD)]
        unused = sum(2**depth - 1 - depth for depth in depths)
        assert search._LOOKAHEAD > 1 and unused > 0
        for (spec, restarts), report in zip(specs, expected):
            returned.clear()
            assert sharpness_report(spec, restarts=restarts, seed=seed) == report
            assert len(returned) == report["evaluations"] + REFINE_SWEEPS * len(report["argmin"]) * unused
            assert repr(min(returned)) == repr(report["best_margin"]), spec

    def test_restart_validation(self):
        with pytest.raises(DomainError):
            sharpness_report(family_1d_spec(), restarts=0)


def haar_unitary(rng: np.random.Generator, m: int) -> np.ndarray:
    """A Haar-random unitary: QR of a complex Gaussian matrix, phases fixed by R's diagonal."""
    q, r = np.linalg.qr(rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def split(rows: np.ndarray, m: int):
    """The complex b, c and u of family_md rows."""
    b = rows[:, :m] + 1j * rows[:, m : 2 * m]
    u = rows[:, 2 * m + 2 : 3 * m + 2] + 1j * rows[:, 3 * m + 2 :]
    return b, rows[:, 2 * m] + 1j * rows[:, 2 * m + 1], u


def join(b, c, u) -> np.ndarray:
    """The family_md rows of complex b, c and u."""
    return np.concatenate([b.real, b.imag, c.real[:, None], c.imag[:, None], u.real, u.imag], axis=1)


def full_rows(rng: np.random.Generator, m: int, count: int) -> np.ndarray:
    """Random family_md rows (b, c, u) from the full box, with b and c projected as the objective projects them."""
    lower, upper = family_md_box(m)
    b, c, u = split(lower + rng.random((count, 4 * m + 2)) * (upper - lower), m)
    b *= np.minimum(1.0, 0.9 / np.linalg.norm(b, axis=1))[:, None]
    return join(b, c * np.minimum(1.0, 0.9 / np.abs(c)), u)


def assert_margins_agree(got: np.ndarray, expected: np.ndarray) -> None:
    """Agreement to 1e-13, relative where a margin exceeds 1: at ||b|| near 0.9 margins reach about 50."""
    assert np.all(np.abs(got - expected) <= 1e-13 * np.maximum(1.0, np.abs(expected)))


class TestUnitaryQuotient:
    """The family_md margin depends only on ||b||, <b, u> and c, so the quotient search loses nothing."""

    @pytest.mark.parametrize("m", [2, 3])
    def test_random_unitaries_leave_margins_unchanged(self, m):
        rng = np.random.default_rng(40 + m)
        rows = full_rows(rng, m, 1200)
        b, c, u = split(rows, m)
        unitaries = np.asarray([haar_unitary(rng, m) for _ in range(len(rows))])
        moved = join(np.einsum("kij,kj->ki", unitaries, b), c, np.einsum("kij,kj->ki", unitaries, u))
        assert_margins_agree(_family_md_margins(moved, m), _family_md_margins(rows, m))

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_full_rows_equal_their_representatives(self, m):
        rows = full_rows(np.random.default_rng(50 + m), m, 1200)
        b, c, u = split(rows, m)
        u = u / np.linalg.norm(u, axis=1)[:, None]
        r = np.linalg.norm(b, axis=1)
        inner = np.einsum("ki,ki->k", np.conj(u), b)
        theta = [np.arccos(np.minimum(np.abs(inner) / r, 1.0))] if m >= 2 else []
        quotient = np.stack([r, *theta, np.angle(inner), c.real, c.imag], axis=1)
        assert quotient.shape[1] == len(family_md_quotient_spec(m).lower)
        assert_margins_agree(_family_md_margins(_quotient_rows(quotient, m), m), _family_md_margins(rows, m))

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_closed_form_on_the_equality_slice(self, m):
        # b = t u with real c: ||F'(1)|| = 2 (1 - t)/((1 + t)(1 + c)), which is the bound.
        rng = np.random.default_rng(60 + m)
        t, c = rng.uniform(0.0, 0.9, size=(2, 300))
        t[:3], c[:3] = (0.0, 0.9, 0.9), (0.9, 0.0, 0.9)
        u = full_rows(rng, m, len(t))[:, 2 * m + 2 :]
        u = u[:, :m] + 1j * u[:, m:]
        u /= np.linalg.norm(u, axis=1)[:, None]
        rows = join(t[:, None] * u, c + 0j, u)
        closed = 2.0 * (1.0 - t) / ((1.0 + t) * (1.0 + c))
        for row, expected in zip(rows[:40], closed):
            val, main = boundary_bound_shifted(family_md_tree(row, m), 1.0 + 0j)[:2]
            assert val == pytest.approx(expected, rel=1e-12, abs=0.0)
            assert main == pytest.approx(expected, rel=1e-12, abs=0.0)
        assert float(np.max(np.abs(_family_md_margins(rows, m)))) <= 1e-12
        theta = [np.zeros_like(t)] if m >= 2 else []
        quotient = np.stack([t, *theta, np.zeros_like(t), c, np.zeros_like(t)], axis=1)
        assert float(np.max(np.abs(_family_md_margins(_quotient_rows(quotient, m), m)))) <= 1e-12

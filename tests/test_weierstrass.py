"""Unit tests for conformal minimal disks built from polynomial data."""

from __future__ import annotations

import numpy as np
import pytest

from diskcheck import (
    DomainError,
    WeierstrassDisk,
    antiderivative_quadrature_residual,
    boundary_minimal_margin,
    distance_decreasing_margins,
    enneper_disk,
    halfsphere_chain_check,
    interior_growth_margin,
    inverse_lipschitz_check,
    null_condition_report,
    planar_disk,
    poincare_dist,
    rotated_planar_disk,
    scaled_into_ball,
    surface_identities,
    translated_planar_disk,
    vnorm,
)
from diskcheck import weierstrass
from diskcheck.holodisk import BOUNDARY_GRID
from diskcheck.reports import _judge


def rng_for(index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((5678, index)))


def random_surface(rng: np.random.Generator) -> WeierstrassDisk:
    p = rng.normal(size=3) + 1j * rng.normal(size=3)
    q = 0.4 * (rng.normal(size=2) + 1j * rng.normal(size=2))
    return scaled_into_ball(WeierstrassDisk(p, q))


def disk_points(rng: np.random.Generator, n: int, rmax: float = 0.95) -> np.ndarray:
    return rmax * np.sqrt(rng.random(n)) * np.exp(2j * np.pi * rng.random(n))


class TestEvaluation:
    def test_planar_disk_is_the_flat_unit_disk(self):
        w = planar_disk()
        z = 0.3 - 0.4j
        assert np.allclose(w.eval(z), [0.3, 0.4, 0.0], atol=1e-15)
        assert w.conformal_factor(z) == pytest.approx(1.0, rel=1e-15)
        assert w.max_norm() == pytest.approx(1.0, abs=1e-12)

    def test_enneper_value_at_one(self):
        w = enneper_disk()
        assert np.allclose(w.eval(1.0), [1.0 / 3.0, 0.0, 0.5], atol=1e-15)
        assert w.max_norm() == pytest.approx(2.0 / 3.0, abs=1e-10)

    def test_base_point_offset(self):
        w = translated_planar_disk(0.4)
        assert np.allclose(w.eval(0.0), [0.4, 0.0, 0.0], atol=1e-15)
        assert np.allclose(w.eval(1.0), [1.0, 0.0, 0.0], atol=1e-14)

    def test_partials_match_finite_differences(self):
        rng = rng_for(1)
        w = random_surface(rng)
        h = 1e-6
        for z in disk_points(rng, 5, 0.8):
            f_x, f_y = w.partials(z)
            fx_fd = (w.eval(z + h) - w.eval(z - h)) / (2 * h)
            fy_fd = (w.eval(z + 1j * h) - w.eval(z - 1j * h)) / (2 * h)
            assert float(np.max(np.abs(f_x - fx_fd))) < 1e-8
            assert float(np.max(np.abs(f_y - fy_fd))) < 1e-8

    def test_polar_frame_identities(self):
        rng = rng_for(2)
        w = random_surface(rng)
        for z in disk_points(rng, 5, 0.9):
            f_x, f_y = w.partials(z)
            t = np.angle(z)
            f_r = f_x * np.cos(t) + f_y * np.sin(t)
            f_t = abs(z) * (-f_x * np.sin(t) + f_y * np.cos(t))
            lam = w.conformal_factor(z)
            assert float(vnorm(f_r)) == pytest.approx(lam, rel=1e-12)
            assert float(vnorm(f_t)) == pytest.approx(abs(z) * lam, rel=1e-12)
            assert abs(float(np.dot(f_r, f_t))) < 1e-12 * max(lam, 1.0) ** 2


class TestStructuralIdentities:
    def test_null_condition_is_algebraically_exact(self):
        rng = rng_for(3)
        for _ in range(10):
            rep = null_condition_report(random_surface(rng))
            assert rep.margin <= 1e-12
            assert _judge("null_condition", rep.lhs, rep.rhs, rep.margin, {})[2]

    def test_isothermal_identities(self):
        rng = rng_for(4)
        for _ in range(5):
            w = random_surface(rng)
            iso, _, _, _ = surface_identities(w, disk_points(rng, 100))
            assert abs(iso) <= 1e-10

    def test_gauss_map_direction(self):
        n = rotated_planar_disk(0.5).gauss_normal(0.2 + 0.1j)
        assert np.allclose(n, [0.8, 0.0, 0.6], atol=1e-15)
        assert np.allclose(planar_disk().gauss_normal(0.3j), [0.0, 0.0, 1.0], atol=1e-15)
        rng = rng_for(5)
        w = random_surface(rng)
        for z in disk_points(rng, 20):
            nv = w.gauss_normal(z)
            assert float(np.linalg.norm(nv)) == pytest.approx(1.0, rel=1e-12)

    def test_polar_residuals_match_the_angle_form(self):
        # The polar direction is read as z/|z|; cos and sin of arg z give the same residuals to 1e-15.
        rng = rng_for(12)
        for w in [random_surface(rng) for _ in range(5)] + [enneper_disk(), rotated_planar_disk(0.3 + 0.4j)]:
            zs = disk_points(rng, 200)
            f_x, f_y = w.partials(zs)
            lam, r, t = w.conformal_factor(zs), np.abs(zs), np.angle(zs)
            residuals = []
            for cos, sin in ((zs.real / r, zs.imag / r), (np.cos(t), np.sin(t))):
                f_r = f_x * cos[:, None] + f_y * sin[:, None]
                f_t = r[:, None] * (-f_x * sin[:, None] + f_y * cos[:, None])
                residuals.append(np.concatenate([vnorm(f_r) - lam, vnorm(f_t) - r * lam]))
            assert np.max(np.abs(residuals[0] - residuals[1])) <= 1e-15
            cartesian = np.concatenate([vnorm(f_x) - lam, vnorm(f_y) - lam, np.sum(f_x * f_y, axis=-1)])
            angle_iso = max(np.max(np.abs(cartesian)), np.max(np.abs(residuals[1])))
            assert abs(surface_identities(w, zs)[0] - angle_iso) <= 1e-15

    def test_metric_audit_ratio_is_a_quarter(self):
        rng = rng_for(6)
        for w in (planar_disk(), enneper_disk(), random_surface(rng)):
            (ratio,) = surface_identities(w, [0.3 + 0.4j])[3]
            assert ratio == pytest.approx(0.25, rel=1e-12)
        ratios = surface_identities(enneper_disk(), disk_points(rng, 50))[3]
        assert np.allclose(ratios, 0.25, rtol=1e-12)

    def test_gauss_terms_match_the_public_formulas(self):
        rng = rng_for(8)
        w = random_surface(rng)
        zs = disk_points(rng, 40)
        _, gdev, orth, _ = surface_identities(w, zs)
        normals = w.gauss_normal(zs)
        f_x, f_y = w.partials(zs)
        lam = w.conformal_factor(zs)
        assert gdev == float(np.max(np.abs(vnorm(normals) - 1.0)))
        assert gdev <= 1e-12
        assert orth == max(
            float(np.max(np.abs(np.sum(normals * f, axis=-1)) / (1.0 + lam))) for f in (f_x, f_y)
        )
        # The printed Gauss vector is the mirror of the metric normal, so the
        # residual is far from zero on a surface with nonconstant q.
        assert orth > 1e-3

    def test_one_evaluation_of_p_q_and_phi(self, monkeypatch):
        w = random_surface(rng_for(9))
        calls = []
        horner = weierstrass._horner
        monkeypatch.setattr(weierstrass, "_horner", lambda x, c: calls.append(len(x)) or horner(x, c))
        surface_identities(w, disk_points(rng_for(10), 30))
        assert calls == [30] * 5

    def test_antiderivative_matches_quadrature(self):
        rng = rng_for(7)
        w = random_surface(rng)
        for z in (0.7 + 0.2j, -0.5j, 0.99):
            assert antiderivative_quadrature_residual(w, z) < 1e-10


class TestInteriorGrowth:
    def test_translated_disk_oracle(self):
        rep = interior_growth_margin(translated_planar_disk(0.4), 0.5)
        assert rep.margin == pytest.approx(0.05, abs=1e-14)
        assert rep.rhs == pytest.approx(0.9 / 1.2, rel=1e-14)

    def test_centered_planar_equality_on_radii(self):
        w = planar_disk()
        for a in (0.3, -0.7j, 0.5 + 0.5j):
            rep = interior_growth_margin(w, a)
            assert abs(rep.margin) < 1e-12

    def test_repeated_calls_evaluate_the_circle_once(self, monkeypatch):
        w = random_surface(rng_for(30))
        sizes = []
        evaluate = WeierstrassDisk.eval

        def counting_eval(self, z):
            sizes.append(np.size(z))
            return evaluate(self, z)

        monkeypatch.setattr(WeierstrassDisk, "eval", counting_eval)
        for a in (0.1, 0.5j, -0.3 + 0.2j, 0.7):
            interior_growth_margin(w, a)
        assert [size for size in sizes if size > 1] == [BOUNDARY_GRID]

    def test_rejects_surfaces_leaving_the_ball(self):
        big = WeierstrassDisk([4.0], [0.0])
        with pytest.raises(DomainError):
            interior_growth_margin(big, 0.5)
        with pytest.raises(DomainError):
            interior_growth_margin(planar_disk(), 1.0)


class TestDistanceDecreasing:
    def test_planar_anchored_and_diameter_equalities(self):
        w = planar_disk()
        rng = rng_for(8)
        zs = disk_points(rng, 50)
        anchored = distance_decreasing_margins(w, zs, np.zeros(50, dtype=complex))
        assert float(np.max(np.abs(anchored))) < 1e-12
        u = np.exp(0.7j)
        diam = distance_decreasing_margins(w, 0.6 * u * np.ones(5), np.linspace(-0.8, 0.4, 5) * u)
        assert float(np.max(np.abs(diam))) < 1e-12

    def test_planar_general_pair_probe_value(self):
        (margin,) = distance_decreasing_margins(planar_disk(), [0.5], [0.5j])
        assert margin == pytest.approx(0.04498442499009636, rel=1e-9)
        assert margin > 0.04

    def test_enneper_margins_strictly_positive(self):
        rng = rng_for(9)
        w = enneper_disk()
        zs, ws = disk_points(rng, 200), disk_points(rng, 200)
        margins = distance_decreasing_margins(w, zs, ws)
        keep = np.abs(zs - ws) > 1e-3
        assert float(np.min(margins[keep])) > 1e-6
        assert float(np.min(margins)) > -1e-12

    def test_random_surfaces_never_expand(self):
        rng = rng_for(10)
        for _ in range(5):
            w = random_surface(rng)
            margins = distance_decreasing_margins(w, disk_points(rng, 200), disk_points(rng, 200))
            assert float(np.min(margins)) > -1e-10

    def test_interior_requirement(self):
        with pytest.raises(DomainError):
            distance_decreasing_margins(planar_disk(), [1.0], [0.0])


class TestBoundaryMinimal:
    def test_centered_planar_equality(self):
        rng = rng_for(11)
        for _ in range(10):
            zeta = complex(np.exp(2j * np.pi * rng.random()))
            rep = boundary_minimal_margin(planar_disk(), zeta)
            assert abs(rep.margin) < 1e-12

    def test_translated_margins(self):
        rep_in = boundary_minimal_margin(translated_planar_disk(0.4), 1.0)
        assert rep_in.margin == pytest.approx(0.17142857142857137, abs=1e-13)
        rep_orth = boundary_minimal_margin(translated_planar_disk(0.6, orthogonal=True), 1.0)
        assert rep_orth.margin == pytest.approx(0.55, abs=1e-13)

    def test_requires_sphere_contact(self):
        with pytest.raises(DomainError):
            boundary_minimal_margin(enneper_disk(), 1.0)
        with pytest.raises(DomainError):
            boundary_minimal_margin(translated_planar_disk(0.4), 1.0j)


class TestHalfsphereChain:
    def test_planar_corollary_margin(self):
        rep = halfsphere_chain_check(planar_disk())
        # With contact along the whole circle the rhs is the corollary bound c (1 - r0)/(1 + r0) at r0 = 0.
        assert rep.lhs == pytest.approx(1.0, rel=1e-12)
        assert rep.rhs == pytest.approx(0.5, rel=1e-12)
        assert -1e-10 <= rep.margin <= 0.5

    def test_noncontact_surface_checks_link_margins_only(self):
        rep = halfsphere_chain_check(WeierstrassDisk([2.0, 1.0], [0.0, 0.5], halfsphere=True))
        # Without contact the rhs is link (ii)'s c * min boundary |p|, less its grid allowance.
        assert rep.rhs == pytest.approx(0.5 * (1.0 - np.pi / BOUNDARY_GRID), rel=1e-12)
        assert rep.margin > -1e-8

    def test_preconditions(self):
        with pytest.raises(DomainError):
            halfsphere_chain_check(enneper_disk())  # |q| reaches 1 on the boundary
        with pytest.raises(DomainError):
            halfsphere_chain_check(WeierstrassDisk([0.0, 1.0], [0.0], halfsphere=True))

    def test_inverse_lipschitz_planar_factor_two(self):
        rep = inverse_lipschitz_check(planar_disk(), [(0.0, 0.5)])
        # The factor 2 (1 + r0)/(1 - r0) is 2, and the segment's image length 0.5.
        assert rep.lhs == 0.5
        assert rep.rhs == pytest.approx(2.0 * 0.5, rel=1e-14)
        assert rep.margin == pytest.approx(0.5, abs=1e-12)

    def test_inverse_lipschitz_on_random_pairs(self):
        rng = rng_for(12)
        w = translated_planar_disk(0.3, orthogonal=True)
        pairs = list(zip(disk_points(rng, 30), disk_points(rng, 30)))
        rep = inverse_lipschitz_check(w, pairs)
        assert rep.margin > -1e-8
        with pytest.raises(DomainError):
            inverse_lipschitz_check(w, [])


class TestScaling:
    def test_scaled_into_ball_hits_target_norm(self):
        w = scaled_into_ball(enneper_disk())
        assert w.max_norm() == pytest.approx(1.0 / (1.0 + 1e-6), rel=1e-9)
        assert w.max_norm() <= 1.0

    def test_a_surface_at_the_origin_cannot_be_scaled(self):
        for w in (WeierstrassDisk([0.0], [0.0]), WeierstrassDisk([0.0], [0.5], base=(0.0, -0.0, 0.0))):
            with pytest.raises(DomainError, match="origin"):
                scaled_into_ball(w)

    def test_poincare_vs_image_distance_consistency(self):
        # shrinking a surface shrinks image distances, never the parameter side
        rng = rng_for(14)
        w = scaled_into_ball(enneper_disk(), slack=1.0)  # max norm 1/2
        zs, ws = disk_points(rng, 50), disk_points(rng, 50)
        margins = distance_decreasing_margins(w, zs, ws)
        assert float(np.min(margins)) > 0.0
        assert float(np.min(poincare_dist(zs, ws))) >= 0.0

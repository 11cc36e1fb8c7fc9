"""Unit tests for the scalar/vector disk expression tree and its bounds."""

from __future__ import annotations

import math

import numpy as np
import pytest

import diskcheck.holodisk as holodisk
from diskcheck import (
    Add,
    BallAutomorphism,
    Blaschke,
    CMul,
    ComposeAut,
    Const,
    DomainError,
    Embed,
    Identity,
    Mul,
    Poly,
    Vec,
    affine_disk,
    affine_rigidity_check,
    analytic_radial_derivative,
    blaschke_product,
    boundary_bound_origin,
    boundary_bound_shifted,
    certify_in_ball,
    extremal_family_1d,
    growth_margins,
    julia_margins,
    nonreal_parameter_closed_form,
    nonreal_parameter_strictness,
    radial_derivative_estimate,
    schwarz_derivative_bound,
    vnorm,
)
from diskcheck.reports import _judge


def rng_for(index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((4321, index)))


class TestEvaluation:
    def test_blaschke_value_and_derivative(self):
        b = Blaschke(0.5)
        assert complex(b.eval(0.3)[0]) == pytest.approx(16.0 / 23.0, rel=1e-15)
        f = Mul(Identity(), b)
        assert complex(f.deriv(0.3)[0]) == pytest.approx(458.0 / 529.0, rel=1e-14)

    def test_poly_and_const(self):
        p = Poly([0.0, 0.0, 1.0])
        assert complex(p.eval(0.5j)[0]) == pytest.approx(-0.25)
        assert complex(p.deriv(0.5j)[0]) == pytest.approx(1.0j)
        assert complex(Const(0.25 + 0.25j).deriv(0.9)[0]) == 0.0

    def test_vector_nodes(self):
        u = np.asarray([0.6, 0.8j])
        f = affine_disk(u)
        out = f.eval(0.5)
        assert np.allclose(out, 0.5 * u)
        assert f.dim == 2
        g = Vec([Identity(), Poly([0.0, 0.0, 1.0])])
        assert np.allclose(g.eval(0.5), [0.5, 0.25])
        assert np.allclose(g.deriv(0.5), [1.0, 1.0])

    def test_composition_with_automorphism(self):
        aut = BallAutomorphism([0.5, 0.0])
        f = ComposeAut(aut, affine_disk([1.0, 0.0]))
        assert np.allclose(f.eval(0.0), [0.5, 0.0])
        assert float(vnorm(f.eval(0.5))) < 1e-15
        h = 1e-6
        fd = (f.eval(0.3 + h) - f.eval(0.3 - h)) / (2.0 * h)
        assert float(vnorm(fd - f.deriv(0.3))) < 1e-8

    def test_batched_evaluation_shape(self):
        f = Vec([Identity(), Blaschke(0.2)])
        zs = np.asarray([0.1, 0.2j, -0.3])
        assert f.eval(zs).shape == (3, 2)
        assert f.deriv(zs).shape == (3, 2)

    def test_blaschke_parameter_validation(self):
        with pytest.raises(DomainError):
            Blaschke(1.0)
        with pytest.raises(DomainError):
            extremal_family_1d(1.0)
        with pytest.raises(DomainError):
            extremal_family_1d(-0.1)


class TestSerialization:
    @pytest.mark.parametrize(
        "f, text",
        [
            (Const(1 - 0.5j), "const(1.0-0.5j)"),
            (Add(CMul(0.5, Identity()), CMul(0.5j, Poly([0, 0, 1]))), "add(cmul(0.5, z), cmul(0.5j, poly(0.0, 0.0, 1.0)))"),
            (Embed(Mul(Identity(), Blaschke(0.3)), [0.6, 0.8j]), "scale(mul(z, blaschke(0.3)), u=[0.6, 0.8j])"),
            (Vec([Identity(), Poly([0, 0, 1]), Blaschke(0.1)]), "vec(z, poly(0.0, 0.0, 1.0), blaschke(0.1))"),
            (ComposeAut(BallAutomorphism([0.25, 0.25j]), Embed(Identity(), [1, 0])),
             "compose(phi(a=[0.25, 0.25j]), scale(z, u=[1.0, 0.0]))"),
        ],
        ids=["const", "add", "scale", "vec", "compose"],
    )
    def test_text_form_of_each_node(self, f, text):
        assert f.to_text() == text

    def test_family_text_form(self):
        f = extremal_family_1d(0.5)
        assert f.to_text() == "mul(z, blaschke(0.5))"


class TestBoundary:
    def test_sup_norm_of_inner_functions_is_one(self):
        for f in (Identity(), Blaschke(0.3), extremal_family_1d(0.7), affine_disk([0.6, 0.8])):
            assert certify_in_ball(f) == pytest.approx(1.0, abs=1e-12)

    def test_grids_are_cached_and_read_only(self):
        circle = holodisk._boundary_grid(64)
        inside = holodisk._interior_grid(16)
        assert circle is holodisk._boundary_grid(64) and inside is holodisk._interior_grid(16)
        assert circle.tobytes() == np.exp(1j * (2.0 * np.pi * np.arange(64) / 64)).tobytes()
        radii = np.linspace(0.0, 1.0, 16, endpoint=False)
        assert inside.tobytes() == holodisk._polar_grid(radii, 16).tobytes()
        for grid in (circle, inside):
            with pytest.raises(ValueError, match="read-only"):
                grid[0] = 0.5


class TestGrowthBound:
    def test_zero_margin_along_positive_axis_for_family(self):
        f = Embed(extremal_family_1d(0.3), [1.0, 0.0])
        (margin,), _, _ = growth_margins(f, [0.7])
        assert abs(margin) < 1e-14

    def test_equality_for_affine_disks_everywhere(self):
        f = affine_disk([0.6, 0.8j])
        rng = rng_for(1)
        zs = 0.95 * (rng.random(200) * np.exp(2j * np.pi * rng.random(200)))
        assert float(np.max(np.abs(growth_margins(f, zs)[0]))) < 1e-13

    def test_nonnegative_on_random_products(self):
        rng = rng_for(2)
        for _ in range(20):
            cs = 0.7 * (rng.random(2) * np.exp(2j * np.pi * rng.random(2)))
            f = blaschke_product(cs, include_z=True)
            zs = 0.97 * np.sqrt(rng.random(100)) * np.exp(2j * np.pi * rng.random(100))
            assert float(np.min(growth_margins(f, zs)[0])) > -1e-12

    def test_requires_origin_fixing_and_interior_points(self):
        with pytest.raises(DomainError):
            growth_margins(Blaschke(0.5), [0.1])
        with pytest.raises(DomainError):
            growth_margins(Identity(), [1.0])
        with pytest.raises(DomainError):
            growth_margins(Identity(), [0.5, 0.0])
        with pytest.raises(DomainError):
            growth_margins(Identity(), [0.5, complex(math.nan, 0.0)])
        assert all(row.shape == (0,) for row in growth_margins(Identity(), []))

    def test_one_walk_of_f_and_one_jet_at_origin(self, monkeypatch):
        f = Mul(Identity(), Blaschke(0.4))
        calls = []
        for name in ("_eval", "_jet"):
            method = getattr(f, name)
            monkeypatch.setattr(f, name, lambda z, name=name, method=method: calls.append((name, len(z))) or method(z))
        growth, upper, lower = growth_margins(f, [0.5, 0.3j, -0.2])
        assert calls == [("_jet", 1), ("_eval", 3)]
        assert growth.shape == upper.shape == lower.shape == (3,)


class TestTwoSidedBound:
    def test_oracle_values_at_half(self):
        f = Mul(Identity(), Blaschke(0.4))
        _, (upper,), (lower,) = growth_margins(f, [0.5])
        assert float(vnorm(f.eval(0.5))) / 0.5 == pytest.approx(0.75, rel=1e-14)
        assert abs(upper) < 1e-14
        # (A - |z|)/(1 - A|z|) < 0 here, so the lower bound clamps to zero.
        assert lower == pytest.approx(0.75, rel=1e-14)
        assert float(vnorm(f.deriv(0.0))) == pytest.approx(0.4, rel=1e-14)

    def test_scalar_lower_bound_holds_near_origin(self):
        f = Mul(Identity(), Blaschke(0.8))
        rng = rng_for(3)
        zs = 0.3 * np.sqrt(rng.random(100)) * np.exp(2j * np.pi * rng.random(100))
        zs = zs[np.abs(zs) > 1e-3]
        _, upper, lower = growth_margins(f, zs)
        assert float(np.min(upper)) > -1e-12
        assert float(np.min(lower)) > -1e-12


class TestBoundaryDerivativeBounds:
    def test_origin_bound_equalities(self):
        for a in np.linspace(0.0, 0.9, 10):
            f = extremal_family_1d(a)
            rep = boundary_bound_origin(f, 1.0)
            assert abs(rep.margin) < 1e-12
            assert rep.rhs == pytest.approx(2.0 / (1.0 + a), rel=1e-14)

    def test_origin_bound_strict_for_rotated_parameter(self):
        rep = nonreal_parameter_strictness(0.5j)
        assert rep.margin == pytest.approx(0.5 / 1.875, rel=1e-12)
        closed = 2 * 0.5 * (1 - math.cos(math.pi / 2)) * 0.5 / ((1 + 0.25) * 1.5)
        assert nonreal_parameter_closed_form(0.5j) == pytest.approx(closed, rel=1e-14)
        for a in (0.5j, 0.3 + 0.4j, -0.8 + 0.1j, 0.9 * np.exp(0.1j), 0.6):
            assert nonreal_parameter_strictness(a).margin == pytest.approx(nonreal_parameter_closed_form(a), abs=1e-12)

    def test_origin_bound_requires_contact(self):
        with pytest.raises(DomainError):
            boundary_bound_origin(CMul(0.5, Identity()), 1.0)
        with pytest.raises(DomainError):
            boundary_bound_origin(Blaschke(0.5), 1.0)

    def test_shifted_bound_is_tight_for_blaschke_factors(self):
        rep = boundary_bound_shifted(Blaschke(0.5), 1.0)
        assert rep.rhs == pytest.approx(1.0 / 3.0, rel=1e-14)
        assert rep.lhs == pytest.approx(1.0 / 3.0, rel=1e-14)
        assert abs(rep.margin) < 1e-14
        # Embedded in C^2 the factor keeps its norms, so the bound stays tight.
        rep2 = boundary_bound_shifted(Embed(Blaschke(0.5), [1.0, 0.0]), 1.0)
        assert rep2.rhs == pytest.approx(1.0 / 3.0, rel=1e-14)
        assert rep2.margin >= -1e-12

    def test_shifted_bound_on_random_products(self):
        rng = rng_for(4)
        for _ in range(20):
            c = 0.8 * rng.random() * np.exp(2j * np.pi * rng.random())
            rep = boundary_bound_shifted(Blaschke(c), complex(np.exp(2j * np.pi * rng.random())))
            assert rep.margin > -1e-10


class TestSchwarzAndJulia:
    def test_derivative_bound_at_origin(self):
        rep = schwarz_derivative_bound(Blaschke(0.5))
        assert rep.lhs == pytest.approx(0.75, rel=1e-14)
        assert rep.rhs == pytest.approx(math.sqrt(0.75), rel=1e-14)
        assert rep.margin > 0.0

    def test_julia_oracle_for_square(self):
        f = Poly([0.0, 0.0, 1.0])
        assert complex(f.deriv(1.0)[0]) == pytest.approx(2.0, rel=1e-14)
        (margin,) = julia_margins(f, [0.5j])
        assert margin == pytest.approx(5.0 / 3.0, rel=1e-14)

    def test_single_factor_equality_and_product_strictness(self):
        rng = rng_for(5)
        zs = 0.8 * np.sqrt(rng.random(200)) * np.exp(2j * np.pi * rng.random(200))
        single = blaschke_product([0.3 + 0.2j])
        assert float(np.max(np.abs(julia_margins(single, zs)))) < 1e-12
        double = blaschke_product([0.3 + 0.2j, -0.4])
        assert float(np.min(julia_margins(double, zs))) > 1e-7

    def test_julia_preconditions(self):
        with pytest.raises(DomainError):
            julia_margins(affine_disk([1.0, 0.0]), [0.1])
        with pytest.raises(DomainError):
            julia_margins(CMul(-1.0, Identity()), [0.1])
        with pytest.raises(DomainError):
            julia_margins(Identity(), [1.0])


class TestRadialEstimate:
    @pytest.mark.parametrize(
        "build,expected",
        [
            (lambda: Poly([0.0, 0.0, 1.0]), 2.0),
            (lambda: affine_disk([0.6, 0.8]), 1.0),
            (lambda: extremal_family_1d(0.5), 4.0 / 3.0),
        ],
    )
    def test_matches_analytic_value(self, build, expected):
        f = build()
        est, err = radial_derivative_estimate(f, 1.0)
        assert analytic_radial_derivative(f, 1.0) == pytest.approx(expected, rel=1e-12)
        assert abs(est - expected) < max(err, 1e-6)


class TestAffineRigidity:
    @staticmethod
    def count_grids(monkeypatch) -> list:
        """Record each interior grid the check reads; it reads one only when its premises hold."""
        grids, polar_grid = [], holodisk._polar_grid
        monkeypatch.setattr(holodisk, "_polar_grid", lambda *args: grids.append(args) or polar_grid(*args))
        return grids

    def test_affine_disks_pass_with_zero_deviation(self, monkeypatch):
        grids = self.count_grids(monkeypatch)
        rep = affine_rigidity_check(affine_disk([0.6, 0.8j]))
        assert len(grids) == 1
        assert abs(rep.margin) < 1e-12

    def test_expanding_maps_are_reported_inapplicable(self, monkeypatch):
        grids = self.count_grids(monkeypatch)
        for f in (extremal_family_1d(0.5), Poly([0.0, 0.0, 1.0]), Blaschke(0.3)):
            rep = affine_rigidity_check(f)
            assert rep.lhs == rep.margin == 0.0
            assert _judge("affine_rigidity", rep.lhs, rep.rhs, rep.margin, {})[2]
        assert grids == []


class TestNegativeControls:
    """F = (1 + eps) z e1 in C^3 leaves the ball by eps, and each check it violates says so.

    With A = ||F'(0)|| = 1 + eps and ||F(z)|| = (1 + eps)|z|, the growth margin is
    -r^2 eps (2 + eps)/(1 + r(1 + eps)) and the two-sided upper margin
    -r eps (2 + eps)/(1 + r(1 + eps)) at |z| = r, and the Schwarz derivative margin is -eps.
    """

    RADII = np.linspace(0.05, 0.95, 50)

    @staticmethod
    def expanded(eps):
        return CMul(1.0 + eps, Embed(Identity(), [1.0, 0.0, 0.0]))

    @pytest.mark.parametrize("eps", [1e-3, 1e-6])
    def test_growth_and_upper_margins_match_their_closed_forms_and_fail(self, eps):
        r = self.RADII
        growth, upper, _ = growth_margins(self.expanded(eps), r)
        denom = 1.0 + r * (1.0 + eps)
        assert np.max(np.abs(growth + r * r * eps * (2.0 + eps) / denom)) <= 5e-16
        assert np.max(np.abs(upper + r * eps * (2.0 + eps) / denom)) <= 5e-16
        for name, margins in (("growth_margin", growth), ("two_sided_upper", upper)):
            assert not np.any(_judge(name, 0.0, 0.0, margins, {})[2]), name

    @pytest.mark.parametrize("eps", [1e-3, 1e-6])
    def test_schwarz_derivative_margin_is_minus_eps_and_fails(self, eps):
        rep = schwarz_derivative_bound(self.expanded(eps))
        assert rep.margin == pytest.approx(-eps, abs=5e-16)
        assert not _judge("schwarz_derivative", rep.lhs, rep.rhs, rep.margin, {})[2]

    @pytest.mark.parametrize("eps", [1e-3, 1e-6])
    def test_origin_boundary_bound_refuses_a_point_off_the_sphere(self, eps):
        with pytest.raises(DomainError, match="not a boundary-contact point"):
            boundary_bound_origin(self.expanded(eps), 1.0)


class TestExtremalFamily:
    def test_family_normalization(self):
        for a in (0.0, 0.3, 0.9):
            f = extremal_family_1d(a)
            assert complex(f.eval(1.0)[0]) == pytest.approx(1.0, abs=1e-14)
            assert complex(f.deriv(1.0)[0]) == pytest.approx(2.0 / (1.0 + a), rel=1e-14)
            assert complex(f.deriv(0.0)[0]) == pytest.approx(a, abs=1e-14)
        assert extremal_family_1d(0.0).to_text() == "mul(z, blaschke(0.0))"

    def test_blaschke_product_fixes_one(self):
        f = blaschke_product([0.3 + 0.2j, -0.1j], include_z=True)
        assert complex(f.eval(1.0)[0]) == pytest.approx(1.0, abs=1e-13)
        with pytest.raises(DomainError):
            blaschke_product([], include_z=False)

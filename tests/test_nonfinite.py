"""Non-finite values: reductions must keep a NaN, and domain guards must refuse one."""

from __future__ import annotations

import math

import numpy as np
import pytest

from diskcheck import harness
from diskcheck.ballgeom import (
    BallAutomorphism,
    cayley_klein_dist,
    poincare_dist,
    pseudo_hyperbolic_quotient,
    vnorm,
)
from diskcheck.harness import SuiteConfig, run_suite
from diskcheck import holodisk, weierstrass
from diskcheck.holodisk import (
    Add,
    Blaschke,
    CMul,
    Const,
    Embed,
    Identity,
    Mul,
    Poly,
    affine_disk,
    affine_rigidity_check,
    blaschke_product,
    boundary_bound_origin,
    boundary_bound_shifted,
    growth_margins,
    julia_margins,
    schwarz_derivative_bound,
)
from diskcheck.reports import DomainError, _judge
from diskcheck.weierstrass import (
    WeierstrassDisk,
    distance_decreasing_margins,
    halfsphere_chain_check,
    interior_growth_margin,
    planar_disk,
    surface_identities,
)

NAN = math.nan


class TestNanReachesTheVerdict:
    """A NaN in any term of a worst-of reduction, not only the first, fails the check."""

    def test_halfsphere_chain_link(self, monkeypatch):
        w = WeierstrassDisk([1.0], [0.0, 0.5], halfsphere=True)
        factor = weierstrass._conformal_factor
        # min_lambda, the lhs, feeds the second link.
        monkeypatch.setattr(weierstrass, "_conformal_factor",
                            lambda pv, qv: np.where(np.arange(len(pv)) == 7, NAN, factor(pv, qv)))
        rep = halfsphere_chain_check(w)
        assert math.isnan(rep.lhs)
        assert math.isnan(rep.margin) and not _judge("halfsphere_chain", rep.lhs, rep.rhs, rep.margin, {})[2]

    def test_surface_identities_isothermal(self, monkeypatch):
        w = WeierstrassDisk([1.0, 0.2], [0.1, 0.3])
        phi_values = w.phi_values

        def broken(z):
            phi = phi_values(z)
            phi.imag[1] = NAN  # F_y = -Im Phi at the second point
            return phi

        monkeypatch.setattr(w, "phi_values", broken)
        iso, *_ = surface_identities(w, np.asarray([0.1 + 0.2j, 0.3 - 0.1j, 0.5j]))
        assert math.isnan(iso)

    def test_extremal_family_values(self, monkeypatch):
        family = harness.extremal_family_1d

        def broken(a):
            f = family(a)
            jet = f._jet
            # f'(0) is NaN; the suite reads it from the same walk as f(1) and f'(1).
            f._jet = lambda z: (jet(z)[0], np.where(z[:, None] == 0, complex(NAN), jet(z)[1]))
            return f

        monkeypatch.setattr(harness, "extremal_family_1d", broken)
        slot = run_suite(SuiteConfig(suites=("holo",), dimensions=(1,), samples=8)).suites["holo"]["checks"]
        assert slot["extremal_family_values"]["passed"] is False
        assert math.isnan(slot["extremal_family_values"]["worst_margin"])

    def test_distance_equality_planar(self, monkeypatch):
        margins = harness.distance_decreasing_margins

        def broken(w, zs, ws):
            out = margins(w, zs, ws)
            # The diameter pairs, the second term, are the ones whose ends lie on one line
            # through 0, the origin left out: z conj(w) is real to rounding.
            if np.any(ws) and np.all(np.abs((zs * np.conj(ws)).imag) <= 1e-12):
                out = np.where(np.arange(len(out)) == 2, NAN, out)
            return out

        monkeypatch.setattr(harness, "distance_decreasing_margins", broken)
        checks = run_suite(SuiteConfig(suites=("minimal",), samples=8)).suites["minimal"]["checks"]
        assert checks["distance_decreasing"]["passed"] is True
        assert checks["distance_equality_planar"]["passed"] is False
        assert math.isnan(checks["distance_equality_planar"]["worst_margin"])

    def test_opnorm_anchor(self, monkeypatch):
        oracle = BallAutomorphism.opnorm_oracle

        def broken(self, w):
            # Only the unit anchor a / ||a||, the second of three, has norm 1.
            return np.where(np.isclose(vnorm(w), 1.0), NAN, oracle(self, w))

        monkeypatch.setattr(BallAutomorphism, "opnorm_oracle", broken)
        checks = run_suite(SuiteConfig(suites=("ball",), dimensions=(2,), samples=4)).suites["ball"]["checks"]
        assert checks["opnorm_anchor"]["passed"] is False
        assert math.isnan(checks["opnorm_anchor"]["worst_margin"])
        assert checks["opnorm_global_bound"]["passed"] is True

    def test_affine_rigidity_premise(self, monkeypatch):
        # An affine map passes; with a NaN premise it must fail, not read as "not applicable".
        f = affine_disk([0.6, 0.8])
        rep = affine_rigidity_check(f)
        assert _judge("affine_rigidity", rep.lhs, rep.rhs, rep.margin, {})[2]
        norm_jet = holodisk._norm_jet
        monkeypatch.setattr(holodisk, "_norm_jet", lambda f, points: ([NAN, 1.0], norm_jet(f, points)[1]))
        rep = affine_rigidity_check(f)
        assert math.isnan(rep.margin) and not _judge("affine_rigidity", rep.lhs, rep.rhs, rep.margin, {})[2]

    def test_opnorm_findings(self, monkeypatch):
        formula = BallAutomorphism.opnorm_formula
        monkeypatch.setattr(BallAutomorphism, "opnorm_formula", lambda self, w: formula(self, w) * NAN)
        findings = run_suite(SuiteConfig(suites=("ball",), dimensions=(1, 2), samples=4)).suites["ball"]["findings"]
        for key in ("max_underestimate", "max_overestimate", "origin_deviation_m1"):
            assert math.isnan(findings[f"opnorm_formula_{key}"])


@pytest.mark.parametrize(
    "call",
    [
        lambda: BallAutomorphism([NAN]),
        lambda: BallAutomorphism([0.5]).apply([NAN]),
        lambda: poincare_dist(NAN, 0),
        lambda: cayley_klein_dist([NAN], [0.0]),
        lambda: pseudo_hyperbolic_quotient([NAN], [0.0]),
        lambda: Blaschke(NAN),
        lambda: WeierstrassDisk([1.0], [0.0, NAN], halfsphere=True),
        lambda: WeierstrassDisk([NAN], [0.0], halfsphere=True),
        lambda: WeierstrassDisk([1.0], [0.0, NAN]),
        lambda: WeierstrassDisk([1.0], [0.0], base=(0.0, math.inf, 0.0)),
        # Finite p and q, but p q^2 overflows: every evaluation of this surface would be NaN.
        lambda: WeierstrassDisk([1e300], [0.0, 1e10]),
        lambda: Poly([0, NAN]),
        lambda: Const(NAN),
        lambda: CMul(math.inf, Identity()),
        lambda: Embed(Identity(), [1.0, NAN]),
        lambda: growth_margins(Embed(Identity(), [0.6, 0.8]), [0.5, NAN]),
        lambda: julia_margins(blaschke_product([0.3], include_z=True), [NAN]),
        lambda: boundary_bound_origin(Identity(), complex(NAN, 0.0)),
        lambda: interior_growth_margin(planar_disk(), complex(0.1, NAN)),
        lambda: distance_decreasing_margins(planar_disk(), [0.1], [NAN]),
    ],
    ids=[
        "automorphism", "apply", "poincare_dist", "cayley_klein_dist", "quotient", "blaschke",
        "halfsphere", "surface_p", "surface_q", "surface_base", "surface_phi", "poly", "const", "cmul", "embed",
        "growth_margins", "julia_margins", "boundary_bound_origin", "interior_growth_margin", "distance_decreasing_margins",
    ],
)
def test_domain_guards_refuse_non_finite_input(call):
    with pytest.raises(DomainError):
        call()


def test_interior_growth_refuses_a_nan_max_norm():
    # Finite Weierstrass components whose boundary values overflow: max_norm() is NaN,
    # which is not inside the ball.
    with np.errstate(invalid="ignore", over="ignore"):
        w = WeierstrassDisk([8.9e307] * 10, [1.0])
        assert all(np.isfinite(c).all() for c in w.phi)
        assert math.isnan(w.max_norm())
        with pytest.raises(DomainError, match="leaves the unit ball"):
            interior_growth_margin(w, 0.3)


# A disk map that overflows to NaN at the origin only: F(0) = 0 * inf + 0 and F(1) = 1.
NAN_AT_ORIGIN = Add(Identity(), CMul(0.0, Mul(Poly([1e308, -1e308]), Poly([10, -10]))))


def _nan_derivative_at_one():
    f = Identity()
    f._jet = lambda z: (np.ones((1, 1), dtype=complex), np.full((1, 1), complex(NAN, 0.0)))
    return f


# Each map overflows to NaN in one premise of a boundary check; the guard must refuse it,
# where a NaN compared in the "outside" form would let it through to a margin.
@pytest.mark.parametrize(
    "call, message",
    [
        # F(0) = 0 * inf, while F(1) = 1.
        (lambda: growth_margins(NAN_AT_ORIGIN, [0.5]),
         "must fix the origin"),
        # F(1) = 0 * inf; unguarded, this read as the margin -2, a false counterexample.
        (lambda: boundary_bound_origin(CMul(0.0, Poly([1e308, 1e308])), 1), "not a boundary-contact point"),
        # f(1) = 0 * inf + 1; unguarded, every margin read 0.
        (lambda: julia_margins(Add(CMul(0.0, Poly([1e308, 1e308])), Identity()), [0.5, 0.3j, -0.2]),
         "must fix 1"),
        # f(1) = 1, but f'(1) = 1 + 0 * (inf - inf).
        (lambda: julia_margins(Add(Identity(), CMul(0.0, Poly([0, 0, 1e308, -1e308]))), [0.5]), "must be real"),
        (lambda: julia_margins(_nan_derivative_at_one(), [0.5]), "must be positive"),
        # F(0) = 0 * inf, while F(1) = 1: unguarded, the shifted bound and its margin read NaN.
        (lambda: boundary_bound_shifted(NAN_AT_ORIGIN, 1), "is not below 1"),
        # Unguarded, the bound read NaN as sqrt(max(1 - NaN, 0)).
        (lambda: schwarz_derivative_bound(NAN_AT_ORIGIN), "into the closed ball"),
    ],
    ids=["zero_at_origin", "boundary_contact", "julia_fixes_one", "julia_real_derivative", "julia_positive_derivative",
         "shifted_base_norm", "schwarz_base_norm"],
)
def test_premise_guards_refuse_nan(call, message):
    with np.errstate(invalid="ignore", over="ignore"), pytest.raises(DomainError, match=message):
        call()

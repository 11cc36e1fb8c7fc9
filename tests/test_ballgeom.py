"""Unit tests for ball automorphisms, derivative norms, and distances."""

from __future__ import annotations

import math

import numpy as np
import pytest

from diskcheck import (
    BallAutomorphism,
    DomainError,
    cayley_klein_dist,
    inner,
    poincare_dist,
    pseudo_hyperbolic_quotient,
    vnorm,
)


def rng_for(index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((1234, index)))


def ball_point(rng: np.random.Generator, m: int, radius: float = 0.95) -> np.ndarray:
    v = rng.normal(size=m) + 1j * rng.normal(size=m)
    v /= np.linalg.norm(v)
    return radius * rng.random() ** (1.0 / (2 * m)) * v


class TestPointMap:
    def test_one_dimensional_value(self):
        aut = BallAutomorphism([0.5])
        out = aut.apply(np.asarray([0.25 + 0j]))
        assert out[0] == pytest.approx(2.0 / 7.0, abs=1e-15)

    def test_origin_and_fixed_point(self):
        for m, index in ((1, 0), (2, 1), (3, 2), (5, 3)):
            a = ball_point(rng_for(index), m, 0.9)
            aut = BallAutomorphism(a)
            assert float(vnorm(aut.apply(np.zeros(m)) - a)) < 1e-15
            assert float(vnorm(aut.apply(a))) < 1e-15

    def test_zero_parameter_is_negation(self):
        aut = BallAutomorphism(np.zeros(3))
        w = ball_point(rng_for(7), 3)
        assert float(vnorm(aut.apply(w) + w)) == 0.0

    def test_subnormal_parameter_norm_is_finite(self):
        # ||a||^2 = 1e-320 is subnormal; phi_a(w) is a - w to double precision.
        aut = BallAutomorphism([1e-160, 0.0])
        w = np.asarray([0.5, 0.1j])
        assert np.array_equal(aut.apply(w), aut.a - w)
        value, dv = aut._apply_and_differential(w, np.asarray([1.0, 0.0]))
        assert np.array_equal(value, aut.a - w)
        assert np.array_equal(dv, np.asarray([-1.0, 0.0]))

    def test_involution_and_norm_identity(self):
        for index in range(40):
            m = 1 + index % 4
            rng = rng_for(100 + index)
            aut = BallAutomorphism(ball_point(rng, m, 0.9))
            w = ball_point(rng, m, 0.99)
            assert float(vnorm(aut.apply(aut.apply(w)) - w)) < 1e-12
            assert float(aut.norm_identity_residual(w)) < 1e-12

    def test_boundary_preserved_and_batched(self):
        rng = rng_for(8)
        aut = BallAutomorphism(ball_point(rng, 2, 0.8))
        ws = rng.normal(size=(50, 2)) + 1j * rng.normal(size=(50, 2))
        ws /= vnorm(ws)[:, None]
        assert np.max(np.abs(vnorm(aut.apply(ws)) - 1.0)) < 1e-12

    def test_rejects_outside_closed_ball(self):
        aut = BallAutomorphism([0.5, 0.0])
        with pytest.raises(DomainError):
            aut.apply(np.asarray([1.2, 0.0], dtype=complex))
        with pytest.raises(DomainError):
            BallAutomorphism([1.0, 0.0])
        with pytest.raises(DomainError):
            aut.apply(np.asarray([0.1, 0.1, 0.1], dtype=complex))

    def test_rejects_empty_parameter(self):
        with pytest.raises(DomainError):
            BallAutomorphism([])

    def test_tiny_parameter_keeps_its_norm(self):
        # ||a||^2 = 1e-320 is subnormal; r is rescaled, not the root of it.
        aut = BallAutomorphism([1e-160, 0.0])
        assert aut.r == 1e-160
        assert np.array_equal(aut.e, [1.0, 0.0])
        w = np.asarray([0.5, 0.1j])
        assert abs(aut.opnorm_formula(w) - aut.opnorm_oracle(w)) <= 1e-15
        stacked = BallAutomorphism([[1e-160, 0.0], [0.3, 0.1j], [0.0, 0.0]])
        assert stacked.r.tolist() == [1e-160, BallAutomorphism([0.3, 0.1j]).r, 0.0]

    def test_rejects_deeper_stacks_and_outside_rows(self):
        with pytest.raises(DomainError):
            BallAutomorphism(np.zeros((2, 2, 2)))
        with pytest.raises(DomainError):
            BallAutomorphism([[0.5, 0.0], [1.0, 0.0]])
        with pytest.raises(DomainError):
            BallAutomorphism(np.zeros((0, 2)))


class TestStackedParameters:
    """A (K, m) stack evaluates K automorphisms with the bits of K one-point calls."""

    @pytest.mark.parametrize("m", [1, 2, 3, 8])
    def test_stack_equals_one_point_calls_bitwise(self, m):
        rng = rng_for(600 + m)
        count = 200
        a = np.stack([ball_point(rng, m, 0.9) for _ in range(count)])
        a[0] = 0.0
        a[1] = 0.0
        a[1, 0] = 1e-160
        sphere = rng.normal(size=(count, m)) + 1j * rng.normal(size=(count, m))
        sphere /= vnorm(sphere)[:, None]
        inside = np.stack([ball_point(rng, m, 0.999) for _ in range(count)])
        v = rng.normal(size=(count, m)) + 1j * rng.normal(size=(count, m))
        stacked = BallAutomorphism(a)
        single = [BallAutomorphism(row) for row in a]
        assert np.array_equal(stacked.r, [aut.r for aut in single])
        assert np.array_equal(stacked.s, [aut.s for aut in single])
        assert np.array_equal(stacked.opnorm_global_bound(), [aut.opnorm_global_bound() for aut in single])
        for w in (inside, sphere, a, np.zeros_like(a)):
            for method, args in (
                ("apply", (w,)),
                ("differential", (w, v)),
                ("opnorm_formula", (w,)),
                ("opnorm_oracle", (w,)),
                ("norm_identity_residual", (w,)),
            ):
                expected = [getattr(aut, method)(*(x[k] for x in args)) for k, aut in enumerate(single)]
                assert np.array_equal(getattr(stacked, method)(*args), np.asarray(expected)), method


class TestDifferential:
    def test_matches_finite_differences(self):
        h = 1e-6
        for index in range(20):
            m = 1 + index % 3
            rng = rng_for(200 + index)
            aut = BallAutomorphism(ball_point(rng, m, 0.85))
            w = ball_point(rng, m, 0.7)
            v = rng.normal(size=m) + 1j * rng.normal(size=m)
            v /= np.linalg.norm(v)
            fd = (aut.apply(w + h * v) - aut.apply(w - h * v)) / (2.0 * h)
            exact = aut.differential(w, v)
            assert float(vnorm(fd - exact)) / (1.0 + float(vnorm(exact))) < 1e-8

    def test_opnorm_oracle_anchor_values(self):
        aut = BallAutomorphism([0.5, 0.0])
        assert aut.opnorm_oracle(np.asarray([0.5, 0.0], dtype=complex)) == pytest.approx(4.0 / 3.0, rel=1e-12)
        assert aut.opnorm_oracle(np.asarray([1.0, 0.0], dtype=complex)) == pytest.approx(3.0, rel=1e-12)
        assert aut.opnorm_oracle(np.zeros(2)) == pytest.approx(math.sqrt(0.75), rel=1e-12)

    def test_formula_agrees_at_anchors(self):
        for index in range(30):
            m = 1 + index % 3
            rng = rng_for(300 + index)
            a = ball_point(rng, m, 0.9)
            if float(vnorm(a)) < 0.05:
                a = 0.5 * a / float(vnorm(a))
            aut = BallAutomorphism(a)
            anchors = [a, a / float(vnorm(a))]
            if m >= 2:
                anchors.append(np.zeros(m))
            for w in anchors:
                formula = float(aut.opnorm_formula(w))
                oracle = float(aut.opnorm_oracle(w))
                assert abs(formula - oracle) / oracle < 1e-10

    def test_formula_origin_mismatch_in_dimension_one(self):
        aut = BallAutomorphism([0.5])
        zero = np.zeros(1)
        assert float(aut.opnorm_formula(zero)) == pytest.approx(math.sqrt(0.75), rel=1e-14)
        assert float(aut.opnorm_oracle(zero)) == pytest.approx(0.75, rel=1e-12)

    def test_global_bound_dominates_oracle(self):
        for index in range(15):
            m = 1 + index % 3
            rng = rng_for(400 + index)
            aut = BallAutomorphism(ball_point(rng, m, 0.9))
            ws = np.stack([ball_point(rng, m, 0.999) for _ in range(40)])
            assert float(np.max(aut.opnorm_oracle(ws))) <= aut.opnorm_global_bound() + 1e-8


class TestQuotient:
    def test_dominates_moved_norm(self):
        for index in range(30):
            m = 1 + index % 4
            rng = rng_for(500 + index)
            a = ball_point(rng, m, 0.9)
            w = ball_point(rng, m, 0.99)
            aut = BallAutomorphism(a)
            assert float(pseudo_hyperbolic_quotient(a, w)) >= float(vnorm(aut.apply(w))) - 1e-12

    def test_equality_in_dimension_one_and_collinear(self):
        rng = rng_for(9)
        a = ball_point(rng, 1, 0.8)
        w = ball_point(rng, 1, 0.9)
        assert float(pseudo_hyperbolic_quotient(a, w)) == pytest.approx(
            float(vnorm(BallAutomorphism(a).apply(w))), abs=1e-14
        )
        a3 = ball_point(rng, 3, 0.8)
        w3 = (-0.7 + 0j) * a3 / float(vnorm(a3)) * 0.85
        assert float(pseudo_hyperbolic_quotient(a3, w3)) == pytest.approx(
            float(vnorm(BallAutomorphism(a3).apply(w3))), abs=1e-13
        )

    def test_strict_gap_for_generic_higher_dimensional_points(self):
        a = np.asarray([0.6, 0.0], dtype=complex)
        w = np.asarray([0.0, 0.5], dtype=complex)
        gap = float(pseudo_hyperbolic_quotient(a, w)) - float(vnorm(BallAutomorphism(a).apply(w)))
        assert gap > 1e-3


class TestDistances:
    def test_poincare_closed_forms(self):
        assert poincare_dist(0.6, 0.0) == pytest.approx(math.log(2.0), rel=1e-14)
        assert poincare_dist(0.5, 0.0) == pytest.approx(0.5493061443340549, rel=1e-14)
        assert poincare_dist(0.3 + 0.1j, 0.3 + 0.1j) == 0.0

    def test_poincare_moebius_invariance(self):
        rng = rng_for(10)
        for _ in range(20):
            z1 = complex(ball_point(rng, 1, 0.9)[0])
            z2 = complex(ball_point(rng, 1, 0.9)[0])
            c = complex(ball_point(rng, 1, 0.7)[0])
            move = lambda z: (z + c) / (1.0 + c.conjugate() * z)
            assert poincare_dist(z1, z2) == pytest.approx(
                poincare_dist(move(z1), move(z2)), abs=1e-12
            )

    def test_cayley_klein_radial_matches_artanh(self):
        rng = rng_for(11)
        for m in (1, 2, 3):
            x = 0.9 * rng.random() * np.eye(m)[0]
            assert cayley_klein_dist(np.zeros(m), x) == pytest.approx(
                math.atanh(float(vnorm(x))), rel=1e-12
            )

    def test_cayley_klein_matches_mpmath_on_close_and_far_pairs(self):
        import mpmath

        def oracle(x, y):
            with mpmath.workdps(50):
                x, y = [mpmath.mpf(float(t)) for t in x], [mpmath.mpf(float(t)) for t in y]
                dot = lambda u, v: mpmath.fsum(a * b for a, b in zip(u, v))
                return mpmath.acosh((1 - dot(x, y)) / mpmath.sqrt((1 - dot(x, x)) * (1 - dot(y, y))))

        rng = rng_for(12)
        for separation in (1e-9, 1e-6, 1e-3, 1e-1, 0.35):
            for index in range(20):
                m = 1 + index % 3
                x = rng.normal(size=m)
                x *= 0.6 * rng.random() / np.linalg.norm(x)
                step = rng.normal(size=m)
                y = x + separation * step / np.linalg.norm(step)
                expected = oracle(x, y)
                assert abs(cayley_klein_dist(x, y) - expected) <= 4e-15 * expected, (separation, x, y)

    def test_cayley_klein_one_pair_calls_give_the_batch_bits(self):
        # Squared with ``**``, 6 of these 20,000 pairs differed in the last bit:
        # on the numpy scalars of a one-pair call ``**`` rounds like C pow.
        rng = rng_for(13)
        for m in (1, 2, 3, 8):
            u = rng.normal(size=(5000, m))
            u /= np.linalg.norm(u, axis=1)[:, None]
            s, t = (-0.95 + 1.9 * rng.random((2, 5000)))[:, :, None]
            x, y = s * u, t * u
            one_pair = [cayley_klein_dist(p, q) for p, q in zip(x, y)]
            assert np.array(one_pair).tobytes() == cayley_klein_dist(x, y).tobytes(), m

    def test_cayley_klein_on_diameters_matches_poincare(self):
        u = np.asarray([3.0, 4.0]) / 5.0
        assert cayley_klein_dist(0.5 * u, -0.25 * u) == pytest.approx(
            poincare_dist(0.5, -0.25), abs=1e-13
        )

    def test_off_diameter_pair_differs_from_disk_distance(self):
        ck = cayley_klein_dist(np.asarray([0.5, 0.0]), np.asarray([0.0, 0.5]))
        pd = poincare_dist(0.5, 0.5j)
        assert ck == pytest.approx(math.acosh(4.0 / 3.0), rel=1e-13)
        assert pd == pytest.approx(math.atanh(math.sqrt(8.0 / 17.0)), rel=1e-13)
        assert pd - ck > 0.04

    def test_interior_requirement(self):
        with pytest.raises(DomainError):
            poincare_dist(1.0, 0.0)
        with pytest.raises(DomainError):
            cayley_klein_dist(np.asarray([1.0, 0.0]), np.zeros(2))


class TestHermitianHelpers:
    def test_inner_is_linear_in_first_argument(self):
        x = np.asarray([1.0 + 2.0j, 0.5])
        y = np.asarray([0.25j, 1.0 - 1.0j])
        assert inner(2j * x, y) == pytest.approx(2j * inner(x, y))
        assert inner(y, x) == pytest.approx(complex(inner(x, y)).conjugate())

    def test_vnorm_batches(self):
        xs = np.asarray([[3.0, 4.0], [0.0, 1.0]], dtype=complex)
        assert np.allclose(vnorm(xs), [5.0, 1.0])
        # Integer squares and sums stay integers; only the root is a float.
        for ints in ([[3, 4], [0, 1]], [[3], [1]], [[1] * 9, [2] * 9]):
            expected = np.sqrt(np.sum(np.square(ints), axis=-1)).tolist()
            for layout in (np.ascontiguousarray, np.asfortranarray):
                assert vnorm(layout(ints)).tolist() == expected

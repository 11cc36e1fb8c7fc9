"""Component-major sample batches give the values of row-major ones, bit for bit.

A batch of N points in C^m is stored as (m, N) rows and handed out as its
(N, m) transpose.  The references in ``oracles`` build every batch row-major
instead; each value here must equal its reference exactly (``np.array_equal``),
at one point as well as many.
"""

from __future__ import annotations

import numpy as np
import pytest
from numpy.polynomial import polynomial as P

from diskcheck import (
    BallAutomorphism,
    Poly,
    Vec,
    antiderivative_quadrature_residual,
    cayley_klein_dist,
    distance_decreasing_margins,
    holo_corpus,
    inner,
    poincare_dist,
    pseudo_hyperbolic_quotient,
    surface_identities,
    vnorm,
    weierstrass_corpus,
)
from diskcheck.weierstrass import _PANEL_NODES, _PANEL_WEIGHTS
from oracles import (
    row_major_eval,
    row_major_jet,
    row_major_phi,
    row_major_surface_eval,
    row_major_surface_identities,
)

POINT_COUNTS = (1, 2, 3, 50)


def disk_points(seed: int, n: int, rmax: float = 0.97) -> np.ndarray:
    rng = np.random.default_rng(np.random.SeedSequence((2468, seed)))
    return rmax * np.sqrt(rng.random(n)) * np.exp(2j * np.pi * rng.random(n))


def assert_identical(value, reference) -> None:
    assert np.shape(value) == np.shape(reference)
    assert np.array_equal(value, reference, equal_nan=True)


@pytest.mark.parametrize("m", [1, 2, 3, 8])
def test_holo_corpus_values_and_jets(m):
    for index, member in enumerate(holo_corpus(0, m, 60)):
        for n in POINT_COUNTS:
            z = disk_points(100 * m + index, n)
            value = member.disk._eval(z)
            assert_identical(value, row_major_eval(member.disk, z))
            assert_identical(vnorm(value), vnorm(row_major_eval(member.disk, z)))
            for part, reference in zip(member.disk._jet(z), row_major_jet(member.disk, z)):
                assert_identical(part, reference)


def test_ball_maps_of_a_batch_at_m_8():
    # Public entry points given an (N, m) view of component-major storage sum as for C order.
    rng = np.random.default_rng(8)
    a = 0.3 * (rng.normal(size=8) + 1j * rng.normal(size=8)) / np.sqrt(8)
    aut = BallAutomorphism(a)
    for index, member in enumerate(holo_corpus(0, 8, 60)):
        z = disk_points(300 + index, 50)
        value, reference = member.disk.eval(z), row_major_eval(member.disk, z)
        deriv, deriv_reference = member.disk.deriv(z), row_major_jet(member.disk, z)[1]
        assert_identical(aut.apply(value), aut.apply(reference))
        assert_identical(aut.differential(value, deriv), aut.differential(reference, deriv_reference))
        assert_identical(inner(value, a), inner(reference, a))
        assert_identical(pseudo_hyperbolic_quotient(a, value), pseudo_hyperbolic_quotient(a, reference))


@pytest.mark.parametrize("count", [9, 17])
def test_vec_of_many_polys(count):
    rng = np.random.default_rng(count)
    rows = [Poly(rng.normal(size=4) + 1j * rng.normal(size=4)) for _ in range(count)]
    f = Vec(rows)
    for n in POINT_COUNTS:
        z = disk_points(count + n, n)
        assert_identical(f._eval(z), row_major_eval(f, z))
        for part, reference in zip(f._jet(z), row_major_jet(f, z)):
            assert_identical(part, reference)
        assert_identical(vnorm(f._eval(z)), vnorm(row_major_eval(f, z)))


def test_weierstrass_corpus():
    for index, member in enumerate(weierstrass_corpus(0, 24)):
        w = member.surface
        for n in POINT_COUNTS:
            zs, ws = disk_points(index, n), disk_points(1000 + index, n)
            assert_identical(w.phi_values(zs), row_major_phi(w, zs))
            assert_identical(w.eval(zs), row_major_surface_eval(w, zs))
            phi = row_major_phi(w, zs)
            for part, reference in zip(w.partials(zs), (np.real(phi), -np.imag(phi))):
                assert_identical(part, reference)
            for value, reference in zip(surface_identities(w, zs), row_major_surface_identities(w, zs)):
                assert_identical(value, reference)
            reference = poincare_dist(zs, ws) - cayley_klein_dist(
                row_major_surface_eval(w, zs), row_major_surface_eval(w, ws)
            )
            assert_identical(distance_decreasing_margins(w, zs, ws), reference)
        z = complex(disk_points(2000 + index, 1)[0])
        quad = z * np.tensordot(_PANEL_WEIGHTS, row_major_phi(w, _PANEL_NODES * z), axes=(0, 0))
        exact = np.asarray([P.polyval(z, c) for c in w.antiderivative])
        assert antiderivative_quadrature_residual(w, z) == float(np.max(np.abs(exact - quad)))


def test_surface_identities_with_the_origin_in_the_batch():
    # Re z/|z| and Im z/|z| are NaN at these signed zeros: each must stay out of the polar residuals.
    zs = np.array([0j, complex(-0.0, 0.0), complex(-0.0, -0.0), 0.5 + 0.1j])
    for member in weierstrass_corpus(0, 24):
        for value, reference in zip(surface_identities(member.surface, zs),
                                    row_major_surface_identities(member.surface, zs)):
            assert_identical(value, reference)


@pytest.mark.parametrize("m", list(range(1, 21)) + [64, 128, 129, 300])
@pytest.mark.parametrize("kind", [float, complex])
def test_vnorm_sums_in_numpys_contiguous_order(m, kind):
    rng = np.random.default_rng(m)
    # Magnitudes spread over many binades, so that a different summation order shows.
    x = rng.normal(size=(500, m)) * np.exp(5.0 * rng.normal(size=(500, m)))
    if kind is complex:
        x = x + 1j * rng.normal(size=(500, m))
    reference = np.sqrt(np.add.reduce(np.abs(np.ascontiguousarray(x)) ** 2, axis=-1))
    for layout in (np.ascontiguousarray(x), np.asfortranarray(x)):
        assert_identical(vnorm(layout), reference)
    assert_identical(vnorm(np.asfortranarray(x)[::2]), reference[::2])
    stacked = np.stack([x, x[::-1]])
    assert_identical(vnorm(np.asfortranarray(stacked)), np.stack([reference, reference[::-1]]))

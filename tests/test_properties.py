"""Property tests over random expression trees and ball automorphisms."""

from __future__ import annotations

import mpmath
import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diskcheck import (
    CHECKS,
    Add,
    BallAutomorphism,
    Blaschke,
    CMul,
    ComposeAut,
    Const,
    Embed,
    Identity,
    Mul,
    Poly,
    Vec,
    parse_disk,
    vnorm,
)

PARAMETER = st.complex_numbers(max_magnitude=0.9, allow_nan=False, allow_infinity=False)
POINT = st.complex_numbers(max_magnitude=0.8, allow_nan=False, allow_infinity=False)


def _pairs(children, node):
    return st.tuples(children, children).map(lambda fg: node(*fg))


# Scalar maps of the whole grammar; values may leave the unit ball.
SCALAR = st.recursive(
    st.one_of(
        st.just(Identity()),
        PARAMETER.map(Const),
        st.lists(PARAMETER, min_size=1, max_size=4).map(Poly),
        PARAMETER.map(Blaschke),
    ),
    lambda children: st.one_of(
        _pairs(children, Mul),
        _pairs(children, Add),
        st.tuples(PARAMETER, children).map(lambda cf: CMul(*cf)),
    ),
    max_leaves=6,
)

# Scalar maps of the disk into the closed disk, the inputs an automorphism accepts.
BALL_SCALAR = st.recursive(
    st.one_of(st.just(Identity()), PARAMETER.map(Const), PARAMETER.map(Blaschke)),
    lambda children: st.one_of(
        _pairs(children, Mul),
        st.tuples(PARAMETER, children).map(lambda cf: CMul(*cf)),
    ),
    max_leaves=4,
)


def _vector(m: int, max_norm: float):
    """Vectors of C^m with norm at most ``max_norm``."""
    return st.lists(PARAMETER, min_size=m, max_size=m).map(
        lambda v: np.asarray(v) * (max_norm / max(float(vnorm(np.asarray(v))), max_norm))
    )


@st.composite
def disk_maps(draw):
    m = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["scalar", "embed", "vec", "add", "compose"]))
    if kind == "scalar":
        return draw(SCALAR)
    if kind == "embed":
        return Embed(draw(SCALAR), draw(_vector(m, 1.0)))
    if kind == "vec":
        return Vec([draw(SCALAR) for _ in range(m)])
    if kind == "add":
        return Add(Embed(draw(SCALAR), draw(_vector(m, 1.0))), Vec([draw(SCALAR) for _ in range(m)]))
    node = Embed(draw(BALL_SCALAR), draw(_vector(m, 1.0)))
    for _ in range(draw(st.integers(1, 2))):
        node = ComposeAut(BallAutomorphism(draw(_vector(m, 0.5))), node)
    return node


@settings(max_examples=150, deadline=None)
@given(disk_maps(), st.lists(POINT, min_size=1, max_size=5))
def test_jet_agrees_with_central_difference(f, points):
    zs = np.asarray(points)
    h = 1e-5
    value, deriv = f._jet(zs)
    assert value.tobytes() == f._eval(zs).tobytes()
    fd = (f.eval(zs + h) - f.eval(zs - h)) / (2.0 * h)
    scale = np.maximum(np.maximum(vnorm(deriv), vnorm(value)), 1.0)
    assert np.all(vnorm(fd - deriv) <= 1e-7 * scale)


@settings(max_examples=150, deadline=None)
@given(disk_maps(), st.lists(POINT, min_size=1, max_size=5))
@example(Const(complex(-0.0, 0.5)), [0.25])
@example(Const(complex(1.0, -0.0)), [0.25])
def test_text_round_trip_is_exact(f, points):
    # The text keeps every float exactly (repr), zero signs included.
    text = f.to_text()
    parsed = parse_disk(text)
    assert parsed.to_text() == text
    zs = np.asarray(points)
    assert parsed.eval(zs).tobytes() == f.eval(zs).tobytes()
    assert parsed.deriv(zs).tobytes() == f.deriv(zs).tobytes()


def _direction(draw, m: int) -> np.ndarray:
    """A unit vector of C^m."""
    v = np.asarray(draw(st.lists(PARAMETER, min_size=m, max_size=m)))
    norm = float(vnorm(v))
    return v / norm if norm > 1e-3 else np.eye(m, dtype=complex)[0]


@st.composite
def automorphism_cases(draw):
    """(a, w, u): ||a|| <= 0.95 (tiny norms included), w in the closed ball, u on the sphere."""
    m = draw(st.integers(1, 3))
    r = draw(st.one_of(st.floats(0.0, 0.95), st.floats(0.0, 1e-150), st.sampled_from([1e-160, 1e-200])))
    rho = draw(st.one_of(st.floats(0.0, 1.0), st.floats(0.0, 1e-12).map(lambda d: 1.0 - d)))
    return r * _direction(draw, m), rho * _direction(draw, m), _direction(draw, m)


@settings(max_examples=300, deadline=None)
@given(automorphism_cases())
@example((np.array([1e-160, 0.0]), np.array([0.5, 0.1j]), np.array([1.0, 0.0])))
@example((np.array([5e-324]), np.array([0.5j]), np.array([1.0])))
@example((np.array([5e-324, 0.0]), np.array([0.5, 0.1j]), np.array([1.0, 0.0])))
@example((np.array([2.2250738585072e-309]), np.array([-0.3]), np.array([1j])))
def test_automorphism_identities(case):
    a, w, u = case
    aut = BallAutomorphism(a)
    with mpmath.workprec(200):
        norm = float(mpmath.norm([mpmath.mpc(complex(x)) for x in a]))
    assert abs(aut.r - norm) <= 4 * np.spacing(norm)
    assert np.all(np.isfinite(aut.e))
    residuals = {
        "phi_fixed_point": float(vnorm(aut.apply(a))),
        "phi_origin_value": float(vnorm(aut.apply(np.zeros_like(a)) - a)),
        "phi_involution": float(vnorm(aut.apply(aut.apply(w)) - w)),
        "phi_norm_identity": aut.norm_identity_residual(w),
        "phi_boundary_preservation": abs(float(vnorm(aut.apply(u))) - 1.0),
    }
    for name, residual in residuals.items():
        assert residual <= CHECKS[name][1], name

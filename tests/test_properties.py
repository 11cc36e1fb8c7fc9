"""Property tests over random expression trees and ball automorphisms."""

from __future__ import annotations

import functools

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
    WeierstrassDisk,
    distance_decreasing_margins,
    growth_margins,
    inner,
    julia_margins,
    surface_identities,
    vnorm,
    weierstrass_corpus,
)
from diskcheck import corpus, holodisk

from oracles import (
    stacked_phi,
    stacked_surface_eval,
    stacked_surface_identities,
    stacked_vec_eval,
    stacked_vnorm,
    unfused_growth_block,
    unfused_on_circle,
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


@settings(max_examples=300, deadline=None)
@given(st.complex_numbers(allow_nan=False, allow_infinity=False))
@example(complex(-0.0, 0.5))
@example(complex(1.0, -0.0))
def test_text_round_trip_is_exact(c):
    # Instance texts write every float as its repr, zero signs included, so complex() gives it back bit for bit.
    back = complex(holodisk._fmt_complex(c))
    assert np.asarray(back).tobytes() == np.asarray(c).tobytes()


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


# ---------------------------------------------------------------------------
# A batch split into parts, one-point parts included, gives the bits of the whole batch.

SPLIT_DIMENSIONS = st.sampled_from([1, 2, 3, 8])
SURFACES = weierstrass_corpus(0, 12)


def bits(x) -> np.ndarray:
    return np.ascontiguousarray(x).view(np.uint64)


@st.composite
def splits(draw, min_size: int = 1, max_size: int = 12):
    """Part edges 0 = e_0 < e_1 < ... < e_k = n of a batch of n points."""
    n = draw(st.integers(min_size, max_size))
    return [0, *sorted(draw(st.sets(st.integers(1, n - 1)))), n] if n > 1 else [0, n]


def in_parts(function, edges, *batches) -> list:
    """``function`` of each part of ``batches``, cut at ``edges`` along the first axis."""
    return [function(*(b[lo:hi] for b in batches)) for lo, hi in zip(edges, edges[1:])]


def _points(draw, n: int, min_magnitude: float = 0.0) -> np.ndarray:
    point = st.complex_numbers(min_magnitude=min_magnitude, max_magnitude=0.95, allow_nan=False, allow_infinity=False)
    return np.asarray(draw(st.lists(point, min_size=n, max_size=n)), dtype=complex)


def _composed(draw, m: int, times: int):
    """``times`` automorphisms after a map of the disk into the closed ball of C^m."""
    node = Embed(draw(BALL_SCALAR), draw(_vector(m, 1.0)))
    for _ in range(times):
        node = ComposeAut(BallAutomorphism(draw(_vector(m, 0.9))), node)
    return node


@st.composite
def vector_maps(draw, m: int):
    """Maps into C^m of every node kind, with one or two automorphisms in most."""
    kind = draw(st.sampled_from(["compose", "compose", "embed", "vec", "add"]))
    if kind == "embed":
        return Embed(draw(SCALAR), draw(_vector(m, 1.0)))
    if kind == "vec":
        return Vec([draw(SCALAR) for _ in range(m)])
    composed = _composed(draw, m, draw(st.integers(1, 2)))
    return Add(Vec([draw(SCALAR) for _ in range(m)]), composed) if kind == "add" else composed


@st.composite
def split_maps(draw):
    m = draw(SPLIT_DIMENSIONS)
    edges = draw(splits())
    return draw(vector_maps(m)), _points(draw, edges[-1]), edges


# An m = 1 composition whose one-point walks round differently from its batch
# walk unless the automorphism's parameter takes the rank of the points.
M1_COMPOSED = ComposeAut(BallAutomorphism([-0.6 - 0.6j]), Embed(Mul(Identity(), Blaschke(0.4j)), [1.0]))
M1_POINTS = np.array([0.1 + 0.2j, -0.5, 0.3j, 0.7 - 0.1j, -0.2 - 0.6j, 0.45 + 0.45j])


@settings(max_examples=200, deadline=None)
@given(split_maps())
@example((M1_COMPOSED, M1_POINTS, list(range(7))))
def test_tree_walks_do_not_depend_on_the_split(case):
    f, zs, edges = case
    assert np.array_equal(bits(np.concatenate(in_parts(f._eval, edges, zs))), bits(f._eval(zs)))
    for parts, whole in zip(zip(*in_parts(f._jet, edges, zs)), f._jet(zs)):
        assert np.array_equal(bits(np.concatenate(parts)), bits(whole))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_growth_margins_do_not_depend_on_the_split(data):
    f = data.draw(vector_maps(data.draw(SPLIT_DIMENSIONS)))
    # Minus F(0), so that the map fixes the origin exactly.
    f = Add(f, Embed(Const(1.0), -f._eval(np.zeros(1))[0]))
    edges = data.draw(splits())
    zs = _points(data.draw, edges[-1], min_magnitude=1e-3)
    parts = in_parts(lambda z: np.stack(growth_margins(f, z)), edges, zs)
    assert np.array_equal(bits(np.concatenate(parts, axis=1)), bits(np.stack(growth_margins(f, zs))))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_julia_margins_do_not_depend_on_the_split(data):
    factors = data.draw(st.lists(st.one_of(st.just(Identity()), PARAMETER.map(Blaschke)), min_size=1, max_size=3))
    f = functools.reduce(Mul, factors)
    if data.draw(st.booleans()):
        f = ComposeAut(BallAutomorphism(data.draw(_vector(1, 0.9))), f)
    # Rotated to fix 1, as the Julia corpus is.
    f = CMul(1.0 / complex(f.eval(1.0)[0]), f)
    edges = data.draw(splits())
    zs = _points(data.draw, edges[-1])
    parts = in_parts(lambda z: julia_margins(f, z), edges, zs)
    assert np.array_equal(bits(np.concatenate(parts)), bits(julia_margins(f, zs)))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SURFACES), st.data())
def test_surface_sweeps_do_not_depend_on_the_split(member, data):
    w = member.surface
    edges = data.draw(splits())
    zs, ws = _points(data.draw, edges[-1]), _points(data.draw, edges[-1])
    parts = in_parts(lambda z: surface_identities(w, z), edges, zs)
    whole = surface_identities(w, zs)
    for k in range(3):
        assert np.max([part[k] for part in parts]) == whole[k]
    assert np.array_equal(bits(np.concatenate([part[3] for part in parts])), bits(whole[3]))
    parts = in_parts(lambda z, v: distance_decreasing_margins(w, z, v), edges, zs, ws)
    assert np.array_equal(bits(np.concatenate(parts)), bits(distance_decreasing_margins(w, zs, ws)))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_automorphisms_and_inner_products_do_not_depend_on_the_split(data):
    m = data.draw(SPLIT_DIMENSIONS)
    edges = data.draw(splits())
    n = edges[-1]
    ws = np.array([data.draw(_vector(m, 1.0)) for _ in range(n)], dtype=complex)
    vs = np.array([data.draw(_vector(m, 2.0)) for _ in range(n)], dtype=complex)
    a = data.draw(_vector(m, 0.9))
    stack = np.array([data.draw(_vector(m, 0.9)) for _ in range(n)], dtype=complex)
    aut = BallAutomorphism(a)
    cases = [
        (aut.apply, (ws,)),
        (aut.differential, (ws, vs)),
        (lambda w: inner(w, a), (ws,)),
        (lambda w: inner(a, w), (ws,)),
        # A stack of n automorphisms, split into stacks of its rows.
        (lambda b, w: BallAutomorphism(b).apply(w), (stack, ws)),
        (lambda b, w, v: BallAutomorphism(b).differential(w, v), (stack, ws, vs)),
    ]
    for function, batches in cases:
        parts = in_parts(function, edges, *batches)
        assert np.array_equal(bits(np.concatenate(parts)), bits(function(*batches)))


@st.composite
def automorphism_stacks(draw):
    """(a, ws): a parameter (m,) or a stack (K, m), some of norm below 1e-150, and points (4, K, m)."""
    m = draw(SPLIT_DIMENSIONS)
    k = draw(st.integers(1, 4))
    parameter = lambda: draw(_vector(m, 0.9)) * draw(st.sampled_from([1.0, 1.0, 1e-160]))
    a = np.array([parameter() for _ in range(k)]) if draw(st.booleans()) else parameter()
    ws = np.array([[draw(_vector(m, 1.0)) for _ in range(k)] for _ in range(4)], dtype=complex)
    return a, ws


# One-row stacks and one-point sets (K = 1), in dimensions 1 and 8.
ONE_ROW = [
    (np.array([[-0.6 - 0.6j]]), M1_POINTS[:4, None, None]),
    (np.array([-0.6 - 0.6j]), M1_POINTS[:4, None, None]),
    (np.full((1, 8), 0.3j), np.tile(M1_POINTS[:4, None, None], (1, 1, 8)) / 3),
]


@settings(max_examples=100, deadline=None)
@given(automorphism_stacks())
@example(ONE_ROW[0])
@example(ONE_ROW[1])
@example(ONE_ROW[2])
def test_matrix_columns_are_the_per_direction_differentials(case):
    a, ws = case
    aut = BallAutomorphism(a)
    for points in (ws, ws[0]) + ((ws[0, 0],) if a.ndim == 1 else ()):
        columns = [aut.differential(points, np.broadcast_to(e, points.shape)) for e in np.eye(aut.dim, dtype=complex)]
        assert np.array_equal(bits(aut.matrix(points)), bits(np.stack(columns, axis=-1)))


@settings(max_examples=100, deadline=None)
@given(automorphism_stacks())
@example(ONE_ROW[0])
@example(ONE_ROW[1])
@example(ONE_ROW[2])
def test_operator_norms_of_stacked_point_sets_are_the_per_set_norms(case):
    a, ws = case
    aut = BallAutomorphism(a)
    # The ball suite's point sets: a, a/||a||, 0 and w.
    sets = np.stack([np.broadcast_to(a, ws[0].shape), np.broadcast_to(aut.e, ws[1].shape), np.zeros_like(ws[2]), ws[3]])
    for method in (aut.opnorm_oracle, aut.opnorm_formula):
        assert np.array_equal(bits(method(sets)), bits(np.stack([method(points) for points in sets])))
        assert np.array_equal(bits(method(ws)), bits(np.stack([method(points) for points in ws])))


# ---------------------------------------------------------------------------
# The fused bulk kernels give the bits of their unfused formulas, in blocks of
# one point, two points and the full point budget.

BLOCK_SIZES = st.sampled_from([1, 2, "full"])


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), BLOCK_SIZES)
def test_circle_placement_equals_the_unfused_formula(seed, n):
    n = holodisk._POINT_BLOCK if n == "full" else n
    radii, turns = np.random.default_rng(seed).random((2, n))
    for r in (radii, 1.0):
        assert np.array_equal(bits(corpus._on_circle(r, turns)), bits(unfused_on_circle(r, turns)))


@settings(max_examples=60, deadline=None)
@given(st.data(), BLOCK_SIZES)
def test_growth_block_equals_the_unfused_formulas(data, n):
    m = data.draw(SPLIT_DIMENSIONS)
    f = data.draw(vector_maps(m))
    f = Add(f, Embed(Const(1.0), -f._eval(np.zeros(1))[0]))
    if n == "full":
        zs = corpus._disk_points(np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))), holodisk._POINT_BLOCK // m)
    else:
        zs = _points(data.draw, n, min_magnitude=1e-3)
    (_,), (a,) = holodisk._norm_jet(f, [0j])
    out = np.empty((3, len(zs)))
    with np.errstate(all="ignore"):  # ||F'(0)|| may reach 1 / |z| on a tree that leaves the ball
        holodisk._growth_block(f, a, zs, out)
        assert np.array_equal(bits(out), bits(unfused_growth_block(f, a, zs)))


# ---------------------------------------------------------------------------
# The bulk kernels that hold one block-sized array per intermediate give the
# bits, and the layout, of their stacked forms.


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([1, 2, 3, 7, 8, 9, 16, 17, 24, 129]),
    st.sampled_from([1, 2, 5, "full"]),
    st.sampled_from(["C", "component-major", "stacked", "vector"]),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_vnorm_equals_the_stacked_formula(m, n, layout, complex_input, seed):
    n = max(1, holodisk._POINT_BLOCK // m) if n == "full" else n
    rng = np.random.default_rng(seed)
    # Magnitudes over 16 decades, so that every change of summation order shows; a few zeros, infinities and NaNs.
    x = rng.standard_normal((2, m, 2, n)) * 10.0 ** rng.integers(-8, 9, (2, m, 2, n))
    x = x[0] + 1j * x[1] if complex_input else x[0]
    special = rng.random(x.shape) < 0.02
    x[special] = rng.choice([0.0, -0.0, np.inf, np.nan], int(special.sum()))
    x = {
        "C": lambda: np.ascontiguousarray(x[:, 0].T),
        "component-major": lambda: np.ascontiguousarray(x[:, 0]).T,
        "stacked": lambda: np.moveaxis(x, 0, -1),
        "vector": lambda: np.ascontiguousarray(x[:, 0, 0]),
    }[layout]()
    with np.errstate(invalid="ignore"):
        assert np.array_equal(bits(vnorm(x)), bits(stacked_vnorm(x)))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 8).flatmap(lambda m: st.lists(SCALAR, min_size=m, max_size=m)), st.sampled_from([1, 2, 5]),
       st.data())
def test_vec_walk_equals_the_stacked_walk(components, n, data):
    f = Vec(components)
    zs = _points(data.draw, n)
    value, reference = f._eval(zs), stacked_vec_eval(f, zs)
    assert value.strides == reference.strides
    assert np.array_equal(bits(value), bits(reference))


@st.composite
def surface_cases(draw):
    """A surface and a batch: z = 0 may be in it, |q| may pass 1, and p may vanish at one of its points."""
    zero_of_p = None
    if draw(st.booleans()):
        w = draw(st.sampled_from(SURFACES)).surface
    else:
        c = draw(PARAMETER)
        q = draw(st.lists(st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
                          min_size=1, max_size=3))
        w, zero_of_p = WeierstrassDisk([c, 1.0], q), -c
    n = draw(st.sampled_from([1, 2, 5, 12, holodisk._POINT_BLOCK // 3]))
    zs = _points(draw, n) if n < 100 else corpus._disk_points(np.random.default_rng(draw(st.integers(0, 99))), n)
    for z in (0j, zero_of_p):
        if z is not None and draw(st.booleans()):
            zs[draw(st.integers(0, n - 1))] = z
    return w, zs


P_ZERO = WeierstrassDisk([0.5, 1.0], [0.0, 1.5])


@settings(max_examples=100, deadline=None)
@given(surface_cases())
@example((P_ZERO, np.array([0j, -0.5, 0.9, 0.3j])))
@example((P_ZERO, np.array([-0.5 + 0j])))
@example((P_ZERO, np.array([0j])))
def test_surface_kernels_equal_the_stacked_kernels(case):
    w, zs = case
    for value, reference in ((w.phi_values(zs), stacked_phi(w, zs)), (w.eval(zs), stacked_surface_eval(w, zs))):
        assert value.strides == reference.strides
        assert np.array_equal(bits(value), bits(reference))
    for value, reference in zip(surface_identities(w, zs), stacked_surface_identities(w, zs)):
        assert np.array_equal(bits(value), bits(reference))

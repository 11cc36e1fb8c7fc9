"""Reproducible test corpora of disk maps and minimal surfaces.

Every corpus member is generated from a per-case random stream keyed by
(seed, stream id, case index), so corpus content is independent of
generation order and identical across runs and machines for a fixed seed.
Fixed archetypes — the affine disk, the squared coordinate, the
real-parameter extremal family, and flat planar surfaces — are always
included, because the margin checks assert exact equality on them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ballgeom import BallAutomorphism, vnorm
from .holodisk import (
    BOUNDARY_GRID,
    Blaschke,
    CMul,
    ComposeAut,
    Embed,
    HoloDisk,
    Identity,
    Mul,
    Poly,
    Vec,
    _boundary_grid,
    _point_slices,
    _read_only,
    blaschke_product,
    extremal_family_1d,
)
from .reports import DomainError
from .weierstrass import (
    WeierstrassDisk,
    enneper_disk,
    planar_disk,
    rotated_planar_disk,
    scaled_into_ball,
    translated_planar_disk,
)

# Stream ids namespacing the per-case random streams.
HOLO_STREAM = 100
JULIA_STREAM = 200
SURFACE_STREAM = 300
# The holo stream is offset by m, so every dimension stays below this gap.
CORPUS_DIMENSION_LIMIT = JULIA_STREAM - HOLO_STREAM

# Fixed scalar archetypes with exactly-zero boundary margin; the embedded
# extremal family parameters exercised in every corpus.
FAMILY_PARAMETERS = (0.1, 0.3, 0.5, 0.7, 0.9)

_IN_BALL_SLACK = 1e-6


@dataclass(frozen=True)
class CorpusDisk:
    """A holomorphic corpus member with flags the suites key off of.

    ``equality_archetype`` marks members of the exact zero-margin set of the
    origin boundary bound; ``growth_equality`` marks maps whose interior
    growth bound is an identity at every point (affine disks and the squared
    coordinate), which is a strictly smaller class than the boundary one.
    """

    name: str
    disk: HoloDisk
    zero_at_origin: bool
    boundary_contact: complex | None
    equality_archetype: bool
    growth_equality: bool = False


@dataclass(frozen=True)
class CorpusJulia:
    """A Blaschke product normalized to fix 1, tagged with its factor count."""

    name: str
    disk: HoloDisk
    factors: int


@dataclass(frozen=True)
class CorpusSurface:
    """A Weierstrass corpus member with flags the suites key off of."""

    name: str
    surface: WeierstrassDisk
    planar_through_origin: bool
    boundary_contact_point: complex | None
    full_circle_contact: bool


def case_rng(seed: int, stream: int, index: int) -> np.random.Generator:
    """The per-case random stream; keying is part of the determinism contract."""
    if int(seed) < 0:
        raise DomainError("seed must be nonnegative")
    return np.random.default_rng(np.random.SeedSequence((int(seed), int(stream), int(index))))


def _unit_vector(rng: np.random.Generator, m: int) -> np.ndarray:
    """Uniform random unit vector in C^m."""
    v = rng.normal(size=m) + 1j * rng.normal(size=m)
    return v / np.linalg.norm(v)


_TURN_BITS = 12


def _turn_tables() -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of 2 pi k / 2^12 for k < 2^12, from the first octant by symmetry."""
    eighth = 1 << (_TURN_BITS - 3)
    x = 2.0 * np.pi * (np.arange(eighth + 1) / (1 << _TURN_BITS))
    c, s = np.cos(x), np.sin(x)
    # A quarter turn: k <= 2^9 directly, the rest as sin/cos of the complementary angle.
    qc, qs = np.concatenate([c, s[-2:0:-1]]), np.concatenate([s, c[-2:0:-1]])
    cos = np.concatenate([qc, 0.0 - qs, 0.0 - qc, qs])
    sin = np.concatenate([qs, qc, 0.0 - qs, 0.0 - qc])
    return _read_only(cos), _read_only(sin)


_TURN_COS, _TURN_SIN = _turn_tables()
# Taylor coefficients of sin and 1 - cos at delta = f h, h = 2 pi / 2^12, as polynomials in f.
_STEP = 2.0 * np.pi / (1 << _TURN_BITS)
_SIN3, _SIN5 = -_STEP**3 / 6.0, _STEP**5 / 120.0
_VERS2, _VERS4 = _STEP**2 / 2.0, -_STEP**4 / 24.0


def _on_circle(radii, turns: np.ndarray) -> np.ndarray:
    """``radii * exp(2 pi i turns)`` for an array of ``turns`` in [0, 1), within 4 ulp.

    ``turns * 2^12`` splits exactly into a table index k and a residual f in
    [0, 1); the table point 2 pi k / 2^12 is rotated by delta = 2 pi f / 2^12
    (below 1.54e-3) through a degree-5 sin and degree-4 1 - cos Taylor step,
    whose truncation is below 1e-19.  Every operation is a real elementwise
    one, so each element's bits do not depend on the batch shape.
    """
    z = np.empty(turns.shape, dtype=complex)
    f = turns * float(1 << _TURN_BITS)
    k = f.astype(np.intp)
    f -= k
    g = f * f
    # sin d = ((g sin5 + sin3) g + step) f and vers d = (g vers4 + vers2) g, in place.
    sin_d = g * _SIN5
    sin_d += _SIN3
    sin_d *= g
    sin_d += _STEP
    sin_d *= f
    vers = g * _VERS4
    vers += _VERS2
    vers *= g
    c, s = _TURN_COS.take(k), _TURN_SIN.take(k)
    # cos(a + d) = c - (c vers + s sin d) and sin(a + d) = s + (c sin d - s vers).
    re = np.multiply(c, vers, out=g)
    re += np.multiply(s, sin_d, out=f)
    np.subtract(c, re, out=re)
    im = np.multiply(c, sin_d, out=c)
    im -= np.multiply(s, vers, out=vers)
    im += s
    np.multiply(re, radii, out=z.real)
    np.multiply(im, radii, out=z.imag)
    return z


class _BlockDraw:
    """The draw ``rng.random((n, rows)).T``, read one block of columns at a time.

    Iterating yields, for each slice of ``_point_slices(n, width)``, the
    block's (rows, b) uniforms; with ``disk=(rmin, rmax)``, the points that
    ``_disk_points`` places from them instead: a 1-d block from two rows, and
    one row of points per (radius, turn) row pair from more.  Each point
    takes the stream's next ``rows`` outputs, and each block is drawn from
    ``rng`` as iteration reaches it, so consecutive blocks concatenate to one
    draw of all n, bit for bit, and leave ``rng`` where that draw leaves it.
    The iterator keeps no reference to a block it yielded, so a sweep holds
    one block at a time and no array that grows with n.  ``shape`` is (n,),
    as for an array of the points.
    """

    def __init__(self, rng: np.random.Generator, n: int, width: int = 1, rows: int = 2,
                 disk: tuple | None = None) -> None:
        self.rng, self.width, self.rows, self.disk = rng, width, rows, disk
        self.shape = (n,)

    def __iter__(self):
        (n,), rows = self.shape, self.rows
        for block in _point_slices(n, self.width):
            b = block.stop - block.start
            # No local names a block: one the caller drops is freed before the next is drawn.
            if self.disk is None:
                yield self.rng.random((b, rows)).T
            elif rows == 2:
                yield _disk_points(self.rng, b, *self.disk)
            else:
                yield _disk_points(self.rng, b * rows // 2, *self.disk).reshape(b, rows // 2).T


def _disk_points(rng: np.random.Generator, n: int, rmin: float = 0.02, rmax: float = 0.97) -> np.ndarray:
    """``n`` points with rmin <= |z| <= rmax, uniform by area when rmin = 0.

    Point i takes the stream's outputs 2 i (its radius uniform) and 2 i + 1 (its turn uniform).
    """
    radii, turns = rng.random((n, 2)).T
    np.sqrt(radii, out=radii)
    radii *= rmax - rmin
    radii += rmin
    return _on_circle(radii, turns)


def _ball_point(rng: np.random.Generator, m: int, radius: float) -> np.ndarray:
    """A point of C^m with ||w|| <= radius, uniform by volume."""
    v = _unit_vector(rng, m)
    return radius * rng.random() ** (1.0 / (2 * m)) * v


def _ball_cases(seed: int, stream: int, m: int, n: int) -> tuple:
    """The ball suite's ``n`` cases of dimension ``m``: row k of each draw is case k, whatever n is.

    Stream (seed, stream + m, 0) gives ``random((n, 12))``: the radii of a and w, tau, s, t,
    (radius, turn) of z1, z2 and c, and the radius of x.  Stream (seed, stream + m, 1) gives
    ``normal(size=(n, 9, m))``, apart because a normal takes a variable number of outputs: the
    real and imaginary parts of the unit vectors a, w, b and v, then the real unit vector ur.
    Returns (a, w, b, v) as one (4, n, m) array, ur, (z1, z2, c), (tau, s, t) and ||x||.
    """
    u = case_rng(seed, stream + m, 0).random((n, 12)).T
    normals = case_rng(seed, stream + m, 1).normal(size=(n, 9, m))
    vectors = np.empty((4, n, m), dtype=complex)
    vectors.real, vectors.imag = normals[:, 0:8:2].transpose(1, 0, 2), normals[:, 1:8:2].transpose(1, 0, 2)
    ur = normals[:, 8] / vnorm(normals[:, 8])[:, None]
    del normals
    vectors /= vnorm(vectors)[..., None]
    vectors[0] *= (0.05 + 0.85 * u[0] ** (1.0 / (2 * m)))[:, None]
    vectors[1] *= (0.995 * u[1] ** (1.0 / (2 * m)))[:, None]
    disk = _on_circle(np.sqrt(u[5:11:2]) * np.array([[0.95], [0.95], [0.8]]), u[6:11:2])
    return vectors, ur, disk, -0.95 + 1.9 * u[2:5], 0.9 * u[11] ** (1.0 / m)


def _scaled_polynomial(rng: np.random.Generator, m: int) -> HoloDisk:
    degree = 2 + int(rng.integers(0, 5))
    rows = []
    for _ in range(m):
        coeffs = (rng.normal(size=degree + 1) + 1j * rng.normal(size=degree + 1)) / (
            1.0 + np.arange(degree + 1)
        )
        coeffs[0] = 0.0
        rows.append(Poly(coeffs))
    raw = rows[0] if m == 1 else Vec(rows)
    # g = ||F||^2 on the circle is a real trigonometric polynomial of degree at most
    # ``degree``.  g' = 0 at its extrema and |g''| <= degree^2 (sup g - inf g)/2
    # (Bernstein), so the node nearest each extremum misses it by at most
    # kappa (sup g - inf g)/2, with kappa = degree^2 pi^2 / (2 N^2) on N nodes.
    g = vnorm(raw._eval(_boundary_grid(BOUNDARY_GRID))) ** 2
    top, bottom = float(np.max(g)), float(np.min(g))
    kappa = (degree * np.pi / BOUNDARY_GRID) ** 2 / 2.0
    sup_g = top + kappa * (top - bottom) / (2.0 * (1.0 - kappa))
    scale = 1.0 / ((1.0 + _IN_BALL_SLACK) * np.sqrt(sup_g))
    return CMul(scale, raw)


def _contact_blaschke(rng: np.random.Generator, m: int) -> HoloDisk:
    n_factors = 1 + int(rng.integers(0, 2))
    node: HoloDisk = Identity()
    for _ in range(n_factors):
        node = Mul(node, Blaschke(_disk_points(rng, 1, rmin=0.0, rmax=0.8)[0]))
    return Embed(node, _unit_vector(rng, m))


def holo_corpus(seed: int, m: int, count: int) -> list[CorpusDisk]:
    """Mixed corpus of maps D -> B_m; the first entries are fixed archetypes."""
    if count < 1:
        raise DomainError("count must be at least 1")
    if not 1 <= m < CORPUS_DIMENSION_LIMIT:
        raise DomainError(f"dimension must be from 1 to {CORPUS_DIMENSION_LIMIT - 1}; got {m}")
    e1 = np.zeros(m, dtype=complex)
    e1[0] = 1.0
    members = [
        CorpusDisk("archetype-affine", Embed(Identity(), e1), True, 1.0 + 0j, True, True),
        CorpusDisk("archetype-square", Embed(Mul(Identity(), Identity()), e1), True, 1.0 + 0j, True, True),
        CorpusDisk("archetype-family-0.5", Embed(extremal_family_1d(0.5), e1), True, 1.0 + 0j, True),
    ]
    for a in FAMILY_PARAMETERS:
        members.append(
            CorpusDisk(f"family-{a}", Embed(extremal_family_1d(a), e1), True, 1.0 + 0j, True)
        )
    for index in range(len(members), count):
        rng = case_rng(seed, HOLO_STREAM + m, index)
        kind = index % 5
        if kind == 0:
            disk = Embed(Identity(), _unit_vector(rng, m))
            members.append(CorpusDisk(f"affine-{index}", disk, True, 1.0 + 0j, True, True))
        elif kind == 1:
            disk = _contact_blaschke(rng, m)
            members.append(CorpusDisk(f"zblaschke-{index}", disk, True, 1.0 + 0j, False))
        elif kind == 3:
            inner = _contact_blaschke(rng, m)
            aut = BallAutomorphism(_ball_point(rng, m, 0.6))
            members.append(
                CorpusDisk(f"composed-{index}", ComposeAut(aut, inner), False, 1.0 + 0j, False)
            )
        else:
            members.append(CorpusDisk(f"poly-{index}", _scaled_polynomial(rng, m), True, None, False))
    return members[:count]


def julia_corpus(seed: int, count: int) -> list[CorpusJulia]:
    """Blaschke products fixing 1; factor counts cycle through 1, 2, 3."""
    if count < 1:
        raise DomainError("count must be at least 1")
    members = []
    for index in range(count):
        rng = case_rng(seed, JULIA_STREAM, index)
        n_factors = 1 + index % 3
        cs = [_disk_points(rng, 1, rmin=0.0, rmax=0.8)[0] for _ in range(n_factors)]
        disk = blaschke_product(cs)
        members.append(CorpusJulia(f"julia-{n_factors}-{index}", disk, n_factors))
    return members


def _random_surface(rng: np.random.Generator) -> WeierstrassDisk:
    p_degree = 1 + int(rng.integers(0, 4))
    q_degree = 1 + int(rng.integers(0, 4))
    tail = rng.normal(size=p_degree) + 1j * rng.normal(size=p_degree)
    # A dominant constant term keeps p zero-free on the closed disk.
    head = float(np.sum(np.abs(tail))) * (1.1 + rng.random()) * np.exp(2j * np.pi * rng.random())
    p = np.concatenate([[head], tail])
    q = rng.normal(size=q_degree + 1) + 1j * rng.normal(size=q_degree + 1)
    total = float(np.sum(np.abs(q)))
    if total > 0:
        q = q * (0.8 * rng.random() / total)
    base = 0.3 * rng.random() * np.asarray([rng.normal(), rng.normal(), rng.normal()])
    base = base / max(1.0, float(np.linalg.norm(base)))
    raw = WeierstrassDisk(p, q, base=tuple(base), halfsphere=True)
    return scaled_into_ball(raw, slack=_IN_BALL_SLACK)


def weierstrass_corpus(seed: int, count: int) -> list[CorpusSurface]:
    """Surface corpus: flat disks in several positions, Enneper, random data."""
    if count < 1:
        raise DomainError("count must be at least 1")
    members = [
        CorpusSurface("planar", planar_disk(), True, 1.0 + 0j, True),
        CorpusSurface("planar-rot-real", rotated_planar_disk(0.5), True, 1.0 + 0j, True),
        CorpusSurface("planar-rot-complex", rotated_planar_disk(0.3 + 0.4j), True, 1.0 + 0j, True),
        CorpusSurface("planar-shift-inplane", translated_planar_disk(0.4), False, 1.0 + 0j, False),
        CorpusSurface(
            "planar-shift-orthogonal", translated_planar_disk(0.6, orthogonal=True), False, 1.0 + 0j, True
        ),
        CorpusSurface("enneper-scaled", scaled_into_ball(enneper_disk()), False, None, False),
        CorpusSurface("enneper-halfsphere", scaled_into_ball(enneper_disk(0.9)), False, None, False),
    ]
    for index in range(len(members), count):
        rng = case_rng(seed, SURFACE_STREAM, index)
        members.append(CorpusSurface(f"surface-{index}", _random_surface(rng), False, None, False))
    return members[:count]


__all__ = [
    "CorpusDisk",
    "CorpusJulia",
    "CorpusSurface",
    "FAMILY_PARAMETERS",
    "case_rng",
    "holo_corpus",
    "julia_corpus",
    "weierstrass_corpus",
]

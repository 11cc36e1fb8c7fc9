"""Conformal minimal disks from polynomial Weierstrass data, with margin checks.

A surface is built from two complex polynomials ``p`` and ``q`` through the
component triple Phi = (p(1 - q^2)/2, i p(1 + q^2)/2, p q), whose square-sum
vanishes identically — the null condition that makes the parametrization
conformal and the surface minimal.  The map into R^3 is
F(z) = base + Re A(z) where A is the exact polynomial antiderivative of Phi
with A(0) = 0, so evaluation is closed-form and path-independence is
automatic.

Convention: dF/dz = Phi/2, so F_x = Re Phi and F_y = -Im Phi, and the
conformal factor is lambda = |p| (1 + |q|^2) / 2.  The metric audit check
measures this convention constant instead of assuming one.

Checks cover the null condition, isothermal identities, the Gauss normal,
an interior pseudo-hyperbolic growth bound, hyperbolic distance decrease
from the disk to the ball, the boundary conformal-factor lower bound, the
half-sphere minimum-modulus chain, and an inverse Lipschitz estimate.
``surface_identities`` measures the isothermal, Gauss-vector and metric
audit identities over a batch from one evaluation of p, q and Phi.  The
per-instance checks return the raw :class:`~diskcheck.reports.CheckValues`
(lhs, rhs, margin) of one case and judge nothing: only a suite run
names and judges cases, with the run's tolerances.
"""

from __future__ import annotations

import numpy as np

from .ballgeom import _BALL_SLACK, cayley_klein_dist, poincare_dist, vnorm
from .holodisk import (
    BOUNDARY_GRID,
    INTERIOR_GRID,
    _boundary_grid,
    _boundary_param,
    _finite,
    _horner,
    _interior_grid,
    _polyadd,
    _polyint,
    _polymul,
    _polysub,
    _read_only,
    _require_boundary_contact,
)
from .reports import CheckValues, DomainError

# Composite Gauss rule used for arc-length and antiderivative validation:
# the 8-node Gauss-Legendre rule on each of QUAD_PANELS panels.
QUAD_PANELS = 8
# Nodes and weights of the 8-node rule on [-1, 1] (Abramowitz-Stegun Table 25.4),
# as the doubles numpy's legendre.leggauss(8) gives.
_GAUSS_NODES = np.array([
    -0.9602898564975362, -0.7966664774136267, -0.525532409916329, -0.18343464249564978,
    0.18343464249564978, 0.525532409916329, 0.7966664774136267, 0.9602898564975362,
])
_GAUSS_WEIGHTS = np.array([
    0.10122853629037706, 0.22238103445337443, 0.3137066458778869, 0.36268378337836166,
    0.36268378337836166, 0.3137066458778869, 0.22238103445337443, 0.10122853629037706,
])


def _coeffs(c, what: str) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(c, dtype=complex))
    if arr.ndim != 1 or arr.shape[0] == 0:
        raise DomainError("polynomial data must be a nonempty coefficient vector")
    return _finite(arr, what)


class WeierstrassDisk:
    """Polynomial Weierstrass data (p, q) plus a real translation of the image.

    Parameters
    ----------
    p, q : array_like
        Ascending complex coefficient lists.
    base : array_like, optional
        Real 3-vector F(0); defaults to the origin.
    halfsphere : bool, optional
        Declares that the Gauss map stays in the upper half-sphere
        (equivalently max |q| < 1 on the closed disk); verified on a
        boundary grid at construction.
    """

    def __init__(self, p, q, base=(0.0, 0.0, 0.0), halfsphere: bool = False) -> None:
        self.p = _coeffs(p, "p coefficients")
        self.q = _coeffs(q, "q coefficients")
        self.base = _finite(np.asarray(base, dtype=float), "base")
        if self.base.shape != (3,):
            raise DomainError("base must be a real 3-vector")
        self.halfsphere = bool(halfsphere)
        q2 = _polymul(self.q, self.q)
        with np.errstate(over="ignore", invalid="ignore"):
            phi = [
                0.5 * _polysub(self.p, _polymul(self.p, q2)),
                0.5j * _polyadd(self.p, _polymul(self.p, q2)),
                _polymul(self.p, self.q),
            ]
        self.phi = [_finite(c, "Weierstrass component coefficients") for c in phi]
        self.antiderivative = [_polyint(c) for c in self.phi]
        self._max_norm: float | None = None
        if self.halfsphere:
            worst = float(np.max(np.abs(_horner(_boundary_grid(BOUNDARY_GRID), self.q))))
            if not worst < 1.0:
                raise DomainError(f"half-sphere flag requires |q| < 1 on the closed disk; boundary max {worst:.6g}")

    # -- raw evaluation -----------------------------------------------------

    def phi_values(self, z):
        """The holomorphic component triple at ``z``: (3,) or (N, 3) complex."""
        zs = np.atleast_1d(np.asarray(z, dtype=complex))
        out = np.empty((3, *zs.shape), dtype=complex)
        for row, c in zip(out, self.phi):
            row[...] = _horner(zs, c)
        return out[:, 0] if np.ndim(z) == 0 else out.T

    def eval(self, z):
        """Surface position base + Re A(z): (3,) or (N, 3) real."""
        zs = np.atleast_1d(np.asarray(z, dtype=complex))
        out = np.empty((3, *zs.shape))
        for row, b, c in zip(out, self.base, self.antiderivative):
            np.add(b, _horner(zs, c).real, out=row)
        return out[:, 0] if np.ndim(z) == 0 else out.T

    def partials(self, z):
        """Cartesian partials (F_x, F_y) with F_x = Re Phi, F_y = -Im Phi."""
        phi = self.phi_values(z)
        return np.real(phi), -np.imag(phi)

    def conformal_factor(self, z):
        """lambda(z) = |p(z)| (1 + |q(z)|^2) / 2: float or (N,) array."""
        zs = np.atleast_1d(np.asarray(z, dtype=complex))
        lam = _conformal_factor(_horner(zs, self.p), _horner(zs, self.q))
        return float(lam[0]) if np.ndim(z) == 0 else lam

    def gauss_normal(self, z):
        """Unit vector (2 Re q, 2 Im q, 1 - |q|^2) / (1 + |q|^2).

        Always unit length, with third component positive exactly where
        |q| < 1.  Note this is the mirror image (through the horizontal
        plane) of the vector orthogonal to the surface for the sign
        conventions used by :meth:`partials`; callers needing the metric
        normal should flip the sign of the third component.
        """
        qv = _horner(np.atleast_1d(np.asarray(z, dtype=complex)), self.q)
        q_sq = np.abs(qv) ** 2
        n = (np.stack([2.0 * np.real(qv), 2.0 * np.imag(qv), 1.0 - q_sq]) / (1.0 + q_sq)).T
        return n[0] if np.ndim(z) == 0 else n

    # -- structure certificates ----------------------------------------------

    def null_residual(self) -> float:
        """Max coefficient magnitude of Phi_1^2 + Phi_2^2 + Phi_3^2."""
        total = np.zeros(1, dtype=complex)
        for c in self.phi:
            total = _polyadd(total, _polymul(c, c))
        return float(np.max(np.abs(total)))

    def immersion_winding(self) -> int:
        """Number of zeros of p in the disk, by boundary argument counting."""
        vals = _horner(_boundary_grid(BOUNDARY_GRID), self.p)
        if np.any(np.abs(vals) < 1e-14):
            raise DomainError("p vanishes on the boundary grid; zero count undefined")
        steps = np.angle(np.roll(vals, -1) / vals)
        return int(round(float(np.sum(steps)) / (2.0 * np.pi)))

    def max_norm(self) -> float:
        """Max of ||F|| over the ``BOUNDARY_GRID`` circle, computed once.

        ||F||^2 is subharmonic, so its sup over the disk is its sup on the circle.
        """
        if self._max_norm is None:
            self._max_norm = float(np.max(vnorm(self.eval(_boundary_grid(BOUNDARY_GRID)))))
        return self._max_norm

    def __repr__(self) -> str:
        def fmt(arr):
            return "[" + ", ".join(repr(complex(c)) for c in arr) + "]"

        base = "[" + ", ".join(repr(float(x)) for x in self.base) + "]"
        return f"WeierstrassDisk(p={fmt(self.p)}, q={fmt(self.q)}, base={base}, halfsphere={self.halfsphere!r})"


def _conformal_factor(pv, qv):
    """lambda = |p| (1 + |q|^2) / 2 from values of p and q."""
    q_abs = np.abs(qv)
    return 0.5 * np.abs(pv) * (1.0 + q_abs * q_abs)


# ---------------------------------------------------------------------------
# identity checks


def null_condition_report(w: WeierstrassDisk) -> CheckValues:
    """Coefficient-level residual of the square-sum cancellation."""
    res = w.null_residual()
    return CheckValues(res, 0.0, res)


def _rows_norm(rows) -> np.ndarray:
    """``vnorm`` of the batch whose components are ``rows`` (fewer than 8), summed a row at a time in its order."""
    rows = iter(rows)
    total = np.square(next(rows))
    for x in rows:
        total += np.square(x)
    return np.sqrt(total, out=total)


def _rows_dot(a, b) -> np.ndarray:
    """``np.sum(a.T * b.T, axis=-1)`` for rows ``a`` and ``b`` of three components, in its order."""
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def surface_identities(w: WeierstrassDisk, zs) -> tuple[float, float, float, np.ndarray]:
    """A surface's pointwise identities over a batch, from one evaluation of p, q and Phi.

    Returns the max deviation from ||F_x|| = ||F_y|| = lambda, <F_x, F_y> = 0,
    ||F_r|| = lambda and ||F_t|| = r lambda (polar ones at z != 0); the Gauss
    vector's max deviation from unit length, or its most negative third
    component where |q| < 1 if larger; its tangent-orthogonality residual
    max |<N, F_x or F_y>| / (1 + lambda), which the printed formula does not
    satisfy for generic complex q (its mirror with third component |q|^2 - 1
    does), so it is a finding; and the metric audit ratios ||F_x||^2 over
    the bare product |p|^2 (1 + |q|^2)^2 (NaN where p vanishes).
    """
    zs = np.atleast_1d(np.asarray(zs, dtype=complex))
    # Phi's (3, N) rows: F_x = Re Phi, and F_y = -Im Phi enters each norm and |<., F_y>| as Im Phi, exactly.
    phi = w.phi_values(zs).T
    f_x, im = phi.real, phi.imag
    p_abs = np.abs(_horner(zs, w.p))
    qv = _horner(zs, w.q)
    q_abs = np.abs(qv)
    q_sq = q_abs * q_abs
    one_q = 1.0 + q_sq
    lam = 0.5 * p_abs * one_q

    # The rows of gauss_normal(zs); of q, only 1 + |q|^2 outlives them.
    normals = [2.0 * qv.real / one_q, 2.0 * qv.imag / one_q, (1.0 - q_sq) / one_q]
    gdev = float(np.max(np.abs(_rows_norm(normals) - 1.0)))
    inside = q_abs < 1.0
    if np.any(inside):
        gdev = float(np.max([gdev, 0.0, -np.min(normals[2][inside])]))
    orth = max(float(np.max(np.abs(_rows_dot(normals, f)) / (1.0 + lam))) for f in (f_x, im))
    del qv, q_abs, q_sq, normals

    norm_x = _rows_norm(f_x)
    iso = [np.abs(norm_x - lam).max(), np.abs(_rows_norm(im) - lam).max(), np.abs(_rows_dot(f_x, im)).max()]
    r = np.abs(zs)
    nonzero = r > 0
    if np.any(nonzero):
        # F_r = F_x cos + F_y sin and F_t = r (F_y cos - F_x sin) by component; z = 0 gives NaN, masked out.
        with np.errstate(invalid="ignore"):
            cos, sin = zs.real / r, zs.imag / r
        norm_r = _rows_norm(f_x[j] * cos - im[j] * sin for j in range(3))
        norm_t = _rows_norm(r * (f_x[j] * sin + im[j] * cos) for j in range(3))
        iso += [np.max(np.abs(norm_r - lam)[nonzero]), np.max(np.abs(norm_t - r * lam)[nonzero])]
    iso = float(np.max(iso))

    bare = p_abs**2 * one_q**2
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(bare > 0, norm_x**2 / bare, np.nan)
    return iso, gdev, orth, ratios


# ---------------------------------------------------------------------------
# inequality checks


def interior_growth_margin(w: WeierstrassDisk, a) -> CheckValues:
    """Pseudo-hyperbolic growth bound ||F(a)|| <= (|a| + r0)/(1 + |a| r0).

    ``r0 = ||F(0)||``; requires the image to stay in the closed unit ball,
    read from ``w.max_norm()``.
    """
    a = complex(a)
    if not abs(a) < 1.0:
        raise DomainError("interior growth bound needs |a| < 1")
    if not (worst := w.max_norm()) <= 1.0 + _BALL_SLACK:
        raise DomainError(f"surface image leaves the unit ball: max grid norm {worst:.12g}")
    r0 = float(vnorm(w.eval(0j)))
    val = float(vnorm(w.eval(a)))
    bound = (abs(a) + r0) / (1.0 + abs(a) * r0)
    return CheckValues(val, bound, bound - val)


def distance_decreasing_margins(w: WeierstrassDisk, zs, ws) -> np.ndarray:
    """Vectorized margins poincare_dist(z, w) - cayley_klein_dist(F(z), F(w))."""
    zs = np.atleast_1d(np.asarray(zs, dtype=complex))
    ws = np.atleast_1d(np.asarray(ws, dtype=complex))
    if not (np.all(np.abs(zs) < 1.0) and np.all(np.abs(ws) < 1.0)):
        raise DomainError("distance comparison needs interior parameters")
    return poincare_dist(zs, ws) - cayley_klein_dist(w.eval(zs), w.eval(ws))


def boundary_minimal_margin(w: WeierstrassDisk, zeta) -> CheckValues:
    """Boundary bound ||F_r(zeta)|| >= (1 - r0)/(1 + r0) at a sphere-contact point."""
    zeta = _boundary_param(zeta)
    _require_boundary_contact(float(vnorm(w.eval(zeta))))
    f_x, f_y = w.partials(zeta)
    t = np.angle(zeta)
    val = float(vnorm(f_x * np.cos(t) + f_y * np.sin(t)))
    r0 = float(vnorm(w.eval(0j)))
    bound = (1.0 - r0) / (1.0 + r0)
    return CheckValues(val, bound, val - bound)


def _chain_preconditions(w: WeierstrassDisk) -> None:
    if not w.halfsphere:
        raise DomainError("check requires the half-sphere flag (|q| < 1 on the closed disk)")
    zeros = w.immersion_winding()
    if zeros != 0:
        raise DomainError(f"p has {zeros} zero(s) in the disk; the data is not an immersion")


def halfsphere_chain_check(w: WeierstrassDisk) -> CheckValues:
    """Testable links of the half-sphere lower bound on the conformal factor.

    For zero-free p with |q| < 1: (i) the minimum modulus of p over the disk
    is attained on the boundary; (ii) lambda >= c * min boundary |p| with the
    audited convention constant c; (iii) when the surface touches the sphere
    along the whole boundary circle, lambda >= c (1 - r0)/(1 + r0) on the
    disk with r0 = ||F(0)||.  The margin is the worst link.

    The grid minimum of |p| on the circle can overshoot the true minimum, so
    links (i) and (ii) subtract an exact Lipschitz allowance
    sum_j j |p_j| * pi / BOUNDARY_GRID, which makes their nonnegativity a
    theorem rather than a grid-resolution accident.
    """
    _chain_preconditions(w)
    circle = _boundary_grid(BOUNDARY_GRID)
    inside = _interior_grid(INTERIOR_GRID)
    # The circle, then the interior grid in slices of as many points; each keeps its min |p| and min lambda.
    minima = []
    for z in [circle, *(inside[k : k + BOUNDARY_GRID] for k in range(0, len(inside), BOUNDARY_GRID))]:
        pv = _horner(z, w.p)
        minima.append((np.min(np.abs(pv)), np.min(_conformal_factor(pv, _horner(z, w.q)))))
    min_p, min_lam = np.array(minima).T

    grid_slack = float(np.sum(np.arange(len(w.p)) * np.abs(w.p))) * np.pi / BOUNDARY_GRID
    boundary_min_p = float(min_p[0]) - grid_slack
    min_modulus_residual = float(np.min(min_p)) - boundary_min_p

    c = 0.5  # audited convention constant: lambda = c |p| (1 + |q|^2)
    min_lambda = float(np.min(min_lam))
    rhs = c * boundary_min_p
    margins = [min_modulus_residual, min_lambda - rhs]
    if float(np.max(np.abs(vnorm(w.eval(circle)) - 1.0))) <= 1e-10:  # boundary contact: link (iii)
        r0 = float(vnorm(w.eval(0j)))
        rhs = c * (1.0 - r0) / (1.0 + r0)
        margins.append(min_lambda - rhs)
    return CheckValues(min_lambda, rhs, float(np.min(margins)))


# Nodes in [0, 1] and weights of the composite Gauss rule.
_PANEL_NODES = _read_only(
    ((np.arange(QUAD_PANELS)[:, None] + (_GAUSS_NODES[None, :] + 1.0) / 2.0) / QUAD_PANELS).ravel()
)
_PANEL_WEIGHTS = _read_only(np.tile(_GAUSS_WEIGHTS / (2.0 * QUAD_PANELS), QUAD_PANELS))


def _segment_lengths(w: WeierstrassDisk, z1: np.ndarray, z2: np.ndarray) -> np.ndarray:
    """Image lengths of parameter segments, by composite Gauss quadrature."""
    zs = z1[:, None] + _PANEL_NODES[None, :] * (z2 - z1)[:, None]
    lam = w.conformal_factor(zs.ravel()).reshape(zs.shape)
    return np.abs(z2 - z1) * (lam @ _PANEL_WEIGHTS)


def inverse_lipschitz_check(w: WeierstrassDisk, pairs) -> CheckValues:
    """Parameter separation against image arc length.

    For each pair: |z1 - z2| <= 2 (1 + r0)/(1 - r0) * length(F o segment),
    with the segment length an upper bound for the intrinsic surface
    distance, so the tested inequality is conservative.
    """
    _chain_preconditions(w)
    arr = np.asarray([(complex(a), complex(b)) for a, b in pairs], dtype=complex)
    if arr.size == 0:
        raise DomainError("need at least one parameter pair")
    r0 = float(vnorm(w.eval(0j)))
    if r0 >= 1.0 - 1e-12:
        raise DomainError("degenerate surface: ||F(0)|| = 1")
    factor = 2.0 * (1.0 + r0) / (1.0 - r0)
    lengths = _segment_lengths(w, arr[:, 0], arr[:, 1])
    margins = factor * lengths - np.abs(arr[:, 0] - arr[:, 1])
    worst = int(np.argmin(margins))
    separation = float(np.abs(arr[worst, 0] - arr[worst, 1]))
    return CheckValues(separation, float(factor * lengths[worst]), float(margins[worst]))


def antiderivative_quadrature_residual(w: WeierstrassDisk, z) -> float:
    """Exact primitive at ``z`` versus Gauss quadrature of Phi along [0, z]."""
    z = complex(z)
    # tensordot sums a C-ordered phi in another order than its component-major view.
    phi = np.ascontiguousarray(w.phi_values(_PANEL_NODES * z))
    quad = z * np.tensordot(_PANEL_WEIGHTS, phi, axes=(0, 0))
    exact = np.asarray([_horner(z, c) for c in w.antiderivative])
    return float(np.max(np.abs(exact - quad)))


# ---------------------------------------------------------------------------
# constructions


def planar_disk() -> WeierstrassDisk:
    """The flat unit disk (x, -y, 0): p = 2, q = 0."""
    return WeierstrassDisk([2.0], [0.0], halfsphere=True)


def rotated_planar_disk(c) -> WeierstrassDisk:
    """A flat unit disk in a rotated 2-plane through the origin.

    Constant Gauss map q = c with p = 2/(1 + |c|^2) keeps the conformal
    factor at 1, so the boundary circle still lands on the unit sphere.
    """
    c = complex(c)
    return WeierstrassDisk([2.0 / (1.0 + abs(c) ** 2)], [c], halfsphere=abs(c) < 1.0)


def translated_planar_disk(t: float, orthogonal: bool = False) -> WeierstrassDisk:
    """A shrunken flat disk translated off the origin, touching the sphere.

    In-plane (default): base (t, 0, 0) with radius 1 - t, touching the
    sphere at parameter 1 only.  Orthogonal: base (0, 0, t) with radius
    sqrt(1 - t^2), touching the sphere along the whole boundary circle.
    """
    t = float(t)
    if not 0.0 <= t < 1.0:
        raise DomainError("translation parameter must lie in [0, 1)")
    if orthogonal:
        rho = float(np.sqrt(1.0 - t * t))
        return WeierstrassDisk([2.0 * rho], [0.0], base=(0.0, 0.0, t), halfsphere=True)
    rho = 1.0 - t
    return WeierstrassDisk([2.0 * rho], [0.0], base=(t, 0.0, 0.0), halfsphere=True)


def enneper_disk(shrink: float = 1.0) -> WeierstrassDisk:
    """The Enneper surface p = 1, q = shrink * z (classical at shrink = 1)."""
    shrink = float(shrink)
    return WeierstrassDisk([1.0], [0.0, shrink], halfsphere=abs(shrink) < 1.0)


def scaled_into_ball(w: WeierstrassDisk, slack: float = 1e-6) -> WeierstrassDisk:
    """Rescale a surface so its boundary grid max norm becomes 1/(1 + slack)."""
    worst = w.max_norm()
    if not worst > 0.0:
        raise DomainError("cannot scale a surface whose boundary grid image is the origin")
    s = 1.0 / ((1.0 + slack) * worst)
    return WeierstrassDisk(s * w.p, w.q, base=tuple(s * w.base), halfsphere=w.halfsphere)


__all__ = [
    "WeierstrassDisk",
    "antiderivative_quadrature_residual",
    "boundary_minimal_margin",
    "distance_decreasing_margins",
    "enneper_disk",
    "halfsphere_chain_check",
    "interior_growth_margin",
    "inverse_lipschitz_check",
    "null_condition_report",
    "planar_disk",
    "rotated_planar_disk",
    "scaled_into_ball",
    "surface_identities",
    "translated_planar_disk",
]

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
(lhs, rhs, margin, extra) of one case and judge nothing: only a suite run
names and judges cases, with the run's tolerances.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial import legendre
from numpy.polynomial import polynomial as P

from .ballgeom import _BALL_SLACK, cayley_klein_dist, poincare_dist, vnorm
from .holodisk import (
    BOUNDARY_GRID,
    INTERIOR_GRID,
    _boundary_grid,
    _boundary_param,
    _grid_max_norm,
    _interior_grid,
    _require_boundary_contact,
)
from .reports import CheckValues, DomainError

# Composite Gauss rule used for arc-length and antiderivative validation.
QUAD_PANELS = 8
QUAD_NODES = 8


def _coeffs(c) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(c, dtype=complex))
    if arr.ndim != 1 or arr.shape[0] == 0:
        raise DomainError("polynomial data must be a nonempty coefficient vector")
    return arr


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
        self.p = _coeffs(p)
        self.q = _coeffs(q)
        self.base = np.asarray(base, dtype=float)
        if self.base.shape != (3,):
            raise DomainError("base must be a real 3-vector")
        self.halfsphere = bool(halfsphere)
        q2 = P.polymul(self.q, self.q)
        self.phi = [
            0.5 * P.polysub(self.p, P.polymul(self.p, q2)),
            0.5j * P.polyadd(self.p, P.polymul(self.p, q2)),
            P.polymul(self.p, self.q),
        ]
        self.antiderivative = [P.polyint(c) for c in self.phi]
        if self.halfsphere:
            worst = float(np.max(np.abs(P.polyval(_boundary_grid(BOUNDARY_GRID), self.q))))
            if not worst < 1.0:
                raise DomainError(f"half-sphere flag requires |q| < 1 on the closed disk; boundary max {worst:.6g}")

    # -- raw evaluation -----------------------------------------------------

    def phi_values(self, z):
        """The holomorphic component triple at ``z``: (3,) or (N, 3) complex."""
        zs = np.atleast_1d(np.asarray(z, dtype=complex))
        out = np.stack([P.polyval(zs, c) for c in self.phi]).T
        return out[0] if np.ndim(z) == 0 else out

    def eval(self, z):
        """Surface position base + Re A(z): (3,) or (N, 3) real."""
        zs = np.atleast_1d(np.asarray(z, dtype=complex))
        out = (self.base[:, None] + np.stack([np.real(P.polyval(zs, c)) for c in self.antiderivative])).T
        return out[0] if np.ndim(z) == 0 else out

    def partials(self, z):
        """Cartesian partials (F_x, F_y) with F_x = Re Phi, F_y = -Im Phi."""
        phi = self.phi_values(z)
        return np.real(phi), -np.imag(phi)

    def conformal_factor(self, z):
        """lambda(z) = |p(z)| (1 + |q(z)|^2) / 2: float or (N,) array."""
        zs = np.atleast_1d(np.asarray(z, dtype=complex))
        lam = _conformal_factor(P.polyval(zs, self.p), P.polyval(zs, self.q))
        return float(lam[0]) if np.ndim(z) == 0 else lam

    def gauss_normal(self, z):
        """Unit vector (2 Re q, 2 Im q, 1 - |q|^2) / (1 + |q|^2).

        Always unit length, with third component positive exactly where
        |q| < 1.  Note this is the mirror image (through the horizontal
        plane) of the vector orthogonal to the surface for the sign
        conventions used by :meth:`partials`; callers needing the metric
        normal should flip the sign of the third component.
        """
        zs = np.atleast_1d(np.asarray(z, dtype=complex))
        n = _gauss_vector(P.polyval(zs, self.q))
        return n[0] if np.ndim(z) == 0 else n

    # -- structure certificates ----------------------------------------------

    def null_residual(self) -> float:
        """Max coefficient magnitude of Phi_1^2 + Phi_2^2 + Phi_3^2."""
        total = np.zeros(1, dtype=complex)
        for c in self.phi:
            total = P.polyadd(total, P.polymul(c, c))
        return float(np.max(np.abs(total)))

    def immersion_winding(self) -> int:
        """Number of zeros of p in the disk, by boundary argument counting."""
        vals = P.polyval(_boundary_grid(BOUNDARY_GRID), self.p)
        if np.any(np.abs(vals) < 1e-14):
            raise DomainError("p vanishes on the boundary grid; zero count undefined")
        steps = np.angle(np.roll(vals, -1) / vals)
        return int(round(float(np.sum(steps)) / (2.0 * np.pi)))

    def max_norm(self) -> float:
        """Max of ||F|| over boundary and interior polar grids."""
        return _grid_max_norm(self.eval, BOUNDARY_GRID, INTERIOR_GRID)

    def __repr__(self) -> str:
        def fmt(arr):
            return "[" + ", ".join(repr(complex(c)) for c in arr) + "]"

        base = "[" + ", ".join(repr(float(x)) for x in self.base) + "]"
        return f"WeierstrassDisk(p={fmt(self.p)}, q={fmt(self.q)}, base={base}, halfsphere={self.halfsphere!r})"


def _conformal_factor(pv, qv):
    """lambda = |p| (1 + |q|^2) / 2 from values of p and q."""
    q_abs = np.abs(qv)
    return 0.5 * np.abs(pv) * (1.0 + q_abs * q_abs)


def _gauss_vector(qv):
    """(2 Re q, 2 Im q, 1 - |q|^2) / (1 + |q|^2) from values of q: (N, 3)."""
    q_sq = np.abs(qv) ** 2
    return (np.stack([2.0 * np.real(qv), 2.0 * np.imag(qv), 1.0 - q_sq]) / (1.0 + q_sq)).T


# ---------------------------------------------------------------------------
# identity checks


def null_condition_report(w: WeierstrassDisk) -> CheckValues:
    """Coefficient-level residual of the square-sum cancellation."""
    res = w.null_residual()
    return CheckValues(res, 0.0, res, {})


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
    f_x, f_y = w.partials(zs)
    pv = P.polyval(zs, w.p)
    qv = P.polyval(zs, w.q)
    lam = _conformal_factor(pv, qv)

    norm_x = vnorm(f_x)
    iso = [np.abs(norm_x - lam).max(), np.abs(vnorm(f_y) - lam).max(), np.abs(np.sum(f_x * f_y, axis=-1)).max()]
    r = np.abs(zs)
    nonzero = r > 0
    if np.any(nonzero):
        # The polar partials at every point, rows of (3, N); z = 0 is masked out of the max.
        t = np.angle(zs)
        cos, sin = np.cos(t), np.sin(t)
        norm_r = vnorm((f_x.T * cos + f_y.T * sin).T)
        norm_t = vnorm((r * (-f_x.T * sin + f_y.T * cos)).T)
        iso += [np.max(np.abs(norm_r - lam)[nonzero]), np.max(np.abs(norm_t - r * lam)[nonzero])]
    iso = float(np.max(iso))

    normals = _gauss_vector(qv)
    gdev = float(np.max(np.abs(vnorm(normals) - 1.0)))
    inside = np.abs(qv) < 1.0
    if np.any(inside):
        gdev = float(np.max([gdev, 0.0, -np.min(normals[inside, 2])]))
    orth = max(
        float(np.max(np.abs(np.sum(normals * f_x, axis=-1)) / (1.0 + lam))),
        float(np.max(np.abs(np.sum(normals * f_y, axis=-1)) / (1.0 + lam))),
    )

    lam_sq = norm_x**2
    p_abs, q_abs = np.abs(pv), np.abs(qv)
    bare = p_abs**2 * (1.0 + q_abs**2) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(bare > 0, lam_sq / bare, np.nan)
    return iso, gdev, orth, ratios


# ---------------------------------------------------------------------------
# inequality checks


def _require_in_ball(w: WeierstrassDisk) -> None:
    worst = w.max_norm()
    if worst > 1.0 + _BALL_SLACK:
        raise DomainError(f"surface image leaves the unit ball: max grid norm {worst:.12g}")


def interior_growth_margin(w: WeierstrassDisk, a, certify: bool = True) -> CheckValues:
    """Pseudo-hyperbolic growth bound ||F(a)|| <= (|a| + r0)/(1 + |a| r0).

    ``r0 = ||F(0)||``; requires the image to stay in the closed unit ball
    (grid-certified unless ``certify`` is disabled by a caller that already
    certified the surface).
    """
    a = complex(a)
    if not abs(a) < 1.0:
        raise DomainError("interior growth bound needs |a| < 1")
    if certify:
        _require_in_ball(w)
    r0 = float(vnorm(w.eval(0j)))
    val = float(vnorm(w.eval(a)))
    bound = (abs(a) + r0) / (1.0 + abs(a) * r0)
    return CheckValues(val, bound, bound - val, {"base_norm": r0})


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
    return CheckValues(val, bound, val - bound, {"conformal_factor": w.conformal_factor(zeta), "base_norm": r0})


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
    grid = np.concatenate([inside, circle])

    p_abs = np.abs(P.polyval(grid, w.p))
    grid_slack = float(np.sum(np.arange(len(w.p)) * np.abs(w.p))) * np.pi / BOUNDARY_GRID
    boundary_min_p = float(np.min(np.abs(P.polyval(circle, w.p)))) - grid_slack
    min_modulus_residual = float(np.min(p_abs)) - boundary_min_p

    c = 0.5  # audited convention constant: lambda = c |p| (1 + |q|^2)
    lam = w.conformal_factor(grid)
    min_lambda = float(np.min(lam))
    lambda_link_margin = min_lambda - c * boundary_min_p

    r0 = float(vnorm(w.eval(0j)))
    contact_dev = float(np.max(np.abs(vnorm(w.eval(circle)) - 1.0)))
    boundary_contact = contact_dev <= 1e-10
    margins = [min_modulus_residual, lambda_link_margin]
    extra = {
        "min_modulus_residual": min_modulus_residual,
        "lambda_link_margin": lambda_link_margin,
        "boundary_min_p": boundary_min_p,
        "grid_slack": grid_slack,
        "min_lambda": min_lambda,
        "convention_constant": c,
        "boundary_contact": boundary_contact,
        "base_norm": r0,
    }
    corollary_bound = c * (1.0 - r0) / (1.0 + r0)
    if boundary_contact:
        corollary_margin = min_lambda - corollary_bound
        margins.append(corollary_margin)
        extra["corollary_margin"] = corollary_margin
        extra["corollary_bound"] = corollary_bound
    rhs = corollary_bound if boundary_contact else c * boundary_min_p
    return CheckValues(min_lambda, rhs, float(np.min(margins)), extra)


def _gauss_panels() -> tuple[np.ndarray, np.ndarray]:
    """Nodes in [0, 1] and weights of the composite Gauss rule."""
    nodes, weights = legendre.leggauss(QUAD_NODES)
    offsets = (np.arange(QUAD_PANELS)[:, None] + (nodes[None, :] + 1.0) / 2.0) / QUAD_PANELS
    return offsets.ravel(), np.tile(weights / (2.0 * QUAD_PANELS), QUAD_PANELS)


def _segment_lengths(w: WeierstrassDisk, z1: np.ndarray, z2: np.ndarray) -> np.ndarray:
    """Image lengths of parameter segments, by composite Gauss quadrature."""
    s, wts = _gauss_panels()
    zs = z1[:, None] + s[None, :] * (z2 - z1)[:, None]
    lam = w.conformal_factor(zs.ravel()).reshape(zs.shape)
    return np.abs(z2 - z1) * (lam @ wts)


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
    return CheckValues(
        float(np.abs(arr[worst, 0] - arr[worst, 1])),
        float(factor * lengths[worst]),
        float(margins[worst]),
        {"factor": factor, "pair_count": int(arr.shape[0])},
    )


def antiderivative_quadrature_residual(w: WeierstrassDisk, z) -> float:
    """Exact primitive at ``z`` versus Gauss quadrature of Phi along [0, z]."""
    z = complex(z)
    s, wts = _gauss_panels()
    # tensordot sums a C-ordered phi in another order than its component-major view.
    phi = np.ascontiguousarray(w.phi_values(s * z))
    quad = z * np.tensordot(wts, phi, axes=(0, 0))
    exact = np.asarray([P.polyval(z, c) for c in w.antiderivative])
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
    """Rescale a surface so its grid max norm becomes 1/(1 + slack)."""
    s = 1.0 / ((1.0 + slack) * w.max_norm())
    return WeierstrassDisk(s * w.p, w.q, base=tuple(s * w.base), halfsphere=w.halfsphere)


# ---------------------------------------------------------------------------
# data files and samples


def save_weierstrass(w: WeierstrassDisk, path) -> None:
    """Write coefficient lists and flags in the plain-text surface format."""
    lines = ["[p]"]
    lines += [f"{float(c.real)!r} {float(c.imag)!r}" for c in w.p]
    lines.append("[q]")
    lines += [f"{float(c.real)!r} {float(c.imag)!r}" for c in w.q]
    lines.append("[base]")
    lines.append(" ".join(repr(float(x)) for x in w.base))
    lines.append("[flags]")
    if w.halfsphere:
        lines.append("halfsphere")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_weierstrass(path) -> WeierstrassDisk:
    """Read a surface written by :func:`save_weierstrass`."""
    sections: dict[str, list[str]] = {}
    current = None
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("[") and line.endswith("]"):
                current = line[1:-1]
                sections[current] = []
                continue
            if current is None:
                raise DomainError(f"surface file has data before any section header: {line!r}")
            sections[current].append(line)

    def parse_complex_lines(name: str) -> list[complex]:
        out = []
        for line in sections.get(name, []):
            parts = line.split()
            if len(parts) != 2:
                raise DomainError(f"bad coefficient line in [{name}]: {line!r}")
            out.append(complex(float(parts[0]), float(parts[1])))
        return out

    p = parse_complex_lines("p")
    q = parse_complex_lines("q")
    if not p or not q:
        raise DomainError("surface file must provide [p] and [q] coefficients")
    base = (0.0, 0.0, 0.0)
    if sections.get("base"):
        parts = sections["base"][0].split()
        if len(parts) != 3:
            raise DomainError(f"bad base line: {sections['base'][0]!r}")
        base = tuple(float(x) for x in parts)
    flags = set(sections.get("flags", []))
    unknown = flags - {"halfsphere"}
    if unknown:
        raise DomainError(f"unknown flags in surface file: {sorted(unknown)}")
    return WeierstrassDisk(p, q, base=base, halfsphere="halfsphere" in flags)


__all__ = [
    "WeierstrassDisk",
    "antiderivative_quadrature_residual",
    "boundary_minimal_margin",
    "distance_decreasing_margins",
    "enneper_disk",
    "halfsphere_chain_check",
    "interior_growth_margin",
    "inverse_lipschitz_check",
    "load_weierstrass",
    "null_condition_report",
    "planar_disk",
    "rotated_planar_disk",
    "save_weierstrass",
    "scaled_into_ball",
    "surface_identities",
    "translated_planar_disk",
]

"""Holomorphic disk maps as exact expression trees, with margin checks.

A :class:`HoloDisk` is a closed-form holomorphic map from the unit disk into
C^m built from a small node grammar: the coordinate ``z``, constants, complex
polynomials, Blaschke factors (z + c)/(1 + conj(c) z), products and sums of
scalar maps, scalar-times-vector embeddings, complex rescaling, and
post-composition with a ball automorphism.  Differentiation is exact
forward-mode (dual-number) propagation: each node's ``_jet`` returns the
value and the complex derivative together, so one walk of the tree yields
both F and F' (product and chain rule at every node, no numerical
differentiation).  Value-only ``_eval`` walks serve the bulk sweeps.  Both
accept arrays of points, so whole sample batches, or the stacked points a
check needs (such as 0 and a boundary point), cost one tree walk.

The sampled checks are the ``*_margins`` functions: each returns one raw
margin per sample point, and a suite run judges the array.
``growth_margins`` gives the growth and both quotient margins from one walk
of F over the batch, so like the quotient bounds it needs 0 < |z| < 1;
``julia_margins`` gives the Julia margins.  The per-instance checks return
the raw :class:`~diskcheck.reports.CheckValues` (lhs, rhs, margin, extra) of
one case and judge nothing: only a suite run names and judges cases, each
check once, with the run's tolerances.

Serialization uses a nested prefix notation, e.g. ``mul(z, blaschke(0.5))``
or ``compose(phi(a=[0.3, 0.0]), scale(z, u=[1.0, 0.0]))``; see the README
for the exact grammar.  The notation is a subset of Python call syntax, and
``parse_disk`` inverts ``to_text`` by walking the tree :mod:`ast` parses,
evaluating nothing: each number is ``complex()`` of its own source text.
"""

from __future__ import annotations

import ast
import functools
import itertools
import math

import numpy as np
from numpy.polynomial import polynomial as P

from .ballgeom import BallAutomorphism, inner, vnorm
from .reports import CheckValues, DomainError

# Grid sizes for in-ball certification of corpus members.
BOUNDARY_GRID = 4096
INTERIOR_GRID = 128

# Radius schedule for the boundary difference quotients: 1 - 2^-k.
RADIAL_SCHEDULE_KMIN = 3
RADIAL_SCHEDULE_KMAX = 20


class ParseError(ValueError):
    """Malformed disk expression text."""


def _fmt_real(x: float) -> str:
    return repr(float(x))


def _fmt_complex(c: complex) -> str:
    """Text that ``complex()`` parses back bit for bit, zero signs included."""
    c = complex(c)
    re, im = _fmt_real(c.real), _fmt_real(c.imag)
    if im == "0.0":
        return re
    if re == "0.0":
        return im + "j"
    return f"{re}{im}j" if im.startswith("-") else f"{re}+{im}j"


def _fmt_vector(u: np.ndarray) -> str:
    return "[" + ", ".join(_fmt_complex(x) for x in u) + "]"


def _finite(values, what: str):
    """``values``, unless one is not finite: then DomainError."""
    if not np.isfinite(values).all():
        raise DomainError(f"{what} must be finite; got {values!r}")
    return values


class HoloDisk:
    """Base class for holomorphic disk maps D -> C^m."""

    dim: int = 1

    def _eval(self, z: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _jet(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Value and complex derivative at the points ``z``, each shaped (N, m)."""
        raise NotImplementedError

    def to_text(self) -> str:
        raise NotImplementedError

    def eval(self, z):
        """Value at ``z``: shape (m,) for scalar input, (N, m) for arrays."""
        zs = np.atleast_1d(np.asarray(z, dtype=complex))
        out = self._eval(zs)
        return out[0] if np.ndim(z) == 0 else out

    def deriv(self, z):
        """Complex derivative at ``z``, shaped like :meth:`eval`."""
        zs = np.atleast_1d(np.asarray(z, dtype=complex))
        out = self._jet(zs)[1]
        return out[0] if np.ndim(z) == 0 else out

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.to_text()!r})"


class Identity(HoloDisk):
    """The coordinate map z."""

    def _eval(self, z):
        return z[:, None]

    def _jet(self, z):
        return z[:, None], np.ones_like(z)[:, None]

    def to_text(self):
        return "z"


class Const(HoloDisk):
    """Constant scalar map."""

    def __init__(self, c) -> None:
        self.c = _finite(complex(c), "const value")

    def _eval(self, z):
        return np.full((z.shape[0], 1), self.c)

    def _jet(self, z):
        return self._eval(z), np.zeros((z.shape[0], 1), dtype=complex)

    def to_text(self):
        return f"const({_fmt_complex(self.c)})"


class Poly(HoloDisk):
    """Scalar polynomial with ascending complex coefficients."""

    def __init__(self, coeffs) -> None:
        c = np.atleast_1d(np.asarray(coeffs, dtype=complex))
        if c.ndim != 1 or c.shape[0] == 0:
            raise DomainError("poly needs a nonempty coefficient vector")
        self.coeffs = P.polytrim(_finite(c, "poly coefficients"), tol=0.0)

    def _eval(self, z):
        return P.polyval(z, self.coeffs)[:, None]

    def _jet(self, z):
        return self._eval(z), P.polyval(z, P.polyder(self.coeffs))[:, None]

    def to_text(self):
        return "poly(" + ", ".join(_fmt_complex(c) for c in self.coeffs) + ")"


class Blaschke(HoloDisk):
    """Blaschke factor (z + c) / (1 + conj(c) z) with |c| < 1."""

    def __init__(self, c) -> None:
        c = complex(c)
        if not abs(c) < 1.0:
            raise DomainError(f"Blaschke parameter must satisfy |c| < 1; got {abs(c):.6g}")
        self.c = c

    def _eval(self, z):
        return ((z + self.c) / (1.0 + np.conj(self.c) * z))[:, None]

    def _jet(self, z):
        den = 1.0 + np.conj(self.c) * z
        return ((z + self.c) / den)[:, None], ((1.0 - abs(self.c) ** 2) / den ** 2)[:, None]

    def to_text(self):
        return f"blaschke({_fmt_complex(self.c)})"


class Mul(HoloDisk):
    """Product of two scalar maps."""

    def __init__(self, f: HoloDisk, g: HoloDisk) -> None:
        if f.dim != 1 or g.dim != 1:
            raise DomainError("mul requires scalar factors")
        self.f = f
        self.g = g

    def _eval(self, z):
        return self.f._eval(z) * self.g._eval(z)

    def _jet(self, z):
        fv, fd = self.f._jet(z)
        gv, gd = self.g._jet(z)
        return fv * gv, fd * gv + fv * gd

    def to_text(self):
        return f"mul({self.f.to_text()}, {self.g.to_text()})"


class Add(HoloDisk):
    """Sum of two maps of equal dimension."""

    def __init__(self, f: HoloDisk, g: HoloDisk) -> None:
        if f.dim != g.dim:
            raise DomainError(f"add requires equal dimensions; got {f.dim} and {g.dim}")
        self.f = f
        self.g = g
        self.dim = f.dim

    def _eval(self, z):
        return self.f._eval(z) + self.g._eval(z)

    def _jet(self, z):
        fv, fd = self.f._jet(z)
        gv, gd = self.g._jet(z)
        return fv + gv, fd + gd

    def to_text(self):
        return f"add({self.f.to_text()}, {self.g.to_text()})"


class CMul(HoloDisk):
    """Complex scalar multiple of a map."""

    def __init__(self, c, f: HoloDisk) -> None:
        self.c = _finite(complex(c), "cmul factor")
        self.f = f
        self.dim = f.dim

    def _eval(self, z):
        return self.c * self.f._eval(z)

    def _jet(self, z):
        fv, fd = self.f._jet(z)
        return self.c * fv, self.c * fd

    def to_text(self):
        return f"cmul({_fmt_complex(self.c)}, {self.f.to_text()})"


class Embed(HoloDisk):
    """Scalar map times a constant vector: z -> f(z) * u."""

    def __init__(self, f: HoloDisk, u) -> None:
        if f.dim != 1:
            raise DomainError("scale requires a scalar map")
        u = np.atleast_1d(np.asarray(u, dtype=complex))
        if u.ndim != 1 or u.shape[0] == 0:
            raise DomainError("scale direction must be a nonempty vector")
        self.f = f
        self.u = _finite(u, "scale direction")
        self.dim = u.shape[0]

    # (1, N) by (m, 1): one point and m = 1 is a same-shape product, rounded as before.
    def _eval(self, z):
        return (self.f._eval(z).T * self.u[:, None]).T

    def _jet(self, z):
        fv, fd = self.f._jet(z)
        return (fv.T * self.u[:, None]).T, (fd.T * self.u[:, None]).T

    def to_text(self):
        return f"scale({self.f.to_text()}, u={_fmt_vector(self.u)})"


class Vec(HoloDisk):
    """Coordinate-wise combination of scalar maps into a vector map."""

    def __init__(self, components) -> None:
        comps = list(components)
        if not comps:
            raise DomainError("vec needs at least one component")
        if any(f.dim != 1 for f in comps):
            raise DomainError("vec components must be scalar maps")
        self.components = comps
        self.dim = len(comps)

    def _eval(self, z):
        return np.stack([f._eval(z)[:, 0] for f in self.components]).T

    def _jet(self, z):
        jets = [f._jet(z) for f in self.components]
        return tuple(np.stack([part[:, 0] for part in parts]).T for parts in zip(*jets))

    def to_text(self):
        return "vec(" + ", ".join(f.to_text() for f in self.components) + ")"


class ComposeAut(HoloDisk):
    """Post-composition with a ball automorphism: z -> phi_a(F(z))."""

    def __init__(self, aut: BallAutomorphism, f: HoloDisk) -> None:
        if aut.dim != f.dim:
            raise DomainError(f"compose dimension mismatch: {aut.dim} vs {f.dim}")
        self.aut = aut
        self.f = f
        self.dim = f.dim

    def _eval(self, z):
        return self.aut.apply(self.f._eval(z))

    def _jet(self, z):
        return self.aut._apply_and_differential(*self.f._jet(z))

    def to_text(self):
        return f"compose(phi(a={_fmt_vector(self.aut.a)}), {self.f.to_text()})"


# ---------------------------------------------------------------------------
# parsing


def parse_disk(text: str) -> HoloDisk:
    """Read the text ``HoloDisk.to_text`` writes back into a tree.

    The text is parsed as a Python expression with :mod:`ast`, and nothing in
    it is evaluated: the walk matches only ``z``, the node calls of the
    grammar and ``[...]`` vectors, and each number is ``complex()`` of its own
    source text.  Malformed text raises :class:`ParseError`; values a node
    rejects raise :class:`~diskcheck.reports.DomainError`.
    """
    text = text.strip()
    try:
        tree = ast.parse(text, mode="eval")
    except (SyntaxError, ValueError) as exc:  # ValueError: null bytes, Python 3.10
        raise ParseError(f"not a disk expression: {exc}") from None
    # ast positions are (line, UTF-8 byte column); ast.get_source_segment
    # would split the whole text into lines again for every number.
    data = text.encode()
    line_starts = list(itertools.accumulate(map(len, data.splitlines(keepends=True)), initial=0))

    def source(node) -> str:
        start = line_starts[node.lineno - 1] + node.col_offset
        return data[start:line_starts[node.end_lineno - 1] + node.end_col_offset].decode()

    def number(node) -> complex:
        try:
            return complex(source(node))
        except ValueError:
            raise ParseError(f"bad number {source(node)!r}") from None

    def vector(nodes) -> np.ndarray:
        return np.asarray([number(x) for x in nodes], dtype=complex)

    def disk(node) -> HoloDisk:
        match node:
            case ast.Name(id="z"):
                return Identity()
            case ast.Call(func=ast.Name(id="const" | "blaschke" as name), args=[c], keywords=[]):
                return (Const if name == "const" else Blaschke)(number(c))
            case ast.Call(func=ast.Name(id="poly"), args=coeffs, keywords=[]):
                return Poly(vector(coeffs))
            case ast.Call(func=ast.Name(id="mul" | "add" as name), args=[f, g], keywords=[]):
                return (Mul if name == "mul" else Add)(disk(f), disk(g))
            case ast.Call(func=ast.Name(id="cmul"), args=[c, f], keywords=[]):
                return CMul(number(c), disk(f))
            case ast.Call(
                func=ast.Name(id="scale"), args=[f], keywords=[ast.keyword(arg="u", value=ast.List(elts=u))]
            ):
                return Embed(disk(f), vector(u))
            case ast.Call(func=ast.Name(id="vec"), args=components, keywords=[]):
                return Vec([disk(f) for f in components])
            case ast.Call(
                func=ast.Name(id="compose"),
                args=[
                    ast.Call(func=ast.Name(id="phi"), args=[], keywords=[ast.keyword(arg="a", value=ast.List(elts=a))]),
                    f,
                ],
                keywords=[],
            ):
                return ComposeAut(BallAutomorphism(vector(a)), disk(f))
        raise ParseError(f"not a disk expression: {source(node)!r}")

    return disk(tree.body)


# ---------------------------------------------------------------------------
# builders


def affine_disk(u) -> HoloDisk:
    """The affine disk z -> z * u."""
    return Embed(Identity(), u)


def blaschke_product(cs, include_z: bool = False) -> HoloDisk:
    """Finite Blaschke product, optionally z-premultiplied, rotated to fix 1.

    The product is multiplied by the unimodular constant that makes
    f(1) = 1 (so Julia-type checks apply directly).
    """
    cs = list(cs)
    if not cs and not include_z:
        raise DomainError("empty Blaschke product")
    node: HoloDisk | None = Identity() if include_z else None
    for c in cs:
        factor = Blaschke(c)
        node = factor if node is None else Mul(node, factor)
    value_at_one = complex(node.eval(1.0 + 0j)[0])
    return CMul(np.conj(value_at_one) / abs(value_at_one) ** 2, node)


def extremal_family_1d(a: float) -> HoloDisk:
    """Boundary-equality family member f(z) = z (z + a) / (1 + a z), a in [0, 1).

    Satisfies f(0) = 0, f(1) = 1, f'(0) = a and f'(1) = 2 / (1 + a); the
    a = 0 member is z^2.
    """
    a = float(a)
    if not 0.0 <= a < 1.0:
        raise DomainError(f"family parameter must lie in [0, 1); got {a}")
    return Mul(Identity(), Blaschke(a))


# ---------------------------------------------------------------------------
# boundary machinery


def _boundary_param(zeta) -> complex:
    zeta = complex(zeta)
    if not abs(abs(zeta) - 1.0) <= 1e-14:
        raise DomainError(f"boundary parameter must have |zeta| = 1; got {abs(zeta):.17g}")
    return zeta


def _read_only(grid: np.ndarray) -> np.ndarray:
    grid.setflags(write=False)
    return grid


@functools.lru_cache(maxsize=None)
def _boundary_grid(n: int) -> np.ndarray:
    """The n-th roots of unity, counterclockwise from 1 (cached, read-only)."""
    return _read_only(np.exp(1j * (2.0 * np.pi * np.arange(n) / n)))


def _polar_grid(radii: np.ndarray, n_angles: int) -> np.ndarray:
    """Every radius times every point of an ``n_angles`` boundary grid, flattened."""
    return (radii[:, None] * _boundary_grid(n_angles)[None, :]).ravel()


@functools.lru_cache(maxsize=None)
def _interior_grid(n: int) -> np.ndarray:
    """The polar grid of n radii in [0, 1) and n angles (cached, read-only)."""
    return _read_only(_polar_grid(np.linspace(0.0, 1.0, n, endpoint=False), n))


def _grid_max_norm(evaluate, n_boundary: int, n_interior: int) -> float:
    """Max of the norm of ``evaluate`` over boundary and interior polar grids."""
    worst = float(np.max(vnorm(evaluate(_boundary_grid(n_boundary)))))
    return max(worst, float(np.max(vnorm(evaluate(_interior_grid(n_interior))))))


def sup_boundary_norm(f: HoloDisk) -> float:
    """Max of ||f|| over the ``BOUNDARY_GRID``-point boundary grid."""
    return float(np.max(vnorm(f._eval(_boundary_grid(BOUNDARY_GRID)))))


def certify_in_ball(f: HoloDisk, n_boundary: int = BOUNDARY_GRID, n_interior: int = INTERIOR_GRID) -> float:
    """Max of ||f|| over boundary and interior polar grids.

    ||f||^2 is subharmonic so the boundary grid dominates in exact arithmetic;
    the interior grid is a cheap independent guard.
    """
    return _grid_max_norm(f._eval, n_boundary, n_interior)


def _require_zero_at_origin(n0: float) -> None:
    """Raise unless ``n0``, a map's ||F(0)||, is zero."""
    if n0 > 1e-12:
        raise DomainError(f"map must fix the origin; got ||F(0)|| = {n0:.6g}")


def _require_boundary_contact(n: float) -> None:
    """Raise unless ``n``, the norm of a disk's or a surface's F(zeta), is 1."""
    if abs(n - 1.0) > 1e-10:
        raise DomainError(f"not a boundary-contact point: ||F(zeta)|| = {n:.12g}")


def _norm_jet(f: HoloDisk, points) -> tuple[list[float], list[float]]:
    """||F|| and ||F'|| at each of ``points``, from one walk."""
    values, derivs = f._jet(np.asarray(points, dtype=complex))
    return vnorm(values).tolist(), vnorm(derivs).tolist()


# ---------------------------------------------------------------------------
# interior growth bounds


def growth_margins(f: HoloDisk, zs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Growth and quotient margins at each of ``zs``, from one walk of F.

    With A = ||F'(0)|| and x = ||F(z)/z||: growth
    |z|(|z| + A)/(1 + |z| A) - ||F(z)||; upper (A + |z|)/(1 + A |z|) - x,
    valid in every dimension; lower x - max((A - |z|)/(1 - A |z|), 0),
    asserted by callers only for m = 1 or collinear-range maps and reported
    otherwise.
    """
    (n0,), (a,) = _norm_jet(f, [0j])
    _require_zero_at_origin(n0)
    zs = np.atleast_1d(np.asarray(zs, dtype=complex))
    r = np.abs(zs)
    if not np.all((r > 0.0) & (r < 1.0)):
        raise DomainError("growth and quotient bounds need 0 < |z| < 1")
    norms = vnorm(f._eval(zs))
    x = norms / r
    growth = r * (r + a) / (1.0 + r * a) - norms
    upper = (a + r) / (1.0 + a * r) - x
    lower = x - np.maximum((a - r) / (1.0 - a * r), 0.0)
    return growth, upper, lower


# ---------------------------------------------------------------------------
# boundary derivative bounds


def _origin_bound(n0: float, n: float, a: float) -> float:
    """The bound 2/(1 + a) for a map with ||F(0)|| = n0, ||F(zeta)|| = n and ||F'(0)|| = a."""
    _require_zero_at_origin(n0)
    _require_boundary_contact(n)
    return 2.0 / (1.0 + a)


def boundary_bound_origin(f: HoloDisk, zeta) -> CheckValues:
    """Margin ||F'(zeta)|| - 2/(1 + ||F'(0)||) for origin-fixing contact maps, from one walk at [0, zeta]."""
    (n0, n), (a, val) = _norm_jet(f, [0j, _boundary_param(zeta)])
    bound = _origin_bound(n0, n, a)
    return CheckValues(val, bound, val - bound, {"deriv0_norm": a})


def _shifted_bound(r: float, n: float, a: float) -> float:
    """The main bound 2 (1 - r)^2 / (1 - r^2 + a) for ||F(0)|| = r, ||F(zeta)|| = n and ||F'(0)|| = a."""
    _require_boundary_contact(n)
    if r >= 1.0 - 1e-12:
        raise DomainError("degenerate map: ||F(0)|| = 1 pins the image to the boundary")
    return 2.0 * (1.0 - r) ** 2 / (1.0 - r * r + a)


def boundary_bound_shifted(f: HoloDisk, zeta) -> CheckValues:
    """Basepoint-shifted boundary bound with the dimension-dependent floor, from one walk at [0, zeta].

    Main bound: ||F'(zeta)|| >= 2 (1 - r)^2 / (1 - r^2 + ||F'(0)||) with
    r = ||F(0)|| < 1.  The floor substitutes the maximal ||F'(0)||:
    sqrt(1 - r^2) for m >= 2 (giving 2 (1 - r)^2 / (1 - r^2 + sqrt(1 - r^2)))
    and 1 - r^2 for m = 1 (giving (1 - r)/(1 + r)).

    The floor is reported, not claimed sharp: it has no witness in the
    search's ``family_md``.  On that family's equality slice, with
    ||F(0)|| = |t|, ||F'(0)|| = (1 - t^2)|c| < sqrt(1 - t^2), so
    ``floor_margin`` stays positive there.
    """
    (r, n), (a, val) = _norm_jet(f, [0j, _boundary_param(zeta)])
    main = _shifted_bound(r, n, a)
    if f.dim >= 2:
        floor = 2.0 * (1.0 - r) ** 2 / (1.0 - r * r + math.sqrt(1.0 - r * r))
    else:
        floor = (1.0 - r) / (1.0 + r)
    return CheckValues(val, main, val - main, {
        "floor_bound": floor,
        "floor_margin": val - floor,
        "base_norm": r,
        "deriv0_norm": a,
    })


def schwarz_derivative_bound(f: HoloDisk) -> CheckValues:
    """Margin sqrt(1 - ||F(0)||^2) - ||F'(0)|| for ball-valued maps."""
    (r,), (a,) = _norm_jet(f, [0j])
    if r > 1.0:
        raise DomainError("map must send the disk into the closed ball")
    bound = math.sqrt(max(1.0 - r * r, 0.0))
    return CheckValues(a, bound, bound - a, {"base_norm": r})


# ---------------------------------------------------------------------------
# Julia-type quotient bound (scalar maps fixing 1)


def _julia_deriv_at_one(f: HoloDisk) -> float:
    if f.dim != 1:
        raise DomainError("Julia bound applies to scalar maps")
    values, derivs = f._jet(np.ones(1, dtype=complex))
    one = complex(values[0, 0])
    if abs(one - 1.0) > 1e-10:
        raise DomainError(f"map must fix 1; got f(1) = {one!r}")
    d1 = complex(derivs[0, 0])
    if abs(d1.imag) > 1e-10:
        raise DomainError(f"boundary derivative at 1 must be real; got {d1!r}")
    if d1.real <= 0.0:
        raise DomainError(f"boundary derivative at 1 must be positive; got {d1.real!r}")
    return d1.real


def julia_margins(f: HoloDisk, zs) -> np.ndarray:
    """Vectorized Julia margins f'(1)|1-z|^2/(1-|z|^2) - |1-f(z)|^2/(1-|f(z)|^2)."""
    d1 = _julia_deriv_at_one(f)
    zs = np.atleast_1d(np.asarray(zs, dtype=complex))
    if not np.all(np.abs(zs) < 1.0):
        raise DomainError("Julia margin requires interior points")
    w = f._eval(zs)[:, 0]
    lhs = np.abs(1.0 - w) ** 2 / (1.0 - np.abs(w) ** 2)
    rhs = d1 * np.abs(1.0 - zs) ** 2 / (1.0 - np.abs(zs) ** 2)
    return rhs - lhs


# ---------------------------------------------------------------------------
# radial boundary estimates


def analytic_radial_derivative(f: HoloDisk, zeta) -> float:
    """d/dr ||F(r zeta)|| at r = 1, via Re<zeta F'(zeta), F(zeta)> / ||F(zeta)||."""
    zeta = _boundary_param(zeta)
    (val,), (dval,) = f._jet(np.array([zeta]))
    return float(np.real(inner(zeta * dval, val)) / vnorm(val))


def radial_derivative_estimate(f: HoloDisk, zeta) -> tuple[float, float]:
    """Estimate lim_{r->1} (1 - ||F(r zeta)||) / (1 - r) by extrapolation.

    Difference quotients on the radius schedule r_k = 1 - 2^-k, k = 3..20,
    are refined by one level of Richardson extrapolation; the returned error
    estimate is the last extrapolated increment.
    """
    zeta = _boundary_param(zeta)
    rs = 1.0 - 0.5 ** np.arange(RADIAL_SCHEDULE_KMIN, RADIAL_SCHEDULE_KMAX + 1)
    h = 1.0 - rs
    q = (1.0 - vnorm(f._eval(rs * zeta))) / h
    rich = (h[:-1] * q[1:] - h[1:] * q[:-1]) / (h[:-1] - h[1:])
    estimate = float(rich[-1])
    error = float(abs(rich[-1] - rich[-2]) + 1e-12 * (1.0 + abs(estimate)))
    return estimate, error


# ---------------------------------------------------------------------------
# sharpness of the boundary bound in the family parameter


def nonreal_parameter_strictness(a: complex) -> CheckValues:
    """Boundary-bound margin of the rotated map z * b_a(z), strict for arg(a) != 0.

    For a = r e^{it} the margin has the closed form
    2 r (1 - cos t)(1 - r) / ((1 + 2 r cos t + r^2)(1 + r)), which vanishes
    exactly on the real ray t = 0.
    """
    a = complex(a)
    r, t = abs(a), math.atan2(a.imag, a.real)
    if not 0.0 < r < 1.0:
        raise DomainError("parameter must satisfy 0 < |a| < 1")
    val, bound, margin, _ = boundary_bound_origin(blaschke_product([a], include_z=True), 1.0 + 0j)
    closed = 2.0 * r * (1.0 - math.cos(t)) * (1.0 - r) / ((1.0 + 2.0 * r * math.cos(t) + r * r) * (1.0 + r))
    return CheckValues(val, bound, margin, {"closed_form": closed, "closed_form_deviation": margin - closed})


# ---------------------------------------------------------------------------
# affine rigidity


def affine_rigidity_check(f: HoloDisk) -> CheckValues:
    """If F fixes 0, reaches the sphere at 1 and ||F'(1)|| <= 1, F must be affine.

    Checks max over an interior polar grid of | ||F(z)|| - |z| |; reported as
    not applicable (and passing) when the premises fail.  A NaN premise
    decides nothing, so it makes the margin NaN and the check fail.
    """
    (n0, n1), (_, deriv1_norm) = _norm_jet(f, [0j, 1.0 + 0j])
    applicable = n0 <= 1e-12 and abs(n1 - 1.0) <= 1e-10 and deriv1_norm <= 1.0 + 1e-10
    dev = math.nan if math.isnan(n0 + n1 + deriv1_norm) else 0.0
    if applicable:
        zs = _polar_grid(np.linspace(0.05, 0.95, 64), 64)
        dev = float(np.max(np.abs(vnorm(f._eval(zs)) - np.abs(zs))))
    return CheckValues(dev, 0.0, dev, {"applicable": applicable})


__all__ = [
    "Add",
    "Blaschke",
    "CMul",
    "ComposeAut",
    "Const",
    "Embed",
    "HoloDisk",
    "Identity",
    "Mul",
    "ParseError",
    "Poly",
    "Vec",
    "affine_disk",
    "affine_rigidity_check",
    "analytic_radial_derivative",
    "blaschke_product",
    "boundary_bound_origin",
    "boundary_bound_shifted",
    "certify_in_ball",
    "extremal_family_1d",
    "growth_margins",
    "julia_margins",
    "nonreal_parameter_strictness",
    "parse_disk",
    "radial_derivative_estimate",
    "schwarz_derivative_bound",
    "sup_boundary_norm",
]

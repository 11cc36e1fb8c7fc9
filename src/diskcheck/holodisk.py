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
margin per sample point, and a suite run judges the array, or folds
``growth_sweep``'s point blocks as every map is checked on them.
``growth_margins`` gives the growth and both quotient margins from one walk
of F over the batch, so like the quotient bounds it needs 0 < |z| < 1;
``julia_margins`` gives the Julia margins.  The per-instance checks return
the raw :class:`~diskcheck.reports.CheckValues` (lhs, rhs, margin) of
one case and judge nothing: only a suite run names and judges cases, each
check once, with the run's tolerances.

``to_text`` writes a map in a nested prefix notation, e.g.
``mul(z, blaschke(0.5))`` or ``compose(phi(a=[0.3, 0.0]), scale(z, u=[1.0, 0.0]))``,
which names report instances; see the README for the exact grammar.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .ballgeom import BallAutomorphism, inner, vnorm
from .reports import CheckValues, DomainError

# Grid sizes for in-ball certification of corpus members.
BOUNDARY_GRID = 4096
INTERIOR_GRID = 128

# Radius schedule for the boundary difference quotients: 1 - 2^-k.
RADIAL_SCHEDULE_KMIN = 3
RADIAL_SCHEDULE_KMAX = 20


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


# ---------------------------------------------------------------------------
# polynomial coefficients
#
# Ascending complex coefficient vectors, handled by the same array operations
# as numpy's polyval, polytrim, polyder, polymul, polyadd, polysub and polyint
# on 1-D complex input, so every value and every zero sign has their bits.


def _horner(z, c):
    """The polynomial with coefficients ``c`` at ``z`` (scalar or array), by Horner's rule."""
    out = c[-1] + z * 0
    for a in c[-2::-1]:
        out = a + out * z
    return out


def _trimseq(c):
    """``c`` without its trailing zero coefficients, keeping at least the first."""
    nonzero = np.flatnonzero(c != 0)
    return c[: nonzero[-1] + 1] if len(nonzero) else c[:1]


def _polytrim(c):
    """A trimmed copy of finite ``c``; the zero polynomial is ``c[:1] * 0``."""
    c = _trimseq(c)
    return c * 0 if c[-1] == 0 else c.copy()


def _polyder(c):
    """The derivative's coefficients.

    ``c * 1`` is a complex product, as in numpy: it turns a -0.0 imaginary part beside a +0.0 real one into +0.0.
    """
    if len(c) == 1:
        return c * 0
    return (c * 1)[1:] * np.arange(1, len(c))


def _polymul(c1, c2):
    """The product's coefficients, by ``np.convolve`` of the trimmed operands."""
    return _trimseq(np.convolve(_trimseq(c1), _trimseq(c2)))


def _polyadd(c1, c2):
    """The sum, added into a copy of the longer operand (of ``c2`` on a tie)."""
    short, long = sorted((_trimseq(c1), _trimseq(c2)), key=len)
    out = long.copy()
    out[: len(short)] += short
    return _trimseq(out)


def _polysub(c1, c2):
    """``c1 - c2``: a longer ``c2`` is negated whole, so its zeros past ``c1`` become -0.0."""
    return _polyadd(c1, -c2)


def _polyint(c):
    """The antiderivative vanishing at 0; the zero polynomial's keeps one coefficient."""
    c = c * 1
    if len(c) == 1 and c[0] == 0:
        return c + 0
    out = np.empty(len(c) + 1, dtype=complex)
    out[0] = c[0] * 0
    out[1] = c[0]
    out[2:] = c[1:] / np.arange(2, len(c) + 1)
    # numpy subtracts the value at 0, which only sets the sign of this zero.
    out[0] += 0 - _horner(0, out)
    return out


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
        self.coeffs = _polytrim(_finite(c, "poly coefficients"))
        self._deriv_coeffs = _polyder(self.coeffs)

    def _eval(self, z):
        return _horner(z, self.coeffs)[:, None]

    def _jet(self, z):
        return self._eval(z), _horner(z, self._deriv_coeffs)[:, None]

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

    # (1, N) by (m, 1), handed out as the (N, m) transpose: a component-major batch.
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
        out = np.empty((self.dim, len(z)), dtype=complex)
        for row, f in zip(out, self.components):
            row[...] = f._eval(z)[:, 0]
        return out.T

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


# Bulk checks place and check their points in blocks of at most this many
# elements: points times the components of a point's value.
_POINT_BLOCK = 16384


def _point_slices(n: int, width: int = 1) -> list[slice]:
    """Near-equal consecutive slices of ``range(n)``, each of at most ``_POINT_BLOCK // width`` points.

    Each slice holds at least one point; n = 0 gives one empty slice.  Every
    value has the same bits in a block of any size, so the block size bounds
    memory only.
    """
    k = max(1, -(-n // max(1, _POINT_BLOCK // width)))
    edges = [n * i // k for i in range(k + 1)]
    return [slice(a, b) for a, b in zip(edges, edges[1:])]


def _polar_grid(radii: np.ndarray, n_angles: int) -> np.ndarray:
    """Every radius times every point of an ``n_angles`` boundary grid, flattened."""
    return (radii[:, None] * _boundary_grid(n_angles)[None, :]).ravel()


@functools.lru_cache(maxsize=None)
def _interior_grid(n: int) -> np.ndarray:
    """The polar grid of n radii in [0, 1) and n angles (cached, read-only)."""
    return _read_only(_polar_grid(np.linspace(0.0, 1.0, n, endpoint=False), n))


def certify_in_ball(f: HoloDisk, n_boundary: int = BOUNDARY_GRID, n_interior: int = INTERIOR_GRID) -> float:
    """Max of ||f|| over boundary and interior polar grids.

    ||f||^2 is subharmonic so the boundary grid dominates in exact arithmetic;
    the interior grid is a cheap independent guard.
    """
    worst = float(np.max(vnorm(f._eval(_boundary_grid(n_boundary)))))
    return max(worst, float(np.max(vnorm(f._eval(_interior_grid(n_interior))))))


def _require_zero_at_origin(n0: float) -> None:
    """Raise unless ``n0``, a map's ||F(0)||, is zero."""
    if not n0 <= 1e-12:
        raise DomainError(f"map must fix the origin; got ||F(0)|| = {n0:.6g}")


def _require_boundary_contact(n: float) -> None:
    """Raise unless ``n``, the norm of a disk's or a surface's F(zeta), is 1."""
    if not abs(n - 1.0) <= 1e-10:
        raise DomainError(f"not a boundary-contact point: ||F(zeta)|| = {n:.12g}")


def _norm_jet(f: HoloDisk, points) -> tuple[list[float], list[float]]:
    """||F|| and ||F'|| at each of ``points``, from one walk."""
    values, derivs = f._jet(np.asarray(points, dtype=complex))
    return vnorm(values).tolist(), vnorm(derivs).tolist()


# ---------------------------------------------------------------------------
# interior growth bounds


def _origin_slope(f: HoloDisk) -> float:
    """||F'(0)|| of a map that fixes the origin, from one walk at 0."""
    (n0,), (a,) = _norm_jet(f, [0j])
    _require_zero_at_origin(n0)
    return a


def growth_margins(f: HoloDisk, zs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Growth and quotient margins at each of ``zs``, from one walk of F at 0 and one per point block.

    With A = ||F'(0)|| and x = ||F(z)/z||: growth
    |z|(|z| + A)/(1 + |z| A) - ||F(z)||; upper (A + |z|)/(1 + A |z|) - x,
    valid in every dimension; lower x - max((A - |z|)/(1 - A |z|), 0),
    asserted by callers only for m = 1 or collinear-range maps and reported
    otherwise.  ``zs`` is a point or a sequence of points.
    """
    a = _origin_slope(f)
    zs = np.asarray([zs] if np.ndim(zs) == 0 else zs, dtype=complex)
    out = np.empty((3, len(zs)))
    for block in _point_slices(len(zs), f.dim):
        _growth_block(f, a, zs[block], out[:, block])
    return out[0], out[1], out[2]


def growth_sweep(maps, blocks, fold) -> None:
    """``growth_margins`` of every one of ``maps`` over one sampled sweep, point block by point block.

    ``blocks`` is an iterable of 1-d point blocks, such as a
    ``corpus._BlockDraw``, and is read once.  Each map's jet at 0 is walked
    once; then each block is checked against every map before the next one
    is drawn, and ``fold(k, z, growth, upper, lower)`` takes map k's margins
    at the block's points z.  The margin rows are overwritten by the next
    map's, so ``fold`` copies what it keeps; no array outlives its block.
    """
    slopes = [_origin_slope(f) for f in maps]
    for z in blocks:
        out = np.empty((3, len(z)))
        for k, (f, a) in enumerate(zip(maps, slopes)):
            _growth_block(f, a, z, out)
            fold(k, z, *out)
        del z, out  # before the next block is drawn


def _growth_block(f: HoloDisk, a: float, z: np.ndarray, out: np.ndarray) -> None:
    """``growth_margins`` at the points ``z`` of one block, into the rows of ``out``.

    Its temporaries are freed on return, before the next block is placed.
    r + a, r a and 1 + r a are formed once for all three margins; + and x
    commute bit for bit, so each margin has the bits of its formula.
    """
    r = np.abs(z)
    if r.size and not (r.min() > 0.0 and r.max() < 1.0):
        raise DomainError("growth and quotient bounds need 0 < |z| < 1")
    norms = vnorm(f._eval(z))
    growth, upper, lower = out
    ra = r * a
    rsum = r + a
    denom = 1.0 + ra
    np.multiply(r, rsum, out=growth)
    growth /= denom
    growth -= norms
    norms /= r  # x = ||F(z)|| / |z|
    np.divide(rsum, denom, out=upper)
    upper -= norms
    np.subtract(a, r, out=rsum)
    np.subtract(1.0, ra, out=ra)
    rsum /= ra
    np.maximum(rsum, 0.0, out=rsum)
    np.subtract(norms, rsum, out=lower)


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
    return CheckValues(val, bound, val - bound)


def _shifted_bound(r: float, n: float, a: float) -> float:
    """The main bound 2 (1 - r)^2 / (1 - r^2 + a) for ||F(0)|| = r, ||F(zeta)|| = n and ||F'(0)|| = a."""
    _require_boundary_contact(n)
    if not r < 1.0 - 1e-12:
        raise DomainError(f"degenerate map: ||F(0)|| = {r:.12g} is not below 1")
    return 2.0 * (1.0 - r) ** 2 / (1.0 - r * r + a)


def boundary_bound_shifted(f: HoloDisk, zeta) -> CheckValues:
    """Basepoint-shifted boundary bound, from one walk at [0, zeta].

    It is ||F'(zeta)|| >= 2 (1 - r)^2 / (1 - r^2 + ||F'(0)||) with r = ||F(0)|| < 1.
    """
    (r, n), (a, val) = _norm_jet(f, [0j, _boundary_param(zeta)])
    main = _shifted_bound(r, n, a)
    return CheckValues(val, main, val - main)


def schwarz_derivative_bound(f: HoloDisk) -> CheckValues:
    """Margin sqrt(1 - ||F(0)||^2) - ||F'(0)|| for ball-valued maps."""
    (r,), (a,) = _norm_jet(f, [0j])
    if not r <= 1.0:
        raise DomainError(f"map must send the disk into the closed ball; got ||F(0)|| = {r:.6g}")
    bound = math.sqrt(max(1.0 - r * r, 0.0))
    return CheckValues(a, bound, bound - a)


# ---------------------------------------------------------------------------
# Julia-type quotient bound (scalar maps fixing 1)


def _julia_deriv_at_one(f: HoloDisk) -> float:
    if f.dim != 1:
        raise DomainError("Julia bound applies to scalar maps")
    values, derivs = f._jet(np.ones(1, dtype=complex))
    one = complex(values[0, 0])
    if not abs(one - 1.0) <= 1e-10:
        raise DomainError(f"map must fix 1; got f(1) = {one!r}")
    d1 = complex(derivs[0, 0])
    if not abs(d1.imag) <= 1e-10:
        raise DomainError(f"boundary derivative at 1 must be real; got {d1!r}")
    if not d1.real > 0.0:
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

    Its closed form is :func:`nonreal_parameter_closed_form`.
    """
    a = complex(a)
    if not 0.0 < abs(a) < 1.0:
        raise DomainError("parameter must satisfy 0 < |a| < 1")
    return boundary_bound_origin(blaschke_product([a], include_z=True), 1.0 + 0j)


def nonreal_parameter_closed_form(a: complex) -> float:
    """The margin of :func:`nonreal_parameter_strictness` in closed form.

    For a = r e^{it} it is 2 r (1 - cos t)(1 - r) / ((1 + 2 r cos t + r^2)(1 + r)),
    which vanishes exactly on the real ray t = 0.
    """
    a = complex(a)
    r, t = abs(a), math.atan2(a.imag, a.real)
    return 2.0 * r * (1.0 - math.cos(t)) * (1.0 - r) / ((1.0 + 2.0 * r * math.cos(t) + r * r) * (1.0 + r))


# ---------------------------------------------------------------------------
# affine rigidity


def affine_rigidity_check(f: HoloDisk) -> CheckValues:
    """If F fixes 0, reaches the sphere at 1 and ||F'(1)|| <= 1, F must be affine.

    Checks max over an interior polar grid of | ||F(z)|| - |z| |; when the
    premises fail it is not applicable, and its sides and margin are 0.0.
    A NaN premise decides nothing, so it makes the margin NaN and the check
    fail.
    """
    (n0, n1), (_, deriv1_norm) = _norm_jet(f, [0j, 1.0 + 0j])
    applicable = n0 <= 1e-12 and abs(n1 - 1.0) <= 1e-10 and deriv1_norm <= 1.0 + 1e-10
    dev = math.nan if math.isnan(n0 + n1 + deriv1_norm) else 0.0
    if applicable:
        zs = _polar_grid(np.linspace(0.05, 0.95, 64), 64)
        dev = float(np.max(np.abs(vnorm(f._eval(zs)) - np.abs(zs))))
    return CheckValues(dev, 0.0, dev)


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
    "growth_sweep",
    "julia_margins",
    "nonreal_parameter_closed_form",
    "nonreal_parameter_strictness",
    "radial_derivative_estimate",
    "schwarz_derivative_bound",
]

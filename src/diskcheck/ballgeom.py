"""Moebius geometry of the unit ball and hyperbolic distances.

Vectors live in C^m (represented as complex numpy arrays) with the Hermitian
inner product <x, y> = sum_j x_j * conj(y_j), linear in the first argument.
For a point a in the open ball the Moebius involution exchanging a and 0 is

    phi_a(w) = (a - P_a w - s * Q_a w) / (1 - <w, a>),

where P_a is the orthogonal projection onto the line C*a, Q_a = I - P_a and
s = sqrt(1 - ||a||^2).  The convention P_0 = 0 makes phi_0 = -identity.  All
point-wise operations broadcast over leading axes of ``w`` so entire sample
batches can be pushed through in one call.

Two distances are provided: the Poincare distance on the unit disk,
artanh(|z - w| / |1 - conj(z) w|), the integrated form of |dz| / (1 - |z|^2),
and the Cayley-Klein distance on the real unit ball,
arcosh((1 - <x, y>) / sqrt((1 - ||x||^2)(1 - ||y||^2))), evaluated in a
cancellation-free arsinh form.  Both measure artanh(r) along a radius from
the origin.
"""

from __future__ import annotations

import functools

import numpy as np

from .reports import DomainError

# Points with norm within this slack of 1 are accepted as boundary inputs
# where the closed ball is the legal domain.
_BALL_SLACK = 1e-10

# Below this ||a||^2 (the smallest normal double), phi_a(w) is a - w to double
# precision, since s and 1 - <w, a> both round to 1; numpy's complex division
# by a subnormal ||a||^2 would give inf and NaN.
_TINY = np.finfo(float).tiny


def inner(x: np.ndarray, y: np.ndarray) -> complex | np.ndarray:
    """Hermitian inner product <x, y> = sum x_j conj(y_j) over the last axis, summed in C order.

    The factors get one rank by leading unit axes, as at every product of
    points by an automorphism's parameter: numpy rounds an (N, 1) by (1,)
    complex product by another loop when N = 1, equal ranks by one loop at every N.
    """
    x, y = np.asarray(x), np.conj(y)
    return np.add.reduce(np.ascontiguousarray(x[(None,) * (y.ndim - x.ndim)] * y[(None,) * (x.ndim - y.ndim)]), axis=-1)


def vnorm(x: np.ndarray) -> float | np.ndarray:
    """Euclidean norm over the last axis, summed in numpy's order for a C-ordered ``x``.

    numpy adds a strided axis term by term, as it adds a contiguous one of up
    to 7 terms; from 8 to 128 contiguous terms it keeps eight running sums, of
    the terms j, j + 8, ..., and adds them in pairs before the rest.  A strided
    ``x`` (a component-major batch) takes those steps column by column, since
    copying it to C order cost the ``disk_bulk`` benchmark about 8% of its
    time; above 128 terms it is copied.

    The squares are the one array as large as ``x``, and every later step is in
    place but a strided ``x``'s root: numpy elides temporaries only above 256 KiB.
    """
    sq = np.abs(np.asarray(x))
    np.square(sq, out=sq)
    m = sq.shape[-1]
    if m > 128:
        sq = np.ascontiguousarray(sq)
    if m == 1:
        total = sq[..., 0]
    elif sq.flags.c_contiguous or m < 8:
        total = np.add.reduce(sq, axis=-1)
    else:
        r = [sq[..., j] for j in range(8)]
        for i in range(8, m - m % 8, 8):
            for j in range(8):
                r[j] += sq[..., i + j]
        for j, k in ((0, 1), (2, 3), (0, 2), (4, 5), (6, 7), (4, 6), (0, 4)):
            r[j] += r[k]
        for i in range(m - m % 8, m):
            r[0] += sq[..., i]
        return np.sqrt(r[0])
    return np.sqrt(total, out=total) if np.ndim(total) and total.dtype.kind == "f" else np.sqrt(total)


def _param_norm(a: np.ndarray) -> np.ndarray:
    """``vnorm(a)``, or ``np.hypot`` over the moduli where the sum of squares is subnormal."""
    squares = np.add.reduce(np.abs(a) ** 2, axis=-1)
    r = np.sqrt(squares)
    if (squares < _TINY).any():
        r = np.where(squares < _TINY, np.hypot.reduce(np.abs(a), axis=-1), r)
    return r


def _check_in_closed_ball(w: np.ndarray) -> None:
    n = vnorm(w)
    if not (n <= 1.0 + _BALL_SLACK).all():
        raise DomainError(f"w must lie in the closed unit ball; got norm {np.max(n):.6g}")


def _phi_value(a, r2, s, w: np.ndarray, t: np.ndarray) -> np.ndarray:
    """phi_a(w) with t = <w, a>, for ||a||^2 = ``r2`` >= ``_TINY`` and s = sqrt(1 - r2).

    ``a`` may be a (K, m) stack, with ``r2`` (K,) and ``s`` (K, 1).  It is
    raised to the rank of ``w`` (see :func:`inner`).
    """
    a = a[(None,) * (w.ndim - a.ndim)]
    pw = (t / r2)[..., None] * a
    return (a - pw - s * (w - pw)) / (1.0 - t)[..., None]


def _phi_jet(a, conj_a, r2, s, w: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(phi_a(w), D phi_a(w)[v]) with the arguments of :func:`_phi_value`."""
    a, conj_a = (x[(None,) * (w.ndim - x.ndim)] for x in (a, conj_a))
    t = np.add.reduce(w * conj_a, axis=-1)
    value = _phi_value(a, r2, s, w, t)
    ta = np.add.reduce(v * conj_a, axis=-1)
    pv = (ta / r2)[..., None] * a
    return value, (-pv - s * (v - pv) + ta[..., None] * value) / (1.0 - t)[..., None]


class BallAutomorphism:
    """The Moebius involution phi_a of the unit ball of C^m.

    Parameters
    ----------
    a : array_like of complex, shape (m,) or (K, m)
        Interior point exchanged with the origin: phi_a(0) = a, phi_a(a) = 0.
        A (K, m) stack gives K involutions evaluated together: ``r``, ``r2``
        and ``s`` are then (K,) arrays and ``e`` is (K, m), and every method
        takes points shaped (..., K, m), sending row k through phi_{a_k} with
        the arithmetic of a one-point call.

    Raises
    ------
    DomainError
        If ``a`` does not lie strictly inside the unit ball.
    """

    def __init__(self, a) -> None:
        a = np.atleast_1d(np.asarray(a, dtype=complex))
        if a.ndim > 2 or a.size == 0:
            raise DomainError("a must be a nonempty vector or a stack of them")
        r = _param_norm(a)
        if not (r < 1.0).all():
            raise DomainError(f"a must lie strictly inside the unit ball; got norm {np.max(r):.6g}")
        if a.ndim == 1:
            r = float(r)
        self.a = a
        self.dim = a.shape[-1]
        self.r = r
        self.r2 = r * r
        self.s = np.sqrt(1.0 - self.r2) if a.ndim == 2 else float(np.sqrt(1.0 - self.r2))
        self._s = self._col(self.s)
        self._conj_a = np.conj(a)
        # Rows with ||a||^2 below _TINY map w to a - w; dividing them by 1
        # instead keeps every row's arithmetic finite.
        self._tiny = self.r2 < _TINY
        self._any_tiny = bool(np.any(self._tiny))
        self._r2 = np.where(self._tiny, 1.0, self.r2) if self._any_tiny else self.r2

    @functools.cached_property
    def e(self):
        """The unit vector a / ||a||, zero where a = 0."""
        r = self._col(np.where(self.r > 0.0, self.r, 1.0))
        if not self._any_tiny:
            return self.a / r
        # numpy divides a complex number by a real one through the divisor's
        # reciprocal, which overflows for a subnormal ||a||; tiny rows divide
        # each part instead.
        tiny = self._col(self._tiny)
        return np.where(tiny, self.a.real / r + 1j * (self.a.imag / r), self.a / np.where(tiny, 1.0, r))

    def _col(self, x):
        """A per-parameter quantity, shaped to broadcast against points (..., K, m)."""
        return x[..., None] if self.a.ndim == 2 else x

    def _points(self, w) -> np.ndarray:
        w = np.ascontiguousarray(w, dtype=complex)
        if w.shape[-1] != self.dim:
            raise DomainError(f"dimension mismatch: automorphism is {self.dim}-dimensional")
        return w

    # -- point map -----------------------------------------------------

    def apply(self, w) -> np.ndarray:
        """Evaluate phi_a(w) for ``w`` in the closed ball, shape (..., m) or (..., K, m)."""
        w = self._points(w)
        _check_in_closed_ball(w)
        t = np.add.reduce(w * self._conj_a[(None,) * (w.ndim - self.a.ndim)], axis=-1)
        value = _phi_value(self.a, self._r2, self._s, w, t)
        if self._any_tiny:
            value = np.where(self._col(self._tiny), self.a - w, value)
        return value

    def _apply_and_differential(self, w, v) -> tuple[np.ndarray, np.ndarray]:
        """(phi_a(w), D phi_a(w)[v]), computing phi_a(w) once; broadcasts over (..., m)."""
        w = self._points(w)
        v = self._points(v)
        _check_in_closed_ball(w)
        value, deriv = _phi_jet(self.a, self._conj_a, self._r2, self._s, w, v)
        if self._any_tiny:
            tiny = self._col(self._tiny)
            value = np.where(tiny, self.a - w, value)
            deriv = np.where(tiny, -v + np.zeros_like(w), deriv)
        return value, deriv

    def differential(self, w, v) -> np.ndarray:
        """Directional derivative D phi_a(w)[v]; broadcasts over (..., m)."""
        return self._apply_and_differential(w, v)[1]

    def matrix(self, w) -> np.ndarray:
        """Complex m x m matrix of D phi_a(w); stacked over leading axes.

        One :meth:`differential` call takes the unit directions e_j on a new
        leading axis, which is moved last: column j is D phi_a(w)[e_j].
        """
        w = np.asarray(w, dtype=complex)
        directions = np.eye(self.dim, dtype=complex)[(slice(None),) + (None,) * (w.ndim - 1)]
        return np.moveaxis(self.differential(w[None], directions), 0, -1)

    # -- norms of the differential --------------------------------------

    def opnorm_formula(self, w) -> float | np.ndarray:
        """Closed-form candidate max(s, ||-e + r*phi_a(w)||) / |1 - <w, a>|.

        This is the maximum of the differential's norm along the direction of
        ``a`` and along the orthogonal complement, so it agrees with
        :meth:`opnorm_oracle` at w = a and w = a/||a|| in every dimension,
        and at w = 0 when the dimension is at least 2.  In dimension 1 the
        orthogonal branch ``s`` is vacuous and the formula can exceed the
        true norm; at general w in higher dimensions it can fall below it.
        Callers should treat it as a diagnostic, not a bound.
        """
        w = np.asarray(w, dtype=complex)
        t = inner(w, self.a)
        x = -self.e + self._col(self.r) * self.apply(w)
        val = np.maximum(self.s, vnorm(x)) / np.abs(1.0 - t)
        return val if np.ndim(val) else float(val)

    def opnorm_oracle(self, w) -> float | np.ndarray:
        """Exact operator norm of D phi_a(w): largest singular value."""
        val = np.linalg.svd(self.matrix(w), compute_uv=False)[..., 0]
        return val if np.ndim(val) else float(val)

    def opnorm_global_bound(self) -> float:
        """Supremum (1 + r) / (1 - r) of the operator norm over the closed ball."""
        return (1.0 + self.r) / (1.0 - self.r)

    def norm_identity_residual(self, w) -> float | np.ndarray:
        """Residual of (1 - ||phi_a(w)||^2) |1 - <w, a>|^2 = (1 - r^2)(1 - ||w||^2).

        Squares go through ``np.float_power``, which rounds like C ``pow``,
        as ``**`` does on the scalars of a one-point call; ``**`` on arrays
        squares instead, and the two differ in the last bit about once in
        a thousand.
        """
        w = np.asarray(w, dtype=complex)
        t = inner(w, self.a)
        lhs = (1.0 - np.float_power(vnorm(self.apply(w)), 2)) * np.float_power(np.abs(1.0 - t), 2)
        rhs = (1.0 - self.r2) * (1.0 - np.float_power(vnorm(w), 2))
        res = np.abs(lhs - rhs)
        return res if np.ndim(res) else float(res)


def pseudo_hyperbolic_quotient(a, w) -> float | np.ndarray:
    """The quotient ||w - a|| / |1 - <w, a>|.

    Dominates ||phi_a(w)|| in every dimension, with equality exactly when
    m = 1 or w is a complex multiple of a (Cauchy-Schwarz gap otherwise).
    """
    a = np.atleast_1d(np.asarray(a, dtype=complex))
    w = np.asarray(w, dtype=complex)
    if not np.all(vnorm(a) < 1.0):
        raise DomainError("a must lie strictly inside the unit ball")
    _check_in_closed_ball(w)
    val = vnorm(w - a) / np.abs(1.0 - inner(w, a))
    return val if np.ndim(val) else float(val)


def poincare_dist(z, w) -> float | np.ndarray:
    """Poincare distance artanh(|z - w| / |1 - conj(z) w|) on the unit disk.

    Raises
    ------
    DomainError
        If either argument has modulus >= 1 (boundary excluded).
    """
    z = np.asarray(z, dtype=complex)
    w = np.asarray(w, dtype=complex)
    if not (np.all(np.abs(z) < 1.0) and np.all(np.abs(w) < 1.0)):
        raise DomainError("poincare_dist requires interior points of the disk")
    rho = np.abs(z - w) / np.abs(1.0 - np.conj(z) * w)
    val = np.arctanh(rho)
    return val if val.ndim > 0 else float(val)


def cayley_klein_dist(x, y) -> float | np.ndarray:
    """Cayley-Klein distance arcosh((1 - <x, y>) / sqrt((1-||x||^2)(1-||y||^2))).

    ``x`` and ``y`` are real vectors strictly inside the unit ball of R^n;
    the operation broadcasts over leading axes.  Along a common diameter the
    value reduces to the artanh difference |artanh r_x - artanh r_y|.

    Computed as arsinh(sqrt(S)) with v = y - x and
    S = sinh^2 d = (||v||^2 (1 - ||x||^2) + <x, v>^2) / ((1 - ||x||^2)(1 - ||y||^2)),
    a sum of nonnegative terms: arcosh of a ratio near 1 would lose the
    relative accuracy of short distances to cancellation.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    nx = vnorm(x)
    ny = vnorm(y)
    if not (np.all(nx < 1.0) and np.all(ny < 1.0)):
        raise DomainError("cayley_klein_dist requires interior points of the ball")
    v = y - x
    # Squares by product: ``**`` on a numpy scalar rounds like C pow, on an array it multiplies.
    xv = np.sum(x * v, axis=-1)
    sx = 1.0 - nx * nx
    sinh_sq = (np.sum(v * v, axis=-1) * sx + xv * xv) / (sx * (1.0 - ny * ny))
    val = np.arcsinh(np.sqrt(sinh_sq))
    return val if val.ndim > 0 else float(val)


__all__ = [
    "BallAutomorphism",
    "cayley_klein_dist",
    "inner",
    "poincare_dist",
    "pseudo_hyperbolic_quotient",
    "vnorm",
]

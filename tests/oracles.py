"""Reference implementations the batched search code is tested against.

``sequential_nelder_mead`` is the one-simplex-at-a-time Nelder-Mead loop,
sorting every vertex after each step, ``sequential_golden_section`` the
golden-section search with one objective call per point (and, with a
lookahead, the points of every outcome of the steps ahead evaluated first), the
``tree_objective_*`` functions build each family member as a
``HoloDisk`` tree and take its margin from the library's boundary-bound
terms, and ``sequential_sharpness_report`` runs the multi-start search with
these, one restart after another (a ``family_md`` quotient row is mapped to
its full parameter vector by the library's ``_quotient_rows``, which
``tests/test_search.py`` checks against unitary invariance).  The search's
lockstep core and batched objectives must reproduce them bit for bit.  The
``row_major_*`` functions build every sample batch in C order, as the
library did before it stored batches component-major; ``tests/test_layout.py``
requires both layouts to give the same bits.  ``scalar_ball_distances`` is the
ball suite's distance checks evaluated case by case with scalar calls, as the
suite did before it stacked them.  ``unfused_growth_block`` and
``unfused_on_circle`` are the growth margins of one point block and the
placement of disk points as written before their shared terms and in-place
passes; the fused kernels must give their bits.  The ``stacked_*`` functions
are ``vnorm``, ``Vec._eval``, ``WeierstrassDisk.eval`` and
``surface_identities`` as written before each held one block-sized array per
intermediate: squares out of place, components stacked from lists, and Phi,
its real part and a negated copy of its imaginary part held together.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import polynomial as P

from diskcheck import (
    Add,
    BallAutomorphism,
    Blaschke,
    CMul,
    ComposeAut,
    DomainError,
    Embed,
    HoloDisk,
    Identity,
    Mul,
    Poly,
    Vec,
    WeierstrassDisk,
    blaschke_product,
    cayley_klein_dist,
    poincare_dist,
    vnorm,
)
from diskcheck.holodisk import _horner, boundary_bound_origin, boundary_bound_shifted
from diskcheck.weierstrass import _conformal_factor
from diskcheck.corpus import (
    _SIN3,
    _SIN5,
    _STEP,
    _TURN_BITS,
    _TURN_COS,
    _TURN_SIN,
    _VERS2,
    _VERS4,
    _ball_cases,
    case_rng,
)
from diskcheck import search
from diskcheck.harness import BALL_POINT_STREAM
from diskcheck.search import (
    _FAMILIES,
    DIAMETER_TOL,
    MAX_ITERATIONS,
    MODULUS_CEIL,
    REFINE_SPAN,
    REFINE_SWEEPS,
    SIMPLEX_STEP,
    SPREAD_TOL,
    FamilySpec,
    SearchResult,
    _INV_GOLDEN,
    _REFINE_ITERATIONS,
    _quotient_rows,
)


def _reflect_into_box(x: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Mirror out-of-box coordinates back inside (triangular-wave fold)."""
    width = upper - lower
    y = np.mod(x - lower, 2.0 * width)
    y = np.where(y > width, 2.0 * width - y, y)
    return lower + y


def sequential_nelder_mead(objective, x0, bounds, max_iterations=MAX_ITERATIONS):
    """Nelder-Mead on one simplex in the box ``bounds``, one objective call per point."""
    x0 = np.asarray(x0, dtype=float)
    n = x0.shape[0]
    lower = np.asarray(bounds[0], dtype=float)
    upper = np.asarray(bounds[1], dtype=float)
    if np.any(upper <= lower):
        raise DomainError("bounds must satisfy lower < upper componentwise")
    clip = lambda x: _reflect_into_box(x, lower, upper)

    evaluations = 0

    def f(x):
        nonlocal evaluations
        val = float(objective(x))
        if math.isnan(val):
            raise DomainError(f"objective is NaN at {x.tolist()}")
        evaluations += 1
        return val

    x0 = clip(x0)
    simplex = [x0]
    for i in range(n):
        step = np.zeros(n)
        step[i] = SIMPLEX_STEP if x0[i] == 0.0 else SIMPLEX_STEP * max(abs(x0[i]), 1.0)
        simplex.append(clip(x0 + step))
    simplex = np.asarray(simplex)
    values = np.asarray([f(x) for x in simplex])
    if not math.isfinite(values[0]):
        raise DomainError("objective is not finite at the start point")

    iteration = 0
    while True:
        order = np.argsort(values, kind="stable")
        simplex = simplex[order]
        values = values[order]
        diameter = float(np.max(np.linalg.norm(simplex[1:] - simplex[0], axis=1)))
        spread = float(values[-1] - values[0])
        if diameter < DIAMETER_TOL or spread < SPREAD_TOL or iteration >= max_iterations:
            break
        iteration += 1

        centroid = np.mean(simplex[:-1], axis=0)
        reflected = clip(centroid + (centroid - simplex[-1]))
        f_reflected = f(reflected)
        if f_reflected < values[0]:
            expanded = clip(centroid + 2.0 * (centroid - simplex[-1]))
            f_expanded = f(expanded)
            if f_expanded < f_reflected:
                simplex[-1], values[-1] = expanded, f_expanded
            else:
                simplex[-1], values[-1] = reflected, f_reflected
            continue
        if f_reflected < values[-2]:
            simplex[-1], values[-1] = reflected, f_reflected
            continue
        if f_reflected < values[-1]:
            contracted = clip(centroid + 0.5 * (reflected - centroid))
            f_contracted = f(contracted)
            if f_contracted <= f_reflected:
                simplex[-1], values[-1] = contracted, f_contracted
                continue
        else:
            contracted = clip(centroid + 0.5 * (simplex[-1] - centroid))
            f_contracted = f(contracted)
            if f_contracted < values[-1]:
                simplex[-1], values[-1] = contracted, f_contracted
                continue
        for i in range(1, n + 1):
            simplex[i] = clip(simplex[0] + 0.5 * (simplex[i] - simplex[0]))
            values[i] = f(simplex[i])

    best = int(np.argmin(values))
    return SearchResult(
        x=simplex[best].copy(),
        value=float(values[best]),
        iterations=iteration,
        evaluations=evaluations,
    )


def _speculated_points(a: float, b: float, c: float, d: float, left: bool, depth: int) -> list:
    """The points the next ``depth`` golden-section steps from the bracket (a, b, c, d) take under every outcome.

    The first step's outcome is ``left``; the points are listed step by step,
    and within a step by the outcomes before it, the left one first.
    """
    level, points = [(a, b, c, d, left)], []
    for _ in range(depth):
        brackets = []
        for a, b, c, d, left in level:
            if left:
                b, d = d, c
                c = b - _INV_GOLDEN * (b - a)
                points.append(c)
            else:
                a, c = c, d
                d = a + _INV_GOLDEN * (b - a)
                points.append(d)
            brackets += [(a, b, c, d, True), (a, b, c, d, False)]
        level = brackets
    return points


def sequential_golden_section(f, lo: float, hi: float, lookahead: int = 1):
    """Golden-section minimization on [lo, hi], one call of ``f`` per point; returns (x, value, evaluations).

    With a ``lookahead`` of k > 1, every k steps the points of the next k
    steps under every outcome of their comparisons are evaluated first, and
    the best is taken over them too; ``evaluations`` counts the steps'
    points only.
    """
    a, b = float(lo), float(hi)
    c = b - _INV_GOLDEN * (b - a)
    d = a + _INV_GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    best_x, best_f = (c, fc) if fc <= fd else (d, fd)
    evaluations = 2
    for step in range(_REFINE_ITERATIONS):
        if lookahead > 1 and step % lookahead == 0:
            for x in _speculated_points(a, b, c, d, fc < fd, min(lookahead, _REFINE_ITERATIONS - step)):
                fx = f(x)
                if fx < best_f:
                    best_x, best_f = x, fx
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INV_GOLDEN * (b - a)
            fc = f(c)
            x, fx = c, fc
        else:
            a, c, fc = c, d, fd
            d = a + _INV_GOLDEN * (b - a)
            fd = f(d)
            x, fx = d, fd
        evaluations += 1
        if fx < best_f:
            best_x, best_f = x, fx
    return best_x, best_f, evaluations


def tree_objective_1d(params) -> float:
    """Origin boundary-bound margin of the tree rotation * (z * blaschke(c))."""
    modulus, phase = float(params[0]), float(params[1])
    if not 0.0 <= modulus <= MODULUS_CEIL:
        raise DomainError(f"modulus out of range: {modulus}")
    c = modulus * complex(math.cos(phase), math.sin(phase))
    f = blaschke_product([c], include_z=True)
    return boundary_bound_origin(f, 1.0 + 0j).margin


def family_md_box(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The box (lower, upper) of family_md rows (b, c, u): b and c in [-0.9, 0.9], u in [-1, 1] per coordinate."""
    lower = np.asarray([-0.9] * (2 * m + 2) + [-1.0] * (2 * m))
    return lower, -lower


def family_md_tree(params, m: int):
    """The tree phi_b(z * blaschke(c)(z) * u) of a family_md parameter vector."""
    params = np.asarray(params, dtype=float)
    if params.shape[0] != 4 * m + 2:
        raise DomainError(f"expected {4 * m + 2} parameters, got {params.shape[0]}")
    b = params[:m] + 1j * params[m : 2 * m]
    norm_b = float(np.linalg.norm(b))
    if norm_b > 0.9:
        b *= 0.9 / norm_b
    c = complex(params[2 * m], params[2 * m + 1])
    if abs(c) > 0.9:
        c *= 0.9 / abs(c)
    u = params[2 * m + 2 : 3 * m + 2] + 1j * params[3 * m + 2 :]
    norm_u = float(np.linalg.norm(u))
    if norm_u < 1e-9:
        u = np.zeros(m, dtype=complex)
        u[0] = 1.0
    else:
        u = u / norm_u
    inner_map = Embed(Mul(Identity(), Blaschke(c)), u)
    return ComposeAut(BallAutomorphism(-b), inner_map)


def tree_objective_md(params, m: int = 2) -> float:
    """Shifted boundary-bound margin of ``family_md_tree(params, m)`` at 1."""
    return boundary_bound_shifted(family_md_tree(params, m), 1.0 + 0j).margin


def sequential_sharpness_report(spec: FamilySpec, restarts: int = 20, seed: int = 0) -> dict:
    """``sharpness_report`` with one sequential run per restart and tree objectives."""
    if restarts < 1:
        raise DomainError("need at least one restart")
    lower = np.asarray(spec.lower, dtype=float)
    upper = np.asarray(spec.upper, dtype=float)
    full_row = lambda params: _quotient_rows(np.asarray(params)[None, :], spec.dim)[0]
    if spec.family == "family_1d":
        objective = tree_objective_1d
    else:
        objective = lambda params: tree_objective_md(full_row(params), spec.dim)
    family_id = _FAMILIES[spec.family][0]

    best = None
    best_index = -1
    total_evaluations = 0
    for index in range(restarts):
        rng = case_rng(seed, family_id, index)
        x0 = lower + rng.random(lower.shape[0]) * (upper - lower)
        result = sequential_nelder_mead(objective, x0, bounds=(lower, upper))
        total_evaluations += result.evaluations
        if best is None or result.value < best.value:
            best = result
            best_index = index

    best_x = np.asarray(best.x, dtype=float)
    best_value = float(best.value)

    # Near the attainable minimum the margin can sit below the simplex
    # value-spread stop, which then ends a simplex run short of the minimizer;
    # golden-section sweeps per coordinate terminate on bracket width
    # alone, so they keep walking the flat valley floor (e.g. pulling the
    # phase onto the zero ray once the value has saturated).
    for _ in range(REFINE_SWEEPS):
        for i in range(best_x.shape[0]):
            lo = max(float(lower[i]), float(best_x[i]) - REFINE_SPAN)
            hi = min(float(upper[i]), float(best_x[i]) + REFINE_SPAN)
            base = best_x.copy()

            def line(t, i=i, base=base):
                point = base.copy()
                point[i] = t
                return objective(point)

            x_i, value, evaluations = sequential_golden_section(line, lo, hi, search._LOOKAHEAD)
            total_evaluations += evaluations
            if value < best_value:
                best_value = float(value)
                best_x = base
                best_x[i] = float(x_i)
    report = {
        "family": spec.family,
        "dimension": spec.dim,
        "bounds": {"lower": list(map(float, spec.lower)), "upper": list(map(float, spec.upper))},
        "restarts": int(restarts),
        "seed": int(seed),
        "best_margin": best_value,
        "argmin": [float(v) for v in best_x],
        "best_restart": int(best_index),
        "refine_sweeps": int(REFINE_SWEEPS),
        "evaluations": int(total_evaluations),
    }
    if spec.family == "family_md_quotient":
        report["full_argmin"] = full_row(best_x).tolist()
    return report


# ---------------------------------------------------------------------------
# row-major batch forms
#
# The library stores a sample batch component-major: an (N, m) batch is the
# transposed view of (m, N) rows.  These build each batch row-major instead,
# with ``np.concatenate(axis=1)``, ``[:, None] * u[None, :]``,
# ``np.stack(axis=-1)`` and ``P.polyval``, and the tests require the two
# layouts to give bit-identical values.


def row_major_eval(f: HoloDisk, z: np.ndarray) -> np.ndarray:
    """``f._eval(z)``, with every batch built row-major."""
    match f:
        case Poly():
            return P.polyval(z, f.coeffs)[:, None]
        case Mul():
            return row_major_eval(f.f, z) * row_major_eval(f.g, z)
        case Add():
            return row_major_eval(f.f, z) + row_major_eval(f.g, z)
        case CMul():
            return f.c * row_major_eval(f.f, z)
        case Embed():
            return row_major_eval(f.f, z)[:, 0][:, None] * f.u[None, :]
        case Vec():
            return np.concatenate([row_major_eval(g, z) for g in f.components], axis=1)
        case ComposeAut():
            return f.aut.apply(row_major_eval(f.f, z))
    return f._eval(z)  # the one-column leaves: Identity, Const, Blaschke


def row_major_jet(f: HoloDisk, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``f._jet(z)``, with every batch built row-major."""
    match f:
        case Poly():
            return P.polyval(z, f.coeffs)[:, None], P.polyval(z, P.polyder(f.coeffs))[:, None]
        case Mul():
            (fv, fd), (gv, gd) = row_major_jet(f.f, z), row_major_jet(f.g, z)
            return fv * gv, fd * gv + fv * gd
        case Add():
            (fv, fd), (gv, gd) = row_major_jet(f.f, z), row_major_jet(f.g, z)
            return fv + gv, fd + gd
        case CMul():
            fv, fd = row_major_jet(f.f, z)
            return f.c * fv, f.c * fd
        case Embed():
            fv, fd = row_major_jet(f.f, z)
            return fv[:, 0][:, None] * f.u[None, :], fd[:, 0][:, None] * f.u[None, :]
        case Vec():
            jets = [row_major_jet(g, z) for g in f.components]
            return tuple(np.concatenate(parts, axis=1) for parts in zip(*jets))
        case ComposeAut():
            return f.aut._apply_and_differential(*row_major_jet(f.f, z))
    return f._jet(z)


def row_major_phi(w: WeierstrassDisk, zs: np.ndarray) -> np.ndarray:
    """``w.phi_values(zs)`` for a batch ``zs``, built row-major."""
    return np.stack([P.polyval(zs, c) for c in w.phi], axis=-1)


def row_major_surface_eval(w: WeierstrassDisk, zs: np.ndarray) -> np.ndarray:
    """``w.eval(zs)`` for a batch ``zs``, built row-major."""
    return w.base + np.stack([np.real(P.polyval(zs, c)) for c in w.antiderivative], axis=-1)


def row_major_surface_identities(w: WeierstrassDisk, zs: np.ndarray):
    """``surface_identities(w, zs)`` with row-major batches and the polar partials of the nonzero points only."""
    phi = row_major_phi(w, zs)
    f_x, f_y = np.real(phi), -np.imag(phi)
    pv, qv = P.polyval(zs, w.p), P.polyval(zs, w.q)
    lam = 0.5 * np.abs(pv) * (1.0 + np.abs(qv) * np.abs(qv))
    norm_x = vnorm(f_x)
    iso = [np.abs(norm_x - lam).max(), np.abs(vnorm(f_y) - lam).max(), np.abs(np.sum(f_x * f_y, axis=-1)).max()]
    nonzero = np.abs(zs) > 0
    if np.any(nonzero):
        r = np.abs(zs[nonzero])
        cos, sin = zs[nonzero].real / r, zs[nonzero].imag / r
        fx, fy, lam_nz = f_x[nonzero], f_y[nonzero], lam[nonzero]
        f_r = fx * cos[:, None] + fy * sin[:, None]
        f_t = r[:, None] * (-fx * sin[:, None] + fy * cos[:, None])
        iso += [np.max(np.abs(vnorm(f_r) - lam_nz)), np.max(np.abs(vnorm(f_t) - r * lam_nz))]
    q_sq = np.abs(qv) ** 2
    normals = np.stack([2.0 * np.real(qv), 2.0 * np.imag(qv), 1.0 - q_sq], axis=-1) / (1.0 + q_sq)[..., None]
    gdev = float(np.max(np.abs(vnorm(normals) - 1.0)))
    inside = np.abs(qv) < 1.0
    if np.any(inside):
        gdev = float(np.max([gdev, 0.0, -np.min(normals[inside, 2])]))
    orth = max(
        float(np.max(np.abs(np.sum(normals * f_x, axis=-1)) / (1.0 + lam))),
        float(np.max(np.abs(np.sum(normals * f_y, axis=-1)) / (1.0 + lam))),
    )
    bare = np.abs(pv) ** 2 * (1.0 + np.abs(qv) ** 2) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(bare > 0, norm_x**2 / bare, np.nan)
    return float(np.max(iso)), gdev, orth, ratios


# ---------------------------------------------------------------------------
# per-case ball distance checks


def scalar_ball_distances(seed: int, m: int, samples: int) -> np.ndarray:
    """Rows (plane, invariance, radial) over the ball suite's cases of dimension ``m``.

    The cases are the suite's own, read from ``corpus._ball_cases``, and their
    three distance deviations are evaluated one case at a time: the plane and
    radial ones with scalar calls, the invariance one's Moebius images and
    distances from one-element arrays.
    """
    _, ur, disk, signed, radius = _ball_cases(seed, BALL_POINT_STREAM, m, samples)
    out = np.empty((3, samples))
    for index in range(samples):
        u = ur[index]
        s, t = signed[1:, index].tolist()
        plane = float(cayley_klein_dist(s * u, t * u))
        plane_dev = abs(plane - float(poincare_dist(complex(s), complex(t))))
        z1, z2, c = disk[:, index:index + 1]
        p, q = ((w + c) / (1.0 + np.conj(c) * w) for w in (z1, z2))
        invariance_dev = abs(float(poincare_dist(z1, z2)[0]) - float(poincare_dist(p, q)[0]))
        x = float(radius[index]) * u
        radial_dev = abs(float(cayley_klein_dist(np.zeros(m), x)) - math.atanh(float(vnorm(x))))
        out[:, index] = plane_dev, invariance_dev, radial_dev
    return out


# ---------------------------------------------------------------------------
# the bulk kernels, unfused


def unfused_growth_block(f: HoloDisk, a: float, z: np.ndarray) -> np.ndarray:
    """The (growth, upper, lower) margin rows at the points ``z``, each formula evaluated on its own."""
    r = np.abs(z)
    if not np.all((r > 0.0) & (r < 1.0)):
        raise DomainError("growth and quotient bounds need 0 < |z| < 1")
    norms = vnorm(f._eval(z))
    x = norms / r
    return np.stack([
        r * (r + a) / (1.0 + r * a) - norms,
        (a + r) / (1.0 + a * r) - x,
        x - np.maximum((a - r) / (1.0 - a * r), 0.0),
    ])


def unfused_on_circle(radii, turns: np.ndarray) -> np.ndarray:
    """``radii * exp(2 pi i turns)`` by the table and Taylor step, one expression per quantity."""
    z = np.empty(turns.shape, dtype=complex)
    f = turns * float(1 << _TURN_BITS)
    k = f.astype(np.intp)
    f -= k
    g = f * f
    sin_d = ((g * _SIN5 + _SIN3) * g + _STEP) * f
    vers = (g * _VERS4 + _VERS2) * g
    c, s = _TURN_COS[k], _TURN_SIN[k]
    re = c * vers + s * sin_d
    np.subtract(c, re, out=re)
    im = c * sin_d - s * vers + s
    np.multiply(re, radii, out=z.real)
    np.multiply(im, radii, out=z.imag)
    return z


# ---------------------------------------------------------------------------
# the bulk kernels, stacked


def stacked_vnorm(x: np.ndarray) -> float | np.ndarray:
    """``vnorm`` with out-of-place squares, sums and root."""
    sq = np.abs(np.asarray(x)) ** 2
    m = sq.shape[-1]
    if m > 128:
        sq = np.ascontiguousarray(sq)
    if sq.flags.c_contiguous or m < 8:
        return np.sqrt(np.add.reduce(sq, axis=-1))
    r = [sq[..., j] for j in range(8)]
    for i in range(8, m - m % 8, 8):
        r = [r[j] + sq[..., i + j] for j in range(8)]
    total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for i in range(m - m % 8, m):
        total += sq[..., i]
    return np.sqrt(total)


def stacked_vec_eval(f: Vec, z: np.ndarray) -> np.ndarray:
    """``f._eval(z)``, with the components' columns stacked from a list."""
    return np.stack([g._eval(z)[:, 0] for g in f.components]).T


def stacked_phi(w: WeierstrassDisk, zs: np.ndarray) -> np.ndarray:
    """``w.phi_values(zs)`` for a batch ``zs``, stacked from a list."""
    return np.stack([_horner(zs, c) for c in w.phi]).T


def stacked_surface_eval(w: WeierstrassDisk, zs: np.ndarray) -> np.ndarray:
    """``w.eval(zs)`` for a batch ``zs``, with the real parts stacked before the base is added."""
    return (w.base[:, None] + np.stack([np.real(_horner(zs, c)) for c in w.antiderivative])).T


def stacked_surface_identities(w: WeierstrassDisk, zs: np.ndarray):
    """``surface_identities(w, zs)`` from (N, 3) partials F_x = Re Phi and F_y = -Im Phi, a copy."""
    zs = np.atleast_1d(np.asarray(zs, dtype=complex))
    phi = stacked_phi(w, zs)
    f_x, f_y = np.real(phi), -np.imag(phi)
    pv = _horner(zs, w.p)
    qv = _horner(zs, w.q)
    lam = _conformal_factor(pv, qv)

    norm_x = stacked_vnorm(f_x)
    iso = [np.abs(norm_x - lam).max(), np.abs(stacked_vnorm(f_y) - lam).max(), np.abs(np.sum(f_x * f_y, axis=-1)).max()]
    r = np.abs(zs)
    nonzero = r > 0
    if np.any(nonzero):
        with np.errstate(invalid="ignore"):
            cos, sin = zs.real / r, zs.imag / r
        norm_r = stacked_vnorm((f_x.T * cos + f_y.T * sin).T)
        norm_t = stacked_vnorm((r * (-f_x.T * sin + f_y.T * cos)).T)
        iso += [np.max(np.abs(norm_r - lam)[nonzero]), np.max(np.abs(norm_t - r * lam)[nonzero])]
    iso = float(np.max(iso))

    normals = w.gauss_normal(zs)
    gdev = float(np.max(np.abs(stacked_vnorm(normals) - 1.0)))
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

"""Reference implementations the batched search code is tested against.

``sequential_nelder_mead`` is the one-simplex-at-a-time Nelder-Mead loop,
sorting every vertex after each step, ``sequential_golden_section`` the
golden-section search with one objective call per step, the
``tree_objective_*`` functions build each family member as a
``HoloDisk`` tree and take its margin from the library's boundary-bound
terms, and ``sequential_sharpness_report`` runs the multi-start search with
these, one restart after another (a ``family_md`` quotient row is mapped to
its full parameter vector by the library's ``_quotient_rows``, which
``tests/test_search.py`` checks against unitary invariance).  The search's
lockstep core and batched objectives must reproduce them bit for bit.  The
``row_major_*`` functions build every sample batch in C order, as the
library did before it stored batches component-major; ``tests/test_layout.py``
requires both layouts to give the same bits.
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
    vnorm,
)
from diskcheck.holodisk import boundary_bound_origin, boundary_bound_shifted
from diskcheck.corpus import case_rng
from diskcheck.search import (
    _FAMILY_IDS,
    DIAMETER_TOL,
    MAX_ITERATIONS,
    MODULUS_CEIL,
    POLISH_STEPS,
    REFINE_SPAN,
    REFINE_SWEEPS,
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


def sequential_nelder_mead(objective, x0, bounds=None, max_iterations=MAX_ITERATIONS, initial_step=0.1):
    """Nelder-Mead on one simplex, one objective call per point."""
    x0 = np.asarray(x0, dtype=float)
    n = x0.shape[0]
    if bounds is not None:
        lower = np.asarray(bounds[0], dtype=float)
        upper = np.asarray(bounds[1], dtype=float)
        if np.any(upper <= lower):
            raise DomainError("bounds must satisfy lower < upper componentwise")
        clip = lambda x: _reflect_into_box(x, lower, upper)
    else:
        clip = lambda x: x

    evaluations = 0
    min_evaluated = math.inf

    def f(x):
        nonlocal evaluations, min_evaluated
        val = float(objective(x))
        if math.isnan(val):
            raise DomainError(f"objective is NaN at {x.tolist()}")
        evaluations += 1
        if val < min_evaluated:
            min_evaluated = val
        return val

    x0 = clip(x0)
    simplex = [x0]
    for i in range(n):
        step = np.zeros(n)
        step[i] = initial_step if x0[i] == 0.0 else initial_step * max(abs(x0[i]), 1.0)
        simplex.append(clip(x0 + step))
    simplex = np.asarray(simplex)
    values = np.asarray([f(x) for x in simplex])
    if not math.isfinite(values[0]):
        raise DomainError("objective is not finite at the start point")

    trace = []
    iteration = 0
    while True:
        order = np.argsort(values, kind="stable")
        simplex = simplex[order]
        values = values[order]
        trace.append((iteration, float(values[0])))
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
        trace=trace,
        min_evaluated=min_evaluated,
    )


def sequential_golden_section(f, lo: float, hi: float):
    """Golden-section minimization on [lo, hi], one call of ``f`` per point; returns (x, value, evaluations)."""
    a, b = float(lo), float(hi)
    c = b - _INV_GOLDEN * (b - a)
    d = a + _INV_GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    best_x, best_f = (c, fc) if fc <= fd else (d, fd)
    evaluations = 2
    for _ in range(_REFINE_ITERATIONS):
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
    family_id = _FAMILY_IDS[spec.family]

    best = None
    best_index = -1
    traces = []
    min_evaluated = math.inf
    total_evaluations = 0
    for index in range(restarts):
        rng = case_rng(seed, family_id, index)
        x0 = lower + rng.random(lower.shape[0]) * (upper - lower)
        result = sequential_nelder_mead(objective, x0, bounds=(lower, upper))
        traces.append([[int(it), float(val)] for it, val in result.trace])
        min_evaluated = min(min_evaluated, result.min_evaluated)
        total_evaluations += result.evaluations
        if best is None or result.value < best.value:
            best = result
            best_index = index

    best_x = np.asarray(best.x, dtype=float)
    best_value = float(best.value)
    polish_rounds = 0
    for step in POLISH_STEPS:
        result = sequential_nelder_mead(objective, best_x, bounds=(lower, upper), initial_step=step)
        traces.append([[int(it), float(val)] for it, val in result.trace])
        min_evaluated = min(min_evaluated, result.min_evaluated)
        total_evaluations += result.evaluations
        polish_rounds += 1
        if result.value < best_value:
            best_value = float(result.value)
            best_x = np.asarray(result.x, dtype=float)

    # Near the attainable minimum the margin can sit below the simplex
    # value-spread stop, which then halts every polish round at iteration
    # zero; golden-section sweeps per coordinate terminate on bracket width
    # alone, so they keep walking the flat valley floor (e.g. pulling the
    # phase onto the zero ray once the value has saturated).
    refine_trace = [[0, float(best_value)]]
    refine_step = 0
    for _ in range(REFINE_SWEEPS):
        for i in range(best_x.shape[0]):
            lo = max(float(lower[i]), float(best_x[i]) - REFINE_SPAN)
            hi = min(float(upper[i]), float(best_x[i]) + REFINE_SPAN)
            base = best_x.copy()

            def line(t, i=i, base=base):
                point = base.copy()
                point[i] = t
                return objective(point)

            x_i, value, evaluations = sequential_golden_section(line, lo, hi)
            total_evaluations += evaluations
            min_evaluated = min(min_evaluated, value)
            refine_step += evaluations
            if value < best_value:
                best_value = float(value)
                best_x = base
                best_x[i] = float(x_i)
                refine_trace.append([refine_step, best_value])
    traces.append(refine_trace)
    report = {
        "family": spec.family,
        "dimension": spec.dim,
        "bounds": {"lower": list(map(float, spec.lower)), "upper": list(map(float, spec.upper))},
        "restarts": int(restarts),
        "seed": int(seed),
        "best_margin": best_value,
        "argmin": [float(v) for v in best_x],
        "best_restart": int(best_index),
        "polish_rounds": int(polish_rounds),
        "refine_sweeps": int(REFINE_SWEEPS),
        "min_evaluated": float(min_evaluated),
        "evaluations": int(total_evaluations),
        "traces": traces,
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
        r, t = np.abs(zs[nonzero]), np.angle(zs[nonzero])
        fx, fy, lam_nz = f_x[nonzero], f_y[nonzero], lam[nonzero]
        f_r = fx * np.cos(t)[:, None] + fy * np.sin(t)[:, None]
        f_t = r[:, None] * (-fx * np.sin(t)[:, None] + fy * np.cos(t)[:, None])
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

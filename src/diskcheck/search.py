"""Multi-start Nelder-Mead probing of boundary-bound tightness.

The optimizer minimizes margin objectives over small parametric families of
disk maps.  Every family member satisfies the preconditions of the bound it
probes by construction (origin or basepoint normalization, boundary contact),
so a negative best margin would falsify the bound — the searches double as a
stress test.  A search is multi-start Nelder-Mead, then golden-section
sweeps along each coordinate from the best point found.

Two families are provided: a scalar family rotation * (z * blaschke(c))
parametrized by the modulus and phase of c, whose zero-margin set should be
exactly the real-parameter ray, and a vector family
F = phi_{-b}(z * blaschke(c)(z) * u) probing the basepoint-shifted bound.
Ball automorphisms commute with unitaries, phi_{Ua}(Uz) = U phi_a(z), so the
vector family's margin depends only on ||b||, <b, u> and c, and it is
searched in that quotient: b = r e^{i psi} e_1 and
u = cos(theta) e_1 + sin(theta) e_2 (u = e_1 for m = 1), five real
coordinates (r, theta, psi, Re c, Im c) for every m >= 2 and four for
m = 1.  On the slice b = t u with t in [0, 0.9] and real c in [0, 0.9]
(in the quotient: Im c = 0, Re c >= 0, and r = 0 or theta = psi = 0) the
margin is exactly zero, since there ||F'(1)|| = 2 (1 - t)/((1 + t)(1 + c))
is the bound; so the best margin found should be 0 to rounding.  Off that
slice no closed form is proved, and best margins are reported as found.

The restarts of a search run in lockstep, and each family's objective
evaluates a whole block of parameter rows in one call, with the bits a
separate tree walk per row would give.  The golden-section sweeps that
finish a search look three steps ahead: one call evaluates every point the
next steps can need, and the sweep follows the comparisons that occur, so
it reaches the result one call per step would give.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .ballgeom import BallAutomorphism, _phi_jet, vnorm
from .corpus import case_rng
from .holodisk import _origin_bound, _shifted_bound
from .reports import DomainError

MAX_ITERATIONS = 10_000
DIAMETER_TOL = 1e-9
SPREAD_TOL = 1e-12
# The initial simplex's edge along each coordinate, scaled by |x0_i| above 1.
SIMPLEX_STEP = 0.1

# Default parameter boxes.  The modulus floor keeps the scalar family away
# from the degenerate c = 0 corner where the phase coordinate stops being
# identifiable (every phase gives the same map there).
MODULUS_FLOOR = 0.05
MODULUS_CEIL = 1.0 - 1e-6
RESTRICTED_MODULUS_CEIL = 0.9
RESTRICTED_PHASE_FLOOR = math.pi / 4.0


@dataclass
class SearchResult:
    """Outcome of one Nelder-Mead run."""

    x: np.ndarray
    value: float
    iterations: int
    evaluations: int


def _box_reflector(lower: np.ndarray, upper: np.ndarray):
    """The map mirroring out-of-box coordinates back inside (triangular-wave fold)."""
    width = upper - lower
    period = 2.0 * width

    def reflect(x: np.ndarray) -> np.ndarray:
        y = np.mod(x - lower, period)
        return lower + np.where(y > width, period - y, y)

    return reflect


def _lockstep_nelder_mead(objective, starts, bounds, max_iterations: int = MAX_ITERATIONS) -> list[SearchResult]:
    """Deterministic Nelder-Mead in the box ``bounds`` from each row of ``starts`` (K, n), all runs in step.

    Coefficients: reflection 1, expansion 2, contraction 0.5, shrink 0.5.
    A run stops when its simplex diameter drops below ``DIAMETER_TOL``, its
    value spread drops below ``SPREAD_TOL``, or ``max_iterations`` is
    reached.  Out-of-box candidate points are mirrored back into the box, so
    the objective is only ever evaluated on feasible parameters.

    ``objective`` maps a (p, n) block of points to their p values.  Each
    round evaluates, in one call, the points every unfinished run needs
    next: its initial simplex (the start point is its first vertex), a
    reflection, an expansion or contraction, or a shrink.  A run's steps
    depend only on its own values, so its result and evaluation count are
    those it would have alone.  A NaN value from any run raises
    ``DomainError``, and so does a start value that is not finite.
    """
    starts = np.asarray(starts, dtype=float)
    lower = np.asarray(bounds[0], dtype=float)
    upper = np.asarray(bounds[1], dtype=float)
    if np.any(upper <= lower):
        raise DomainError("bounds must satisfy lower < upper componentwise")
    clip = _box_reflector(lower, upper)

    runs = [_simplex_run(clip(x0), clip, max_iterations) for x0 in starts]
    requests = [next(run) for run in runs]
    evaluations = [0] * len(runs)
    results = [None] * len(runs)
    active = list(range(len(runs)))
    while active:
        block = np.concatenate([requests[k] for k in active])
        values = np.asarray(objective(block), dtype=float).tolist()
        if any(map(math.isnan, values)):
            first = next(i for i, value in enumerate(values) if math.isnan(value))
            raise DomainError(f"objective is NaN at {block[first].tolist()}")
        waiting = []
        start = 0
        for k in active:
            count = requests[k].shape[0]
            own = values[start : start + count]
            start += count
            evaluations[k] += count
            try:
                requests[k] = runs[k].send(own)
                waiting.append(k)
            except StopIteration as done:
                x, value, iterations = done.value
                results[k] = SearchResult(x, value, iterations, evaluations[k])
        active = waiting
    return results


def _simplex_run(x0: np.ndarray, clip, max_iterations: int):
    """One Nelder-Mead run as a generator driven by :func:`_lockstep_nelder_mead`.

    It yields each (p, n) block of points it needs and is sent back their p
    values; it returns (x, value, iterations).  The vertices stay in
    the order a stable argsort of their values gives: a replacing vertex is
    inserted after every vertex whose value it does not undercut, and only a
    shrink sorts them all again.
    """
    n = x0.shape[0]
    simplex = [x0]
    for i in range(n):
        step = np.zeros(n)
        step[i] = SIMPLEX_STEP * max(abs(x0[i]), 1.0)
        simplex.append(clip(x0 + step))
    simplex = np.asarray(simplex)
    values = (yield simplex)
    if not math.isfinite(values[0]):
        raise DomainError("objective is not finite at the start point")

    simplex, values = _ranked(simplex, values)
    iteration = 0
    while True:
        if values[-1] - values[0] < SPREAD_TOL or iteration >= max_iterations:
            break
        edges = simplex[1:] - simplex[0]
        if math.sqrt(max(np.add.reduce(edges * edges, axis=1).tolist())) < DIAMETER_TOL:
            break
        iteration += 1

        centroid = np.add.reduce(simplex[:-1], axis=0) / n
        reflected = clip(centroid + (centroid - simplex[-1]))
        (f_reflected,) = yield reflected[None, :]
        if f_reflected < values[0]:
            expanded = clip(centroid + 2.0 * (centroid - simplex[-1]))
            (f_expanded,) = yield expanded[None, :]
            x, value = (expanded, f_expanded) if f_expanded < f_reflected else (reflected, f_reflected)
        elif f_reflected < values[-2]:
            x, value = reflected, f_reflected
        else:
            outside = f_reflected < values[-1]
            x = clip(centroid + 0.5 * ((reflected if outside else simplex[-1]) - centroid))
            (value,) = yield x[None, :]
            if not (value <= f_reflected if outside else value < values[-1]):
                simplex[1:] = clip(simplex[0] + 0.5 * (simplex[1:] - simplex[0]))
                values[1:] = yield simplex[1:]
                simplex, values = _ranked(simplex, values)
                continue
        rank = bisect.bisect_right(values, value, 0, n)
        simplex[rank + 1 :] = simplex[rank:-1]
        simplex[rank] = x
        values.insert(rank, value)
        del values[-1]

    return simplex[0].copy(), values[0], iteration


def _ranked(simplex: np.ndarray, values: list) -> tuple[np.ndarray, list]:
    """The vertices and their values in the order of a stable argsort of the values."""
    order = np.argsort(values, kind="stable").tolist()
    return simplex[order], [values[i] for i in order]


# ---------------------------------------------------------------------------
# families and objectives


@dataclass(frozen=True)
class FamilySpec:
    """A searched family, by its name in ``_FAMILIES``, with its search box."""

    family: str
    lower: tuple
    upper: tuple
    dim: int = 1

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise DomainError(f"unknown family {self.family!r}")
        if len(self.lower) != len(self.upper):
            raise DomainError("bounds length mismatch")


def family_1d_spec() -> FamilySpec:
    """Scalar family box over (c_modulus, c_phase)."""
    return FamilySpec("family_1d", (MODULUS_FLOOR, -math.pi), (MODULUS_CEIL, math.pi))


def restricted_family_1d_spec() -> FamilySpec:
    """Scalar family with the phase kept away from the real ray."""
    return FamilySpec("family_1d", (MODULUS_FLOOR, RESTRICTED_PHASE_FLOOR), (RESTRICTED_MODULUS_CEIL, math.pi))


def family_md_quotient_spec(m: int) -> FamilySpec:
    """Vector family box in its unitary quotient: (r, theta, psi, Re c, Im c), without theta for m = 1.

    A row stands for b = r e^{i psi} e_1, the factor parameter c and
    u = cos(theta) e_1 + sin(theta) e_2 (u = e_1 for m = 1), which meet
    every orbit of the family under unitaries: any <b, u> with
    |<b, u>| <= r is r e^{i psi} cos(theta).
    """
    if m < 1:
        raise DomainError("dimension must be at least 1")
    theta = [(0.0, math.pi / 2.0)] if m >= 2 else []
    lower, upper = zip((0.0, 0.9), *theta, (-math.pi, math.pi), (-0.9, 0.9), (-0.9, 0.9))
    return FamilySpec(family="family_md_quotient", lower=lower, upper=upper, dim=int(m))


# The objectives evaluate each family's fixed tree written out from its node
# formulas, for a (K, n) block of parameter rows at once.  Every numpy
# operation is the one a walk of the row's own tree at the points [0, 1]
# performs, on arrays with a leading row axis, so each row gets the bits of
# its own walk.  Where the walk works on Python scalars (abs, ** and the
# complex arithmetic of the node constructors), so do these functions, row by
# row: numpy rounds some of those operations differently on arrays.
_WALK_POINTS = np.array([0.0, 1.0], dtype=complex)
_WALK_ONES = np.ones(2, dtype=complex)
# Above this norm, ||b||^2 is far from subnormal, so phi_{-b} takes the
# formula of a BallAutomorphism with no tiny rows.
_SMALL = 1e-150


def _row_norms(x: np.ndarray) -> np.ndarray:
    """``np.linalg.norm`` of each row of a complex (..., m) block, rounded as it rounds one row."""
    dot = lambda y: np.matmul(y[..., None, :], y[..., :, None])[..., 0, 0]
    return np.sqrt(dot(x.real) + dot(x.imag))


def _blaschke_jet(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Value and derivative of z * blaschke(c_k)(z) at [0, 1], shaped (K, 2)."""
    z = _WALK_POINTS
    den = 1.0 + np.conj(c)[:, None] * z
    value = (z + c[:, None]) / den
    deriv = np.asarray([1.0 - abs(ck) ** 2 for ck in c.tolist()])[:, None] / den**2
    return z * value, _WALK_ONES * value + z * deriv


def _family_1d_margins(params: np.ndarray) -> np.ndarray:
    """Origin boundary-bound margin of rotation * (z * blaschke(c)), f(1) = 1, for each row of a (K, 2) block.

    A row is (c_modulus, c_phase) with the modulus in [0, 1 - 1e-6].  The
    margin is zero exactly when the phase is 0 mod 2 pi (real parameter) or
    the modulus is 0.
    """
    c = []
    for modulus, phase in params.tolist():
        if not 0.0 <= modulus <= MODULUS_CEIL:
            raise DomainError(f"modulus out of range: {modulus}")
        c.append(modulus * complex(math.cos(phase), math.sin(phase)))
    value, deriv = _blaschke_jet(np.asarray(c))
    # blaschke_product multiplies by conj(f(1)) / |f(1)|^2.
    rotation = np.asarray([complex(np.conj(v) / abs(v) ** 2) for v in value[:, 1].tolist()])[:, None]
    (n0, n), (a, val) = (vnorm((rotation * x)[..., None]).T.tolist() for x in (value, deriv))
    return np.asarray([v - _origin_bound(n0_k, n_k, a_k) for n0_k, n_k, a_k, v in zip(n0, n, a, val)])


def _family_md_margins(params: np.ndarray, m: int) -> np.ndarray:
    """Shifted boundary-bound margin over the vector family in dimension m, for each row of a (K, 4m + 2) block.

    A row builds F(z) = phi_{-b}(z * blaschke(c)(z) * u) (the basepoint is
    projected to norm <= 0.9, the factor parameter to modulus <= 0.9, the
    direction normalized to a unit vector), and its margin is the
    basepoint-shifted one at the boundary point 1; the construction keeps
    ||F|| = 1 on the whole unit circle.  A row is (Re b, Im b, Re c, Im c,
    Re u, Im u); the projections assume b and c coordinates in [-0.9, 0.9]
    and u coordinates in [-1, 1], a box that holds every member.
    """
    if params.shape[1] != 4 * m + 2:
        raise DomainError(f"expected {4 * m + 2} parameters, got {params.shape[1]}")
    # b and u as one (K, 2, m) block, so that one call takes both norms.
    parts = np.concatenate([params[:, : 2 * m], params[:, 2 * m + 2 :]], axis=1).reshape(-1, 2, 2, m)
    bu = parts[:, :, 0] + 1j * parts[:, :, 1]
    norm_b, norm_u = _row_norms(bu).T
    b = bu[:, 0]
    far = norm_b > 0.9
    if any(far.tolist()):
        b[far] *= (0.9 / norm_b[far])[:, None]
    c = []
    for re, im in params[:, 2 * m : 2 * m + 2].tolist():
        ck = complex(re, im)
        if abs(ck) > 0.9:
            ck *= 0.9 / abs(ck)
        c.append(ck)
    tiny = norm_u < 1e-9
    if any(tiny.tolist()):
        u = bu[:, 1] / np.where(tiny, 1.0, norm_u)[:, None]
        u[tiny] = np.eye(1, m)
    else:
        u = bu[:, 1] / norm_u[:, None]
    # F = phi_{-b}(z * blaschke(c)(z) * u): the value and derivative of
    # the inner map are one (2, 2, K, m) block, points axis second.
    w, v = np.array(_blaschke_jet(np.asarray(c))).transpose(0, 2, 1)[..., None] * u
    a = -b
    norm_a = vnorm(a)
    if min(norm_a.tolist()) < _SMALL:
        jet = BallAutomorphism(a)._apply_and_differential(w, v)
    else:
        r2 = norm_a * norm_a
        jet = _phi_jet(a, np.conj(a), r2, np.sqrt(1.0 - r2)[:, None], w, v)
    (r, n), (a, val) = vnorm(np.array(jet)).tolist()
    return np.asarray([v - _shifted_bound(r_k, n_k, a_k) for r_k, n_k, a_k, v in zip(r, n, a, val)])


def _quotient_rows(params: np.ndarray, m: int) -> np.ndarray:
    """The ``family_md`` rows (b, c, u) of a (K, 4) block (m = 1) or (K, 5) block of quotient rows.

    c is projected onto |c| <= 0.9 here, so a row reads as the map it
    evaluates to; each row is built from Python scalars, so its bits do not
    depend on the block it came in.
    """
    if params.shape[1] != 4 + (m >= 2):
        raise DomainError(f"expected {4 + (m >= 2)} quotient parameters, got {params.shape[1]}")
    rows = np.zeros((params.shape[0], 4 * m + 2))
    for row, (r, *theta, psi, re, im) in zip(rows, params.tolist()):
        scale = 0.9 / max(math.hypot(re, im), 0.9)
        row[[0, m, 2 * m, 2 * m + 1]] = r * math.cos(psi), r * math.sin(psi), re * scale, im * scale
        u = (math.cos(theta[0]), math.sin(theta[0])) if theta else (1.0,)
        row[2 * m + 2 : 2 * m + 2 + len(u)] = u
    return rows


# Each searched family: its start-point stream and its objective on a (K, n)
# block of parameter rows in dimension m.  The full family_md rows are not
# searched; the quotient keeps the stream family_md drew from.
_FAMILIES = {
    "family_1d": (1, lambda params, m: _family_1d_margins(params)),
    "family_md_quotient": (2, lambda params, m: _family_md_margins(_quotient_rows(params, m), m)),
}


REFINE_SPAN = 0.01
REFINE_SWEEPS = 2
_REFINE_ITERATIONS = 48
_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_LOOKAHEAD = 3


def _golden_move(bracket: tuple, left: bool) -> tuple[tuple, float]:
    """The golden-section bracket (a, b, c, d) after keeping [a, d] (``left``) or [c, b], and its new point."""
    a, b, c, d = bracket
    if left:
        x = d - _INV_GOLDEN * (d - a)
        return (a, d, x, c), x
    x = c + _INV_GOLDEN * (b - c)
    return (c, b, d, x), x


def _golden_section(line, lo: float, hi: float):
    """Golden-section minimization on [lo, hi]; returns (x, value, evaluations).

    ``line`` maps a list of points to the list of their values.  Termination
    depends only on the bracket width, so the descent survives value
    plateaus far below any value-spread resolution.  The returned point is
    the best *evaluated* one, never an unevaluated midpoint.  Each step's
    point follows from comparisons alone, so one call evaluates the points
    of the next ``_LOOKAHEAD`` steps under every outcome of the comparisons
    still to come (1 + 2 + 4), and the search follows the outcomes that
    occur.  The returned value is the least of every value ``line``
    returned, on the branches not taken too; ``evaluations`` counts only
    the points on the branches taken.
    """
    a, b = float(lo), float(hi)
    bracket = (a, b, b - _INV_GOLDEN * (b - a), a + _INV_GOLDEN * (b - a))
    fc, fd = line(list(bracket[2:]))
    best_x, best_f = (bracket[2], fc) if fc <= fd else (bracket[3], fd)
    steps = 0
    while steps < _REFINE_ITERATIONS:
        # Each step keyed by the outcomes (left or not) of the steps up to it.
        depth = min(_LOOKAHEAD, _REFINE_ITERATIONS - steps)
        level = [(fc < fd,)]
        moves = {level[0]: _golden_move(bracket, level[0][0])}
        for _ in range(depth - 1):
            level = [path + (left,) for path in level for left in (True, False)]
            moves.update((path, _golden_move(moves[path[:-1]][0], path[-1])) for path in level)
        values = dict(zip(moves, line([x for _, x in moves.values()])))
        # The best is kept over every evaluated point, the branches not taken included.
        for path, fx in values.items():
            if fx < best_f:
                best_x, best_f = moves[path][1], fx
        path = ()
        for _ in range(depth):
            path += (fc < fd,)
            bracket, fx = moves[path][0], values[path]
            fc, fd = (fx, fc) if path[-1] else (fd, fx)
        steps += depth
    return best_x, best_f, 2 + steps


def sharpness_report(spec: FamilySpec, restarts: int = 20, seed: int = 0) -> dict:
    """Multi-start search over a family; deterministic for a fixed seed.

    Start points are drawn from per-restart random streams keyed by (seed,
    family id, restart index), and the restarts run in lockstep
    (:func:`_lockstep_nelder_mead`, one batched objective call per round);
    ties in the best margin break toward the lowest restart index.  The best
    point is then finished with coordinatewise golden-section sweeps, which
    remain effective where the margin saturates below the simplex
    value-spread stop.  The returned dictionary is JSON-ready.
    """
    if restarts < 1:
        raise DomainError("need at least one restart")
    family_id, block_margins = _FAMILIES[spec.family]
    lower = np.asarray(spec.lower, dtype=float)
    upper = np.asarray(spec.upper, dtype=float)
    margins = lambda params: block_margins(params, spec.dim)

    starts = [
        lower + case_rng(seed, family_id, index).random(lower.shape[0]) * (upper - lower)
        for index in range(restarts)
    ]
    runs = _lockstep_nelder_mead(margins, starts, bounds=(lower, upper))
    best_index = min(range(restarts), key=lambda index: runs[index].value)
    best_x, best_value = runs[best_index].x, float(runs[best_index].value)
    total_evaluations = sum(result.evaluations for result in runs)

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

            def line(ts, i=i, base=base):
                points = np.repeat(base[None, :], len(ts), axis=0)
                points[:, i] = ts
                return margins(points).tolist()

            x_i, value, evaluations = _golden_section(line, lo, hi)
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
        report["full_argmin"] = _quotient_rows(best_x[None, :], spec.dim)[0].tolist()
    return report


__all__ = [
    "FamilySpec",
    "SearchResult",
    "family_1d_spec",
    "family_md_quotient_spec",
    "restricted_family_1d_spec",
    "sharpness_report",
]

"""Multi-start Nelder-Mead probing of boundary-bound tightness.

The optimizer minimizes margin objectives over small parametric families of
disk maps.  Every family member satisfies the preconditions of the bound it
probes by construction (origin or basepoint normalization, boundary contact),
so a negative best margin would falsify the bound — the searches double as a
stress test, and each run records the minimum objective value ever evaluated
along its trace.

Two families are provided: a scalar family rotation * (z * blaschke(c))
parametrized by the modulus and phase of c, whose zero-margin set should be
exactly the real-parameter ray, and a vector family
phi_b(z * blaschke(c)(z) * u) probing the basepoint-shifted bound, for which
no tightness claim is made (best found margins are reported as such).

The restarts of a search run in lockstep, and each family's objective
evaluates a whole block of parameter rows in one call, with the bits a
separate tree walk per row would give.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .ballgeom import BallAutomorphism, vnorm
from .corpus import case_rng
from .holodisk import _origin_bound, _shifted_bound
from .reports import DomainError

MAX_ITERATIONS = 10_000
DIAMETER_TOL = 1e-9
SPREAD_TOL = 1e-12

# Default parameter boxes.  The modulus floor keeps the scalar family away
# from the degenerate c = 0 corner where the phase coordinate stops being
# identifiable (every phase gives the same map there).
MODULUS_FLOOR = 0.05
MODULUS_CEIL = 1.0 - 1e-6
RESTRICTED_MODULUS_CEIL = 0.9
RESTRICTED_PHASE_FLOOR = math.pi / 4.0

_FAMILY_IDS = {"family_1d": 1, "family_md": 2}


@dataclass
class SearchResult:
    """Outcome of one Nelder-Mead run."""

    x: np.ndarray
    value: float
    iterations: int
    evaluations: int
    trace: list = field(default_factory=list)
    min_evaluated: float = math.inf


def _box_reflector(lower: np.ndarray, upper: np.ndarray):
    """The map mirroring out-of-box coordinates back inside (triangular-wave fold)."""
    width = upper - lower
    period = 2.0 * width

    def reflect(x: np.ndarray) -> np.ndarray:
        y = np.mod(x - lower, period)
        return lower + np.where(y > width, period - y, y)

    return reflect


def nelder_mead(
    objective,
    x0,
    bounds=None,
    max_iterations: int = MAX_ITERATIONS,
    initial_step: float = 0.1,
) -> SearchResult:
    """Deterministic Nelder-Mead with reflection-at-bounds feasibility.

    Coefficients: reflection 1, expansion 2, contraction 0.5, shrink 0.5.
    Stops when the simplex diameter drops below ``DIAMETER_TOL``, the value
    spread drops below ``SPREAD_TOL``, or ``max_iterations`` is reached.
    Out-of-box candidate points are mirrored back into the box, so the
    objective is only ever evaluated on feasible parameters.  A NaN value
    anywhere raises ``DomainError``; the start value must also be finite.
    This is the one-run case of :func:`_lockstep_nelder_mead`, with the
    objective called once per point.
    """
    x0 = np.asarray(x0, dtype=float)
    batched = lambda points: [float(objective(x)) for x in points]
    return _lockstep_nelder_mead(batched, x0[None, :], bounds, max_iterations, initial_step)[0]


def _lockstep_nelder_mead(
    objective,
    starts,
    bounds=None,
    max_iterations: int = MAX_ITERATIONS,
    initial_step: float = 0.1,
) -> list[SearchResult]:
    """:func:`nelder_mead` from each row of ``starts`` (K, n), all runs advancing together.

    ``objective`` maps a (p, n) block of points to their p values.  Each
    round evaluates, in one call, the points every unfinished run needs
    next: its initial simplex (the start point is its first vertex), a
    reflection, an expansion or contraction, or a shrink.  A run's steps
    depend only on its own values, so its result, trace, evaluation count
    and ``min_evaluated`` are those it would have alone.  A NaN value from
    any run raises ``DomainError``.
    """
    starts = np.asarray(starts, dtype=float)
    if bounds is not None:
        lower = np.asarray(bounds[0], dtype=float)
        upper = np.asarray(bounds[1], dtype=float)
        if np.any(upper <= lower):
            raise DomainError("bounds must satisfy lower < upper componentwise")
        clip = _box_reflector(lower, upper)
    else:
        clip = lambda x: x

    runs = [_simplex_run(clip(x0), clip, max_iterations, initial_step) for x0 in starts]
    requests = [next(run) for run in runs]
    evaluations = [0] * len(runs)
    min_evaluated = [math.inf] * len(runs)
    results = [None] * len(runs)
    active = list(range(len(runs)))
    while active:
        values = np.asarray(objective(np.concatenate([requests[k] for k in active])), dtype=float).tolist()
        waiting = []
        for k in active:
            count = requests[k].shape[0]
            own, values = values[:count], values[count:]
            for x, value in zip(requests[k], own):
                if math.isnan(value):
                    raise DomainError(f"objective is NaN at {x.tolist()}")
            evaluations[k] += count
            min_evaluated[k] = min(min_evaluated[k], *own)
            try:
                requests[k] = runs[k].send(own)
                waiting.append(k)
            except StopIteration as done:
                x, value, iterations, trace = done.value
                results[k] = SearchResult(x, value, iterations, evaluations[k], trace, min_evaluated[k])
        active = waiting
    return results


def _simplex_run(x0: np.ndarray, clip, max_iterations: int, initial_step: float):
    """One Nelder-Mead run as a generator driven by :func:`_lockstep_nelder_mead`.

    It yields each (p, n) block of points it needs and is sent back their p
    values; it returns (x, value, iterations, trace).
    """
    n = x0.shape[0]
    simplex = [x0]
    for i in range(n):
        step = np.zeros(n)
        step[i] = initial_step if x0[i] == 0.0 else initial_step * max(abs(x0[i]), 1.0)
        simplex.append(clip(x0 + step))
    simplex = np.asarray(simplex)
    values = np.asarray((yield simplex), dtype=float)
    if not math.isfinite(values[0]):
        raise DomainError("objective is not finite at the start point")

    trace = []
    iteration = 0
    while True:
        order = values.argsort(kind="stable")
        simplex = simplex[order]
        values = values[order]
        trace.append((iteration, float(values[0])))
        edges = simplex[1:] - simplex[0]
        diameter = float(np.sqrt(np.add.reduce(edges * edges, axis=1)).max())
        spread = float(values[-1] - values[0])
        if diameter < DIAMETER_TOL or spread < SPREAD_TOL or iteration >= max_iterations:
            break
        iteration += 1

        centroid = np.add.reduce(simplex[:-1], axis=0) / n
        reflected = clip(centroid + (centroid - simplex[-1]))
        (f_reflected,) = yield reflected[None, :]
        if f_reflected < values[0]:
            expanded = clip(centroid + 2.0 * (centroid - simplex[-1]))
            (f_expanded,) = yield expanded[None, :]
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
            (f_contracted,) = yield contracted[None, :]
            if f_contracted <= f_reflected:
                simplex[-1], values[-1] = contracted, f_contracted
                continue
        else:
            contracted = clip(centroid + 0.5 * (simplex[-1] - centroid))
            (f_contracted,) = yield contracted[None, :]
            if f_contracted < values[-1]:
                simplex[-1], values[-1] = contracted, f_contracted
                continue
        simplex[1:] = clip(simplex[0] + 0.5 * (simplex[1:] - simplex[0]))
        values[1:] = yield simplex[1:]

    best = int(np.argmin(values))
    return simplex[best].copy(), float(values[best]), iteration, trace


# ---------------------------------------------------------------------------
# families and objectives


@dataclass(frozen=True)
class FamilySpec:
    """A named parameter family with its search box."""

    family: str
    lower: tuple
    upper: tuple
    dim: int = 1

    def __post_init__(self):
        if self.family not in _FAMILY_IDS:
            raise DomainError(f"unknown family {self.family!r}")
        if len(self.lower) != len(self.upper):
            raise DomainError("bounds length mismatch")


def family_1d_spec(
    modulus_range=(MODULUS_FLOOR, MODULUS_CEIL),
    phase_range=(-math.pi, math.pi),
) -> FamilySpec:
    """Scalar family box over (c_modulus, c_phase)."""
    return FamilySpec(
        family="family_1d",
        lower=(float(modulus_range[0]), float(phase_range[0])),
        upper=(float(modulus_range[1]), float(phase_range[1])),
    )


def restricted_family_1d_spec() -> FamilySpec:
    """Scalar family with the phase kept away from the real ray."""
    return family_1d_spec(
        modulus_range=(MODULUS_FLOOR, RESTRICTED_MODULUS_CEIL),
        phase_range=(RESTRICTED_PHASE_FLOOR, math.pi),
    )


def family_md_spec(m: int) -> FamilySpec:
    """Vector family box: basepoint (2m), factor parameter (2), direction (2m)."""
    if m < 1:
        raise DomainError("dimension must be at least 1")
    lower = [-0.9] * (2 * m) + [-0.9, -0.9] + [-1.0] * (2 * m)
    upper = [0.9] * (2 * m) + [0.9, 0.9] + [1.0] * (2 * m)
    return FamilySpec(family="family_md", lower=tuple(lower), upper=tuple(upper), dim=int(m))


# The objectives evaluate each family's fixed tree written out from its node
# formulas, for a (K, n) block of parameter rows at once.  Every numpy
# operation is the one a walk of the row's own tree at the points [0, 1]
# performs, on arrays with a leading row axis, so each row gets the bits of
# its own walk.  Where the walk works on Python scalars (abs, ** and the
# complex arithmetic of the node constructors), so do these functions, row by
# row: numpy rounds some of those operations differently on arrays.
_WALK_POINTS = np.array([0.0, 1.0], dtype=complex)


def _row_norms(x: np.ndarray) -> np.ndarray:
    """``np.linalg.norm`` of each row of a complex (K, m) block, rounded as it rounds one row."""
    dot = lambda y: np.matmul(y[:, None, :], y[:, :, None])[:, 0, 0]
    return np.sqrt(dot(x.real) + dot(x.imag))


def _blaschke_jet(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Value and derivative of z * blaschke(c_k)(z) at [0, 1], shaped (K, 2)."""
    z = _WALK_POINTS
    den = 1.0 + np.conj(c)[:, None] * z
    value = (z + c[:, None]) / den
    deriv = np.asarray([1.0 - abs(ck) ** 2 for ck in c.tolist()])[:, None] / den**2
    return z * value, np.ones_like(z) * value + z * deriv


def _family_1d_margins(params: np.ndarray) -> np.ndarray:
    """``margin_objective_1d`` of each row of a (K, 2) block."""
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
    """``margin_objective_md`` of each row of a (K, 4m + 2) block."""
    if params.shape[1] != 4 * m + 2:
        raise DomainError(f"expected {4 * m + 2} parameters, got {params.shape[1]}")
    b = params[:, :m] + 1j * params[:, m : 2 * m]
    norm_b = _row_norms(b)
    far = norm_b > 0.9
    b[far] *= (0.9 / norm_b[far])[:, None]
    c = []
    for re, im in params[:, 2 * m : 2 * m + 2].tolist():
        ck = complex(re, im)
        if abs(ck) > 0.9:
            ck *= 0.9 / abs(ck)
        c.append(ck)
    u = params[:, 2 * m + 2 : 3 * m + 2] + 1j * params[:, 3 * m + 2 :]
    norm_u = _row_norms(u)
    tiny = norm_u < 1e-9
    u = u / np.where(tiny, 1.0, norm_u)[:, None]
    u[tiny] = np.eye(1, m)
    # F = phi_{-b}(z * blaschke(c)(z) * u); the stacked automorphism takes
    # the points axis first.
    value, deriv = (x.T[:, :, None] * u for x in _blaschke_jet(np.asarray(c)))
    value, deriv = BallAutomorphism(-b)._value_and_differential(value, deriv)
    (r, n), (a, val) = vnorm(value).tolist(), vnorm(deriv).tolist()
    return np.asarray([v - _shifted_bound(r_k, n_k, a_k) for r_k, n_k, a_k, v in zip(r, n, a, val)])


def margin_objective_1d(params) -> float:
    """Origin boundary-bound margin of rotation * (z * blaschke(c)), f(1) = 1.

    ``params`` is (c_modulus, c_phase) with the modulus in [0, 1 - 1e-6].
    The margin is zero exactly when the phase is 0 mod 2 pi (real parameter)
    or the modulus is 0.
    """
    return float(_family_1d_margins(np.asarray(params, dtype=float)[None, :])[0])


def margin_objective_md(params, m: int = 2) -> float:
    """Shifted boundary-bound margin over the vector family in dimension m.

    Builds F(z) = phi_b(z * blaschke(c)(z) * u) from a flat real parameter
    vector (basepoint is projected to norm <= 0.9, the factor parameter to
    modulus <= 0.9, the direction normalized to a unit vector), and returns
    the basepoint-shifted margin at the boundary point 1 — the construction
    keeps ||F|| = 1 on the whole unit circle.
    """
    return float(_family_md_margins(np.asarray(params, dtype=float)[None, :], m)[0])


def _objectives_for(spec: FamilySpec):
    """The family's batched objective, (K, n) rows to K margins, and its one-point form."""
    if spec.family == "family_1d":
        return _family_1d_margins, margin_objective_1d
    return (
        lambda params: _family_md_margins(params, spec.dim),
        lambda params: margin_objective_md(params, spec.dim),
    )


POLISH_STEPS = (0.1, 0.02, 0.004, 8e-4, 1.6e-4, 3.2e-5)
REFINE_SPAN = 0.01
REFINE_SWEEPS = 2
_REFINE_ITERATIONS = 48
_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_section(f, lo: float, hi: float):
    """Golden-section minimization on [lo, hi]; returns (x, value, evaluations).

    Termination depends only on the bracket width, so the descent survives
    value plateaus far below any value-spread resolution.  The returned point
    is the best *evaluated* one, never an unevaluated midpoint.
    """
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


def sharpness_report(spec: FamilySpec, restarts: int = 20, seed: int = 0) -> dict:
    """Multi-start search over a family; deterministic for a fixed seed.

    Start points are drawn from per-restart random streams keyed by (seed,
    family id, restart index), and the restarts run in lockstep
    (:func:`_lockstep_nelder_mead`, one batched objective call per round);
    ties in the best margin break toward the lowest restart index.  The
    merged best point is then polished by re-running the simplex search from
    it once per scale in ``POLISH_STEPS`` (flat valleys stop a single run
    well above the attainable minimum; fresh simplexes at decreasing scales
    descend further), keeping every strict improvement, and finished with
    coordinatewise golden-section sweeps that remain effective where the
    margin saturates below the simplex value-spread stop.  The returned
    dictionary is JSON-ready; polish traces follow the restart traces, and
    the combined refinement trace comes last.
    """
    if restarts < 1:
        raise DomainError("need at least one restart")
    lower = np.asarray(spec.lower, dtype=float)
    upper = np.asarray(spec.upper, dtype=float)
    margins, objective = _objectives_for(spec)
    family_id = _FAMILY_IDS[spec.family]

    starts = [
        lower + case_rng(seed, family_id, index).random(lower.shape[0]) * (upper - lower)
        for index in range(restarts)
    ]
    best = None
    best_index = -1
    traces = []
    min_evaluated = math.inf
    total_evaluations = 0
    for index, result in enumerate(_lockstep_nelder_mead(margins, starts, bounds=(lower, upper))):
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
        (result,) = _lockstep_nelder_mead(margins, best_x[None, :], bounds=(lower, upper), initial_step=step)
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

            x_i, value, evaluations = _golden_section(line, lo, hi)
            total_evaluations += evaluations
            min_evaluated = min(min_evaluated, value)
            refine_step += evaluations
            if value < best_value:
                best_value = float(value)
                best_x = base
                best_x[i] = float(x_i)
                refine_trace.append([refine_step, best_value])
    traces.append(refine_trace)
    return {
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


__all__ = [
    "FamilySpec",
    "SearchResult",
    "family_1d_spec",
    "family_md_spec",
    "margin_objective_1d",
    "margin_objective_md",
    "nelder_mead",
    "restricted_family_1d_spec",
    "sharpness_report",
]

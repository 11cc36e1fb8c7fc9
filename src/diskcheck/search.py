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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .ballgeom import BallAutomorphism
from .corpus import case_rng
from .holodisk import (
    Blaschke,
    ComposeAut,
    Embed,
    Identity,
    Mul,
    _origin_bound_terms,
    _shifted_bound_terms,
    blaschke_product,
)
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


def _reflect_into_box(x: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Mirror out-of-box coordinates back inside (triangular-wave fold)."""
    width = upper - lower
    y = np.mod(x - lower, 2.0 * width)
    y = np.where(y > width, 2.0 * width - y, y)
    return lower + y


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
    """
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
    if not math.isfinite(f(x0)):
        raise DomainError("objective is not finite at the start point")

    simplex = [x0]
    for i in range(n):
        step = np.zeros(n)
        step[i] = initial_step if x0[i] == 0.0 else initial_step * max(abs(x0[i]), 1.0)
        simplex.append(clip(x0 + step))
    simplex = np.asarray(simplex)
    values = np.asarray([f(x) for x in simplex])

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


def margin_objective_1d(params) -> float:
    """Origin boundary-bound margin of rotation * (z * blaschke(c)), f(1) = 1.

    ``params`` is (c_modulus, c_phase) with the modulus in [0, 1 - 1e-6].
    The margin is zero exactly when the phase is 0 mod 2 pi (real parameter)
    or the modulus is 0.
    """
    modulus, phase = float(params[0]), float(params[1])
    if not 0.0 <= modulus <= MODULUS_CEIL:
        raise DomainError(f"modulus out of range: {modulus}")
    c = modulus * complex(math.cos(phase), math.sin(phase))
    f = blaschke_product([c], include_z=True, fix_one=True)
    val, bound, _ = _origin_bound_terms(f, 1.0 + 0j)
    return val - bound


def _family_md_disk(params, m: int):
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


def margin_objective_md(params, m: int = 2) -> float:
    """Shifted boundary-bound margin over the vector family in dimension m.

    Builds F(z) = phi_b(z * blaschke(c)(z) * u) from a flat real parameter
    vector (basepoint is projected to norm <= 0.9, the factor parameter to
    modulus <= 0.9, the direction normalized to a unit vector), and returns
    the basepoint-shifted margin at the boundary point 1 — the construction
    keeps ||F|| = 1 on the whole unit circle.
    """
    val, main, _, _ = _shifted_bound_terms(_family_md_disk(params, m), 1.0 + 0j)
    return val - main


def _objective_for(spec: FamilySpec):
    if spec.family == "family_1d":
        return margin_objective_1d
    return lambda params: margin_objective_md(params, spec.dim)


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

    Start points are drawn from per-restart random streams keyed by
    (seed, family id, restart index); ties in the best margin break toward
    the lowest restart index.  The merged best point is then polished by
    re-running the simplex search from it once per scale in
    ``POLISH_STEPS`` (flat valleys stop a single run well above the
    attainable minimum; fresh simplexes at decreasing scales descend
    further), keeping every strict improvement, and finished with
    coordinatewise golden-section sweeps that remain effective where the
    margin saturates below the simplex value-spread stop.  The returned
    dictionary is JSON-ready; polish traces follow the restart traces, and
    the combined refinement trace comes last.
    """
    if restarts < 1:
        raise DomainError("need at least one restart")
    lower = np.asarray(spec.lower, dtype=float)
    upper = np.asarray(spec.upper, dtype=float)
    objective = _objective_for(spec)
    family_id = _FAMILY_IDS[spec.family]

    best = None
    best_index = -1
    traces = []
    min_evaluated = math.inf
    total_evaluations = 0
    for index in range(restarts):
        rng = case_rng(seed, family_id, index)
        x0 = lower + rng.random(lower.shape[0]) * (upper - lower)
        result = nelder_mead(objective, x0, bounds=(lower, upper))
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
        result = nelder_mead(objective, best_x, bounds=(lower, upper), initial_step=step)
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

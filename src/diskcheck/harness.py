"""Suite execution, configuration, and machine-readable reporting.

``run_suite`` executes the selected check suites over seeded corpora and
returns a :class:`RunReport`.  Determinism contract: every draw comes from a
random stream keyed by (seed, stream id, index), and case or point i of a draw
takes its row i, so no value depends on how many are drawn; aggregation is
order-independent, and the JSON serialization is byte-identical for
identical configurations (wall-clock time is deliberately kept out of the
report and only printed to the console by the CLI).

Per suite, the report keeps the case count, the worst case per check name,
the full list of failures, and a ``findings`` block for measured quantities
that are reported rather than asserted (for example the measured convention
constant of the metric audit, or minimum margins of bounds whose general
validity the checks do not claim).
"""

from __future__ import annotations

import csv
import json
import math
import numbers
import operator
import os
import time
from array import array
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from .ballgeom import (
    _BALL_SLACK,
    BallAutomorphism,
    cayley_klein_dist,
    poincare_dist,
    pseudo_hyperbolic_quotient,
    vnorm,
)
from .corpus import (
    _ball_cases,
    _BlockDraw,
    _disk_points,
    _on_circle,
    case_rng,
    holo_corpus,
    julia_corpus,
    weierstrass_corpus,
)
from .holodisk import (
    Blaschke,
    _fmt_complex,
    _point_slices,
    analytic_radial_derivative,
    affine_rigidity_check,
    boundary_bound_origin,
    boundary_bound_shifted,
    certify_in_ball,
    extremal_family_1d,
    growth_sweep,
    julia_margins,
    nonreal_parameter_closed_form,
    nonreal_parameter_strictness,
    radial_derivative_estimate,
    schwarz_derivative_bound,
)
from .reports import _EQUALITY, CHECKS, DomainError, _judge
from .search import (
    family_1d_spec,
    family_md_quotient_spec,
    restricted_family_1d_spec,
    sharpness_report,
)
from .weierstrass import (
    WeierstrassDisk,
    antiderivative_quadrature_residual,
    boundary_minimal_margin,
    distance_decreasing_margins,
    halfsphere_chain_check,
    interior_growth_margin,
    inverse_lipschitz_check,
    null_condition_report,
    surface_identities,
)

TOOL_NAME = "diskcheck"
TOOL_VERSION = "0.1.0"

KNOWN_SUITES = ("ball", "holo", "minimal", "search")

# Stream ids for per-case randomness (corpus generation uses 100-399).
BALL_POINT_STREAM = 400
HOLO_POINT_STREAM = 500
JULIA_POINT_STREAM = 550
MINIMAL_POINT_STREAM = 600
# The minimal suite's three sweeps: index 0 the identities, 1 the pairs, 2 the diameters.
MINIMAL_SWEEP_STREAM = 650
# The ball and holo point streams are offset by m, so every suite dimension
# stays below the gap from the holo to the Julia stream.
DIMENSION_LIMIT = JULIA_POINT_STREAM - HOLO_POINT_STREAM


@dataclass(frozen=True)
class SuiteConfig:
    """Validated run configuration; the JSON report echoes it verbatim."""

    seed: int = 0
    dimensions: tuple = (1, 2, 3)
    samples: int = 200
    suites: tuple = KNOWN_SUITES
    out: str | None = None
    tolerances: dict = field(default_factory=dict)
    search_restarts: int = 8

    def __post_init__(self):
        try:
            if any(isinstance(x, bool) for x in (self.seed, self.samples, self.search_restarts, *self.dimensions)):
                raise TypeError  # operator.index would take True as 1
            for name in ("seed", "samples", "search_restarts"):
                object.__setattr__(self, name, operator.index(getattr(self, name)))
            object.__setattr__(self, "dimensions", tuple(operator.index(m) for m in self.dimensions))
        except TypeError:
            raise DomainError("seed, samples, search_restarts and dimensions must be integers") from None
        if self.seed < 0:
            raise DomainError("seed must be nonnegative")
        if self.samples < 1:
            raise DomainError("samples must be at least 1")
        if not self.suites:
            raise DomainError("no suites selected")
        unknown = [s for s in self.suites if s not in KNOWN_SUITES]
        if unknown:
            raise DomainError(f"unknown suite name(s): {unknown}; known: {list(KNOWN_SUITES)}")
        if len(set(self.suites)) < len(self.suites):
            raise DomainError(f"suite names must not repeat; got {list(self.suites)}")
        if not self.dimensions or any(not 1 <= m < DIMENSION_LIMIT for m in self.dimensions):
            raise DomainError(f"dimensions must be a nonempty list of integers from 1 to {DIMENSION_LIMIT - 1}")
        if len(set(self.dimensions)) < len(self.dimensions):
            raise DomainError(f"dimensions must not repeat; got {list(self.dimensions)}")
        if self.search_restarts < 1:
            raise DomainError("search_restarts must be at least 1")
        if not isinstance(self.tolerances, Mapping):
            raise DomainError(f"tolerances must be a mapping of check names to numbers; got {self.tolerances!r}")
        for name, value in self.tolerances.items():
            if name not in CHECKS:
                raise DomainError(f"tolerance override names an unknown check: {name!r}")
            if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
                raise DomainError(f"tolerance override for {name!r} must be a finite real number; got {value!r}")
        object.__setattr__(self, "tolerances", {name: float(value) for name, value in self.tolerances.items()})

    def as_dict(self) -> dict:
        return {
            "seed": self.seed,
            "dimensions": list(self.dimensions),
            "samples": self.samples,
            "suites": list(self.suites),
            "tolerances": dict(sorted(self.tolerances.items())),
            "search_restarts": self.search_restarts,
        }


class _SuiteAccumulator:
    """Collects one suite's cases: counts, worst case per check, failures.

    It is the one place that names and judges cases: check functions return
    raw values, and :meth:`as_dict` judges each check once, over every case
    recorded for it, by the rule of ``reports._judge`` with the run's
    tolerance overrides.  Records, and their instance text, are built only
    for a check's worst case and for its failures, which are listed case by
    case in recording order, within a case in column order.
    """

    def __init__(self, tolerances: dict) -> None:
        self.tolerances = tolerances
        self.rows = 0
        self.tables: dict = {}
        self.findings: dict = {}
        self.minima: dict = {}

    def record(self, describe, columns: dict) -> None:
        """Record a table of cases, of which ``describe(i)`` names case i.

        ``columns`` maps check names to (lhs, rhs, margin) columns over the cases:
        arrays, or scalars in a record of one case, which may pass its name as ``describe``.
        Each check keeps its cases' values in one flat float array, and a key per case that orders failures.
        """
        stride = len(columns)
        for position, (name, values) in enumerate(columns.items()):
            table = getattr(values[2], "ndim", 0)
            cases = len(values[2]) if table else 1
            floats, keys, starts, describes = self.tables.setdefault(name, (array("d"), array("q"), array("q"), []))
            floats.extend(np.transpose(values).ravel() if table else values)
            keys.extend(range(self.rows + position, self.rows + stride * cases, stride))
            starts.append(len(keys) - cases)
            describes.append(describe)
        self.rows += stride * cases

    def check(self, name, describe, lhs, rhs, margin) -> None:
        """Record one case, named by the text ``describe`` or by ``describe(0)``."""
        self.record(describe, {name: (lhs, rhs, margin)})

    def value(self, name, instance, value) -> None:
        """Record ``value`` itself as the margin, against zero (a floor check: against its floor)."""
        self.check(name, instance, value, 0.0, value)

    def fold_sampled(self, name, member, margins, points) -> None:
        """Fold the smallest of a block's sampled margins, with its point, into ``member``'s sampled minimum ``name``.

        Across blocks the rule is ``np.argmin``'s: the first smallest margin
        wins, and a NaN counts as the smallest.  The minimum keeps a copy of
        its point, which holds no block alive.
        """
        i = int(np.argmin(margins))
        held = self.minima.get((name, member))
        if held is None or not (math.isnan(held[0]) or held[0] <= margins[i]):
            self.minima[name, member] = margins[i], points[i].copy()

    def sampled(self, name, member, describe) -> None:
        """Record ``member``'s sampled minimum ``name`` folded so far; ``describe(point)`` names its point."""
        margin, point = self.minima.pop((name, member))
        self.check(name, describe(point), 0.0, 0.0, margin)

    # Running-extreme findings: each fold keeps a NaN, whatever is folded after it.
    def fold_max(self, name, values) -> None:
        """Fold the largest of ``values`` into the finding ``name``, which starts from 0.0."""
        self.findings[name] = float(np.maximum(self.findings.get(name, 0.0), np.max(values)))

    def fold_min(self, name, values) -> None:
        """Fold the smallest of ``values`` into the finding ``name``, which starts from +inf."""
        self.findings[name] = float(np.minimum(self.findings.get(name, math.inf), np.min(values)))

    def as_dict(self) -> dict:
        checks, failures = {}, []
        for name, (floats, keys, starts, describes) in sorted(self.tables.items()):
            lhs, rhs, margin = np.frombuffer(floats).reshape(-1, 3).T
            rhs, margin, passed, badness, tolerance = _judge(name, lhs, rhs, margin, self.tolerances)
            rhs = np.broadcast_to(rhs, lhs.shape)

            def record(i):
                k = int(np.searchsorted(starts, i, side="right")) - 1
                describe = describes[k]
                return {
                    "name": name,
                    "instance": describe(i - starts[k]) if callable(describe) else describe,
                    "lhs": float(lhs[i]),
                    "rhs": float(rhs[i]),
                    "margin": float(margin[i]),
                    "tolerance": tolerance,
                    "passed": bool(passed[i]),
                }

            failures.extend((keys[i], record(i)) for i in np.flatnonzero(~passed).tolist())
            worst = record(int(np.argmax(badness)))
            checks[name] = {
                "count": len(margin),
                "equality": CHECKS[name][0] == _EQUALITY,
                "worst_margin": worst["margin"],
                "worst_lhs": worst["lhs"],
                "worst_rhs": worst["rhs"],
                "tolerance": tolerance,
                "passed": worst["passed"],
                "worst_instance": worst["instance"],
            }
        failures.sort(key=lambda failure: failure[0])
        return {
            "cases": sum(slot["count"] for slot in checks.values()),
            "checks": checks,
            # A NaN margin counts as the smallest.
            "min_margin": min((slot["worst_margin"] for slot in checks.values() if not slot["equality"]),
                              key=lambda m: (not math.isnan(m), m), default=None),
            "failures": [failure for _, failure in failures],
            "findings": self.findings,
        }


def _prime_heap() -> None:
    """Allocate and free one untouched 1 MiB array before a sampled suite's sweeps.

    glibc's malloc then raises its mmap threshold to 1 MiB and its trim
    threshold to 2 MiB, so the temporaries of each point block are served from
    a heap that is not trimmed and faulted in again after every block.  Under
    another allocator it is one unused allocation.
    """
    np.empty(1 << 17)


# ---------------------------------------------------------------------------
# ball suite


def _run_ball(config: SuiteConfig) -> dict:
    acc = _SuiteAccumulator(config.tolerances)
    h = 1e-6
    value = lambda column: (column, np.zeros_like(column), column)
    for m in config.dimensions:
        # A dimension's cases come from two draws, row k of each array being
        # case k.  The checks are evaluated for a block of cases at once, as
        # many as keep the (m, 4, K, m) operator-norm stack within the point
        # budget, and recorded as one table per block, each value with the bits
        # of a one-case call.
        vectors, ur, disk, signed, radius = _ball_cases(config.seed, BALL_POINT_STREAM, m, config.samples)
        for block in _point_slices(config.samples, 4 * m * m):
            (a, w, b, v), plane, z = vectors[:, block], signed[1:, block], disk[:, block]
            (su, tu), (z1, z2, c) = plane[:, :, None] * ur[block], z
            x = radius[block, None] * ur[block]
            image = (z[:2] + c) / (1.0 + np.conj(c) * z[:2])
            # math.atanh, not np.arctanh: the two differ in the last bit on some radii.
            radial = [math.atanh(r) for r in vnorm(x).tolist()]
            direction = a / vnorm(a)[:, None]
            collinear = 0.9 * signed[0, block, None] * direction
            aut = BallAutomorphism(a)
            zero = np.zeros_like(a)
            w8 = 0.8 * w
            fd = (aut.apply(w8 + h * v) - aut.apply(w8 - h * v)) / (2.0 * h)
            exact = aut.differential(w8, v)
            # The anchors a, a/||a|| and 0, and then w, as one (4, K, m) point set.
            anchored = np.stack([a, direction, zero, w])
            formulas, oracles = aut.opnorm_formula(anchored), aut.opnorm_oracle(anchored)
            # The origin anchor is exact only when an orthogonal direction exists
            # (m >= 2); for m = 1 the deviation there is recorded as a finding
            # instead of asserted.
            anchor_dev = np.max((np.abs(formulas - oracles) / oracles)[: 3 if m >= 2 else 2], axis=0)
            quot, moved = pseudo_hyperbolic_quotient(a, w), vnorm(aut.apply(w))
            oracle_w, formula_w, bound = oracles[3], formulas[3], aut.opnorm_global_bound()
            acc.record(lambda k, m=m, start=block.start: f"m={m} case={start + k}", {
                "phi_fixed_point": value(vnorm(aut.apply(a))),
                "phi_origin_value": value(vnorm(aut.apply(zero) - a)),
                "phi_involution": value(vnorm(aut.apply(aut.apply(w)) - w)),
                "phi_norm_identity": value(aut.norm_identity_residual(w)),
                "phi_boundary_preservation": value(np.abs(vnorm(aut.apply(b)) - 1.0)),
                "quotient_domination": (moved, quot, quot - moved),
                "quotient_collinear_equality": value(
                    np.abs(pseudo_hyperbolic_quotient(a, collinear) - vnorm(aut.apply(collinear)))),
                "dphi_finite_difference": value(vnorm(fd - exact) / (1.0 + vnorm(exact))),
                "opnorm_anchor": value(anchor_dev),
                "opnorm_global_bound": (oracle_w, bound, bound - oracle_w),
                "metric_plane_consistency": value(np.abs(cayley_klein_dist(su, tu) - poincare_dist(*plane))),
                "poincare_invariance": value(np.abs(poincare_dist(z1, z2) - poincare_dist(*image))),
                "cayley_klein_radial": value(np.abs(cayley_klein_dist(np.zeros_like(x), x) - radial)),
            })
            if m == 1:
                acc.fold_max("opnorm_formula_origin_deviation_m1", np.abs(formulas[2] - oracles[2]))
            acc.fold_max("opnorm_formula_max_underestimate", oracle_w - formula_w)
            acc.fold_max("opnorm_formula_max_overestimate", formula_w - oracle_w)
    return acc.as_dict()


# ---------------------------------------------------------------------------
# holomorphic suite


def _run_holo(config: SuiteConfig) -> dict:
    acc = _SuiteAccumulator(config.tolerances)
    _prime_heap()
    corpus_count = max(12, min(60, config.samples // 4))

    for a in (0.0,) + tuple(0.1 * k for k in range(1, 10)):
        # One walk of the tree, at the points 1 and 0.
        jet = extremal_family_1d(a)._jet(np.asarray([1.0, 0.0], dtype=complex))
        (f1, _), (df1, df0) = np.array(jet)[:, :, 0].tolist()
        dev = np.max([abs(f1 - 1.0), abs(df1 - 2.0 / (1.0 + a)), abs(df0 - a)])
        acc.value("extremal_family_values", f"a={a:.1f}", dev)

    for c in (0.2, 0.5, 0.8):
        acc.check("shifted_equality_blaschke", f"blaschke({c})", *boundary_bound_shifted(Blaschke(c), 1.0 + 0j))

    rng = case_rng(config.seed, HOLO_POINT_STREAM, 0)
    for k in range(min(50, config.samples)):
        aa = _disk_points(rng, 1, rmin=0.1, rmax=0.9)[0]
        strict = nonreal_parameter_strictness(aa)
        acc.check("strictness_margin", lambda k, aa=aa: f"z*blaschke({_fmt_complex(aa)}) rotated to fix 1", *strict)
        acc.value("strictness_closed_form", f"a={aa:.6g}", abs(strict.margin - nonreal_parameter_closed_form(aa)))

    for m in config.dimensions:
        disks = holo_corpus(config.seed, m, corpus_count)
        # One growth sweep per dimension checks every origin-fixing member on
        # each block of points before the next block is drawn.  Between
        # blocks each member keeps its sampled minima and, for the growth
        # equality, the largest |growth margin| of each block.
        swept = [member for member in disks if member.zero_at_origin]
        widest = {member.name: [] for member in swept if member.growth_equality}

        def fold(k, z, growth, upper, lower):
            name = swept[k].name
            acc.fold_sampled("growth_margin", name, growth, z)
            acc.fold_sampled("two_sided_upper", name, upper, z)
            if m == 1:
                acc.fold_sampled("two_sided_lower", name, lower, z)
            else:
                acc.fold_min("two_sided_lower_min_margin_md", lower)
            if name in widest:
                widest[name].append(np.max(np.abs(growth, out=growth)))

        draw = _BlockDraw(case_rng(config.seed, HOLO_POINT_STREAM + m, 0), config.samples, m, disk=(0.02, 0.97))
        growth_sweep([member.disk for member in swept], draw, fold)

        for member in disks:
            tag = f"m={m} {member.name}"
            disk = member.disk

            text = disk.to_text()

            max_norm = certify_in_ball(disk, n_boundary=1024, n_interior=32)
            acc.check("boundary_membership", tag, max_norm, 1.0, 1.0 - max_norm)

            acc.check("schwarz_derivative", text, *schwarz_derivative_bound(disk))

            if member.zero_at_origin:
                at_z = lambda z: f"{tag} z={z:.6g}"
                acc.sampled("growth_margin", member.name, at_z)
                if member.growth_equality:
                    acc.value("growth_equality_affine", tag, float(np.max(widest[member.name])))
                acc.sampled("two_sided_upper", member.name, at_z)
                if m == 1:
                    acc.sampled("two_sided_lower", member.name, at_z)

            if member.boundary_contact is not None:
                zeta = member.boundary_contact
                at_zeta = lambda k, text=text, zeta=zeta: f"{text} @ zeta={_fmt_complex(zeta)}"
                if member.zero_at_origin:
                    acc.check("boundary_origin_margin", at_zeta, *(origin := boundary_bound_origin(disk, zeta)))
                    if member.equality_archetype:
                        acc.check("boundary_origin_equality", tag, *origin)
                acc.check("boundary_shifted_margin", at_zeta, *boundary_bound_shifted(disk, zeta))
                estimate, err = radial_derivative_estimate(disk, zeta)
                analytic = analytic_radial_derivative(disk, zeta)
                rdev = abs(estimate - analytic)
                acc.check("radial_estimate", tag, estimate, analytic, rdev)
                acc.fold_max("radial_error_estimate_max", err)

            if member.name == "archetype-affine" or member.name.startswith("zblaschke"):
                acc.check("affine_rigidity", text, *affine_rigidity_check(disk))

    julia_members = julia_corpus(config.seed, max(9, min(60, config.samples // 4)))
    for index, member in enumerate(julia_members):
        rng = case_rng(config.seed, JULIA_POINT_STREAM, index)
        zs = _disk_points(rng, 50, rmin=0.0, rmax=0.8)
        margins = julia_margins(member.disk, zs)
        acc.fold_sampled("julia_margin", index, margins, zs)
        acc.sampled("julia_margin", index, lambda z: f"{member.name} z={z:.6g}")
        if member.factors == 1:
            acc.value("julia_equality", member.name, float(np.max(np.abs(margins))))
        else:
            acc.fold_min("julia_multi_factor_min_margin", margins)
    return acc.as_dict()


# ---------------------------------------------------------------------------
# minimal suite


def _run_minimal(config: SuiteConfig) -> dict:
    acc = _SuiteAccumulator(config.tolerances)
    surfaces = weierstrass_corpus(config.seed, max(8, min(24, config.samples // 10)))
    max_norms = [member.surface.max_norm() for member in surfaces]
    in_ball = [index for index, max_norm in enumerate(max_norms) if max_norm <= 1.0 + _BALL_SLACK]
    planar = [index for index in in_ball if surfaces[index].planar_through_origin]
    # Three sweeps, each drawn once, check every surface they cover on each
    # block of points before the next block is drawn; a block's temporaries
    # hold points of R^3.  Between blocks each surface keeps its sampled
    # minimum and per-block maxima, and the metric audit its per-block sums.
    n = config.samples
    draw = lambda sweep, **options: _BlockDraw(case_rng(config.seed, MINIMAL_SWEEP_STREAM, sweep), n, 3, **options)
    _prime_heap()

    maxima = [[] for _ in surfaces]  # per surface, per block: the three maxima
    audit = []  # per block and surface with finite audit ratios: their np.sum, count, max and min
    first = None  # the sweep's first point, where the quadrature is checked
    for zs in draw(0, disk=(0.02, 0.97)):
        if first is None:
            first = complex(zs[0])
        for member, block_maxima in zip(surfaces, maxima):
            *values, ratio = surface_identities(member.surface, zs)
            block_maxima.append(values)
            finite = np.isfinite(ratio)
            if (ratio := ratio if finite.all() else ratio[finite]).size:
                audit.append((float(np.sum(ratio)), ratio.size, float(np.max(ratio)), float(np.min(ratio))))

    deviations = {index: [] for index in planar}  # per block of the anchored and diameter sweeps: the max |margin|
    # n pairs of disk points, each pair's two points drawn one after the other.
    for pairs in draw(1, rows=4, disk=(0.0, 0.97)):
        (za, wb), points = pairs, pairs.T
        for index in in_ball:
            w = surfaces[index].surface
            margins = distance_decreasing_margins(w, za, wb)
            acc.fold_sampled("distance_decreasing", index, margins, points)
            if index in deviations:
                acc.fold_min("planar_general_pair_min_margin", margins)
                deviations[index].append(np.max(np.abs(distance_decreasing_margins(w, za, np.zeros_like(za)))))
    if planar:
        # The diameters' direction turns and s, t uniforms.
        for turns, s, t in draw(2, rows=3):
            direction = _on_circle(1.0, turns)
            ends = (-0.95 + 1.9 * s) * direction, (-0.95 + 1.9 * t) * direction
            for index in planar:
                deviations[index].append(np.max(np.abs(distance_decreasing_margins(surfaces[index].surface, *ends))))

    for index, member in enumerate(surfaces):
        rng = case_rng(config.seed, MINIMAL_POINT_STREAM, index)
        w = member.surface
        tag = member.name
        text = repr(w)

        acc.check("null_condition", text, *null_condition_report(w))

        iso, gdev, orth = (float(np.max(c)) for c in zip(*maxima[index]))
        acc.check("isothermal", text, iso, 0.0, iso)
        acc.fold_max("gauss_normal_orthogonality_max_residual", orth)
        acc.value("gauss_normal_unit", tag, gdev)
        acc.value("antiderivative_quadrature", tag, antiderivative_quadrature_residual(w, first))

        acc.check("boundary_membership", tag, max_norms[index], 1.0, 1.0 - max_norms[index])

        if index in in_ball:
            for a in _disk_points(rng, 8, rmin=0.0, rmax=0.95):
                growth = interior_growth_margin(w, a)
                acc.check("lemma0_margin", lambda k, text=text, a=a: f"{text} @ a={complex(a)!r}", *growth)
                if member.planar_through_origin:
                    acc.check("lemma0_equality_planar", f"{tag} a={a:.6g}", *growth)

            acc.sampled("distance_decreasing", index, lambda pair: f"{tag} pair=({pair[0]:.4g},{pair[1]:.4g})")
            if member.planar_through_origin:
                acc.value("distance_equality_planar", tag, np.max(deviations[index]))

        if (zeta := member.boundary_contact_point) is not None:
            contact = boundary_minimal_margin(w, zeta)
            acc.check("boundary_minimal_margin", lambda k, text=text, zeta=zeta: f"{text} @ zeta={complex(zeta)!r}",
                      *contact)
            if member.planar_through_origin:
                acc.check("boundary_minimal_equality", tag, *contact)

        if w.halfsphere:
            acc.check("halfsphere_chain", text, *halfsphere_chain_check(w))

        lipschitz_ok = member.full_circle_contact or member.boundary_contact_point is not None
        lipschitz_ok = lipschitz_ok or member.name == "enneper-halfsphere"
        if w.halfsphere and lipschitz_ok:
            pairs = list(zip(_disk_points(rng, 20, rmin=0.0), _disk_points(rng, 20, rmin=0.0)))
            acc.check("inverse_lipschitz", f"{text} @ {len(pairs)} pairs", *inverse_lipschitz_check(w, pairs))

    named = WeierstrassDisk([2.0, 1.0], [0.0, 0.5], halfsphere=True)
    acc.check("halfsphere_chain", repr(named), *halfsphere_chain_check(named))

    planar_members = [s for s in surfaces if s.name == "planar"]
    if planar_members:
        probe = distance_decreasing_margins(
            planar_members[0].surface, np.asarray([0.5 + 0j]), np.asarray([0.5j])
        )
        acc.findings["planar_general_pair_margin_at_probe"] = float(probe[0])

    sums, counts, highs, lows = zip(*audit)
    mean_ratio = math.fsum(sums) / sum(counts)
    spread = (max(highs) - min(lows)) / mean_ratio
    acc.check("metric_audit_spread", "corpus", mean_ratio, mean_ratio, spread)
    acc.findings["audited_metric_constant"] = mean_ratio
    acc.findings["claimed_metric_constant"] = 1.0
    return acc.as_dict()


# ---------------------------------------------------------------------------
# search suite


def _run_search(config: SuiteConfig) -> dict:
    acc = _SuiteAccumulator(config.tolerances)
    full = sharpness_report(family_1d_spec(), restarts=config.search_restarts, seed=config.seed)
    acc.value("family_1d_best", "family_1d", full["best_margin"])
    # |phase| is the distance to the zero ray in the box [-pi, pi]; sin(phase)
    # also vanishes at +-pi, where the margin is largest.
    acc.value("family_1d_phase", "family_1d", abs(full["argmin"][1]))

    restricted = sharpness_report(
        restricted_family_1d_spec(), restarts=config.search_restarts, seed=config.seed
    )
    acc.value("family_1d_restricted_floor", "family_1d phase in [pi/4, pi]", restricted["best_margin"])

    md = sharpness_report(family_md_quotient_spec(2), restarts=min(6, config.search_restarts), seed=config.seed)
    acc.value("family_md_margin", "family_md m=2", md["best_margin"])

    out = acc.as_dict()
    out["reports"] = {"family_1d": full, "family_1d_restricted": restricted, "family_md": md}
    return out


# ---------------------------------------------------------------------------
# assembly and serialization


_RUNNERS = {"ball": _run_ball, "holo": _run_holo, "minimal": _run_minimal, "search": _run_search}


@dataclass
class RunReport:
    """Aggregated run outcome; ``json_text`` is the canonical serialization.

    ``wall_times`` (seconds per suite) is intentionally excluded from the
    JSON so that identical configurations serialize byte-identically; the
    CLI prints it to the console instead.
    """

    config: dict
    tool: dict
    passed: bool
    suites: dict
    wall_times: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {"config": self.config, "tool": self.tool, "passed": self.passed, "suites": self.suites}

    def json_text(self) -> str:
        return json.dumps(_jsonify(self.as_dict()), **_JSON_FORMAT) + "\n"


# The canonical JSON text.  With an indent, json.dump runs the pure-Python
# encoder and writes its chunks one at a time, so the text is never held whole.
_JSON_FORMAT = {"sort_keys": True, "indent": 2, "allow_nan": False}


def _jsonify(obj):
    """``obj`` with every non-finite float replaced by its CSV text "nan", "inf" or "-inf".

    The json module never hands a float to ``default``, so they are replaced beforehand.
    """
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(float(obj))
    return obj


def run_suite(config: SuiteConfig) -> RunReport:
    """Execute the selected suites and aggregate a deterministic report.

    When ``config.out`` is set, the JSON report and the margins CSV are
    written there as a side effect.
    """
    suites = {}
    wall_times = {}
    for name in config.suites:
        start = time.perf_counter()
        suites[name] = _RUNNERS[name](config)
        wall_times[name] = time.perf_counter() - start
    passed = all(not suite["failures"] for suite in suites.values())
    report = RunReport(
        config=config.as_dict(),
        tool={"name": TOOL_NAME, "version": TOOL_VERSION},
        passed=passed,
        suites=suites,
        wall_times=wall_times,
    )
    if config.out is not None:
        write_report(report, config.out)
    return report


def write_report(report: RunReport, path: str) -> None:
    """Write the JSON report to ``path`` and the margins CSV next to it.

    The report is streamed: its text is never held whole.
    """
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_jsonify(report.as_dict()), fh, **_JSON_FORMAT)
        fh.write("\n")
    root, _ = os.path.splitext(path)
    with open(root + ".margins.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["suite", "check", "instance", "lhs", "rhs", "margin", "tolerance", "passed"])
        writer.writerows(
            [
                suite_name,
                check_name,
                slot["worst_instance"],
                repr(float(slot["worst_lhs"])),
                repr(float(slot["worst_rhs"])),
                repr(float(slot["worst_margin"])),
                repr(float(slot["tolerance"])),
                slot["passed"],
            ]
            for suite_name in report.config["suites"]
            if suite_name in report.suites
            for check_name, slot in sorted(report.suites[suite_name]["checks"].items())
        )


__all__ = [
    "KNOWN_SUITES",
    "RunReport",
    "SuiteConfig",
    "TOOL_NAME",
    "TOOL_VERSION",
    "run_suite",
    "write_report",
]

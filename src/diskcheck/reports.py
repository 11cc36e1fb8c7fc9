"""Shared result records, error types and the tolerance table.

A check function returns the raw :class:`CheckValues` of one case; a suite
names the case and judges it by :func:`_judge` into a record with an explicit
margin and the tolerance it was judged against.  Margins are oriented so that
``margin >= -tolerance`` means the inequality held; equality cases are
asserted as ``abs(margin) <= tolerance``.  Which rule a check follows is
fixed by its name, through :data:`CHECKS`.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np


class DomainError(ValueError):
    """Input outside the mathematical domain of an operation."""


_EQUALITY, _BOUND, _FLOOR = "equality", "bound", "floor"

# Each check name fixes its kind and its default tolerance: an equality check
# passes when abs(margin) <= tolerance, a one-sided bound when
# margin >= -tolerance, and a floor check when lhs > tolerance, the tolerance
# being the floor itself (its rhs is the floor and its margin lhs - floor).
# Tolerances are overridable with --tolerance NAME=VALUE or
# SuiteConfig(tolerances=...).  Algebraic identities are held to 1e-12,
# differential and oracle comparisons to 1e-8, one-sided margins to -1e-10.
CHECKS: dict[str, tuple[str, float]] = {
    # ball geometry
    "phi_fixed_point": (_EQUALITY, 1e-12),
    "phi_origin_value": (_EQUALITY, 1e-12),
    "phi_involution": (_EQUALITY, 1e-12),
    "phi_norm_identity": (_EQUALITY, 1e-12),
    "phi_boundary_preservation": (_EQUALITY, 1e-12),
    "quotient_domination": (_BOUND, 1e-12),
    "quotient_collinear_equality": (_EQUALITY, 1e-12),
    "dphi_finite_difference": (_EQUALITY, 1e-8),
    "opnorm_anchor": (_EQUALITY, 1e-8),
    "opnorm_global_bound": (_BOUND, 1e-8),
    "metric_plane_consistency": (_EQUALITY, 1e-12),
    "poincare_invariance": (_EQUALITY, 1e-12),
    "cayley_klein_radial": (_EQUALITY, 1e-12),
    # holomorphic disks
    "boundary_membership": (_BOUND, 1e-10),
    "growth_margin": (_BOUND, 1e-10),
    "growth_equality_affine": (_EQUALITY, 1e-10),
    "two_sided_upper": (_BOUND, 1e-10),
    "two_sided_lower": (_BOUND, 1e-10),
    "boundary_origin_margin": (_BOUND, 1e-10),
    "boundary_origin_equality": (_EQUALITY, 1e-10),
    "boundary_shifted_margin": (_BOUND, 1e-10),
    "shifted_equality_blaschke": (_EQUALITY, 1e-10),
    "schwarz_derivative": (_BOUND, 1e-10),
    "julia_margin": (_BOUND, 1e-10),
    "julia_equality": (_EQUALITY, 1e-10),
    "radial_estimate": (_EQUALITY, 1e-6),
    "extremal_family_values": (_EQUALITY, 1e-12),
    "strictness_margin": (_BOUND, 1e-10),
    "strictness_closed_form": (_EQUALITY, 1e-10),
    "affine_rigidity": (_EQUALITY, 1e-8),
    # minimal disks
    "null_condition": (_EQUALITY, 1e-12),
    "isothermal": (_EQUALITY, 1e-10),
    "antiderivative_quadrature": (_EQUALITY, 1e-10),
    "gauss_normal_unit": (_EQUALITY, 1e-12),
    "metric_audit_spread": (_EQUALITY, 1e-10),
    "lemma0_margin": (_BOUND, 1e-10),
    "lemma0_equality_planar": (_EQUALITY, 1e-10),
    "distance_decreasing": (_BOUND, 1e-10),
    "distance_equality_planar": (_EQUALITY, 1e-10),
    "boundary_minimal_margin": (_BOUND, 1e-10),
    "boundary_minimal_equality": (_EQUALITY, 1e-10),
    "halfsphere_chain": (_BOUND, 1e-8),
    # Conservative by construction: the factor 2(1 + r0)/(1 - r0) and the
    # segment length both overestimate, so its margin is no sharpness probe.
    "inverse_lipschitz": (_BOUND, 1e-8),
    # sharpness search
    "family_1d_best": (_EQUALITY, 1e-8),
    "family_1d_phase": (_EQUALITY, 1e-4),
    "family_1d_restricted_floor": (_FLOOR, 1e-4),
    "family_md_margin": (_BOUND, 1e-8),
}

class CheckValues(NamedTuple):
    """The unjudged values of one case of a check: its two sides and signed margin."""

    lhs: float
    rhs: float
    margin: float


def _judge(name: str, lhs, rhs, margin, tolerances: dict[str, float] | None):
    """Judge cases of the named check, elementwise: ``(rhs, margin, passed, badness, tolerance)``.

    A floor check's rhs is its tolerance and its margin ``lhs - tolerance``.
    With the tolerance fixed, a case fails exactly where its badness passes a
    threshold (``> tolerance``; ``>= 0`` for a floor check), and a NaN margin
    has badness +inf, so a check's first largest badness carries its verdict.
    """
    kind, tol = CHECKS[name]
    if tolerances and name in tolerances:
        tol = float(tolerances[name])
    if kind == _FLOOR:
        rhs, margin = tol, lhs - tol
    badness = abs(margin) if kind == _EQUALITY else -margin
    passed = badness < 0.0 if kind == _FLOOR else badness <= tol
    return rhs, margin, passed, np.where(badness == badness, badness, np.inf), tol


__all__ = [
    "CHECKS",
    "CheckValues",
    "DomainError",
]

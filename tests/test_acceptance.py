"""Acceptance gate: one test per contracted criterion, with pinned tolerances.

Each test prints exactly one ``ACCEPTANCE <name>: PASS|FAIL`` line (visible
with ``pytest -s`` and in failure output; the same verdicts are also written
to ``acceptance_report.txt``).  Runtime budgets are asserted where the
criterion pins one.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from diskcheck import (
    BallAutomorphism,
    Blaschke,
    Embed,
    Identity,
    Mul,
    SuiteConfig,
    boundary_bound_origin,
    boundary_bound_shifted,
    boundary_minimal_margin,
    distance_decreasing_margins,
    enneper_disk,
    extremal_family_1d,
    family_1d_spec,
    growth_margins,
    holo_corpus,
    julia_corpus,
    julia_margins,
    null_condition_report,
    planar_disk,
    restricted_family_1d_spec,
    run_suite,
    sharpness_report,
    surface_identities,
    translated_planar_disk,
    vnorm,
    weierstrass_corpus,
)
from diskcheck.search import _family_md_margins
from oracles import family_md_box

SEED = 0
_RESULTS: list[str] = []


def _criterion(name: str, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    _RESULTS.append(line)
    print(line)
    assert ok, line


@pytest.fixture(scope="session", autouse=True)
def _write_acceptance_report():
    yield
    with open("acceptance_report.txt", "w", encoding="utf-8") as fh:
        fh.write("\n".join(_RESULTS) + "\n")


def _rng(stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((SEED, stream)))


def _ball_points(rng: np.random.Generator, n: int, m: int, radius: float) -> np.ndarray:
    v = rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m))
    v /= np.linalg.norm(v, axis=1)[:, None]
    return radius * (rng.random(n) ** (1.0 / (2 * m)))[:, None] * v


def _disk_points(rng: np.random.Generator, n: int, rmax: float) -> np.ndarray:
    return rmax * np.sqrt(rng.random(n)) * np.exp(2j * np.pi * rng.random(n))


def test_criterion_01_automorphism_identities():
    """Point-map identities hold to 1e-12 on 1e4 random pairs per dimension."""
    start = time.perf_counter()
    tol = 1e-12
    worst = 0.0
    for m in (1, 2, 3, 5):
        rng = _rng(10 + m)
        for _ in range(1000):
            a = _ball_points(rng, 1, m, 0.95)[0]
            aut = BallAutomorphism(a)
            ws = _ball_points(rng, 10, m, 0.999)
            worst = max(worst, float(vnorm(aut.apply(a))))
            worst = max(worst, float(vnorm(aut.apply(np.zeros(m)) - a)))
            worst = max(worst, float(np.max(vnorm(aut.apply(aut.apply(ws)) - ws))))
            worst = max(worst, float(np.max(aut.norm_identity_residual(ws))))
            sphere = ws / vnorm(ws)[:, None]
            worst = max(worst, float(np.max(np.abs(vnorm(aut.apply(sphere)) - 1.0))))
    elapsed = time.perf_counter() - start
    _criterion(
        "automorphism_identities",
        worst <= tol and elapsed <= 10.0,
        f"worst residual {worst:.3e} <= {tol:.0e}, {elapsed:.1f}s <= 10s",
    )


def test_criterion_02_differential_norm_anchors():
    """Derivative-norm formula matches the SVD oracle at both anchor points."""
    rel_tol = 1e-8
    worst_rel = 0.0
    worst_sup = -math.inf
    for m in (1, 2, 3):
        rng = _rng(20 + m)
        for _ in range(1000):
            a = _ball_points(rng, 1, m, 0.9)[0]
            r = float(vnorm(a))
            if r < 1e-3:
                a = a * (0.5 / max(r, 1e-12))
                r = 0.5
            aut = BallAutomorphism(a)
            for w in (a, a / r):
                formula = float(aut.opnorm_formula(w))
                oracle = float(aut.opnorm_oracle(w))
                worst_rel = max(worst_rel, abs(formula - oracle) / oracle)
        # oracle never exceeds the closed-form global bound (1+r)/(1-r)
        for _ in range(50):
            a = _ball_points(rng, 1, m, 0.9)[0]
            aut = BallAutomorphism(a)
            ws = _ball_points(rng, 20, m, 0.999)
            excess = float(np.max(aut.opnorm_oracle(ws))) - aut.opnorm_global_bound()
            worst_sup = max(worst_sup, excess)
    _criterion(
        "differential_norm_anchors",
        worst_rel <= rel_tol and worst_sup <= 1e-8,
        f"anchor rel dev {worst_rel:.3e} <= 1e-08, sup excess {worst_sup:.3e} <= 1e-08",
    )


def test_criterion_03_interior_growth_bound():
    """Growth bound holds on 1e4 corpus maps x 1e3 points; affine equality."""
    start = time.perf_counter()
    per_dim = 3334
    min_margin = math.inf
    affine_dev = 0.0
    total = 0
    for m in (1, 2, 3):
        members = [c for c in holo_corpus(SEED, m, 4200) if c.zero_at_origin][:per_dim]
        assert len(members) == per_dim
        rng = _rng(30 + m)
        for member in members:
            zs = _disk_points(rng, 1000, 0.97)
            margins = growth_margins(member.disk, zs)[0]
            min_margin = min(min_margin, float(np.min(margins)))
            if member.growth_equality:
                affine_dev = max(affine_dev, float(np.max(np.abs(margins))))
            total += 1
    elapsed = time.perf_counter() - start
    _criterion(
        "interior_growth_bound",
        total == 3 * per_dim and min_margin >= -1e-10 and affine_dev <= 1e-10 and elapsed <= 60.0,
        f"{total} maps, min margin {min_margin:.3e} >= -1e-10, "
        f"equality dev {affine_dev:.3e} <= 1e-10, {elapsed:.1f}s <= 60s",
    )


def test_criterion_04_boundary_origin_bound():
    """Origin-fixing contact maps obey the boundary bound; archetypes are tight."""
    min_margin = math.inf
    checked = 0
    for m in (1, 2, 3):
        for member in holo_corpus(SEED, m, 400):
            if member.boundary_contact is None or not member.zero_at_origin:
                continue
            rep = boundary_bound_origin(member.disk, member.boundary_contact)
            min_margin = min(min_margin, rep.margin)
            checked += 1
    equality_dev = 0.0
    e1 = np.asarray([1.0, 0.0])
    tight = [Embed(Identity(), e1), Embed(Mul(Identity(), Identity()), e1)]
    tight += [Embed(extremal_family_1d(a), e1) for a in np.arange(0.0, 1.0, 0.1)]
    for f in tight:
        equality_dev = max(equality_dev, abs(boundary_bound_origin(f, 1.0).margin))
    _criterion(
        "boundary_origin_bound",
        checked >= 400 and min_margin >= -1e-10 and equality_dev <= 1e-10,
        f"{checked} contact maps, min margin {min_margin:.3e} >= -1e-10, "
        f"archetype dev {equality_dev:.3e} <= 1e-10",
    )


def test_criterion_05_boundary_shifted_bound():
    """Shifted bound: tight for scalar Blaschke factors, holds on the m=2 family."""
    rng = _rng(50)
    scalar_dev = 0.0
    for _ in range(100):
        c = 0.9 * math.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
        # each factor touches the bound at its own fixed point c/|c|
        zeta = c / abs(c)
        scalar_dev = max(scalar_dev, abs(boundary_bound_shifted(Blaschke(c), zeta).margin))
    half = boundary_bound_shifted(Blaschke(0.5), 1.0)
    pinned_ok = (
        abs(half.lhs - 1.0 / 3.0) <= 1e-12
        and abs(half.rhs - 1.0 / 3.0) <= 1e-12
        and abs(half.margin) <= 1e-12
    )
    lower, upper = family_md_box(2)
    sweep_rng = _rng(51)
    sweep_min = math.inf
    for _ in range(1000):
        params = lower + sweep_rng.random(lower.shape[0]) * (upper - lower)
        sweep_min = min(sweep_min, float(_family_md_margins(params[None, :], 2)[0]))
    _criterion(
        "boundary_shifted_bound",
        scalar_dev <= 1e-10 and pinned_ok and sweep_min >= -1e-8,
        f"scalar dev {scalar_dev:.3e} <= 1e-10, c=0.5 value=bound=1/3, "
        f"m=2 sweep min {sweep_min:.3e} >= -1e-08",
    )


def test_criterion_06_julia_quotient_bound():
    """Julia bound on 1e3 products x 1e2 points; single factors are exact."""
    rng = _rng(60)
    min_margin = math.inf
    single_dev = 0.0
    members = julia_corpus(SEED, 1000)
    assert len(members) == 1000
    for member in members:
        zs = _disk_points(rng, 100, 0.8)
        margins = julia_margins(member.disk, zs)
        min_margin = min(min_margin, float(np.min(margins)))
        if member.factors == 1:
            single_dev = max(single_dev, float(np.max(np.abs(margins))))
    _criterion(
        "julia_quotient_bound",
        min_margin >= -1e-10 and single_dev <= 1e-10,
        f"min margin {min_margin:.3e} >= -1e-10, single-factor dev {single_dev:.3e} <= 1e-10",
    )


def test_criterion_07_weierstrass_structure():
    """Null condition to 1e-12 and isothermal identities to 1e-10 per surface."""
    rng = _rng(70)
    null_worst = 0.0
    iso_worst = 0.0
    surfaces = weierstrass_corpus(SEED, 24)
    for member in surfaces:
        null_worst = max(null_worst, null_condition_report(member.surface).margin)
        zs = _disk_points(rng, 1000, 0.98)
        iso_worst = max(iso_worst, surface_identities(member.surface, zs)[0])
    _criterion(
        "weierstrass_structure",
        null_worst <= 1e-12 and iso_worst <= 1e-10,
        f"{len(surfaces)} surfaces, null residual {null_worst:.3e} <= 1e-12, "
        f"isothermal dev {iso_worst:.3e} <= 1e-10",
    )


def test_criterion_08_metric_convention_audit():
    """The metric/data ratio is one constant across all surfaces and points.

    The constant itself is reported, not asserted; only its spread is gated.
    """
    rng = _rng(80)
    ratios = []
    for member in weierstrass_corpus(SEED, 24):
        r = surface_identities(member.surface, _disk_points(rng, 200, 0.95))[3]
        ratios.append(r[np.isfinite(r)])
    allr = np.concatenate(ratios)
    mean = float(np.mean(allr))
    spread = float((np.max(allr) - np.min(allr)) / mean)
    _criterion(
        "metric_convention_audit",
        spread <= 1e-10,
        f"audited constant {mean:.12f} (reported, not asserted), relative spread {spread:.3e} <= 1e-10",
    )


def test_criterion_09_distance_decreasing():
    """Images contract the hyperbolic metric on 1e4 pairs per corpus surface."""
    rng = _rng(90)
    min_margin = math.inf
    for member in weierstrass_corpus(SEED, 24):
        zs = _disk_points(rng, 10_000, 0.95)
        ws = _disk_points(rng, 10_000, 0.95)
        margins = distance_decreasing_margins(member.surface, zs, ws)
        min_margin = min(min_margin, float(np.min(margins)))

    flat = planar_disk()
    anchored = distance_decreasing_margins(
        flat, _disk_points(rng, 5000, 0.95), np.zeros(5000, dtype=complex)
    )
    u = np.exp(2j * np.pi * rng.random(5000))
    s = 0.95 * (2.0 * rng.random(5000) - 1.0)
    t = 0.95 * (2.0 * rng.random(5000) - 1.0)
    diameter = distance_decreasing_margins(flat, s * u, t * u)
    planar_dev = max(float(np.max(np.abs(anchored))), float(np.max(np.abs(diameter))))

    zs = _disk_points(rng, 10_000, 0.95)
    ws = _disk_points(rng, 10_000, 0.95)
    enneper_min = float(np.min(distance_decreasing_margins(enneper_disk(), zs, ws)))
    _criterion(
        "distance_decreasing",
        min_margin >= -1e-10 and planar_dev <= 1e-10 and enneper_min > 0.0,
        f"corpus min margin {min_margin:.3e} >= -1e-10, flat-disk dev {planar_dev:.3e} <= 1e-10, "
        f"enneper min {enneper_min:.3e} > 0",
    )


def test_criterion_10_boundary_minimal_bound():
    """Radial boundary derivative bound: tight for the flat disk, safe translated."""
    flat_dev = 0.0
    for k in range(32):
        zeta = complex(np.exp(2j * np.pi * k / 32))
        flat_dev = max(flat_dev, abs(boundary_minimal_margin(planar_disk(), zeta).margin))
    translated_min = math.inf
    for t in np.arange(0.1, 0.9, 0.1):
        rep = boundary_minimal_margin(translated_planar_disk(float(t)), 1.0)
        translated_min = min(translated_min, rep.margin)
        for k in range(8):
            zeta = complex(np.exp(2j * np.pi * k / 8))
            rep = boundary_minimal_margin(translated_planar_disk(float(t), orthogonal=True), zeta)
            translated_min = min(translated_min, rep.margin)
    _criterion(
        "boundary_minimal_bound",
        flat_dev <= 1e-10 and translated_min >= -1e-10,
        f"flat-disk dev {flat_dev:.3e} <= 1e-10, translated min margin {translated_min:.3e} >= -1e-10",
    )


def test_criterion_11_sharpness_search():
    """Search drives the full family to zero margin; the restricted box cannot."""
    start = time.perf_counter()
    full = sharpness_report(family_1d_spec(), restarts=20, seed=SEED)
    restricted = sharpness_report(restricted_family_1d_spec(), restarts=20, seed=SEED)
    elapsed = time.perf_counter() - start
    # The distance to the zero ray within [-pi, pi]; at phase = +-pi the margin is largest.
    phase_dev = abs(full["argmin"][1])
    _criterion(
        "sharpness_search",
        full["best_margin"] <= 1e-8
        and phase_dev <= 1e-4
        and restricted["best_margin"] > 1e-4
        and elapsed <= 120.0,
        f"full best {full['best_margin']:.3e} <= 1e-08 with |phase| {phase_dev:.3e} <= 1e-04, "
        f"restricted best {restricted['best_margin']:.3e} > 1e-04, {elapsed:.1f}s <= 120s",
    )


def test_criterion_12_deterministic_reports():
    """Identical configurations serialize to byte-identical JSON reports."""
    cfg = dict(seed=SEED, samples=25, search_restarts=3)
    first = run_suite(SuiteConfig(**cfg))
    second = run_suite(SuiteConfig(**cfg))
    a, b = first.json_text(), second.json_text()
    _criterion(
        "deterministic_reports",
        a == b and first.passed and second.passed,
        f"two runs, {len(a)} bytes each, byte-identical={a == b}, passed={first.passed}",
    )

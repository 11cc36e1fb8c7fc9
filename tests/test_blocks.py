"""Bulk checks run over point blocks, bit for bit.

A sampled check over N points runs as ``harness._blocked`` calls on blocks of
at most ``corpus._POINT_BLOCK`` points, so its temporaries scale with the
block rather than with N.  Each block's values must be those of one call over
all N points, exactly; a block of one point would break that, since numpy
rounds one-element complex products without FMA.
"""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from diskcheck import corpus, harness, holo_corpus, weierstrass_corpus
from diskcheck.harness import SuiteConfig, run_suite
from diskcheck.holodisk import growth_margins
from diskcheck.weierstrass import distance_decreasing_margins, surface_identities

BLOCKED = 2 * corpus._POINT_BLOCK + 1


def rng_for(seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((1357, seed)))


class TestPointBlocks:
    @pytest.mark.parametrize("block", [3, 4, 5, 7, 16])
    def test_slices_are_near_equal_and_never_hold_one_point(self, monkeypatch, block):
        monkeypatch.setattr(corpus, "_POINT_BLOCK", block)
        for n in range(300):
            slices = corpus._point_slices(n)
            sizes = [s.stop - s.start for s in slices]
            assert slices[0].start == 0 and slices[-1].stop == n
            assert all(a.stop == b.start for a, b in zip(slices, slices[1:]))
            assert len(slices) == max(1, -(-n // block))
            assert max(sizes) <= block and max(sizes) - min(sizes) <= 1
            assert n < 2 or min(sizes) >= 2, (n, sizes)

    def test_slices_at_the_block_size(self):
        b = corpus._POINT_BLOCK
        for n in (2, 3, b - 1, b, b + 1, b + 2, 2 * b - 1, 2 * b, BLOCKED, 3 * b + 1, 50000):
            sizes = [s.stop - s.start for s in corpus._point_slices(n)]
            assert sum(sizes) == n and max(sizes) <= b and min(sizes) >= 2
        assert len(corpus._point_slices(BLOCKED)) == 3

    def test_circle_points_over_blocks_equal_per_point_calls(self, monkeypatch):
        rng = rng_for(2)
        radii, turns = rng.random((2, 101))
        monkeypatch.setattr(corpus, "_POINT_BLOCK", 5)
        for r in (radii, 1.0):
            z = corpus._on_circle(r, turns)
            one = [corpus._on_circle(r if np.ndim(r) == 0 else r[i : i + 1], turns[i : i + 1])[0] for i in range(101)]
            assert np.array_equal(z.view(float), np.asarray(one).view(float))

    def test_circle_points_at_the_block_size_equal_per_point_calls(self):
        rng = rng_for(3)
        radii, turns = rng.random((2, BLOCKED))
        z = corpus._on_circle(radii, turns)
        edges = [s.start for s in corpus._point_slices(BLOCKED)[1:]]
        picks = sorted({*rng.integers(0, BLOCKED, 300).tolist(), 0, BLOCKED - 1, *edges, *(e - 1 for e in edges)})
        one = [corpus._on_circle(radii[i : i + 1], turns[i : i + 1])[0] for i in picks]
        assert np.array_equal(z[picks].view(float), np.asarray(one).view(float))


def assert_blocked_equals_one_call(check, target, *points) -> None:
    blocked, whole = harness._blocked(check, target, *points), check(target, *points)
    if isinstance(whole, np.ndarray):
        blocked, whole = (blocked,), (whole,)
    assert len(blocked) == len(whole)
    for value, reference in zip(blocked, whole):
        if isinstance(reference, np.ndarray):
            assert value.shape == reference.shape
            assert np.array_equal(value.view(np.uint64), reference.view(np.uint64))
        else:
            assert type(value) is float
            assert value == reference or (math.isnan(value) and math.isnan(reference))


class TestBlockedChecks:
    @pytest.mark.parametrize("m", [1, 3, 8])
    def test_growth_margins(self, m):
        rng = rng_for(10 + m)
        for member in holo_corpus(0, m, 15):
            if member.zero_at_origin:
                assert_blocked_equals_one_call(growth_margins, member.disk, corpus._disk_points(rng, BLOCKED))

    def test_surface_identities(self):
        rng = rng_for(20)
        for member in weierstrass_corpus(0, 12):
            zs = corpus._disk_points(rng, BLOCKED)
            zs[corpus._POINT_BLOCK + 7] = 0j  # a NaN polar direction and ratio in the middle block
            assert_blocked_equals_one_call(surface_identities, member.surface, zs)

    def test_distance_decreasing_pairs_anchored_and_diameters(self):
        rng = rng_for(21)
        for member in weierstrass_corpus(0, 10):
            w = member.surface
            pair_a = corpus._disk_points(rng, BLOCKED, rmin=0.0)
            pair_b = corpus._disk_points(rng, BLOCKED, rmin=0.0)
            assert_blocked_equals_one_call(distance_decreasing_margins, w, pair_a, pair_b)
            assert_blocked_equals_one_call(distance_decreasing_margins, w, pair_a, np.zeros_like(pair_a))
            direction = corpus._on_circle(1.0, rng.random(BLOCKED))
            s, t = -0.95 + 1.9 * rng.random((2, BLOCKED))
            assert_blocked_equals_one_call(distance_decreasing_margins, w, s * direction, t * direction)

    def test_growth_margins_peak_memory_does_not_grow_with_blocks(self):
        (member,) = [m for m in holo_corpus(0, 8, 10) if m.name == "poly-9"]
        b = corpus._POINT_BLOCK

        def peak(n: int) -> int:
            zs = corpus._disk_points(rng_for(22), n)
            tracemalloc.start()
            try:
                harness._blocked(growth_margins, member.disk, zs)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(4 * b) <= 1.5 * peak(b)


def test_streamed_metric_audit_pools_every_surface(monkeypatch):
    """The audit's mean and spread are those of every surface's finite ratios, pooled."""
    seen = []

    def distinct_ratios(w, zs):
        iso, gdev, orth, _ = surface_identities(w, zs)
        ratios = 2.0 + zs.real
        ratios[::7] = math.nan
        seen.append(ratios)
        return iso, gdev, orth, ratios

    monkeypatch.setattr(harness, "surface_identities", distinct_ratios)
    report = run_suite(SuiteConfig(seed=4, suites=("minimal",), samples=300)).suites["minimal"]
    pooled = np.concatenate(seen)
    pooled = pooled[np.isfinite(pooled)]
    mean = report["findings"]["audited_metric_constant"]
    assert len(seen) == 24
    assert mean == pytest.approx(math.fsum(pooled) / pooled.size, rel=1e-15)
    spread = report["checks"]["metric_audit_spread"]["worst_margin"]
    assert spread == pytest.approx((float(np.max(pooled)) - float(np.min(pooled))) / mean, rel=1e-15)

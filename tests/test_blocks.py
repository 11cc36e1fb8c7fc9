"""Sampled sweeps run over point blocks, bit for bit.

A sampled sweep over N points draws, places and checks them one block at a
time, and folds each block's values as it goes: blocks hold at most
``holodisk._POINT_BLOCK`` point x component elements, so no array scales with
N.  Each block's uniforms must be those of one plain draw of all N, and each
block's values those of one call over all N points, exactly, for blocks of
any size, one point included.
"""

from __future__ import annotations

import json
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from diskcheck import Poly, Vec, corpus, harness, holo_corpus, holodisk, vnorm, weierstrass_corpus
from diskcheck.harness import SuiteConfig, run_suite, write_report
from diskcheck.holodisk import growth_margins, growth_sweep
from diskcheck.weierstrass import (
    WeierstrassDisk,
    distance_decreasing_margins,
    halfsphere_chain_check,
    surface_identities,
)

BLOCKED = 2 * holodisk._POINT_BLOCK + 1


def rng_for(seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((1357, seed)))


def bits(z) -> np.ndarray:
    return np.ascontiguousarray(z).view(np.uint64)


class TestPointBlocks:
    @pytest.mark.parametrize("block", [1, 2, 3, 4, 5, 7, 16])
    def test_slices_are_near_equal(self, monkeypatch, block):
        monkeypatch.setattr(holodisk, "_POINT_BLOCK", block)
        for n in range(300):
            slices = holodisk._point_slices(n)
            sizes = [s.stop - s.start for s in slices]
            assert slices[0].start == 0 and slices[-1].stop == n
            assert all(a.stop == b.start for a, b in zip(slices, slices[1:]))
            assert len(slices) == max(1, -(-n // block))
            assert max(sizes) <= block and max(sizes) - min(sizes) <= 1

    @pytest.mark.parametrize("width", [1, 2, 3, 5, 8, 5000, 40000])
    def test_slices_by_elements_are_nonempty_and_within_the_budget(self, width):
        b = holodisk._POINT_BLOCK
        for n in (*range(40), 2047, 2048, 2049, 6000, b, BLOCKED, 32767, 50000):
            sizes = [s.stop - s.start for s in holodisk._point_slices(n, width)]
            assert sum(sizes) == n and max(sizes) - min(sizes) <= 1
            assert n == 0 or min(sizes) >= 1, (n, width, sizes)
            # A point wider than the budget is a slice of its own.
            assert max(sizes) * width <= b or max(sizes) == 1, (n, width, sizes)

    def test_slices_at_the_block_size(self):
        b = holodisk._POINT_BLOCK
        for n in (2, 3, b - 1, b, b + 1, b + 2, 2 * b - 1, 2 * b, BLOCKED, 3 * b + 1, 50000):
            sizes = [s.stop - s.start for s in holodisk._point_slices(n)]
            assert sum(sizes) == n and max(sizes) <= b and min(sizes) >= 2
        assert len(holodisk._point_slices(BLOCKED)) == 3
        assert len(holodisk._point_slices(50000, 8)) == 25

    def test_circle_points_equal_per_point_calls(self):
        rng = rng_for(2)
        radii, turns = rng.random((2, 101))
        for r in (radii, 1.0):
            z = corpus._on_circle(r, turns)
            one = [corpus._on_circle(r if np.ndim(r) == 0 else r[i : i + 1], turns[i : i + 1])[0] for i in range(101)]
            assert np.array_equal(z.view(float), np.asarray(one).view(float))

    def test_circle_points_at_the_block_size_equal_per_point_calls(self):
        rng = rng_for(3)
        radii, turns = rng.random((2, BLOCKED))
        z = corpus._on_circle(radii, turns)
        edges = [s.start for s in holodisk._point_slices(BLOCKED)[1:]]
        picks = sorted({*rng.integers(0, BLOCKED, 300).tolist(), 0, BLOCKED - 1, *edges, *(e - 1 for e in edges)})
        one = [corpus._on_circle(radii[i : i + 1], turns[i : i + 1])[0] for i in picks]
        assert np.array_equal(z[picks].view(float), np.asarray(one).view(float))


class TestBlockDraw:
    """``_BlockDraw`` over any split into consecutive blocks is one plain draw, and leaves the stream as it leaves it."""

    @staticmethod
    def block_sizes(n: int) -> list:
        """One block, three, and blocks of 1, 2, 7 and about n / 1000 points, where that is at most 2000 blocks."""
        return sorted(b for b in {1, 2, 7, n // 1000 + 1, n // 3 + 1, n} if -(-n // b) <= 2000)

    @staticmethod
    def draws(n: int) -> tuple:
        """Two generators at one state, with a spare 32-bit half held, as a draw may find them."""
        plain, split = rng_for(n), rng_for(n)
        plain.integers(0, 5), split.integers(0, 5)
        assert plain.bit_generator.state["has_uint32"] == 1
        return plain, split

    @pytest.mark.parametrize("rows", [2, 3, 4])
    @pytest.mark.parametrize("n", [1, 2, 3, 17, 1000, 40001])
    def test_any_split_gives_the_plain_draw(self, monkeypatch, n, rows):
        for block in self.block_sizes(n):
            monkeypatch.setattr(holodisk, "_POINT_BLOCK", block)
            plain, split = self.draws(n)
            whole = plain.random((n, rows)).T
            parts = list(corpus._BlockDraw(split, n, rows=rows))
            assert [part.shape for part in parts] == [(rows, s.stop - s.start) for s in holodisk._point_slices(n)]
            assert np.array_equal(bits(np.concatenate(parts, axis=1)), bits(whole))
            assert split.bit_generator.state == plain.bit_generator.state

    @pytest.mark.parametrize("rmin, rmax", [(0.02, 0.97), (0.0, 0.95), (0.0, 0.8), (0.1, 0.9)])
    @pytest.mark.parametrize("rows", [2, 4])
    @pytest.mark.parametrize("n", [1, 2, 3, 17, 1000, 40001])
    def test_any_split_gives_the_disk_points(self, monkeypatch, n, rows, rmin, rmax):
        for block in self.block_sizes(n):
            monkeypatch.setattr(holodisk, "_POINT_BLOCK", block)
            plain, split = self.draws(n)
            # Point j of row k is point (rows / 2) j + k of one draw of all the points.
            whole = corpus._disk_points(plain, n * rows // 2, rmin, rmax).reshape(n, rows // 2).T
            draw = corpus._BlockDraw(split, n, rows=rows, disk=(rmin, rmax))
            assert draw.shape == (n,)
            placed = np.concatenate(list(draw), axis=-1)
            assert np.array_equal(bits(placed), bits(whole[0] if rows == 2 else whole))
            assert split.bit_generator.state == plain.bit_generator.state

    @pytest.mark.parametrize("rows, disk", [(2, None), (3, None), (2, (0.02, 0.97)), (4, (0.0, 0.97))])
    def test_a_dropped_block_is_freed_before_the_next_draw(self, monkeypatch, rows, disk):
        """The iterator names no block it yielded: one the caller drops is gone when the next is drawn."""
        monkeypatch.setattr(holodisk, "_POINT_BLOCK", 64)
        refs, rng = [], rng_for(rows)

        class Watched:
            def random(self, shape):
                assert all(ref() is None for ref in refs)
                return rng.random(shape)

        def owner(block):
            while block.base is not None:
                block = block.base
            return block

        blocks = iter(corpus._BlockDraw(Watched(), 1000, rows=rows, disk=disk))
        for _ in holodisk._point_slices(1000):
            refs.append(weakref.ref(owner(next(blocks))))
        assert next(blocks, None) is None and len(refs) == 16

    def test_blocks_follow_the_width(self):
        for width in (1, 3, 8):
            draw = corpus._BlockDraw(rng_for(width), BLOCKED, width, disk=(0.02, 0.97))
            assert [len(z) for z in draw] == [s.stop - s.start for s in holodisk._point_slices(BLOCKED, width)]


def traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def one_block(monkeypatch) -> None:
    """Run every sweep as one call over all of its points."""
    monkeypatch.setattr(holodisk, "_POINT_BLOCK", 1 << 40)


def sweep(check, target, *draws) -> list:
    """``check`` over each block of ``draws``, placed block by block, as the minimal suite runs it."""
    return [check(target, *(d[block] for d in draws)) for block in holodisk._point_slices(len(draws[0]), 3)]


def swept_growth(disks, zs) -> list:
    """``growth_sweep`` over the blocks of ``zs``: per map, each block's points and three margin rows."""
    blocks = [[] for _ in disks]
    assert growth_sweep(disks, zs, lambda k, z, *rows: blocks[k].append((z, np.stack(rows)))) is None
    return blocks


class TestStreamedChecks:
    @pytest.mark.parametrize("m", [1, 3, 8])
    def test_growth_margins(self, monkeypatch, m):
        """One sweep gives every map the margins of one call over all the points, block by block."""
        whole_z = corpus._disk_points(rng_for(10 + m), BLOCKED)
        disks = [member.disk for member in holo_corpus(0, m, 15) if member.zero_at_origin]
        draw = corpus._BlockDraw(rng_for(10 + m), BLOCKED, m, disk=(0.02, 0.97))
        for disk, streamed in zip(disks, swept_growth(disks, draw)):
            assert len(streamed) == len(holodisk._point_slices(BLOCKED, m))
            blocked = growth_margins(disk, whole_z)
            with monkeypatch.context() as patch:
                one_block(patch)
                whole = growth_margins(disk, whole_z)
            assert np.array_equal(bits(np.concatenate([z for z, _ in streamed])), bits(whole_z))
            assert np.array_equal(bits(np.concatenate([rows for _, rows in streamed], axis=1)), bits(np.stack(whole)))
            assert np.array_equal(bits(np.stack(blocked)), bits(np.stack(whole)))

    def test_surface_identities(self, monkeypatch):
        rng = rng_for(20)
        for member in weierstrass_corpus(0, 12):
            draw = corpus._disk_points(rng, BLOCKED)
            draw[holodisk._POINT_BLOCK + 7] = 0.0  # z = 0: a NaN polar direction and ratio mid-sweep
            parts = sweep(surface_identities, member.surface, draw)
            whole = surface_identities(member.surface, draw[:])
            for k in range(3):
                assert float(np.max([part[k] for part in parts])) == whole[k]
            assert np.array_equal(bits(np.concatenate([part[3] for part in parts])), bits(whole[3]))

    def test_distance_decreasing_pairs_anchored_and_diameters(self):
        rng = rng_for(21)
        for member in weierstrass_corpus(0, 10):
            w = member.surface
            # Each pair's two points one after the other, as the suite draws them.
            pair_a, pair_b = corpus._disk_points(rng, 2 * BLOCKED, rmin=0.0).reshape(BLOCKED, 2).T
            whole_a = pair_a[:]
            streamed = np.concatenate(sweep(distance_decreasing_margins, w, pair_a, pair_b))
            assert np.array_equal(bits(streamed), bits(distance_decreasing_margins(w, whole_a, pair_b[:])))
            anchored = []
            for block in holodisk._point_slices(BLOCKED, 3):
                a = pair_a[block]
                anchored.append(distance_decreasing_margins(w, a, np.zeros_like(a)))
            whole = distance_decreasing_margins(w, whole_a, np.zeros_like(whole_a))
            assert np.array_equal(bits(np.concatenate(anchored)), bits(whole))
            turns, s, t = rng.random((BLOCKED, 3)).T
            diameters = []
            for block in holodisk._point_slices(BLOCKED, 3):
                direction = corpus._on_circle(1.0, turns[block])
                ends = (-0.95 + 1.9 * s[block]) * direction, (-0.95 + 1.9 * t[block]) * direction
                diameters.append(distance_decreasing_margins(w, *ends))
            direction = corpus._on_circle(1.0, turns)
            whole = distance_decreasing_margins(w, (-0.95 + 1.9 * s) * direction, (-0.95 + 1.9 * t) * direction)
            assert np.array_equal(bits(np.concatenate(diameters)), bits(whole))

    def test_folded_growth_margins_peak_memory_does_not_grow_with_blocks(self):
        """Drawn, placed, checked and folded per block, a sweep of 4 blocks peaks as one of 1 block does."""
        (member,) = [m for m in holo_corpus(0, 8, 10) if m.name == "poly-9"]
        b = holodisk._POINT_BLOCK

        def peak(n: int) -> int:
            draw = corpus._BlockDraw(rng_for(22), n, 8, disk=(0.02, 0.97))
            return traced_peak(lambda: growth_sweep([member.disk] * 3, draw, lambda k, z, *rows: None))

        assert peak(4 * b) <= 1.1 * peak(b)

    def test_growth_margins_walks_the_origin_jet_once_per_call(self, monkeypatch):
        """One walk at 0 per call of ``growth_margins``, and one per map in a sweep; one per point block after it."""
        walks = []
        norm_jet = holodisk._norm_jet
        monkeypatch.setattr(holodisk, "_norm_jet", lambda f, points: walks.append((f, list(points))) or norm_jet(f, points))
        disks = [member.disk for member in holo_corpus(0, 8, 10) if member.zero_at_origin]
        evals = {id(disk): [] for disk in disks}
        for disk in disks:
            monkeypatch.setattr(disk, "_eval", lambda z, walk=disk._eval, seen=evals[id(disk)]: seen.append(len(z)) or walk(z))
        blocks = len(holodisk._point_slices(BLOCKED, 8))
        for disk in disks:
            growth_margins(disk, corpus._disk_points(rng_for(23), BLOCKED))
            assert walks == [(disk, [0j])]
            assert len(evals[id(disk)]) == blocks and sum(evals[id(disk)]) == BLOCKED
            walks.clear()
            evals[id(disk)].clear()
        swept_growth(disks, corpus._BlockDraw(rng_for(23), BLOCKED, 8, disk=(0.02, 0.97)))
        assert walks == [(disk, [0j]) for disk in disks]
        assert all(len(seen) == blocks and sum(seen) == BLOCKED for seen in evals.values())


# Sampled checks made to fail, so that each one's worst instance is also listed as a failure.
FAILING = {"growth_margin": -10.0, "two_sided_upper": -10.0, "two_sided_lower": -10.0, "distance_decreasing": -10.0}


class TestStreamedSuites:
    """A suite's report does not depend on how its sweeps are blocked, instance text included."""

    @staticmethod
    def report(**kwargs) -> str:
        return run_suite(SuiteConfig(suites=("holo", "minimal"), tolerances=FAILING, **kwargs)).json_text()

    def test_at_the_block_size(self, monkeypatch):
        config = {"dimensions": (1, 8), "samples": BLOCKED, "seed": 5}
        streamed = self.report(**config)
        one_block(monkeypatch)
        assert streamed == self.report(**config)

    def test_with_a_small_block(self, monkeypatch):
        # Planar surfaces take the anchored and diameter sweeps; blocks of 1 and 2 points at m = 8.
        config = {"dimensions": (1, 8), "samples": 301, "seed": 2}
        with monkeypatch.context() as patch:
            patch.setattr(holodisk, "_POINT_BLOCK", 16)
            streamed = self.report(**config)
        one_block(monkeypatch)
        whole = self.report(**config)
        assert streamed == whole and '"failures": []' not in whole


def held_minima(monkeypatch) -> dict:
    """Every sampled minimum as the suites record it, keyed by (check, member): its margin and point."""
    held, sampled = {}, harness._SuiteAccumulator.sampled

    def spy(self, name, member, describe):
        held[name, member] = self.minima[name, member]
        sampled(self, name, member, describe)

    monkeypatch.setattr(harness._SuiteAccumulator, "sampled", spy)
    return held


def counted_draws(monkeypatch) -> list:
    """Each of the suites' point draws as [rows, disk, blocks yielded], in the order they are made."""
    draws = []

    class Counted(corpus._BlockDraw):
        def __iter__(self):
            draws.append(record := [self.rows, self.disk, 0])
            for block in super().__iter__():
                record[2] += 1
                yield block

    monkeypatch.setattr(harness, "_BlockDraw", Counted)
    return draws


class TestSharedSweeps:
    """Each sampled sweep is drawn once, and every member is checked on a block before the next is drawn."""

    @pytest.mark.parametrize("m", [1, 8])
    def test_every_member_gets_its_member_major_margins(self, monkeypatch, m):
        """Minima, their points, the growth equality and the lower-bound finding are those of one call per member."""
        monkeypatch.setattr(holodisk, "_POINT_BLOCK", 64)
        held = held_minima(monkeypatch)
        config = SuiteConfig(suites=("holo",), dimensions=(m,), samples=301, seed=3,
                             tolerances={"growth_equality_affine": -10.0})
        suite = run_suite(config).suites["holo"]
        widest = {f["instance"]: f["lhs"] for f in suite["failures"] if f["name"] == "growth_equality_affine"}
        points = corpus._disk_points(corpus.case_rng(3, harness.HOLO_POINT_STREAM + m, 0), 301, 0.02, 0.97)
        lowest = math.inf
        members = [member for member in holo_corpus(3, m, 60) if member.zero_at_origin]
        for member in members:
            growth, upper, lower = growth_margins(member.disk, points)
            rows = {"growth_margin": growth, "two_sided_upper": upper}
            if m == 1:
                rows["two_sided_lower"] = lower
            else:
                lowest = min(lowest, float(np.min(lower)))
            for name, row in rows.items():
                i = int(np.argmin(row))
                margin, point = held.pop((name, member.name))
                assert (repr(float(margin)), repr(complex(point))) == (repr(float(row[i])), repr(complex(points[i])))
            if member.growth_equality:
                assert widest.pop(f"m={m} {member.name}") == float(np.max(np.abs(growth)))
        assert widest == {} and {name for name, _ in held} == {"julia_margin"}
        assert m == 1 or suite["findings"]["two_sided_lower_min_margin_md"] == lowest
        assert len(members) > 40

    def test_a_disk_bulk_holo_run_places_46_growth_blocks(self, monkeypatch):
        """One sweep per dimension: 4 + 7 + 10 + 25 blocks, where one sweep per member placed 49 times as many."""
        draws = counted_draws(monkeypatch)
        run_suite(SuiteConfig(suites=("holo",), dimensions=(1, 2, 3, 8), samples=50000))
        assert draws == [[2, (0.02, 0.97), blocks] for blocks in (4, 7, 10, 25)]

    @pytest.mark.parametrize("samples", [80, 20000])
    def test_each_minimal_sweep_places_its_blocks_once(self, monkeypatch, samples):
        """The identity, pair and diameter sweeps are each drawn once, whatever the number of surfaces."""
        draws = counted_draws(monkeypatch)
        run_suite(SuiteConfig(suites=("minimal",), samples=samples))
        blocks = len(holodisk._point_slices(samples, 3))
        assert draws == [[2, (0.02, 0.97), blocks], [4, (0.0, 0.97), blocks], [3, None, blocks]]

    def test_held_points_own_their_data(self, monkeypatch):
        """A minimum keeps a copy of its point, not a view that would keep its block alive."""
        monkeypatch.setattr(holodisk, "_POINT_BLOCK", 64)
        held = held_minima(monkeypatch)
        run_suite(SuiteConfig(suites=("holo", "minimal"), dimensions=(1, 8), samples=301))
        assert {name for name, _ in held} == {"growth_margin", "two_sided_upper", "two_sided_lower", "julia_margin",
                                              "distance_decreasing"}
        assert all(point.base is None for _, point in held.values())
        assert all(point.shape == (2,) for (name, _), (_, point) in held.items() if name == "distance_decreasing")


@pytest.mark.parametrize("suite", ["holo", "minimal"])
def test_traced_peak_grows_at_most_2_bytes_per_sample(suite):
    """No array of a sampled suite grows with the sample count.

    Both sample counts are multiples of the widest sweep's slice, the
    minimal suite's ``_POINT_BLOCK // 3`` points, so every sweep's blocks
    have the same sizes in both runs: the holo suite's one-wide sweeps take
    1 and 2 blocks, each of every point, and the minimal suite's 3 and 6
    equal blocks.  A first run fills the caches that would otherwise count
    in the first traced peak only.
    """
    run_suite(SuiteConfig(suites=(suite,), dimensions=(1, 8), samples=300))

    def peak(samples: int) -> int:
        return traced_peak(lambda: run_suite(SuiteConfig(suites=(suite,), dimensions=(1, 8), samples=samples)))

    low = 3 * (holodisk._POINT_BLOCK // 3)
    high = 2 * low
    assert (peak(high) - peak(low)) / (high - low) <= 2.0


# Ball tolerances under which phi_involution and phi_fixed_point fail in most cases.
FAILING_BALL = {"phi_involution": 1e-300, "phi_fixed_point": 1e-300}


class TestBallCaseBlocks:
    """The ball suite checks its cases a block at a time; its report does not depend on the blocks."""

    @staticmethod
    def report(samples: int) -> str:
        return run_suite(SuiteConfig(suites=("ball",), dimensions=(2, 8), samples=samples,
                                     tolerances=FAILING_BALL)).json_text()

    def test_several_blocks_give_the_one_block_report(self, monkeypatch):
        # At m = 8 a block holds _POINT_BLOCK // 256 = 64 cases: 300 cases are 5 blocks.
        assert len(holodisk._point_slices(300, 4 * 8 * 8)) == 5
        streamed = self.report(300)
        one_block(monkeypatch)
        whole = self.report(300)
        assert streamed == whole
        failures = json.loads(whole)["suites"]["ball"]["failures"]
        failing_cases = {int(f["instance"].rsplit("=", 1)[1]) for f in failures if f["instance"].startswith("m=8 ")}
        assert min(failing_cases) < 64 and max(failing_cases) >= 4 * 64

    def test_one_case_blocks_give_the_one_block_report(self, monkeypatch):
        with monkeypatch.context() as patch:
            patch.setattr(holodisk, "_POINT_BLOCK", 16)
            streamed = self.report(7)
        one_block(monkeypatch)
        assert streamed == self.report(7)

    @pytest.mark.parametrize("m", [1, 8])
    def test_a_case_does_not_depend_on_the_sample_count(self, monkeypatch, m):
        """The first 50 of 130 cases are the 50 cases of a 50-sample run, from two streams per dimension.

        At m = 8, 130 cases take three blocks of at most 64, and 50 cases one.
        """
        names = run_suite(SuiteConfig(suites=("ball",), dimensions=(m,), samples=1)).suites["ball"]["checks"]
        opened, case_rng = [], corpus.case_rng

        def counted(seed, stream, index):
            opened.append((stream, index))
            return case_rng(seed, stream, index)

        monkeypatch.setattr(corpus, "case_rng", counted)
        monkeypatch.setattr(harness, "case_rng", counted)

        def listed(samples: int) -> dict:
            # Tolerance -1 fails every case of the equality checks and the quotient bound.
            config = SuiteConfig(suites=("ball",), dimensions=(m,), samples=samples,
                                 tolerances=dict.fromkeys(names, -1.0))
            failures = run_suite(config).suites["ball"]["failures"]
            assert opened == [(harness.BALL_POINT_STREAM + m, 0), (harness.BALL_POINT_STREAM + m, 1)]
            opened.clear()
            return {(f["name"], f["instance"]): f["lhs"].hex() for f in failures
                    if int(f["instance"].rsplit("=", 1)[1]) < 50}

        first = listed(50)
        assert len(first) >= 12 * 50
        assert listed(130) == first

    def test_traced_peak_grows_at_most_2_kb_per_case(self):
        """At m = 8 the stacked operator-norm arrays stay one block; only the draws and records grow."""
        config = lambda samples: SuiteConfig(suites=("ball",), dimensions=(8,), samples=samples)
        run_suite(config(64))
        # 8 and 16 blocks of 64 cases each.
        low, high = (traced_peak(lambda n=n: run_suite(config(n))) for n in (512, 1024))
        assert (high - low) / 512 <= 2048.0


class TestKernelMemory:
    """Each bulk kernel holds one block-sized array per intermediate, in a block below numpy's 256 KiB elision size.

    Peaks are in arrays of the block's real size: a stacked kernel held about 2 for ``vnorm`` and
    ``Vec._eval`` at m = 8, and 29.5 block-sized real arrays for ``surface_identities``.
    """

    @staticmethod
    def peak(call) -> int:
        call()  # fills the caches
        return traced_peak(call)

    @pytest.mark.parametrize("m", [1, 2, 3, 8, 16])
    @pytest.mark.parametrize("complex_input", [False, True])
    def test_vnorm_holds_one_array_of_squares(self, m, complex_input):
        rng = rng_for(24)
        x = rng.random((2, m, 16384 // m))
        x = x[0] + 1j * x[1] if complex_input else x[0]
        real_bytes = 8 * x[0].size * m
        for points in (np.ascontiguousarray(x.T), x.T):
            assert self.peak(lambda: vnorm(points)) <= 1.6 * real_bytes, points.flags.c_contiguous

    def test_vec_eval_holds_one_array_at_m_8(self):
        f = Vec([Poly([0.1 * k, 0.5, 0.2j, -0.3]) for k in range(8)])
        z = corpus._disk_points(rng_for(25), holodisk._POINT_BLOCK // 8)
        assert self.peak(lambda: f._eval(z)) <= 1.5 * 16 * 8 * len(z)

    def test_surface_identities_holds_22_block_arrays(self):
        zs = corpus._disk_points(rng_for(26), 5000)
        for member in weierstrass_corpus(0, 12):
            assert self.peak(lambda: surface_identities(member.surface, zs)) <= 22 * 8 * len(zs), member.name


def test_halfsphere_chain_traced_peak_is_below_600_kb():
    """The interior grid is checked in circle-sized slices, never whole."""
    surface = WeierstrassDisk([2.0, 1.0], [0.0, 0.5], halfsphere=True)
    halfsphere_chain_check(surface)  # fills the cached grids
    assert traced_peak(lambda: halfsphere_chain_check(surface)) < 600_000
    for member in weierstrass_corpus(0, 24):
        if member.surface.halfsphere:
            halfsphere_chain_check(member.surface)
            assert traced_peak(lambda: halfsphere_chain_check(member.surface)) < 600_000


def test_write_report_streams_the_default_report(tmp_path):
    """The report file is ``json_text()`` byte for byte, and json.dump writes it a chunk at a time.

    What the writer holds is ``_jsonify``'s plain copy of the report (about 15 KB), one chunk and
    the margins CSV's rows: about 0.15 MB in all.
    """
    report = run_suite(SuiteConfig())
    path = tmp_path / "report.json"
    write_report(report, str(path))
    text = report.json_text()
    assert traced_peak(lambda: write_report(report, str(path))) < 250_000
    assert path.read_bytes() == text.encode("utf-8")


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

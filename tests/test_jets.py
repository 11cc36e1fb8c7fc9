"""One-walk value-and-derivative jets, and the checks and objectives built on them."""

from __future__ import annotations

import math

import numpy as np
import pytest

from diskcheck import (
    Blaschke,
    Const,
    DomainError,
    HoloDisk,
    affine_disk,
    boundary_bound_origin,
    boundary_bound_shifted,
    holo_corpus,
    julia_corpus,
    vnorm,
)
from diskcheck.search import _family_1d_margins, _family_md_margins
from oracles import family_md_box, family_md_tree, tree_objective_1d, tree_objective_md

DIMENSIONS = (1, 2, 3)


def margin_1d(params) -> float:
    """The ``family_1d`` margin of one row, as a block of one row."""
    return float(_family_1d_margins(np.asarray(params, dtype=float)[None, :])[0])


def margin_md(params, m: int) -> float:
    """The ``family_md`` margin of one row, as a block of one row."""
    return float(_family_md_margins(np.asarray(params, dtype=float)[None, :], m)[0])


def corpus_disks():
    disks = [(f"m={m} {c.name}", c.disk) for m in DIMENSIONS for c in holo_corpus(0, m, 40)]
    return disks + [(c.name, c.disk) for c in julia_corpus(0, 30)]


def sample_points(seed: int, n: int = 16, rmax: float = 0.8) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rmax * np.sqrt(rng.random(n)) * np.exp(2j * np.pi * rng.random(n))


def separate_walks(f: HoloDisk, zeta: complex, stacked: bool) -> tuple[float, float]:
    """Shifted and origin margins rebuilt from separate ``eval``/``deriv`` walks.

    With ``stacked`` each walk visits both points [0, zeta]; otherwise each of
    F(0), F'(0) and F'(zeta) gets a one-point walk of its own.
    """
    if stacked:
        (r, _), (a, val) = vnorm(f.eval([0j, zeta])), vnorm(f.deriv([0j, zeta]))
    else:
        r, a, val = vnorm(f.eval(0j)), vnorm(f.deriv(0j)), vnorm(f.deriv(zeta))
    r, a, val = float(r), float(a), float(val)
    return val - 2.0 * (1.0 - r) ** 2 / (1.0 - r * r + a), val - 2.0 / (1.0 + a)


def family_md_params(m: int, count: int, seed: int = 11) -> list[np.ndarray]:
    lower, upper = family_md_box(m)
    rng = np.random.default_rng(seed)
    return [lower + rng.random(lower.shape[0]) * (upper - lower) for _ in range(count)]


class TestJet:
    def test_jet_value_is_eval_bitwise(self):
        zs = np.concatenate([sample_points(1), np.exp(2j * np.pi * np.arange(8) / 8), [0j]])
        for name, f in corpus_disks():
            value, deriv = f._jet(zs)
            assert value.tobytes() == f._eval(zs).tobytes(), name
            assert deriv.shape == value.shape == (zs.shape[0], f.dim), name

    def test_deriv_matches_central_difference(self):
        h = 1e-5
        for index, (name, f) in enumerate(corpus_disks()):
            zs = sample_points(100 + index)
            fd = (f.eval(zs + h) - f.eval(zs - h)) / (2.0 * h)
            d = f.deriv(zs)
            assert np.all(vnorm(fd - d) <= 1e-7 * np.maximum(vnorm(d), 1.0)), name


class TestOneWalkBounds:
    def test_boundary_margins_equal_four_walk_formula_bitwise(self):
        cases = []
        for m in DIMENSIONS:
            for member in holo_corpus(0, m, 40):
                if member.boundary_contact is not None:
                    cases.append((member.disk, member.boundary_contact, member.zero_at_origin))
            cases += [(family_md_tree(p, m), 1.0 + 0j, False) for p in family_md_params(m, 10)]
        cases += [(Blaschke(c), 1.0 + 0j, False) for c in (0.2, -0.5j, 0.3 + 0.6j)]
        assert sum(origin for _, _, origin in cases) > 10
        for f, zeta, origin in cases:
            for stacked in (True, False):
                shifted, from_origin = separate_walks(f, zeta, stacked)
                assert boundary_bound_shifted(f, zeta).margin == shifted
                if origin:
                    assert boundary_bound_origin(f, zeta).margin == from_origin

    def test_objectives_build_no_instance_text(self, monkeypatch):
        md = [(p, m) for m in (1, 2, 3) for p in family_md_params(m, 5)]
        one = [(0.05 + 0.9 * t, 3.0 * math.cos(7.0 * t)) for t in np.linspace(0.0, 1.0, 7)]
        expected_md = [margin_md(p, m) for p, m in md]
        expected_1d = [margin_1d(q) for q in one]
        assert expected_md == [boundary_bound_shifted(family_md_tree(p, m), 1.0).margin for p, m in md]

        def refuse(*args, **kwargs):
            raise AssertionError("search objective built report text")

        for cls in [HoloDisk, *HoloDisk.__subclasses__()]:
            monkeypatch.setattr(cls, "to_text", refuse)
        assert [margin_md(p, m) for p, m in md] == expected_md
        assert [margin_1d(q) for q in one] == expected_1d

    def test_preconditions_keep_their_errors(self):
        with pytest.raises(DomainError, match="not a boundary-contact point"):
            boundary_bound_shifted(affine_disk([0.5, 0.0]), 1.0)
        with pytest.raises(DomainError, match="must fix the origin"):
            boundary_bound_origin(Blaschke(0.5), 1.0)
        with pytest.raises(DomainError, match="degenerate map"):
            boundary_bound_shifted(Const(1.0), 1.0)


class TestBatchedObjectives:
    """The search evaluates each family from its node formulas, a block of rows per call."""

    @pytest.mark.parametrize("m", DIMENSIONS)
    def test_family_md_rows_equal_tree_walks_bitwise(self, m):
        params = np.asarray(family_md_params(m, 2000, seed=20 + m))
        params[0] = 0.0  # b = 0, c = 0 and the default direction
        params[1, : 2 * m + 2] = 0.0  # b = 0: the automorphism is -identity
        params[2, 2 * m + 2 :] = 1e-12  # a direction below the normalization floor
        tree = np.asarray([tree_objective_md(p, m) for p in params])
        assert _family_md_margins(params, m).tobytes() == tree.tobytes()
        assert np.asarray([margin_md(p, m) for p in params[:50]]).tobytes() == tree[:50].tobytes()

    def test_family_1d_rows_equal_tree_walks_bitwise(self):
        rng = np.random.default_rng(30)
        params = np.column_stack([rng.uniform(0.0, 1.0 - 1e-6, 2000), rng.uniform(-math.pi, math.pi, 2000)])
        tree = np.asarray([tree_objective_1d(p) for p in params])
        assert _family_1d_margins(params).tobytes() == tree.tobytes()
        assert np.asarray([margin_1d(p) for p in params[:50]]).tobytes() == tree[:50].tobytes()

"""The in-package polynomial helpers give numpy.polynomial's bits.

``holodisk`` evaluates polynomials by its own Horner kernel and does the
Weierstrass coefficient algebra by its own helpers, and ``weierstrass``
holds the 8-node Gauss-Legendre rule as a literal table.  Here each is
compared with ``numpy.polynomial``, which stays the oracle of the tests,
bit for bit (``tobytes``), signed zeros included.
"""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest
from numpy.polynomial import legendre
from numpy.polynomial import polynomial as P

import diskcheck
from diskcheck.holodisk import _horner, _polyadd, _polyder, _polyint, _polymul, _polysub, _polytrim
from diskcheck.weierstrass import _GAUSS_NODES, _GAUSS_WEIGHTS

NEG_ZERO = complex(0.0, -0.0)
SIGNED_ZEROS = [0j, NEG_ZERO, complex(-0.0, 0.0), complex(-0.0, -0.0)]


def assert_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert (got.shape, got.dtype) == (want.shape, want.dtype)
    assert got.tobytes() == want.tobytes()


def coefficients(rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` complex coefficients whose parts are ±0.0 about half the time."""
    parts = rng.normal(size=(2, n)) * 10.0 ** rng.integers(-3, 4, size=(2, n))
    pick = rng.integers(0, 4, size=(2, n))
    parts = np.where(pick == 0, 0.0, np.where(pick == 1, -0.0, parts))
    return _complex(parts[0], parts[1])


def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    # re + 1j * im would turn a -0.0 real part into +0.0.
    out = np.empty(re.shape, dtype=complex)
    out.real, out.imag = re, im
    return out


def coefficient_cases():
    """Random vectors of degrees 0 to 13, trailing zeros, and all-zero vectors of every zero sign."""
    rng = np.random.default_rng(2828)
    cases = [coefficients(rng, n) for n in range(1, 15) for _ in range(6)]
    for c in cases[::5]:
        cases.append(np.concatenate([c, [0j, NEG_ZERO]]))
    cases += [np.array(zeros) for zeros in ([z] for z in SIGNED_ZEROS)]
    cases += [np.array(SIGNED_ZEROS), np.array([1.0 + 0j, NEG_ZERO, 0j])]
    return cases


CASES = coefficient_cases()


@pytest.mark.parametrize("n", [1, 2, 3, 17, 1000])
def test_horner_is_polyval_bit_for_bit(n):
    rng = np.random.default_rng(n)
    zs = _complex(rng.uniform(-1.0, 1.0, n), rng.uniform(-1.0, 1.0, n))
    zs[: min(n, 4)] = SIGNED_ZEROS[: min(n, 4)]
    for c in CASES:
        assert_bits(_horner(zs, c), P.polyval(zs, c))
    for z in (0, 0.5 - 0.25j, NEG_ZERO):
        for c in CASES:
            assert_bits(_horner(z, c), P.polyval(z, c))


def test_trim_and_derivative_are_numpys():
    for c in CASES:
        assert_bits(_polytrim(c), P.polytrim(c, tol=0.0))
        assert_bits(_polyder(c), P.polyder(c))


def test_products_sums_and_differences_are_numpys():
    rng = np.random.default_rng(5)
    for _ in range(400):
        c1, c2 = (CASES[i] for i in rng.integers(0, len(CASES), size=2))
        assert_bits(_polymul(c1, c2), P.polymul(c1, c2))
        assert_bits(_polyadd(c1, c2), P.polyadd(c1, c2))
        assert_bits(_polysub(c1, c2), P.polysub(c1, c2))


def test_a_longer_subtrahend_is_negated_whole():
    # Its zero coefficients past the minuend's length come out -0.0.
    c1, c2 = np.array([1.0 + 0j]), np.array([0j, 0j, 2.0 + 0j])
    got = _polysub(c1, c2)
    assert_bits(got, P.polysub(c1, c2))
    assert np.signbit(got[1].real) and np.signbit(got[1].imag)


def test_antiderivatives_are_numpys():
    for c in CASES:
        assert_bits(_polyint(c), P.polyint(c))
    # The zero polynomial's antiderivative keeps one coefficient.
    for z in SIGNED_ZEROS:
        assert _polyint(np.array([z])).shape == (1,)


def test_gauss_table_is_leggauss_8():
    nodes, weights = legendre.leggauss(8)
    assert_bits(_GAUSS_NODES, nodes)
    assert_bits(_GAUSS_WEIGHTS, weights)


def test_a_run_never_imports_numpy_polynomial():
    # A fresh interpreter: this one has numpy.polynomial loaded by the oracles.
    script = (
        "import sys, diskcheck, diskcheck.cli\n"
        "from diskcheck import SuiteConfig, run_suite\n"
        "run_suite(SuiteConfig(samples=2, search_restarts=1))\n"
        "print(sorted(m for m in sys.modules if m.startswith('numpy.polynomial')))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(diskcheck.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"

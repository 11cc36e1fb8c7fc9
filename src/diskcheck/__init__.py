"""diskcheck: numerical verification of rigidity inequalities for
holomorphic and conformal minimal disks in the unit ball.

The package provides exact-arithmetic-free but tolerance-pinned checks for:

- Moebius automorphisms of the complex unit ball and their derivative
  norms (:mod:`diskcheck.ballgeom`);
- growth, boundary-derivative, and Julia-type inequalities for holomorphic
  maps of the disk into the ball, as expression trees that print as text
  (:mod:`diskcheck.holodisk`);
- conformal minimal disks from polynomial Weierstrass data, metric and
  boundary checks (:mod:`diskcheck.weierstrass`);
- derivative-free sharpness searches over parametric map families
  (:mod:`diskcheck.search`);
- seeded corpora, suite execution, and machine-readable reports
  (:mod:`diskcheck.corpus`, :mod:`diskcheck.harness`, :mod:`diskcheck.cli`).
"""

from __future__ import annotations

from . import ballgeom, corpus, harness, holodisk, reports, search, weierstrass
from .ballgeom import *  # noqa: F401,F403
from .corpus import *  # noqa: F401,F403
from .harness import *  # noqa: F401,F403
from .holodisk import *  # noqa: F401,F403
from .reports import *  # noqa: F401,F403
from .search import *  # noqa: F401,F403
from .weierstrass import *  # noqa: F401,F403

__version__ = harness.TOOL_VERSION

__all__ = sorted(
    name
    for module in (ballgeom, corpus, harness, holodisk, reports, search, weierstrass)
    for name in module.__all__
) + ["__version__"]

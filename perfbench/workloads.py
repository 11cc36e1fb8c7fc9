"""Workload definitions shared by run.py and worker.py.

Each workload is a ``SuiteConfig`` keyword set without the seed; every pass
of a run checks the same root seed (``suite_seed``).
"""

from __future__ import annotations

WORKLOADS = {
    # `diskcheck verify` exactly as users run it: every suite at the CLI
    # defaults.  The sharpness search is about three quarters of the time.
    "verify_full": {
        "suites": ("ball", "holo", "minimal", "search"),
        "dimensions": (1, 2, 3),
        "samples": 200,
        "search_restarts": 8,
    },
    # Thousands of distinct ball automorphisms, each built once and used a few
    # times; no expression trees and no search.  m = 8 keeps per-call
    # arithmetic from vanishing next to per-call overhead.
    "ball_sweep": {
        "suites": ("ball",),
        "dimensions": (1, 2, 3, 8),
        "samples": 1000,
    },
    # The holodisk/weierstrass/corpus layers with thousands of points per
    # call, so arithmetic per point dominates and peak RSS scales with samples.
    "disk_bulk": {
        "suites": ("holo", "minimal"),
        "dimensions": (1, 2, 3, 8),
        "samples": 50000,
    },
}

# Seconds of ``--seconds`` charged to one timed pass.  A run makes
# ``seconds // PASS_SECONDS`` timed passes, a number fixed by the workload
# and ``--seconds`` alone, so ``attempted`` and ``failed`` depend only on
# the seed and the code, never on how fast the machine happened to be.
# One pass takes about 7 s (verify_full), 8.5 s (ball_sweep) and 5.2 s
# (disk_bulk) on a 2-vCPU Xeon VM.  verify_full is charged less than that
# and disk_bulk more, which moves measuring time to verify_full: its
# pure-Python search slows and speeds up with the host by 20% or more over
# tens of seconds, more than disk_bulk's numpy loops do.
PASS_SECONDS = {
    "verify_full": 5.5,
    "ball_sweep": 8.5,
    "disk_bulk": 8.0,
}

# Tiny sizes for the benchmark's own smoke test; not comparable to real runs.
SMOKE = {
    "verify_full": {"samples": 4, "search_restarts": 1},
    "ball_sweep": {"samples": 4},
    "disk_bulk": {"samples": 100},
}

# Checks that fail through the known accuracy defect of `cayley_klein_dist`
# (arccosh near 1 loses digits at small distances).  Their failures are
# counted and named in every result; a failure of any other check marks the
# run incorrect.
KNOWN_DEFECT_CHECKS = frozenset(
    {"cayley_klein_radial", "metric_plane_consistency", "distance_equality_planar"}
)


def timed_passes(workload: str, seconds: float) -> int:
    """Number of timed passes in a run of ``seconds`` measured seconds."""
    return max(1, int(seconds // PASS_SECONDS[workload]))


def config_kwargs(workload: str, smoke: bool = False) -> dict:
    """SuiteConfig keywords (without seed and out) for one workload."""
    kwargs = dict(WORKLOADS[workload])
    if smoke:
        kwargs.update(SMOKE[workload])
    return kwargs


# verify_full checks the CLI's default seed on every run.  Its sharpness
# search makes 10k-35k objective calls depending on the seed (one verify
# takes 5-15 s), so at the benchmark's seed its time would measure the seed
# rather than the code.  The other workloads do the same work at every seed.
FIXED_SEED = {"verify_full": 0}


def suite_seed(workload: str, seed: int) -> int:
    """Root seed (``SuiteConfig.seed``) that a run with ``--seed seed`` checks."""
    return FIXED_SEED.get(workload, seed)

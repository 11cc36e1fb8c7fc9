"""Command-line interface.

Verbs:

``verify``
    Run the selected check suites over the seeded corpora, print a per-suite
    summary (including wall time, which is kept out of the JSON report), and
    exit 0 exactly when every suite passed.
``diff``
    Compare two ``verify`` JSON reports check by check and exit 0 exactly
    when every verdict matches.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import struct
import sys
import time

from .harness import (
    KNOWN_SUITES,
    TOOL_NAME,
    TOOL_VERSION,
    SuiteConfig,
    run_suite,
)
from .reports import DomainError


def _name_list(text: str) -> tuple:
    return tuple(s.strip() for s in text.split(",") if s.strip())


def _int_list(text: str) -> tuple:
    return tuple(int(s) for s in text.split(",") if s.strip())


def _tolerance(text: str) -> tuple[str, float]:
    """Parse one ``--tolerance NAME=VALUE`` override."""
    name, sep, value = text.partition("=")
    if not sep:
        raise DomainError(f"expected NAME=VALUE, got {text!r}")
    return name.strip(), float(value)


class _Once(argparse.Action):
    """Store a flag's value; a second use of the flag is a usage error, so flag order never picks a run."""

    def __call__(self, parser, namespace, values, option_string=None):
        if self.dest in vars(namespace).setdefault("given_flags", set()):
            parser.error(f"{option_string} is given more than once")
        namespace.given_flags.add(self.dest)
        setattr(namespace, self.dest, values)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=TOOL_NAME,
        description="Numerical checks for rigidity inequalities of holomorphic "
        "and minimal disks in the unit ball.",
    )
    parser.add_argument("--version", action="version", version=f"{TOOL_NAME} {TOOL_VERSION}")
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run check suites and report margins")
    for flag, kind, text in (
        ("--seed", int, "root seed (default 0)"),
        ("--suites", _name_list, f"comma-separated subset of {','.join(KNOWN_SUITES)} (default all)"),
        ("--samples", int, "sample points per check (default 200)"),
        ("--dimensions", _int_list, "comma-separated target dimensions (default 1,2,3)"),
        ("--search-restarts", int, "restarts for the search suite (default 8)"),
        ("--out", str, "path for the JSON report (margins CSV written alongside)"),
    ):
        verify.add_argument(flag, type=kind, action=_Once, default=None, help=text)
    verify.add_argument(
        "--tolerance", type=_tolerance, action="append", metavar="NAME=VALUE", default=None,
        help="override a named check tolerance (repeatable, once per check)",
    )
    verify.set_defaults(func=_cmd_verify)

    diff = sub.add_parser("diff", help="compare two verify reports check by check")
    diff.add_argument("first", help="JSON report from `verify --out`")
    diff.add_argument("second", help="JSON report to compare with the first")
    diff.add_argument(
        "--rtol", type=float, action=_Once, default=0.0,
        help="list only worst-margin moves above RTOL times the larger magnitude (default 0: every move)",
    )
    diff.set_defaults(func=_cmd_diff)

    return parser


def _cmd_verify(args) -> int:
    tolerances = {}
    for name, value in args.tolerance or ():
        if name in tolerances:
            raise DomainError(f"--tolerance {name} is given more than once")
        tolerances[name] = value
    given = {key: getattr(args, key) for key in ("seed", "samples", "search_restarts", "suites", "dimensions", "out")}
    config = SuiteConfig(tolerances=tolerances, **{key: value for key, value in given.items() if value is not None})
    start = time.perf_counter()
    report = run_suite(config)
    total = time.perf_counter() - start

    for name in config.suites:
        suite = report.suites[name]
        min_margin = suite["min_margin"]
        margin_text = "n/a" if min_margin is None else f"{min_margin:.3e}"
        print(
            f"suite {name:<8} cases={suite['cases']:<6} failures={len(suite['failures']):<3} "
            f"min_margin={margin_text:<11} wall={report.wall_times[name]:.2f}s"
        )
    print(f"overall: {'PASS' if report.passed else 'FAIL'} ({TOOL_NAME} {TOOL_VERSION}, wall {total:.2f}s)")
    if config.out is not None:
        root, _ = os.path.splitext(config.out)
        print(f"report written to {config.out} (margins: {root + '.margins.csv'})")
    return 0 if report.passed else 1


def _read_report(path: str) -> dict:
    """The JSON object in ``path``; DomainError if the file holds anything else."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            report = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise DomainError(f"{path}: {exc}") from None
    if not isinstance(report, dict):
        raise DomainError(f"{path}: a report must be a JSON object")
    return report


_ABSENT = object()


def _checks_of(report: dict, label: str) -> dict:
    """``{(suite, check): (passed, worst margin, worst instance, count)}`` of a report; DomainError on another shape."""
    try:
        return {
            (name, check): (slot["passed"], float(slot["worst_margin"]), slot["worst_instance"], slot["count"])
            for name, suite in report["suites"].items()
            for check, slot in suite["checks"].items()
        }
    except (AttributeError, KeyError, TypeError, ValueError):
        raise DomainError(
            f"{label}: 'suites' must map each suite to a 'checks' object of checks with "
            "passed, worst_margin, worst_instance and count"
        ) from None


def _ulps(x: float, y: float) -> float:
    """How many doubles lie between x and y, counting one of them (NaN if either is NaN)."""
    if math.isnan(x) or math.isnan(y):
        return math.nan

    def line(v: float) -> int:
        """The bits of ``v`` as an integer, ordered as the doubles are (both zeros at 0)."""
        bits = struct.unpack("<q", struct.pack("<d", v))[0]
        return bits if bits >= 0 else -(bits & 0x7FFFFFFFFFFFFFFF)

    return abs(line(x) - line(y))


def _changed_fields(a, b, path: str):
    """Dotted paths below ``path`` where two JSON values differ; lists are compared whole."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            yield from _changed_fields(a.get(key, _ABSENT), b.get(key, _ABSENT), f"{path}.{key}" if path else key)
    elif a != b:
        yield path


def diff_reports(a: dict, b: dict, rtol: float = 0.0) -> tuple[list[str], bool]:
    """Compare two ``verify`` reports check by check: (lines, whether every verdict matches).

    Lines name each verdict flip (a check found in one report only counts
    as one), each worst-margin move, by its absolute size and in ulps, each
    changed worst instance and each changed case count, then, by dotted
    path, every other field that differs (config, findings, search reports).
    With ``rtol``, only margin moves above ``rtol`` times the larger
    magnitude are listed.
    """
    if not 0.0 <= rtol < math.inf:
        raise DomainError(f"rtol must be finite and nonnegative; got {rtol!r}")
    old_checks, new_checks = _checks_of(a, "first report"), _checks_of(b, "second report")
    names = sorted(set(old_checks) | set(new_checks))
    lines, flips = [], 0
    for key in names:
        label = "/".join(key)
        if key not in old_checks or key not in new_checks:
            flips += 1
            lines.append(f"verdict   {label}: only in the {'first' if key in old_checks else 'second'} report")
            continue
        (old_passed, x, old_instance, old_count), (passed, y, instance, count) = old_checks[key], new_checks[key]
        if old_passed != passed:
            flips += 1
            lines.append(f"verdict   {label}: {'pass' if old_passed else 'FAIL'} -> {'pass' if passed else 'FAIL'}")
        if not (x == y or math.isnan(x) and math.isnan(y)) and not abs(x - y) <= rtol * max(abs(x), abs(y)):
            lines.append(f"margin    {label}: {x!r} -> {y!r} (by {y - x:.3g}, {_ulps(x, y)} ulps)")
        if old_instance != instance:
            lines.append(f"instance  {label}: {old_instance!r} -> {instance!r}")
        if old_count != count:
            lines.append(f"count     {label}: {old_count} -> {count}")

    def without_checks(report: dict) -> dict:
        suites = report["suites"]
        return {**report, "suites": {name: {k: v for k, v in suites[name].items() if k != "checks"} for name in suites}}

    lines += [f"field     {path}" for path in _changed_fields(without_checks(a), without_checks(b), "")]
    lines.append(f"{flips} verdict flip(s) over {len(names)} checks")
    return lines, flips == 0


def _cmd_diff(args) -> int:
    lines, same = diff_reports(_read_report(args.first), _read_report(args.second), rtol=args.rtol)
    print("\n".join(lines))
    return 0 if same else 1


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

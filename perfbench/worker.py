"""One benchmark pass in a fresh interpreter; prints one JSON line.

    python3 perfbench/worker.py --workload NAME --seed N --out-dir DIR [--trace] [--smoke]
    python3 perfbench/worker.py --setup-only --workload NAME --seed N

The pass measures ``setup_s`` (``import diskcheck`` and building the
``SuiteConfig``), then times ``run_suite`` with the JSON and CSV report
written to ``--out-dir``, then checks the report outside the timed region.
With ``--trace`` the layers are wrapped first and the spans are written to
``--out-dir`` together with the per-layer metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import sys
import time
import traceback

from workloads import KNOWN_DEFECT_CHECKS, config_kwargs


def check_report(path: str, config: dict, workload: str) -> dict:
    """Verdicts from the written report: never from ``worst_margin`` alone.

    A failure is a record in a suite's ``failures`` list, or a check whose
    recorded worst margin is not finite while it claims to pass.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    report = json.loads(raw)
    problems = []
    failing: dict[str, int] = {}
    cases = 0

    echoed = report.get("config", {})
    for key in ("seed", "samples", "dimensions", "suites"):
        want = list(config[key]) if isinstance(config[key], tuple) else config[key]
        if echoed.get(key) != want:
            problems.append(f"report config {key}={echoed.get(key)!r}, expected {want!r}")
    if set(report.get("suites", {})) != set(config["suites"]):
        problems.append(f"report suites {sorted(report.get('suites', {}))} != {sorted(config['suites'])}")

    for suite_name, suite in report.get("suites", {}).items():
        cases += suite["cases"]
        if suite["cases"] < 1:
            problems.append(f"suite {suite_name} ran no cases")
        failed_names = set()
        for record in suite["failures"]:
            failing[record["name"]] = failing.get(record["name"], 0) + 1
            failed_names.add(record["name"])
        for check_name, slot in suite["checks"].items():
            if slot["passed"] == (check_name in failed_names):
                problems.append(f"{suite_name}.{check_name}: passed={slot['passed']} disagrees with failures")
            if slot["passed"] and not math.isfinite(slot["worst_margin"]):
                failing[check_name] = failing.get(check_name, 0) + 1
    if report.get("passed") != (not failing):
        problems.append(f"report passed={report.get('passed')} with {sum(failing.values())} failures")

    if "ball" in config["suites"]:
        expected = 13 * config["samples"] * len(config["dimensions"])
        if report["suites"]["ball"]["cases"] != expected:
            problems.append(f"ball suite ran {report['suites']['ball']['cases']} cases, expected {expected}")
    if workload == "verify_full":
        search_checks = report["suites"]["search"]["checks"]
        for name in ("family_1d_best", "family_1d_phase"):
            if name not in search_checks or not search_checks[name]["passed"]:
                problems.append(f"search check {name} missing or failed")
    unexpected = sorted(set(failing) - KNOWN_DEFECT_CHECKS)
    if unexpected:
        problems.append(f"unexpected failing checks: {unexpected}")

    csv_path = os.path.splitext(path)[0] + ".margins.csv"
    with open(csv_path, encoding="utf-8") as fh:
        csv_rows = sum(1 for _ in fh)
    n_checks = sum(len(s["checks"]) for s in report["suites"].values())
    if csv_rows != n_checks + 1:
        problems.append(f"margins CSV has {csv_rows} lines for {n_checks} checks")

    return {
        "sha256": hashlib.sha256(raw).hexdigest(),
        "report_bytes": len(raw),
        "cases": cases,
        "failed": sum(failing.values()),
        "failing": failing,
        "problems": problems,
        "report": report,
    }


def numpy_environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy < 1.26 has no mode argument
        blas = {}
    return {"numpy": np.__version__, "blas": blas}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out-dir")
    parser.add_argument("--run-id", default="pass")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    from diskcheck import harness

    kwargs = config_kwargs(args.workload, args.smoke)
    report_path = None if args.setup_only else os.path.join(args.out_dir, "report.json")
    config = harness.SuiteConfig(seed=args.seed, out=report_path, **kwargs)
    setup_s = time.perf_counter() - start
    result = {"setup_s": setup_s}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer(args.run_id)
        tracer.install()
    try:
        cpu_start = time.process_time()
        start = time.perf_counter()
        run = harness.run_suite(config)
        wall_s = time.perf_counter() - start
        cpu_s = time.process_time() - cpu_start
    except Exception:
        result["error"] = traceback.format_exc()
        print(json.dumps(result))
        return 1
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["wall_s"] = wall_s
    result["cpu_s"] = cpu_s
    result["wall_times"] = dict(run.wall_times)
    if tracer is not None:
        tracer.uninstall()

    checked = check_report(report_path, {**kwargs, "seed": args.seed}, args.workload)
    report = checked.pop("report")
    result.update(checked)
    result["env"] = numpy_environment()
    if tracer is not None:
        from tracer import layer_metrics, write_summary

        result["layers"] = layer_metrics(tracer, report)
        result["layers"]["harness.report_bytes"] = checked["report_bytes"]
        result["spans"] = len(tracer.name_of)
        tracer.write(os.path.join(args.out_dir, "spans.csv.gz"))
        write_summary(tracer, os.path.join(args.out_dir, "summary.json"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""diskcheck benchmark: time to verdict for one workload, checked.

    python3 perfbench/run.py --workload disk_bulk --seed 0 --seconds 50 --trace 0

Run it from the root of a diskcheck checkout; it imports the package from
``src/`` and needs nothing beyond the package's own dependencies.  Every pass
runs the workload once in a fresh single-threaded interpreter (one at a
time) at the root seed given by ``workloads.suite_seed``.  An untimed memory
pass comes first; it runs the workload once before any timing and gives
``peak_rss_mb``.  Then come ``workloads.timed_passes`` timed passes, about
``--seconds`` of them.

With ``--trace 0`` the run reports the end-to-end metrics named in
BENCHMARK.json; with ``--trace 1`` it runs one untimed pass and one traced
pass instead, and reports the per-layer metrics.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` (cases) and ``metrics``.  Full results, the environment and the trace go to
``perfbench/out/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from workloads import WORKLOADS, suite_seed, timed_passes

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(HERE, "out")

# Fresh interpreters timed for setup_s, on top of one sample per timed pass.
SETUP_PROBES = 7
# The memory pass runs with glibc's mmap threshold fixed at its initial
# 128 KiB.  glibc otherwise raises the threshold as large blocks are freed,
# after which big arrays come from the heap and fragment it; peak RSS then
# swings by 10 MB between runs of the same work.  With the threshold fixed
# every large array is returned when freed, so ru_maxrss follows the live
# data.  Timed passes keep the default allocator: the fixed threshold makes
# disk_bulk twice as slow through page faults.
MEMORY_PASS_ENV = {"MALLOC_MMAP_THRESHOLD_": "131072"}
# A traced pass takes about 1.2x an untraced one plus writing the spans.
TRACE_COST_FACTOR = 1.5
TRACE_WRITE_S = 3.0
# Every worker is killed once the run has lasted this long, so a run that
# hangs still ends, with correct=false, within 180 s.
RUN_LIMIT_S = 170.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class WorkerError(RuntimeError):
    pass


def worker_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for name in THREAD_VARS:
        env[name] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(args: list[str], env: dict, deadline: float) -> dict:
    """Run one worker to completion; return its JSON line."""
    proc = subprocess.run(
        [sys.executable, WORKER, *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else {}
    except json.JSONDecodeError:
        result = {}
    if proc.returncode != 0 or "error" in result or not result:
        detail = result.get("error") or proc.stderr[-2000:] or "no output"
        raise WorkerError(f"worker {' '.join(args)} exited {proc.returncode}: {detail}")
    return result


def source_digest(root: str) -> str:
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(root, "src", "**", "*.py"), recursive=True)):
        digest.update(os.path.relpath(path, root).encode())
        with open(path, "rb") as fh:
            digest.update(hashlib.sha256(fh.read()).digest())
    return digest.hexdigest()


def git_commit(root: str):
    if not os.path.exists(os.path.join(root, ".git")):
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(root: str) -> dict:
    return {
        "git_commit": git_commit(root),
        "source_sha256": source_digest(root),
        "python": platform.python_version(),
        "python_implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "thread_env_inherited": {name: os.environ.get(name) for name in THREAD_VARS},
        "thread_env_worker": {name: "1" for name in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu_model(),
        "loadavg_start": list(os.getloadavg()) if hasattr(os, "getloadavg") else None,
    }


def check_digests(env_key: str, workload_key: str, passes: list[dict]) -> list[str]:
    """Compare report SHA-256s with earlier runs of the same code; record new ones."""
    path = os.path.join(OUT_DIR, "digests.json")
    try:
        with open(path, encoding="utf-8") as fh:
            ledger = json.load(fh)
    except (OSError, json.JSONDecodeError):
        ledger = {}
    known = ledger.setdefault(env_key, {})
    problems = []
    for p in passes:
        key = f"{workload_key}/seed={p['seed']}"
        if known.setdefault(key, p["sha256"]) != p["sha256"]:
            problems.append(f"report digest for {key} changed: {known[key]} then {p['sha256']}")
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(ledger, fh, indent=1, sort_keys=True)
    os.replace(tmp, path)
    return problems


def run_pass(workload, seed, label, env, deadline, smoke, trace=False):
    """One pass in a fresh interpreter; returns its record (report dir removed)."""
    out_dir = tempfile.mkdtemp(prefix="pass-", dir=OUT_DIR)
    args = ["--workload", workload, "--seed", str(suite_seed(workload, seed)), "--out-dir", out_dir,
            "--run-id", f"{workload}-seed{seed}-{label}"]
    if smoke:
        args.append("--smoke")
    if trace:
        args.append("--trace")
    began = time.perf_counter()
    try:
        record = run_worker(args, env, deadline)
        if trace:
            stem = os.path.join(OUT_DIR, f"trace-{workload}-seed{seed}")
            shutil.move(os.path.join(out_dir, "spans.csv.gz"), stem + ".csv.gz")
            shutil.move(os.path.join(out_dir, "summary.json"), stem + ".summary.json")
            record["trace_file"] = os.path.relpath(stem + ".csv.gz")
    except (WorkerError, subprocess.TimeoutExpired) as exc:
        record = {"error": str(exc)}
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    record["seed"] = suite_seed(workload, seed)
    record["elapsed_s"] = time.perf_counter() - began
    return record


def benchmark_spec(root: str) -> dict:
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="diskcheck benchmark (see perfbench/README.md)")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the smoke test only")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    deadline = time.monotonic() + RUN_LIMIT_S
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "diskcheck", "__init__.py")):
        print("perfbench: no src/diskcheck here; run from the root of a diskcheck checkout",
              file=sys.stderr)
        return 2
    spec = benchmark_spec(root)
    os.makedirs(OUT_DIR, exist_ok=True)
    env_record = environment(root)
    env = worker_env(root)
    problems: list[str] = []

    # Setup: the first import byte-compiles the package; users pay that once.
    setup_args = ["--setup-only", "--workload", args.workload, "--seed", str(args.seed)]
    setup_samples = []
    try:
        run_worker(setup_args, env, deadline)
        setup_samples = [run_worker(setup_args, env, deadline)["setup_s"] for _ in range(SETUP_PROBES)]
    except (WorkerError, subprocess.TimeoutExpired) as exc:
        problems.append(f"setup probe: {exc}")

    # Memory pass first, untimed; then a fixed number of timed passes.  A
    # traced run needs only one untimed pass to compare the traced one with.
    memory = None
    if not args.trace:
        memory = run_pass(args.workload, args.seed, "memory", {**env, **MEMORY_PASS_ENV}, deadline,
                          args.smoke)
        memory["kind"] = "memory"
        print(f"memory pass seed={memory['seed']}: "
              + (f"peak_rss_mb={memory['peak_rss_mb']:.3f} cases={memory['cases']} failed={memory['failed']}"
                 if "error" not in memory else "ERROR"), flush=True)
    wanted_passes = 1 if args.trace else timed_passes(args.workload, args.seconds)
    notes: list[str] = []
    passes: list[dict] = []
    for index in range(wanted_passes):
        if passes:
            estimate = statistics.median(p["elapsed_s"] for p in passes)
            if time.monotonic() + estimate > deadline:
                notes.append(f"run cut short at {len(passes)} of {wanted_passes} timed passes")
                break
        record = run_pass(args.workload, args.seed, f"pass{index}", env, deadline, args.smoke)
        record["kind"] = "timed"
        passes.append(record)
        print(f"pass {index} seed={record['seed']}: "
              + (f"wall_s={record['wall_s']:.4f} cases={record['cases']} failed={record['failed']}"
                 if "error" not in record else "ERROR"), flush=True)
    traced = None
    if args.trace:
        estimate = passes[0]["elapsed_s"] * (1.0 + TRACE_COST_FACTOR) + TRACE_WRITE_S
        if time.monotonic() + estimate > deadline:
            notes.append("no time left for the traced pass")
        else:
            traced = run_pass(args.workload, args.seed, "traced", env, deadline, args.smoke, trace=True)

    untraced = ([memory] if memory is not None else []) + passes
    good = [p for p in passes if "error" not in p]
    known = [p["cases"] for p in untraced if "error" not in p]
    cases_known = known[0] if known else 1
    attempted = sum(p.get("cases", cases_known) for p in untraced)
    failed = sum(p.get("failed", cases_known) for p in untraced)
    failing: dict[str, int] = {}
    for p in untraced:
        for name, count in p.get("failing", {}).items():
            failing[name] = failing.get(name, 0) + count
    checked = untraced + ([traced] if traced is not None else [])
    if traced is None and args.trace:
        problems.append("traced pass not run")
    for p in checked:
        label = f"{p.get('kind', 'traced')} pass seed={p['seed']}"
        if "error" in p:
            problems.append(f"{label}: {p['error']}")
        else:
            problems.extend(f"{label}: {msg}" for msg in p["problems"])
    checked = [p for p in checked if "error" not in p]
    if len({p["sha256"] for p in checked}) > 1:
        problems.append("passes of one seed wrote different reports (traced pass included)")
    if checked:
        env_record.update(checked[0]["env"])
        env_key = f"{env_record['source_sha256']}/py{env_record['python']}/numpy{env_record['numpy']}"
        workload_key = args.workload + ("-smoke" if args.smoke else "")
        problems.extend(check_digests(env_key, workload_key, checked))

    metrics = {}
    if good:
        metrics["wall_s"] = statistics.median(p["wall_s"] for p in good)
        metrics["setup_s"] = statistics.median(setup_samples + [p["setup_s"] for p in good])
        if memory is not None and "error" not in memory:
            metrics["peak_rss_mb"] = memory["peak_rss_mb"]
        metrics["pass_ratio"] = 1.0 - failed / attempted
        if traced is not None and "error" not in traced:
            metrics.update(traced["layers"])
            for suite in ("ball", "holo", "minimal", "search"):
                metrics[f"harness.suite_s.{suite}"] = good[0]["wall_times"].get(suite, 0.0)
            metrics["trace.overhead_s"] = traced["wall_s"] - metrics["wall_s"]

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        problems.append(f"metrics not measured: {missing}")
    printed = {
        m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
        for m in wanted
        if m["name"] in metrics
    }

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "environment": env_record,
        "setup_samples_s": setup_samples,
        "passes": [{k: v for k, v in p.items() if k not in ("env", "layers")} for p in untraced],
        "notes": notes,
        "traced_pass": None if traced is None else {k: v for k, v in traced.items() if k != "env"},
        "failing_checks": failing,
        "problems": problems,
        "metrics": metrics,
    }
    results_path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(results_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")

    for name, count in sorted(failing.items()):
        print(f"failing check {name}: {count} case(s)")
    for msg in notes:
        print(f"note: {msg}")
    for msg in problems:
        print(f"PROBLEM: {msg}")
    if traced is not None and "trace_file" in traced:
        print(f"trace: {traced['trace_file']} ({traced['spans']} spans)")
    print(f"results: {os.path.relpath(results_path)}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": printed,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

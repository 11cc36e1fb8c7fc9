"""Span tracing of diskcheck's layers, installed from outside the package.

``Tracer.install`` wraps the public functions, public methods and explicit
constructors of each layer module (the modules of ``diskcheck``, named in
``LAYERS``) and rebinds every name in every ``diskcheck`` namespace that
refers to a wrapped object, so ``diskcheck.harness.boundary_bound_shifted``
is traced as well as ``diskcheck.holodisk.boundary_bound_shifted``.  Spans
(name, start, end, parent, an optional per-call quantity) are kept in
memory under the traced pass's run id and written out by ``write``.

``layer_metrics`` turns the spans into the per-layer metrics named in
BENCHMARK.json.  Self time is a span's duration minus the durations of its
direct child spans; code is single-threaded, so children never overlap.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import gzip
import inspect
import json
import math
import sys
import time
from array import array

LAYERS = ("ballgeom", "holodisk", "weierstrass", "corpus", "search", "reports", "harness")

# Leaf arithmetic helpers called from every layer (about 300k calls in one
# default `verify`).  A span around each would cost more than the work and
# would move their time out of their callers' self time, so they stay
# unwrapped and count toward the caller.
UNWRAPPED = frozenset({"ballgeom.vnorm", "ballgeom.inner", "reports.resolve_tolerance"})

# Names whose nested calls are folded into the outermost call: a recursive
# serializer would otherwise record one span per tree node.
OUTERMOST_ONLY = "to_text"


def _points_last_axis(args, kwargs, result):
    shape = getattr(args[1], "shape", None)
    if shape is None:
        return 1
    return math.prod(shape[:-1]) if len(shape) > 1 else 1


def _size(pos, name):
    def probe(args, kwargs, result):
        return _array_size(args[pos] if len(args) > pos else kwargs[name])

    return probe


def _array_size(value):
    shape = getattr(value, "shape", None)
    if shape is not None:
        return math.prod(shape)
    if isinstance(value, (list, tuple)):
        return len(value)
    return 1


def _grid_points(signature):
    def probe(args, kwargs, result):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments["n_boundary"] + bound.arguments["n_interior"] ** 2

    return probe


def _instance_bytes(args, kwargs, result):
    instance = args[1] if len(args) > 1 else kwargs["instance"]
    return len(instance.encode("utf-8"))


def _result_value(args, kwargs, result):
    return float(result)


def _result_len(args, kwargs, result):
    return len(result)


def _probes(modules):
    """Per-call quantities recorded for a few wrapped names."""
    holodisk = modules["holodisk"]
    return {
        "ballgeom.BallAutomorphism.apply": _points_last_axis,
        "ballgeom.BallAutomorphism.differential": _points_last_axis,
        "holodisk.HoloDisk.eval": _size(1, "z"),
        "holodisk.HoloDisk.deriv": _size(1, "z"),
        "holodisk.growth_margins": _size(1, "zs"),
        "holodisk.two_sided_margins": _size(1, "zs"),
        "holodisk.julia_margins": _size(1, "zs"),
        "holodisk.certify_in_ball": _grid_points(inspect.signature(holodisk.certify_in_ball)),
        "weierstrass.WeierstrassDisk.eval": _size(1, "z"),
        "search.margin_objective_1d": _result_value,
        "search.margin_objective_md": _result_value,
        "reports.make_report": _instance_bytes,
        "corpus.holo_corpus": _result_len,
        "corpus.julia_corpus": _result_len,
        "corpus.weierstrass_corpus": _result_len,
        "corpus.corpus_generate": _result_len,
    }


class Tracer:
    """In-memory span recorder; one instance per traced process."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.keys: list[str] = []
        self.name_of = array("i")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.extra: dict[int, float] = {}
        self._stack = [-1]
        self._folded = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- installation --------------------------------------------------------

    def install(self, package: str = "diskcheck") -> None:
        """Wrap every layer module of ``package``; undo with ``uninstall``."""
        modules = {name: sys.modules[f"{package}.{name}"] for name in LAYERS}
        probes = _probes(modules)
        replaced = {}
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                key = f"{layer}.{attr}"
                if inspect.isfunction(obj) and key not in UNWRAPPED:
                    replaced[id(obj)] = self._wrap(obj, key, probes.get(key))
                elif inspect.isclass(obj):
                    self._wrap_class(obj, key, probes)
        namespaces = [m for n, m in sys.modules.items() if n == package or n.startswith(package + ".")]
        for namespace in namespaces:
            for attr, obj in list(vars(namespace).items()):
                wrapper = replaced.get(id(obj))
                if wrapper is not None and inspect.isfunction(obj):
                    self._patch(namespace, attr, wrapper)

    def _wrap_class(self, cls, key, probes) -> None:
        members = vars(cls)
        for attr, obj in list(members.items()):
            if not inspect.isfunction(obj):
                continue
            if attr.startswith("_") and not (attr == "__init__" and not dataclasses.is_dataclass(cls)):
                continue
            method_key = f"{key}.{attr}"
            wrapper = self._wrap(obj, method_key, probes.get(method_key))
            # Aliases such as ``__call__ = eval`` bind the same function.
            for alias, other in list(members.items()):
                if other is obj:
                    self._patch(cls, alias, wrapper)

    def _patch(self, namespace, attr, wrapper) -> None:
        self._patches.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, wrapper)

    def uninstall(self) -> None:
        for namespace, attr, original in reversed(self._patches):
            setattr(namespace, attr, original)
        self._patches.clear()

    def _wrap(self, fn, key, probe):
        name_id = len(self.keys)
        self.keys.append(key)
        fold = key.endswith("." + OUTERMOST_ONLY)
        names, parents, starts, ends = self.name_of, self.parent, self.start, self.end
        stack, extra, clock = self._stack, self.extra, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if fold:
                if self._folded:
                    return fn(*args, **kwargs)
                self._folded += 1
            index = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
                if fold:
                    self._folded -= 1
            if probe is not None:
                extra[index] = probe(args, kwargs, result)
            return result

        return wrapper

    # -- output ----------------------------------------------------------------

    def self_times(self) -> list[float]:
        covered = [0.0] * len(self.name_of)
        for index, parent in enumerate(self.parent):
            if parent >= 0:
                covered[parent] += self.end[index] - self.start[index]
        return [self.end[i] - self.start[i] - covered[i] for i in range(len(covered))]

    def write(self, path: str) -> None:
        """Write every span as gzipped CSV (times in seconds from the first span)."""
        origin = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", encoding="utf-8", newline="", compresslevel=1) as fh:
            writer = csv.writer(fh)
            writer.writerow(["run", "span", "parent", "layer", "name", "start_s", "end_s", "extra"])
            for index, name_id in enumerate(self.name_of):
                key = self.keys[name_id]
                layer, _, name = key.partition(".")
                writer.writerow([
                    self.run_id,
                    index,
                    self.parent[index],
                    layer,
                    name,
                    f"{self.start[index] - origin:.9f}",
                    f"{self.end[index] - origin:.9f}",
                    "" if index not in self.extra else repr(self.extra[index]),
                ])

    def summary(self) -> dict:
        """Calls, total and self seconds per traced name."""
        selfs = self.self_times()
        out = {key: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for key in self.keys}
        for index, name_id in enumerate(self.name_of):
            row = out[self.keys[name_id]]
            row["calls"] += 1
            row["total_s"] += self.end[index] - self.start[index]
            row["self_s"] += selfs[index]
        return {key: row for key, row in out.items() if row["calls"]}


# ---------------------------------------------------------------------------
# per-layer metrics

HOLODISK_BUILDERS = frozenset({"affine_disk", "blaschke_product", "extremal_family_1d", "parse_disk"})
HOLODISK_BULK = frozenset({"growth_margins", "two_sided_margins", "julia_margins", "certify_in_ball"})
WEIERSTRASS_EVAL = frozenset({"eval", "phi_values", "partials", "conformal_factor", "gauss_normal"})
WEIERSTRASS_BUILDERS = frozenset({
    "planar_disk", "rotated_planar_disk", "translated_planar_disk", "enneper_disk",
    "scaled_into_ball", "save_weierstrass", "load_weierstrass", "surface_sample",
})
CORPUS_BUILDS = frozenset({"holo_corpus", "julia_corpus", "weierstrass_corpus", "corpus_generate"})
OBJECTIVES = frozenset({"search.margin_objective_1d", "search.margin_objective_md"})


def _percentile(values, q):
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, math.ceil(q * len(ordered)) - 1)]


def layer_metrics(tracer: Tracer, report: dict) -> dict:
    """Per-layer metrics from the spans of one traced pass and its JSON report.

    ``harness.suite_s.*`` and ``trace.overhead_s`` need the untraced pass and
    are added by run.py.
    """
    keys = tracer.keys
    names = [keys[i] for i in tracer.name_of]
    parents = tracer.parent
    durations = [e - s for s, e in zip(tracer.start, tracer.end)]
    selfs = tracer.self_times()

    def has_ancestor(index, wanted):
        parent = parents[index]
        while parent >= 0:
            if names[parent] in wanted:
                return True
            parent = parents[parent]
        return False

    def spans(match):
        return [i for i, key in enumerate(names) if match(key)]

    def self_sum(match):
        return sum(selfs[i] for i in spans(match))

    def module_function(layer, allowed=None, excluded=frozenset()):
        def match(key):
            mod, _, rest = key.partition(".")
            if mod != layer or "." in rest:
                return False
            return (allowed is None or rest in allowed) and rest not in excluded

        return match

    metrics = {}

    # ballgeom
    apply = spans(lambda k: k == "ballgeom.BallAutomorphism.apply")
    differential = spans(lambda k: k == "ballgeom.BallAutomorphism.differential")
    moved = apply + differential
    metrics["ballgeom.construct_calls"] = len(spans(lambda k: k == "ballgeom.BallAutomorphism.__init__"))
    metrics["ballgeom.apply_calls"] = len(apply)
    metrics["ballgeom.apply_self_s"] = sum(selfs[i] for i in apply)
    metrics["ballgeom.differential_calls"] = len(differential)
    metrics["ballgeom.differential_self_s"] = sum(selfs[i] for i in differential)
    metrics["ballgeom.oracle_self_s"] = self_sum(
        lambda k: k in ("ballgeom.BallAutomorphism.opnorm_oracle", "ballgeom.BallAutomorphism.matrix")
    )
    metrics["ballgeom.dist_self_s"] = self_sum(
        module_function("ballgeom", {"poincare_dist", "cayley_klein_dist", "pseudo_hyperbolic_quotient"})
    )
    metrics["ballgeom.points_per_call"] = (
        sum(tracer.extra.get(i, 0) for i in moved) / len(moved) if moved else 0.0
    )

    # holodisk
    walks = spans(lambda k: k in ("holodisk.HoloDisk.eval", "holodisk.HoloDisk.deriv"))
    metrics["holodisk.walk_calls"] = len(walks)
    metrics["holodisk.walk_1pt_p50_us"] = 1e6 * _percentile(
        [durations[i] for i in walks if tracer.extra.get(i, 0) == 1], 0.5
    )
    metrics["holodisk.check_self_s"] = self_sum(module_function("holodisk", excluded=HOLODISK_BUILDERS))
    bulk_names = {f"holodisk.{n}" for n in HOLODISK_BULK}
    bulk = [i for i in spans(lambda k: k in bulk_names) if not has_ancestor(i, bulk_names)]
    bulk_points = sum(tracer.extra.get(i, 0) for i in bulk)
    metrics["holodisk.bulk_ns_per_point"] = (
        1e9 * sum(durations[i] for i in bulk) / bulk_points if bulk_points else 0.0
    )
    to_text = spans(lambda k: k.startswith("holodisk.") and k.endswith("." + OUTERMOST_ONLY))
    metrics["holodisk.to_text_calls"] = len(to_text)
    metrics["holodisk.to_text_self_s"] = sum(selfs[i] for i in to_text)
    metrics["holodisk.parse_self_s"] = self_sum(lambda k: k == "holodisk.parse_disk")

    # weierstrass
    eval_names = {f"weierstrass.WeierstrassDisk.{n}" for n in WEIERSTRASS_EVAL}
    metrics["weierstrass.eval_points"] = sum(
        tracer.extra.get(i, 0)
        for i in spans(lambda k: k == "weierstrass.WeierstrassDisk.eval")
        if not has_ancestor(i, eval_names)
    )
    metrics["weierstrass.eval_self_s"] = self_sum(lambda k: k in eval_names)
    metrics["weierstrass.check_self_s"] = self_sum(
        module_function("weierstrass", excluded=WEIERSTRASS_BUILDERS)
    )
    max_norm = spans(lambda k: k == "weierstrass.WeierstrassDisk.max_norm")
    metrics["weierstrass.max_norm_calls"] = len(max_norm)
    metrics["weierstrass.max_norm_self_s"] = sum(selfs[i] for i in max_norm)

    # corpus
    build_names = {f"corpus.{n}" for n in CORPUS_BUILDS}
    builds = [i for i in spans(lambda k: k in build_names) if not has_ancestor(i, build_names)]
    metrics["corpus.build_s"] = sum(durations[i] for i in builds)
    metrics["corpus.members"] = sum(tracer.extra.get(i, 0) for i in builds)

    # search
    objective = spans(lambda k: k in OBJECTIVES)
    objective_us = [1e6 * durations[i] for i in objective]
    metrics["search.objective_calls"] = len(objective)
    metrics["search.objective_p50_us"] = _percentile(objective_us, 0.5)
    metrics["search.objective_p99_us"] = _percentile(objective_us, 0.99)
    metrics["search.optimizer_self_s"] = self_sum(
        lambda k: k in ("search.nelder_mead", "search.sharpness_report")
    )
    metrics["search.nm_runs"] = len(spans(lambda k: k == "search.nelder_mead"))
    metrics["search.improving_ratio"] = _improving_ratio(tracer, names, objective)

    # reports
    reports = spans(lambda k: k == "reports.make_report")
    kept = sum(len(s["checks"]) + len(s["failures"]) for s in report["suites"].values())
    metrics["reports.make_report_calls"] = len(reports)
    metrics["reports.make_report_self_s"] = sum(selfs[i] for i in reports)
    metrics["reports.instance_bytes_built"] = sum(tracer.extra.get(i, 0) for i in reports)
    metrics["reports.instance_kept_ratio"] = kept / len(reports) if reports else 0.0

    # harness
    metrics["harness.cases"] = sum(s["cases"] for s in report["suites"].values())
    metrics["harness.self_s"] = self_sum(lambda k: k.startswith("harness."))
    metrics["harness.report_write_s"] = sum(
        durations[i] for i in spans(lambda k: k == "harness.write_report")
    )
    return metrics


def _improving_ratio(tracer, names, objective) -> float:
    """Share of objective calls that lowered the running best of their search."""
    best: dict[int, float] = {}
    improving = 0
    for index in objective:
        root = tracer.parent[index]
        while root >= 0 and names[root] != "search.sharpness_report":
            root = tracer.parent[root]
        value = tracer.extra.get(index, math.inf)
        if value < best.get(root, math.inf):
            best[root] = value
            improving += 1
    return improving / len(objective) if objective else 0.0


def write_summary(tracer: Tracer, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(tracer.summary(), fh, indent=1, sort_keys=True)
        fh.write("\n")


__all__ = ["LAYERS", "Tracer", "layer_metrics", "write_summary"]

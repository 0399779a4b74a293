"""In-memory span tracer that measures libags layers from outside the package.

Every libags module that uses a function of another libags module calls it
through its own namespace (``pipeline.knn_distances``,
``bench.fit_logistic_soft``, ``cli.run_selection``, ...). ``Tracer.installed``
swaps each such name for a wrapper that records a span (name, layer, start,
end, parent), so the product code is traced without being edited. A span's
layer is the module that defines the called function. The workload's entry
point is wrapped the same way in its defining module and is the root span of
one iteration.

Self time is a span's duration minus the time its child spans cover; the
self times of one iteration add up to its root span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

LAYERS = ("data", "model", "score", "geometry", "alloc", "select", "label", "pipeline", "bench", "cli")

# Total self time of each layer. The metric names follow the benchmark's
# metric list, which names some layers by their single public entry point.
LAYER_TOTAL = {
    "data": "data.self_s",
    "model": "model.self_s",
    "score": "score.s",
    "geometry": "geometry.self_s",
    "alloc": "alloc.solve_s",
    "select": "select.self_s",
    "label": "label.s",
    "pipeline": "pipeline.self_s",
    "bench": "bench.self_s",
    "cli": "cli.self_s",
}

# Self time of single functions, reported beside their layer's total.
FUNCTION_SELF = {
    "knn_distances": "geometry.knn_s",
    "knn_density": "geometry.knn_s",
    "support_validity": "geometry.knn_s",
    "similarity_matrix": "geometry.similarity_s",
    "median_knn_distance": "geometry.bandwidth_s",
    "median_pairwise_distance": "geometry.bandwidth_s",
    "build_regions": "select.regions_s",
    "greedy_select": "select.greedy_s",
    "fit_logistic": "model.fit_s",
    "fit_logistic_soft": "model.fit_s",
    "predict_proba": "model.predict_s",
    "rff_encode": "model.encode_s",
    "load_labeled_csv": "data.load_s",
    "load_candidate_csv": "data.load_s",
    "to_json": "pipeline.to_json_s",
}

STAGES = ("scoring_model", "candidate_scores", "geometry", "allocation", "regions", "similarity", "eta", "greedy", "soft_labels")

COUNTS = {
    "select.greedy_calls": "count",
    "select.pilot_picks": "count",
    "select.useful_ratio": "ratio",
    "model.fit_calls": "count",
    "model.epochs_run": "count",
    "geometry.similarity_bytes_computed": "bytes",
    "select.kmeans_temp_bytes_computed": "bytes",
    "pipeline.report_bytes": "bytes",
}

TRACE_TIMES = ("trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s")


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {name: "s" for name in LAYER_TOTAL.values()}
    units.update({name: "s" for name in FUNCTION_SELF.values()})
    units.update(COUNTS)
    units.update({f"pipeline.stage.{stage}_s": "s" for stage in STAGES})
    units.update({name: "s" for name in TRACE_TIMES})
    return units


def _greedy_info(args, result):
    return {"picks": len(result.selected)}


def _similarity_info(args, result):
    n = args["features"].n_rows
    return {"bytes": n * n * 8}


def _regions_info(args, result):
    cand = args["candidate_features"]
    return {"bytes": cand.n_rows * args["n_regions"] * cand.n_cols * 8}


def _fit_info(args, result):
    return {"epochs": len(result.loss_curve)}


def _to_json_info(args, result):
    return {"bytes": len(result)}  # json.dumps output is ASCII


def _selection_info(args, result):
    return {"m_hat": result.m_hat, "stages": dict(result.stage_seconds)}


# Facts read off a call's arguments and result when its span closes.
INFO = {
    "greedy_select": _greedy_info,
    "similarity_matrix": _similarity_info,
    "build_regions": _regions_info,
    "fit_logistic": _fit_info,
    "fit_logistic_soft": _fit_info,
    "to_json": _to_json_info,
    "run_selection": _selection_info,
}


@dataclass
class Span:
    name: str
    layer: str
    parent: int  # index of the enclosing span, -1 for a root
    start: float
    end: float = 0.0
    info: dict = field(default_factory=dict)


class Tracer:
    """Keeps the spans of the current iteration in memory."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []

    def reset(self) -> None:
        self.spans = []
        self._stack = []

    def wrap(self, fn):
        layer = fn.__module__.rsplit(".", 1)[-1]
        name = fn.__name__
        describe = INFO.get(name)
        signature = inspect.signature(fn) if describe else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, layer, self._stack[-1] if self._stack else -1, time.perf_counter())
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if describe is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.info = describe(bound.arguments, result)
            return result

        return traced

    @contextmanager
    def installed(self, package, root):
        """Wrap every cross-module libags call, plus ``root`` = (module, name).

        Originals are restored on exit, so untraced iterations run the
        package exactly as shipped.
        """
        saved = []

        def swap(owner, attr, value):
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, value)

        for layer in LAYERS:
            module = importlib.import_module(f"{package.__name__}.{layer}")
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj.__module__.startswith(package.__name__ + ".") and obj.__module__ != module.__name__:
                    swap(module, attr, self.wrap(obj))
        report_cls = importlib.import_module(f"{package.__name__}.pipeline").SelectionReport
        swap(report_cls, "to_json", self.wrap(report_cls.to_json))
        root_module, root_name = root
        swap(root_module, root_name, self.wrap(getattr(root_module, root_name)))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def iteration_metrics(self) -> dict:
        """Per-layer self times, counters and stage times of the recorded spans."""
        units = per_layer_units()
        out = {name: 0 if unit in ("count", "bytes") else 0.0 for name, unit in units.items()}
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                covered[span.parent] += span.end - span.start
        pilots_seen = set()
        m_hat = 0
        for i, span in enumerate(self.spans):
            self_time = span.end - span.start - covered[i]
            out[LAYER_TOTAL[span.layer]] += self_time
            if span.name in FUNCTION_SELF:
                out[FUNCTION_SELF[span.name]] += self_time
            if span.name == "greedy_select":
                out["select.greedy_calls"] += 1
                # The first greedy pass inside a run_selection is the pilot.
                if span.parent not in pilots_seen:
                    pilots_seen.add(span.parent)
                    out["select.pilot_picks"] += span.info["picks"]
            elif span.name in ("fit_logistic", "fit_logistic_soft"):
                out["model.fit_calls"] += 1
                out["model.epochs_run"] += span.info["epochs"]
            elif span.name == "similarity_matrix":
                out["geometry.similarity_bytes_computed"] += span.info["bytes"]
            elif span.name == "build_regions":
                out["select.kmeans_temp_bytes_computed"] += span.info["bytes"]
            elif span.name == "to_json":
                out["pipeline.report_bytes"] += span.info["bytes"]
            elif span.name == "run_selection":
                m_hat += span.info["m_hat"]
                for stage, seconds in span.info["stages"].items():
                    name = f"pipeline.stage.{stage}_s"
                    if name in out:  # a stage the pipeline no longer has reads 0
                        out[name] += seconds
        if out["select.pilot_picks"]:
            out["select.useful_ratio"] = m_hat / out["select.pilot_picks"]
        roots = [span for span in self.spans if span.parent < 0]
        out["trace.wall_s"] = sum(span.end - span.start for span in roots)
        return out

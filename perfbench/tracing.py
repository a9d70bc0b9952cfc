"""Spans for the traced benchmark pass, recorded from outside delaykit.

A traced pass replaces public delaykit functions with recording wrappers at
module-attribute level and puts the originals back afterwards. A name that
one module re-binds with ``from .x import y`` is wrapped where it is looked
up (``cli.rolling_evaluate``, ``embedding_params.atau_surface``, ...), so
every call goes through exactly one wrapper. Spans stay in memory; the
per-layer metrics are derived from them when the run ends.

Work done inside ``--jobs`` pool workers is not captured: a pooled sweep
shows up as one ``estimators.atau_surface`` block.
"""

from __future__ import annotations

import inspect
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

MODULES = ("systems", "timeseries", "estimators", "embedding_params",
           "forecast", "metrics", "topology", "cli")


@dataclass
class Span:
    """One call across a layer boundary; ``parent`` indexes the caller's span."""

    name: str
    start: float
    end: float
    parent: int | None
    info: dict = field(default_factory=dict)

    @property
    def module(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.duration
    return [span.duration - c for span, c in zip(spans, covered)]


def module_self_times(spans: list[Span]) -> dict[str, float]:
    out = dict.fromkeys(MODULES, 0.0)
    for span, busy in zip(spans, self_times(spans)):
        out[span.module] = out.get(span.module, 0.0) + busy
    return out


class Recorder:
    """Collects spans; the stack of open spans supplies each new span's parent."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    def _run(self, name, start, fn, args, kwargs, describe):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        span = Span(name, start, start, parent)
        self.spans.append(span)
        self._open.append(index)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            span.info["raised"] = 1
            raise
        finally:
            span.end = time.perf_counter()
            self._open.pop()
        if describe is not None:
            span.info.update(describe(args, kwargs, result))
        return result

    def wrap(self, name, fn, describe=None):
        """``fn`` with a span per call. ``describe(bound_arguments, result)``
        returns counts to attach to the span; it runs after the span ends."""
        signature = inspect.signature(fn) if describe is not None else None

        def bound_describe(args, kwargs, result):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            return describe(bound.arguments, result)

        def wrapper(*args, **kwargs):
            return self._run(name, time.perf_counter(), fn, args, kwargs,
                             bound_describe if describe is not None else None)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def tree_class(self, real_tree):
        """A stand-in for ``cKDTree`` that times construction plus query as
        one span: ``estimators.knn`` for ``query`` and
        ``estimators.ball_count`` for ``query_ball_point``."""
        recorder = self

        class TracedTree:
            def __init__(self, data, *args, **kwargs):
                self._start = time.perf_counter()
                self._tree = real_tree(data, *args, **kwargs)

            def query(self, *args, **kwargs):
                return recorder._run("estimators.knn", self._start,
                                     self._tree.query, args, kwargs, None)

            def query_ball_point(self, *args, **kwargs):
                return recorder._run("estimators.ball_count", self._start,
                                     self._tree.query_ball_point, args, kwargs,
                                     None)

        return TracedTree


class Patched:
    """Context manager that installs wrappers and restores the originals.

    ``targets`` is a list of ``(module, attribute, replacement_factory)``;
    the factory receives the original attribute and returns the stand-in.
    """

    def __init__(self, targets):
        self._targets = targets
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self):
        try:
            for module, attr, factory in self._targets:
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, factory(original))
        except BaseException:
            self._restore()
            raise
        return self

    def _restore(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def __exit__(self, *exc):
        self._restore()
        return False


# --------------------------------------------------------------------------
# what each wrapped function counts


def _rk4(a, result):
    steps = max(int(a["steps"]) - 1, 0)
    dim = len(a["x0"])
    return {"rk4_steps": steps, "rk4_state_steps": steps * dim}


def _map_trace(a, result):
    return {"map_iterates": int(a["spec"].n)}


def _io(a, result):
    return {"io_bytes": os.path.getsize(a["path"])}


def _surface(a, result):
    values = result.values
    return {"atau_cells": int(values.size),
            "atau_valid": int((~np.isnan(values)).sum())}


def _ksg(a, result):
    return {"ksg_samples": len(a["x_points"])}


def _rolling(a, result):
    method = a["method"] if isinstance(a["method"], str) else "custom"
    info = {"method": method}
    if method == "ar":
        blocks = math.ceil(result.truth.size / a["h"])
        info["ar_refits"] = math.ceil(blocks / a["refit_every"])
        info["ar_fallbacks"] = int(result.params.get("fallbacks", 0))
    return info


def _lma(a, result):
    return {"lma_queries": int(a["steps"])}


def _geometry_bytes(landmarks: int, witnesses: int) -> int:
    # _WitnessGeometry keeps float64 distances (8 B), the float32
    # membership copy (4 B) and the boolean membership mask (1 B) per
    # landmark-witness pair
    return 13 * landmarks * witnesses


def _complex(a, result):
    return {"edges": int(result.edges.shape[0]),
            "triangles": int(result.triangles.shape[0]),
            "geometry_bytes": _geometry_bytes(len(a["landmarks"]), len(a["cloud"]))}


def _betti(a, result):
    snapshot = a["snapshot"]
    return {"edges": int(snapshot.edges.shape[0]),
            "triangles": int(snapshot.triangles.shape[0])}


def _barcode(a, result):
    return {"scales": len(list(a["eps_grid"])),
            "geometry_bytes": _geometry_bytes(len(a["landmarks"]), len(a["cloud"]))}


def _lifespan(a, result):
    values = a["series"]
    n = len(getattr(values, "values", values))
    return {"geometry_bytes": _geometry_bytes(int(a["ell"]), n)}


def _main(a, result):
    return {"failed_exits": int(result != 0)}


def delaykit_targets(recorder: Recorder, dk: dict) -> list:
    """Every wrapped lookup site. ``dk`` maps module names to the imported
    delaykit modules."""
    def span(name, describe=None):
        return lambda original: recorder.wrap(name, original, describe)

    sites = {
        "systems": [
            (("systems",), "integrate_rk4", _rk4),
            (("systems", "cli"), "generate_flow_trace", None),
            (("systems", "cli"), "generate_map_trace", _map_trace),
        ],
        "timeseries": [
            (("timeseries", "cli"), "load_series", _io),
            (("timeseries", "cli"), "save_series", _io),
        ],
        "estimators": [
            (("estimators", "embedding_params", "cli"), "atau_surface", _surface),
            (("estimators",), "active_information_storage", None),
            (("estimators",), "ksg_mutual_information", _ksg),
            (("estimators", "embedding_params", "cli"),
             "td_mutual_information_curve", None),
            (("estimators", "cli"), "permutation_entropy", None),
            (("estimators", "cli"), "weighted_permutation_entropy", None),
        ],
        "embedding_params": [
            (("embedding_params", "cli"), "tau_first_min_mi", None),
            (("embedding_params", "cli"), "estimate_m_fnn", None),
            (("embedding_params", "cli"), "fnn_fraction", None),
            (("embedding_params", "cli"), "atau_optimal_params", None),
        ],
        "forecast": [
            (("forecast", "cli"), "rolling_evaluate", _rolling),
            (("forecast",), "forecast_lma", _lma),
        ],
        "metrics": [
            (("metrics", "forecast"), "h_mase", None),
        ],
        "topology": [
            (("topology", "cli"), "select_landmarks", None),
            (("topology", "cli"), "scaled_epsilon", None),
            (("topology", "cli"), "build_complex", _complex),
            (("topology", "cli"), "betti_numbers", _betti),
            (("topology", "cli"), "epsilon_barcode", _barcode),
            (("topology", "cli"), "edge_lifespan_diagram", _lifespan),
        ],
        "cli": [
            (("cli",), "main", _main),
            (("cli",), "run_generate", None),
            (("cli",), "run_sweep", None),
            (("cli",), "run_select_params", None),
            (("cli",), "run_forecast", None),
            (("cli",), "run_wpe", None),
            (("cli",), "run_topology", None),
        ],
    }
    targets = []
    for owner, entries in sites.items():
        for lookup_sites, attr, describe in entries:
            name = f"{owner}.{attr.removeprefix('run_') if owner == 'cli' else attr}"
            for site in lookup_sites:
                targets.append((dk[site], attr, span(name, describe)))
    targets.append((dk["estimators"], "cKDTree", recorder.tree_class))
    return targets


# --------------------------------------------------------------------------
# per-layer metrics


def _sum(spans, name, key=None):
    """Total duration (or total ``info[key]``) of the spans called ``name``."""
    return sum(span.duration if key is None else span.info.get(key, 0)
               for span in spans if span.name == name)


def _count(spans, name):
    return sum(1 for span in spans if span.name == name)


def _ratio(num, den, scale=1.0):
    return num / den * scale if den else 0.0


def layer_metrics(spans: list[Span], passes: int, pass_wall_s: float) -> dict:
    """Per-pass averages of the layer counters and busy times.

    ``pass_wall_s`` is the mean traced pass time, the denominator of the
    ``<module>.self_share`` figures. Ratios whose base is zero (the layer
    did not run) read 0.
    """
    busy = {m: t / passes for m, t in module_self_times(spans).items()}
    selves = self_times(spans)
    s = spans

    def per_pass(value):
        return value / passes

    cli_self = sum(t for span, t in zip(spans, selves) if span.module == "cli")
    rk4_s = _sum(s, "systems.integrate_rk4")
    state_steps = _sum(s, "systems.integrate_rk4", "rk4_state_steps")
    ksg_s = _sum(s, "estimators.ksg_mutual_information")
    ksg_samples = _sum(s, "estimators.ksg_mutual_information", "ksg_samples")
    cells = _sum(s, "estimators.atau_surface", "atau_cells")
    lma_s = _sum(s, "forecast.forecast_lma")
    lma_queries = _sum(s, "forecast.forecast_lma", "lma_queries")
    def rolling_self_s(*methods):
        return sum(t for span, t in zip(spans, selves)
                   if span.name == "forecast.rolling_evaluate"
                   and span.info.get("method") in methods)

    ar_s = rolling_self_s("ar")
    baseline_s = rolling_self_s("random_walk", "naive")
    refits = _sum(s, "forecast.rolling_evaluate", "ar_refits")
    barcode_s = _sum(s, "topology.epsilon_barcode")
    scales = _sum(s, "topology.epsilon_barcode", "scales")
    geometry = max((span.info.get("geometry_bytes", 0) for span in s), default=0)

    out = {
        "systems.busy_s": busy["systems"],
        "systems.traces": per_pass(_count(s, "systems.generate_flow_trace")
                                   + _count(s, "systems.generate_map_trace")),
        "systems.rk4_steps": per_pass(_sum(s, "systems.integrate_rk4", "rk4_steps")),
        "systems.rk4_state_steps": per_pass(state_steps),
        "systems.ns_per_state_step": _ratio(rk4_s, state_steps, 1e9),
        "systems.map_iterates": per_pass(_sum(s, "systems.generate_map_trace",
                                              "map_iterates")),
        "estimators.atau_surface_s": per_pass(_sum(s, "estimators.atau_surface")),
        "estimators.atau_cells": per_pass(cells),
        "estimators.atau_cell_yield": _ratio(
            _sum(s, "estimators.atau_surface", "atau_valid"), cells),
        "estimators.ais_calls": per_pass(_count(s, "estimators.active_information_storage")),
        "estimators.ais_s": per_pass(_sum(s, "estimators.active_information_storage")),
        "estimators.ksg_calls": per_pass(_count(s, "estimators.ksg_mutual_information")),
        "estimators.ksg_s": per_pass(ksg_s),
        "estimators.ksg_samples": per_pass(ksg_samples),
        "estimators.us_per_ksg_sample": _ratio(ksg_s, ksg_samples, 1e6),
        "estimators.knn_s": per_pass(_sum(s, "estimators.knn")),
        "estimators.ball_count_s": per_pass(_sum(s, "estimators.ball_count")),
        "estimators.mi_curve_s": per_pass(
            _sum(s, "estimators.td_mutual_information_curve")),
        "estimators.pe_s": per_pass(_sum(s, "estimators.permutation_entropy")
                                    + _sum(s, "estimators.weighted_permutation_entropy")),
        "embedding_params.busy_s": busy["embedding_params"],
        "embedding_params.fnn_calls": per_pass(_count(s, "embedding_params.fnn_fraction")),
        "forecast.lma_s": per_pass(lma_s),
        "forecast.lma_queries": per_pass(lma_queries),
        "forecast.us_per_lma_query": _ratio(lma_s, lma_queries, 1e6),
        "forecast.ar_s": per_pass(ar_s),
        "forecast.ar_refits": per_pass(refits),
        "forecast.ar_fallbacks": per_pass(_sum(s, "forecast.rolling_evaluate",
                                               "ar_fallbacks")),
        "forecast.ms_per_ar_refit": _ratio(ar_s, refits, 1e3),
        "forecast.baseline_s": per_pass(baseline_s),
        "metrics.h_mase_s": per_pass(_sum(s, "metrics.h_mase")),
        "metrics.h_mase_calls": per_pass(_count(s, "metrics.h_mase")),
        "topology.landmarks_s": per_pass(_sum(s, "topology.select_landmarks")),
        "topology.build_complex_s": per_pass(_sum(s, "topology.build_complex")),
        "topology.betti_s": per_pass(_sum(s, "topology.betti_numbers")),
        "topology.barcode_s": per_pass(barcode_s),
        "topology.lifespan_s": per_pass(_sum(s, "topology.edge_lifespan_diagram")),
        "topology.scales": per_pass(scales),
        "topology.ms_per_scale": _ratio(barcode_s, scales, 1e3),
        "topology.edges": per_pass(_sum(s, "topology.betti_numbers", "edges")),
        "topology.triangles": per_pass(_sum(s, "topology.betti_numbers", "triangles")),
        "topology.geometry_bytes": float(geometry),
        "timeseries.io_s": per_pass(_sum(s, "timeseries.load_series")
                                    + _sum(s, "timeseries.save_series")),
        "timeseries.io_bytes": per_pass(_sum(s, "timeseries.load_series", "io_bytes")
                                        + _sum(s, "timeseries.save_series", "io_bytes")),
        "cli.self_s": per_pass(cli_self),
        "cli.failed_exits": per_pass(_sum(s, "cli.main", "failed_exits")),
    }
    for command in ("generate", "sweep", "select_params", "forecast", "wpe", "topology"):
        out[f"cli.{command}_s"] = per_pass(_sum(s, f"cli.{command}"))
    for module in MODULES:
        out[f"{module}.self_share"] = _ratio(busy[module], pass_wall_s)
    return out

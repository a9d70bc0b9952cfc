"""The traced benchmark pass wraps delaykit functions by module attribute
(``perfbench/tracing.py``), so a refactor that drops or renames an import
breaks it. This checks every wrapped lookup site against the package."""

import importlib.util
import sys
from pathlib import Path

import delaykit
from delaykit import (
    cli,
    embedding_params,
    estimators,
    forecast,
    metrics,
    systems,
    timeseries,
    topology,
)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
MODULES = {"systems": systems, "timeseries": timeseries, "estimators": estimators,
           "embedding_params": embedding_params, "forecast": forecast,
           "metrics": metrics, "topology": topology, "cli": cli}


def load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("delaykit_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while it executes
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_lookup_site_exists(monkeypatch):
    tracing = load_tracing(monkeypatch)
    targets = tracing.delaykit_targets(tracing.Recorder(), MODULES)
    missing = [f"{module.__name__}.{attr}" for module, attr, _ in targets
               if not hasattr(module, attr)]
    assert missing == []
    # the table reaches every module it names
    assert {module.__name__ for module, _, _ in targets} == {
        f"{delaykit.__name__}.{name}" for name in MODULES}

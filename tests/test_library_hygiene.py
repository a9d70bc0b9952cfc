"""Library modules never print: only the CLI writes to stdout or stderr.
No module starts processes: grids run their cells on threads. Only the flow
stepper generator compiles code, and the code it generates obeys the same
rules. Only the edge-filtration kernel passes over the witnesses. Only
``timeseries`` scans inputs for non-finite values. The public namespace
holds the names listed here and no others."""

import ast
from pathlib import Path

import pytest

import delaykit
from delaykit import systems

PACKAGE = Path(delaykit.__file__).parent
CLI_MODULES = {"cli.py", "__main__.py"}
MODULES = sorted(p.name for p in PACKAGE.glob("*.py"))
LIBRARY_MODULES = [name for name in MODULES if name not in CLI_MODULES]


def console_uses(source: str) -> list[str]:
    """Each ``print(...)`` call and each use of ``sys.stdout``/``sys.stderr``
    (attribute or ``from sys import``), as ``line: what``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "print"):
            found.append(f"{node.lineno}: print")
        elif (isinstance(node, ast.Attribute) and node.attr in ("stdout", "stderr")
              and isinstance(node.value, ast.Name) and node.value.id == "sys"):
            found.append(f"{node.lineno}: sys.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "sys":
            found += [f"{node.lineno}: from sys import {a.name}"
                      for a in node.names if a.name in ("stdout", "stderr")]
    return found


def test_library_modules_found():
    assert {"estimators.py", "topology.py", "__init__.py"} <= set(LIBRARY_MODULES)


@pytest.mark.parametrize("module", LIBRARY_MODULES)
def test_library_never_prints(module):
    assert console_uses((PACKAGE / module).read_text(encoding="utf-8")) == []


def test_guard_catches_console_writes():
    source = ("import sys\nfrom sys import stderr\nprint('x')\n"
              "sys.stdout.write('y')\n")
    assert console_uses(source) == ["2: from sys import stderr", "3: print",
                                    "4: sys.stdout"]


def process_uses(source: str) -> list[str]:
    """Each import of ``multiprocessing`` or one of its submodules, and
    each import or attribute use of ``ProcessPoolExecutor``, as
    ``line: what``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [f"{node.lineno}: import {a.name}" for a in node.names
                      if a.name.partition(".")[0] == "multiprocessing"]
        elif isinstance(node, ast.ImportFrom):
            if (node.module or "").partition(".")[0] == "multiprocessing":
                found.append(f"{node.lineno}: from {node.module}")
            found += [f"{node.lineno}: import {a.name}" for a in node.names
                      if a.name == "ProcessPoolExecutor"]
        elif isinstance(node, ast.Attribute) and node.attr == "ProcessPoolExecutor":
            found.append(f"{node.lineno}: .ProcessPoolExecutor")
    return found


@pytest.mark.parametrize("module", MODULES)
def test_no_module_starts_processes(module):
    assert process_uses((PACKAGE / module).read_text(encoding="utf-8")) == []


def test_guard_catches_process_pools():
    source = ("import os, multiprocessing.pool\nfrom multiprocessing import Pool\n"
              "from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor\n"
              "import concurrent.futures as cf\ncf.ProcessPoolExecutor()\n"
              "import multiprocessing_helpers\n")
    assert process_uses(source) == ["1: import multiprocessing.pool",
                                    "2: from multiprocessing",
                                    "3: import ProcessPoolExecutor",
                                    "5: .ProcessPoolExecutor"]


def called(func, attributes: bool = False):
    """The name a call's ``func`` node calls: ``name(...)``, and with
    ``attributes`` also ``x.name(...)``; None otherwise."""
    if isinstance(func, ast.Name):
        return func.id
    return func.attr if attributes and isinstance(func, ast.Attribute) else None


def labelled_calls(source: str, label) -> list[str]:
    """Each call that ``label(call)`` names, as ``function: name`` with the
    innermost enclosing function."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and label(child):
                found.append(f"{where}: {label(child)}")
            is_function = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if is_function else where)

    visit(ast.parse(source), "<module>")
    return found


def call_sites(source: str, names, attributes: bool = False) -> list[str]:
    """Each call of one of ``names``, as ``function: name``; with
    ``attributes``, ``x.name(...)`` counts too."""
    def label(call):
        name = called(call.func, attributes)
        return name if name in names else None

    return labelled_calls(source, label)


def code_generation_uses(source: str) -> list[str]:
    """Each call of the ``exec``, ``eval`` or ``compile`` builtins."""
    return call_sites(source, ("exec", "eval", "compile"))


def test_only_the_flow_generator_compiles_code():
    uses = {module: code_generation_uses((PACKAGE / module).read_text(encoding="utf-8"))
            for module in MODULES}
    assert {module: found for module, found in uses.items() if found} == {
        "systems.py": ["_float_kernels: exec", "_float_kernels: compile"]}


def test_guard_catches_code_generation():
    source = ("exec('1')\ndef f():\n    def g():\n        compile('', '', 'exec')\n"
              "    eval('2')\nimport re\nre.compile('x')\n")
    assert code_generation_uses(source) == ["<module>: exec", "g: compile", "f: eval"]


def witness_passes(source: str) -> list[str]:
    """Each call of ``topology._witness_blocks``, by name or attribute."""
    return call_sites(source, ("_witness_blocks",), attributes=True)


def test_only_the_edge_filtration_kernel_passes_over_the_witnesses():
    uses = {module: witness_passes((PACKAGE / module).read_text(encoding="utf-8"))
            for module in MODULES}
    assert {module: found for module, found in uses.items() if found} == {
        "topology.py": ["_edge_levels: _witness_blocks"]}


def test_guard_catches_witness_passes():
    source = ("def f(c, lm):\n    return [b for b in _witness_blocks(c, lm)]\n"
              "def g(c, lm):\n    topology._witness_blocks(c, lm)\n"
              "def h():\n    return _witness_blocks\n")
    assert witness_passes(source) == ["f: _witness_blocks", "g: _witness_blocks"]


def generated_sources() -> list[str]:
    """The source of every stepper ``FlowSpec`` fields can compile."""
    specs = [systems.FlowSpec("lorenz63"), systems.FlowSpec("rossler")]
    specs += [systems.FlowSpec("lorenz96", {"K": k})
              for k in range(4, systems._FLOAT_MAX_DIMENSION + 1)]
    return [systems._float_source(*spec._float_shape()) for spec in specs]


def test_generated_steppers_obey_the_library_rules():
    sources = generated_sources()
    assert len(sources) == systems._FLOAT_MAX_DIMENSION - 1
    for source in sources:
        assert console_uses(source) == []
        assert process_uses(source) == []
        assert code_generation_uses(source) == []


def finiteness_scans(source: str) -> list[str]:
    """Each ``all(isfinite(...))`` call, by name or attribute, such as
    ``np.all(np.isfinite(x))``."""
    def label(call):
        inner = call.args[0] if call.args else None
        if (called(call.func, True) == "all" and isinstance(inner, ast.Call)
                and called(inner.func, True) == "isfinite"):
            return "all(isfinite)"
        return None

    return labelled_calls(source, label)


def test_only_timeseries_scans_for_non_finite_values():
    uses = {module: finiteness_scans((PACKAGE / module).read_text(encoding="utf-8"))
            for module in MODULES}
    assert {module: found for module, found in uses.items() if found} == {
        "timeseries.py": ["_finite_array: all(isfinite)"]}


def test_guard_catches_finiteness_scans():
    source = ("import numpy as np\ndef f(x):\n    return np.all(np.isfinite(x))\n"
              "def g(x):\n    return all(isfinite(x)) or np.all(x)\n"
              "np.all(np.isnan(x))\nnp.isfinite(x)\n")
    assert finiteness_scans(source) == ["f: all(isfinite)", "g: all(isfinite)"]


PUBLIC_NAMES = {
    # errors
    "CapacityError", "DegenerateSeriesError", "DelayKitError", "DivergenceError",
    "NoEmbeddingFoundError", "NoMinimumError", "NoNeighborError",
    "NoZeroCrossingError", "SeriesFormatError", "ValidationError",
    # timeseries
    "DelayReconstruction", "ScalarSeries", "TrainTestSplit", "delay_reconstruct",
    "load_series", "save_series", "split",
    # systems
    "FlowSpec", "MapSpec", "default_initial_state", "generate_flow_trace",
    "generate_map_trace", "integrate_rk4",
    # estimators
    "SweepGrid", "active_information_storage", "atau_surface", "autocorrelation",
    "binned_mutual_information", "ksg_mutual_information", "permutation_entropy",
    "select_word_length", "td_mutual_information_curve",
    "weighted_permutation_entropy",
    # embedding_params
    "FnnConfig", "ParamChoice", "atau_optimal_params", "estimate_m_fnn",
    "fnn_fraction", "tau_first_min_mi", "tau_first_zero_autocorr",
    # forecast and metrics
    "ForecastRun", "forecast_ar", "forecast_lma", "rolling_evaluate",
    "MaseScore", "h_mase",
    # topology
    "Barcode", "LandmarkSet", "WitnessComplexSnapshot", "betti_numbers",
    "build_complex", "edge_lifespan_diagram", "epsilon_barcode", "scaled_epsilon",
    "select_landmarks",
    # the library modules themselves
    "embedding_params", "errors", "estimators", "forecast", "metrics", "systems",
    "timeseries", "topology",
}


def test_public_namespace_is_pinned():
    # a new public name is a design decision: add it here on purpose. The
    # CLI module joins the package namespace once anything imports it.
    names = {name for name in dir(delaykit) if not name.startswith("_")} - {"cli"}
    assert names == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == 63

"""Library modules never print: only the CLI writes to stdout or stderr.
No module starts processes: grids run their cells on threads. Only the flow
stepper generator compiles code, and the code it generates obeys the same
rules. Only the edge-filtration kernel passes over the witnesses, only
the pass multiplies matrices in ``topology``, and only ``build_complex``
lists triangles. Only the exact-neighbour index of ``_neighbours`` queries
a tree among the modules of analogues and false neighbours, and only it
and ``estimators`` import ``scipy.spatial``. Only the rolling driver of
``forecast`` gathers the samples before each block, and no per-method
adapter wraps the built-in forecasters. No module scatters with a
ufunc's unbuffered ``at``. Only ``timeseries`` scans inputs for non-finite
values.
The public namespace holds the names listed here and no others."""

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
    """Each call (or other node) that ``label(node)`` names, as
    ``function: name`` with the innermost enclosing function."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if label(child):
                found.append(f"{where}: {label(child)}")
            is_function = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if is_function else where)

    visit(ast.parse(source), "<module>")
    return found


def call_sites(source: str, names, attributes: bool = False) -> list[str]:
    """Each call of one of ``names``, as ``function: name``; with
    ``attributes``, ``x.name(...)`` counts too."""
    def label(node):
        name = called(node.func, attributes) if isinstance(node, ast.Call) else None
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


def matrix_products(source: str) -> list[str]:
    """Each matrix product: a call of ``matmul`` or ``dot``, by name or
    attribute, and each ``@`` or ``@=``."""
    def label(node):
        if isinstance(node, ast.Call):
            name = called(node.func, True)
            return name if name in ("matmul", "dot") else None
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
            return "@"
        if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.MatMult):
            return "@="
        return None

    return labelled_calls(source, label)


def test_only_the_witness_pass_multiplies_matrices():
    # the distances of the pass's geometry step, inside _witness_blocks;
    # the edge filtration has one reducer, the landmark rows, and a Gram
    # product of memberships would be a second
    source = (PACKAGE / "topology.py").read_text(encoding="utf-8")
    assert matrix_products(source) == ["geometry: matmul"]


def test_guard_catches_matrix_products():
    source = ("import numpy as np\ndef f(a, b):\n    return a @ b.T > 0\n"
              "def g(a, b):\n    a @= b\n    return np.matmul(a, b), dot(a, b)\n"
              "def h(a, b):\n    return np.matmul, a * b, a.dot(b)\n")
    assert matrix_products(source) == ["f: @", "g: @=", "g: matmul", "g: dot",
                                       "h: dot"]


def triangle_listings(source: str) -> list[str]:
    """Each call of ``topology._triangles_from_adjacency``, by name or
    attribute."""
    return call_sites(source, ("_triangles_from_adjacency",), attributes=True)


def test_only_build_complex_lists_triangles():
    # analyses read the clique complex off the edge positions: a triangle
    # list grows as ell^3
    uses = {module: triangle_listings((PACKAGE / module).read_text(encoding="utf-8"))
            for module in MODULES}
    assert {module: found for module, found in uses.items() if found} == {
        "topology.py": ["build_complex: _triangles_from_adjacency"]}


def test_guard_catches_triangle_listings():
    source = ("def f(adj, e):\n    return _triangles_from_adjacency(adj, e)\n"
              "def g(adj, e):\n    topology._triangles_from_adjacency(adj, e)\n"
              "def h():\n    return _triangles_from_adjacency\n")
    assert triangle_listings(source) == ["f: _triangles_from_adjacency",
                                         "g: _triangles_from_adjacency"]


def tree_queries(source: str) -> list[str]:
    """Each ``x.query(...)`` call, such as a ``cKDTree`` nearest-neighbour
    search."""
    return call_sites(source, ("query",), attributes=True)


def test_only_the_exact_neighbour_helper_queries_trees():
    # analogue forecasts and false neighbours share one tie rule: the scan
    # distance re-ranks the tree's proposals and the smallest row wins
    uses = {module: tree_queries((PACKAGE / module).read_text(encoding="utf-8"))
            for module in ("forecast.py", "embedding_params.py", "_neighbours.py")}
    assert uses == {"forecast.py": [], "embedding_params.py": [],
                    "_neighbours.py": ["nearest: query"]}


def test_guard_catches_tree_queries():
    source = ("def f(base):\n    return cKDTree(base).query(base, k=2)\n"
              "def g(tree, q):\n    d, i = tree.query(q, k=3, workers=-1)\n"
              "def h(tree, q):\n    return tree.query_ball_point(q, 1.0), query\n")
    assert tree_queries(source) == ["f: query", "g: query"]


def block_gathers(source: str) -> list[str]:
    """Each call of ``sliding_window_view``, by name or attribute: the
    gather of the samples before each rolling block."""
    return call_sites(source, ("sliding_window_view",), attributes=True)


def test_forecasts_roll_in_one_step_loop():
    # the AR and analogue blocks are step functions of one driver, and
    # the dispatch calls them without an adapter
    source = (PACKAGE / "forecast.py").read_text(encoding="utf-8")
    assert block_gathers(source) == ["_roll: sliding_window_view"]
    defined = {node.name for node in ast.walk(ast.parse(source))
               if isinstance(node, ast.FunctionDef)}
    assert not defined & {"_per_block", "_run_forecaster"}


def test_guard_catches_block_gathers():
    source = ("def f(x, w):\n    return sliding_window_view(x, w)[::2]\n"
              "def g(x, w):\n    np.lib.stride_tricks.sliding_window_view(x, w)\n"
              "def h():\n    return sliding_window_view\n")
    assert block_gathers(source) == ["f: sliding_window_view",
                                     "g: sliding_window_view"]


def spatial_imports(source: str) -> list[str]:
    """Each import of ``scipy.spatial`` or one of its submodules, as
    ``line: what``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [f"{node.lineno}: import {a.name}" for a in node.names
                      if a.name.startswith("scipy.spatial")]
        elif isinstance(node, ast.ImportFrom):
            if (node.module or "").startswith("scipy.spatial"):
                found.append(f"{node.lineno}: from {node.module}")
            elif node.module == "scipy":
                found += [f"{node.lineno}: from scipy import spatial"
                          for a in node.names if a.name == "spatial"]
    return found


def test_only_the_neighbour_module_and_ksg_import_spatial_trees():
    # every other tree is built by the exact-neighbour index
    uses = {module: spatial_imports((PACKAGE / module).read_text(encoding="utf-8"))
            for module in MODULES}
    assert sorted(module for module, found in uses.items() if found) == [
        "_neighbours.py", "estimators.py"]


def test_guard_catches_spatial_imports():
    source = ("import scipy.spatial\nfrom scipy.spatial import cKDTree\n"
              "from scipy import spatial, special\nimport scipy.spatial.distance as d\n"
              "from scipy.spatial.distance import cdist\nfrom scipy.special import digamma\n"
              "import scipy\n")
    assert spatial_imports(source) == ["1: import scipy.spatial",
                                       "2: from scipy.spatial",
                                       "3: from scipy import spatial",
                                       "4: import scipy.spatial.distance",
                                       "5: from scipy.spatial.distance"]


def ufunc_at_uses(source: str) -> list[str]:
    """Each use of an ``at`` attribute, such as ``np.minimum.at``, called
    or not, as ``line: what``."""
    return [f"{node.lineno}: {ast.unparse(node)}" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and node.attr == "at"]


@pytest.mark.parametrize("module", MODULES)
def test_no_module_scatters_with_ufunc_at(module):
    # a pair scatter's work grows as k^2 per witness in k fuzzy sets
    assert ufunc_at_uses((PACKAGE / module).read_text(encoding="utf-8")) == []


def test_guard_catches_ufunc_at():
    source = ("import numpy as np\nnp.minimum.at(a, i, v)\ndef f(a, i):\n"
              "    scatter = np.add.at\n    scatter(a, i, 1)\n"
              "from numpy import maximum\nmaximum.at(a, i, v)\n"
              "np.minimum(a, v)\nx.attach(a)\n")
    assert ufunc_at_uses(source) == ["2: np.minimum.at", "4: np.add.at",
                                     "7: maximum.at"]


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
        assert ufunc_at_uses(source) == []


def finiteness_scans(source: str) -> list[str]:
    """Each ``all(isfinite(...))`` call, by name or attribute, such as
    ``np.all(np.isfinite(x))``."""
    def label(call):
        if not isinstance(call, ast.Call):
            return None
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

"""Library modules never print: only the CLI writes to stdout or stderr.
No module starts processes: grids run their cells on threads. Only the flow
stepper generator compiles code, and the code it generates obeys the same
rules."""

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


def code_generation_uses(source: str) -> list[str]:
    """Each call of the ``exec``, ``eval`` or ``compile`` builtins, as
    ``function: name`` with the innermost enclosing function."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                    and child.func.id in ("exec", "eval", "compile")):
                found.append(f"{where}: {child.func.id}")
            is_function = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if is_function else where)

    visit(ast.parse(source), "<module>")
    return found


def test_only_the_flow_generator_compiles_code():
    uses = {module: code_generation_uses((PACKAGE / module).read_text(encoding="utf-8"))
            for module in MODULES}
    assert {module: found for module, found in uses.items() if found} == {
        "systems.py": ["_float_kernels: exec", "_float_kernels: compile"]}


def test_guard_catches_code_generation():
    source = ("exec('1')\ndef f():\n    def g():\n        compile('', '', 'exec')\n"
              "    eval('2')\nimport re\nre.compile('x')\n")
    assert code_generation_uses(source) == ["<module>: exec", "g: compile", "f: eval"]


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

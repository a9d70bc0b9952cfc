"""Library modules never print: only the CLI writes to stdout or stderr.
No module starts processes: grids run their cells on threads."""

import ast
from pathlib import Path

import pytest

import delaykit

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

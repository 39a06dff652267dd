"""The package holds no production code that only tests call.

Every module-level function and class in src/cbfrrt must be read somewhere
in the package besides its own definition, or be exported in
cbfrrt.__all__. A name counts as read where it appears as a Name or as an
attribute (`harness.load_sweep`); an import does not count.

Every method or property of a class in src/cbfrrt, dunders aside, must be
read as an attribute (`trajectory.t_end`) in the package besides its own
definition, or in the benchmark (perfbench/*.py), whose reads count too.
Methods are matched by name, so a read of one class's `position` counts for
every class that defines one.

The README's Layout block lists exactly the package's modules.

`import cbfrrt` loads no module that only compare needs, and no module of
the package imports numpy.
"""

import ast
import os
import pathlib
import re
import subprocess
import sys
from collections import Counter

import cbfrrt

PACKAGE = pathlib.Path(cbfrrt.__file__).parent
ROOT = pathlib.Path(__file__).resolve().parents[1]
BENCHMARK = ROOT / "perfbench"


def _read_names(node) -> set[str]:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


def _parse(paths) -> list[ast.Module]:
    return [ast.parse(path.read_text(), filename=str(path)) for path in sorted(paths)]


def test_every_definition_is_read_or_exported():
    definitions = []  # (module, name, the definition's node)
    statements = []  # every top-level statement of the package
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for stmt in tree.body:
            statements.append(stmt)
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                definitions.append((path.stem, stmt.name, stmt))
    read = {id(stmt): _read_names(stmt) for stmt in statements}
    unread = [
        f"{module}.{name}" for module, name, node in definitions
        if name not in cbfrrt.__all__
        and not any(name in read[id(stmt)] for stmt in statements if stmt is not node)
    ]
    assert unread == []


def test_every_method_is_read():
    package = _parse(PACKAGE.glob("*.py"))
    methods = [
        (cls.name, stmt)
        for module in package for cls in ast.walk(module) if isinstance(cls, ast.ClassDef)
        for stmt in cls.body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (stmt.name.startswith("__") and stmt.name.endswith("__"))
    ]
    reads = Counter(sub.attr for module in package + _parse(BENCHMARK.glob("*.py"))
                    for sub in ast.walk(module) if isinstance(sub, ast.Attribute))
    unread = [
        f"{cls}.{method.name}" for cls, method in methods
        if reads[method.name] == sum(isinstance(sub, ast.Attribute)
                                     and sub.attr == method.name
                                     for sub in ast.walk(method))
    ]
    assert unread == []


def test_readme_layout_lists_every_module():
    # a module in the block that the package no longer has, or one it left
    # out, tells a reader the wrong layout
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"^## Layout\n+```\n(.*?)^```", readme, re.M | re.S).group(1)
    listed = re.findall(r"^  (\w+\.py) ", block, re.M)
    modules = [path.name for path in sorted(PACKAGE.glob("*.py"))
               if path.name != "__init__.py"]
    assert sorted(listed) == modules


def test_import_loads_no_compare_only_module():
    # statistics, compare's medians, pulls in fractions and decimal (3 to
    # 4 ms); compare imports it, so a plain import must not
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")])}
    code = ("import sys, cbfrrt; print(sorted(m for m in "
            "('statistics', 'fractions', 'decimal') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def test_no_module_imports_numpy():
    # the planner's stream, the audit, the tree.json writer and the
    # baselines' grid queries are plain Python: the package has no runtime
    # dependency, and only the tests use numpy, as their oracle
    importers = set()
    for path, module in zip(sorted(PACKAGE.glob("*.py")), _parse(PACKAGE.glob("*.py"))):
        for node in ast.walk(module):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            if any(name.split(".")[0] == "numpy" for name in names):
                importers.add(path.name)
    assert importers == set()

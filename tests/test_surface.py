"""The package holds no production code that only tests call.

Every module-level function and class in src/cbfrrt must be read somewhere
in the package besides its own definition, or be exported in
cbfrrt.__all__. A name counts as read where it appears as a Name or as an
attribute (`harness.load_sweep`); an import does not count.
"""

import ast
import pathlib

import cbfrrt

PACKAGE = pathlib.Path(cbfrrt.__file__).parent


def _read_names(node) -> set[str]:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


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

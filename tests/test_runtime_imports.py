"""The package needs only the standard library and numpy at run time."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "vbgk"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "vbgk"}


def absolute_imports(path):
    """Top-level names of the modules an absolute import in path reads."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_package_imports_only_stdlib_and_numpy():
    imports = {path.name: set(absolute_imports(path)) for path in sorted(PACKAGE.glob("*.py"))}
    assert "numpy" in imports["kinetic.py"]
    outside = {name: sorted(found - ALLOWED) for name, found in imports.items() if found - ALLOWED}
    assert outside == {}

"""No module of the package reaches into another module's private names.

The batched stages that the lone entry points run are public (`pencil.spectra`,
`celsolve.Core`, `numkernel.solve_stack`, ...), so every module uses another's code
through its public names only.  This parses each module of `src/choreoqep` and fails on
an attribute access `module._name` through a package module it imported, and on
`from .module import _name`.
"""
import ast
from pathlib import Path

import choreoqep

PACKAGE = Path(choreoqep.__file__).parent


def private_uses(path: Path) -> list:
    """(line, "module._name") for every cross-module private use in one module."""
    tree = ast.parse(path.read_text(), str(path))
    modules, uses = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None:  # from . import module
                    modules.add(alias.asname or alias.name)
                elif alias.name.startswith("_"):
                    uses.append((node.lineno, f"{node.module}.{alias.name}"))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and node.attr.startswith("_")):
            uses.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return sorted(uses)


def test_the_checker_sees_both_kinds_of_private_use(tmp_path):
    module = tmp_path / "probe.py"
    module.write_text("from . import pencil\nfrom .celsolve import Core, _Core\n"
                      "x = pencil._spectra\ny = pencil.spectra\nz = self._private\n")
    assert private_uses(module) == [(2, "celsolve._Core"), (3, "pencil._spectra")]


def test_no_module_uses_another_modules_private_names():
    found = {path.name: uses for path in sorted(PACKAGE.glob("*.py"))
             if (uses := private_uses(path))}
    assert found == {}

"""No module of the package reaches into another module's private names.

The batched stages that the lone entry points run are public (`pencil.spectra`,
`celsolve.Core`, `numkernel.solve_stack`, ...), so every module uses another's code
through its public names only.  This parses each module of `src/choreoqep` and fails on
an attribute access `module._name` through a package module it imported, and on
`from .module import _name`.  It also fails on a private top-level name (function, class
or assignment; dunders aside) that nothing in the package refers to beyond its own
definition: a dead helper left behind.  And the
equations of motion are stated once, in `pencil.equation_blocks`: no other module calls
`coefficient_matrices`, the weighted blocks A_nu and C_nu they are written with.  The tests
reach the command-line module through its public names only: the experiments it runs live
in the library, so no test file uses a private `cli._name`.  Every exception class the
package defines is also raised by it: no typed failure is left behind once the code that
raised it goes.  And no module imports a name that it never reads.  Last, `src/` holds
only what a command or the benchmark uses: a name-based walk from `cli.main` and the names
the benchmark's files mention reaches every definition but the three it pins.  And the CLI
reads nothing from `numpy.linalg`: it parses, dispatches and writes.
"""
import ast
import re
import builtins
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


def private_definitions(tree: ast.Module) -> dict:
    """{name: definition node} for the private top-level names of one module."""
    found = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in getattr(node, "targets", [getattr(node, "target", None)]):
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        found[name.id] = node
    return {k: v for k, v in found.items() if k.startswith("_") and not k.startswith("__")}


def dead_private_names(paths: list) -> list:
    """(module, name) for every private top-level name that no code of the modules uses
    outside the name's own definition."""
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in paths}
    uses = {}  # name -> the nodes that read it
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                uses.setdefault(node.id, []).append(node)
            elif isinstance(node, ast.Attribute):
                uses.setdefault(node.attr, []).append(node)
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    uses.setdefault(alias.name, []).append(node)
    dead = []
    for module, tree in trees.items():
        for name, definition in private_definitions(tree).items():
            inside = {id(n) for n in ast.walk(definition)}
            if all(id(n) in inside for n in uses.get(name, [])):
                dead.append((module, name))
    return sorted(dead)


def test_the_checker_sees_dead_private_names(tmp_path):
    (tmp_path / "probe.py").write_text(
        "_LIMIT = 3\n_UNREAD = 4\n\n\ndef _used():\n    return _LIMIT\n\n\n"
        "def _unused():\n    return _used()\n\n\n"
        "def _recursive(k):\n    return _recursive(k - 1) if k else 0\n\n\n"
        "def _elsewhere():\n    return 0\n")
    (tmp_path / "other.py").write_text("from . import probe\nx = probe._elsewhere()\n")
    assert dead_private_names(sorted(tmp_path.glob("*.py"))) == [
        ("probe", "_UNREAD"), ("probe", "_recursive"), ("probe", "_unused")]


def test_no_private_name_is_dead():
    assert dead_private_names(sorted(PACKAGE.glob("*.py"))) == []


def test_the_checker_sees_a_helper_its_callers_left_behind(tmp_path):
    """The package as it is, with a phase-coincidence test appended to `celsolve` and no
    caller: among the package's 40-odd private top-level names it is the one flagged."""
    for path in PACKAGE.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    with open(tmp_path / "celsolve.py", "a") as f:
        f.write("\n\ndef _coincident(lams):\n"
                "    diff = np.abs(lams[:, :, None] - lams[:, None, :])\n"
                "    return diff.min(axis=(1, 2)) <= 1e-10\n")
    paths = sorted(tmp_path.glob("*.py"))
    count = sum(len(private_definitions(ast.parse(path.read_text()))) for path in paths)
    assert count >= 40 and dead_private_names(paths) == [("celsolve", "_coincident")]


def unconstructed_exceptions(paths: list) -> tuple:
    """(how many Exception subclasses the modules define, (module, name) for each that no
    code of the modules constructs: no call of the class and no raise of it by name)."""
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in paths}
    errors = {name for name in dir(builtins) if isinstance(getattr(builtins, name), type)
              and issubclass(getattr(builtins, name), Exception)}
    defined, grown = {}, True
    while grown:  # subclasses of the package's own exceptions too, in any order
        grown = False
        for module, tree in trees.items():
            for node in tree.body:
                if isinstance(node, ast.ClassDef) and node.name not in defined and any(
                        getattr(base, "id", getattr(base, "attr", None)) in errors | set(defined)
                        for base in node.bases):
                    defined[node.name], grown = module, True
    built = {getattr(target, "id", getattr(target, "attr", None))
             for tree in trees.values() for node in ast.walk(tree)
             for target in [node.func if isinstance(node, ast.Call)
                            else node.exc if isinstance(node, ast.Raise) else None]}
    return len(defined), sorted((module, name) for name, module in defined.items()
                                if name not in built)


def test_the_checker_sees_an_exception_nothing_raises(tmp_path):
    (tmp_path / "probe.py").write_text(
        "class Called(Exception):\n    pass\n\n\nclass Child(Called):\n    pass\n\n\n"
        "class Bare(ValueError):\n    pass\n\n\nclass Orphan(Child):\n    pass\n\n\n"
        "class Plain:\n    pass\n\n\ndef fail():\n    raise Bare\n\n\n"
        "x = Called('a') if isinstance(None, Orphan) else Plain()\n")
    (tmp_path / "other.py").write_text("from . import probe\nerror = probe.Child()\n")
    assert unconstructed_exceptions(sorted(tmp_path.glob("*.py"))) == (4, [("probe", "Orphan")])


def test_every_exception_the_package_defines_is_raised():
    count, found = unconstructed_exceptions(sorted(PACKAGE.glob("*.py")))
    assert count >= 18 and found == []


def equation_restatements(paths: list) -> dict:
    """{module file: lines} of the calls to `coefficient_matrices` outside `pencil`."""
    found = {}
    for path in paths:
        tree = ast.parse(path.read_text(), str(path))
        lines = sorted(node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
                       and getattr(node.func, "attr", getattr(node.func, "id", None))
                       == "coefficient_matrices")
        if lines and path.stem != "pencil":
            found[path.name] = lines
    return found


def test_the_checker_sees_a_restated_equation(tmp_path):
    """A module that writes the continuous residual out as before, from A_n and C_n."""
    (tmp_path / "pencil.py").write_text(
        "def coefficient_matrices(spec, nu):\n    return spec.J1, spec.J2\n\n\n"
        "def equation_blocks(spec, n):\n    return coefficient_matrices(spec, n)\n")
    (tmp_path / "celsolve.py").write_text(
        "from . import pencil\nfrom .pencil import coefficient_matrices\n\n\n"
        "def residual_cel(spec, n, sol, t):\n"
        "    a_n, c_n = pencil.coefficient_matrices(spec, n)\n"
        "    a_0, c_0 = coefficient_matrices(spec, 0)\n"
        "    xs, ddxs = sol.xs.value(t), sol.xs.derivative(t, 2)\n"
        "    return a_n @ ddxs - c_n @ xs - n * spec.J7\n")
    assert equation_restatements(sorted(tmp_path.glob("*.py"))) == {"celsolve.py": [6, 7]}


def test_only_pencil_states_the_equations():
    assert equation_restatements(sorted(PACKAGE.glob("*.py"))) == {}


def unused_imports(path: Path) -> list:
    """(line, name) for every name a module imports and never reads; a `from __future__`
    import is a compiler directive, not a name."""
    tree = ast.parse(path.read_text(), str(path))
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((node.lineno, name) for node in ast.walk(tree)
                  if isinstance(node, (ast.Import, ast.ImportFrom))
                  and getattr(node, "module", None) != "__future__"
                  for alias in node.names
                  if (name := alias.asname or alias.name.split(".")[0]) not in read)


def test_the_checker_sees_unused_imports(tmp_path):
    module = tmp_path / "probe.py"
    module.write_text("from __future__ import annotations\n\nimport math\nimport os.path\n"
                      "import numpy as np\nfrom dataclasses import dataclass, field\n"
                      "from . import numkernel, pencil\n\n\n@dataclass\nclass A:\n"
                      "    x: np.ndarray\n\n\ny = pencil.spectra(os.sep)\n")
    assert unused_imports(module) == [(3, "math"), (6, "field"), (7, "numkernel")]


def test_no_module_imports_a_name_it_never_reads():
    found = {path.name: names for path in sorted(PACKAGE.glob("*.py"))
             if (names := unused_imports(path))}
    assert found == {}


def linalg_reads(source: str) -> list:
    """(line, name) for every attribute that source reads from numpy's `linalg`, however
    numpy or `linalg` was imported."""
    tree = ast.parse(source)
    return sorted((node.lineno, node.attr) for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)
                  and ast.unparse(node.value).split(".")[-1] == "linalg")


def test_the_checker_sees_linalg_reads():
    probe = ("import numpy as np\nfrom numpy import linalg\n\n\n"
             "def f(a):\n    return np.linalg.det(a), linalg.eig(a), np.linalg.LinAlgError\n")
    assert linalg_reads(probe) == [(6, "LinAlgError"), (6, "det"), (6, "eig")]


def test_the_cli_does_no_linear_algebra():
    """The CLI only parses, dispatches and writes: its numerics live in the library."""
    assert linalg_reads((PACKAGE / "cli.py").read_text()) == []


def private_cli_uses(source: str) -> list:
    """(line, "cli._name") for every private name of `choreoqep.cli` that a test's source
    imports or reads as an attribute of the module, also inside the scripts it holds as
    strings to run in a fresh interpreter."""
    tree = ast.parse(source)
    modules, uses = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "choreoqep":
            modules |= {alias.asname or alias.name for alias in node.names if alias.name == "cli"}
        elif isinstance(node, ast.ImportFrom) and node.module == "choreoqep.cli":
            uses += [(node.lineno, f"cli.{alias.name}") for alias in node.names
                     if alias.name.startswith("_")]
        elif isinstance(node, ast.Import):
            modules |= {alias.asname for alias in node.names
                        if alias.name == "choreoqep.cli" and alias.asname}
        elif isinstance(node, ast.Constant) and "choreoqep" in str(node.value):
            try:
                uses += [(node.lineno + line - 1, name)
                         for line, name in private_cli_uses(node.value)]
            except SyntaxError:  # prose, not a script
                pass
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr.startswith("_") and (
                isinstance(node.value, ast.Name) and node.value.id in modules
                or ast.unparse(node.value) == "choreoqep.cli"):
            uses.append((node.lineno, f"cli.{node.attr}"))
    return sorted(uses)


def test_the_checker_sees_private_cli_names():
    probe = ("import choreoqep.cli\nimport choreoqep.cli as c\n"
             "from choreoqep import cli, pencil\nfrom choreoqep.cli import main, _rows\n"
             "a = cli._window_errors\nb = c._traj\nd = choreoqep.cli._x\n"
             "e = cli.write_csv\nf = pencil._eigenpairs\n")
    found = [(4, "cli._rows"), (5, "cli._window_errors"), (6, "cli._traj"), (7, "cli._x")]
    assert private_cli_uses(probe) == found
    script = f"SCRIPT = {probe!r}\nNOTE = 'on `choreoqep`, not a script'\n"
    assert private_cli_uses(script) == found  # lines counted in the script


def test_no_test_uses_a_private_cli_name():
    """Every test file but this one, whose checker probes hold such uses on purpose."""
    found = {path.name: uses for path in sorted(Path(__file__).parent.glob("*.py"))
             if path.name != Path(__file__).name
             and (uses := private_cli_uses(path.read_text()))}
    assert found == {}


def mentioned_names(tree: ast.AST) -> set:
    """Every identifier a tree names: names, attributes and the names a `from` import takes."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names |= {alias.name for alias in node.names}
    return names


def root_names(paths: list) -> set:
    """The names by which the benchmark's files that load the package (an import of it, or
    its name in a string that is not a docstring) reach it: every identifier they name, and
    every word of those strings ("module:Class.attr" layer targets)."""
    names = set()
    for path in paths:
        tree = ast.parse(path.read_text(), str(path))
        docs = {id(node.body[0].value) for node in ast.walk(tree)
                if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
                and node.body and isinstance(node.body[0], ast.Expr)}
        words = set().union(*(re.findall(r"[A-Za-z_]\w*", node.value) for node in ast.walk(tree)
                              if isinstance(node, ast.Constant) and isinstance(node.value, str)
                              and id(node) not in docs))
        imported = {alias.name.split(".")[0] for node in ast.walk(tree)
                    if isinstance(node, ast.Import) for alias in node.names} | {
            (node.module or "").split(".")[0] for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)}
        if "choreoqep" in imported | words:
            names |= mentioned_names(tree) | words
    return names


def definitions(paths: list) -> dict:
    """{"module.name" or "module.Class.member": (simple name, nodes whose names it reaches)}:
    the top-level functions, classes and assignments of each module, and the methods and
    plain assignments of each class.  A class reaches what its body names outside those
    members; a dunder member is part of the class, as the interpreter calls it."""
    found = {}
    for path in paths:
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = getattr(node, "targets", [getattr(node, "target", None)])
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            if not isinstance(node, ast.ClassDef):
                found.update({f"{path.stem}.{name}": (name, [node]) for name in names})
                continue
            own = []
            for member in node.body:
                names = [member.name] if isinstance(member, ast.FunctionDef) else [
                    n.id for t in getattr(member, "targets", []) for n in ast.walk(t)
                    if isinstance(n, ast.Name)]  # a plain assignment's; fields are the class's
                if names and not all(n.startswith("__") for n in names):
                    found.update({f"{path.stem}.{node.name}.{name}": (name, [member])
                                  for name in names})
                else:
                    own.append(member)
            found[f"{path.stem}.{node.name}"] = (node.name, [*node.bases, *node.decorator_list,
                                                             *own])
    return found


def unreached_definitions(paths: list, roots: set) -> list:
    """The definitions of the modules (`definitions`) that no chain of names reaches from
    roots: a definition is reached once its name is, and then reaches every name its nodes
    mention; a module's dunders and the statements it runs on import are reached."""
    defs = definitions(paths)
    names, reached = set(roots), set()
    for path in paths:
        for node in ast.parse(path.read_text(), str(path)).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef, ast.Assign, ast.AnnAssign,
                                     ast.Import, ast.ImportFrom)):
                names |= mentioned_names(node)
    names |= {name for name, _ in defs.values() if name.startswith("__")}
    grown = True
    while grown:
        grown = False
        for key, (name, nodes) in defs.items():
            if key not in reached and name in names:
                reached.add(key)
                names |= set().union(*map(mentioned_names, nodes))
                grown = True
    return sorted(set(defs) - reached)


def test_the_reachability_checker_follows_names_from_the_roots(tmp_path):
    """Names from main and from the code and strings of a benchmark file that loads the
    package, not from its docstrings nor from a file that does not load it; a class brings
    in the methods named somewhere reached, and its dunders; a helper only an unreached
    function calls is unreached with it."""
    (tmp_path / "cli.py").write_text(
        "LIMIT = 3\n_UNUSED = 4\n\n\ndef main():\n    return Box(LIMIT).size\n\n\n"
        "def traced():\n    return 0\n\n\ndef noted():\n    return 0\n\n\n"
        "def orphan():\n    return _helper()\n\n\ndef _helper():\n    return 1\n\n\n"
        "if __name__ == '__main__':\n    main()\n")
    (tmp_path / "model.py").write_text(
        "class Box:\n    unit = 1.0\n    extra = 2.0\n\n    def __init__(self, n):\n"
        "        self.n = n * self.unit\n\n    @property\n    def size(self):\n"
        "        return self.n\n\n    def grown(self):\n        return self.n + 1\n")
    (tmp_path / "bench.py").write_text(
        '"""Calls noted()."""\nPACKAGE = "choreoqep"\nLAYERS = ["cli:traced"]\n')
    (tmp_path / "timer.py").write_text('"""Times choreoqep."""\nx = obj.grown()\n')
    paths = sorted(tmp_path.glob("[cm]*.py"))
    roots = root_names(sorted(tmp_path.glob("[bt]*.py"))) | {"main"}
    assert unreached_definitions(paths, roots) == [
        "cli._UNUSED", "cli._helper", "cli.noted", "cli.orphan", "model.Box.extra",
        "model.Box.grown"]


def test_src_keeps_only_what_a_command_or_the_benchmark_reaches():
    """From `cli.main` and every name the benchmark's own files mention (its layer targets
    among them), the package reaches all it defines but one: `model.energy`, which the
    discrete Jacobi integral will call."""
    bench = sorted((PACKAGE.parents[1] / "perfbench").glob("*.py"))
    assert unreached_definitions(sorted(PACKAGE.glob("*.py")), root_names(bench) | {"main"}) == [
        "model.energy"]

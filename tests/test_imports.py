"""Import hygiene: every name a package module imports is used there, every
private module-level name is used somewhere in the package and defined in
one module only, the analytic commands never load the sampling stack, and
nothing in the package loads mpmath, which only the tests' oracle uses. No
package module validates with ``assert``, which ``python -O`` strips.

No linter ships with the package, so this walks the syntax trees itself.
A name counts as used when it is read anywhere in the module or listed in
its ``__all__`` (the package's re-exports).
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "scoremech"


def _unused_imports(tree: ast.Module) -> list[tuple[int, str]]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_unused_imports():
    paths = sorted(SRC.glob("*.py"))
    assert paths, f"no modules found under {SRC}"
    unused = [
        f"{path.name}:{line} {name}"
        for path in paths
        for line, name in _unused_imports(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert not unused, "unused imports: " + ", ".join(unused)


def _private_definitions(tree: ast.Module) -> list[tuple[int, str]]:
    """Module-level functions, classes and constants whose names start with
    a single underscore."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        found.append((node.lineno, name.id))
    return [(line, name) for line, name in found
            if name.startswith("_") and not name.startswith("__")]


def test_no_orphaned_private_names():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    assert trees, f"no modules found under {SRC}"
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    orphans = [
        f"{module}:{line} {name}"
        for module, tree in trees.items()
        for line, name in _private_definitions(tree)
        if name not in read
    ]
    assert not orphans, "private names used nowhere in the package: " + ", ".join(orphans)


def test_no_private_name_is_defined_twice():
    # A private constant or helper is defined in one module and imported
    # where else it is needed, so that the copies cannot drift apart.
    defined = {}
    for path in sorted(SRC.glob("*.py")):
        for line, name in _private_definitions(ast.parse(path.read_text(encoding="utf-8"))):
            defined.setdefault(name, set()).add(path.name)
    assert defined, f"no private names found under {SRC}"
    twice = sorted(f"{name} ({', '.join(sorted(modules))})"
                   for name, modules in defined.items() if len(modules) > 1)
    assert not twice, "private names defined in more than one module: " + ", ".join(twice)


def test_no_assert_statements():
    paths = sorted(SRC.glob("*.py"))
    assert paths, f"no modules found under {SRC}"
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert not found, "assert statements: " + ", ".join(found)


def test_analytic_commands_skip_the_sampling_stack(tmp_path):
    # scipy.special and numpy.random are imported where worlds are drawn or
    # densities binned, so classify and discount never load them.
    config = tmp_path / "model.json"
    config.write_text(json.dumps({"tau_a": 1.0, "tau_b": 1.0, "tau_c": 1.0, "rho": -0.8}))
    code = (
        "import contextlib, io, sys\n"
        "from scoremech.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main([cmd, '--rule', rule, *extra])\n"
        "             for rule in ('log', 'quadratic')\n"
        f"             for cmd, extra in (('classify', []), ('discount', ['--config', {str(config)!r}]))]\n"
        "loaded = [m for m in ('scipy', 'scipy.special', 'numpy.random') if m in sys.modules]\n"
        "print(json.dumps({'codes': codes, 'loaded': loaded}))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    done = subprocess.run(
        [sys.executable, "-c", "import json\n" + code],
        env=env, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {"codes": [0, 0, 0, 0], "loaded": []}


def test_the_package_never_loads_mpmath(tmp_path):
    # mpmath is a test dependency: the 60-digit oracle of tests/oracles.py.
    # Neither the import nor the discount and simulate commands load it.
    model = {"tau_a": 1.0, "tau_b": 1.0, "tau_c": 1.0, "rho": -0.8}
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps({"model": model}))
    code = (
        "import contextlib, io, json, sys\n"
        "import scoremech\n"
        "loaded = ['mpmath' in sys.modules]\n"
        "from scoremech.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main(['discount', '--rule', rule, '--config', sys.argv[1]])\n"
        "             for rule in ('log', 'quadratic')]\n"
        "    loaded.append('mpmath' in sys.modules)\n"
        "    codes.append(main(['simulate', '--config', sys.argv[1], '--samples', '500']))\n"
        "    loaded.append('mpmath' in sys.modules)\n"
        "print(json.dumps({'codes': codes, 'loaded': loaded}))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    done = subprocess.run(
        [sys.executable, "-c", code, str(config)], env=env, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {"codes": [0, 0, 0], "loaded": [False, False, False]}

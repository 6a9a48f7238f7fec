"""Source hygiene: every name a package module imports is used there.

No linter ships with the package, so this walks the syntax trees itself.
A name counts as used when it is read anywhere in the module or listed in
its ``__all__`` (the package's re-exports).
"""

import ast
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

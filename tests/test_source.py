"""Checks on the package source itself, with the standard library's ast only:
no module-level import that its module never uses, and no private
module-level name that nothing in the package uses; and on README's account
of it: the modules its layout lists, and the module attributes it names."""

import ast
import functools
import importlib
import itertools
import re
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "stagedwell"


def _trees():
    return {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(PACKAGE.glob("*.py"))}


def _loaded(tree):
    """The names a module reads."""
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}


def test_every_module_level_import_is_used():
    unused = []
    for name, tree in _trees().items():
        if name == "__init__.py":   # its imports are the package's re-exports
            continue
        loaded = _loaded(tree)
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
                unused += [f"{name}: {b}" for b in bound if b not in loaded]
    assert unused == []


def test_every_private_module_level_name_is_used():
    trees = _trees()
    used = set()
    for tree in trees.values():
        used |= _loaded(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    unused = []
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, ast.Assign):
                defined = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                defined = [node.target.id]
            else:
                continue
            unused += [f"{name}: {d}" for d in defined if d.startswith("_") and not d.endswith("__") and d not in used]
    assert unused == []


README = PACKAGE.parent.parent / "README.md"


def test_readme_layout_lists_the_modules_on_disk():
    layout = README.read_text().split("## Repository layout", 1)[1].split("```")[1]
    lines = layout.splitlines()
    block = lines[lines.index("src/stagedwell/") + 1:]
    listed = [line.split()[0] for line in itertools.takewhile(lambda line: line.startswith(" "), block)]
    assert sorted(listed) == sorted(path.name for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def test_readme_module_references_resolve():
    modules = {path.stem for path in PACKAGE.glob("*.py") if path.name != "__init__.py"}
    references = [(module, names) for module, names in re.findall(r"`(\w+)\.([\w.]+)`", README.read_text())
                  if module in modules and names != "py"]
    assert references   # e.g. `chain.SEGMENT`
    unresolved = []
    for module, names in references:
        try:
            functools.reduce(getattr, names.split("."), importlib.import_module(f"stagedwell.{module}"))
        except AttributeError:
            unresolved.append(f"{module}.{names}")
    assert unresolved == []

"""Guard against code that only tests call.

Every top-level function, class and constant of ``src/latorb`` must be
referenced somewhere in ``src/latorb`` other than in its own definition, or
be read as a module attribute by ``perfbench`` (``liealg.all_types``).  A
name that only the tests reach is dead weight in the package: delete it, or
move the check it served onto a production path.  The few deliberate
exceptions are listed below, each with its reason.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "latorb"

ALLOWED = {
    "catalog.glue_class_image":
        "how a component isometry acts on dual classes (inner or outer); "
        "the tests check the component automorphisms with it",
    "catalog.COMPONENT_AUTO_NAMES":
        "the names build_component_auto accepts, listed for its callers",
}


def _definitions(tree: ast.Module):
    """(name, node) for each top-level function, class and assigned name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id, node


def _references(node: ast.AST) -> set[str]:
    """Names a node reads: loaded names, attributes and imported names."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.alias):
            found.add(sub.name)
    return found


def unreferenced_names(src: Path, extra: list[Path]) -> list[str]:
    """``module.name`` for each top-level definition in ``src`` that no
    other top-level statement of ``src`` refers to and no file in ``extra``
    reads as an attribute."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(src.glob("*.py"))}
    outside = {sub.attr for path in extra
               for sub in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(sub, ast.Attribute)}
    statements = [(stem, node) for stem, tree in trees.items() for node in tree.body]
    refs = {(stem, id(node)): _references(node) for stem, node in statements}
    dead = []
    for stem, tree in trees.items():
        for name, node in _definitions(tree):
            if name.startswith("__") or name in outside:
                continue
            if not any(name in refs[key] for key in refs if key != (stem, id(node))):
                dead.append(f"{stem}.{name}")
    return dead


def test_every_src_name_has_a_src_caller():
    # Equality, so an allowlisted name that gains a caller leaves the list.
    dead = unreferenced_names(SRC, sorted((ROOT / "perfbench").glob("*.py")))
    assert sorted(dead) == sorted(ALLOWED)

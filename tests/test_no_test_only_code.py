"""Guard against code that only tests call.

Every top-level function, class and constant of ``src/latorb`` must be
referenced somewhere in ``src/latorb`` other than in its own definition, or
be read as a module attribute by ``perfbench`` (``liealg.all_types``).  So
must every public method of a top-level class: some attribute read of its
name in ``src/latorb`` outside its own body, or in ``perfbench``.  A read
counts for one class when its receiver is known to be that class (``self``
or ``cls`` in its methods, the class name, or a parameter annotated with
it) and for every class with a method of that name otherwise.  Every field
of a top-level record class (a dataclass, a ``NamedTuple``, or a class with
``__slots__``, whose slots are its fields) must be read as an attribute in
``src/latorb`` or ``perfbench``.  A name that only the tests reach is dead
weight in the package: delete it, or move the check it served onto a
production path.  The few deliberate exceptions are
listed below, each with its reason.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "latorb"

# "module.name", or "module.Class.name" for a method or field.
ALLOWED = {
    "catalog.glue_class_image":
        "which dual class a component isometry sends each class to, as "
        "residue rows modulo the glue denominator; the tests check with it "
        "that the component automorphisms cycle or fix the classes as stated",
    "roots.RootComponent.simple":
        "the simple basis the classifier finds, which the roots tests "
        "compare with a pairwise reference",
    "roots.RootComponent.cartan":
        "the Cartan matrix the classifier reads the type from, which the "
        "roots tests compare with a pairwise reference",
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


def _parse(src: Path) -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(src.glob("*.py"))}


def _attributes_read(paths: list[Path]) -> set[str]:
    """Attribute names loaded, not stored, in ``paths``: a slotted record's
    ``__init__`` assigns each field, which is no read."""
    return {sub.attr for path in paths
            for sub in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)}


def unreferenced_names(src: Path, extra: list[Path]) -> list[str]:
    """``module.name`` for each top-level definition in ``src`` that no
    other top-level statement of ``src`` refers to and no file in ``extra``
    reads as an attribute."""
    trees, outside = _parse(src), _attributes_read(extra)
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


def _receiver_class(value: ast.AST, classes: set[str], own: str | None,
                    annotated: dict[str, str]) -> str | None:
    """The class a method is read from, when the receiver says which."""
    if not isinstance(value, ast.Name):
        return None
    if value.id in ("self", "cls"):
        return own
    if value.id in classes:
        return value.id
    return annotated.get(value.id)


def _attribute_reads(node: ast.AST, classes: set[str], own: str | None):
    """(class or None, name) for each attribute read in one statement."""
    annotated = {}
    for arg in ast.walk(node):
        if isinstance(arg, ast.arg) and arg.annotation is not None:
            hint = arg.annotation
            name = hint.value if isinstance(hint, ast.Constant) else getattr(hint, "id", None)
            if name in classes:
                annotated[arg.arg] = name
    return {(_receiver_class(sub.value, classes, own, annotated), sub.attr)
            for sub in ast.walk(node) if isinstance(sub, ast.Attribute)}


def unreferenced_methods(src: Path, extra: list[Path]) -> list[str]:
    """``module.Class.name`` for each public method of a top-level class in
    ``src`` whose name no statement of ``src`` outside its body reads from
    that class or from a receiver of unknown class, and no file in
    ``extra`` reads as an attribute."""
    trees, outside = _parse(src), _attributes_read(extra)
    classes = {node.name for tree in trees.values() for node in tree.body
               if isinstance(node, ast.ClassDef)}
    units = []  # (class the statement sits in, statement)
    for tree in trees.values():
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                units += [(node.name, sub) for sub in node.body]
            else:
                units.append((None, node))
    reads = {id(node): _attribute_reads(node, classes, own) for own, node in units}
    dead = []
    for stem, tree in trees.items():
        for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
            for method in cls.body:
                if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                        or method.name.startswith("_") or method.name in outside:
                    continue
                wanted = {(None, method.name), (cls.name, method.name)}
                if not any(wanted & reads[key] for key in reads if key != id(method)):
                    dead.append(f"{stem}.{cls.name}.{method.name}")
    return dead


def _record_fields(cls: ast.ClassDef) -> list[str]:
    """The fields of a record class: the annotated names of a dataclass or a
    NamedTuple, the ``__slots__`` of an explicit record class; none for any
    other class."""
    decorators = [d.func if isinstance(d, ast.Call) else d for d in cls.decorator_list]
    if (any(getattr(d, "id", None) == "dataclass" for d in decorators)
            or any(getattr(b, "id", None) == "NamedTuple" for b in cls.bases)):
        return [node.target.id for node in cls.body
                if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)]
    return [name for node in cls.body if isinstance(node, ast.Assign)
            and any(getattr(t, "id", None) == "__slots__" for t in node.targets)
            for name in ast.literal_eval(node.value)]


def unreferenced_fields(src: Path, extra: list[Path]) -> list[str]:
    """``module.Class.name`` for each field of a top-level record class (a
    dataclass, a NamedTuple or a class with ``__slots__``) in ``src`` that no
    file of ``src`` or ``extra`` reads as an attribute."""
    read = _attributes_read(sorted(src.glob("*.py")) + extra)
    return [f"{stem}.{cls.name}.{name}"
            for stem, tree in _parse(src).items()
            for cls in tree.body if isinstance(cls, ast.ClassDef)
            for name in _record_fields(cls) if name not in read]


def test_every_src_name_has_a_src_caller():
    # Equality, so an allowlisted name that gains a caller leaves the list.
    extra = sorted((ROOT / "perfbench").glob("*.py"))
    dead = (unreferenced_names(SRC, extra) + unreferenced_methods(SRC, extra)
            + unreferenced_fields(SRC, extra))
    assert sorted(dead) == sorted(ALLOWED)


def test_a_method_only_tests_call_is_found(tmp_path):
    # Two classes share a method name; the one caller outside their bodies
    # reads it through a parameter annotated with the first class, so the
    # second is dead even though it calls itself.
    (tmp_path / "mod.py").write_text(
        "class Code:\n"
        "    def contains(self, word):\n"
        "        return True\n"
        "\n"
        "class Sub:\n"
        "    def contains(self, row):\n"
        "        return self.contains(row)\n"
        "\n"
        "def stable(c: Code, sub: 'Sub') -> bool:\n"
        "    return c.contains(0) and sub is not None\n", encoding="utf-8")
    assert unreferenced_methods(tmp_path, []) == ["mod.Sub.contains"]


def test_a_field_only_tests_read_is_found(tmp_path):
    # Of three records, only fields read as attributes in the package count;
    # a plain class's annotations are not fields.
    (tmp_path / "mod.py").write_text(
        "from dataclasses import dataclass\n"
        "from typing import NamedTuple\n"
        "\n"
        "@dataclass(frozen=True)\n"
        "class Pair:\n"
        "    left: int\n"
        "    right: int\n"
        "\n"
        "class Row(NamedTuple):\n"
        "    name: str\n"
        "    size: int\n"
        "\n"
        "class Plain:\n"
        "    hidden: int\n"
        "\n"
        "class Slotted:\n"
        "    __slots__ = ('rows', 'den')\n"
        "\n"
        "    def __init__(self, rows, den):\n"
        "        self.rows, self.den = rows, den\n"
        "\n"
        "def total(p: Pair, r: Row, s: Slotted) -> int:\n"
        "    return p.left + r.size + len(s.rows)\n", encoding="utf-8")
    assert unreferenced_fields(tmp_path, []) == [
        "mod.Pair.right", "mod.Row.name", "mod.Slotted.den"]

"""Static checks on the package sources, with the standard library alone."""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "pohst"
# __init__.py imports names to re-export them, not to use them
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")
TEST_FILES = sorted(TESTS.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads, in import order.

    A name counts as read where it appears as a name node, including inside
    a quoted annotation; ``from __future__`` imports are directives.
    """
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
    quoted = [
        ast.parse(const.value, mode="eval")
        for annotation in annotations if annotation is not None
        for const in ast.walk(annotation)
        if isinstance(const, ast.Constant) and isinstance(const.value, str)
    ]
    read = {
        node.id for part in [tree, *quoted] for node in ast.walk(part)
        if isinstance(node, ast.Name)
    }
    return [name for name in imported if name not in read]


def test_checker_flags_only_unread_names():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from typing import Iterable, Optional\n"
        "from json import dumps\n"
        "def f(x: 'Optional[int]') -> np.ndarray:\n"
        "    return os.path.join(x)\n"
    )
    assert unused_imports(source) == ["Iterable", "dumps"]


@pytest.mark.parametrize("path", MODULES + TEST_FILES, ids=lambda path: path.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def unread_private_names(modules: dict[str, str], readers: list[str]) -> list[str]:
    """``module.name`` for each ``_private`` name that a module of
    ``modules`` (module name to source) binds at its top level and that no
    source there or in ``readers`` reads, as a name or as an attribute.

    Dunder names are not private; binding a name, or importing it, is no read.
    """
    trees = {module: ast.parse(source) for module, source in modules.items()}
    read = set()
    for tree in [*trees.values(), *map(ast.parse, readers)]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                bound = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                bound = [name.id for target in targets for name in ast.walk(target)
                         if isinstance(name, ast.Name)]
            else:
                continue
            unread += [f"{module}.{name}" for name in bound
                       if name.startswith("_") and not name.endswith("__")
                       and name not in read]
    return unread


def test_private_name_checker_flags_only_unread_names():
    module = (
        "_TABLE = {1: 2}\n"
        "_A, _B = 1, 2\n"
        "__all__ = []\n"
        "def _helper():\n"
        "    return _TABLE[_A]\n"
        "class _Gone:\n"
        "    pass\n"
    )
    reader = "import mod\nfrom mod import _Gone\nmod._helper()\n"
    assert unread_private_names({"mod": module}, [reader]) == ["mod._B", "mod._Gone"]
    assert unread_private_names({"mod": module}, []) == ["mod._B", "mod._helper", "mod._Gone"]


def test_every_private_name_is_read():
    modules = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    readers = [path.read_text() for path in TEST_FILES]
    assert unread_private_names(modules, readers) == []


# the one private name a package module may import from another: the walk's
# entry point, which the sweep in analysis and the pattern entries in certify
# drive beside the row checks in partition
SHARED_PRIVATE = {"_prefix_walk"}


def private_imports(source: str) -> list[str]:
    """``module.name`` for each ``_private`` name that ``source`` imports from
    another module, or reads as an attribute of a module it imports, other
    than those in ``SHARED_PRIVATE``.  Dunder names are not private."""
    def private(name: str) -> bool:
        return name.startswith("_") and not name.endswith("__") and name not in SHARED_PRIVATE

    tree = ast.parse(source)
    modules, found = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            found += [f"{node.module}.{alias.name}" for alias in node.names
                      if private(alias.name)]
        elif isinstance(node, ast.Import):
            modules.update((alias.asname or alias.name, alias.name) for alias in node.names)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and private(node.attr)
                and getattr(node.value, "id", None) in modules):
            found.append(f"{modules[node.value.id]}.{node.attr}")
    return found


def test_private_import_checker_flags_only_private_names():
    source = (
        "from __future__ import annotations\n"
        "import pohst.signs as signs\n"
        "from pohst.partition import _prefix_walk, _walk_one, Shape, __version__\n"
        "from pohst.certify import (_walked_entry,\n"
        "                           partitions_for)\n"
        "def f(state):\n"
        "    return signs._CHAR_TO_SIGN, signs.Pair, state._hidden, partitions_for._entries\n"
    )
    assert private_imports(source) == [
        "pohst.partition._walk_one", "pohst.certify._walked_entry", "pohst.signs._CHAR_TO_SIGN"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_private_imports(path):
    assert private_imports(path.read_text()) == []


def unread_slots(modules: dict[str, str]) -> list[str]:
    """``module.Class.name`` for each name in the ``__slots__`` of a class
    of ``modules`` (module name to source) that no source there reads as an
    attribute.

    A read in the value assigned to the attribute of the same name, as in
    ``other.x = self.x[:]``, is a copy and no read.
    """
    trees = {module: ast.parse(source) for module, source in modules.items()}
    nodes = [node for tree in trees.values() for node in ast.walk(tree)]
    copies = {
        id(attr) for node in nodes if isinstance(node, ast.Assign)
        for attr in ast.walk(node.value) if isinstance(attr, ast.Attribute)
        and any(getattr(target, "attr", None) == attr.attr for target in node.targets)
    }
    read = {node.attr for node in nodes
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and id(node) not in copies}
    unread = []
    for module, tree in trees.items():
        classes = [node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
        for cls in classes:
            for node in cls.body:
                if isinstance(node, ast.Assign) and any(
                        getattr(target, "id", None) == "__slots__" for target in node.targets):
                    slots = ast.literal_eval(node.value)
                    unread += [f"{module}.{cls.name}.{name}"
                               for name in ([slots] if isinstance(slots, str) else slots)
                               if name not in read]
    return unread


def test_slot_checker_flags_slots_only_set_and_copied():
    module = (
        "class Box:\n"
        "    __slots__ = ('kept', 'copied', 'unpacked')\n"
        "    def __init__(self):\n"
        "        self.kept = self.copied = self.unpacked = [0]\n"
        "    def copy(self):\n"
        "        other = Box.__new__(Box)\n"
        "        other.kept = self.kept[:]\n"
        "        other.copied = self.copied[:]\n"
        "        other.unpacked = self.unpacked\n"
        "        return other\n"
        "class Flag:\n"
        "    __slots__ = 'on'\n"
        "def use(box):\n"
        "    first, rest = box.unpacked, box.kept\n"
        "    return first + rest\n"
    )
    assert unread_slots({"mod": module}) == ["mod.Box.copied", "mod.Flag.on"]


def test_every_slot_is_read():
    modules = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert unread_slots(modules) == []


# the largest lru_cache allowed: tables keyed by length, such as
# certify._end_column_slots, use lru_cache; per-pattern state goes through
# the one cache sized by what it holds, certify.partitions_for
MAX_LRU_SIZE = 64


def unbounded_caches(source: str) -> list[str]:
    """Functions whose ``lru_cache`` lacks an explicit integer ``maxsize`` of
    at most ``MAX_LRU_SIZE``, and functions with parameters under
    ``functools.cache``.

    ``lru_cache`` and ``cache`` count bare or as ``functools`` attributes;
    ``maxsize`` counts as the first positional argument or by keyword.
    """
    def name(node: ast.expr) -> str:
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "functools":
            return node.attr
        return getattr(node, "id", "")

    unbounded = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for decorator in node.decorator_list:
            call = decorator if isinstance(decorator, ast.Call) else None
            kind = name(call.func if call else decorator)
            if kind == "lru_cache":
                sizes = [*call.args[:1], *(k.value for k in call.keywords
                                           if k.arg == "maxsize")] if call else []
                if not any(isinstance(size, ast.Constant) and type(size.value) is int
                           and size.value <= MAX_LRU_SIZE for size in sizes):
                    unbounded.append(node.name)
            elif kind == "cache":
                args = node.args
                if args.posonlyargs or args.args or args.vararg or args.kwonlyargs or args.kwarg:
                    unbounded.append(node.name)
    return unbounded


def test_cache_checker_flags_only_unbounded_caches():
    bounded = (
        "import functools\n"
        "from functools import cache, lru_cache\n"
        "@lru_cache(maxsize=64)\n"
        "def a(n): pass\n"
        "@functools.lru_cache(2)\n"
        "def b(n): pass\n"
        "@functools.cache\n"
        "def c(): pass\n"
        "@cache\n"
        "def d(): pass\n"
    )
    assert unbounded_caches(bounded) == []
    unbounded = (
        "import functools\n"
        "from functools import cache, lru_cache\n"
        "@lru_cache\n"
        "def a(n): pass\n"
        "@lru_cache()\n"
        "def b(n): pass\n"
        "@functools.lru_cache(maxsize=None)\n"
        "def c(n): pass\n"
        "@lru_cache(typed=True)\n"
        "def d(n): pass\n"
        "@lru_cache(True)\n"
        "def e(n): pass\n"
        "@functools.cache\n"
        "def f(n): pass\n"
        "@cache\n"
        "def g(*, key): pass\n"
        "@functools.lru_cache(4096)\n"
        "def h(n, code): pass\n"
        "@lru_cache(maxsize=65)\n"
        "def i(n): pass\n"
    )
    assert unbounded_caches(unbounded) == ["a", "b", "c", "d", "e", "f", "g", "h", "i"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_cache_is_bounded(path):
    assert unbounded_caches(path.read_text()) == []

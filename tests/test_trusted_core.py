"""The trusted core: what the chunk store pulls in, and how big it is.

TDB argues that the trusted chunk store is small and separable from the
modules built on top of it (the paper's Figure 8 footprint table).  This
test pins that shape on our code.  It walks the static, module-level
import graph of every ``repro.chunkstore`` module -- the imports that run
when the module is loaded, including each parent package's
``__init__``, but not imports deferred into function bodies and not the
top-level ``repro/__init__.py`` -- and asserts that the walk never
reaches a layer that sits above the chunk store.  The one ``proofs``
module allowed in is :mod:`repro.proofs.headlog`, the head signer the
checkpoint appends to.

It also enforces the layout budget: no chunk-store module over 500
lines.
"""

from __future__ import annotations

import ast
import os
from typing import Dict, Iterator, List, Set

import repro

SRC = os.path.dirname(repro.__file__)
CHUNKSTORE_DIR = os.path.join(SRC, "chunkstore")
MAX_MODULE_LINES = 500

#: Layers above the chunk store; the trusted core must not load them.
FORBIDDEN = (
    "repro.server",
    "repro.tenancy",
    "repro.replication",
    "repro.bench",
    "repro.backupstore",
    "repro.testing",
    "repro.db",
    "repro.tools",
    "repro.proofs",
)
ALLOWED = {"repro.proofs", "repro.proofs.headlog"}


def module_file(name: str) -> str:
    """Source file of ``repro.*`` module ``name`` ('' if there is none)."""
    parts = name.split(".")[1:]
    base = os.path.join(SRC, *parts)
    for candidate in (base + ".py", os.path.join(base, "__init__.py")):
        if os.path.isfile(candidate):
            return candidate
    return ""


def _load_time_nodes(body: List[ast.stmt]) -> Iterator[ast.AST]:
    """Every node that runs at import time (function bodies excluded)."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        yield node
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt):
                yield from _load_time_nodes([child])
            elif not isinstance(child, ast.Lambda):
                yield from ast.walk(child)


def direct_imports(name: str) -> Set[str]:
    """``repro.*`` modules that loading ``name`` imports directly."""
    path = module_file(name)
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), path)
    package = name if path.endswith("__init__.py") else name.rpartition(".")[0]
    found: Set[str] = set()
    for node in _load_time_nodes(tree.body):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                anchor = package.split(".")
                anchor = anchor[: len(anchor) - node.level + 1]
                base = ".".join(anchor + ([node.module] if node.module else []))
            else:
                base = node.module or ""
            found.add(base)
            for alias in node.names:
                if module_file(f"{base}.{alias.name}"):
                    found.add(f"{base}.{alias.name}")
    return {mod for mod in found if mod.startswith("repro.") and module_file(mod)}


def import_closure(roots: Set[str]) -> Set[str]:
    """Everything loading ``roots`` loads, parent packages included."""
    seen: Set[str] = set()
    todo = list(roots)
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        parts = name.split(".")
        parents = {".".join(parts[:i]) for i in range(2, len(parts))}
        todo.extend((direct_imports(name) | parents) - seen)
    return seen


def chunkstore_modules() -> Set[str]:
    return {
        "repro.chunkstore" + ("" if entry == "__init__.py" else "." + entry[:-3])
        for entry in os.listdir(CHUNKSTORE_DIR)
        if entry.endswith(".py")
    }


def trusted_core() -> Dict[str, int]:
    """Module name -> line count for the chunk store's import closure."""
    core = {}
    for name in import_closure(chunkstore_modules()):
        with open(module_file(name), encoding="utf-8") as handle:
            core[name] = sum(1 for _ in handle)
    return core


def test_walker_sees_package_inits_and_relative_imports():
    closure = import_closure({"repro.chunkstore.store"})
    assert "repro.chunkstore" in closure
    assert "repro.chunkstore.format" in closure
    assert "repro.crypto" in closure
    assert "repro" not in closure


def test_trusted_core_reaches_no_upper_layer():
    core = trusted_core()
    leaks = sorted(
        name
        for name in core
        if name not in ALLOWED
        and any(name == layer or name.startswith(layer + ".") for layer in FORBIDDEN)
    )
    assert not leaks, f"the chunk store's import graph reaches {leaks}"


def test_no_chunkstore_module_over_the_line_budget():
    over = {}
    for entry in sorted(os.listdir(CHUNKSTORE_DIR)):
        if entry.endswith(".py"):
            with open(os.path.join(CHUNKSTORE_DIR, entry), encoding="utf-8") as fh:
                lines = sum(1 for _ in fh)
            if lines > MAX_MODULE_LINES:
                over[entry] = lines
    assert not over, f"chunk-store modules over {MAX_MODULE_LINES} lines: {over}"


if __name__ == "__main__":
    core = trusted_core()
    for name in sorted(core):
        print(f"{core[name]:6d}  {name}")
    print(f"{sum(core.values()):6d}  total in {len(core)} modules")

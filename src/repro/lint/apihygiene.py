"""A-rules: public-API hygiene.

``A501`` *dangling-all-export*
    Every name in a module's ``__all__`` must actually be bound at module
    top level (def / class / import / assignment).  A dangling entry
    breaks ``from module import *`` and — for ``repro.api`` — the facade
    compatibility promise itself.

``A502`` *facade-only-import*
    ``examples/`` and ``benchmarks/`` are the facade's consumers: they
    import ``repro`` **only** through ``repro.api``.  Importing an
    internal module from there couples published material to package
    layout the compatibility promise explicitly does not cover.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Set

from .base import Finding, ModuleContext, Rule, register_rule

__all__ = [
    "DanglingAllExportRule",
    "FacadeOnlyImportRule",
]

def _top_level_bindings(tree: ast.Module) -> Set[str]:
    bound: Set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound.add((alias.asname or alias.name).split(".")[0])
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                for name_node in ast.walk(target):
                    if isinstance(name_node, ast.Name):
                        bound.add(name_node.id)
        elif isinstance(node, ast.AnnAssign):
            if isinstance(node.target, ast.Name):
                bound.add(node.target.id)
        elif isinstance(node, (ast.If, ast.Try)):
            # Conditional imports / fallbacks bind at runtime too.
            for sub in ast.walk(node):
                if isinstance(sub, (ast.Import, ast.ImportFrom)):
                    for alias in sub.names:
                        bound.add((alias.asname or alias.name).split(".")[0])
                elif isinstance(sub, ast.Assign):
                    for target in sub.targets:
                        for name_node in ast.walk(target):
                            if isinstance(name_node, ast.Name):
                                bound.add(name_node.id)
                elif isinstance(sub, (ast.FunctionDef, ast.ClassDef)):
                    bound.add(sub.name)
    return bound


def _all_entries(tree: ast.Module) -> List[ast.Constant]:
    """The string constants of a top-level ``__all__`` list/tuple."""
    entries: List[ast.Constant] = []
    for node in tree.body:
        if not isinstance(node, ast.Assign):
            continue
        if not any(isinstance(target, ast.Name) and target.id == "__all__"
                   for target in node.targets):
            continue
        if isinstance(node.value, (ast.List, ast.Tuple)):
            for element in node.value.elts:
                if (isinstance(element, ast.Constant)
                        and isinstance(element.value, str)):
                    entries.append(element)
    return entries


@register_rule
class DanglingAllExportRule(Rule):
    code = "A501"
    name = "dangling-all-export"
    description = ("every __all__ entry must be bound at module top "
                   "level")

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        entries = _all_entries(module.tree)
        if not entries:
            return
        bound = _top_level_bindings(module.tree)
        for entry in entries:
            if entry.value not in bound:
                yield self.finding(
                    module, entry,
                    f"__all__ exports '{entry.value}' but the module "
                    f"never binds it")


@register_rule
class FacadeOnlyImportRule(Rule):
    code = "A502"
    name = "facade-only-import"
    description = ("examples and benchmarks import repro only through "
                   "the repro.api facade")
    roles = ("examples", "benchmarks")

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ImportFrom):
                origin = node.module or ""
                if (origin == "repro" and any(alias.name != "api"
                                              for alias in node.names)):
                    yield self.finding(
                        module, node,
                        "import repro internals via 'from repro.api "
                        "import ...' — only the facade is covered by "
                        "the compatibility promise")
                elif (origin.startswith("repro.")
                        and origin != "repro.api"):
                    yield self.finding(
                        module, node,
                        f"import from internal module '{origin}'; use "
                        f"'from repro.api import ...' — only the facade "
                        f"is covered by the compatibility promise")
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if (alias.name.startswith("repro.")
                            and alias.name != "repro.api"):
                        yield self.finding(
                            module, node,
                            f"import of internal module '{alias.name}'; "
                            f"use 'from repro.api import ...'")

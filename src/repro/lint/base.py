"""Core of the ``repro lint`` framework: findings, rules, suppression.

A *rule* is a small AST analyzer with a stable code (``D101``, ``S202``,
…) registered in :data:`RULE_TYPES` via the :func:`register_rule`
decorator.  The runner parses each target file once into a
:class:`ModuleContext` (AST + source lines + suppression table + the
file's *role*) and hands it to every rule whose ``roles`` cover that
file; rules yield :class:`Finding` values anchored to an AST node.

Roles partition the repository the way the CI gate lints it:

``src``
    First-party package code under ``src/repro`` — every family applies.
``tests``
    The pytest suites.  Determinism and telemetry rules are off (tests
    seed their own randomness and construct scratch instruments), only
    rules that explicitly opt in run here.
``examples`` / ``benchmarks``
    The facade consumers: API-hygiene rules (facade-only imports) apply,
    internals-oriented rules do not.

Suppression is per line and per rule::

    noisy_line()  # repro: lint-ok[D102] iteration feeds a set, order-free

``lint-ok[*]`` silences every rule on that line.  Suppressions on the
first line of a multi-line statement cover findings anchored there.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple, Type

__all__ = [
    "Finding",
    "ModuleContext",
    "ROLES",
    "RULE_TYPES",
    "Rule",
    "all_rules",
    "dotted_name",
    "register_rule",
]

#: The file roles the runner assigns (see module docstring).
ROLES: Tuple[str, ...] = ("src", "tests", "examples", "benchmarks")

#: ``# repro: lint-ok[D102]`` / ``lint-ok[D102,S203]`` / ``lint-ok[*]``.
_SUPPRESS_RE = re.compile(r"#\s*repro:\s*lint-ok\[([A-Za-z0-9*,\s]+)\]")


@dataclass(frozen=True)
class Finding:
    """One rule violation, anchored to a file position."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready form (the ``--json`` artifact schema)."""
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }

    def format(self) -> str:
        """The human one-liner: ``path:line:col: CODE message``."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


class ModuleContext:
    """One parsed target file, shared by every rule that checks it."""

    def __init__(self, path: str, source: str, role: str = "src") -> None:
        if role not in ROLES:
            raise ValueError(f"unknown lint role {role!r}; known: {ROLES}")
        self.path = path
        self.source = source
        self.role = role
        self.tree = ast.parse(source, filename=path)
        self.lines: List[str] = source.splitlines()
        #: line number -> rule codes suppressed there ("*" = all).
        self.suppressions: Dict[int, Set[str]] = self._scan_suppressions()

    def _scan_suppressions(self) -> Dict[int, Set[str]]:
        table: Dict[int, Set[str]] = {}
        for number, text in enumerate(self.lines, start=1):
            match = _SUPPRESS_RE.search(text)
            if match is not None:
                codes = {code.strip() for code in match.group(1).split(",")}
                table[number] = {code for code in codes if code}
        return table

    def suppressed(self, rule: str, line: int) -> bool:
        codes = self.suppressions.get(line)
        return codes is not None and ("*" in codes or rule in codes)


class Rule:
    """Base class: subclass, set ``code``/``name``/``roles``, implement
    :meth:`check`, and decorate with :func:`register_rule`."""

    #: Stable identifier (``D101``); the suppression and --select key.
    code: str = ""
    #: Short kebab-case name shown by ``repro lint --list-rules``.
    name: str = ""
    #: One-line description of what the rule enforces.
    description: str = ""
    #: File roles the rule applies to (see :data:`ROLES`).
    roles: Sequence[str] = ("src",)

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, module: ModuleContext, node: ast.AST,
                message: str) -> Finding:
        """A finding anchored at ``node`` (any AST node with a lineno)."""
        return Finding(rule=self.code, path=module.path,
                       line=getattr(node, "lineno", 1),
                       col=getattr(node, "col_offset", 0) + 1,
                       message=message)

    def run(self, module: ModuleContext) -> List[Finding]:
        """``check`` filtered through the module's suppression table."""
        if module.role not in self.roles:
            return []
        return [finding for finding in self.check(module)
                if not module.suppressed(self.code, finding.line)]


#: code -> rule class; populated by :func:`register_rule` at import time.
RULE_TYPES: Dict[str, Type[Rule]] = {}


def register_rule(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the registry (codes are unique)."""
    if not cls.code:
        raise ValueError(f"rule {cls.__name__} has no code")
    if cls.code in RULE_TYPES:
        raise ValueError(f"duplicate lint rule code {cls.code}")
    RULE_TYPES[cls.code] = cls
    return cls


def all_rules() -> List[Rule]:
    """One instance of every registered rule, in code order."""
    return [RULE_TYPES[code]() for code in sorted(RULE_TYPES)]


# ---------------------------------------------------------------------------
# Shared AST helpers
# ---------------------------------------------------------------------------

def dotted_name(node: Optional[ast.AST]) -> Optional[str]:
    """``a.b.c`` for nested Attribute/Name chains, else ``None``.

    The workhorse of every rule that matches call targets or lock
    attributes: ``random.shuffle`` and ``self._lock`` both resolve here.
    """
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def call_name(node: ast.AST) -> Optional[str]:
    """The dotted name a Call invokes, or ``None`` for dynamic targets."""
    if isinstance(node, ast.Call):
        return dotted_name(node.func)
    return None


def iter_functions(tree: ast.AST) -> Iterator[ast.AST]:
    """Every function/method definition in the module, any depth."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def string_keys(node: ast.Dict) -> List[Tuple[str, ast.AST]]:
    """The constant-string keys of a dict literal, with their nodes."""
    keys: List[Tuple[str, ast.AST]] = []
    for key in node.keys:
        if isinstance(key, ast.Constant) and isinstance(key.value, str):
            keys.append((key.value, key))
    return keys

"""Shared AST helpers for the rule implementations.

Everything here is deliberately simple, syntactic analysis: the rules trade
soundness for reviewability, and the property-test suite remains the dynamic
backstop (see ``INVARIANTS.md``).  The helpers resolve dotted call targets
through the module's import aliases (``import random as _random`` makes
``_random.Random`` resolve to ``random.Random``) and walk child nodes with
parent tracking where a rule needs enclosing-context questions.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Tuple

__all__ = [
    "call_name",
    "dotted_name",
    "import_aliases",
    "iter_scopes",
    "resolve_qualified",
]


def import_aliases(tree: ast.Module) -> Dict[str, str]:
    """Local name -> imported dotted path, for every import in the module."""
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for name in node.names:
                aliases[name.asname or name.name.split(".")[0]] = (
                    name.name if name.asname else name.name.split(".")[0]
                )
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for name in node.names:
                if name.name == "*":
                    continue
                aliases[name.asname or name.name] = f"{node.module}.{name.name}"
    return aliases


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, None for anything else."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def resolve_qualified(node: ast.AST, aliases: Dict[str, str]) -> Optional[str]:
    """The import-resolved dotted path of a Name/Attribute chain.

    ``_random.Random`` with ``import random as _random`` resolves to
    ``random.Random``; ``urandom`` with ``from os import urandom`` resolves
    to ``os.urandom``.
    """
    dotted = dotted_name(node)
    if dotted is None:
        return None
    head, _, rest = dotted.partition(".")
    resolved_head = aliases.get(head, head)
    return f"{resolved_head}.{rest}" if rest else resolved_head


def call_name(call: ast.Call, aliases: Dict[str, str]) -> Optional[str]:
    """The import-resolved dotted name of a call's target."""
    return resolve_qualified(call.func, aliases)


def iter_scopes(
    tree: ast.Module,
) -> Iterator[Tuple[ast.AST, List[ast.stmt]]]:
    """Yield ``(scope_node, body)`` for the module and every function in it.

    Class bodies are not scopes of their own here — methods are, and
    class-level statements behave like module-level ones for the rules that
    use this (they run at import time).
    """
    yield tree, tree.body
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node, node.body


def walk_scope(scope: ast.AST) -> Iterator[ast.AST]:
    """``ast.walk`` limited to one scope: nested function bodies are skipped.

    Lambdas and comprehensions stay in the enclosing scope (they read its
    names); nested ``def``s get their own :func:`iter_scopes` visit.
    """
    stack: List[ast.AST] = [scope]
    while stack:
        node = stack.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            stack.append(child)

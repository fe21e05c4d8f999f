"""Concurrency-hygiene rule (supporting invariant I2, ``INVARIANTS.md``).

The engine shards batches across worker threads/processes, and every worker
context imports the same ``repro.engine``/``repro.pir`` modules.  Mutable
state at module level is therefore shared by *all* of them — exactly how
worker contexts start bleeding into each other and bit-identity (I2) breaks
under parallelism.  The sanctioned containers are ``ContextVar`` (per-context
state), ``WeakKeyDictionary``/caches guarded by a module ``Lock`` (shared
memo, explicit synchronisation — the ``shared_kernel`` pattern in
``repro.pir.kernels``), or immutable constants (``tuple``/``frozenset``).
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Tuple

from ..core import Finding, ParsedModule, Rule, register
from .common import dotted_name

#: Where module state is shared across engine worker contexts.
CONCURRENCY_SCOPE: Tuple[str, ...] = (
    "src/repro/engine/",
    "src/repro/pir/",
    "src/repro/serving/",
)

#: Constructors whose module-level instances are concurrency-sanctioned.
_SANCTIONED_CALLS = {
    "ContextVar", "Lock", "RLock", "Semaphore", "BoundedSemaphore",
    "Condition", "Event", "local", "WeakKeyDictionary", "WeakValueDictionary",
    "MappingProxyType", "frozenset", "tuple",
}

#: Mutable-container constructors that are not.
_MUTABLE_CALLS = {
    "dict", "list", "set", "bytearray", "defaultdict", "OrderedDict",
    "Counter", "deque",
}


def _mutable_value(node: ast.expr) -> Optional[str]:
    """A short description when ``node`` builds a mutable container."""
    if isinstance(node, ast.List):
        return "list literal"
    if isinstance(node, ast.Dict):
        return "dict literal"
    if isinstance(node, ast.Set):
        return "set literal"
    if isinstance(node, (ast.ListComp, ast.DictComp, ast.SetComp)):
        return "comprehension"
    if isinstance(node, ast.Call):
        dotted = dotted_name(node.func)
        if dotted is None:
            return None
        tail = dotted.split(".")[-1]
        if tail in _SANCTIONED_CALLS:
            return None
        if tail in _MUTABLE_CALLS:
            return f"{tail}()"
    return None


@register
class ModuleStateRule(Rule):
    id = "conc-module-state"
    family = "concurrency"
    description = (
        "unguarded mutable module-level state in engine/pir code (shared "
        "across every worker thread and context)"
    )
    hint = (
        "module state in engine/pir is shared by all worker contexts "
        "(INVARIANTS.md, concurrency hygiene); use a ContextVar, a "
        "Lock-guarded WeakKeyDictionary, or an immutable tuple/frozenset"
    )

    def applies_to(self, rel_path: str) -> bool:
        return any(rel_path.startswith(prefix) for prefix in CONCURRENCY_SCOPE)

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        for node in module.tree.body:
            targets = []
            value: Optional[ast.expr] = None
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            if value is None:
                continue
            described = _mutable_value(value)
            if described is None:
                continue
            names = [t.id for t in targets if isinstance(t, ast.Name)]
            if not names or names == ["__all__"]:
                continue
            yield module.finding(
                self,
                node,
                f"module-level mutable state {names[0]!r} ({described}) is "
                "shared across all worker threads and contexts",
            )
        # rebinding module globals from functions is the same hazard
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Global):
                yield module.finding(
                    self,
                    node,
                    f"function rebinds module global(s) "
                    f"{', '.join(repr(n) for n in node.names)} without "
                    "synchronisation",
                )

"""Round-batching rule (supporting the measured-performance aim, ``ROADMAP.md``).

The protocol's unit of retrieval is the *round*: the pages a query needs
from one file in one round are independent, so they travel as one
``retrieve_pages`` batch — one request per shard, one kernel call — together
with the round's dummy padding (``RoundManager.pad(file, target, pages=...)``).
A scheme that fetches inside a loop pays one PIR round trip per page instead
(65 serial round trips per CI query before this rule existed).
"""

from __future__ import annotations

import ast
from typing import Iterator, Sequence, Set, Tuple

from ..core import Finding, ParsedModule, Rule, register
from .common import dotted_name

#: Where the client protocols live.
SCHEMES_SCOPE = "src/repro/schemes/"

_ROUND_FETCHES = {"fetch", "fetch_many"}
_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _is_serial_fetch(call: ast.Call) -> bool:
    dotted = dotted_name(call.func)
    if dotted is None:
        return False
    *receiver, name = dotted.split(".")
    if name == "retrieve_page":
        return True
    return name in _ROUND_FETCHES and receiver[-1:] == ["rounds"]


def _repeated_nodes(loop: ast.AST) -> Sequence[ast.AST]:
    """The parts of a loop that run once per iteration."""
    if isinstance(loop, (ast.For, ast.AsyncFor, ast.While)):
        return loop.body
    if isinstance(loop, ast.DictComp):
        return [loop.key, loop.value]
    if isinstance(loop, _COMPREHENSIONS):
        return [loop.elt]
    return []


@register
class SerialFetchRule(Rule):
    id = "perf-serial-fetch"
    family = "performance"
    description = (
        "a per-page PIR fetch inside a loop in a scheme (one round trip per "
        "page instead of one batch per round and file)"
    )
    hint = (
        "one round = one batch: let the loop build the page list and fetch "
        "it with one call — `rounds.pad(file, target, pages=page_list)` "
        "sends the real pages and the padding together"
    )

    def applies_to(self, rel_path: str) -> bool:
        return rel_path.startswith(SCHEMES_SCOPE)

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        reported: Set[Tuple[int, int]] = set()
        for loop in ast.walk(module.tree):
            for repeated in _repeated_nodes(loop):
                for node in ast.walk(repeated):
                    if not isinstance(node, ast.Call) or not _is_serial_fetch(node):
                        continue
                    where = (node.lineno, node.col_offset)
                    if where in reported:  # nested loops see the call twice
                        continue
                    reported.add(where)
                    yield module.finding(
                        self,
                        node,
                        f"{dotted_name(node.func)}(...) runs once per loop "
                        "iteration — one PIR round trip per page",
                    )

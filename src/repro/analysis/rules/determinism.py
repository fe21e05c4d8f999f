"""Determinism rules (invariant I2, ``INVARIANTS.md``).

For a fixed workload and seed, results must be bit-identical across every
(shards, workers, worker-mode, kernel, backend) combination — the property
``tests/properties/`` pins dynamically.  These rules ban the classic ways a
code path silently stops being a pure function of its inputs: wall-clock
reads, the process-global ``random`` functions, OS entropy, iterating a
``set`` into an ordering-sensitive position — and, across all of
``src/repro/``, a second copy of the mask-RNG contract (``det-mask-draw``).

Scope: the bit-identity surface — ``src/repro/engine/``,
``src/repro/schemes/``, ``src/repro/pir/`` and ``src/repro/network/
indexed.py``.  ``time.perf_counter`` stays legal: timing *measurements* are
reported, never used to order or compute results.
"""

from __future__ import annotations

import ast
from typing import Iterator, Set, Tuple

from ..core import Finding, ParsedModule, Rule, register
from .common import call_name, dotted_name, import_aliases, iter_scopes, walk_scope

#: The bit-identity surface (relative-path prefixes / exact files).
DETERMINISM_SCOPE: Tuple[str, ...] = (
    "src/repro/engine/",
    "src/repro/schemes/",
    "src/repro/pir/",
    "src/repro/network/indexed.py",
    "src/repro/serving/pool.py",
)

#: Wall-clock and entropy calls that make a result path nondeterministic.
BANNED_CALLS = {
    "time.time": "wall-clock read",
    "time.time_ns": "wall-clock read",
    "datetime.datetime.now": "wall-clock read",
    "datetime.datetime.utcnow": "wall-clock read",
    "datetime.datetime.today": "wall-clock read",
    "datetime.date.today": "wall-clock read",
    "os.urandom": "OS entropy",
    "os.getrandom": "OS entropy",
    "uuid.uuid1": "time/entropy-derived id",
    "uuid.uuid4": "entropy-derived id",
}

#: Module-level ``random.*`` functions sharing the unseeded global RNG.
#: ``random.Random(seed)`` instances are the sanctioned randomness.
GLOBAL_RANDOM_FUNCTIONS = {
    "betavariate", "choice", "choices", "expovariate", "gauss", "getrandbits",
    "randbytes", "randint", "random", "randrange", "sample", "seed",
    "shuffle", "triangular", "uniform", "vonmisesvariate",
}


def _in_scope(rel_path: str) -> bool:
    return any(
        rel_path.startswith(prefix) if prefix.endswith("/") else rel_path == prefix
        for prefix in DETERMINISM_SCOPE
    )


@register
class WallclockRule(Rule):
    id = "det-wallclock"
    family = "determinism"
    description = (
        "wall-clock/entropy reads on the bit-identity surface "
        "(time.time, datetime.now, os.urandom, uuid4, ...)"
    )
    hint = (
        "results must be a pure function of the inputs (INVARIANTS.md I2); "
        "use time.perf_counter for duration measurements, secrets for real "
        "key material, or thread a seeded random.Random through"
    )

    def applies_to(self, rel_path: str) -> bool:
        return _in_scope(rel_path)

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        aliases = import_aliases(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            qualified = call_name(node, aliases)
            if qualified in BANNED_CALLS:
                yield module.finding(
                    self,
                    node,
                    f"{qualified}() is a {BANNED_CALLS[qualified]}; it breaks "
                    "bit-identical results across runs and configurations",
                )


@register
class UnseededRandomRule(Rule):
    id = "det-unseeded-random"
    family = "determinism"
    description = (
        "process-global random.* functions (unseeded, shared across "
        "threads) on the bit-identity surface"
    )
    hint = (
        "instantiate random.Random(seed) and thread it through "
        "(INVARIANTS.md I2); the module-level functions share one unseeded, "
        "thread-unsafe global state"
    )

    def applies_to(self, rel_path: str) -> bool:
        return _in_scope(rel_path)

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        aliases = import_aliases(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            qualified = call_name(node, aliases)
            if (
                qualified is not None
                and qualified.startswith("random.")
                and qualified.split(".", 1)[1] in GLOBAL_RANDOM_FUNCTIONS
            ):
                yield module.finding(
                    self,
                    node,
                    f"{qualified}() draws from the process-global unseeded RNG",
                )


#: Where subset masks may be drawn: ``draw_shares`` for everything the engine
#: reads through, and two files that own streams of their own (the primitive
#: and the load generator).
MASK_DRAW_FUNCTION = ("src/repro/pir/kernels.py", "draw_shares")
MASK_DRAW_FILES = (
    "src/repro/pir/batch.py",
    "src/repro/serving/loadgen.py",
)


@register
class MaskDrawRule(Rule):
    id = "det-mask-draw"
    family = "determinism"
    description = "a random_subset_masks draw outside pir.kernels.draw_shares"
    hint = (
        "the mask-RNG contract has one implementation (INVARIANTS.md I2): draw "
        "through repro.pir.kernels.draw_shares, so draw order, share B and the "
        "adversary log cannot differ between deployments"
    )

    def applies_to(self, rel_path: str) -> bool:
        return rel_path.startswith("src/repro/") and rel_path not in MASK_DRAW_FILES

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        for scope, _body in iter_scopes(module.tree):
            if (module.rel_path, getattr(scope, "name", None)) == MASK_DRAW_FUNCTION:
                continue
            for node in walk_scope(scope):
                name = dotted_name(node.func) if isinstance(node, ast.Call) else None
                if name is not None and name.rpartition(".")[2] == "random_subset_masks":
                    yield module.finding(
                        self, node, "subset masks drawn outside draw_shares"
                    )


def _is_setish_expr(node: ast.AST, setish_names: Set[str]) -> bool:
    """Whether ``node`` syntactically evaluates to a set/frozenset."""
    if isinstance(node, ast.Set) or isinstance(node, ast.SetComp):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id in {"set", "frozenset"}:
            return True
    if isinstance(node, ast.Name) and node.id in setish_names:
        return True
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        # set algebra stays a set when either side is known set-ish
        return _is_setish_expr(node.left, setish_names) or _is_setish_expr(
            node.right, setish_names
        )
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        if node.func.attr in {"union", "intersection", "difference",
                              "symmetric_difference"}:
            return _is_setish_expr(node.func.value, setish_names)
    return False


#: Attributes known (project-wide) to hold frozensets: the ``IndexEntry``
#: payload fields of :mod:`repro.schemes.index_entries`.
SET_TYPED_ATTRIBUTES = {"regions", "edges"}

#: Calls whose argument order is irrelevant, so a set argument is fine.
_ORDER_FREE_CALLS = {"sorted", "set", "frozenset", "len", "sum", "min", "max",
                     "any", "all", "bool"}


@register
class SetIterationRule(Rule):
    id = "det-set-iteration"
    family = "determinism"
    description = (
        "iterating a set/frozenset into an ordering-sensitive position "
        "(for-loops, list()/tuple() conversions) on the bit-identity surface"
    )
    hint = (
        "set iteration order is an implementation detail; wrap the "
        "iteration in sorted(...) so downstream adjacency/fetch/result "
        "order is reproducible (INVARIANTS.md I2)"
    )

    def applies_to(self, rel_path: str) -> bool:
        return _in_scope(rel_path)

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        # per-function (and module) flow-insensitive name inference: a name
        # ever bound to a set-ish expression in the scope counts as set-ish
        for scope, _body in iter_scopes(module.tree):
            setish: Set[str] = set()
            for node in walk_scope(scope):
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    target = node.targets[0]
                    if isinstance(target, ast.Name) and _is_setish_expr(
                        node.value, setish
                    ):
                        setish.add(target.id)
                elif isinstance(node, ast.AnnAssign) and node.value is not None:
                    if isinstance(node.target, ast.Name) and _is_setish_expr(
                        node.value, setish
                    ):
                        setish.add(node.target.id)
            yield from self._check_scope(module, scope, setish)

    def _iterates_set(self, iterable: ast.AST, setish: Set[str]) -> bool:
        if _is_setish_expr(iterable, setish):
            return True
        # project knowledge: IndexEntry.regions / IndexEntry.edges hold
        # frozensets, whatever the receiver is called
        if (
            isinstance(iterable, ast.Attribute)
            and iterable.attr in SET_TYPED_ATTRIBUTES
        ):
            return True
        return False

    def _check_scope(
        self, module: ParsedModule, scope: ast.AST, setish: Set[str]
    ) -> Iterator[Finding]:
        # comprehensions that feed an order-insensitive consumer directly
        # (sorted({...}), frozenset(x for x in s), ...) are fine
        order_free: Set[int] = set()
        for node in walk_scope(scope):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in _ORDER_FREE_CALLS
            ):
                for arg in node.args:
                    order_free.add(id(arg))
        for node in walk_scope(scope):
            iterables = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iterables.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
                if id(node) not in order_free:
                    iterables.extend(gen.iter for gen in node.generators)
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                if node.func.id in {"list", "tuple", "enumerate"} and node.args:
                    iterables.append(node.args[0])
            for iterable in iterables:
                if self._iterates_set(iterable, setish):
                    yield module.finding(
                        self,
                        node,
                        "iteration order of a set/frozenset leaks into an "
                        "ordering-sensitive position",
                    )

"""Every public name in ``src/repro`` has a caller outside ``tests/``.

A public top-level function or class, or a public method, must be named
somewhere in ``src/``, ``benchmarks/`` or ``examples/``: as an identifier
(a call, an attribute, an import, an annotation) or as a string that is
one identifier or dotted path, because ``benchmarks/e2e/e2e_tracing.py``
binds its spans by dotted path.  These do not count as a caller:

- the definition itself, and any use inside its own body;
- the package ``__init__`` re-exports (their imports and ``__all__``);
- docstrings, and strings with other text in them (messages, prose).

Roots need no caller: classes registered with ``@register`` (repro-lint
runs them through the registry) and the console-script entry points in
``pyproject.toml``.  ``ALLOWED`` lists the few names a ROADMAP item is
about to call; keep it short.

This is a test rather than a repro-lint rule because a rule checks one
module at a time (``Rule.check(module)``), and this check needs the whole
program at once.

Run ``python tests/analysis/test_no_caller.py [repo-root]`` to print the
no-caller names of any checkout.
"""

from __future__ import annotations

import ast
import re
import sys
from collections import Counter
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

REPO_ROOT = Path(__file__).resolve().parents[2]
CALLER_DIRS = ("src", "benchmarks", "examples")
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
# a string names code only when it is one identifier or dotted path
DOTTED = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(?:[.:][A-Za-z_][A-Za-z0-9_]*)*")

# name -> the ROADMAP item that will call it (at most 10 entries)
ALLOWED: Dict[str, str] = {
    # the incremental LM client's ALT heuristic over fetched landmark vectors
    "LandmarkIndex.lower_bound": "12(b)",
    # snaps client coordinates to a node of the fetched regions
    "Scheme.query_by_coordinates": "12(d)",
    # moves to benchmarks/paper/ with the compression ablation it decodes
    "decode_region_payload_compact": "17(a)",
}


def _python_files(root: Path) -> Iterator[Path]:
    for name in CALLER_DIRS:
        base = root / name
        if base.exists():
            yield from sorted(p for p in base.rglob("*.py") if "__pycache__" not in p.parts)


def _docstring_ids(tree: ast.AST) -> set:
    ids = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                if isinstance(body[0].value.value, str):
                    ids.add(id(body[0].value))
    return ids


def _is_reexport(node: ast.AST, in_init: bool) -> bool:
    if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)
    return in_init and isinstance(node, (ast.Import, ast.ImportFrom))


def _names_used(node: ast.AST, skip: set, in_init: bool) -> Counter:
    """Every identifier and string word under ``node``, minus re-exports."""
    used: Counter = Counter()
    stack = [node]
    while stack:
        current = stack.pop()
        if _is_reexport(current, in_init):
            continue
        if isinstance(current, ast.Name):
            used[current.id] += 1
        elif isinstance(current, ast.Attribute):
            used[current.attr] += 1
        elif isinstance(current, ast.alias):
            used.update(current.name.split("."))
            if current.asname:
                used[current.asname] += 1
        elif isinstance(current, ast.Constant) and isinstance(current.value, str):
            if id(current) not in skip and DOTTED.fullmatch(current.value):
                used.update(WORD.findall(current.value))
        stack.extend(ast.iter_child_nodes(current))
    return used


def _is_root(node: ast.AST, entry_points: set, module: str) -> bool:
    if isinstance(node, ast.ClassDef):
        return any(isinstance(d, ast.Name) and d.id == "register" for d in node.decorator_list)
    return (module, getattr(node, "name", "")) in entry_points


def _entry_points(root: Path) -> set:
    text = (root / "pyproject.toml").read_text()
    return set(re.findall(r'=\s*"([\w.]+):(\w+)"', text))


def _public_definitions(tree: ast.Module) -> Iterator[Tuple[str, ast.AST]]:
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs) and not node.name.startswith("_"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, defs) and not member.name.startswith("_"):
                        yield f"{node.name}.{member.name}", member


def no_caller_names(root: Path) -> List[str]:
    """``module:qualname`` of every public ``src/repro`` name with no caller."""
    parsed = []
    used: Counter = Counter()
    for path in _python_files(root):
        tree = ast.parse(path.read_text(), filename=str(path))
        in_init = path.name == "__init__.py"
        skip = _docstring_ids(tree)
        used.update(_names_used(tree, skip, in_init))
        parsed.append((path, tree, skip, in_init))

    entry_points = _entry_points(root)
    package = root / "src"
    missing = []
    for path, tree, skip, in_init in parsed:
        if package not in path.parents or "repro" not in path.parts:
            continue
        module = ".".join(path.relative_to(package).with_suffix("").parts)
        for qualname, node in _public_definitions(tree):
            name = qualname.rsplit(".", 1)[-1]
            if _is_root(node, entry_points, module):
                continue
            own = _names_used(node, skip, in_init)[name]
            if used[name] - own > 0:
                continue
            if qualname in ALLOWED or name in ALLOWED:
                continue
            missing.append(f"{module}:{qualname}")
    return missing


def test_every_public_src_name_has_a_caller():
    missing = no_caller_names(REPO_ROOT)
    assert missing == [], (
        "public names in src/repro with no caller in src/, benchmarks/ or "
        "examples/ (delete them, or add one to ALLOWED with its ROADMAP "
        "item):\n" + "\n".join(missing)
    )


def test_allowlist_stays_short_and_names_an_item():
    assert len(ALLOWED) <= 10
    assert all(re.search(r"\b\d+\([a-z]\)", item) for item in ALLOWED.values())


def scan(tmp_path, files, scripts=""):
    """``no_caller_names`` over a throwaway tree of ``{path: source}``."""
    (tmp_path / "pyproject.toml").write_text(f"[project.scripts]\n{scripts}\n")
    for relative, source in files.items():
        path = tmp_path / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
    return no_caller_names(tmp_path)


def test_a_name_only_tests_call_is_reported(tmp_path):
    found = scan(tmp_path, {
        "src/repro/m.py": "def used():\n    pass\n\n\ndef unused():\n    pass\n",
        "benchmarks/b.py": "from repro.m import used\n\nused()\n",
        "tests/test_m.py": "from repro.m import unused\n\nunused()\n",
    })
    assert found == ["repro.m:unused"]


def test_a_dotted_path_string_counts_and_prose_does_not(tmp_path):
    found = scan(tmp_path, {
        "src/repro/m.py": "def traced():\n    pass\n\n\ndef helper():\n    pass\n",
        "benchmarks/b.py": 'SPANS = ("repro.m:traced",)\nprint("call helper here")\n',
    })
    assert found == ["repro.m:helper"]


def test_docstrings_and_reexports_do_not_count(tmp_path):
    found = scan(tmp_path, {
        "src/repro/__init__.py": 'from .m import exported\n\n__all__ = ["exported"]\n',
        "src/repro/m.py": "def exported():\n    pass\n\n\ndef mentioned():\n    pass\n",
        "examples/e.py": '"""See mentioned."""\n',
    })
    assert found == ["repro.m:exported", "repro.m:mentioned"]


def test_a_use_inside_its_own_body_does_not_count(tmp_path):
    found = scan(tmp_path, {
        "src/repro/m.py": (
            "def countdown(n):\n    return countdown(n - 1) if n else 0\n\n\n"
            "class Node:\n"
            "    def walk(self):\n        return self.walk()\n\n"
            "    def size(self):\n        return 1\n"
        ),
        "examples/e.py": "from repro.m import Node\n\nNode().size()\n",
    })
    assert found == ["repro.m:countdown", "repro.m:Node.walk"]


def test_registered_rules_and_entry_points_are_roots(tmp_path):
    found = scan(tmp_path, {
        "src/repro/m.py": (
            "def register(cls):\n    return cls\n\n\n"
            "@register\nclass Rule:\n    pass\n\n\n"
            "class Plain:\n    pass\n\n\n"
            "def main():\n    pass\n"
        ),
    }, scripts='tool = "repro.m:main"')
    assert found == ["repro.m:Plain"]


def test_an_allowed_name_is_not_reported(tmp_path, monkeypatch):
    monkeypatch.setitem(ALLOWED, "Index.lower_bound", "12(b)")
    found = scan(tmp_path, {
        "src/repro/m.py": "class Index:\n    def lower_bound(self):\n        return 0.0\n",
        "examples/e.py": "from repro.m import Index\n",
    })
    assert found == []


if __name__ == "__main__":
    found = no_caller_names(Path(sys.argv[1]) if len(sys.argv) > 1 else REPO_ROOT)
    print("\n".join(found))
    print(f"{len(found)} no-caller names")

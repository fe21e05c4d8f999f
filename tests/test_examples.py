"""Every example runs against the current public API and shows what it exists to show.

Each example is loaded under a non-``__main__`` run name (so an example that
still imports a removed or renamed public name fails on import), then its
``main()`` runs and its output must contain the line the example exists to
show.  ``approximate_tradeoff.py`` builds two PI databases (≈16 s), so only
its import is checked here; CI runs its ``main()`` in a separate step.
"""

import re
import runpy
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"
EXAMPLES = sorted(EXAMPLES_DIR.glob("*.py"))

#: Per example run in tier-1: a pattern its output must match.
SHOWS = {
    "adversary_leakage_demo.py": r"leaks information\?\s+: False",
    "oblivious_retrieval_demo.py": r"retrieved page matches original: True",
    "out_of_core.py": r"costs correct: True, indistinguishable: True",
    "private_navigation.py": r"LBS view of all four queries identical: True",
    "quickstart.py": r"adversary learned nothing \(Theorem 1\): True",
    # every scheme's row of the trade-off table: correct | indistinguishable
    "scheme_tradeoffs.py": "".join(
        rf"\n{scheme}\s+\|.*\| True\s+\| True\s*" for scheme in ("CI", "PI", "HY", r"PI\*")
    ),
    "sharded_batch.py": r"results bit-identical across both plans: True",
}
#: Examples whose ``main()`` runs in a CI step instead.
CI_ONLY = {"approximate_tradeoff.py"}


def test_examples_are_found():
    assert EXAMPLES
    assert {path.name for path in EXAMPLES} == set(SHOWS) | CI_ONLY


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.name)
def test_example_imports(path):
    namespace = runpy.run_path(str(path), run_name="example_import_check")
    assert callable(namespace.get("main"))


@pytest.mark.parametrize("name", sorted(SHOWS))
def test_example_main_shows_its_result(name, capsys):
    runpy.run_path(str(EXAMPLES_DIR / name), run_name="example_main_check")["main"]()
    output = capsys.readouterr().out
    assert re.search(SHOWS[name], output), output


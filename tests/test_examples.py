"""Every example imports cleanly against the current public API.

The examples are loaded under a non-``__main__`` run name, so their top-level
imports and definitions execute but their ``main()`` does not: an example
that still imports a removed or renamed public name fails here.
"""

import runpy
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).resolve().parent.parent / "examples").glob("*.py"))


def test_examples_are_found():
    assert EXAMPLES


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.name)
def test_example_imports(path):
    namespace = runpy.run_path(str(path), run_name="example_import_check")
    assert callable(namespace.get("main"))

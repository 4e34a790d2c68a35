"""Every example script still loads.

``runpy`` runs each file under another module name, so its imports and
top-level definitions execute but its ``__main__`` block does not: an
example that imports a name the package no longer has fails here, in
well under a second per file, without running the demo itself.
"""

import runpy
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).resolve().parents[1] / "examples").glob("*.py"))


def test_the_examples_are_found():
    assert len(EXAMPLES) >= 6


@pytest.mark.parametrize("path", EXAMPLES, ids=[path.name for path in EXAMPLES])
def test_example_loads(path):
    namespace = runpy.run_path(str(path), run_name="not_main")
    assert namespace["__name__"] == "not_main"

"""The test oracles and fixtures stay independent of the code they check."""

import ast
from pathlib import Path

import pytest

from misbench.graphs import mask_of

from fixtures import cycle_graph
from oracles import bipartition

TESTS = Path(__file__).resolve().parent


@pytest.mark.parametrize("module", ["oracles.py", "fixtures.py"])
def test_imports_from_misbench_only_graphs(module):
    # A scan that imported, say, misenum._sets_between would check the
    # search against itself.
    imported = set()
    for node in ast.walk(ast.parse((TESTS / module).read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert {name for name in imported if name.split(".")[0] in ("misbench", "")} == {"misbench.graphs"}


def test_colour_walk_known_answers():
    c4 = cycle_graph(4)
    s0, s1 = bipartition(c4, c4.full_mask)
    assert s0 | s1 == 15 and s0 & s1 == 0
    assert bipartition(cycle_graph(5), 31) is None
    assert bipartition(cycle_graph(5), mask_of((0, 1, 2, 3))) is not None

"""The package's export list matches what `ergoflux/__init__.py` imports."""
import ast
from pathlib import Path

import ergoflux as ef


def _imported_public_names():
    tree = ast.parse(Path(ef.__file__).read_text())
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    }


def test_all_resolves_and_lists_every_import():
    # a deleted function leaves no stale export behind, and no import goes unlisted
    assert [name for name in ef.__all__ if not hasattr(ef, name)] == []
    assert sorted(_imported_public_names() - set(ef.__all__)) == []
    assert len(set(ef.__all__)) == len(ef.__all__)
    # the pulse shaper's one functional gives the work and its gradient in one
    # call, and a square drive is a two-node table
    assert "control_work" not in ef.__all__ and "SquarePulse" not in ef.__all__
    assert len(ef.__all__) == 50


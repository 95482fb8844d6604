"""The package's public names: ``__all__`` lists exactly what ``__init__``
imports for users, and every listed name resolves."""

import ast
from pathlib import Path

import complexou


def _imported_names() -> set[str]:
    """Every name that ``complexou/__init__.py`` binds by a relative import."""
    tree = ast.parse(Path(complexou.__file__).read_text(encoding="utf-8"))
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }


def test_all_lists_exactly_the_imported_names():
    assert sorted(complexou.__all__) == sorted(_imported_names() | {"__version__"})


def test_every_listed_name_resolves():
    for name in complexou.__all__:
        assert hasattr(complexou, name), name

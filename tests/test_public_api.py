"""The package's public names: each resolves and is declared where it
is defined, names removed from the library stay removed, and every
module uses what it imports."""

import ast
import sys
from pathlib import Path

import pytest

import ecdf_bands

REMOVED = {
    "ecdf_bands.transform": ("fractional_ranks", "_grid_cell_counts"),
    "ecdf_bands.power": ("stat_KS", "stat_T1", "stat_U2", "stat_W2", "_scalar_stat"),
    "ecdf_bands.bands_single": ("_tail_levels", "_grid_cell_counts"),
    "ecdf_bands.bands_multi": ("_chain_cell_counts", "_chain_level_reader"),
}


@pytest.mark.parametrize("name", ecdf_bands.__all__)
def test_public_name_resolves_and_is_declared_where_defined(name):
    obj = getattr(ecdf_bands, name)
    home = sys.modules[getattr(obj, "__module__", "ecdf_bands")]
    assert name in home.__all__


@pytest.mark.parametrize(
    "module, name", [(m, n) for m, names in REMOVED.items() for n in names]
)
def test_removed_names_are_gone(module, name):
    assert not hasattr(sys.modules[module], name)
    assert not hasattr(ecdf_bands, name)
    assert name not in ecdf_bands.__all__


def test_thinning_plan_has_no_resulting_length():
    assert not hasattr(ecdf_bands.ThinningPlan, "resulting_length")


def test_every_module_uses_its_imports():
    """Each top-level import of a module other than ``__init__`` (which
    imports to re-export) is read somewhere in that module."""
    unused = []
    for path in sorted(Path(ecdf_bands.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        imports = [s for s in tree.body if isinstance(s, (ast.Import, ast.ImportFrom))]
        for stmt in imports:
            if getattr(stmt, "module", None) == "__future__":
                continue
            for alias in stmt.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    unused.append(f"{path.name}:{stmt.lineno} {name}")
    assert unused == []

"""The package's public names: each resolves and is declared where it
is defined, names removed from the library stay removed, every module
uses what it imports, and only the count laws' modules read their
tables."""

import ast
import sys
from pathlib import Path

import pytest

import ecdf_bands

REMOVED = {
    "ecdf_bands.transform": ("fractional_ranks", "_grid_cell_counts"),
    "ecdf_bands.power": (
        "stat_KS", "stat_T1", "stat_U2", "stat_W2", "_scalar_stat",
        "critical_value", "_critical_slot", "_simulated_critical_values",
    ),
    "ecdf_bands.bands_single": ("_tail_levels", "_grid_cell_counts", "_band_level", "_exact_coverage"),
    "ecdf_bands.bands_multi": ("_chain_cell_counts", "_chain_level_reader", "_chain_table", "_check_exact_chains"),
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


LAW_INTERNALS = (
    "_Law",
    "_bands",
    "_cdf_matrix",
    "_cdf_rows",
    "_cdf_slot",
    "_cdf_table",
    "_chain_law",
    "_count_bounds",
    "_coverage",
    "_grid_key",
    "_pooled_counts",
    "_rank_cells",
    "_sample_law",
    "_tail_level_reader",
)
"""The names through which a count law's record, table, bounds or level
reader is read; outside ``bands_single`` and ``bands_multi`` the laws
are read through ``_sample_levels``, ``_chain_levels`` and the public
bands."""


LAW_MODULES = ("bands_single.py", "bands_multi.py")


@pytest.mark.parametrize(
    "module",
    sorted(p.name for p in Path(ecdf_bands.__file__).parent.glob("*.py") if p.name not in LAW_MODULES),
)
def test_only_the_law_modules_read_a_law_table(module):
    """No name, attribute or import outside the law modules is one of
    ``LAW_INTERNALS``."""
    tree = ast.parse((Path(ecdf_bands.__file__).parent / module).read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    assert sorted(names.intersection(LAW_INTERNALS)) == []

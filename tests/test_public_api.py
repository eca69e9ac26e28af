"""The package's public names: each resolves and is declared where it
is defined, and names removed from the library stay removed."""

import sys

import pytest

import ecdf_bands

REMOVED = {
    "ecdf_bands.transform": ("fractional_ranks",),
    "ecdf_bands.power": ("stat_KS", "stat_T1", "stat_U2", "stat_W2", "_scalar_stat"),
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

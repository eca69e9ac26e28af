"""Shared test setup."""

import pytest

from ecdf_bands import gamma_cache


@pytest.fixture(autouse=True)
def empty_calibration_memo():
    """Start every test with an empty in-process calibration memo, so no
    test is served a gamma or a critical value that an earlier test
    computed."""
    gamma_cache._calibration_slot.cache_clear()

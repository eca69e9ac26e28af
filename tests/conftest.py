"""Shared test setup."""

import pytest

from ecdf_bands import gamma_cache, power


@pytest.fixture(autouse=True)
def empty_calibration_memos():
    """Start every test with empty in-process calibration memos, so no
    test is served a gamma or a critical value that an earlier test
    computed."""
    gamma_cache._calibration_slot.cache_clear()
    power._critical_slot.cache_clear()

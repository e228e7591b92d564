import pytest

from mrquant import cdf_analysis


@pytest.fixture(autouse=True)
def no_kept_window():
    """Start every test without a window kept by the kernel's memo, so a
    test that counts or patches the kernel's internals sees it walk, not a
    window an earlier test left behind."""
    cdf_analysis._window_kernel.cache_clear()

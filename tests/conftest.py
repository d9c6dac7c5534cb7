import pytest

from bpviral.wm import NAIVE_POST, SMART_POST, naive_mix as _naive_mix


@pytest.fixture
def smart_post():
    """Sharing/sensitivity parameters of the crowd-tagging benchmark with
    well-discriminating users."""
    return SMART_POST


@pytest.fixture
def naive_post():
    """Benchmark parameters with weakly discriminating (naive) users."""
    return NAIVE_POST


@pytest.fixture
def naive_mix():
    return _naive_mix

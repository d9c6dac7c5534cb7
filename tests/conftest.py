import hashlib

import numpy as np
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


@pytest.fixture
def sha256():
    """Hex sha256 of arrays (their raw bytes) and byte strings, in order."""
    def digest(*parts):
        h = hashlib.sha256()
        for part in parts:
            h.update(part if isinstance(part, bytes) else np.ascontiguousarray(part).tobytes())
        return h.hexdigest()
    return digest

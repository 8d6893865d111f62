"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

#: A longer search for tests that leave ``max_examples`` to the profile
#: (the replacement-selection engine differential test); select it with
#: ``--hypothesis-profile=long``.  Tier-1 runs the default profile.
settings.register_profile("long", max_examples=600, deadline=None)


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic generator for tests."""
    return np.random.default_rng(0xC0FFEE)


def make_sorted_keys(rng: np.random.Generator, n: int, lo: int = 0, hi: int = 10**9) -> np.ndarray:
    """Distinct sorted int64 keys for run construction."""
    keys = rng.choice(np.arange(lo, hi, dtype=np.int64), size=n, replace=False)
    keys.sort()
    return keys

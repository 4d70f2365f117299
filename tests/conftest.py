"""Tier-1 runs warning-free: a warning that a test does not expect fails it.

A test that provokes a warning on purpose asserts it with `pytest.warns`;
one that tolerates a kind of warning says so with its own `filterwarnings`
mark, which takes precedence over this one.
"""

from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent


def pytest_collection_modifyitems(items):
    for item in items:
        if Path(item.path).resolve().is_relative_to(TESTS):
            # prepended, so it is applied first and any other mark overrides it
            item.add_marker(pytest.mark.filterwarnings("error"), append=False)

"""The package's public export list."""

import gh401


def test_all_is_unique_and_every_name_resolves():
    # `from gh401 import *` fails on a name that no longer exists.
    assert len(gh401.__all__) == len(set(gh401.__all__))
    assert [name for name in gh401.__all__ if not hasattr(gh401, name)] == []

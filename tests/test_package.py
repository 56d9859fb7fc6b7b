"""The package's public surface."""

import trajkit


def test_every_exported_name_resolves():
    missing = [name for name in trajkit.__all__ if not hasattr(trajkit, name)]
    assert missing == []
    assert len(set(trajkit.__all__)) == len(trajkit.__all__)

"""The package's public surface."""

import ugcn


def test_every_export_resolves():
    missing = [name for name in ugcn.__all__ if not hasattr(ugcn, name)]
    assert missing == []

"""The package's public surface: every exported name resolves, once."""

import modlab


def test_all_names_resolve_without_duplicates():
    assert len(modlab.__all__) == len(set(modlab.__all__))
    missing = [name for name in modlab.__all__ if not hasattr(modlab, name)]
    assert missing == []

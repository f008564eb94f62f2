"""The package's public names."""

import splinecfr


def test_every_exported_name_resolves_once():
    names = splinecfr.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(splinecfr, name)]
    assert missing == []

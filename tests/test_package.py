"""The package's public surface: `adafamily.__all__` and star-imports."""

import adafamily


def test_star_import_binds_every_public_name():
    # a name in __all__ that the package does not define breaks only this
    namespace = {}
    exec("from adafamily import *", namespace)
    public = adafamily.__all__
    assert len(set(public)) == len(public)
    unbound = [name for name in public if namespace.get(name) is not getattr(adafamily, name)]
    assert unbound == []

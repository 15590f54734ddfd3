"""The package's public names: `__all__` is exactly what a star import binds."""

import pdsampling


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from pdsampling import *", namespace)
    del namespace["__builtins__"]
    assert len(set(pdsampling.__all__)) == len(pdsampling.__all__)
    assert sorted(namespace) == sorted(pdsampling.__all__)
    for name in pdsampling.__all__:
        assert namespace[name] is getattr(pdsampling, name)


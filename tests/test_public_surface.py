"""The package's public names: each one in __all__ resolves, and a star
import binds them all to the same objects."""

import sternbrocot


def test_all_lists_each_name_once():
    assert len(sternbrocot.__all__) == len(set(sternbrocot.__all__))


def test_every_public_name_resolves():
    missing = [name for name in sternbrocot.__all__ if not hasattr(sternbrocot, name)]
    assert missing == []


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from sternbrocot import *", namespace)
    for name in sternbrocot.__all__:
        assert namespace[name] is getattr(sternbrocot, name)

"""The package's public surface: every exported name exists."""

import mplab


def test_every_name_in_all_resolves():
    assert [name for name in mplab.__all__ if not hasattr(mplab, name)] == []


def test_star_import():
    namespace = {}
    exec("from mplab import *", namespace)
    assert set(mplab.__all__) <= set(namespace)

"""The package's public names: every name in ``synctrail.__all__`` is there."""

from __future__ import annotations

import synctrail


def test_every_name_in_all_resolves():
    assert [name for name in synctrail.__all__ if not hasattr(synctrail, name)] == []


def test_all_lists_each_name_once():
    assert len(set(synctrail.__all__)) == len(synctrail.__all__)


def test_star_import_binds_every_name_in_all():
    namespace: dict = {}
    exec("from synctrail import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(synctrail.__all__)

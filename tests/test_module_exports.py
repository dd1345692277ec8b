"""Every name a ``repro`` module lists in ``__all__`` exists in it.

A deletion that forgets an export list leaves ``from module import *``
and the documented surface pointing at nothing; this walks the whole
package so a stale entry fails tier-1 instead of a downstream import.
"""

import importlib
import pkgutil

import repro


def _modules():
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.name.rsplit(".", 1)[-1] != "__main__":
            yield info.name


def test_every_all_name_resolves():
    checked = 0
    missing = []
    for name in _modules():
        module = importlib.import_module(name)
        exported = getattr(module, "__all__", None)
        if exported is None:
            continue
        checked += 1
        missing.extend(f"{name}.{attr}" for attr in exported if not hasattr(module, attr))
    assert checked > 100, checked
    assert missing == []

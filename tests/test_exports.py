"""Every name a module exports resolves.

Tools that walk ``__all__`` (the benchmark's span tracer does, with
``getattr`` on each name) fail on a stale entry only when they run; this
makes one a test failure instead.
"""

import importlib
import pkgutil

import pytest

import enetstats

# __main__ runs the CLI when imported
MODULES = [
    name
    for name in ["enetstats"]
    + [f"enetstats.{info.name}" for info in pkgutil.iter_modules(enetstats.__path__)]
    if name != "enetstats.__main__" and hasattr(importlib.import_module(name), "__all__")
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []

"""Every name a package lists in ``__all__`` resolves on that package."""

import importlib

import pytest

PACKAGES = [
    "siltkit",
    "siltkit.core",
    "siltkit.homotopy",
    "siltkit.dg",
    "siltkit.correspond",
]


@pytest.mark.parametrize("package", PACKAGES)
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []

"""Every name a twostrain module exports in ``__all__`` exists."""

import importlib
import pkgutil

import pytest

import twostrain

MODULES = sorted(f"twostrain.{info.name}" for info in pkgutil.iter_modules(twostrain.__path__))


def test_every_module_is_checked():
    assert "twostrain.basin" in MODULES and "twostrain.stability" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())  # the CLI module exports nothing
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == [], f"{name}.__all__ names missing attributes: {missing}"

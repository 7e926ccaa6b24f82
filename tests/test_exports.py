"""Every name a module exports exists, so ``from ... import *`` works."""

import importlib
import pkgutil

import pytest

import intervalsig

MODULES = ["intervalsig"] + [
    f"intervalsig.{info.name}"
    for info in pkgutil.iter_modules(intervalsig.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", [])
               if not hasattr(module, attr)]
    assert missing == []

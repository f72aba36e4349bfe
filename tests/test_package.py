import importlib
import inspect

import pytest

import propertime

PHYSICS_MODULES = ("kinematics", "group", "fields", "dynamics", "many", "spectral")


@pytest.mark.parametrize("name", PHYSICS_MODULES)
def test_module_exports_reach_the_package(name):
    module = importlib.import_module(f"propertime.{name}")
    assert [n for n in module.__all__ if not hasattr(propertime, n)] == []
    defined = {
        n for n, obj in vars(module).items()
        if not n.startswith("_")
        and (inspect.isclass(obj) or inspect.isfunction(obj))
        and obj.__module__ == module.__name__
    }
    assert defined - set(module.__all__) == set()

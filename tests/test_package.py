import importlib
import inspect
import pathlib

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


def test_source_silences_no_warning():
    # with filterwarnings = error in the test settings, a warning a solver
    # raises fails the tests; a filter inside the package would hide it
    package = pathlib.Path(propertime.__file__).parent
    silencing = [
        f"{path.name}:{number}"
        for path in sorted(package.glob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if "warnings.catch_warnings" in line or 'simplefilter("ignore"' in line
    ]
    assert silencing == []

import importlib
import inspect
import pathlib
import subprocess
import sys
import textwrap

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


def test_failing_hypothesis_test_reports_its_example(tmp_path):
    # under this project's pytest settings, warnings raised while hypothesis
    # writes its report must not turn a failing example into an INTERNALERROR
    test = tmp_path / "test_fails.py"
    test.write_text(textwrap.dedent("""
        from hypothesis import given, settings, strategies as st

        @settings(database=None, derandomize=True)
        @given(st.integers())
        def test_fails(n):
            assert n < 5
    """))
    config = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(config),
         "--rootdir", str(tmp_path), str(test)],
        cwd=tmp_path, capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert "Falsifying example" in proc.stdout
    assert "INTERNALERROR" not in proc.stdout + proc.stderr

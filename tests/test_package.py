import importlib
import inspect
import json
import os
import pathlib
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import propertime
from propertime import cli

PHYSICS_MODULES = ("kinematics", "group", "fields", "dynamics", "many", "spectral")
GOLDEN = pathlib.Path(__file__).parent / "golden"


def run_fresh_python(code):
    """stdout of ``python -c code`` in a fresh interpreter on this package."""
    src = str(pathlib.Path(propertime.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


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


def test_package_all_is_the_module_lists_in_import_order():
    names = [n for name in PHYSICS_MODULES for n in importlib.import_module(f"propertime.{name}").__all__]
    assert propertime.__all__ == names
    assert len(names) == len(set(names)) == 83


def test_star_import_binds_exactly_the_package_all():
    out = run_fresh_python(textwrap.dedent("""
        import json
        import propertime
        namespace = {}
        exec("from propertime import *", namespace)
        print(json.dumps([sorted(set(namespace) - {"__builtins__"}), sorted(propertime.__all__)]))
    """))
    bound, exported = json.loads(out)
    assert bound == exported


def test_ptcli_script_resolves_to_cli_main():
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    pyproject = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as f:
        target = tomllib.load(f)["project"]["scripts"]["ptcli"]
    module, _, attr = target.partition(":")
    assert target == "propertime.cli:main"
    assert getattr(importlib.import_module(module), attr) is cli.main


def _particles():
    return propertime.ParticleSystem.random(3, np.random.default_rng(5))


def _state():
    return propertime.PhaseState(x=[3.0, 0.0, 0.0], p=[0.0, 0.5, 0.0], m=1.0, e=-1.0)


# each builds a fresh record with array fields; two calls give equal values
ARRAY_RECORDS = {
    "KinematicState": lambda: propertime.KinematicState([1.0, 0, 0], [0, 0.5, 0], 0.0, 0.0),
    "BoostParameters": lambda: propertime.BoostParameters([0.3, 0.0, 0.0]),
    "SourceDensities": lambda: propertime.SourceDensities.convective(1.0, [0.5, 0.0, 0.0]),
    "FieldGeometry": lambda: propertime.field_geometry(
        np.array([3.0, 1.0, 0.0]), 0.0, propertime.SourceTrajectory.uniform(1.0, np.zeros(3), [0.5, 0, 0])),
    "PhaseState": _state,
    "ForceDecomposition": lambda: propertime.propertime_force(
        _state(), propertime.FieldConfiguration.coulomb(1.0)),
    "OrbitTrajectory": lambda: propertime.integrate_orbit(
        _state(), propertime.FieldConfiguration.free(), 0.1, 3),
    "ParticleSystem": _particles,
    "GlobalInvariants": lambda: propertime.system_invariants(_particles()),
    "CenterOfMass": lambda: propertime.center_of_mass(_particles()),
    "ClusterSummary": lambda: propertime.cluster_split(_particles(), [[0, 1], [2]])[0],
    "FreeTrajectory": lambda: propertime.free_flight(_particles(), 0.1, 3),
    "RadialGridFunction": lambda: propertime.RadialGridFunction(np.arange(4.0), np.ones(4)),
    "ScenarioConfig": lambda: cli.ScenarioConfig.from_mapping({"scenario": "transform", "v": [0.3, 0, 0]}),
}


@pytest.mark.parametrize("name", ARRAY_RECORDS)
def test_records_with_arrays_compare_by_identity(name):
    # the generated __eq__ would take the truth value of an array and raise
    first, second = ARRAY_RECORDS[name](), ARRAY_RECORDS[name]()
    assert type(first).__name__ == name
    assert first == first and not first == second and first != second
    assert hash(first) != hash(second) and len({first, first, second}) == 2


@pytest.mark.parametrize("make", [
    lambda: propertime.UnitSystem(c=2.5),
    lambda: propertime.SourceTrajectory(1.0, abs, abs, abs),
    lambda: propertime.KernelParameters(m=1.0, c=1.0, hbar=1.0, mu=1.0),
])
def test_records_without_arrays_compare_by_value(make):
    assert make() == make() and hash(make()) == hash(make())


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


def test_import_and_redshift_load_no_scipy(tmp_path):
    # scipy is imported by the functions that call it, so a cold start
    # that calls none of them costs numpy only
    out = run_fresh_python(textwrap.dedent(f"""
        import json, sys
        import propertime
        from propertime import cli
        after_import = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
        code = cli.main(["redshift", "--config", {str(GOLDEN / "redshift.json")!r},
                         "--out", {str(tmp_path / "redshift.csv")!r}])
        after_run = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
        print(json.dumps([after_import, code, after_run]))
    """))
    assert json.loads(out) == [[], 0, []]


def test_sampled_source_fields_load_no_scipy():
    # from_samples builds its spline in numpy, so a sampled source's fields
    # cost numpy only
    out = run_fresh_python(textwrap.dedent("""
        import json, sys
        import numpy as np
        from propertime.fields import SourceTrajectory, fields_at
        grid = np.arange(-10.0, 2.0 + 1e-9, 0.25)
        positions = np.stack([0.4 * np.sin(grid), 0.2 * np.cos(grid), 0.0 * grid], axis=1)
        traj = SourceTrajectory.from_samples(1.0, grid, positions)
        E, B, tau_ret = fields_at(np.array([3.0, 0.5, -1.0]), 1.0, traj)
        finite = bool(np.isfinite(E).all() and np.isfinite(B).all())
        print(json.dumps([finite, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
    """))
    assert json.loads(out) == [True, []]

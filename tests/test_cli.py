import contextlib
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from propertime.cli import (
    _COMMON,
    _REQUIRED,
    SCENARIOS,
    ResultTable,
    ScenarioConfig,
    main,
    run_config,
    scenario_muon,
    scenario_rest_source,
)
from propertime import many, verify
from propertime.constants import C_SI, MUON_LIFETIME_S
from propertime.errors import PropertimeError
from propertime.kinematics import NATURAL, SI, proper_from_observer, redshift_z
from propertime.verify import Check


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run_fresh(*args):
    """python -m propertime.cli in a fresh interpreter on this checkout's src."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "propertime.cli", *args],
                          capture_output=True, text=True, env=env)


class TestRedshift:
    def test_rest(self):
        assert redshift_z(w=np.zeros(3)).z == 0.0

    def test_point_six(self):
        res = redshift_z(w=np.array([0.6, 0.0, 0.0]))
        assert res.z == 1.0  # exact: (1 + 0.6) / (1 - 0.6) is exactly 4.0

    def test_u_and_w_paths_bit_identical(self):
        w = np.array([0.6, 0.0, 0.0])
        u = proper_from_observer(w)
        assert redshift_z(u=u).z == redshift_z(w=w).z

    def test_small_speed_approximation(self):
        res = redshift_z(w=np.array([1e-4, 0.0, 0.0]))
        assert res.z_small_speed == pytest.approx(res.z, rel=2e-4)

    def test_rejects_superluminal(self):
        with pytest.raises(PropertimeError):
            redshift_z(w=np.array([1.0, 0.0, 0.0]))

    def test_requires_exactly_one_input(self):
        with pytest.raises(PropertimeError):
            redshift_z()
        with pytest.raises(PropertimeError):
            redshift_z(w=np.zeros(3), u=np.zeros(3))

    def test_proper_speed_triple_reported(self):
        # apparent superluminal speed reinterpreted as a proper velocity
        res = redshift_z(u=np.array([10.0, 0.0, 0.0]))
        assert res.u_mag == 10.0
        assert res.b == pytest.approx(math.sqrt(101.0), rel=1e-14)
        assert res.w_mag < 1.0


def muon(lifetime_s, u_over_c, altitude_m):
    params = {"lifetime_s": lifetime_s, "u_over_c": u_over_c, "altitude_m": altitude_m}
    return scenario_muon(params, SI, 0)


def rest_source(v):
    return scenario_rest_source({"v": np.asarray(v, dtype=float)}, NATURAL, 0)


class TestMuonScenario:
    def test_reference_numbers(self):
        table = muon(2.2e-6, 10.0, 15_000.0)
        row = dict(zip(table.columns, table.rows[0]))
        assert row["proper_range"] == pytest.approx(10.0 * C_SI * 2.2e-6, rel=1e-12)
        assert row["proper_range"] == pytest.approx(6595.4, abs=0.1)
        assert row["naive_range"] < C_SI * 2.2e-6  # |w| < c always
        assert row["reaches_proper"] is False  # 6.6 km < 15 km
        assert row["reaches_naive"] is False

    def test_reaches_lower_altitude(self):
        table = muon(MUON_LIFETIME_S, 10.0, 5_000.0)
        row = dict(zip(table.columns, table.rows[0]))
        assert row["reaches_proper"] is True
        assert row["reaches_naive"] is False

    def test_vanishing_speed(self):
        with pytest.raises(PropertimeError):
            muon(2.2e-6, 0.0, 1000.0)

    def test_c_metadata_is_si(self, tmp_path, capsys):
        # muon computes in SI whatever the config's units; "# c" says so
        cfg = write_config(
            tmp_path, "mu.json",
            {"scenario": "muon", "lifetime_s": 2.2e-6, "u_over_c": 10, "altitude_m": 15000},
        )
        assert run_config(cfg) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "# c = 299792458" in lines
        header = lines.index(next(l for l in lines if not l.startswith("#")))
        row = dict(zip(lines[header].split(","), lines[header + 1].split(",")))
        assert float(row["u_mag"]) == 10.0 * C_SI


class TestRestSourceScenario:
    def test_rest_frame(self):
        table = rest_source(np.zeros(3))
        row = dict(zip(table.columns, table.rows[0]))
        assert row["b_prime"] == 1.0
        assert row["u_prime_mag"] == 0.0

    def test_point_six(self):
        table = rest_source(np.array([0.6, 0.0, 0.0]))
        row = dict(zip(table.columns, table.rows[0]))
        assert row["gamma"] == pytest.approx(1.25, rel=1e-14)
        assert row["b_prime"] == pytest.approx(1.25, rel=1e-14)
        assert row["u_prime_mag"] == pytest.approx(0.75, rel=1e-14)

    def test_ultrarelativistic(self):
        table = rest_source(np.array([0.99, 0.0, 0.0]))
        row = dict(zip(table.columns, table.rows[0]))
        assert row["b_prime"] == pytest.approx(7.08881205, abs=1e-6)


class TestConfigValidation:
    def test_unknown_key_named(self, tmp_path, capsys):
        path = write_config(tmp_path, "bad.json", {"scenario": "redshift", "wx": 1})
        assert run_config(path) == 2
        assert "wx" in capsys.readouterr().err

    def test_missing_required_key(self, tmp_path, capsys):
        path = write_config(tmp_path, "bad.json", {"scenario": "muon", "u_over_c": 2.0})
        assert run_config(path) == 2
        err = capsys.readouterr().err
        assert "lifetime_s" in err and "altitude_m" in err

    def test_unknown_scenario(self, tmp_path):
        path = write_config(tmp_path, "bad.json", {"scenario": "warpdrive"})
        assert run_config(path) == 2

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert run_config(str(path)) == 2

    def test_numerical_failure_exit_code(self, tmp_path, capsys):
        path = write_config(
            tmp_path, "fast.json", {"scenario": "redshift", "w": [2.0, 0.0, 0.0]}
        )
        assert run_config(path) == 3
        assert "redshift" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "payload",
        [
            {"scenario": "rest_source", "v": [1.0, 0.0, 0.0]},  # |v| = c
            {"scenario": "orbit", "m": 1e300, "x0": [1.0, 0, 0], "p0": [0, 1.0, 0],
             "dtau": 0.1, "steps": 5},  # float overflow inside the integrator
        ],
    )
    def test_physics_failure_exits_3(self, tmp_path, capsys, payload):
        path = write_config(tmp_path, "cfg.json", payload)
        assert main([payload["scenario"].replace("_", "-"), "--config", path]) == 3
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "payload",
        [
            {"scenario": "fields", "charge": 1.0, "u": [1e300, 0.0, 0.0]},
            # u_over_c * c overflows to inf, and numpy's inf / inf is invalid
            {"scenario": "muon", "lifetime_s": 1e-300, "u_over_c": 1e300, "altitude_m": 1.5e4},
            # inf from a Python float product, which numpy never sees
            {"scenario": "muon", "lifetime_s": 1e300, "u_over_c": 1e10, "altitude_m": 1.5e4},
            # width**2 underflows to 0, and the Gaussian divides by it
            {"scenario": "spectral", "width_over_compton": 1e-300},
            # the pull at |x| = 1e-100 overflows the momentum in the first step
            {"scenario": "orbit", "potential": "coulomb", "strength": 1.0, "m": 1.0,
             "x0": [1e-100, 0.0, 0.0], "p0": [0.0, 0.0, 0.0], "dtau": 0.1, "steps": 5},
        ],
        ids=["fields-u", "muon-nan", "muon-python-overflow", "spectral-width", "orbit-momentum"],
    )
    def test_overflow_exits_3_with_one_line(self, tmp_path, payload):
        # a fresh interpreter, so stderr is what a user sees: no numpy warnings
        path = write_config(tmp_path, "big.json", payload)
        proc = run_fresh(payload["scenario"], "--config", path)
        assert proc.returncode == 3
        assert "RuntimeWarning" not in proc.stderr
        assert len(proc.stderr.splitlines()) == 1
        assert "numerical failure" in proc.stderr

    # sizes numpy refuses before allocating anything; a size it would try to
    # allocate (10**13 floats) can succeed on a host that overcommits memory
    @pytest.mark.parametrize(
        "payload",
        [
            {"scenario": "nbody", "n": 10**30},
            {"scenario": "fields", "charge": 1.0, "u": [0.5, 0.0, 0.0], "points": 10**30},
            {"scenario": "spectral", "width_over_compton": 2.0, "points": 10**30},
        ],
        ids=["nbody-n", "fields-points", "spectral-points"],
    )
    def test_unindexable_size_exits_3_with_one_line(self, tmp_path, capsys, payload):
        path = write_config(tmp_path, "huge.json", payload)
        assert main([payload["scenario"], "--config", path]) == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert f"numerical failure in {payload['scenario']}: MemoryError" in err

    def test_memory_error_exits_3_with_one_line(self, tmp_path, capsys, monkeypatch):
        def scenario(params, units, seed):
            raise MemoryError("Unable to allocate 72.8 TiB")

        monkeypatch.setitem(SCENARIOS, "redshift", (scenario, SCENARIOS["redshift"][1]))
        path = write_config(tmp_path, "cfg.json", {"scenario": "redshift"})
        assert main(["redshift", "--config", path]) == 3
        err = capsys.readouterr().err
        assert err.splitlines() == [
            "numerical failure in redshift: MemoryError: Unable to allocate 72.8 TiB"]


def test_verify_has_no_units_option():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--units", "si"])
    assert exc.value.code == 2


@pytest.mark.parametrize("residual, code", [(0.5, 0), (2.0, 3)], ids=["passing", "failing"])
def test_verify_out_writes_one_row_per_check(tmp_path, monkeypatch, capsys, residual, code):
    checks = [Check("kinematics: b = gamma c", 2e-16, 1e-12), Check("stub: last", residual, 1.0)]
    monkeypatch.setattr(verify, "run_all", lambda: checks)
    out = tmp_path / "checks.csv"
    assert main(["verify", "--out", str(out)]) == code
    assert capsys.readouterr().err == ""
    lines = [line for line in out.read_text().splitlines() if not line.startswith("#")]
    assert lines[0] == "name,residual,tolerance,passed"
    assert [line.split(",") for line in lines[1:]] == [
        [c.name, format(c.residual, ".17g"), format(c.tolerance, ".17g"), str(int(c.passed))]
        for c in checks
    ]


def test_verify_check_names_fit_one_csv_cell():
    assert all("," not in check.name for check in verify.run_all())


@pytest.mark.parametrize("command", ["redshift", "verify"])
def test_missing_out_directory_named_in_one_line(tmp_path, monkeypatch, capsys, command):
    monkeypatch.setattr(verify, "run_all", lambda: [Check("stub: only", 0.5, 1.0)])
    monkeypatch.chdir(tmp_path)
    out = os.path.join("missing", "x.csv")
    argv = [command, "--out", out]
    if command == "redshift":
        cfg = write_config(tmp_path, "red.json", {"scenario": "redshift", "u": [0.6, 0, 0]})
        argv += ["--config", cfg]
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error:")
    assert repr(out) in err[0] and ".tmp" not in err[0]
    assert not (tmp_path / "missing").exists()


def test_verify_unwritable_out_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(verify, "run_all", lambda: [Check("stub: only", 0.5, 1.0)])
    out = tmp_path / "missing_dir" / "checks.csv"
    assert main(["verify", "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error:")
    assert not out.parent.exists()


ORBIT = {"scenario": "orbit", "m": 1.0, "x0": [1.0, 0, 0], "p0": [0, 1.0, 0], "dtau": 0.1, "steps": 5}
FIELDS = {"scenario": "fields", "charge": 1.0, "u": [0.5, 0, 0]}
MUON = {"scenario": "muon", "lifetime_s": 2.2e-6, "u_over_c": 10, "altitude_m": 15000}


@pytest.mark.parametrize(
    "payload, named",
    [
        ({**ORBIT, "m": "heavy"}, "'m'"),
        ({**FIELDS, "points": "six"}, "'points'"),
        ({"scenario": "spectral", "width_over_compton": 2.0, "points": "six"}, "'points'"),
        ({"scenario": "rest_source", "v": "fast"}, "'v'"),
        ({**MUON, "lifetime_s": "x"}, "'lifetime_s'"),
        ({**ORBIT, "record_every": 0}, "'record_every'"),
        ([ORBIT], "JSON object"),
        ({**ORBIT, "x0": [1.0, 0.0]}, "'x0'"),
        ({**ORBIT, "steps": -5}, "'steps'"),
        ({**FIELDS, "points": 0}, "'points'"),
        ({**FIELDS, "seed": True}, "'seed'"),
        ({"scenario": "nbody", "n": 0}, "'n'"),
        ({"scenario": "nbody", "n": 2, "seed": -1}, "'seed'"),
        ({"scenario": "nbody", "n": 2, "p_max": -1.0}, "'p_max'"),
        ({"scenario": "nbody", "n": 3, "masses": [1.0, 1.0], "xs": [[0, 0, 0]] * 2,
          "ps": [[0, 0, 0]] * 2}, "masses"),
    ],
)
def test_malformed_config_exits_2(tmp_path, capsys, payload, named):
    path = write_config(tmp_path, "bad.json", payload)
    scenario = ORBIT["scenario"] if isinstance(payload, list) else payload["scenario"]
    assert main([scenario.replace("_", "-"), "--config", path]) == 2
    assert named in capsys.readouterr().err


def one_config_error(capsys):
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error:"), err
    return err[0]


@pytest.mark.parametrize(
    "payload, named",
    [
        ({**FIELDS, "tau": math.inf}, "'tau'"),
        ({"scenario": "rest_source", "v": [math.inf, 0.0, 0.0]}, "'v'"),
        ({"scenario": "rest_source", "v": [math.nan, 0.0, 0.0]}, "'v'"),
    ],
    ids=["infinite-float", "infinite-vector", "nan-vector"],
)
def test_non_finite_value_exits_2(tmp_path, capsys, payload, named):
    # json writes and reads these as the non-standard tokens Infinity and NaN
    path = write_config(tmp_path, "bad.json", payload)
    assert main([payload["scenario"].replace("_", "-"), "--config", path]) == 2
    line = one_config_error(capsys)
    assert named in line and "must be finite" in line


def test_missing_config_file_exits_2(tmp_path, capsys):
    missing = str(tmp_path / "nowhere.json")
    assert main(["redshift", "--config", missing]) == 2
    assert "nowhere.json" in one_config_error(capsys)


EDGE_VALUES = (0.0, 1e-300, -1e-300, 1e300, -1e300, 1.0 + 1e-9, 1.0 - 1e-9)


def registry_values(kind, lower):
    """Values of one registry entry: its kind and shape, the edge values and
    its lower bound; sizes stay small so each run is quick."""
    if kind is int:
        start = lower[0] if lower else 0
        return st.integers(start - 1, start + 5)
    if kind is float:
        return st.sampled_from(EDGE_VALUES + tuple(lower)) | st.floats(-10.0, 10.0)
    if isinstance(kind, set):
        return st.sampled_from(sorted(kind))
    values = registry_values(float, ())
    for extent in reversed(kind):  # a shape; a None extent takes any length
        values = st.integers(0, 3).flatmap(
            lambda size, inner=values: st.lists(inner, min_size=size, max_size=size)
        ) if extent is None else st.lists(values, min_size=extent, max_size=extent)
    return values


@st.composite
def registry_configs(draw):
    """A config for any scenario: every required key and some optional ones.
    String keys name an output path, so they are left out."""
    scenario = draw(st.sampled_from(sorted(SCENARIOS)))
    payload = {"scenario": scenario}
    for key, (kind, default, *lower) in {**SCENARIOS[scenario][1], **_COMMON}.items():
        if kind is not str and (default is _REQUIRED or draw(st.booleans())):
            payload[key] = draw(registry_values(kind, lower))
    return payload


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(payload=registry_configs())
def test_generated_configs_keep_the_exit_code_contract(tmp_path_factory, payload):
    path = tmp_path_factory.getbasetemp() / "generated.json"
    path.write_text(json.dumps(payload))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run_config(str(path), stream=out)
    assert code in (0, 2, 3)
    if code:
        assert len(err.getvalue().splitlines()) == 1
    else:
        rows = [line for line in out.getvalue().splitlines() if not line.startswith("#")][1:]
        cells = [cell for row in rows for cell in row.split(",")]
        assert cells and all(math.isfinite(float(cell)) for cell in cells)


class TestRunConfig:
    def test_redshift_csv_value(self, tmp_path):
        cfg = write_config(
            tmp_path, "red.json", {"scenario": "redshift", "w": [0.6, 0.0, 0.0]}
        )
        out = tmp_path / "red.csv"
        assert run_config(cfg, out=str(out)) == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        header = lines[0].split(",")
        values = dict(zip(header, lines[1].split(",")))
        assert float(values["z"]) == 1.0

    def test_data_rows_byte_identical(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "orbit.json",
            {
                "scenario": "orbit",
                "m": 1.0,
                "x0": [25.0, 0.0, 0.0],
                "p0": [0.0, 0.2, 0.0],
                "dtau": 0.5,
                "steps": 200,
                "potential": "coulomb",
            },
        )
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_config(cfg, out=str(out1)) == 0
        assert run_config(cfg, out=str(out2)) == 0
        data1 = [l for l in out1.read_text().splitlines() if not l.startswith("#")]
        data2 = [l for l in out2.read_text().splitlines() if not l.startswith("#")]
        assert data1 == data2

    def test_free_orbit_straight_line(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "free.json",
            {
                "scenario": "orbit",
                "m": 2.0,
                "x0": [0.0, 0.0, 0.0],
                "p0": [0.5, 0.0, 0.0],
                "dtau": 0.1,
                "steps": 50,
            },
        )
        out = tmp_path / "free.csv"
        assert run_config(cfg, out=str(out)) == 0
        rows = [
            l.split(",")
            for l in out.read_text().splitlines()
            if not (l.startswith("#") or l.startswith("tau"))
        ]
        tau = np.array([float(r[0]) for r in rows])
        x = np.array([float(r[1]) for r in rows])
        np.testing.assert_allclose(x, 0.25 * tau, rtol=1e-12, atol=1e-12)

    def test_nbody_scenario(self, tmp_path, monkeypatch):
        calls = {}

        def counted(owner, name):
            f = getattr(owner, name)

            def wrapped(*args):
                calls[name] += 1
                return f(*args)

            monkeypatch.setattr(owner, name, wrapped)

        counted(many, "_mass_shell")
        counted(many, "_center")
        counted(many.ParticleSystem, "particle_energies")
        for n in (3, 10, 30):
            calls.update(_mass_shell=0, _center=0, particle_energies=0)
            cfg = write_config(
                tmp_path, "nb.json", {"scenario": "nbody", "n": n, "seed": 11}
            )
            out = tmp_path / "nb.csv"
            assert run_config(cfg, out=str(out)) == 0
            # the invariants are derived once; the other 9 energies are the
            # algebra table's rest energy and its 8 complex-step stacks
            assert calls == {"_mass_shell": 1, "_center": 1, "particle_energies": 10}, n
            meta = {
                l.split(" = ")[0][2:]: l.split(" = ")[1]
                for l in out.read_text().splitlines()
                if l.startswith("#")
            }
            assert float(meta["algebra_max_residual"]) < 1e-6

    def test_nbody_explicit_particles(self, tmp_path):
        cfg = write_config(
            tmp_path, "nb.json",
            {"scenario": "nbody", "n": 2, "masses": [1.0, 2.0],
             "xs": [[0, 0, 0], [1, 0, 0]], "ps": [[0.5, 0, 0], [0, 0, 0]]},
        )
        out = tmp_path / "nb.csv"
        assert run_config(cfg, out=str(out)) == 0
        rows = [l.split(",") for l in out.read_text().splitlines() if not l.startswith("#")]
        assert [float(r[1]) for r in rows[1:]] == [1.0, 2.0]

    def test_fields_scenario_orthogonality_column(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "f.json",
            {"scenario": "fields", "charge": 1.0, "u": [0.7, 0.0, 0.0], "points": 6},
        )
        out = tmp_path / "f.csv"
        assert run_config(cfg, out=str(out)) == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        header = lines[0].split(",")
        col = header.index("E_dot_B")
        for line in lines[1:]:
            assert abs(float(line.split(",")[col])) < 1e-11

    def test_spectral_scenario_metadata(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "s.json",
            {"scenario": "spectral", "width_over_compton": 3.0, "points": 128},
        )
        out = tmp_path / "s.csv"
        assert run_config(cfg, out=str(out)) == 0
        meta = {
            l.split(" = ")[0][2:]: l.split(" = ")[1]
            for l in out.read_text().splitlines()
            if l.startswith("#")
        }
        assert float(meta["rel_l2_error"]) < 1e-3

    def test_transform_scenario_roundtrip_column(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "t.json",
            {
                "scenario": "transform",
                "v": [0.6, 0.0, 0.0],
                "u": [0.75, 0.0, 0.0],
                "a": [0.1, 0.2, 0.0],
            },
        )
        out = tmp_path / "t.csv"
        assert run_config(cfg, out=str(out)) == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        header = lines[0].split(",")
        values = dict(zip(header, lines[1].split(",")))
        assert float(values["roundtrip_residual"]) < 1e-10
        assert float(values["b_prime"]) == pytest.approx(1.0, abs=1e-14)


class TestMainEntry:
    def test_subcommand_scenario_mismatch(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, "red.json", {"scenario": "redshift", "w": [0.6, 0.0, 0.0]}
        )
        assert main(["muon", "--config", cfg]) == 2

    def test_rest_source_subcommand_dash_name(self, tmp_path):
        cfg = write_config(
            tmp_path, "rs.json", {"scenario": "rest_source", "v": [0.6, 0.0, 0.0]}
        )
        out = tmp_path / "rs.csv"
        assert main(["rest-source", "--config", cfg, "--out", str(out)]) == 0
        assert out.exists()

    def test_parallel_configs(self, tmp_path):
        # several configs in one run, each writing to its own "out"
        cfgs = [
            write_config(
                tmp_path, f"r{i}.json",
                {"scenario": "redshift", "w": [0.1 * i, 0.0, 0.0], "out": str(tmp_path / f"r{i}.csv")},
            )
            for i in (1, 2, 3)
        ]
        args = ["redshift"]
        for c in cfgs:
            args += ["--config", c]
        assert main(args) == 0
        for i in (1, 2, 3):
            assert (tmp_path / f"r{i}.csv").exists()

    def test_invalid_config_between_valid_ones(self, tmp_path, capsys):
        # the invalid config is reported once, and the two around it still run
        good = [
            write_config(tmp_path, f"r{i}.json", {"scenario": "redshift", "w": [0.1 * i, 0.0, 0.0],
                                                  "out": str(tmp_path / f"r{i}.csv")})
            for i in (1, 2)
        ]
        bad = write_config(tmp_path, "bad.json", {"scenario": "redshift", "w": [math.inf, 0.0, 0.0]})
        assert main(["redshift", "--config", good[0], "--config", bad, "--config", good[1]]) == 2
        assert "'w'" in one_config_error(capsys)
        for i in (1, 2):
            assert (tmp_path / f"r{i}.csv").exists()

    def test_unwritable_out_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "red.json", {"scenario": "redshift", "w": [0.6, 0.0, 0.0]})
        out = tmp_path / "missing_dir" / "red.csv"
        assert main(["redshift", "--config", cfg, "--out", str(out)]) == 2
        assert "missing_dir" in capsys.readouterr().err

    def test_one_out_for_several_configs_rejected(self, tmp_path, capsys):
        cfgs = [
            write_config(tmp_path, f"r{i}.json", {"scenario": "redshift", "w": [0.1 * i, 0.0, 0.0]})
            for i in (1, 2)
        ]
        out = tmp_path / "r.csv"
        assert main(["redshift", "--config", cfgs[0], "--config", cfgs[1], "--out", str(out)]) == 2
        assert "--out" in capsys.readouterr().err
        assert not out.exists()

    def test_two_configs_writing_one_file_rejected(self, tmp_path, monkeypatch, capsys):
        # the second config names the first one's file by another path
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        first = write_config(tmp_path, "a.json",
                             {"scenario": "redshift", "w": [0.1, 0.0, 0.0], "out": "same.csv"})
        second = write_config(tmp_path, "b.json", {"scenario": "redshift", "w": [0.2, 0.0, 0.0],
                                                   "out": os.path.join("sub", os.pardir, "same.csv")})
        assert main(["redshift", "--config", first, "--config", second]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error:") and "same.csv" in err[0]
        assert run_config(first, out=str(tmp_path / "alone.csv")) == 0
        assert (tmp_path / "same.csv").read_bytes() == (tmp_path / "alone.csv").read_bytes()


def test_second_main_call_matches_a_fresh_process(tmp_path, capsys):
    # main builds its parser once per process: later calls with another
    # subcommand and other options print and write what a fresh process does
    golden = os.path.join(os.path.dirname(__file__), "golden")
    orbit, redshift = (os.path.join(golden, f"{name}.json") for name in ("orbit", "redshift"))
    assert main(["orbit", "--config", orbit, "--out", str(tmp_path / "a.csv")]) == 0
    capsys.readouterr()
    assert main(["redshift", "--config", redshift, "--units", "si"]) == 0
    second = capsys.readouterr()
    assert main(["orbit", "--config", orbit, "--out", str(tmp_path / "b.csv")]) == 0
    expected = run_fresh("redshift", "--config", redshift, "--units", "si")
    assert (0, second.out, second.err) == (expected.returncode, expected.stdout, expected.stderr)
    assert second.out and not second.err
    assert run_fresh("orbit", "--config", orbit, "--out", str(tmp_path / "fresh.csv")).returncode == 0
    for name in ("a.csv", "b.csv"):
        assert (tmp_path / name).read_bytes() == (tmp_path / "fresh.csv").read_bytes()


def test_result_table_rectangular_guard():
    table = ResultTable(columns=["a", "b"])
    with pytest.raises(ValueError):
        table.add_row(1.0)


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_result_table_rejects_non_finite_cell(bad):
    table = ResultTable(columns=["a", "b"])
    with pytest.raises(ArithmeticError, match="non-finite b"):
        table.add_row(1.0, bad)
    assert table.rows == []


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_result_table_rejects_a_block_with_a_non_finite_cell(bad):
    table = ResultTable(columns=["a", "b", "c"])
    block = np.arange(12.0).reshape(4, 3)
    block[2, 1] = bad
    block[3, 2] = math.nan  # a later bad cell is not the one named
    with pytest.raises(ArithmeticError, match=f"non-finite b = {bad}"):
        table.add_rows(block)
    assert table.rows == []


def _fmt_by_type(value):
    """The cell formatter of the tables' one-cell-at-a-time formatting."""
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


CELLS = [0, 7, -3, 29, 10**16, 2**53, -(2**53), True, False, np.bool_(True), np.int64(12),
         -0.0, 0.0, 1e16, 1e17, 0.1, 1 / 3, 2.0 / 3.0 * 1e-300, 5e-324, 1.7976931348623157e308,
         -2.9313636401907619e-18, 0.30000000000000004, np.float64(6595.4)]


def test_result_table_cells_format_as_by_type():
    table = ResultTable(columns=[f"c{i}" for i in range(len(CELLS))])
    table.add_row(*CELLS)
    table.add_rows(np.array([CELLS], dtype=float))
    expected = ",".join(_fmt_by_type(v) for v in CELLS)
    assert table.lines() == [",".join(table.columns), expected, expected]


def test_verify_out_is_the_one_cell_at_a_time_output(tmp_path, monkeypatch, capsys):
    # the real checks plus a failing nan and a -0.0 residual
    checks = [*verify.run_all(), Check("stub: nan", math.nan, 1.0), Check("stub: zero", -0.0, 1e-12)]
    monkeypatch.setattr(verify, "run_all", lambda: checks)
    out = tmp_path / "checks.csv"
    assert main(["verify", "--out", str(out)]) == 3
    capsys.readouterr()
    from propertime import __version__

    expected = [f"# version = {__version__}", "name,residual,tolerance,passed"] + [
        ",".join(_fmt_by_type(v) for v in (c.name, c.residual, c.tolerance, c.passed))
        for c in checks
    ]
    assert out.read_bytes() == ("\n".join(expected) + "\n").encode("utf-8")


def test_scenario_config_rejects_bad_units():
    with pytest.raises(Exception):
        ScenarioConfig.from_mapping({"scenario": "redshift", "w": [0, 0, 0], "units": "imperial"})

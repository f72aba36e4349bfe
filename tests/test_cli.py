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
from propertime.constants import C_SI, MUON_LIFETIME_S
from propertime.errors import PropertimeError
from propertime.kinematics import NATURAL, SI, proper_from_observer, redshift_z


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


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
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-m", "propertime.cli", payload["scenario"],
                               "--config", path], capture_output=True, text=True, env=env)
        assert proc.returncode == 3
        assert "RuntimeWarning" not in proc.stderr
        assert len(proc.stderr.splitlines()) == 1
        assert "numerical failure" in proc.stderr


def test_verify_has_no_units_option():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--units", "si"])
    assert exc.value.code == 2


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

    def test_nbody_scenario(self, tmp_path):
        cfg = write_config(
            tmp_path, "nb.json", {"scenario": "nbody", "n": 3, "seed": 11}
        )
        out = tmp_path / "nb.csv"
        assert run_config(cfg, out=str(out)) == 0
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


def test_scenario_config_rejects_bad_units():
    with pytest.raises(Exception):
        ScenarioConfig.from_mapping({"scenario": "redshift", "w": [0, 0, 0], "units": "imperial"})

"""Data rows of one small config per scenario, recorded once and compared exactly.

Each ``tests/golden/<name>.json`` config has its expected ``run_config``
output in ``<name>.csv``.  The ``#`` metadata lines (version, config echo)
may change; every other line must match byte for byte, so a refactor that
claims no behaviour change is checked here.  The expected files are
regenerated only for an intended change of output, by writing the
``run_config`` output of each config to its ``.csv``.
"""

import io
import json
import pathlib

import numpy as np
import pytest

from oracles import retarded_time_constant_velocity
from propertime.cli import SCENARIOS, run_config

GOLDEN = pathlib.Path(__file__).parent / "golden"
CONFIGS = sorted(GOLDEN.glob("*.json"))


def data_lines(text):
    return [line for line in text.splitlines() if not line.startswith("#")]


def test_one_config_per_scenario():
    assert sorted(path.stem for path in CONFIGS) == sorted(SCENARIOS)


@pytest.mark.parametrize("config", CONFIGS, ids=lambda path: path.stem)
def test_data_rows_match_golden(config):
    stream = io.StringIO()
    assert run_config(str(config), stream=stream) == 0
    expected = data_lines(config.with_suffix(".csv").read_text(encoding="utf-8"))
    assert len(expected) > 1  # header plus at least one data row
    assert data_lines(stream.getvalue()) == expected


def test_fields_tau_ret_is_the_closed_form_root():
    # the uniform source's retarded time is a quadratic's root; the solve
    # reaches it to rounding, well inside its 1e-12 max(1, |tau|) tolerance
    config = GOLDEN / "fields.json"
    stream = io.StringIO()
    assert run_config(str(config), stream=stream) == 0
    header, *rows = data_lines(stream.getvalue())
    columns = header.split(",")
    data = np.array([[float(v) for v in row.split(",")] for row in rows])
    params = json.loads(config.read_text(encoding="utf-8"))
    tau = params["tau"]
    for row in data:
        point = row[[columns.index(k) for k in ("x", "y", "z")]]
        expected = retarded_time_constant_velocity(point, tau, np.zeros(3), params["u"])
        assert abs(row[columns.index("tau_ret")] - expected) <= 1e-14 * max(1.0, abs(tau))

"""Data rows of one small config per scenario, recorded once and compared exactly.

Each ``tests/golden/<name>.json`` config has its expected ``run_config``
output in ``<name>.csv``.  The ``#`` metadata lines (version, config echo)
may change; every other line must match byte for byte, so a refactor that
claims no behaviour change is checked here.  The expected files are
regenerated only for an intended change of output, by writing the
``run_config`` output of each config to its ``.csv``.
"""

import io
import pathlib

import pytest

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

"""Every shipped config reproduces its pinned report byte for byte.

tests/reports/<name>.txt holds `Report.records()` of configs/<name>.ini at
the config's own seed.  A change that moves a reported value says which
value moved, by how much and why, and regenerates the file."""

from pathlib import Path

import numpy as np
import pytest

from finslab import cli

TESTS = Path(__file__).resolve().parent
CONFIGS = sorted((TESTS.parent / "configs").glob("*.ini"))


def test_every_config_has_a_pinned_report():
    assert CONFIGS
    assert sorted(p.stem for p in CONFIGS) == sorted(
        p.stem for p in (TESTS / "reports").glob("*.txt"))


@pytest.mark.parametrize("config", CONFIGS, ids=lambda p: p.stem)
def test_config_reproduces_its_pinned_report(config):
    cfg = cli.load_config(config)
    # the error state of cli.main, which ignores overflow in favour of the
    # typed errors of the non-finite guards
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        report = cli.run_experiment(config.stem, cfg)
    assert report.passed
    assert report.records() == (TESTS / "reports" / f"{config.stem}.txt").read_text()

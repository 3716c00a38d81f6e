"""The demos run end to end through the public API and print their summaries."""

from __future__ import annotations

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize(
    ("script", "summary"),
    [
        ("energy_decay.py", ("largest E_h increase over the run:", "final r = ")),
        ("convergence_rates.py", ("example1: h = 0.100", "u and p ride the first-order time error")),
    ],
)
def test_demo_runs_and_prints_summary(script, summary, capsys):
    runpy.run_path(str(DEMOS / script), run_name="__main__")
    out = capsys.readouterr().out
    for line in summary:
        assert line in out

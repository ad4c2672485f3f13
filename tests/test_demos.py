"""Smoke test: the quick demos run to the end.

Demo 04 (a grid solve raced against Monte Carlo, about 45 s) stays out.
"""

import contextlib
import io
import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("name", [
    "01_model_and_lifting.py",
    "02_integral_identity.py",
    "03_nonidling_and_counterexample.py",
    "05_prelimit_comparison.py",
])
def test_demo_runs(name):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert out.getvalue().strip()

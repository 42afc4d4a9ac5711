"""Smoke test of the demos: each runs to exit 0 and checks itself with
its own asserts.

Demo 06 is left out: it spends about 40 s in 2^21 `lower_sup` members,
so it stays a manual check (`PYTHONPATH=src python3
demos/06_one_sided_bounds.py`).
"""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted(
    path.name for path in (ROOT / "demos").glob("*.py")
    if not path.name.startswith("06_")
)


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_exits_zero(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr

"""Smoke test of the demos: each runs to exit 0 and checks itself with
its own asserts.

Demo 06 is the slowest: its `10**6 < unbounded sup` query builds about
2^21 `lower_sup` members, one at a time and none kept, about 4-5 s and
16 MB peak RSS on a 2-vCPU machine.
"""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted(path.name for path in (ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_exits_zero(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr

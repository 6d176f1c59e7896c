"""The walkthrough demos 01-07 run to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("0[1-7]_*.py"))
SLOW = {"06_digit_triples.py", "07_synthetic_relations.py"}  # each trains for seconds


def test_all_seven_found():
    assert len(DEMOS) == 7


@pytest.mark.parametrize(
    "demo", [pytest.param(d, marks=pytest.mark.slow) if d in SLOW else d for d in DEMOS])
def test_demo_exits_0(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]

"""Each demo script runs to completion from a scratch working directory, and
the exact, deterministic demos (01-04) print the text committed under
``tests/demo_stdout/``, byte for byte."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
EXPECTED = ROOT / "tests" / "demo_stdout"


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = os.environ.copy()
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    p = subprocess.run([sys.executable, str(demo)], cwd=tmp_path,
                       capture_output=True, text=True, env=env)
    assert p.returncode == 0, p.stderr
    if demo.name[:2] in ("01", "02", "03", "04"):  # exact and deterministic
        assert p.stdout == (EXPECTED / f"{demo.stem}.txt").read_text()

"""The suite's pytest configuration and Hypothesis profile still report what
a failing property test found."""

import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"


def test_failing_property_reports_its_example(tmp_path):
    shutil.copy(ROOT / "tests" / "conftest.py", tmp_path)
    (tmp_path / "test_property.py").write_text(textwrap.dedent("""
        from hypothesis import given, settings, strategies as st


        def test_gate_profile_is_loaded():
            assert settings.default.derandomize and settings.default.database is None


        @given(st.integers())
        def test_small(x):
            assert x < 10
        """))
    env = {key: value for key, value in os.environ.items()
           if key != "MPLAB_HYPOTHESIS_PROFILE"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    p = subprocess.run([sys.executable, "-m", "pytest", "-c", str(PYPROJECT),
                        "-p", "no:cacheprovider", "test_property.py"],
                       cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert "INTERNALERROR" not in p.stdout + p.stderr
    assert "Falsifying example" in p.stdout
    assert "1 failed, 1 passed" in p.stdout
    assert p.returncode == 1
    assert not (tmp_path / ".hypothesis" / "examples").exists()  # no example database

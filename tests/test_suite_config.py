"""The suite's pytest configuration still reports what a failing property test found."""

import subprocess
import sys
import textwrap
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_failing_property_reports_its_example(tmp_path):
    (tmp_path / "test_property.py").write_text(textwrap.dedent("""
        from hypothesis import given, strategies as st


        @given(st.integers())
        def test_small(x):
            assert x < 10
        """))
    p = subprocess.run([sys.executable, "-m", "pytest", "-c", str(PYPROJECT),
                        "-p", "no:cacheprovider", "test_property.py"],
                       cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert "INTERNALERROR" not in p.stdout + p.stderr
    assert "Falsifying example" in p.stdout
    assert p.returncode == 1

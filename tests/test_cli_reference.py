"""The exact ``cli`` benchmark commands replayed in process against their references.

Runs each exact subcommand of ``bench/wl_cli.py`` on each stored input
variant through ``cli.main`` and compares stdout and the SHA-256 of every
written file with ``bench/reference/cli.json``, so a byte change to a JSON
or SVG output fails here and not only in the benchmark.  Reads ``bench/``
and writes only into a temporary directory.
"""

import sys
from pathlib import Path

import pytest

from mplab import cli

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
_write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # no .pyc in bench/
import wl_cli  # noqa: E402  (imports its sibling bench modules by name)
sys.dont_write_bytecode = _write_bytecode

REFERENCE = wl_cli.load_reference()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli-reference")
    wl_cli.write_plot_inputs(tmp, REFERENCE)
    return tmp


@pytest.mark.parametrize("variant", range(len(wl_cli.VARIANTS)))
@pytest.mark.parametrize("name", wl_cli.EXACT_COMMANDS)
def test_exact_command_matches_reference(name, variant, workdir, capsys, monkeypatch):
    monkeypatch.delenv("MPLAB_SEED", raising=False)
    argv, files = wl_cli.command(name, variant, workdir)
    for path in files:
        path.unlink(missing_ok=True)
    assert cli.main(argv) == 0
    ref = REFERENCE[variant][name]
    assert capsys.readouterr().out == ref["stdout"]
    assert {path.name: wl_cli.file_digest(path) for path in files} == ref["files"]

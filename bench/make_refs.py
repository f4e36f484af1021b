"""Regenerate the stored references of the ``cli`` workload.

    python3 bench/make_refs.py

Runs every subcommand of every input variant in a fresh process and stores
its stdout and the SHA-256 of each file it writes in ``reference/cli.json``;
first writes the small sample CSV that ``plot-csv`` renders.  Run it only
when mplab's documented output changes on purpose: the references are what
the benchmark checks the program against.
"""

from __future__ import annotations

import json
import shutil
import sys

from harness import use_repo_sources, run_child
from wl_cli import (COMMANDS, REFERENCE, SMALL_CSV, VARIANTS, command, file_digest,
                    make_tmp, write_plot_inputs)


def main() -> int:
    use_repo_sources()
    _, proc = run_child(["-m", "mplab", "sample", "--weights", "2", "1", "--point",
                         "0/1,1/1;1/1,1/1", "--subgroup", "H", "--n", "200", "--seed", "0",
                         "--out", str(SMALL_CSV)])
    if proc.returncode != 0:
        sys.exit(proc.stderr)
    tmp = make_tmp()
    variants: list[dict] = []
    try:
        for i in range(len(VARIANTS)):
            refs: dict = {}
            for name in COMMANDS:
                if name == "plot-json":
                    write_plot_inputs(tmp, variants + [refs])
                args, files = command(name, i, tmp)
                _, proc = run_child(["-m", "mplab", *args])
                if proc.returncode != 0:
                    sys.exit(f"variant {i} {name}: exit {proc.returncode}\n{proc.stderr}")
                refs[name] = {"stdout": proc.stdout,
                              "files": {p.name: file_digest(p) for p in files}}
            variants.append(refs)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    REFERENCE.write_text(json.dumps({"variants": variants}, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE} ({len(variants)} variants x {len(COMMANDS)} commands)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

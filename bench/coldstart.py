"""Run mplab's command line as ``python -m mplab`` does, with speed probes
taken inside the process.

    python3 bench/coldstart.py PROBES_JSON ARGS...

The ``cli`` workload times these processes from spawn to exit.  A timer
signal takes a speed probe every ``speed.PROBE_PERIOD_S`` while mplab runs,
and the probes go to PROBES_JSON when the command ends, so that the cold
start can be scaled by the machine's speed during it.  Stdout, stderr and
the exit code are the command's own.
"""

import json
import os
import runpy
import sys

from speed import PROBE_PERIOD_S, SpeedLog

speed = SpeedLog()
speed.probe()
speed.every(PROBE_PERIOD_S)
probes_path = sys.argv[1]
sys.argv = sys.argv[:1] + sys.argv[2:]  # runpy sets argv[0] to mplab/__main__.py, as -m does
sys.path[0] = os.getcwd()  # as -m does
try:
    runpy.run_module("mplab", run_name="__main__", alter_sys=True)
finally:
    speed.every(None)
    speed.probe()
    with open(probes_path, "w") as fh:
        json.dump(speed.probes, fh)

"""Set-up probe: a fresh interpreter does what every workload does before its
first op (import the package, load the packaged climate table, parse the run
config), then prints one line and exits. run.py times it from spawn to that
line.

    python3 perfbench/probe.py <config.json>
"""

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

import solarswarm.cli as cli  # noqa: E402
from solarswarm import climate  # noqa: E402

climate.builtin_table()
with open(sys.argv[1], encoding="utf-8") as fh:
    cli.RunConfig.from_dict(json.load(fh))
print("ready", flush=True)

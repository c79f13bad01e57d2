"""Regenerate perfbench/golden.json.

    python3 perfbench/golden.py
        digests of the sweep workload's bundle at the golden seed, which every
        sweep and sweep_w2 run rebuilds and compares

    python3 perfbench/golden.py --reference DIR
        also record the digests of a full default bundle in DIR, made by
        REFERENCE_COMMAND below (about 200 s on 2 cores); runs never check it

Regenerating is a declared change of the program's output bytes: say why in
CHANGES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import inputs  # noqa: E402
import workloads  # noqa: E402

GOLDEN_SEED = 0
REFERENCE_COMMAND = ("PYTHONPATH=src python3 -m solarswarm.cli frontier "
                     "--workers 2 --out default_sweep")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reference", help="bundle made by REFERENCE_COMMAND")
    args = parser.parse_args()
    path = os.path.join(HERE, "golden.json")
    golden = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            golden = json.load(fh)
    work = os.path.join(ROOT, ".perfbench", "golden")
    shutil.rmtree(work, ignore_errors=True)
    op = workloads.frontier_op(work, "bundle", GOLDEN_SEED, 1)
    result = workloads.call(op)
    if result.exit_code != 0:
        sys.exit(f"golden sweep failed: {result.error}")
    golden["sweep"] = {
        "seed": GOLDEN_SEED,
        "config": inputs.run_config("sweep"),
        "files": workloads.file_digests(op.out_dir, "frontier"),
    }
    if args.reference:
        golden["reference_default_sweep"] = {
            "command": REFERENCE_COMMAND,
            "note": "full default sweep, 36 weights x 5 runs, default "
                    "BfaConfig, master seed 0; recorded once, not checked",
            "files": workloads.file_digests(args.reference, "frontier"),
        }
    inputs.write_json(path, golden)
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

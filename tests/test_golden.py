"""Pinned bytes of a reduced frontier sweep.

The sweep runs 6 weight vectors (step 0.5, minimum 0) x 2 replicates with a
short optimizer at master seed 0, so it also checks which replicate each
cell keeps. A digest that moves is a change of output bytes: it must be
declared, never silently refreshed.
"""

import hashlib
import json
import os

from solarswarm.cli import main

SHORT_BFA = {"chemotaxis_steps": 10, "elimination_cycles": 2,
             "reproduction_cycles": 2}

DIGESTS = {
    "frontier.csv":
        "027429e62ab4718a2b85e4baa65885bfae75bf91266544a95df9a457f990cf9e",
    "metrics.json":
        "30552eae59f65733034284ad52319a173f14da38761c4d178f70cd01a6175dba",
    # the grid note of a 6-vector sweep drops the 35-vector remark
    "summary.txt":
        "a0ff112c9e0b0463b030cb2b4c8a7ff9ad080834b91305a02dd9e9759b8b9114",
    "traces/trace_w000.csv":
        "9e5521dcb0c7e1f2094e7844671abf00b839bcc2d4938a9b16da2564132eef88",
    "traces/trace_w001.csv":
        "6dd3861e9ac674cb17e3676bb54c5a98af9f6a6f5453369e35d7d0369d93abfc",
    "traces/trace_w002.csv":
        "2dab7ad21f80a6462b79d78f1444a9e185afcacff057f1bd52ff1c87e23a3ac1",
    "traces/trace_w003.csv":
        "18a049641d652d52470f5dcf6b73ce982f1e338ce3c2605a3dd5cb430fa31a47",
    "traces/trace_w004.csv":
        "295e98777291c06a5e0a4db2f3a07974843f2642d79d88f77d8069fe5a0fcb21",
    "traces/trace_w005.csv":
        "9d9b717a5061a86d8c36ffab4b38d4a18e2fdaadfa20212efc0d477a4e395e7e",
}


def test_reduced_sweep_bytes_are_pinned(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"bfa": SHORT_BFA}))
    out = tmp_path / "bundle"
    assert main(["frontier", "--config", str(config), "--step", "0.5",
                 "--minimum", "0", "--runs", "2", "--seed", "0",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    traces = sorted(os.listdir(out / "traces"))
    assert traces == [os.path.basename(n) for n in DIGESTS
                      if n.startswith("traces/")]
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
           for name in DIGESTS}
    assert got == DIGESTS

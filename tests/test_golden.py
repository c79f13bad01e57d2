"""Pinned bytes of a reduced frontier sweep and its stdout, of the same
sweep under a grade context, of one optimize call and of the fuzzify
models, and the one-line error of a grade context outside the crisp noise
box.

The sweep runs 6 weight vectors (step 0.5, minimum 0) x 2 replicates with a
short optimizer at master seed 0, so it also checks which replicate each
cell keeps; it goes through the lockstep engine. The optimize call runs the
same short optimizer through run_bfa. The graded sweep reads its
temperature noise bound off fuzzy models of the packaged climate table, and
pins the stdout of metrics --grade-context and of report on its bundle too.
The models are fitted to the packaged climate table. A digest that moves is
a change of output bytes: it must be declared, never silently refreshed.
"""

import hashlib
import json
import os

from solarswarm.cli import main

SHORT_BFA = {"chemotaxis_steps": 10, "elimination_cycles": 2,
             "reproduction_cycles": 2}

DIGESTS = {
    # the config echo holds --out as given, so the sweep writes to the
    # relative path "bundle"
    "config.json":
        "4b2491fb612fba43b52b21620569f9d72dc98bf2a7f1592d15a416da8d18c3d6",
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


# the sweep's stdout, one line per cell in grid order, then the totals;
# the runtime line that ends it is not pinned
STDOUT_LINES = [
    "[  1/6] w=(1,0,0) F=77693.6 seed=12916768921883370329",
    "[  2/6] w=(0.5,0.5,0) F=38850.9 seed=18134448204222630620",
    "[  3/6] w=(0.5,0,0.5) F=2.65719e+08 seed=17686645062660053573",
    "[  4/6] w=(0,1,0) F=8.73957 seed=11134056572231071924",
    "[  5/6] w=(0,0.5,0.5) F=2.6568e+08 seed=9103324289190446835",
    "[  6/6] w=(0,0,1) F=5.31359e+08 seed=7666368723958258137",
    "frontier: 6 points, dominance 1.77146e+08, diversity 18.7816",
]


def test_reduced_sweep_bytes_are_pinned(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"bfa": SHORT_BFA}))
    assert main(["frontier", "--config", str(config), "--step", "0.5",
                 "--minimum", "0", "--runs", "2", "--seed", "0",
                 "--out", "bundle"]) == 0
    out = tmp_path / "bundle"
    *lines, runtime = capsys.readouterr().out.splitlines()
    assert lines == STDOUT_LINES
    assert runtime.startswith("bundle written to bundle (runtime ")
    traces = sorted(os.listdir(out / "traces"))
    assert traces == [os.path.basename(n) for n in DIGESTS
                      if n.startswith("traces/")]
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
           for name in DIGESTS}
    assert got == DIGESTS


OPTIMIZE_DIGESTS = {
    "solution.csv":
        "95933bacd89d6707951d20efa211a7a5f0e37f0e27469881d429d080f2691240",
    "trace.csv":
        "214644711ff17f0efdec2ad3bf439c6c7275d655618329684679882dcd439e46",
}


def test_optimize_bytes_are_pinned(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"bfa": SHORT_BFA}))
    out = tmp_path / "out"
    assert main(["optimize", "--config", str(config), "--weights",
                 "0.1,0.1,0.8", "--seed", "7", "--out", str(out)]) == 0
    capsys.readouterr()
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
           for name in OPTIMIZE_DIGESTS}
    assert got == OPTIMIZE_DIGESTS


MODEL_DIGESTS = {
    "temperature_model.json":
        "de53325f4e775854aa86ca2396f7e2f1f33271c6d2be070d4636c507cac4e28d",
    "insolation_model.json":
        "cdc2e226ea64b1376f5e47a75d6ad7cc096ac61e46241ee8ec69f9e0f13e779f",
}


def test_fuzzify_model_bytes_are_pinned(tmp_path, capsys):
    assert main(["fuzzify", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in MODEL_DIGESTS}
    assert got == MODEL_DIGESTS


# a temperature grade padded to an interval inside the crisp box,
# 296.29-296.73 K; no insolation grade lands inside 800-1000 W/m^2
GRADE_CONTEXT = {"temperature_secondary": 0.05}

GRADED_DIGESTS = {
    "config.json":
        "16e20626a86ed8cc880dc46d3dabd78cde962d851eb975bf7735d637a4f40755",
    "frontier.csv":
        "352041c73c9d809d484de174b08c2c413b62b776146a207207208f8dca3428d7",
    "metrics.json":
        "049badba8ac353c8bc705bf6b727a841adfc87472a6197abfc72a10ea3f1f887",
    "summary.txt":
        "f807ab9e274292221d6539d3b04d6aec91acfce1749008b2c1106e44f5203df5",
    "traces/trace_w000.csv":
        "7b3ad18709da1fcd2b84f6bfdc87188b8ca4a273111def12d790999da97a08e5",
    "traces/trace_w001.csv":
        "ff032b49405f641d0c27c4f874189ac1ed8baffb8566b63048a09c2e5c134be8",
    "traces/trace_w002.csv":
        "81f8bbb1e3b52fcd4317c0aaf0a04df4b61de63a2da96c2e713065a13aa84768",
    "traces/trace_w003.csv":
        "fb6c62b737d6e01114b085947d2590fdb3910f035379ebc56ec2a7f397576513",
    "traces/trace_w004.csv":
        "cf6ceb0be90fbd170c9ae8eff83007136ca235de62aab4c5a366748b93465b38",
    "traces/trace_w005.csv":
        "9b2b2208faacea0dade2010fbbabf68d2096de87aac2a799ef82e7ad8bc21e3f",
    # the stdout of metrics --grade-context on the bundle's frontier.csv,
    # and of report on the bundle
    "metrics stdout":
        "049badba8ac353c8bc705bf6b727a841adfc87472a6197abfc72a10ea3f1f887",
    "report stdout":
        "1e28f3608a5eab7a42f24ba76118c6cb582d52a94ec09160c7a9169c40fa5293",
}


def test_graded_sweep_bytes_are_pinned(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"bfa": SHORT_BFA,
                                  "grade_context": GRADE_CONTEXT}))
    context = tmp_path / "context.json"
    context.write_text(json.dumps(GRADE_CONTEXT))
    assert main(["frontier", "--config", str(config), "--step", "0.5",
                 "--minimum", "0", "--runs", "2", "--seed", "0",
                 "--out", "bundle"]) == 0
    capsys.readouterr()
    out = tmp_path / "bundle"
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
           for name in GRADED_DIGESTS if " " not in name}
    for name, argv in (
            ("metrics stdout", ["metrics", "--frontier", "bundle/frontier.csv",
                                "--grade-context", str(context)]),
            ("report stdout", ["report", "bundle"])):
        assert main(argv) == 0
        got[name] = hashlib.sha256(
            capsys.readouterr().out.encode()).hexdigest()
    assert got == GRADED_DIGESTS


def test_out_of_box_grade_context_is_one_line(tmp_path, capsys):
    # a temperature grade below the box and an insolation grade range far
    # below it: the response surfaces would be extrapolated, so the problem
    # the grades give is rejected, its Z_a interval first, before any
    # search, and nothing is written. The config holds the grades
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "bfa": SHORT_BFA,
        "grade_context": {"temperature_secondary": 0.17169,
                          "insolation_secondary": [0.02907, 0.92274]}}))
    out = tmp_path / "bundle"
    assert main(["frontier", "--config", str(config), "--step", "0.5",
                 "--minimum", "0", "--runs", "2", "--seed", "0",
                 "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: NoiseOutOfBox: Z_a (temperature) noise interval "
        "[291.9318066944015, 292.37080669440144] lies outside the box "
        "[293.0, 303.0] the response surfaces are coded against\n")
    assert not out.exists()

"""The study scripts: recorded stdout and argument checks.

The recorded outputs pin every printed digit of the noisy ensembles and
compatibility suites, so a change to how members are propagated or seeded
shows up here byte for byte.
"""

import argparse
import os
import subprocess
import sys

import pytest

SCRIPT_DIR = os.path.join(os.path.dirname(__file__), "..", "scripts")
sys.path.insert(0, os.path.abspath(SCRIPT_DIR))

import compatibility_audit  # noqa: E402
import noise_study  # noqa: E402
import reproduce_experiments  # noqa: E402

import numpy as np  # noqa: E402

import wavecorr.network as network  # noqa: E402
from wavecorr.cli import run_scenario, scenario_from_dict  # noqa: E402
from wavecorr.contextuality import CHSH, measure_inequality  # noqa: E402
from wavecorr.events import MAX_THRESHOLD_SAMPLES  # noqa: E402

NOISE_STUDY_AUDIT = """\
noise: imbalance 0.008, jitter 0.012, leakage 0.001, 3 fabrication seeds
  CHSH         on chsh : mean 2.8266 std 0.0049  sem 0.0028  range [2.8217, 2.8316]
  Mermin       on ghz  : mean 3.9202 std 0.0487  sem 0.0281  range [3.8665, 3.9616]
  PeresMermin  on psi1 : mean 5.9824 std 0.0023  sem 0.0013  range [5.9805, 5.9849]
  pair suite   : worst 0.1081 (context-independence: state psi11, marginal of YY)
  triple suite : worst 0.0460 (context-independence: state ghz, marginal of ZII)
  corrected CHSH        : 2.2162 (below the mean 2.8266)
  corrected Mermin      : 2.0920 (below the mean 3.9202)
  corrected PeresMermin : 4.2162 (below the mean 5.9824)
"""

COMPATIBILITY_AUDIT = """\
hardware model: imbalance 0, jitter 0.05, leakage 0, 3 fabrications per circuit

pair-observable suite (19 sequences, 11 states):
compatibility audit:
  context independence : 0.417520
  order independence   : 0.079727
  repeatability        : 0.078774
  nondisturbance       : 0.101592
  worst case           : 0.417520 (context-independence: state psi11, marginal of YY)

triple-observable suite (12 sequences, 4 states):
compatibility audit:
  context independence : 0.170826
  order independence   : 0.126566
  repeatability        : 0.066700
  nondisturbance       : 0.002376
  worst case           : 0.170826 (context-independence: state ghz, marginal of ZII)

corrected bounds at these rates:
  CHSH        : noncontextual 2 -> 2.8350
  Mermin      : noncontextual 2 -> 2.3417
  PeresMermin : noncontextual 4 -> 4.8350
"""


REPRODUCE_NETWORK = """\
pipeline: network

pair state:
CHSH: value = +2.828427 +/- 0.000000
  + ZI*IZ  +0.707107 +/- 0.000000
  + XI*IZ  +0.707107 +/- 0.000000
  + ZI*IX  +0.707107 +/- 0.000000
  - XI*IX  -0.707107 +/- 0.000000
  bounds: noncontextual 2, corrected 2 (deviation rate 0), quantum 2.82843, algebraic 4
  verdict: violates NC bound 2, saturates quantum max

ghz state:
Mermin: value = +4.000000 +/- 0.000000
  + ZII*IZI*IIX  +1.000000 +/- 0.000000
  + XII*IZI*IIZ  +1.000000 +/- 0.000000
  + ZII*IXI*IIZ  +1.000000 +/- 0.000000
  - XII*IXI*IIX  -1.000000 +/- 0.000000
  bounds: noncontextual 2, corrected 2 (deviation rate 0), quantum 4, algebraic 4
  verdict: violates NC bound 2, saturates quantum max

grid expression, all stock preparations:
""" + "".join(f"  {f'psi{i}':6s}: +6.000000 +/- 0.000000  (exact)\n" for i in range(1, 12))


def test_reproduce_network_stdout_is_unchanged(capsys):
    assert reproduce_experiments.main(["--pipeline", "network"]) == 0
    out = capsys.readouterr().out
    assert out.startswith(REPRODUCE_NETWORK + "\nelapsed: ")
    assert out.count("\n") == REPRODUCE_NETWORK.count("\n") + 2


@pytest.mark.parametrize("model", ["loaded_die", "threshold_detector"])
def test_reproduce_events_draw_what_wavecorr_run_draws(model):
    # the script seeds each sequence's events by the rule `wavecorr run` uses
    args = argparse.Namespace(pipeline="events", model=model, samples=20_000, seed=5)
    (report,) = measure_inequality(CHSH, reproduce_experiments.make_provider(args), "chsh")
    scenario = scenario_from_dict({
        "name": "chsh-events", "state": "chsh", "inequality": "CHSH", "pipeline": "events",
        "seed": 5, "sample_count": 20_000, "events": {"model": model},
    })
    assert repr(report) == repr(run_scenario(scenario).inequality)


def test_noise_study_audit_stdout_is_unchanged(capsys):
    argv = ["--seeds", "3", "--imbalance", "0.008", "--jitter", "0.012",
            "--leakage", "0.001", "--audit"]
    assert noise_study.main(argv) == 0
    assert capsys.readouterr().out == NOISE_STUDY_AUDIT


def test_compatibility_audit_stdout_is_unchanged(capsys):
    assert compatibility_audit.main(["--members", "3", "--jitter", "0.05"]) == 0
    assert capsys.readouterr().out == COMPATIBILITY_AUDIT


def test_noise_study_point_draws_only_live_cells(monkeypatch, capsys):
    # (entry, member) normals of one 20-seed point: one per live splitter
    # and per run of live phase segments; every element the circuits hold
    # would be 635 560, and one per live element 453 900
    drawn = []
    real = network.counter_normals

    def counting(seeds, indices):
        drawn.append(np.size(seeds) * indices.size)
        return real(seeds, indices)

    monkeypatch.setattr(network, "counter_normals", counting)
    argv = ["--seeds", "20", "--imbalance", "0.008", "--jitter", "0.012",
            "--leakage", "0.001", "--seed", "37"]
    assert noise_study.main(argv) == 0
    capsys.readouterr()
    assert sum(drawn) == 120_800


@pytest.mark.parametrize("seeds", ["-3", "0", "1"])
def test_noise_study_rejects_fewer_than_two_seeds(seeds, capsys):
    with pytest.raises(SystemExit) as exc:
        noise_study.main(["--seeds", seeds])
    assert exc.value.code == 2
    assert "--seeds" in capsys.readouterr().err


def test_noise_study_caps_its_seeds(monkeypatch, capsys):
    monkeypatch.setattr(noise_study, "run_point", None)  # no ensemble may run
    with pytest.raises(SystemExit) as exc:
        noise_study.main(["--seeds", str(noise_study.MAX_SEEDS + 1), "--audit"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and f"--seeds must be at most {noise_study.MAX_SEEDS}" in err


@pytest.mark.parametrize(
    "argv,missing",
    [(["--sweep", "jitter"], "--values"), (["--values", "0.1", "0.2"], "--sweep")],
)
def test_noise_study_sweep_and_values_need_each_other(argv, missing, capsys):
    with pytest.raises(SystemExit) as exc:
        noise_study.main(["--seeds", "2", *argv])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""  # not even the base point runs
    assert "usage:" in err and f"needs {missing}" in err


@pytest.mark.parametrize("members", ["-1", "0"])
def test_compatibility_audit_rejects_fewer_than_one_member(members, capsys):
    with pytest.raises(SystemExit) as exc:
        compatibility_audit.main(["--members", members, "--jitter", "0.05"])
    assert exc.value.code == 2
    assert "--members" in capsys.readouterr().err


def test_compatibility_audit_caps_its_members(monkeypatch, capsys):
    monkeypatch.setattr(compatibility_audit, "compatibility_suite", None)  # no audit may run
    members = str(compatibility_audit.MAX_MEMBERS + 1)
    with pytest.raises(SystemExit) as exc:
        compatibility_audit.main(["--members", members, "--jitter", "0.05"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and f"--members must be at most {compatibility_audit.MAX_MEMBERS}" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["--seeds", "2", "--leakage", "1"],
        ["--seeds", "2", "--jitter", "-0.1"],
        ["--seeds", "2", "--sweep", "leakage", "--values", "0", "1"],
        ["--seeds", "2", "--sweep", "imbalance", "--values", "-0.01"],
        ["--seeds", "2", "--jitter", "nan"],
        ["--seeds", "2", "--sweep", "imbalance", "--values", "0", "inf"],
    ],
)
def test_noise_study_rejects_bad_noise_before_running(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        noise_study.main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""  # no point of a sweep runs before the bad one is caught
    assert "usage:" in err and ("leakage" in err or "noise widths" in err)


@pytest.mark.parametrize(
    "script,argv,result",
    [
        ("noise_study.py", ["--seeds", "2", "--imbalance", "1e308"], "mean"),
        ("compatibility_audit.py", ["--members", "1", "--jitter", "1e308"], "worst case"),
    ],
)
def test_scripts_stop_when_the_noise_draw_overflows(script, argv, result):
    # a subprocess, since this suite turns the overflow's RuntimeWarning into
    # an error; no script may report the NaN values that follow it
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.dirname(os.path.dirname(network.__file__)), os.environ.get("PYTHONPATH", "")]
    ))
    proc = subprocess.run(
        [sys.executable, os.path.join(SCRIPT_DIR, script), *argv],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 3
    assert "run failed: the leaf intensities sum to nan" in proc.stderr
    assert result not in proc.stdout


@pytest.mark.parametrize(
    "argv",
    [["--jitter", "-0.1"], ["--imbalance", "-1"], ["--leakage", "1"], ["--jitter", "nan"]],
)
def test_compatibility_audit_rejects_bad_noise(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        compatibility_audit.main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and ("leakage" in err or "noise widths" in err)


@pytest.mark.parametrize(
    "argv",
    [
        ["--pipeline", "events", "--samples", "0"],
        ["--pipeline", "events", "--model", "threshold_detector",
         "--samples", str(MAX_THRESHOLD_SAMPLES + 1)],
        ["--pipeline", "events", "--samples", str(2**63)],
    ],
)
def test_reproduce_experiments_rejects_bad_sample_count(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        reproduce_experiments.main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "usage:" in err and "sample_count" in err

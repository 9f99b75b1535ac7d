"""The study scripts: recorded stdout and argument checks.

The recorded outputs pin every printed digit of the noisy ensembles and
compatibility suites, so a change to how members are propagated or seeded
shows up here byte for byte.
"""

import os
import sys

import pytest

SCRIPT_DIR = os.path.join(os.path.dirname(__file__), "..", "scripts")
sys.path.insert(0, os.path.abspath(SCRIPT_DIR))

import compatibility_audit  # noqa: E402
import noise_study  # noqa: E402
import reproduce_experiments  # noqa: E402

from wavecorr.events import MAX_THRESHOLD_SAMPLES  # noqa: E402

NOISE_STUDY_AUDIT = """\
noise: imbalance 0.008, jitter 0.012, leakage 0.001, 3 fabrication seeds
  CHSH         on chsh : mean 2.8287 std 0.0163  sem 0.0094  range [2.8135, 2.8459]
  Mermin       on ghz  : mean 3.9204 std 0.0275  sem 0.0159  range [3.8998, 3.9516]
  PeresMermin  on psi1 : mean 5.9842 std 0.0056  sem 0.0032  range [5.9789, 5.9900]
  pair suite   : worst 0.0903 (context-independence: state psi11, marginal of YY)
  triple suite : worst 0.0478 (context-independence: state ghz, marginal of ZII)
  corrected CHSH        : 2.1806 (below the mean 2.8287)
  corrected Mermin      : 2.0956 (below the mean 3.9204)
  corrected PeresMermin : 4.1806 (below the mean 5.9842)
"""

COMPATIBILITY_AUDIT = """\
hardware model: imbalance 0, jitter 0.05, leakage 0, 3 fabrications per circuit

pair-observable suite (19 sequences, 11 states):
compatibility audit:
  context independence : 0.364107
  order independence   : 0.089079
  repeatability        : 0.072484
  nondisturbance       : 0.086373
  worst case           : 0.364107 (context-independence: state psi11, marginal of YY)

triple-observable suite (12 sequences, 4 states):
compatibility audit:
  context independence : 0.161663
  order independence   : 0.125918
  repeatability        : 0.061812
  nondisturbance       : 0.002338
  worst case           : 0.161663 (context-independence: state ghz, marginal of ZII)

corrected bounds at these rates:
  CHSH        : noncontextual 2 -> 2.7282
  Mermin      : noncontextual 2 -> 2.3233
  PeresMermin : noncontextual 4 -> 4.7282
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


def test_noise_study_audit_stdout_is_unchanged(capsys):
    argv = ["--seeds", "3", "--imbalance", "0.008", "--jitter", "0.012",
            "--leakage", "0.001", "--audit"]
    assert noise_study.main(argv) == 0
    assert capsys.readouterr().out == NOISE_STUDY_AUDIT


def test_compatibility_audit_stdout_is_unchanged(capsys):
    assert compatibility_audit.main(["--members", "3", "--jitter", "0.05"]) == 0
    assert capsys.readouterr().out == COMPATIBILITY_AUDIT


@pytest.mark.parametrize("seeds", ["-3", "0", "1"])
def test_noise_study_rejects_fewer_than_two_seeds(seeds, capsys):
    with pytest.raises(SystemExit) as exc:
        noise_study.main(["--seeds", seeds])
    assert exc.value.code == 2
    assert "--seeds" in capsys.readouterr().err


@pytest.mark.parametrize("members", ["-1", "0"])
def test_compatibility_audit_rejects_fewer_than_one_member(members, capsys):
    with pytest.raises(SystemExit) as exc:
        compatibility_audit.main(["--members", members, "--jitter", "0.05"])
    assert exc.value.code == 2
    assert "--members" in capsys.readouterr().err


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
    ],
)
def test_reproduce_experiments_rejects_bad_sample_count(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        reproduce_experiments.main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "usage:" in err and "sample_count" in err

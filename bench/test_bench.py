"""Self-tests of the benchmark's gate and of its traced counts.

    python3 -m pytest bench -q
"""

import json
import os
import shutil
import subprocess
import sys
import types

import pytest

import run
from tracer import Tracer
from workloads import REPO, WORKLOADS

NOISE_STDOUT = """\
noise: imbalance 0.008, jitter 0.012, leakage 0.001, 20 fabrication seeds
  CHSH         on chsh : mean 2.8171 std 0.0162  sem 0.0036  range [2.7766, 2.8459]
  Mermin       on ghz  : mean {mermin} std 0.0387  sem 0.0087  range [3.8174, 3.9628]
  PeresMermin  on psi1 : mean 5.9847 std 0.0046  sem 0.0010  range [5.9740, 5.9917]
"""

CSV_HEADER = (
    "scenario,state,inequality,pipeline,seed,sequences,correlator_values,correlator_stderrs,"
    "value,stderr,nc_bound,corrected_bound,quantum_max,algebraic_max,deviation_rate,verdict\n"
)


def csv_row(label, value, stderr=0.0, corrected=4.147736056624554, rate=0.0738680283122769):
    return (
        f'"{label}",psi1,PeresMermin,network_noisy,3,ZI*IZ*ZZ,1,0,{value},{stderr},4,'
        f'{corrected},6,6,{rate},"violates NC bound 4"\n'
    )


def sweep_csv(rows=22, **bad):
    lines = [csv_row(f"events-sweep[{i}]", 6, 0) for i in range(rows)]
    if bad:
        lines[5] = csv_row("events-sweep[5]", **bad)
    return CSV_HEADER + "".join(lines)


GOOD = {
    "noise_ensemble": {"exit": 0, "stdout": NOISE_STDOUT.format(mermin="3.9112"), "csv": None},
    "audit_cold": {"exit": 0, "stdout": "", "csv": CSV_HEADER + csv_row("pm", 5.9859848131164259)},
    "events_sweep": {"exit": 0, "stdout": "", "csv": sweep_csv()},
}

WRONG = {
    "noise_ensemble": [
        {"stdout": NOISE_STDOUT.format(mermin="3.5000")},  # mean below its window
        {"stdout": NOISE_STDOUT.format(mermin="3.9112").replace("3.9628", "4.0100")},
        {"stdout": ""},
    ],
    "audit_cold": [
        {"csv": CSV_HEADER + csv_row("pm", 5.5)},  # value below its window
        {"csv": CSV_HEADER + csv_row("pm", 5.98, corrected=5.99)},
        {"csv": CSV_HEADER + csv_row("pm", 5.98, rate=1.5)},
        {"csv": None},
    ],
    "events_sweep": [
        {"csv": sweep_csv(value=5.9, stderr=0.0)},
        {"csv": sweep_csv(rows=21)},
    ],
}


def failures(runner):
    return [name for name, ok in runner.checks if not ok]


def feed(workload, results):
    """Run the benchmark's gate over canned worker results."""
    runner = run.Runner(workload, seed=3, work_dir="unused")
    queue = list(results)
    runner.spawn = lambda *extra: queue.pop(0)
    for _ in results:
        runner.repeat()
    return runner


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_correct_output_passes(workload):
    runner = feed(workload, [GOOD[workload]] * 2)
    assert failures(runner) == []


@pytest.mark.parametrize(
    "workload,wrong", [(w, wrong) for w, cases in WRONG.items() for wrong in cases]
)
def test_wrong_output_counts_as_failure(workload, wrong):
    runner = feed(workload, [dict(GOOD[workload], **wrong)])
    assert failures(runner)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_nonzero_exit_and_missing_worker_count_as_failures(workload):
    runner = feed(workload, [dict(GOOD[workload], exit=3), None])
    assert "exit code 0" in failures(runner)
    assert "worker finished and reported" in failures(runner)


@pytest.mark.parametrize("workload", ["audit_cold", "events_sweep"])
def test_csv_that_changes_between_repeats_counts_as_failure(workload):
    second = dict(GOOD[workload], csv=GOOD[workload]["csv"].replace("0738", "0739"))
    assert failures(feed(workload, [GOOD[workload], second])) == ["CSV bytes repeat"]


def test_benchmark_json_names_the_workloads_and_setup_metric():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    end_to_end = {m["name"]: m for m in spec["end_to_end"]}
    assert end_to_end["setup_s"]["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert set(end_to_end) == {"wall_s", "setup_s", "peak_rss_mb"}


def traced_layers(workload, tmp_path, tag):
    proc = subprocess.run(
        [sys.executable, str(REPO / "bench" / "worker.py"), workload, "3", str(tmp_path),
         "--trace", str(tmp_path / f"spans-{tag}.jsonl")],
        cwd=REPO, capture_output=True, text=True, check=True,
        env=dict(os.environ, **{v: "1" for v in run.THREAD_VARS}),
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["absent"] == []
    return {k: v for k, v in result["layers"].items() if not k.endswith("_s")}


@pytest.mark.parametrize("workload,busiest", [
    ("noise_ensemble", "network.propagate.calls"),
    ("audit_cold", "network.build_sequence_tree.calls"),
    ("events_sweep", "events.sample_events.calls"),
])
def test_two_traced_runs_at_one_seed_give_identical_counts(workload, busiest, tmp_path):
    first = traced_layers(workload, tmp_path, "a")
    assert first == traced_layers(workload, tmp_path, "b")
    assert first[busiest] > 0


def test_layer_whose_name_is_gone_is_reported_absent(monkeypatch):
    for name in ("wavecorr.cli", "wavecorr.contextuality", "noise_study"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    monkeypatch.setitem(sys.modules, "wavecorr.network", types.ModuleType("wavecorr.network"))
    tracer = Tracer("test")
    tracer.install()
    assert sorted(tracer.absent) == [
        "network.build_sequence_tree", "network.compile", "network.plan_cache",
        "network.propagate", "reck.decompose", "splitmix.counter_normals",
    ]
    assert "network.plan_cache.size" not in tracer.summary()


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(REPO / "bench", tmp_path / "bench")
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "audit_cold", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""

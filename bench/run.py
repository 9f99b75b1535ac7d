"""wavecorr benchmark: one workload, timed in fresh single-threaded processes.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads, their reasons and the metrics are
listed in BENCHMARK.json; bench/workloads.py says what each one runs and how
its output is checked.

Each repeat is one entry-point call in a fresh process started with
OMP_NUM_THREADS, OPENBLAS_NUM_THREADS and MKL_NUM_THREADS set to 1, preceded
by one more fresh process that only imports the entry module.  Repeats run
one at a time for S seconds (at least three).  With ``--trace 0`` the
end-to-end metrics are reported as medians over repeats:

  wall_s       entry-point call, from arguments to verdict or CSV
  setup_s      import of the entry module in a fresh process
  peak_rss_mb  peak resident set of the process

With ``--trace 1`` untraced and traced repeats alternate; the traced ones wrap
every layer from outside (bench/tracer.py) and the per-layer metrics are their
medians.  ``trace.overhead_s`` is traced minus untraced median wall time.
Layer counts must repeat exactly across traced repeats.

Every repeat's output is checked; a failed check, a nonzero exit code or a
CSV that differs between repeats of one seed counts as failed, and
fail_rate = failed / attempted.  The last stdout line is the JSON result;
the lines before it are a record of the run: environment, quartiles and
sample counts, failed checks and any layer a tracer could not find.
Spans of the last traced repeat of each workload are kept in .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

from workloads import BENCH_DIR, REPO, WORKLOADS

MIN_REPEATS = 3
DEADLINE_S = 170.0  # the whole run, children included, ends within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
REQUIRED = ("src/wavecorr/cli.py", "scripts/noise_study.py", "BENCHMARK.json")


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values), "values": values,
    }


def git_sha() -> str | None:
    if not (REPO / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(REPO), "rev-parse", "HEAD"], capture_output=True, text=True
        )
    except OSError:
        return None
    return out.stdout.strip() or None


class Runner:
    """Starts workers one at a time and gathers their results and checks."""

    def __init__(self, workload: str, seed: int, work_dir: str) -> None:
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.work_dir = work_dir
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
        self.checks: list[tuple[str, bool]] = []
        self.reference_csv: str | None = None

    def spawn(self, *extra: str) -> dict | None:
        cmd = [
            sys.executable, str(BENCH_DIR / "worker.py"),
            self.workload.name, str(self.seed), self.work_dir, *extra,
        ]
        try:
            proc = subprocess.run(
                cmd, cwd=REPO, env=self.env, capture_output=True, text=True,
                timeout=max(1.0, self.deadline - time.monotonic()),
            )
        except subprocess.TimeoutExpired:
            sys.stderr.write(f"worker timed out: {' '.join(cmd)}\n")
            return None
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr[-4000:])
            return None
        return json.loads(proc.stdout.splitlines()[-1])

    def repeat(self, *extra: str) -> dict | None:
        """One checked entry-point call."""
        result = self.spawn(*extra)
        if result is None:
            self.checks.append(("worker finished and reported", False))
            return None
        self.checks += self.workload.check(result)
        if self.workload.compare_csv:
            if self.reference_csv is None:
                self.reference_csv = result["csv"]
            else:
                self.checks.append(("CSV bytes repeat", result["csv"] == self.reference_csv))
        return result

    def out_of_time(self) -> bool:
        return time.monotonic() >= self.deadline


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # on SIGTERM, unwind so the running worker is killed and waited for
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))

    missing = [p for p in REQUIRED if not (REPO / p).is_file()]
    if missing:
        sys.stderr.write(f"bench: not a wavecorr checkout, missing {', '.join(missing)}\n")
        return 2
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    why = {w["name"]: w["why"] for w in spec["workloads"]}[args.workload]

    out_dir = REPO / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    spans = out_dir / f"spans-{args.workload}.jsonl"
    kinds = ("plain", "traced") if args.trace else ("plain",)
    results: dict[str, list[dict]] = {k: [] for k in kinds}
    setups: list[float] = []
    work_dir = tempfile.mkdtemp(dir=out_dir)
    try:
        runner = Runner(args.workload, args.seed, work_dir)
        # compile bytecode and fill the file cache once; users do not pay
        # this on every run
        runner.spawn("--import-only")
        started = time.monotonic()
        durations: list[float] = []
        # start a repeat only if a typical one still ends inside the window
        while not runner.out_of_time() and (
            len(durations) < MIN_REPEATS * len(kinds)
            or time.monotonic() - started + statistics.median(durations) <= args.seconds
        ):
            begun = time.monotonic()
            imported = runner.spawn("--import-only")
            if imported is not None:
                setups.append(imported["setup_s"])
            kind = kinds[len(durations) % len(kinds)]
            result = runner.repeat(*(("--trace", str(spans)) if kind == "traced" else ()))
            if result is not None:
                results[kind].append(result)
                setups.append(result["setup_s"])
            durations.append(time.monotonic() - begun)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if not all(results.values()):
        sys.stderr.write("bench: no repeat of the workload completed\n")
        return 1

    plain = results["plain"]
    stats = {
        "wall_s": quartiles([r["wall_s"] for r in plain]),
        "setup_s": quartiles(setups),
        "peak_rss_mb": quartiles([r["peak_rss_mb"] for r in plain]),
    }
    absent: set[str] = set()
    if args.trace:
        traced = results["traced"]
        counts = [{k: v for k, v in r["layers"].items() if not k.endswith("_s")} for r in traced]
        runner.checks.append(("layer counts repeat exactly", all(c == counts[0] for c in counts)))
        for r in traced:
            absent.update(r["absent"])
        stats["trace.traced_wall_s"] = quartiles([r["wall_s"] for r in traced])
        for m in spec["per_layer"]:
            if m["name"] != "trace.overhead_s":
                stats[m["name"]] = quartiles([r["layers"].get(m["name"], 0) for r in traced])
        stats["trace.overhead_s"] = quartiles(
            [stats["trace.traced_wall_s"]["median"] - stats["wall_s"]["median"]]
        )

    failed = sum(not ok for _, ok in runner.checks)
    attempted = len(runner.checks)
    record = {
        "workload": args.workload,
        "why": why,
        "seed": args.seed,
        "trace": args.trace,
        "environment": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": plain[0]["numpy"],
            "git_sha": git_sha(),
            "threads": {v: runner.env[v] for v in THREAD_VARS},
        },
        "fail_rate": failed / attempted,
        "failed_checks": sorted({name for name, ok in runner.checks if not ok}),
        "absent_layers": sorted(absent),
        "stats": stats,
    }
    print(json.dumps(record, indent=1))
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": stats[m["name"]]["median"], "unit": m["unit"]} for m in metrics
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

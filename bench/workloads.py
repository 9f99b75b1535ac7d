"""The benchmark's workloads: what each runs and how its output is checked.

Why each workload was chosen is recorded next to its name in BENCHMARK.json.

Every workload is one call of an entry point users run, in a fresh process
with one thread, closed loop (one job at a time, no concurrency).  The
workload seed is passed as the program's own ``--seed`` argument.

This module imports nothing from wavecorr, so the worker can time the entry
module's import on its own.
"""

from __future__ import annotations

import csv
import io
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent

# criterion 10's reference hardware readings, copied from HARDWARE_WINDOWS in
# tests/test_acceptance.py: (center, one-sigma half width)
HARDWARE_WINDOWS = {
    "CHSH": (2.78, 0.14),
    "Mermin": (3.93, 0.11),
    "PeresMermin": (5.93, 0.24),
}

# algebraic maxima, copied from the CHSH, MERMIN and PERES_MERMIN definitions
# in src/wavecorr/contextuality.py
ALGEBRAIC_MAX = {"CHSH": 4.0, "Mermin": 4.0, "PeresMermin": 6.0}

# criterion 9 (tests/test_acceptance.py): every grid sequence has a
# deterministic product on any state, so each event estimate must lie within
# 4 standard errors of 6; the floor only guards float arithmetic
PM_VALUE = 6.0
EVENT_SIGMAS = 4.0
EVENT_FLOOR = 1e-9

# grid points of bench/events_sweep.yaml: 11 states x 2 detector models
EVENTS_SWEEP_ROWS = 22

Checks = list[tuple[str, bool]]


@dataclass(frozen=True)
class Workload:
    name: str
    entry: str  # module whose main() is called: wavecorr.cli or scripts/noise_study.py
    argv: Callable[[int, str], list[str]]  # (seed, csv path) -> argv of main
    check: Callable[[dict], Checks]  # worker result -> named pass/fail checks
    compare_csv: bool  # CSV bytes must repeat exactly for one seed


def _in_window(name: str, value: float) -> bool:
    center, half = HARDWARE_WINDOWS[name]
    return center - half <= value <= center + half


_NOISE_LINE = re.compile(
    r"^\s+(\w+)\s+on\s+\w+\s*: mean (\S+) std \S+\s+sem \S+\s+range \[(\S+), (\S+)\]$"
)


def check_noise_ensemble(result: dict) -> Checks:
    checks = [("exit code 0", result["exit"] == 0)]
    found = {}
    for line in result["stdout"].splitlines():
        m = _NOISE_LINE.match(line)
        if m:
            found[m.group(1)] = tuple(float(x) for x in m.group(2, 3, 4))
    for name in HARDWARE_WINDOWS:
        if name not in found:
            checks.append((f"{name} reported", False))
            continue
        mean, lo, hi = found[name]
        bound = ALGEBRAIC_MAX[name]
        checks.append((f"{name} mean in hardware window", _in_window(name, mean)))
        checks.append((f"{name} range within algebraic max", -bound <= lo <= hi <= bound))
    return checks


def _csv_rows(result: dict) -> list[dict]:
    return list(csv.DictReader(io.StringIO(result.get("csv") or "")))


def check_audit_cold(result: dict) -> Checks:
    checks = [("exit code 0", result["exit"] == 0)]
    rows = _csv_rows(result)
    checks.append(("one CSV row", len(rows) == 1))
    if len(rows) != 1:
        return checks
    row = rows[0]
    value = float(row["value"])
    rate = float(row["deviation_rate"])
    checks.append(("value in PeresMermin window", _in_window("PeresMermin", value)))
    checks.append(("corrected bound below value", float(row["corrected_bound"]) < value))
    checks.append(("deviation rate in [0, 1]", 0.0 <= rate <= 1.0))
    return checks


def check_events_sweep(result: dict) -> Checks:
    checks = [("exit code 0", result["exit"] == 0)]
    rows = _csv_rows(result)
    checks.append((f"{EVENTS_SWEEP_ROWS} rows", len(rows) == EVENTS_SWEEP_ROWS))
    for row in rows:
        value, stderr = float(row["value"]), float(row["stderr"])
        ok = abs(value - PM_VALUE) <= EVENT_SIGMAS * stderr + EVENT_FLOOR
        checks.append((f"{row['scenario']} within {EVENT_SIGMAS:g} stderr of 6", ok))
    return checks


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="noise_ensemble",
            entry="noise_study",
            argv=lambda seed, _csv: [
                "--seeds", "20", "--imbalance", "0.008", "--jitter", "0.012",
                "--leakage", "0.001", "--seed", str(seed),
            ],
            check=check_noise_ensemble,
            compare_csv=False,
        ),
        Workload(
            name="audit_cold",
            entry="wavecorr.cli",
            argv=lambda seed, csv_path: [
                "run", str(REPO / "scenarios" / "pm_noisy_audit.yaml"), "--seed", str(seed),
                "--csv", csv_path,
            ],
            check=check_audit_cold,
            compare_csv=True,
        ),
        Workload(
            name="events_sweep",
            entry="wavecorr.cli",
            argv=lambda seed, csv_path: [
                "sweep", str(BENCH_DIR / "events_sweep.yaml"), "--seed", str(seed),
                "--csv", csv_path,
            ],
            check=check_events_sweep,
            compare_csv=True,
        ),
    )
}

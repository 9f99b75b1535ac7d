"""Run one workload call in this fresh process and report what it cost.

    python3 bench/worker.py WORKLOAD SEED OUT_DIR [--trace SPANS_FILE] [--import-only]

Times the import of the entry module (``setup_s``), then the entry point's
``main`` from arguments to return (``wall_s``), and reads the process's peak
resident set.  With ``--trace`` the layers are wrapped after the import, the
spans are written to SPANS_FILE, and their summary is reported.  The result is
one JSON object on the last line of stdout; the program's own stdout and CSV
are part of it so the caller can check them.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import sys
import time

from workloads import REPO, WORKLOADS


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("workload", choices=sorted(WORKLOADS))
    ap.add_argument("seed", type=int)
    ap.add_argument("out_dir")
    ap.add_argument("--trace", default=None, metavar="SPANS_FILE")
    ap.add_argument("--import-only", action="store_true")
    args = ap.parse_args()
    workload = WORKLOADS[args.workload]

    sys.path[:0] = [str(REPO / "src"), str(REPO / "scripts")]
    started = time.perf_counter()
    entry = importlib.import_module(workload.entry)
    setup_s = time.perf_counter() - started
    result = {"setup_s": setup_s}
    if args.import_only:
        print(json.dumps(result))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer(run_id=f"{args.workload}-{args.seed}-{os.getpid()}")
        tracer.install()

    csv_path = os.path.join(args.out_dir, f"{args.workload}-{os.getpid()}.csv")
    argv = workload.argv(args.seed, csv_path)
    captured = io.StringIO()
    started = time.perf_counter()
    with contextlib.redirect_stdout(captured):
        code = entry.main(argv)
    wall_s = time.perf_counter() - started

    csv_text = None
    if os.path.exists(csv_path):
        with open(csv_path, encoding="utf-8") as fh:
            csv_text = fh.read()
        os.remove(csv_path)
    result.update(
        wall_s=wall_s,
        # ru_maxrss is in KiB on Linux
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        exit=code,
        stdout=captured.getvalue(),
        csv=csv_text,
        numpy=sys.modules["numpy"].__version__,
    )
    if tracer is not None:
        tracer.write(args.trace)
        result.update(layers=tracer.summary(), absent=tracer.absent)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

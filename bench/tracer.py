"""Spans around the public calls into each wavecorr layer, wrapped from outside.

Each layer is wrapped at every module attribute through which callers look it
up, so ``wavecorr.cli.build_sequence_tree`` is seen as well as
``wavecorr.network.build_sequence_tree``.  Install the tracer after the entry
module is imported, so that every such name already exists.  Spans are kept in
memory and written out when the traced call ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter
from typing import Callable


def _size(obj) -> int:
    return len(getattr(obj, "elements", ()))


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs.get(name)


# layer -> (sites it is looked up at, (count name, size of one call) or None);
# a size function gets (args, kwargs, result)
LAYERS: dict[str, tuple[tuple[tuple[str, str], ...], tuple[str, Callable] | None]] = {
    "network.build_sequence_tree": (
        (
            ("wavecorr.network", "build_sequence_tree"),
            ("wavecorr.cli", "build_sequence_tree"),
            ("noise_study", "build_sequence_tree"),
        ),
        ("elements", lambda a, k, r: _size(getattr(r, "netlist", None))),
    ),
    "network.propagate": (
        (("wavecorr.network", "propagate"),),
        ("elements", lambda a, k, r: _size(_arg(a, k, 0, "netlist"))),
    ),
    # the name itself, not the element_normals alias, so each draw counts once
    "splitmix.counter_normals": (
        (("wavecorr.network", "counter_normals"),),
        ("draws", lambda a, k, r: int(getattr(_arg(a, k, 1, "indices"), "size", 0))),
    ),
    "reck.decompose": ((("wavecorr.network", "decompose"),), None),
    "contextuality.compatibility_suite": (
        (("wavecorr.cli", "compatibility_suite"), ("noise_study", "compatibility_suite")),
        None,
    ),
    "events.sample_events": (
        (("wavecorr.cli", "sample_events"),),
        ("clicks", lambda a, k, r: int(getattr(r, "total", 0))),
    ),
    "wavecore.sequential_distribution": (
        (
            ("wavecorr.cli", "sequential_distribution"),
            ("wavecorr.contextuality", "sequential_distribution"),
        ),
        None,
    ),
    "cli.run_scenario": ((("wavecorr.cli", "run_scenario"),), None),
}
COMPILE = "network.compile"  # cold Netlist._compile calls only


class Tracer:
    """One span per wrapped call: name, start, end, parent span, run id."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self._stack: list[int] = []

    def wrap(self, layer: str, fn: Callable, count: tuple[str, Callable] | None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [layer, 0.0, 0.0, self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                self.counts[f"{layer}.{count[0]}"] += count[1](args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every layer at each site in a loaded module.

        A layer none of whose sites exists in a loaded module is recorded as
        absent; sites in modules the workload never imports are skipped.
        """
        for layer, (sites, count) in LAYERS.items():
            wrapped = missing = 0
            for module_name, attr in sites:
                module = sys.modules.get(module_name)
                if module is None:
                    continue
                fn = getattr(module, attr, None)
                if fn is None:
                    missing += 1
                    continue
                setattr(module, attr, self.wrap(layer, fn, count))
                wrapped += 1
            if missing and not wrapped:
                self.absent.append(layer)

        network = sys.modules.get("wavecorr.network")
        if not hasattr(network, "_plan_cache"):
            self.absent.append("network.plan_cache")
        netlist = getattr(network, "Netlist", None)
        compile_fn = getattr(netlist, "_compile", None)
        if compile_fn is None:
            self.absent.append(COMPILE)
            return
        traced = self.wrap(COMPILE, compile_fn, None)

        def _compile(net, *args, **kwargs):
            if getattr(net, "_compiled", None) is None:
                return traced(net, *args, **kwargs)
            return compile_fn(net, *args, **kwargs)

        netlist._compile = _compile

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({
                    "run": self.run_id, "id": i, "name": name,
                    "start": start, "end": end, "parent": parent,
                }) + "\n")

    def summary(self) -> dict[str, float]:
        """Per-layer calls, total and self time, the recorded counts, and ratios.

        Self time is a span's duration minus the time its child spans cover.
        All spans come from one thread, so a span's children never overlap and
        their durations simply add up.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = Counter()
        for (name, start, end, _), covered in zip(self.spans, child_time):
            out[f"{name}.calls"] += 1
            out[f"{name}.time_s"] += end - start
            out[f"{name}.self_s"] += end - start - covered
        out.update(self.counts)
        trees = out["network.build_sequence_tree.calls"]
        out["network.reuse_ratio"] = out["network.propagate.calls"] / trees if trees else 0.0
        cache = getattr(sys.modules.get("wavecorr.network"), "_plan_cache", None)
        if cache is not None:
            out["network.plan_cache.size"] = len(cache)
        return dict(out)

"""Pinned digits that must not depend on which Python runs them.

From Python 3.12 the builtin ``sum`` compensates float items (Neumaier), so
any float ``sum`` in the library would print other last digits there.  The
library adds left to right instead; this test runs the network pins with
3.12's ``sum`` in place of the builtin in every wavecorr module.
"""

import math
import sys

import test_acceptance
import test_cli
import test_network


def sum_312(iterable, start=0):
    """CPython 3.12's builtin sum, written out in Python.

    Exact ints are added exactly; once the total is an exact float, exact
    float items are added with Neumaier compensation and ints that fit a C
    long are added as floats; any other item ends the fast paths, and the
    rest is added left to right.  Equal, on 200 000 random lists of floats
    (signed zeros, overflow and subnormals included), ints and bools, to
    CPython 3.12.1 and 3.13.0.
    """
    items = iter(iterable)
    result = start
    if type(result) is int:
        for item in items:
            result = result + item
            if type(item) not in (int, bool):
                break
    if type(result) is float:
        f, c = result, 0.0
        for item in items:
            if type(item) is float:
                t = f + item
                c += (f - t) + item if abs(f) >= abs(item) else (item - t) + f
                f = t
            elif type(item) in (int, bool) and -(2**63) <= item < 2**63:
                f += float(item)
            else:
                result = (f + c if c and math.isfinite(c) else f) + item
                break
        else:
            return f + c if c and math.isfinite(c) else f
    for item in items:
        result = result + item
    return result


def test_sum_312_compensates():
    assert sum_312([0.1] * 10) == 1.0  # left to right, 0.9999999999999999
    assert sum_312([1e100, 1.0, -1e100]) == 1.0
    assert sum_312([1, 2, True]) == 4 and type(sum_312([1, 2])) is int
    assert math.copysign(1.0, sum_312([-0.0, -0.0])) == 1.0  # 0 + -0.0 is +0.0


def test_network_pins_hold_under_compensated_sum(tmp_path, capsys, monkeypatch):
    for name, module in list(sys.modules.items()):
        if name == "wavecorr" or name.startswith("wavecorr."):
            monkeypatch.setattr(module, "sum", sum_312, raising=False)
    for (circuit, noise), digests in test_network.PINNED_NOISY_LEAVES.items():
        assert test_network.noisy_leaf_digests(circuit, noise) == digests
    test_acceptance.test_criterion_10_noisy_means_reach_hardware_windows()
    for seed in sorted(test_cli.PINNED_AUDIT_ROWS):
        test_cli.test_audit_csv_bytes_are_pinned(seed, tmp_path, capsys, monkeypatch)

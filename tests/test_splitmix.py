"""Counter-based streams: the in-place run of hashed words against the array hash."""

import hashlib
import importlib.util
import os
import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import mix64
from wavecorr.splitmix import (
    GOLDEN,
    _RUN,
    counter_uniform,
    counter_words,
    keyed_substream,
    substream,
)

TOP = 2**64
REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")


def run_draw(n, seed, first, scratch=None):
    scratch = np.empty(min(n, _RUN), np.uint64) if scratch is None else scratch
    return counter_words(np.empty(n, np.uint64), seed, first, scratch)


def counter_array_words(seed, first, n):
    counter = np.arange(first, first + n, dtype=np.uint64)
    return mix64(np.uint64(seed % TOP) + (counter + np.uint64(1)) * GOLDEN)


@pytest.mark.parametrize("n", [1, 7, _RUN - 1, _RUN, _RUN + 1, 3 * _RUN + 5])
@pytest.mark.parametrize("seed", [0, TOP - 1, 0x1234_5678_9ABC_DEF0])
@pytest.mark.parametrize("first", [0, 12_345, "wrap"])
def test_run_draw_matches_counter_array(n, seed, first):
    # "wrap" ends the run at counter 2^64 - 1, where counter + 1 wraps to 0
    first = TOP - n if first == "wrap" else first
    np.testing.assert_array_equal(run_draw(n, seed, first), counter_array_words(seed, first, n))
    # counter_uniform keeps the top 53 bits of the same words, plus one
    uniforms = counter_uniform(seed, np.arange(first, first + min(n, 99), dtype=np.uint64))
    top = (run_draw(n, seed, first)[:99] >> np.uint64(11)) + np.uint64(1)
    np.testing.assert_array_equal(uniforms, top.astype(float) * 2.0**-53)


def test_run_draw_reuses_given_buffers_across_lengths():
    scratch = np.empty(_RUN, np.uint64)
    for first, n in [(5, _RUN), (99, 3), (TOP - 40, 40), (0, 2 * _RUN + 1)]:
        expected = counter_array_words(77, first, n)
        np.testing.assert_array_equal(run_draw(n, 77, first, scratch), expected)


def test_mix64_leaves_its_input_untouched():
    z = np.arange(10, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    before = z.copy()
    mixed = mix64(z)
    np.testing.assert_array_equal(z, before)
    assert not np.array_equal(mixed, before)


def test_substream_matches_the_array_hash():
    # substream hashes Python ints; mix64 over uint64 arrays is the reference,
    # with both arguments taken modulo 2^64 (negative and >= 2^64 included)
    rng = random.Random(11)
    edges = [0, 1, -1, TOP - 1, TOP, -TOP, 2**70 + 3]
    pairs = [(a, b) for a in edges for b in edges]
    pairs += [(rng.randrange(-(2**70), 2**70), rng.randrange(-(2**70), 2**70)) for _ in range(2_000)]
    for seed, label in pairs:
        key = np.array([seed % TOP], dtype=np.uint64)
        lab = np.array([label % TOP], dtype=np.uint64)
        assert substream(seed, label) == int(mix64(key + (lab + np.uint64(1)) * GOLDEN)[0])


def test_counter_uniform_broadcasts_seed_arrays():
    seeds = np.array([3, 2**63 + 1], dtype=np.uint64)
    counter = np.arange(6, dtype=np.uint64)
    both = counter_uniform(seeds[:, None], counter)
    for row, seed in zip(both, seeds):
        np.testing.assert_array_equal(row, counter_uniform(int(seed), counter))


# a scenario's noise seed for one circuit, the events seed of another, and an
# ensemble provider's stream for an audited circuit: the values the CLI and the
# audit suites drew from before they shared keyed_substream
PINNED_KEYS = [
    (37, "noise|psi1|ZI*IZ*ZZ", 10668374995722334559),
    (5, "events|chsh|XI*IX", 8292395291244354801),
    (1, "psi1|ZX*XZ*YY", 8508906500038447765),
]


def test_keyed_substreams_are_pinned():
    for seed, key, expected in PINNED_KEYS:
        assert keyed_substream(seed, key) == expected


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(), key=st.text())
def test_keyed_substream_matches_hashlib(seed, key):
    # the builtin SHA-256 against hashlib's, over any seed and any key,
    # non-ASCII ones included
    digest = hashlib.sha256(key.encode()).digest()
    assert keyed_substream(seed, key) == substream(seed, int.from_bytes(digest[:8], "big"))


def _run_python(script):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-c", script], cwd=REPO, env=env, capture_output=True, text=True,
        check=True,
    ).stdout


def test_keyed_substreams_hold_on_the_hashlib_fallback():
    # a build without the builtin hashes: both modules are blocked from import
    script = (
        "import sys\n"
        "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
        "import hashlib\n"
        "from wavecorr import splitmix\n"
        "assert splitmix.sha256 is hashlib.sha256\n"
        f"for seed, key, _ in {PINNED_KEYS!r}:\n"
        "    print(splitmix.keyed_substream(seed, key))\n"
    )
    assert _run_python(script).split() == [str(expected) for _, _, expected in PINNED_KEYS]


@pytest.mark.skipif(
    not any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256")),
    reason="this Python has no builtin SHA-256 module",
)
def test_circuit_runs_do_not_load_openssl():
    # hashlib imports _hashlib, the OpenSSL binding, which costs a circuit run
    # ~3.5 MB of resident memory for one 20-byte hash per circuit
    script = (
        "import contextlib, io, sys\n"
        "sys.path.insert(0, 'scripts')\n"
        "import noise_study\n"
        "from wavecorr import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert noise_study.main(['--seeds', '20']) == 0\n"
        "    assert cli.main(['run', 'scenarios/pm_noisy_audit.yaml']) == 0\n"
        "print(sorted(m for m in ('_hashlib', 'hashlib') if m in sys.modules))\n"
    )
    assert _run_python(script).strip() == "[]"

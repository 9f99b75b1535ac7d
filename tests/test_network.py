import hashlib
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np
import pytest

import wavecorr.network as network
from wavecorr.contextuality import CHSH, correlator, evaluate_inequality
from wavecorr.network import (
    BEAM_SPLITTER,
    FANOUT_LABEL,
    INTENSITY_CONSERVATION_TOL,
    Netlist,
    NetlistError,
    NoiseModel,
    PHASE_SEGMENT,
    PropagationError,
    add_mesh,
    add_state_prep,
    build_measurement_block,
    build_sequence_tree,
    circuit_distributions,
    ensemble_values,
    propagate,
)
from wavecorr.outcomes import outcome_signs
from wavecorr.reck import decompose
from wavecorr.splitmix import counter_normals, offset_seeds, substream
from wavecorr.wavecore import (
    WaveState,
    binary_labels,
    luders_project,
    pauli_observable,
    sequential_distribution,
    state_library,
)

SQRT2 = np.sqrt(2.0)


@dataclass(frozen=True)
class PortAmplitudes:
    """One member's amplitudes at the output ports plus the energy bookkeeping."""

    amplitudes: dict  # keyed by the output ports as given
    input_intensity: float
    absorbed_intensity: float

    @property
    def output_intensity(self):
        return float(sum(abs(a) ** 2 for a in self.amplitudes.values()))

    def intensity(self, wire):
        return float(abs(self.amplitudes[wire]) ** 2)


def propagate_ports(net, drive, noise=None, seeds=None):
    """propagate's batch form with the absorbed tally on, read out by port.

    ``drive`` maps each input port's name to its amplitude, or is a WaveState
    matched to the ports by its mode labels; every member gets the same
    drive.  Returns one PortAmplitudes at seed 0 when ``seeds`` is None, or
    one per seed in seed order.
    """
    values = dict(zip(drive.labels, drive.amplitudes)) if isinstance(drive, WaveState) else drive
    column = np.array([[values[w]] for w in net.input_ports], dtype=complex)
    members = 1 if seeds is None else len(seeds)
    out, absorbed = propagate(
        net, np.repeat(column, members, axis=1), noise, seeds, return_absorbed=True
    )
    input_intensity = float(np.sum(np.abs(column) ** 2))
    ports = [
        PortAmplitudes(
            amplitudes={w: complex(a) for w, a in zip(net.output_ports, amps)},
            input_intensity=input_intensity,
            absorbed_intensity=float(lost),
        )
        for amps, lost in zip(out.T, absorbed)
    ]
    return ports[0] if seeds is None else ports


def hybrid_ring():
    net = Netlist()
    net.add_input("u")
    net.add_input("v")
    net.beam_splitter("u", "v", "s", "d")
    net.add_output("s")
    net.add_output("d")
    return net


# ------------------------------------------------------------ elements


def test_hybrid_ring_sum_diff():
    pa = propagate_ports(hybrid_ring(), {"u": 1.0, "v": 0.0})
    assert pa.amplitudes["s"] == pytest.approx(1 / SQRT2)
    assert pa.amplitudes["d"] == pytest.approx(1 / SQRT2)
    pa = propagate_ports(hybrid_ring(), {"u": 0.0, "v": 1.0})
    assert pa.amplitudes["s"] == pytest.approx(1 / SQRT2)
    assert pa.amplitudes["d"] == pytest.approx(-1 / SQRT2)


def test_phase_segment_and_coupler():
    net = Netlist()
    net.add_input("a")
    net.phase_segment("a", "b", np.pi / 2)
    net.add_output("b")
    pa = propagate_ports(net, {"a": 1.0})
    assert pa.amplitudes["b"] == pytest.approx(1j)

    net = Netlist()
    net.add_input("s")
    net.unequal_coupler("s", "t1", "t2", SQRT2 - 1.0)
    net.add_output("t1")
    net.add_output("t2")
    pa = propagate_ports(net, {"s": 1.0})
    r = SQRT2 - 1.0
    assert pa.amplitudes["t1"] == pytest.approx(1 / np.sqrt(1 + r * r))
    assert pa.amplitudes["t2"] == pytest.approx(r / np.sqrt(1 + r * r))
    assert pa.output_intensity == pytest.approx(1.0, abs=1e-12)


def test_termination_absorbs():
    net = Netlist()
    net.add_input("a")
    net.termination("a")
    pa = propagate_ports(net, {"a": 1.0})
    assert pa.absorbed_intensity == pytest.approx(1.0)
    assert pa.output_intensity == 0.0


# ------------------------------------------------------------ validation


def test_wiring_validation():
    net = Netlist()
    net.add_input("a")
    net.beam_splitter("a", "missing", "s", "d")
    with pytest.raises(NetlistError):
        net.validate()

    net = Netlist()
    net.add_input("a")
    net.phase_segment("a", "b", 0.0)
    net.phase_segment("a", "c", 0.0)  # double read
    with pytest.raises(NetlistError):
        net.validate()

    net = Netlist()
    net.add_input("a")
    net.phase_segment("a", "b", 0.0)  # b driven, never read
    with pytest.raises(NetlistError):
        net.validate()

    net = Netlist()
    net.add_input("a")
    net.phase_segment("a", "a2", 0.0)
    net.add_output("a2")
    net.validate()

    broken = []
    net = Netlist()  # a port driven twice
    net.add_input("a")
    net.add_ground("a")
    broken.append(net)
    net = Netlist()  # an element driving a port
    net.add_input("a")
    net.add_ground("b")
    net.phase_segment("a", "b", 0.0)
    broken.append(net)
    net = hybrid_ring()  # a duplicate output
    net.add_output("s")
    broken.append(net)
    net = Netlist()  # an output nothing drives
    net.add_input("a")
    net.termination("a")
    net.add_output("x")
    broken.append(net)
    net = Netlist()  # an output also read by an element
    net.add_input("a")
    net.phase_segment("a", "b", 0.0)
    net.phase_segment("b", "c", 0.0)
    net.add_output("b")
    net.add_output("c")
    broken.append(net)
    for net in broken:
        with pytest.raises(NetlistError):
            net.validate()
    # anonymous wires come from the netlist's own counter
    net = Netlist()
    a = net.add_input("a")
    with pytest.raises(NetlistError):
        net.phase_segment(a, net.fresh() + 1, 0.0)


def test_drive_must_match_ports():
    net = hybrid_ring()
    # a row per input port and a column per member: too few ports, too many,
    # and two columns for the one member of a call without seeds
    for shape in [(1, 1), (3, 1), (2, 2)]:
        with pytest.raises(PropagationError):
            propagate(net, np.ones(shape, dtype=complex))
    with pytest.raises(PropagationError):
        propagate(net, {"u": 1.0, "v": 0.0})  # ports are driven by row, not by name


# ------------------------------------------------------------- noise RNG


def test_element_normals_deterministic_and_keyed():
    idx = np.arange(64, dtype=np.uint64)
    a = counter_normals(123, idx)
    b = counter_normals(123, idx)
    np.testing.assert_array_equal(a, b)
    c = counter_normals(124, idx)
    assert np.max(np.abs(a - c)) > 1e-3
    # order independence: draws depend only on the element index
    sub = counter_normals(123, idx[10:20])
    np.testing.assert_array_equal(sub, a[10:20])
    # a column of per-member seeds draws each member's own stream
    seeds = [123, 124, substream(5, 1), 2**64 - 1]
    rows = counter_normals(np.array(seeds, dtype=np.uint64)[:, None], idx)
    for row, seed in zip(rows, seeds):
        np.testing.assert_array_equal(row, counter_normals(seed, idx))
    # and a column of element indices against a row of seeds, as propagate draws
    cols = counter_normals(np.array(seeds, dtype=np.uint64), idx[:, None])
    np.testing.assert_array_equal(cols, rows.T)


def test_offset_seeds_shift_the_draw_index():
    seeds = np.array([123, substream(5, 1), 2**64 - 1], dtype=np.uint64)
    offsets = np.array([0, 58, 2**40 + 3], dtype=np.uint64)
    idx = np.arange(64, dtype=np.uint64)[:, None]
    np.testing.assert_array_equal(
        counter_normals(offset_seeds(seeds, offsets), idx), counter_normals(seeds, idx + offsets)
    )


def test_element_normals_are_roughly_standard():
    draws = counter_normals(7, np.arange(200_000, dtype=np.uint64))
    assert abs(np.mean(draws)) < 0.01
    assert abs(np.std(draws) - 1.0) < 0.01


# -------------------------------------------------------------- meshes


def test_mesh_fragment_matches_matrix():
    rng = np.random.default_rng(5)
    for n in (2, 3, 4):
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        q, r = np.linalg.qr(a)
        u = q * (np.diag(r) / np.abs(np.diag(r)))
        plan = decompose(u)
        net = Netlist()
        ins = [net.add_input(f"in{i}") for i in range(n)]
        outs = add_mesh(net, plan, ins)
        for w in outs:
            net.add_output(w)
        for col in range(n):
            drive = {f"in{i}": (1.0 if i == col else 0.0) for i in range(n)}
            pa = propagate_ports(net, drive)
            got = np.array([pa.amplitudes[w] for w in outs])
            np.testing.assert_allclose(got, u[:, col], atol=1e-9)


def test_plan_cache_is_bounded_and_keeps_plans(monkeypatch):
    monkeypatch.setattr(network, "_plan_cache", {})
    rng = np.random.default_rng(8)
    matrices = []
    for _ in range(network._PLAN_CACHE_SIZE + 20):
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        matrices.append(np.linalg.qr(a)[0])
    plans = [network._plan_for(u) for u in matrices]
    assert len(network._plan_cache) == network._PLAN_CACHE_SIZE
    # the oldest entries were evicted, and rebuilding one gives the same plan
    assert matrices[0].tobytes() not in network._plan_cache
    for u, plan in zip(matrices, plans):
        assert network._plan_for(u) == plan == decompose(u)
    assert len(network._plan_cache) == network._PLAN_CACHE_SIZE


# ---------------------------------------------------------------- preps


def test_singlet_prep():
    net = Netlist()
    wires = add_state_prep(net, "singlet")
    for w in wires:
        net.add_output(w)
    pa = propagate_ports(net, {"prep.src": 1.0})
    got = np.array([pa.amplitudes[w] for w in wires])
    np.testing.assert_allclose(got, state_library("singlet").amplitudes, atol=1e-12)


def test_chsh_prep_through_coupler_and_rings():
    net = Netlist()
    wires = add_state_prep(net, "chsh")
    for w in wires:
        net.add_output(w)
    kinds = [el.kind for el in net.elements]
    assert kinds.count("unequal_coupler") == 1
    assert kinds.count("beam_splitter") == 2
    pa = propagate_ports(net, {"prep.src": 1.0})
    got = np.array([pa.amplitudes[w] for w in wires])
    np.testing.assert_allclose(got, state_library("chsh").amplitudes, atol=1e-12)


def test_ghz_prep_postselects_an_eighth():
    net = Netlist()
    wires = add_state_prep(net, "ghz")
    for w in wires:
        net.add_output(w)
    pa = propagate_ports(net, {"prep.src": 1.0})
    got = np.array([pa.amplitudes[w] for w in wires])
    ghz = state_library("ghz").amplitudes
    assert pa.output_intensity == pytest.approx(1.0 / 8.0, abs=1e-12)
    np.testing.assert_allclose(got, ghz / np.sqrt(8.0), atol=1e-9)
    assert pa.absorbed_intensity == pytest.approx(7.0 / 8.0, abs=1e-12)


def test_mesh_prep_arbitrary_state():
    net = Netlist()
    wires = add_state_prep(net, "psi11")
    for w in wires:
        net.add_output(w)
    pa = propagate_ports(net, {"prep.src": 1.0})
    got = np.array([pa.amplitudes[w] for w in wires])
    np.testing.assert_allclose(got, state_library("psi11").amplitudes, atol=1e-9)


# ---------------------------------------------------------------- blocks


@pytest.mark.parametrize("spec", ["ZI", "IX", "YY", "ZZ"])
@pytest.mark.parametrize("name", ["chsh", "psi7", "psi10", "psi11"])
def test_block_branches_equal_luders_branches(spec, name):
    psi = state_library(name)
    obs = pauli_observable(spec)
    net = Netlist()
    ins = [net.add_input(b) for b in psi.labels]
    up, lo = build_measurement_block(net, obs, ins)
    for w in up + lo:
        net.add_output(w)
    pa = propagate_ports(net, psi)
    for outcome, wires in ((+1, up), (-1, lo)):
        got = np.array([pa.amplitudes[w] for w in wires])
        prob, post = luders_project(psi, obs, outcome)
        want = (
            np.sqrt(prob) * post.amplitudes
            if post is not None
            else np.zeros(psi.dim, dtype=complex)
        )
        np.testing.assert_allclose(got, want, atol=1e-9)


def test_block_routing_example():
    # measuring ZI on |00> puts everything on the upper branch, mode 00
    psi = state_library("00")
    net = Netlist()
    ins = [net.add_input(b) for b in psi.labels]
    up, lo = build_measurement_block(net, pauli_observable("ZI"), ins)
    for w in up + lo:
        net.add_output(w)
    pa = propagate_ports(net, psi)
    assert pa.intensity(up[0]) == pytest.approx(1.0, abs=1e-12)
    assert sum(pa.intensity(w) for w in lo) == pytest.approx(0.0, abs=1e-12)


# ----------------------------------------------------------------- trees


def leaf_count(tree):
    return sum(len(ws) for ws in tree.leaf_groups.values())


def path_total_counts(tree):
    """Elements crossed along any amplitude-carrying path to each leaf.

    Wires reachable only from grounds carry no amplitude until they are
    mixed in, so they impose no constraint; wherever two constrained
    wires meet at an element their path totals must agree.  Equal totals
    everywhere are what make uniform per-element leakage a global factor
    that cancels out of the normalized leaf distribution.
    """
    net = tree.netlist
    depth = [None] * net.n_wires
    for w in net.input_ports:
        depth[net.wire_id(w)] = 0
    for pos, (kind, ins, outs, _) in enumerate(net.elements):
        known = [depth[w] for w in ins if depth[w] is not None]
        if known and any(v != known[0] for v in known[1:]):
            raise NetlistError(f"paths of different length meet at element {pos} ({kind})")
        out_depth = known[0] + 1 if known else None
        for w in outs:
            depth[w] = out_depth
    totals = {}
    for outcome, wires in tree.leaf_groups.items():
        leaf_depths = {depth[net.wire_id(w)] for w in wires} - {None}
        if len(leaf_depths) > 1:
            raise NetlistError(f"leaf group {outcome!r} mixes path lengths {leaf_depths}")
        totals[outcome] = leaf_depths.pop() if leaf_depths else 0
    return totals


def test_tree_shape_and_leaf_count():
    obs = [pauli_observable(s) for s in ("ZX", "XZ", "YY")]
    tree = build_sequence_tree(obs, prep="psi7")
    assert tree.depth == 3
    assert set(tree.leaf_groups) == {
        "".join(t) for t in __import__("itertools").product("+-", repeat=3)
    }
    assert leaf_count(tree) == 4 * 2**3
    with pytest.raises(ValueError):
        build_sequence_tree([])
    with pytest.raises(ValueError):
        build_sequence_tree(obs + obs)


def fragment_kind_tallies(tree):
    """Per leaf group, a tally by kind of the circuit fragments it hangs off.

    The walk goes back through drivers from the leaf wires.  Each element it
    reaches brings in its whole fragment: the elements joined to it by wires
    that no fanout_label cuts, plus the fanouts read off the fragment (taps,
    whose further readers belong to a branch of their own).  Whole fragments
    are taken because a branch reads only the taps of its own sign, so the
    bare ancestors of sibling leaf groups differ.
    """
    net = tree.netlist
    driver, reader = {}, {}
    for pos, el in enumerate(net.elements):
        driver.update((w, pos) for w in el.outs)
        reader.update((w, pos) for w in el.ins)
    tallies = {}
    for outcome, leaves in tree.leaf_groups.items():
        stack = [driver[net.wire_id(w)] for w in leaves]
        seen = set(stack)
        while stack:
            el = net.elements[stack.pop()]
            back = [driver.get(w) for w in el.ins]
            ahead = [] if el.kind == FANOUT_LABEL else [reader.get(w) for w in el.outs]
            for pos in back + ahead:
                if pos is None or pos in seen:
                    continue
                seen.add(pos)
                if not (pos in ahead and net.elements[pos].kind == FANOUT_LABEL):
                    stack.append(pos)
        tallies[outcome] = Counter(net.elements[pos].kind for pos in seen)
    return tallies


@pytest.mark.parametrize(
    "prep,specs",
    [
        ("chsh", ("ZI", "IZ")),
        ("singlet", ("ZI", "IX")),
        ("psi7", ("ZX", "XZ", "YY")),
        ("ghz", ("ZII", "IZI", "IIX")),
    ],
)
def test_tree_path_symmetry(prep, specs):
    tree = build_sequence_tree([pauli_observable(s) for s in specs], prep=prep)
    # every amplitude-carrying path crosses the same number of elements
    totals = path_total_counts(tree)  # raises if unequal paths ever meet
    assert len(set(totals.values())) == 1
    # and every leaf group hangs off identically composed fragments
    baseline = None
    for outcome, tally in fragment_kind_tallies(tree).items():
        if baseline is None:
            baseline = tally
        assert tally == baseline, f"branch {outcome} differs: {tally} vs {baseline}"


@pytest.mark.parametrize("name", ["chsh", "singlet", "psi7", "psi11"])
def test_tree_matches_sequential_oracle(name):
    psi = state_library(name)
    obs = [pauli_observable("ZX"), pauli_observable("XZ"), pauli_observable("YY")]
    [[dist]] = circuit_distributions([(name, ("ZX", "XZ", "YY"), None)])
    oracle = sequential_distribution(psi, obs)
    for outcome in oracle.probs:
        assert dist.prob(outcome) == pytest.approx(oracle.prob(outcome), abs=1e-9)


def test_tree_with_bare_inputs_accepts_states():
    obs = [pauli_observable("ZI"), pauli_observable("IZ")]
    tree = build_sequence_tree(obs, prep=None)
    for name in ("psi5", "psi9"):
        psi = state_library(name)
        pa = propagate_ports(tree.netlist, psi)
        intensities = {o: sum(pa.intensity(w) for w in ws) for o, ws in tree.leaf_groups.items()}
        oracle = sequential_distribution(psi, obs)
        for outcome in oracle.probs:
            assert intensities[outcome] == pytest.approx(oracle.prob(outcome), abs=1e-9)
    with pytest.raises(PropagationError):
        propagate(tree.netlist, np.ones((1, 1), dtype=complex))  # its inputs are the 4 bare modes


def test_repeated_observable_tree_is_diagonal():
    [[dist]] = circuit_distributions([("chsh", ("IX",) * 3, None)])
    mixed = dist.mass_where(lambda o: len(set(o)) > 1)
    assert mixed == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------- slots


def slot_net():
    """Four ports, one early output, a ground read last, a coupler after a termination."""
    net = Netlist()
    for w in ("a", "b", "c"):
        net.add_input(w)
    net.add_ground("g")
    net.beam_splitter("a", "b", "s", "t")  # outputs take the slots a and b leave
    net.add_output("s")  # written first, read out only at the end
    net.phase_segment("c", "c1", 0.7)
    net.phase_segment("t", "t1", np.pi / 3)
    net.termination("c1")  # frees c's slot ...
    net.unequal_coupler("t1", "u1", "u2", 0.5)  # ... which u2 takes
    net.beam_splitter("u1", "g", "o1", "o2")  # the ground must still read zero
    net.phase_segment("u2", "o3", -1.1)
    for w in ("o1", "o2", "o3"):
        net.add_output(w)
    return net


def slot_count(net):
    """Rows of the netlist's propagation buffer: the most wires live at once."""
    net._compile()
    return net._slots.count


# sha256 of the output amplitudes' bytes, recorded when every wire had a row
# of its own in the propagation buffer
PINNED_SLOT_NET = {
    "quiet": "96353497aab38c53f0ac58a8c4173ad39cac21d45c70516eaedfe2ee5a8ef186",
    "noisy": "31f3d160e1737fc2048d5dabdd85dd02c447de5b0cdd5b727dab505b457434aa",
}


def test_slots_never_clobber_a_live_wire():
    net = slot_net()
    assert (net.n_wires, slot_count(net)) == (13, 4)
    rng = np.random.default_rng(3)
    drive = rng.normal(size=(3, 5)) + 1j * rng.normal(size=(3, 5))
    seeds = [11, 12, 13, 14, 15]
    quiet = propagate(net, drive, None, seeds)
    a, b, _ = drive
    t1 = (a - b) / SQRT2 * np.exp(1j * np.pi / 3)
    u1, u2 = t1 / np.sqrt(1.25), t1 * 0.5 / np.sqrt(1.25)
    want = [(a + b) / SQRT2, u1 / SQRT2, u1 / SQRT2, u2 * np.exp(-1.1j)]
    np.testing.assert_allclose(quiet, want, rtol=0, atol=1e-12)
    noise = NoiseModel(splitter_imbalance_sigma=0.02, phase_jitter_sigma=0.03, leakage=0.002)
    noisy = propagate(net, drive, noise, seeds)
    got = {"quiet": quiet, "noisy": noisy}
    assert {k: hashlib.sha256(v.tobytes()).hexdigest() for k, v in got.items()} == PINNED_SLOT_NET


@pytest.mark.parametrize("build,slots", [
    (lambda: sequence_tree_netlist(None, "ZX"), 8),
    (lambda: sequence_tree_netlist(None, "XXX"), 16),
    (lambda: prep_netlist("ghz"), 32),
], ids=["ZX stage", "XXX stage", "ghz prep"])
def test_circuits_need_a_slot_per_port(build, slots):
    # with no couplers, every element but a termination passes its inputs'
    # slots on, so a stage or the ghz cascade needs a slot per input and ground port
    net = build()
    assert slot_count(net) == slots == len(net.input_ports) + len(net.ground_ports)


# ------------------------------------------------------------ invariants


def test_zero_noise_conserves_intensity():
    obs = [pauli_observable("ZI"), pauli_observable("IZ")]
    tree = build_sequence_tree(obs, prep="chsh")
    pa = propagate_ports(tree.netlist, {"prep.src": 1.0})
    assert pa.output_intensity + pa.absorbed_intensity == pytest.approx(
        pa.input_intensity, abs=1e-12
    )
    assert pa.absorbed_intensity == pytest.approx(0.0, abs=1e-12)


def test_uniform_leakage_leaves_distribution_unchanged():
    obs = [pauli_observable("ZX"), pauli_observable("XZ"), pauli_observable("YY")]
    tree = build_sequence_tree(obs, prep="psi7")
    request = [("psi7", ("ZX", "XZ", "YY"), None)]
    [[ideal]] = circuit_distributions(request)
    [[lossy]] = circuit_distributions(request, NoiseModel(leakage=0.05))
    for outcome in ideal.probs:
        assert lossy.prob(outcome) == pytest.approx(ideal.prob(outcome), abs=1e-9)
    # but energy really is lost
    pa = propagate_ports(tree.netlist, {"prep.src": 1.0}, NoiseModel(leakage=0.05))
    assert pa.absorbed_intensity > 0.5
    assert pa.output_intensity + pa.absorbed_intensity == pytest.approx(
        pa.input_intensity, abs=1e-10
    )


def test_noisy_propagation_is_reproducible():
    request = ("chsh", ("ZI", "IZ"))
    nm = NoiseModel(splitter_imbalance_sigma=0.02, phase_jitter_sigma=0.05)
    [[d1]] = circuit_distributions([(*request, [42])], nm)
    [[d2]] = circuit_distributions([(*request, [42])], nm)
    assert d1.probs == d2.probs
    [[d3]] = circuit_distributions([(*request, [43])], nm)
    assert d1.probs != d3.probs


def test_noise_model_validation():
    with pytest.raises(ValueError):
        NoiseModel(splitter_imbalance_sigma=-0.1)
    with pytest.raises(ValueError):
        NoiseModel(leakage=1.0)
    for field in ("splitter_imbalance_sigma", "phase_jitter_sigma", "leakage"):
        for value in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                NoiseModel(**{field: value})


CHSH_TERMS = [("ZI", "IZ", 1), ("XI", "IZ", 1), ("ZI", "IX", 1), ("XI", "IX", -1)]


def chsh_values(noise, seeds):
    """The CHSH value of each seed's circuits, every seed drawn in one pass."""
    requests = [("chsh", (a, b), seeds) for a, b, _ in CHSH_TERMS]
    per_term = circuit_distributions(requests, noise)
    values = []
    for m in range(len(seeds)):
        total = 0.0
        for (_, _, sign), dists in zip(CHSH_TERMS, per_term):
            corr = sum(np.prod(outcome_signs(o)) * p for o, p in dists[m].probs.items())
            total += sign * corr
        values.append(total)
    return values


def test_phase_jitter_degrades_chsh_monotonically():
    # ensemble mean over seeds is non-increasing in the jitter width (3 sigma)
    grid = [0.0, 0.05, 0.1, 0.2]
    n_seeds = 100
    means, errs = [], []
    for sigma in grid:
        vals = chsh_values(NoiseModel(phase_jitter_sigma=sigma), range(n_seeds))
        means.append(np.mean(vals))
        errs.append(np.std(vals, ddof=1) / np.sqrt(n_seeds))
    for k in range(len(grid) - 1):
        slack = 3.0 * np.hypot(errs[k], errs[k + 1])
        assert means[k + 1] <= means[k] + slack, (grid, means, errs)


# ------------------------------------------------------------- ensembles


def sequence_tree_netlist(prep, *specs):
    return build_sequence_tree([pauli_observable(s) for s in specs], prep=prep).netlist


def prep_netlist(prep):
    net = Netlist()
    for w in add_state_prep(net, prep):
        net.add_output(w)
    return net


def mermin_tree():
    return sequence_tree_netlist("ghz", "XII", "IXI", "IIX")


def compiled_groups_digest(net):
    """sha256 over each compiled group's kind, element indices and bases, in order.

    The two b"none" fields stand where the digests were recorded with a group's
    per-element noise and leakage override columns, which plain trees never set.
    """
    h = hashlib.sha256()
    for g in net._compile():
        fields = [g.kind.encode(), g.elem_idx.tobytes(), g.base.tobytes(), b"none", b"none"]
        for f in fields:
            h.update(len(f).to_bytes(8, "little"))
            h.update(f)
    return h.hexdigest()


# Recorded on the netlist with string-named wires that the integer-wire one
# replaced.  Equal groups give equal (seed, element index) draws through the
# same array operations, hence bitwise equal amplitudes.
PINNED_GROUPS = {
    "psi1 ZX*XZ*YY": (
        lambda: sequence_tree_netlist("psi1", "ZX", "XZ", "YY"), 1174, 123,
        "61adbafc1f907ab92b8bc2e686e2e3e3e08a7b30ab418aac11723dc85c77afc8",
    ),
    "ghz XII*IXI*IIX": (
        mermin_tree, 7932, 527,
        "f5443fb8635bfc91fca6abe127ce97a68c224241e1097d1d0ad6e357e66b6f65",
    ),
    "chsh ZI*IX": (
        lambda: sequence_tree_netlist("chsh", "ZI", "IX"), 391, 60,
        "79a922a2da11760b56fab7e1c63d0ed1ecc05e8ec3d91689273c16ae07acd313",
    ),
}


@pytest.mark.parametrize("name", list(PINNED_GROUPS))
def test_compiled_groups_are_pinned(name):
    build, n_elements, n_groups, digest = PINNED_GROUPS[name]
    net = build()
    assert len(net.elements) == n_elements
    assert len(net._compile()) == n_groups
    assert compiled_groups_digest(net) == digest


ENSEMBLE_NOISE = NoiseModel(splitter_imbalance_sigma=0.008, phase_jitter_sigma=0.012,
                            leakage=0.001)
ENSEMBLE_SEEDS = [substream(17, m) for m in range(9)]
SOURCE = {"prep.src": 1.0}


def test_ensemble_members_match_single_member_calls():
    net = mermin_tree()
    batch = propagate_ports(net, SOURCE, ENSEMBLE_NOISE, ENSEMBLE_SEEDS)
    assert len(batch) == len(ENSEMBLE_SEEDS)
    for member, seed in zip(batch, ENSEMBLE_SEEDS):
        [single] = propagate_ports(net, SOURCE, ENSEMBLE_NOISE, [seed])
        assert member.amplitudes == single.amplitudes
        assert member.input_intensity == single.input_intensity
        assert member.absorbed_intensity == pytest.approx(single.absorbed_intensity, abs=1e-12)
    assert batch[0].amplitudes != batch[1].amplitudes


def test_ensemble_conserves_intensity_per_member_without_noise():
    net = mermin_tree()
    for noise in (None, NoiseModel()):
        for member in propagate_ports(net, SOURCE, noise, ENSEMBLE_SEEDS):
            total = member.output_intensity + member.absorbed_intensity
            assert abs(total - member.input_intensity) <= INTENSITY_CONSERVATION_TOL
            assert member.absorbed_intensity > 0.5  # the GHZ post-selection


@pytest.mark.parametrize("chunk", [1, 7, 32])
def test_ensemble_does_not_depend_on_member_chunking(chunk, monkeypatch):
    net = mermin_tree()
    reference = propagate_ports(net, SOURCE, ENSEMBLE_NOISE, ENSEMBLE_SEEDS)
    monkeypatch.setattr(network, "PASS_CELLS", chunk * slot_count(net))  # chunk members per pass
    chunked = propagate_ports(net, SOURCE, ENSEMBLE_NOISE, ENSEMBLE_SEEDS)
    for a, b in zip(chunked, reference, strict=True):
        assert a.amplitudes == b.amplitudes
        assert a.absorbed_intensity == pytest.approx(b.absorbed_intensity, abs=1e-12)


def whole_tree_distributions(prep, labels, noise, seeds):
    """Leaf distributions of the tree with the preparation built in, one per seed."""
    tree = build_sequence_tree([pauli_observable(lab) for lab in labels], prep=prep)
    members = propagate_ports(tree.netlist, SOURCE, noise, seeds)
    ports = tree.netlist.output_ports
    leaves = np.array([[pa.amplitudes[w] for w in ports] for pa in members]).T
    return network._leaf_distributions(list(tree.leaf_groups), tree.dim, leaves)


def test_batch_members_match_single_seed_requests():
    request = ("psi1", ("ZZ", "XX"))
    [dists] = circuit_distributions([(*request, ENSEMBLE_SEEDS[:3])], ENSEMBLE_NOISE)
    for dist, seed in zip(dists, ENSEMBLE_SEEDS):
        [[single]] = circuit_distributions([(*request, [seed])], ENSEMBLE_NOISE)
        assert dist.probs == single.probs


# every prep kind: a splitter (singlet), a coupler (chsh), terminations (ghz),
# a synthesized mesh (psi7), a basis label and an explicit state
PREPS = {
    "singlet": ("singlet", ("ZI", "IX")),
    "chsh": ("chsh", ("XI", "IZ")),
    "ghz": ("ghz", ("XII", "IXI", "IIX")),
    "psi7": ("psi7", ("ZX", "XZ", "YY")),
    "basis 01": ("01", ("ZI", "IZ", "ZZ")),
    "explicit": (
        WaveState(binary_labels(2), np.array([0.6, 0.48j, 0.0, 0.64])), ("ZX", "XZ", "YY"),
    ),
}


@pytest.mark.parametrize("kind", list(PREPS))
def test_circuit_distributions_match_whole_trees(kind):
    prep, labels = PREPS[kind]
    seeds = ENSEMBLE_SEEDS[:4]
    [got] = circuit_distributions([(prep, labels, seeds)], ENSEMBLE_NOISE)
    want = whole_tree_distributions(prep, labels, ENSEMBLE_NOISE, seeds)
    for a, b in zip(got, want, strict=True):
        assert a.probs == b.probs
        assert a.intensities == b.intensities


@pytest.mark.parametrize("chunk", [7, 32])
def test_states_share_a_stage_across_member_chunks(chunk, monkeypatch):
    # chunk members per pass through the YY stage
    stage = sequence_tree_netlist(None, "YY")
    monkeypatch.setattr(network, "PASS_CELLS", chunk * slot_count(stage))
    passes = []
    real = network._propagate_members

    def counting(groups, start, *args):
        passes.append(start.shape[1])
        return real(groups, start, *args)

    monkeypatch.setattr(network, "_propagate_members", counting)
    labels = ("ZX", "XZ", "YY")
    states = ["psi1", "singlet", "chsh", "psi11", "10", PREPS["explicit"][0]]
    seeds = {i: [substream(31 + i, m) for m in range(1 + 2 * i)] for i in range(len(states))}
    requests = [(prep, labels, seeds[i]) for i, prep in enumerate(states)]
    requests.insert(2, ("psi4", ("ZI", "IZ", "ZZ"), ENSEMBLE_SEEDS))  # another sequence between
    assert sum(map(len, seeds.values())) == 36
    results = circuit_distributions(requests, ENSEMBLE_NOISE)
    # the 4 * 36 columns of the deepest YY level fill whole passes, then the rest
    deepest = [chunk] * (4 * 36 // chunk) + [4 * 36 % chunk]
    assert any(passes[k:k + len(deepest)] == deepest for k in range(len(passes)))
    for (prep, req_labels, req_seeds), got in zip(requests, results, strict=True):
        want = whole_tree_distributions(prep, req_labels, ENSEMBLE_NOISE, req_seeds)
        assert [d.probs for d in got] == [d.probs for d in want]
        assert [d.intensities for d in got] == [d.intensities for d in want]


def test_level_stages_match_whole_trees():
    # one call: a label repeated on two and on three levels, depths 1 to 3
    # mixed, and an 8-mode sequence behind the ghz cascade
    requests = [
        ("psi1", ("ZX", "ZX"), ENSEMBLE_SEEDS[:3]),
        ("psi4", ("ZI", "ZI", "ZI"), ENSEMBLE_SEEDS[3:5]),
        ("chsh", ("XX",), ENSEMBLE_SEEDS[:1]),
        ("singlet", ("ZI", "XX"), ENSEMBLE_SEEDS[5:9]),
        ("psi7", ("ZX", "XZ", "YY"), ENSEMBLE_SEEDS[:2]),
        ("ghz", ("XXX", "ZZI"), ENSEMBLE_SEEDS[:3]),
        ("ghz", ("YYX",), None),
    ]
    results = circuit_distributions(requests, ENSEMBLE_NOISE)
    for (prep, labels, seeds), got in zip(requests, results, strict=True):
        seeds = [0] if seeds is None else seeds
        want = whole_tree_distributions(prep, labels, ENSEMBLE_NOISE, seeds)
        assert [d.probs for d in got] == [d.probs for d in want], (prep, labels)
        assert [d.intensities for d in got] == [d.intensities for d in want], (prep, labels)


def test_each_stage_and_prep_is_built_once(monkeypatch):
    built = []
    real = network.build_sequence_tree

    def counting(observables, prep=None):
        built.append((tuple(o.label for o in observables), prep))
        return real(observables, prep)

    monkeypatch.setattr(network, "build_sequence_tree", counting)
    preps = []
    real_prep = network.add_state_prep
    monkeypatch.setattr(
        network, "add_state_prep", lambda net, prep: preps.append(prep) or real_prep(net, prep)
    )
    sequences = (("ZI", "IZ"), ("XI", "IX"), ("IX", "ZI", "IX"))
    requests = [(s, seq, None) for seq in sequences for s in ("psi1", "chsh")]
    circuit_distributions(requests)
    # one depth-1 stage per distinct label, in the order labels are first met
    assert built == [((lab,), None) for lab in ("ZI", "IZ", "XI", "IX")]
    assert preps == ["psi1", "chsh"]


def test_one_stage_pass_per_level_and_label(monkeypatch):
    calls = []
    real = network.propagate

    def counting(net, drive, *args, **kwargs):
        calls.append((net, drive.shape[1]))
        return real(net, drive, *args, **kwargs)

    monkeypatch.setattr(network, "propagate", counting)
    sequences = [("ZX", "XZ", "YY"), ("ZX", "XZ"), ("XZ", "ZX"), ("ZX", "YY", "XZ")]
    requests = [
        (prep, seq, ENSEMBLE_SEEDS[:k])
        for k, seq in enumerate(sequences, start=1)
        for prep in ("psi1", "chsh")
    ]
    results = circuit_distributions(requests, ENSEMBLE_NOISE)
    # a pass per distinct prep, then one per (level, label): ZX, XZ at level
    # 0; XZ, ZX, YY at level 1; YY, XZ at level 2
    stage_calls = calls[2:]
    assert len(stage_calls) == 7
    assert len({net for net, _ in stage_calls}) == 3
    # all eight requests go through level 0, whatever their label there
    level0 = sum(width for _, width in stage_calls[:2])
    assert level0 == 2 * sum(range(1, 5))
    for (prep, labels, seeds), got in zip(requests, results, strict=True):
        want = whole_tree_distributions(prep, labels, ENSEMBLE_NOISE, seeds)
        assert [d.probs for d in got] == [d.probs for d in want], (prep, labels)


def test_stage_conserves_intensity_without_noise():
    # leaf intensity plus what the prep and the stage absorb is the input
    for prep, labels in PREPS.values():
        net = Netlist()
        for w in add_state_prep(net, prep):
            net.add_output(w)
        modes, prep_lost = propagate(
            net, np.ones((1, 3), dtype=complex), None, [0, 1, 2], return_absorbed=True
        )
        stage = build_sequence_tree([pauli_observable(lab) for lab in labels])
        offsets = [len(net.elements)] * 3
        leaves, stage_lost = propagate(
            stage.netlist, modes, None, [0, 1, 2], offsets, return_absorbed=True
        )
        total = (np.abs(leaves) ** 2).sum(axis=0) + prep_lost + stage_lost
        assert np.all(np.abs(total - 1.0) <= INTENSITY_CONSERVATION_TOL), prep


def test_prep_width_must_match_the_sequence():
    with pytest.raises(NetlistError, match="8 modes for the 4-mode"):
        circuit_distributions([("ghz", ("ZI", "IZ"), None)])
    with pytest.raises(PropagationError, match="shape"):
        propagate(hybrid_ring(), np.ones((1, 2), dtype=complex), None, [0, 1])


def test_ensemble_values_match_per_fabrication_evaluation():
    master = 29
    values = ensemble_values(CHSH, "chsh", ENSEMBLE_NOISE, master, 3)
    assert len(values) == 3
    for s, value in enumerate(values):
        cors = []
        for k, labels in enumerate(CHSH.sequences):
            seed = substream(substream(master, s), k)
            [dist] = whole_tree_distributions("chsh", labels, ENSEMBLE_NOISE, [seed])
            cors.append(correlator(dist, labels))
        assert value == evaluate_inequality(CHSH, cors).value
    assert len(set(values.tolist())) == 3


# Noise draw pins: one digest per (circuit, noise model, member count) of the
# repr of every leaf probability and intensity that circuit_distributions
# gives, recorded before the noise was drawn per slab of groups.  Equal draws
# through the same elementwise operations give bitwise equal amplitudes, so
# any change in how the draws are batched must leave these unchanged.
PIN_CIRCUITS = {"psi1 ZX*XZ*YY": ("psi1", ("ZX", "XZ", "YY")),
                "ghz XII*IXI*IIX": ("ghz", ("XII", "IXI", "IIX"))}
PIN_NOISE = {
    "imbalance": NoiseModel(splitter_imbalance_sigma=0.02),
    "jitter": NoiseModel(phase_jitter_sigma=0.03),
    "both+leak": NoiseModel(splitter_imbalance_sigma=0.02, phase_jitter_sigma=0.03,
                            leakage=0.002),
}
PIN_MEMBERS = (1, 11, 33)


def noisy_leaf_digests(circuit, noise):
    prep, labels = PIN_CIRCUITS[circuit]
    digests = []
    for n in PIN_MEMBERS:
        seeds = [substream(41, m) for m in range(n)]
        [dists] = circuit_distributions([(prep, labels, seeds)], PIN_NOISE[noise])
        h = hashlib.sha256()
        for dist in dists:
            h.update(repr(list(dist.probs.items())).encode())
            h.update(repr(list(dist.intensities.items())).encode())
        digests.append(h.hexdigest())
    return tuple(digests)


PINNED_NOISY_LEAVES = {
    ('psi1 ZX*XZ*YY', 'imbalance'): (
        '4c35b440387195293b81d92a064b243b688b6edf2efe7ac431e84c1a23427356',
        'ebec642f72848aa04be117205337893cac0f2c445ef4ebc1094246152b207781',
        '49a0ed4f63739b51f4b8aab859edbc2c524c68804e984795f4372fbaaca2ec96',
    ),
    ('psi1 ZX*XZ*YY', 'jitter'): (
        '938404c33dc5357da259203810fac62e530de36f279c2648573f4e327fa2da71',
        '522cfebcfe2decd4d4b2d4300e64e32380a40d051ddd1a53c8afb8c94d5536e4',
        'a5720300604b901d08b9690b49a80ffcf6a7d7925c4cbc446618e4227b3d530b',
    ),
    ('psi1 ZX*XZ*YY', 'both+leak'): (
        '6ff410a98ceb4008c8f7598db6aca204154acb786cd369186d9e67704f600169',
        'b93490a89ce00b6391e4ebb3b230148a7fc178b62708de8120d06c59de49e413',
        '5f09305313643c66383f84043c6520b4debc08a4b6f34bd10c329640cfa26236',
    ),
    ('ghz XII*IXI*IIX', 'imbalance'): (
        '35c32ae5055946f13c979b3377362ecdcdadb44442bfe64bd2104dad29a3675e',
        '567d8c4972c19489bd2e6c3e94817f9920245d731c909aeb7e5c7a9a5dd9cdad',
        '093fd84d4b75c9b4a537c2e593e9a64cb665df32d55a10554a7e4b903593be26',
    ),
    ('ghz XII*IXI*IIX', 'jitter'): (
        'be767fe6661b625b58286fdb07e02ba1432fb22669f2a69adc9ba445b7ed17f9',
        'd5ee412cfbafdcb8f6aded68ec6ef90bd9a6309b845b7f46163cd4f761bedca9',
        '4ce9dc6559130df24fdcaa3d83185087505289891da5c8e5215cac06d274b7a5',
    ),
    ('ghz XII*IXI*IIX', 'both+leak'): (
        'b88a1c5188b08f38b7f6760ba89622f65f65aa2b25fd77c6d414c4b26600204f',
        '44f1959c88f4d27971200677b89a16333cc0d14b63afadcaa665540c3b44b0d7',
        '6a24d957e7ecdc8255ceb14677987ffd73b5c95dcb794f0acd27c0256d96e250',
    ),
}


@pytest.mark.parametrize("circuit", list(PIN_CIRCUITS))
@pytest.mark.parametrize("noise", list(PIN_NOISE))
def test_noisy_leaf_distributions_are_pinned(circuit, noise):
    assert noisy_leaf_digests(circuit, noise) == PINNED_NOISY_LEAVES[circuit, noise]


@pytest.mark.parametrize("slab", [1, 2**30])
@pytest.mark.parametrize("noise", ["imbalance", "both+leak"])
def test_noise_does_not_depend_on_slab_size(slab, noise, monkeypatch):
    # one run per group, and one run per kind for the whole circuit
    reference = noisy_leaf_digests("ghz XII*IXI*IIX", noise)
    monkeypatch.setattr(network, "NOISE_SLAB", slab)
    assert noisy_leaf_digests("ghz XII*IXI*IIX", noise) == reference


def test_noise_is_drawn_once_per_slab(monkeypatch):
    net = mermin_tree()
    noisy = [len(g.elem_idx) for g in net._compile() if g.kind in (BEAM_SPLITTER, PHASE_SEGMENT)]
    members = len(ENSEMBLE_SEEDS)
    monkeypatch.setattr(network, "PASS_CELLS", members * slot_count(net))  # one pass
    calls = []
    real = network.counter_normals

    def counting(seeds, indices):
        calls.append(indices.size)
        return real(seeds, indices)

    monkeypatch.setattr(network, "counter_normals", counting)

    def draws(slab):
        monkeypatch.setattr(network, "NOISE_SLAB", slab)
        calls.clear()
        propagate_ports(net, SOURCE, ENSEMBLE_NOISE, ENSEMBLE_SEEDS)
        return list(calls)

    assert sorted(draws(1)) == sorted(noisy)  # a slab per group
    assert len(draws(2**30)) == 2  # a slab per kind
    slabs = draws(network.NOISE_SLAB)
    assert sum(slabs) == sum(noisy)
    # runs are cut greedily, so two runs in a row hold more than one slab's draws
    assert len(slabs) <= 2 + 2 * sum(noisy) * members / network.NOISE_SLAB < len(noisy) / 20
    assert max(slabs) * members <= max(network.NOISE_SLAB, max(noisy) * members)

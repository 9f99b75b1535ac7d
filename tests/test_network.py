import copy
import hashlib
import math
from collections import Counter, defaultdict
from dataclasses import dataclass, replace
from functools import reduce
from itertools import product
from operator import add
from typing import NamedTuple

import numpy as np
import pytest

import wavecorr.network as network
from oracles import luders_project
from wavecorr.contextuality import (
    CHSH,
    INEQUALITIES,
    PAIR_SUITE,
    TRIPLE_SUITE,
)
from wavecorr.network import (
    BEAM_SPLITTER,
    FANOUT_LABEL,
    Netlist,
    NetlistError,
    NoiseModel,
    PHASE_SEGMENT,
    PropagationError,
    TERMINATION,
    UNEQUAL_COUPLER,
    add_mesh,
    add_state_prep,
    build_measurement_block,
    build_sequence_tree,
    circuit_distributions,
    ensemble_provider,
    propagate,
)
from wavecorr.outcomes import OutcomeDistribution, outcome_signs
from wavecorr.reck import decompose
from wavecorr.splitmix import counter_normals, keyed_substream, offset_seeds, substream
from wavecorr.wavecore import (
    WaveState,
    binary_labels,
    pauli_observable,
    sequential_distribution,
    state_library,
)

SQRT2 = np.sqrt(2.0)

# with zero noise, a circuit without terminations delivers its input intensity
# to its output ports to this tolerance: every element scatters unitarily
INTENSITY_CONSERVATION_TOL = 1e-12

# a unit drive at add_state_prep's source, wire 0 of the netlist it starts
SOURCE = {0: 1.0}


def named(net):
    """Wire ids by name for a hand-built net: a name's first use takes net.fresh()."""
    return defaultdict(net.fresh)


@dataclass(frozen=True)
class PortAmplitudes:
    """One member's amplitudes at the output ports, and the intensity driven in."""

    amplitudes: dict  # keyed by the output ports as given
    input_intensity: float

    @property
    def output_intensity(self):
        return float(sum(abs(a) ** 2 for a in self.amplitudes.values()))

    def intensity(self, wire):
        return float(abs(self.amplitudes[wire]) ** 2)


def propagate_ports(net, drive, noise=None, seeds=None):
    """propagate's batch form, read out by port.

    ``drive`` maps each input port's wire to its amplitude, or is a WaveState
    whose amplitudes drive the input ports in order; every member gets the
    same drive.  Returns one PortAmplitudes at seed 0 when ``seeds`` is None,
    or one per seed in seed order.
    """
    if isinstance(drive, WaveState):
        column = np.array(drive.amplitudes, dtype=complex)[:, None]
    else:
        column = np.array([[drive[w]] for w in net.input_ports], dtype=complex)
    members = 1 if seeds is None else len(seeds)
    out = propagate(net, np.repeat(column, members, axis=1), noise, seeds)
    input_intensity = float(np.sum(np.abs(column) ** 2))
    ports = [
        PortAmplitudes(
            amplitudes={w: complex(a) for w, a in zip(net.output_ports, amps)},
            input_intensity=input_intensity,
        )
        for amps in out.T
    ]
    return ports[0] if seeds is None else ports


def hybrid_ring():
    """A splitter from input ports 0 and 1 to output ports 2 (sum) and 3 (difference)."""
    net = Netlist()
    u, v = net.add_input(net.fresh()), net.add_input(net.fresh())
    s, d = net.fresh(), net.fresh()
    net.add(BEAM_SPLITTER, (u, v), (s, d))
    net.add_output(s)
    net.add_output(d)
    return net


# ------------------------------------------------------------ elements


def test_hybrid_ring_sum_diff():
    pa = propagate_ports(hybrid_ring(), {0: 1.0, 1: 0.0})
    assert pa.amplitudes[2] == pytest.approx(1 / SQRT2)
    assert pa.amplitudes[3] == pytest.approx(1 / SQRT2)
    pa = propagate_ports(hybrid_ring(), {0: 0.0, 1: 1.0})
    assert pa.amplitudes[2] == pytest.approx(1 / SQRT2)
    assert pa.amplitudes[3] == pytest.approx(-1 / SQRT2)


def test_phase_segment_and_coupler():
    net = Netlist()
    w = named(net)
    net.add_input(w["a"])
    net.add(PHASE_SEGMENT, (w["a"],), (w["b"],), np.pi / 2)
    net.add_output(w["b"])
    pa = propagate_ports(net, {w["a"]: 1.0})
    assert pa.amplitudes[w["b"]] == pytest.approx(1j)

    net = Netlist()
    w = named(net)
    net.add_input(w["s"])
    net.add(UNEQUAL_COUPLER, (w["s"],), (w["t1"], w["t2"]), SQRT2 - 1.0)
    net.add_output(w["t1"])
    net.add_output(w["t2"])
    pa = propagate_ports(net, {w["s"]: 1.0})
    r = SQRT2 - 1.0
    assert pa.amplitudes[w["t1"]] == pytest.approx(1 / np.sqrt(1 + r * r))
    assert pa.amplitudes[w["t2"]] == pytest.approx(r / np.sqrt(1 + r * r))
    assert pa.output_intensity == pytest.approx(1.0, abs=1e-12)


def test_termination_absorbs():
    net = Netlist()
    a = net.add_input(net.fresh())
    net.add(TERMINATION, (a,), ())
    assert propagate_ports(net, {a: 1.0}).output_intensity == 0.0
    # a terminated splitter output takes its half of the input away
    net = Netlist()
    w = named(net)
    net.add_input(w["u"])
    net.add_input(w["v"])
    net.add(BEAM_SPLITTER, (w["u"], w["v"]), (w["s"], w["d"]))
    net.add(TERMINATION, (w["d"],), ())
    net.add_output(w["s"])
    assert propagate_ports(net, {w["u"]: 1.0, w["v"]: 0.0}).output_intensity == pytest.approx(0.5)


# ------------------------------------------------------------ validation


def test_wiring_validation():
    # the wiring is checked when the netlist compiles
    net = Netlist()
    w = named(net)
    net.add_input(w["a"])
    net.add(BEAM_SPLITTER, (w["a"], w["missing"]), (w["s"], w["d"]))
    with pytest.raises(NetlistError):
        net._compile()

    net = Netlist()
    w = named(net)
    net.add_input(w["a"])
    net.add(PHASE_SEGMENT, (w["a"],), (w["b"],), 0.0)
    net.add(PHASE_SEGMENT, (w["a"],), (w["c"],), 0.0)  # double read
    with pytest.raises(NetlistError):
        net._compile()

    net = Netlist()
    w = named(net)
    net.add_input(w["a"])
    net.add(PHASE_SEGMENT, (w["a"],), (w["b"],), 0.0)  # b driven, never read
    with pytest.raises(NetlistError):
        net._compile()

    net = Netlist()
    w = named(net)
    net.add_input(w["a"])
    net.add(PHASE_SEGMENT, (w["a"],), (w["a2"],), 0.0)
    net.add_output(w["a2"])
    net._compile()

    broken = []
    net = Netlist()  # a port driven twice
    a = net.add_input(net.fresh())
    net.add_input(a)
    broken.append(net)
    net = Netlist()  # an element driving a port
    a = net.add_input(net.fresh())
    net.add(PHASE_SEGMENT, (a,), (net.add_ground(),), 0.0)
    broken.append(net)
    net = hybrid_ring()  # a duplicate output
    net.add_output(2)
    broken.append(net)
    net = Netlist()  # an output nothing drives
    w = named(net)
    net.add_input(w["a"])
    net.add(TERMINATION, (w["a"],), ())
    net.add_output(w["x"])
    broken.append(net)
    net = Netlist()  # an output also read by an element
    w = named(net)
    net.add_input(w["a"])
    net.add(PHASE_SEGMENT, (w["a"],), (w["b"],), 0.0)
    net.add(PHASE_SEGMENT, (w["b"],), (w["c"],), 0.0)
    net.add_output(w["b"])
    net.add_output(w["c"])
    broken.append(net)
    for net in broken:
        with pytest.raises(NetlistError):
            net._compile()
    # wires come from the netlist's own counter, and a coupler's ratio is nonnegative
    net = Netlist()
    a = net.add_input(net.fresh())
    with pytest.raises(NetlistError):
        net.add(PHASE_SEGMENT, (a,), (net.fresh() + 1,), 0.0)
    with pytest.raises(NetlistError, match="nonnegative"):
        net.add(UNEQUAL_COUPLER, (a,), (net.fresh(), net.fresh()), -0.5)


def test_drive_must_match_ports():
    net = hybrid_ring()
    # a row per input port and a column per member: too few ports, too many,
    # and two columns for the one member of a call without seeds
    for shape in [(1, 1), (3, 1), (2, 2)]:
        with pytest.raises(PropagationError):
            propagate(net, np.ones(shape, dtype=complex))
    with pytest.raises(PropagationError):
        propagate(net, {0: 1.0, 1: 0.0})  # ports are driven by row, not by wire


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
    # a column of element indices against a row of per-member seeds, as
    # propagate draws, gives each member its own stream
    seeds = [123, 124, substream(5, 1), 2**64 - 1]
    cols = counter_normals(np.array(seeds, dtype=np.uint64), idx[:, None])
    for col, seed in zip(cols.T, seeds):
        np.testing.assert_array_equal(col, counter_normals(seed, idx))


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
        ins = [net.add_input(net.fresh()) for _ in range(n)]
        outs = add_mesh(net, plan, ins)
        for w in outs:
            net.add_output(w)
        for col in range(n):
            drive = {w: (1.0 if i == col else 0.0) for i, w in enumerate(ins)}
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
    pa = propagate_ports(net, SOURCE)
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
    pa = propagate_ports(net, SOURCE)
    got = np.array([pa.amplitudes[w] for w in wires])
    np.testing.assert_allclose(got, state_library("chsh").amplitudes, atol=1e-12)


def test_ghz_prep_postselects_an_eighth():
    net = Netlist()
    wires = add_state_prep(net, "ghz")
    for w in wires:
        net.add_output(w)
    pa = propagate_ports(net, SOURCE)
    got = np.array([pa.amplitudes[w] for w in wires])
    ghz = state_library("ghz").amplitudes
    assert pa.output_intensity == pytest.approx(1.0 / 8.0, abs=1e-12)
    np.testing.assert_allclose(got, ghz / np.sqrt(8.0), atol=1e-9)


def test_mesh_prep_arbitrary_state():
    net = Netlist()
    wires = add_state_prep(net, "psi11")
    for w in wires:
        net.add_output(w)
    pa = propagate_ports(net, SOURCE)
    got = np.array([pa.amplitudes[w] for w in wires])
    np.testing.assert_allclose(got, state_library("psi11").amplitudes, atol=1e-9)


# ---------------------------------------------------------------- blocks


@pytest.mark.parametrize("spec", ["ZI", "IX", "YY", "ZZ"])
@pytest.mark.parametrize("name", ["chsh", "psi7", "psi10", "psi11"])
def test_block_branches_equal_luders_branches(spec, name):
    psi = state_library(name)
    obs = pauli_observable(spec)
    net = Netlist()
    ins = [net.add_input(net.fresh()) for _ in psi.labels]
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
    ins = [net.add_input(net.fresh()) for _ in psi.labels]
    up, lo = build_measurement_block(net, pauli_observable("ZI"), ins)
    for w in up + lo:
        net.add_output(w)
    pa = propagate_ports(net, psi)
    assert pa.intensity(up[0]) == pytest.approx(1.0, abs=1e-12)
    assert sum(pa.intensity(w) for w in lo) == pytest.approx(0.0, abs=1e-12)


# ----------------------------------------------------------------- trees


class WholeTree(NamedTuple):
    """A prepared tree built whole; ``leaf_groups`` maps each outcome to its d leaf ports."""

    netlist: Netlist
    leaf_groups: dict


def whole_tree(prep, *specs):
    """The whole measurement tree for a sequence, the reference the stage path must match.

    With ``prep`` None the inputs are the bare mode ports in basis order;
    otherwise add_state_prep builds the preparation in front and the single
    input port is its source, wire 0.  Each level is one measurement block
    per branch, in breadth-first path order ("+" before "-"), and each leaf
    is a fanout_label tap onto an output port; the leaf groups hold those
    ports in basis order, keyed by outcome, first measurement first.

    The tree is compiled with its phase runs cut where circuit_distributions
    cuts them, at the stage boundaries: a segment that reads a root or a
    block's branch wire starts a run, as it does behind a stage's input port.
    """
    observables = [pauli_observable(s) for s in specs]
    basis = binary_labels(observables[0].dim.bit_length() - 1)
    net = Netlist()
    if prep is None:
        roots = [net.add_input(net.fresh()) for _ in basis]
    else:
        roots = add_state_prep(net, prep)
    branches = [("", roots)]
    boundary = list(roots)
    for obs in observables:
        branches = [
            (path + sign, branch)
            for path, wires in branches
            for sign, branch in zip("+-", build_measurement_block(net, obs, wires))
        ]
        boundary += [w for _, wires in branches for w in wires]
    leaf_groups = {}
    for path, wires in branches:
        leaf_groups[path] = tuple(net.fresh() for _ in wires)
        for w, leaf in zip(wires, leaf_groups[path]):
            net.add(FANOUT_LABEL, (w,), (leaf,))
            net.add_output(leaf)
    runs = network._phase_runs

    def cut_runs(seg_in, seg_out, n_wires):
        # wire n_wires, which no segment drives, stands in for each boundary wire
        return runs(np.where(np.isin(seg_in, boundary), n_wires, seg_in), seg_out, n_wires + 1)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(network, "_phase_runs", cut_runs)
        net._compile()
    return WholeTree(net, leaf_groups)


def leaf_count(tree):
    return sum(len(ws) for ws in tree.leaf_groups.values())


def path_depths(net):
    """The element counts of the paths from the input ports to the output ports.

    A tap moves no amplitude and adds 0; every other element adds 1.  A wire
    fed only by ground ports is on no path.  One count for the whole circuit
    is what makes uniform per-element leakage a global factor that cancels
    out of the normalized leaf distribution.
    """
    depth = [frozenset()] * net.n_wires
    for w in net.input_ports:
        depth[w] = frozenset({0})
    for kind, ins, outs, _ in net.elements:
        step = 0 if kind == FANOUT_LABEL else 1
        reached = frozenset(d + step for w in ins for d in depth[w])
        for w in outs:
            depth[w] = reached
    return set().union(*(depth[w] for w in net.output_ports))


def test_tree_shape_and_leaf_count():
    tree = whole_tree("psi7", "ZX", "XZ", "YY")
    assert set(tree.leaf_groups) == {"".join(t) for t in product("+-", repeat=3)}
    assert leaf_count(tree) == 4 * 2**3


@pytest.mark.parametrize("labels,match", [
    ((), "one to three"),
    (("ZX", "XZ", "YY", "ZX"), "one to three"),
    (("ZI", "ZII"), "mode count"),
])
def test_sequences_hold_one_to_three_labels_of_one_width(labels, match):
    with pytest.raises(ValueError, match=match):
        circuit_distributions([("psi7", labels, None)])


def test_stage_is_one_block_on_bare_inputs():
    # dim anonymous inputs, the block's elements with no leaf tap after them,
    # and the upper then the lower branch's wires as outputs
    obs = pauli_observable("ZX")
    stage = build_sequence_tree(obs)
    block = Netlist()
    ins = [block.add_input(block.fresh()) for _ in range(obs.dim)]
    upper, lower = build_measurement_block(block, obs, ins)
    assert stage.input_ports == ins == [0, 1, 2, 3]
    assert stage.elements == block.elements
    assert stage.output_ports == upper + lower


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
        stack = [driver[w] for w in leaves]
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
    tree = whole_tree(prep, *specs)
    # every amplitude-carrying path crosses the same number of elements
    assert len(path_depths(tree.netlist)) == 1
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
        assert dist.probs.get(outcome, 0.0) == pytest.approx(oracle.probs.get(outcome, 0.0), abs=1e-9)


def test_tree_with_bare_inputs_accepts_states():
    obs = [pauli_observable("ZI"), pauli_observable("IZ")]
    tree = whole_tree(None, "ZI", "IZ")
    for name in ("psi5", "psi9"):
        psi = state_library(name)
        pa = propagate_ports(tree.netlist, psi)
        intensities = {o: sum(pa.intensity(w) for w in ws) for o, ws in tree.leaf_groups.items()}
        oracle = sequential_distribution(psi, obs)
        for outcome in oracle.probs:
            assert intensities[outcome] == pytest.approx(oracle.probs.get(outcome, 0.0), abs=1e-9)
    with pytest.raises(PropagationError):
        propagate(tree.netlist, np.ones((1, 1), dtype=complex))  # its inputs are the 4 bare modes


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_leaves_without_a_finite_total_are_a_propagation_error(bad):
    leaves = np.array([[0.6], [bad]], dtype=complex)
    with pytest.raises(PropagationError, match="not a finite number"):
        network._leaf_distributions(["+", "-"], 1, leaves)


@pytest.mark.parametrize("probs", [{"+": np.nan, "-": 1.0}, {"+": 0.5, "-": np.inf}])
def test_a_distribution_rejects_nan_and_inf(probs):
    with pytest.raises(ValueError):
        OutcomeDistribution(probs)


def test_repeated_observable_tree_is_diagonal():
    [[dist]] = circuit_distributions([("chsh", ("IX",) * 3, None)])
    mixed = dist.mass_where(lambda o: len(set(o)) > 1)
    assert mixed == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------- slots


def slot_net():
    """Four ports, one early output, a ground read last, a coupler after a termination."""
    net = Netlist()
    w = named(net)
    for name in ("a", "b", "c"):
        net.add_input(w[name])
    w["g"] = net.add_ground()
    net.add(BEAM_SPLITTER, (w["a"], w["b"]), (w["s"], w["t"]))  # outputs take a's and b's slots
    net.add_output(w["s"])  # written first, read out only at the end
    net.add(PHASE_SEGMENT, (w["c"],), (w["c1"],), 0.7)
    net.add(PHASE_SEGMENT, (w["t"],), (w["t1"],), np.pi / 3)
    net.add(TERMINATION, (w["c1"],), ())  # c's slot is read no more ...
    net.add(UNEQUAL_COUPLER, (w["t1"],), (w["u1"], w["u2"]), 0.5)  # ... and u2 opens a fifth
    net.add(BEAM_SPLITTER, (w["u1"], w["g"]), (w["o1"], w["o2"]))  # the ground must read zero
    net.add(PHASE_SEGMENT, (w["u2"],), (w["o3"],), -1.1)
    for name in ("o1", "o2", "o3"):
        net.add_output(w[name])
    return net


def slot_count(net):
    """Rows of the netlist's propagation buffer: the most wires live at once."""
    net._compile()
    return net._slots.count


def full_plan(net):
    """A copy of ``net`` compiled to every element instead of its live plan.

    The live plan keeps the lit elements (Netlist._layers) that
    Netlist._drop_unread leaves flagged; with every element lit and none
    dropped, it keeps them all, so the groups are the netlist's whole
    schedule, terminations included.
    """
    full = copy.copy(net)
    full._compiled = None
    layers = Netlist._layers
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Netlist, "_layers", lambda n: (layers(n)[0], bytearray([1]) * len(n.elements)))
        mp.setattr(Netlist, "_drop_unread", lambda n, flags, outputs: None)
        full._compile()
    return full


# sha256 of the output amplitudes' bytes, recorded when every wire had a row
# of its own in the propagation buffer
PINNED_SLOT_NET = {
    "quiet": "96353497aab38c53f0ac58a8c4173ad39cac21d45c70516eaedfe2ee5a8ef186",
    "noisy": "86d11327f9d6d324b07bda2902635da7b8daacec1bf2e2c824e696e43891d471",
}


def test_slots_never_clobber_a_live_wire():
    net = slot_net()
    assert (net.n_wires, slot_count(net)) == (13, 5)
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
    (lambda: build_sequence_tree(pauli_observable("ZX")), 8),
    (lambda: build_sequence_tree(pauli_observable("XXX")), 16),
    (lambda: prep_netlist("ghz"), 32),
    (lambda: prep_netlist("chsh"), 4),
], ids=["ZX stage", "XXX stage", "ghz prep", "chsh prep"])
def test_circuits_need_a_slot_per_port(build, slots):
    # every element passes its inputs' slots on and only a coupler's second
    # output opens one, so a circuit needs a slot per input and ground port
    # and per coupler: 3 ports and a coupler for the chsh prep
    net = build()
    couplers = sum(el.kind == UNEQUAL_COUPLER for el in net.elements)
    assert slot_count(net) == slots == len(net.input_ports) + len(net.ground_ports) + couplers


@pytest.mark.parametrize("build", [
    lambda: build_sequence_tree(pauli_observable("ZI")),
    lambda: build_sequence_tree(pauli_observable("YY")),
    lambda: build_sequence_tree(pauli_observable("ZII")),
    lambda: prep_netlist("ghz"),
], ids=["ZI stage", "YY stage", "ZII stage", "ghz prep"])
def test_taps_keep_their_slot_and_get_no_group(build):
    # a tap's output takes its input's slot, so a group would copy slots onto
    # themselves; the other elements keep their indices, so no draw moves
    net = build()
    taps = {pos for pos, el in enumerate(net.elements) if el.kind == FANOUT_LABEL}
    assert taps
    full = full_plan(net)
    assert FANOUT_LABEL not in {g.kind for g in full._compile()}
    compiled = sorted(i for _, run in entry_runs(full) for i in run)
    assert compiled == sorted(set(range(len(net.elements))) - taps)


# ------------------------------------------------------------ invariants


def test_zero_noise_conserves_intensity():
    tree = whole_tree("chsh", "ZI", "IZ")
    pa = propagate_ports(tree.netlist, SOURCE)
    assert abs(pa.output_intensity - pa.input_intensity) <= INTENSITY_CONSERVATION_TOL


def test_uniform_leakage_leaves_distribution_unchanged():
    request = [("psi7", ("ZX", "XZ", "YY"), ENSEMBLE_SEEDS[:3])]
    for noise in (
        NoiseModel(),
        NoiseModel(splitter_imbalance_sigma=0.02),
        NoiseModel(phase_jitter_sigma=0.03),
        NoiseModel(splitter_imbalance_sigma=0.02, phase_jitter_sigma=0.03),
    ):
        [lossless] = circuit_distributions(request, noise)
        [lossy] = circuit_distributions(request, replace(noise, leakage=0.05))
        assert [d.probs for d in lossy] == [d.probs for d in lossless], noise


def leakage_circuits():
    """(name, netlist, one drive column): every shipped stage, four preps, a whole tree."""
    rng = np.random.default_rng(9)
    for label in SHIPPED_LABELS:
        net = build_sequence_tree(pauli_observable(label))
        shape = (len(net.input_ports), 1)
        yield f"{label} stage", net, rng.normal(size=shape) + 1j * rng.normal(size=shape)
    source = np.ones((1, 1), dtype=complex)
    for prep in ("singlet", "chsh", "ghz", "psi11"):
        yield f"{prep} prep", prep_netlist(prep), source
    yield "psi7 ZX*XZ*YY", whole_tree("psi7", "ZX", "XZ", "YY").netlist, source


def test_every_lit_path_crosses_one_depth_per_circuit():
    # why leakage is not applied: uniform leakage would scale every output
    # that light reaches by the same (1 - leak)^(D / 2), one D per circuit
    # (from 1 for the singlet prep to 186 for the ghz prep)
    for name, net, _ in leakage_circuits():
        depths = path_depths(net)
        assert len(depths) == 1 and min(depths) >= 1, (name, depths)


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


def prep_netlist(prep):
    net = Netlist()
    for w in add_state_prep(net, prep):
        net.add_output(w)
    return net


def mermin_tree():
    return whole_tree("ghz", "XII", "IXI", "IIX").netlist


def compiled_groups_digest(net):
    """sha256 over each compiled group's kind, entry indices, bases and jitter scales, in order."""
    h = hashlib.sha256()
    for g in net._compile():
        fields = [g.kind.encode(), g.elem_idx.tobytes(), g.base.tobytes(), g.scale.tobytes()]
        for f in fields:
            h.update(len(f).to_bytes(8, "little"))
            h.update(f)
    return h.hexdigest()


# Recorded when each run of phase segments was first fused into one entry.
# The live plan drops elements, so the digest is taken over full_plan's
# groups: every element but the taps, each run of phase segments as its
# head.  Equal groups give equal (seed, entry index) draws through the same
# array operations, hence bitwise equal amplitudes.  The element counts are
# the netlists', which fusion leaves as they are.
PINNED_GROUPS = {
    "psi1 ZX*XZ*YY": (
        lambda: whole_tree("psi1", "ZX", "XZ", "YY").netlist, 1174, 68,
        "d8289d0dd333c966357921cc71a785c3cd1da29e918ab1c10da6c07990efa7f9",
    ),
    "ghz XII*IXI*IIX": (
        mermin_tree, 7932, 298,
        "e1a70e8587f3577d67c4e0c9cabf72a9c0f24a9a6e0d3bde94874c0a40622a2b",
    ),
    "chsh ZI*IX": (
        lambda: whole_tree("chsh", "ZI", "IX").netlist, 391, 38,
        "fc592747599c4d186de37dabc123f0b3832ea5301253f9d5f31921d028ec0193",
    ),
}


@pytest.mark.parametrize("name", list(PINNED_GROUPS))
def test_compiled_groups_are_pinned(name):
    build, n_elements, n_groups, digest = PINNED_GROUPS[name]
    net = full_plan(build())
    assert len(net.elements) == n_elements
    assert len(net._compile()) == n_groups
    assert compiled_groups_digest(net) == digest


ENSEMBLE_NOISE = NoiseModel(splitter_imbalance_sigma=0.008, phase_jitter_sigma=0.012,
                            leakage=0.001)
ENSEMBLE_SEEDS = [substream(17, m) for m in range(9)]


def test_ensemble_members_match_single_member_calls():
    net = mermin_tree()
    batch = propagate_ports(net, SOURCE, ENSEMBLE_NOISE, ENSEMBLE_SEEDS)
    assert len(batch) == len(ENSEMBLE_SEEDS)
    for member, seed in zip(batch, ENSEMBLE_SEEDS):
        [single] = propagate_ports(net, SOURCE, ENSEMBLE_NOISE, [seed])
        assert member.amplitudes == single.amplitudes
        assert member.input_intensity == single.input_intensity
    assert batch[0].amplitudes != batch[1].amplitudes


def test_ensemble_conserves_intensity_per_member_without_noise():
    # the ghz post-selection keeps an eighth of the input, and the tree
    # after it loses nothing
    net = mermin_tree()
    for noise in (None, NoiseModel()):
        for member in propagate_ports(net, SOURCE, noise, ENSEMBLE_SEEDS):
            kept = member.output_intensity - member.input_intensity / 8
            assert abs(kept) <= INTENSITY_CONSERVATION_TOL


@pytest.mark.parametrize("chunk", [1, 7, 32])
def test_ensemble_does_not_depend_on_member_chunking(chunk, monkeypatch):
    net = mermin_tree()
    reference = propagate_ports(net, SOURCE, ENSEMBLE_NOISE, ENSEMBLE_SEEDS)
    monkeypatch.setattr(network, "PASS_CELLS", chunk * slot_count(net))  # chunk members per pass
    chunked = propagate_ports(net, SOURCE, ENSEMBLE_NOISE, ENSEMBLE_SEEDS)
    for a, b in zip(chunked, reference, strict=True):
        assert a.amplitudes == b.amplitudes


def whole_tree_distributions(prep, labels, noise, seeds):
    """Leaf distributions of the tree with the preparation built in, one per seed."""
    net, leaf_groups = whole_tree(prep, *labels)
    members = propagate_ports(net, SOURCE, noise, seeds)
    leaves = np.array([[pa.amplitudes[w] for w in net.output_ports] for pa in members]).T
    d = len(next(iter(leaf_groups.values())))
    return network._leaf_distributions(list(leaf_groups), d, leaves)


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


@pytest.mark.parametrize("chunk", [7, 32])
def test_states_share_a_stage_across_member_chunks(chunk, monkeypatch):
    # chunk members per pass through the YY stage
    stage = build_sequence_tree(pauli_observable("YY"))
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


def test_each_stage_and_prep_is_built_once(monkeypatch):
    built = []
    real = network.build_sequence_tree

    def counting(obs):
        built.append(obs.label)
        return real(obs)

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
    assert built == ["ZI", "IZ", "XI", "IX"]
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
    # the leaves get all the intensity the prep delivers
    for prep, labels in PREPS.values():
        modes = propagate(prep_netlist(prep), np.ones((1, 3), dtype=complex), None, [0, 1, 2])
        tree = whole_tree(None, *labels).netlist
        leaves = propagate(tree, modes, None, [0, 1, 2])
        lost = (np.abs(modes) ** 2).sum(axis=0) - (np.abs(leaves) ** 2).sum(axis=0)
        assert np.all(np.abs(lost) <= INTENSITY_CONSERVATION_TOL), prep


def test_prep_width_must_match_the_sequence():
    with pytest.raises(NetlistError, match="8 modes for the 4-mode"):
        circuit_distributions([("ghz", ("ZI", "IZ"), None)])
    with pytest.raises(PropagationError, match="shape"):
        propagate(hybrid_ring(), np.ones((1, 2), dtype=complex), None, [0, 1])


def test_ensemble_provider_members_match_whole_trees():
    # member m of circuit (state, labels) is the whole tree at its keyed seed
    master = 29
    results = ensemble_provider(ENSEMBLE_NOISE, master, 3)(
        [("chsh", labels) for labels in CHSH.sequences]
    )
    for labels, got in zip(CHSH.sequences, results, strict=True):
        tree_seed = keyed_substream(master, f"chsh|{'*'.join(labels)}")
        seeds = [substream(tree_seed, m) for m in range(3)]
        want = whole_tree_distributions("chsh", labels, ENSEMBLE_NOISE, seeds)
        assert [d.probs for d in got] == [d.probs for d in want], labels
    assert len({repr(d.probs) for d in results[0]}) == 3


# Noise draw pins: one digest per (circuit, noise model, member count) of the
# repr of every leaf probability that circuit_distributions gives, recorded
# with a splitter that draws no imbalance computed as the ideal one and each
# run of phase segments fused into one entry.  Equal draws through the same
# elementwise operations give bitwise equal amplitudes, so any change in how
# the draws are batched must leave these unchanged.  Leakage is not applied,
# so "both+leak" is "both" at leakage 0.
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
        digests.append(h.hexdigest())
    return tuple(digests)


PINNED_NOISY_LEAVES = {
    ('psi1 ZX*XZ*YY', 'imbalance'): (
        '0911c3c8a9f568aa863c90b8744fa243aed960f7869b8ff2d8a1f9b42383c97a',
        '9113ee1f2f1f1fa5c91f472082aa7c1fecbd636418855c3e420cf1107516882c',
        'b1cf428886caf23aec442e01c349e53c8f62059cca6fb4bcc63caa16c984e5fb',
    ),
    ('psi1 ZX*XZ*YY', 'jitter'): (
        '706dab9bd887d4b79deaa4f94d78021476b8ff4481b05020afaf77458e32fa84',
        '3904bd70a8933b56c3b0aded7f283acb4326134a8ea8ed733045f8d3737e5eb9',
        'ecddcf2062bba1437f1074da146192b84a0a9c3072b80ec6547fde4bc13f99c2',
    ),
    ('psi1 ZX*XZ*YY', 'both+leak'): (
        'ca91cbcc98c086c8c24e200042225de1dbda7e8f7e7c064e0fa37c7d01ff5b6a',
        '4327e91041f3190af2bdbe701d2d84618f140cfd4e7bccb274aec7d0f94e5276',
        '242b17d60bb834a5ab90f9fed76ef8b366b0d683df24482bf0a7aeb6bcec3a11',
    ),
    ('ghz XII*IXI*IIX', 'imbalance'): (
        '0c705e752d007b44d0b7159583e025e2a4cf8f96b3ac347c77a721c42d2e8a35',
        'dc455e90c77db058a929a1270ff59d4dde5683ced9e1b35da5a014cedcfd6f67',
        'b8b66d092d7cca16cb86a1118d1161e8fe5fd9a38abd03e765706b51d9b7e5a4',
    ),
    ('ghz XII*IXI*IIX', 'jitter'): (
        'cd4900705544c2646c4e5c6c74345e99244b3c0a47421ba3e74223af73f9e49d',
        'cab23dc4604793d56a0a2ffbf107b0fe4d73eb66f5bf03ae16174637eb0f420f',
        '3540d91ef5451f08ea1a23ff419a0d08f2d752cd44207247208ac91f7c1a89aa',
    ),
    ('ghz XII*IXI*IIX', 'both+leak'): (
        'bcb46d6eb4e9c167dbeb5dee2f7c83149678bf49184e5f0075ffbaefdb1fa586',
        '4ee97e10a2f68ddf93c3f483505394e6aa5211a2df0cffa025f68177e80668ad',
        'e059bc591a681d0beaad7d199e5236f5079cc64595a6a0dfa14219d674369d1d',
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


@pytest.mark.parametrize("label", ["ZX", "YY", "XXX", "ZII"])
@pytest.mark.parametrize("seed", [0, 7, 2**40 + 3])
def test_jitter_alone_is_the_ideal_circuit_with_drawn_phases(label, seed):
    # a splitter without an imbalance draw is the ideal one, so jitter alone
    # is bitwise a quiet circuit whose phase runs carry the drawn errors: a
    # run's first segment turns by the run's bases, added left to right, plus
    # sqrt(n) sigma times its own draw, and the rest of the run by 0
    sigma = 0.03
    net = build_sequence_tree(pauli_observable(label))
    rng = np.random.default_rng(seed % 97)
    shape = (len(net.input_ports), 1)
    drive = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    bases = {}
    for kind, run in entry_runs(net):
        if kind == PHASE_SEGMENT:
            [z] = counter_normals(seed, np.array(run[:1], dtype=np.uint64))
            bases.update(dict.fromkeys(run, 0.0))
            total = reduce(add, (net.elements[i].base for i in run))
            bases[run[0]] = total + float(z * (sigma * math.sqrt(len(run))))
    drawn = rebased(net, bases)
    noisy = propagate(net, drive, NoiseModel(phase_jitter_sigma=sigma), [seed])
    assert noisy.tobytes() == propagate(drawn, drive).tobytes()


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


# ------------------------------------------------------------ live plan

# every Pauli word that a shipped inequality or audit suite measures
SHIPPED_LABELS = sorted(
    {label for defn in INEQUALITIES.values() for seq in defn.sequences for label in seq}
    | {label for suite in (PAIR_SUITE, TRIPLE_SUITE) for seq in suite.sequences for label in seq}
)


def entry_runs(net):
    """(kind, element indices) per entry of the compiled plan, in plan order.

    A phase entry's run is walked from its head through the readers of each
    segment's output, as many segments as its jitter scale squared; any
    other entry is its element alone.
    """
    reader = {w: pos for pos, el in enumerate(net.elements) for w in el.ins}
    for g in net._compile():
        for head, scale in zip(g.elem_idx.ravel().tolist(), g.scale.ravel().tolist()):
            run = [head]
            for _ in range(round(scale * scale) - 1):
                run.append(reader[net.elements[run[-1]].outs[0]])
            yield g.kind, run


def live_indices(net):
    return {i for _, run in entry_runs(net) for i in run}


def noisy_indices(net):
    return {i for i, el in enumerate(net.elements) if el.kind in (BEAM_SPLITTER, PHASE_SEGMENT)}


def shipped_circuits():
    """(name, netlist, drive) for the ghz prep and every shipped stage."""
    rng = np.random.default_rng(5)
    members = len(ENSEMBLE_SEEDS)
    yield "ghz prep", prep_netlist("ghz"), np.ones((1, members), dtype=complex)
    for label in SHIPPED_LABELS:
        net = build_sequence_tree(pauli_observable(label))
        shape = (len(net.input_ports), members)
        yield f"{label} stage", net, rng.normal(size=shape) + 1j * rng.normal(size=shape)


def test_live_plan_equals_full_plan():
    for name, net, drive in shipped_circuits():
        live = propagate(net, drive, ENSEMBLE_NOISE, ENSEMBLE_SEEDS)
        full = propagate(full_plan(net), drive, ENSEMBLE_NOISE, ENSEMBLE_SEEDS)
        assert live.tobytes() == full.tobytes(), name
        assert live_indices(net) & noisy_indices(net) < noisy_indices(net), name


def rebased(net, bases):
    """A copy of ``net`` whose element at each position in ``bases`` has the base given there."""
    mutant = copy.copy(net)
    mutant.elements = [
        el._replace(base=bases[pos]) if pos in bases else el for pos, el in enumerate(net.elements)
    ]
    mutant._compiled = None
    return mutant


@pytest.mark.parametrize("build", [
    lambda: prep_netlist("ghz"),
    lambda: build_sequence_tree(pauli_observable("XXX")),
    lambda: build_sequence_tree(pauli_observable("ZX")),
], ids=["ghz prep", "XXX stage", "ZX stage"])
def test_elements_outside_the_live_plan_cannot_change_an_output(build):
    net = build()
    drive = np.ones((len(net.input_ports), len(ENSEMBLE_SEEDS)), dtype=complex)
    reference = propagate(net, drive, ENSEMBLE_NOISE, ENSEMBLE_SEEDS).tobytes()
    live = live_indices(net)
    dead = set(range(len(net.elements))) - live
    assert dead
    # the full plan runs every element, so a dead one that could reach an
    # output through a nonzero input would move it
    mutant = full_plan(rebased(net, dict.fromkeys(dead, 1.234)))
    assert propagate(mutant, drive, ENSEMBLE_NOISE, ENSEMBLE_SEEDS).tobytes() == reference
    segments = [i for i in sorted(live) if net.elements[i].kind == PHASE_SEGMENT]
    for i in (segments[0], segments[-1]):
        mutant = rebased(net, {i: net.elements[i].base + 0.5})
        assert propagate(mutant, drive, ENSEMBLE_NOISE, ENSEMBLE_SEEDS).tobytes() != reference


def test_live_plan_skips_a_coupler_fed_only_by_ground():
    # a coupler's second output opens a slot, which starts at zero, so a
    # coupler that reads only a ground may be skipped, even beside a
    # termination whose slot still holds the amplitude it absorbed
    net = Netlist()
    w = named(net)
    net.add_input(w["a"])
    g = net.add_ground()
    net.add(TERMINATION, (w["a"],), ())
    net.add(UNEQUAL_COUPLER, (g,), (w["t1"], w["t2"]), 0.5)
    for name in ("t1", "t2"):
        net.add_output(w[name])
    assert slot_count(net) == 3  # "t2" opened a slot of its own
    drive = np.full((1, 2), 3.0 + 1j)
    out = propagate(net, drive, ENSEMBLE_NOISE, [1, 2])
    assert not out.any()
    assert net._compile() == []
    assert propagate(full_plan(net), drive, ENSEMBLE_NOISE, [1, 2]).tobytes() == out.tobytes()


def test_ghz_prep_draws_for_its_live_elements_only():
    # 950 noisy elements see only ground ports (the seven beside the source
    # and each block's routing grounds), and 520 more sit in the three
    # post-selected -1 branches, which feed only terminations; the 654 live
    # ones, 46 splitters and 608 phase segments in 93 runs, draw 139 times
    net = prep_netlist("ghz")
    noisy = noisy_indices(net)
    _, lit = net._layers()
    assert (len(noisy), sum(not lit[i] for i in noisy)) == (2124, 950)
    assert len(live_indices(net) & noisy) == 654
    entries = Counter(kind for kind, _ in entry_runs(net))
    assert (entries[BEAM_SPLITTER], entries[PHASE_SEGMENT]) == (46, 93)


def live_elements(net):
    """The elements a live plan keeps, found by a walk back from the output ports.

    An element is kept when it is lit (Netlist._layers) and one of its
    outputs is an output port or is read by a kept element's ancestor.
    """
    _, lit = net._layers()
    reach = set(net.output_ports)
    live = set()
    for pos in reversed(range(len(net.elements))):
        el = net.elements[pos]
        if reach.intersection(el.outs):
            reach.update(el.ins)
            if lit[pos]:
                live.add(pos)
    return live


@pytest.mark.parametrize("build", [
    *(lambda label=label: build_sequence_tree(pauli_observable(label)) for label in SHIPPED_LABELS),
    *(lambda prep=prep: prep_netlist(prep) for prep in ("ghz", "chsh", "psi1")),
], ids=[*(f"{label} stage" for label in SHIPPED_LABELS), "ghz prep", "chsh prep", "psi1 prep"])
def test_each_run_of_live_phase_segments_is_one_entry(build):
    net = build()
    elements = net.elements
    live = live_elements(net)
    segments = {i for i in live if elements[i].kind == PHASE_SEGMENT}
    driver = {w: pos for pos, el in enumerate(elements) for w in el.outs}
    reader = {w: pos for pos, el in enumerate(elements) for w in el.ins}
    runs = [run for kind, run in entry_runs(net) if kind == PHASE_SEGMENT]
    # the runs cover the live segments once each, and nothing else
    assert sum(map(len, runs)) == len(segments)
    assert sorted(i for run in runs for i in run) == sorted(segments)
    groups = [g for g in net._compile() if g.kind == PHASE_SEGMENT]
    heads = np.concatenate([g.elem_idx.ravel() for g in groups]) if groups else []
    bases = np.concatenate([g.base.ravel() for g in groups]) if groups else []
    for run, base in zip(runs, bases, strict=True):
        # each segment reads the one before, and a run neither starts nor
        # ends beside another live segment: a tap, a port or another kind
        # ends it
        assert all(reader[elements[a].outs[0]] == b for a, b in zip(run, run[1:]))
        assert driver.get(elements[run[0]].ins[0]) not in segments
        assert reader.get(elements[run[-1]].outs[0]) not in segments
        # the entry's base is the run's bases added left to right, so a run
        # of one keeps its element's base bit for bit
        total = reduce(add, (elements[i].base for i in run))
        assert np.float64(total).tobytes() == base.tobytes()
    assert [run[0] for run in runs] == list(heads)

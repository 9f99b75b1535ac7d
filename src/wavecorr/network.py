"""Feed-forward circuits of splitters, phase segments and couplers.

A netlist is a DAG on integer wires, each an id from Netlist.fresh():
every wire has exactly one driver (an element output or an external port)
and exactly one reader (an element input or an external output port).
Propagation pushes complex amplitudes from the input ports to the output
ports, whose intensities give joint outcome probabilities.

Element behaviour (ideal):

    beam_splitter    (u, v) -> ((u + v)/sqrt(2), (u - v)/sqrt(2))
    phase_segment    a -> exp(i phase) a
    unequal_coupler  s -> (s, r s)/sqrt(1 + r^2)
    termination      absorbs its input

Measurement blocks diagonalize an observable with a mesh, wire each
eigenmode straight into the +1 or the -1 branch, a ground taking its place
in the other, and recompose each branch back to the computational basis.
A sequence of k measurements is a tree of such blocks, one per branch per
level, ending in 2^k groups of d modes whose intensities are the joint
sequential probabilities.

A prepared experiment is a preparation netlist (add_state_prep) feeding
that tree.  Every level of the tree is the same measurement block for one
observable, copied once per branch, so the tree is never built whole:
circuit_distributions builds, per call, each preparation once and one
measurement stage (build_sequence_tree: the block on bare mode inputs) per
distinct label, and propagates the sequences a level at a time: level j of
every sequence whose j-th label is the same goes through that label's stage
in one call, its 2^(j-1) entering branches times its (state, fabrication)
pairs side by side with the other sequences' on the member axis.  Each
member's seeds are moved past the elements before its block in the whole
tree, preparation first, so every group of d modes is bitwise that of the
tree with the preparation built in.  Only the amplitudes are computed, and
only by the live plan of each compiled netlist: the elements that can change
an output port.

Netlist._layers, the walk that validates a netlist, drops each element
into a (layer, kind) bucket and gives each wire a slot, one per input and
ground port and per coupler, not a row per wire.  Each bucket's live
elements are one same-kind group; groups run layer by layer, and within a
layer in kind name order.  A pass holds about PASS_CELLS (slot, member)
amplitudes, so a small stage takes many members at once and a large one few.

A chain of phase segments is physically one longer line whose phase errors
add, so a netlist lays each wire's chain down as one segment with a length:
the mesh builders (add_mesh) extend the segment that drives a wire, adding
the new phase to its base, left to right, and its length by one, until an
element reads the wire or it becomes an output port.  Its noise is one draw
scaled by sqrt(length); exact in law.  A wave that crosses n segments picks
up exp(i sum(b_k + sigma z_k)), and with the z_k independent standard
normals that is the law of exp(i (sum b_k + sigma sqrt(n) z)).  Every
splitter draws on its own.

Fabrication noise is drawn once per noisy kind per pass, not per group:
one counter_normals call covers every live splitter, and one every live
phase segment, and each group reads its rows of that draw.  A pass takes
max(1, PASS_CELLS // width) members, width being the slot count or, if
more, the live entries of one kind, so the buffer and each kind's draw
stay within PASS_CELLS cells however many members a call brings, and
every amplitude is bitwise that of a draw per group.
Only the live plan draws: an element outside it (fed only by ground ports,
or behind a post-selection that feeds only terminations) draws nothing, and
since every draw is keyed by (member seed, entry index), each live entry
draws what it would in a plan that ran every element.

Meshes are laid down in columns that cover every mode of the bundle
(identity phases pad the modes an element does not touch), so all paths
that carry amplitude cross the same length D of line, a segment counting
its length, one D per circuit.  Uniform per-unit leakage would scale every
leaf's intensity by the same (1 - leakage)^D and drop out of the normalized
distributions, so propagation does not apply it: a circuit's outputs are
its probabilities, which no leakage changes.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from functools import reduce
from itertools import islice, product
from operator import add
from typing import Callable, NamedTuple, Sequence

import numpy as np

from wavecorr.contextuality import Provider
from wavecorr.outcomes import OutcomeDistribution
from wavecorr.reck import MeshPlan, SynthesisError, decompose
from wavecorr.splitmix import counter_normals, keyed_substream, offset_seeds, substream
from wavecorr.wavecore import (
    GHZ_STABILIZER_SPECS,
    DichotomicObservable,
    WaveState,
    pauli_observable,
    state_library,
)

# cells per propagation pass, which takes max(1, PASS_CELLS // width)
# members (Netlist._compile's width: the slot count or, if more, the live
# entries of one kind), so a pass's buffer (at most 512 KiB of amplitudes)
# and each kind's noise draw stay within PASS_CELLS cells however many
# members a call brings.  The largest width of a shipped stage is 104 phase
# entries, so every call of the noisy audit scenario or of a 20-member noise
# study (at most 16 640 cells) runs as one pass; the bound binds on large
# ensembles only
PASS_CELLS = 1 << 15

BEAM_SPLITTER = "beam_splitter"
PHASE_SEGMENT = "phase_segment"
UNEQUAL_COUPLER = "unequal_coupler"
TERMINATION = "termination"

# (input arity, output arity) per kind
_ARITY = {
    BEAM_SPLITTER: (2, 2),
    PHASE_SEGMENT: (1, 1),
    UNEQUAL_COUPLER: (1, 2),
    TERMINATION: (1, 0),
}

_SQRT_HALF = 1.0 / math.sqrt(2.0)


class NetlistError(ValueError):
    """Structural problem in a netlist (wiring, ports, ordering)."""


class PropagationError(ValueError):
    """Numerical failure during propagation (e.g. no intensity at the leaves)."""


class CircuitElement(NamedTuple):
    """One element on integer wire ids.

    ``base`` is a phase segment's phase or a coupler's ratio, 0.0 otherwise.
    ``length`` is how many unit segments of line a phase segment stands for
    (its base is theirs added left to right, its jitter sqrt(length) times
    one's), 1 for any other element.
    """

    kind: str
    ins: tuple[int, ...]
    outs: tuple[int, ...]
    base: float = 0.0
    length: int = 1


@dataclass(frozen=True)
class NoiseModel:
    """Per-element Gaussian imperfections plus uniform power leakage.

    One normal draw per live splitter and per live phase segment, scaled by
    sqrt(length) for a segment of that length; exact in law, since its unit
    segments' errors add (see the module docstring).  Each draw is keyed by
    (seed, element index) through a counter-based generator, so results do
    not depend on evaluation order and are reproducible bit for bit.  The
    seeds are not part of the model: every propagation takes one per member.
    A width of zero draws nothing and leaves that kind's elements ideal.

    ``leakage`` is validated and reported but never applied: every lit path
    crosses the same number of elements (see the module docstring), so a
    uniform loss scales every leaf alike and leaves each distribution as
    it is.
    """

    splitter_imbalance_sigma: float = 0.0
    phase_jitter_sigma: float = 0.0
    leakage: float = 0.0

    def __post_init__(self) -> None:
        if not all(
            0.0 <= sigma < math.inf
            for sigma in (self.splitter_imbalance_sigma, self.phase_jitter_sigma)
        ):
            raise ValueError("noise widths must be finite and nonnegative")
        if not (0.0 <= self.leakage < 1.0):
            raise ValueError("leakage must lie in [0, 1)")


# ----------------------------------------------------------------- netlist


@dataclass
class _Group:
    """Same-kind entries evaluated together in one propagation step.

    An entry is one element, at its index ``elem_idx``.  Per-entry values
    are columns of shape (n, 1), so they broadcast against the (n,
    members) amplitudes of an ensemble.  A group carries no noise of its
    own: each entry's draw is keyed by its ``elem_idx``.
    """

    kind: str
    elem_idx: np.ndarray
    in_idx: np.ndarray  # shape (in_arity, n): row k holds the slot of each element's k-th input
    out_idx: np.ndarray  # shape (out_arity, n), slots likewise
    base: np.ndarray  # phase or ratio, zeros otherwise
    scale: np.ndarray  # jitter scale: sqrt(length), so 1 for every kind but a phase segment


class _Slots(NamedTuple):
    """Where a compiled netlist's ports sit in a propagation buffer, and a pass's width."""

    count: int  # rows of the buffer
    inputs: np.ndarray  # slot of each input port, in port order
    outputs: np.ndarray  # slot of each output port, in port order
    width: int  # cells per member of a pass: count, or the most live entries of one kind


class Netlist:
    """Mutable feed-forward circuit on integer wires; it checks its wiring as it compiles.

    Every wire is an id from fresh().  Every element sees the noise model
    alone: its draw is keyed by the element's index.  A phase segment that
    add_phases lays stays open, free to grow, until an element reads its
    wire or the wire becomes an output port.
    """

    def __init__(self) -> None:
        self.elements: list[CircuitElement] = []
        self.input_ports: list[int] = []
        self.ground_ports: list[int] = []
        self.output_ports: list[int] = []
        self.n_wires = 0
        self._open: dict[int, int] = {}  # wire -> index of the open segment driving it
        self._compiled: list[_Group] | None = None
        self._slots: _Slots | None = None  # set with _compiled

    # -- construction ------------------------------------------------

    def fresh(self, count: int = 1) -> int:
        """A new wire; with ``count``, the first of that many in a row."""
        self._compiled = None
        self.n_wires += count
        return self.n_wires - count

    def wire_id(self, wire: int) -> int:
        """``wire``, checked to be an id that fresh() gave."""
        if not 0 <= wire < self.n_wires:
            raise NetlistError(f"unknown wire id {wire}")
        return wire

    def add_input(self, wire: int) -> int:
        self._compiled = None
        self.input_ports.append(self.wire_id(wire))
        return wire

    def add_ground(self) -> int:
        """A fresh wire, held at zero amplitude as a port."""
        wire = self.fresh()
        self.ground_ports.append(wire)
        return wire

    def add_output(self, wire: int) -> int:
        """Read a wire out; propagate() gives the output ports' rows in the order added."""
        self._compiled = None
        self.output_ports.append(self.wire_id(wire))
        self._open.pop(wire, None)
        return wire

    def add(self, kind: str, ins: Sequence[int], outs: Sequence[int], base: float = 0.0) -> None:
        """Append one element; its index in ``elements`` keys its noise draw."""
        if kind not in _ARITY:
            raise NetlistError(f"unknown element kind {kind!r}")
        n_in, n_out = _ARITY[kind]
        if len(ins) != n_in or len(outs) != n_out:
            raise NetlistError(
                f"{kind} takes {n_in} input(s) and {n_out} output(s), "
                f"got {len(ins)} and {len(outs)}"
            )
        if kind == UNEQUAL_COUPLER and base < 0:
            raise NetlistError("coupler ratio must be nonnegative")
        self._compiled = None
        self.elements.append(
            CircuitElement(
                kind,
                tuple(map(self.wire_id, ins)),
                tuple(map(self.wire_id, outs)),
                float(base),
            )
        )
        for w in ins:
            self._open.pop(w, None)

    def add_phases(self, wire: int, phases: Sequence[float]) -> int:
        """Lay one or more unit phase segments along ``wire``; returns the wire out.

        They are one segment of length len(phases) whose base is the phases
        added left to right.  On a wire that an open segment drives, they
        extend it instead: its base goes on adding them, its length grows by
        as many, and its output, the wire returned, stays as it was.
        """
        pos = self._open.get(self.wire_id(wire))
        if len(phases) == 0:
            raise NetlistError(f"no phases to lay along wire #{wire}")
        if pos is None:
            out = self.fresh()
            pos = self._open[out] = len(self.elements)
            self.elements.append(CircuitElement(PHASE_SEGMENT, (wire,), (out,), phases[0]))
            phases = phases[1:]
        self._compiled = None
        kind, ins, outs, base, length = self.elements[pos]
        total = float(reduce(add, phases, base))
        self.elements[pos] = CircuitElement(kind, ins, outs, total, length + len(phases))
        return outs[0]

    # -- validation and compilation -----------------------------------

    def _layers(self) -> tuple[dict[tuple[int, str], list[int]], bytearray, list[int], int]:
        """Validate; bucket the element indices by (layer, kind), each in element order.

        An element's layer is the earliest step at which its inputs are ready.
        It is lit, a flag per element, when some input may carry amplitude:
        an input port may; a ground port carries zero in every propagation,
        and so does every output of an unlit element.

        Each wire gets its slot, returned with the slot count: input and then
        ground ports take slots 0, 1, ...; output k of an element takes the
        slot of its input k, and an output with no input k (a coupler's
        second) opens the next slot.
        """
        ready = [-1] * self.n_wires  # step at which each wire is ready; -1 while undriven
        slot = [0] * self.n_wires
        ports = self.input_ports + self.ground_ports
        for i, w in enumerate(ports):
            if ready[w] >= 0:
                raise NetlistError(f"wire #{w} driven more than once")
            ready[w] = 0
            slot[w] = i
        count = len(ports)
        lit_wire = bytearray(self.n_wires)  # wires that may carry amplitude
        for w in self.input_ports:
            lit_wire[w] = 1
        read = bytearray(self.n_wires)
        buckets: defaultdict[tuple[int, str], list[int]] = defaultdict(list)
        lit = bytearray(len(self.elements))
        for pos, (kind, ins, outs, _, _) in enumerate(self.elements):
            layer = 0
            z = 0
            for w in ins:
                r = ready[w]
                if r < 0:
                    raise NetlistError(
                        f"element {pos} ({kind}) reads undriven wire #{w}; "
                        "elements must appear in feed-forward order"
                    )
                if read[w]:
                    raise NetlistError(f"wire #{w} read more than once")
                read[w] = 1
                z |= lit_wire[w]
                if r > layer:
                    layer = r
            buckets[layer, kind].append(pos)
            lit[pos] = z
            layer += 1
            for k, w in enumerate(outs):
                if ready[w] >= 0:
                    raise NetlistError(f"wire #{w} driven more than once")
                ready[w] = layer
                lit_wire[w] = z
                if k < len(ins):
                    slot[w] = slot[ins[k]]
                else:
                    slot[w] = count
                    count += 1
        outputs = self.output_ports
        if len(set(outputs)) != len(outputs):
            raise NetlistError("duplicate output port")
        for w in outputs:
            if ready[w] < 0:
                raise NetlistError(f"output port #{w} is not driven")
            if read[w]:
                raise NetlistError(f"output port #{w} is also read by an element")
        # every read wire and every output is driven, and none is both, so
        # some driven wire is left dangling exactly when the counts differ
        if self.n_wires - ready.count(-1) != read.count(1) + len(outputs):
            out_set = set(outputs)
            dangling = [
                f"#{w}"
                for w in range(self.n_wires)
                if ready[w] >= 0 and not read[w] and w not in out_set
            ]
            raise NetlistError(f"dangling wires (driven, never read): {dangling}")
        return buckets, lit, slot, count

    def _drop_unread(self, flags: bytearray, outputs: list[int]) -> None:
        """Clear the flag of every element none of whose outputs can reach an output port.

        Walking back from the output ports, a wire can when it is one or
        when its reader has an output that can.
        """
        reach = bytearray(self.n_wires)
        for w in outputs:
            reach[w] = 1
        pos = len(self.elements)
        for _, ins, outs, _, _ in reversed(self.elements):
            pos -= 1
            for w in outs:
                if reach[w]:
                    for v in ins:
                        reach[v] = 1
                    break
            else:
                flags[pos] = 0

    def _compile(self) -> list[_Group]:
        """The live plan: same-kind groups in execution order, their wires mapped to slots.

        A group is one of _layers' (layer, kind) buckets, in element order;
        sorted keys put the groups layer by layer, within a layer in kind name
        order, and each holds views of arrays gathered for every entry at once.
        A group reads (and copies) all of its inputs before it writes an
        output, so each output may take the slot of the input in its own row,
        as _layers gives it; every slot starts at zero, so a ground reads zero
        however late its reader runs.  ``_slots`` records the count, where
        the ports sit and the pass width.

        Each group holds only the elements that can change an output port,
        and a group left empty is dropped.  An unlit element, which reads
        only wires that carry zero (see _layers), writes zeros into slots
        that already hold zeros; one whose outputs reach only terminations
        writes slots that only such elements read, so both may be skipped.
        Every kept element keeps its index, and a phase segment's entry has
        the jitter scale sqrt(length).  The netlist compiles once, checking
        its wiring (NetlistError), and keeps the groups.
        """
        if self._compiled is not None:
            return self._compiled
        buckets, live, slot, count = self._layers()
        # the live plan: lit elements with an output that can reach an output port,
        # which every output can when no termination absorbs a wire (every other
        # element has an output, and every wire is read or is an output port)
        if any(kind == TERMINATION for _, kind in buckets):
            self._drop_unread(live, self.output_ports)
        # each bucket's live elements; sorted keys take layer first, then kind name
        plan = [(kind, [i for i in idx if live[i]]) for (_, kind), idx in sorted(buckets.items())]
        plan = [(kind, kept) for kind, kept in plan if kept]
        order = [i for _, kept in plan for i in kept]
        picked = [self.elements[i] for i in order]
        slot = np.array(slot, dtype=np.intp)
        # slot rows 0 and 1: each entry's first and last wire (no kind has more
        # than two), a termination's input for its absent outputs; a row past
        # an entry's arity is never read
        ins, outs = (
            slot.take(np.array([[w[0] for w in ws], [w[-1] for w in ws]], np.intp))
            for ws in ([el.ins for el in picked], [el.outs or el.ins for el in picked])
        )
        elem_idx = np.array(order, dtype=np.uint64).reshape(-1, 1)
        base = np.array([el.base for el in picked], dtype=float).reshape(-1, 1)
        scale = np.sqrt(np.array([el.length for el in picked], dtype=float)).reshape(-1, 1)
        groups, start = [], 0
        for kind, kept in plan:
            n_in, n_out = _ARITY[kind]
            r = slice(start, start + len(kept))
            groups.append(_Group(kind, elem_idx[r], ins[:n_in, r], outs[:n_out, r], base[r], scale[r]))
            start = r.stop
        width = max([count] + [sum(len(kept) for k, kept in plan if k == kind) for kind in _ARITY])
        self._slots = _Slots(count, slot[self.input_ports], slot[self.output_ports], width)
        self._compiled = groups
        return groups


# ------------------------------------------------------------- propagation


def propagate(
    netlist: Netlist,
    drive: np.ndarray,
    noise: NoiseModel | None = None,
    seeds: Sequence[int] | np.ndarray | None = None,
) -> np.ndarray:
    """Push a batch of members through the netlist in feed-forward order.

    ``drive`` has shape (input ports, members): column m drives the input
    ports, in order, for member m; grounded ports start at zero.  Member m is
    the circuit under ``noise`` drawn with seed ``seeds[m]``, an int taken
    modulo 2^64 or an entry of a uint64 array (one member at seed 0 when
    ``seeds`` is None).  Every draw is a pure function of (seed,
    element index) and every step is elementwise per member, so each member
    is bitwise what a call with that member alone gives.  A netlist that
    continues a circuit of n elements is passed ``offset_seeds(seeds, n)``:
    its element i then draws what the whole circuit's element n + i draws.

    Returns the amplitudes at the output ports, shape (output ports,
    members).  Only the netlist's live plan runs (Netlist._compile):
    elements that cannot change an output port neither draw noise nor move
    amplitude, and the outputs are bitwise those of a plan that ran every
    element.

    Wires live in the slots of Netlist._compile, so a pass's buffer has
    shape (slots, members).  A pass takes max(1, PASS_CELLS // width)
    members, width being the slot count or, if more, the live entries of
    one kind, so the buffer and each kind's noise draw stay within
    PASS_CELLS cells however many members there are, and a small circuit
    takes many members per pass.
    """
    groups = netlist._compile()
    slots = netlist._slots
    member_seeds = _seed_array([0] if seeds is None else seeds)
    members = len(member_seeds)
    if np.shape(drive) != (len(slots.inputs), members):
        raise PropagationError(
            f"drive of shape {np.shape(drive)} for {len(slots.inputs)} input ports "
            f"and {members} members"
        )

    out = np.empty((len(slots.outputs), members), dtype=complex)
    step = max(1, PASS_CELLS // max(slots.width, 1))
    for first in range(0, members, step):
        cols = slice(first, first + step)
        amps = np.zeros((slots.count, len(member_seeds[cols])), dtype=complex)
        amps[slots.inputs] = drive[:, cols]
        _propagate_members(groups, amps, noise, member_seeds[cols])
        out[:, cols] = amps[slots.outputs]
    return out


def _seed_array(seeds: Sequence[int] | np.ndarray) -> np.ndarray:
    """Seeds as uint64: an array cast, ints taken modulo 2^64."""
    if isinstance(seeds, np.ndarray):
        return seeds.astype(np.uint64, copy=False)
    return np.array([s & 0xFFFFFFFFFFFFFFFF for s in seeds], dtype=np.uint64)


def _propagate_members(
    groups: list[_Group],
    amps: np.ndarray,
    noise: NoiseModel | None,
    seeds: np.ndarray,
) -> None:
    """Run the compiled groups over ``amps``, shape (slots, members), in place.

    ``amps`` holds each input and ground slot's starting amplitude per
    member; afterwards the output ports' slots hold theirs.  Member m draws
    entry i's fabrication error with seed ``seeds[m]`` at index i: one draw
    per splitter, and one per phase segment, scaled by sqrt(length); exact
    in law.  A termination moves no amplitude, so its group, which only a
    plan that keeps every element holds, is passed over.

    Each noisy kind is drawn once per pass, before the loop (_noisy_values),
    and each group reads its rows ``r`` through a running offset per kind;
    every step is elementwise, so each value is bitwise what a draw for
    its group alone gives.  A kind whose width is zero draws nothing and
    runs the ideal element, so such a model gives the bits of no model at
    all for that kind.  The model's leakage is not applied: every lit path
    crosses the same number of elements, so it would scale every output
    alike.
    """
    sigma_imb = 0.0 if noise is None else noise.splitter_imbalance_sigma
    sigma_jit = 0.0 if noise is None else noise.phase_jitter_sigma
    imbalance = _noisy_values(groups, BEAM_SPLITTER, seeds, sigma_imb)
    jitter = _noisy_values(groups, PHASE_SEGMENT, seeds, sigma_jit)
    row = dict.fromkeys(_ARITY, 0)

    # take(axis=0) gathers like [], with less per-call overhead on the many
    # small groups of a tree; take copies, so a group may write an output
    # into a slot its own inputs just left
    for g in groups:
        r = slice(row[g.kind], row[g.kind] + g.elem_idx.size)
        row[g.kind] = r.stop
        if g.kind == BEAM_SPLITTER:
            u = amps.take(g.in_idx[0], axis=0)
            v = amps.take(g.in_idx[1], axis=0)
            if imbalance is None:
                amps[g.out_idx[0]] = (u + v) * _SQRT_HALF
                amps[g.out_idx[1]] = (u - v) * _SQRT_HALF
            else:
                c, s = imbalance[0][r], imbalance[1][r]
                amps[g.out_idx[0]] = c * u + s * v
                amps[g.out_idx[1]] = s * u - c * v
        elif g.kind == PHASE_SEGMENT:
            a = amps.take(g.in_idx[0], axis=0)
            turn = np.exp(1j * g.base) if jitter is None else jitter[r]
            amps[g.out_idx[0]] = a * turn
        elif g.kind == UNEQUAL_COUPLER:
            s_in = amps.take(g.in_idx[0], axis=0)
            norm = np.sqrt(1.0 + g.base**2)
            amps[g.out_idx[0]] = s_in / norm
            amps[g.out_idx[1]] = s_in * (g.base / norm)


def _noisy_values(groups: list[_Group], kind: str, seeds: np.ndarray, sigma: float):
    """Every live entry of ``kind``'s noisy values, in group order, or None.

    A splitter gets (cos, sin) of pi/4 + err, a phase segment
    exp(1j * (base + err)), where err = counter_normals(seeds, elem_idx) *
    (sigma * scale) has shape (entries, members): one draw per phase
    segment, scaled by sqrt(length); exact in law.  A splitter's scale, and
    a unit segment's, is 1, so its error is bitwise sigma times its draw.
    ``groups`` is the live plan, so only its entries draw, in one call.  A
    kind that has no group, or a width of zero, draws nothing (None).

    A phasor is written as the cos and sin of its angle into the real and
    imaginary views of one complex buffer: bitwise what np.exp(1j * angle)
    gives, which reads an angle of -0.0 as +0.0, at less cost.  A width
    whose draws overflow gives inf errors and NaN values, silently: the
    leaves turn them into a PropagationError (_leaf_distributions).
    """
    mine = [g for g in groups if g.kind == kind]
    if sigma <= 0.0 or not mine:
        return None
    with np.errstate(over="ignore", invalid="ignore"):
        width = sigma * np.concatenate([g.scale for g in mine])
        # err, then the angle in its buffer: x + y is y + x bit for bit
        angle = counter_normals(seeds, np.concatenate([g.elem_idx for g in mine])) * width
        if kind == BEAM_SPLITTER:
            angle += np.pi / 4
            return np.cos(angle), np.sin(angle)
        angle += np.concatenate([g.base for g in mine])
        angle += 0.0  # -0.0 to +0.0, as exp(1j * angle) reads it
        turn = np.empty(angle.shape, dtype=complex)
        np.cos(angle, out=turn.real)
        np.sin(angle, out=turn.imag)
        return turn


# ------------------------------------------------------- mesh realization


# mesh plans keyed by matrix bytes; past _PLAN_CACHE_SIZE keys the oldest
# entry is evicted, so arbitrary matrices cannot grow it without bound
_PLAN_CACHE_SIZE = 256
_plan_cache: dict[bytes, MeshPlan] = {}


def _plan_for(matrix: np.ndarray) -> MeshPlan:
    key = np.ascontiguousarray(matrix).tobytes()
    plan = _plan_cache.get(key)
    if plan is None:
        plan = decompose(matrix)
        _plan_cache[key] = plan
        if len(_plan_cache) > _PLAN_CACHE_SIZE:
            del _plan_cache[next(iter(_plan_cache))]
    return plan


def add_mesh(net: Netlist, plan: MeshPlan, in_wires: Sequence[int]) -> list[int]:
    """Realize a MeshPlan with splitters and phase segments.

    Each mesh element (p, q, th, phi) becomes five full-width columns

        phases (0, ..., -phi - pi/2 at q, ...)
        splitter on (p, q)
        phases (pi - 2 th at p, ...)
        splitter on (p, q)
        phases (phi + th - pi/2 at p, phi + th - pi at q)

    which reproduces the element matrix exactly, overall phase included.
    The plan's output phases form one final column.  Every mode crosses one
    unit of line per column (a splitter column pads its other modes with
    identity phases), so every path crosses as much line.  A mode's phases
    from one splitter to the next are laid as one segment when the next
    splitter reads it (Netlist.add_phases): a mode's first segment extends
    the open one that drives its input wire, if any, and its last is left
    open, so a mesh that reads the outputs extends it in turn.  Returns the
    output wires in mode order.
    """
    if len(in_wires) != plan.dim:
        raise NetlistError(f"mesh of dimension {plan.dim} fed with {len(in_wires)} wires")
    wires = [net.wire_id(w) for w in in_wires]
    laid: list[list[float]] = [[] for _ in wires]  # per mode, its phases since its last splitter

    def column(phases: Sequence[float]) -> None:
        for line, phase in zip(laid, phases):
            line.append(phase)

    def splitter(p: int, q: int) -> None:
        for m, line in enumerate(laid):
            if m != p and m != q:
                line.append(0.0)
        ins = (net.add_phases(wires[p], laid[p]), net.add_phases(wires[q], laid[q]))
        laid[p], laid[q] = [], []
        wires[p] = net.fresh(2)
        wires[q] = wires[p] + 1
        net.add(BEAM_SPLITTER, ins, (wires[p], wires[q]))

    for el in plan.elements:
        p, q, th, phi = el.p, el.q, el.theta, el.phi
        col = [0.0] * plan.dim
        col[q] = -phi - np.pi / 2
        column(col)
        splitter(p, q)
        col = [0.0] * plan.dim
        col[p] = np.pi - 2 * th
        column(col)
        splitter(p, q)
        col = [0.0] * plan.dim
        col[p] = phi + th - np.pi / 2
        col[q] = phi + th - np.pi
        column(col)
    column(plan.output_phases)
    return [net.add_phases(w, line) for w, line in zip(wires, laid)]


# ------------------------------------------------- blocks and stages


def build_measurement_block(
    net: Netlist, obs: DichotomicObservable, in_wires: Sequence[int]
) -> tuple[list[int], list[int]]:
    """Append one measurement stage; returns (upper, lower) branch wires.

    The stage maps the bundle into the observable's eigenbasis, routes the
    +1 rows to the upper branch and the -1 rows to the lower branch, and
    recomposes each branch to the computational basis, so the branches
    carry P_+ psi and P_- psi.
    """
    d = obs.dim
    if len(in_wires) != d:
        raise NetlistError(f"block for {obs.label!r} needs {d} wires, got {len(in_wires)}")
    to_eigen = _plan_for(obs.diagonalizer.conj().T)
    recompose_plan = _plan_for(obs.diagonalizer)
    eigen = add_mesh(net, to_eigen, in_wires)
    plus = set(obs.plus_indices)
    upper_in, lower_in = [], []
    for i, w in enumerate(eigen):
        if i in plus:
            upper_in.append(w)
            lower_in.append(net.add_ground())
        else:
            upper_in.append(net.add_ground())
            lower_in.append(w)
    upper = add_mesh(net, recompose_plan, upper_in)
    lower = add_mesh(net, recompose_plan, lower_in)
    return upper, lower


def _complete_to_unitary(psi: np.ndarray) -> np.ndarray:
    """Deterministic unitary whose first column is the given unit vector."""
    d = len(psi)
    cols = [psi.astype(complex)]
    for j in range(d):
        v = np.zeros(d, dtype=complex)
        v[j] = 1.0
        for u in cols:
            v -= np.vdot(u, v) * u
        nrm = np.linalg.norm(v)
        if nrm > 1e-9:
            cols.append(v / nrm)
        if len(cols) == d:
            break
    if len(cols) != d:
        raise SynthesisError("failed to complete the state to a unitary")
    return np.column_stack(cols)


def add_state_prep(net: Netlist, prep: str | WaveState) -> list[int]:
    """Coherent splitting of a single source into a prepared bundle.

    Named preparations use the dedicated constructions (one splitter for the
    singlet, an unequal coupler feeding two splitters for the tilted CHSH
    state, a post-selecting stabilizer cascade for the ghz state); any other
    name or explicit state is synthesized as a mesh whose first column is
    the target vector.  The source is the one input port, a fresh wire (wire
    0 of an empty netlist); the mode wires are returned in basis order.
    """
    src = net.add_input(net.fresh())
    if isinstance(prep, str) and prep == "singlet":
        total, diff = net.fresh(), net.fresh()
        net.add(BEAM_SPLITTER, (net.add_ground(), src), (total, diff))
        # (u, v) = (0, 1) gives (sum, diff) = (1, -1)/sqrt(2): modes 10 and 01
        return [net.add_ground(), diff, total, net.add_ground()]
    if isinstance(prep, str) and prep == "chsh":
        r = math.sqrt(2.0) - 1.0
        t1, t2 = net.fresh(), net.fresh()
        net.add(UNEQUAL_COUPLER, (src,), (t1, t2), r)
        a00, a11 = net.fresh(), net.fresh()
        net.add(BEAM_SPLITTER, (net.add_ground(), t1), (a00, a11))
        a01, a10 = net.fresh(), net.fresh()
        net.add(BEAM_SPLITTER, (t2, net.add_ground()), (a01, a10))
        return [a00, a01, a10, a11]
    if isinstance(prep, str) and prep == "ghz":
        wires = [src if i == 0 else net.add_ground() for i in range(8)]
        for spec in GHZ_STABILIZER_SPECS:
            upper, lower = build_measurement_block(net, pauli_observable(spec), wires)
            for w in lower:
                net.add(TERMINATION, (w,), ())
            wires = upper
        return wires

    state = state_library(prep) if isinstance(prep, str) else prep.require_normalized()
    unitary = _complete_to_unitary(np.asarray(state.amplitudes))
    plan = _plan_for(unitary)
    wires = [src if i == 0 else net.add_ground() for i in range(state.dim)]
    return add_mesh(net, plan, wires)


# most measurements in a sequence, so the deepest tree of stages that
# circuit_distributions runs; the CLI caps a custom term's labels at it
MAX_SEQUENCE_LENGTH = 3


def build_sequence_tree(obs: DichotomicObservable) -> Netlist:
    """The measurement stage for one observable: its block on bare mode inputs.

    The obs.dim input ports, wires 0 to obs.dim - 1, take a state's amplitudes in basis
    order.  The output ports are the upper (+1) branch's wires, then the
    lower (-1) branch's, each in basis order.
    """
    net = Netlist()
    upper, lower = build_measurement_block(
        net, obs, [net.add_input(net.fresh()) for _ in range(obs.dim)]
    )
    for w in upper + lower:
        net.add_output(w)
    return net


# (preparation, Pauli-word labels, member seeds or None)
CircuitRequest = tuple[str | WaveState, Sequence[str], Sequence[int] | None]


def circuit_distributions(
    requests: Sequence[CircuitRequest], noise: NoiseModel | None = None
) -> list[list[OutcomeDistribution]]:
    """Leaf distributions of prepared measurement sequences, many requests per call.

    A request is (prep, labels, seeds): a preparation as add_state_prep takes
    it, a sequence of Pauli-word labels, and the fabrication seed of each
    member (None for one member at seed 0).  The result holds
    one list of member distributions per request, in request order.

    A sequence holds one to MAX_SEQUENCE_LENGTH labels of one mode count
    (ValueError otherwise).  Each distinct prep is built once and all of its
    members propagate through it in one call.  The sequences then propagate
    a level at a time through measurement stages, ``build_sequence_tree(obs)``,
    one built per distinct label per call, in the order labels are first met.
    Level j of a sequence feeds 2^(j-1) branches, laid side by side on the
    member axis, branch-major in the tree's breadth-first path order ("+"
    before "-"), each branch holding the sequence's (request, seed) columns;
    the columns of every sequence whose j-th label is the same go through
    that label's stage in one propagate call.  The whole tree, the reference
    the bitwise tests in tests/test_network.py build, puts the prep's n
    elements first and then each level's blocks in that order, so branch b
    of level j draws at offset n + sum_{i<j} 2^(i-1) B_i + b B_j, where B
    is a stage's element count.  That offset lives in the seeds: each
    sequence's seeds are moved past n once (splitmix.offset_seeds), branch b
    of a level gets them moved b B_j further, and after the level they move
    on by 2^(j-1) B_j.  Moves add in wrapping uint64 arithmetic, so every
    member is bitwise what propagating that whole tree with the member's
    seed gives, with its open phase segments ended at stage boundaries: a
    prep and each stage are netlists of their own, whose output ports end
    their segments, while a segment in the whole tree would grow on across a
    boundary.  A request of no members gets no distributions.
    Nothing is cached across calls.
    """
    # each request's member seeds, moved past its preparation once that has run
    member_seeds = [_seed_array([0] if seeds is None else seeds) for _, _, seeds in requests]
    by_prep: dict = {}
    by_labels: dict[tuple[str, ...], list[int]] = {}
    for i, (prep, labels, _) in enumerate(requests):
        key = prep if isinstance(prep, str) else (prep.labels, prep.amplitudes.tobytes())
        by_prep.setdefault(key, []).append(i)
        by_labels.setdefault(tuple(labels), []).append(i)

    prepared: list = [None] * len(requests)  # (modes, members) per request
    for idx in by_prep.values():
        net = Netlist()
        for w in add_state_prep(net, requests[idx[0]][0]):
            net.add_output(w)
        seeds = np.concatenate([member_seeds[i] for i in idx])
        modes = propagate(net, np.ones((1, len(seeds)), dtype=complex), noise, seeds)
        bounds = np.cumsum([len(member_seeds[i]) for i in idx])[:-1]
        moved = np.split(offset_seeds(seeds, len(net.elements)), bounds)
        for i, block, part in zip(idx, np.split(modes, bounds, axis=1), moved):
            prepared[i] = block
            member_seeds[i] = part

    # per distinct label sequence: its member seeds, moved past every element
    # before its next level, and the (d, branches * members) amplitudes
    # entering that level
    seq_seeds: dict[tuple[str, ...], np.ndarray] = {}
    seq_amps: dict[tuple[str, ...], np.ndarray] = {}
    stages: dict[str, Netlist] = {}  # label -> its measurement stage
    for labels, idx in by_labels.items():
        if not 1 <= len(labels) <= MAX_SEQUENCE_LENGTH:
            raise ValueError("a sequence holds one to three measurements")
        observables = [pauli_observable(lab) for lab in labels]
        d = observables[0].dim
        if any(obs.dim != d for obs in observables):
            raise ValueError("all observables in a sequence must share the mode count")
        for i in idx:
            if len(prepared[i]) != d:
                raise NetlistError(
                    f"preparation of {len(prepared[i])} modes for the "
                    f"{d}-mode sequence {'*'.join(labels)}"
                )
        for label, obs in zip(labels, observables):
            if label not in stages:
                stages[label] = build_sequence_tree(obs)
        seq_seeds[labels] = np.concatenate([member_seeds[i] for i in idx])
        seq_amps[labels] = np.hstack([prepared[i] for i in idx])

    # level j of every sequence whose j-th label is the same goes through that
    # label's stage in one call, the sequences side by side on the member axis
    for level in range(max(map(len, by_labels), default=0)):
        branches = 2**level
        by_stage: dict[str, list[tuple[str, ...]]] = {}
        for labels in by_labels:
            if level < len(labels):
                by_stage.setdefault(labels[level], []).append(labels)
        for label, group in by_stage.items():
            net = stages[label]
            block = len(net.elements)
            # branch-major columns; branch b draws b blocks further on
            steps = block * np.arange(branches)[:, None]
            branch_seeds = [offset_seeds(seq_seeds[labels], steps).ravel() for labels in group]
            amps = np.hstack([seq_amps[labels] for labels in group])
            out = propagate(net, amps, noise, np.concatenate(branch_seeds))
            d = len(out) // 2
            widths = [branches * len(seq_seeds[labels]) for labels in group]
            for labels, part in zip(group, np.split(out, np.cumsum(widths)[:-1], axis=1)):
                seq_seeds[labels] = offset_seeds(seq_seeds[labels], branches * block)
                # rows: the d "+" wires, then the d "-" wires; branch b feeds 2b and 2b + 1
                seq_amps[labels] = (
                    part.reshape(2, d, branches, -1).transpose(1, 2, 0, 3).reshape(d, -1)
                )

    results: list = [None] * len(requests)
    for labels, idx in by_labels.items():
        d, n = len(seq_amps[labels]), len(seq_seeds[labels])
        paths = ["".join(p) for p in product("+-", repeat=len(labels))]
        # the row count given, as -1 is ambiguous for a request of no members
        leaves = seq_amps[labels].reshape(d, len(paths), -1).transpose(1, 0, 2)
        leaves = leaves.reshape(len(paths) * d, n)
        dists = iter(_leaf_distributions(paths, d, leaves))
        for i in idx:
            results[i] = list(islice(dists, len(member_seeds[i])))
    return results


def _leaf_distributions(
    outcomes: Sequence[str], d: int, leaves: np.ndarray
) -> list[OutcomeDistribution]:
    """Each member's leaf-group intensities over their total: its probabilities.

    ``leaves`` holds the amplitudes at a tree's leaf ports in its output
    order, shape (outcomes * d, members): row k d + b is basis mode b of
    ``outcomes[k]``.  Intensities use Python's complex abs (libm hypot),
    which numpy's complex abs does not match in the last bit.  Sums add left
    to right (``reduce``): builtin ``sum`` compensates floats from Python 3.12.
    """
    groups = [(o, range(k * d, (k + 1) * d)) for k, o in enumerate(outcomes)]
    dists = []
    for column in leaves.T.tolist():
        intensities = {
            o: float(reduce(add, (abs(column[r]) ** 2 for r in rows), 0)) for o, rows in groups
        }
        total = reduce(add, intensities.values(), 0)
        if total <= 0.0:
            raise PropagationError("no intensity reached the grouped output ports")
        if not total < math.inf:  # inf or NaN: an overflowed noise draw
            raise PropagationError(f"the leaf intensities sum to {total}, not a finite number")
        dists.append(OutcomeDistribution({o: i / total for o, i in intensities.items()}))
    return dists


def ensemble_provider(
    noise: NoiseModel | None,
    master_seed: int,
    members: int,
    prep: Callable[[str], str | WaveState] = lambda state_name: state_name,
) -> Provider:
    """Distribution source of fabricated circuits: the one fabrication-seed rule.

    The provider serves a batch of (state name, Pauli-word sequence)
    requests through circuit_distributions and returns its member lists as
    they are: ``members`` fabrications per request.  ``prep`` turns a state
    name into what add_state_prep takes; by default the name itself, a
    library state.  Member m of the circuit (state, labels) gets the seed
    substream(keyed_substream(master_seed, "<state>|<labels>"), m), the
    labels joined by "*", so a circuit's fabrications depend on neither the
    batch nor the order circuits are asked for in.  With no noise model
    every fabrication is the same exact circuit, so each request gets a
    single member.
    """

    def seeds_for(state_name: str, labels: Sequence[str]) -> list[int] | None:
        if noise is None:
            return None
        tree_seed = keyed_substream(master_seed, f"{state_name}|{'*'.join(labels)}")
        return [substream(tree_seed, m) for m in range(members)]

    def provide(requests):
        return circuit_distributions(
            [(prep(state), labels, seeds_for(state, labels)) for state, labels in requests], noise
        )

    return provide

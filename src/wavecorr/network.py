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
    fanout_label     passes its input through (a branch tap; it keeps its
                     input's slot, so it costs no propagation step)

Measurement blocks diagonalize an observable with a mesh, split the
eigenmodes into a +1 and a -1 branch, and recompose each branch back to
the computational basis.  A sequence of k measurements is a tree of such
blocks, one per branch per level, ending in 2^k groups of d modes whose
intensities are the joint sequential probabilities.

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

A compiled netlist keeps its wires in slots: an element's output takes its
input's slot, and a coupler's second output opens a slot, so a circuit
needs a slot per input and ground port and per coupler, not a row per
wire.  A pass holds about PASS_CELLS (slot, member) amplitudes, so a small
stage takes many members at once and a large one few.

A chain of phase segments is physically one longer line whose phase errors
add, so the noise is one draw per fused run of phase segments, scaled by
sqrt(n); exact in law.  A wave that crosses n segments picks up
exp(i sum(b_k + sigma z_k)), and with the z_k independent standard normals
that is the law of exp(i (sum b_k + sigma sqrt(n) z)).  The live plan holds
each run of segments, each reading the one before, as one entry at its
first segment's index: the run's bases added left to right and a jitter
scale of sqrt(n).  Every splitter draws on its own.

Fabrication noise is drawn in slabs, not per group: the noisy groups of one
kind are cut into slabs of at most NOISE_SLAB (entry, member) draws, and a
slab is drawn, and turned into splitter angles or phasors, in one pass when
propagation reaches it.  Noise memory is then one slab per kind, however
large the circuit, and every amplitude is bitwise that of a draw per group.
Only the live plan draws: an element outside it (fed only by ground ports,
or behind a post-selection that feeds only terminations) draws nothing, and
since every draw is keyed by (member seed, entry index), each live entry
draws what it would in a plan that ran every element.

Meshes are laid down in columns that cover every mode of the bundle
(identity phase segments pad the modes an element does not touch), so all
paths that carry amplitude cross the same number D of physical elements,
one D per circuit.  Uniform per-element leakage would scale every leaf's
intensity by the same (1 - leakage)^D and drop out of the normalized
distributions, so propagation does not apply it: a circuit's outputs are
its probabilities, which no leakage changes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from itertools import chain, islice, product, repeat
from operator import add
from typing import Callable, Iterable, NamedTuple, Sequence

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

# (slot, member) amplitudes per propagation pass, which takes
# max(1, PASS_CELLS // slots) members, so a pass's buffer stays within 1 MiB
# and each group temporary within that (a group's elements each read a slot
# of their own) however many members a call brings.  The shipped stages need
# 8 or 16 slots and the ghz preparation 32, so every call of the noisy audit
# scenario or of a 20-member noise study (at most 2 560 cells) runs as one
# pass; the bound binds on large ensembles only
PASS_CELLS = 1 << 16

# (entry, member) fabrication draws per noise slab, see _noise_slabs; at
# 2^12 a slab's largest temporary (both uniforms of each draw) is 64 KiB,
# while 2^13 raised the peak RSS of a 20-member ensemble run by ~0.25 MB
NOISE_SLAB = 1 << 12

BEAM_SPLITTER = "beam_splitter"
PHASE_SEGMENT = "phase_segment"
UNEQUAL_COUPLER = "unequal_coupler"
TERMINATION = "termination"
FANOUT_LABEL = "fanout_label"

# (input arity, output arity) per kind
_ARITY = {
    BEAM_SPLITTER: (2, 2),
    PHASE_SEGMENT: (1, 1),
    UNEQUAL_COUPLER: (1, 2),
    TERMINATION: (1, 0),
    FANOUT_LABEL: (1, 1),
}

_SQRT_HALF = 1.0 / math.sqrt(2.0)


class NetlistError(ValueError):
    """Structural problem in a netlist (wiring, ports, ordering)."""


class PropagationError(ValueError):
    """Numerical failure during propagation (e.g. no intensity at the leaves)."""


class CircuitElement(NamedTuple):
    """One element on integer wire ids.

    ``base`` is a phase segment's phase or a coupler's ratio, 0.0 otherwise.
    """

    kind: str
    ins: tuple[int, ...]
    outs: tuple[int, ...]
    base: float = 0.0


@dataclass(frozen=True)
class NoiseModel:
    """Per-element Gaussian imperfections plus uniform power leakage.

    One normal draw per live splitter and per fused run of live phase
    segments, scaled by sqrt(n) for a run of n; exact in law, since the
    segments' errors add (see the module docstring).  Each draw is keyed by
    (seed, index of the splitter or of the run's first segment) through a
    counter-based generator, so results do not depend on evaluation order
    and are reproducible bit for bit.  The seeds are not part of the model:
    every propagation takes one per member.  A width of zero draws nothing
    and leaves that kind's elements ideal.

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

# kinds in name order: a group's position among its layer's groups follows it
_KINDS = tuple(sorted(_ARITY))
_KIND_CODE = {kind: code for code, kind in enumerate(_KINDS)}
_N_IN = np.array([_ARITY[kind][0] for kind in _KINDS], dtype=np.intp)
_N_OUT = np.array([_ARITY[kind][1] for kind in _KINDS], dtype=np.intp)
# per kind, whether output row k continues input row k (k = 0, 1)
_CARRIES = np.array([[min(_ARITY[kind]) > k for k in range(2)] for kind in _KINDS])


@dataclass
class _Group:
    """Same-kind entries evaluated together in one propagation step.

    An entry is one element, or for phase segments one run of them (see
    _phase_runs), which its head's ``elem_idx`` stands for.  Per-entry
    values are columns of shape (n, 1), so they broadcast against the (n,
    members) amplitudes of an ensemble.  A group carries no noise of its
    own: each entry's draw is keyed by its ``elem_idx``.
    """

    kind: str
    elem_idx: np.ndarray
    in_idx: np.ndarray  # shape (in_arity, n): row k holds the slot of each element's k-th input
    out_idx: np.ndarray  # shape (out_arity, n), slots likewise
    base: np.ndarray  # phase or ratio, zeros otherwise
    scale: np.ndarray  # jitter scale: sqrt(run length) for a phase entry, ones otherwise


class _Slots(NamedTuple):
    """Where a compiled netlist's ports sit in a propagation buffer."""

    count: int  # rows of the buffer
    inputs: np.ndarray  # slot of each input port, in port order
    outputs: np.ndarray  # slot of each output port, in port order


def _wire_rows(wires: Iterable[int], arity: np.ndarray, order: np.ndarray) -> np.ndarray:
    """Shape (2, n): the first and second wire of each element, taken in ``order``.

    ``wires`` lists every element's wires back to back.  Rows past an
    element's arity hold another element's wire (or one of two padding
    zeros after the last element) and are never read.
    """
    flat = np.fromiter(chain(wires, (0, 0)), dtype=np.intp)
    first = np.cumsum(arity) - arity
    return flat[np.stack((first, first + 1))[:, order]]


def _cut_groups(
    key: np.ndarray,
    elem_idx: np.ndarray,
    ins: np.ndarray,
    outs: np.ndarray,
    base: np.ndarray,
    scale: np.ndarray,
) -> list[_Group]:
    """One group per run of equal (layer, kind) ``key`` among entries sorted by it.

    ``elem_idx``, ``base`` and ``scale`` are columns and ``ins``, ``outs``
    the (2, n) slot rows of those entries; each group holds views of its
    rows.  Taps get no group: a tap's output already sits in its input's
    slot.
    """
    if not key.size:
        return []
    cuts = (np.flatnonzero(np.diff(key)) + 1).tolist()
    starts, stops = [0] + cuts, cuts + [key.size]
    groups = []
    for start, stop, code in zip(starts, stops, (key[starts] % len(_KINDS)).tolist()):
        kind = _KINDS[code]
        if kind == FANOUT_LABEL:
            continue
        n_in, n_out = _ARITY[kind]
        rows = slice(start, stop)
        groups.append(
            _Group(kind, elem_idx[rows], ins[:n_in, rows], outs[:n_out, rows], base[rows], scale[rows])
        )
    return groups


def _phase_runs(seg_in: np.ndarray, seg_out: np.ndarray, n_wires: int) -> tuple[np.ndarray, np.ndarray]:
    """Each phase segment's run: the position of its run's first segment, and its rank there.

    ``seg_in`` and ``seg_out`` hold the input and output wire of each phase
    segment of a plan, in plan order.  A segment whose input wire another
    of them drives continues that one's run; any other starts a run of its
    own, so a tap, a port or any other kind ends a run.  Pointer jumping,
    as for Netlist._compile's slot map, takes every segment to the run's
    first segment while it counts the steps (a run is shorter than
    2^bit_length(segments)).
    """
    pos = np.arange(seg_in.size)
    driver = np.full(n_wires, -1, dtype=np.intp)
    driver[seg_out] = pos
    head = driver[seg_in]
    first = head < 0
    head[first] = pos[first]
    rank = (~first).astype(np.intp)
    for _ in range(seg_in.size.bit_length()):
        rank += rank[head]
        head = head[head]
    return head, rank


class Netlist:
    """Mutable feed-forward circuit on integer wires; it checks its wiring as it compiles.

    Every wire is an id from fresh().  Every element sees the noise model
    alone: its draw is keyed by the element's index.
    """

    def __init__(self) -> None:
        self.elements: list[CircuitElement] = []
        self.input_ports: list[int] = []
        self.ground_ports: list[int] = []
        self.output_ports: list[int] = []
        self.n_wires = 0
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

    # -- validation and compilation -----------------------------------

    def _layers(self) -> tuple[list[int], bytearray]:
        """Validate; give each element the earliest step at which its inputs are ready.

        Also flags, per element, whether it is lit: whether some input may
        carry amplitude.  An input port may; a ground port carries zero in
        every propagation, and so does every output of an unlit element.
        """
        ready = [-1] * self.n_wires  # step at which each wire is ready; -1 while undriven
        for w in self.input_ports + self.ground_ports:
            if ready[w] >= 0:
                raise NetlistError(f"wire #{w} driven more than once")
            ready[w] = 0
        lit_wire = bytearray(self.n_wires)  # wires that may carry amplitude
        for w in self.input_ports:
            lit_wire[w] = 1
        read = bytearray(self.n_wires)
        layers: list[int] = []
        lit = bytearray(len(self.elements))
        append = layers.append
        for pos, (kind, ins, outs, _) in enumerate(self.elements):
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
            append(layer)
            lit[pos] = z
            layer += 1
            for w in outs:
                if ready[w] >= 0:
                    raise NetlistError(f"wire #{w} driven more than once")
                ready[w] = layer
                lit_wire[w] = z
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
        return layers, lit

    def _drop_unread(self, flags: bytearray, outputs: list[int]) -> None:
        """Clear the flag of every element none of whose outputs can reach an output port.

        Walking back from the output ports, a wire can when it is one or
        when its reader has an output that can.
        """
        reach = bytearray(self.n_wires)
        for w in outputs:
            reach[w] = 1
        pos = len(self.elements)
        for _, ins, outs, _ in reversed(self.elements):
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

        Groups run layer by layer, and within a layer in kind order.  A group
        reads (and copies) all of its inputs before it writes an output, so
        each output takes the slot of the input in its own row (a
        splitter's, a phase segment's or a tap's, a coupler's first), and a
        coupler's second output opens a slot.  A tap thus moves no amplitude
        and gets no group, though it keeps its element index.  Input and
        ground ports get the first slots and the couplers' second outputs
        the next, in group order; every slot starts at zero, so a ground
        reads zero however late its reader runs.  ``_slots`` records the
        count and where the ports sit.

        Each group holds only the elements that can change an output port,
        and a group left empty is dropped.  An unlit element, which reads
        only wires that carry zero (see _layers), writes zeros into slots
        that already hold zeros; one whose outputs reach only terminations
        writes slots that only such elements read, so both may be skipped.
        Every kept element keeps its index.  Then each run of kept phase
        segments (_phase_runs) becomes one entry at its first segment's layer,
        slot and index, with the run's bases added left to right and a
        jitter scale of sqrt(run length): the run's wires share one slot,
        which only the run reads, so its result may be written at the first
        segment's step.  A segment's feeder is kept whenever the segment is,
        so liveness never cuts a run.  The netlist compiles once, checking
        its wiring (NetlistError), and keeps the groups.
        """
        if self._compiled is not None:
            return self._compiled
        layers, live = self._layers()
        outputs = self.output_ports
        ports = self.input_ports + self.ground_ports
        count = len(ports)
        # the slot of each chain's first wire; of every wire once mapped by head
        slot = np.zeros(self.n_wires, dtype=np.intp)
        slot[ports] = np.arange(count)
        groups: list[_Group] = []
        if self.elements:
            kinds, ins, outs, bases = zip(*self.elements)
            kind = np.fromiter(map(_KIND_CODE.__getitem__, kinds), dtype=np.intp, count=len(kinds))
            # a stable sort keeps element order inside each (layer, kind) bucket
            key = np.array(layers, dtype=np.intp) * len(_KINDS) + kind
            order = np.argsort(key, kind="stable")
            key = key[order]

            elem_idx = order.astype(np.uint64).reshape(-1, 1)
            base = np.array(bases)[order].reshape(-1, 1)
            ins = _wire_rows(chain.from_iterable(ins), _N_IN[kind], order)
            outs = _wire_rows(chain.from_iterable(outs), _N_OUT[kind], order)

            # output row k of an element with an input row k continues that
            # input's chain and takes its slot; pointer jumping takes every
            # wire to its chain's first wire, a port or a coupler's second
            # output (a chain is shorter than 2^bit_length(wires))
            kind = kind[order]
            carries = _CARRIES[kind]
            head = np.arange(self.n_wires)
            for k in range(2):
                head[outs[k, carries[:, k]]] = ins[k, carries[:, k]]
            for _ in range(self.n_wires.bit_length()):
                head = head[head]
            # each coupler's second output opens the next slot, in group order
            opened = outs[1, kind == _KIND_CODE[UNEQUAL_COUPLER]]
            slot[opened] = np.arange(count, count + opened.size)
            count += opened.size
            slot = slot[head]

            # the live plan: lit elements with an output that can reach an
            # output port, which every output can when no termination absorbs
            # a wire (every other element has an output, and every wire is
            # read or is an output port)
            if TERMINATION in kinds:
                self._drop_unread(live, outputs)
            kept = np.frombuffer(live, dtype=bool)[order]

            # each run of kept phase segments becomes its first segment, with
            # the run's bases added left to right (a row per run, accumulated
            # along it) and a jitter scale of sqrt(run length)
            seg = np.flatnonzero(kept & (kind == _KIND_CODE[PHASE_SEGMENT]))
            first, rank = _phase_runs(ins[0, seg], outs[0, seg], self.n_wires)
            run = np.cumsum(rank == 0)[first] - 1
            length = np.bincount(run)
            table = np.zeros((length.size, rank.max(initial=0) + 1))
            table[run, rank] = base[seg, 0]
            heads = seg[rank == 0]
            base[heads, 0] = np.cumsum(table, axis=1)[np.arange(length.size), length - 1]
            scale = np.ones_like(base)
            scale[heads, 0] = np.sqrt(length)
            kept[seg[rank > 0]] = False

            ins, outs = slot[ins], slot[outs]
            groups = _cut_groups(
                key[kept], elem_idx[kept], ins[:, kept], outs[:, kept], base[kept], scale[kept]
            )
        self._slots = _Slots(count=count, inputs=slot[self.input_ports], outputs=slot[outputs])
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
    shape (slots, members).  A pass takes max(1, PASS_CELLS // slots)
    members, so the buffer stays near PASS_CELLS amplitudes however many
    members there are, and a small circuit takes many members per pass.
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
    step = max(1, PASS_CELLS // max(slots.count, 1))
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
    per splitter, and one per fused run of phase segments, scaled by
    sqrt(n); exact in law.  A termination moves no amplitude, so its group,
    which only a plan that keeps every element holds, is passed over.

    Noisy splitter and phase values come a slab of groups at a time from
    _noise_slabs, drawn when the loop reaches the slab's first group: one
    slab per kind is held, whatever the circuit's size, and each value is
    bitwise what a draw for its group alone gives.  A kind whose width is
    zero draws nothing and runs the ideal element, so such a model gives
    the bits of no model at all for that kind.  The model's leakage is not
    applied: every lit path crosses the same number of elements, so it
    would scale every output alike.
    """
    sigma_imb = 0.0 if noise is None else noise.splitter_imbalance_sigma
    sigma_jit = 0.0 if noise is None else noise.phase_jitter_sigma
    imbalance = _noise_slabs(groups, BEAM_SPLITTER, seeds, sigma_imb) if sigma_imb > 0.0 else None
    jitter = _noise_slabs(groups, PHASE_SEGMENT, seeds, sigma_jit) if sigma_jit > 0.0 else None

    # take(axis=0) gathers like [], with less per-call overhead on the many
    # small groups of a tree; take copies, so a group may write an output
    # into a slot its own inputs just left
    for g in groups:
        if g.kind == BEAM_SPLITTER:
            u = amps.take(g.in_idx[0], axis=0)
            v = amps.take(g.in_idx[1], axis=0)
            if imbalance is None:
                amps[g.out_idx[0]] = (u + v) * _SQRT_HALF
                amps[g.out_idx[1]] = (u - v) * _SQRT_HALF
            else:
                c, s = next(imbalance)
                amps[g.out_idx[0]] = c * u + s * v
                amps[g.out_idx[1]] = s * u - c * v
        elif g.kind == PHASE_SEGMENT:
            a = amps.take(g.in_idx[0], axis=0)
            turn = np.exp(1j * g.base) if jitter is None else next(jitter)
            amps[g.out_idx[0]] = a * turn
        elif g.kind == UNEQUAL_COUPLER:
            s_in = amps.take(g.in_idx[0], axis=0)
            norm = np.sqrt(1.0 + g.base**2)
            amps[g.out_idx[0]] = s_in / norm
            amps[g.out_idx[1]] = s_in * (g.base / norm)


def _noise_slabs(groups: list[_Group], kind: str, seeds: np.ndarray, sigma: float):
    """Yield, per group of ``kind`` in group order, its entries' noisy values.

    A splitter group gets (cos, sin) of pi/4 + err, a phase group
    exp(1j * (base + err)), where err = counter_normals(seeds, elem_idx) *
    (sigma * scale) has shape (entries, members): one draw per fused run of
    phase segments, scaled by sqrt(n); exact in law.  A splitter's scale,
    and a run of one's, is 1, so its error is bitwise sigma times its draw.
    ``groups`` is the live plan, so only its entries draw.  Groups are
    taken in slabs of at most NOISE_SLAB draws (a larger group is a slab of
    its own); a slab is drawn in one call when its first group is asked
    for, and each group gets a view of its rows.  Every step is
    elementwise, so a value does not depend on which slab its entry falls
    in.

    A phasor is written as the cos and sin of its angle into the real and
    imaginary views of one complex buffer: bitwise what np.exp(1j * angle)
    gives, which reads an angle of -0.0 as +0.0, at less cost.  A width
    whose draws overflow gives inf errors and NaN values, silently: the
    leaves turn them into a PropagationError (_leaf_distributions).
    """
    slabs: list[list[_Group]] = []
    size = 0
    for g in groups:
        if g.kind != kind:
            continue
        n = g.elem_idx.size * seeds.size
        if not slabs or size + n > NOISE_SLAB:
            slabs.append([])
            size = 0
        slabs[-1].append(g)
        size += n
    for slab in slabs:
        stops = np.cumsum([g.elem_idx.size for g in slab]).tolist()
        rows = [slice(a, b) for a, b in zip([0] + stops, stops)]
        with np.errstate(over="ignore", invalid="ignore"):
            width = sigma * np.concatenate([g.scale for g in slab])
            err = counter_normals(seeds, np.concatenate([g.elem_idx for g in slab])) * width
            if kind == BEAM_SPLITTER:
                ang = np.pi / 4 + err
                c, s = np.cos(ang), np.sin(ang)
            else:
                angle = np.concatenate([g.base for g in slab]) + err
                angle += 0.0  # -0.0 to +0.0, as exp(1j * angle) reads it
                turn = np.empty(angle.shape, dtype=complex)
                np.cos(angle, out=turn.real)
                np.sin(angle, out=turn.imag)
        for r in rows:
            yield (c[r], s[r]) if kind == BEAM_SPLITTER else turn[r]


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


def _phase_column(net: Netlist, wires: Sequence[int], phases: Sequence[float]) -> list[int]:
    first = net.fresh(len(wires))
    out = list(range(first, first + len(wires)))
    net.elements.extend(
        map(CircuitElement, repeat(PHASE_SEGMENT), zip(wires), zip(out), phases)
    )
    return out


def _splitter_column(net: Netlist, wires: Sequence[int], p: int, q: int) -> list[int]:
    # splitter on (p, q); identity segments keep the other modes in step
    first = net.fresh(len(wires))
    out = list(range(first, first + len(wires)))
    net.elements.append(CircuitElement(BEAM_SPLITTER, (wires[p], wires[q]), (out[p], out[q])))
    net.elements.extend(
        CircuitElement(PHASE_SEGMENT, (w,), (o,))
        for m, (w, o) in enumerate(zip(wires, out))
        if m != p and m != q
    )
    return out


def add_mesh(net: Netlist, plan: MeshPlan, in_wires: Sequence[int]) -> list[int]:
    """Realize a MeshPlan with splitters and phase segments.

    Each mesh element (p, q, th, phi) becomes five full-width columns

        phases (0, ..., -phi - pi/2 at q, ...)
        splitter on (p, q)
        phases (pi - 2 th at p, ...)
        splitter on (p, q)
        phases (phi + th - pi/2 at p, phi + th - pi at q)

    which reproduces the element matrix exactly, overall phase included.
    The plan's output phases form one final column.  Every mode crosses
    exactly one element per column, so every path crosses as many elements.
    Returns the output wires, fresh ones, in mode order.
    """
    if len(in_wires) != plan.dim:
        raise NetlistError(f"mesh of dimension {plan.dim} fed with {len(in_wires)} wires")
    wires = [net.wire_id(w) for w in in_wires]
    for el in plan.elements:
        p, q, th, phi = el.p, el.q, el.theta, el.phi
        col = [0.0] * plan.dim
        col[q] = -phi - np.pi / 2
        wires = _phase_column(net, wires, col)
        wires = _splitter_column(net, wires, p, q)
        col = [0.0] * plan.dim
        col[p] = np.pi - 2 * th
        wires = _phase_column(net, wires, col)
        wires = _splitter_column(net, wires, p, q)
        col = [0.0] * plan.dim
        col[p] = phi + th - np.pi / 2
        col[q] = phi + th - np.pi
        wires = _phase_column(net, wires, col)
    return _phase_column(net, wires, plan.output_phases)


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
        tap = net.fresh()
        net.add(FANOUT_LABEL, (w,), (tap,))
        if i in plus:
            upper_in.append(tap)
            lower_in.append(net.add_ground())
        else:
            upper_in.append(net.add_ground())
            lower_in.append(tap)
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

    A sequence holds one to three labels of one mode count (ValueError
    otherwise).  Each distinct prep is built once and all of its members
    propagate through it in one call.  The sequences then propagate a level
    at a time through measurement stages, ``build_sequence_tree(obs)``, one
    built per distinct label per call, in the order labels are first met.
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
    on by 2^(j-1) B_j.  Moves add in wrapping uint64 arithmetic, and the
    tree's leaf taps draw no noise, so every member is bitwise what
    propagating that whole tree with the member's seed gives, with its phase
    runs cut at stage boundaries: a prep and each stage fuse their own runs
    of phase segments (one draw per fused run, scaled by sqrt(n); exact in
    law), and a run in the whole tree would go on across a boundary.
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
        if not 1 <= len(labels) <= 3:
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
        leaves = seq_amps[labels].reshape(d, len(paths), -1).transpose(1, 0, 2).reshape(-1, n)
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

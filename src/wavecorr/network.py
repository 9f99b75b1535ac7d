"""Feed-forward circuits of splitters, phase segments and couplers.

A netlist is a DAG on wires with integer ids: every wire has exactly one
driver (an element output or an external port) and exactly one reader (an
element input or an external output port).  Only ports carry names (the
input, ground and output ports map to ids through one table); the wires
inside generated meshes and trees are anonymous ids.  Propagation pushes
complex amplitudes from the input ports to the output ports; intensities
at labeled leaf groups give joint outcome probabilities.

Element behaviour (ideal):

    beam_splitter    (u, v) -> ((u + v)/sqrt(2), (u - v)/sqrt(2))
    phase_segment    a -> exp(i phase) a
    unequal_coupler  s -> (s, r s)/sqrt(1 + r^2)
    termination      absorbs its input
    fanout_label     passes its input through (a branch tap or a leaf)

Measurement blocks diagonalize an observable with a mesh, split the
eigenmodes into a +1 and a -1 branch, and recompose each branch back to
the computational basis, so a depth-k tree ends in 2^k groups of d leaf
ports whose intensities are the joint sequential probabilities.

A prepared experiment is a preparation netlist (add_state_prep) feeding a
measurement stage.  Every level of a sequence tree is the same measurement
block for one observable, copied once per branch, so circuit_distributions
builds, per call, each preparation once and one depth-1 stage (the
one-observable tree with bare mode inputs) per distinct label, and
propagates the sequences a level at a time: level j of every sequence whose
j-th label is the same goes through that label's stage in one call, its
2^(j-1) entering branches times its (state, fabrication) pairs side by side
with the other sequences' on the member axis.  Each member's noise draws
are keyed by where its block sits in the whole tree, preparation first, and
the leaf taps draw nothing, so every leaf is bitwise that of the tree with
the preparation built in.  Only the amplitudes are computed: the intensity
lost to terminations and leakage is tallied when a caller asks for it.

A compiled netlist keeps its wires in slots, one per wire live at a time
(an element's output takes its input's slot), so a stage needs a slot per
input and ground port, not a row per wire.  A pass holds about PASS_CELLS
(slot, member) amplitudes, so a small stage takes many members at once and
a large one few.

Fabrication noise is drawn in slabs, not per group: the noisy groups of one
kind are cut into runs of at most NOISE_SLAB (element, member) draws, and a
run is drawn, and turned into splitter angles or phasors, in one pass when
propagation reaches it.  Noise memory is then one slab per kind, however
large the circuit, and every amplitude is bitwise that of a draw per group.

Meshes are laid down in columns that cover every mode of the bundle
(identity phase segments pad the modes an element does not touch), so all
paths that carry amplitude cross the same number of physical elements.
Uniform per-element leakage then rescales every leaf alike and drops out
of normalized distributions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, islice, product, repeat
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from wavecorr.contextuality import InequalityDefinition, Provider, measure_inequality
from wavecorr.outcomes import OutcomeDistribution
from wavecorr.reck import MeshPlan, SynthesisError, decompose
from wavecorr.splitmix import counter_normals, keyed_substream, offset_seeds, substream
from wavecorr.wavecore import (
    GHZ_STABILIZER_SPECS,
    DichotomicObservable,
    WaveState,
    binary_labels,
    pauli_observable,
    state_library,
)

INTENSITY_CONSERVATION_TOL = 1e-12

# (slot, member) amplitudes per propagation pass, which takes
# max(1, PASS_CELLS // slots) members, so a pass's buffer stays within 1 MiB
# and each group temporary within that (a group's elements each free a live
# slot) however many members a call brings.  The shipped stages need 8 or 16
# slots and the ghz preparation 32, so every call of the noisy audit scenario
# or of a 20-member noise study (at most 2 560 cells) runs as one pass; the
# bound binds on large ensembles only
PASS_CELLS = 1 << 16

# (element, member) fabrication draws per noise slab, see _noise_slabs; at
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
# an ideal splitter's (cos, sin) of pi/4, for propagation that is noisy elsewhere
_BALANCED = (np.cos(np.pi / 4), np.sin(np.pi / 4))


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

    One normal draw per element per run, keyed by (seed, element index)
    through a counter-based generator, so results do not depend on
    evaluation order and are reproducible bit for bit.  The seeds are not
    part of the model: every propagation takes one per member.
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

    @property
    def is_quiet(self) -> bool:
        return (
            self.splitter_imbalance_sigma == 0.0
            and self.phase_jitter_sigma == 0.0
            and self.leakage == 0.0
        )


# ----------------------------------------------------------------- netlist

# a wire is an id from Netlist.fresh() or a name, mapped to an id on first use
Wire = int | str

# kinds in name order: a group's position among its layer's groups follows it
_KINDS = tuple(sorted(_ARITY))
_KIND_CODE = {kind: code for code, kind in enumerate(_KINDS)}
_N_IN = np.array([_ARITY[kind][0] for kind in _KINDS], dtype=np.intp)
_N_OUT = np.array([_ARITY[kind][1] for kind in _KINDS], dtype=np.intp)
# per kind, whether output row k continues input row k (k = 0, 1)
_CARRIES = np.array([[min(_ARITY[kind]) > k for k in range(2)] for kind in _KINDS])


@dataclass
class _Group:
    """Same-kind elements evaluated together in one propagation step.

    Per-element values are columns of shape (n, 1), so they broadcast
    against the (n, members) amplitudes of an ensemble.  A group carries no
    noise of its own: each element's draw is keyed by its ``elem_idx`` and
    the leakage is the model's.
    """

    kind: str
    elem_idx: np.ndarray
    in_idx: np.ndarray  # shape (in_arity, n): row k holds the slot of each element's k-th input
    out_idx: np.ndarray  # shape (out_arity, n), slots likewise
    base: np.ndarray  # phase or ratio, zeros otherwise


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


class Netlist:
    """Mutable feed-forward circuit on integer wire ids; validate() before propagating.

    Generated circuits take anonymous wires from fresh().  A wire given by
    name (a port, or any wire of a hand-built net) maps to its id through
    one name table.  Every element sees the noise model alone: its draw is
    keyed by the element's index, and the leakage is the model's.
    """

    def __init__(self) -> None:
        self.elements: list[CircuitElement] = []
        self.input_ports: list[Wire] = []
        self.ground_ports: list[Wire] = []
        self.output_ports: list[Wire] = []
        self.n_wires = 0
        self._names: dict[str, int] = {}
        self._compiled: list[_Group] | None = None
        self._slots: _Slots | None = None  # set with _compiled

    # -- construction ------------------------------------------------

    def fresh(self, count: int = 1) -> int:
        """A new anonymous wire; with ``count``, the first of that many in a row."""
        self._compiled = None
        self.n_wires += count
        return self.n_wires - count

    def wire_id(self, wire: Wire) -> int:
        """The id of a wire; a name not seen before gets a fresh id."""
        if isinstance(wire, str):
            wid = self._names.get(wire)
            if wid is None:
                wid = self._names[wire] = self.fresh()
            return wid
        if not 0 <= wire < self.n_wires:
            raise NetlistError(f"unknown wire id {wire}")
        return wire

    def add_input(self, wire: Wire) -> int:
        self._compiled = None
        self.input_ports.append(wire)
        return self.wire_id(wire)

    def add_ground(self, wire: Wire | None = None) -> int:
        """A port held at zero amplitude; anonymous unless named."""
        if wire is None:
            wire = self.fresh()
        self._compiled = None
        self.ground_ports.append(wire)
        return self.wire_id(wire)

    def add_output(self, wire: Wire) -> Wire:
        """Read a wire out; propagate() gives the output ports' rows in the order added."""
        self._compiled = None
        self.wire_id(wire)
        self.output_ports.append(wire)
        return wire

    def add(self, kind: str, ins: Sequence[Wire], outs: Sequence[Wire], base: float = 0.0) -> None:
        """Append one element; its index in ``elements`` keys its noise draw."""
        if kind not in _ARITY:
            raise NetlistError(f"unknown element kind {kind!r}")
        n_in, n_out = _ARITY[kind]
        if len(ins) != n_in or len(outs) != n_out:
            raise NetlistError(
                f"{kind} takes {n_in} input(s) and {n_out} output(s), "
                f"got {len(ins)} and {len(outs)}"
            )
        self._compiled = None
        self.elements.append(
            CircuitElement(
                kind,
                tuple(map(self.wire_id, ins)),
                tuple(map(self.wire_id, outs)),
                float(base),
            )
        )

    def beam_splitter(self, u: Wire, v: Wire, out_sum: Wire, out_diff: Wire) -> None:
        self.add(BEAM_SPLITTER, (u, v), (out_sum, out_diff))

    def phase_segment(self, a: Wire, b: Wire, phase: float) -> None:
        self.add(PHASE_SEGMENT, (a,), (b,), phase)

    def unequal_coupler(self, s: Wire, t1: Wire, t2: Wire, ratio: float) -> None:
        if ratio < 0:
            raise NetlistError("coupler ratio must be nonnegative")
        self.add(UNEQUAL_COUPLER, (s,), (t1, t2), ratio)

    def termination(self, a: Wire) -> None:
        self.add(TERMINATION, (a,), ())

    def fanout_label(self, a: Wire, b: Wire) -> None:
        self.add(FANOUT_LABEL, (a,), (b,))

    def _describe(self, wid: int) -> str:
        for name, i in self._names.items():
            if i == wid:
                return repr(name)
        return f"#{wid}"

    # -- validation and compilation -----------------------------------

    def validate(self) -> None:
        """Check single-driver/single-reader wiring and feed-forward order."""
        self._layers()

    def _layers(self) -> list[int]:
        """Validate, and give each element the earliest step at which its inputs are ready."""
        ready = [-1] * self.n_wires  # step at which each wire is ready; -1 while undriven
        for w in map(self.wire_id, self.input_ports + self.ground_ports):
            if ready[w] >= 0:
                raise NetlistError(f"wire {self._describe(w)} driven more than once")
            ready[w] = 0
        read = bytearray(self.n_wires)
        layers: list[int] = []
        append = layers.append
        for pos, (kind, ins, outs, _) in enumerate(self.elements):
            layer = 0
            for w in ins:
                r = ready[w]
                if r < 0:
                    raise NetlistError(
                        f"element {pos} ({kind}) reads undriven wire {self._describe(w)}; "
                        "elements must appear in feed-forward order"
                    )
                if read[w]:
                    raise NetlistError(f"wire {self._describe(w)} read more than once")
                read[w] = 1
                if r > layer:
                    layer = r
            append(layer)
            layer += 1
            for w in outs:
                if ready[w] >= 0:
                    raise NetlistError(f"wire {self._describe(w)} driven more than once")
                ready[w] = layer
        outputs = [self.wire_id(w) for w in self.output_ports]
        if len(set(outputs)) != len(outputs):
            raise NetlistError("duplicate output port")
        for w in outputs:
            if ready[w] < 0:
                raise NetlistError(f"output port {self._describe(w)} is not driven")
            if read[w]:
                raise NetlistError(f"output port {self._describe(w)} is also read by an element")
        # every read wire and every output is driven, and none is both, so
        # some driven wire is left dangling exactly when the counts differ
        if self.n_wires - ready.count(-1) != read.count(1) + len(outputs):
            out_set = set(outputs)
            dangling = [
                self._describe(w)
                for w in range(self.n_wires)
                if ready[w] >= 0 and not read[w] and w not in out_set
            ]
            raise NetlistError(f"dangling wires (driven, never read): {dangling}")
        return layers

    def _compile(self) -> list[_Group]:
        """Same-kind groups in execution order, their wires mapped to slots.

        Groups run layer by layer, and within a layer in kind order.  A group
        reads (and copies) all of its inputs before it writes an output, so a
        wire's slot is free once its reader's group runs, and that group's
        own outputs may take it: each output takes the slot of the input in
        its own row (a splitter's, a phase segment's or a tap's, a coupler's
        first), and a coupler's second output reuses the slot of a wire that
        a termination absorbed before a new slot opens.  The slot count is
        then the most wires live at once.  Input and ground ports get the
        first slots, since a ground must read zero however late its reader
        runs; an output port's wire has no reader, so its slot is never
        freed.  ``_slots`` records the count and where the ports sit.
        """
        if self._compiled is not None:
            return self._compiled
        layer = np.array(self._layers(), dtype=np.intp)
        ports = [self.wire_id(w) for w in self.input_ports + self.ground_ports]
        count = len(ports)
        # the slot of each chain's first wire; of every wire once mapped by head
        slot = np.zeros(self.n_wires, dtype=np.intp)
        slot[ports] = np.arange(count)
        groups: list[_Group] = []
        if self.elements:
            kinds, ins, outs, bases = zip(*self.elements)
            kind = np.fromiter(map(_KIND_CODE.__getitem__, kinds), dtype=np.intp, count=len(kinds))
            # a stable sort keeps element order inside each (layer, kind) bucket
            key = layer * len(_KINDS) + kind
            order = np.argsort(key, kind="stable")
            cuts = (np.flatnonzero(np.diff(key[order])) + 1).tolist()
            starts, stops = [0] + cuts, cuts + [len(kinds)]
            codes = kind[order[starts]].tolist()

            elem_idx = order.astype(np.uint64).reshape(-1, 1)
            base = np.array(bases)[order].reshape(-1, 1)
            ins = _wire_rows(chain.from_iterable(ins), _N_IN[kind], order)
            outs = _wire_rows(chain.from_iterable(outs), _N_OUT[kind], order)

            # output row k of an element with an input row k continues that
            # input's chain and takes its slot; pointer jumping takes every
            # wire to its chain's first wire, a port or a coupler's second
            # output (a chain is shorter than 2^bit_length(wires))
            carries = _CARRIES[kind[order]]
            head = np.arange(self.n_wires)
            for k in range(2):
                head[outs[k, carries[:, k]]] = ins[k, carries[:, k]]
            for _ in range(self.n_wires.bit_length()):
                head = head[head]
            # in group order, a termination frees its chain's slot and a
            # coupler's second output takes the last slot freed, or a new one
            free: list[int] = []
            for start, stop, code in zip(starts, stops, codes):
                if _KINDS[code] == TERMINATION:
                    free += slot[head[ins[0, start:stop]]].tolist()
                elif _KINDS[code] == UNEQUAL_COUPLER:
                    for w in outs[1, start:stop].tolist():
                        if free:
                            slot[w] = free.pop()
                        else:
                            slot[w] = count
                            count += 1
            slot = slot[head]
            ins, outs = slot[ins], slot[outs]

            for start, stop, code in zip(starts, stops, codes):
                n_in, n_out = _ARITY[_KINDS[code]]
                groups.append(
                    _Group(
                        kind=_KINDS[code],
                        elem_idx=elem_idx[start:stop],
                        in_idx=ins[:n_in, start:stop],
                        out_idx=outs[:n_out, start:stop],
                        base=base[start:stop],
                    )
                )
        self._slots = _Slots(
            count=count,
            inputs=slot[[self.wire_id(w) for w in self.input_ports]],
            outputs=slot[[self.wire_id(w) for w in self.output_ports]],
        )
        self._compiled = groups
        return groups


# ------------------------------------------------------------- propagation


def propagate(
    netlist: Netlist,
    drive: np.ndarray,
    noise: NoiseModel | None = None,
    seeds: Sequence[int] | None = None,
    offsets: Sequence[int] | None = None,
    *,
    return_absorbed: bool = False,
) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """Push a batch of members through the netlist in feed-forward order.

    ``drive`` has shape (input ports, members): column m drives the input
    ports, in order, for member m; grounded ports start at zero.  Member m is
    the circuit under ``noise`` drawn with seed ``seeds[m]`` (one member at
    seed 0 when ``seeds`` is None), its element indices shifted by
    ``offsets[m]`` (default 0) before drawing.  Every draw
    is a pure function of (seed, element index) and every step is elementwise
    per member, so each member is bitwise what a call with that member alone
    gives.

    Returns the amplitudes at the output ports, shape (output ports,
    members).  With ``return_absorbed`` it also returns the intensity each
    member lost to terminations and leakage; with zero noise the output
    intensity plus that equals the input intensity to 1e-12 (each element
    scatters unitarily), and noise keeps the bookkeeping because imbalanced
    splitters are still unitary and leakage is counted as absorbed.

    Wires live in the slots of Netlist._compile, so a pass's buffer has
    shape (slots, members).  A pass takes max(1, PASS_CELLS // slots)
    members, so the buffer stays near PASS_CELLS amplitudes however many
    members there are, and a small circuit takes many members per pass.
    """
    groups = netlist._compile()
    slots = netlist._slots
    members = [0] if seeds is None else list(seeds)
    if np.shape(drive) != (len(slots.inputs), len(members)):
        raise PropagationError(
            f"drive of shape {np.shape(drive)} for {len(slots.inputs)} input ports "
            f"and {len(members)} members"
        )
    member_seeds = np.array([s & 0xFFFFFFFFFFFFFFFF for s in members], dtype=np.uint64)
    shifts = None if offsets is None else np.asarray(offsets, dtype=np.uint64)

    out = np.empty((len(slots.outputs), len(members)), dtype=complex)
    absorbed = np.zeros(len(members)) if return_absorbed else None
    step = max(1, PASS_CELLS // max(slots.count, 1))
    for first in range(0, len(members), step):
        cols = slice(first, first + step)
        amps = np.zeros((slots.count, len(member_seeds[cols])), dtype=complex)
        amps[slots.inputs] = drive[:, cols]
        _propagate_members(
            groups,
            amps,
            noise,
            member_seeds[cols],
            None if shifts is None else shifts[cols],
            None if absorbed is None else absorbed[cols],
        )
        out[:, cols] = amps[slots.outputs]
    return (out, absorbed) if return_absorbed else out


def _propagate_members(
    groups: list[_Group],
    amps: np.ndarray,
    noise: NoiseModel | None,
    seeds: np.ndarray,
    offsets: np.ndarray | None = None,
    absorbed: np.ndarray | None = None,
) -> None:
    """Run the compiled groups over ``amps``, shape (slots, members), in place.

    ``amps`` holds each input and ground slot's starting amplitude per
    member; afterwards the output ports' slots hold theirs.  Member m draws
    element i's fabrication error with seed ``seeds[m]`` at index i +
    ``offsets[m]`` (i alone without offsets), so a measurement stage
    propagated behind a separate preparation of n elements, at offset n,
    draws what the whole circuit draws.  Given ``absorbed``, one entry per
    member, the intensity each member loses to terminations and leakage is
    added to it; amplitudes do not depend on whether it is.

    Noisy splitter and phase values come a slab of groups at a time from
    _noise_slabs, drawn when the loop reaches the slab's first group: one
    slab per kind is held, whatever the circuit's size, and each value is
    bitwise what a draw for its group alone gives.
    """
    if offsets is not None:
        seeds = offset_seeds(seeds, offsets)  # folded in once, not per group
    tally = absorbed is not None

    quiet = noise is None or noise.is_quiet
    sigma_imb = 0.0 if noise is None else noise.splitter_imbalance_sigma
    sigma_jit = 0.0 if noise is None else noise.phase_jitter_sigma
    leak = 0.0 if noise is None else noise.leakage
    keep = np.sqrt(1.0 - leak)
    imbalance = _noise_slabs(groups, BEAM_SPLITTER, seeds, sigma_imb) if sigma_imb > 0.0 else None
    jitter = _noise_slabs(groups, PHASE_SEGMENT, seeds, sigma_jit) if sigma_jit > 0.0 else None

    # take(axis=0) and .sum() gather and reduce like [] and np.sum, with less
    # per-call overhead on the many small groups of a tree; take copies, so a
    # group may write an output into a slot its own inputs just left
    for g in groups:
        if g.kind == TERMINATION:
            if tally:
                absorbed += (np.abs(amps.take(g.in_idx[0], axis=0)) ** 2).sum(axis=0)
        elif g.kind == FANOUT_LABEL:
            amps[g.out_idx[0]] = amps.take(g.in_idx[0], axis=0)
        elif g.kind == BEAM_SPLITTER:
            u = amps.take(g.in_idx[0], axis=0)
            v = amps.take(g.in_idx[1], axis=0)
            if quiet:
                out_sum = (u + v) * _SQRT_HALF
                out_diff = (u - v) * _SQRT_HALF
            else:
                c, s = _BALANCED if imbalance is None else next(imbalance)
                out_sum = c * u + s * v
                out_diff = s * u - c * v
            if tally:
                absorbed += (leak * (np.abs(u) ** 2 + np.abs(v) ** 2)).sum(axis=0)
            amps[g.out_idx[0]] = out_sum * keep
            amps[g.out_idx[1]] = out_diff * keep
        elif g.kind == PHASE_SEGMENT:
            a = amps.take(g.in_idx[0], axis=0)
            if tally:
                absorbed += (leak * np.abs(a) ** 2).sum(axis=0)
            turn = np.exp(1j * g.base) if jitter is None else next(jitter)
            amps[g.out_idx[0]] = a * turn * keep
        elif g.kind == UNEQUAL_COUPLER:
            s_in = amps.take(g.in_idx[0], axis=0)
            norm = np.sqrt(1.0 + g.base**2)
            if tally:
                absorbed += (leak * np.abs(s_in) ** 2).sum(axis=0)
            amps[g.out_idx[0]] = s_in / norm * keep
            amps[g.out_idx[1]] = s_in * (g.base / norm) * keep
        else:  # pragma: no cover - kinds are closed above
            raise NetlistError(f"unhandled kind {g.kind!r}")


def _noise_slabs(groups: list[_Group], kind: str, seeds: np.ndarray, sigma: float):
    """Yield, per group of ``kind`` in group order, its elements' noisy values.

    A splitter group gets (cos, sin) of pi/4 + err, a phase group
    exp(1j * (base + err)), where err = sigma * counter_normals(seeds,
    elem_idx) has shape (elements, members).  Groups are taken in runs of
    at most NOISE_SLAB draws (a larger group is a run of its own); a run is
    drawn in one call when its first group is asked for, and each group
    gets a view of its rows.  Every step is elementwise, so a value does
    not depend on which run its element falls in.
    """
    runs: list[list[_Group]] = []
    size = 0
    for g in groups:
        if g.kind != kind:
            continue
        n = g.elem_idx.size * seeds.size
        if not runs or size + n > NOISE_SLAB:
            runs.append([])
            size = 0
        runs[-1].append(g)
        size += n
    for run in runs:
        err = sigma * counter_normals(seeds, np.concatenate([g.elem_idx for g in run]))
        stops = np.cumsum([g.elem_idx.size for g in run]).tolist()
        rows = [slice(a, b) for a, b in zip([0] + stops, stops)]
        if kind == BEAM_SPLITTER:
            ang = np.pi / 4 + err
            c, s = np.cos(ang), np.sin(ang)
            for r in rows:
                yield c[r], s[r]
        else:
            turn = np.exp(1j * (np.concatenate([g.base for g in run]) + err))
            for r in rows:
                yield turn[r]


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


def add_mesh(net: Netlist, plan: MeshPlan, in_wires: Sequence[Wire]) -> list[int]:
    """Realize a MeshPlan with splitters and phase segments.

    Each mesh element (p, q, th, phi) becomes five full-width columns

        phases (0, ..., -phi - pi/2 at q, ...)
        splitter on (p, q)
        phases (pi - 2 th at p, ...)
        splitter on (p, q)
        phases (phi + th - pi/2 at p, phi + th - pi at q)

    which reproduces the element matrix exactly, overall phase included.
    The plan's output phases form one final column.  Every mode crosses
    exactly one element per column, keeping leakage uniform across paths.
    Returns the output wires, anonymous, in mode order.
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


# -------------------------------------------------- blocks and trees


def build_measurement_block(
    net: Netlist, obs: DichotomicObservable, in_wires: Sequence[Wire]
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
        net.fanout_label(w, tap)
        if i in plus:
            upper_in.append(tap)
            lower_in.append(net.add_ground())
        else:
            upper_in.append(net.add_ground())
            lower_in.append(tap)
    upper = add_mesh(net, recompose_plan, upper_in)
    lower = add_mesh(net, recompose_plan, lower_in)
    return upper, lower


@dataclass(frozen=True)
class SequenceTree:
    """A prepared netlist measuring a fixed observable sequence.

    ``leaf_groups`` maps each outcome string (first measurement first) to
    the d output ports whose summed intensity is that outcome's joint
    probability.
    """

    netlist: Netlist
    leaf_groups: dict[str, tuple[str, ...]]
    observable_labels: tuple[str, ...]
    basis: tuple[str, ...]

    @property
    def depth(self) -> int:
        return len(self.observable_labels)

    @property
    def dim(self) -> int:
        return len(self.basis)


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
    the target vector.  The source port is named "prep.src"; the returned
    mode wires are anonymous.
    """
    src = net.add_input("prep.src")
    if isinstance(prep, str) and prep == "singlet":
        total, diff = net.fresh(), net.fresh()
        net.beam_splitter(net.add_ground(), src, total, diff)
        # (u, v) = (0, 1) gives (sum, diff) = (1, -1)/sqrt(2): modes 10 and 01
        return [net.add_ground(), diff, total, net.add_ground()]
    if isinstance(prep, str) and prep == "chsh":
        r = math.sqrt(2.0) - 1.0
        t1, t2 = net.fresh(), net.fresh()
        net.unequal_coupler(src, t1, t2, r)
        a00, a11 = net.fresh(), net.fresh()
        net.beam_splitter(net.add_ground(), t1, a00, a11)
        a01, a10 = net.fresh(), net.fresh()
        net.beam_splitter(t2, net.add_ground(), a01, a10)
        return [a00, a01, a10, a11]
    if isinstance(prep, str) and prep == "ghz":
        wires = [src if i == 0 else net.add_ground() for i in range(8)]
        for spec in GHZ_STABILIZER_SPECS:
            upper, lower = build_measurement_block(net, pauli_observable(spec), wires)
            for w in lower:
                net.termination(w)
            wires = upper
        return wires

    state = state_library(prep) if isinstance(prep, str) else prep.require_normalized()
    unitary = _complete_to_unitary(np.asarray(state.amplitudes))
    plan = _plan_for(unitary)
    wires = [src if i == 0 else net.add_ground() for i in range(state.dim)]
    return add_mesh(net, plan, wires)


def _sequence_factors(observables: Sequence[DichotomicObservable]) -> int:
    """log2 of the mode count of one to three observables that share it."""
    if not 1 <= len(observables) <= 3:
        raise ValueError("sequence trees support one to three measurements")
    d = observables[0].dim
    for obs in observables:
        if obs.dim != d:
            raise ValueError("all observables in a sequence must share the mode count")
    n_factors = int(round(math.log2(d)))
    if 2**n_factors != d:
        raise ValueError("mode count must be a power of two")
    return n_factors


def build_sequence_tree(
    observables: Sequence[DichotomicObservable],
    prep: str | WaveState | None = None,
) -> SequenceTree:
    """Cascade measurement blocks for a sequence of one to three observables.

    With ``prep`` None the tree's inputs are the bare mode ports (named by
    the basis labels, in basis order) and the caller drives them with a
    state's amplitudes; otherwise the preparation is built into the circuit
    and the single input port is "prep.src".  Leaf ports are named
    "leaf.<outcome>.<basis label>".
    """
    basis = binary_labels(_sequence_factors(observables))
    net = Netlist()
    if prep is None:
        roots = [net.add_input(b) for b in basis]
    else:
        roots = add_state_prep(net, prep)
    branches: list[tuple[str, list[int]]] = [("", roots)]
    for obs in observables:
        nxt: list[tuple[str, list[int]]] = []
        for path, wires in branches:
            upper, lower = build_measurement_block(net, obs, wires)
            nxt.append((path + "+", upper))
            nxt.append((path + "-", lower))
        branches = nxt

    leaf_groups: dict[str, tuple[str, ...]] = {}
    for path, wires in branches:
        leaves = tuple(f"leaf.{path}.{b}" for b in basis)
        for w, leaf in zip(wires, leaves):
            net.fanout_label(w, leaf)
            net.add_output(leaf)
        leaf_groups[path] = leaves
    return SequenceTree(
        netlist=net,
        leaf_groups=leaf_groups,
        observable_labels=tuple(o.label for o in observables),
        basis=basis,
    )

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

    Each distinct prep is built once and all of its members propagate through
    it in one call.  The sequences then propagate a level at a time through
    depth-1 stages, ``build_sequence_tree([pauli_observable(label)])``, one
    built per distinct label per call, in the order labels are first met.
    Level j of a sequence feeds 2^(j-1) branches, laid side by side on the
    member axis, branch-major in the tree's breadth-first path order ("+"
    before "-"), each branch holding the sequence's (request, seed) columns;
    the columns of every sequence whose j-th label is the same go through
    that label's stage in one propagate call.  ``build_sequence_tree(obs,
    prep)`` puts the prep's n elements first and then each level's blocks in
    that order, so branch b of level j draws at offset n + sum_{i<j}
    2^(i-1) B_i + b B_j, where B is a block's element count without the
    stage's 2d leaf taps.  The taps draw no noise and leak nothing, and
    propagation is elementwise per member, so every member is bitwise what
    propagating that whole tree with the member's seed gives.  Nothing is
    cached across calls.
    """
    member_seeds = [[0] if seeds is None else list(seeds) for _, _, seeds in requests]
    by_prep: dict = {}
    by_labels: dict[tuple[str, ...], list[int]] = {}
    for i, (prep, labels, _) in enumerate(requests):
        key = prep if isinstance(prep, str) else (prep.labels, prep.amplitudes.tobytes())
        by_prep.setdefault(key, []).append(i)
        by_labels.setdefault(tuple(labels), []).append(i)

    prepared: list = [None] * len(requests)  # (modes, members) per request
    prep_size = [0] * len(requests)
    for idx in by_prep.values():
        net = Netlist()
        for w in add_state_prep(net, requests[idx[0]][0]):
            net.add_output(w)
        seeds = [s for i in idx for s in member_seeds[i]]
        modes = propagate(net, np.ones((1, len(seeds)), dtype=complex), noise, seeds)
        bounds = np.cumsum([len(member_seeds[i]) for i in idx])[:-1]
        for i, block in zip(idx, np.split(modes, bounds, axis=1)):
            prepared[i] = block
            prep_size[i] = len(net.elements)

    # per distinct label sequence: its member seeds, and the (d, branches *
    # members) amplitudes entering its next level with each column's offset
    seq_seeds: dict[tuple[str, ...], list[int]] = {}
    seq_offsets: dict[tuple[str, ...], np.ndarray] = {}
    seq_amps: dict[tuple[str, ...], np.ndarray] = {}
    stages: dict[str, tuple[Netlist, int]] = {}  # label -> (depth-1 stage, block elements)
    for labels, idx in by_labels.items():
        d = 2 ** _sequence_factors([pauli_observable(lab) for lab in labels])
        for i in idx:
            if len(prepared[i]) != d:
                raise NetlistError(
                    f"preparation of {len(prepared[i])} modes for the "
                    f"{d}-mode sequence {'*'.join(labels)}"
                )
        for label in labels:
            if label not in stages:
                stage = build_sequence_tree([pauli_observable(label)])
                stages[label] = stage.netlist, len(stage.netlist.elements) - 2 * d
        sizes = [len(member_seeds[i]) for i in idx]
        seq_seeds[labels] = [s for i in idx for s in member_seeds[i]]
        seq_offsets[labels] = np.repeat(
            np.array([prep_size[i] for i in idx], dtype=np.uint64), sizes
        )
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
            net, block = stages[label]
            steps = np.uint64(block) * np.arange(branches, dtype=np.uint64)[:, None]
            out = propagate(
                net,
                np.hstack([seq_amps[labels] for labels in group]),
                noise,
                [s for labels in group for s in seq_seeds[labels] * branches],
                np.concatenate([(seq_offsets[labels] + steps).ravel() for labels in group]),
            )
            d = len(out) // 2
            widths = [branches * len(seq_seeds[labels]) for labels in group]
            for labels, part in zip(group, np.split(out, np.cumsum(widths)[:-1], axis=1)):
                seq_offsets[labels] += np.uint64(branches * block)
                # rows: the d "+" leaves, then the d "-" leaves; branch b feeds 2b and 2b + 1
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
    """Normalized leaf-group intensities of each member.

    ``leaves`` holds the amplitudes at a tree's leaf ports in its output
    order, shape (outcomes * d, members): row k d + b is basis mode b of
    ``outcomes[k]``.  Intensities use Python's complex abs (libm hypot),
    which numpy's complex abs does not match in the last bit.
    """
    groups = [(o, range(k * d, (k + 1) * d)) for k, o in enumerate(outcomes)]
    dists = []
    for column in leaves.T.tolist():
        intensities = {o: float(sum(abs(column[r]) ** 2 for r in rows)) for o, rows in groups}
        total = sum(intensities.values())
        if total <= 0.0:
            raise PropagationError("no intensity reached the grouped output ports")
        probs = {o: i / total for o, i in intensities.items()}
        dists.append(OutcomeDistribution(probs=probs, intensities=intensities))
    return dists


def ensemble_provider(noise: NoiseModel | None, master_seed: int, members: int) -> Provider:
    """Distribution source for the compatibility suites under fabrication noise.

    The provider serves a batch of (library state name, Pauli-word sequence)
    requests through circuit_distributions and returns its member lists as
    they are: ``members`` fabrications per request.  Each circuit gets its
    own seed stream, keyed by its state and sequence, so the draws do not
    depend on the order circuits are audited in; member m of a circuit uses
    that stream's m-th substream.  With no noise model every fabrication is
    the same exact circuit, so each request gets a single member.
    """

    def seeds_for(state_name: str, labels: Sequence[str]) -> list[int] | None:
        if noise is None:
            return None
        tree_seed = keyed_substream(master_seed, f"{state_name}|{'*'.join(labels)}")
        return [substream(tree_seed, m) for m in range(members)]

    def provide(requests):
        return circuit_distributions(
            [(state, labels, seeds_for(state, labels)) for state, labels in requests], noise
        )

    return provide


def ensemble_values(
    defn: InequalityDefinition,
    state_name: str,
    noise: NoiseModel | None,
    master_seed: int,
    n_seeds: int,
) -> np.ndarray:
    """Inequality value of each of ``n_seeds`` fabrications of the experiment.

    Fabrication s builds circuit k (the named preparation, then the k-th
    sequence) with seed substream(substream(master_seed, s), k).  The values
    come from measure_inequality, whose request k is term k's sequence: the
    provider answers it with one member per fabrication, in fabrication
    order, so report s is fabrication s.  All circuits go to
    circuit_distributions in one call, so the preparation, and each level of
    the sequences that share a label there, propagate all of their
    fabrications in one propagate call.
    """
    run_seeds = [substream(master_seed, s) for s in range(n_seeds)]

    def provide(requests):
        return circuit_distributions(
            [
                (state, labels, [substream(run, k) for run in run_seeds])
                for k, (state, labels) in enumerate(requests)
            ],
            noise,
        )

    return np.array([report.value for report in measure_inequality(defn, provide, state_name)])

"""Feed-forward circuits of splitters, phase segments and couplers.

A netlist is a DAG on named wires: every wire has exactly one driver (an
element output or an external port) and exactly one reader (an element
input or an external output port).  Propagation pushes complex amplitudes
from the input ports to the output ports; intensities at labeled leaf
groups give joint outcome probabilities.

Element behaviour (ideal):

    beam_splitter    (u, v) -> ((u + v)/sqrt(2), (u - v)/sqrt(2))
    phase_segment    a -> exp(i phase) a
    unequal_coupler  s -> (s, r s)/sqrt(1 + r^2)
    termination      absorbs its input
    fanout_label     passes its input through, tagging the wire

Measurement blocks diagonalize an observable with a mesh, split the
eigenmodes into a +1 and a -1 branch, and recompose each branch back to
the computational basis, so a depth-k tree ends in 2^k groups of d leaf
ports whose intensities are the joint sequential probabilities.

Meshes are laid down in columns that cover every mode of the bundle
(identity phase segments pad the modes an element does not touch), so all
paths that carry amplitude cross the same number of physical elements.
Uniform per-element leakage then rescales every leaf alike and drops out
of normalized distributions.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from wavecorr.outcomes import OutcomeDistribution
from wavecorr.reck import MeshPlan, decompose
from wavecorr.splitmix import counter_normals, substream
from wavecorr.wavecore import (
    GHZ_STABILIZER_SPECS,
    DichotomicObservable,
    WaveState,
    binary_labels,
    pauli_observable,
    state_library,
)

INTENSITY_CONSERVATION_TOL = 1e-12

# ensemble members propagated together; bounds the (wires, members) buffers
MEMBER_CHUNK = 32

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

# kinds that scatter power and therefore see leakage
PHYSICAL_KINDS = frozenset({BEAM_SPLITTER, PHASE_SEGMENT, UNEQUAL_COUPLER})

_SQRT_HALF = 1.0 / math.sqrt(2.0)


class NetlistError(ValueError):
    """Structural problem in a netlist (wiring, ports, ordering)."""


class PropagationError(ValueError):
    """Numerical failure during propagation (e.g. no intensity at the leaves)."""


@dataclass(frozen=True)
class CircuitElement:
    kind: str
    ins: tuple[str, ...]
    outs: tuple[str, ...]
    params: tuple[tuple[str, float | str], ...] = ()

    def param(self, name: str, default=None):
        for key, value in self.params:
            if key == name:
                return value
        return default


@dataclass(frozen=True)
class NoiseModel:
    """Per-element Gaussian imperfections plus uniform power leakage.

    One normal draw per element per run, keyed by (seed, element index)
    through a counter-based generator, so results do not depend on
    evaluation order and are reproducible bit for bit.
    """

    splitter_imbalance_sigma: float = 0.0
    phase_jitter_sigma: float = 0.0
    leakage: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.splitter_imbalance_sigma < 0 or self.phase_jitter_sigma < 0:
            raise ValueError("noise widths must be nonnegative")
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


@dataclass
class _Group:
    """Same-kind elements evaluated together in one propagation step.

    Per-element values are columns of shape (n, 1), so they broadcast
    against the (n, members) amplitudes of an ensemble.
    """

    kind: str
    elem_idx: np.ndarray
    in_idx: np.ndarray  # shape (in_arity, n): row k holds each element's k-th input
    out_idx: np.ndarray  # shape (out_arity, n)
    base: np.ndarray  # phase or ratio, zeros otherwise
    noise_override: np.ndarray | None  # nan = use the model draw; None if never set
    leak_override: np.ndarray | None  # nan = use the model leakage; None if never set


def _column(values: list, dtype=float) -> np.ndarray:
    out = np.empty((len(values), 1), dtype=dtype)
    out[:, 0] = values
    return out


def _override(values: list) -> np.ndarray | None:
    return None if all(math.isnan(v) for v in values) else _column(values)


class Netlist:
    """Mutable feed-forward circuit; validate() before propagating."""

    def __init__(self) -> None:
        self.elements: list[CircuitElement] = []
        self.input_ports: list[str] = []
        self.ground_ports: list[str] = []
        self.output_ports: list[str] = []
        self._compiled: list[_Group] | None = None
        self._wire_index: dict[str, int] | None = None

    # -- construction ------------------------------------------------

    def add_input(self, wire: str) -> str:
        self._touch()
        self.input_ports.append(wire)
        return wire

    def add_ground(self, wire: str) -> str:
        self._touch()
        self.ground_ports.append(wire)
        return wire

    def add_output(self, wire: str) -> str:
        self._touch()
        self.output_ports.append(wire)
        return wire

    def add(self, kind: str, ins: Sequence[str], outs: Sequence[str], **params) -> CircuitElement:
        if kind not in _ARITY:
            raise NetlistError(f"unknown element kind {kind!r}")
        n_in, n_out = _ARITY[kind]
        if len(ins) != n_in or len(outs) != n_out:
            raise NetlistError(
                f"{kind} takes {n_in} input(s) and {n_out} output(s), "
                f"got {len(ins)} and {len(outs)}"
            )
        self._touch()
        el = CircuitElement(
            kind=kind,
            ins=tuple(ins),
            outs=tuple(outs),
            params=tuple(sorted(params.items())),
        )
        self.elements.append(el)
        return el

    def beam_splitter(self, u: str, v: str, out_sum: str, out_diff: str, **ov) -> None:
        self.add(BEAM_SPLITTER, (u, v), (out_sum, out_diff), **ov)

    def phase_segment(self, a: str, b: str, phase: float, **ov) -> None:
        self.add(PHASE_SEGMENT, (a,), (b,), phase=float(phase), **ov)

    def unequal_coupler(self, s: str, t1: str, t2: str, ratio: float, **ov) -> None:
        if ratio < 0:
            raise NetlistError("coupler ratio must be nonnegative")
        self.add(UNEQUAL_COUPLER, (s,), (t1, t2), ratio=float(ratio), **ov)

    def termination(self, a: str) -> None:
        self.add(TERMINATION, (a,), ())

    def fanout_label(self, a: str, b: str, tag: str) -> None:
        self.add(FANOUT_LABEL, (a,), (b,), tag=str(tag))

    def _touch(self) -> None:
        self._compiled = None
        self._wire_index = None

    # -- validation and compilation -----------------------------------

    def validate(self) -> None:
        """Check single-driver/single-reader wiring and feed-forward order."""
        driven: dict[str, str] = {}
        for port in self.input_ports + self.ground_ports:
            if port in driven:
                raise NetlistError(f"wire {port!r} driven more than once")
            driven[port] = "port"
        read: set[str] = set()
        for pos, el in enumerate(self.elements):
            for w in el.ins:
                if w not in driven:
                    raise NetlistError(
                        f"element {pos} ({el.kind}) reads undriven wire {w!r}; "
                        "elements must appear in feed-forward order"
                    )
                if w in read:
                    raise NetlistError(f"wire {w!r} read more than once")
                read.add(w)
            for w in el.outs:
                if w in driven:
                    raise NetlistError(f"wire {w!r} driven more than once")
                driven[w] = "element"
        outputs = set(self.output_ports)
        if len(outputs) != len(self.output_ports):
            raise NetlistError("duplicate output port")
        for w in outputs:
            if w not in driven:
                raise NetlistError(f"output port {w!r} is not driven")
            if w in read:
                raise NetlistError(f"output port {w!r} is also read by an element")
        dangling = set(driven) - read - outputs
        if dangling:
            raise NetlistError(f"dangling wires (driven, never read): {sorted(dangling)}")

    def _compile(self) -> tuple[dict[str, int], list[_Group]]:
        if self._compiled is not None and self._wire_index is not None:
            return self._wire_index, self._compiled
        self.validate()
        wire_index: dict[str, int] = {}
        for w in self.input_ports + self.ground_ports:
            wire_index[w] = len(wire_index)
        for el in self.elements:
            for w in el.outs:
                wire_index[w] = len(wire_index)

        # layer = earliest step at which all inputs are ready
        ready: dict[str, int] = {w: 0 for w in self.input_ports + self.ground_ports}
        buckets: dict[tuple[int, str], list[int]] = {}
        for pos, el in enumerate(self.elements):
            layer = max(ready[w] for w in el.ins) if el.ins else 0
            for w in el.outs:
                ready[w] = layer + 1
            buckets.setdefault((layer, el.kind), []).append(pos)

        groups: list[_Group] = []
        for (layer, kind) in sorted(buckets, key=lambda k: (k[0], k[1])):
            members = buckets[(layer, kind)]
            els = [self.elements[i] for i in members]
            n_in, n_out = _ARITY[kind]
            base_key = "phase" if kind == PHASE_SEGMENT else "ratio"
            noise_key = "imbalance" if kind == BEAM_SPLITTER else "jitter"
            groups.append(
                _Group(
                    kind=kind,
                    elem_idx=_column(members, np.uint64),
                    in_idx=np.array(
                        [[wire_index[el.ins[k]] for el in els] for k in range(n_in)],
                        dtype=np.intp,
                    ),
                    out_idx=np.array(
                        [[wire_index[el.outs[k]] for el in els] for k in range(n_out)],
                        dtype=np.intp,
                    ),
                    base=_column([el.param(base_key, 0.0) for el in els]),
                    noise_override=_override([el.param(noise_key, np.nan) for el in els]),
                    leak_override=_override([el.param("leakage", np.nan) for el in els]),
                )
            )
        self._wire_index = wire_index
        self._compiled = groups
        return wire_index, groups

    # -- text format ---------------------------------------------------

    def to_text(self, comment: str | None = None) -> str:
        """Line-oriented serialization; '#' starts a comment."""
        fmt = "{:.17g}".format
        lines: list[str] = []
        if comment:
            lines.append(f"# {comment}")
        for w in self.input_ports:
            lines.append(f"input {w}")
        for w in self.ground_ports:
            lines.append(f"ground {w}")
        for el in self.elements:
            parts = [el.kind, *el.ins, *el.outs]
            if el.kind == PHASE_SEGMENT:
                parts.append(fmt(el.param("phase", 0.0)))
            elif el.kind == UNEQUAL_COUPLER:
                parts.append(fmt(el.param("ratio", 0.0)))
            elif el.kind == FANOUT_LABEL:
                parts.append(str(el.param("tag", "?")))
            for key, value in el.params:
                if key in ("phase", "ratio", "tag"):
                    continue
                parts.append(f"{key}={fmt(value)}")
            lines.append(" ".join(parts))
        for w in self.output_ports:
            lines.append(f"output {w}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Netlist":
        net = cls()
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            fields = line.split()
            kind, args = fields[0], fields[1:]
            try:
                overrides: dict[str, float] = {}
                while args and "=" in args[-1]:
                    key, _, value = args.pop().partition("=")
                    overrides[key] = float(value)
                if kind == "input":
                    net.add_input(args[0])
                elif kind == "ground":
                    net.add_ground(args[0])
                elif kind == "output":
                    net.add_output(args[0])
                elif kind == BEAM_SPLITTER:
                    net.beam_splitter(*args[:4], **overrides)
                elif kind == PHASE_SEGMENT:
                    net.phase_segment(args[0], args[1], float(args[2]), **overrides)
                elif kind == UNEQUAL_COUPLER:
                    net.unequal_coupler(args[0], args[1], args[2], float(args[3]), **overrides)
                elif kind == TERMINATION:
                    net.termination(args[0])
                elif kind == FANOUT_LABEL:
                    net.fanout_label(args[0], args[1], args[2])
                else:
                    raise NetlistError(f"unknown line kind {kind!r}")
            except (IndexError, ValueError) as err:
                if isinstance(err, NetlistError):
                    raise NetlistError(f"netlist line {lineno}: {err}") from err
                raise NetlistError(f"netlist line {lineno}: malformed {kind!r} line") from err
        return net


# ------------------------------------------------------------- propagation


@dataclass(frozen=True)
class PortAmplitudes:
    """Amplitudes at the output ports plus the energy bookkeeping."""

    amplitudes: dict[str, complex]
    input_intensity: float
    absorbed_intensity: float

    @property
    def output_intensity(self) -> float:
        return float(sum(abs(a) ** 2 for a in self.amplitudes.values()))

    def intensity(self, wire: str) -> float:
        return float(abs(self.amplitudes[wire]) ** 2)


def propagate(
    netlist: Netlist,
    drive: WaveState | Mapping[str, complex],
    noise: NoiseModel | None = None,
    seeds: Sequence[int] | None = None,
) -> PortAmplitudes | list[PortAmplitudes]:
    """Push amplitudes through the netlist in feed-forward order.

    ``drive`` maps input port names to amplitudes; a WaveState is matched to
    the ports by its mode labels.  Grounded ports start at zero.  With zero
    noise the total output intensity plus the absorbed intensity equals the
    input intensity to 1e-12 (each element scatters unitarily); noise keeps
    that bookkeeping because imbalanced splitters are still unitary and
    leakage is accounted as absorption.

    With ``seeds`` one pass propagates a whole fabrication ensemble: member m
    is the circuit under ``noise`` with its seed replaced by ``seeds[m]``, and
    one PortAmplitudes per member is returned in seed order.  Every draw is a
    pure function of (seed, element index), so each member is bitwise what a
    call with that single seed gives.  Members run MEMBER_CHUNK at a time, so
    memory does not grow with the ensemble.
    """
    wire_index, groups = netlist._compile()
    if isinstance(drive, WaveState):
        values = dict(zip(drive.labels, drive.amplitudes))
    else:
        values = dict(drive)
    missing = set(netlist.input_ports) - set(values)
    extra = set(values) - set(netlist.input_ports)
    if missing or extra:
        raise PropagationError(
            f"drive does not match input ports (missing {sorted(missing)}, "
            f"unknown {sorted(extra)})"
        )

    start = np.zeros(len(wire_index), dtype=complex)
    for w, a in values.items():
        start[wire_index[w]] = a
    input_intensity = float(np.sum(np.abs(start) ** 2))
    out_idx = np.array([wire_index[w] for w in netlist.output_ports], dtype=np.intp)

    members = [0 if noise is None else noise.seed] if seeds is None else list(seeds)
    results: list[PortAmplitudes] = []
    for first in range(0, len(members), MEMBER_CHUNK):
        chunk = np.array(
            [s & 0xFFFFFFFFFFFFFFFF for s in members[first : first + MEMBER_CHUNK]],
            dtype=np.uint64,
        )
        amps, absorbed = _propagate_members(groups, start, noise, chunk)
        for column, lost in zip(amps[out_idx].T, absorbed):
            results.append(
                PortAmplitudes(
                    amplitudes={w: complex(a) for w, a in zip(netlist.output_ports, column)},
                    input_intensity=input_intensity,
                    absorbed_intensity=float(lost),
                )
            )
    return results[0] if seeds is None else results


def _propagate_members(
    groups: list[_Group], start: np.ndarray, noise: NoiseModel | None, seeds: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Amplitudes on every wire, shape (wires, members), and absorbed per member."""
    amps = np.repeat(start[:, None], len(seeds), axis=1)
    absorbed = np.zeros(len(seeds))

    quiet = noise is None or noise.is_quiet
    sigma_imb = 0.0 if noise is None else noise.splitter_imbalance_sigma
    sigma_jit = 0.0 if noise is None else noise.phase_jitter_sigma
    leak_global = 0.0 if noise is None else noise.leakage
    keep_global = np.sqrt(1.0 - leak_global)

    # take(axis=0) and .sum() gather and reduce like [] and np.sum, with less
    # per-call overhead on the many small groups of a tree
    for g in groups:
        if g.kind == TERMINATION:
            absorbed += (np.abs(amps.take(g.in_idx[0], axis=0)) ** 2).sum(axis=0)
            continue
        if g.kind == FANOUT_LABEL:
            amps[g.out_idx[0]] = amps.take(g.in_idx[0], axis=0)
            continue

        # fabrication error per (element, member); a scalar where it is zero
        err = 0.0
        if g.kind != UNEQUAL_COUPLER:
            sigma = sigma_imb if g.kind == BEAM_SPLITTER else sigma_jit
            if sigma > 0.0:
                err = sigma * counter_normals(seeds, g.elem_idx)
            if g.noise_override is not None:
                err = np.where(np.isnan(g.noise_override), err, g.noise_override)

        if g.leak_override is None:
            leak, keep = leak_global, keep_global
        else:
            leak = np.where(np.isnan(g.leak_override), leak_global, g.leak_override)
            keep = np.sqrt(1.0 - leak)

        if g.kind == BEAM_SPLITTER:
            u = amps.take(g.in_idx[0], axis=0)
            v = amps.take(g.in_idx[1], axis=0)
            if quiet and g.noise_override is None:
                out_sum = (u + v) * _SQRT_HALF
                out_diff = (u - v) * _SQRT_HALF
            else:
                ang = np.pi / 4 + err
                c, s = np.cos(ang), np.sin(ang)
                out_sum = c * u + s * v
                out_diff = s * u - c * v
            through = np.abs(u) ** 2 + np.abs(v) ** 2
            absorbed += (leak * through).sum(axis=0)
            amps[g.out_idx[0]] = out_sum * keep
            amps[g.out_idx[1]] = out_diff * keep
        elif g.kind == PHASE_SEGMENT:
            a = amps.take(g.in_idx[0], axis=0)
            absorbed += (leak * np.abs(a) ** 2).sum(axis=0)
            amps[g.out_idx[0]] = a * np.exp(1j * (g.base + err)) * keep
        elif g.kind == UNEQUAL_COUPLER:
            s_in = amps.take(g.in_idx[0], axis=0)
            norm = np.sqrt(1.0 + g.base**2)
            absorbed += (leak * np.abs(s_in) ** 2).sum(axis=0)
            amps[g.out_idx[0]] = s_in / norm * keep
            amps[g.out_idx[1]] = s_in * (g.base / norm) * keep
        else:  # pragma: no cover - kinds are closed above
            raise NetlistError(f"unhandled kind {g.kind!r}")
    return amps, absorbed


def port_distribution(
    amps: PortAmplitudes, groups: Mapping[str, Sequence[str]]
) -> OutcomeDistribution:
    """Normalize grouped port intensities into an outcome distribution."""
    intensities: dict[str, float] = {}
    for outcome, wires in groups.items():
        intensities[outcome] = float(
            sum(abs(amps.amplitudes[w]) ** 2 for w in wires)
        )
    total = sum(intensities.values())
    if total <= 0.0:
        raise PropagationError("no intensity reached the grouped output ports")
    probs = {o: i / total for o, i in intensities.items()}
    return OutcomeDistribution(probs=probs, intensities=intensities)


def leaf_distribution_csv(dist: OutcomeDistribution) -> str:
    """CSV with columns outcome_string, probability, intensity."""
    fmt = "{:.17g}".format
    lines = ["outcome_string,probability,intensity"]
    for outcome in sorted(dist.probs):
        intensity = 0.0 if dist.intensities is None else dist.intensities.get(outcome, 0.0)
        lines.append(f"{outcome},{fmt(dist.probs[outcome])},{fmt(intensity)}")
    return "\n".join(lines) + "\n"


# ------------------------------------------------------- mesh realization


_plan_cache: dict[bytes, MeshPlan] = {}


def _plan_for(matrix: np.ndarray) -> MeshPlan:
    key = np.ascontiguousarray(matrix).tobytes()
    plan = _plan_cache.get(key)
    if plan is None:
        plan = decompose(matrix)
        _plan_cache[key] = plan
    return plan


class _Namer:
    """Fresh wire names under a prefix: p.0, p.1, ..."""

    def __init__(self, prefix: str) -> None:
        self.prefix = prefix
        self.n = 0

    def __call__(self) -> str:
        name = f"{self.prefix}.{self.n}"
        self.n += 1
        return name


def _phase_column(net: Netlist, wires: list[str], phases: Sequence[float], fresh: _Namer) -> list[str]:
    out = []
    for w, ph in zip(wires, phases):
        nw = fresh()
        net.phase_segment(w, nw, ph)
        out.append(nw)
    return out


def _splitter_column(net: Netlist, wires: list[str], p: int, q: int, fresh: _Namer) -> list[str]:
    # splitter on (p, q); identity segments keep the other modes in step
    out = list(wires)
    sp, sq = fresh(), fresh()
    net.beam_splitter(wires[p], wires[q], sp, sq)
    out[p], out[q] = sp, sq
    for m in range(len(wires)):
        if m in (p, q):
            continue
        nw = fresh()
        net.phase_segment(wires[m], nw, 0.0)
        out[m] = nw
    return out


def add_mesh(net: Netlist, plan: MeshPlan, in_wires: Sequence[str], prefix: str) -> list[str]:
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
    """
    if len(in_wires) != plan.dim:
        raise NetlistError(f"mesh of dimension {plan.dim} fed with {len(in_wires)} wires")
    fresh = _Namer(prefix)
    wires = list(in_wires)
    for el in plan.elements:
        p, q, th, phi = el.p, el.q, el.theta, el.phi
        col = [0.0] * plan.dim
        col[q] = -phi - np.pi / 2
        wires = _phase_column(net, wires, col, fresh)
        wires = _splitter_column(net, wires, p, q, fresh)
        col = [0.0] * plan.dim
        col[p] = np.pi - 2 * th
        wires = _phase_column(net, wires, col, fresh)
        wires = _splitter_column(net, wires, p, q, fresh)
        col = [0.0] * plan.dim
        col[p] = phi + th - np.pi / 2
        col[q] = phi + th - np.pi
        wires = _phase_column(net, wires, col, fresh)
    wires = _phase_column(net, wires, plan.output_phases, fresh)
    return wires


# -------------------------------------------------- blocks and trees


def build_measurement_block(
    net: Netlist,
    obs: DichotomicObservable,
    in_wires: Sequence[str],
    prefix: str,
) -> tuple[list[str], list[str]]:
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
    eigen = add_mesh(net, to_eigen, in_wires, f"{prefix}.diag")
    plus = set(obs.plus_indices)
    tagged: list[str] = []
    for i, w in enumerate(eigen):
        nw = f"{prefix}.tap.{i}"
        net.fanout_label(w, nw, "+" if i in plus else "-")
        tagged.append(nw)
    upper_in, lower_in = [], []
    for i, w in enumerate(tagged):
        if i in plus:
            upper_in.append(w)
            lower_in.append(net.add_ground(f"{prefix}.lo.gnd.{i}"))
        else:
            upper_in.append(net.add_ground(f"{prefix}.up.gnd.{i}"))
            lower_in.append(w)
    upper = add_mesh(net, recompose_plan, upper_in, f"{prefix}.plus")
    lower = add_mesh(net, recompose_plan, lower_in, f"{prefix}.minus")
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
    branch_kind_counts: dict[str, dict[str, int]] = field(default_factory=dict)

    @property
    def depth(self) -> int:
        return len(self.observable_labels)

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def leaf_count(self) -> int:
        return sum(len(ws) for ws in self.leaf_groups.values())

    def path_total_counts(self) -> dict[str, int]:
        """Elements crossed along any amplitude-carrying path to each leaf.

        Wires reachable only from grounds carry no amplitude until they are
        mixed in, so they impose no constraint; wherever two constrained
        wires meet at an element their path totals must agree.  Equal totals
        everywhere are what make uniform per-element leakage a global factor
        that cancels out of the normalized leaf distribution.
        """
        net = self.netlist
        depth: dict[str, int | None] = {w: None for w in net.ground_ports}
        for w in net.input_ports:
            depth[w] = 0
        for pos, el in enumerate(net.elements):
            known = [depth[w] for w in el.ins if depth[w] is not None]
            if known and any(v != known[0] for v in known[1:]):
                raise NetlistError(
                    f"paths of different length meet at element {pos} ({el.kind})"
                )
            out_depth = known[0] + 1 if known else None
            for w in el.outs:
                depth[w] = out_depth
        totals: dict[str, int] = {}
        for outcome, wires in self.leaf_groups.items():
            leaf_depths = {depth[w] for w in wires if depth[w] is not None}
            if len(leaf_depths) > 1:
                raise NetlistError(f"leaf group {outcome!r} mixes path lengths {leaf_depths}")
            totals[outcome] = leaf_depths.pop() if leaf_depths else 0
        return totals


def _kind_tally(elements: Iterable[CircuitElement]) -> dict[str, int]:
    tally: dict[str, int] = {}
    for el in elements:
        tally[el.kind] = tally.get(el.kind, 0) + 1
    return tally


def _merge_tallies(a: Mapping[str, int], b: Mapping[str, int]) -> dict[str, int]:
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + v
    return out


def _mesh_element_count(plan: MeshPlan) -> int:
    # each mesh element lays down 5 full-width columns: 3 phase columns of
    # d segments and 2 splitter columns of 1 splitter + (d-2) pads; one
    # final phase column realizes the output phases
    d = plan.dim
    return len(plan.elements) * (5 * d - 2) + d


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
        raise ValueError("failed to complete the state to a unitary")
    return np.column_stack(cols)


def add_state_prep(net: Netlist, prep: str | WaveState, prefix: str = "prep") -> list[str]:
    """Coherent splitting of a single source into a prepared bundle.

    Named preparations use the dedicated constructions (one splitter for the
    singlet, an unequal coupler feeding two splitters for the tilted CHSH
    state, a post-selecting stabilizer cascade for the ghz state); any other
    name or explicit state is synthesized as a mesh whose first column is
    the target vector.  The source port is named "src".
    """
    src = net.add_input(f"{prefix}.src")
    if isinstance(prep, str) and prep == "singlet":
        g_u = net.add_ground(f"{prefix}.gu")
        net.beam_splitter(g_u, src, f"{prefix}.sum", f"{prefix}.diff")
        g00 = net.add_ground(f"{prefix}.g00")
        g11 = net.add_ground(f"{prefix}.g11")
        # (u, v) = (0, 1) gives (sum, diff) = (1, -1)/sqrt(2): modes 10 and 01
        return [g00, f"{prefix}.diff", f"{prefix}.sum", g11]
    if isinstance(prep, str) and prep == "chsh":
        r = math.sqrt(2.0) - 1.0
        net.unequal_coupler(src, f"{prefix}.t1", f"{prefix}.t2", r)
        g1 = net.add_ground(f"{prefix}.b1g")
        net.beam_splitter(g1, f"{prefix}.t1", f"{prefix}.a00", f"{prefix}.a11")
        g2 = net.add_ground(f"{prefix}.b2g")
        net.beam_splitter(f"{prefix}.t2", g2, f"{prefix}.a01", f"{prefix}.a10")
        return [f"{prefix}.a00", f"{prefix}.a01", f"{prefix}.a10", f"{prefix}.a11"]
    if isinstance(prep, str) and prep == "ghz":
        wires = [src if i == 0 else net.add_ground(f"{prefix}.g{i}") for i in range(8)]
        for k, spec in enumerate(GHZ_STABILIZER_SPECS):
            obs = pauli_observable(spec)
            upper, lower = build_measurement_block(net, obs, wires, f"{prefix}.sel{k}")
            for w in lower:
                net.termination(w)
            wires = upper
        return wires

    state = state_library(prep) if isinstance(prep, str) else prep.require_normalized()
    unitary = _complete_to_unitary(np.asarray(state.amplitudes))
    plan = _plan_for(unitary)
    wires = [src if i == 0 else net.add_ground(f"{prefix}.g{i}") for i in range(state.dim)]
    return add_mesh(net, plan, wires, f"{prefix}.mesh")


def build_sequence_tree(
    observables: Sequence[DichotomicObservable],
    prep: str | WaveState | None = None,
    labels: Sequence[str] | None = None,
) -> SequenceTree:
    """Cascade measurement blocks for a sequence of one to three observables.

    With ``prep`` None the tree's inputs are the bare mode ports (named by
    the basis labels) and the caller drives them with a WaveState; otherwise
    the preparation is built into the circuit and the single input port is
    "prep.src".
    """
    if not 1 <= len(observables) <= 3:
        raise ValueError("sequence trees support one to three measurements")
    d = observables[0].dim
    for obs in observables:
        if obs.dim != d:
            raise ValueError("all observables in a sequence must share the mode count")
    n_factors = int(round(math.log2(d)))
    if 2**n_factors != d:
        raise ValueError("mode count must be a power of two")
    basis = tuple(labels) if labels is not None else binary_labels(n_factors)
    if len(basis) != d:
        raise ValueError("basis label count does not match dimension")

    net = Netlist()
    if prep is None:
        roots = [net.add_input(b) for b in basis]
    else:
        roots = add_state_prep(net, prep)
    branches: list[tuple[str, list[str], dict[str, int]]] = [
        ("", roots, _kind_tally(net.elements))
    ]
    for level, obs in enumerate(observables):
        branch_mesh_size = _mesh_element_count(_plan_for(obs.diagonalizer))
        nxt: list[tuple[str, list[str], dict[str, int]]] = []
        for path, wires, tally in branches:
            tag = path if path else "root"
            n0 = len(net.elements)
            upper, lower = build_measurement_block(
                net, obs, wires, f"L{level}.{obs.label}.{tag}"
            )
            n3 = len(net.elements)
            # the block appends the shared eigenbasis stage, then one
            # recomposition mesh per branch, both of the same size
            lower_tally = _kind_tally(net.elements[n3 - branch_mesh_size : n3])
            upper_tally = _kind_tally(
                net.elements[n3 - 2 * branch_mesh_size : n3 - branch_mesh_size]
            )
            shared = _merge_tallies(
                tally, _kind_tally(net.elements[n0 : n3 - 2 * branch_mesh_size])
            )
            nxt.append((path + "+", upper, _merge_tallies(shared, upper_tally)))
            nxt.append((path + "-", lower, _merge_tallies(shared, lower_tally)))
        branches = nxt

    leaf_groups: dict[str, tuple[str, ...]] = {}
    branch_kind_counts: dict[str, dict[str, int]] = {}
    for path, wires, tally in branches:
        named = []
        for b, w in zip(basis, wires):
            leaf = f"leaf.{path}.{b}"
            net.fanout_label(w, leaf, path)
            net.add_output(leaf)
            named.append(leaf)
        leaf_groups[path] = tuple(named)
        branch_kind_counts[path] = _merge_tallies(tally, {FANOUT_LABEL: len(named)})
    return SequenceTree(
        netlist=net,
        leaf_groups=leaf_groups,
        observable_labels=tuple(o.label for o in observables),
        basis=basis,
        branch_kind_counts=branch_kind_counts,
    )


def _tree_drive(
    tree: SequenceTree, drive: WaveState | Mapping[str, complex] | None
) -> WaveState | Mapping[str, complex]:
    if drive is None:
        ports = tree.netlist.input_ports
        if len(ports) != 1:
            raise PropagationError(
                "tree has bare mode inputs; pass the state to drive them"
            )
        return {ports[0]: 1.0 + 0.0j}
    if isinstance(drive, WaveState) and set(tree.netlist.input_ports) != set(drive.labels):
        raise PropagationError("drive labels do not match the tree's input ports")
    return drive


def tree_distribution(
    tree: SequenceTree,
    drive: WaveState | Mapping[str, complex] | None = None,
    noise: NoiseModel | None = None,
) -> OutcomeDistribution:
    """Propagate through a tree and read the leaf-group distribution."""
    amps = propagate(tree.netlist, _tree_drive(tree, drive), noise)
    return port_distribution(amps, tree.leaf_groups)


def tree_distributions(
    tree: SequenceTree,
    noise: NoiseModel | None,
    seeds: Sequence[int],
    drive: WaveState | Mapping[str, complex] | None = None,
) -> list[OutcomeDistribution]:
    """Leaf-group distribution of each fabrication seed, in one propagation.

    Member m is bitwise ``tree_distribution(tree, drive, noise)`` with the
    noise seed replaced by ``seeds[m]``.
    """
    members = propagate(tree.netlist, _tree_drive(tree, drive), noise, seeds)
    return [port_distribution(amps, tree.leaf_groups) for amps in members]


def ensemble_provider(
    noise: NoiseModel | None, master_seed: int, members: int
) -> Callable[[str, Sequence[str]], OutcomeDistribution | list[OutcomeDistribution]]:
    """Distribution source for the compatibility suites under fabrication noise.

    The provider builds (and caches) the tree of a named library state and a
    Pauli-word sequence, and returns ``members`` fabrications of it.  Each
    circuit gets its own seed stream, keyed by a digest of its state and
    sequence, so the draws do not depend on the order circuits are audited
    in; member m of a circuit uses that stream's m-th substream.  With no
    noise model the circuit is exact and the provider returns its single
    distribution.
    """
    trees: dict[tuple[str, tuple[str, ...]], SequenceTree] = {}

    def provide(state_name: str, labels: Sequence[str]):
        key = (state_name, tuple(labels))
        if key not in trees:
            obs = [pauli_observable(lab) for lab in labels]
            trees[key] = build_sequence_tree(obs, prep=state_name)
        tree = trees[key]
        if noise is None:
            return tree_distribution(tree)
        digest = hashlib.sha256(f"{state_name}|{'*'.join(labels)}".encode()).digest()
        tree_seed = substream(master_seed, int.from_bytes(digest[:8], "big"))
        seeds = [substream(tree_seed, m) for m in range(members)]
        return tree_distributions(tree, noise, seeds)

    return provide

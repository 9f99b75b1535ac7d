"""Scenario-driven command line front end.

Subcommands: run, sweep, validate, list-states, list-observables.  A
scenario is a YAML file selecting a prepared state, an inequality, and a
pipeline; the tool evaluates every correlator of the inequality through
that pipeline and prints a report.  Exit status 0 on success, 2 for a
configuration problem (reported with the offending field path), 3 for a
numerical failure such as an incompatible measurement sequence.

Scenario schema (all unknown keys are rejected):

    name: chsh-ideal            # required, any string
    state: chsh                 # library name, basis label of at most 4
                                #   letters like "00", or a list of at most
                                #   MAX_MODES (16) amplitudes (numbers or
                                #   strings such as "0.2+0.4j"), normalized
    inequality: CHSH            # CHSH | Mermin | PeresMermin | custom
    pipeline: ideal             # ideal | network_ideal | network_noisy | events
    seed: 7                     # optional, default 0; the run's only seed
    sample_count: 100000        # optional; events pipeline sample size, at
                                #   most 1e8 for the threshold detector and
                                #   2^63 - 1 for the loaded die
    base_pipeline: ideal        # optional; what the events pipeline samples
    observables:                # optional remapping of inequality labels
      ZI: ZX
    noise:                      # required for network_noisy
      splitter_imbalance_sigma: 0.01
      phase_jitter_sigma: 0.02
      leakage: 0.001
    events:                     # optional tuning of the events pipeline
      model: loaded_die         # loaded_die | threshold_detector
      threshold: 1.0
      threshold_spread: 0.25
    deviation_rate: 0.14        # optional fixed rate for the corrected bound
    audit: true                 # optional; measure the rate with the
                                #   compatibility suite instead (exclusive
                                #   with deviation_rate; built-in
                                #   inequalities only, all labels audited)
    csv: out.csv                # optional CSV output path (run and sweep)
    custom:                     # required iff inequality == custom
      name: my-expression       # optional
      terms:                    # at most MAX_CUSTOM_TERMS (256) terms
        - sequence: [ZI, IZ]    # one to MAX_SEQUENCE_LENGTH (3) labels
          sign: 1
      nc_bound: 2               # optional, default: exact enumeration over
                                #   at most 16 distinct labels
      quantum_max: 2.83         # optional, default: algebraic maximum
      algebraic_max: 4          # optional, default: sum of |sign|
    vary:                       # sweep subcommand only: parameter grid,
      state: [psi1, psi2]       #   dotted paths into this very schema
      noise.leakage: [0, 0.01]

CSV columns are fixed: scenario, state, inequality, pipeline, seed,
sequences, correlator_values, correlator_stderrs, value, stderr, nc_bound,
corrected_bound, quantum_max, algebraic_max, deviation_rate, verdict.
Multi-valued cells join their entries with ";" and label sequences with
"*".  Identical scenario and seed reproduce the CSV byte for byte.  The
WAVECORR_OUTPUT_DIR environment variable, when set, prefixes relative CSV
paths; nothing else reads the environment.
"""

from __future__ import annotations

import argparse
import cmath
import copy
import csv
import io
import itertools
import math
import os
import sys
import time
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np
import yaml

from wavecorr.contextuality import (
    AUDIT_SUITES,
    CompatibilityReport,
    INEQUALITIES,
    InequalityDefinition,
    InequalityReport,
    Provider,
    Request,
    classical_bound_oracle,
    compatibility_suite,
    format_compatibility_report,
    format_inequality_report,
    ideal_provider,
    inequality_requests,
    measure_inequality,
)
from wavecorr.events import (
    EVENT_MODELS,
    EventModelConfig,
    empirical_distribution,
    sample_events,
)
from wavecorr.network import (
    MAX_SEQUENCE_LENGTH,
    NetlistError,
    NoiseModel,
    PropagationError,
    ensemble_provider,
)
from wavecorr.outcomes import OutcomeDistribution
from wavecorr.reck import SynthesisError
from wavecorr.splitmix import keyed_substream
from wavecorr.wavecore import (
    IncompatibleObservablesError,
    WaveState,
    binary_labels,
    library_state_names,
    pauli_observable,
    state_library,
)

PIPELINES = ("ideal", "network_ideal", "network_noisy", "events")
BASE_PIPELINES = ("ideal", "network_ideal", "network_noisy")

CSV_COLUMNS = (
    "scenario",
    "state",
    "inequality",
    "pipeline",
    "seed",
    "sequences",
    "correlator_values",
    "correlator_stderrs",
    "value",
    "stderr",
    "nc_bound",
    "corrected_bound",
    "quantum_max",
    "algebraic_max",
    "deviation_rate",
    "verdict",
)

OUTPUT_DIR_ENV = "WAVECORR_OUTPUT_DIR"

# longest amplitude list a scenario may give: a state of d modes is measured
# with d x d observables and meshes of about 5 d^3 / 2 elements; the shipped
# scenarios use at most 8 modes
MAX_MODES = 16

# most distinct labels a custom inequality without an nc_bound may use: its
# bound is found by enumerating 2^labels outcome assignments
MAX_ENUMERATED_LABELS = 16

# most terms a custom inequality may have: each term is one measured circuit,
# and enumerating the bound costs 2^labels products per term (about 0.3 s for
# 256 terms over 16 labels)
MAX_CUSTOM_TERMS = 256

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

_NUMERICAL_ERRORS = (
    IncompatibleObservablesError,
    NetlistError,
    PropagationError,
    SynthesisError,
    ValueError,
    ArithmeticError,
)


class ConfigError(Exception):
    """Schema violation, reported with the path of the offending field."""

    def __init__(self, path: str, message: str) -> None:
        super().__init__(f"{path}: {message}" if path else message)
        self.path = path


# ----------------------------------------------------------------- scenario


@dataclass(frozen=True)
class Scenario:
    name: str
    state_name: str
    state: WaveState
    definition: InequalityDefinition
    pipeline: str
    seed: int = 0
    base_pipeline: str = "ideal"
    noise: NoiseModel | None = None
    events: EventModelConfig | None = None
    deviation_rate: float | None = None
    audit: bool = False
    csv_path: str | None = None


@dataclass(frozen=True)
class RunReport:
    scenario: Scenario
    inequality: InequalityReport
    compatibility: CompatibilityReport | None
    elapsed_seconds: float


def _require(data: Mapping, key: str, path: str):
    if key not in data:
        raise ConfigError(f"{path}.{key}" if path else key, "required field is missing")
    return data[key]


def _expect_map(value, path: str) -> Mapping:
    if not isinstance(value, Mapping):
        raise ConfigError(path, f"expected a mapping, got {type(value).__name__}")
    return value


def _expect_str(value, path: str) -> str:
    if not isinstance(value, str) or not value:
        raise ConfigError(path, f"expected a nonempty string, got {value!r}")
    return value


def _text_number_hint(value, integer: bool = False) -> str:
    """How to write a number that YAML read as text, such as 1e-3, or "".

    PyYAML reads a float only with a dot and, after an e, a signed
    exponent: 1e-3, 1e6 and 1.0e3 are strings, 1.0e-3 is a float.  A sign
    needs a digit before the dot: -.5 is a string, -0.5 a float.
    """
    if not isinstance(value, str):
        return ""
    try:
        number = float(value)
    except ValueError:
        return ""
    if not math.isfinite(number):
        return ""
    if integer and number.is_integer():
        written = str(int(number))
    else:
        mantissa, e, exponent = value.strip().lower().partition("e")
        if "." not in mantissa:
            mantissa += ".0"
        if mantissa.startswith(("-.", "+.")):
            mantissa = mantissa[0] + "0" + mantissa[1:]
        if e and exponent[0] not in "+-":
            exponent = "+" + exponent
        written = mantissa + e + exponent
    return f" (YAML reads {value} as text; write {written})"


def _expect_number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, f"expected a number, got {value!r}{_text_number_hint(value)}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(path, f"expected a finite number, got {value!r}")
    return number


def _expect_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        hint = _text_number_hint(value, integer=True)
        raise ConfigError(path, f"expected an integer, got {value!r}{hint}")
    return value


def _expect_bool(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(path, f"expected true or false, got {value!r}")
    return value


def _reject_unknown(data: Mapping, allowed: Sequence[str], path: str) -> None:
    for key in data:
        if key not in allowed:
            where = f"{path}.{key}" if path else str(key)
            raise ConfigError(where, f"unknown field; allowed: {', '.join(allowed)}")


def _parse_amplitude(raw, path: str) -> complex:
    if isinstance(raw, bool):
        raise ConfigError(path, "amplitude cannot be a boolean")
    if isinstance(raw, (int, float)):
        return complex(_expect_number(raw, path))
    if isinstance(raw, str):
        try:
            amp = complex(raw.replace(" ", ""))
        except ValueError:
            raise ConfigError(path, f"cannot parse amplitude {raw!r}") from None
        if not cmath.isfinite(amp):
            raise ConfigError(path, f"amplitude {raw!r} is not finite")
        return amp
    raise ConfigError(path, f"amplitude must be a number or a string, got {type(raw).__name__}")


def _parse_state(raw, path: str) -> tuple[str, WaveState]:
    if isinstance(raw, str):
        # a basis label of k letters names a state of 2^k modes
        if set(raw) <= {"0", "1"} and len(raw) > MAX_MODES.bit_length() - 1:
            raise ConfigError(
                path, f"basis label of {len(raw)} letters exceeds the cap of {MAX_MODES} modes"
            )
        try:
            return raw, state_library(raw)
        except KeyError:
            raise ConfigError(
                path, f"unknown state {raw!r}; see the list-states subcommand"
            ) from None
    if isinstance(raw, Sequence):
        if len(raw) > MAX_MODES:
            raise ConfigError(
                path, f"amplitude list length {len(raw)} exceeds the cap of {MAX_MODES} modes"
            )
        amps = np.array(
            [_parse_amplitude(x, f"{path}[{i}]") for i, x in enumerate(raw)],
            dtype=complex,
        )
        n = len(amps)
        if n < 2 or n & (n - 1):
            raise ConfigError(path, f"amplitude list length {n} is not a power of two >= 2")
        with np.errstate(over="ignore"):
            norm = np.linalg.norm(amps)
        if not math.isfinite(norm):
            raise ConfigError(path, "amplitude list norm overflows; scale the amplitudes down")
        if norm < 1e-12:
            raise ConfigError(path, "amplitude list has zero norm")
        k = n.bit_length() - 1
        return f"custom{n}", WaveState(binary_labels(k), amps / norm)
    raise ConfigError(path, f"expected a state name or amplitude list, got {type(raw).__name__}")


def _parse_custom_definition(raw, path: str) -> InequalityDefinition:
    data = _expect_map(raw, path)
    _reject_unknown(data, ("name", "terms", "nc_bound", "quantum_max", "algebraic_max"), path)
    terms_raw = _require(data, "terms", path)
    if not isinstance(terms_raw, Sequence) or not terms_raw:
        raise ConfigError(f"{path}.terms", "expected a nonempty list of terms")
    if len(terms_raw) > MAX_CUSTOM_TERMS:
        raise ConfigError(
            f"{path}.terms", f"{len(terms_raw)} terms exceed the cap of {MAX_CUSTOM_TERMS}"
        )
    terms = []
    for i, term in enumerate(terms_raw):
        tpath = f"{path}.terms[{i}]"
        tmap = _expect_map(term, tpath)
        _reject_unknown(tmap, ("sequence", "sign"), tpath)
        seq_raw = _require(tmap, "sequence", tpath)
        if not isinstance(seq_raw, Sequence) or isinstance(seq_raw, str) or not seq_raw:
            raise ConfigError(f"{tpath}.sequence", "expected a nonempty list of labels")
        if len(seq_raw) > MAX_SEQUENCE_LENGTH:
            raise ConfigError(
                f"{tpath}.sequence",
                f"{len(seq_raw)} labels exceed the cap of {MAX_SEQUENCE_LENGTH} measurements",
            )
        seq = tuple(_expect_str(lab, f"{tpath}.sequence[{j}]") for j, lab in enumerate(seq_raw))
        sign = _expect_number(tmap.get("sign", 1.0), f"{tpath}.sign")
        terms.append((seq, sign))
    algebraic = data.get("algebraic_max")
    if algebraic is None:
        algebraic = sum(abs(sign) for _, sign in terms)
    else:
        algebraic = _expect_number(algebraic, f"{path}.algebraic_max")
    nc = data.get("nc_bound")
    if nc is None:
        n_labels = len({lab for seq, _ in terms for lab in seq})
        if n_labels > MAX_ENUMERATED_LABELS:
            raise ConfigError(
                f"{path}.terms",
                f"{n_labels} distinct labels exceed the cap of {MAX_ENUMERATED_LABELS} "
                "for enumerating the noncontextual bound; give nc_bound instead",
            )
        probe = InequalityDefinition(
            name="probe", terms=tuple(terms), nc_bound=algebraic,
            quantum_max=algebraic, algebraic_max=algebraic,
        )
        nc = classical_bound_oracle(probe)
    else:
        nc = _expect_number(nc, f"{path}.nc_bound")
    quantum = data.get("quantum_max")
    quantum = algebraic if quantum is None else _expect_number(quantum, f"{path}.quantum_max")
    name = _expect_str(data.get("name", "custom"), f"{path}.name")
    try:
        return InequalityDefinition(
            name=name, terms=tuple(terms), nc_bound=float(nc),
            quantum_max=float(quantum), algebraic_max=float(algebraic),
        )
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from None


def _parse_noise(raw, path: str) -> NoiseModel:
    data = _expect_map(raw, path)
    allowed = ("splitter_imbalance_sigma", "phase_jitter_sigma", "leakage")
    _reject_unknown(data, allowed, path)
    kwargs = {key: _expect_number(data[key], f"{path}.{key}") for key in data}
    try:
        return NoiseModel(**kwargs)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from None


def _parse_events(raw, path: str) -> EventModelConfig:
    data = _expect_map(raw, path)
    allowed = ("model", "threshold", "threshold_spread")
    _reject_unknown(data, allowed, path)
    kwargs = {}
    if "model" in data:
        model = _expect_str(data["model"], f"{path}.model")
        if model not in EVENT_MODELS:
            raise ConfigError(f"{path}.model", f"expected one of {', '.join(EVENT_MODELS)}")
        kwargs["model"] = model
    for key in ("threshold", "threshold_spread"):
        if key in data:
            kwargs[key] = _expect_number(data[key], f"{path}.{key}")
    try:
        return EventModelConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from None


def _check_sample_count(
    count: int, events: EventModelConfig | None, path: str
) -> EventModelConfig | None:
    """The events config drawing ``count`` events, checked before anything is
    drawn: a count over the threshold detector's cap would exhaust memory.
    Pipelines without events reject only a count below 1."""
    if count < 1:
        raise ConfigError(path, "must be at least 1")
    if events is None:
        return None
    try:
        return replace(events, sample_count=count)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from None


def _substitute_labels(
    defn: InequalityDefinition, renames: Mapping[str, str], path: str
) -> InequalityDefinition:
    known = set(defn.observable_labels)
    for old in renames:
        if old not in known:
            raise ConfigError(
                f"{path}.{old}",
                f"{defn.name} does not measure {old!r}; its labels are "
                + ", ".join(defn.observable_labels),
            )
    new_terms = tuple(
        (tuple(renames.get(lab, lab) for lab in seq), sign) for seq, sign in defn.terms
    )
    return replace(defn, terms=new_terms)


_SCENARIO_KEYS = (
    "name",
    "state",
    "inequality",
    "pipeline",
    "seed",
    "sample_count",
    "base_pipeline",
    "observables",
    "noise",
    "events",
    "deviation_rate",
    "audit",
    "csv",
    "custom",
)


def scenario_from_dict(data: Mapping) -> Scenario:
    """Validate a raw mapping into a Scenario, reporting exact field paths."""
    data = _expect_map(data, "scenario")
    _reject_unknown(data, _SCENARIO_KEYS, "")

    name = _expect_str(_require(data, "name", ""), "name")
    state_name, state = _parse_state(_require(data, "state", ""), "state")

    kind = _expect_str(_require(data, "inequality", ""), "inequality")
    if kind == "custom":
        if "custom" not in data:
            raise ConfigError("custom", "inequality 'custom' needs a custom section")
        defn = _parse_custom_definition(data["custom"], "custom")
    elif kind in INEQUALITIES:
        if "custom" in data:
            raise ConfigError("custom", "custom section is only read when inequality is 'custom'")
        defn = INEQUALITIES[kind]
    else:
        raise ConfigError(
            "inequality",
            f"expected one of {', '.join(INEQUALITIES)}, custom; got {kind!r}",
        )

    written, clean = defn, {}  # the labels as given, and their remapping
    if "observables" in data:
        renames = _expect_map(data["observables"], "observables")
        clean = {
            _expect_str(k, f"observables.{k}"): _expect_str(v, f"observables.{k}")
            for k, v in renames.items()
        }
        defn = _substitute_labels(defn, clean, "observables")

    # every measurement label must be a valid operator of the state's size;
    # the width is checked first, since a label of k letters builds a
    # 2^k x 2^k matrix.  A bad label is reported where it was written: at
    # its remapping, or else in the custom section (built-in labels are valid)
    width = state.dim.bit_length() - 1
    for i, ((seq, _), (old_seq, _)) in enumerate(zip(defn.terms, written.terms)):
        for j, (lab, old) in enumerate(zip(seq, old_seq)):
            if len(lab) != width:
                raise ConfigError(
                    "state",
                    f"state {state_name!r} carries {width}-letter observables, "
                    f"but the inequality measures {lab!r}",
                )
            try:
                pauli_observable(lab)
            except ValueError as exc:
                where = f"observables.{old}" if old in clean else f"custom.terms[{i}].sequence[{j}]"
                raise ConfigError(where, f"label {lab!r}: {exc}") from None

    pipeline = _expect_str(_require(data, "pipeline", ""), "pipeline")
    if pipeline not in PIPELINES:
        raise ConfigError("pipeline", f"expected one of {', '.join(PIPELINES)}")
    base = _expect_str(data.get("base_pipeline", "ideal"), "base_pipeline")
    if base not in BASE_PIPELINES:
        raise ConfigError("base_pipeline", f"expected one of {', '.join(BASE_PIPELINES)}")
    if "base_pipeline" in data and pipeline != "events":
        raise ConfigError("base_pipeline", "only the events pipeline takes a base")

    noise = _parse_noise(data["noise"], "noise") if "noise" in data else None
    needs_noise = pipeline == "network_noisy" or (pipeline == "events" and base == "network_noisy")
    if needs_noise and noise is None:
        raise ConfigError("noise", "this pipeline perturbs the circuit; add a noise section")

    events = _parse_events(data["events"], "events") if "events" in data else None
    if events is not None and pipeline != "events":
        raise ConfigError("events", "events section is only read by the events pipeline")
    if pipeline == "events" and events is None:
        events = EventModelConfig()

    seed = _expect_int(data.get("seed", 0), "seed")
    sample_count = _expect_int(data.get("sample_count", 100_000), "sample_count")
    events = _check_sample_count(sample_count, events, "sample_count")

    rate = data.get("deviation_rate")
    if rate is not None:
        rate = _expect_number(rate, "deviation_rate")
        if not 0.0 <= rate <= 1.0:
            raise ConfigError("deviation_rate", "must lie in [0, 1]")
    audit = _expect_bool(data.get("audit", False), "audit")
    if audit and rate is not None:
        raise ConfigError("audit", "choose either audit or a fixed deviation_rate")
    if audit and kind == "custom":
        raise ConfigError("audit", "auditing needs one of the built-in inequalities")
    if audit:
        # the suite's rate corrects the bound only if the suite measured every label
        suite = AUDIT_SUITES[defn.name]
        for lab in defn.observable_labels:
            if not any(lab in seq for seq in suite.sequences):
                raise ConfigError("audit", f"the {suite.name} suite never measures {lab!r}")

    csv_path = data.get("csv")
    if csv_path is not None:
        csv_path = _expect_str(csv_path, "csv")

    return Scenario(
        name=name,
        state_name=state_name,
        state=state,
        definition=defn,
        pipeline=pipeline,
        seed=seed,
        base_pipeline=base,
        noise=noise,
        events=events,
        deviation_rate=rate,
        audit=audit,
        csv_path=csv_path,
    )


def load_scenario_dict(file_path: str) -> dict:
    try:
        with open(file_path, "r", encoding="utf-8") as fh:
            data = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError("", f"cannot read {file_path}: {exc}") from None
    except yaml.YAMLError as exc:
        raise ConfigError("", f"malformed YAML in {file_path}: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError("", f"{file_path} does not contain a mapping")
    return data


def load_scenario(file_path: str) -> Scenario:
    data = load_scenario_dict(file_path)
    if "vary" in data:
        raise ConfigError("vary", "this file defines a sweep; use the sweep subcommand")
    return scenario_from_dict(data)


# ---------------------------------------------------------------- pipelines


def event_provider(base: Provider, config: EventModelConfig) -> Provider:
    """Detection events drawn from a base provider's distributions: the one
    event-seed rule.

    Every member of ``base``'s answer to the request (state, labels) is
    sampled with ``config`` at the seed keyed_substream(config.seed,
    "events|<state>|<labels>"), the labels joined by "*", so a request's
    events depend on neither the batch nor the order requests come in.
    """

    def sample(state_name: str, labels: Sequence[str], members) -> list[OutcomeDistribution]:
        key = f"events|{state_name}|{'*'.join(labels)}"
        cfg = replace(config, seed=keyed_substream(config.seed, key))
        return [empirical_distribution(sample_events(m, cfg)) for m in members]

    def provide(requests: Sequence[Request]) -> list[list[OutcomeDistribution]]:
        return [sample(*request, members) for request, members in zip(requests, base(requests))]

    return provide


def make_provider(scenario: Scenario) -> Provider:
    """Batch distribution source implementing the scenario's pipeline.

    The provider accepts any library state name (the compatibility suites
    audit their own state sets) plus the scenario's possibly custom state.
    Every pipeline answers a request with a one-member list.  The ideal
    pipeline is contextuality.ideal_provider.  Circuit pipelines are
    network.ensemble_provider with one member at the scenario's seed
    (without noise for network_ideal), so each (state, sequence) circuit is
    fabricated from its own keyed seed, distinct circuits do not share
    fabrication errors, and reruns reproduce them bitwise.  The events
    pipeline is event_provider over its base pipeline, with the scenario's
    events config at the scenario's seed.
    """

    def resolve(state_name: str) -> WaveState:
        if state_name == scenario.state_name:
            return scenario.state
        return state_library(state_name)

    def prep_for(state_name: str) -> str | WaveState:
        try:
            state_library(state_name)
        except KeyError:
            return resolve(state_name)
        return state_name

    def through(pipeline: str) -> Provider:
        if pipeline == "ideal":
            return ideal_provider(resolve)
        noise = scenario.noise if pipeline == "network_noisy" else None
        return ensemble_provider(noise, scenario.seed, 1, prep_for)

    if scenario.pipeline != "events":
        return through(scenario.pipeline)
    events = replace(scenario.events, seed=scenario.seed)
    return event_provider(through(scenario.base_pipeline), events)


def run_scenario(scenario: Scenario) -> RunReport:
    """Evaluate the scenario's inequality, auditing first when asked.

    The run asks its pipeline once, for every distribution it reads: the
    first consumer to ask fills a table, keyed by request, with the audit
    suite's requests (when audited) followed by the inequality's, and both
    consumers read from it.  make_provider seeds every request from its own
    state and sequence, so a request's distributions do not depend on the
    batch it arrives in, and the table gives what separate calls would.
    """
    started = time.perf_counter()
    defn = scenario.definition
    requests = inequality_requests(defn, scenario.state_name)
    if scenario.audit:
        suite = AUDIT_SUITES[defn.name]
        requests = suite.requests + requests
    pipeline = make_provider(scenario)
    table: dict[Request, Sequence[OutcomeDistribution]] = {}

    def provider(asked: Sequence[Request]) -> list[Sequence[OutcomeDistribution]]:
        if not table:
            table.update(zip(requests, pipeline(requests), strict=True))
        return [table[name, tuple(labels)] for name, labels in asked]

    compat: CompatibilityReport | None = None
    rate = scenario.deviation_rate or 0.0
    if scenario.audit:
        compat = compatibility_suite(suite, provider)
        rate = compat.worst_case

    (report,) = measure_inequality(defn, provider, scenario.state_name, rate)
    elapsed = time.perf_counter() - started
    return RunReport(
        scenario=scenario, inequality=report, compatibility=compat, elapsed_seconds=elapsed
    )


# ------------------------------------------------------------------- output


def format_run_report(report: RunReport) -> str:
    sc = report.scenario
    lines = [
        f"scenario {sc.name}: state {sc.state_name}, pipeline {sc.pipeline}, seed {sc.seed}",
    ]
    if sc.pipeline == "events":
        lines[0] += f", {sc.events.sample_count} events per sequence via {sc.events.model}"
    out = "\n".join(lines) + "\n" + format_inequality_report(report.inequality)
    if report.compatibility is not None:
        out += format_compatibility_report(report.compatibility)
    out += f"elapsed: {report.elapsed_seconds:.3f} s\n"
    return out


def _g(x: float) -> str:
    return "{:.17g}".format(x)


def csv_row(report: RunReport, scenario_label: str | None = None) -> list[str]:
    sc = report.scenario
    ineq = report.inequality
    defn = ineq.definition
    return [
        scenario_label or sc.name,
        sc.state_name,
        defn.name,
        sc.pipeline,
        str(sc.seed),
        ";".join("*".join(c.labels) for c in ineq.terms),
        ";".join(_g(c.value) for c in ineq.terms),
        ";".join(_g(c.stderr) for c in ineq.terms),
        _g(ineq.value),
        _g(ineq.stderr),
        _g(defn.nc_bound),
        _g(ineq.corrected_bound),
        _g(defn.quantum_max),
        _g(defn.algebraic_max),
        _g(ineq.deviation_rate),
        ineq.verdict,
    ]


def render_csv(rows: Sequence[Sequence[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows(rows)
    return buf.getvalue()


def _output_path(path: str) -> str:
    base = os.environ.get(OUTPUT_DIR_ENV)
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _write_csv(path: str, text: str) -> str:
    target = _output_path(path)
    parent = os.path.dirname(target)
    try:
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(target, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError("csv", f"cannot write {target}: {exc.strerror or exc}") from None
    return target


# -------------------------------------------------------------------- sweep


def sweep_points(file_path: str, seed: int | None = None) -> list[tuple[Scenario, str]]:
    """Each grid point of the file's vary section, parsed, and its row label, in grid order."""
    data = load_scenario_dict(file_path)
    vary = data.pop("vary", None)
    if vary is None:
        raise ConfigError("vary", "sweep needs a vary section mapping field paths to value lists")
    vary = _expect_map(vary, "vary")
    if not vary:
        raise ConfigError("vary", "the grid is empty")
    axes: list[tuple[str, list]] = []
    for key, values in vary.items():
        if not isinstance(values, Sequence) or isinstance(values, str) or not values:
            raise ConfigError(f"vary.{key}", "expected a nonempty list of values")
        if key == "csv":
            raise ConfigError("vary.csv", "a sweep writes one CSV; set csv outside vary")
        if key == "seed" and seed is not None:
            raise ConfigError("vary.seed", "the grid varies the seed; --seed would replace it")
        axes.append((str(key), list(values)))

    # every grid point is parsed before any runs, so a bad one is reported at once
    points: list[tuple[Scenario, str]] = []
    for combo in itertools.product(*(vals for _, vals in axes)):
        point = copy.deepcopy(data)
        for (key, _), value in zip(axes, combo):
            _set_dotted(point, key, value)
        scenario = scenario_from_dict(point)
        if seed is not None:
            scenario = replace(scenario, seed=seed)
        label = "{}[{}]".format(
            scenario.name,
            ", ".join(f"{key}={_plain(value)}" for (key, _), value in zip(axes, combo)),
        )
        points.append((scenario, label))
    return points


def sweep_rows(points: Sequence[tuple[Scenario, str]]) -> list[list[str]]:
    """One CSV row per grid point, run in order."""
    return [csv_row(run_scenario(scenario), scenario_label=label) for scenario, label in points]


def _plain(value) -> str:
    if isinstance(value, float):
        return "{:g}".format(value)
    return str(value)


def _set_dotted(data: dict, dotted: str, value) -> None:
    keys = dotted.split(".")
    node = data
    for key in keys[:-1]:
        child = node.get(key)
        if child is None:
            child = node[key] = {}
        if not isinstance(child, dict):
            raise ConfigError("vary", f"path {dotted!r} passes through the scalar field {key!r}")
        node = child
    node[keys[-1]] = value


# ----------------------------------------------------------------- commands


def cmd_run(args) -> int:
    scenario = load_scenario(args.scenario)
    if args.seed is not None:
        scenario = replace(scenario, seed=args.seed)
    if args.samples is not None:
        scenario = replace(
            scenario, events=_check_sample_count(args.samples, scenario.events, "sample_count")
        )
    report = run_scenario(scenario)
    sys.stdout.write(format_run_report(report))
    csv_path = args.csv or scenario.csv_path
    if csv_path:
        target = _write_csv(csv_path, render_csv([csv_row(report)]))
        sys.stdout.write(f"wrote {target}\n")
    return EXIT_OK


def cmd_sweep(args) -> int:
    points = sweep_points(args.scenario, seed=args.seed)
    text = render_csv(sweep_rows(points))
    # csv is no grid axis, so every point has the file's path
    csv_path = args.csv or points[0][0].csv_path
    if csv_path:
        target = _write_csv(csv_path, text)
        sys.stdout.write(f"wrote {target} ({len(points)} rows)\n")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_validate(args) -> int:
    scenario = load_scenario(args.scenario)
    sys.stdout.write(
        f"scenario {scenario.name!r} is valid: state {scenario.state_name}, "
        f"{scenario.definition.name} via {scenario.pipeline}\n"
    )
    return EXIT_OK


def cmd_list_states(args) -> int:
    for name in library_state_names():
        state = state_library(name)
        amps = np.round(state.amplitudes, 4)
        sys.stdout.write(f"{name:10s} dim {state.dim}: {np.array2string(amps, separator=', ')}\n")
    sys.stdout.write('any binary string ("01", "110", ...) is the matching basis state\n')
    return EXIT_OK


def cmd_list_observables(args) -> int:
    for defn in INEQUALITIES.values():
        sys.stdout.write(
            f"{defn.name}: noncontextual {defn.nc_bound:g}, "
            f"quantum {defn.quantum_max:g}, algebraic {defn.algebraic_max:g}\n"
        )
        for seq, sign in defn.terms:
            sys.stdout.write(f"  {'+' if sign > 0 else '-'} <{'*'.join(seq)}>\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wavecorr",
        description="classical wave-circuit correlation experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="evaluate one scenario file")
    run_p.add_argument("scenario", help="path to a scenario YAML file")
    run_p.add_argument("--seed", type=int, default=None, help="replace the scenario seed")
    run_p.add_argument("--samples", type=int, default=None, help="replace sample_count")
    run_p.add_argument("--csv", default=None, help="also write a one-row CSV here")
    run_p.set_defaults(func=cmd_run)

    sweep_p = sub.add_parser("sweep", help="run a scenario file's vary grid")
    sweep_p.add_argument("scenario", help="path to a scenario YAML file with a vary section")
    sweep_p.add_argument("--seed", type=int, default=None, help="replace the scenario seed")
    sweep_p.add_argument("--csv", default=None, help="write the grid CSV here instead of stdout")
    sweep_p.set_defaults(func=cmd_sweep)

    val_p = sub.add_parser("validate", help="check a scenario file against the schema")
    val_p.add_argument("scenario")
    val_p.set_defaults(func=cmd_validate)

    states_p = sub.add_parser("list-states", help="show the named state library")
    states_p.set_defaults(func=cmd_list_states)

    obs_p = sub.add_parser("list-observables", help="show the built-in inequalities")
    obs_p.set_defaults(func=cmd_list_observables)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG
    except _NUMERICAL_ERRORS as exc:
        sys.stderr.write(f"run failed: {exc}\n")
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())

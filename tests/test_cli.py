"""Command line behavior: schema checks, exit codes, pipelines, CSV output."""

import glob
import math
import os
import subprocess
import sys
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
import yaml

from wavecorr import cli, contextuality, network, reck, wavecore
from wavecorr.cli import (
    ConfigError,
    load_scenario,
    main,
    make_provider,
    run_scenario,
    scenario_from_dict,
    sweep_points,
    sweep_rows,
)
from wavecorr.contextuality import INEQUALITIES, correlator
from wavecorr.events import MAX_THRESHOLD_SAMPLES
from wavecorr.reck import SynthesisError

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), "..", "scenarios")

MINIMAL = {
    "name": "t",
    "state": "chsh",
    "inequality": "CHSH",
    "pipeline": "ideal",
}


def write_yaml(tmp_path, data, name="s.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(data))
    return str(path)


def test_minimal_scenario_parses():
    sc = scenario_from_dict(MINIMAL)
    assert sc.name == "t"
    assert sc.seed == 0
    assert sc.definition is INEQUALITIES["CHSH"]


@pytest.mark.parametrize(
    "patch,path_fragment",
    [
        ({"pipeline": "warp"}, "pipeline"),
        ({"state": "nosuch"}, "state"),
        ({"inequality": "CHSZ"}, "inequality"),
        ({"seed": "seven"}, "seed"),
        ({"sample_count": 0}, "sample_count"),
        ({"deviation_rate": 1.5}, "deviation_rate"),
        ({"frobnicate": 1}, "frobnicate"),
        ({"noise": {"leakage": "wet"}}, "noise.leakage"),
        ({"noise": {"seed": 4}}, "noise.seed"),
        ({"observables": {"YY": "XX"}}, "observables.YY"),
        ({"audit": True, "deviation_rate": 0.1}, "audit"),
        ({"base_pipeline": "ideal"}, "base_pipeline"),
        ({"events": {"model": "loaded_die"}}, "events"),
        ({"custom": {"terms": []}}, "custom"),
        # a malformed label is reported where it was written
        (
            {
                "inequality": "custom",
                "custom": {"terms": [{"sequence": ["ZI"]}, {"sequence": ["IZ", "zi"]}]},
            },
            "custom.terms[1].sequence[1]",
        ),
        ({"observables": {"IX": "ix"}}, "observables.IX"),
    ],
)
def test_schema_violations_name_the_field(patch, path_fragment):
    data = dict(MINIMAL, **patch)
    with pytest.raises(ConfigError) as err:
        scenario_from_dict(data)
    assert path_fragment in str(err.value)


def test_missing_noise_for_noisy_pipeline():
    data = dict(MINIMAL, pipeline="network_noisy")
    with pytest.raises(ConfigError, match="noise"):
        scenario_from_dict(data)


def test_state_width_must_match_inequality():
    data = dict(MINIMAL, state="ghz")
    with pytest.raises(ConfigError, match="state"):
        scenario_from_dict(data)


def test_amplitude_state_is_normalized():
    data = dict(MINIMAL, state=[1, 0, 0, "1"])
    sc = scenario_from_dict(data)
    assert sc.state_name == "custom4"
    assert math.isclose(sc.state.norm2, 1.0, abs_tol=1e-12)
    assert sc.state.amplitudes[0] == pytest.approx(1 / math.sqrt(2))


@pytest.mark.parametrize(
    "state,fragment",
    [
        ([1, 0, 0], "power of two"),
        ([0, 0], "zero norm"),
        ([1, "x"], "state[1]"),
        # finite entries whose norm overflows, under the RuntimeWarning filter
        ([1e308, 1e308, 0, 0], "state: amplitude list norm overflows"),
    ],
)
def test_bad_amplitude_lists(state, fragment):
    with pytest.raises(ConfigError, match=None) as err:
        scenario_from_dict(dict(MINIMAL, state=state))
    assert fragment in str(err.value)


def test_mode_count_is_capped_while_parsing(tmp_path, capsys):
    over = [1] + [0] * (2 * cli.MAX_MODES - 1)
    data = dict(MINIMAL, state=over)
    with pytest.raises(ConfigError) as err:
        scenario_from_dict(data)
    assert err.value.path == "state"
    assert main(["run", write_yaml(tmp_path, data)]) == 2
    assert "config error: state:" in capsys.readouterr().err
    # a list at the cap is a state
    name, state = cli._parse_state([1] + [0] * (cli.MAX_MODES - 1), "state")
    assert (name, state.dim) == (f"custom{cli.MAX_MODES}", cli.MAX_MODES)


def test_basis_label_length_is_capped_while_parsing(tmp_path, capsys, monkeypatch):
    # a label at the cap is a state of MAX_MODES modes
    name, state = cli._parse_state("0000", "state")
    assert (name, state.dim) == ("0000", cli.MAX_MODES)

    def no_library(name):
        raise AssertionError(f"a state of 2^{len(name)} modes would be built")

    monkeypatch.setattr(cli, "state_library", no_library)
    for length in (5, 40):
        data = dict(MINIMAL, state="0" * length)
        with pytest.raises(ConfigError) as err:
            scenario_from_dict(data)
        assert err.value.path == "state"
        assert main(["validate", write_yaml(tmp_path, data)]) == 2
        assert "config error: state:" in capsys.readouterr().err


def test_over_long_label_is_rejected_before_its_matrix_is_built(tmp_path, capsys, monkeypatch):
    real = cli.pauli_observable

    def small_only(spec, *args, **kwargs):
        assert len(spec) <= 4, f"a {len(spec)}-letter operator would be built"
        return real(spec, *args, **kwargs)

    monkeypatch.setattr(cli, "pauli_observable", small_only)
    data = dict(MINIMAL, observables={"ZI": "Z" * 40})
    with pytest.raises(ConfigError) as err:
        scenario_from_dict(data)
    assert err.value.path == "state"
    assert main(["run", write_yaml(tmp_path, data)]) == 2
    assert "config error: state:" in capsys.readouterr().err


def test_observable_override_rewrites_terms():
    data = dict(MINIMAL, observables={"ZI": "ZZ"})
    sc = scenario_from_dict(data)
    assert ("ZZ", "IZ") in sc.definition.sequences
    assert all("ZI" not in seq for seq in sc.definition.sequences)


def test_custom_inequality_defaults_from_enumeration():
    data = dict(
        MINIMAL,
        inequality="custom",
        custom={
            "terms": [
                {"sequence": ["ZI", "IZ"], "sign": 1},
                {"sequence": ["XI", "IX"], "sign": 1},
            ]
        },
    )
    sc = scenario_from_dict(data)
    assert sc.definition.algebraic_max == 2.0
    assert sc.definition.quantum_max == 2.0
    # both terms can hit +1 simultaneously under a deterministic assignment
    assert sc.definition.nc_bound == 2.0


def test_custom_term_field_paths():
    data = dict(
        MINIMAL,
        inequality="custom",
        custom={"terms": [{"sequence": "ZI", "sign": 1}]},
    )
    with pytest.raises(ConfigError, match=r"custom.terms\[0\].sequence"):
        scenario_from_dict(data)


def test_custom_label_count_is_capped_before_enumeration(tmp_path, capsys, monkeypatch):
    def no_enumeration(*args, **kwargs):
        raise AssertionError("the cap must reject the labels before the bound is enumerated")

    monkeypatch.setattr(cli, "classical_bound_oracle", no_enumeration)
    terms = [{"sequence": [f"junk{i}"]} for i in range(cli.MAX_ENUMERATED_LABELS + 1)]
    data = dict(MINIMAL, inequality="custom", custom={"terms": terms})
    with pytest.raises(ConfigError) as err:
        scenario_from_dict(data)
    assert err.value.path == "custom.terms"
    for command in ("run", "validate"):
        assert main([command, write_yaml(tmp_path, data)]) == 2
        assert "config error: custom.terms:" in capsys.readouterr().err

    # a given bound needs no enumeration, so the labels reach their own check
    bounded = dict(data, custom={"terms": terms, "nc_bound": 1})
    with pytest.raises(ConfigError) as err:
        scenario_from_dict(bounded)
    assert err.value.path == "state"

    # at the cap the bound is enumerated
    calls = []
    monkeypatch.setattr(cli, "classical_bound_oracle", lambda defn: calls.append(defn) or 0.0)
    with pytest.raises(ConfigError) as err:
        scenario_from_dict(dict(data, custom={"terms": terms[:-1]}))
    assert len(calls) == 1
    assert err.value.path == "state"


def test_custom_term_count_is_capped_before_enumeration(tmp_path, capsys, monkeypatch):
    def no_enumeration(*args, **kwargs):
        raise AssertionError("the cap must reject the terms before the bound is enumerated")

    monkeypatch.setattr(cli, "classical_bound_oracle", no_enumeration)
    labels = ("ZI", "IZ", "XI", "IX")
    terms = [{"sequence": [labels[i % 4]]} for i in range(cli.MAX_CUSTOM_TERMS + 1)]
    data = dict(MINIMAL, inequality="custom", custom={"terms": terms})
    for custom in ({"terms": terms}, {"terms": terms, "nc_bound": 1}):
        with pytest.raises(ConfigError) as err:
            scenario_from_dict(dict(data, custom=custom))
        assert err.value.path == "custom.terms"
    for command in ("run", "validate"):
        assert main([command, write_yaml(tmp_path, data)]) == 2
        assert "config error: custom.terms:" in capsys.readouterr().err

    # at the cap the bound is enumerated
    monkeypatch.setattr(cli, "classical_bound_oracle", lambda defn: 0.0)
    sc = scenario_from_dict(dict(data, custom={"terms": terms[:-1]}))
    assert len(sc.definition.terms) == cli.MAX_CUSTOM_TERMS


@pytest.mark.parametrize("name", sorted(INEQUALITIES))
def test_custom_inequality_named_after_a_built_in_is_not_audited(name, tmp_path, capsys):
    data = _custom(name=name)
    assert scenario_from_dict(data).definition.name == name
    assert main(["run", write_yaml(tmp_path, dict(data, audit=True))]) == 2
    assert capsys.readouterr().err.startswith("config error: audit: ")


def test_audit_must_measure_every_label_the_run_measures(tmp_path, capsys, monkeypatch):
    def no_provider(scenario):
        raise AssertionError("a provider was made for a run its audit does not cover")

    monkeypatch.setattr(cli, "make_provider", no_provider)
    # no pair-suite sequence measures YI, so the suite's rate would not cover it
    remapped = dict(MINIMAL, observables={"ZI": "YI"}, audit=True)
    assert main(["run", write_yaml(tmp_path, remapped)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: audit: ")
    assert "pair suite" in err and "'YI'" in err
    # a remap onto a label the suite measures is still audited
    assert scenario_from_dict(dict(remapped, observables={"ZI": "ZZ"})).audit


def test_run_exit_codes(tmp_path, capsys):
    good = write_yaml(tmp_path, MINIMAL)
    assert main(["run", good]) == 0
    out = capsys.readouterr().out
    assert "violates NC bound 2, saturates quantum max" in out

    assert main(["run", str(tmp_path / "absent.yaml")]) == 2
    assert "config error" in capsys.readouterr().err

    bad = write_yaml(tmp_path, dict(MINIMAL, seed="x"), name="bad.yaml")
    assert main(["run", bad]) == 2

    # measuring ZI then XI then ZI again is not a compatible sequence
    clash = write_yaml(
        tmp_path,
        dict(
            MINIMAL,
            inequality="custom",
            custom={"terms": [{"sequence": ["ZI", "XI", "ZI"], "sign": 1}]},
        ),
        name="clash.yaml",
    )
    assert main(["run", clash]) == 3
    assert "run failed" in capsys.readouterr().err


def fail_nulling(monkeypatch):
    # no mesh meets a negative round-trip tolerance; cached plans would skip it
    monkeypatch.setattr(reck, "ROUNDTRIP_TOL", -1.0)
    monkeypatch.setattr(network, "_plan_cache", {})
    with pytest.raises(SynthesisError):
        reck.decompose(np.eye(2))


def fail_completion(monkeypatch):
    # no Gram-Schmidt step extends a NaN state to an orthonormal basis
    nan_state = SimpleNamespace(amplitudes=np.full(4, np.nan), dim=4)
    monkeypatch.setattr(network, "state_library", lambda name: nan_state)
    with pytest.raises(SynthesisError):
        network._complete_to_unitary(nan_state.amplitudes)


@pytest.mark.parametrize("fault,message", [
    (fail_nulling, "nulling failed"), (fail_completion, "failed to complete"),
])
def test_synthesis_failures_exit_numerical(fault, message, tmp_path, capsys, monkeypatch):
    path = write_yaml(tmp_path, dict(MINIMAL, state="psi1", pipeline="network_ideal"))
    fault(monkeypatch)
    assert main(["run", path]) == 3
    assert f"run failed: {message}" in capsys.readouterr().err


def _custom(**fields):
    terms = [{"sequence": ["ZI", "IZ"], "sign": fields.pop("sign", 1)}]
    return dict(MINIMAL, inequality="custom", custom=dict(fields, terms=terms))


# every number a scenario can give, by field path: value -> scenario
NUMBER_FIELDS = {
    "noise.splitter_imbalance_sigma": lambda x: dict(
        MINIMAL, pipeline="network_noisy", noise={"splitter_imbalance_sigma": x}
    ),
    "noise.phase_jitter_sigma": lambda x: dict(
        MINIMAL, pipeline="network_noisy", noise={"phase_jitter_sigma": x}
    ),
    "noise.leakage": lambda x: dict(MINIMAL, pipeline="network_noisy", noise={"leakage": x}),
    "events.threshold": lambda x: dict(
        MINIMAL, pipeline="events", events={"model": "threshold_detector", "threshold": x}
    ),
    "events.threshold_spread": lambda x: dict(
        MINIMAL, pipeline="events", events={"model": "threshold_detector", "threshold_spread": x}
    ),
    "deviation_rate": lambda x: dict(MINIMAL, deviation_rate=x),
    "custom.terms[0].sign": lambda x: _custom(sign=x),
    "custom.nc_bound": lambda x: _custom(nc_bound=x),
    "custom.quantum_max": lambda x: _custom(quantum_max=x),
    "custom.algebraic_max": lambda x: _custom(algebraic_max=x),
    "state[0]": lambda x: dict(MINIMAL, state=[x, 1, 0, 0]),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("path", sorted(NUMBER_FIELDS))
def test_non_finite_numbers_are_config_errors(path, value, tmp_path, capsys):
    scenario = write_yaml(tmp_path, NUMBER_FIELDS[path](value))
    assert main(["run", scenario]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {path}: ")


@pytest.mark.parametrize("fields", [{}, {"nc_bound": 1}], ids=["enumerated", "nc_bound"])
@pytest.mark.parametrize("command", ["run", "validate"])
def test_a_zero_custom_sign_is_a_config_error(command, fields, tmp_path, capsys):
    # with or without an nc_bound, which decides whether the bound is enumerated
    assert main([command, write_yaml(tmp_path, _custom(sign=0, **fields))]) == 2
    assert capsys.readouterr().err == (
        "config error: custom.terms[0].sign: expected a nonzero number\n"
    )


@pytest.mark.parametrize("path,value", [
    ("state[1]", "nan"), ("state[1]", "1+infj"),
    pytest.param("custom.terms[0].sign", 10**400, id="custom.terms[0].sign-10**400"),
])
def test_non_finite_strings_and_huge_integers_are_config_errors(path, value, tmp_path, capsys):
    data = _custom(sign=value) if path.startswith("custom") else dict(MINIMAL, state=[1, value, 0, 0])
    assert main(["run", write_yaml(tmp_path, data)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {path}: ")


@pytest.mark.parametrize(
    "path,text,written",
    [
        ("noise.phase_jitter_sigma", "1e-3", "1.0e-3"),
        ("noise.phase_jitter_sigma", "1e6", "1.0e+6"),
        ("noise.phase_jitter_sigma", "1.0e3", "1.0e+3"),
        ("noise.phase_jitter_sigma", "-.5e3", "-0.5e+3"),
        ("noise.phase_jitter_sigma", "-.5", "-0.5"),
        ("seed", "1e3", "1000"),
    ],
)
def test_numbers_yaml_reads_as_text_get_a_hint(path, text, written, tmp_path, capsys):
    # PyYAML reads a float only with a dot and a signed exponent
    assert yaml.safe_load(f"x: {text}")["x"] == text
    assert yaml.safe_load(f"x: {written}")["x"] == float(text)
    scenario = tmp_path / "s.yaml"
    scenario.write_text(
        "name: t\nstate: chsh\ninequality: CHSH\npipeline: network_noisy\n"
        + (f"seed: {text}\nnoise: {{phase_jitter_sigma: 0.01}}\n" if path == "seed"
           else f"noise: {{phase_jitter_sigma: {text}}}\n")
    )
    assert main(["run", str(scenario)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {path}: expected ")
    assert f"(YAML reads {text} as text; write {written})" in err


@pytest.mark.parametrize("circuit,field,width", [
    pytest.param(MINIMAL, "splitter_imbalance_sigma", 1.0e308, id="splitter_imbalance_sigma"),
    pytest.param(MINIMAL, "phase_jitter_sigma", 1.0e308, id="phase_jitter_sigma"),
    # finite for unit segments: their draws stay below 3.46 sigma, and the
    # float range ends at 8.99 sigma; the ghz circuits' phase segments of
    # length up to 43 draw sqrt(length) times the width, up to 14.4 sigma
    pytest.param(
        dict(MINIMAL, state="ghz", inequality="Mermin"), "phase_jitter_sigma", 2.0e307,
        id="phase_jitter_sigma-run-scaled",
    ),
])
def test_noise_draws_that_overflow_are_numerical_failures(circuit, field, width, tmp_path):
    # sigma * normal overflows to inf, and cos/sin of inf is NaN; that NaN must
    # not reach the correlators as a verdict, and the overflow warns nothing,
    # so it ends as a numerical failure even with RuntimeWarnings as errors
    data = dict(circuit, pipeline="network_noisy", noise={field: width})
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "wavecorr.cli", "run",
         write_yaml(tmp_path, data)],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 3
    assert proc.stderr.startswith("run failed: the leaf intensities sum to nan")
    assert "RuntimeWarning" not in proc.stderr and "Traceback" not in proc.stderr
    assert "verdict" not in proc.stdout


def test_vary_section_rejected_by_run(tmp_path, capsys):
    data = dict(MINIMAL, vary={"seed": [1, 2]})
    path = write_yaml(tmp_path, data)
    assert main(["run", path]) == 2
    assert "sweep" in capsys.readouterr().err


def test_validate_subcommand(tmp_path, capsys):
    path = write_yaml(tmp_path, MINIMAL)
    assert main(["validate", path]) == 0
    assert "valid" in capsys.readouterr().out
    bad = write_yaml(tmp_path, dict(MINIMAL, pipeline="nope"), name="b.yaml")
    assert main(["validate", bad]) == 2


def test_list_subcommands(capsys):
    assert main(["list-states"]) == 0
    out = capsys.readouterr().out
    for name in ("singlet", "chsh", "ghz", "psi11"):
        assert name in out
    assert main(["list-observables"]) == 0
    out = capsys.readouterr().out
    assert "PeresMermin" in out and "Mermin" in out and "CHSH" in out
    assert "- <ZZ*XX*YY>" in out


def test_seed_and_samples_flags(tmp_path, capsys):
    data = dict(MINIMAL, pipeline="events", sample_count=100)
    path = write_yaml(tmp_path, data)
    assert main(["run", path, "--seed", "9", "--samples", "50"]) == 0
    assert "seed 9, 50 events per sequence" in capsys.readouterr().out
    assert main(["run", path, "--samples", "0"]) == 2


def test_threshold_sample_count_is_capped_while_parsing(tmp_path, capsys, monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("the cap must reject the scenario before any event is drawn")

    monkeypatch.setattr(cli, "sample_events", no_sampling)
    over = MAX_THRESHOLD_SAMPLES + 1
    threshold = {"model": "threshold_detector"}
    data = dict(MINIMAL, pipeline="events", events=threshold, sample_count=over)
    with pytest.raises(ConfigError) as err:
        scenario_from_dict(data)
    assert err.value.path == "sample_count"
    assert main(["run", write_yaml(tmp_path, data)]) == 2
    assert "config error: sample_count:" in capsys.readouterr().err

    # the --samples override meets the same cap
    ok = write_yaml(tmp_path, dict(data, sample_count=10), name="ok.yaml")
    assert main(["run", ok, "--samples", str(over)]) == 2
    assert "config error: sample_count:" in capsys.readouterr().err

    # the cap itself is accepted, and the loaded die is not capped
    assert scenario_from_dict(dict(data, sample_count=over - 1)).events.sample_count == over - 1
    die = dict(data, events={"model": "loaded_die"})
    assert scenario_from_dict(die).events.sample_count == over


def test_loaded_die_sample_count_is_capped_at_int64(tmp_path, capsys):
    over = 2**63
    data = dict(MINIMAL, pipeline="events", sample_count=over)
    with pytest.raises(ConfigError) as err:
        scenario_from_dict(data)
    assert err.value.path == "sample_count"
    assert main(["validate", write_yaml(tmp_path, data)]) == 2
    assert "config error: sample_count:" in capsys.readouterr().err

    ok = write_yaml(tmp_path, dict(data, sample_count=10), name="ok.yaml")
    assert main(["run", ok, "--samples", str(over)]) == 2
    assert "config error: sample_count:" in capsys.readouterr().err
    assert scenario_from_dict(dict(data, sample_count=over - 1)).events.sample_count == over - 1


def test_csv_run_is_bitwise_reproducible(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv(cli.OUTPUT_DIR_ENV, raising=False)
    data = dict(
        MINIMAL,
        pipeline="events",
        sample_count=20_000,
        seed=13,
        csv=str(tmp_path / "a.csv"),
    )
    path = write_yaml(tmp_path, data)
    assert main(["run", path]) == 0
    first = (tmp_path / "a.csv").read_bytes()
    assert main(["run", path, "--csv", str(tmp_path / "b.csv")]) == 0
    second = (tmp_path / "b.csv").read_bytes()
    assert first == second
    header = first.decode().splitlines()[0]
    assert header == ",".join(cli.CSV_COLUMNS)
    capsys.readouterr()


AUDIT_SEQUENCES = "ZI*IZ*ZZ;IX*XI*XX;ZX*XZ*YY;ZI*IX*ZX;IZ*XI*XZ;ZZ*XX*YY"

# (correlator values, value, corrected bound, deviation rate) of the audited
# noisy grid scenario; every digit comes from the noise draws of 214 circuits
PINNED_AUDIT_ROWS = {
    0: (
        "1;0.99552323788023911;0.98825416405982547;0.99110635175778072;"
        "0.99872234985348629;-0.99790020867808671",
        "5.9715063122294181", "4.2015150850572471", "0.1007575425286234", "4.20152",
    ),
    3: (
        "1;0.99415012643361744;0.99717517455960425;0.99154255832442972;"
        "0.99689691508213607;-0.99791811130250929",
        "5.977682885702297", "4.1882943457510029", "0.094147172875501672", "4.18829",
    ),
    7: (
        "1;0.98980461483131355;0.99523439526598545;0.9980444066705545;"
        "0.99908643434312328;-0.996239452749627",
        "5.9784093038606043", "4.1900358725724258", "0.095017936286212801", "4.19004",
    ),
}


@pytest.mark.parametrize("seed", sorted(PINNED_AUDIT_ROWS))
def test_audit_csv_bytes_are_pinned(seed, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv(cli.OUTPUT_DIR_ENV, raising=False)
    path = os.path.join(SCENARIO_DIR, "pm_noisy_audit.yaml")
    target = tmp_path / "audit.csv"
    assert main(["run", path, "--seed", str(seed), "--csv", str(target)]) == 0
    capsys.readouterr()
    values, value, corrected, rate, short = PINNED_AUDIT_ROWS[seed]
    row = (
        f"pm-noisy-audit,psi1,PeresMermin,network_noisy,{seed},{AUDIT_SEQUENCES},"
        f"{values},0;0;0;0;0;0,{value},0,4,{corrected},6,6,{rate},"
        f'"violates NC bound 4, violates corrected bound {short}"\n'
    )
    assert target.read_text() == ",".join(cli.CSV_COLUMNS) + "\n" + row


def run_stdout(capsys, *argv):
    """Stdout of ``wavecorr <argv>`` without the timing line."""
    assert main(list(argv)) == 0
    out = capsys.readouterr().out
    return "".join(line for line in out.splitlines(True) if not line.startswith("elapsed:"))


PM_IDEAL_AUDIT = {
    "name": "pm-ideal-audit",
    "state": "psi5",
    "inequality": "PeresMermin",
    "pipeline": "ideal",
    "audit": True,
}
PM_EVENTS_AUDIT = {
    "name": "pm-events-audit",
    "state": "psi7",
    "inequality": "PeresMermin",
    "pipeline": "events",
    "base_pipeline": "ideal",
    "seed": 11,
    "sample_count": 200_000,
    "events": {"model": "loaded_die"},
    "audit": True,
}

# the pair suite audits CHSH and the triple suite Mermin, on the hardware of
# scenarios/pm_noisy_audit.yaml
CHSH_NOISY_AUDIT = {
    "name": "chsh-noisy-audit",
    "state": "chsh",
    "inequality": "CHSH",
    "pipeline": "network_noisy",
    "seed": 5,
    "noise": {"splitter_imbalance_sigma": 0.008, "phase_jitter_sigma": 0.012, "leakage": 0.001},
    "audit": True,
}
MERMIN_NOISY_AUDIT = dict(
    CHSH_NOISY_AUDIT, name="mermin-noisy-audit", state="ghz", inequality="Mermin"
)
AUDITED_SCENARIOS = {
    "ideal": PM_IDEAL_AUDIT,
    "events": PM_EVENTS_AUDIT,
    "chsh": CHSH_NOISY_AUDIT,
    "mermin": MERMIN_NOISY_AUDIT,
}

_GRID_TERMS = (
    "  + ZI*IZ*ZZ  +1.000000 +/- 0.000000\n"
    "  + IX*XI*XX  +1.000000 +/- 0.000000\n"
    "  + ZX*XZ*YY  +1.000000 +/- 0.000000\n"
    "  + ZI*IX*ZX  +1.000000 +/- 0.000000\n"
    "  + IZ*XI*XZ  +1.000000 +/- 0.000000\n"
    "  - ZZ*XX*YY  -1.000000 +/- 0.000000\n"
)

# full `wavecorr run` stdout of audited runs; the exact ideal audit reads
# zero where its round-off once read 1.11022e-16.  Each noisy run is what
# compatibility_suite and measure_inequality print over
# network.ensemble_provider(noise, seed, 1), asked separately.
PINNED_AUDIT_STDOUT = {
    "noisy-3": (
        "scenario pm-noisy-audit: state psi1, pipeline network_noisy, seed 3\n"
        "PeresMermin: value = +5.977683 +/- 0.000000\n"
        "  + ZI*IZ*ZZ  +1.000000 +/- 0.000000\n"
        "  + IX*XI*XX  +0.994150 +/- 0.000000\n"
        "  + ZX*XZ*YY  +0.997175 +/- 0.000000\n"
        "  + ZI*IX*ZX  +0.991543 +/- 0.000000\n"
        "  + IZ*XI*XZ  +0.996897 +/- 0.000000\n"
        "  - ZZ*XX*YY  -0.997918 +/- 0.000000\n"
        "  bounds: noncontextual 4, corrected 4.18829 (deviation rate 0.0941472), "
        "quantum 6, algebraic 6\n"
        "  verdict: violates NC bound 4, violates corrected bound 4.18829\n"
        "compatibility audit:\n"
        "  context independence : 0.094147\n"
        "  order independence   : 0.005864\n"
        "  repeatability        : 0.006055\n"
        "  nondisturbance       : 0.012429\n"
        "  worst case           : 0.094147 (context-independence: state psi11, marginal of YY)\n"
    ),
    "noisy-83": (
        "scenario pm-noisy-audit: state psi1, pipeline network_noisy, seed 83\n"
        "PeresMermin: value = +5.979515 +/- 0.000000\n"
        "  + ZI*IZ*ZZ  +1.000000 +/- 0.000000\n"
        "  + IX*XI*XX  +0.991817 +/- 0.000000\n"
        "  + ZX*XZ*YY  +0.997200 +/- 0.000000\n"
        "  + ZI*IX*ZX  +0.995547 +/- 0.000000\n"
        "  + IZ*XI*XZ  +0.998469 +/- 0.000000\n"
        "  - ZZ*XX*YY  -0.996482 +/- 0.000000\n"
        "  bounds: noncontextual 4, corrected 4.1723 (deviation rate 0.0861496), "
        "quantum 6, algebraic 6\n"
        "  verdict: violates NC bound 4, violates corrected bound 4.1723\n"
        "compatibility audit:\n"
        "  context independence : 0.086150\n"
        "  order independence   : 0.007238\n"
        "  repeatability        : 0.006858\n"
        "  nondisturbance       : 0.008579\n"
        "  worst case           : 0.086150 (context-independence: state psi11, marginal of YY)\n"
    ),
    "ideal": (
        "scenario pm-ideal-audit: state psi5, pipeline ideal, seed 0\n"
        "PeresMermin: value = +6.000000 +/- 0.000000\n"
        + _GRID_TERMS
        + "  bounds: noncontextual 4, corrected 4 (deviation rate 0), "
        "quantum 6, algebraic 6\n"
        "  verdict: violates NC bound 4, saturates quantum max\n"
        "compatibility audit:\n"
        "  context independence : 0.000000\n"
        "  order independence   : 0.000000\n"
        "  repeatability        : 0.000000\n"
        "  nondisturbance       : 0.000000\n"
        "  worst case           : 0.000000 (order-independence: state psi1, orderings of XZ*YY*ZX)\n"
    ),
    "events": (
        "scenario pm-events-audit: state psi7, pipeline events, seed 11, "
        "200000 events per sequence via loaded_die\n"
        "PeresMermin: value = +6.000000 +/- 0.000000\n"
        + _GRID_TERMS
        + "  bounds: noncontextual 4, corrected 4.01045 (deviation rate 0.005225), "
        "quantum 6, algebraic 6\n"
        "  verdict: violates NC bound 4, violates corrected bound 4.01045, saturates quantum max\n"
        "compatibility audit:\n"
        "  context independence : 0.005225\n"
        "  order independence   : 0.000000\n"
        "  repeatability        : 0.000000\n"
        "  nondisturbance       : 0.000000\n"
        "  worst case           : 0.005225 (context-independence: state psi3, marginal of YY)\n"
    ),
    "chsh": (
        "scenario chsh-noisy-audit: state chsh, pipeline network_noisy, seed 5\n"
        "CHSH: value = +2.807173 +/- 0.000000\n"
        "  + ZI*IZ  +0.707242 +/- 0.000000\n"
        "  + XI*IZ  +0.694527 +/- 0.000000\n"
        "  + ZI*IX  +0.706535 +/- 0.000000\n"
        "  - XI*IX  -0.698869 +/- 0.000000\n"
        "  bounds: noncontextual 2, corrected 2.16736 (deviation rate 0.0836781), "
        "quantum 2.82843, algebraic 4\n"
        "  verdict: violates NC bound 2, violates corrected bound 2.16736\n"
        "compatibility audit:\n"
        "  context independence : 0.083678\n"
        "  order independence   : 0.010615\n"
        "  repeatability        : 0.009728\n"
        "  nondisturbance       : 0.010124\n"
        "  worst case           : 0.083678 (context-independence: state psi11, marginal of YY)\n"
    ),
    "mermin": (
        "scenario mermin-noisy-audit: state ghz, pipeline network_noisy, seed 5\n"
        "Mermin: value = +3.953942 +/- 0.000000\n"
        "  + ZII*IZI*IIX  +0.993614 +/- 0.000000\n"
        "  + XII*IZI*IIZ  +0.993894 +/- 0.000000\n"
        "  + ZII*IXI*IIZ  +0.982624 +/- 0.000000\n"
        "  - XII*IXI*IIX  -0.983811 +/- 0.000000\n"
        "  bounds: noncontextual 2, corrected 2.09596 (deviation rate 0.0479814), "
        "quantum 4, algebraic 4\n"
        "  verdict: violates NC bound 2, violates corrected bound 2.09596\n"
        "compatibility audit:\n"
        "  context independence : 0.047981\n"
        "  order independence   : 0.038132\n"
        "  repeatability        : 0.003060\n"
        "  nondisturbance       : 0.000323\n"
        "  worst case           : 0.047981 (context-independence: state ghz, marginal of ZII)\n"
    ),
}


@pytest.mark.parametrize("key", sorted(PINNED_AUDIT_STDOUT))
def test_audited_run_stdout_is_pinned(key, tmp_path, capsys):
    if key.startswith("noisy-"):
        path = os.path.join(SCENARIO_DIR, "pm_noisy_audit.yaml")
        argv = ["run", path, "--seed", key.split("-")[1]]
    else:
        argv = ["run", write_yaml(tmp_path, AUDITED_SCENARIOS[key])]
    assert run_stdout(capsys, *argv) == PINNED_AUDIT_STDOUT[key]


def audited(pipeline):
    """The audited noisy grid scenario, moved onto ``pipeline``."""
    data = cli.load_scenario_dict(os.path.join(SCENARIO_DIR, "pm_noisy_audit.yaml"))
    if pipeline == "events":
        data.update(pipeline="events", base_pipeline="network_noisy", sample_count=20_000)
    else:
        data["pipeline"] = pipeline
    if pipeline in ("ideal", "network_ideal"):
        del data["noise"]
    return scenario_from_dict(data)


@pytest.mark.parametrize("pipeline", ["ideal", "network_ideal", "network_noisy", "events"])
def test_audited_run_equals_separate_provider_calls(pipeline):
    scenario = audited(pipeline)
    # the suite and the inequality, each asking a provider of its own
    suite = cli.AUDIT_SUITES[scenario.definition.name]
    compat = cli.compatibility_suite(suite, make_provider(scenario))
    (report,) = cli.measure_inequality(
        scenario.definition, make_provider(scenario), scenario.state_name, compat.worst_case
    )
    run = run_scenario(scenario)
    assert repr(run.compatibility) == repr(compat)
    assert repr(run.inequality) == repr(report)


def test_audited_run_asks_its_pipeline_once(monkeypatch):
    calls = []
    real = network.circuit_distributions

    def counting(batch, noise):
        calls.append(len(batch))
        return real(batch, noise)

    monkeypatch.setattr(network, "circuit_distributions", counting)
    built = []
    real_build = network.build_sequence_tree
    monkeypatch.setattr(
        network,
        "build_sequence_tree",
        lambda obs: built.append(obs.label) or real_build(obs),
    )
    scenario = load_scenario(os.path.join(SCENARIO_DIR, "pm_noisy_audit.yaml"))
    run_scenario(scenario)
    # 11 states x 19 audit sequences, then the 6 grid terms; one stage per label
    assert calls == [11 * 19 + 6]
    grid = ("ZI", "IZ", "ZZ", "IX", "XI", "XX", "ZX", "XZ", "YY")
    assert sorted(built) == sorted(grid)


def test_commutation_check_skips_an_observable_met_twice(monkeypatch):
    scenario = scenario_from_dict(PM_IDEAL_AUDIT)
    real = wavecore.commute

    def every_pair(observables):  # the check comparing an observable with itself too
        for i, a in enumerate(observables):
            for b in observables[i + 1 :]:
                if not real(a, b):
                    raise wavecore.IncompatibleObservablesError(f"{a.label} {b.label}")

    with monkeypatch.context() as patched:
        patched.setattr(wavecore, "check_pairwise_compatible", every_pair)
        patched.setattr(contextuality, "check_pairwise_compatible", every_pair)
        reference = run_scenario(scenario)

    pairs = []
    monkeypatch.setattr(wavecore, "commute", lambda a, b: pairs.append((a, b)) or real(a, b))
    run = run_scenario(scenario)
    assert len(pairs) == 348  # of 720 with each observable's own pairs
    assert all(a is not b for a, b in pairs)
    assert repr(run.compatibility) == repr(reference.compatibility)
    assert repr(run.inequality) == repr(reference.inequality)


def test_incompatible_audit_suite_fails_before_any_circuit(monkeypatch):
    def no_circuits(*args, **kwargs):
        raise AssertionError("a circuit was built for a plan that cannot run")

    monkeypatch.setattr(network, "circuit_distributions", no_circuits)
    clashing = replace(cli.AUDIT_SUITES["PeresMermin"], disturbance_sequences=(("ZI", "XI", "ZI"),))
    monkeypatch.setitem(cli.AUDIT_SUITES, "PeresMermin", clashing)
    scenario = load_scenario(os.path.join(SCENARIO_DIR, "pm_noisy_audit.yaml"))
    with pytest.raises(ValueError, match="commute|compatible"):
        run_scenario(scenario)


def test_drifted_request_list_is_not_a_numerical_failure(monkeypatch, capsys):
    path = os.path.join(SCENARIO_DIR, "pm_noisy_audit.yaml")
    expected = run_stdout(capsys, "run", path)
    real = cli.inequality_requests
    # a run that lists its terms in another order serves them all the same
    monkeypatch.setattr(cli, "inequality_requests", lambda defn, name: real(defn, name)[::-1])
    assert run_stdout(capsys, "run", path) == expected
    # one that leaves out a term the suite does not ask for is an internal bug
    monkeypatch.setattr(cli, "inequality_requests", lambda defn, name: real(defn, name)[1:])
    with pytest.raises(LookupError) as err:
        main(["run", path])
    assert not isinstance(err.value, ValueError)
    assert err.value.args == (("psi1", ("ZI", "IZ", "ZZ")),)


@pytest.mark.parametrize("pipeline", ["ideal", "network_ideal", "network_noisy", "events"])
def test_request_results_do_not_depend_on_their_batch(pipeline):
    # what lets one run serve both consumers from a table keyed by request
    scenario = audited(pipeline)
    everything = cli.AUDIT_SUITES[scenario.definition.name].requests + cli.inequality_requests(
        scenario.definition, scenario.state_name
    )
    amid = make_provider(scenario)(everything)
    for k in (0, 2, len(everything) - 1):
        request = everything[k]
        (alone,) = make_provider(scenario)([request])
        first, second = make_provider(scenario)([request, request])
        assert repr(amid[k]) == repr(alone) == repr(first) == repr(second)


@pytest.mark.parametrize("pipeline", ["network_ideal", "network_noisy"])
def test_circuit_pipelines_are_the_ensemble_provider(pipeline):
    scenario = audited(pipeline)
    requests = cli.AUDIT_SUITES[scenario.definition.name].requests + cli.inequality_requests(
        scenario.definition, scenario.state_name
    )
    want = network.ensemble_provider(scenario.noise, scenario.seed, 1)(requests)
    assert repr(make_provider(scenario)(requests)) == repr(want)


NON_COMMUTING = {
    "ideal": {},
    "network_ideal": {"pipeline": "network_ideal"},
    "network_noisy": {"pipeline": "network_noisy", "noise": {"phase_jitter_sigma": 0.01}},
    "events": {"pipeline": "events", "base_pipeline": "network_ideal"},
}


@pytest.mark.parametrize("pipeline", sorted(NON_COMMUTING))
@pytest.mark.parametrize("how", ["custom", "observables"])
def test_non_commuting_sequence_fails_on_every_pipeline(pipeline, how, tmp_path, capsys, monkeypatch):
    def no_circuits(*args, **kwargs):
        raise AssertionError("a circuit was built for a sequence that cannot run")

    monkeypatch.setattr(network, "circuit_distributions", no_circuits)
    if how == "custom":
        data = dict(
            MINIMAL, inequality="custom", custom={"terms": [{"sequence": ["ZI", "XI"]}]}
        )
    else:
        # CHSH's third term ZI*IX becomes ZI*XI
        data = dict(MINIMAL, observables={"IX": "XI"})
    path = write_yaml(tmp_path, dict(data, **NON_COMMUTING[pipeline]))
    assert main(["run", path]) == 3
    assert "run failed: observables 'ZI' and 'XI' do not commute" in capsys.readouterr().err


@pytest.mark.parametrize("pipeline", sorted(NON_COMMUTING))
def test_custom_sequence_length_is_capped_while_parsing(pipeline, tmp_path, capsys):
    labels = ("ZI", "IZ", "ZZ")
    at_cap = [labels[i % 3] for i in range(cli.MAX_SEQUENCE_LENGTH)]
    over = [labels[i % 3] for i in range(cli.MAX_SEQUENCE_LENGTH + 1)]
    for sequence, code in ((over, 2), (at_cap, 0)):
        terms = [{"sequence": ["ZI"]}, {"sequence": sequence}]
        data = dict(MINIMAL, inequality="custom", custom={"terms": terms})
        assert main(["run", write_yaml(tmp_path, dict(data, **NON_COMMUTING[pipeline]))]) == code
        err = capsys.readouterr().err
        if code:
            assert err.startswith("config error: custom.terms[1].sequence: ")


def test_output_dir_env_prefixes_relative_paths(tmp_path, monkeypatch, capsys):
    outdir = tmp_path / "results"
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(outdir))
    path = write_yaml(tmp_path, MINIMAL)
    assert main(["run", path, "--csv", "run.csv"]) == 0
    assert (outdir / "run.csv").exists()
    capsys.readouterr()


def test_sweep_grid_rows_and_determinism(tmp_path, capsys):
    data = dict(MINIMAL, vary={"seed": [1, 2, 3]})
    path = write_yaml(tmp_path, data)
    rows = sweep_rows(sweep_points(path))
    assert len(rows) == 3
    assert [r[0] for r in rows] == ["t[seed=1]", "t[seed=2]", "t[seed=3]"]
    # ideal pipeline ignores the seed, so the physics columns agree
    assert len({tuple(r[5:]) for r in rows}) == 1
    assert rows == sweep_rows(sweep_points(path))


def test_sweep_writes_the_files_csv_unless_given_one(tmp_path, capsys):
    target = tmp_path / "grid.csv"
    path = write_yaml(tmp_path, dict(MINIMAL, csv=str(target), vary={"seed": [1, 2]}))
    assert main(["sweep", path]) == 0
    assert capsys.readouterr().out == f"wrote {target} (2 rows)\n"
    text = target.read_text()
    assert text == cli.render_csv(sweep_rows(sweep_points(path)))
    # --csv takes precedence over the file's field, as it does for run
    target.unlink()
    other = tmp_path / "other.csv"
    assert main(["sweep", path, "--csv", str(other)]) == 0
    assert other.read_text() == text
    assert not target.exists()
    capsys.readouterr()


def test_sweep_reads_its_scenario_file_once(tmp_path, capsys, monkeypatch):
    target = tmp_path / "grid.csv"
    path = write_yaml(tmp_path, dict(MINIMAL, csv=str(target), vary={"seed": [1, 2]}))
    loads = []
    load = cli.load_scenario_dict
    monkeypatch.setattr(cli, "load_scenario_dict", lambda p: loads.append(p) or load(p))
    assert main(["sweep", path]) == 0
    assert loads == [path]
    assert capsys.readouterr().out == f"wrote {target} (2 rows)\n"


def test_sweep_csv_is_not_a_grid_axis(tmp_path, capsys):
    path = write_yaml(tmp_path, dict(MINIMAL, vary={"csv": ["a.csv", "b.csv"]}))
    assert main(["sweep", path]) == 2
    assert capsys.readouterr().err.startswith("config error: vary.csv: ")


def test_sweep_seed_flag_does_not_flatten_a_seed_axis(tmp_path, capsys):
    path = write_yaml(tmp_path, dict(MINIMAL, vary={"seed": [1, 2]}))
    assert main(["sweep", path, "--seed", "5"]) == 2
    assert capsys.readouterr().err.startswith("config error: vary.seed: ")
    # on a grid over other fields, --seed still replaces the file's seed
    other = write_yaml(tmp_path, dict(MINIMAL, vary={"state": ["chsh", "00"]}), name="o.yaml")
    assert {row[4] for row in sweep_rows(sweep_points(other, seed=5))} == {"5"}


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("target", ["a directory", "a path through a file"])
def test_unwritable_csv_target_is_a_config_error(command, target, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv(cli.OUTPUT_DIR_ENV, raising=False)
    (tmp_path / "file").write_text("")
    csv_path = str(tmp_path if target == "a directory" else tmp_path / "file" / "out.csv")
    path = write_yaml(tmp_path, dict(MINIMAL, vary={"seed": [1]}) if command == "sweep" else MINIMAL)
    assert main([command, path, "--csv", csv_path]) == 2
    assert capsys.readouterr().err.startswith(f"config error: csv: cannot write {csv_path}: ")


def test_sweep_empty_grid_rejected(tmp_path):
    path = write_yaml(tmp_path, dict(MINIMAL, vary={"state": []}))
    with pytest.raises(ConfigError, match="vary.state"):
        sweep_points(path)
    no_vary = write_yaml(tmp_path, MINIMAL, name="n.yaml")
    assert main(["sweep", no_vary]) == 2


def test_sweep_rejects_a_bad_point_before_running_any(tmp_path, capsys, monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("a grid point ran before every point was parsed")

    monkeypatch.setattr(cli, "run_scenario", no_run)
    threshold = {"model": "threshold_detector"}
    data = dict(MINIMAL, pipeline="events", events=threshold, vary={"seed": [0, 1, 2, "x"]})
    path = write_yaml(tmp_path, data)
    with pytest.raises(ConfigError) as err:
        sweep_points(path)
    assert err.value.path == "seed"
    assert main(["sweep", path]) == 2
    assert "config error: seed:" in capsys.readouterr().err


def test_sweep_cartesian_order(tmp_path):
    data = dict(MINIMAL, vary={"seed": [1, 2], "state": ["chsh", "00"]})
    path = write_yaml(tmp_path, data)
    labels = [row[0] for row in sweep_rows(sweep_points(path))]
    assert labels == [
        "t[seed=1, state=chsh]",
        "t[seed=1, state=00]",
        "t[seed=2, state=chsh]",
        "t[seed=2, state=00]",
    ]


# the CHSH grid at 10^6 clicks per sequence through both detector models;
# the loaded-die rows date from before the threshold draws were hashed in
# place, the threshold rows from the exact-energy thresholds
PINNED_SWEEP = {
    "name": "pin",
    "state": "chsh",
    "inequality": "CHSH",
    "pipeline": "events",
    "base_pipeline": "ideal",
    "seed": 11,
    "sample_count": 1_000_000,
    "vary": {"state": ["chsh", "singlet"], "events.model": ["loaded_die", "threshold_detector"]},
}
PINNED_SWEEP_ROWS = (
    (
        '"pin[events.model=loaded_die, state=chsh]",chsh,CHSH,events,11,'
        'ZI*IZ;XI*IZ;ZI*IX;XI*IX,'
        '0.70667600000000008;0.70846999999999993;0.70664799999999994;'
        '-0.70795600000000003,'
        '0.00070753730009378299;0.00070574092916593706;0.00070756526490211495;'
        '0.00070625654125395533,2.8297499999999998,0.0014135509174713163,2,2,'
        '2.8284271247461903,4,0,"violates NC bound 2, saturates quantum max"'
    ),
    (
        '"pin[events.model=loaded_die, state=singlet]",singlet,CHSH,events,11,'
        'ZI*IZ;XI*IZ;ZI*IX;XI*IX,-1;-0.0014939999999999953;-0.00039000000000000146;-1,'
        '0;0.00099999888398137724;0.00099999992394999714;0,-0.0018839999999999968,'
        '0.0014142127194534772,2,2,2.8284271247461903,4,0,respects NC bound 2'
    ),
    (
        '"pin[events.model=threshold_detector, state=chsh]",chsh,CHSH,events,11,'
        'ZI*IZ;XI*IZ;ZI*IX;XI*IX,'
        '0.70701000000000003;0.70718200000000009;0.70707999999999993;-0.70696199999999998,'
        '0.00070720354912853767;0.00070703155437080729;0.00070713356135881434;'
        '0.00070725153273499522,2.8282340000000001,0.0014143101084740928,2,2,'
        '2.8284271247461903,4,0,"violates NC bound 2, saturates quantum max"'
    ),
    (
        '"pin[events.model=threshold_detector, state=singlet]",singlet,CHSH,events,11,'
        'ZI*IZ;XI*IZ;ZI*IX;XI*IX,-1;-7.7999999999966985e-05;-0.00019600000000005724;-1,'
        '0;0.00099999999695799999;0.00099999998079199981;0,-0.00027400000000010749,'
        '0.0014142135466399691,2,2,2.8284271247461903,4,0,respects NC bound 2'
    ),
)


def test_events_sweep_csv_bytes_are_pinned(tmp_path):
    text = cli.render_csv(sweep_rows(sweep_points(write_yaml(tmp_path, PINNED_SWEEP))))
    rows = ["".join(parts) for parts in PINNED_SWEEP_ROWS]
    assert text == "\n".join([",".join(cli.CSV_COLUMNS), *rows]) + "\n"


def test_state_sweep_scenario_gives_six_everywhere(capsys):
    path = os.path.join(SCENARIO_DIR, "pm_state_sweep.yaml")
    rows = sweep_rows(sweep_points(path))
    assert len(rows) == 11
    for row in rows:
        assert float(row[8]) == pytest.approx(6.0, abs=1e-9)


def shipped_scenarios():
    return sorted(glob.glob(os.path.join(SCENARIO_DIR, "*.yaml")))


def test_scenarios_are_shipped():
    assert len(shipped_scenarios()) >= 5


@pytest.mark.parametrize("path", shipped_scenarios(), ids=os.path.basename)
def test_shipped_scenarios_load(path):
    data = cli.load_scenario_dict(path)
    data.pop("vary", None)
    scenario_from_dict(data)


@pytest.mark.parametrize("path", shipped_scenarios(), ids=os.path.basename)
def test_ideal_and_network_pipelines_agree(path):
    """Every shipped scenario's correlators match between the two exact pipelines."""
    data = cli.load_scenario_dict(path)
    data.pop("vary", None)
    data.pop("noise", None)
    data.pop("events", None)
    data.pop("base_pipeline", None)
    data.pop("audit", None)
    base = scenario_from_dict(dict(data, pipeline="ideal"))
    mesh = scenario_from_dict(dict(data, pipeline="network_ideal"))
    sequences = base.definition.sequences
    dists_base = make_provider(base)([(base.state_name, labels) for labels in sequences])
    dists_mesh = make_provider(mesh)([(mesh.state_name, labels) for labels in sequences])
    for labels, (dist_base,), (dist_mesh,) in zip(sequences, dists_base, dists_mesh, strict=True):
        a = correlator(dist_base, labels)
        b = correlator(dist_mesh, labels)
        assert a.value == pytest.approx(b.value, abs=1e-9), labels


def test_events_pipeline_estimates_chsh(tmp_path):
    data = dict(MINIMAL, pipeline="events", sample_count=400_000, seed=2)
    sc = scenario_from_dict(data)
    report = run_scenario(sc).inequality
    assert report.stderr > 0
    assert abs(report.value - 2 * math.sqrt(2)) < 4 * report.stderr


def test_audit_scenario_reports_corrected_bound():
    path = os.path.join(SCENARIO_DIR, "pm_noisy_audit.yaml")
    report = run_scenario(load_scenario(path))
    assert report.compatibility is not None
    rate = report.compatibility.worst_case
    assert rate > 0
    assert report.inequality.deviation_rate == rate
    assert report.inequality.corrected_bound > report.inequality.definition.nc_bound
    # the corrected bound must stay below the measured value for the
    # shipped noise point, otherwise the demonstration is vacuous
    assert report.inequality.value > report.inequality.corrected_bound


def test_noisy_trees_get_independent_disorder():
    data = dict(
        MINIMAL,
        pipeline="network_noisy",
        noise={"phase_jitter_sigma": 0.2},
        seed=21,
    )
    sc = scenario_from_dict(data)
    provider = make_provider(sc)
    sequences = sc.definition.sequences
    dists = provider([("chsh", labels) for labels in sequences])
    values = [correlator(dist, labels).value for (dist,), labels in zip(dists, sequences)]
    # same tree twice reproduces exactly, distinct trees draw differently
    [[dist]] = provider([("chsh", sequences[0])])
    again = correlator(dist, sequences[0])
    assert again.value == values[0]
    assert len({round(v, 12) for v in values}) > 1


def test_events_sequences_use_distinct_streams():
    data = dict(MINIMAL, pipeline="events", sample_count=5_000, seed=4)
    sc = scenario_from_dict(data)
    provider = make_provider(sc)
    [[first], [second]] = provider([("chsh", labels) for labels in sc.definition.sequences[:2]])
    assert first.probs != second.probs

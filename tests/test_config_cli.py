"""Config schema validation and command-line behavior."""

import argparse
import contextlib
import csv
import dataclasses
import decimal
import errno
import fractions
import importlib.util
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import weaklind
from weaklind import (
    invert_weak_value,
    rabi_shift_columns,
    rabi_shifts_number_state,
)
from weaklind import cli, scenarios
from weaklind.cli import main
from weaklind.config import (
    ChannelSpec,
    InvertSpec,
    MeterSpec,
    ObservableSpec,
    OutputSpec,
    PauliCombo,
    RunConfig,
    StateSpec,
    SweepSpec,
    SystemSpec,
    build_channel,
    build_observable,
    build_states,
    build_tau_grid,
    load_config,
    require_sections,
)
from weaklind.errors import ConfigError
from weaklind.scenarios import SCENARIOS, SHORT_TIME_CHANNELS

SODIUM_PRE = [[0.5, 0.0], [0.0, 0.5], [0.5, 0.0], [0.5, 0.0], [0.0, 0.0], [0.0, 0.0]]
SODIUM_POST = [[0.0498, 0.0], [-0.995, 0.0], [0.0, 0.0], [-0.0498, -0.0498],
               [0.0498, 0.0], [-0.00734, 0.00114]]


def sodium_config(**overrides):
    cfg = {
        "version": 1,
        "system": {"dimension": 6,
                   "pre": {"amplitudes": SODIUM_PRE},
                   "post": {"amplitudes": SODIUM_POST}},
        "observable": {"named": "jy6"},
        "channel": {"named": "sodium", "rate": 1.0},
        "sweep": {"start": 0.0, "stop": 10.0, "count": 41, "spacing": "linear"},
    }
    cfg.update(overrides)
    return cfg


def two_level_config(**overrides):
    cfg = {
        "version": 1,
        "system": {"dimension": 2,
                   "pre": {"bloch": [0.55, 0.15, 0.6]},
                   "post": {"bloch": [-0.3, 0.45, -0.5]}},
        "observable": {"named": "sigma_x"},
        "channel": {"named": "amplitude_damping", "gamma": 0.5},
        "sweep": {"start": 0.0, "stop": 2.0, "count": 5, "spacing": "linear"},
    }
    cfg.update(overrides)
    return cfg


def write_cfg(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        return next(reader), [[float(x) for x in row] for row in reader]


# ----------------------------------------------------------- config schema

def test_load_valid_config(tmp_path):
    cfg = load_config(write_cfg(tmp_path, sodium_config()))
    assert cfg.version == 1
    assert cfg.system.dimension == 6
    sigma_i, sigma_f = build_states(cfg)
    assert abs(np.trace(sigma_i) - 1.0) < 1e-12
    assert abs(np.trace(sigma_f) - 1.0) < 1e-12


def test_rejects_unknown_field_with_path(tmp_path):
    payload = sodium_config()
    payload["system"]["bogus"] = 3
    with pytest.raises(ConfigError) as err:
        load_config(write_cfg(tmp_path, payload))
    assert "bogus" in str(err.value)
    assert "system" in str(err.value)


def test_rejects_wrong_version(tmp_path):
    with pytest.raises(ConfigError) as err:
        load_config(write_cfg(tmp_path, sodium_config(version=2)))
    assert "version" in str(err.value)


def test_rejects_malformed_json_with_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"version": 1,\n  "system": }')
    with pytest.raises(ConfigError) as err:
        load_config(str(path))
    assert "line" in str(err.value)


def test_state_spec_exactly_one_representation(tmp_path):
    payload = two_level_config()
    payload["system"]["pre"] = {"bloch": [0, 0, 1], "amplitudes": [[1, 0], [0, 0]]}
    with pytest.raises(ConfigError):
        load_config(write_cfg(tmp_path, payload))
    payload["system"]["pre"] = {}
    with pytest.raises(ConfigError):
        load_config(write_cfg(tmp_path, payload))


def test_state_builders_validate_dimensions(tmp_path):
    payload = sodium_config()
    payload["system"]["pre"] = {"bloch": [0, 0, 1]}     # bloch needs dim 2
    with pytest.raises(ConfigError):
        build_states(load_config(write_cfg(tmp_path, payload)))
    payload = sodium_config()
    payload["system"]["pre"] = {"amplitudes": [[1, 0], [0, 0]]}  # wrong count
    with pytest.raises(ConfigError):
        build_states(load_config(write_cfg(tmp_path, payload, "b.json")))


def test_channel_spec_parameter_enforcement(tmp_path):
    bad = [
        {"named": "amplitude_damping"},                      # missing gamma
        {"named": "amplitude_damping", "gamma": 0.5, "lam": 1.0},  # stray lam
        {"named": "nonmarkov_jc", "gamma0": 0.1},            # missing lam
        {"named": "sodium"},                                 # missing rate
        {"jumps": [[[[0, 0], [1, 0]], [[0, 0], [0, 0]]]], "rates": []},
        {},                                                  # nothing at all
    ]
    for chan in bad:
        payload = two_level_config(channel=chan)
        with pytest.raises(ConfigError):
            cfg = load_config(write_cfg(tmp_path, payload))
            build_channel(cfg)


def test_custom_channel_builder(tmp_path):
    payload = two_level_config(channel={
        "jumps": [[[[0, 0], [0, 0]], [[1, 0], [0, 0]]]],   # sigma_minus entries
        "rates": [0.7],
    })
    cfg = load_config(write_cfg(tmp_path, payload))
    d, char_rate = build_channel(cfg)
    assert char_rate == 0.7
    assert d.dim == 2


def test_named_channel_characteristic_rates(tmp_path):
    cases = [
        ({"named": "amplitude_damping", "gamma": 0.25}, 0.25, 2),
        ({"named": "nonmarkov_jc", "gamma0": 0.1, "lam": 1.0}, 0.1, 2),
    ]
    for chan, want_rate, want_dim in cases:
        payload = two_level_config(channel=chan)
        d, char_rate = build_channel(load_config(write_cfg(tmp_path, payload)))
        assert char_rate == want_rate and d.dim == want_dim
    payload = sodium_config()
    d, char_rate = build_channel(load_config(write_cfg(tmp_path, payload)))
    assert char_rate == 1.0 and d.dim == 6


def test_observable_builders(tmp_path):
    for name, want in [("sigma_x", weaklind.SIGMA_X), ("sigma_y", weaklind.SIGMA_Y),
                       ("sigma_z", weaklind.SIGMA_Z), ("sigma_plus", weaklind.SIGMA_PLUS),
                       ("sigma_minus", weaklind.SIGMA_MINUS), ("identity", np.eye(2))]:
        payload = two_level_config(observable={"named": name})
        A = build_observable(load_config(write_cfg(tmp_path, payload)))
        assert A.dtype == complex and np.array_equal(A, want)
    # the named table's matrices are fresh arrays, and identity takes any dimension
    for name, want in [("jy6", weaklind.jy_six_level()), ("identity", np.eye(6))]:
        payload = sodium_config(observable={"named": name})
        A = build_observable(load_config(write_cfg(tmp_path, payload)))
        assert A.dtype == complex and np.array_equal(A, want)
    payload = two_level_config(observable={"named": "sigma_plus"})
    build_observable(load_config(write_cfg(tmp_path, payload)))[0, 1] = 7.0
    assert weaklind.SIGMA_PLUS[0, 1] == 1.0
    payload = two_level_config(observable={
        "pauli": {"a": 0.5, "b": 2.0, "m": [[1, 0], [0, -1], [0, 0]]}})
    A = build_observable(load_config(write_cfg(tmp_path, payload)))
    np.testing.assert_allclose(
        A, 0.5 * np.eye(2) + 2.0 * (weaklind.SIGMA_X - 1j * weaklind.SIGMA_Y),
        atol=1e-15)
    # jy6 on a two-level system must be refused
    payload = two_level_config(observable={"named": "jy6"})
    with pytest.raises(ConfigError):
        build_observable(load_config(write_cfg(tmp_path, payload)))


P = [0, 0]  # one [re, im] entry
NOT_SQUARE = [
    ([[P, P], [P]], "got rows of lengths [2, 1]"),
    ([[P], [P, P], [P, P]], "got rows of lengths [1, 2, 2]"),
    ([], "got shape (0,)"),
    ([[]], "got shape (1, 0)"),
    ([[P, P, P], [P, P, P]], "got shape (2, 3)"),
]


@pytest.mark.parametrize("rows, got", NOT_SQUARE, ids=["2-1", "1-2-2", "0", "1x0", "2x3"])
def test_matrices_that_are_not_square_are_refused(tmp_path, rows, got):
    payload = two_level_config(observable={"matrix": rows})
    with pytest.raises(ConfigError) as err:
        build_observable(load_config(write_cfg(tmp_path, payload)))
    assert str(err.value) == f"observable.matrix: must be a square matrix, {got}"
    payload = two_level_config(channel={"jumps": [rows], "rates": [0.5]})
    with pytest.raises(ConfigError) as err:
        build_channel(load_config(write_cfg(tmp_path, payload)))
    assert str(err.value) == f"channel.jumps[0]: must be a square matrix, {got}"


def test_sweep_grid_construction(tmp_path):
    payload = two_level_config(sweep={"start": 0.1, "stop": 10.0, "count": 4,
                                      "spacing": "log"})
    taus = build_tau_grid(load_config(write_cfg(tmp_path, payload)))
    np.testing.assert_allclose(taus, np.geomspace(0.1, 10.0, 4), rtol=1e-12)
    payload = two_level_config(sweep={"start": 0.7, "stop": 9.0, "count": 1})
    taus = build_tau_grid(load_config(write_cfg(tmp_path, payload)))
    np.testing.assert_allclose(taus, [0.7])
    for bad in ({"start": 0.0, "stop": 1.0, "count": 3, "spacing": "log"},
                {"start": 2.0, "stop": 1.0, "count": 3}):
        with pytest.raises(ConfigError):
            load_config(write_cfg(tmp_path, two_level_config(sweep=bad)))


def test_require_sections_names_missing_pieces(tmp_path):
    payload = {"version": 1}
    cfg = load_config(write_cfg(tmp_path, payload))
    with pytest.raises(ConfigError) as err:
        require_sections(cfg, "system", "sweep")
    assert "system" in str(err.value)


def full_config():
    """A config with every section, each field spelled out once."""
    return two_level_config(
        meter=meter_section(),
        invert={"Q_f": 0.01, "P_f": 0.02, "tau": 0.3},
        output={"out_dir": "out", "format": "csv"})


def _edit(path, value):
    def apply(payload):
        node = payload
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        return payload
    return apply


SECTION_PATHS = [(), ("system",), ("system", "pre"), ("observable",), ("channel",),
                 ("sweep",), ("meter",), ("invert",), ("output",)]
# (edit of full_config, expected "loc: msg" line); one case per schema rule
REJECTIONS = [
    *[(_edit((*path, "bogus"), 1), ".".join((*path, "bogus")) + ": Extra inputs are not permitted")
      for path in SECTION_PATHS],
    (_edit(("observable",), {"pauli": {"m": [[1, 0], [0, 0], [0, 0]], "c": 1}}),
     "observable.pauli.c: Extra inputs are not permitted"),
    # Literals
    (_edit(("version",), 2), "version: Input should be 1"),
    (_edit(("observable", "named"), "sigma_w"),
     "observable.named: Input should be 'jy6', 'sigma_x', 'sigma_y', 'sigma_z', "
     "'sigma_plus', 'sigma_minus' or 'identity'"),
    (_edit(("channel", "named"), "dephasing"),
     "channel.named: Input should be 'amplitude_damping', 'sodium' or 'nonmarkov_jc'"),
    (_edit(("sweep", "spacing"), "geometric"), "sweep.spacing: Input should be 'linear' or 'log'"),
    (_edit(("meter", "state"), "coherent"),
     "meter.state: Input should be 'vacuum', 'number' or 'thermal'"),
    (_edit(("meter", "model"), "dicke"), "meter.model: Input should be 'rabi' or 'jc'"),
    (_edit(("output", "format"), "xml"), "output.format: Input should be 'csv' or 'json'"),
    # bounds
    (_edit(("system", "dimension"), 1), "system.dimension: Input should be greater than or equal to 2"),
    (_edit(("channel", "gamma"), -0.5), "channel.gamma: Input should be greater than or equal to 0"),
    (_edit(("channel",), {"named": "sodium", "rate": -1.0}),
     "channel.rate: Input should be greater than or equal to 0"),
    (_edit(("channel",), {"named": "nonmarkov_jc", "gamma0": 0.0, "lam": 1.0}),
     "channel.gamma0: Input should be greater than 0"),
    (_edit(("channel",), {"named": "nonmarkov_jc", "gamma0": 0.1, "lam": -1.0}),
     "channel.lam: Input should be greater than 0"),
    (_edit(("sweep", "start"), -1.0), "sweep.start: Input should be greater than or equal to 0"),
    (_edit(("sweep", "count"), 0), "sweep.count: Input should be greater than or equal to 1"),
    (_edit(("sweep", "count"), 10**12),
     "sweep.count: Input should be less than or equal to 1000000"),
    (_edit(("meter", "omega_f"), 0.0), "meter.omega_f: Input should be greater than 0"),
    (_edit(("meter", "n_max"), 0), "meter.n_max: Input should be greater than or equal to 1"),
    (_edit(("meter", "n"), -1.0), "meter.n: Input should be greater than or equal to 0"),
    (_edit(("meter", "hbar"), -1.0), "meter.hbar: Input should be greater than 0"),
    (_edit(("invert", "tau"), -0.3), "invert.tau: Input should be greater than or equal to 0"),
    # fixed-length tuples
    (_edit(("system", "pre"), {"bloch": [0.5, 0.5]}), "system.pre.bloch.2: Field required"),
    (_edit(("system", "pre"), {"bloch": [0.5, 0.5, 0.5, 0.5]}),
     "system.pre.bloch: Tuple should have at most 3 items after validation, not 4"),
    (_edit(("system", "pre"), {"amplitudes": [[1, 0, 0], [0, 0]]}),
     "system.pre.amplitudes.0: Tuple should have at most 2 items after validation, not 3"),
    (_edit(("observable",), {"pauli": {"m": [[1, 0], [0, 0]]}}),
     "observable.pauli.m.2: Field required"),
    # a bool or a string where a number is expected
    (_edit(("sweep", "count"), "3"), "sweep.count: Input should be a valid integer"),
    (_edit(("sweep", "count"), True), "sweep.count: Input should be a valid integer"),
    (_edit(("sweep", "count"), 3.0), "sweep.count: Input should be a valid integer"),
    (_edit(("meter", "g"), "0.5"), "meter.g: Input should be a valid number"),
    (_edit(("sweep", "stop"), True), "sweep.stop: Input should be a valid number"),
    (_edit(("channel",), {"jumps": [[[[0, 0], [0, 0]], [[1, 0], [0, 0]]]], "rates": ["0.7"]}),
     "channel.rates.0: Input should be a valid number"),
    (_edit(("version",), True), "version: Input should be 1"),
    (_edit(("version",), 1.0), "version: Input should be 1"),
    # an integer past the float range where a float is expected
    (_edit(("sweep", "stop"), 10**400), "sweep.stop: Input should be a finite number"),
    (lambda payload: [payload], "<root>: Input should be a valid dictionary"),
    # the sizes that allocate memory (rows added last, so earlier ids stay put)
    (_edit(("system", "dimension"), 200), "system.dimension: Input should be less than or equal to 32"),
    (_edit(("meter", "n_max"), 10**12), "meter.n_max: Input should be less than or equal to 1000"),
    # a vacuum meter has no occupation to give
    (_edit(("meter", "n"), 3), "meter: Value error, meter state 'vacuum' does not take n = 3"),
]


@pytest.mark.parametrize("edit,line", REJECTIONS,
                         ids=[f"{k}-{line.split(':')[0]}" for k, (_, line) in enumerate(REJECTIONS)])
def test_schema_rejections_exit_2_with_their_path(tmp_path, capsys, edit, line):
    cfg = write_cfg(tmp_path, edit(full_config()))
    assert run_cli("weak-value", "--config", cfg, "--out", str(tmp_path / "o")) == 2
    err = capsys.readouterr().err
    assert f"error: config {cfg} failed validation:\n  {line}\n" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o" / "weak_value.csv").exists()


def test_simultaneous_errors_are_listed_in_walk_order(tmp_path):
    payload = full_config()
    payload["extra"] = 1
    payload["system"]["pre"] = {"bloch": [0.5]}
    payload["sweep"]["count"] = "5"
    payload["meter"]["bogus"] = 0
    path = write_cfg(tmp_path, payload)
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert str(err.value) == "\n".join([
        f"config {path} failed validation:",
        "  system.pre.bloch.1: Field required",
        "  system.pre.bloch.2: Field required",
        "  sweep.count: Input should be a valid integer",
        "  meter.bogus: Extra inputs are not permitted",
        "  extra: Extra inputs are not permitted",
    ])


def test_full_config_parses_to_its_typed_sections(tmp_path):
    want = RunConfig(
        version=1,
        system=SystemSpec(dimension=2, pre=StateSpec(bloch=(0.55, 0.15, 0.6)),
                          post=StateSpec(bloch=(-0.3, 0.45, -0.5))),
        observable=ObservableSpec(named="sigma_x"),
        channel=ChannelSpec(named="amplitude_damping", gamma=0.5),
        sweep=SweepSpec(start=0.0, stop=2.0, count=5, spacing="linear"),
        meter=MeterSpec(omega_f=1.3, n_max=20, state="vacuum", n=0.0, g=0.001, t=1.0,
                        Delta=0.0, model="rabi", hbar=1.0),
        invert=InvertSpec(Q_f=0.01, P_f=0.02, tau=0.3),
        output=OutputSpec(out_dir="out", format="csv"))
    payload = full_config()
    payload["system"]["pre"] = {"amplitudes": [[1, 0], [0, -1]]}
    payload["observable"] = {"pauli": {"m": [[1, 0], [0, 0], [0, 2]]}}
    payload["channel"] = {"jumps": [[[[0, 0], [0, 0]], [[1, 0], [0, 0]]]], "rates": [1]}
    payload["meter"] = {"omega_f": 2, "g": 1, "t": 3}
    del payload["output"]["format"]
    want_edited = dataclasses.replace(
        want,
        system=dataclasses.replace(want.system,
                                   pre=StateSpec(amplitudes=[(1.0, 0.0), (0.0, -1.0)])),
        observable=ObservableSpec(pauli=PauliCombo(
            a=0.0, b=1.0, m=((1.0, 0.0), (0.0, 0.0), (0.0, 2.0)))),
        channel=ChannelSpec(jumps=[[[(0.0, 0.0), (0.0, 0.0)], [(1.0, 0.0), (0.0, 0.0)]]],
                            rates=[1.0]),
        meter=MeterSpec(omega_f=2.0, g=1.0, t=3.0),
        output=OutputSpec(out_dir="out"))
    for cfg, expected in ((full_config(), want),
                          (payload, want_edited)):
        got = load_config(write_cfg(tmp_path, cfg))
        # == compares 1 and 1.0 alike; repr tells the parsed types apart
        assert got == expected and repr(got) == repr(expected)


def test_float_fields_spelled_as_ints_give_identical_outputs(tmp_path):
    def payload(as_int):
        num = int if as_int else float
        cfg = two_level_config(
            channel={"named": "amplitude_damping", "gamma": num(1)},
            sweep={"start": num(0), "stop": num(10), "count": 6, "spacing": "linear"},
            meter={**meter_section(), "omega_f": num(2), "n": num(0), "t": num(1)})
        cfg["system"]["pre"] = {"amplitudes": [[num(3), num(0)], [num(4), num(0)]]}
        return cfg
    runs = {}
    for as_int in (False, True):
        cfg = write_cfg(tmp_path, payload(as_int), f"{as_int}.json")
        out = tmp_path / str(as_int)
        assert run_cli("weak-value", "--config", cfg, "--out", str(out), "--format", "json") == 0
        assert run_cli("shifts", "--config", cfg, "--out", str(out)) == 0
        runs[as_int] = [(out / name).read_bytes() for name in ("weak_value.json", "shifts.csv")]
    assert runs[True] == runs[False]
    assert json.loads(runs[True][0])["metadata"]["setup_hash"]
    assert type(load_config(write_cfg(tmp_path, payload(True))).sweep.stop) is float


# ------------------------------------------------------------- CLI: sweeps

def run_cli(*argv):
    return main(list(argv))


def test_weak_value_command_reproduces_golden(tmp_path):
    cfg = write_cfg(tmp_path, sodium_config())
    out = tmp_path / "out"
    assert run_cli("weak-value", "--config", cfg, "--out", str(out)) == 0
    header, rows = read_csv(out / "weak_value.csv")
    assert header == ["gamma_tau", "re_wv", "im_wv", "postselect_prob"]
    assert len(rows) == 41
    golden_path = os.path.join(os.path.dirname(__file__), "golden",
                               "sodium_anomalous.csv")
    _, golden_rows = read_csv(golden_path)
    assert np.abs(np.array(rows) - np.array(golden_rows)).max() < 1e-9


def test_weak_value_rerun_is_byte_identical(tmp_path):
    cfg = write_cfg(tmp_path, two_level_config())
    out_a, out_b = (tmp_path / x for x in ("a", "b"))
    assert run_cli("weak-value", "--config", cfg, "--out", str(out_a)) == 0
    assert run_cli("weak-value", "--config", cfg, "--out", str(out_b)) == 0
    blob = (out_a / "weak_value.csv").read_bytes()
    assert blob == (out_b / "weak_value.csv").read_bytes()


def test_jobs_option_is_gone(tmp_path, capsys):
    cfg = write_cfg(tmp_path, two_level_config(meter=meter_section()))
    for command in ("weak-value", "shifts"):
        with pytest.raises(SystemExit) as exc:
            run_cli(command, "--config", cfg, "--out", str(tmp_path / "o"), "--jobs", "2")
        assert exc.value.code == 2
        assert "unrecognized arguments: --jobs" in capsys.readouterr().err


def test_weak_value_json_format(tmp_path):
    cfg = write_cfg(tmp_path, two_level_config(output={"format": "json"}))
    out = tmp_path / "out"
    assert run_cli("weak-value", "--config", cfg, "--out", str(out)) == 0
    doc = json.loads((out / "weak_value.json").read_text())
    assert doc["columns"] == ["gamma_tau", "re_wv", "im_wv", "postselect_prob"]
    assert len(doc["gamma_tau"]) == 5
    assert doc["gaps"] == []
    assert "setup_hash" in doc["metadata"]
    # tau grid is scaled by the channel rate in the output abscissa
    assert doc["gamma_tau"][-1] == pytest.approx(0.5 * 2.0)


@pytest.mark.parametrize("channel, description", [
    ({"named": "nonmarkov_jc", "gamma0": 1.0, "lam": 0.5},
     "dim=2; jump#a1df78a2841e nonmarkov(gamma0=1.0, lam=0.5)"),
    ({"named": "amplitude_damping", "gamma": 0.5}, "dim=2; jump#a1df78a2841e rate=0.5"),
])
def test_weak_value_json_metadata_bytes(tmp_path, channel, description):
    # the sigma_- jump hash and the rate tags are part of the output files
    payload = two_level_config(channel=channel, output={"format": "json"})
    payload["system"]["pre"] = {"bloch": [0.6, 0.2, 0.5]}
    payload["system"]["post"] = {"bloch": [0.3, -0.5, -0.7]}
    out = tmp_path / "out"
    assert run_cli("weak-value", "--config", write_cfg(tmp_path, payload),
                   "--out", str(out)) == 0
    metadata = json.loads((out / "weak_value.json").read_text())["metadata"]
    assert metadata["channel"] == description
    # SHA-256 over the bytes of sigma_i, sigma_fI and A alone
    assert metadata["setup_hash"] == (
        "a878f8796f08a663b919d97bda2c9c164b2b68cbe5e6d0986686a704bab1bb9f")


def test_weak_value_ignores_a_meter_section(tmp_path):
    # the weak value and its setup_hash do not depend on the meter's coupling
    payload = two_level_config(output={"format": "json"})
    blobs = []
    for k, meter in enumerate((None, meter_section(), {**meter_section(g=0.25), "t": 3.0})):
        cfg = payload if meter is None else {**payload, "meter": meter}
        out = tmp_path / str(k)
        assert run_cli("weak-value", "--config", write_cfg(tmp_path, cfg, f"{k}.json"),
                       "--out", str(out)) == 0
        blobs.append((out / "weak_value.json").read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]


def test_weak_value_identity_observable_is_one(tmp_path):
    cfg = write_cfg(tmp_path, two_level_config(observable={"named": "identity"}))
    out = tmp_path / "out"
    assert run_cli("weak-value", "--config", cfg, "--out", str(out)) == 0
    _, rows = read_csv(out / "weak_value.csv")
    for row in rows:
        assert row[1] == pytest.approx(1.0, abs=1e-12)
        assert row[2] == pytest.approx(0.0, abs=1e-12)


def test_weak_value_whole_grid_gap_exits_3(tmp_path):
    payload = two_level_config()
    payload["system"]["pre"] = {"bloch": [0.0, 0.0, 1.0]}
    payload["system"]["post"] = {"bloch": [0.0, 0.0, -1.0]}
    payload["sweep"] = {"start": 0.0, "stop": 0.0, "count": 1}
    cfg = write_cfg(tmp_path, payload)
    assert run_cli("weak-value", "--config", cfg, "--out", str(tmp_path / "o")) == 3


def test_weak_value_partial_gap_rows_are_nan(tmp_path):
    payload = two_level_config()
    payload["system"]["pre"] = {"bloch": [0.0, 0.0, 1.0]}
    payload["system"]["post"] = {"bloch": [0.0, 0.0, -1.0]}
    payload["sweep"] = {"start": 0.0, "stop": 2.0, "count": 3}
    cfg = write_cfg(tmp_path, payload)
    out = tmp_path / "o"
    assert run_cli("weak-value", "--config", cfg, "--out", str(out)) == 0
    _, rows = read_csv(out / "weak_value.csv")
    assert math.isnan(rows[0][1]) and rows[0][3] == 0.0
    assert not math.isnan(rows[1][1])


@pytest.mark.pinned
def test_weak_value_settles_where_the_zero_eigenvalue_lies_above_the_snap(tmp_path):
    # eig puts this channel's zero eigenvalue at about 1.6e-12, above 16 n eps
    # max|lam| = 2.6e-13: the probability still settles at its steady value
    # 0.0526, with no gap at tau = 1e14
    pairs = lambda m: [[[float(x), 0.0] for x in row] for row in m]
    payload = {
        "version": 1,
        "system": {"dimension": 3,
                   "pre": {"amplitudes": [[math.sqrt(p), 0.0] for p in (0.5, 0.3, 0.2)]},
                   "post": {"amplitudes": [[1.0, 0.0]] * 3}},
        "observable": {"matrix": pairs(np.diag([1.0, 0.0, -1.0]))},
        "channel": {"jumps": [pairs([[-1, 0, 0], [-2, 0, -2], [0, 0, -1]]),
                              pairs([[-2, 2, 1], [1, -1, 0], [-1, -2, -2]])],
                    "rates": [1.0, 1e-8]},
        "sweep": {"start": 1e6, "stop": 1e14, "count": 5, "spacing": "log"},
    }
    out = tmp_path / "out"
    assert run_cli("weak-value", "--config", write_cfg(tmp_path, payload),
                   "--out", str(out)) == 0
    _, rows = read_csv(out / "weak_value.csv")
    assert [row[0] for row in rows] == pytest.approx([1e6, 1e8, 1e10, 1e12, 1e14])
    assert not any(math.isnan(row[1]) for row in rows)
    assert all(abs(row[3] - 0.05263) < 1e-4 for row in rows[2:])


def test_weak_value_json_gaps_read_back_as_nan(tmp_path):
    payload = two_level_config()
    payload["system"]["pre"] = {"bloch": [0.0, 0.0, 1.0]}
    payload["system"]["post"] = {"bloch": [0.0, 0.0, -1.0]}
    payload["sweep"] = {"start": 0.0, "stop": 2.0, "count": 3}
    out = tmp_path / "o"
    assert run_cli("weak-value", "--config", write_cfg(tmp_path, payload),
                   "--out", str(out), "--format", "json") == 0
    with open(out / "weak_value.json") as fh:
        doc = json.load(fh)
    assert doc["gaps"] == [0]
    for k in doc["gaps"]:
        assert math.isnan(doc["re_wv"][k]) and math.isnan(doc["im_wv"][k])
    assert run_cli("weak-value", "--config", write_cfg(tmp_path, payload),
                   "--out", str(out), "--format", "csv") == 0
    lines = (out / "weak_value.csv").read_text().splitlines()
    assert lines[1] == "0,nan,nan,0"
    _, rows = read_csv(out / "weak_value.csv")
    assert [r[1] for r in rows[1:]] == doc["re_wv"][1:]


def test_nonfinite_config_values_exit_2(tmp_path, capsys):
    payload = two_level_config(sweep={"start": 0.0, "stop": math.inf, "count": 5})
    assert run_cli("weak-value", "--config", write_cfg(tmp_path, payload),
                   "--out", str(tmp_path / "o")) == 2
    err = capsys.readouterr().err
    assert "sweep.stop: Input should be a finite number" in err
    assert "Traceback" not in err
    payload = {
        "version": 1,
        "meter": {"omega_f": 1.3, "state": "vacuum", "g": math.inf, "t": 1.0},
        "invert": {"Q_f": 0.01, "P_f": 0.02, "tau": 0.3},
    }
    assert run_cli("invert", "--config", write_cfg(tmp_path, payload),
                   "--out", str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert "meter.g: Input should be a finite number" in err
    assert "Traceback" not in err
    assert not (tmp_path / "invert.json").exists()


def test_overflowing_rate_exits_2(tmp_path, capsys):
    payload = two_level_config(channel={"named": "amplitude_damping", "gamma": 1e308})
    out = tmp_path / "o"
    assert run_cli("weak-value", "--config", write_cfg(tmp_path, payload),
                   "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "tau=0.5" in err
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err
    assert not (out / "weak_value.csv").exists()


def test_an_overflowing_largest_singular_value_exits_2(tmp_path, capsys):
    # damping at 1.5e308: max|lam| tau overflows the eig guard, and the expm
    # fallback's projector refuses s_max = inf before any expm, on one line
    payload = two_level_config(channel={"named": "amplitude_damping", "gamma": 1.5e308})
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli("weak-value", "--config", write_cfg(tmp_path, payload),
                       "--out", str(out)) == 2
    assert capsys.readouterr() == (
        "", "error: the superoperator's largest singular value overflows\n")
    assert not out.exists()


def test_overflowing_superoperator_exits_2_where_it_enters(tmp_path, capsys):
    # the rate times |jump|^2 is past the float limit: refused when the
    # dissipator is made, on one line, before any map is formed
    payload = two_level_config(channel={"jumps": [[[[0.0, 0.0], [0.0, 0.0]],
                                                   [[10.0, 0.0], [0.0, 0.0]]]],
                                        "rates": [1e308]})
    out = tmp_path / "o"
    assert run_cli("weak-value", "--config", write_cfg(tmp_path, payload),
                   "--out", str(out)) == 2
    assert capsys.readouterr() == (
        "", "error: the superoperator is not finite: its rates and jumps overflow\n")
    assert not out.exists()


@pytest.mark.parametrize("observable,what", [
    ({"matrix": [[[1.7e308, 0.0], [1.7e308, 0.0]], [[1.7e308, 0.0], [1.7e308, 0.0]]]},
     "observable.matrix"),
    ({"pauli": {"b": 1e308, "m": [[1e308, 0.0], [0.0, 0.0], [0.0, 0.0]]}}, "observable.pauli"),
])
def test_overflowing_observable_exits_2_where_it_enters(tmp_path, capsys, observable, what):
    payload = two_level_config(observable=observable)
    payload["system"]["pre"] = {"bloch": [0.6, 0.0, 0.8]}
    out = tmp_path / "o"
    assert run_cli("weak-value", "--config", write_cfg(tmp_path, payload),
                   "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err == f"error: {what}: the entries are too large: sum |A_jk| overflows\n"
    assert not (out / "weak_value.csv").exists()


@pytest.mark.parametrize("gamma0,lam", [(1.0, 1e308), (1e308, 1.0), (1e300, 1e300),
                                        (5e307, 1e308)])
def test_memory_kernel_near_the_float_limit_runs(tmp_path, gamma0, lam):
    # the envelope is formed without overflow; at lam = 1e308 it reaches
    # d tau/2 = inf (tau = 4), where Gamma is the Markov e^{-gamma0 tau/2};
    # at critical coupling lam = 2 gamma0 = 1e308, lam tau/2 overflows and
    # Gamma is 0, not e^{-inf} inf = NaN
    payload = two_level_config(
        channel={"named": "nonmarkov_jc", "gamma0": gamma0, "lam": lam},
        sweep={"start": 0.0, "stop": 4.0, "count": 9, "spacing": "linear"})
    out = tmp_path / "o"
    assert run_cli("weak-value", "--config", write_cfg(tmp_path, payload),
                   "--out", str(out)) == 0
    _, rows = read_csv(out / "weak_value.csv")
    assert len(rows) == 9
    # the gamma_tau column is gamma0 tau, which overflows past tau = 1.8 at
    # gamma0 = 1e308; the weak value and probability stay finite everywhere
    assert np.all(np.isfinite(np.array(rows)[:, 1:]))


def test_memory_kernel_phase_overflow_exits_2(tmp_path, capsys):
    # gamma0 = lam = 1e308 at tau = 4: the strong-coupling phase d tau/2 is
    # past the float limit, which is refused on one line, not a traceback
    payload = two_level_config(
        channel={"named": "nonmarkov_jc", "gamma0": 1e308, "lam": 1e308},
        sweep={"start": 0.0, "stop": 4.0, "count": 9, "spacing": "linear"})
    assert run_cli("weak-value", "--config", write_cfg(tmp_path, payload),
                   "--out", str(tmp_path / "o")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "tau=4.0" in err
    assert len(err.strip().splitlines()) == 1


def test_missing_section_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"version": 1})
    assert run_cli("weak-value", "--config", cfg, "--out", str(tmp_path / "o")) == 2
    assert "system" in capsys.readouterr().err


@pytest.mark.parametrize("blob,why", [
    (b"{nope", "is not valid JSON: line 1 column 2"),
    (b'{"version": 1, "output": {"out_dir": "\xff"}}', "cannot be parsed: 'utf-8' codec"),
    (b"[" * 100_000 + b"]" * 100_000, "cannot be parsed: maximum recursion depth"),
    (b'{"version": 1, "sweep": {"start": 0, "stop": ' + b"1" * 5000 + b', "count": 3}}',
     "cannot be parsed: Exceeds the limit"),
], ids=["malformed", "not-utf8", "deeply-nested", "long-integer"])
def test_bad_config_file_exits_2(tmp_path, capsys, blob, why):
    path = tmp_path / "bad.json"
    path.write_bytes(blob)
    assert run_cli("weak-value", "--config", str(path), "--out", str(tmp_path / "o")) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: config {path} {why}")
    assert len(err.splitlines()) == 1 and "Traceback" not in err


@pytest.mark.parametrize("amplitudes", [[[1e200, 0.0], [1.0, 0.0]],
                                        [[1e-200, 0.0], [1e-200, 0.0]]])
def test_weak_value_extreme_amplitudes_are_normalized(tmp_path, amplitudes):
    payload = two_level_config()
    payload["system"]["pre"] = {"amplitudes": amplitudes}
    out = tmp_path / "o"
    assert run_cli("weak-value", "--config", write_cfg(tmp_path, payload),
                   "--out", str(out)) == 0
    # the same run with the amplitudes scaled to unit size
    scale = max(abs(re) for re, _ in amplitudes)
    payload["system"]["pre"] = {"amplitudes": [[re / scale, im / scale]
                                               for re, im in amplitudes]}
    ref = tmp_path / "ref"
    assert run_cli("weak-value", "--config", write_cfg(tmp_path, payload, "ref.json"),
                   "--out", str(ref)) == 0
    _, rows = read_csv(out / "weak_value.csv")
    _, ref_rows = read_csv(ref / "weak_value.csv")
    np.testing.assert_allclose(rows, ref_rows, rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("sweep", [{"start": 0.0, "stop": 1e-322, "count": 50},
                                   {"start": 1e15, "stop": 1e15 + 1, "count": 100}])
def test_non_increasing_grid_exits_2(tmp_path, capsys, sweep):
    cfg = write_cfg(tmp_path, two_level_config(sweep=sweep, meter=meter_section()))
    for command in ("weak-value", "shifts"):
        assert run_cli(command, "--config", cfg, "--out", str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: sweep: ") and "strictly increasing" in err
        assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "o" / "weak_value.csv").exists()
    assert not (tmp_path / "o" / "shifts.csv").exists()


def test_out_under_a_regular_file_exits_2(tmp_path, capsys):
    blocker = tmp_path / "f"
    blocker.write_text("x")
    cfg = write_cfg(tmp_path, two_level_config())
    before = sorted(tmp_path.rglob("*"))
    for argv in (["scenario", "classify"], ["weak-value", "--config", cfg]):
        assert run_cli(*argv, "--out", str(blocker / "x")) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot create output directory ")
        assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert sorted(tmp_path.rglob("*")) == before and blocker.read_text() == "x"


@pytest.mark.parametrize("command, name", [("shifts", "shifts.csv"), ("invert", "invert.json"),
                                           ("scenario", "classify.json")])
def test_an_output_file_that_is_a_directory_exits_2(tmp_path, capsys, command, name):
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)
    payload = two_level_config(meter=meter_section(),
                               invert={"Q_f": 0.001, "P_f": 0.002, "tau": 0.4})
    argv = (["scenario", "classify", "--format", "json"] if command == "scenario"
            else [command, "--config", write_cfg(tmp_path, payload)])
    assert run_cli(*argv, "--out", str(out)) == 2
    path = str(out / name)
    assert capsys.readouterr().err == (
        f"error: cannot write {path!r}: {os.strerror(errno.EISDIR)}\n")
    assert [p.name for p in out.iterdir()] == [name]  # no temporary file is left


def _no_space(*args, **kwargs):
    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def _no_space_after_close(fd, *args, **kwargs):
    os.close(fd)
    _no_space()


@pytest.mark.parametrize("stage, fail", [("open", _no_space), ("fdopen", _no_space_after_close),
                                         ("replace", _no_space)])
def test_atomic_write_turns_an_os_error_into_a_config_error(tmp_path, monkeypatch, stage, fail):
    # creating, writing or renaming the temporary file
    path = str(tmp_path / "out.csv")
    monkeypatch.setattr(cli.os, stage, fail)
    with pytest.raises(ConfigError) as info:
        cli._atomic_write(path, "text")
    monkeypatch.undo()
    assert str(info.value) == f"cannot write {path!r}: {os.strerror(errno.ENOSPC)}"
    assert list(tmp_path.iterdir()) == []


def test_atomic_write_draws_again_when_the_temporary_name_exists(tmp_path, monkeypatch):
    # the first draw names a file that is there already: it is left alone
    taken = tmp_path / f".tmp-{0x123:012x}"
    taken.write_text("someone else's")
    draws = iter([0x123, 0x456])
    monkeypatch.setattr(cli.random, "getrandbits", lambda bits: next(draws))
    cli._atomic_write(str(tmp_path / "out.csv"), "text")
    assert next(draws, None) is None
    assert sorted(p.name for p in tmp_path.iterdir()) == [taken.name, "out.csv"]
    assert (taken.read_text(), (tmp_path / "out.csv").read_text()) == ("someone else's", "text")


def test_a_nul_in_the_output_directory_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, two_level_config(output={"out_dir": "a\u0000b"}))
    before = sorted(tmp_path.rglob("*"))
    assert run_cli("weak-value", "--config", cfg) == 2
    assert capsys.readouterr().err == (
        "error: cannot create output directory 'a\\x00b': embedded null byte\n")
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
def test_output_files_get_the_mode_the_umask_leaves(tmp_path, umask, mode):
    # the mode open(path, "w") gives a new file: 0o666 less the umask
    old = os.umask(umask)
    try:
        assert run_cli("scenario", "estimate-gamma", "--seed", "1", "--out", str(tmp_path)) == 0
    finally:
        os.umask(old)
    written = sorted(tmp_path.iterdir())
    assert len(written) == 2 and not [p for p in written if p.name.startswith(".tmp-")]
    assert [p.stat().st_mode & 0o777 for p in written] == [mode, mode]


# ---------------------------------------------------------- CLI: scenarios

def test_scenario_unknown_name_exits_2(tmp_path, capsys):
    out = tmp_path / "fresh" / "out"
    assert run_cli("scenario", "no-such-thing", "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert "unknown scenario" in err and "sodium-anomalous" in err
    assert not out.exists() and not out.parent.exists()


def test_scenario_sodium_anomalous_artifacts(tmp_path):
    assert run_cli("scenario", "sodium-anomalous", "--out", str(tmp_path)) == 0
    doc = json.loads((tmp_path / "sodium-anomalous.json").read_text())
    wv0 = complex(*doc["verdict"]["wv_at_zero"])
    assert abs(wv0 - 0.0954) < 5e-4
    header, rows = read_csv(tmp_path / "sodium-anomalous.csv")
    assert header == ["gamma_tau", "re_wv", "im_wv", "postselect_prob"]
    assert rows[0][0] == 0.0 and rows[-1][0] == 10.0


def test_scenario_seeded_noise_is_reproducible(tmp_path):
    out_a, out_b, out_c = (tmp_path / x for x in ("a", "b", "c"))
    for out in (out_a, out_b):
        assert run_cli("scenario", "estimate-gamma", "--seed", "7",
                       "--out", str(out)) == 0
    assert run_cli("scenario", "estimate-gamma", "--out", str(out_c)) == 0
    blob_a = (out_a / "estimate-gamma.json").read_bytes()
    assert blob_a == (out_b / "estimate-gamma.json").read_bytes()
    assert blob_a != (out_c / "estimate-gamma.json").read_bytes()
    doc = json.loads(blob_a)
    assert doc["verdict"]["noisy"] is True
    assert doc["verdict"]["relative_error"] < 0.01


def test_scenario_classify_channel_flag(tmp_path):
    assert run_cli("scenario", "classify", "--channel", "amplitude_damping",
                   "--out", str(tmp_path)) == 0
    doc = json.loads((tmp_path / "classify.json").read_text())
    assert doc["verdict"]["verdict"] == "Markovian"


def test_scenario_flag_misuse_exits_2(tmp_path, capsys):
    assert run_cli("scenario", "estimate-gamma", "--channel",
                   "amplitude_damping", "--out", str(tmp_path)) == 2
    assert "classify" in capsys.readouterr().err
    assert run_cli("scenario", "classify", "--seed", str(2**64),
                   "--out", str(tmp_path)) == 2


def test_scenario_names_and_channels_are_the_tables_keys():
    sub = next(a for a in cli._build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    actions = {a.dest: a for a in sub.choices["scenario"]._actions}
    assert actions["name"].help.split(" | ") == list(SCENARIOS)
    assert list(actions["channel"].choices) == list(SHORT_TIME_CHANNELS)


# ------------------------------------------------------------- CLI: shifts

def meter_section(model="rabi", g=0.001, state="vacuum", n=0.0):
    return {"omega_f": 1.3, "n_max": 20, "state": state, "n": n,
            "g": g, "t": 1.0, "Delta": 0.0, "model": model}


def test_shifts_rabi_csv(tmp_path):
    payload = two_level_config(meter=meter_section())
    cfg = write_cfg(tmp_path, payload)
    out = tmp_path / "out"
    assert run_cli("shifts", "--config", cfg, "--out", str(out)) == 0
    header, rows = read_csv(out / "shifts.csv")
    assert header == ["gamma_tau", "q_shift", "p_shift", "re_wv", "im_wv"]
    assert len(rows) == 5
    # reproduce one row through the library
    from weaklind import (Dissipator, SIGMA_MINUS, SIGMA_X, WeakMeasurementSetup,
                          bloch_to_density, weak_value_dissipative)
    d = Dissipator([SIGMA_MINUS], [0.5])
    setup = WeakMeasurementSetup(
        sigma_i=bloch_to_density([0.55, 0.15, 0.6]),
        sigma_fI=bloch_to_density([-0.3, 0.45, -0.5]),
        A_SI=SIGMA_X)
    tau = 1.0   # third grid point; gamma_tau = 0.5
    wv = weak_value_dissipative(setup, d, tau).value
    q, p = rabi_shifts_number_state(0, wv, 0.001, 1.0, tau, 1.3)
    assert rows[2][0] == pytest.approx(0.5)
    assert rows[2][1] == pytest.approx(q, rel=1e-12)
    assert rows[2][2] == pytest.approx(p, rel=1e-12)


def test_shifts_jc_csv_and_json(tmp_path):
    payload = two_level_config(meter=meter_section(model="jc"))
    cfg = write_cfg(tmp_path, payload)
    out = tmp_path / "out"
    assert run_cli("shifts", "--config", cfg, "--out", str(out)) == 0
    header, rows = read_csv(out / "shifts.csv")
    assert header == ["gamma_tau", "q_shift", "p_shift", "re_wv_plus",
                      "im_wv_plus", "re_wv_minus", "im_wv_minus"]
    payload["output"] = {"format": "json"}
    cfg = write_cfg(tmp_path, payload, "jc.json")
    assert run_cli("shifts", "--config", cfg, "--out", str(out)) == 0
    doc = json.loads((out / "shifts.json").read_text())
    assert doc["model"] == "jc"
    assert doc["rows"][0][0] == 0.0
    assert len(doc["rows"]) == len(rows)


def _assert_shifts_json_is_the_per_row_text(tmp_path, model, count):
    """The rows table goes through _g17_text in one pass; the bytes are those
    of the rows as nested lists, gap rows (NaN) included."""
    payload = two_level_config(meter=meter_section(model=model),
                               sweep={"start": 0.0, "stop": 10.0, "count": count})
    payload["system"]["pre"] = {"bloch": [0.0, 0.0, 1.0]}
    payload["system"]["post"] = {"bloch": [0.0, 0.0, -1.0]}  # a gap at tau = 0
    out = tmp_path / "o"
    for fmt in ("csv", "json"):
        assert run_cli("shifts", "--config", write_cfg(tmp_path, payload), "--out", str(out),
                       "--format", fmt) == 0
    header, rows = read_csv(out / "shifts.csv")
    assert all(map(math.isnan, rows[0][1:]))
    doc = {"columns": header, "rows": rows, "model": model}
    assert (out / "shifts.json").read_text() == cli._json_text(doc) + "\n"


@pytest.mark.parametrize("model", ["jc", "rabi"])
def test_large_shifts_json_is_the_per_row_text(tmp_path, model):
    _assert_shifts_json_is_the_per_row_text(tmp_path, model, 1000)


@pytest.mark.parametrize("model, count", [("jc", 57), ("rabi", 79)])
def test_small_shifts_json_is_one_percent_pass(tmp_path, model, count, numpy_path):
    # 399 and 395 cells: below _G17_MIN_CELLS the rows table, like the CSV,
    # is one % pass and the numpy formatter never runs
    _assert_shifts_json_is_the_per_row_text(tmp_path, model, count)
    assert numpy_path == []


def test_json_float_table_is_the_nested_list_text():
    rng = np.random.default_rng(11)
    table = rng.standard_normal((100, 5)) * 10.0 ** rng.integers(-320, 300, (100, 5))
    table.flat[:7] = [np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, 1e-6]
    for t in (table, table[:, :4], table[:80], table[:3], table[:2, :1], table[:0]):
        assert cli._json_text({"rows": t}, 1) == cli._json_text({"rows": t.tolist()}, 1)


def test_shifts_jc_requires_two_levels(tmp_path):
    payload = sodium_config(meter=meter_section(model="jc"))
    cfg = write_cfg(tmp_path, payload)
    assert run_cli("shifts", "--config", cfg, "--out", str(tmp_path / "o")) == 2


def test_shifts_whole_grid_gap_exits_3(tmp_path):
    payload = two_level_config(meter=meter_section())
    payload["system"]["pre"] = {"bloch": [0.0, 0.0, 1.0]}
    payload["system"]["post"] = {"bloch": [0.0, 0.0, -1.0]}
    payload["sweep"] = {"start": 0.0, "stop": 0.0, "count": 1}
    cfg = write_cfg(tmp_path, payload)
    assert run_cli("shifts", "--config", cfg, "--out", str(tmp_path / "o")) == 3


@pytest.mark.parametrize("model", ["rabi", "jc"])
def test_shifts_partial_gap_rows_are_nan(tmp_path, model):
    payload = two_level_config(meter=meter_section(model=model))
    payload["system"]["pre"] = {"bloch": [0.0, 0.0, 1.0]}
    payload["system"]["post"] = {"bloch": [0.0, 0.0, -1.0]}
    payload["sweep"] = {"start": 0.0, "stop": 2.0, "count": 4}
    out = tmp_path / "o"
    assert run_cli("shifts", "--config", write_cfg(tmp_path, payload),
                   "--out", str(out)) == 0
    _, rows = read_csv(out / "shifts.csv")
    assert len(rows) == 4 and rows[0][0] == 0.0
    assert all(math.isnan(c) for c in rows[0][1:])
    for row in rows[1:]:
        assert all(math.isfinite(c) for c in row)


@pytest.mark.parametrize("model", ["rabi", "jc"])
@pytest.mark.parametrize("meter", [{"omega_f": 1e308},           # infinite phase
                                   {"g": 1e308, "t": 1e308}])    # g t overflows
def test_shifts_non_finite_exits_2(tmp_path, capsys, model, meter):
    payload = two_level_config(meter={**meter_section(model=model), **meter})
    out = tmp_path / "o"
    assert run_cli("shifts", "--config", write_cfg(tmp_path, payload),
                   "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: the meter shifts are not finite at tau=")
    assert len(err.strip().splitlines()) == 1
    assert not (out / "shifts.csv").exists()


@pytest.mark.parametrize("model", ["rabi", "jc"])
def test_shifts_name_the_first_overflowing_tau(tmp_path, capsys, model):
    # omega_f = 1e307: the angle leaves the float range inside the grid, and
    # the error names the first tau where it does, as the per-point loop did
    meter = {**meter_section(model=model), "omega_f": 1e307}
    sweep = {"start": 0.0, "stop": 40.0, "count": 81, "spacing": "linear"}
    payload = two_level_config(meter=meter, sweep=sweep)
    assert run_cli("shifts", "--config", write_cfg(tmp_path, payload),
                   "--out", str(tmp_path / "o")) == 2
    t, Delta = meter["t"], meter.get("Delta", 0.0)
    angle = ((lambda tau: 1e307 * (0.5 * t + tau)) if model == "rabi"
             else (lambda tau: 0.5 * Delta * t + 1e307 * (t + tau)))
    first = next(tau for tau in np.linspace(0.0, 40.0, 81).tolist()
                 if math.isinf(angle(tau)))
    assert 0.0 < first < 40.0
    assert capsys.readouterr().err == f"error: the meter shifts are not finite at tau={first}\n"


# ------------------------------------------------------------ CLI: inverse

def test_invert_round_trip_via_cli(tmp_path):
    omega_f, g, t, tau, n = 1.3, 0.01, 0.9, 0.4, 1
    wv = 1.7 - 0.9j
    q, p = rabi_shifts_number_state(n, wv, g, t, tau, omega_f)
    payload = {
        "version": 1,
        "meter": {"omega_f": omega_f, "n_max": 30, "state": "number", "n": n,
                  "g": g, "t": t},
        "invert": {"Q_f": q, "P_f": p, "tau": tau},
    }
    cfg = write_cfg(tmp_path, payload)
    assert run_cli("invert", "--config", cfg, "--out", str(tmp_path)) == 0
    doc = json.loads((tmp_path / "invert.json").read_text())
    got = complex(*doc["weak_value"])
    assert abs(got - wv) < 1e-10
    # cross-check against the in-process inversion path
    assert abs(invert_weak_value(n, q, p, "rabi", g, t, tau, omega_f, 0.0) - got) < 1e-14


def test_invert_singular_exits_5(tmp_path):
    payload = {
        "version": 1,
        "meter": {"omega_f": 1.3, "state": "vacuum", "g": 0.0, "t": 1.0},
        "invert": {"Q_f": 0.01, "P_f": 0.02, "tau": 0.3},
    }
    cfg = write_cfg(tmp_path, payload)
    assert run_cli("invert", "--config", cfg, "--out", str(tmp_path)) == 5


def test_invert_overflowing_meter_phase_exits_2(tmp_path, capsys):
    # 2 omega_f overflows, so the quadrature unit sqrt(hbar/2 omega_f) is 0
    # and the inverted weak value is not finite
    payload = {
        "version": 1,
        "meter": {"omega_f": 1e308, "state": "vacuum", "g": 0.001, "t": 1.0},
        "invert": {"Q_f": 0.01, "P_f": 0.02, "tau": 1.0},
    }
    cfg = write_cfg(tmp_path, payload)
    out = tmp_path / "out"
    assert run_cli("invert", "--config", cfg, "--out", str(out)) == 2
    assert capsys.readouterr().err == "error: the inverted weak value is not finite at tau=1.0\n"
    assert not (out / "invert.json").exists()


def _invert_cli(tmp_path, meter, Q_f, P_f, tau):
    """Run `invert` on one meter section; the exit code and the output directory."""
    payload = {"version": 1, "meter": meter, "invert": {"Q_f": Q_f, "P_f": P_f, "tau": tau}}
    out = tmp_path / "out"
    return run_cli("invert", "--config", write_cfg(tmp_path, payload), "--out", str(out)), out


def test_invert_round_trips_the_rabi_shifts_at_any_n_max(tmp_path):
    # the inverse reads the same closed form as `shifts`, so a thermal meter
    # does not depend on the truncation and a number level may sit at n_max
    omega_f, g, t, tau = 1.3, 0.001, 1.0, 0.7
    wv = 0.7 - 1.3j
    meters = [{"state": "vacuum"}, {"state": "number", "n": 3, "n_max": 3}]
    meters += [{"state": "thermal", "n": n, "n_max": n_max}
               for n in (0.5, 3.0) for n_max in (4, 1000)]
    for meter in meters:
        meter.update(omega_f=omega_f, g=g, t=t)
        (Q,), (P,) = rabi_shift_columns(meter.get("n", 0.0), [wv], g, t, [tau], omega_f)
        code, out = _invert_cli(tmp_path, meter, float(Q), float(P), tau)
        assert code == 0, meter
        got = complex(*json.loads((out / "invert.json").read_text())["weak_value"])
        assert abs(got - wv) <= 1e-12 * abs(wv), (meter, got)


def test_invert_jc_vacuum_recovers_the_lowering_weak_value_of_shifts(tmp_path):
    meter = {"omega_f": 1.3, "state": "vacuum", "g": 0.001, "t": 1.0, "Delta": 0.02,
             "model": "jc"}
    cfg = write_cfg(tmp_path, two_level_config(meter=meter, output={"format": "json"}),
                    name="shifts.json")
    assert run_cli("shifts", "--config", cfg, "--out", str(tmp_path / "shifts")) == 0
    doc = json.loads((tmp_path / "shifts" / "shifts.json").read_text())
    gamma_tau, q, p, _, _, re_m, im_m = doc["rows"][3]
    code, out = _invert_cli(tmp_path, meter, q, p, gamma_tau / 0.5)
    assert code == 0
    got = complex(*json.loads((out / "invert.json").read_text())["weak_value"])
    want = complex(re_m, im_m)
    assert abs(got - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("state", [{"state": "number", "n": 2}, {"state": "thermal", "n": 0.4}])
def test_invert_jc_refuses_an_occupied_meter(tmp_path, capsys, state):
    meter = {"omega_f": 1.3, "g": 0.001, "t": 1.0, "model": "jc", **state}
    code, out = _invert_cli(tmp_path, meter, 0.01, 0.02, 0.3)
    assert code == 5
    assert "meter.model" in capsys.readouterr().err
    assert not (out / "invert.json").exists()


def test_invert_refuses_an_occupation_on_a_vacuum_meter(tmp_path, capsys):
    # a vacuum meter has n = 0; a nonzero n would otherwise be dropped silently
    meter = {"omega_f": 1.3, "state": "vacuum", "n": 3, "g": 0.001, "t": 1.0}
    code, out = _invert_cli(tmp_path, meter, 0.01, 0.02, 0.3)
    assert code == 2
    err = capsys.readouterr().err
    assert "  meter: Value error, meter state 'vacuum' does not take n = 3\n" in err
    assert not (out / "invert.json").exists()
    code, _ = _invert_cli(tmp_path, {**meter, "n": 0}, 0.01, 0.02, 0.3)
    assert code == 0


def test_invert_jc_warns_off_resonance(tmp_path, capsys):
    # one plain stderr line: no source path, line number or echoed source
    meter = {"omega_f": 1.3, "g": 0.001, "t": 1.0, "Delta": 0.2, "model": "jc"}
    code, _ = _invert_cli(tmp_path, meter, 0.01, 0.02, 0.3)
    assert code == 0
    assert capsys.readouterr().err == (
        "warning: Delta*t = 0.2 outside the rotating-wave validity guard 0.05\n")


@pytest.mark.parametrize("meter", [
    {"omega_f": 1e308},                  # 2 omega_f overflows: sqrt(hbar/2 omega_f) is 0
    {"hbar": 5e-324},                    # sqrt(hbar/2 omega_f) underflows to 0
    {"omega_f": 10.0, "hbar": 1e308},    # sqrt(hbar omega_f/2) overflows
    {"g": 1e200, "t": 1e200},            # 2 g t overflows
])
def test_invert_degenerate_scale_exits_2(tmp_path, capsys, meter):
    # the forward shifts are 0 or not finite for every weak value: there is no inverse
    meter = {"omega_f": 1.3, "state": "vacuum", "g": 0.001, "t": 1.0, **meter}
    code, out = _invert_cli(tmp_path, meter, 0.01, 0.02, 0.4)
    assert code == 2
    err = capsys.readouterr().err
    assert err == "error: the inverted weak value is not finite at tau=0.4\n"
    assert not (out / "invert.json").exists()


# ------------------------------------------------------ CLI: refused runs

SIGMA_MINUS_PAIRS = [[[0, 0], [0, 0]], [[1, 0], [0, 0]]]
IDENTITY3_PAIRS = [[[1, 0], [0, 0], [0, 0]], [[0, 0], [1, 0], [0, 0]], [[0, 0], [0, 0], [1, 0]]]
NO_POSTSELECTION = "post-selection probability vanishes on the whole tau grid\n"
# dephasing never moves the population into the orthogonal post-selection: a
# gap at every tau
NO_OVERLAP = {"system": {"dimension": 2, "pre": {"bloch": [0.0, 0.0, 1.0]},
                         "post": {"bloch": [0.0, 0.0, -1.0]}},
              "channel": {"jumps": [[[[1, 0], [0, 0]], [[0, 0], [-1, 0]]]], "rates": [0.5]}}
INVERT = {"Q_f": 0.01, "P_f": 0.02, "tau": 0.3}
VALIDATION = "error: config {cfg} failed validation:\n  "
ONE_OBSERVABLE = (VALIDATION
                  + "observable: Value error, give exactly one of 'named', 'matrix' or 'pauli'\n")
# (id, command, config, exit code, stderr with {cfg} for the config's path)
CONFIG_REFUSALS = [
    ("amplitude-damping-at-6", "weak-value",
     sodium_config(channel={"named": "amplitude_damping", "gamma": 0.5}), 2,
     "error: channel 'amplitude_damping' needs dimension 2, got 6\n"),
    ("sodium-at-2", "weak-value", two_level_config(channel={"named": "sodium", "rate": 1.0}), 2,
     "error: channel 'sodium' needs dimension 6, got 2\n"),
    ("nonmarkov-at-6", "weak-value",
     sodium_config(channel={"named": "nonmarkov_jc", "gamma0": 0.1, "lam": 1.0}), 2,
     "error: channel 'nonmarkov_jc' needs dimension 2, got 6\n"),
    ("sigma-x-at-6", "weak-value", sodium_config(observable={"named": "sigma_x"}), 2,
     "error: observable 'sigma_x' needs dimension 2, got 6\n"),
    ("jy6-at-2", "weak-value", two_level_config(observable={"named": "jy6"}), 2,
     "error: observable 'jy6' needs dimension 6, got 2\n"),
    ("sigma-minus-at-6", "shifts",
     sodium_config(observable={"named": "sigma_minus"}, meter=meter_section()), 2,
     "error: observable 'sigma_minus' needs dimension 2, got 6\n"),
    ("pauli-at-6", "weak-value",
     sodium_config(observable={"pauli": {"m": [[1, 0], [0, 0], [0, 0]]}}), 2,
     "error: observable.pauli needs dimension 2, got 6\n"),
    ("jump-shape", "weak-value",
     two_level_config(channel={"jumps": [SIGMA_MINUS_PAIRS, IDENTITY3_PAIRS],
                               "rates": [0.5, 0.5]}), 2,
     "error: channel.jumps[1] shape (3, 3) does not match dimension 2\n"),
    ("level-above-n-max", "shifts",
     two_level_config(meter=meter_section(state="number", n=21)), 2,
     "error: meter level 21 exceeds n_max 20\n"),
    ("count-without-span", "weak-value",
     two_level_config(sweep={"start": 1.0, "stop": 1.0, "count": 3}), 2,
     "error: config {cfg} failed validation:\n"
     "  sweep: Value error, count > 1 needs stop > start\n"),
    ("phase-overflow", "weak-value",
     two_level_config(channel={"named": "nonmarkov_jc", "gamma0": 1e308, "lam": 1e308},
                      sweep={"start": 0.0, "stop": 4.0, "count": 9}), 2,
     "error: the envelope phase d tau/2 overflows at tau=4.0\n"),
    ("weak-value-gap", "weak-value", two_level_config(**NO_OVERLAP), 3, NO_POSTSELECTION),
    ("shifts-gap", "shifts", two_level_config(**NO_OVERLAP, meter=meter_section()), 3,
     NO_POSTSELECTION),
    ("invert-jc-number", "invert",
     {"version": 1, "meter": meter_section(model="jc", state="number", n=2),
      "invert": INVERT}, 5,
     "singular inversion: meter.model 'jc' with occupation n = 2 > 0: the shifts mix the "
     "raising and lowering weak values, four real unknowns from two quadratures\n"),
    ("invert-g-t-zero", "invert", {"version": 1, "meter": meter_section(g=0.0),
                                   "invert": INVERT}, 5,
     "singular inversion: g*t = 0: shifts carry no weak-value information\n"),
    ("bloch-norm", "weak-value",
     two_level_config(system={"dimension": 2, "pre": {"bloch": [0.9, 0.9, 0.9]},
                              "post": {"bloch": [-0.3, 0.45, -0.5]}}), 2,
     "error: system.pre: Bloch vector norm 1.5588457268119895 exceeds 1\n"),
    ("observable-none", "weak-value", two_level_config(observable={}), 2, ONE_OBSERVABLE),
    ("observable-two", "weak-value",
     two_level_config(observable={"named": "sigma_x", "pauli": {"m": [[1, 0], [0, 0], [0, 0]]}}),
     2, ONE_OBSERVABLE),
    ("custom-without-rates", "weak-value",
     two_level_config(channel={"jumps": [SIGMA_MINUS_PAIRS]}), 2,
     VALIDATION + "channel: Value error, custom channels need both 'jumps' and 'rates'\n"),
    ("custom-negative-rate", "weak-value",
     two_level_config(channel={"jumps": [SIGMA_MINUS_PAIRS], "rates": [-0.1]}), 2,
     VALIDATION + "channel: Value error, rates must be >= 0\n"),
    ("custom-with-gamma", "weak-value",
     two_level_config(channel={"jumps": [SIGMA_MINUS_PAIRS], "rates": [0.1], "gamma": 0.5}), 2,
     VALIDATION + "channel: Value error, custom channel does not take ['gamma']\n"),
    ("observable-matrix-shape", "weak-value",
     two_level_config(observable={"matrix": IDENTITY3_PAIRS}), 2,
     "error: observable.matrix shape (3, 3) does not match dimension 2\n"),
    ("bloch-not-a-tuple", "weak-value",
     two_level_config(system={"dimension": 2, "pre": {"bloch": 5},
                              "post": {"bloch": [-0.3, 0.45, -0.5]}}), 2,
     VALIDATION + "system.pre.bloch: Input should be a valid tuple\n"),
    ("no-version", "weak-value",
     {k: v for k, v in two_level_config().items() if k != "version"}, 2,
     VALIDATION + "version: Field required\n"),
    ("no-sweep-stop", "weak-value",
     two_level_config(sweep={"start": 0.0, "count": 5, "spacing": "linear"}), 2,
     VALIDATION + "sweep.stop: Field required\n"),
]
SCENARIO_REFUSALS = [
    (["estimate-gamma", "--seed", "-1"], "--seed must fit in an unsigned 64-bit integer"),
    (["classify", "--seed", str(2**64)], "--seed must fit in an unsigned 64-bit integer"),
    (["estimate-gamma", "--channel", "amplitude_damping"],
     "--channel applies to the 'classify' scenario only"),
    (["no-such-thing"], "unknown scenario 'no-such-thing'; known: " + ", ".join(SCENARIOS)),
]


def _assert_refused(tmp_path, capsys, argv, code, err):
    """The run exits with code and the one stderr text err, and makes no
    output directory."""
    out = tmp_path / "fresh" / "out"
    assert run_cli(*argv, "--out", str(out)) == code
    assert capsys.readouterr().err == err
    assert not (tmp_path / "fresh").exists()


@pytest.mark.parametrize("command, payload, code, err", [case[1:] for case in CONFIG_REFUSALS],
                         ids=[case[0] for case in CONFIG_REFUSALS])
def test_refused_config_runs_exit_with_their_line(tmp_path, capsys, command, payload, code, err):
    cfg = write_cfg(tmp_path, payload)
    _assert_refused(tmp_path, capsys, [command, "--config", cfg], code, err.format(cfg=cfg))


def test_a_config_that_cannot_be_read_exits_2(tmp_path, capsys):
    cfg = str(tmp_path / "nonexistent" / "x.json")
    _assert_refused(tmp_path, capsys, ["weak-value", "--config", cfg], 2,
                    f"error: cannot read config {cfg}: [Errno 2] No such file or directory: "
                    f"'{cfg}'\n")


def test_a_run_too_large_for_memory_exits_2(tmp_path, capsys, monkeypatch):
    """The sweep holds count x dim^2 complex numbers, which no single config
    bound caps; an allocation that fails is one stderr line and no directory."""
    def sweep(*args):
        raise MemoryError("Unable to allocate 3.81 GiB for an array with shape (1000000, 256) "
                          "and data type complex128")
    monkeypatch.setattr(cli, "trace_over_tau", sweep)
    cfg = write_cfg(tmp_path, two_level_config())
    _assert_refused(tmp_path, capsys, ["weak-value", "--config", cfg], 2,
                    "error: not enough memory: Unable to allocate 3.81 GiB for an array with "
                    "shape (1000000, 256) and data type complex128\n")


def test_a_memory_error_without_text_still_gives_a_reason(tmp_path, capsys, monkeypatch):
    # str(MemoryError()) is empty, as when a Python list or str cannot grow
    def sweep(*args):
        raise MemoryError()
    monkeypatch.setattr(cli, "trace_over_tau", sweep)
    cfg = write_cfg(tmp_path, two_level_config())
    _assert_refused(tmp_path, capsys, ["weak-value", "--config", cfg], 2,
                    "error: not enough memory: allocation failed\n")


@pytest.mark.parametrize("argv, reason", SCENARIO_REFUSALS,
                         ids=["seed-negative", "seed-too-large", "channel", "unknown"])
def test_refused_scenario_runs_exit_2_with_their_line(tmp_path, capsys, argv, reason):
    _assert_refused(tmp_path, capsys, ["scenario", *argv], 2, f"error: {reason}\n")


def _anomalous_failure(verdict):
    wv0, wv_inf = complex(*verdict["wv_at_zero"]), complex(*verdict["wv_at_infinity"])
    checks = {"re_at_zero": False, "im_at_zero": True, "re_at_inf": True, "im_at_inf": True}
    return ({"SODIUM_WV_AT_ZERO": 1.0}, "reference endpoints violated: "
            f"wv(0)={wv0}, wv(inf)={wv_inf}, checks={checks}")


def _constant_failure(verdict):
    checks = {"gap_at_zero": True, "spread_re": False, "spread_im": False,
              "im_nonzero": True, "matches_projector": True}
    return ({"SODIUM_CONSTANT_SPREAD_TOL": 0.0},
            f"constant-pair violations: spread=({verdict['spread_re']:.3e}, "
            f"{verdict['spread_im']:.3e}), drift={verdict['max_drift_from_projector']:.3e}, "
            f"checks={checks}")


def _estimate_off(name, field, value):
    """The estimator scenarios.name with its estimate replaced by value."""
    estimate = getattr(scenarios, name)
    return {name: lambda *args: estimate(*args)._replace(**{field: value})}


def _classify_failure(verdict):
    return ({"CLASSIFY_RATIO": 0.0},
            "classifier returned 'inconclusive' on nonmarkov_jc data (expected "
            f"'strongly-non-Markovian'; residuals {verdict['linear_rel_residual']:.3e} "
            f"vs {verdict['quadratic_rel_residual']:.3e})")


# scenario -> (its passing verdict -> (the scenarios attributes that make it
# fail, the reason it then gives))
SCENARIO_FAILURES = {
    "sodium-anomalous": _anomalous_failure,
    "sodium-constant": _constant_failure,
    "estimate-gamma": lambda verdict: (_estimate_off("estimate_gamma", "gamma_hat", 0.2),
                                       "gamma estimate 0.2 misses true rate 0.1 by 100.00%"),
    "classify": _classify_failure,
    "estimate-lambda": lambda verdict: (_estimate_off("estimate_lambda", "lambda_hat", 3.0),
                                        "lambda estimate 3.0 misses true width 1.0 by 200.00%"),
}


@pytest.mark.parametrize("name", SCENARIOS)
def test_a_failed_scenario_assertion_exits_4(tmp_path, capsys, monkeypatch, name):
    patches, reason = SCENARIO_FAILURES[name](scenarios.run_scenario(name).verdict)
    for attr, value in patches.items():
        monkeypatch.setattr(scenarios, attr, value)
    _assert_refused(tmp_path, capsys, ["scenario", name], 4,
                    f"scenario assertion failed: {reason}\n")


def test_a_sodium_constant_grid_of_gaps_exits_4(tmp_path, capsys, monkeypatch):
    # every finite tau a gap, the limit row kept
    sweep = scenarios.trace_over_tau

    def gapped(setup, d, grid):
        trace = sweep(setup, d, grid)
        return dataclasses.replace(trace, kept=np.isinf(trace.tau_grid))

    monkeypatch.setattr(scenarios, "trace_over_tau", gapped)
    _assert_refused(tmp_path, capsys, ["scenario", "sodium-constant"], 4,
                    "scenario assertion failed: post-selection vanished over the whole grid\n")


def test_a_sodium_limit_row_that_is_a_gap_exits_3(tmp_path, capsys, monkeypatch):
    # an excited post state, which the tau = inf map empties
    monkeypatch.setitem(scenarios._ALKALI_POST, "anomalous", [1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    _assert_refused(tmp_path, capsys, ["scenario", "sodium-anomalous"], 3,
                    "post-selection probability vanishes as tau -> infinity\n")


# --------------------------------------------------- CLI: fuzzed configs

EXTREMES = st.sampled_from([0.0, 1e-300, 1e154, 1e300, 1e308, -1.0, -1e-300, -1e308])
NUMERIC_FIELDS = [
    ("system", "pre", "amplitudes", 0, 0), ("system", "pre", "amplitudes", 1, 0),
    ("system", "pre", "amplitudes", 1, 1), ("sweep", "start"), ("sweep", "stop"),
    ("meter", "omega_f"), ("meter", "n"), ("meter", "g"), ("meter", "t"),
    ("meter", "Delta"), ("meter", "hbar"),
]
CHANNELS = st.one_of(
    st.builds(lambda g: {"named": "amplitude_damping", "gamma": g},
              st.one_of(st.just(0.5), EXTREMES)),
    st.builds(lambda g0, lam: {"named": "nonmarkov_jc", "gamma0": g0, "lam": lam},
              st.one_of(st.just(0.3), EXTREMES), st.one_of(st.just(1.0), EXTREMES)),
)
CONFIG_EDITS = st.tuples(
    st.dictionaries(st.sampled_from(NUMERIC_FIELDS), EXTREMES, max_size=4),
    st.fixed_dictionaries({
        ("channel",): CHANNELS,
        ("sweep", "count"): st.integers(1, 8),
        ("sweep", "spacing"): st.sampled_from(["linear", "log"]),
        ("meter", "n_max"): st.integers(1, 8),
        ("meter", "model"): st.sampled_from(["rabi", "jc"]),
        ("meter", "state"): st.sampled_from(["vacuum", "number", "thermal"]),
    }),
).map(lambda pair: {**pair[1], **pair[0]})


def fuzz_base_config():
    payload = two_level_config(meter={**meter_section(), "n_max": 4})
    payload["system"]["pre"] = {"amplitudes": [[0.6, 0.0], [0.8, 0.0]]}
    return payload


@given(command=st.sampled_from(["weak-value", "shifts"]), edits=CONFIG_EDITS)
@example(command="weak-value",
         edits={("system", "pre", "amplitudes", 0, 0): 1e200,
                ("system", "pre", "amplitudes", 1, 0): 1.0})
@example(command="shifts", edits={("meter", "omega_f"): 1e308})
@example(command="shifts", edits={("meter", "model"): "jc", ("meter", "omega_f"): 1e308})
@example(command="shifts", edits={("meter", "g"): 1e308, ("meter", "t"): 1e308})
def test_fuzzed_configs_reach_a_documented_exit_code(command, edits):
    payload = fuzz_base_config()
    for path, value in edits.items():
        node = payload
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "cfg.json")
        with open(cfg, "w") as fh:
            json.dump(payload, fh)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = run_cli(command, "--config", cfg, "--out", os.path.join(tmp, "o"))
    assert code in (0, 2, 3, 4, 5)
    assert "Traceback" not in err.getvalue()


# ---------------------------------------------------------- serialization

CELLS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([math.nan, -math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324,
                     -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
                     1.7976931348623157e308]),
)


def test_json_text_refuses_what_it_cannot_write():
    # every dict it writes has keys; an empty one is still valid JSON
    assert json.loads(cli._json_text({})) == {}
    with pytest.raises(TypeError, match="^cannot serialize object$"):
        cli._json_text(object())


@given(st.lists(st.lists(CELLS, min_size=3, max_size=3), max_size=20))
def test_batched_csv_equals_the_per_cell_format(rows):
    table = np.array(rows, dtype=float).reshape(len(rows), 3)
    want = "a,b,c\n" + "".join(",".join(map(cli._fmt, row)) + "\n" for row in rows)
    assert cli._csv_text("a,b,c", table) == want


@given(st.lists(CELLS, min_size=1, max_size=30), st.integers(0, 3))
def test_batched_json_float_list_equals_the_per_item_format(items, indent):
    inner = "  " * (indent + 1)
    want = ("[\n" + ",\n".join(inner + cli._json_float(v) for v in items)
            + "\n" + "  " * indent + "]")
    assert cli._json_text(items, indent) == want
    assert cli._json_text(np.array(items), indent) == want
    assert json.loads(want) == pytest.approx(items, nan_ok=True)


def _per_cell_csv(table):
    return "h\n" + "".join(",".join(map(cli._fmt, row)) + "\n" for row in table.tolist())


@pytest.fixture
def numpy_path(monkeypatch):
    """Count the cells the numpy formatter computes itself (1e-6 < |x| < 1e17)."""
    computed = []
    real = cli._g17_cells

    def counting(x, cells):
        v = np.abs(x)
        computed.append(int(((v > 1e-6) & (v < 1e17)).sum()))
        real(x, cells)

    monkeypatch.setattr(cli, "_g17_cells", counting)
    return computed


def _assert_csv_per_cell(values, cols=4):
    """_csv_text on a table of values gives the bytes of the per-cell format."""
    values = np.asarray(values, dtype=float).ravel()
    values = np.concatenate([values, np.ones(-len(values) % cols)])
    table = values.reshape(-1, cols)
    assert cli._csv_text("h", table) == _per_cell_csv(table)


def _with_neighbours(xs):
    xs = np.asarray(xs, dtype=float)
    both = np.concatenate([xs, -xs])
    return np.concatenate([both, np.nextafter(both, 0), np.nextafter(both, np.inf)])


def test_batched_csv_powers_of_ten_and_their_neighbours(numpy_path):
    # 10**j for every decade a double reaches, each 1 ulp up and down: the
    # decimal exponent of the numpy path is one off next to these
    assert [int(p) for p in cli._POW10] == [10**k for k in range(23)]
    powers = [float(f"1e{j}") for j in range(-323, 309)]
    _assert_csv_per_cell(np.tile(_with_neighbours(powers), 2))
    assert sum(numpy_path) > 0


def test_batched_csv_notation_switches_and_fast_range_edges(numpy_path):
    # %g turns to 0.000ddd at 1e-4, to d.ddde-05 below it, and to d.ddde+16
    # at 1e17; the numpy path covers 1e-6 < |x| < 1e17
    edges = [1e-4, 1e-5, 1e-6, 1e16, 1e17]
    near = [e + k * np.spacing(e) for e in edges for k in range(-40, 41)]
    _assert_csv_per_cell(_with_neighbours(near + [0.5, 0.25, 100.0, 1200000.0, 1e15 + 0.25]))
    assert sum(numpy_path) > 0


def _decimal_ties(rng, per_exponent=60):
    """Doubles m / 2**j (m odd) whose exact decimal has 18 significant digits
    ending in 5: halfway between two 17-digit decimals."""
    ties = []
    for j in range(2, 40):
        lo = -(-2**j * 10**17 // 10**j)  # ceil(10**(17 - j) * 2**j)
        hi = min(2**j * 10**18 // 10**j, 2**53)
        if hi - lo < 2:
            continue
        for m in rng.integers(lo, hi, per_exponent).tolist():
            ties.append((m | 1) / 2**j)
    return ties


def test_batched_csv_rounds_ties_to_even(numpy_path):
    ties = _decimal_ties(np.random.default_rng(4385))
    for x in ties:
        digits = format(decimal.Decimal(x), "f").replace(".", "").strip("0")
        assert len(digits) == 18 and digits.endswith("5"), x
    assert len(ties) >= 1000
    assert "%.17g" % (1e15 + 0.25) == "1000000000000000.2"
    _assert_csv_per_cell(_with_neighbours(ties + [1e15 + 0.25]))
    assert sum(numpy_path) >= len(ties)


def test_batched_csv_random_bit_patterns(numpy_path):
    rng = np.random.default_rng(20251019)
    _assert_csv_per_cell(rng.integers(0, 2**64, 10**6, dtype=np.uint64).view(np.float64))
    # the same with the binary exponent inside the numpy path's range
    bits = rng.integers(0, 2**64, 10**5, dtype=np.uint64) & np.uint64(0x800F_FFFF_FFFF_FFFF)
    bits |= rng.integers(1003, 1080, 10**5, dtype=np.uint64) << np.uint64(52)
    _assert_csv_per_cell(bits.view(np.float64))
    assert sum(numpy_path) > 10**5


def test_batched_output_mixes_the_numpy_path_and_the_per_cell_fallback(numpy_path):
    special = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e-6, -1e-7, 1e17, -1e300,
               math.nan, math.inf, -math.inf]
    rng = np.random.default_rng(7)
    plain = rng.choice([-1.0, 1.0], 2000) * rng.uniform(1, 10, 2000) * 10.0 ** rng.integers(
        -5, 17, 2000)
    values = np.concatenate([plain, special * 20])
    rng.shuffle(values)
    _assert_csv_per_cell(values, cols=5)
    want = "[\n" + ",\n".join("    " + cli._json_float(v) for v in values.tolist()) + "\n  ]"
    assert cli._json_text(values, 1) == want
    # the numpy path computed the plain cells; the special ones, which it
    # leaves out, only come out right through the fallback
    assert sum(numpy_path) == 2 * len(plain)


def test_the_numpy_formatter_runs_from_the_crossover(numpy_path):
    table = np.random.default_rng(3).standard_normal((100, 4))
    assert cli._G17_MIN_CELLS == table.size
    _assert_csv_per_cell(table[:99])
    assert numpy_path == []
    _assert_csv_per_cell(table)
    assert numpy_path == [table.size]


@pytest.mark.parametrize("cells, cols", [(399, 7), (400, 5), (401, 1)])
def test_the_writer_is_one_g17_pass_in_every_layout(cells, cols, numpy_path):
    # a CSV table, a JSON float array and a JSON rows table on each side of
    # _G17_MIN_CELLS: the bytes of one % pass, from numpy from 400 cells on
    rng = np.random.default_rng(cells)
    values = rng.standard_normal(cells) * 10.0 ** rng.integers(-30, 30, cells)
    values[:10] = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
                   1e-310, -2.2250738585072014e-308, 1e-6]
    rng.shuffle(values)
    table = values.reshape(-1, cols)
    items = tuple(values.tolist())
    json_tokens = {"nan": "NaN", "inf": "Infinity"}

    def tokens(text):
        for old, new in json_tokens.items():
            text = text.replace(old, new)
        return text

    row = ("%.17g," * cols)[:-1] + "\n"
    assert cli._csv_text("h", table) == "h\n" + (row * len(table)) % items
    want = "[\n" + tokens(("    %.17g,\n" * cells)[:-2] % items) + "\n  ]"
    assert cli._json_text(values, 1) == want
    row = "    [\n" + ",\n".join(["      %.17g"] * cols) + "\n    ],\n"
    want = "[\n" + tokens((row * len(table))[:-2] % items) + "\n  ]"
    assert cli._json_text(table, 1) == want
    np.testing.assert_array_equal(np.array(json.loads(want)), table)
    assert len(numpy_path) == (3 if cells >= cli._G17_MIN_CELLS else 0)


def test_no_fast_path_value_rounds_up_to_the_next_decade():
    # a 17-digit rounding up to 10**(X+1) would need a double within 5e-18
    # (relative) below a power of ten; none of the decades 1e-5..1e17 has one
    for n in range(-5, 18):
        power = fractions.Fraction(10) ** n
        below = float(power)
        if fractions.Fraction(below) >= power:
            below = math.nextafter(below, 0)
        assert fractions.Fraction(below) < power * (1 - fractions.Fraction(5, 10**18)), n


def test_main_builds_the_parser_once(tmp_path, monkeypatch):
    cfg = write_cfg(tmp_path, two_level_config())
    assert main(["weak-value", "--config", cfg, "--out", str(tmp_path)]) == 0
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    for command in ("weak-value", "shifts"):
        payload = two_level_config(meter=meter_section())
        argv = [command, "--config", write_cfg(tmp_path, payload), "--out", str(tmp_path)]
        assert main(argv) == 0
    assert built == []


def test_benchmark_tracing_layers_resolve(monkeypatch):
    # bench/tracing.py patches these module attributes; a name the program no
    # longer exports would break traced benchmark runs
    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # its dataclass looks itself up
    spec.loader.exec_module(tracing)
    missing = [f"{module}.{attr}" for modules, attr, *_ in tracing.LAYERS
               for module in modules if not hasattr(importlib.import_module(module), attr)]
    assert tracing.LAYERS and missing == []


# ------------------------------------------------------- entry-point smoke

def subprocess_env():
    """Environment in which a child ``python -m weaklind`` imports the very
    package this test process imported, whatever its working directory.

    A relative ``PYTHONPATH`` entry such as ``src`` resolves against the
    child's cwd, so the import root is prepended as an absolute path.
    """
    root = str(pathlib.Path(weaklind.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (root, env.get("PYTHONPATH")) if p)
    return env


def test_module_entry_point_subprocess(tmp_path):
    cfg = write_cfg(tmp_path, two_level_config())
    env = subprocess_env()
    proc = subprocess.run(
        [sys.executable, "-m", "weaklind", "weak-value", "--config", cfg,
         "--out", str(tmp_path / "o")],
        capture_output=True, text=True, cwd=str(tmp_path), env=env)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "o" / "weak_value.csv").exists()
    proc = subprocess.run([sys.executable, "-m", "weaklind", "--help"],
                          capture_output=True, text=True, cwd=str(tmp_path),
                          env=env)
    assert proc.returncode == 0
    for sub in ("weak-value", "scenario", "shifts", "invert"):
        assert sub in proc.stdout


def test_cli_import_leaves_out_scipy_integrate(tmp_path):
    # no scipy module at all, so in particular no scipy.integrate
    probe = "import sys, weaklind.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, cwd=str(tmp_path), env=subprocess_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_import_leaves_out_pydantic(tmp_path):
    probe = "import sys, weaklind.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'pydantic'))"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, cwd=str(tmp_path), env=subprocess_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_estimators_leave_out_numpy_ma(tmp_path):
    # np.unique imports numpy.ma, which costs a fresh estimator run ~17 ms
    # (so does a sodium sweep, whose kernel finds its distinct eigenvalues)
    argvs = [["scenario", name, "--seed", "1", "--out", str(tmp_path)]
             for name in ("estimate-gamma", "estimate-lambda")]
    argvs.append(["weak-value", "--config", write_cfg(tmp_path, sodium_config()),
                  "--out", str(tmp_path)])
    probe = ("import sys; from weaklind.cli import main; "
             f"print([(main(argv), 'numpy.ma' in sys.modules) for argv in {argvs!r}])")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, cwd=str(tmp_path), env=subprocess_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[(0, False), (0, False), (0, False)]"


def test_sweeps_leave_out_scipy_linalg(tmp_path):
    # the eigen kernel and the memory-kernel closed form need no expm, for
    # sweeps and for evolve, so scipy.linalg is imported only by the expm fallback
    runs = {
        "sodium.json": ("weak-value", sodium_config()),
        "jc.json": ("shifts", two_level_config(meter=meter_section(model="jc", state="number",
                                                                   n=2.0))),
        "memory.json": ("weak-value", two_level_config(
            channel={"named": "nonmarkov_jc", "gamma0": 0.1, "lam": 1.0})),
    }
    argvs = [[cmd, "--config", write_cfg(tmp_path, payload, name), "--out", str(tmp_path)]
             for name, (cmd, payload) in runs.items()]
    # and evolve, the one-point map, on sodium and on damping
    channels = [("sodium", {"rate": 1.0}), ("amplitude_damping", {"gamma": 0.5})]
    probe = ("import sys, numpy as np; from weaklind.cli import main; "
             "from weaklind.lindblad import evolve, named_channel; "
             f"codes = [main(argv) for argv in {argvs!r}]; "
             f"ds = [named_channel(*c)[0] for c in {channels!r}]; "
             "maps = [evolve(d, np.eye(d.dim), 1.3) for d in ds]; "
             "print(codes, [m.shape for m in maps], 'scipy.linalg' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, cwd=str(tmp_path), env=subprocess_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[0, 0, 0] [(6, 6), (2, 2)] False"

"""Config schema validation and command-line behavior."""

import contextlib
import csv
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import weaklind
from weaklind import (
    FockSpace,
    MeterState,
    baseline_averages,
    commutator_averages,
    rabi_shifts_number_state,
)
from weaklind.cli import main
from weaklind.config import (
    build_channel,
    build_observable,
    build_states,
    build_tau_grid,
    load_config,
    require_sections,
)
from weaklind.errors import ConfigError

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
    for name, want in [("sigma_x", weaklind.SIGMA_X), ("sigma_plus", weaklind.SIGMA_PLUS),
                       ("identity", np.eye(2))]:
        payload = two_level_config(observable={"named": name})
        A = build_observable(load_config(write_cfg(tmp_path, payload)))
        np.testing.assert_allclose(A, want, atol=1e-15)
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
    assert err.startswith("error: ") and "tau=" in err
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err
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


def test_bad_config_file_exits_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    assert run_cli("weak-value", "--config", str(path), "--out", str(tmp_path / "o")) == 2


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


# ---------------------------------------------------------- CLI: scenarios

def test_scenario_unknown_name_exits_2(tmp_path, capsys):
    assert run_cli("scenario", "no-such-thing", "--out", str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert "unknown scenario" in err and "sodium-anomalous" in err


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
    from weaklind import (DissipationChannel, SIGMA_MINUS, SIGMA_X,
                          WeakMeasurementSetup, bloch_to_density,
                          build_dissipator, weak_value_dissipative)
    d = build_dissipator([DissipationChannel(jump=SIGMA_MINUS, rate=0.5)], dim=2)
    setup = WeakMeasurementSetup(
        sigma_i=bloch_to_density([0.55, 0.15, 0.6]),
        sigma_fI=bloch_to_density([-0.3, 0.45, -0.5]),
        A_SI=SIGMA_X)
    tau = 1.0   # third grid point; gamma_tau = 0.5
    wv = weak_value_dissipative(setup, d, tau).value
    rep = rabi_shifts_number_state(0, wv, 0.001, 1.0, tau, 1.3)
    assert rows[2][0] == pytest.approx(0.5)
    assert rows[2][1] == pytest.approx(rep.Q_shift, rel=1e-12)
    assert rows[2][2] == pytest.approx(rep.P_shift, rel=1e-12)


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


# ------------------------------------------------------------ CLI: inverse

def test_invert_round_trip_via_cli(tmp_path):
    omega_f, g, t, tau, n = 1.3, 0.01, 0.9, 0.4, 1
    wv = 1.7 - 0.9j
    rep = rabi_shifts_number_state(n, wv, g, t, tau, omega_f)
    payload = {
        "version": 1,
        "meter": {"omega_f": omega_f, "n_max": 30, "state": "number", "n": n,
                  "g": g, "t": t},
        "invert": {"Q_f": rep.Q_shift, "P_f": rep.P_shift, "tau": tau},
    }
    cfg = write_cfg(tmp_path, payload)
    assert run_cli("invert", "--config", cfg, "--out", str(tmp_path)) == 0
    doc = json.loads((tmp_path / "invert.json").read_text())
    got = complex(*doc["weak_value"])
    assert abs(got - wv) < 1e-10
    # cross-check against the in-process inversion path
    space = FockSpace(n_max=30, omega_f=omega_f)
    avg = commutator_averages(space, MeterState.number(n), t, tau)
    base = baseline_averages(space, MeterState.number(n), t, tau)
    from weaklind import invert_weak_value
    assert abs(invert_weak_value(rep.Q_shift, rep.P_shift, avg, base, g, t) - got) < 1e-14


def test_invert_singular_exits_5(tmp_path):
    payload = {
        "version": 1,
        "meter": {"omega_f": 1.3, "state": "vacuum", "g": 0.0, "t": 1.0},
        "invert": {"Q_f": 0.01, "P_f": 0.02, "tau": 0.3},
    }
    cfg = write_cfg(tmp_path, payload)
    assert run_cli("invert", "--config", cfg, "--out", str(tmp_path)) == 5


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
    probe = "import sys, weaklind.cli; print('scipy.integrate' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, cwd=str(tmp_path), env=subprocess_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"

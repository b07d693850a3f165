"""Tests for config parsing, validation, and defaults recording."""

import json

import pytest

from fluxsim.config import (
    CATEGORY_INVARIANT,
    CATEGORY_MALFORMED_JSON,
    CATEGORY_MISSING_FILE,
    CATEGORY_UNKNOWN_KEY,
    config_from_dict,
    parse_config,
)
from fluxsim.coupled import CouplingMode
from fluxsim.errors import ConfigError

MINIMAL = {"device": {"e_j_ghz": 4.75, "e_c_ghz": 1.25, "e_l_ghz": 1.5}}


def test_minimal_config_fills_defaults():
    cfg = config_from_dict(MINIMAL)
    assert cfg.dims.dim == 40
    assert cfg.dims.kept == 8 and cfg.dims.n_res == 8
    assert cfg.gate_dims.kept == 6 and cfg.gate_dims.n_res == 3
    assert cfg.mode is CouplingMode.LADDER_RWA
    assert cfg.readout.dt == 0.05
    assert cfg.readout.t_max == 1000.0
    assert cfg.ramp.f_start == 0.5 and cfg.ramp.f_end == 0.641
    assert cfg.ramp.t_rise == 50.0
    assert cfg.gate_taus == (10.0, 20.0, 30.0)
    assert cfg.gate_dt == 1e-3
    assert cfg.noise.n_draws == 50 and cfg.noise.seed == 1234
    assert cfg.out_dir == "out"
    # every default applied is recorded
    assert any(d.startswith("readout.dt_ns=") for d in cfg.defaults_used)
    assert any(d.startswith("device.dim=") for d in cfg.defaults_used)
    assert "flux=0.5" in cfg.defaults_used


def test_canonical_raw_round_trips():
    cfg = config_from_dict(MINIMAL)
    again = config_from_dict(json.loads(cfg.to_json()))
    assert again.raw == cfg.raw
    # the round trip applies no further defaults
    assert again.defaults_used == ()


def test_explicit_values_are_not_recorded_as_defaults():
    raw = dict(MINIMAL)
    raw["readout"] = {"eta": 0.25}
    cfg = config_from_dict(raw)
    assert cfg.readout.eta == 0.25
    assert not any(d.startswith("readout.eta=") for d in cfg.defaults_used)
    assert any(d.startswith("readout.n_bar=") for d in cfg.defaults_used)


def test_unknown_keys_rejected_at_all_depths():
    for raw, key in (
        ({**MINIMAL, "bogus": 1}, "bogus"),
        ({"device": {**MINIMAL["device"], "bogus": 1}}, "bogus"),
        ({**MINIMAL, "readout": {"bogus": 1}}, "bogus"),
        ({**MINIMAL, "readout": {"ramp": {"bogus": 1}}}, "bogus"),
        # runs are in-process: there is no worker count to configure
        ({**MINIMAL, "workers": 0}, "workers"),
        # the demodulation quadrature is computed, and the drive frame is
        # always the lab frame
        ({**MINIMAL, "readout": {"demod_phase": {"mode": "auto"}}},
         "readout.demod_phase"),
        ({**MINIMAL, "gate": {"drive_frame": "lab"}}, "gate.drive_frame"),
    ):
        with pytest.raises(ConfigError) as exc:
            config_from_dict(raw)
        assert exc.value.category == CATEGORY_UNKNOWN_KEY
        assert key in str(exc.value)


def test_invariant_violations_name_the_key():
    cases = [
        ({**MINIMAL, "readout": {"eta": 1.5}}, "readout.eta"),
        ({**MINIMAL, "readout": {"dt_ns": 0}}, "readout.dt_ns"),
        ({**MINIMAL, "gate": {"tau_g_ns_list": []}}, "tau_g_ns_list"),
        ({**MINIMAL, "noise": {"n_draws": 0}}, "noise.n_draws"),
        ({**MINIMAL, "noise": {"seed": -1}}, "noise.seed"),
        ({**MINIMAL, "device": {**MINIMAL["device"], "dim": 1}}, "device.dim"),
        ({**MINIMAL, "sweep": {"f_min": 0.6, "f_max": 0.5}}, "sweep.f_max"),
        ({**MINIMAL, "chi_curve": {"f_min": 0.5, "f_max": 0.5}}, "chi_curve.f_max"),
        ({**MINIMAL, "anticrossing": {"window_lo": 0.6, "window_hi": 0.5}},
         "anticrossing.window_hi"),
        ({**MINIMAL, "anticrossing": {"level_i": 8}}, "anticrossing.level_i"),
        # the default 3-1 transition needs 4 kept levels
        ({"device": {**MINIMAL["device"], "levels_kept": 3}},
         "anticrossing.level_i"),
        ({"device": {**MINIMAL["device"], "levels_kept": 3},
          "anticrossing": {"level_i": 2, "level_j": 3}},
         "anticrossing.level_j"),
    ]
    for raw, key in cases:
        with pytest.raises(ConfigError) as exc:
            config_from_dict(raw)
        assert exc.value.category == CATEGORY_INVARIANT
        assert key in str(exc.value)


def test_missing_device_energies_rejected():
    with pytest.raises(ConfigError) as exc:
        config_from_dict({"device": {"e_j_ghz": 4.75, "e_c_ghz": 1.25}})
    assert exc.value.category == CATEGORY_INVARIANT
    assert "e_l_ghz" in str(exc.value)


def test_bad_coupling_mode_rejected():
    raw = {"device": {**MINIMAL["device"], "coupling_mode": "dipole"}}
    with pytest.raises(ConfigError) as exc:
        config_from_dict(raw)
    assert exc.value.category == CATEGORY_INVARIANT


def test_booleans_are_not_numbers():
    with pytest.raises(ConfigError) as exc:
        config_from_dict({**MINIMAL, "noise": {"n_draws": True}})
    assert exc.value.category == CATEGORY_INVARIANT
    assert "noise.n_draws" in str(exc.value)


def test_missing_file(tmp_path):
    with pytest.raises(ConfigError) as exc:
        parse_config(tmp_path / "nope.json")
    assert exc.value.category == CATEGORY_MISSING_FILE


def test_malformed_json_reports_position(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{\n  "device": {,}\n}\n', encoding="utf-8")
    with pytest.raises(ConfigError) as exc:
        parse_config(path)
    assert exc.value.category == CATEGORY_MALFORMED_JSON
    assert "line 2" in str(exc.value)


def test_parse_config_reads_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(MINIMAL), encoding="utf-8")
    cfg = parse_config(path)
    assert cfg.params.e_j == pytest.approx(config_from_dict(MINIMAL).params.e_j)


def test_charge_mode_selected():
    raw = {"device": {**MINIMAL["device"], "coupling_mode": "charge"}}
    assert config_from_dict(raw).mode is CouplingMode.CHARGE

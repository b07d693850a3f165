"""Tests for config parsing, validation, and defaults recording."""

import copy
import inspect
import json
import math

import pytest

from fluxsim import coupled, gates, noise, readout, units
from fluxsim.config import (
    CATEGORY_INVARIANT,
    CATEGORY_MALFORMED_JSON,
    CATEGORY_MISSING_FILE,
    CATEGORY_UNKNOWN_KEY,
    REQUIRED,
    SCHEMA,
    WORK_CAPS,
    capped_work,
    config_from_dict,
    parse_config,
)
from fluxsim.coupled import CoupledDims, CouplingMode
from fluxsim.errors import ConfigError

MINIMAL = {"device": {"e_j_ghz": 4.75, "e_c_ghz": 1.25, "e_l_ghz": 1.5}}

# every default the minimal config takes, in the order the manifest lists them
MINIMAL_DEFAULTS_USED = (
    "device.omega_r_ghz=7.0",
    "device.g_mhz_over_2pi=50.0",
    'device.coupling_mode="ladder-rwa"',
    "device.dim=40",
    "device.levels_kept=8",
    "device.levels_resonator=8",
    "readout.n_bar=10.0",
    "readout.eta=1.0",
    "readout.kappa_mhz_over_2pi=5.0",
    "readout.t_max_ns=1000.0",
    "readout.dt_ns=0.05",
    "readout.chi_clamp_mhz=50.0",
    'readout.ramp={"f_start": 0.5, "f_end": 0.641, "t_rise_ns": 50.0}',
    "gate.tau_g_ns_list=[10.0, 20.0, 30.0]",
    "gate.levels_fluxonium=6",
    "gate.levels_resonator=3",
    "gate.dt_ns=0.001",
    "noise.scale=0.01",
    "noise.n_draws=50",
    "noise.seed=1234",
    "sweep.e_j_min_ghz=4.75",
    "sweep.e_j_max_ghz=4.75",
    "sweep.n_e_j=1",
    "sweep.f_min=0.4",
    "sweep.f_max=0.7",
    "sweep.n_f=61",
    "chi_curve.f_min=0.4",
    "chi_curve.f_max=0.7",
    "chi_curve.step=0.0001",
    "anticrossing.level_i=3",
    "anticrossing.level_j=1",
    "anticrossing.window_lo=0.55",
    "anticrossing.window_hi=0.6",
    "flux=0.5",
    'out_dir="out"',
    "seed=1234",
)


def with_key(key, value):
    """MINIMAL with one dotted key set to value."""
    raw = copy.deepcopy(MINIMAL)
    *groups, leaf = key.split(".")
    node = raw
    for group in groups:
        node = node.setdefault(group, {})
    node[leaf] = value
    return raw


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


def test_defaults_used_lists_every_default_in_order():
    assert config_from_dict(MINIMAL).defaults_used == MINIMAL_DEFAULTS_USED
    # a partial ramp records each missing ramp key, not the whole group
    cfg = config_from_dict(with_key("readout.ramp", {"f_end": 0.6}))
    expected = list(MINIMAL_DEFAULTS_USED)
    i = expected.index(
        'readout.ramp={"f_start": 0.5, "f_end": 0.641, "t_rise_ns": 50.0}')
    expected[i:i + 1] = ["readout.ramp.f_start=0.5",
                         "readout.ramp.t_rise_ns=50.0"]
    assert cfg.defaults_used == tuple(expected)
    assert cfg.ramp.f_end == 0.6


def test_mutating_a_parsed_default_leaves_the_next_parse_intact():
    first = config_from_dict(MINIMAL)
    first.raw["gate"]["tau_g_ns_list"][0] = 1.0
    first.raw["gate"]["tau_g_ns_list"].append(40.0)
    first.raw["readout"]["ramp"]["f_end"] = 0.9
    again = config_from_dict(MINIMAL)
    assert again.raw["gate"]["tau_g_ns_list"] == [10.0, 20.0, 30.0]
    assert again.gate_taus == (10.0, 20.0, 30.0)
    assert again.raw["readout"]["ramp"] == {
        "f_start": 0.5, "f_end": 0.641, "t_rise_ns": 50.0}
    assert again.defaults_used == MINIMAL_DEFAULTS_USED


def test_canonical_raw_round_trips():
    cfg = config_from_dict(MINIMAL)
    again = config_from_dict(json.loads(json.dumps(cfg.raw)))
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
        # within the table's [0, 1] but rejected by ReadoutConfig
        ({**MINIMAL, "readout": {"eta": 0}}, "readout.eta"),
        ({**MINIMAL, "readout": {"t_max_ns": 0.01, "dt_ns": 0.05}},
         "readout.t_max_ns"),
        ({**MINIMAL, "gate": {"tau_g_ns_list": []}}, "tau_g_ns_list"),
        ({**MINIMAL, "noise": {"n_draws": 0}}, "noise.n_draws"),
        # 3e8 RK4 steps at the default 30 ns: over 26 GB of drive samples
        ({**MINIMAL, "gate": {"dt_ns": 1e-7}}, "gate.dt_ns"),
        ({**MINIMAL, "noise": {"seed": -1}}, "noise.seed"),
        ({**MINIMAL, "device": {**MINIMAL["device"], "dim": 1}}, "device.dim"),
        ({**MINIMAL, "sweep": {"f_min": 0.6, "f_max": 0.5}}, "sweep.f_max"),
        # a degenerate landscape axis holds a single point only
        ({**MINIMAL, "sweep": {"f_min": 0.5, "f_max": 0.5, "n_f": 3}},
         "sweep.f_max"),
        ({**MINIMAL, "sweep": {"e_j_min_ghz": 4.75, "e_j_max_ghz": 4.75,
                               "n_e_j": 2}}, "sweep.e_j_max_ghz"),
        ({**MINIMAL, "sweep": {"e_j_min_ghz": 5.0, "e_j_max_ghz": 4.5,
                               "n_e_j": 1}}, "sweep.e_j_max_ghz"),
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
        # no more levels can be kept than the bare eigensolve has
        ({"device": {**MINIMAL["device"], "dim": 5}},
         "'device.levels_kept' must be <= 5, got 8"),
        ({**MINIMAL, "gate": {"levels_fluxonium": 41}},
         "'gate.levels_fluxonium' must be <= 40, got 41"),
    ]
    for raw, key in cases:
        with pytest.raises(ConfigError) as exc:
            config_from_dict(raw)
        assert exc.value.category == CATEGORY_INVARIANT
        assert key in str(exc.value)


def test_gate_step_count_is_capped_at_the_longest_gate():
    # the cap is 100 times the defaults' 30 000 steps at 30 ns
    assert WORK_CAPS["RK4 steps"] == 3_000_000
    cfg = config_from_dict({**MINIMAL, "gate": {"dt_ns": 1e-5}})
    assert cfg.gate_dt == 1e-5
    config_from_dict({**MINIMAL, "gate": {"tau_g_ns_list": [3.0, 3000.0]}})
    for gate in ({"tau_g_ns_list": [3.0, 3001.0]},
                 {"dt_ns": 9.99e-6},
                 {"tau_g_ns_list": [1e300], "dt_ns": 1e-12}):
        with pytest.raises(ConfigError) as exc:
            config_from_dict({**MINIMAL, "gate": gate})
        assert exc.value.category == CATEGORY_INVARIANT
        assert "gate.dt_ns" in str(exc.value)
    # the message quotes the step and the gate time that give the count
    with pytest.raises(ConfigError) as exc:
        config_from_dict({**MINIMAL, "gate": {"dt_ns": 1e-7}})
    assert ("'gate.dt_ns' = 1e-07, 'max(gate.tau_g_ns_list)' = 30.0 give "
            "3e+08 RK4 steps" in str(exc.value))


def test_gate_work_is_capped_over_every_gate_time_and_draw():
    # 100 x the defaults' 60 000 steps over 10, 20 and 30 ns, and 50 draws
    assert (WORK_CAPS["gate steps"], WORK_CAPS["gate draw steps"]) == (
        6_000_000, 300_000_000)
    # 5 999 999.999999999 steps and 299 999 999.99999994 draw steps
    config_from_dict({**MINIMAL, "gate": {"dt_ns": 1e-5}})
    # 3 003 000 steps and 150 150 000 draw steps
    config_from_dict({**MINIMAL, "gate": {"tau_g_ns_list": [3.0, 3000.0]}})
    config_from_dict({**MINIMAL, "gate": {"tau_g_ns_list": [30.0] * 200}})
    config_from_dict({**MINIMAL, "noise": {"n_draws": 5000},
                      "readout": {"t_max_ns": 500.0}})
    for raw, quoted in (
            # within every readout cap, but 5e7 draws of 60 000 steps
            ({"readout": {"t_max_ns": 0.05}, "noise": {"n_draws": 50_000_000}},
             "'noise.n_draws' = 50000000, 'gate.dt_ns' = 0.001, "
             "'sum(gate.tau_g_ns_list)' = 60.0 give 3e+12 gate draw steps; "
             "at most 300000000 are allowed"),
            # at the default readout the readout draw points, checked
            # first, reach their cap at the same draw count
            ({"noise": {"n_draws": 5001}},
             "'noise.n_draws' = 5001, 'readout.t_max_ns' = 1000.0"),
            ({"noise": {"n_draws": 5001}, "readout": {"t_max_ns": 500.0}},
             "'noise.n_draws' = 5001, 'gate.dt_ns' = 0.001, "
             "'sum(gate.tau_g_ns_list)' = 60.0 give 3.0006e+08"),
            # within the RK4 cap on the longest gate, but 20 000 gates
            ({"gate": {"tau_g_ns_list": [30.0] * 20_000}},
             "'gate.dt_ns' = 0.001, 'sum(gate.tau_g_ns_list)' = 600000.0 "
             "give 6e+08 gate steps; at most 6000000 are allowed"),
            ({"gate": {"tau_g_ns_list": [30.0] * 201}},
             "give 6.03e+06 gate steps")):
        with pytest.raises(ConfigError) as exc:
            config_from_dict({**MINIMAL, **raw})
        assert exc.value.category == CATEGORY_INVARIANT
        assert quoted in str(exc.value)


def test_each_cap_is_its_work_at_the_defaults_times_its_factor():
    work = capped_work(config_from_dict(MINIMAL).raw)
    assert list(WORK_CAPS) == [noun for noun, *_ in work]
    assert WORK_CAPS == {noun: int(factor * round(amount))
                         for noun, factor, _, amount in work}
    assert {noun: factor for noun, factor, *_ in work} == {
        noun: 100 ** (1 / 3) if noun.endswith("levels") else 100
        for noun in WORK_CAPS}
    assert WORK_CAPS == {
        "readout points": 2_000_100, "readout draw points": 100_005_000,
        "RK4 steps": 3_000_000, "landscape cells": 6_100,
        "coupled levels": 297, "gate levels": 83, "chi points": 300_100,
        "gate steps": 6_000_000, "gate draw steps": 300_000_000}


@pytest.mark.parametrize("section, within, over_cap, quoted", [
    # 100 x the defaults' 20 001 points: 1000 ns at 0.05 ns
    ("readout", {"t_max_ns": 100_000.0}, {"t_max_ns": 100_010.0},
     ["'readout.t_max_ns' = 100010.0", "'readout.dt_ns' = 0.05"]),
    ("readout", {"dt_ns": 5e-4}, {"dt_ns": 4.99e-4},
     ["'readout.t_max_ns' = 1000.0", "'readout.dt_ns' = 0.000499"]),
    # 100 x the defaults' 3 001 points: 0.40 to 0.70 by 1e-4
    ("chi_curve", {"f_min": 0.0, "f_max": 30.0}, {"f_min": 0.0, "f_max": 30.1},
     ["'chi_curve.f_min' = 0.0", "'chi_curve.f_max' = 30.1",
      "'chi_curve.step' = 0.0001"]),
    ("chi_curve", {"step": 1e-6}, {"step": 9.99e-7},
     ["'chi_curve.step' = 9.99e-07"]),
    # 100 x the defaults' 1 x 61 cells
    ("sweep", {"e_j_max_ghz": 5.0, "n_e_j": 100}, {"e_j_max_ghz": 5.0,
                                                   "n_e_j": 101},
     ["'sweep.n_e_j' = 101", "'sweep.n_f' = 61"]),
    ("sweep", {"n_f": 6100}, {"n_f": 6101},
     ["'sweep.n_e_j' = 1", "'sweep.n_f' = 6101"]),
    # 100 x the defaults' 50 draws of 20 001 points
    ("noise", {"n_draws": 5000}, {"n_draws": 5001},
     ["'noise.n_draws' = 5001", "'readout.t_max_ns' = 1000.0",
      "'readout.dt_ns' = 0.05", "readout draw points"]),
])
def test_work_caps_quote_the_keys_and_values(section, within, over_cap,
                                             quoted):
    assert [WORK_CAPS[noun] for noun in (
        "readout points", "chi points", "landscape cells",
        "readout draw points")] == [2_000_100, 300_100, 6_100, 100_005_000]
    config_from_dict({**MINIMAL, section: within})
    with pytest.raises(ConfigError) as exc:
        config_from_dict({**MINIMAL, section: over_cap})
    assert exc.value.category == CATEGORY_INVARIANT
    for fragment in quoted:
        assert fragment in str(exc.value)


def test_truncations_are_bounded_by_their_defaults():
    # each truncation and each coupled product is at most 100^(1/3) times
    # its default: at most 100 times the default eigensolve work
    bounds = {row[0]: row[3] for row in SCHEMA}
    assert (bounds["device.dim"], bounds["device.levels_resonator"],
            bounds["gate.levels_resonator"]) == (185, 37, 13)
    assert (WORK_CAPS["coupled levels"], WORK_CAPS["gate levels"]) == (297, 83)
    # rejected at config time only: no dimension this large is built here
    for section, within, over_cap, quoted in (
            ("device", {"dim": 185, "levels_kept": 37, "levels_resonator": 8},
             {"dim": 185, "levels_kept": 38, "levels_resonator": 8},
             "'device.levels_kept' = 38, 'device.levels_resonator' = 8 "
             "give 304 coupled levels; at most 297"),
            ("gate", {"levels_fluxonium": 27, "levels_resonator": 3},
             {"levels_fluxonium": 14, "levels_resonator": 6},
             "'gate.levels_fluxonium' = 14, 'gate.levels_resonator' = 6 "
             "give 84 gate levels; at most 83")):
        base = copy.deepcopy(MINIMAL)
        config_from_dict({**base, section: {**base.get(section, {}), **within}})
        with pytest.raises(ConfigError) as exc:
            config_from_dict({**base,
                              section: {**base.get(section, {}), **over_cap}})
        assert exc.value.category == CATEGORY_INVARIANT
        assert quoted in str(exc.value)


@pytest.mark.parametrize("key", ["flux", "readout.t_max_ns", "device.e_j_ghz",
                                 "noise.n_draws", "sweep.n_f", "device.dim",
                                 "gate.tau_g_ns_list"])
def test_integers_beyond_the_largest_double_are_invariant_violations(tmp_path,
                                                                     key):
    value = 10**400
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(
        with_key(key, [value] if key.endswith("_list") else value)),
        encoding="utf-8")
    with pytest.raises(ConfigError) as exc:
        parse_config(path)
    assert exc.value.category == CATEGORY_INVARIANT
    assert f"'{key}" in str(exc.value) and "finite number" in str(exc.value)


def test_integer_of_more_digits_than_python_reads_is_malformed(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"flux": 1' + "0" * 5000 + "}", encoding="utf-8")
    with pytest.raises(ConfigError) as exc:
        parse_config(path)
    assert exc.value.category == CATEGORY_MALFORMED_JSON


# bytes that are not UTF-8, nesting deeper than the JSON parser recurses and
# a byte-order mark: each is a malformed-json config error, not a traceback
UNDECODABLE = {
    "not-utf8": b'{"device": {"e_j_ghz": 4.75\xff}}',
    "deep": b"[" * 200_000 + b"]" * 200_000,
    "bom": b"\xef\xbb\xbf" + json.dumps(MINIMAL).encode(),
}


@pytest.mark.parametrize("name", UNDECODABLE)
def test_undecodable_config_is_malformed(tmp_path, name):
    path = tmp_path / "cfg.json"
    path.write_bytes(UNDECODABLE[name])
    with pytest.raises(ConfigError) as exc:
        parse_config(path)
    assert exc.value.category == CATEGORY_MALFORMED_JSON
    assert str(path) in str(exc.value)


@pytest.mark.parametrize("ramp", [5, [0.5, 0.641, 50.0], "ab", None])
def test_non_object_ramp_is_an_invariant_violation(ramp):
    with pytest.raises(ConfigError) as exc:
        config_from_dict(with_key("readout.ramp", ramp))
    assert exc.value.category == CATEGORY_INVARIANT
    assert str(exc.value) == "'readout.ramp' must be an object"


def _past(bound, direction, kind):
    """The nearest value of the row's kind beyond bound, in direction +1 or -1."""
    if kind is int:
        return bound + direction
    return math.nextafter(bound, direction * math.inf)


NUMERIC_ROWS = [row for row in SCHEMA if row[4] in (float, int, list)]


@pytest.mark.parametrize("key, default, lo, hi, kind", NUMERIC_ROWS,
                         ids=[row[0] for row in NUMERIC_ROWS])
def test_each_numeric_row_rejects_what_its_bounds_exclude(key, default, lo, hi,
                                                          kind):
    bad = [True, math.nan]
    bad += [] if lo is None else [_past(lo, -1, kind)]
    bad += [] if hi is None else [_past(hi, +1, kind)]
    for value in bad:
        with pytest.raises(ConfigError) as exc:
            config_from_dict(with_key(key, [value] if kind is list else value))
        assert exc.value.category == CATEGORY_INVARIANT, value
        assert f"'{key}" in str(exc.value), value
    if default is not REQUIRED:
        # the default, given explicitly, passes its own row
        cfg = config_from_dict(with_key(key, default))
        assert not any(d.startswith(f"{key}=") for d in cfg.defaults_used)


@pytest.mark.parametrize("key", ["device.e_j_ghz", "device.e_c_ghz",
                                 "device.e_l_ghz", "device.omega_r_ghz"])
def test_device_energy_that_overflows_in_rad_per_ns_names_its_key(key):
    with pytest.raises(ConfigError) as exc:
        config_from_dict(with_key(key, 1e308))
    assert exc.value.category == CATEGORY_INVARIANT
    assert str(exc.value).startswith(f"'{key}' must be <= "), str(exc.value)
    # the bound itself is finite in rad/ns, and accepted
    (hi,) = [row[3] for row in SCHEMA if row[0] == key]
    assert math.isfinite(units.ghz(hi))
    config_from_dict(with_key(key, hi))


def test_degenerate_landscape_axis_with_one_point_is_accepted():
    cfg = config_from_dict({**MINIMAL, "sweep": {
        "e_j_min_ghz": 4.75, "e_j_max_ghz": 4.75, "n_e_j": 1,
        "f_min": 0.5, "f_max": 0.5, "n_f": 1}})
    assert cfg.raw["sweep"]["n_f"] == 1


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


def _default(fn, name):
    return inspect.signature(fn).parameters[name].default


def test_library_defaults_are_the_schema_defaults():
    # the table reads its defaults from the library; kappa and the clamp,
    # read in MHz, must round-trip to the library's rad/ns exactly, and the
    # defaults both still write must agree
    d = {key: default for key, default, *_ in SCHEMA}
    dims = CoupledDims(d["device.dim"], d["device.levels_kept"],
                       d["device.levels_resonator"])
    gate_dims = CoupledDims(d["device.dim"], d["gate.levels_fluxonium"],
                            d["gate.levels_resonator"])
    pairs = {
        "ReadoutConfig.kappa": (_default(readout.ReadoutConfig, "kappa"),
                                units.mhz(d["readout.kappa_mhz_over_2pi"])),
        "ChiProfile.clamp": (_default(readout.ChiProfile, "clamp"),
                             units.mhz(d["readout.chi_clamp_mhz"])),
    }
    for fn in (coupled.build_coupled_hamiltonian, coupled.sweep_dressed,
               coupled.dispersive_shift, coupled.compute_landscapes,
               coupled.find_anticrossing):
        pairs[f"{fn.__name__}.dims"] = (_default(fn, "dims"), dims)
    for fn in (gates.build_gate_space, noise.gate_draw, noise.noisy_gate_error):
        pairs[f"{fn.__name__}.dims"] = (_default(fn, "dims"), gate_dims)
    for fn in (gates.propagate_gate, gates.evaluate_gate, gates.optimize_pulse,
               noise.gate_draw, noise.noisy_gate_error):
        pairs[f"{fn.__name__}.dt"] = (_default(fn, "dt"), d["gate.dt_ns"])
    for fn in (noise.gate_draw, noise.noisy_gate_error):
        pairs[f"{fn.__name__}.base_flux"] = (_default(fn, "base_flux"),
                                             d["flux"])
    differ = {name: pair for name, pair in pairs.items() if pair[0] != pair[1]}
    assert not differ

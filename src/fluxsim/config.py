"""JSON run configuration: parsing, validation, defaults, round-tripping.

Every key is validated; unknown keys are rejected so typos never silently
fall back to defaults. Each default actually applied is recorded so the
manifest can list them (no silent defaulting).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from . import units
from .coupled import CoupledDims, CouplingMode, ResonatorParams
from .errors import ConfigError
from .noise import NoiseSpec
from .qubit import DEFAULT_DIM, EnergyParams
from .readout import FluxRamp, ReadoutConfig

CATEGORY_MISSING_FILE = "missing-file"
CATEGORY_MALFORMED_JSON = "malformed-json"
CATEGORY_UNKNOWN_KEY = "unknown-key"
CATEGORY_INVARIANT = "invariant-violation"

DEVICE_DEFAULTS = {
    "omega_r_ghz": 7.0,
    "g_mhz_over_2pi": 50.0,
    "coupling_mode": "ladder-rwa",
    "dim": DEFAULT_DIM,
    "levels_kept": 8,
    "levels_resonator": 8,
}

READOUT_DEFAULTS = {
    "n_bar": 10.0,
    "eta": 1.0,
    "kappa_mhz_over_2pi": 5.0,
    "t_max_ns": 1000.0,
    "dt_ns": 0.05,
    "chi_clamp_mhz": 50.0,
    "ramp": {"f_start": 0.5, "f_end": 0.641, "t_rise_ns": 50.0},
}

GATE_DEFAULTS = {
    "tau_g_ns_list": [10.0, 20.0, 30.0],
    "levels_fluxonium": 6,
    "levels_resonator": 3,
    "dt_ns": 1e-3,
}

NOISE_DEFAULTS = {
    "scale": 1e-2,
    "n_draws": 50,
    "seed": 1234,
}

SWEEP_DEFAULTS = {
    "e_j_min_ghz": 4.75,
    "e_j_max_ghz": 4.75,
    "n_e_j": 1,
    "f_min": 0.40,
    "f_max": 0.70,
    "n_f": 61,
}

CHI_CURVE_DEFAULTS = {
    "f_min": 0.40,
    "f_max": 0.70,
    "step": 1e-4,
}

# Work caps, checked before any work starts: each is 100 times what the
# defaults ask for.
# propagate_gate allocates its drive samples for every RK4 step up front
# (30 000 steps at 30 ns)
MAX_GATE_STEPS = 100 * round(max(GATE_DEFAULTS["tau_g_ns_list"])
                             / GATE_DEFAULTS["dt_ns"])
# the Langevin traces hold every point of the readout time grid
# (20 001 points over 1000 ns)
MAX_READOUT_POINTS = 100 * (round(READOUT_DEFAULTS["t_max_ns"]
                                  / READOUT_DEFAULTS["dt_ns"]) + 1)
# each chi-curve point is a dressed eigensolve (3 001 points)
MAX_CHI_POINTS = 100 * (round((CHI_CURVE_DEFAULTS["f_max"]
                               - CHI_CURVE_DEFAULTS["f_min"])
                              / CHI_CURVE_DEFAULTS["step"]) + 1)
# each landscape cell is a dressed eigensolve (1 x 61 cells)
MAX_LANDSCAPE_CELLS = 100 * SWEEP_DEFAULTS["n_e_j"] * SWEEP_DEFAULTS["n_f"]

ANTICROSSING_DEFAULTS = {
    "level_i": 3,
    "level_j": 1,
    "window_lo": 0.55,
    "window_hi": 0.60,
}

TOP_LEVEL_KEYS = {"device", "readout", "gate", "noise", "sweep", "chi_curve",
                  "anticrossing", "flux", "out_dir", "seed"}


@dataclass(frozen=True)
class RunConfig:
    """Fully validated run configuration with typed sub-objects.

    raw holds the canonical (defaults-filled) JSON-compatible dict so the
    config can be hashed and round-tripped; defaults_used lists every
    dotted key whose value came from a built-in default.
    """

    params: EnergyParams
    resonator: ResonatorParams
    mode: CouplingMode
    dims: CoupledDims
    gate_dims: CoupledDims
    readout: ReadoutConfig
    ramp: FluxRamp
    chi_clamp: float
    gate_taus: tuple
    gate_dt: float
    noise: NoiseSpec
    flux: float
    out_dir: str
    seed: int
    raw: dict
    defaults_used: tuple

    def to_json(self):
        return json.dumps(self.raw, indent=2, sort_keys=True)


def _require_section(raw, name, defaults, defaults_used, allow=None):
    """Merge one config section over its defaults, rejecting unknown keys."""
    section = raw.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError(CATEGORY_INVARIANT, f"'{name}' must be an object")
    known = set(defaults) if allow is None else set(defaults) | set(allow)
    for key in section:
        if key not in known:
            raise ConfigError(CATEGORY_UNKNOWN_KEY,
                              f"unknown key '{name}.{key}'")
    merged = {}
    for key, default in defaults.items():
        if key in section:
            value = section[key]
            if isinstance(default, dict):
                for sub in value:
                    if sub not in default:
                        raise ConfigError(CATEGORY_UNKNOWN_KEY,
                                          f"unknown key '{name}.{key}.{sub}'")
                sub_merged = dict(default)
                for sub, sub_default in default.items():
                    if sub in value:
                        sub_merged[sub] = value[sub]
                    else:
                        defaults_used.append(f"{name}.{key}.{sub}={sub_default}")
                merged[key] = sub_merged
            else:
                merged[key] = value
        else:
            merged[key] = default
            defaults_used.append(f"{name}.{key}={json.dumps(default)}")
    return merged


def _check_number(name, value, lo=None, hi=None, integer=False):
    if integer:
        if not isinstance(value, int) or isinstance(value, bool):
            raise ConfigError(CATEGORY_INVARIANT, f"'{name}' must be an integer")
    elif not isinstance(value, (int, float)) or isinstance(value, bool) \
            or not math.isfinite(value):
        raise ConfigError(CATEGORY_INVARIANT, f"'{name}' must be a finite number")
    if lo is not None and value < lo:
        raise ConfigError(CATEGORY_INVARIANT, f"'{name}' must be >= {lo}, got {value}")
    if hi is not None and value > hi:
        raise ConfigError(CATEGORY_INVARIANT, f"'{name}' must be <= {hi}, got {value}")
    return value


def _check_work(values, size, what, cap):
    """Reject a config whose work, computed from the values of its keys (a
    dict of key -> value), exceeds the cap; the message quotes the values."""
    if not size <= cap:
        given = ", ".join(f"'{key}' = {value}" for key, value in values.items())
        raise ConfigError(CATEGORY_INVARIANT,
                          f"{given} give {size:.6g} {what}; at most {cap} "
                          f"are allowed")


def config_from_dict(raw: dict) -> RunConfig:
    """Validate a JSON-compatible dict into a RunConfig."""
    if not isinstance(raw, dict):
        raise ConfigError(CATEGORY_INVARIANT, "top-level config must be an object")
    for key in raw:
        if key not in TOP_LEVEL_KEYS:
            raise ConfigError(CATEGORY_UNKNOWN_KEY, f"unknown key '{key}'")
    device_in = raw.get("device", {})
    if not isinstance(device_in, dict):
        raise ConfigError(CATEGORY_INVARIANT, "'device' must be an object")
    for key in ("e_j_ghz", "e_c_ghz", "e_l_ghz"):
        if key not in device_in:
            raise ConfigError(CATEGORY_INVARIANT,
                              f"'device.{key}' is required (no default)")
    defaults_used = []
    device = _require_section(raw, "device", DEVICE_DEFAULTS, defaults_used,
                              allow=("e_j_ghz", "e_c_ghz", "e_l_ghz"))
    device.update({k: device_in[k] for k in ("e_j_ghz", "e_c_ghz", "e_l_ghz")})
    readout = _require_section(raw, "readout", READOUT_DEFAULTS, defaults_used)
    gate = _require_section(raw, "gate", GATE_DEFAULTS, defaults_used)
    noise = _require_section(raw, "noise", NOISE_DEFAULTS, defaults_used)
    sweep = _require_section(raw, "sweep", SWEEP_DEFAULTS, defaults_used)
    chi_curve = _require_section(raw, "chi_curve", CHI_CURVE_DEFAULTS, defaults_used)
    anticrossing = _require_section(raw, "anticrossing", ANTICROSSING_DEFAULTS,
                                    defaults_used)

    for key in ("e_j_ghz", "e_c_ghz", "e_l_ghz"):
        _check_number(f"device.{key}", device[key], lo=1e-9)
    _check_number("device.omega_r_ghz", device["omega_r_ghz"], lo=1e-9)
    _check_number("device.g_mhz_over_2pi", device["g_mhz_over_2pi"], lo=0.0)
    _check_number("device.dim", device["dim"], lo=2, integer=True)
    _check_number("device.levels_kept", device["levels_kept"], lo=2, integer=True)
    _check_number("device.levels_resonator", device["levels_resonator"], lo=2,
                  integer=True)
    try:
        mode = CouplingMode(device["coupling_mode"])
    except ValueError:
        raise ConfigError(
            CATEGORY_INVARIANT,
            f"'device.coupling_mode' must be one of "
            f"{[m.value for m in CouplingMode]}, got {device['coupling_mode']!r}")

    _check_number("readout.n_bar", readout["n_bar"], lo=0.0)
    _check_number("readout.eta", readout["eta"], lo=0.0, hi=1.0)
    _check_number("readout.kappa_mhz_over_2pi", readout["kappa_mhz_over_2pi"], lo=1e-12)
    _check_number("readout.t_max_ns", readout["t_max_ns"], lo=1e-9)
    _check_number("readout.dt_ns", readout["dt_ns"], lo=1e-9)
    _check_number("readout.chi_clamp_mhz", readout["chi_clamp_mhz"], lo=1e-12)
    ramp_raw = readout["ramp"]
    _check_number("readout.ramp.f_start", ramp_raw["f_start"])
    _check_number("readout.ramp.f_end", ramp_raw["f_end"])
    _check_number("readout.ramp.t_rise_ns", ramp_raw["t_rise_ns"], lo=0.0)
    _check_work({"readout.t_max_ns": readout["t_max_ns"],
                 "readout.dt_ns": readout["dt_ns"]},
                readout["t_max_ns"] / readout["dt_ns"] + 1,
                "readout points", MAX_READOUT_POINTS)

    taus = gate["tau_g_ns_list"]
    if not isinstance(taus, list) or not taus:
        raise ConfigError(CATEGORY_INVARIANT,
                          "'gate.tau_g_ns_list' must be a nonempty list")
    for i, tau in enumerate(taus):
        _check_number(f"gate.tau_g_ns_list[{i}]", tau, lo=1e-9)
    _check_number("gate.levels_fluxonium", gate["levels_fluxonium"], lo=2, integer=True)
    _check_number("gate.levels_resonator", gate["levels_resonator"], lo=2, integer=True)
    _check_number("gate.dt_ns", gate["dt_ns"], lo=1e-12)
    _check_work({"gate.dt_ns": gate["dt_ns"], "max(gate.tau_g_ns_list)": max(taus)},
                max(taus) / gate["dt_ns"], "RK4 steps", MAX_GATE_STEPS)

    _check_number("noise.scale", noise["scale"], lo=0.0)
    _check_number("noise.n_draws", noise["n_draws"], lo=1, integer=True)
    _check_number("noise.seed", noise["seed"], lo=0, hi=(1 << 64) - 1, integer=True)

    _check_number("sweep.e_j_min_ghz", sweep["e_j_min_ghz"], lo=1e-9)
    _check_number("sweep.e_j_max_ghz", sweep["e_j_max_ghz"], lo=1e-9)
    _check_number("sweep.n_e_j", sweep["n_e_j"], lo=1, integer=True)
    _check_number("sweep.f_min", sweep["f_min"])
    _check_number("sweep.f_max", sweep["f_max"])
    _check_number("sweep.n_f", sweep["n_f"], lo=1, integer=True)
    # landscape axes are strictly increasing: a degenerate range fits one point
    for lo, hi, n in (("e_j_min_ghz", "e_j_max_ghz", "n_e_j"),
                      ("f_min", "f_max", "n_f")):
        if sweep[hi] < sweep[lo] or (sweep[hi] == sweep[lo] and sweep[n] > 1):
            raise ConfigError(CATEGORY_INVARIANT,
                              f"'sweep.{hi}' must exceed sweep.{lo} "
                              f"(or equal it with sweep.{n} = 1)")
    _check_work({"sweep.n_e_j": sweep["n_e_j"], "sweep.n_f": sweep["n_f"]},
                sweep["n_e_j"] * sweep["n_f"],
                "landscape cells", MAX_LANDSCAPE_CELLS)

    _check_number("chi_curve.f_min", chi_curve["f_min"])
    _check_number("chi_curve.f_max", chi_curve["f_max"])
    _check_number("chi_curve.step", chi_curve["step"], lo=1e-9)
    if chi_curve["f_max"] <= chi_curve["f_min"]:
        raise ConfigError(CATEGORY_INVARIANT, "'chi_curve.f_max' must exceed f_min")
    _check_work({f"chi_curve.{key}": chi_curve[key]
                 for key in ("f_min", "f_max", "step")},
                (chi_curve["f_max"] - chi_curve["f_min"]) / chi_curve["step"] + 1,
                "chi points", MAX_CHI_POINTS)

    for key in ("level_i", "level_j"):
        _check_number(f"anticrossing.{key}", anticrossing[key], lo=0,
                      hi=device["levels_kept"] - 1, integer=True)
    _check_number("anticrossing.window_lo", anticrossing["window_lo"])
    _check_number("anticrossing.window_hi", anticrossing["window_hi"])
    if anticrossing["window_hi"] <= anticrossing["window_lo"]:
        raise ConfigError(CATEGORY_INVARIANT,
                          "'anticrossing.window_hi' must exceed window_lo")

    scalars = {}
    for key, default in (("flux", 0.5), ("out_dir", "out"),
                         ("seed", NOISE_DEFAULTS["seed"])):
        if key in raw:
            scalars[key] = raw[key]
        else:
            scalars[key] = default
            defaults_used.append(f"{key}={json.dumps(default)}")
    _check_number("flux", scalars["flux"])
    if not isinstance(scalars["out_dir"], str) or not scalars["out_dir"]:
        raise ConfigError(CATEGORY_INVARIANT, "'out_dir' must be a nonempty string")
    _check_number("seed", scalars["seed"], lo=0, hi=(1 << 64) - 1, integer=True)

    canonical = {
        "device": device,
        "readout": readout,
        "gate": gate,
        "noise": noise,
        "sweep": sweep,
        "chi_curve": chi_curve,
        "anticrossing": anticrossing,
        **scalars,
    }

    kappa = units.mhz(readout["kappa_mhz_over_2pi"])
    try:
        params = EnergyParams.from_ghz(device["e_j_ghz"], device["e_c_ghz"],
                                       device["e_l_ghz"])
        resonator = ResonatorParams(units.ghz(device["omega_r_ghz"]), kappa,
                                    units.mhz(device["g_mhz_over_2pi"]))
        dims = CoupledDims(device["dim"], device["levels_kept"],
                           device["levels_resonator"])
        gate_dims = CoupledDims(device["dim"], gate["levels_fluxonium"],
                                gate["levels_resonator"])
        readout_cfg = ReadoutConfig(
            n_bar=readout["n_bar"], eta=readout["eta"], kappa=kappa,
            t_max=readout["t_max_ns"], dt=readout["dt_ns"])
        ramp = FluxRamp(ramp_raw["f_start"], ramp_raw["f_end"],
                        ramp_raw["t_rise_ns"])
        noise_spec = NoiseSpec(noise["scale"], noise["n_draws"], noise["seed"])
    except (ValueError, ConfigError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(CATEGORY_INVARIANT, str(exc)) from exc

    return RunConfig(
        params=params, resonator=resonator, mode=mode, dims=dims,
        gate_dims=gate_dims, readout=readout_cfg, ramp=ramp,
        chi_clamp=units.mhz(readout["chi_clamp_mhz"]),
        gate_taus=tuple(float(t) for t in taus), gate_dt=float(gate["dt_ns"]),
        noise=noise_spec, flux=float(scalars["flux"]),
        out_dir=scalars["out_dir"], seed=int(scalars["seed"]), raw=canonical,
        defaults_used=tuple(defaults_used),
    )


def parse_config(path) -> RunConfig:
    """Read and validate a JSON config file."""
    p = Path(path)
    if not p.is_file():
        raise ConfigError(CATEGORY_MISSING_FILE, f"config file not found: {p}")
    text = p.read_text(encoding="utf-8")
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            CATEGORY_MALFORMED_JSON,
            f"{p}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    return config_from_dict(raw)

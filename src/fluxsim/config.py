"""JSON run configuration: parsing, validation, defaults, round-tripping.

One table, SCHEMA, holds every key: its dotted name, its default (or
REQUIRED), its bounds and its kind. A recursive merge driven by the table
rejects unknown keys, fills in defaults and records each default it applies
so the manifest can list them (no silent defaulting). An absent top-level
section counts as an empty object; an absent nested group (readout.ramp) is
one default. One loop over the same table checks each key; the checks that
relate several keys follow it explicitly. Each kind of capped work is
written once, in `capped_work`: its amount at the defaults, times its
factor, gives its cap in WORK_CAPS, and its amount at the config is checked
against that cap before any work starts.
"""

from __future__ import annotations

import copy
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

from . import units
from .coupled import DEFAULT_MODE, CoupledDims, CouplingMode, ResonatorParams
from .errors import ConfigError
from .gates import DEFAULT_GATE_DT, GATE_DIMS
from .noise import NoiseSpec
from .qubit import DEFAULT_DIM, EnergyParams
from .readout import ChiProfile, FluxRamp, ReadoutConfig

CATEGORY_MISSING_FILE = "missing-file"
CATEGORY_MALFORMED_JSON = "malformed-json"
CATEGORY_UNKNOWN_KEY = "unknown-key"
CATEGORY_INVARIANT = "invariant-violation"

REQUIRED = object()
SEED_MAX = (1 << 64) - 1
# Each truncation is at most 100^(1/3) times its default: the eigensolves
# it sizes grow as its cube, so they do at most 100 times the default work,
# like the work caps below.
_TRUNCATION_FACTOR = 100 ** (1 / 3)
# the largest value in GHz that is finite in rad/ns, as every device energy
# and the landscape's E_J axis must be
_GHZ_MAX = sys.float_info.max / units.TWO_PI


def _truncation(key, default):
    """The schema row of a truncation, bounded by its default."""
    return (key, default, 2, int(_TRUNCATION_FACTOR * default), int)


# (dotted key, default or REQUIRED, lo, hi, kind), in the order the manifest
# lists applied defaults. kind float is a finite number, int an integer, list
# a nonempty list of finite numbers each within [lo, hi], str a nonempty
# string, CouplingMode one of its values. A default the library owns is read
# from its owner (kappa and the chi clamp converted to MHz, both exactly);
# the others are written here.
SCHEMA = (
    ("device.e_j_ghz", REQUIRED, 1e-9, _GHZ_MAX, float),
    ("device.e_c_ghz", REQUIRED, 1e-9, _GHZ_MAX, float),
    ("device.e_l_ghz", REQUIRED, 1e-9, _GHZ_MAX, float),
    ("device.omega_r_ghz", 7.0, 1e-9, _GHZ_MAX, float),
    ("device.g_mhz_over_2pi", 50.0, 0.0, None, float),
    ("device.coupling_mode", DEFAULT_MODE.value, None, None, CouplingMode),
    # the DRAG anharmonicity reads bare level 2
    ("device.dim", DEFAULT_DIM, 3, int(_TRUNCATION_FACTOR * DEFAULT_DIM), int),
    ("device.levels_kept", CoupledDims.kept, 2, None, int),
    _truncation("device.levels_resonator", CoupledDims.n_res),
    ("readout.n_bar", ReadoutConfig.n_bar, 0.0, None, float),
    ("readout.eta", ReadoutConfig.eta, 0.0, 1.0, float),
    ("readout.kappa_mhz_over_2pi", units.to_mhz(ReadoutConfig.kappa), 1e-12,
     None, float),
    ("readout.t_max_ns", ReadoutConfig.t_max, 1e-9, None, float),
    ("readout.dt_ns", ReadoutConfig.dt, 1e-9, None, float),
    ("readout.chi_clamp_mhz", units.to_mhz(ChiProfile.clamp), 1e-12, None,
     float),
    ("readout.ramp.f_start", 0.5, None, None, float),
    ("readout.ramp.f_end", 0.641, None, None, float),
    ("readout.ramp.t_rise_ns", 50.0, 0.0, None, float),
    ("gate.tau_g_ns_list", [10.0, 20.0, 30.0], 1e-9, None, list),
    ("gate.levels_fluxonium", GATE_DIMS.kept, 2, None, int),
    _truncation("gate.levels_resonator", GATE_DIMS.n_res),
    ("gate.dt_ns", DEFAULT_GATE_DT, 1e-12, None, float),
    # f is 1-periodic: a wider spread adds nothing, and the draws stay finite
    ("noise.scale", 1e-2, 0.0, 1.0, float),
    ("noise.n_draws", NoiseSpec.n_draws, 1, None, int),
    ("noise.seed", NoiseSpec.seed, 0, SEED_MAX, int),
    ("sweep.e_j_min_ghz", 4.75, 1e-9, _GHZ_MAX, float),
    ("sweep.e_j_max_ghz", 4.75, 1e-9, _GHZ_MAX, float),
    ("sweep.n_e_j", 1, 1, None, int),
    ("sweep.f_min", 0.40, None, None, float),
    ("sweep.f_max", 0.70, None, None, float),
    ("sweep.n_f", 61, 1, None, int),
    ("chi_curve.f_min", 0.40, None, None, float),
    ("chi_curve.f_max", 0.70, None, None, float),
    ("chi_curve.step", 1e-4, 1e-9, None, float),
    ("anticrossing.level_i", 3, 0, None, int),
    ("anticrossing.level_j", 1, 0, None, int),
    ("anticrossing.window_lo", 0.55, None, None, float),
    ("anticrossing.window_hi", 0.60, None, None, float),
    ("flux", 0.5, None, None, float),
    ("out_dir", "out", None, None, str),
    # hashed with the config; the noise draws and the manifest use noise.seed
    ("seed", 1234, 0, SEED_MAX, int),
)


def _defaults_tree():
    """The table's defaults as nested dicts, one per section and group."""
    tree = {}
    for key, default, *_ in SCHEMA:
        *groups, leaf = key.split(".")
        node = tree
        for group in groups:
            node = node.setdefault(group, {})
        node[leaf] = default
    return tree


_DEFAULTS = _defaults_tree()


def _applied_texts(tree, prefix=""):
    """{dotted name: its defaults_used entry "name=<json>"} of every default
    _merge can apply: each key, and a nested group (not a section) whole."""
    texts = {}
    for key, default in tree.items():
        if isinstance(default, dict):
            texts.update(_applied_texts(default, f"{prefix}{key}."))
        if default is not REQUIRED and (prefix or not isinstance(default, dict)):
            texts[prefix + key] = f"{prefix}{key}={json.dumps(default)}"
    return texts


_APPLIED = _applied_texts(_DEFAULTS)


def capped_work(config):
    """Each kind of work a config tree (canonical, or _DEFAULTS) asks for, in
    check order: (noun, factor, {quoted key: value}, amount). Its cap is the
    factor times the amount at the defaults."""
    def keys(section, *names):
        return {f"{section}.{name}": config[section][name] for name in names}

    grid = keys("readout", "t_max_ns", "dt_ns")
    points = grid["readout.t_max_ns"] / grid["readout.dt_ns"] + 1
    draws = keys("noise", "n_draws")
    n_draws = draws["noise.n_draws"]
    taus, dt = config["gate"]["tau_g_ns_list"], config["gate"]["dt_ns"]
    total = sum(taus, 0.0)
    steps = {"gate.dt_ns": dt, "sum(gate.tau_g_ns_list)": total}
    n_steps = total / dt
    cells = keys("sweep", "n_e_j", "n_f")
    coupled = keys("device", "levels_kept", "levels_resonator")
    gate_levels = keys("gate", "levels_fluxonium", "levels_resonator")
    chi = keys("chi_curve", "f_min", "f_max", "step")
    return (
        # the Langevin traces hold every point of the readout time grid, of
        # every draw in the readout Monte Carlo
        ("readout points", 100, grid, points),
        ("readout draw points", 100, {**draws, **grid}, n_draws * points),
        # the time one gate takes grows with its RK4 steps
        ("RK4 steps", 100, {"gate.dt_ns": dt, "max(gate.tau_g_ns_list)": max(taus)},
         max(taus) / dt),
        # each landscape cell and each chi-curve point is a dressed eigensolve
        ("landscape cells", 100, cells, math.prod(cells.values())),
        # the coupled eigensolves, bounded as each truncation is
        ("coupled levels", _TRUNCATION_FACTOR, coupled,
         math.prod(coupled.values())),
        ("gate levels", _TRUNCATION_FACTOR, gate_levels,
         math.prod(gate_levels.values())),
        ("chi points", 100, chi,
         (chi["chi_curve.f_max"] - chi["chi_curve.f_min"])
         / chi["chi_curve.step"] + 1),
        # gates propagates every gate time once, noise-gates once per draw
        ("gate steps", 100, steps, n_steps),
        ("gate draw steps", 100, {**draws, **steps}, n_draws * n_steps),
    )


# the work caps, checked before any work starts
WORK_CAPS = {noun: int(factor * round(amount))
             for noun, factor, _, amount in capped_work(_DEFAULTS)}


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
    raw: dict
    defaults_used: tuple


def _merge(given, defaults, prefix, defaults_used):
    """Merge one config object over its defaults: reject unknown keys, fill
    in defaults and record each one applied in defaults_used."""
    for key in given:
        if key not in defaults:
            raise ConfigError(CATEGORY_UNKNOWN_KEY, f"unknown key '{prefix}{key}'")
    merged = {}
    for key, default in defaults.items():
        name = prefix + key
        # an absent section counts as empty; an absent nested group is one default
        if isinstance(default, dict) and (key in given or not prefix):
            value = given.get(key, {})
            if not isinstance(value, dict):
                raise ConfigError(CATEGORY_INVARIANT, f"'{name}' must be an object")
            merged[key] = _merge(value, default, name + ".", defaults_used)
        elif key in given:
            merged[key] = given[key]
        elif default is REQUIRED:
            raise ConfigError(CATEGORY_INVARIANT,
                              f"'{name}' is required (no default)")
        else:
            # the defaults' lists and groups hold numbers only
            merged[key] = copy.copy(default)
            defaults_used.append(_APPLIED[name])
    return merged


def _check_value(name, value, lo=None, hi=None, kind=float):
    """Check one value against a schema row's kind and bounds."""
    if kind is list:
        if not isinstance(value, list) or not value:
            raise ConfigError(CATEGORY_INVARIANT, f"'{name}' must be a nonempty list")
        for i, item in enumerate(value):
            _check_value(f"{name}[{i}]", item, lo, hi)
        return
    if kind is str and (not isinstance(value, str) or not value):
        raise ConfigError(CATEGORY_INVARIANT, f"'{name}' must be a nonempty string")
    if kind is CouplingMode:
        modes = [m.value for m in CouplingMode]
        if value not in modes:
            raise ConfigError(CATEGORY_INVARIANT,
                              f"'{name}' must be one of {modes}, got {value!r}")
    if kind is int and (not isinstance(value, int) or isinstance(value, bool)):
        raise ConfigError(CATEGORY_INVARIANT, f"'{name}' must be an integer")
    # a JSON integer can lie beyond the largest double (an int compares
    # exactly with a float), and NaN compares false
    if kind in (int, float) and (not isinstance(value, (int, float))
                                 or isinstance(value, bool)
                                 or not abs(value) <= sys.float_info.max):
        raise ConfigError(CATEGORY_INVARIANT, f"'{name}' must be a finite number")
    if lo is not None and value < lo:
        raise ConfigError(CATEGORY_INVARIANT, f"'{name}' must be >= {lo}, got {value}")
    if hi is not None and value > hi:
        raise ConfigError(CATEGORY_INVARIANT, f"'{name}' must be <= {hi}, got {value}")


def config_from_dict(raw: dict) -> RunConfig:
    """Validate a JSON-compatible dict into a RunConfig."""
    if not isinstance(raw, dict):
        raise ConfigError(CATEGORY_INVARIANT, "top-level config must be an object")
    defaults_used = []
    canonical = _merge(raw, _DEFAULTS, "", defaults_used)
    for key, _, lo, hi, kind in SCHEMA:
        value = canonical
        for part in key.split("."):
            value = value[part]
        _check_value(key, value, lo, hi, kind)

    device, readout, gate, noise, sweep, chi_curve, anticrossing = (
        canonical[name] for name in ("device", "readout", "gate", "noise",
                                     "sweep", "chi_curve", "anticrossing"))
    _check_value("device.levels_kept", device["levels_kept"], hi=device["dim"])
    _check_value("gate.levels_fluxonium", gate["levels_fluxonium"],
                 hi=device["dim"])
    for key in ("level_i", "level_j"):
        _check_value(f"anticrossing.{key}", anticrossing[key],
                     hi=device["levels_kept"] - 1)
    # landscape axes are strictly increasing: a degenerate range fits one point
    for lo, hi, n in (("e_j_min_ghz", "e_j_max_ghz", "n_e_j"),
                      ("f_min", "f_max", "n_f")):
        if sweep[hi] < sweep[lo] or (sweep[hi] == sweep[lo] and sweep[n] > 1):
            raise ConfigError(CATEGORY_INVARIANT,
                              f"'sweep.{hi}' must exceed sweep.{lo} "
                              f"(or equal it with sweep.{n} = 1)")
    # the ReadoutConfig checks that the table's bounds leave open
    if not readout["eta"] > 0.0:
        raise ConfigError(CATEGORY_INVARIANT,
                          f"'readout.eta' must be > 0, got {readout['eta']}")
    if readout["t_max_ns"] < readout["dt_ns"]:
        raise ConfigError(CATEGORY_INVARIANT,
                          f"'readout.t_max_ns' must be >= readout.dt_ns = "
                          f"{readout['dt_ns']}, got {readout['t_max_ns']}")
    if chi_curve["f_max"] <= chi_curve["f_min"]:
        raise ConfigError(CATEGORY_INVARIANT, "'chi_curve.f_max' must exceed f_min")
    if anticrossing["window_hi"] <= anticrossing["window_lo"]:
        raise ConfigError(CATEGORY_INVARIANT,
                          "'anticrossing.window_hi' must exceed window_lo")

    for noun, _, values, amount in capped_work(canonical):
        if not amount <= WORK_CAPS[noun]:
            given = ", ".join(f"'{key}' = {value}" for key, value in values.items())
            raise ConfigError(CATEGORY_INVARIANT,
                              f"{given} give {amount:.6g} {noun}; at most "
                              f"{WORK_CAPS[noun]} are allowed")

    kappa = units.mhz(readout["kappa_mhz_over_2pi"])
    ramp = readout["ramp"]
    try:
        params = EnergyParams.from_ghz(device["e_j_ghz"], device["e_c_ghz"],
                                       device["e_l_ghz"])
        resonator = ResonatorParams(units.ghz(device["omega_r_ghz"]), kappa,
                                    units.mhz(device["g_mhz_over_2pi"]))
        readout_cfg = ReadoutConfig(
            n_bar=readout["n_bar"], eta=readout["eta"], kappa=kappa,
            t_max=readout["t_max_ns"], dt=readout["dt_ns"])
        noise_spec = NoiseSpec(noise["scale"], noise["n_draws"], noise["seed"])
    except ValueError as exc:
        raise ConfigError(CATEGORY_INVARIANT, str(exc)) from exc

    return RunConfig(
        params=params, resonator=resonator,
        mode=CouplingMode(device["coupling_mode"]),
        dims=CoupledDims(device["dim"], device["levels_kept"],
                         device["levels_resonator"]),
        gate_dims=CoupledDims(device["dim"], gate["levels_fluxonium"],
                              gate["levels_resonator"]),
        readout=readout_cfg,
        ramp=FluxRamp(ramp["f_start"], ramp["f_end"], ramp["t_rise_ns"]),
        chi_clamp=units.mhz(readout["chi_clamp_mhz"]),
        gate_taus=tuple(float(t) for t in gate["tau_g_ns_list"]),
        gate_dt=float(gate["dt_ns"]),
        noise=noise_spec, flux=float(canonical["flux"]),
        out_dir=canonical["out_dir"], raw=canonical,
        defaults_used=tuple(defaults_used),
    )


def read_config(path) -> dict:
    """The parsed JSON of a config file, not yet validated."""
    p = Path(path)
    if not p.is_file():
        raise ConfigError(CATEGORY_MISSING_FILE, f"config file not found: {p}")
    try:
        return json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(
            CATEGORY_MALFORMED_JSON,
            f"{p}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    # bytes that are not UTF-8 (UnicodeDecodeError), an integer of more
    # digits than Python reads, and nesting deeper than the parser recurses
    except (ValueError, RecursionError) as exc:
        raise ConfigError(CATEGORY_MALFORMED_JSON, f"{p}: {exc}") from exc


def parse_config(path) -> RunConfig:
    """Read and validate a JSON config file."""
    return config_from_dict(read_config(path))

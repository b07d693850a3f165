"""Command-line driver.

    simulate <subcommand> --config cfg.json [--seed N] [--out DIR]
                          [--no-cache]

Subcommands: spectrum, chi-curve, landscape, anticrossing, readout,
noise-readout, gates, noise-gates. Every run emits CSV files plus a
manifest.json into the output directory, each replaced atomically and left
untouched when its bytes would not change. Exit codes: 0 success, 2 config
error, 3 numerical failure, 4 I/O error.

Every subcommand runs in one process: flux sweeps (chi-curve, landscape
and the chi profile of the readout subcommands) run batched, their blocks
of flux points on a thread pool (`coupled.sweep_dressed`); readout
integrates its pulsed row and its static row (the ramp held at its start
flux) as one batch, noise-readout all its draws as one; gate Monte Carlo
draws run one after another, and all reductions are index-ordered. The
pool has one thread per CPU the process may use over the BLAS thread
count, and runs serially when no BLAS thread count is set. Importing this
module before numpy sets OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and
MKL_NUM_THREADS to 1 where they are unset, so the CLI solves each block on
one BLAS thread and sweeps on every CPU; a value already set is kept.
The blocks are joined in order, so outputs are bit-identical for any
thread count. --workers N is accepted and ignored.

The result cache holds three kinds of entry, each written and read by
`_cached`: one per (device, chi window), shared by chi-curve, readout and
noise-readout; one per (device, sweep) for landscape; and one optimised
pulse per (device, flux, gate truncation, gate time, smallest gate time,
gate step), shared by gates and noise-gates. Entries hold raw values, NaN
where resonant, as base64 float64 bytes; the CSVs write them as computed,
in their unit, nan where resonant; only the readout chi profile fills and
clamps, at readout.chi_clamp_mhz. spectrum is one eigensolve, not cached.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

from . import BLAS_THREAD_VARS

# one BLAS thread per sweep thread, set before numpy loads BLAS; once numpy
# is loaded its BLAS has read them, and they are left as they are
if "numpy" not in sys.modules:
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")

import numpy as np

from . import units
from .cache import cache_get, cache_put, publish
from .config import RunConfig, config_from_dict, read_config
from .coupled import (
    DEFAULT_TRANSITIONS,
    STATUS_OK,
    STATUS_RESONANT,
    chi_grid,
    compute_landscapes,
    find_anticrossing,
    sweep_dressed,
)
# not called here: perfbench/spans.py wraps these where the CLI looks up
# library functions
from .coupled import _cell_values, dispersive_shift  # noqa: F401
from .errors import ConfigError, FluxsimError
from .gates import PulseParams, build_gate_space, optimize_pulse
from .noise import noisy_gate_error, noisy_readout_snr
from .qubit import FluxBias, fluxonium_spectrum
from .readout import ChiProfile, FluxRamp, ramp_rows, readout_records
from .output import float_cells, write_csv, write_manifest

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


# ---------------------------------------------------------------------------
# Cached sweeps

def _cached(cache_dir, key, lengths, compute):
    """{name: flat float array} of the cache entry under key, of the names
    and sizes in lengths; on a miss, or an entry of other names or sizes,
    compute()'s arrays, flattened and stored under key as float64 bytes.
    cache_dir None bypasses the cache."""
    if cache_dir is not None and (hit := cache_get(cache_dir, key, lengths)):
        return hit
    arrays = {name: np.ravel(values) for name, values in compute().items()}
    if cache_dir is not None:
        cache_put(cache_dir, key, arrays)
    return arrays


def _chi_values(cfg: RunConfig, cache_dir):
    """The configured chi_curve grid and raw chi on it (NaN where
    resonant), cached as one entry per (device, chi window)."""
    cc = cfg.raw["chi_curve"]
    grid = chi_grid(**cc)
    # raw chi: the readout profile's clamp is not part of the key
    key = {"op": "chi-curve", **cc, "device": cfg.raw["device"]}
    return grid, _cached(cache_dir, key, {"chi": grid.size}, lambda: {
        "chi": sweep_dressed(cfg.params, grid, cfg.resonator,
                             cfg.mode, cfg.dims).chi()})["chi"]


def _status(values):
    """Per-point status: resonant exactly where the raw value is NaN."""
    return np.where(np.isnan(values), STATUS_RESONANT, STATUS_OK)


# ---------------------------------------------------------------------------
# Subcommands

def cmd_spectrum(cfg: RunConfig, out_dir, cache_dir):
    energies, _ = fluxonium_spectrum(cfg.params, FluxBias(cfg.flux),
                                     cfg.dims.dim)
    path = write_csv(out_dir / "spectrum.csv", ["level", "energy_ghz"],
                     [range(energies.size), units.to_ghz(energies)])
    return [(path, "spectrum")]


def cmd_chi_curve(cfg: RunConfig, out_dir, cache_dir):
    grid, values = _chi_values(cfg, cache_dir)
    path = write_csv(out_dir / "chi_curve.csv", ["f", "chi_mhz", "status"],
                     [grid, units.to_mhz(values), _status(values)])
    return [(path, "chi-curve")]


# unit and conversion from angular frequency of each landscape kind
LANDSCAPE_EMISSION = {
    "omega_q": ("GHz", units.to_ghz),
    "chi": ("MHz", units.to_mhz),
    **{f"delta_{i}{j}": ("GHz", units.to_ghz) for i, j in DEFAULT_TRANSITIONS},
}


def landscape_columns(kind, values):
    """CSV columns (value, unit, status) of one landscape kind from its raw
    values over (E_J, f), row-major: each value as computed, converted per
    LANDSCAPE_EMISSION, nan where resonant."""
    unit, conv = LANDSCAPE_EMISSION[kind]
    values = np.ravel(values)
    return [conv(values), unit, _status(values)]


def cmd_landscape(cfg: RunConfig, out_dir, cache_dir):
    sweep = cfg.raw["sweep"]
    e_j_axis = np.linspace(sweep["e_j_min_ghz"], sweep["e_j_max_ghz"],
                           sweep["n_e_j"])
    f_axis = np.linspace(sweep["f_min"], sweep["f_max"], sweep["n_f"])
    key = {"op": "landscape", "sweep": sweep, "device": cfg.raw["device"]}
    lengths = dict.fromkeys(LANDSCAPE_EMISSION, e_j_axis.size * f_axis.size)
    landscapes = _cached(cache_dir, key, lengths, lambda: compute_landscapes(
        units.ghz(e_j_axis), f_axis, cfg.params.e_c, cfg.params.e_l,
        cfg.resonator, cfg.mode, cfg.dims))
    columns = {kind: landscape_columns(kind, values)
               for kind, values in landscapes.items()}
    # every float cell of the eight tables in one pass: the (E_J, f) cell of
    # each row, shared by every kind, then each kind's values
    cells = float_cells([np.repeat(e_j_axis, f_axis.size),
                         np.tile(f_axis, e_j_axis.size),
                         *(value for value, _, _ in columns.values())])
    return [(write_csv(out_dir / f"landscape_{kind}.csv",
                       ["e_j_ghz", "f", "value", "unit", "status"],
                       [cells[:, 0], cells[:, 1], cells[:, k], unit, status]),
             f"landscape-{kind}")
            for k, (kind, (_, unit, status)) in enumerate(columns.items(), 2)]


def cmd_anticrossing(cfg: RunConfig, out_dir, cache_dir):
    ac = cfg.raw["anticrossing"]
    result = find_anticrossing(cfg.params, cfg.resonator, cfg.mode, cfg.dims,
                               transition=(ac["level_i"], ac["level_j"]),
                               window=(ac["window_lo"], ac["window_hi"]))
    path = write_csv(out_dir / "anticrossing.csv",
                     ["f_star", "gap_mhz", "g_ij_mhz", "t_swap_ns"],
                     [result.f_star, units.to_mhz(result.gap),
                      units.to_mhz(result.g_ij), result.t_swap])
    return [(path, "anticrossing")]


READOUT_HEADER = ["tau_ns", "snr", "error", "m_s_0", "m_s_1",
                  "re_alpha_out_0", "im_alpha_out_0",
                  "re_alpha_out_1", "im_alpha_out_1"]


def cmd_readout(cfg: RunConfig, out_dir, cache_dir):
    profile = ChiProfile(*_chi_values(cfg, cache_dir), cfg.chi_clamp)
    # static readout is the ramp held at f_start: one batch of two rows
    ramps = [cfg.ramp, FluxRamp(cfg.ramp.f_start, cfg.ramp.f_start, 0.0)]
    records = readout_records(*ramp_rows(ramps, profile, cfg.readout),
                              cfg.readout)
    # the sigma_z = -1 columns mirror the sigma_z = +1 record: the conjugate
    # field and -M_S (0.0 - x, not -x, keeps the tau = 0 cells 0.0)
    return [(write_csv(out_dir / name, READOUT_HEADER, [
        traj.times, traj.snr, traj.error, traj.m_s_plus, 0.0 - traj.m_s_plus,
        traj.alpha_out_plus.real, traj.alpha_out_plus.imag,
        traj.alpha_out_plus.real, 0.0 - traj.alpha_out_plus.imag]), "readout")
        for name, traj in zip(("readout_pulsed.csv", "readout_static.csv"),
                              records)]


NOISE_HEADER = ["axis_value", "mean", "stderr", "n_effective", "n_excluded",
                "scale", "seed"]


def _noise_columns(curve):
    return [curve.axis, curve.mean, curve.stderr, curve.n_effective,
            curve.n_excluded, curve.scale, curve.seed]


def cmd_noise_readout(cfg: RunConfig, out_dir, cache_dir):
    profile = ChiProfile(*_chi_values(cfg, cache_dir), cfg.chi_clamp)
    result = noisy_readout_snr(cfg.ramp, profile, cfg.readout, cfg.noise)
    return [(write_csv(out_dir / name, NOISE_HEADER, _noise_columns(curve)),
             "noise-readout")
            for name, curve in (("noise_readout_snr.csv", result.snr),
                                ("noise_readout_error.csv", result.error))]


def _optimized_pulses(cfg: RunConfig, cache_dir):
    """(PulseParams, {fidelity, error, leakage}) of the optimised pulse at
    each configured gate time, cached as one entry per pulse; the drive
    frequency is the gate space's omega_01.

    Only the smallest gate time tau_0 is optimised from the seed grid.
    Every other tau_g is refined from tau_0's optimum (eps_d tau_0 / tau_g,
    lambda), the same pulse area at the same DRAG weight, so a row depends
    on tau_0 but not on the order of the list; tau_0 is part of each
    entry's key."""
    space = build_gate_space(cfg.params, FluxBias(cfg.flux), cfg.resonator,
                             cfg.mode, cfg.gate_dims)
    gate = cfg.raw["gate"]
    tau_0 = min(cfg.gate_taus)
    names = ("eps_d", "lam", "fidelity", "error", "leakage")

    def cached_pulse(tau, seed=None):
        key = {"op": "pulse", "device": cfg.raw["device"], "flux": cfg.flux,
               "levels_fluxonium": gate["levels_fluxonium"],
               "levels_resonator": gate["levels_resonator"],
               "tau_g_ns": tau, "seed_tau_g_ns": tau_0, "dt_ns": cfg.gate_dt}

        def optimize():
            pulse, result = optimize_pulse(space, tau, dt=cfg.gate_dt,
                                           seed=seed)
            return dict(zip(names, (
                pulse.eps_d, pulse.lam, result.fidelity, result.error,
                result.leakage)))

        entry = {name: float(values[0]) for name, values in _cached(
            cache_dir, key, dict.fromkeys(names, 1), optimize).items()}
        return (PulseParams(tau, entry.pop("eps_d"), entry.pop("lam"),
                            space.omega_01), entry)

    first = cached_pulse(tau_0)
    area, lam = first[0].eps_d * tau_0, first[0].lam
    return [first if tau == tau_0 else cached_pulse(tau, (area / tau, lam))
            for tau in cfg.gate_taus]


def cmd_gates(cfg: RunConfig, out_dir, cache_dir):
    rows = [(pulse.tau_g, pulse.eps_d, pulse.lam, result["fidelity"],
             result["error"], result["leakage"])
            for pulse, result in _optimized_pulses(cfg, cache_dir)]
    path = write_csv(out_dir / "gates.csv",
                     ["tau_g_ns", "eps_d", "lambda", "fidelity", "error",
                      "leakage"], list(zip(*rows)))
    return [(path, "gates")]


def cmd_noise_gates(cfg: RunConfig, out_dir, cache_dir):
    pulses = [pulse for pulse, _ in _optimized_pulses(cfg, cache_dir)]
    curve = noisy_gate_error(cfg.params, cfg.resonator, pulses, cfg.noise,
                             base_flux=cfg.flux, mode=cfg.mode,
                             dims=cfg.gate_dims, dt=cfg.gate_dt)
    path = write_csv(out_dir / "noise_gates.csv", NOISE_HEADER,
                     _noise_columns(curve))
    return [(path, "noise-gates")]


SUBCOMMANDS = {
    "spectrum": cmd_spectrum,
    "chi-curve": cmd_chi_curve,
    "landscape": cmd_landscape,
    "anticrossing": cmd_anticrossing,
    "readout": cmd_readout,
    "noise-readout": cmd_noise_readout,
    "gates": cmd_gates,
    "noise-gates": cmd_noise_gates,
}


def run_subcommand(name, cfg: RunConfig, use_cache=True):
    """Execute one subcommand; returns the manifest path."""
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cache_dir = out_dir / ".cache" if use_cache else None
    files = SUBCOMMANDS[name](cfg, out_dir, cache_dir)
    return write_manifest(out_dir, files, cfg)


@functools.cache
def build_parser():
    """The process's one flat parser, built on first use: the subcommand is
    a positional choice, and every subcommand takes the same options."""
    parser = argparse.ArgumentParser(
        prog="simulate",
        description="Fluxonium flux-pulse-assisted readout simulator.")
    parser.add_argument("subcommand", choices=list(SUBCOMMANDS))
    parser.add_argument("--config", required=True, help="JSON config file")
    parser.add_argument("--seed", type=int, default=None,
                        help="override config seed (also the noise seed)")
    parser.add_argument("--out", default=None,
                        help="override output directory")
    parser.add_argument("--workers", type=int, default=None,
                        help="accepted and ignored: sweeps use one thread "
                             "per CPU over the BLAS thread count")
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass the result cache entirely")
    return parser


def _with_overrides(raw, args):
    """raw with --seed and --out set as given keys, not defaults; a
    malformed raw is left for config_from_dict to reject."""
    if isinstance(raw, dict):
        raw = dict(raw)
        if args.seed is not None:
            raw["seed"] = args.seed
            if isinstance(raw.setdefault("noise", {}), dict):
                raw["noise"] = {**raw["noise"], "seed": args.seed}
        if args.out is not None:
            raw["out_dir"] = args.out
    return raw


def main(argv=None):
    args = build_parser().parse_args(argv)
    out_dir = args.out  # where error.json goes until the config has parsed
    try:
        cfg = config_from_dict(_with_overrides(read_config(args.config), args))
        out_dir = cfg.out_dir
        run_subcommand(args.subcommand, cfg, use_cache=not args.no_cache)
        return EXIT_OK
    except ConfigError as exc:
        _emit_error(out_dir, "config", type(exc).__name__,
                    f"[{exc.category}] {exc}")
        return EXIT_CONFIG
    except FluxsimError as exc:
        _emit_error(out_dir, "numerical", type(exc).__name__, str(exc))
        return EXIT_NUMERICAL
    except OSError as exc:
        _emit_error(out_dir, "io", type(exc).__name__, str(exc))
        return EXIT_IO


def _emit_error(out_dir, category, kind, message):
    """Machine-readable error record on stderr, best-effort error.json in
    out_dir (None: no file)."""
    record = {"error": {"category": category, "type": kind, "message": message}}
    print(json.dumps(record), file=sys.stderr)
    if out_dir:
        try:
            publish(Path(out_dir) / "error.json",
                    (json.dumps(record, indent=2) + "\n").encode("utf-8"))
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())

"""End-to-end tests for the simulate command-line driver."""

import csv
import json
import math
from pathlib import Path

import pytest

from fluxsim import diagnostics, units
from fluxsim.cache import CACHE_SCHEMA_VERSION, entry_path
from fluxsim.cli import main, run_subcommand
from fluxsim.config import config_from_dict
from fluxsim.coupled import (
    CoupledDims,
    CouplingMode,
    ResonatorParams,
    dispersive_shift,
    find_anticrossing,
)
from fluxsim.qubit import EnergyParams, FluxBias, fluxonium_spectrum

PARAMS = EnergyParams.from_ghz(4.75, 1.25, 1.5)
RES = ResonatorParams.from_ghz(7.0, 5.0, 50.0)


def base_config(out_dir):
    return {
        "device": {"e_j_ghz": 4.75, "e_c_ghz": 1.25, "e_l_ghz": 1.5},
        "chi_curve": {"f_min": 0.45, "f_max": 0.66, "step": 1e-3},
        "readout": {"t_max_ns": 200.0},
        "noise": {"scale": 1e-3, "n_draws": 4},
        "sweep": {"e_j_min_ghz": 4.6, "e_j_max_ghz": 4.8, "n_e_j": 2,
                  "f_min": 0.45, "f_max": 0.50, "n_f": 3},
        "out_dir": str(out_dir),
    }


def write_config(tmp_path, cfg=None, name="cfg.json"):
    raw = cfg if cfg is not None else base_config(tmp_path / "out")
    path = tmp_path / name
    path.write_text(json.dumps(raw, indent=2), encoding="utf-8")
    return path, Path(raw["out_dir"])


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def test_spectrum_subcommand(tmp_path):
    cfg_path, out = write_config(tmp_path)
    assert main(["spectrum", "--config", str(cfg_path)]) == 0
    rows = read_csv(out / "spectrum.csv")
    assert len(rows) == 40
    energies = [float(r["energy_ghz"]) for r in rows]
    assert energies == sorted(energies)
    manifest = json.loads((out / "manifest.json").read_text())
    assert any(r["name"] == "spectrum.csv" for r in manifest["files"])
    assert manifest["defaults_used"]  # the minimal config relies on defaults


def test_chi_curve_values_and_rerun_determinism(tmp_path):
    cfg_path, out = write_config(tmp_path)
    assert main(["chi-curve", "--config", str(cfg_path)]) == 0
    first = (out / "chi_curve.csv").read_bytes()
    rows = read_csv(out / "chi_curve.csv")
    at_half = next(r for r in rows if abs(float(r["f"]) - 0.5) < 1e-12)
    assert float(at_half["chi_mhz"]) == pytest.approx(0.527, abs=0.01)
    assert at_half["status"] == "ok"
    assert main(["chi-curve", "--config", str(cfg_path)]) == 0
    assert (out / "chi_curve.csv").read_bytes() == first


def test_warm_cache_skips_eigensolves(tmp_path):
    raw = base_config(tmp_path / "out")
    raw["chi_curve"] = {"f_min": 0.49, "f_max": 0.51, "step": 1e-3}
    cfg = config_from_dict(raw)
    run_subcommand("chi-curve", cfg)
    diagnostics.reset_eigensolve_count()
    run_subcommand("chi-curve", cfg)
    assert diagnostics.eigensolve_count() == 0


def test_one_cache_entry_per_sweep(tmp_path):
    raw = base_config(tmp_path / "out")
    cfg = config_from_dict(raw)
    run_subcommand("chi-curve", cfg)
    run_subcommand("landscape", cfg)
    assert len(list((tmp_path / "out" / ".cache").glob("*.json"))) == 2
    # readout reads the chi-curve entry of the same (device, window), and
    # the entry holds raw chi, whatever the emission clamp
    raw["readout"] = {"t_max_ns": 200.0, "chi_clamp_mhz": 20.0}
    diagnostics.reset_eigensolve_count()
    run_subcommand("readout", config_from_dict(raw))
    assert diagnostics.eigensolve_count() == 0


def _bogus_spectrum(cfg, version, out):
    """A cache entry under the current `spectrum` key holding energies of
    100, 101, ... GHz, written as the given schema version."""
    key = {"op": "spectrum", "f": cfg.flux, "device": cfg.raw["device"]}
    value = [100.0 + k for k in range(cfg.dims.dim)]
    path = entry_path(out / ".cache", key)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"schema_version": version, "key": key,
                                "value": value}), encoding="utf-8")


def test_cache_from_an_older_schema_is_recomputed(tmp_path):
    cfg_path, out = write_config(tmp_path)
    cfg = config_from_dict(base_config(out))
    _bogus_spectrum(cfg, CACHE_SCHEMA_VERSION - 1, out)
    assert main(["spectrum", "--config", str(cfg_path)]) == 0
    rows = read_csv(out / "spectrum.csv")
    want = fluxonium_spectrum(PARAMS, FluxBias(cfg.flux)).eigenvalues
    assert [float(r["energy_ghz"]) for r in rows] == \
        [units.to_ghz(w) for w in want]
    # the same entry under the current version is served as it stands
    _bogus_spectrum(cfg, CACHE_SCHEMA_VERSION, out)
    assert main(["spectrum", "--config", str(cfg_path)]) == 0
    assert float(read_csv(out / "spectrum.csv")[0]["energy_ghz"]) == 100.0


def test_warm_spectrum_is_byte_identical_to_cold(tmp_path):
    cfg_path, out = write_config(tmp_path)
    assert main(["spectrum", "--config", str(cfg_path)]) == 0
    cold = (out / "spectrum.csv").read_bytes()
    assert len(list((out / ".cache").glob("*.json"))) == 1
    (out / "spectrum.csv").unlink()
    diagnostics.reset_eigensolve_count()
    assert main(["spectrum", "--config", str(cfg_path)]) == 0
    assert diagnostics.eigensolve_count() == 0
    assert (out / "spectrum.csv").read_bytes() == cold


def test_no_cache_flag_bypasses_cache(tmp_path):
    raw = base_config(tmp_path / "out")
    raw["chi_curve"] = {"f_min": 0.49, "f_max": 0.51, "step": 1e-3}
    cfg_path, out = write_config(tmp_path, raw)
    assert main(["chi-curve", "--config", str(cfg_path), "--no-cache"]) == 0
    assert not (out / ".cache").exists()


def test_landscape_matches_library_calls(tmp_path):
    cfg_path, out = write_config(tmp_path)
    assert main(["landscape", "--config", str(cfg_path)]) == 0
    rows = read_csv(out / "landscape_chi.csv")
    assert len(rows) == 6
    for row in rows:
        params = EnergyParams(units.ghz(float(row["e_j_ghz"])),
                              PARAMS.e_c, PARAMS.e_l)
        chi = dispersive_shift(params, FluxBias(float(row["f"])), RES)
        assert float(row["value"]) == pytest.approx(units.to_mhz(chi), rel=1e-9)
        assert row["unit"] == "MHz" and row["status"] == "ok"
    wq_rows = read_csv(out / "landscape_omega_q.csv")
    assert all(r["unit"] == "GHz" for r in wq_rows)
    assert (out / "landscape_delta_31.csv").is_file()


def test_anticrossing_subcommand(tmp_path):
    raw = base_config(tmp_path / "out")
    raw["device"]["coupling_mode"] = "charge"
    cfg_path, out = write_config(tmp_path, raw)
    assert main(["anticrossing", "--config", str(cfg_path)]) == 0
    (row,) = read_csv(out / "anticrossing.csv")
    want = find_anticrossing(PARAMS, RES, CouplingMode.CHARGE, CoupledDims())
    assert float(row["f_star"]) == pytest.approx(want.f_star, abs=1e-5)
    assert float(row["g_ij_mhz"]) == pytest.approx(units.to_mhz(want.g_ij), rel=1e-6)
    assert float(row["t_swap_ns"]) == pytest.approx(want.t_swap, rel=1e-6)
    assert float(row["gap_mhz"]) == pytest.approx(2.0 * float(row["g_ij_mhz"]),
                                                  rel=1e-9)


def test_readout_pulsed_beats_static(tmp_path):
    cfg_path, out = write_config(tmp_path)
    assert main(["readout", "--config", str(cfg_path)]) == 0
    pulsed = read_csv(out / "readout_pulsed.csv")
    static = read_csv(out / "readout_static.csv")
    assert float(pulsed[-1]["snr"]) > float(static[-1]["snr"])
    assert float(pulsed[-1]["error"]) < float(static[-1]["error"])
    assert float(pulsed[0]["tau_ns"]) == 0.0
    manifest = json.loads((out / "manifest.json").read_text())
    names = [r["name"] for r in manifest["files"]]
    assert "readout_pulsed.csv" in names and "readout_static.csv" in names


def test_noise_readout_and_seed_override(tmp_path):
    cfg_path, out = write_config(tmp_path)
    assert main(["noise-readout", "--config", str(cfg_path)]) == 0
    rows = read_csv(out / "noise_readout_snr.csv")
    assert rows[0]["n_effective"] == "4"
    assert rows[0]["seed"] == "1234"
    assert (out / "noise_readout_error.csv").is_file()
    assert main(["noise-readout", "--config", str(cfg_path), "--seed", "99",
                 "--out", str(tmp_path / "out99")]) == 0
    rows99 = read_csv(tmp_path / "out99" / "noise_readout_snr.csv")
    assert rows99[0]["seed"] == "99"
    assert rows99[1]["mean"] != rows[1]["mean"]  # different draws


def test_worker_count_does_not_change_bytes(tmp_path):
    raw1 = base_config(tmp_path / "o1")
    raw1["chi_curve"] = {"f_min": 0.48, "f_max": 0.52, "step": 1e-3}
    cfg1, out1 = write_config(tmp_path, raw1, name="c1.json")
    raw2 = dict(raw1, out_dir=str(tmp_path / "o2"))
    cfg2, out2 = write_config(tmp_path, raw2, name="c2.json")
    assert main(["chi-curve", "--config", str(cfg1), "--workers", "1"]) == 0
    assert main(["chi-curve", "--config", str(cfg2), "--workers", "3"]) == 0
    assert (out1 / "chi_curve.csv").read_bytes() == \
        (out2 / "chi_curve.csv").read_bytes()


def test_landscape_worker_count_does_not_change_bytes(tmp_path):
    outputs = []
    for workers in (1, 3):
        raw = base_config(tmp_path / f"o{workers}")
        cfg, out = write_config(tmp_path, raw, name=f"l{workers}.json")
        assert main(["landscape", "--config", str(cfg),
                     "--workers", str(workers)]) == 0
        outputs.append({p.name: p.read_bytes()
                        for p in out.glob("landscape_*.csv")})
    assert len(outputs[0]) == 8 and outputs[0] == outputs[1]


def test_exit_code_config_errors(tmp_path, capsys):
    assert main(["spectrum", "--config", str(tmp_path / "missing.json")]) == 2
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"]["category"] == "config"
    raw = base_config(tmp_path / "out")
    raw["bogus"] = 1
    cfg_path, out = write_config(tmp_path, raw)
    assert main(["spectrum", "--config", str(cfg_path),
                 "--out", str(out)]) == 2
    err = json.loads((out / "error.json").read_text())
    assert "bogus" in err["error"]["message"]


def test_exit_code_numerical_error(tmp_path, capsys):
    raw = base_config(tmp_path / "out")
    # chi profile window too narrow for the readout ramp
    raw["chi_curve"] = {"f_min": 0.48, "f_max": 0.52, "step": 1e-3}
    cfg_path, out = write_config(tmp_path, raw)
    assert main(["readout", "--config", str(cfg_path)]) == 3
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"]["category"] == "numerical"
    assert record["error"]["type"] == "DomainError"


def test_anticrossing_level_beyond_kept_levels_is_a_config_error(tmp_path,
                                                                 capsys):
    raw = base_config(tmp_path / "out")
    raw["device"]["levels_kept"] = 4
    raw["anticrossing"] = {"level_i": 4}
    cfg_path, out = write_config(tmp_path, raw)
    assert main(["anticrossing", "--config", str(cfg_path),
                 "--out", str(out)]) == 2
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"]["category"] == "config"
    assert "anticrossing.level_i" in record["error"]["message"]
    assert (out / "error.json").is_file()


def test_landscape_with_too_few_kept_levels_is_a_numerical_error(tmp_path,
                                                                 capsys):
    # the landscape transitions reach qubit level 3
    raw = base_config(tmp_path / "out")
    raw["device"]["levels_kept"] = 3
    raw["anticrossing"] = {"level_i": 2, "level_j": 1}
    cfg_path, out = write_config(tmp_path, raw)
    assert main(["landscape", "--config", str(cfg_path),
                 "--out", str(out)]) == 3
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"]["type"] == "InvalidDimensionError"
    err = json.loads((out / "error.json").read_text())
    assert err["error"]["category"] == "numerical"


@pytest.mark.slow
def test_gates_subcommand_optimizes_pulse(tmp_path):
    raw = base_config(tmp_path / "out")
    raw["gate"] = {"tau_g_ns_list": [10.0]}
    cfg_path, out = write_config(tmp_path, raw)
    assert main(["gates", "--config", str(cfg_path)]) == 0
    (row,) = read_csv(out / "gates.csv")
    assert float(row["tau_g_ns"]) == 10.0
    assert float(row["error"]) < 1e-6
    assert float(row["eps_d"]) == pytest.approx(1.557152, rel=1e-3)
    assert 0.0 <= float(row["leakage"]) < 1e-4


def test_noise_gates_subcommand(tmp_path, monkeypatch):
    # reuse a frozen optimized pulse so the CLI path is exercised without
    # re-running the optimizer
    from fluxsim.gates import PulseParams, build_gate_space
    import fluxsim.cli as cli
    space = build_gate_space(PARAMS, FluxBias(0.5), RES)
    pulse = PulseParams(10.0, 1.557152, 4.7745, space.omega_01)
    monkeypatch.setattr(cli, "_optimized_pulses",
                        lambda cfg: [(pulse, None)])
    raw = base_config(tmp_path / "out")
    raw["gate"] = {"tau_g_ns_list": [10.0]}
    cfg_path, out = write_config(tmp_path, raw)
    assert main(["noise-gates", "--config", str(cfg_path)]) == 0
    (row,) = read_csv(out / "noise_gates.csv")
    assert float(row["axis_value"]) == 10.0
    assert row["n_effective"] == "4"
    assert 0.0 <= float(row["mean"]) < 0.1

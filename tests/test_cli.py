"""End-to-end tests for the simulate command-line driver."""

import csv
import hashlib
import importlib.util
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from fluxsim import BLAS_THREAD_VARS, cache, diagnostics, qubit, units
from fluxsim.cache import NUMERICS_TAG, entry_path
from fluxsim.cli import SUBCOMMANDS, build_parser, main, run_subcommand
from fluxsim.config import config_from_dict
from fluxsim.coupled import (
    CoupledDims,
    CouplingMode,
    ResonatorParams,
    chi_grid,
    compute_landscapes,
    dispersive_shift,
    find_anticrossing,
    sweep_dressed,
)
from fluxsim.errors import NumericalFailureError
from fluxsim.qubit import EnergyParams, FluxBias, fluxonium_spectrum
from fluxsim.readout import ChiProfile

from conftest import STATIC, flat_profile, readout_batch

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


def _stats(out):
    """(inode, mtime in ns, bytes) of every CSV and of manifest.json."""
    return {p.name: (p.stat().st_ino, p.stat().st_mtime_ns, p.read_bytes())
            for p in [*out.glob("*.csv"), out / "manifest.json"]}


def test_identical_rerun_leaves_every_output_untouched(tmp_path):
    cfg_path, out = write_config(tmp_path)
    subs = ("spectrum", "chi-curve", "landscape", "readout")
    for sub in subs:
        assert main([sub, "--config", str(cfg_path)]) == 0
    before = _stats(out)
    # spectrum, chi_curve, 8 landscapes, 2 readouts and the manifest
    assert len(before) == 13
    for sub in subs:
        assert main([sub, "--config", str(cfg_path), "--workers", "1"]) == 0
    assert _stats(out) == before
    assert not list(out.glob("*.tmp.*"))


def _edit_last_digit(path):
    data = bytearray(path.read_bytes())
    data[-2] = ord("1") if data[-2] != ord("1") else ord("2")
    path.write_bytes(bytes(data))


@pytest.mark.parametrize("change", ["config", "edited", "truncated"])
def test_changed_output_is_rewritten_and_the_manifest_follows(tmp_path,
                                                              change):
    raw = base_config(tmp_path / "out")
    cfg_path, out = write_config(tmp_path, raw)
    assert main(["spectrum", "--config", str(cfg_path)]) == 0
    csv_path = out / "spectrum.csv"
    old = csv_path.read_bytes()
    if change == "config":
        raw["flux"] = 0.6
        write_config(tmp_path, raw)
    elif change == "edited":
        _edit_last_digit(csv_path)
        assert len(csv_path.read_bytes()) == len(old)
    else:
        csv_path.write_bytes(old[:len(old) // 2])
    inode = csv_path.stat().st_ino
    assert main(["spectrum", "--config", str(cfg_path)]) == 0
    data = csv_path.read_bytes()
    assert csv_path.stat().st_ino != inode
    assert (data == old) == (change != "config")
    (rec,) = json.loads((out / "manifest.json").read_text())["files"]
    assert rec["sha256"] == hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("files", [[{"schema": "x"}], "oops",
                                   [{"name": "a.csv", "schema": "x",
                                     "sha256": 5}], None])
def test_malformed_previous_manifest_is_treated_as_absent(tmp_path, files):
    cfg_path, out = write_config(tmp_path)
    assert main(["spectrum", "--config", str(cfg_path)]) == 0
    manifest = out / "manifest.json"
    if files is None:
        manifest.write_text("{not json", encoding="utf-8")
    else:
        doc = json.loads(manifest.read_text())
        manifest.write_text(json.dumps({**doc, "files": files}))
    assert main(["spectrum", "--config", str(cfg_path)]) == 0
    (rec,) = json.loads(manifest.read_text())["files"]
    assert rec == {"name": "spectrum.csv", "schema": "spectrum",
                   "sha256": hashlib.sha256(
                       (out / "spectrum.csv").read_bytes()).hexdigest()}


def test_failed_write_exits_4_and_leaves_no_temp_file(tmp_path, capsys):
    cfg_path, out = write_config(tmp_path)
    (out / "spectrum.csv").mkdir(parents=True)  # a directory in the way
    assert main(["spectrum", "--config", str(cfg_path),
                 "--out", str(out)]) == 4
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"]["category"] == "io"
    assert json.loads((out / "error.json").read_text()) == record
    assert not list(out.glob("*.tmp.*"))


def test_warm_cache_skips_eigensolves(tmp_path):
    raw = base_config(tmp_path / "out")
    raw["chi_curve"] = {"f_min": 0.49, "f_max": 0.51, "step": 1e-3}
    cfg = config_from_dict(raw)
    run_subcommand("chi-curve", cfg)
    before = diagnostics.eigensolve_count()
    run_subcommand("chi-curve", cfg)
    assert diagnostics.eigensolve_count() - before == 0


def test_one_cache_entry_per_sweep(tmp_path):
    raw = base_config(tmp_path / "out")
    cfg = config_from_dict(raw)
    run_subcommand("chi-curve", cfg)
    run_subcommand("landscape", cfg)
    assert len(list((tmp_path / "out" / ".cache").glob("*.json"))) == 2
    # readout reads the chi-curve entry of the same (device, window), and
    # the entry holds raw chi, whatever the emission clamp
    raw["readout"] = {"t_max_ns": 200.0, "chi_clamp_mhz": 20.0}
    before = diagnostics.eigensolve_count()
    run_subcommand("readout", config_from_dict(raw))
    assert diagnostics.eigensolve_count() - before == 0


def _forged_chi_curve(cfg, out, **fields):
    """A cache entry under the current `chi-curve` key holding chi = 1 MHz
    at every grid point, tagged as this code tags it unless fields replace
    the tag (or add other fields); returns its path."""
    cc = cfg.raw["chi_curve"]
    key = {"op": "chi-curve", **cc, "device": cfg.raw["device"]}
    value = {"chi": [units.mhz(1.0)] * len(chi_grid(**cc))}
    path = entry_path(out / ".cache", key)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"numerics": NUMERICS_TAG, **fields,
                                "key": key, "value": value}),
                    encoding="utf-8")
    return path


def _small_chi_window(tmp_path):
    raw = base_config(tmp_path / "out")
    raw["chi_curve"] = {"f_min": 0.49, "f_max": 0.51, "step": 1e-3}
    cfg_path, out = write_config(tmp_path, raw)
    return cfg_path, out, config_from_dict(raw)


def _chi_mhz(out):
    return [float(r["chi_mhz"]) for r in read_csv(out / "chi_curve.csv")]


def _library_chi_mhz(cfg):
    cc = cfg.raw["chi_curve"]
    chi = sweep_dressed(PARAMS, chi_grid(**cc), RES).chi()
    return units.to_mhz(chi).tolist()


def _assert_chi_curve_recomputed(cfg_path, out, cfg, label):
    before = diagnostics.eigensolve_count()
    assert main(["chi-curve", "--config", str(cfg_path)]) == 0, label
    assert diagnostics.eigensolve_count() - before > 0, label
    assert _chi_mhz(out) == _library_chi_mhz(cfg), label


def test_cache_from_an_older_schema_is_recomputed(tmp_path):
    # an entry in the layout of the code before the source-digest tag (a
    # schema version, and that code's tag) is a plain miss: recomputed and
    # overwritten, never quarantined
    cfg_path, out, cfg = _small_chi_window(tmp_path)
    path = _forged_chi_curve(cfg, out, schema_version=5, numerics="1" * 64)
    _assert_chi_curve_recomputed(cfg_path, out, cfg, "older schema")
    entry = json.loads(path.read_text(encoding="utf-8"))
    assert sorted(entry) == ["key", "numerics", "value"]
    assert entry["numerics"] == NUMERICS_TAG
    assert not list(path.parent.glob("*.corrupt"))
    # the same entry as this code writes it is served as it stands
    _forged_chi_curve(cfg, out)
    assert main(["chi-curve", "--config", str(cfg_path)]) == 0
    assert set(_chi_mhz(out)) == {units.to_mhz(units.mhz(1.0))}


PACKAGE = Path(cache.__file__).parent
PACKAGE_MODULES = sorted(path.name for path in PACKAGE.glob("*.py"))


def _edited_package(tmp_path, name, edit):
    """A copy of the package, as tmp_path/edited_<name>/fluxsim, whose
    module `name` holds edit(its source)."""
    package = tmp_path / f"edited_{name}" / "fluxsim"
    shutil.copytree(PACKAGE, package,
                    ignore=shutil.ignore_patterns("__pycache__"))
    path = package / name
    path.write_text(edit(path.read_text(encoding="utf-8")), encoding="utf-8")
    return package


def _numerics_tag_after_edit(tmp_path, name):
    """NUMERICS_TAG of a copy of the package whose `name` has one more line."""
    package = _edited_package(tmp_path, name,
                              lambda source: source + "# edited\n")
    spec = importlib.util.spec_from_file_location(f"edited_cache_{name}",
                                                  package / "cache.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.NUMERICS_TAG


def test_cache_from_other_numerics_code_is_recomputed(tmp_path):
    # an entry written by code whose source differs from this one's, or
    # with no tag at all, is a miss and is recomputed
    cfg_path, out, cfg = _small_chi_window(tmp_path)
    path = _forged_chi_curve(cfg, out, numerics="0" * 64)
    _assert_chi_curve_recomputed(cfg_path, out, cfg, "other")
    entry = json.loads(path.read_text(encoding="utf-8"))
    del entry["numerics"]
    path.write_text(json.dumps(entry), encoding="utf-8")
    _assert_chi_curve_recomputed(cfg_path, out, cfg, "untagged")


@pytest.mark.parametrize("name", PACKAGE_MODULES)
def test_an_edit_to_any_module_is_a_cache_miss(tmp_path, name):
    # the tag digests every module: the numerics, the units, what the CLI
    # caches and the entry layout all lie somewhere in the package
    tag = _numerics_tag_after_edit(tmp_path, name)
    assert tag != NUMERICS_TAG
    cfg_path, out, cfg = _small_chi_window(tmp_path)
    _forged_chi_curve(cfg, out, numerics=tag)
    _assert_chi_curve_recomputed(cfg_path, out, cfg, name)


def test_an_edit_to_cli_recomputes_a_warm_chi_curve(tmp_path):
    # a copy of the package whose CLI solves chi with fewer kept levels and
    # photon states, run on the cache this code filled, must not be served
    # this code's chi
    cfg_path, out, _ = _small_chi_window(tmp_path)
    assert main(["chi-curve", "--config", str(cfg_path)]) == 0
    original = (out / "chi_curve.csv").read_bytes()
    package = _edited_package(tmp_path, "cli.py", lambda source: source.replace(
        "cfg.mode, cfg.dims).chi()",
        "cfg.mode, type(cfg.dims)(kept=4, n_res=4)).chi()"))

    def edited_chi_curve(*flags):
        subprocess.run([sys.executable, "-m", "fluxsim.cli", "chi-curve",
                        "--config", str(cfg_path), *flags],
                       env={**os.environ, "PYTHONPATH": str(package.parent)},
                       check=True)
        return (out / "chi_curve.csv").read_bytes()

    warm = edited_chi_curve()
    assert warm != original
    assert warm == edited_chi_curve("--no-cache")


PINNED = dict.fromkeys(BLAS_THREAD_VARS, "1")


@pytest.mark.parametrize("code, env, want", [
    ("import fluxsim.cli", {}, PINNED),
    ("import fluxsim.cli", {"OPENBLAS_NUM_THREADS": "3"},
     {**PINNED, "OPENBLAS_NUM_THREADS": "3"}),
    ("import numpy\nimport fluxsim.cli", {},
     dict.fromkeys(BLAS_THREAD_VARS)),
], ids=["unset", "user-set", "numpy-first"])
def test_cli_import_pins_blas_threads_before_numpy(code, env, want):
    # a fresh process started with only env of the BLAS variables set
    run_env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    run_env.update(env, PYTHONPATH=str(Path(qubit.__file__).parent.parent))
    script = (f"{code}\nimport json, os\n"
              f"print(json.dumps({{v: os.environ.get(v) "
              f"for v in {BLAS_THREAD_VARS!r}}}))")
    done = subprocess.run([sys.executable, "-c", script], env=run_env,
                          capture_output=True, text=True, check=True)
    assert json.loads(done.stdout) == want


def test_cli_import_leaves_scipy_optimize_to_the_anticrossing(tmp_path):
    # a fresh process with the BLAS variables unset, as a user starts the
    # CLI: importing it loads no scipy module; the anticrossing search
    # loads scipy.optimize, and the readout error curve scipy.special,
    # when they run
    run_env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    run_env["PYTHONPATH"] = str(Path(qubit.__file__).parent.parent)

    def scipy_after(statement):
        done = subprocess.run(
            [sys.executable, "-c",
             f"import sys, fluxsim.cli; {statement}; print(sorted("
             "m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
            env=run_env, capture_output=True, text=True, check=True)
        return done.stdout.strip()

    assert scipy_after("pass") == "[]"
    cfg_path, out = write_config(tmp_path)
    done = subprocess.run([sys.executable, "-m", "fluxsim.cli", "anticrossing",
                           "--config", str(cfg_path)], env=run_env)
    assert done.returncode == 0
    assert len(read_csv(out / "anticrossing.csv")) == 1
    loaded = scipy_after("assert fluxsim.cli.main(['readout', '--config', "
                         f"{str(cfg_path)!r}]) == 0")
    assert "'scipy.special'" in loaded and "'scipy.optimize'" not in loaded
    assert len(read_csv(out / "readout_pulsed.csv")) == 4001


def test_warm_chi_curve_is_byte_identical_to_cold(tmp_path):
    cfg_path, out, _ = _small_chi_window(tmp_path)
    assert main(["chi-curve", "--config", str(cfg_path)]) == 0
    cold = (out / "chi_curve.csv").read_bytes()
    assert len(list((out / ".cache").glob("*.json"))) == 1
    (out / "chi_curve.csv").unlink()
    before = diagnostics.eigensolve_count()
    assert main(["chi-curve", "--config", str(cfg_path)]) == 0
    assert diagnostics.eigensolve_count() - before == 0
    assert (out / "chi_curve.csv").read_bytes() == cold


def test_spectrum_writes_no_cache_entry(tmp_path):
    cfg_path, out = write_config(tmp_path)
    assert main(["spectrum", "--config", str(cfg_path)]) == 0
    assert not (out / ".cache").exists()
    rows = read_csv(out / "spectrum.csv")
    want, _ = fluxonium_spectrum(PARAMS, FluxBias(0.5))
    assert [float(r["energy_ghz"]) for r in rows] == units.to_ghz(want).tolist()


def test_readout_chi_profile_is_the_library_profile(tmp_path, monkeypatch):
    import fluxsim.cli as cli

    profiles = []
    rows = cli.ramp_rows

    def record(ramps, profile, readout):
        profiles.append(profile)
        return rows(ramps, profile, readout)

    monkeypatch.setattr(cli, "ramp_rows", record)
    raw = base_config(tmp_path / "out")
    raw["readout"]["chi_clamp_mhz"] = 1.0  # some points are clamped
    cfg = config_from_dict(raw)
    for _ in ("cold", "warm"):
        run_subcommand("readout", cfg)
    grid = chi_grid(**raw["chi_curve"])
    want = ChiProfile(grid, sweep_dressed(PARAMS, grid, RES).chi(),
                      units.mhz(1.0))
    assert len(profiles) == 2
    for profile in profiles:
        assert profile.flux_grid.tobytes() == want.flux_grid.tobytes()
        assert profile.chi_values.tobytes() == want.chi_values.tobytes()
        assert profile.clamp == want.clamp


def test_entirely_resonant_chi_window_is_a_numerical_error(tmp_path, capsys,
                                                           monkeypatch):
    import fluxsim.cli as cli

    def resonant_sweep(params, f_values, *args):
        return SimpleNamespace(chi=lambda: np.full(len(f_values), math.nan))

    monkeypatch.setattr(cli, "sweep_dressed", resonant_sweep)
    cfg = config_from_dict(base_config(tmp_path / "out"))
    with pytest.raises(NumericalFailureError, match="entirely resonant"):
        ChiProfile(*cli._chi_values(cfg, None), cfg.chi_clamp)
    cfg_path, out = write_config(tmp_path)
    # the cold run fills the cache with the resonant window, the warm run
    # reads it back
    for sub in ("readout", "noise-readout"):
        assert main([sub, "--config", str(cfg_path)]) == 3
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"]["type"] == "NumericalFailureError"
        assert "entirely resonant" in record["error"]["message"]
    assert len(list((out / ".cache").glob("*.json"))) == 1
    assert not (out / "readout_pulsed.csv").exists()


def test_failed_eigensolve_exits_3_with_a_numerical_record(tmp_path, capsys,
                                                          monkeypatch):
    def failing_eigh(h, *args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    cfg_path, out = write_config(tmp_path)
    qubit._flux_affine_parts(PARAMS.e_c, PARAMS.e_l, qubit.DEFAULT_DIM)
    monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
    for sub in ("spectrum", "chi-curve"):
        assert main([sub, "--config", str(cfg_path)]) == 3
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"]["category"] == "numerical"
        assert record["error"]["type"] == "NumericalFailureError"
        assert "eigensolve failed" in record["error"]["message"]
    assert not list(out.glob("*.csv"))
    assert not list(out.glob(".cache/*.json"))


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_an_overflowing_zero_point_phase_exits_3(tmp_path, capsys):
    # E_C and E_L within their bounds, but 8 E_C / E_L overflows: phi0 is
    # inf, the Hamiltonian NaN, and no eigenvalue finite
    raw = base_config(tmp_path / "out")
    raw["device"] = {**raw["device"], "e_c_ghz": 1e300, "e_l_ghz": 1e-9}
    cfg_path, out = write_config(tmp_path, raw)
    for sub in ("spectrum", "chi-curve", "landscape"):
        assert main([sub, "--config", str(cfg_path)]) == 3, sub
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"]["category"] == "numerical", sub
        assert record["error"]["type"] == "NumericalFailureError", sub
        assert "not finite" in record["error"]["message"], sub
    assert not list(out.glob("*.csv"))


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


def test_landscape_csvs_are_the_raw_values(tmp_path):
    # every cell is the computed value in its unit, nan where resonant: on
    # the default sweep delta_10 falls to -5.95 GHz at f = 0.5
    raw = base_config(tmp_path / "out")
    del raw["sweep"]
    cfg_path, out = write_config(tmp_path, raw)
    assert main(["landscape", "--config", str(cfg_path)]) == 0
    cfg = config_from_dict(raw)
    sweep = cfg.raw["sweep"]
    e_j_axis = np.linspace(sweep["e_j_min_ghz"], sweep["e_j_max_ghz"],
                           sweep["n_e_j"])
    f_axis = np.linspace(sweep["f_min"], sweep["f_max"], sweep["n_f"])
    grids = compute_landscapes(units.ghz(e_j_axis), f_axis, cfg.params.e_c,
                               cfg.params.e_l, cfg.resonator, cfg.mode,
                               cfg.dims)
    for kind, values in grids.items():
        unit, conv = ("MHz", units.to_mhz) if kind == "chi" else (
            "GHz", units.to_ghz)
        rows = read_csv(out / f"landscape_{kind}.csv")
        got = np.array([float(row["value"]) for row in rows])
        want = conv(values.ravel())
        assert np.array_equal(got, want, equal_nan=True), kind
        assert [row["status"] for row in rows] == [
            "resonant" if math.isnan(v) else "ok" for v in want], kind
        assert {row["unit"] for row in rows} == {unit}, kind
    delta_10 = [float(row["value"])
                for row in read_csv(out / "landscape_delta_10.csv")
                if row["status"] == "ok"]
    assert min(delta_10) < -5.0


def test_chi_curve_writes_chi_as_computed(tmp_path):
    # a resonant (NaN) point is written nan,resonant and a point beyond the
    # readout profile's clamp (50 MHz) as it is
    cfg_path, out, cfg = _small_chi_window(tmp_path)
    path = _forged_chi_curve(cfg, out)
    entry = json.loads(path.read_text(encoding="utf-8"))
    entry["value"]["chi"][3] = None
    entry["value"]["chi"][5] = units.mhz(80.0)
    path.write_text(json.dumps(entry), encoding="utf-8")
    assert main(["chi-curve", "--config", str(cfg_path)]) == 0
    rows = (out / "chi_curve.csv").read_text(encoding="utf-8").splitlines()
    assert rows[1 + 3].endswith(",nan,resonant")
    _, chi, status = rows[1 + 5].split(",")
    assert float(chi) == units.to_mhz(units.mhz(80.0)) and status == "ok"
    assert all(row.endswith(",1.0,ok")
               for k, row in enumerate(rows[1:]) if k not in (3, 5))


def test_anticrossing_subcommand(tmp_path):
    raw = base_config(tmp_path / "out")
    raw["device"]["coupling_mode"] = "charge"
    cfg_path, out = write_config(tmp_path, raw)
    assert main(["anticrossing", "--config", str(cfg_path)]) == 0
    (row,) = read_csv(out / "anticrossing.csv")
    want = find_anticrossing(PARAMS, RES, CouplingMode.CHARGE, CoupledDims(),
                             transition=(3, 1), window=(0.55, 0.60))
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


def test_command_line_overrides_are_not_listed_as_defaults(tmp_path):
    # a config that sets none of seed, noise.seed and out_dir
    raw = base_config(tmp_path / "unused")
    del raw["out_dir"], raw["noise"]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw), encoding="utf-8")
    out = tmp_path / "out7"
    assert main(["spectrum", "--config", str(cfg_path), "--seed", "7",
                 "--out", str(out)]) == 0
    overridden = json.loads((out / "manifest.json").read_text())
    listed = {entry.split("=")[0] for entry in overridden["defaults_used"]}
    assert listed.isdisjoint({"seed", "noise.seed", "out_dir"}), listed
    assert "noise.scale" in listed and overridden["seed"] == 7
    # the same run from a config that sets all three
    explicit = dict(raw, seed=7, noise={"seed": 7}, out_dir=str(out))
    cfg_path, _ = write_config(tmp_path, explicit, name="explicit.json")
    assert main(["spectrum", "--config", str(cfg_path)]) == 0
    assert json.loads((out / "manifest.json").read_text()) == overridden


@pytest.mark.parametrize("noise, seed, key", [({}, "-1", "seed"),
                                               (5, "3", "noise")])
def test_bad_override_or_section_exits_2(tmp_path, capsys, noise, seed, key):
    raw = dict(base_config(tmp_path / "out"), noise=noise)
    cfg_path, out = write_config(tmp_path, raw)
    assert main(["spectrum", "--config", str(cfg_path), "--seed", seed]) == 2
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"]["category"] == "config"
    assert key in record["error"]["message"]
    assert not out.exists()


def test_runs_in_one_process_parse_their_options_independently(tmp_path):
    cfg_path, default_out = write_config(tmp_path)
    runs = [(["--seed", "7", "--out", str(tmp_path / "a")], tmp_path / "a", 7),
            (["--seed", "9", "--out", str(tmp_path / "b")], tmp_path / "b", 9),
            ([], default_out, 1234)]
    for flags, out, seed in runs:
        assert main(["spectrum", "--config", str(cfg_path), *flags]) == 0
        assert json.loads((out / "manifest.json").read_text())["seed"] == seed
    assert build_parser() is build_parser()


def test_each_run_validates_its_config_once(tmp_path, monkeypatch):
    import fluxsim.cli as cli
    import fluxsim.config as config

    calls = []

    def counted(raw):
        calls.append(raw)
        return config_from_dict(raw)

    for module in (cli, config):
        monkeypatch.setattr(module, "config_from_dict", counted)
    cfg_path, _ = write_config(tmp_path)
    for flags in ([], ["--seed", "7"], ["--out", str(tmp_path / "o")]):
        calls.clear()
        assert main(["spectrum", "--config", str(cfg_path), *flags]) == 0
        assert len(calls) == 1, flags


def test_manifest_records_the_seed_of_the_draws(tmp_path):
    raw = base_config(tmp_path / "out")
    raw["noise"]["seed"] = 5
    cfg_path, out = write_config(tmp_path, raw)
    assert main(["noise-readout", "--config", str(cfg_path)]) == 0
    assert {row["seed"] for row in read_csv(out / "noise_readout_snr.csv")} \
        == {"5"}
    assert json.loads((out / "manifest.json").read_text())["seed"] == 5


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


def test_parser_takes_every_subcommand_with_the_same_options():
    for name in SUBCOMMANDS:
        args = build_parser().parse_args([name, "--config", "c.json"])
        assert (args.subcommand, args.config, args.seed, args.out,
                args.no_cache) == (name, "c.json", None, None, False)
        args = build_parser().parse_args([
            name, "--config", "c.json", "--seed", "3", "--out", "o",
            "--workers", "1", "--no-cache"])
        assert (args.subcommand, args.seed, args.out, args.no_cache) == \
            (name, 3, "o", True)


@pytest.mark.parametrize("argv", [
    ["bogus", "--config", "c.json"],
    ["spectrum"],
    [],
    ["spectrum", "--config", "c.json", "--workers", "two"],
])
def test_bad_command_line_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "usage: simulate" in capsys.readouterr().err


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


@pytest.mark.parametrize("text", [b'{"device": {"e_j_ghz": 4.75\xff}}',
                                  b"[" * 200_000 + b"]" * 200_000],
                         ids=["not-utf8", "deep"])
def test_undecodable_config_exits_2_with_a_config_record(tmp_path, capsys,
                                                         text):
    # a config error record and exit 2, not a traceback and exit 1
    cfg_path, out = tmp_path / "cfg.json", tmp_path / "out"
    cfg_path.write_bytes(text)
    assert main(["spectrum", "--config", str(cfg_path),
                 "--out", str(out)]) == 2
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"]["category"] == "config"
    assert record["error"]["message"].startswith("[malformed-json]")
    assert json.loads((out / "error.json").read_text()) == record


def test_readout_bytes_equal_a_static_run_and_a_one_row_ramp(tmp_path):
    # both CSVs are the CLI's one two-row batch, the ramp and the ramp held
    # at f_start; each row equals the ramp alone in a batch of one, and the
    # held row static readout at chi(f_start) on a flat profile
    import fluxsim.cli as cli
    from fluxsim.output import write_csv
    from fluxsim.readout import FluxRamp

    raw = base_config(tmp_path / "out")
    raw["readout"]["eta"] = 0.5
    cfg = config_from_dict(raw)
    run_subcommand("readout", cfg)
    profile = ChiProfile(*cli._chi_values(cfg, None), cfg.chi_clamp)
    f_start = cfg.ramp.f_start
    pulsed, static = readout_batch(
        [cfg.ramp, FluxRamp(f_start, f_start, 0.0)], profile, cfg.readout)
    (alone,) = readout_batch([cfg.ramp], profile, cfg.readout)
    (flat,) = readout_batch([STATIC], flat_profile(profile.chi_at(f_start)),
                            cfg.readout)
    for got, want in ((pulsed, alone), (static, flat)):
        for name, value in vars(want).items():
            assert np.array_equal(getattr(got, name), value), name
    want_dir = tmp_path / "want"
    want_dir.mkdir()
    for name, traj in (("readout_pulsed.csv", pulsed),
                       ("readout_static.csv", static)):
        # the sigma_z = -1 columns mirror the sigma_z = +1 record
        out_p = traj.alpha_out_plus
        want = write_csv(want_dir / name, cli.READOUT_HEADER, [
            traj.times, traj.snr, traj.error, traj.m_s_plus,
            0.0 - traj.m_s_plus, out_p.real, out_p.imag, out_p.real,
            0.0 - out_p.imag])
        assert (tmp_path / "out" / name).read_bytes() == want.read_bytes()


def test_each_readout_subcommand_integrates_one_batch(tmp_path, monkeypatch):
    from fluxsim import readout

    shapes = []
    kernel = readout.integrate_langevin

    def spy(chi_half, *args):
        shapes.append(chi_half.shape)
        return kernel(chi_half, *args)

    monkeypatch.setattr(readout, "integrate_langevin", spy)
    cfg = config_from_dict(base_config(tmp_path / "out"))
    n_half = 2 * int(round(cfg.readout.t_max / cfg.readout.dt)) + 1
    run_subcommand("readout", cfg)
    assert shapes == [(2, n_half)]  # pulsed and static rows
    shapes.clear()
    run_subcommand("noise-readout", cfg)
    assert shapes == [(cfg.noise.n_draws, n_half)]


def test_gate_step_count_over_the_cap_exits_before_any_work(tmp_path, capsys,
                                                           monkeypatch):
    import fluxsim.cli as cli

    def no_gate_work(*args, **kwargs):
        raise AssertionError("gate work started on a rejected config")

    # a regression must fail here, not allocate 3e8 steps of drive samples
    monkeypatch.setattr(cli, "build_gate_space", no_gate_work)
    monkeypatch.setattr(cli, "optimize_pulse", no_gate_work)
    raw = base_config(tmp_path / "out")
    raw["gate"] = {"dt_ns": 1e-7}
    cfg_path, out = write_config(tmp_path, raw)
    for sub in ("gates", "noise-gates"):
        assert main([sub, "--config", str(cfg_path)]) == 2
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"]["category"] == "config"
        assert "'gate.dt_ns' = 1e-07" in record["error"]["message"]
    assert not (out / "gates.csv").exists()
    assert not (out / "noise_gates.csv").exists()


def test_two_level_bare_truncation_exits_2_for_the_gates(tmp_path, capsys):
    # the DRAG anharmonicity reads bare level 2: dim 2 with two kept and two
    # gate levels was accepted, then raised IndexError and exited 1
    raw = base_config(tmp_path / "out")
    raw["device"].update(dim=2, levels_kept=2)
    raw["gate"] = {"tau_g_ns_list": [3.0], "levels_fluxonium": 2}
    raw["anticrossing"] = {"level_i": 1, "level_j": 0}
    cfg_path, out = write_config(tmp_path, raw)
    for sub in ("gates", "noise-gates"):
        assert main([sub, "--config", str(cfg_path)]) == 2
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"]["category"] == "config"
        assert "'device.dim' must be >= 3, got 2" in record["error"]["message"]
    assert not (out / "gates.csv").exists()
    assert not (out / "noise_gates.csv").exists()


def test_work_over_the_caps_exits_before_any_work(tmp_path, capsys,
                                                  monkeypatch):
    import fluxsim.cli as cli

    def no_work(*args, **kwargs):
        raise AssertionError("work started on a rejected config")

    # a regression must fail here, not start 1e12 readout steps, 3e8 chi
    # points or 1e6 landscape cells
    for name in ("sweep_dressed", "compute_landscapes", "ramp_rows",
                 "readout_records", "noisy_readout_snr"):
        monkeypatch.setattr(cli, name, no_work)
    cases = [("readout", {"dt_ns": 1e-9}, "'readout.dt_ns' = 1e-09",
              ("readout", "noise-readout")),
             ("chi_curve", {"step": 1e-9}, "'chi_curve.step' = 1e-09",
              ("chi-curve", "readout")),
             ("sweep", {"n_f": 1_000_000}, "'sweep.n_f' = 1000000",
              ("landscape",))]
    for section, value, quoted, subs in cases:
        raw = base_config(tmp_path / "out")
        raw[section] = {**raw.get(section, {}), **value}
        cfg_path, out = write_config(tmp_path, raw)
        for sub in subs:
            assert main([sub, "--config", str(cfg_path)]) == 2
            record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
            assert record["error"]["category"] == "config"
            assert quoted in record["error"]["message"]
        assert not out.exists()


def test_exit_code_numerical_error(tmp_path, capsys):
    raw = base_config(tmp_path / "out")
    # chi profile window too narrow for the readout ramp
    raw["chi_curve"] = {"f_min": 0.48, "f_max": 0.52, "step": 1e-3}
    cfg_path, out = write_config(tmp_path, raw)
    assert main(["readout", "--config", str(cfg_path)]) == 3
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"]["category"] == "numerical"
    assert record["error"]["type"] == "DomainError"


def test_readout_step_beyond_the_rk4_bound_is_a_numerical_error(tmp_path,
                                                               capsys):
    # dt kappa/2 = 1.26 > 1 whatever chi is
    raw = base_config(tmp_path / "out")
    raw["chi_curve"] = {"f_min": 0.49, "f_max": 0.65, "step": 1e-2}
    raw["readout"] = {**raw["readout"], "kappa_mhz_over_2pi": 400.0,
                      "dt_ns": 1.0}
    cfg_path, out = write_config(tmp_path, raw)
    for sub in ("readout", "noise-readout"):
        assert main([sub, "--config", str(cfg_path)]) == 3
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"]["category"] == "numerical"
        assert record["error"]["type"] == "StepSizeError"
        assert "step" in record["error"]["message"]
    assert not list(out.glob("*readout*.csv"))


def test_numerical_failure_writes_error_json_to_the_config_out_dir(tmp_path,
                                                                   capsys):
    raw = base_config(tmp_path / "out")
    raw["chi_curve"] = {"f_min": 0.49, "f_max": 0.65, "step": 1e-2}
    raw["readout"] = {**raw["readout"], "kappa_mhz_over_2pi": 400.0,
                      "dt_ns": 1.0}
    cfg_path, out = write_config(tmp_path, raw)
    assert main(["readout", "--config", str(cfg_path)]) == 3
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"]["type"] == "StepSizeError"
    assert json.loads((out / "error.json").read_text()) == record


@pytest.mark.parametrize("section, values, key", [
    ("readout", {"ramp": 5}, "readout.ramp"),
    ("device", {"levels_kept": 50}, "device.levels_kept"),
    ("noise", {"n_draws": 10**6}, "noise.n_draws"),
    # finite values that overflow in use: a draw's offset (f is 1-periodic)
    # and E_J in rad/ns
    ("noise", {"scale": 1e308}, "noise.scale"),
    ("sweep", {"e_j_min_ghz": 1e308, "e_j_max_ghz": 1e308, "n_e_j": 1},
     "sweep.e_j_min_ghz"),
])
def test_bad_config_exits_2_before_any_work(tmp_path, capsys, section, values,
                                            key):
    raw = base_config(tmp_path / "out")
    raw[section] = {**raw.get(section, {}), **values}
    cfg_path, out = write_config(tmp_path, raw)
    assert main(["spectrum", "--config", str(cfg_path)]) == 2
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"]["category"] == "config"
    assert key in record["error"]["message"]
    assert not (out / "spectrum.csv").exists()


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


def test_degenerate_landscape_axis_is_a_config_error(tmp_path, capsys):
    raw = base_config(tmp_path / "out")
    raw["sweep"]["f_max"] = raw["sweep"]["f_min"]
    cfg_path, out = write_config(tmp_path, raw)
    assert main(["landscape", "--config", str(cfg_path),
                 "--out", str(out)]) == 2
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"]["category"] == "config"
    assert "sweep.f_max" in record["error"]["message"]
    assert not (out / "landscape_chi.csv").exists()


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
                        lambda cfg, cache_dir: [(pulse, None)])
    raw = base_config(tmp_path / "out")
    raw["gate"] = {"tau_g_ns_list": [10.0]}
    cfg_path, out = write_config(tmp_path, raw)
    assert main(["noise-gates", "--config", str(cfg_path)]) == 0
    (row,) = read_csv(out / "noise_gates.csv")
    assert float(row["axis_value"]) == 10.0
    assert row["n_effective"] == "4"
    assert 0.0 <= float(row["mean"]) < 0.1


def _gate_config(tmp_path, **gate):
    raw = base_config(tmp_path / "out")
    raw["gate"] = {"tau_g_ns_list": [3.0], **gate}
    raw["noise"] = {"scale": 1e-2, "n_draws": 2}
    return raw


def _counted_optimizer(monkeypatch, optimize=None):
    """Count the CLI's optimize_pulse calls (by gate time), passing each to
    optimize, by default the real optimiser; returns the list."""
    import fluxsim.cli as cli
    calls = []
    optimize = optimize or cli.optimize_pulse

    def counted(space, tau_g, **kwargs):
        calls.append(tau_g)
        return optimize(space, tau_g, **kwargs)

    monkeypatch.setattr(cli, "optimize_pulse", counted)
    return calls


@pytest.mark.slow
def test_noise_gates_after_gates_optimises_no_pulse(tmp_path, monkeypatch):
    cfg_path, out = write_config(tmp_path, _gate_config(tmp_path))
    calls = _counted_optimizer(monkeypatch)
    assert main(["gates", "--config", str(cfg_path)]) == 0
    assert calls == [3.0]
    # one entry per gate time
    assert len(list((out / ".cache").glob("*.json"))) == 1
    assert main(["noise-gates", "--config", str(cfg_path)]) == 0
    assert calls == [3.0]
    # the cached pulse gives the bytes of a run without the cache
    names = ("gates.csv", "noise_gates.csv")
    cached = {name: (out / name).read_bytes() for name in names}
    bare = tmp_path / "bare"
    for sub in ("gates", "noise-gates"):
        assert main([sub, "--config", str(cfg_path), "--no-cache",
                     "--out", str(bare)]) == 0
    assert calls == [3.0] * 3
    assert {name: (bare / name).read_bytes() for name in names} == cached


def test_changed_gate_step_or_flux_is_a_pulse_cache_miss(tmp_path,
                                                         monkeypatch):
    from fluxsim.gates import PulseParams

    def fake(space, tau_g, dt, seed=None):
        return (PulseParams(tau_g, 1.0, 4.0, space.omega_01),
                SimpleNamespace(fidelity=0.75, error=0.25, leakage=0.0))

    calls = _counted_optimizer(monkeypatch, fake)
    # (gate section changes, top-level changes, optimiser calls so far)
    cases = [({}, {}, 1), ({}, {}, 1), ({"dt_ns": 5e-4}, {}, 2), ({}, {}, 2),
             ({}, {"flux": 0.501}, 3)]
    for gate, top, n_calls in cases:
        raw = {**_gate_config(tmp_path, **gate), **top}
        cfg_path, out = write_config(tmp_path, raw)
        assert main(["gates", "--config", str(cfg_path)]) == 0
        assert len(calls) == n_calls, (gate, top)
        (row,) = read_csv(out / "gates.csv")
        assert (row["eps_d"], row["lambda"], row["error"]) == ("1.0", "4.0",
                                                               "0.25")
    assert len(list((out / ".cache").glob("*.json"))) == 3


def _seed_recording_optimizer(monkeypatch):
    """A stand-in optimiser whose pulse at tau_g has eps_d = 15 / tau_g and
    lambda = 4.7, or, given a seed, 1.1 times the seed's eps_d and its
    lambda plus 0.01, so that a pulse seeded from a seeded pulse shows;
    returns the list of (tau_g, seed) it was called with."""
    from fluxsim.gates import PulseParams
    calls = []

    def fake(space, tau_g, dt, seed=None):
        calls.append((tau_g, seed))
        eps_d, lam = ((15.0 / tau_g, 4.7) if seed is None
                      else (1.1 * seed[0], seed[1] + 0.01))
        return (PulseParams(tau_g, eps_d, lam, space.omega_01),
                SimpleNamespace(fidelity=0.75, error=0.25, leakage=0.0))

    _counted_optimizer(monkeypatch, fake)
    return calls


def test_longer_gates_are_seeded_from_the_smallest_whatever_the_order(
        tmp_path, monkeypatch):
    calls = _seed_recording_optimizer(monkeypatch)

    def gates(taus):
        raw = _gate_config(tmp_path, tau_g_ns_list=taus)
        cfg_path, out = write_config(tmp_path, raw)
        assert main(["gates", "--config", str(cfg_path)]) == 0
        return {row["tau_g_ns"]: row for row in read_csv(out / "gates.csv")}

    rows = gates([10.0, 20.0, 30.0])
    # the smallest gate time from the grid, the others from its pulse area
    assert calls == [(10.0, None), (20.0, (1.5 * 10.0 / 20.0, 4.7)),
                     (30.0, (1.5 * 10.0 / 30.0, 4.7))]
    # any order of the same gate times is served from the cache, row for row
    assert gates([30.0, 10.0, 20.0]) == rows
    assert len(calls) == 3
    # without 10 ns the 20 ns pulse is grid-optimised, and 30 ns is seeded
    # from it: neither reuses an entry written under [10, 20, 30]
    gates([20.0, 30.0])
    assert calls[3:] == [(20.0, None), (30.0, (0.75 * 20.0 / 30.0, 4.7))]
    assert len(list((tmp_path / "out" / ".cache").glob("*.json"))) == 5


def test_a_refinement_that_never_converges_exits_3(tmp_path, capsys,
                                                   monkeypatch):
    from fluxsim import gates

    def sloped(space, pulse, dt):
        # no minimum in lambda: the refinement stops at its bound
        return SimpleNamespace(error=0.5 - 1e-3 * pulse.lam, params=pulse)

    monkeypatch.setattr(gates, "evaluate_gate", sloped)
    cfg_path, out = write_config(tmp_path, _gate_config(tmp_path))
    assert main(["gates", "--config", str(cfg_path)]) == 3
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"]["type"] == "OptimizerConsistencyError"
    assert "did not converge" in record["error"]["message"]
    assert not (out / "gates.csv").exists()
    assert not list(out.glob(".cache/*.json"))


# the default gate times' pulses as each was grid-optimised on its own,
# before the longer ones were seeded from the 10 ns optimum and a
# delivering Newton step shrank the stencil: (eps_d, lambda, error)
GRID_PULSES = {10.0: (1.5571517878577037, 4.77456857250071,
                      4.147788446040579e-09),
               20.0: (0.7784336058952083, 4.765113241255266,
                      4.414946186415136e-11),
               30.0: (0.5189380477265512, 4.763477457659615, 0.0)}


@pytest.mark.slow
def test_seeded_pulses_stay_within_stated_bounds_of_the_grid_pulses(
        tmp_path, monkeypatch):
    # cold gates on the default gate times: 21 evaluations at 10 ns, 13 at
    # 20 and 30 ns; every error at most 1e-12 above the grid pulse's, eps_d
    # within 2e-7 relative and lambda within 6e-5, as README states
    from fluxsim import gates
    evaluate, taus = gates.evaluate_gate, []

    def counted(space, pulse, dt):
        taus.append(pulse.tau_g)
        return evaluate(space, pulse, dt)

    monkeypatch.setattr(gates, "evaluate_gate", counted)
    raw = base_config(tmp_path / "out")
    raw["gate"] = {}
    cfg_path, out = write_config(tmp_path, raw)
    assert main(["gates", "--config", str(cfg_path), "--no-cache"]) == 0
    assert [taus.count(tau) for tau in GRID_PULSES] == [21, 13, 13]
    rows = read_csv(out / "gates.csv")
    assert [float(row["tau_g_ns"]) for row in rows] == list(GRID_PULSES)
    for row in rows:
        eps_d, lam, error = GRID_PULSES[float(row["tau_g_ns"])]
        assert float(row["error"]) <= error + 1e-12, row
        assert abs(float(row["eps_d"]) - eps_d) <= 2e-7 * eps_d, row
        assert abs(float(row["lambda"]) - lam) <= 6e-5, row


def test_gate_space_with_poor_labels_exits_3(tmp_path, capsys, monkeypatch):
    from fluxsim import gates
    from fluxsim.coupled import MIN_ASSIGNMENT_QUALITY
    assign = gates.assign_dressed_levels

    def assign_poorly(vecs):
        index, quality = assign(vecs)
        return index, np.full_like(quality, 0.5 * MIN_ASSIGNMENT_QUALITY)

    monkeypatch.setattr(gates, "assign_dressed_levels", assign_poorly)
    calls = _counted_optimizer(monkeypatch)
    cfg_path, out = write_config(tmp_path, _gate_config(tmp_path))
    assert main(["gates", "--config", str(cfg_path)]) == 3
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"]["type"] == "ResonanceRegionError"
    # the space is refused where it is built, before any optimisation
    assert calls == []
    assert not (out / "gates.csv").exists()
    assert not list(out.glob(".cache/*.json"))

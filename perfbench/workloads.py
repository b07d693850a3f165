"""The three benchmark workloads.

Each workload derives its inputs from the seed, sets up (repeatably, so the
set-up time can be reported as a median), and runs rounds. `round` runs the
same program operations every time and times them; `check` then tests their
outputs against `reference` and against properties that must hold, outside
the timed and traced region. The CLI is driven in-process through
`fluxsim.cli.main` with `--workers 1`; the gate workload calls the library.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import reference
from fluxsim import cli, config, gates, noise
from fluxsim.coupled import CoupledDims, ResonatorParams
from fluxsim.qubit import EnergyParams, FluxBias

E_J_GHZ, E_C_GHZ, E_L_GHZ = 4.75, 1.25, 1.5  # E_J varies in spectral-sweep
OMEGA_R_GHZ, KAPPA_MHZ, G_MHZ = 7.0, 5.0, 50.0

# Check tolerances; README.md says what each rests on.
CHI_TOL_MHZ = 1e-8
SYM_TOL_MHZ = 1e-8
OMEGA_TOL_GHZ = 1e-10
FIELD_TOL = 1e-10
ERFC_TOL = 1e-12
GATE_DRAW_TOL = 5e-3
UNITARITY_TOL = 1e-8
OMEGA01_TOL = 1e-10


class Round:
    """The operations of one round and the checks on them.

    Every round attempts the same operations; an operation fails when the
    program raises, exits non-zero, or when a check on its output fails.
    With a `probe`, the host's speed is probed where each timed phase
    begins, where the round ends (`finish`) and, with `in_phase`, also
    between program calls in long phases (`interject`, not counted in the
    phase's time).
    """

    def __init__(self, ops, probe=None, in_phase=True):
        self.ops = list(ops)
        self.current = None
        self.failures = {}
        self.phases = {}
        self.work = 0
        self.probe = probe
        self.in_phase = in_phase
        self.probes = {}  # phase -> probe times around and inside it
        self.phase = None
        self.paused = 0.0

    def speed(self, phase, ref):
        """ref / mean probe time of `phase` (1 when not probed)."""
        if phase not in self.probes:
            return 1.0
        return ref / statistics.fmean(self.probes[phase])

    def _boundary(self):
        t = self.probe()
        if self.phase is not None:
            self.probes[self.phase].append(t)
        return t

    def finish(self):
        if self.probe is not None:
            self._boundary()

    def interject(self):
        if self.in_phase and self.probe is not None and self.phase is not None:
            t0 = time.perf_counter()
            self.probes[self.phase].append(self.probe())
            self.paused += time.perf_counter() - t0

    def begin(self, op):
        self.current = op

    def check(self, op, ok, detail):
        if not ok and op not in self.failures:
            self.failures[op] = detail

    def abandon(self, exc):
        """The round stopped at the current operation: it and every later
        one did not complete."""
        start = self.ops.index(self.current) if self.current in self.ops else 0
        for op in self.ops[start:]:
            self.failures.setdefault(op, f"not completed: {exc!r}")

    @contextlib.contextmanager
    def checking(self, op):
        """Checks on op's output; one that cannot run fails op."""
        try:
            yield
        except Exception as exc:  # e.g. an output file the op did not write
            self.check(op, False, f"check raised {exc!r}")

    def timed(self, phase, fn, *args, **kwargs):
        if self.probe is not None and phase not in self.probes:
            self.probes[phase] = [self._boundary()]
        self.phase, self.paused = phase, 0.0
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        self.phases[phase] = self.phases.get(phase, 0.0) + \
            time.perf_counter() - t0 - self.paused
        return result


def simulate(r, op, phase, sub, cfg_path, out):
    """One CLI subcommand, timed into `phase`; a non-zero exit fails `op`."""
    r.begin(op)
    code = r.timed(phase, cli.main, [sub, "--config", str(cfg_path),
                                     "--out", str(out), "--workers", "1"])
    r.check(op, code == 0, f"simulate {sub} exited with {code}")
    return code == 0


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def manifest_mismatches(out):
    """Files whose manifest.json hash differs from their SHA-256."""
    doc = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    bad = []
    for rec in doc["files"]:
        digest = hashlib.sha256((out / rec["name"]).read_bytes()).hexdigest()
        if digest != rec["sha256"]:
            bad.append(rec["name"])
    return bad, {rec["name"] for rec in doc["files"]}


def cache_size(out):
    """(files, apparent bytes) of the result cache under `out`."""
    files = [p for p in (out / ".cache").glob("*") if p.is_file()]
    return len(files), sum(p.stat().st_size for p in files)


def write_config(path, raw):
    path.write_text(json.dumps(raw, indent=2), encoding="utf-8")
    return config.parse_config(path)


class Interjector:
    """Wraps a program function at the places it is looked up; counts its
    calls and, while `round` is set, has the round probe the host's speed
    before every `every`-th call (`Round.interject`)."""

    def __init__(self, places, every):
        fn = getattr(*places[0])
        self.calls, self.round = 0, None

        def wrapped(*args, **kwargs):
            self.calls += 1
            if self.round is not None and self.calls % every == 0:
                self.round.interject()
            return fn(*args, **kwargs)

        for module, attr in places:
            setattr(module, attr, wrapped)


class SpectralSweep:
    """Cold then warm `chi-curve` and `landscape` on one output directory."""

    name = "spectral-sweep"
    RATE_OVER = "first"  # work_per_s: chi points per second of the cold pass
    ops = ("chi-curve cold", "landscape cold", "chi-curve warm",
           "landscape warm")
    CHI_WINDOW = (0.40, 0.60, 5e-4)  # symmetric about 0.5: 401 points
    N_F, E_J_STEP = 21, 0.1          # landscape: 3 x 21 cells
    CHI_CHECKS, CELL_CHECKS = 6, 3
    # a warm pass is ~4 % of a cold one; three give it enough work to time
    WARM_PASSES = 3
    # pool legs of the traced run: a smaller chi-curve, cache bypassed
    POOL_WINDOW = (0.46, 0.54, 1e-3)

    def __init__(self, seed):
        rng = np.random.default_rng(seed)
        self.e_j = round(4.6 + 0.3 * float(rng.random()), 4)
        self.pick = np.random.default_rng([seed, 1])
        f_min, f_max, step = self.CHI_WINDOW
        self.raw = {
            "device": {"e_j_ghz": self.e_j, "e_c_ghz": E_C_GHZ,
                       "e_l_ghz": E_L_GHZ},
            "chi_curve": {"f_min": f_min, "f_max": f_max, "step": step},
            "sweep": {"e_j_min_ghz": round(self.e_j - self.E_J_STEP, 4),
                      "e_j_max_ghz": round(self.e_j + self.E_J_STEP, 4),
                      "n_e_j": 3, "f_min": f_min, "f_max": f_max,
                      "n_f": self.N_F},
        }
        self.n_chi = int(round((f_max - f_min) / step)) + 1
        self.points = self.n_chi + 3 * self.N_F

    def describe(self):
        return {"e_j_ghz": self.e_j, **self.raw}

    def setup(self, work):
        self.cfg_path = work / "spectral.json"
        write_config(self.cfg_path, self.raw)
        self.out = work / "sweep"

    def check_setup(self):
        """Nothing to check before the rounds."""

    def round(self, r, work):
        out = self.out
        shutil.rmtree(out, ignore_errors=True)
        for sub in ("chi-curve", "landscape"):
            simulate(r, f"{sub} cold", "first", sub, self.cfg_path, out)
        cold = {p.name: p.read_bytes() for p in out.glob("*.csv")}
        for _ in range(self.WARM_PASSES):
            for sub in ("chi-curve", "landscape"):
                simulate(r, f"{sub} warm", "second", sub, self.cfg_path, out)
        r.work = self.points
        return out, cold

    def check(self, r, ctx):
        out, cold = ctx
        with r.checking("chi-curve cold"):
            self.check_chi_curve(r, out)
        with r.checking("landscape cold"):
            self.check_landscape(r, out)
        with r.checking("chi-curve warm"), r.checking("landscape warm"):
            warm = {p.name: p.read_bytes() for p in out.glob("*.csv")}
            r.check("chi-curve warm", warm.get("chi_curve.csv") ==
                    cold.get("chi_curve.csv"), "warm chi_curve.csv differs")
            # chi_curve.csv and 8 landscapes: omega_q, chi, 6 detunings
            r.check("landscape warm", len(cold) == 9 and all(
                warm.get(name) == data for name, data in cold.items()
                if name.startswith("landscape_")),
                "warm landscape CSVs differ from the cold pass")
            bad, listed = manifest_mismatches(out)
            r.check("landscape warm", not bad and listed == set(cold),
                    f"manifest mismatch: {bad or sorted(set(cold) ^ listed)}")

    def check_chi_curve(self, r, out):
        op = "chi-curve cold"
        rows = read_csv(out / "chi_curve.csv")
        r.check(op, len(rows) == self.n_chi,
                f"{len(rows)} chi-curve rows, not {self.n_chi}")
        f = np.array([float(row["f"]) for row in rows])
        chi = np.array([float(row["chi_mhz"]) for row in rows])
        ok = np.array([row["status"] == "ok" for row in rows])
        # chi(f) = chi(1 - f): the grid is symmetric about 0.5
        mirror = slice(None, None, -1)
        r.check(op, np.max(np.abs(f + f[mirror] - 1.0)) < 1e-12,
                "chi-curve grid is not symmetric about f = 0.5")
        r.check(op, np.array_equal(ok, ok[mirror]),
                "status differs between f and 1 - f")
        both = ok & ok[mirror]
        sym = float(np.max(np.abs(chi - chi[mirror])[both], initial=0.0))
        r.check(op, sym <= SYM_TOL_MHZ,
                f"|chi(f) - chi(1 - f)| = {sym:.2e} MHz > {SYM_TOL_MHZ}")
        usable = np.flatnonzero(ok & (np.abs(chi) < 50.0))
        r.check(op, usable.size >= self.CHI_CHECKS,
                f"only {usable.size} unclamped ok points")
        for k in self.pick.choice(usable, self.CHI_CHECKS, replace=False):
            want = reference.dispersive_shift_mhz(
                self.e_j, E_C_GHZ, E_L_GHZ, f[k], OMEGA_R_GHZ, G_MHZ)
            r.check(op, abs(chi[k] - want) <= CHI_TOL_MHZ,
                    f"chi({f[k]}) = {float(chi[k])!r} MHz, "
                    f"reference {want!r}")

    def check_landscape(self, r, out):
        op = "landscape cold"
        cells = read_csv(out / "landscape_omega_q.csv")
        r.check(op, len(cells) == 3 * self.N_F,
                f"{len(cells)} landscape cells, not {3 * self.N_F}")
        for k in self.pick.choice(len(cells), self.CELL_CHECKS, replace=False):
            cell = cells[k]
            want = reference.qubit_frequency_ghz(
                float(cell["e_j_ghz"]), E_C_GHZ, E_L_GHZ, float(cell["f"]))
            got = float(cell["value"])
            r.check(op, abs(got - want) <= OMEGA_TOL_GHZ,
                    f"omega_q{cell['e_j_ghz'], cell['f']} = {got!r} GHz, "
                    f"reference {want!r}")
        chis = [c for c in read_csv(out / "landscape_chi.csv")
                if c["status"] == "ok" and abs(float(c["value"])) < 5.0]
        r.check(op, bool(chis), "no unclamped ok cell in landscape_chi")
        if chis:
            cell = chis[int(self.pick.integers(len(chis)))]
            want = reference.dispersive_shift_mhz(
                float(cell["e_j_ghz"]), E_C_GHZ, E_L_GHZ, float(cell["f"]),
                OMEGA_R_GHZ, G_MHZ)
            r.check(op, abs(float(cell["value"]) - want) <= CHI_TOL_MHZ,
                    f"landscape chi{cell['e_j_ghz'], cell['f']} = "
                    f"{cell['value']} MHz, reference {want!r}")

    def pool_legs(self, work):
        """Seconds of a cache-free `simulate chi-curve` with 1 and with 2
        workers (None if it failed or took over a minute), each run as its
        own process with the BLAS thread settings removed from its
        environment, as a user would start it."""
        f_min, f_max, step = self.POOL_WINDOW
        raw = {**self.raw, "chi_curve": {"f_min": f_min, "f_max": f_max,
                                         "step": step}}
        path = work / "pool.json"
        write_config(path, raw)
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                            "MKL_NUM_THREADS", "FLUXSIM_WORKERS")}
        env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parent.parent)
        legs = {}
        for workers in (1, 2):
            t0 = time.perf_counter()
            try:
                done = subprocess.run(
                    [sys.executable, "-m", "fluxsim.cli", "chi-curve",
                     "--config", str(path), "--out", str(work / f"pool{workers}"),
                     "--no-cache", "--workers", str(workers)],
                    env=env, cwd=work, capture_output=True, timeout=60)
            except subprocess.TimeoutExpired:
                legs[workers] = None
                continue
            seconds = time.perf_counter() - t0
            legs[workers] = seconds if done.returncode == 0 else None
        return legs


class ReadoutMc:
    """`readout` (pulsed and static) and `noise-readout` on a χ cache
    filled during set-up."""

    name = "readout-mc"
    RATE_OVER = "second"  # work_per_s: noise draws per second
    ops = ("readout", "noise-readout")
    RAMP = (0.5, 0.641, 50.0)
    # wide enough that no offset can leave it: Box-Muller on doubles gives
    # |x| < 8.6, so |delta| < 0.086 at scale 1e-2
    CHI_WINDOW = (0.41, 0.73, 1e-3)
    T_MAX, DT, N_DRAWS, SCALE = 250.0, 0.05, 16, 1e-2

    def __init__(self, seed):
        rng = np.random.default_rng(seed)
        self.eta = round(0.25 + 0.5 * float(rng.random()), 4)
        self.noise_seed = int(rng.integers(0, 1 << 62))
        f_start, f_end, t_rise = self.RAMP
        f_min, f_max, step = self.CHI_WINDOW
        self.raw = {
            "device": {"e_j_ghz": E_J_GHZ, "e_c_ghz": E_C_GHZ,
                       "e_l_ghz": E_L_GHZ},
            "chi_curve": {"f_min": f_min, "f_max": f_max, "step": step},
            "readout": {"eta": self.eta, "t_max_ns": self.T_MAX,
                        "dt_ns": self.DT,
                        "ramp": {"f_start": f_start, "f_end": f_end,
                                 "t_rise_ns": t_rise}},
            "noise": {"scale": self.SCALE, "n_draws": self.N_DRAWS,
                      "seed": self.noise_seed},
            "seed": self.noise_seed,
        }
        self.draws = Interjector([(noise, "readout_draw")], every=4)
        self.chi_static = reference.dispersive_shift_mhz(
            E_J_GHZ, E_C_GHZ, E_L_GHZ, f_start, OMEGA_R_GHZ, G_MHZ)

    def describe(self):
        return self.raw

    def setup(self, work):
        """Config plus a χ cache filled by a cold `chi-curve`."""
        self.out = work / "readout"
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        self.cfg_path = work / "readout.json"
        write_config(self.cfg_path, self.raw)
        code = cli.main(["chi-curve", "--config", str(self.cfg_path),
                         "--out", str(self.out), "--workers", "1"])
        if code != 0:
            raise RuntimeError(f"cache fill: simulate chi-curve exited {code}")

    def check_setup(self):
        """The cache fill is checked by its exit code in `setup`."""

    def round(self, r, work):
        simulate(r, "readout", "first", "readout", self.cfg_path, self.out)
        self.draws.round = r
        simulate(r, "noise-readout", "second", "noise-readout",
                 self.cfg_path, self.out)
        self.draws.round = None
        r.work = self.N_DRAWS
        return self.out

    def check(self, r, out):
        with r.checking("readout"):
            self.check_readout(r, out)
        with r.checking("noise-readout"):
            self.check_noise(r, out)

    def check_readout(self, r, out):
        op = "readout"
        n = int(round(self.T_MAX / self.DT)) + 1
        static = read_csv(out / "readout_static.csv")
        pulsed = read_csv(out / "readout_pulsed.csv")
        r.check(op, len(static) == n and len(pulsed) == n,
                f"readout CSVs have {len(static)}, {len(pulsed)} rows, not {n}")
        tau = np.array([float(row["tau_ns"]) for row in static])
        for sz, col in ((+1, "0"), (-1, "1")):
            got = np.array([complex(float(row[f"re_alpha_out_{col}"]),
                                    float(row[f"im_alpha_out_{col}"]))
                            for row in static])
            want = reference.static_output_field(self.chi_static, KAPPA_MHZ,
                                                 10.0, sz, tau)
            dev = float(np.max(np.abs(got - want)))
            r.check(op, dev <= FIELD_TOL,
                    f"static alpha_out (sigma_z={sz:+d}) deviates from the "
                    f"closed form by {dev:.2e} > {FIELD_TOL}")
        for name, rows in (("static", static), ("pulsed", pulsed)):
            dev = max(abs(float(row["error"])
                          - 0.5 * math.erfc(0.5 * float(row["snr"])))
                      for row in rows)
            r.check(op, dev <= ERFC_TOL,
                    f"{name} error deviates from erfc(SNR/2)/2 by {dev:.2e}")
        i200 = int(np.argmin(np.abs(tau - 200.0)))
        s_p, s_s = float(pulsed[i200]["snr"]), float(static[i200]["snr"])
        r.check(op, s_p > s_s,
                f"pulsed SNR {s_p:.4g} does not exceed static {s_s:.4g} "
                f"at 200 ns")

    def check_noise(self, r, out):
        op = "noise-readout"
        n = int(round(self.T_MAX / self.DT)) + 1
        for name in ("noise_readout_snr.csv", "noise_readout_error.csv"):
            rows = read_csv(out / name)
            r.check(op, len(rows) == n, f"{name}: {len(rows)} rows, not {n}")
            counts = {(row["n_effective"], row["n_excluded"], row["seed"])
                      for row in rows}
            want = {(str(self.N_DRAWS), "0", str(self.noise_seed))}
            r.check(op, counts == want,
                    f"{name}: (n_effective, n_excluded, seed) = {counts}, "
                    f"expected {want}")
        err = [float(row["mean"]) for row in
               read_csv(out / "noise_readout_error.csv")]
        r.check(op, all(0.0 <= e <= 0.5 for e in err),
                "noise-readout mean error outside [0, 1/2]")
        bad, listed = manifest_mismatches(out)
        expected = {"chi_curve.csv", "readout_pulsed.csv",
                    "readout_static.csv", "noise_readout_snr.csv",
                    "noise_readout_error.csv"}
        r.check(op, not bad and listed == expected,
                f"manifest mismatch: {bad or sorted(listed ^ expected)}")


class GateMc:
    """Pulse optimisation at a short gate time and the gate-error Monte
    Carlo of a pre-optimised 10 ns pulse, through the library."""

    name = "gate-mc"
    RATE_OVER = "wall"  # work_per_s: evaluate_gate calls per second
    ops = ("optimize_pulse", "noisy_gate_error")
    TAU_OPT, N_EPS, N_LAM = 3.0, 3, 3
    # the tau_g = 10 ns optimum used by the acceptance suite
    OPT_10NS = (10.0, 1.557152, 4.7745)
    N_DRAWS, SCALE = 8, 1e-2
    out = None  # no output directory, no cache

    def __init__(self, seed):
        rng = np.random.default_rng(seed)
        self.noise_seed = int(rng.integers(0, 1 << 62))
        self.params = EnergyParams.from_ghz(E_J_GHZ, E_C_GHZ, E_L_GHZ)
        self.res = ResonatorParams.from_ghz(OMEGA_R_GHZ, KAPPA_MHZ, G_MHZ)
        self.dims = CoupledDims(kept=6, n_res=3)
        # a round is ~130 evaluations in ~35 s: count them, and probe the
        # host's speed between them, not only at the phase boundaries
        self.evals = Interjector([(gates, "evaluate_gate"),
                                  (noise, "evaluate_gate")], every=4)

    def describe(self):
        return {"e_j_ghz": E_J_GHZ, "e_c_ghz": E_C_GHZ, "e_l_ghz": E_L_GHZ,
                "tau_opt_ns": self.TAU_OPT, "n_eps": self.N_EPS,
                "n_lam": self.N_LAM, "pulse_10ns": self.OPT_10NS,
                "n_draws": self.N_DRAWS, "scale": self.SCALE,
                "noise_seed": self.noise_seed}

    def setup(self, work):
        self.space = gates.build_gate_space(self.params, FluxBias(0.5),
                                            self.res, dims=self.dims)

    def check_setup(self):
        """The dressed qubit frequency the pulses are tuned to, against the
        reference at the same truncation."""
        e = reference.dressed_levels(E_J_GHZ, E_C_GHZ, E_L_GHZ, 0.5, OMEGA_R_GHZ,
                                     1e-3 * G_MHZ, kept=6, n_res=3)
        want = 2.0 * math.pi * (e[1, 0] - e[0, 0])
        dev = abs(self.space.omega_01 - want) / want
        if dev > OMEGA01_TOL:
            raise RuntimeError(f"gate-space omega_01 deviates from the "
                               f"reference by {dev:.2e} (relative)")

    def round(self, r, work):
        space = self.space
        pulse_10 = gates.PulseParams(*self.OPT_10NS, space.omega_01)
        spec = noise.NoiseSpec(self.SCALE, self.N_DRAWS, self.noise_seed)
        before, self.evals.round = self.evals.calls, r
        r.begin("optimize_pulse")
        pulse, result = r.timed("first", gates.optimize_pulse, space,
                                self.TAU_OPT, n_eps=self.N_EPS,
                                n_lam=self.N_LAM)
        r.begin("noisy_gate_error")
        curve = r.timed("second", noise.noisy_gate_error, self.params,
                        self.res, [pulse_10], spec, dims=self.dims)
        r.work, self.evals.round = self.evals.calls - before, None
        return result, spec, curve

    def check(self, r, ctx):
        result, spec, curve = ctx
        with r.checking("optimize_pulse"):
            self.check_optimum(r, result)
        with r.checking("noisy_gate_error"):
            self.check_draws(r, spec, curve)

    def check_optimum(self, r, result):
        op = "optimize_pulse"
        space = self.space
        u = result.propagator
        defect = float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))))
        r.check(op, defect <= UNITARITY_TOL,
                f"unitarity defect {defect:.2e} > {UNITARITY_TOL}")
        rabi = gates.PulseParams(self.TAU_OPT,
                                 gates.rabi_area_estimate(space, self.TAU_OPT),
                                 0.0, space.omega_01)
        rabi_error = gates.evaluate_gate(space, rabi).error
        r.check(op, result.error <= rabi_error,
                f"optimised error {result.error:.3e} worse than the "
                f"Rabi-area pulse's {rabi_error:.3e}")

    def check_draws(self, r, spec, curve):
        op = "noisy_gate_error"
        offsets = reference.flux_offsets(spec.scale, spec.n_draws, spec.seed)
        r.check(op, np.array_equal(noise.sample_flux_offsets(spec), offsets),
                "flux offsets differ from the documented Philox/Box-Muller "
                "draws")
        r.check(op, curve.n_effective == spec.n_draws and curve.n_excluded == 0,
                f"{curve.n_effective} effective, {curve.n_excluded} excluded "
                f"of {spec.n_draws}")
        tau, eps_d, lam = self.OPT_10NS
        want = reference.bare_gate_errors(E_J_GHZ, E_C_GHZ, E_L_GHZ, offsets,
                                          tau, eps_d, lam,
                                          self.space.omega_01)
        dev = float(np.max(np.abs(curve.draws[:, 0] - want)))
        r.check(op, dev <= GATE_DRAW_TOL,
                f"gate error per draw deviates from the bare-fluxonium "
                f"reference by up to {dev:.2e} > {GATE_DRAW_TOL}")


WORKLOADS = {w.name: w for w in (SpectralSweep, ReadoutMc, GateMc)}

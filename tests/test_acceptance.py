"""Acceptance suite: one test (and one printed PASS/FAIL line) per criterion.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines. Criterion 7a checks the absolute noisy-gate error level (~0.20 in
the Gaussian limit at scale 1e-2, tau_g = 10 ns) against the independent
multilevel reference `bare_gate_errors` of `perfbench/reference.py`, which
imports nothing from fluxsim; the 0.36 +- 0.10 band it once used had no
source in the repository. See the criterion docstring.
"""

import math

import numpy as np
import pytest

from fluxsim import cli, coupled, units
from fluxsim.cli import main
from fluxsim.config import config_from_dict
from fluxsim.coupled import (
    CoupledDims,
    CouplingMode,
    ResonatorParams,
    _coupling_operator,
    chi_profile,
    dispersive_shift,
    find_anticrossing,
    sweep_dressed,
)
from fluxsim.gates import (
    PulseParams,
    build_gate_space,
    evaluate_gate,
    gate_fidelity,
    propagate_gate,
)
from fluxsim.noise import (
    NoiseSpec,
    gate_draw,
    noisy_gate_error,
    noisy_readout_snr,
    sample_flux_offsets,
)
from fluxsim.qubit import (
    EnergyParams,
    FluxBias,
    anharmonicity,
    fluxonium_spectrum,
)
from fluxsim.readout import (
    FluxRamp,
    ReadoutConfig,
    drive_amplitude,
    integrate_langevin,
    output_field,
    time_grid,
)
from fluxsim.special import erfc

from conftest import (
    at_axis,
    at_time,
    readout_batch,
    reference,
    two_level_eigensystem,
)

DEVICE_GHZ = (4.75, 1.25, 1.5)  # E_J, E_C, E_L
PARAMS = EnergyParams.from_ghz(*DEVICE_GHZ)
RES = ResonatorParams.from_ghz(7.0, 5.0, 50.0)
KAPPA_MHZ = 5.0
KAPPA = units.mhz(KAPPA_MHZ)
RAMP = FluxRamp(0.5, 0.641, 50.0)

# pulses optimized at the sweet spot with the default settings; their
# residual errors are re-verified below before any Monte Carlo uses them
OPT_PULSE = {}


def _report(num, name, ok, detail=""):
    print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module")
def profile():
    """The chi profile the CLI's readout takes at the config defaults."""
    cfg = config_from_dict({"device": dict(zip(
        ("e_j_ghz", "e_c_ghz", "e_l_ghz"), DEVICE_GHZ))})
    return chi_profile(*cli._chi_values(cfg, None), cfg.chi_clamp)


@pytest.fixture(scope="module")
def readout_cfg():
    return ReadoutConfig(n_bar=10.0, eta=1.0, kappa=KAPPA, t_max=250.0, dt=0.05)


@pytest.fixture(scope="module")
def readout_pair(profile, readout_cfg):
    """(pulsed, static) records of the CLI's one two-row batch: the ramp,
    and the ramp held at its start flux."""
    return readout_batch([RAMP, FluxRamp(RAMP.f_start, RAMP.f_start, 0.0)],
                         profile, readout_cfg)


@pytest.fixture(scope="module")
def pulsed_traj(readout_pair):
    return readout_pair[0]


@pytest.fixture(scope="module")
def static_traj(readout_pair):
    return readout_pair[1]


@pytest.fixture(scope="module")
def gate_space():
    space = build_gate_space(PARAMS, FluxBias(0.5), RES)
    OPT_PULSE[10.0] = PulseParams(10.0, 1.557152, 4.7745, space.omega_01)
    OPT_PULSE[30.0] = PulseParams(30.0, 0.518938, 4.7634, space.omega_01)
    return space


@pytest.fixture(scope="module")
def gate_mc_curves(gate_space):
    """Gate-error Monte Carlo per noise scale, 50 draws each, on the axis
    tau_g = (10, 30); at scale 1e-2, which only criterion 7a reads, on
    tau_g = 10 ns alone."""
    for pulse in OPT_PULSE.values():
        assert evaluate_gate(gate_space, pulse).error < 1e-6
    pulses = [OPT_PULSE[10.0], OPT_PULSE[30.0]]
    return {scale: noisy_gate_error(PARAMS, RES, pulses[:n], NoiseSpec(scale))
            for scale, n in ((1e-2, 1), (1e-3, 2), (1e-4, 2))}


@pytest.fixture(scope="module")
def gate_mc(gate_mc_curves):
    """Mean gate error per (tau_g, noise scale), 50 draws each."""
    return {scale: {float(tau): curve.mean[i] for i, tau in enumerate(curve.axis)}
            for scale, curve in gate_mc_curves.items()}


# Levels kept by the criterion-7a reference: the gate space keeps 6 qubit
# levels, so at zero coupling the reference and the program hold the same
# Hamiltonian and must agree to integrator accuracy.
REF_LEVELS = 6


def test_criterion_1_sweet_spot_spectrum():
    vals, _ = fluxonium_spectrum(PARAMS, FluxBias(0.5))
    wq = units.to_ghz(vals[1] - vals[0])
    chi = units.to_mhz(dispersive_shift(PARAMS, FluxBias(0.5), RES))
    ok = abs(wq / 1.05 - 1.0) < 0.02 and abs(chi / 0.527 - 1.0) < 0.10
    _report(1, "sweet-spot spectrum", ok,
            f"omega_q={wq:.4f} GHz (1.05 +- 2%), chi={chi:.4f} MHz (0.527 +- 10%)")


def test_criterion_2_readout_point_spectrum():
    flux = FluxBias(0.641)
    vals, _ = fluxonium_spectrum(PARAMS, flux)
    wq = units.to_ghz(vals[1] - vals[0])
    chi = units.to_mhz(dispersive_shift(PARAMS, flux, RES))
    sweep = sweep_dressed(PARAMS, [flux.f], RES, CouplingMode.LADDER_RWA,
                          CoupledDims(), ((0, 0), (1, 0), (2, 0)))
    d10 = units.to_ghz(sweep.detuning(RES, 1, 0)[0])
    d20 = units.to_mhz(sweep.detuning(RES, 2, 0)[0])
    ok = (abs(wq / 4.6 - 1.0) < 0.02 and abs(chi / -7.95 - 1.0) < 0.10
          and abs(d10 / -2.4 - 1.0) < 0.05 and abs(d20 / -67.0 - 1.0) < 0.15)
    _report(2, "readout-point spectrum", ok,
            f"omega_q={wq:.4f} GHz, chi={chi:.3f} MHz, "
            f"Delta_10={d10:.4f} GHz, Delta_20={d20:.2f} MHz")


def test_criterion_3_charge_element():
    # <2|n|0> from the charge operator the CHARGE-mode Hamiltonian projects
    _, vecs = fluxonium_spectrum(PARAMS, FluxBias(0.641))
    n_op = _coupling_operator(vecs, PARAMS, CouplingMode.CHARGE, 3)
    g_eff = units.to_mhz(RES.g) * abs(n_op[2, 0])
    ok = abs(g_eff / 18.32 - 1.0) < 0.05
    _report(3, "charge matrix element", ok,
            f"g*|<2|n|0>|={g_eff:.3f} MHz (18.32 +- 5%)")


def test_criterion_4_anticrossing():
    ac = find_anticrossing(PARAMS, RES, CouplingMode.CHARGE,
                           transition=(3, 1), window=(0.55, 0.60))
    g31 = units.to_mhz(ac.g_ij)
    ok = (abs(g31 / 5.81 - 1.0) < 0.05 and abs(ac.t_swap / 43.0 - 1.0) < 0.05
          and abs(ac.f_star - 0.575) < 0.01)
    _report(4, "3-1 anticrossing", ok,
            f"g_31={g31:.3f} MHz (5.81 +- 5%), t_swap={ac.t_swap:.2f} ns "
            f"(43 +- 5%), f*={ac.f_star:.4f}")


def test_criterion_5_snr_improvement_ratio(profile, readout_cfg,
                                           static_traj, pulsed_traj):
    snr_static, _ = at_time(static_traj, 200.0)
    snr_pulsed, _ = at_time(pulsed_traj, 200.0)
    ratio = snr_pulsed / snr_static
    quarter_cfg = ReadoutConfig(n_bar=10.0, eta=0.25, kappa=KAPPA,
                                t_max=250.0, dt=0.05)
    full_cfg = ReadoutConfig(n_bar=10.0, eta=1.0, kappa=KAPPA,
                             t_max=250.0, dt=0.05)
    (quarter,) = readout_batch([RAMP], profile, quarter_cfg)
    (full,) = readout_batch([RAMP], profile, full_cfg)
    half_exact = np.max(np.abs(2.0 * quarter.snr - full.snr)) < 1e-12
    calibration_ok = 0.5 <= snr_static <= 5.0
    ok = abs(ratio / 10.0 - 1.0) < 0.30 and half_exact and calibration_ok
    _report(5, "SNR improvement ratio", ok,
            f"pulsed/static={ratio:.3f} (10 +- 30%), eta=0.25 gives exactly "
            f"half: {half_exact}, static SNR(200ns)={snr_static:.4f} "
            f"(calibration constant, in [0.5, 5])")


def test_criterion_6_noisy_readout(profile, static_traj):
    cfg = ReadoutConfig(n_bar=10.0, eta=0.25, kappa=KAPPA, t_max=250.0, dt=0.05)
    noisy = noisy_readout_snr(RAMP, profile, cfg, NoiseSpec(1e-2))
    mean_snr, _ = at_axis(noisy.snr, 200.0)
    mean_err, _ = at_axis(noisy.error, 200.0)
    static_snr, _ = at_time(static_traj, 200.0)  # eta=1 baseline
    ratio = mean_snr / static_snr
    (noise_free,) = readout_batch([RAMP], profile, cfg)
    nf_snr, _ = at_time(noise_free, 200.0)
    small = noisy_readout_snr(RAMP, profile, cfg, NoiseSpec(1e-3))
    small_snr, _ = at_axis(small.snr, 200.0)
    small_dev = abs(small_snr / nf_snr - 1.0)
    ok = (abs(ratio / 3.0 - 1.0) < 0.30
          and 0.02 <= mean_err <= 0.06
          and small_dev < 0.02)
    _report(6, "noisy readout", ok,
            f"mean SNR/static={ratio:.3f} (3 +- 30%), mean error="
            f"{100 * mean_err:.2f}% (4 +- 2 pts), scale 1e-3 SNR deviation="
            f"{100 * small_dev:.2f}% (< 2%)")


@pytest.mark.slow
def test_criterion_7a_noisy_gate_error_level(gate_mc_curves):
    """Absolute noisy gate error at scale 1e-2 and tau_g = 10 ns, against
    an independent multilevel reference evaluated on the same 50 offsets
    with the same frozen pulse: reference.bare_gate_errors, which builds
    the bare fluxonium itself and imports nothing from fluxsim.

    The level is ~0.19 for these 50 draws and ~0.20 in the Gaussian limit:
    the error grows from ~0 at the sweet spot to 0.35 at |delta| = 0.011
    and saturates near 2/3 only beyond |delta| ~ 0.0165. An earlier band of
    0.36 +- 0.10 had no source in the repository and is not used.

    The reference omits the resonator, whose dressing of the qubit levels
    makes the two differ by up to ~2.5e-3 on a draw; hence the tolerances
    of 2e-3 on the mean and 5e-3 per draw. Two checks pin the reference
    itself: adding a level changes it by far less than that, and with the
    coupling switched off the program and the reference describe the same
    system and agree to integrator accuracy.
    """
    pulse = OPT_PULSE[10.0]
    drive = (pulse.tau_g, pulse.eps_d, pulse.lam, pulse.omega_d)
    curve = gate_mc_curves[1e-2]
    assert curve.axis[0] == 10.0
    program = curve.draws[:, 0]
    ref_draws = reference.bare_gate_errors(
        *DEVICE_GHZ, sample_flux_offsets(NoiseSpec(1e-2)), *drive, REF_LEVELS)
    mean_dev = abs(curve.mean[0] - ref_draws.mean())
    worst = float(np.max(np.abs(program - ref_draws)))

    probes = (0.0, 0.009, 0.0139)
    at_probes = reference.bare_gate_errors(*DEVICE_GHZ, probes, *drive,
                                           REF_LEVELS)
    truncation = float(np.max(np.abs(reference.bare_gate_errors(
        *DEVICE_GHZ, probes, *drive, REF_LEVELS + 1) - at_probes)))
    uncoupled = ResonatorParams.from_ghz(7.0, 5.0, 0.0)
    anharm = anharmonicity(fluxonium_spectrum(PARAMS, FluxBias(0.5))[0])
    zero_g = max(abs(gate_draw(d, PARAMS, uncoupled, [pulse], anharm)[0].error
                     - ref)
                 for d, ref in zip(probes, at_probes))

    ok = (mean_dev < 2e-3 and worst < 5e-3
          and truncation < 2e-4 and zero_g < 1e-7)
    _report("7a", "noisy gate error level", ok,
            f"mean error(scale=1e-2, tau_g=10): program {curve.mean[0]:.4f}, "
            f"reference {ref_draws.mean():.4f} (|diff| {mean_dev:.1e} < 2e-3); "
            f"worst draw |diff| {worst:.1e} (< 5e-3); reference "
            f"{REF_LEVELS} vs {REF_LEVELS + 1} levels {truncation:.1e} "
            f"(< 2e-4); zero-coupling |diff| {zero_g:.1e} (< 1e-7)")


@pytest.mark.slow
def test_criterion_7b_noisy_gate_scale_ratio(gate_mc):
    ratios = {tau: gate_mc[1e-3][tau] / gate_mc[1e-4][tau]
              for tau in (10.0, 30.0)}
    ok = all(1e3 <= r <= 1e5 for r in ratios.values())
    _report("7b", "noisy gate scale ratio", ok,
            f"error(1e-3)/error(1e-4) = {ratios[10.0]:.3g} (tau=10), "
            f"{ratios[30.0]:.3g} (tau=30); band [1e3, 1e5]")


def test_criterion_8_closed_form_oracle(profile):
    """The Langevin output field at constant chi against the closed form of
    reference.static_output_field, which sets its own drive from n_bar, so
    a fault in drive_amplitude does not cancel."""
    chi = profile.chi_at(0.5)
    eps = drive_amplitude(10.0, KAPPA, chi)
    times = time_grid(1000.0, 0.05)
    worst = 0.0
    for sz in (+1, -1):
        # sigma_z = -1 is the negated chi row
        chi_half = np.full((1, 2 * times.size - 1), chi * sz)
        (alpha,) = integrate_langevin(chi_half, KAPPA, [eps],
                                      times[1] - times[0]).T
        out = output_field(alpha, KAPPA, eps)
        ref = reference.static_output_field(units.to_mhz(chi), KAPPA_MHZ, 10.0,
                                            sz, times)
        worst = max(worst, float(np.max(np.abs(out - ref))))
    ok = worst < 1e-8
    _report(8, "closed-form readout oracle", ok,
            f"max |ODE - closed form| = {worst:.2e} (< 1e-8 over 1 us)")


def test_criterion_9_jaynes_cummings_oracle():
    omega_q = units.ghz(5.2)
    dressed = two_level_eigensystem(omega_q, RES)
    omega_r, g = RES.omega_r, RES.g
    sign = 1.0 if omega_q > omega_r else -1.0

    def exact(i, n):
        n_exc = n + i
        if n_exc == 0:
            return 0.5 * omega_r
        branch = sign if i == 1 else -sign
        return (n_exc * omega_r + 0.5 * omega_q
                + branch * 0.5 * math.sqrt((omega_q - omega_r) ** 2
                                           + 4.0 * g * g * n_exc))

    worst = max(abs(dressed.energy_of(i, n)[0] - exact(i, n))
                for i in range(2) for n in range(4))
    ok = worst < 1e-10
    _report(9, "Jaynes-Cummings oracle", ok,
            f"max dressed-energy deviation = {worst:.2e} (< 1e-10)")


def test_criterion_10_harmonic_limit():
    params = EnergyParams(0.0, units.ghz(1.25), units.ghz(1.5))
    vals, _ = fluxonium_spectrum(params, FluxBias(0.3), 60)
    gaps = np.diff(vals[:12])
    expected = math.sqrt(8.0 * params.e_c * params.e_l)
    worst = float(np.max(np.abs(gaps / expected - 1.0)))
    ok = worst < 1e-10
    _report(10, "harmonic limit", ok,
            f"max relative spacing deviation = {worst:.2e} (< 1e-10)")


def test_criterion_11_flux_symmetry():
    worst_spec = 0.0
    worst_chi = 0.0
    for f in (0.3, 0.45, 0.62):
        a = fluxonium_spectrum(PARAMS, FluxBias(f))[0][:10]
        b = fluxonium_spectrum(PARAMS, FluxBias(1.0 - f))[0][:10]
        worst_spec = max(worst_spec, float(np.max(np.abs(a - b))))
    for f in (0.45, 0.62):
        ca = dispersive_shift(PARAMS, FluxBias(f), RES)
        cb = dispersive_shift(PARAMS, FluxBias(1.0 - f), RES)
        worst_chi = max(worst_chi, abs(ca - cb))
    ok = worst_spec < 1e-8 and worst_chi < 1e-8
    _report(11, "flux symmetry", ok,
            f"spectrum deviation {worst_spec:.2e}, chi deviation "
            f"{worst_chi:.2e} (both < 1e-8)")


def test_criterion_12_convergence_ladder():
    chi_base = dispersive_shift(PARAMS, FluxBias(0.5), RES,
                                dims=CoupledDims(40, 8, 8))
    chi_fine = dispersive_shift(PARAMS, FluxBias(0.5), RES,
                                dims=CoupledDims(60, 12, 10))
    chi_dev = abs(chi_fine / chi_base - 1.0)
    e40 = fluxonium_spectrum(PARAMS, FluxBias(0.5), 40)[0][:6]
    e60 = fluxonium_spectrum(PARAMS, FluxBias(0.5), 60)[0][:6]
    e_dev = float(np.max(np.abs(e40 - e60)))
    ok = chi_dev < 0.01 and e_dev < units.ghz(1e-6)
    _report(12, "convergence ladder", ok,
            f"chi change {100 * chi_dev:.4f}% (< 1%), eigenvalue change "
            f"{units.to_ghz(e_dev):.2e} GHz (< 1e-6)")


def test_criterion_13_gate_propagator_contracts(gate_space):
    dim = gate_space.h0_evals.size
    worst_defect = 0.0
    for tau, pulse in OPT_PULSE.items():
        u = propagate_gate(gate_space, pulse)
        worst_defect = max(worst_defect, float(np.max(np.abs(
            u.conj().T @ u - np.eye(dim)))))
        result = gate_fidelity(u, gate_space, pulse)
        assert 0.0 <= result.fidelity <= 1.0
    identity = gate_fidelity(np.eye(dim, dtype=complex), gate_space,
                             OPT_PULSE[10.0])
    id_dev = abs(identity.fidelity - 1.0 / 3.0)
    ok = worst_defect < 1e-8 and id_dev < 1e-12
    _report(13, "gate propagator contracts", ok,
            f"max unitarity defect {worst_defect:.2e} (< 1e-8), F in [0,1], "
            f"identity-vs-X = 1/3 (deviation {id_dev:.2e})")


def test_criterion_14_worker_determinism(tmp_path, monkeypatch):
    """The sweep on 1 and on 3 threads, forced whatever the BLAS thread
    variables say: the 81 canonical fluxes of the chi window are 6 blocks,
    which 3 threads solve concurrently and the sweep joins in order."""
    import json as _json
    raw = {
        "device": {"e_j_ghz": 4.75, "e_c_ghz": 1.25, "e_l_ghz": 1.5},
        "chi_curve": {"f_min": 0.45, "f_max": 0.66, "step": 2e-3},
        "readout": {"t_max_ns": 50.0},
        "noise": {"scale": 1e-3, "n_draws": 4},
    }
    outputs = {}
    for workers in (1, 3):
        monkeypatch.setattr(coupled, "_sweep_workers", lambda: workers)
        out = tmp_path / f"w{workers}"
        cfg_path = tmp_path / f"cfg{workers}.json"
        cfg_path.write_text(_json.dumps({**raw, "out_dir": str(out)}))
        for sub in ("chi-curve", "noise-readout"):
            assert main([sub, "--config", str(cfg_path)]) == 0
        outputs[workers] = {
            name: (out / name).read_bytes()
            for name in ("chi_curve.csv", "noise_readout_snr.csv",
                         "noise_readout_error.csv")
        }
    ok = outputs[1] == outputs[3]
    _report(14, "worker-count determinism", ok,
            "chi-curve and noise-readout CSVs byte-identical for "
            "1 vs 3 workers")


def test_criterion_15_erfc_and_error_curve(static_traj):
    xs = np.concatenate([np.linspace(-6.0, 6.0, 1201),
                         np.linspace(6.0, 30.0, 97)])
    worst = max(abs(g - math.erfc(x)) for g, x in zip(erfc(xs), xs))
    pointwise = all(static_traj.error[i] == 0.5 * erfc(0.5 * static_traj.snr[i])
                    for i in range(0, static_traj.times.size, 101))
    ok = worst < 1e-12 and pointwise
    _report(15, "erfc and error curve", ok,
            f"max |erfc - math.erfc| = {worst:.2e} (< 1e-12), "
            f"error = erfc(SNR/2)/2 pointwise: {pointwise}")

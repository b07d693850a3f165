"""Acceptance suite: one test (and one printed PASS/FAIL line) per criterion.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines. Criterion 7a checks the absolute noisy-gate error level (~0.20 in
the Gaussian limit at scale 1e-2, tau_g = 10 ns) against an independent
multilevel reference computed inside the test; the 0.36 +- 0.10 band it
once used had no source in the repository. See the criterion docstring.
"""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from fluxsim import units
from fluxsim.cli import main
from fluxsim.coupled import (
    CoupledDims,
    CouplingMode,
    ResonatorParams,
    build_chi_profile,
    dispersive_shift,
    find_anticrossing,
    transition_detuning,
    two_level_eigensystem,
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
    DEFAULT_DIM,
    EnergyParams,
    FluxBias,
    anharmonicity,
    build_ho_operators,
    charge_matrix_element,
    fluxonium_spectrum,
)
from fluxsim.readout import (
    FluxRamp,
    ReadoutConfig,
    drive_amplitude,
    integrate_langevin,
    output_field,
    run_ramped_readout,
    run_static_readout,
    static_output_field,
    time_grid,
)
from fluxsim.special import erfc

PARAMS = EnergyParams.from_ghz(4.75, 1.25, 1.5)
RES = ResonatorParams.from_ghz(7.0, 5.0, 50.0)
KAPPA = units.mhz(5.0)
RAMP = FluxRamp(0.5, 0.641, 50.0)

# pulses optimized at the sweet spot with the default settings; their
# residual errors are re-verified below before any Monte Carlo uses them
OPT_PULSE = {}


def _report(num, name, ok, detail=""):
    print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module")
def profile():
    return build_chi_profile(PARAMS, RES)


@pytest.fixture(scope="module")
def readout_cfg():
    return ReadoutConfig(n_bar=10.0, eta=1.0, kappa=KAPPA, t_max=250.0, dt=0.05)


@pytest.fixture(scope="module")
def static_traj(profile, readout_cfg):
    return run_static_readout(profile.chi_at(0.5), readout_cfg)


@pytest.fixture(scope="module")
def pulsed_traj(profile, readout_cfg):
    return run_ramped_readout(RAMP, profile, readout_cfg)


@pytest.fixture(scope="module")
def gate_space():
    space = build_gate_space(PARAMS, FluxBias(0.5), RES)
    OPT_PULSE[10.0] = PulseParams(10.0, 1.557152, 4.7745, space.omega_01)
    OPT_PULSE[30.0] = PulseParams(30.0, 0.518938, 4.7634, space.omega_01)
    return space


@pytest.fixture(scope="module")
def gate_mc_curves(gate_space):
    """Gate-error Monte Carlo per noise scale, 50 draws each, on the axis
    tau_g = (10, 30)."""
    for pulse in OPT_PULSE.values():
        assert evaluate_gate(gate_space, pulse).error < 1e-6
    pulses = [OPT_PULSE[10.0], OPT_PULSE[30.0]]
    return {scale: noisy_gate_error(PARAMS, RES, pulses, NoiseSpec(scale))
            for scale in (1e-2, 1e-3, 1e-4)}


@pytest.fixture(scope="module")
def gate_mc(gate_mc_curves):
    """Mean gate error per (tau_g, noise scale), 50 draws each."""
    return {scale: {float(tau): curve.mean[i] for i, tau in enumerate(curve.axis)}
            for scale, curve in gate_mc_curves.items()}


# Levels kept by the criterion-7a reference: the gate space keeps 6 qubit
# levels, so at zero coupling the reference and the program hold the same
# Hamiltonian and must agree to integrator accuracy.
REF_LEVELS = 6


def _reference_gate_errors(deltas, pulse, levels=REF_LEVELS):
    """Independent reference for the gate error of a frozen DRAG pulse at
    the offset biases 0.5 + delta: the lowest `levels` bare-fluxonium levels
    (no resonator), built from fluxsim.qubit alone.

    The drive eps_d [2 s sin(omega_d t) + (lam / alpha) ds/dt cos(omega_d t)]
    couples through the charge operator, with s = (1 - cos(2 pi t / tau_g))/2
    and alpha the delta=0 anharmonicity. The propagator is integrated in the
    lab frame by adaptive DOP853 (rtol 1e-11), all offsets in one batch.
    The error is 1 - F with the leakage-aware average fidelity
    F = (Tr(M^dag M) + |Tr M|^2) / 6 (Pedersen, Moller & Molmer 2007) of
    M = X Z(phi) P U P on bare |0>, |1>, maximised over the virtual-Z
    phase phi.
    """
    alpha = anharmonicity(PARAMS, FluxBias(0.5))
    _, _, n_op, _ = build_ho_operators(DEFAULT_DIM, PARAMS.phi0)
    energies, charge = [], []
    for delta in deltas:
        spec = fluxonium_spectrum(PARAMS, FluxBias(0.5 + delta))
        v = spec.eigenvectors[:, :levels]
        energies.append(spec.eigenvalues[:levels] - spec.eigenvalues[0])
        charge.append(v.conj().T @ n_op @ v)
    energies, charge = np.array(energies), np.array(charge)
    w = 2.0 * math.pi / pulse.tau_g

    def rhs(t, y):
        s = 0.5 * (1.0 - math.cos(w * t))
        ds = 0.5 * w * math.sin(w * t)
        u = pulse.eps_d * (2.0 * s * math.sin(pulse.omega_d * t)
                           + (pulse.lam / alpha) * ds * math.cos(pulse.omega_d * t))
        prop = y.reshape(charge.shape)
        return (-1j * (energies[:, :, None] * prop + u * (charge @ prop))).ravel()

    start = np.broadcast_to(np.eye(levels, dtype=complex), charge.shape).ravel()
    sol = solve_ivp(rhs, (0.0, pulse.tau_g), start, method="DOP853",
                    rtol=1e-11, atol=1e-12)
    assert sol.success, sol.message
    m = sol.y[:, -1].reshape(charge.shape)[:, :2, :2]
    tr_mm = np.einsum("kij,kij->k", m.conj(), m).real
    # |Tr(X Z(phi) m)| = |m[0,1] + e^{i phi} m[1,0]|, largest at |m01| + |m10|
    best_tr = np.abs(m[:, 0, 1]) + np.abs(m[:, 1, 0])
    return 1.0 - (tr_mm + best_tr ** 2) / 6.0


def test_criterion_1_sweet_spot_spectrum():
    spec = fluxonium_spectrum(PARAMS, FluxBias(0.5))
    wq = units.to_ghz(spec.transition(1, 0))
    chi = units.to_mhz(dispersive_shift(PARAMS, FluxBias(0.5), RES))
    ok = abs(wq / 1.05 - 1.0) < 0.02 and abs(chi / 0.527 - 1.0) < 0.10
    _report(1, "sweet-spot spectrum", ok,
            f"omega_q={wq:.4f} GHz (1.05 +- 2%), chi={chi:.4f} MHz (0.527 +- 10%)")


def test_criterion_2_readout_point_spectrum():
    flux = FluxBias(0.641)
    spec = fluxonium_spectrum(PARAMS, flux)
    wq = units.to_ghz(spec.transition(1, 0))
    chi = units.to_mhz(dispersive_shift(PARAMS, flux, RES))
    dims = CoupledDims()
    d10 = units.to_ghz(transition_detuning(PARAMS, flux, RES,
                                           CouplingMode.LADDER_RWA, dims, 1, 0))
    d20 = units.to_mhz(transition_detuning(PARAMS, flux, RES,
                                           CouplingMode.LADDER_RWA, dims, 2, 0))
    ok = (abs(wq / 4.6 - 1.0) < 0.02 and abs(chi / -7.95 - 1.0) < 0.10
          and abs(d10 / -2.4 - 1.0) < 0.05 and abs(d20 / -67.0 - 1.0) < 0.15)
    _report(2, "readout-point spectrum", ok,
            f"omega_q={wq:.4f} GHz, chi={chi:.3f} MHz, "
            f"Delta_10={d10:.4f} GHz, Delta_20={d20:.2f} MHz")


def test_criterion_3_charge_matrix_element():
    spec = fluxonium_spectrum(PARAMS, FluxBias(0.641))
    g_eff = units.to_mhz(RES.g) * abs(charge_matrix_element(spec, 2, 0))
    ok = abs(g_eff / 18.32 - 1.0) < 0.05
    _report(3, "charge matrix element", ok,
            f"g*|<2|n|0>|={g_eff:.3f} MHz (18.32 +- 5%)")


def test_criterion_4_anticrossing():
    ac = find_anticrossing(PARAMS, RES, CouplingMode.CHARGE)
    g31 = units.to_mhz(ac.g_ij)
    ok = (abs(g31 / 5.81 - 1.0) < 0.05 and abs(ac.t_swap / 43.0 - 1.0) < 0.05
          and abs(ac.f_star - 0.575) < 0.01)
    _report(4, "3-1 anticrossing", ok,
            f"g_31={g31:.3f} MHz (5.81 +- 5%), t_swap={ac.t_swap:.2f} ns "
            f"(43 +- 5%), f*={ac.f_star:.4f}")


def test_criterion_5_snr_improvement_ratio(profile, readout_cfg,
                                           static_traj, pulsed_traj):
    snr_static, _ = static_traj.at_time(200.0)
    snr_pulsed, _ = pulsed_traj.at_time(200.0)
    ratio = snr_pulsed / snr_static
    quarter_cfg = ReadoutConfig(n_bar=10.0, eta=0.25, kappa=KAPPA,
                                t_max=250.0, dt=0.05)
    full_cfg = ReadoutConfig(n_bar=10.0, eta=1.0, kappa=KAPPA,
                             t_max=250.0, dt=0.05)
    quarter = run_ramped_readout(RAMP, profile, quarter_cfg)
    full = run_ramped_readout(RAMP, profile, full_cfg)
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
    mean_snr, _ = noisy.snr.at_axis(200.0)
    mean_err, _ = noisy.error.at_axis(200.0)
    static_snr, _ = static_traj.at_time(200.0)  # eta=1 baseline
    ratio = mean_snr / static_snr
    noise_free = run_ramped_readout(RAMP, profile, cfg)
    nf_snr, _ = noise_free.at_time(200.0)
    small = noisy_readout_snr(RAMP, profile, cfg, NoiseSpec(1e-3))
    small_snr, _ = small.snr.at_axis(200.0)
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
    with the same frozen pulse (see _reference_gate_errors).

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
    curve = gate_mc_curves[1e-2]
    assert curve.axis[0] == 10.0
    program = curve.draws[:, 0]
    reference = _reference_gate_errors(sample_flux_offsets(NoiseSpec(1e-2)), pulse)
    mean_dev = abs(curve.mean[0] - reference.mean())
    worst = float(np.max(np.abs(program - reference)))

    probes = (0.0, 0.009, 0.0139)
    at_probes = _reference_gate_errors(probes, pulse)
    truncation = float(np.max(np.abs(
        _reference_gate_errors(probes, pulse, REF_LEVELS + 1) - at_probes)))
    uncoupled = ResonatorParams.from_ghz(7.0, 5.0, 0.0)
    zero_g = max(abs(gate_draw(d, PARAMS, uncoupled, pulse).error - ref)
                 for d, ref in zip(probes, at_probes))

    ok = (mean_dev < 2e-3 and worst < 5e-3
          and truncation < 2e-4 and zero_g < 1e-7)
    _report("7a", "noisy gate error level", ok,
            f"mean error(scale=1e-2, tau_g=10): program {curve.mean[0]:.4f}, "
            f"reference {reference.mean():.4f} (|diff| {mean_dev:.1e} < 2e-3); "
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
    chi = profile.chi_at(0.5)
    eps = drive_amplitude(10.0, KAPPA, chi)
    times = time_grid(1000.0, 0.05)
    worst = 0.0
    for sz in (+1, -1):
        alpha = integrate_langevin(
            lambda t: np.full_like(np.asarray(t, float), chi),
            KAPPA, eps, sz, times)
        out = output_field(alpha, KAPPA, eps)
        ref = np.array([static_output_field(chi, KAPPA, eps, sz, float(t))
                        for t in times])
        worst = max(worst, float(np.max(np.abs(out - ref))))
    ok = worst < 1e-8
    _report(8, "closed-form readout oracle", ok,
            f"max |ODE - closed form| = {worst:.2e} (< 1e-8 over 1 us)")


def test_criterion_9_jaynes_cummings_oracle():
    omega_q = units.ghz(5.2)
    dressed = two_level_eigensystem(omega_q, RES, CouplingMode.LADDER_RWA, 8)
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

    worst = max(abs(dressed.energy(i, n) - exact(i, n))
                for i in range(2) for n in range(4))
    ok = worst < 1e-10
    _report(9, "Jaynes-Cummings oracle", ok,
            f"max dressed-energy deviation = {worst:.2e} (< 1e-10)")


def test_criterion_10_harmonic_limit():
    params = EnergyParams(0.0, units.ghz(1.25), units.ghz(1.5))
    spec = fluxonium_spectrum(params, FluxBias(0.3), 60)
    gaps = np.diff(spec.eigenvalues[:12])
    expected = math.sqrt(8.0 * params.e_c * params.e_l)
    worst = float(np.max(np.abs(gaps / expected - 1.0)))
    ok = worst < 1e-10
    _report(10, "harmonic limit", ok,
            f"max relative spacing deviation = {worst:.2e} (< 1e-10)")


def test_criterion_11_flux_symmetry():
    worst_spec = 0.0
    worst_chi = 0.0
    for f in (0.3, 0.45, 0.62):
        a = fluxonium_spectrum(PARAMS, FluxBias(f)).eigenvalues[:10]
        b = fluxonium_spectrum(PARAMS, FluxBias(1.0 - f)).eigenvalues[:10]
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
    e40 = fluxonium_spectrum(PARAMS, FluxBias(0.5), 40).eigenvalues[:6]
    e60 = fluxonium_spectrum(PARAMS, FluxBias(0.5), 60).eigenvalues[:6]
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


def test_criterion_14_worker_determinism(tmp_path):
    import json as _json
    raw = {
        "device": {"e_j_ghz": 4.75, "e_c_ghz": 1.25, "e_l_ghz": 1.5},
        "chi_curve": {"f_min": 0.45, "f_max": 0.66, "step": 2e-3},
        "readout": {"t_max_ns": 50.0},
        "noise": {"scale": 1e-3, "n_draws": 4},
    }
    outputs = {}
    for workers in (1, 3):
        out = tmp_path / f"w{workers}"
        cfg_path = tmp_path / f"cfg{workers}.json"
        cfg_path.write_text(_json.dumps({**raw, "out_dir": str(out)}))
        for sub in ("chi-curve", "noise-readout"):
            assert main([sub, "--config", str(cfg_path),
                         "--workers", str(workers)]) == 0
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

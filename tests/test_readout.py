"""Tests for the Langevin readout dynamics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluxsim import units
from fluxsim.coupled import ResonatorParams, dispersive_shift
from fluxsim.errors import DomainError
from fluxsim.qubit import EnergyParams, FluxBias
from fluxsim.readout import (
    ChiProfile,
    FluxRamp,
    ReadoutConfig,
    drive_amplitude,
    flux_ramp_profile,
    integrate_langevin,
    measurement_signal,
    optimal_demod_phase,
    output_field,
    qubit_phase_shift,
    readout_error,
    run_ramped_readout,
    run_readout,
    run_static_readout,
    snr_curve,
    static_output_field,
    time_grid,
)
from fluxsim.special import erfc

KAPPA = units.mhz(5.0)
CHI = units.mhz(0.527)


def _reference_langevin(chi_of_t, kappa, epsilon, sigma_z, times):
    """The scalar RK4 loop the batched kernel replaced, one trajectory and
    one step at a time."""
    times = np.asarray(times, dtype=float)
    n = times.size - 1
    dt = times[1] - times[0]
    t_half = np.linspace(times[0], times[-1], 2 * n + 1)
    chi_half = np.asarray(chi_of_t(t_half), dtype=float)
    a_half = -1j * chi_half * float(sigma_z) - 0.5 * kappa
    alpha = np.empty(n + 1, dtype=complex)
    alpha[0] = 0.0
    y = 0.0 + 0.0j
    eps = complex(epsilon)
    for s in range(n):
        a1 = a_half[2 * s]
        a2 = a_half[2 * s + 1]
        a4 = a_half[2 * s + 2]
        k1 = a1 * y + eps
        k2 = a2 * (y + 0.5 * dt * k1) + eps
        k3 = a2 * (y + 0.5 * dt * k2) + eps
        k4 = a4 * (y + dt * k3) + eps
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        alpha[s + 1] = y
    return alpha


def _synthetic_profile():
    grid = np.linspace(0.4, 0.7, 31)
    vals = units.mhz(0.5 - 60.0 * (grid - 0.5))
    return ChiProfile(grid, vals, clamp=units.mhz(50.0))


def test_langevin_matches_closed_form_static():
    cfg = ReadoutConfig(n_bar=10.0, kappa=KAPPA, t_max=1000.0, dt=0.05)
    times = time_grid(cfg.t_max, cfg.dt)
    eps = drive_amplitude(cfg.n_bar, cfg.kappa, CHI)
    for sz in (+1, -1):
        alpha = integrate_langevin(lambda t: np.full_like(np.asarray(t, float), CHI),
                                   cfg.kappa, eps, sz, times)
        out = output_field(alpha, cfg.kappa, eps)
        sample = range(0, times.size, 97)
        worst = max(abs(out[i] - static_output_field(CHI, cfg.kappa, eps, sz,
                                                     float(times[i])))
                    for i in sample)
        assert worst < 1e-8


def test_steady_state_photon_number():
    cfg = ReadoutConfig(n_bar=10.0, kappa=KAPPA, t_max=3000.0, dt=0.05)
    traj = run_static_readout(CHI, cfg)
    assert abs(traj.alpha_plus[-1]) ** 2 == pytest.approx(10.0, rel=1e-6)
    assert abs(traj.alpha_minus[-1]) ** 2 == pytest.approx(10.0, rel=1e-6)


def test_static_output_field_limits():
    eps = drive_amplitude(10.0, KAPPA, CHI)
    at0 = static_output_field(CHI, KAPPA, eps, +1, 0.0)
    assert at0 == pytest.approx(-eps / math.sqrt(KAPPA), abs=1e-12)
    phi = qubit_phase_shift(CHI, KAPPA)
    late = static_output_field(CHI, KAPPA, eps, +1, 1e7)
    want = (eps / math.sqrt(KAPPA)) * np.exp(-1j * phi)
    assert abs(late - want) < 1e-12


def test_eta_quarter_halves_snr_pointwise():
    base = ReadoutConfig(n_bar=10.0, eta=1.0, kappa=KAPPA, t_max=300.0,
                         dt=0.05)
    quarter = ReadoutConfig(n_bar=10.0, eta=0.25, kappa=KAPPA, t_max=300.0,
                            dt=0.05)
    full = run_static_readout(CHI, base)
    half = run_static_readout(CHI, quarter)
    assert np.max(np.abs(2.0 * half.snr - full.snr)) < 1e-12


@settings(max_examples=25, deadline=None)
@given(chi_mhz=st.floats(-3.0, 3.0),
       eta=st.floats(0.0, 1.0, exclude_min=True))
def test_snr_scales_with_root_eta(chi_mhz, eta):
    # the quadrature does not depend on eta, so M_S and SNR scale as sqrt(eta)
    kw = {"n_bar": 10.0, "kappa": KAPPA, "t_max": 100.0, "dt": 0.05}
    chi = units.mhz(chi_mhz)
    full = run_static_readout(chi, ReadoutConfig(eta=1.0, **kw))
    part = run_static_readout(chi, ReadoutConfig(eta=eta, **kw))
    assert np.max(np.abs(part.snr - math.sqrt(eta) * full.snr)) < 1e-12
    assert np.all((part.error >= 0.0) & (part.error <= 0.5))


def test_optimal_demod_phase_is_quadrature():
    cfg = ReadoutConfig(n_bar=10.0, kappa=KAPPA, t_max=300.0, dt=0.05)
    traj = run_static_readout(CHI, cfg)
    assert traj.theta == -math.pi / 2


def test_demod_phase_maximizes_contrast_of_any_pair():
    # pairs that are not conjugate: the closed form against a dense scan
    rng = np.random.default_rng(5)
    times = time_grid(20.0, 0.5)
    scan = np.linspace(-math.pi, math.pi, 4001)

    def contrast(a0, a1, theta):
        m0, m1 = measurement_signal(a0, a1, 1.0, theta, times, 1.0)
        return abs(m0[-1] - m1[-1])

    for _ in range(10):
        a0, a1 = rng.normal(size=(2, times.size)) + 1j * rng.normal(
            size=(2, times.size))
        theta = optimal_demod_phase(a0, a1, times)
        assert -math.pi < theta <= 0.0
        best = max(contrast(a0, a1, th) for th in scan)
        got = contrast(a0, a1, theta)
        assert got >= best * (1.0 - 1e-12)
        assert got <= best * (1.0 + 1e-6)  # the scan's resolution


def test_static_snr_calibration_constant():
    params = EnergyParams.from_ghz(4.75, 1.25, 1.5)
    res = ResonatorParams.from_ghz(7.0, 5.0, 50.0)
    chi = dispersive_shift(params, FluxBias(0.5), res)
    cfg = ReadoutConfig(n_bar=10.0, eta=1.0, kappa=KAPPA, t_max=250.0, dt=0.05)
    traj = run_static_readout(chi, cfg)
    snr, _ = traj.at_time(200.0)
    assert snr == pytest.approx(2.0729907011622464, rel=1e-9)


def test_error_curve_is_half_erfc_of_half_snr():
    cfg = ReadoutConfig(n_bar=10.0, kappa=KAPPA, t_max=200.0, dt=0.05)
    traj = run_static_readout(CHI, cfg)
    for i in range(0, traj.times.size, 203):
        assert traj.error[i] == 0.5 * erfc(0.5 * traj.snr[i])
    assert readout_error(0.0) == pytest.approx(0.5, abs=1e-15)


def test_snr_zero_at_origin():
    cfg = ReadoutConfig(n_bar=10.0, kappa=KAPPA, t_max=100.0, dt=0.05)
    traj = run_static_readout(CHI, cfg)
    assert traj.snr[0] == 0.0
    assert traj.m_s_plus[0] == 0.0 and traj.m_s_minus[0] == 0.0


def test_flux_ramp_shape():
    ramp = FluxRamp(0.5, 0.641, 50.0)
    assert ramp.flux_at(0.0) == 0.5
    assert ramp.flux_at(25.0) == pytest.approx(0.5705)
    assert ramp.flux_at(50.0) == pytest.approx(0.641)
    assert ramp.flux_at(500.0) == pytest.approx(0.641)
    shifted = ramp.shifted(0.01)
    assert shifted.f_start == pytest.approx(0.51)
    assert shifted.f_end == pytest.approx(0.651)
    step = FluxRamp(0.5, 0.6, 0.0)
    assert step.flux_at(0.0) == 0.5 and step.flux_at(1e-9) == 0.6
    with pytest.raises(ValueError):
        FluxRamp(0.5, 0.6, -1.0)
    for bad in ((math.nan, 0.6, 50.0), (0.5, math.nan, 50.0),
                (0.5, math.inf, 50.0), (0.5, 0.6, math.nan),
                (0.5, 0.6, math.inf)):
        with pytest.raises(ValueError, match="finite"):
            FluxRamp(*bad)


def test_chi_profile_interpolation_and_clamp():
    grid = np.array([0.4, 0.5, 0.6])
    vals = np.array([1.0, 3.0, 200.0])
    profile = ChiProfile(grid, vals, clamp=10.0)
    assert profile.chi_at(0.45) == pytest.approx(2.0)
    assert profile.chi_at(0.6) == 10.0  # clamped on evaluation
    with pytest.raises(DomainError):
        profile.chi_at(0.39)
    with pytest.raises(DomainError):
        profile.chi_at(0.61)
    with pytest.raises(ValueError):
        ChiProfile(np.array([0.5, 0.4]), np.array([1.0, 2.0]))


def test_flux_ramp_profile_domain_check():
    profile = ChiProfile(np.array([0.45, 0.55]), np.array([1.0, 2.0]), clamp=10.0)
    with pytest.raises(DomainError):
        flux_ramp_profile(FluxRamp(0.5, 0.641, 50.0), profile)
    chi_of_t = flux_ramp_profile(FluxRamp(0.46, 0.54, 10.0), profile)
    assert chi_of_t(0.0) == pytest.approx(1.1)


def test_ramped_readout_targets_plateau_chi():
    profile = _synthetic_profile()
    ramp = FluxRamp(0.5, 0.641, 50.0)
    cfg = ReadoutConfig(n_bar=10.0, kappa=KAPPA, t_max=300.0, dt=0.05)
    traj = run_ramped_readout(ramp, profile, cfg)
    want_eps = drive_amplitude(10.0, KAPPA, profile.chi_at(0.641))
    assert traj.epsilon == pytest.approx(want_eps, rel=1e-12)
    assert np.all(np.isfinite(traj.snr))


def test_time_grid_rounding():
    t = time_grid(1.0, 0.3)
    assert t.size == 4 and t[-1] == pytest.approx(0.9)
    t = time_grid(10.0, 0.05)
    assert t.size == 201 and t[-1] == pytest.approx(10.0)


def test_drive_amplitude_and_phase_shift():
    assert drive_amplitude(0.0, KAPPA, CHI) == 0.0
    assert drive_amplitude(4.0, KAPPA, 0.0) == pytest.approx(2.0 * KAPPA / 2.0)
    assert qubit_phase_shift(0.0, KAPPA) == 0.0
    assert qubit_phase_shift(KAPPA / 2.0, KAPPA) == pytest.approx(math.pi / 2.0)
    with pytest.raises(ValueError):
        drive_amplitude(-1.0, KAPPA, CHI)
    with pytest.raises(ValueError):
        qubit_phase_shift(CHI, 0.0)


def test_readout_config_validation():
    with pytest.raises(ValueError):
        ReadoutConfig(eta=0.0)
    with pytest.raises(ValueError):
        ReadoutConfig(eta=1.5)
    with pytest.raises(ValueError):
        ReadoutConfig(n_bar=-1.0)
    with pytest.raises(ValueError):
        ReadoutConfig(dt=0.0)
    for bad in ({"n_bar": math.nan}, {"kappa": math.nan}, {"kappa": math.inf},
                {"t_max": math.inf}, {"t_max": math.nan}, {"dt": math.nan},
                {"dt": math.inf}):
        with pytest.raises(ValueError, match="finite"):
            ReadoutConfig(**bad)


CASES = {"static": None, "ramp": 0.0, "ramp+0.01": 0.01, "ramp-0.02": -0.02}


def _readout_case(name):
    """(chi_of_t, chi_target): static chi, or the flux ramp shifted by a
    quasi-static offset."""
    delta = CASES[name]
    if delta is None:
        return lambda t: np.full_like(np.asarray(t, float), CHI), CHI
    profile = _synthetic_profile()
    shifted = FluxRamp(0.5, 0.641, 50.0).shifted(delta)
    return flux_ramp_profile(shifted, profile), profile.chi_at(shifted.f_end)


@pytest.mark.parametrize("name", CASES)
def test_readout_matches_scalar_rk4_reference(name):
    # same RK4 map, rounded differently: fields to 1e-12, error to 1e-13
    chi_of_t, chi_target = _readout_case(name)
    cfg = ReadoutConfig(n_bar=10.0, eta=0.25, kappa=KAPPA, t_max=1000.0,
                        dt=0.05)
    traj = run_readout(chi_of_t, chi_target, cfg)
    times = time_grid(cfg.t_max, cfg.dt)
    eps = drive_amplitude(cfg.n_bar, cfg.kappa, chi_target)
    ref_p = _reference_langevin(chi_of_t, cfg.kappa, eps, +1, times)
    ref_m = _reference_langevin(chi_of_t, cfg.kappa, eps, -1, times)
    assert np.max(np.abs(traj.alpha_plus - ref_p)) <= 1e-12
    assert np.max(np.abs(traj.alpha_minus - ref_m)) <= 1e-12
    out_p = output_field(ref_p, cfg.kappa, eps)
    out_m = output_field(ref_m, cfg.kappa, eps)
    theta = optimal_demod_phase(out_p, out_m, times)
    m_p, m_m = measurement_signal(out_p, out_m, cfg.eta, theta, times, cfg.kappa)
    ref_error = [0.5 * math.erfc(0.5 * x)
                 for x in snr_curve(m_p, m_m, cfg.kappa, times)]
    assert np.max(np.abs(traj.error - ref_error)) <= 1e-13


@pytest.mark.parametrize("name", CASES)
def test_minus_field_is_conjugate_of_plus(name):
    chi_of_t, chi_target = _readout_case(name)
    cfg = ReadoutConfig(n_bar=10.0, kappa=KAPPA, t_max=250.0, dt=0.05)
    traj = run_readout(chi_of_t, chi_target, cfg)
    assert np.array_equal(traj.alpha_minus, traj.alpha_plus.conj())
    times = time_grid(cfg.t_max, cfg.dt)
    assert np.array_equal(
        integrate_langevin(chi_of_t, cfg.kappa, traj.epsilon, -1, times),
        integrate_langevin(chi_of_t, cfg.kappa, traj.epsilon, +1, times).conj())


# The 64-point scan plus golden-section refinement that the closed form
# replaced stalled at this angle (-pi/2 - 1.05e-8) for every conjugate pair.
SEARCHED_THETA = -1.57079633730347


@pytest.mark.parametrize("name", CASES)
def test_closed_form_quadrature_against_searched_angle(name):
    # the readout CSV columns move by at most these bounds: fields not at
    # all; m_s by the angle error times the in-phase signal, to first
    # order; SNR and error by rounding only (the contrast is stationary at
    # the optimum)
    chi_of_t, chi_target = _readout_case(name)
    cfg = ReadoutConfig(n_bar=10.0, kappa=KAPPA, t_max=1000.0, dt=0.05)
    traj = run_readout(chi_of_t, chi_target, cfg)
    fields = (traj.alpha_out_plus, traj.alpha_out_minus)
    m_p, m_m = measurement_signal(*fields, cfg.eta, SEARCHED_THETA,
                                  traj.times, cfg.kappa)
    snr = snr_curve(m_p, m_m, cfg.kappa, traj.times)
    in_phase = measurement_signal(*fields, cfg.eta, 0.0, traj.times, cfg.kappa)
    bound = (1.001 * abs(SEARCHED_THETA + math.pi / 2)
             * np.max(np.abs(in_phase)) + 1e-12)
    assert np.max(np.abs(traj.m_s_plus - m_p)) <= bound
    assert np.max(np.abs(traj.m_s_minus - m_m)) <= bound
    assert np.max(np.abs(traj.snr - snr)) <= 1e-12
    assert np.max(np.abs(traj.error - readout_error(snr))) <= 1e-15


@pytest.mark.parametrize("name", [*CASES, "chi=0"])
def test_demod_phase_is_exactly_minus_quadrature(name):
    # conjugate output fields separate along the imaginary axis only
    if name == "chi=0":
        chi_of_t, chi_target = (lambda t: np.zeros_like(np.asarray(t, float)),
                                0.0)
    else:
        chi_of_t, chi_target = _readout_case(name)
    cfg = ReadoutConfig(n_bar=10.0, kappa=KAPPA, t_max=250.0, dt=0.05)
    assert run_readout(chi_of_t, chi_target, cfg).theta == -math.pi / 2

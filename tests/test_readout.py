"""Tests for the Langevin readout dynamics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluxsim import units
from fluxsim.coupled import ResonatorParams, dispersive_shift
from fluxsim.errors import DomainError, NumericalFailureError, StepSizeError
from fluxsim.qubit import EnergyParams, FluxBias
from fluxsim.readout import (
    ChiProfile,
    FluxRamp,
    ReadoutConfig,
    drive_amplitude,
    integrate_langevin,
    optimal_demod_phase,
    output_field,
    readout_error,
    ramp_inside,
    ramp_rows,
    readout_records,
    time_grid,
)
from fluxsim.special import erfc

from conftest import STATIC, at_time, flat_profile, readout_batch, reference

KAPPA_MHZ, CHI_MHZ = 5.0, 0.527
KAPPA = units.mhz(KAPPA_MHZ)
CHI = units.mhz(CHI_MHZ)


def _reference_langevin(chi_half, kappa, epsilon, sigma_z, times):
    """The scalar RK4 loop the batched kernel replaced, one trajectory and
    one step at a time; chi_half is chi on the half grid t_0, t_0 + dt/2,
    t_1, ..."""
    times = np.asarray(times, dtype=float)
    n = times.size - 1
    dt = times[1] - times[0]
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


def _demodulate(alpha_out_0, alpha_out_1, eta, theta, times, kappa):
    """Two-branch, any-angle demodulation, the reference for the record:
    per trajectory k, M_k = sqrt(kappa eta) cumtrapz 2 Re(e^{-i theta}
    alpha_out,k), M_k(0) = 0."""
    rot = np.exp(-1j * theta)
    dt = np.diff(np.asarray(times, dtype=float))
    out = []
    for traj in (alpha_out_0, alpha_out_1):
        integrand = 2.0 * np.real(rot * np.asarray(traj))
        cum = np.concatenate(([0.0], np.cumsum(0.5 * dt * (integrand[:-1]
                                                           + integrand[1:]))))
        out.append(math.sqrt(kappa * eta) * cum)
    return out[0], out[1]


def _two_branch_snr(m_0, m_1, kappa, times):
    """SNR(tau) = |M_0 - M_1| / sqrt(2 kappa tau), with SNR(0) = 0."""
    t = np.asarray(times, dtype=float)
    snr = np.zeros_like(t)
    pos = t > 0
    snr[pos] = np.abs(m_0 - m_1)[pos] / np.sqrt(2.0 * kappa * t[pos])
    return snr


def _two_branch_record(traj, cfg, theta=-0.5 * math.pi):
    """(out_0, out_1, m_0, m_1, snr, error) of the two-branch demodulation
    at theta of a record's sigma_z = +1 field and its conjugate."""
    out_0 = output_field(traj.alpha_plus, cfg.kappa, traj.epsilon)
    out_1 = output_field(traj.alpha_plus.conj(), cfg.kappa, traj.epsilon)
    m_0, m_1 = _demodulate(out_0, out_1, cfg.eta, theta, traj.times,
                           cfg.kappa)
    snr = _two_branch_snr(m_0, m_1, cfg.kappa, traj.times)
    return out_0, out_1, m_0, m_1, snr, readout_error(snr)


def _synthetic_profile():
    grid = np.linspace(0.4, 0.7, 31)
    vals = units.mhz(0.5 - 60.0 * (grid - 0.5))
    return ChiProfile(grid, vals, clamp=units.mhz(50.0))


def test_langevin_matches_closed_form_static():
    cfg = ReadoutConfig(n_bar=10.0, kappa=KAPPA, t_max=1000.0, dt=0.05)
    times = time_grid(cfg.t_max, cfg.dt)
    eps = drive_amplitude(cfg.n_bar, cfg.kappa, CHI)
    sample = times[::97]
    for sz in (+1, -1):
        # sigma_z = -1 is the negated chi row
        chi_half = np.full((1, 2 * times.size - 1), CHI * sz)
        (alpha,) = integrate_langevin(chi_half, cfg.kappa, [eps],
                                      times[1] - times[0]).T
        out = output_field(alpha, cfg.kappa, eps)[::97]
        # the reference sets its own drive from n_bar, in MHz
        want = reference.static_output_field(CHI_MHZ, KAPPA_MHZ, cfg.n_bar, sz,
                                              sample)
        assert np.max(np.abs(out - want)) < 1e-8


def test_steady_state_photon_number():
    cfg = ReadoutConfig(n_bar=10.0, kappa=KAPPA, t_max=3000.0, dt=0.05)
    traj = readout_batch([STATIC], flat_profile(CHI), cfg)[0]
    assert abs(traj.alpha_plus[-1]) ** 2 == pytest.approx(10.0, rel=1e-6)


def test_static_output_field_limits():
    # the reference field starts at alpha_in and settles at the steady-state
    # output, turned by the qubit phase shift phi = 2 arctan(2 chi / kappa)
    eps = drive_amplitude(10.0, KAPPA, CHI)
    at0, late = reference.static_output_field(CHI_MHZ, KAPPA_MHZ, 10.0, +1,
                                                [0.0, 1e7])
    assert at0 == pytest.approx(-eps / math.sqrt(KAPPA), abs=1e-12)
    phi = 2.0 * math.atan(2.0 * CHI / KAPPA)
    want = (eps / math.sqrt(KAPPA)) * np.exp(-1j * phi)
    assert abs(late - want) < 1e-12


def test_eta_quarter_halves_snr_pointwise():
    base = ReadoutConfig(n_bar=10.0, eta=1.0, kappa=KAPPA, t_max=300.0,
                         dt=0.05)
    quarter = ReadoutConfig(n_bar=10.0, eta=0.25, kappa=KAPPA, t_max=300.0,
                            dt=0.05)
    full = readout_batch([STATIC], flat_profile(CHI), base)[0]
    half = readout_batch([STATIC], flat_profile(CHI), quarter)[0]
    assert np.max(np.abs(2.0 * half.snr - full.snr)) < 1e-12


@settings(max_examples=25, deadline=None)
@given(chi_mhz=st.floats(-3.0, 3.0),
       eta=st.floats(0.0, 1.0, exclude_min=True))
def test_snr_scales_with_root_eta(chi_mhz, eta):
    # the quadrature does not depend on eta, so M_S and SNR scale as sqrt(eta)
    kw = {"n_bar": 10.0, "kappa": KAPPA, "t_max": 100.0, "dt": 0.05}
    chi = units.mhz(chi_mhz)
    full, part = (readout_batch([STATIC], flat_profile(chi),
                                ReadoutConfig(eta=e, **kw))[0]
                  for e in (1.0, eta))
    assert np.max(np.abs(part.snr - math.sqrt(eta) * full.snr)) < 1e-12
    assert np.all((part.error >= 0.0) & (part.error <= 0.5))


def test_optimal_demod_phase_is_quadrature():
    # the record's sigma_z = +1 output field and its conjugate
    cfg = ReadoutConfig(n_bar=10.0, kappa=KAPPA, t_max=300.0, dt=0.05)
    traj = readout_batch([STATIC], flat_profile(CHI), cfg)[0]
    out_0, out_1, *_ = _two_branch_record(traj, cfg)
    assert optimal_demod_phase(out_0, out_1, traj.times) == -math.pi / 2


def test_demod_phase_maximizes_contrast_of_any_pair():
    # pairs that are not conjugate: the closed form against a dense scan
    rng = np.random.default_rng(5)
    times = time_grid(20.0, 0.5)
    scan = np.linspace(-math.pi, math.pi, 4001)

    def contrast(a0, a1, theta):
        m0, m1 = _demodulate(a0, a1, 1.0, theta, times, 1.0)
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


def _closed_form_static_snr(chi_mhz, kappa_mhz, n_bar, eta, taus):
    """SNR(tau) of static readout from the reference's output field,
    integrated in closed form.

    That field relaxes from a0 = alpha_out(0) to a_inf = alpha_out(inf) at
    the complex rate r = kappa/2 + i chi, so its integral over [0, tau] is
    a_inf tau + (a0 - a_inf)(1 - e^{-r tau}) / r. The sigma_z = -1 field is
    its conjugate and the quadrature is -pi/2, so
    SNR = sqrt(kappa eta) 4 |Im integral| / sqrt(2 kappa tau)
        = 2 sqrt(2 eta / tau) |Im integral|, and SNR(0) = 0."""
    a0, a_inf = reference.static_output_field(chi_mhz, kappa_mhz, n_bar, +1,
                                              [0.0, 1e7])
    rate = 2e-3 * math.pi * (0.5 * kappa_mhz + 1j * chi_mhz)
    taus = np.asarray(taus, dtype=float)
    integral = a_inf * taus - (a0 - a_inf) * np.expm1(-rate * taus) / rate
    snr = np.zeros_like(taus)
    pos = taus > 0
    snr[pos] = 2.0 * np.sqrt(2.0 * eta / taus[pos]) * np.abs(integral[pos].imag)
    return snr


@pytest.mark.parametrize("chi_mhz", [CHI_MHZ, -7.95])
def test_static_snr_matches_closed_form_and_its_root_tau_limit(chi_mhz):
    # the static and pulsed plateau chi of criterion 5, at the default dt
    cfg = ReadoutConfig(n_bar=10.0, eta=0.5, kappa=KAPPA, t_max=20000.0)
    traj = readout_batch([STATIC], flat_profile(units.mhz(chi_mhz)), cfg)[0]
    want = _closed_form_static_snr(chi_mhz, KAPPA_MHZ, cfg.n_bar, cfg.eta,
                                   traj.times)
    dev = np.abs(traj.snr - want)
    # the trapezoidal signal integral: measured 1.3e-9 (chi = 0.527 MHz)
    # and 1.1e-8 (-7.95 MHz) of the peak SNR, and from 10 ns on 1.2e-5 of
    # the SNR itself
    assert dev.max() <= 2e-8 * want.max()
    late = traj.times >= 10.0
    assert np.max(dev[late] / want[late]) <= 2e-5
    # SNR / sqrt(tau) -> 2 sqrt(2 eta n_bar kappa) sin(arctan(2 |chi| / kappa))
    # as 1 - kappa / (|r|^2 tau), r = kappa/2 + i chi: 0.994 at 20 us for
    # 0.527 MHz, 0.9994 for -7.95 MHz
    chi = units.mhz(chi_mhz)
    limit = (2.0 * math.sqrt(2.0 * cfg.eta * cfg.n_bar * KAPPA)
             * math.sin(math.atan(2.0 * abs(chi) / KAPPA)))
    approach = 1.0 - KAPPA / ((0.25 * KAPPA ** 2 + chi ** 2) * traj.times[-1])
    for snr in (want[-1], traj.snr[-1]):
        ratio = snr / math.sqrt(traj.times[-1]) / limit
        assert ratio == pytest.approx(approach, rel=1e-10)
    assert 0.99 < approach < 1.0


def test_static_snr_calibration_constant():
    params = EnergyParams.from_ghz(4.75, 1.25, 1.5)
    res = ResonatorParams.from_ghz(7.0, 5.0, 50.0)
    chi = dispersive_shift(params, FluxBias(0.5), res)
    cfg = ReadoutConfig(n_bar=10.0, eta=1.0, kappa=KAPPA, t_max=250.0, dt=0.05)
    traj = readout_batch([STATIC], flat_profile(chi), cfg)[0]
    snr, _ = at_time(traj, 200.0)
    assert snr == pytest.approx(2.0729907011622464, rel=1e-9)
    # the value's source: the closed form at the reference's chi, which the
    # trapezoidal signal integral meets to 4.8e-9 here
    chi_mhz = reference.dispersive_shift_mhz(4.75, 1.25, 1.5, 0.5, 7.0, 50.0)
    (want,) = _closed_form_static_snr(chi_mhz, KAPPA_MHZ, 10.0, 1.0, [200.0])
    assert want == pytest.approx(2.0729907011622464, rel=1e-8)


def test_error_curve_is_half_erfc_of_half_snr():
    cfg = ReadoutConfig(n_bar=10.0, kappa=KAPPA, t_max=200.0, dt=0.05)
    traj = readout_batch([STATIC], flat_profile(CHI), cfg)[0]
    for i in range(0, traj.times.size, 203):
        assert traj.error[i] == 0.5 * erfc(0.5 * traj.snr[i])
    assert readout_error(0.0) == pytest.approx(0.5, abs=1e-15)


def test_snr_zero_at_origin():
    cfg = ReadoutConfig(n_bar=10.0, kappa=KAPPA, t_max=100.0, dt=0.05)
    traj = readout_batch([STATIC], flat_profile(CHI), cfg)[0]
    assert traj.snr[0] == 0.0
    assert traj.m_s_plus[0] == 0.0
    assert math.copysign(1.0, traj.m_s_plus[0]) == 1.0


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
    # clipped to +-clamp when built
    assert profile.chi_values.tolist() == [1.0, 3.0, 10.0]
    assert profile.chi_at(0.6) == 10.0
    with pytest.raises(DomainError):
        profile.chi_at(0.39)
    with pytest.raises(DomainError):
        profile.chi_at(0.61)
    with pytest.raises(ValueError):
        ChiProfile(np.array([0.5, 0.4]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError, match="not empty"):
        ChiProfile(np.array([]), np.array([]))


def _filled(vals, clamp):
    """The values a profile of vals holds, on a unit-step grid."""
    return list(ChiProfile(np.arange(len(vals), dtype=float), vals,
                           clamp).chi_values)


def test_fill_and_clamp_leading_and_interior_runs():
    vals = [math.nan, math.nan, -2.0, math.nan, 3.0, 100.0]
    assert _filled(vals, 5.0) == [-5.0, -5.0, -2.0, -5.0, 3.0, 5.0]


def test_zero_does_not_set_the_fill_sign():
    # an exact +-0.0 just before a resonant run does not choose its sign
    out = _filled([-2.0, 0.0, math.nan, math.nan, 3.0, -0.0, math.nan], 5.0)
    assert out == [-2.0, 0.0, -5.0, -5.0, 3.0, 0.0, 5.0]
    assert _filled([0.0, math.nan, -1.0], 5.0) == [0.0, -5.0, -1.0]
    assert _filled([math.nan, 0.0], 5.0) == [5.0, 0.0]


def test_entirely_resonant_profile_raises():
    for vals in ([math.nan], [math.nan, math.inf, -math.inf]):
        with pytest.raises(NumericalFailureError, match="entirely resonant"):
            ChiProfile(np.arange(len(vals), dtype=float), vals)


def _half_grid(cfg):
    times = time_grid(cfg.t_max, cfg.dt)
    return np.linspace(times[0], times[-1], 2 * (times.size - 1) + 1)


def test_ramp_rows_domain_check():
    profile = ChiProfile(np.array([0.45, 0.55]), np.array([1.0, 2.0]), clamp=10.0)
    cfg = ReadoutConfig(t_max=20.0, dt=0.05)
    inside = FluxRamp(0.46, 0.54, 10.0)
    # ramps that end off the profile (above, below) and start off it
    # (above, below), alone and after a ramp inside it
    for off, f_min, f_max in ((FluxRamp(0.5, 0.641, 50.0), 0.5, 0.641),
                              (FluxRamp(0.5, 0.44, 5.0), 0.44, 0.5),
                              (FluxRamp(0.56, 0.5, 5.0), 0.5, 0.56),
                              (FluxRamp(0.44, 0.5, 5.0), 0.44, 0.5)):
        assert not ramp_inside(off, profile)
        want = (rf"ramp flux range \[{f_min}, {f_max}\] outside chi profile "
                rf"domain \[0.45, 0.55\]")
        for ramps in ([off], [inside, off]):
            with pytest.raises(DomainError, match=want):
                ramp_rows(ramps, profile, cfg)
    # the grid's end points are inside
    for ramp in (inside, FluxRamp(0.45, 0.55, 10.0), FluxRamp(0.55, 0.55, 0.0)):
        assert ramp_inside(ramp, profile)
    (chi_half,), (target,) = ramp_rows([inside], profile, cfg)
    assert chi_half[0] == pytest.approx(1.1)
    assert target == profile.chi_at(0.54)


def test_ramp_rows_sample_each_ramp_through_the_profile(monkeypatch):
    # stacked rows equal each ramp's chi(flux_at(t)) on its own, bit for
    # bit, for 16 noise-shifted ramps; a ramp that never reaches its
    # plateau, a step at t = 0, a rise that ends between half-grid points,
    # a descending ramp; and the zero-height (static) ramp
    profile = _synthetic_profile()
    cfg = ReadoutConfig(kappa=KAPPA, t_max=250.0, dt=0.05)
    ramps = [*_shifted(16), FluxRamp(0.45, 0.65, 400.0),
             FluxRamp(0.45, 0.6, 0.0), FluxRamp(0.5, 0.641, 37.01),
             FluxRamp(0.641, 0.5, 50.0), FluxRamp(0.5, 0.5, 0.0)]
    chi_half, targets = ramp_rows(ramps, profile, cfg)
    t_half = _half_grid(cfg)
    assert chi_half.shape == (21, t_half.size)
    for row, target, ramp in zip(chi_half, targets, ramps):
        assert np.array_equal(row, profile.chi_at(ramp.flux_at(t_half)))
        assert target == profile.chi_at(ramp.f_end)
    assert np.array_equal(chi_half[-1], np.full(t_half.size,
                                                profile.chi_at(0.5)))
    # one chi_at call per batch, and the held tail is not mapped again:
    # each 50 ns ramp is held from t_half[2000] = 50 ns, so the call sees
    # 2001 fluxes per row and the 16 drive targets
    mapped = []
    chi_at = ChiProfile.chi_at
    monkeypatch.setattr(ChiProfile, "chi_at",
                        lambda self, f: mapped.append(np.size(f))
                        or chi_at(self, f))
    assert np.array_equal(ramp_rows(_shifted(16), profile, cfg)[0],
                          chi_half[:16])
    assert t_half[2000] == 50.0
    assert mapped == [16 * (2001 + 1)]


def test_ramp_rows_targets_equal_scalar_lookups_bit_for_bit():
    # the drive targets, looked up in the rows' one chi_at call, have the
    # bits of a scalar chi_at(f_end) each: random ramps, the grid's end
    # points, and a ramp that never reaches its plateau (t_rise 400 ns >
    # t_max), whose last row sample is not its target
    profile = _synthetic_profile()
    cfg = ReadoutConfig(kappa=KAPPA, t_max=250.0, dt=0.05)
    rng = np.random.default_rng(31)
    f_start, f_end = rng.uniform(0.4, 0.7, (2, 64))
    ramps = [*map(FluxRamp, f_start, f_end, rng.uniform(0.0, 300.0, 64)),
             FluxRamp(0.5, 0.7, 10.0), FluxRamp(0.5, 0.4, 0.0),
             FluxRamp(0.45, 0.65, 400.0)]
    chi_half, targets = ramp_rows(ramps, profile, cfg)
    want = [profile.chi_at(ramp.f_end) for ramp in ramps]
    assert np.ndim(want[0]) == 0
    assert targets.tobytes() == np.array(want).tobytes()
    last = profile.chi_at(ramps[-1].flux_at(cfg.t_max))
    assert chi_half[-1, -1] == last != targets[-1]


def test_zero_height_ramp_is_static_readout_bit_for_bit():
    # the ramp held at f, batched after a pulsed row as cmd_readout batches
    # it, is the constant row chi(f) driven at chi(f)
    profile = _synthetic_profile()
    cfg = ReadoutConfig(n_bar=10.0, eta=0.25, kappa=KAPPA, t_max=250.0,
                        dt=0.05)
    n_half = _half_grid(cfg).size
    for f in (0.4, 0.5, 0.6137):
        chi = profile.chi_at(f)
        _, held = readout_batch([FluxRamp(0.5, 0.641, 50.0),
                                 FluxRamp(f, f, 0.0)], profile, cfg)
        (static,) = readout_records(np.full((1, n_half), chi), [chi], cfg)
        _assert_same_record(held, static)


def test_ramped_readout_targets_plateau_chi():
    profile = _synthetic_profile()
    ramp = FluxRamp(0.5, 0.641, 50.0)
    cfg = ReadoutConfig(n_bar=10.0, kappa=KAPPA, t_max=300.0, dt=0.05)
    traj = readout_batch([ramp], profile, cfg)[0]
    want_eps = drive_amplitude(10.0, KAPPA, profile.chi_at(0.641))
    assert traj.epsilon == pytest.approx(want_eps, rel=1e-12)
    assert np.all(np.isfinite(traj.snr))


def test_time_grid_rounding():
    t = time_grid(1.0, 0.3)
    assert t.size == 4 and t[-1] == pytest.approx(0.9)
    t = time_grid(10.0, 0.05)
    assert t.size == 201 and t[-1] == pytest.approx(10.0)


def test_drive_amplitude():
    assert drive_amplitude(0.0, KAPPA, CHI) == 0.0
    assert drive_amplitude(4.0, KAPPA, 0.0) == pytest.approx(2.0 * KAPPA / 2.0)
    with pytest.raises(ValueError):
        drive_amplitude(-1.0, KAPPA, CHI)


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


def _readout_case(name, cfg):
    """(record, chi_half, chi_target): static readout at CHI, or the flux
    ramp shifted by a quasi-static offset, with its chi on the half grid
    and drive target."""
    delta = CASES[name]
    if delta is None:
        return (readout_batch([STATIC], flat_profile(CHI), cfg)[0],
                np.full(_half_grid(cfg).size, CHI), CHI)
    profile = _synthetic_profile()
    shifted = FluxRamp(0.5, 0.641, 50.0).shifted(delta)
    (chi_half,), (chi_target,) = ramp_rows([shifted], profile, cfg)
    return readout_batch([shifted], profile, cfg)[0], chi_half, chi_target


def _reference_readout(chi_half, chi_target, cfg):
    """(alpha_plus, alpha_minus, snr, error) of the scalar RK4 reference,
    both trajectories demodulated at the closed-form optimal angle, with
    the error from math.erfc."""
    times = time_grid(cfg.t_max, cfg.dt)
    eps = drive_amplitude(cfg.n_bar, cfg.kappa, chi_target)
    ref_p = _reference_langevin(chi_half, cfg.kappa, eps, +1, times)
    ref_m = _reference_langevin(chi_half, cfg.kappa, eps, -1, times)
    out_p = output_field(ref_p, cfg.kappa, eps)
    out_m = output_field(ref_m, cfg.kappa, eps)
    theta = optimal_demod_phase(out_p, out_m, times)
    m_p, m_m = _demodulate(out_p, out_m, cfg.eta, theta, times, cfg.kappa)
    snr = _two_branch_snr(m_p, m_m, cfg.kappa, times)
    return ref_p, ref_m, snr, np.array([0.5 * math.erfc(0.5 * x) for x in snr])


def _assert_matches_reference(snr, error, ref_snr, ref_error):
    # SNR relative to the curve's peak: near tau = 0 the SNR is ~1e-6 and
    # its rounding is relative to the fields, not to itself
    assert np.max(np.abs(snr - ref_snr)) <= 1e-13 * np.max(ref_snr)
    assert np.max(np.abs(error - ref_error)) <= 1e-13


# 5 us at dt = 0.05 ns is 100 000 steps: the last scan block is partial
@pytest.mark.parametrize("name, t_max", [
    *(pytest.param(name, 1000.0, id=name) for name in CASES),
    pytest.param("static", 5000.0, id="static-5us"),
    pytest.param("ramp", 5000.0, id="ramp-5us"),
])
def test_readout_matches_scalar_rk4_reference(name, t_max):
    # same RK4 map, rounded differently: fields to 1e-12, SNR to 1e-13 of
    # its peak, error to 1e-13
    cfg = ReadoutConfig(n_bar=10.0, eta=0.25, kappa=KAPPA, t_max=t_max,
                        dt=0.05)
    traj, chi_half, chi_target = _readout_case(name, cfg)
    ref_p, ref_m, ref_snr, ref_error = _reference_readout(chi_half, chi_target,
                                                          cfg)
    assert np.max(np.abs(traj.alpha_plus - ref_p)) <= 1e-12
    assert np.max(np.abs(traj.alpha_plus.conj() - ref_m)) <= 1e-12
    _assert_matches_reference(traj.snr, traj.error, ref_snr, ref_error)


@pytest.mark.parametrize("name, t_max", [
    *(pytest.param(name, 1000.0, id=name) for name in CASES),
    pytest.param("static", 5000.0, id="static-5us"),
    pytest.param("ramp", 5000.0, id="ramp-5us"),
])
def test_one_branch_record_matches_two_branch_demodulation(name, t_max):
    # the record integrates the sigma_z = +1 field on the -pi/2 quadrature
    # and cmd_readout mirrors the sigma_z = -1 columns; the two-branch
    # demodulation rounds e^{i pi/2} = 6.1e-17 + 1j, so m_s, SNR and the
    # error move by rounding only, and the fields not at all
    cfg = ReadoutConfig(n_bar=10.0, eta=0.25, kappa=KAPPA, t_max=t_max,
                        dt=0.05)
    traj, *_ = _readout_case(name, cfg)
    out_0, out_1, m_0, m_1, snr, error = _two_branch_record(traj, cfg)
    assert traj.alpha_out_plus.tobytes() == out_0.tobytes()
    assert traj.alpha_out_plus.real.tobytes() == out_1.real.tobytes()
    assert (0.0 - traj.alpha_out_plus.imag).tobytes() == out_1.imag.tobytes()
    for got, want in ((traj.m_s_plus, m_0), (0.0 - traj.m_s_plus, m_1),
                      (traj.snr, snr), (traj.error, error)):
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
    assert traj.m_s_plus[0] == traj.snr[0] == 0.0


def _shifted(n):
    """The flux ramp under n offsets."""
    return [FluxRamp(0.5, 0.641, 50.0).shifted(d)
            for d in np.linspace(-0.03, 0.03, n)]


def test_readout_batch_matches_scalar_rk4_reference():
    cfg = ReadoutConfig(n_bar=10.0, eta=0.25, kappa=KAPPA, t_max=1000.0,
                        dt=0.05)
    chi_half, chi_targets = ramp_rows(_shifted(16), _synthetic_profile(), cfg)
    n_t = time_grid(cfg.t_max, cfg.dt).size
    records = readout_records(chi_half, chi_targets, cfg)
    for k, (row, chi, traj) in enumerate(zip(chi_half, chi_targets, records)):
        assert traj.snr.shape == traj.error.shape == (n_t,)
        *_, ref_snr, ref_error = _reference_readout(row, chi, cfg)
        _assert_matches_reference(traj.snr, traj.error, ref_snr, ref_error)
    assert k == 15


def _assert_same_record(got, want):
    for name, value in vars(want).items():
        assert np.array_equal(getattr(got, name), value), name


def test_readout_batch_rows_equal_single_runs_bit_for_bit():
    # a row's bits do not depend on the rest of the batch: the rows in
    # reverse order, and each ramp alone in a batch of one, give the
    # same records
    profile = _synthetic_profile()
    ramps = _shifted(16)
    cfg = ReadoutConfig(n_bar=10.0, eta=0.25, kappa=KAPPA, t_max=250.0,
                        dt=0.05)
    records = list(readout_records(*ramp_rows(ramps, profile, cfg), cfg))
    reversed_records = list(readout_records(
        *ramp_rows(ramps[::-1], profile, cfg), cfg))
    assert len(records) == len(reversed_records) == 16
    for traj, rev, ramp in zip(records, reversed_records[::-1], ramps):
        _assert_same_record(rev, traj)
        _assert_same_record(readout_batch([ramp], profile, cfg)[0], traj)


def test_langevin_step_at_an_rk4_amplification_zero_is_refused():
    # z = dt (-kappa/2 - i chi) lies next to a root of the RK4 stability
    # polynomial: one step maps alpha to nearly 0, which the scan divides by
    kappa, chi, dt = units.mhz(86.1), units.mhz(-398.6), 1.0
    z = dt * complex(-0.5 * kappa, -chi)
    assert abs(1 + z + z ** 2 / 2 + z ** 3 / 6 + z ** 4 / 24) < 1e-3
    cfg = ReadoutConfig(n_bar=10.0, kappa=kappa, t_max=20.0, dt=dt)
    with pytest.raises(StepSizeError, match="step") as info:
        readout_batch([STATIC], flat_profile(chi), cfg)
    assert info.value.dt == dt


@pytest.mark.parametrize("half_kappa_dt, chi_dt", [(0.999, 0.0),
                                                   (0.2, 0.978)])
def test_langevin_step_just_inside_the_bound_matches_reference(half_kappa_dt,
                                                               chi_dt):
    # dt |kappa/2 + i chi| = 0.998-0.999: strong decay (|P| near 0.375, a
    # 256-step prefix product near 1e-109), or fast rotation
    dt = 1.0
    chi = chi_dt / dt
    cfg = ReadoutConfig(n_bar=10.0, eta=0.25, kappa=2.0 * half_kappa_dt / dt,
                        t_max=1000.0, dt=dt)
    assert dt * abs(complex(0.5 * cfg.kappa, chi)) <= 1.0

    chi_half = np.full(_half_grid(cfg).size, chi)
    traj = readout_batch([STATIC], flat_profile(chi), cfg)[0]
    ref_p, ref_m, ref_snr, ref_error = _reference_readout(chi_half, chi, cfg)
    assert np.max(np.abs(traj.alpha_plus - ref_p)) <= 1e-12
    assert np.max(np.abs(traj.alpha_plus.conj() - ref_m)) <= 1e-12
    _assert_matches_reference(traj.snr, traj.error, ref_snr, ref_error)


def _blocked_reference(chi_half, kappa, epsilon, dt):
    """integrate_langevin's blocked scan with every block's P and Q built
    from all of its steps, each product in the kernel's operand order."""
    n = (chi_half.shape[1] - 1) // 2
    h, hh = dt, 0.5 * dt
    alpha = np.empty((n + 1, chi_half.shape[0]), dtype=complex)
    alpha[0] = 0.0
    for lo in range(0, n, 256):
        hi = min(lo + 256, n)
        a = np.empty((2 * (hi - lo) + 1, chi_half.shape[0]), dtype=complex)
        a.real = -0.5 * kappa
        a.imag = -chi_half[:, 2 * lo:2 * hi + 1].T
        a1, a2, a4 = a[0:-1:2], a[1::2], a[2::2]
        p2 = a2 * (1.0 + hh * a1)
        q2 = 1.0 + hh * a2
        p3 = a2 * (1.0 + hh * p2)
        q3 = 1.0 + hh * a2 * q2
        p4 = a4 * (1.0 + h * p3)
        q4 = 1.0 + h * a4 * q3
        step_p = 1.0 + (h / 6.0) * (a1 + 2.0 * p2 + 2.0 * p3 + p4)
        step_q = (h / 6.0) * (1.0 + 2.0 * q2 + 2.0 * q3 + q4) * epsilon
        c = np.cumprod(step_p, axis=0)
        alpha[lo + 1:hi + 1] = c * (alpha[lo] + np.cumsum(step_q / c, axis=0))
    return alpha


# (steps, half-grid index each row is held from): from step 0, never, on
# and off the 256-step block edges, and in a partial last block
HELD_CASES = {
    "from-0": (700, [0]),
    "never": (700, [1400]),
    "block-edge": (1024, [512]),
    "mixed-edges": (1000, [0, 512, 1024, 1536, 2000]),
    "off-edge": (700, [513, 1023, 1025]),
    "last-partial": (600, [1025, 1100, 1199]),
    "random": (900, None),
    # each row leaves its held value at the start of the block where the
    # hold begins: that block's first and last samples agree
    "returning": (700, [700]),
    # held over the first block, ramping over the second, held again at
    # another chi over the third
    "held-again": (768, [1024]),
}


@pytest.mark.parametrize("rows", [1, 17])
@pytest.mark.parametrize("case", HELD_CASES)
def test_held_blocks_match_the_blocked_scan_bit_for_bit(case, rows):
    # rows of random chi, each held from a half-grid index: a held block
    # builds one step's map, or reuses the scan of the held block before
    # it, which must give every bit the blocked scan gives
    rng = np.random.default_rng([rows, *case.encode()])
    n, starts = HELD_CASES[case]
    if starts is None:
        starts = rng.integers(0, 2 * n + 1, rows)
    chi_half = units.mhz(rng.uniform(-8.0, 8.0, (rows, 2 * n + 1)))
    for row, k in zip(chi_half, np.resize(starts, rows)):
        row[k:] = row[k]
        if case == "returning":
            row[512 * (k // 512)] = row[k]
        if case == "held-again":
            row[:513] = row[0]
    epsilon = rng.uniform(0.01, 0.1, rows)
    got = integrate_langevin(chi_half, KAPPA, epsilon, 0.05)
    want = _blocked_reference(chi_half, KAPPA, epsilon, 0.05)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", CASES)
def test_minus_field_is_conjugate_of_plus(name):
    cfg = ReadoutConfig(n_bar=10.0, kappa=KAPPA, t_max=250.0, dt=0.05)
    traj, chi_half, _ = _readout_case(name, cfg)
    times = time_grid(cfg.t_max, cfg.dt)
    dt = times[1] - times[0]
    # sigma_z = -1 integrates the negated chi row
    assert np.array_equal(
        integrate_langevin(-chi_half[None, :], cfg.kappa, [traj.epsilon], dt),
        integrate_langevin(chi_half[None, :], cfg.kappa, [traj.epsilon],
                           dt).conj())


# The 64-point scan plus golden-section refinement that the closed form
# replaced stalled at this angle (-pi/2 - 1.05e-8) for every conjugate pair.
SEARCHED_THETA = -1.57079633730347


@pytest.mark.parametrize("name", CASES)
def test_closed_form_quadrature_against_searched_angle(name):
    # the readout CSV columns move by at most these bounds: fields not at
    # all; m_s by the angle error times the in-phase signal, to first
    # order; SNR and error by rounding only (the contrast is stationary at
    # the optimum)
    cfg = ReadoutConfig(n_bar=10.0, kappa=KAPPA, t_max=1000.0, dt=0.05)
    traj, *_ = _readout_case(name, cfg)
    _, _, m_p, m_m, snr, _ = _two_branch_record(traj, cfg, SEARCHED_THETA)
    in_phase = _two_branch_record(traj, cfg, 0.0)[2:4]
    bound = (1.001 * abs(SEARCHED_THETA + math.pi / 2)
             * np.max(np.abs(in_phase)) + 1e-12)
    assert np.max(np.abs(traj.m_s_plus - m_p)) <= bound
    assert np.max(np.abs(0.0 - traj.m_s_plus - m_m)) <= bound
    assert np.max(np.abs(traj.snr - snr)) <= 1e-12
    assert np.max(np.abs(traj.error - readout_error(snr))) <= 1e-15


@pytest.mark.parametrize("name", [*CASES, "chi=0"])
def test_demod_phase_is_exactly_minus_quadrature(name):
    # conjugate output fields separate along the imaginary axis only, so
    # the closed-form maximiser gives the quadrature the records use, bit
    # for bit, for static, ramped and noise-shifted records
    cfg = ReadoutConfig(n_bar=10.0, kappa=KAPPA, t_max=250.0, dt=0.05)
    if name == "chi=0":
        traj = readout_batch([STATIC], flat_profile(0.0), cfg)[0]
    else:
        traj, *_ = _readout_case(name, cfg)
    out_0, out_1, *_ = _two_branch_record(traj, cfg)
    assert np.array_equal(out_0, traj.alpha_out_plus)
    assert optimal_demod_phase(out_0, out_1, traj.times) == -math.pi / 2

"""Tests for the quasi-static flux-noise Monte Carlo layer."""

import math

import numpy as np
import pytest

from fluxsim import diagnostics, noise, units
from fluxsim.coupled import ResonatorParams
from fluxsim.errors import DomainError
from fluxsim.gates import (
    PulseParams,
    build_gate_space,
    drive_coefficient,
    evaluate_gate,
    rabi_area_estimate,
)
from fluxsim.noise import (
    McCurve,
    NoiseSpec,
    aggregate_curves,
    gate_draw,
    noisy_gate_error,
    noisy_readout_snr,
    readout_draw,
    sample_flux_offsets,
    standard_normal_draw,
)
from fluxsim.qubit import EnergyParams, FluxBias
from fluxsim.readout import ChiProfile, FluxRamp, ReadoutConfig, run_ramped_readout

PARAMS = EnergyParams.from_ghz(4.75, 1.25, 1.5)
RES = ResonatorParams.from_ghz(7.0, 5.0, 50.0)
KAPPA = units.mhz(5.0)


def _synthetic_profile():
    grid = np.linspace(0.40, 0.70, 61)
    vals = units.mhz(0.5 - 60.0 * (grid - 0.5))
    return ChiProfile(grid, vals, clamp=units.mhz(50.0))


RAMP = FluxRamp(0.5, 0.641, 50.0)
CFG = ReadoutConfig(n_bar=10.0, eta=0.25, kappa=KAPPA, t_max=200.0, dt=0.05)


def test_noise_spec_validation():
    with pytest.raises(ValueError):
        NoiseSpec(-1e-3)
    with pytest.raises(ValueError):
        NoiseSpec(1e-3, n_draws=0)
    with pytest.raises(ValueError):
        NoiseSpec(1e-3, seed=-1)
    with pytest.raises(ValueError):
        NoiseSpec(1e-3, seed=1 << 64)


def test_offsets_reproducible_and_seed_sensitive():
    spec = NoiseSpec(1e-2, n_draws=8, seed=42)
    a = sample_flux_offsets(spec)
    b = sample_flux_offsets(spec)
    assert np.array_equal(a, b)
    c = sample_flux_offsets(NoiseSpec(1e-2, n_draws=8, seed=43))
    assert not np.array_equal(a, c)


def test_draw_k_independent_of_draw_count():
    short = sample_flux_offsets(NoiseSpec(1e-2, n_draws=5, seed=7))
    long = sample_flux_offsets(NoiseSpec(1e-2, n_draws=9, seed=7))
    assert np.array_equal(short, long[:5])


def test_standard_normal_statistics():
    n = 20000
    xs = np.array([standard_normal_draw(7, k) for k in range(n)])
    assert abs(xs.mean()) < 4.0 / math.sqrt(n)
    assert xs.std(ddof=1) == pytest.approx(1.0, abs=0.02)
    assert abs(np.mean(xs ** 3)) < 0.1  # symmetric


def test_zero_scale_matches_noise_free_run():
    profile = _synthetic_profile()
    baseline = run_ramped_readout(RAMP, profile, CFG)
    result = noisy_readout_snr(RAMP, profile, CFG, NoiseSpec(0.0, n_draws=3, seed=1))
    assert result.snr.n_effective == 3
    assert np.max(np.abs(result.snr.mean - baseline.snr)) < 1e-12
    assert np.max(np.abs(result.snr.stderr)) < 1e-12
    assert np.max(np.abs(result.error.mean - baseline.error)) < 1e-12


def test_mean_between_pointwise_extremes():
    profile = _synthetic_profile()
    result = noisy_readout_snr(RAMP, profile, CFG,
                               NoiseSpec(2e-3, n_draws=6, seed=3))
    draws = result.snr.draws[result.snr.included]
    lo = draws.min(axis=0) - 1e-12
    hi = draws.max(axis=0) + 1e-12
    assert np.all(result.snr.mean >= lo) and np.all(result.snr.mean <= hi)


def test_excluded_draws_are_counted():
    profile = _synthetic_profile()
    # huge offsets push some shifted ramps off the profile domain
    result = noisy_readout_snr(RAMP, profile, CFG,
                               NoiseSpec(0.15, n_draws=10, seed=5))
    curve = result.snr
    assert curve.n_excluded > 0
    assert curve.n_effective + curve.n_excluded == 10
    # excluded draws contribute nothing
    assert np.all(curve.draws[~curve.included] == 0.0)


def test_batched_draws_equal_single_draws():
    # the Monte Carlo integrates all included draws as one batch; each row
    # must equal the draw run on its own, and excluded draws stay zero rows
    profile = _synthetic_profile()
    spec = NoiseSpec(0.15, n_draws=10, seed=5)
    result = noisy_readout_snr(RAMP, profile, CFG, spec)
    assert 0 < result.snr.n_excluded < 10
    for k, delta in enumerate(sample_flux_offsets(spec)):
        snr, err, included = readout_draw(delta, RAMP, profile, CFG)
        assert included == result.snr.included[k] == result.error.included[k]
        assert np.array_equal(result.snr.draws[k], snr)
        assert np.array_equal(result.error.draws[k], err)
        if not included:
            assert np.all(snr == 0.0) and np.all(err == 0.0)
    assert result.error.n_excluded == result.snr.n_excluded == \
        int(np.count_nonzero(~result.snr.included))


def test_single_excluded_draw_flagged():
    profile = _synthetic_profile()
    snr, err, included = readout_draw(0.2, RAMP, profile, CFG)
    assert not included and np.all(snr == 0.0) and np.all(err == 0.0)
    snr, err, included = readout_draw(0.0, RAMP, profile, CFG)
    assert included and np.any(snr > 0.0)


def test_all_excluded_raises_domain_error():
    axis = np.arange(3.0)
    draws = np.zeros((2, 3))
    with pytest.raises(DomainError):
        aggregate_curves(axis, draws, np.array([False, False]), 1e-2, 0)


def test_aggregate_curves_mean_and_stderr():
    axis = np.array([0.0, 1.0])
    draws = np.array([[1.0, 2.0], [3.0, 6.0], [100.0, 100.0]])
    included = np.array([True, True, False])
    curve = aggregate_curves(axis, draws, included, 1e-3, 9)
    assert isinstance(curve, McCurve)
    assert list(curve.mean) == [2.0, 4.0]
    want = np.std(draws[:2], axis=0, ddof=1) / math.sqrt(2)
    assert np.allclose(curve.stderr, want, atol=1e-15)
    assert curve.n_effective == 2 and curve.n_excluded == 1
    mean, stderr = curve.at_axis(0.9)
    assert mean == 4.0


def test_single_draw_has_zero_stderr():
    curve = aggregate_curves(np.array([0.0]), np.array([[5.0]]),
                             np.array([True]), 0.0, 0)
    assert curve.mean[0] == 5.0 and curve.stderr[0] == 0.0


def test_gate_draw_zero_offset_matches_direct_evaluation():
    dims_tau = 4.0
    space = build_gate_space(PARAMS, FluxBias(0.5), RES)
    pulse = PulseParams(dims_tau, rabi_area_estimate(space, dims_tau), 0.2,
                        space.omega_01)
    direct = evaluate_gate(space, pulse)
    shifted = gate_draw(0.0, PARAMS, RES, pulse)
    assert shifted.error == direct.error
    assert shifted.fidelity == direct.fidelity


def test_gate_draw_applies_the_zero_offset_drive(monkeypatch):
    # only the static Hamiltonian follows the offset; the DRAG quadrature
    # keeps the delta=0 anharmonicity, as the shaped pulse cannot know delta
    spaces = []
    monkeypatch.setattr(noise, "evaluate_gate",
                        lambda space, pulse, dt: spaces.append(space))
    at_zero = build_gate_space(PARAMS, FluxBias(0.5), RES)
    pulse = PulseParams(10.0, 1.5, 4.8, at_zero.omega_01)
    gate_draw(0.01, PARAMS, RES, pulse)
    (offset,) = spaces
    assert not np.allclose(offset.h0_evals, at_zero.h0_evals)
    assert build_gate_space(PARAMS, FluxBias(0.51), RES).anharm != at_zero.anharm
    t = np.linspace(0.0, pulse.tau_g, 401)
    assert np.array_equal(drive_coefficient(pulse, offset.anharm, t),
                          drive_coefficient(pulse, at_zero.anharm, t))


def test_gate_monte_carlo_solves_each_draw_once():
    # one bare and one coupled eigensolve per draw, plus the delta=0
    # anharmonicity once per call
    space = build_gate_space(PARAMS, FluxBias(0.5), RES)
    pulse = PulseParams(4.0, rabi_area_estimate(space, 4.0), 0.2,
                        space.omega_01)
    diagnostics.reset_eigensolve_count()
    noisy_gate_error(PARAMS, RES, [pulse], NoiseSpec(1e-4, 4, 11))
    assert diagnostics.eigensolve_count() == 4 * 2 + 1


def test_gate_monte_carlo_is_gate_draw_in_draw_order(monkeypatch):
    space = build_gate_space(PARAMS, FluxBias(0.5), RES)
    pulses = [PulseParams(tau, rabi_area_estimate(space, tau), 0.2,
                          space.omega_01) for tau in (3.0, 4.0)]
    spec = NoiseSpec(1e-3, 3, 5)
    calls = []

    def recording_draw(delta, *args):
        calls.append(delta)
        return gate_draw(delta, *args)

    # the Monte Carlo looks gate_draw up on the module, where tracers wrap it
    monkeypatch.setattr(noise, "gate_draw", recording_draw)
    curve = noisy_gate_error(PARAMS, RES, pulses, spec)
    deltas = sample_flux_offsets(spec)
    assert calls == [d for d in deltas for _ in pulses]
    for k, delta in enumerate(deltas):
        for j, pulse in enumerate(pulses):
            assert curve.draws[k, j] == gate_draw(delta, PARAMS, RES,
                                                  pulse).error


def test_noisy_gate_error_axis_and_monotone_in_scale():
    space = build_gate_space(PARAMS, FluxBias(0.5), RES)
    tau = 4.0
    pulse = PulseParams(tau, rabi_area_estimate(space, tau), 0.2, space.omega_01)
    small = noisy_gate_error(PARAMS, RES, [pulse], NoiseSpec(1e-4, 4, 11))
    large = noisy_gate_error(PARAMS, RES, [pulse], NoiseSpec(1e-2, 4, 11))
    assert list(small.axis) == [tau]
    assert small.n_effective == 4 and small.n_excluded == 0
    # quadratic flux dispersion at the sweet spot: more noise, more error
    # (the unoptimized pulse leaves a small floor, so only well-separated
    # scales are compared)
    assert large.mean[0] > 2.0 * small.mean[0]

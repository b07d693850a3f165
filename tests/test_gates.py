"""Tests for DRAG pulse gates: envelopes, propagation, fidelity."""

import math
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

from fluxsim import gates
from fluxsim.coupled import (
    MIN_ASSIGNMENT_QUALITY,
    CoupledDims,
    CouplingMode,
    ResonatorParams,
    _coupling_operator,
    sweep_dressed,
)
from fluxsim.errors import (DomainError, OptimizerConsistencyError,
                            ResonanceRegionError, StepSizeError)
from fluxsim.gates import (
    DEFAULT_GATE_DT,
    UNITARITY_BUDGET,
    GateResult,
    PulseParams,
    build_gate_space,
    drive_coefficient,
    evaluate_gate,
    gate_fidelity,
    optimize_pulse,
    propagate_gate,
    rabi_area_estimate,
)
from fluxsim.noise import NoiseSpec, gate_draw, noisy_gate_error
from fluxsim.qubit import EnergyParams, FluxBias, fluxonium_spectrum

PARAMS = EnergyParams.from_ghz(4.75, 1.25, 1.5)
RES = ResonatorParams.from_ghz(7.0, 5.0, 50.0)


@pytest.fixture(scope="module")
def space():
    return build_gate_space(PARAMS, FluxBias(0.5), RES)


def test_envelope_shape():
    # with lambda = 0 and omega_d = pi / tau_g, eps_d = 1/2 reads the
    # in-phase envelope s(t) = (1 - cos(2 pi t / tau_g)) / 2 times
    # sin(pi t / tau_g): s(0) = 0, s(tau_g / 2) = 1 and s(tau_g) = 0
    pulse = PulseParams(10.0, 0.5, 0.0, math.pi / 10.0)
    assert drive_coefficient(pulse, 2.0, 0.0) == 0.0
    assert drive_coefficient(pulse, 2.0, 10.0) == pytest.approx(0.0, abs=1e-15)
    assert drive_coefficient(pulse, 2.0, 5.0) == pytest.approx(1.0)
    with pytest.raises(DomainError):
        drive_coefficient(pulse, 2.0, -0.1)
    with pytest.raises(DomainError):
        drive_coefficient(pulse, 2.0, 10.1)


def test_drag_envelope_shape():
    # with eps_d = 1 and omega_d = 0 the drive is the DRAG quadrature alone:
    # the analytic derivative of the in-phase envelope, scaled by lam / anharm
    tau, lam, anharm = 10.0, 0.5, 2.0
    pulse = PulseParams(tau, 1.0, lam, 0.0)
    t = 2.5
    want = (lam / anharm) * (math.pi / tau) * math.sin(2.0 * math.pi * t / tau)
    assert drive_coefficient(pulse, anharm, t) == pytest.approx(want, rel=1e-14)
    with pytest.raises(ZeroDivisionError):
        drive_coefficient(pulse, 0.0, t)
    with pytest.raises(DomainError):
        drive_coefficient(pulse, anharm, -1.0)


def test_drive_coefficient_composition(space):
    pulse = PulseParams(10.0, 0.3, 0.7, space.omega_01)
    t = 3.3
    phase = 2.0 * math.pi * t / 10.0
    s = 0.5 * (1.0 - math.cos(phase))
    sp = (0.7 / space.anharm) * (math.pi / 10.0) * math.sin(phase)
    want = 0.3 * (2.0 * s * math.sin(space.omega_01 * t)
                  + sp * math.cos(space.omega_01 * t))
    assert drive_coefficient(pulse, space.anharm, t) == pytest.approx(want, rel=1e-14)


def test_pulse_params_validation():
    with pytest.raises(ValueError):
        PulseParams(0.0, 0.1, 0.0, 1.0)
    with pytest.raises(ValueError):
        PulseParams(10.0, -0.1, 0.0, 1.0)
    for bad in ((math.inf, 0.1, 0.0, 1.0), (10.0, math.nan, 0.0, 1.0),
                (10.0, math.inf, 0.0, 1.0), (10.0, 0.1, math.nan, 1.0),
                (10.0, 0.1, 0.0, math.nan)):
        with pytest.raises(ValueError, match="finite"):
            PulseParams(*bad)


def test_zero_amplitude_gives_free_evolution(space):
    pulse = PulseParams(5.0, 0.0, 0.0, space.omega_01)
    u = propagate_gate(space, pulse, dt=1e-2)
    v = space.h0_evecs
    exact = (v * np.exp(-1j * space.h0_evals * 5.0)) @ v.conj().T
    assert np.max(np.abs(u - exact)) < 1e-12


def test_propagator_unitary_and_step_converged(space):
    eps = rabi_area_estimate(space, 10.0)
    pulse = PulseParams(10.0, eps, 0.5, space.omega_01)
    u1 = propagate_gate(space, pulse, dt=1e-3)
    dim = u1.shape[0]
    defect = np.max(np.abs(u1.conj().T @ u1 - np.eye(dim)))
    assert defect < 1e-8
    u2 = propagate_gate(space, pulse, dt=5e-4)
    assert np.max(np.abs(u1 - u2)) < 1e-8


def test_coarse_step_raises(space):
    eps = 2.5 * rabi_area_estimate(space, 10.0)
    pulse = PulseParams(10.0, eps, 0.0, space.omega_01)
    with pytest.raises(StepSizeError):
        propagate_gate(space, pulse, dt=0.05)
    # a non-finite propagator fails the budget instead of passing it
    with pytest.raises(StepSizeError):
        propagate_gate(replace(space, anharm=math.nan), pulse, dt=1e-2)


def _reference_rk4(space, pulse, dt):
    """The RK4 stage loop, one Python step at a time: classic RK4 on the
    interaction-picture propagator with the generator rebuilt at each node."""
    n_steps = max(1, int(round(pulse.tau_g / dt)))
    dt = pulse.tau_g / n_steps
    t_half = np.linspace(0.0, pulse.tau_g, 2 * n_steps + 1)
    u = drive_coefficient(pulse, space.anharm, t_half)
    lam0 = space.h0_evals
    n_eig = space.charge_eig
    dim = lam0.size
    phases = np.exp(1j * np.outer(t_half, lam0))

    def generator(idx):
        ph = phases[idx]
        return (-1j * u[idx]) * ((ph[:, None] * n_eig) * ph.conj()[None, :])

    w_prop = np.eye(dim, dtype=complex)
    for step in range(n_steps):
        a1 = generator(2 * step)
        a_mid = generator(2 * step + 1)
        a4 = generator(2 * step + 2)
        k1 = a1 @ w_prop
        k2 = a_mid @ (w_prop + 0.5 * dt * k1)
        k3 = a_mid @ (w_prop + 0.5 * dt * k2)
        k4 = a4 @ (w_prop + dt * k3)
        w_prop = w_prop + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    defect = float(np.max(np.abs(w_prop.conj().T @ w_prop - np.eye(dim))))
    if defect > UNITARITY_BUDGET:
        raise StepSizeError("unitarity budget exceeded", defect=defect, dt=dt)
    v = space.h0_evecs
    return (v * np.exp(-1j * lam0 * pulse.tau_g)) @ w_prop @ v.conj().T


def test_propagator_matches_stage_loop_reference(space):
    # the same RK4 propagator as the step-by-step loop, up to rounding
    offset = replace(build_gate_space(PARAMS, FluxBias(0.51), RES),
                     anharm=space.anharm)
    cases = [
        (space, PulseParams(3.0, 2.5 * rabi_area_estimate(space, 3.0), 1.5,
                            space.omega_01)),
        (space, PulseParams(10.0, 1.557152, 4.7745, space.omega_01)),
        (offset, PulseParams(10.0, 1.557152, 4.7745, space.omega_01)),
    ]
    for gate_space, pulse in cases:
        u = propagate_gate(gate_space, pulse)
        u_ref = _reference_rk4(gate_space, pulse, 1e-3)
        assert np.max(np.abs(u - u_ref)) <= 1e-11
        err = gate_fidelity(u, gate_space, pulse).error
        err_ref = gate_fidelity(u_ref, gate_space, pulse).error
        assert abs(err - err_ref) <= 1e-12
    pulse = PulseParams(10.0, 2.5 * rabi_area_estimate(space, 10.0), 0.0,
                        space.omega_01)
    defects = []
    for propagate in (propagate_gate, _reference_rk4):
        with pytest.raises(StepSizeError) as info:
            propagate(space, pulse, dt=0.05)
        defects.append(info.value.defect)
    assert defects[0] == pytest.approx(defects[1], rel=1e-12)


@pytest.mark.parametrize("n_steps", [1, 2, 127, 128, 129, 257])
def test_propagator_matches_reference_at_block_edges(space, n_steps):
    # a one-matrix block, odd chain levels and exact block boundaries
    tau_g = n_steps * DEFAULT_GATE_DT
    assert round(tau_g / DEFAULT_GATE_DT) == n_steps
    # no DRAG term: its amplitude grows as 1 / tau_g
    pulse = PulseParams(tau_g, 10.0, 0.0, space.omega_01)
    u = propagate_gate(space, pulse)
    assert np.max(np.abs(u - _reference_rk4(space, pulse, DEFAULT_GATE_DT))) <= 1e-11


@pytest.mark.parametrize("n_steps", [100, 300, 2048, 3000, 4096])
def test_streamed_drive_gives_the_unstreamed_propagator(space, monkeypatch,
                                                        n_steps):
    # the drive once sampled on np.linspace(0, tau_g, 2 N + 1), as
    # propagate_gate formed it before streaming, gives the same nodes and
    # the same propagator, bit for bit: step counts below, at and off a
    # multiple of the drive block
    pulse = PulseParams(n_steps * 1e-3, 1.5, 4.7, space.omega_01)
    streamed = propagate_gate(space, pulse)
    t_all = np.linspace(0.0, pulse.tau_g, 2 * n_steps + 1)
    u_all = drive_coefficient(pulse, space.anharm, t_all)
    blocks = []

    def sliced(pulse_, anharm, t):
        lo = 2 * gates._DRIVE_BLOCK * len(blocks)
        blocks.append(t.size)
        assert t.tobytes() == t_all[lo:lo + t.size].tobytes()
        return u_all[lo:lo + t.size]

    monkeypatch.setattr(gates, "drive_coefficient", sliced)
    assert propagate_gate(space, pulse).tobytes() == streamed.tobytes()
    assert len(blocks) == -(-n_steps // gates._DRIVE_BLOCK)
    assert sum(blocks) - len(blocks) + 1 == t_all.size


def test_gate_memory_does_not_grow_with_the_step_count(space):
    # 100 times the steps, at most twice the peak: the drive is sampled per
    # block, not for every step up front
    peaks = []
    for n_steps in (3_000, 300_000):
        tau = n_steps * 1e-3
        pulse = PulseParams(tau, rabi_area_estimate(space, tau), 0.0,
                            space.omega_01)
        tracemalloc.start()
        try:
            propagate_gate(space, pulse)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 2 * peaks[0], peaks


@settings(max_examples=25, deadline=None)
@given(ratio=st.floats(0.0, 2.5), lam=st.floats(-6.0, 6.0),
       tau_g=st.floats(0.2, 0.4),
       dt=st.sampled_from([DEFAULT_GATE_DT, DEFAULT_GATE_DT / 4]))
def test_propagator_is_unitary_or_raises_like_reference(space, ratio, lam,
                                                        tau_g, dt):
    # the stacked kernel never returns a propagator outside the unitarity
    # budget, and agrees with the stage loop on whether it raises
    pulse = PulseParams(tau_g, ratio * rabi_area_estimate(space, tau_g), lam,
                        space.omega_01)
    try:
        u = propagate_gate(space, pulse, dt)
    except StepSizeError as err:
        with pytest.raises(StepSizeError) as ref:
            _reference_rk4(space, pulse, dt)
        assert err.defect == pytest.approx(ref.value.defect, rel=1e-9)
        return
    # the budget bounds the defect in the H0 eigenbasis, where the kernel
    # checks it; the elementwise maximum is not basis-invariant
    v = space.h0_evecs
    w_prop = v.conj().T @ u @ v
    dim = u.shape[0]
    assert np.max(np.abs(w_prop.conj().T @ w_prop - np.eye(dim))) <= UNITARITY_BUDGET
    assert np.max(np.abs(u - _reference_rk4(space, pulse, dt))) <= 1e-11
    result = gate_fidelity(u, space, pulse)
    assert 0.0 <= result.fidelity <= 1.0
    assert 0.0 <= result.leakage <= 1.0


@pytest.mark.parametrize("dt", [0.0, -1e-3, math.nan, math.inf, -math.inf])
def test_non_finite_or_non_positive_dt_raises(space, dt):
    pulse = PulseParams(3.0, rabi_area_estimate(space, 3.0), 0.0, space.omega_01)
    with pytest.raises(DomainError, match="finite and positive"):
        propagate_gate(space, pulse, dt=dt)
    with pytest.raises(DomainError, match="finite and positive"):
        evaluate_gate(space, pulse, dt=dt)
    with pytest.raises(DomainError, match="finite and positive"):
        optimize_pulse(space, 3.0, dt=dt, n_eps=3, n_lam=3)


def test_fidelity_of_perfect_x(space):
    p = space.comp_basis
    dim = p.shape[0]
    x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    u = (np.eye(dim, dtype=complex) - p @ p.conj().T) + p @ x @ p.conj().T
    result = gate_fidelity(u, space, PulseParams(10.0, 0.1, 0.0, space.omega_01))
    assert result.fidelity == pytest.approx(1.0, abs=1e-12)
    assert result.leakage == pytest.approx(0.0, abs=1e-12)


def test_fidelity_of_identity_is_one_third(space):
    dim = space.h0_evals.size
    result = gate_fidelity(np.eye(dim, dtype=complex), space,
                           PulseParams(10.0, 0.1, 0.0, space.omega_01))
    assert result.fidelity == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert result.error == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_virtual_z_phase_is_removed(space):
    p = space.comp_basis
    dim = p.shape[0]
    x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    for phi in (0.3, -1.2, 2.9):
        z = np.diag([1.0, np.exp(1j * phi)])
        u = (np.eye(dim, dtype=complex) - p @ p.conj().T) + p @ (z @ x) @ p.conj().T
        result = gate_fidelity(u, space, PulseParams(10.0, 0.1, 0.0, space.omega_01))
        assert result.fidelity == pytest.approx(1.0, abs=1e-12)


def test_fidelity_and_leakage_bounds(space):
    pulse = PulseParams(4.0, 0.8 * rabi_area_estimate(space, 4.0), 1.3,
                        space.omega_01)
    result = evaluate_gate(space, pulse, dt=1e-3)
    assert isinstance(result, GateResult)
    assert 0.0 <= result.fidelity <= 1.0
    assert 0.0 <= result.leakage <= 1.0
    assert result.error == pytest.approx(1.0 - result.fidelity, abs=1e-15)


def test_rabi_area_estimate_formula(space):
    for tau in (10.0, 20.0, 30.0):
        assert rabi_area_estimate(space, tau) == pytest.approx(
            math.pi / (space.n01 * tau), rel=1e-14)


def _no_refinement(monkeypatch):
    """Stand-in for the quadratic refinement that returns its seed point
    unrefined."""
    monkeypatch.setattr(gates, "minimize", lambda fun, x0, **kwargs:
                        SimpleNamespace(fun=fun(x0), x=np.asarray(x0),
                                        success=True))


def _fake_gate(monkeypatch, error_of):
    """Replace evaluate_gate by an analytic error of (eps_d, lambda); returns
    the list of points evaluated."""
    calls = []

    def fake_evaluate(space_, pulse, dt):
        calls.append((pulse.eps_d, pulse.lam))
        return SimpleNamespace(error=error_of(pulse.eps_d, pulse.lam),
                               params=pulse)

    monkeypatch.setattr(gates, "evaluate_gate", fake_evaluate)
    return calls


def _recording_gate(monkeypatch):
    """Record every pulse passed to the real evaluate_gate; returns the
    list."""
    calls = []

    def recording_evaluate(space_, pulse, dt):
        calls.append(pulse)
        return evaluate_gate(space_, pulse, dt)

    monkeypatch.setattr(gates, "evaluate_gate", recording_evaluate)
    return calls


def test_one_point_grid_seeds_at_the_estimate(space, monkeypatch):
    calls = _recording_gate(monkeypatch)
    _no_refinement(monkeypatch)
    optimize_pulse(space, 3.0, n_eps=1, n_lam=1)
    est = rabi_area_estimate(space, 3.0)
    assert (calls[0].eps_d, calls[0].lam) == (est, space.lam_drag)
    # a seed at the low ends of both axes is far worse
    low_end = PulseParams(3.0, est / 2.5, space.lam_drag - 2.0, space.omega_01)
    assert (evaluate_gate(space, calls[0], DEFAULT_GATE_DT).error
            < evaluate_gate(space, low_end, DEFAULT_GATE_DT).error)


def _grid_points(space, n_eps, n_lam, lam_lo, lam_hi):
    est = rabi_area_estimate(space, 3.0)
    eps = np.geomspace(est / 2.5, est * 2.5, n_eps) if n_eps > 1 else [est]
    lam = (np.linspace(lam_lo, lam_hi, n_lam) if n_lam > 1
           else [(lam_lo + lam_hi) / 2])
    return [(float(e), float(x)) for e in eps for x in lam]


@pytest.mark.parametrize("n_eps, n_lam", [(3, 3), (25, 17), (1, 3), (3, 1)])
def test_pulse_grid_points(space, monkeypatch, n_eps, n_lam):
    # the lambda axis is centred on the first-order DRAG weight
    calls = _fake_gate(monkeypatch,
                       lambda eps_d, lam: (eps_d - 1.0) ** 2 + lam ** 2)
    _no_refinement(monkeypatch)
    optimize_pulse(space, 3.0, n_eps=n_eps, n_lam=n_lam)
    assert calls[:n_eps * n_lam] == _grid_points(
        space, n_eps, n_lam, space.lam_drag - 2.0, space.lam_drag + 2.0)


def test_zero_drag_weight_gives_the_former_grid(space, monkeypatch):
    calls = _fake_gate(monkeypatch,
                       lambda eps_d, lam: (eps_d - 1.0) ** 2 + lam ** 2)
    _no_refinement(monkeypatch)
    optimize_pulse(replace(space, lam_drag=0.0), 3.0)
    assert calls[:9] == _grid_points(space, 3, 3, -2.0, 2.0)
    assert [lam for _, lam in calls[:3]] == [-2.0, 0.0, 2.0]


def test_drag_weight_is_the_first_order_formula(space):
    # (|<1|n|2>| / |<0|n|1>|)^2 / 2 from the bare matrix elements at f = 0.5,
    # read from the charge operator the CHARGE-mode Hamiltonian projects
    _, vecs = fluxonium_spectrum(PARAMS, FluxBias(0.5), gates.GATE_DIMS.dim)
    n_op = _coupling_operator(vecs, PARAMS, CouplingMode.CHARGE, 3)
    n01, n12 = abs(n_op[0, 1]), abs(n_op[1, 2])
    assert space.lam_drag == pytest.approx(0.5 * (n12 / n01) ** 2, rel=1e-12)
    # the optimum's lambda, 4.77-4.83 on this device, is inside the axis
    assert 4.2 < space.lam_drag < 4.3
    # with level 2 not kept there is nothing to correct
    two = build_gate_space(PARAMS, FluxBias(0.5), RES,
                           dims=CoupledDims(kept=2, n_res=3))
    assert two.lam_drag == 0.0


def test_refinement_lands_on_the_minimum_of_a_quadratic(space, monkeypatch):
    # the minimum lies outside the seed grid's lambda range, as the DRAG
    # optimum does, and the axes are coupled
    est = rabi_area_estimate(space, 3.0)
    eps_min, lam_min = 1.03 * est, 4.7

    def error(eps_d, lam):
        de, dl = (eps_d - eps_min) / est, lam - lam_min
        return 1e-6 + 50.0 * de ** 2 + 0.3 * de * dl + 2e-3 * dl ** 2

    calls = _fake_gate(monkeypatch, error)
    pulse, _ = optimize_pulse(space, 3.0)
    tol = 1e-6 * max(1.0, est)
    assert abs(pulse.eps_d - eps_min) <= tol
    assert abs(pulse.lam - lam_min) <= tol
    # Newton steps on an exact model: a stencil-only search needs far more
    assert len(calls) <= 60


def test_refinement_of_a_flat_objective_returns_the_seed(space, monkeypatch):
    # a clamped gate error reads 0.0 around a long gate's optimum: a zero
    # gradient and Hessian must shrink the stencil, not divide by zero
    calls = _fake_gate(monkeypatch, lambda eps_d, lam: 0.0)
    with np.errstate(all="raise"):
        pulse, result = optimize_pulse(space, 3.0)
    # every seed ties, so the first grid point is the seed
    assert (pulse.eps_d, pulse.lam) == calls[0]
    assert result.error == 0.0
    assert np.all(np.isfinite(calls))


def test_refinement_on_a_singular_hessian_stays_finite():
    # f = (x - y)^2 has a singular Hessian everywhere: steepest descent
    with np.errstate(all="raise"):
        sol = gates.minimize(lambda x: (x[0] - x[1]) ** 2, [1.0, 0.0],
                             scale=(0.1, 0.1), xatol=1e-8)
    assert np.all(np.isfinite(sol.x))
    assert sol.fun < 1e-12
    assert sol.success


def test_pulse_optimisation_evaluation_count(space, monkeypatch):
    calls = _recording_gate(monkeypatch)
    optimize_pulse(space, 3.0, n_eps=3, n_lam=3)
    # 9 seeds and the refinement, which stops at the error floor: 27 from
    # the centred lambda axis (33 before a trusted Newton step shrank the
    # stencil by 8), 39 from (-2, 0, 2) before that; Nelder-Mead needed 120
    assert len(calls) <= 27


def _recorded(fun):
    """fun, recording every point it is called at; returns it and the
    list of points."""
    calls = []

    def recorded(x):
        calls.append(np.array(x, dtype=float))
        return fun(x)

    return recorded, calls


def _coupled_quadratic(x):
    """A quadratic with coupled axes and its minimum 1e-6 at (1.3, -0.7),
    1.5 stencil radii from the origin."""
    d0, d1 = x[0] - 1.3, x[1] + 0.7
    return 1e-6 + 2.0 * d0 ** 2 + 0.6 * d0 * d1 + 0.5 * d1 ** 2


def _second_radius(calls):
    """The radius of the second iteration's stencil (calls 7-11) around the
    point accepted by the first (call 6, its step)."""
    offsets = np.array(calls[7:12]) - calls[6]
    radius = offsets[0, 0]
    np.testing.assert_allclose(offsets, radius * gates._STENCIL, atol=1e-14)
    return radius


def test_a_newton_step_that_delivers_its_prediction_is_trusted():
    # the model is exact: its Newton step lands on the minimum and achieves
    # all it predicts, so the next stencil is r/8 around it, and that
    # iteration finds nothing left above the floor
    fun, calls = _recorded(_coupled_quadratic)
    sol = gates.minimize(fun, [0.0, 0.0], scale=(1.0, 1.0), xatol=1e-12,
                         fatol=gates.ERROR_FLOOR)
    np.testing.assert_allclose(calls[6], (1.3, -0.7), atol=1e-12)
    assert _second_radius(calls) == pytest.approx(1.0 / 8.0, rel=1e-12)
    assert (sol.nit, sol.nfev, len(calls)) == (2, 13, 13)
    assert sol.success
    assert sol.fun - 1e-6 < gates.ERROR_FLOOR


def _notched(x):
    """(x0 - 3.5)^2 + x1^2 raised by 6.2 within 1e-3 of its minimum: the
    Newton step from the origin (3.5 radii, unclipped) lands there and
    still beats every stencil value (at best 6.25), but achieves 6.05 of
    the 12.25 its model predicts."""
    value = (x[0] - 3.5) ** 2 + x[1] ** 2
    return value + (6.2 if np.hypot(x[0] - 3.5, x[1]) < 1e-3 else 0.0)


@pytest.mark.parametrize("fun, radius", [
    # the unnotched quadratic: its step delivers, r / 8
    (lambda x: (x[0] - 3.5) ** 2 + x[1] ** 2, 1.0 / 8.0),
    # the minimum 10 radii away: the step is clipped to 4 radii, and the
    # radius shrinks to min(r, max(|step|, r / 8)) = r
    (lambda x: (x[0] - 10.0) ** 2 + x[1] ** 2, 1.0),
    # the step achieves less than half its prediction: r as well
    (_notched, 1.0),
])
def test_only_a_delivering_unclipped_newton_step_is_trusted(fun, radius):
    recorded, calls = _recorded(fun)
    gates.minimize(recorded, [0.0, 0.0], scale=(1.0, 1.0), xatol=1e-12,
                   fatol=gates.ERROR_FLOOR)
    # the first iteration accepted its step
    assert fun(calls[6]) < min(fun(x) for x in calls[:6])
    assert _second_radius(calls) == pytest.approx(radius, rel=1e-12)


def test_a_refinement_that_never_converges_raises(space, monkeypatch):
    # a gate error falling linearly in lambda has no minimum: every step is
    # the clipped Cauchy step, the stencil never shrinks, and the
    # refinement stops at its iteration bound without success
    calls = _fake_gate(monkeypatch, lambda eps_d, lam: 0.5 - 1e-3 * lam)
    with pytest.raises(OptimizerConsistencyError, match="did not converge"):
        optimize_pulse(space, 3.0)
    # 9 seeds, the seed point reused, 6 evaluations per iteration
    assert len(calls) == 9 + 6 * gates._MAX_REFINE_ITER


def test_a_seed_replaces_the_grid(space, monkeypatch):
    est = rabi_area_estimate(space, 3.0)
    seed = (1.01 * est, 4.5)
    calls = _fake_gate(monkeypatch, lambda eps_d, lam: (
        1e-6 + 50.0 * (eps_d / est - 1.03) ** 2 + 2e-3 * (lam - 4.7) ** 2))
    pulse, _ = optimize_pulse(space, 3.0, seed=seed)
    # the seed is the first point and no grid point is evaluated
    assert calls[0] == seed
    grid = set(_grid_points(space, 3, 3, space.lam_drag - 2.0,
                            space.lam_drag + 2.0))
    assert not grid & set(calls)
    assert abs(pulse.eps_d - 1.03 * est) <= 1e-6 * max(1.0, est)
    assert abs(pulse.lam - 4.7) <= 1e-6


def test_refinement_worse_than_its_seed_raises(space, monkeypatch):
    # a refinement that returns a point worse than the seed it started from
    calls = _fake_gate(monkeypatch, lambda eps_d, lam: abs(lam - 4.0))
    monkeypatch.setattr(gates, "minimize", lambda fun, x0, **kwargs:
                        SimpleNamespace(fun=fun([x0[0], 5.0]),
                                        x=np.array([x0[0], 5.0]),
                                        success=True))
    with pytest.raises(OptimizerConsistencyError, match="worse than seed"):
        optimize_pulse(space, 3.0, seed=(1.0, 4.0))
    assert calls == [(1.0, 4.0), (1.0, 5.0)]


@pytest.mark.parametrize("seed", [(0.0, 4.7), (-1.0, 4.7), (math.nan, 4.7),
                                  (math.inf, 4.7), (1.0, math.nan),
                                  (1.0, math.inf)])
def test_a_seed_outside_the_pulse_domain_raises(space, monkeypatch, seed):
    calls = _fake_gate(monkeypatch, lambda eps_d, lam: 0.5)
    with pytest.raises(DomainError, match="seed"):
        optimize_pulse(space, 3.0, seed=seed)
    assert calls == []


def _refinement_values(monkeypatch):
    """Record the value of every call the refinement makes of its
    objective, repeated points included; returns the list."""
    values = []
    minimize = gates.minimize

    def recording_minimize(fun, x0, **kwargs):
        def recorded(x):
            values.append(fun(x))
            return values[-1]
        return minimize(recorded, x0, **kwargs)

    monkeypatch.setattr(gates, "minimize", recording_minimize)
    return values


def _clamped_error(ratio, lam):
    """A gate error of (eps_d / Rabi-area estimate, lambda), clamped at 0.0
    on a patch around its minimum, as the fidelity clamp makes it around a
    long gate's optimum."""
    de, dl = ratio - 1.03, lam - 4.7
    return max(0.0, 50.0 * de ** 2 + 0.3 * de * dl + 2e-3 * dl ** 2 - 1e-3)


def test_no_pulse_is_evaluated_twice(space, monkeypatch):
    # neither the best seed nor the winner is evaluated again, and a
    # stencil that comes back to an evaluated point reuses its result
    calls = _recording_gate(monkeypatch)
    optimize_pulse(space, 3.0)
    points = [(pulse.eps_d, pulse.lam) for pulse in calls]
    assert len(set(points)) == len(points)
    monkeypatch.undo()
    est = rabi_area_estimate(space, 3.0)
    values = _refinement_values(monkeypatch)
    calls = _fake_gate(monkeypatch,
                       lambda eps_d, lam: _clamped_error(eps_d / est, lam))
    optimize_pulse(space, 3.0)
    assert len(set(calls)) == len(calls)
    # the refinement asked for some point more than once
    assert len(values) > len(calls) - 9


def test_returned_result_is_the_evaluation_of_the_returned_pulse(space):
    # the result comes from the search, bit for bit the fresh evaluation
    for dt in (DEFAULT_GATE_DT, DEFAULT_GATE_DT / 2):
        pulse, result = optimize_pulse(space, 3.0, dt=dt)
        fresh = evaluate_gate(space, pulse, dt)
        assert result.params == pulse
        assert (result.fidelity, result.leakage) == (fresh.fidelity,
                                                     fresh.leakage)
        assert result.propagator.tobytes() == fresh.propagator.tobytes()


def test_refinement_stops_once_a_clamped_error_ties_at_zero(space,
                                                            monkeypatch):
    # the stencil lands on the patch where the error reads 0.0; once all
    # its values tie there, the next iteration is not made: the error has
    # no more digits to resolve, whatever the stencil size
    est = rabi_area_estimate(space, 3.0)
    values = _refinement_values(monkeypatch)
    _fake_gate(monkeypatch, lambda eps_d, lam: _clamped_error(eps_d / est, lam))
    _, result = optimize_pulse(space, 3.0)
    assert result.error == 0.0
    # the trailing zeros: at most the tail of the iteration that reached
    # the patch (4 stencil values and its step) and one all-zero stencil
    zeros = len(values) - max(i for i, v in enumerate(values) if v > 0) - 1
    assert 5 <= zeros <= 10


def test_refinement_from_inside_a_flat_patch_makes_one_iteration():
    # every stencil value ties with the seed value: one iteration, the seed
    # and five stencil evaluations, and success, although the stencil is
    # far above xatol
    calls = []

    def clamped(x):
        calls.append(tuple(x))
        return max(0.0, x[0] ** 2 + x[1] ** 2 - 1.0)

    sol = gates.minimize(clamped, [0.1, 0.0], scale=(0.1, 0.1), xatol=1e-8,
                         fatol=gates.ERROR_FLOOR)
    assert (sol.nit, sol.nfev, len(calls)) == (1, 6, 6)
    assert sol.success and sol.fun == 0.0
    assert tuple(sol.x) == (0.1, 0.0)


def test_floor_does_not_stop_a_clipped_step_short(space, monkeypatch):
    # the minimum lies 19 clip radii (4 stencil units of 0.5) beyond the
    # seed along a flat lambda axis, 1e-9 below the seed's error: a clipped
    # step predicts and achieves less than the floor, the step to the
    # model's minimum more, so the refinement goes on until the error left
    # is below the floor
    est = rabi_area_estimate(space, 3.0)
    lam_min = 40.0
    curv = 1e-9 / (lam_min - 2.0) ** 2

    def error(eps_d, lam):
        return 1e-6 + 50.0 * (eps_d / est - 1.0) ** 2 + curv * (lam - lam_min) ** 2

    _fake_gate(monkeypatch, error)
    pulse, result = optimize_pulse(space, 3.0)
    assert result.error - 1e-6 <= gates.ERROR_FLOOR
    assert pulse.lam > 20.0


@pytest.mark.slow
def test_pulse_optimisation_at_30ns(space, monkeypatch):
    # the longest default gate: its error reaches the clamp at 0.0, and the
    # refinement stops there instead of shrinking its stencil to xatol
    calls = _recording_gate(monkeypatch)
    _, result = optimize_pulse(space, 30.0)
    assert len(calls) <= 22
    assert result.error <= 1e-10


def _nelder_mead_optimum(space, tau_g):
    """The pulse optimiser as it was before the quadratic refinement: the
    3 x 3 seed grid, then scipy's Nelder-Mead with its former options."""
    est = rabi_area_estimate(space, tau_g)

    def error(x):
        if x[0] <= 0:
            return 1.0
        pulse = PulseParams(tau_g, float(x[0]), float(x[1]), space.omega_01)
        return evaluate_gate(space, pulse).error

    seeds = [(error((e, x)), float(e), float(x))
             for e in np.geomspace(est / 2.5, est * 2.5, 3)
             for x in np.linspace(-2.0, 2.0, 3)]
    _, eps0, lam0 = min(seeds, key=lambda seed: seed[0])
    return optimize.minimize(error, x0=[eps0, lam0], method="Nelder-Mead",
                             options={"xatol": 1e-6 * max(1.0, eps0),
                                      "fatol": 1e-12, "maxiter": 400})


@pytest.mark.slow
@pytest.mark.parametrize("tau_g", [3.0, 10.0])
def test_refinement_agrees_with_nelder_mead(space, tau_g):
    pulse, result = optimize_pulse(space, tau_g)
    ref = _nelder_mead_optimum(space, tau_g)
    assert result.error <= ref.fun + 1e-12
    assert abs(pulse.eps_d - ref.x[0]) <= 1e-5 * ref.x[0]
    assert abs(pulse.lam - ref.x[1]) <= 1e-3
    # the noisy gate errors that noise-gates reports from these pulses
    ref_pulse = PulseParams(tau_g, *map(float, ref.x), space.omega_01)
    spec = NoiseSpec(1e-2, 4, 1234)
    draws = [noisy_gate_error(PARAMS, RES, [p], spec).draws[:, 0]
             for p in (pulse, ref_pulse)]
    assert np.max(np.abs(draws[0] - draws[1])) <= 1e-6


# tau_g: how far the floor rule may leave the pulse from where the
# refinement without it lands, as README states: gates.csv error, eps_d
# (relative) and lambda; then the 4-draw noise_gates.csv mean and standard
# error. At 30 ns both stop at the same pulse.
FLOOR_BOUNDS = {10.0: (1e-12, 1.5e-7, 6e-5, 1e-7, 5e-8),
                20.0: (1e-13, 2.1e-8, 1.3e-5, 1e-7, 1e-8),
                30.0: (0.0, 0.0, 0.0, 0.0, 0.0)}


@pytest.mark.slow
def test_error_floor_moves_the_pulse_within_stated_bounds(space,
                                                          monkeypatch):
    # against the refinement without the floor (which shrinks its stencil
    # to xatol, as before the floor), at each default gate time
    spec = NoiseSpec(1e-2, 4, 1234)
    for tau_g, (d_err, d_eps, d_lam, d_mean, d_stderr) in FLOOR_BOUNDS.items():
        monkeypatch.undo()
        pulse, result = optimize_pulse(space, tau_g)
        monkeypatch.setattr(gates, "ERROR_FLOOR", 0.0)
        ref_pulse, ref = optimize_pulse(space, tau_g)
        assert result.error <= ref.error + d_err, tau_g
        assert abs(pulse.eps_d - ref_pulse.eps_d) <= d_eps * ref_pulse.eps_d, \
            tau_g
        assert abs(pulse.lam - ref_pulse.lam) <= d_lam, tau_g
        curves = [noisy_gate_error(PARAMS, RES, [p], spec)
                  for p in (pulse, ref_pulse)]
        assert abs(curves[0].mean[0] - curves[1].mean[0]) <= d_mean, tau_g
        assert abs(curves[0].stderr[0] - curves[1].stderr[0]) <= d_stderr, \
            tau_g


@pytest.mark.slow
@pytest.mark.parametrize("tau_g", [10.0, 20.0])
def test_centred_lambda_axis_moves_the_pulse_within_stated_bounds(space,
                                                                  tau_g):
    # against the former axis (-2, 0, 2), centred on a zero DRAG weight:
    # the gates.csv error, eps_d and lambda, and the noise_gates.csv mean
    # and standard error
    pulse, result = optimize_pulse(space, tau_g)
    ref_pulse, ref = optimize_pulse(replace(space, lam_drag=0.0), tau_g)
    assert result.error <= ref.error + 1e-12
    assert abs(pulse.eps_d - ref_pulse.eps_d) <= 1e-6 * ref_pulse.eps_d
    assert abs(pulse.lam - ref_pulse.lam) <= 1e-3
    spec = NoiseSpec(1e-2, 4, 1234)
    curves = [noisy_gate_error(PARAMS, RES, [p], spec)
              for p in (pulse, ref_pulse)]
    assert abs(curves[0].mean[0] - curves[1].mean[0]) <= 1e-7
    assert abs(curves[0].stderr[0] - curves[1].stderr[0]) <= 1e-7


def _poor_labels(monkeypatch, poor_calls):
    """Make the gate space's dressed labels report a quality below
    MIN_ASSIGNMENT_QUALITY on the calls whose index (from 0) poor_calls
    accepts."""
    assign = gates.assign_dressed_levels
    count = [0]

    def assign_poorly(vecs):
        index, quality = assign(vecs)
        if poor_calls(count[0]):
            quality = np.full_like(quality, 0.5 * MIN_ASSIGNMENT_QUALITY)
        count[0] += 1
        return index, quality

    monkeypatch.setattr(gates, "assign_dressed_levels", assign_poorly)


def test_no_gate_space_is_built_with_poor_labels(monkeypatch):
    # the refusal comes where the space is built, before any evaluation
    _poor_labels(monkeypatch, lambda call: True)
    calls = _recording_gate(monkeypatch)
    with pytest.raises(ResonanceRegionError) as info:
        build_gate_space(PARAMS, FluxBias(0.5), RES)
    assert info.value.worst_quality == 0.5 * MIN_ASSIGNMENT_QUALITY
    assert calls == []


def test_gate_draws_with_poor_labels_are_excluded(space, monkeypatch):
    pulses = [PulseParams(tau, rabi_area_estimate(space, tau), space.lam_drag,
                          space.omega_01) for tau in (3.0, 4.0)]
    spec = NoiseSpec(1e-2, 4, 1234)
    clean = noisy_gate_error(PARAMS, RES, pulses, spec)
    assert clean.n_excluded == 0
    # one space per draw, shared by both pulses: draws 1 and 3 lose their
    # labels
    _poor_labels(monkeypatch, lambda call: call % 2 == 1)
    curve = noisy_gate_error(PARAMS, RES, pulses, spec)
    assert (curve.n_effective, curve.n_excluded) == (2, 2)
    assert curve.included.tolist() == [True, False, True, False]
    assert curve.draws[[1, 3]].tolist() == [[0.0, 0.0], [0.0, 0.0]]
    assert curve.draws[[0, 2]].tobytes() == clean.draws[[0, 2]].tobytes()


def test_gate_space_structure(space):
    # computational basis columns are orthonormal dressed eigenvectors
    overlap = space.comp_basis.conj().T @ space.comp_basis
    assert np.max(np.abs(overlap - np.eye(2))) < 1e-12
    assert space.omega_01 > 0
    assert space.anharm > 0
    dims = gates.GATE_DIMS
    assert space.h0_evals.shape == (dims.kept * dims.n_res,)
    # the default device's labels hold far above the breakdown threshold
    _, quality = gates.assign_dressed_levels(space.h0_evecs)
    assert min(quality[0], quality[dims.n_res]) > 0.999


@pytest.mark.parametrize("mode", list(CouplingMode))
def test_gate_frame_matches_sweep_labels(mode):
    # the gate space labels its eigensystem with the greedy assignment, the
    # sweep with argmax labels; both must find the same dressed |0,0>, |1,0>
    dims = CoupledDims(kept=6, n_res=3)
    grid = [0.47, 0.5, 0.641]
    sweep = sweep_dressed(PARAMS, grid, RES, mode, dims, ((0, 0), (1, 0)))
    want = sweep.energy_of(1, 0) - sweep.energy_of(0, 0)
    for f, omega_01 in zip(grid, want):
        space = build_gate_space(PARAMS, FluxBias(f), RES, mode, dims)
        assert space.omega_01 == pytest.approx(omega_01, rel=1e-12), f


@pytest.mark.slow
def test_gate_error_converged_in_the_gate_space_truncation(space):
    # the frozen 10 and 30 ns pulses of criterion 7 at f = 0.5 + delta, as
    # gate_draw runs them (the delta = 0 anharmonicity), on GATE_DIMS at
    # DEFAULT_GATE_DT against 10 qubit levels x 5 photon states at half the
    # step. Measured gaps E - E_ref: 10 ns +2.99e-7, +2.66e-6, +1.77e-5
    # (0.88 %, 0.10 %, 0.007 % of E_ref); 30 ns +3.19e-7, +2.76e-6,
    # +4.3e-8 (0.10 %, 0.011 %, 6e-8 relative). The qubit truncation
    # dominates; 3 qubit levels move E by up to 78 % of E_ref.
    pulses = [PulseParams(10.0, 1.557152, 4.7745, space.omega_01),
              PulseParams(30.0, 0.518938, 4.7634, space.omega_01)]
    for delta in (1e-3, 3e-3, 1e-2):
        got = gate_draw(delta, PARAMS, RES, pulses, space.anharm)
        ref = gate_draw(delta, PARAMS, RES, pulses, space.anharm,
                        dims=CoupledDims(kept=10, n_res=5),
                        dt=DEFAULT_GATE_DT / 2)
        for g, r in zip(got, ref):
            gap = g.error - r.error
            assert 0.0 < gap < min(1e-2 * r.error, 2e-5), (delta, g, r)

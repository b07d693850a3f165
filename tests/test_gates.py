"""Tests for DRAG pulse gates: envelopes, propagation, fidelity."""

import math
from dataclasses import replace

import numpy as np
import pytest

from fluxsim.coupled import ResonatorParams
from fluxsim.errors import DomainError, StepSizeError
from fluxsim.gates import (
    UNITARITY_BUDGET,
    GateResult,
    PulseParams,
    build_gate_space,
    drag_envelope,
    drive_coefficient,
    envelope,
    evaluate_gate,
    gate_fidelity,
    propagate_gate,
    rabi_area_estimate,
)
from fluxsim.qubit import EnergyParams, FluxBias

PARAMS = EnergyParams.from_ghz(4.75, 1.25, 1.5)
RES = ResonatorParams.from_ghz(7.0, 5.0, 50.0)


@pytest.fixture(scope="module")
def space():
    return build_gate_space(PARAMS, FluxBias(0.5), RES)


def test_envelope_shape():
    assert envelope(0.0, 10.0) == 0.0
    assert envelope(10.0, 10.0) == pytest.approx(0.0, abs=1e-15)
    assert envelope(5.0, 10.0) == pytest.approx(1.0)
    with pytest.raises(DomainError):
        envelope(-0.1, 10.0)
    with pytest.raises(DomainError):
        envelope(10.1, 10.0)


def test_drag_envelope_shape():
    # analytic derivative of the in-phase envelope, scaled by lam / anharm
    tau, lam, anharm = 10.0, 0.5, 2.0
    t = 2.5
    want = (lam / anharm) * (math.pi / tau) * math.sin(2.0 * math.pi * t / tau)
    assert drag_envelope(t, tau, lam, anharm) == pytest.approx(want, rel=1e-14)
    with pytest.raises(ZeroDivisionError):
        drag_envelope(t, tau, lam, 0.0)
    with pytest.raises(DomainError):
        drag_envelope(-1.0, tau, lam, anharm)


def test_drive_coefficient_composition(space):
    pulse = PulseParams(10.0, 0.3, 0.7, space.omega_01)
    t = 3.3
    s = envelope(t, 10.0)
    sp = drag_envelope(t, 10.0, 0.7, space.anharm)
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


def test_gate_space_structure(space):
    # computational basis columns are orthonormal dressed eigenvectors
    overlap = space.comp_basis.conj().T @ space.comp_basis
    assert np.max(np.abs(overlap - np.eye(2))) < 1e-12
    assert space.omega_01 > 0
    assert space.anharm > 0
    assert space.h0_evals.shape == (space.dims.kept * space.dims.n_res,)

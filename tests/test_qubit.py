"""Tests for the bare fluxonium model."""

import math

import numpy as np
import pytest

from fluxsim import units
from fluxsim.errors import IndexBoundError, InvalidDimensionError
from fluxsim.qubit import (
    DEFAULT_DIM,
    EnergyParams,
    FluxBias,
    anharmonicity,
    build_ho_operators,
    charge_matrix_element,
    fluxonium_hamiltonians,
    fluxonium_spectrum,
)

PARAMS = EnergyParams.from_ghz(4.75, 1.25, 1.5)


def test_commutator_of_charge_and_flux():
    # [phi, n] = i on the bulk of the truncated space
    _, _, n_op, phi_op = build_ho_operators(30, PARAMS.phi0)
    comm = phi_op @ n_op - n_op @ phi_op
    bulk = comm[:25, :25]
    assert np.max(np.abs(bulk - 1j * np.eye(25))) < 1e-12


def test_hamiltonian_is_hermitian():
    h = fluxonium_hamiltonians(PARAMS, [0.37], 24)[0]
    assert np.max(np.abs(h - h.conj().T)) == 0.0


def test_invalid_dimension_rejected():
    with pytest.raises(InvalidDimensionError):
        build_ho_operators(1, PARAMS.phi0)


def test_harmonic_limit_uniform_spacing():
    params = EnergyParams(0.0, units.ghz(1.25), units.ghz(1.5))
    spec = fluxonium_spectrum(params, FluxBias(0.3), 60)
    gaps = np.diff(spec.eigenvalues[:12])
    expected = math.sqrt(8.0 * params.e_c * params.e_l)
    assert np.max(np.abs(gaps / expected - 1.0)) < 1e-10


def test_sweet_spot_frequency_and_anharmonicity():
    wq = fluxonium_spectrum(PARAMS, FluxBias(0.5)).transition(1, 0)
    assert units.to_ghz(wq) == pytest.approx(1.0483, abs=2e-3)
    alpha = anharmonicity(PARAMS, FluxBias(0.5))
    assert units.to_ghz(alpha) == pytest.approx(3.020, abs=5e-3)


def test_spectrum_flux_symmetry():
    for f in (0.3, 0.45, 0.62):
        a = fluxonium_spectrum(PARAMS, FluxBias(f)).eigenvalues[:10]
        b = fluxonium_spectrum(PARAMS, FluxBias(1.0 - f)).eigenvalues[:10]
        assert np.max(np.abs(a - b)) < 1e-8


def test_eigenvector_phase_convention_deterministic():
    s1 = fluxonium_spectrum(PARAMS, FluxBias(0.41))
    s2 = fluxonium_spectrum(PARAMS, FluxBias(0.41))
    assert np.array_equal(s1.eigenvectors, s2.eigenvectors)
    # pivot components are real positive
    for k in range(6):
        col = s1.eigenvectors[:, k]
        pivot = col[int(np.argmax(np.abs(col)))]
        assert pivot.imag == pytest.approx(0.0, abs=1e-14)
        assert pivot.real > 0.0


def test_charge_matrix_element_selection_rule_at_sweet_spot():
    spec = fluxonium_spectrum(PARAMS, FluxBias(0.5))
    # even-parity transition suppressed exactly at half flux
    assert abs(charge_matrix_element(spec, 0, 2)) < 1e-10
    assert abs(charge_matrix_element(spec, 0, 1)) > 0.1


def test_charge_matrix_element_off_sweet_spot():
    spec = fluxonium_spectrum(PARAMS, FluxBias(0.641))
    n20 = abs(charge_matrix_element(spec, 2, 0))
    g_mhz = 50.0 * n20
    assert g_mhz == pytest.approx(18.32, rel=0.05)


def test_charge_matrix_element_index_bound():
    spec = fluxonium_spectrum(PARAMS, FluxBias(0.5), 20)
    with pytest.raises(IndexBoundError):
        charge_matrix_element(spec, 0, 10)


def test_transition_ordering():
    spec = fluxonium_spectrum(PARAMS, FluxBias(0.5))
    assert spec.transition(1, 0) > 0
    assert spec.transition(2, 0) == pytest.approx(
        spec.transition(2, 1) + spec.transition(1, 0), abs=1e-12)

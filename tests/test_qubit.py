"""Tests for the bare fluxonium model."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluxsim import units
from fluxsim.coupled import CouplingMode, _coupling_operator
from fluxsim.errors import InvalidDimensionError
from fluxsim.qubit import (
    DEFAULT_DIM,
    EnergyParams,
    FluxBias,
    anharmonicity,
    build_ho_operators,
    canonical_flux,
    fluxonium_hamiltonians,
    fluxonium_spectrum,
    spectrum_sweep,
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
    vals, _ = fluxonium_spectrum(params, FluxBias(0.3), 60)
    gaps = np.diff(vals[:12])
    expected = math.sqrt(8.0 * params.e_c * params.e_l)
    assert np.max(np.abs(gaps / expected - 1.0)) < 1e-10


def test_sweet_spot_frequency_and_anharmonicity():
    vals, _ = fluxonium_spectrum(PARAMS, FluxBias(0.5))
    wq = vals[1] - vals[0]
    assert units.to_ghz(wq) == pytest.approx(1.0483, abs=2e-3)
    alpha = anharmonicity(vals)
    assert units.to_ghz(alpha) == pytest.approx(3.020, abs=5e-3)


def test_spectrum_flux_symmetry():
    for f in (0.3, 0.45, 0.62):
        a = fluxonium_spectrum(PARAMS, FluxBias(f))[0][:10]
        b = fluxonium_spectrum(PARAMS, FluxBias(1.0 - f))[0][:10]
        assert np.max(np.abs(a - b)) < 1e-8


def test_eigenvector_phase_convention_deterministic():
    _, v1 = fluxonium_spectrum(PARAMS, FluxBias(0.41))
    _, v2 = fluxonium_spectrum(PARAMS, FluxBias(0.41))
    assert np.array_equal(v1, v2)
    # pivot components are real positive
    for k in range(6):
        col = v1[:, k]
        pivot = col[int(np.argmax(np.abs(col)))]
        assert pivot.imag == pytest.approx(0.0, abs=1e-14)
        assert pivot.real > 0.0


def _charge_elements(f):
    """<i|n|j> over the three lowest bare levels at flux f: the charge
    operator that the CHARGE-mode Hamiltonian and the gate space project."""
    _, vecs = fluxonium_spectrum(PARAMS, FluxBias(f))
    return _coupling_operator(vecs, PARAMS, CouplingMode.CHARGE, 3)


def test_charge_element_selection_rule_at_sweet_spot():
    n_op = _charge_elements(0.5)
    # even-parity transition suppressed exactly at half flux
    assert abs(n_op[0, 2]) < 1e-10
    assert abs(n_op[0, 1]) > 0.1


def test_charge_element_off_sweet_spot():
    n20 = abs(_charge_elements(0.641)[2, 0])
    g_mhz = 50.0 * n20
    assert g_mhz == pytest.approx(18.32, rel=0.05)


def test_transition_ordering():
    vals, _ = fluxonium_spectrum(PARAMS, FluxBias(0.5))
    assert vals[1] - vals[0] > 0
    assert vals[2] - vals[0] == pytest.approx(
        (vals[2] - vals[1]) + (vals[1] - vals[0]), abs=1e-12)


def test_canonical_flux_folds_into_half_period():
    f = np.array([0.0, 0.3, 0.5, 0.7, 1.0, 1.3, -0.3, -1.7, 0.5 + 1e-9])
    g, mirrored = canonical_flux(f)
    assert g.tolist() == [0.0, 0.3, 0.5, 0.3, 0.0, 0.3, 0.3, 0.3, 0.5 - 1e-9]
    assert mirrored.tolist() == [False, False, False, True, False, False,
                                 True, False, True]
    # grid partners about 1/2 fold to the same double
    grid = 0.40 + 1e-4 * np.arange(3001)
    g, _ = canonical_flux(grid)
    assert np.array_equal(g[:1001], g[1000:2001][::-1])
    assert np.unique(g).size == 2001
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            canonical_flux([0.5, bad])


@settings(max_examples=60, deadline=None)
@given(st.floats(-2.0, 2.0))
def test_mirrored_eigenvectors_solve_the_unfolded_hamiltonian(f):
    # vectors at f come from the canonical flux, mapped back by the parity
    # where f is mirrored: they must still be eigenvectors of H(f) itself
    vals, vecs = spectrum_sweep(PARAMS, [f])
    h = fluxonium_hamiltonians(PARAMS, [f])[0]
    residual = h @ vecs[0] - vecs[0] * vals[0]
    assert np.max(np.abs(residual)) <= 1e-12 * np.max(np.abs(h).sum(axis=1))


@settings(max_examples=40, deadline=None)
@given(fluxes=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=4),
       e_j=st.floats(2.0, 10.0))
def test_bare_stacks_are_symmetric_with_ascending_eigenvalues(fluxes, e_j):
    params = EnergyParams.from_ghz(e_j, 1.25, 1.5)
    h = fluxonium_hamiltonians(params, fluxes)
    assert h.dtype == np.float64
    assert np.array_equal(h, np.swapaxes(h, -1, -2))
    vals, _ = spectrum_sweep(params, fluxes)
    assert np.all(np.diff(vals, axis=1) >= 0.0)

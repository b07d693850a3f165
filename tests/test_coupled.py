"""Tests for the coupled fluxonium-resonator model."""

import math
import threading
import time

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from fluxsim import coupled, diagnostics, qubit, units
from fluxsim.coupled import (
    CHI_LABELS,
    DEFAULT_MODE,
    DEFAULT_TRANSITIONS,
    MIN_ASSIGNMENT_QUALITY,
    Anticrossing,
    CoupledDims,
    CouplingMode,
    DressedSweep,
    ResonatorParams,
    assemble_coupled,
    assign_dressed_levels,
    chi_grid,
    chi_profile,
    compute_landscapes,
    dispersive_shift,
    fill_and_clamp,
    find_anticrossing,
    sweep_dressed,
)
from fluxsim.cli import LANDSCAPE_EMISSION, landscape_columns
from fluxsim.errors import (
    BracketingError,
    InvalidDimensionError,
    NumericalFailureError,
    ResonanceRegionError,
)
from fluxsim.qubit import (
    EnergyParams,
    FluxBias,
    canonical_flux,
    fluxonium_hamiltonians,
    fluxonium_spectrum,
)

from conftest import reference, two_level_eigensystem, unfolded_spectrum_sweep

PARAMS = EnergyParams.from_ghz(4.75, 1.25, 1.5)
RES = ResonatorParams.from_ghz(7.0, 5.0, 50.0)
# the configured 3-1 anticrossing search (the anticrossing.* defaults)
AC_31 = {"transition": (3, 1), "window": (0.55, 0.60)}


def _jc_energy(n_exc, branch, omega_q, omega_r, g):
    """Analytic Jaynes-Cummings dressed energy in the n_exc excitation block
    (branch +1/-1 picks the upper/lower dressed level); includes the
    resonator zero-point offset omega_r / 2."""
    if n_exc == 0:
        return 0.5 * omega_r
    mean = n_exc * omega_r + 0.5 * omega_q
    split = 0.5 * math.sqrt((omega_q - omega_r) ** 2 + 4.0 * g * g * n_exc)
    return mean + branch * split


def _jc_label_energy(i, n, omega_q, omega_r, g):
    """Dressed energy of the state labeled |qubit i, n photons> in the
    dispersive regime (label follows the adiabatically connected branch)."""
    sign = 1.0 if omega_q > omega_r else -1.0
    if i == 0:
        if n == 0:
            return _jc_energy(0, 0.0, omega_q, omega_r, g)
        return _jc_energy(n, -sign, omega_q, omega_r, g)
    return _jc_energy(n + 1, sign, omega_q, omega_r, g)


def test_two_level_ladder_matches_jaynes_cummings():
    omega_q = units.ghz(5.2)
    dressed = two_level_eigensystem(omega_q, RES)
    for i in range(2):
        for n in range(4):
            want = _jc_label_energy(i, n, omega_q, RES.omega_r, RES.g)
            assert abs(dressed.energy_of(i, n)[0] - want) < 1e-10


def test_two_level_dispersive_shift_matches_analytic():
    omega_q = units.ghz(5.2)
    dressed = two_level_eigensystem(omega_q, RES)
    assert dressed.labels == tuple((i, n) for i in range(2) for n in range(8))
    chi = dressed.chi()[0]
    e = lambda i, n: _jc_label_energy(i, n, omega_q, RES.omega_r, RES.g)
    want = 0.5 * ((e(1, 1) - e(1, 0)) - (e(0, 1) - e(0, 0)))
    assert abs(chi - want) < 1e-12


def test_ladder_coupling_conserves_excitation():
    k, m = 4, 5
    c = np.diag(np.sqrt(np.arange(1.0, k)), 1).astype(complex)
    energies = np.arange(k) * units.ghz(1.1)
    h = assemble_coupled(energies, c, RES, CouplingMode.LADDER_RWA, m)
    num = (np.kron(np.diag(np.arange(k, dtype=float)), np.eye(m))
           + np.kron(np.eye(k), np.diag(np.arange(m, dtype=float))))
    assert np.max(np.abs(h @ num - num @ h)) < 1e-12


def test_coupled_hamiltonian_is_hermitian_both_modes():
    energies = np.array([0.0, units.ghz(1.0), units.ghz(4.0)])
    op = np.array([[0.0, 0.3j, 0.1], [-0.3j, 0.0, 0.8], [0.1, 0.8, 0.0]],
                  dtype=complex)
    for mode in CouplingMode:
        h = assemble_coupled(energies, op, RES, mode, 4)
        assert np.max(np.abs(h - h.conj().T)) == 0.0


def test_dispersive_shift_reference_points():
    chi_sweet = dispersive_shift(PARAMS, FluxBias(0.5), RES)
    assert units.to_mhz(chi_sweet) == pytest.approx(0.527, abs=0.01)
    chi_ro = dispersive_shift(PARAMS, FluxBias(0.641), RES)
    assert units.to_mhz(chi_ro) == pytest.approx(-7.95, abs=0.08)


def test_dispersive_shift_matches_the_reference_model():
    # criteria 1 and 2's chi, against the plain-numpy ladder-RWA model in GHz
    for f in (0.5, 0.641):
        chi = units.to_mhz(dispersive_shift(PARAMS, FluxBias(f), RES))
        want = reference.dispersive_shift_mhz(4.75, 1.25, 1.5, f, 7.0, 50.0)
        assert abs(chi - want) < 1e-8, (f, chi, want)


def test_dispersive_shift_flux_symmetry():
    for f in (0.45, 0.62):
        a = dispersive_shift(PARAMS, FluxBias(f), RES)
        b = dispersive_shift(PARAMS, FluxBias(1.0 - f), RES)
        assert abs(a - b) < 1e-8


def test_transition_detuning_reference_points():
    sweep = sweep_dressed(PARAMS, [0.641], RES, DEFAULT_MODE, CoupledDims(),
                          ((0, 0), (1, 0), (2, 0)))
    d10 = sweep.detuning(RES, 1, 0)[0]
    assert units.to_ghz(d10) == pytest.approx(-2.39, abs=0.06)
    d20 = sweep.detuning(RES, 2, 0)[0]
    assert units.to_mhz(d20) == pytest.approx(-67.0, abs=5.0)
    with pytest.raises(ValueError):
        sweep.detuning(RES, 0, 1)


def test_landscape_matches_single_point_calls():
    dims = CoupledDims(dim=30, kept=5, n_res=4)
    e_j_axis = units.ghz(np.array([4.5, 5.0]))
    f_axis = np.array([0.45, 0.50, 0.52])
    grids = compute_landscapes(e_j_axis, f_axis, PARAMS.e_c, PARAMS.e_l, RES,
                               DEFAULT_MODE, dims)
    for a, e_j in enumerate(e_j_axis):
        params = EnergyParams(float(e_j), PARAMS.e_c, PARAMS.e_l)
        for b, f in enumerate(f_axis):
            chi = dispersive_shift(params, FluxBias(float(f)), RES,
                                   DEFAULT_MODE, dims)
            assert grids["chi"][a, b] == pytest.approx(chi, rel=1e-12)
            vals, _ = fluxonium_spectrum(params, FluxBias(float(f)), dims.dim)
            assert grids["omega_q"][a, b] == pytest.approx(
                vals[1] - vals[0], rel=1e-12)
    assert sorted(grids) == sorted(LANDSCAPE_EMISSION)
    assert all(g.shape == (2, 3) and np.all(np.isfinite(g))
               for g in grids.values())


def _emitted(kind, values):
    """(value, unit, status) columns of one landscape kind's emission of
    raw values over an (E_J, f) grid."""
    return landscape_columns(kind, np.array(values, dtype=float))


def test_landscape_emission_clamps_resonant_cells():
    dims = CoupledDims(dim=30, kept=4, n_res=3)
    grids = compute_landscapes(units.ghz(np.array([4.75])), np.array([0.5]),
                               PARAMS.e_c, PARAMS.e_l, RES, dims=dims)
    # chi is clamped to +-5 MHz and delta_ij to +-5 GHz; omega_q never
    chi_clamp, delta_clamp = units.mhz(5.0), units.ghz(5.0)
    assert [LANDSCAPE_EMISSION[k] for k in ("omega_q", "chi", "delta_31")] == [
        ("GHz", units.to_ghz, None), ("MHz", units.to_mhz, chi_clamp),
        ("GHz", units.to_ghz, delta_clamp)]
    # forge a resonant (NaN) cell and check the emitted fill and status
    c = chi_clamp
    value, unit, status = _emitted("chi",
                                   [[-0.4 * c, math.nan, 0.6 * c, 20 * c]])
    assert value.tolist() == units.to_mhz(
        np.array([-0.4 * c, -c, 0.6 * c, c])).tolist()
    assert unit == "MHz" and status.tolist() == ["ok", "resonant", "ok", "ok"]
    value, unit, status = _emitted("omega_q", [[100.0]])
    assert value.tolist() == [units.to_ghz(100.0)] and unit == "GHz"
    for kind, raw in grids.items():
        _, conv, clamp = LANDSCAPE_EMISSION[kind]
        value, unit, status = _emitted(kind, raw)
        want = raw[0, 0] if clamp is None else np.clip(raw[0, 0], -clamp, clamp)
        assert value.tolist() == [conv(want)] and status.tolist() == ["ok"]


def test_fill_and_clamp_leading_and_interior_runs():
    vals = [math.nan, math.nan, -2.0, math.nan, 3.0, 100.0]
    out = fill_and_clamp(vals, 5.0)
    assert list(out) == [-5.0, -5.0, -2.0, -5.0, 3.0, 5.0]


def test_anticrossing_reference():
    ac = find_anticrossing(PARAMS, RES, CouplingMode.CHARGE, **AC_31)
    assert isinstance(ac, Anticrossing)
    assert ac.f_star == pytest.approx(0.5725, abs=0.004)
    assert units.to_mhz(ac.g_ij) == pytest.approx(6.0, abs=0.4)
    assert ac.gap == pytest.approx(2.0 * ac.g_ij, rel=1e-12)
    assert ac.t_swap == pytest.approx(math.pi / (2.0 * ac.g_ij), rel=1e-12)


@pytest.mark.parametrize("mode, f_golden", [
    (CouplingMode.CHARGE, 0.5726269782557742),
    (CouplingMode.LADDER_RWA, 0.5725103969442604),
])
def test_anticrossing_within_xtol_of_golden_section(mode, f_golden,
                                                    monkeypatch):
    # f* of the golden-section search that bounded minimization replaced
    gaps = []
    minimize = scipy.optimize.minimize_scalar

    def spy(fun, *args, **kwargs):
        gaps.append(fun)
        return minimize(fun, *args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "minimize_scalar", spy)
    ac = find_anticrossing(PARAMS, RES, mode, **AC_31)
    assert coupled.ANTICROSSING_XTOL == 1e-6
    assert abs(ac.f_star - f_golden) <= 1e-6
    # the gap read from one-point sweeps' labels is, bit for bit, the gap of
    # the two dressed levels with the largest overlap on the bare span
    (gap,) = gaps
    assert ac.gap == _top_two_span_gap(ac.f_star, mode)
    for f in np.linspace(0.55, 0.60, 51):
        assert gap(f) == _top_two_span_gap(f, mode), f


def _top_two_span_gap(f, mode, transition=(3, 1), dims=CoupledDims()):
    """Reference anticrossing gap: the two dressed levels with the largest
    summed overlap on the bare pair |i, 0>, |j, 1>, from a direct coupled
    eigensolve at f."""
    i, j = transition
    h = coupled.build_coupled_hamiltonian(PARAMS, FluxBias(f), RES, mode, dims)
    vals, vecs = np.linalg.eigh(h)
    span = (np.abs(vecs[i * dims.n_res]) ** 2
            + np.abs(vecs[j * dims.n_res + 1]) ** 2)
    top = np.argsort(-span, kind="stable")[:2]
    return abs(float(vals[top[0]] - vals[top[1]]))


def test_anticrossing_window_must_bracket_an_interior_minimum():
    # the 3-1 gap minimum (f* ~ 0.5725) lies below this window, so the
    # bounded search ends on its lower edge
    with pytest.raises(BracketingError, match="edge"):
        find_anticrossing(PARAMS, RES, transition=(3, 1), window=(0.58, 0.60))
    for window in ((0.60, 0.60), (0.60, 0.55)):
        with pytest.raises(BracketingError, match="empty"):
            find_anticrossing(PARAMS, RES, transition=(3, 1), window=window)


def test_anticrossing_levels_must_be_kept():
    dims = CoupledDims(kept=4)
    for transition in ((4, 1), (3, 4)):
        with pytest.raises(InvalidDimensionError):
            find_anticrossing(PARAMS, RES, DEFAULT_MODE, dims,
                              transition=transition, window=AC_31["window"])


def test_low_quality_assignment_raises_resonance_error(monkeypatch):
    # a one-point sweep whose chi labels are backed by overlaps of only 0.2
    forged = DressedSweep(CHI_LABELS, np.array([[0.0, 1.0]]),
                          np.arange(4.0)[None, :], np.full((1, 4), 0.2))
    assert math.isnan(forged.chi()[0])
    monkeypatch.setattr(coupled, "sweep_dressed", lambda *args: forged)
    with pytest.raises(ResonanceRegionError) as exc:
        dispersive_shift(PARAMS, FluxBias(0.5), RES)
    assert exc.value.worst_quality == 0.2


def _failing_eigh(h, *args, **kwargs):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


def test_failed_eigensolve_is_a_numerical_failure(monkeypatch):
    qubit._flux_affine_parts(PARAMS.e_c, PARAMS.e_l, qubit.DEFAULT_DIM)
    monkeypatch.setattr(np.linalg, "eigh", _failing_eigh)
    solves = [
        lambda: qubit.spectrum_sweep(PARAMS, [0.5, 0.6]),
        lambda: fluxonium_spectrum(PARAMS, FluxBias(0.5)),
        lambda: two_level_eigensystem(units.ghz(5.0), RES),
        lambda: sweep_dressed(PARAMS, [0.5], RES),
    ]
    for solve in solves:
        with pytest.raises(NumericalFailureError, match="eigensolve failed"):
            solve()


def test_coupled_dims_validation():
    with pytest.raises(InvalidDimensionError):
        CoupledDims(dim=40, kept=1, n_res=8)
    with pytest.raises(InvalidDimensionError):
        CoupledDims(dim=4, kept=8, n_res=8)


def test_sweep_labels_must_be_kept():
    dims = CoupledDims(dim=30, kept=3, n_res=4)
    for labels in (((3, 0),), ((0, 4),), ((-1, 0),)):
        with pytest.raises(InvalidDimensionError):
            sweep_dressed(PARAMS, [0.5], RES, DEFAULT_MODE, dims, labels)


def test_resonator_params_validation():
    with pytest.raises(ValueError):
        ResonatorParams(-1.0, 0.03, 0.3)
    with pytest.raises(ValueError):
        ResonatorParams(44.0, 0.0, 0.3)
    with pytest.raises(ValueError):
        ResonatorParams(44.0, 0.03, -0.3)
    for bad in ((math.inf, 0.03, 0.3), (math.nan, 0.03, 0.3),
                (44.0, math.inf, 0.3), (44.0, math.nan, 0.3),
                (44.0, 0.03, math.nan), (44.0, 0.03, math.inf)):
        with pytest.raises(ValueError, match="finite"):
            ResonatorParams(*bad)


def test_chi_profile_builder_matches_point_values():
    dims = CoupledDims(dim=30, kept=5, n_res=4)
    grid = chi_grid(0.49, 0.51, 5e-3)
    profile = chi_profile(grid, sweep_dressed(PARAMS, grid, RES, DEFAULT_MODE,
                                              dims).chi(), units.mhz(50.0))
    assert profile.flux_grid[0] == pytest.approx(0.49)
    assert profile.flux_grid[-1] == pytest.approx(0.51)
    direct = dispersive_shift(PARAMS, FluxBias(0.5), RES, DEFAULT_MODE, dims)
    assert profile.chi_at(0.5) == pytest.approx(direct, rel=1e-10)


def test_chi_grid_ends_on_f_max():
    # 0.41 + 240 * 1e-3 rounds one ulp below 0.65 and 0.40 + 400 * 5e-4 one
    # above 0.6: both grids end on f_max, the latter at the canonical flux
    # of its former end
    assert chi_grid(0.41, 0.65, 1e-3)[-1] == 0.65
    assert 0.41 + 240 * 1e-3 < 0.65
    assert chi_grid(0.40, 0.60, 5e-4)[-1] == 0.6
    assert canonical_flux(0.6)[0] == canonical_flux(0.40 + 400 * 5e-4)[0]
    # windows that already end on f_max keep every bit: the defaults, and
    # the CI and readout-mc windows
    for f_min, f_max, step in ((0.40, 0.70, 1e-4), (0.45, 0.68, 1e-3),
                               (0.41, 0.73, 1e-3)):
        n = int(round((f_max - f_min) / step))
        want = f_min + step * np.arange(n + 1)
        assert want[-1] == f_max
        assert chi_grid(f_min, f_max, step).tobytes() == want.tobytes()


def test_zero_does_not_set_the_fill_sign():
    # the chi-curve emission and the landscape emission share one rule: an
    # exact +-0.0 just before a resonant run does not choose its sign
    out = fill_and_clamp([-2.0, 0.0, math.nan, math.nan, 3.0, -0.0, math.nan],
                         5.0)
    assert list(out) == [-2.0, 0.0, -5.0, -5.0, 3.0, 0.0, 5.0]
    assert list(fill_and_clamp([0.0, math.nan, -1.0], 5.0)) == [0.0, -5.0, -1.0]
    assert list(fill_and_clamp([math.nan, 0.0], 5.0)) == [5.0, 0.0]
    c = units.mhz(5.0)
    value, _, _ = _emitted("chi", [[-0.4 * c, 0.0, math.nan],
                                   [math.nan, 0.6 * c, -0.0]])
    assert value.tolist() == units.to_mhz(
        np.array([-0.4 * c, 0.0, -c, -c, 0.6 * c, 0.0])).tolist()


def _reference_point(params, f, res, mode, dims=CoupledDims()):
    """The per-point complex path that sweep_dressed replaced, kept as the
    reference: complex HO operators, cos(phi - phi_ext) by spectral calculus
    at each point, complex eigensolves with phase fixing, np.kron assembly
    and the greedy labels. Returns (chi, omega_q, {(i, j): Delta_ij}) with
    NaN where resonant."""
    dim, k, m = dims.dim, dims.kept, dims.n_res
    a = np.diag(np.sqrt(np.arange(1.0, dim)), 1).astype(complex)
    n_op = (-1j / (math.sqrt(2.0) * params.phi0)) * (a - a.conj().T)
    phi_op = (params.phi0 / math.sqrt(2.0)) * (a + a.conj().T)
    lam, v = np.linalg.eigh(phi_op)
    cos_op = (v * np.cos(lam - 2.0 * math.pi * f)) @ v.conj().T
    h = 4.0 * params.e_c * (n_op @ n_op) + 0.5 * params.e_l * (phi_op @ phi_op) \
        - params.e_j * cos_op
    vals, vecs = np.linalg.eigh(0.5 * (h + h.conj().T))
    for col in range(dim):
        pivot = vecs[int(np.argmax(np.abs(vecs[:, col]))), col]
        vecs[:, col] *= pivot.conjugate() / abs(pivot)
    w = vecs[:, :k]
    op = w.conj().T @ (n_op if mode is CouplingMode.CHARGE else a) @ w
    b = np.diag(np.sqrt(np.arange(1.0, m)), 1).astype(complex)
    eye_r = np.eye(m, dtype=complex)
    hc = np.kron(np.diag(vals[:k].astype(complex)), eye_r)
    hc += np.kron(np.eye(k), res.omega_r * (b.conj().T @ b + 0.5 * eye_r))
    if mode is CouplingMode.CHARGE:
        hc += res.g * np.kron(op, b + b.conj().T)
    else:
        hc += res.g * (np.kron(op.conj().T, b) + np.kron(op, b.conj().T))
    dvals, dvecs = np.linalg.eigh(0.5 * (hc + hc.conj().T))
    index, quality = assign_dressed_levels(dvecs)

    def energy(i, n):
        return float(dvals[index[i * m + n]])

    def resonant(*labels):
        return min(quality[i * m + n] for i, n in labels) < MIN_ASSIGNMENT_QUALITY

    chi = (math.nan if resonant(*CHI_LABELS) else
           0.5 * ((energy(1, 1) - energy(1, 0)) - (energy(0, 1) - energy(0, 0))))
    deltas = {}
    for (i, j) in DEFAULT_TRANSITIONS:
        deltas[(i, j)] = (math.nan if resonant((i, 0), (j, 0)) else
                          energy(i, 0) - energy(j, 0) - res.omega_r)
    return chi, vals[1] - vals[0], deltas


def _same_or_both_nan(got, want, tol):
    return (math.isnan(got) and math.isnan(want)) or abs(got - want) <= tol


@pytest.mark.parametrize("mode", list(CouplingMode))
def test_sweep_matches_complex_per_point_reference(mode):
    # [0.40, 0.70] as used by the chi profiles, plus two anticrossings where
    # the labels come from the greedy fallback (best overlap 0.4975)
    grid = np.concatenate([np.linspace(0.40, 0.70, 61), [0.2295, 0.7705]])
    labels = CHI_LABELS + ((2, 0), (3, 0))
    sweep = sweep_dressed(PARAMS, grid, RES, mode, CoupledDims(), labels)
    chi = sweep.chi()
    omega_q = sweep.bare[:, 1] - sweep.bare[:, 0]
    for p, f in enumerate(grid):
        ref_chi, ref_wq, ref_deltas = _reference_point(PARAMS, f, RES, mode)
        assert _same_or_both_nan(chi[p], ref_chi, units.mhz(1e-9)), f
        assert abs(omega_q[p] - ref_wq) <= units.ghz(1e-9), f
        for (i, j), want in ref_deltas.items():
            got = sweep.detuning(RES, i, j)[p]
            assert _same_or_both_nan(got, want, units.ghz(1e-9)), (f, i, j)


def test_charge_mode_within_stated_bound_of_the_explicit_charge_formula():
    # the CHARGE coupling operator projects qubit.build_ho_operators' charge
    # matrix; projecting (-i / (sqrt 2 phi0)) (a - a^T) instead, as a real
    # product scaled afterwards, moves it by at most 9e-16 and chi on
    # [0.40, 0.70] by at most 2.4e-13 rad/ns (4e-11 MHz); bounds 2e-15, 1e-12
    dims = CoupledDims()
    grid = np.linspace(0.40, 0.70, 61)
    vals, vecs = qubit.spectrum_sweep(PARAMS, grid, dims.dim)
    w = vecs[..., :dims.kept]
    a = qubit.lowering_operator(dims.dim)
    explicit = (-1j / (math.sqrt(2.0) * PARAMS.phi0)) * (
        np.swapaxes(w, -1, -2) @ (a - a.T) @ w)
    op = coupled._coupling_operator(vecs, PARAMS, CouplingMode.CHARGE,
                                    dims.kept)
    assert np.max(np.abs(op - explicit)) <= 2e-15
    h = assemble_coupled(vals[:, :dims.kept], explicit, RES,
                         CouplingMode.CHARGE, dims.n_res)
    rows = np.array([i * dims.n_res + n for i, n in CHI_LABELS])
    want = DressedSweep(CHI_LABELS, vals[:, :dims.kept],
                        *coupled._dressed_levels(h, rows)).chi()
    chi = sweep_dressed(PARAMS, grid, RES, CouplingMode.CHARGE, dims).chi()
    assert np.all(np.isfinite(want)) and np.all(np.isfinite(chi))
    assert np.max(np.abs(chi - want)) <= 1e-12


def test_single_point_equals_sweep_element_bit_for_bit():
    grid = np.linspace(0.40, 0.70, 70)
    labels = CHI_LABELS + ((2, 0), (3, 0))
    sweep = sweep_dressed(PARAMS, grid, RES, DEFAULT_MODE, CoupledDims(), labels)
    chi = sweep.chi()
    delta_20 = sweep.detuning(RES, 2, 0)
    for p in (0, 31, 32, 45, 69):
        flux = FluxBias(float(grid[p]))
        assert dispersive_shift(PARAMS, flux, RES) == chi[p]
        point = sweep_dressed(PARAMS, [flux.f], RES, DEFAULT_MODE,
                              CoupledDims(), ((2, 0), (0, 0)))
        assert point.detuning(RES, 2, 0)[0] == delta_20[p]
        assert (fluxonium_spectrum(PARAMS, flux)[0][:8]
                == sweep.bare[p]).all()


def _greedy_labels(vecs, rows):
    index, quality = assign_dressed_levels(vecs)
    return index[rows].tolist(), quality[rows].tolist()


def test_greedy_labels_are_arrays_over_bare_states():
    # bare state b lies wholly in dressed state perm[b]
    perm = np.array([2, 0, 3, 1])
    index, quality = assign_dressed_levels(np.eye(4)[perm])
    assert index.tolist() == perm.tolist()
    assert quality.tolist() == [1.0] * 4
    # bare 1 and 2 split evenly over dressed 1 and 2: ties go in (bare,
    # dressed) order, and dressed 1, once taken, is not given to bare 2
    split = np.eye(4)
    split[1:3, 1:3] = [[math.sqrt(0.5)] * 2, [-math.sqrt(0.5), math.sqrt(0.5)]]
    index, quality = assign_dressed_levels(split)
    assert index.tolist() == [0, 1, 2, 3]
    assert quality[1:3] == pytest.approx([0.5, 0.5], rel=1e-15)


def _label_checks(vecs, rows, monkeypatch):
    """coupled._label_levels against assign_dressed_levels at every point;
    returns how many points took the greedy fallback."""
    fallbacks = []

    def counted(*args):
        fallbacks.append(1)
        return assign_dressed_levels(*args)

    monkeypatch.setattr(coupled, "assign_dressed_levels", counted)
    index, quality = coupled._label_levels(vecs, rows)
    monkeypatch.undo()
    for p in range(len(vecs)):
        want_index, want_quality = _greedy_labels(vecs[p], rows)
        assert index[p].tolist() == want_index
        assert quality[p].tolist() == want_quality
    return len(fallbacks)


def test_argmax_labels_equal_greedy_assignment(monkeypatch):
    rng = np.random.default_rng(2024)
    kept, n_res = 4, 4
    rows = np.array([0, 1, 4, 5, 8, 12])
    dim = kept * n_res
    # near the identity, every requested overlap is above 1/2
    near, _ = np.linalg.qr(np.eye(dim) + 0.05 * rng.normal(size=(40, dim, dim)))
    assert _label_checks(near, rows, monkeypatch) == 0
    # Haar-like random bases: most points need the greedy fallback
    haar, _ = np.linalg.qr(rng.normal(size=(40, dim, dim)))
    assert _label_checks(haar, rows, monkeypatch) > 0
    # forged: bare state 1 splits evenly between dressed 1 and 2 (overlap
    # exactly 1/2), which no point of the chi windows reaches
    forged = np.tile(np.eye(dim), (3, 1, 1))
    c = math.sqrt(0.5)
    forged[:, 1:3, 1:3] = [[c, c], [-c, c]]
    forged[2, 1:3, 1:3] = [[c, -c], [c, c]]
    assert _label_checks(forged, rows, monkeypatch) == 3
    # complex eigenvectors (charge coupling) take the same path
    phases = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, size=(40, 1, dim)))
    assert _label_checks(near * phases, rows, monkeypatch) == 0


# ---------------------------------------------------------------------------
# The parity fold: H(1 - f) = P H(f) P and H(f + 1) = H(f)

def _unfolded_sweep(params, f_values, res, mode, dims, labels):
    """sweep_dressed without the fold: every point solved directly, in
    blocks of 32 in grid order."""
    rows = np.array([i * dims.n_res + n for i, n in labels])
    parts = []
    for start in range(0, len(f_values), 32):
        vals, vecs = unfolded_spectrum_sweep(params, f_values[start:start + 32],
                                             dims.dim)
        bare = vals[:, :dims.kept]
        op = coupled._coupling_operator(vecs, params, mode, dims.kept)
        h = assemble_coupled(bare, op, res, mode, dims.n_res)
        parts.append((bare, *coupled._dressed_levels(h, rows)))
    return DressedSweep(labels, *(np.concatenate(p) for p in zip(*parts)))


FLUXES = st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=4)


@settings(max_examples=40, deadline=None)
@given(fluxes=FLUXES, e_j=st.floats(2.0, 10.0),
       mode=st.sampled_from(list(CouplingMode)))
def test_coupled_stacks_are_hermitian(fluxes, e_j, mode):
    params = EnergyParams.from_ghz(e_j, 1.25, 1.5)
    dims = CoupledDims()
    vals, vecs = qubit.spectrum_sweep(params, fluxes, dims.dim)
    op = coupled._coupling_operator(vecs, params, mode, dims.kept)
    h = assemble_coupled(vals[:, :dims.kept], op, RES, mode, dims.n_res)
    assert h.shape == (len(fluxes), dims.kept * dims.n_res,
                       dims.kept * dims.n_res)
    assert np.array_equal(h, np.swapaxes(h, -1, -2).conj())


QUALITY = st.floats(0.0, 1.0) | st.sampled_from(
    [MIN_ASSIGNMENT_QUALITY, np.nextafter(MIN_ASSIGNMENT_QUALITY, 0.0)])


@settings(max_examples=40, deadline=None)
@given(fluxes=FLUXES, e_j=st.floats(2.0, 10.0),
       mode=st.sampled_from(list(CouplingMode)),
       quality=st.lists(QUALITY, min_size=16, max_size=16))
def test_chi_is_finite_exactly_where_the_labels_hold(fluxes, e_j, mode,
                                                     quality):
    params = EnergyParams.from_ghz(e_j, 1.25, 1.5)
    sweep = sweep_dressed(params, fluxes, RES, mode)
    # the real labels hold here; drawn qualities also reach below the bar
    forged = DressedSweep(sweep.labels, sweep.bare, sweep.energy,
                          np.reshape(quality[:sweep.quality.size],
                                     sweep.quality.shape))
    for dressed in (sweep, forged):
        labelled = dressed.worst_quality(CHI_LABELS) >= MIN_ASSIGNMENT_QUALITY
        chi = dressed.chi()
        assert np.array_equal(np.isfinite(chi), labelled)
        assert np.all(np.isnan(chi[~labelled]))


FOLD_LABELS = CHI_LABELS + ((2, 0), (3, 0))


@settings(max_examples=40, deadline=None)
@given(k=st.integers(-2_000_000_000, 2_000_000_000),
       mode=st.sampled_from(list(CouplingMode)))
def test_fold_is_bit_identical_at_mirror_and_period_images(k, mode):
    # f on the 1e-9 lattice of configured flux grids, in [-2, 2]
    f = k / 1e9
    images = [f, 1.0 - f, f + 1.0]
    sweep = sweep_dressed(PARAMS, images, RES, mode, CoupledDims(), FOLD_LABELS)
    points = [sweep_dressed(PARAMS, [x], RES, mode, CoupledDims(), FOLD_LABELS)
              for x in images]
    spectra = [fluxonium_spectrum(PARAMS, FluxBias(x))[0].tobytes()
               for x in images]
    assert spectra[0] == spectra[1] == spectra[2]
    for name in ("bare", "energy", "quality"):
        got = [getattr(sweep, name)[p].tobytes() for p in range(3)]
        got += [getattr(point, name)[0].tobytes() for point in points]
        assert len(set(got)) == 1, name


def test_symmetric_grid_solves_each_canonical_flux_once():
    grid = 0.40 + 5e-4 * np.arange(401)  # symmetric about 1/2
    before = diagnostics.eigensolve_count()
    sweep = sweep_dressed(PARAMS, grid, RES)
    assert diagnostics.eigensolve_count() - before == 201 + 201
    assert np.array_equal(sweep.energy[:201], sweep.energy[200:][::-1])


def _max_abs_where_finite(got, want):
    return np.max(np.abs(got - want), initial=0.0, where=~np.isnan(want))


@pytest.mark.parametrize("mode", list(CouplingMode))
@pytest.mark.parametrize("f_min, f_max, step", [
    (0.40, 0.60, 5e-4), (0.41, 0.73, 1e-3), (0.40, 0.70, 1e-4)])
def test_fold_within_stated_bounds_of_unfolded_sweep(mode, f_min, f_max, step):
    grid = f_min + step * np.arange(int(round((f_max - f_min) / step)) + 1)
    got = sweep_dressed(PARAMS, grid, RES, mode, CoupledDims(), FOLD_LABELS)
    want = _unfolded_sweep(PARAMS, grid, RES, mode, CoupledDims(), FOLD_LABELS)
    assert np.array_equal(np.isnan(got.chi()), np.isnan(want.chi()))
    assert _max_abs_where_finite(got.chi(), want.chi()) <= units.mhz(1e-9)
    assert np.max(np.abs(got.bare - want.bare)) <= units.ghz(1e-12)
    for i, j in DEFAULT_TRANSITIONS:
        d, ref = got.detuning(RES, i, j), want.detuning(RES, i, j)
        assert np.array_equal(np.isnan(d), np.isnan(ref)), (i, j)
        assert _max_abs_where_finite(d, ref) <= units.ghz(1e-12), (i, j)


@pytest.mark.parametrize("mode", list(CouplingMode))
def test_anticrossing_within_stated_bound_of_unfolded_solve(mode, monkeypatch):
    folded = find_anticrossing(PARAMS, RES, mode, **AC_31)
    monkeypatch.setattr(coupled, "sweep_dressed", _unfolded_sweep)
    unfolded = find_anticrossing(PARAMS, RES, mode, **AC_31)
    assert abs(folded.f_star - unfolded.f_star) <= 1e-11


# ---------------------------------------------------------------------------
# Sweep blocks on a thread pool

# ultrastrong coupling: windows with resonant (NaN chi) points and points
# labelled by the greedy fallback, in both coupling modes
STRONG = ResonatorParams.from_ghz(7.0, 5.0, 1500.0)
STRONG_GRID = np.linspace(0.0, 0.5, 201)


@pytest.mark.parametrize("cpus, env, workers", [
    (4, {}, 1),
    (4, {"OPENBLAS_NUM_THREADS": "1"}, 4),
    (4, {"OMP_NUM_THREADS": "2"}, 2),
    (4, {"OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "3"}, 1),
    (2, {"OPENBLAS_NUM_THREADS": "4"}, 1),
    (4, {"OPENBLAS_NUM_THREADS": "0"}, 1),
    (4, {"OPENBLAS_NUM_THREADS": "many"}, 1),
])
def test_sweep_worker_rule(monkeypatch, cpus, env, workers):
    for var in coupled.BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    monkeypatch.setattr(coupled.os, "sched_getaffinity",
                        lambda pid: set(range(cpus)))
    assert coupled._sweep_workers() == workers


def _pool_threads():
    return [t for t in threading.enumerate()
            if t.name.startswith("ThreadPoolExecutor")]


def _forced_workers(monkeypatch, workers):
    monkeypatch.setattr(coupled, "_sweep_workers", lambda: workers)


@pytest.mark.parametrize("mode", list(CouplingMode))
def test_threaded_sweep_is_bit_identical_to_serial(mode, monkeypatch):
    fallbacks = []

    def counted(vecs):
        fallbacks.append(1)
        return assign_dressed_levels(vecs)

    monkeypatch.setattr(coupled, "assign_dressed_levels", counted)
    sweeps = {}
    for workers in (1, 2, 3):
        _forced_workers(monkeypatch, workers)
        sweeps[workers] = sweep_dressed(PARAMS, STRONG_GRID, STRONG, mode,
                                        CoupledDims(), FOLD_LABELS)
    chi = sweeps[1].chi()
    assert np.isnan(chi).any() and np.isfinite(chi).any()
    assert fallbacks
    for workers in (2, 3):
        for name in ("bare", "energy", "quality"):
            assert (getattr(sweeps[workers], name).tobytes()
                    == getattr(sweeps[1], name).tobytes()), (workers, name)
    assert not _pool_threads()


def test_threaded_sweep_counts_every_eigensolve(monkeypatch):
    grid = 0.40 + 5e-4 * np.arange(401)  # symmetric about 1/2
    _forced_workers(monkeypatch, 3)
    for _ in range(5):
        before = diagnostics.eigensolve_count()
        sweep_dressed(PARAMS, grid, RES)
        assert diagnostics.eigensolve_count() - before == 201 + 201


def test_eigensolve_count_waits_for_its_lock():
    before = diagnostics.eigensolve_count()
    with diagnostics._lock:
        counter = threading.Thread(target=diagnostics.count_eigensolve,
                                   args=(5,))
        counter.start()
        counter.join(0.05)
        assert (counter.is_alive()
                and diagnostics.eigensolve_count() - before == 0)
    counter.join()
    assert diagnostics.eigensolve_count() - before == 5


def test_failing_block_raises_as_in_the_serial_sweep(monkeypatch):
    solve = qubit.diagonalize
    dim = CoupledDims().dim
    # blocks 2 and 5 fail; block 2 only after block 5 has failed, so the
    # pool sees block 5's exception first
    failing = {2: 0.2, 5: 0.0}
    canonical = qubit.canonical_flux(STRONG_GRID)[0]  # ascending, distinct
    first = {k: fluxonium_hamiltonians(
        PARAMS, [canonical[coupled._SWEEP_BLOCK * k]], dim)[0]
        for k in failing}

    def diagonalize(h):
        for k, delay in failing.items():
            if h.shape[-1] == dim and np.array_equal(h[0], first[k]):
                time.sleep(delay)
                raise NumericalFailureError(f"eigensolve failed in block {k}")
        return solve(h)

    monkeypatch.setattr(qubit, "diagonalize", diagonalize)
    raised = {}
    for workers in (1, 2, 3):
        _forced_workers(monkeypatch, workers)
        with pytest.raises(NumericalFailureError) as exc:
            sweep_dressed(PARAMS, STRONG_GRID, RES)
        raised[workers] = str(exc.value)
        assert not _pool_threads(), workers
    assert set(raised.values()) == {"eigensolve failed in block 2"}

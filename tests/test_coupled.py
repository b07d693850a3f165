"""Tests for the coupled fluxonium-resonator model."""

import math

import numpy as np
import pytest

from fluxsim import coupled, units
from fluxsim.coupled import (
    CHI_LABELS,
    DEFAULT_MODE,
    DEFAULT_TRANSITIONS,
    MIN_ASSIGNMENT_QUALITY,
    Anticrossing,
    CoupledDims,
    CouplingMode,
    DressedLevels,
    LandscapeGrid,
    ResonatorParams,
    STATUS_RESONANT,
    assemble_coupled,
    assign_dressed_levels,
    build_chi_profile,
    compute_landscapes,
    dispersive_shift,
    dispersive_shift_from,
    fill_and_clamp,
    find_anticrossing,
    sweep_dressed,
    transition_detuning,
    two_level_eigensystem,
)
from fluxsim.errors import (
    BracketingError,
    InvalidDimensionError,
    ResonanceRegionError,
)
from fluxsim.qubit import EnergyParams, FluxBias, fluxonium_spectrum

PARAMS = EnergyParams.from_ghz(4.75, 1.25, 1.5)
RES = ResonatorParams.from_ghz(7.0, 5.0, 50.0)


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
    dressed = two_level_eigensystem(omega_q, RES, CouplingMode.LADDER_RWA, n_res=8)
    for i in range(2):
        for n in range(4):
            want = _jc_label_energy(i, n, omega_q, RES.omega_r, RES.g)
            assert abs(dressed.energy(i, n) - want) < 1e-10


def test_two_level_dispersive_shift_matches_analytic():
    omega_q = units.ghz(5.2)
    dressed = two_level_eigensystem(omega_q, RES, CouplingMode.LADDER_RWA, n_res=8)
    chi = dispersive_shift_from(dressed)
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


def test_dispersive_shift_flux_symmetry():
    for f in (0.45, 0.62):
        a = dispersive_shift(PARAMS, FluxBias(f), RES)
        b = dispersive_shift(PARAMS, FluxBias(1.0 - f), RES)
        assert abs(a - b) < 1e-8


def test_transition_detuning_reference_points():
    dims = CoupledDims()
    d10 = transition_detuning(PARAMS, FluxBias(0.641), RES, DEFAULT_MODE, dims, 1, 0)
    assert units.to_ghz(d10) == pytest.approx(-2.39, abs=0.06)
    d20 = transition_detuning(PARAMS, FluxBias(0.641), RES, DEFAULT_MODE, dims, 2, 0)
    assert units.to_mhz(d20) == pytest.approx(-67.0, abs=5.0)
    with pytest.raises(ValueError):
        transition_detuning(PARAMS, FluxBias(0.641), RES, DEFAULT_MODE, dims, 0, 1)


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
            assert grids["chi"].values[a, b] == pytest.approx(chi, rel=1e-12)
            spec = fluxonium_spectrum(params, FluxBias(float(f)), dims.dim)
            assert grids["omega_q"].values[a, b] == pytest.approx(
                spec.transition(1, 0), rel=1e-12)
            assert grids["chi"].status[a, b] == "ok"


def test_landscape_emission_clamps_resonant_cells():
    grid = compute_landscapes(units.ghz(np.array([4.75])), np.array([0.5]),
                              PARAMS.e_c, PARAMS.e_l, RES,
                              dims=CoupledDims(dim=30, kept=4, n_res=3))["chi"]
    # forge a resonant cell and check the emitted fill
    forged = LandscapeGrid(
        np.array([1.0]), np.array([0.1, 0.2, 0.3, 0.4]),
        np.array([[-2.0, math.nan, 3.0, 100.0]]),
        np.array([["ok", STATUS_RESONANT, "ok", "ok"]], dtype=object),
        "chi", clamp=5.0)
    assert list(forged.emitted_values()[0]) == [-2.0, -5.0, 3.0, 5.0]
    assert grid.emitted_values()[0, 0] == pytest.approx(grid.values[0, 0])


def test_fill_and_clamp_leading_and_interior_runs():
    vals = [math.nan, math.nan, -2.0, math.nan, 3.0, 100.0]
    out = fill_and_clamp(vals, 5.0)
    assert list(out) == [-5.0, -5.0, -2.0, -5.0, 3.0, 5.0]


def test_anticrossing_reference():
    ac = find_anticrossing(PARAMS, RES, CouplingMode.CHARGE)
    assert isinstance(ac, Anticrossing)
    assert ac.f_star == pytest.approx(0.5725, abs=0.004)
    assert units.to_mhz(ac.g_ij) == pytest.approx(6.0, abs=0.4)
    assert ac.gap == pytest.approx(2.0 * ac.g_ij, rel=1e-12)
    assert ac.t_swap == pytest.approx(math.pi / (2.0 * ac.g_ij), rel=1e-12)


@pytest.mark.parametrize("mode, f_golden", [
    (CouplingMode.CHARGE, 0.5726269782557742),
    (CouplingMode.LADDER_RWA, 0.5725103969442604),
])
def test_anticrossing_within_xtol_of_golden_section(mode, f_golden):
    # f* of the golden-section search that bounded minimization replaced
    ac = find_anticrossing(PARAMS, RES, mode, xtol=1e-6)
    assert abs(ac.f_star - f_golden) <= 1e-6


def test_anticrossing_window_must_bracket_an_interior_minimum():
    # the 3-1 gap minimum (f* ~ 0.5725) lies below this window, so the
    # bounded search ends on its lower edge
    with pytest.raises(BracketingError, match="edge"):
        find_anticrossing(PARAMS, RES, window=(0.58, 0.60))
    for window in ((0.60, 0.60), (0.60, 0.55)):
        with pytest.raises(BracketingError, match="empty"):
            find_anticrossing(PARAMS, RES, window=window)


def test_anticrossing_levels_must_be_kept():
    dims = CoupledDims(kept=4)
    for transition in ((4, 1), (3, 4)):
        with pytest.raises(InvalidDimensionError):
            find_anticrossing(PARAMS, RES, DEFAULT_MODE, dims,
                              transition=transition)


def test_low_quality_assignment_raises_resonance_error():
    energies = np.arange(4.0)
    assignment = {(i, n): 2 * i + n for i in range(2) for n in range(2)}
    quality = {k: 0.2 for k in assignment}
    dressed = DressedLevels(energies, assignment, quality, 2, 2, warn=True)
    with pytest.raises(ResonanceRegionError):
        dispersive_shift_from(dressed, 0.5)


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
    profile = build_chi_profile(PARAMS, RES, DEFAULT_MODE, dims,
                                f_min=0.49, f_max=0.51, step=5e-3)
    assert profile.flux_grid[0] == pytest.approx(0.49)
    assert profile.flux_grid[-1] == pytest.approx(0.51)
    direct = dispersive_shift(PARAMS, FluxBias(0.5), RES, DEFAULT_MODE, dims)
    assert profile.chi_at(0.5) == pytest.approx(direct, rel=1e-10)


def test_zero_does_not_set_the_fill_sign():
    # the chi-curve emission and the landscape emission share one rule: an
    # exact +-0.0 just before a resonant run does not choose its sign
    out = fill_and_clamp([-2.0, 0.0, math.nan, math.nan, 3.0, -0.0, math.nan],
                         5.0)
    assert list(out) == [-2.0, 0.0, -5.0, -5.0, 3.0, 0.0, 5.0]
    assert list(fill_and_clamp([0.0, math.nan, -1.0], 5.0)) == [0.0, -5.0, -1.0]
    assert list(fill_and_clamp([math.nan, 0.0], 5.0)) == [5.0, 0.0]
    forged = LandscapeGrid(
        np.array([1.0, 2.0]), np.array([0.1, 0.2, 0.3]),
        np.array([[-2.0, 0.0, 7.0], [math.nan, 3.0, -0.0]]),
        np.array([["ok", "ok", STATUS_RESONANT],
                  ["ok", "ok", "ok"]], dtype=object),
        "chi", clamp=5.0)
    assert forged.emitted_values().tolist() == [[-2.0, 0.0, -5.0],
                                                [-5.0, 3.0, 0.0]]


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
    dressed = assign_dressed_levels(dvals, dvecs, k, m)
    try:
        chi = dispersive_shift_from(dressed)
    except ResonanceRegionError:
        chi = math.nan
    deltas = {}
    for (i, j) in DEFAULT_TRANSITIONS:
        worst = min(dressed.quality_of(i, 0), dressed.quality_of(j, 0))
        deltas[(i, j)] = (math.nan if worst < MIN_ASSIGNMENT_QUALITY else
                          dressed.energy(i, 0) - dressed.energy(j, 0) - res.omega_r)
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


def test_single_point_equals_sweep_element_bit_for_bit():
    grid = np.linspace(0.40, 0.70, 70)
    labels = CHI_LABELS + ((2, 0), (3, 0))
    sweep = sweep_dressed(PARAMS, grid, RES, DEFAULT_MODE, CoupledDims(), labels)
    chi = sweep.chi()
    delta_20 = sweep.detuning(RES, 2, 0)
    for p in (0, 31, 32, 45, 69):
        flux = FluxBias(float(grid[p]))
        assert dispersive_shift(PARAMS, flux, RES) == chi[p]
        assert transition_detuning(PARAMS, flux, RES, DEFAULT_MODE,
                                   CoupledDims(), 2, 0) == delta_20[p]
        assert (fluxonium_spectrum(PARAMS, flux).eigenvalues[:8]
                == sweep.bare[p]).all()


def _greedy_labels(vals, vecs, rows, kept, n_res):
    dressed = assign_dressed_levels(vals, vecs, kept, n_res)
    labels = [divmod(int(r), n_res) for r in rows]
    return ([dressed.assignment[lbl] for lbl in labels],
            [dressed.quality[lbl] for lbl in labels])


def _label_checks(vecs, rows, kept, n_res, monkeypatch):
    """coupled._label_levels against assign_dressed_levels at every point;
    returns how many points took the greedy fallback."""
    fallbacks = []

    def counted(*args):
        fallbacks.append(1)
        return assign_dressed_levels(*args)

    monkeypatch.setattr(coupled, "assign_dressed_levels", counted)
    vals = np.sort(np.random.default_rng(3).normal(size=vecs.shape[:2]), axis=1)
    index, quality = coupled._label_levels(vals, vecs, rows, kept, n_res)
    monkeypatch.undo()
    for p in range(len(vecs)):
        want_index, want_quality = _greedy_labels(vals[p], vecs[p], rows,
                                                  kept, n_res)
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
    assert _label_checks(near, rows, kept, n_res, monkeypatch) == 0
    # Haar-like random bases: most points need the greedy fallback
    haar, _ = np.linalg.qr(rng.normal(size=(40, dim, dim)))
    assert _label_checks(haar, rows, kept, n_res, monkeypatch) > 0
    # forged: bare state 1 splits evenly between dressed 1 and 2 (overlap
    # exactly 1/2), which no point of the chi windows reaches
    forged = np.tile(np.eye(dim), (3, 1, 1))
    c = math.sqrt(0.5)
    forged[:, 1:3, 1:3] = [[c, c], [-c, c]]
    forged[2, 1:3, 1:3] = [[c, -c], [c, c]]
    assert _label_checks(forged, rows, kept, n_res, monkeypatch) == 3
    # complex eigenvectors (charge coupling) take the same path
    phases = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, size=(40, 1, dim)))
    assert _label_checks(near * phases, rows, kept, n_res, monkeypatch) == 0

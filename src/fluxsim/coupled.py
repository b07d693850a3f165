"""Coupled fluxonium-resonator spectrum.

Two-stage truncation (full HO-basis fluxonium eigensolve, then the lowest
kept levels tensored with resonator Fock states), dressed-state labeling by
bare-state overlap, dispersive shift, transition detunings, flux/E_J
landscapes, anticrossing extraction by bounded scalar minimization of the
dressed gap (scipy), and chi-vs-flux profiles for the readout dynamics.

Every flux-grid quantity (chi, detunings, landscape cells, chi profiles)
comes from `sweep_dressed`, which solves blocks of flux points in stacked
eigensolves; a single point is a one-point sweep.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize_scalar

from . import diagnostics, units
from .errors import (
    BracketingError,
    InvalidDimensionError,
    NumericalFailureError,
    ResonanceRegionError,
)
from .qubit import (
    DEFAULT_DIM,
    EnergyParams,
    FluxBias,
    fluxonium_spectrum,
    lowering_operator,
    spectrum_sweep,
)
from .readout import ChiProfile


@dataclass(frozen=True)
class ResonatorParams:
    """Readout resonator: frequency, linewidth, coupling (all angular, rad/ns)."""

    omega_r: float
    kappa: float
    g: float

    def __post_init__(self):
        for name in ("omega_r", "kappa", "g"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not self.omega_r > 0:
            raise ValueError(f"omega_r must be positive, got {self.omega_r}")
        if not self.kappa > 0:
            raise ValueError(f"kappa must be positive, got {self.kappa}")
        if self.g < 0:
            raise ValueError(f"g must be >= 0, got {self.g}")

    @classmethod
    def from_ghz(cls, omega_r_ghz, kappa_mhz, g_mhz):
        return cls(units.ghz(omega_r_ghz), units.mhz(kappa_mhz), units.mhz(g_mhz))


class CouplingMode(enum.Enum):
    """Qubit-resonator coupling operator.

    CHARGE: g * n_hat (x) (a + a^dag), so the stated g multiplies the charge
    matrix element <i|n|j> directly.
    LADDER_RWA: g * (a c^dag + a^dag c) with c the harmonic-basis lowering
    operator of the qubit (projected into the kept eigenbasis). This is the
    mode that calibrates to the published dispersive-shift values, so it is
    the default for all regression work; see the calibration test.
    """

    CHARGE = "charge"
    LADDER_RWA = "ladder-rwa"


DEFAULT_MODE = CouplingMode.LADDER_RWA


@dataclass(frozen=True)
class CoupledDims:
    """Truncations: full fluxonium HO dim, kept eigenlevels, resonator Fock states."""

    dim: int = DEFAULT_DIM
    kept: int = 8
    n_res: int = 8

    def __post_init__(self):
        if self.kept < 2 or self.n_res < 2:
            raise InvalidDimensionError(
                f"kept levels and resonator Fock states must both be >= 2, "
                f"got kept={self.kept}, n_res={self.n_res}"
            )
        if self.kept > self.dim:
            raise InvalidDimensionError(
                f"cannot keep {self.kept} levels from a dim-{self.dim} eigensolve"
            )


def assemble_coupled(qubit_energies, qubit_coupling_op, res: ResonatorParams,
                     mode: CouplingMode, n_res):
    """Coupled Hamiltonian on the product space, index = i_q * n_res + n_r.

    qubit_coupling_op is the charge operator projected into the kept
    eigenbasis (CHARGE) or the eigen-level lowering ladder (LADDER_RWA).
    Leading axes of qubit_energies (..., k) and qubit_coupling_op
    (..., k, k) are stacked. The result is exactly Hermitian, and real when
    the coupling operator is real.
    """
    energies = np.asarray(qubit_energies, dtype=float)
    op = np.asarray(qubit_coupling_op)
    k = energies.shape[-1]
    m = int(n_res)
    if k < 2 or m < 2:
        raise InvalidDimensionError(f"need k >= 2 and m >= 2, got k={k}, m={m}")
    op_dag = np.swapaxes(op, -1, -2).conj()
    if mode is CouplingMode.CHARGE:
        # g op (x) (a + a^dag), with op made exactly Hermitian
        op = 0.5 * (op + op_dag)
        up = down = op
    elif mode is CouplingMode.LADDER_RWA:
        # g (op^dag (x) a + op (x) a^dag)
        up, down = op_dag, op
    else:
        raise ValueError(f"unknown coupling mode {mode!r}")
    batch = energies.shape[:-1]
    h = np.zeros(batch + (k, m, k, m), dtype=np.result_type(op, float))
    # a[n, n + 1] = sqrt(n + 1) links photon n + 1 to n
    for n, root in enumerate(np.diag(lowering_operator(m), 1)):
        h[..., :, n, :, n + 1] = res.g * (up * root)
        h[..., :, n + 1, :, n] = res.g * (down * root)
    levels = np.arange(k)
    photons = np.arange(m)
    h[..., levels[:, None], photons, levels[:, None], photons] = \
        energies[..., :, None] + res.omega_r * (photons + 0.5)
    return h.reshape(batch + (k * m, k * m))


def _coupling_operator(vecs, params: EnergyParams, mode: CouplingMode, kept):
    """Qubit coupling operator in the lowest kept eigenstates, for each
    eigenvector matrix of the stack vecs (..., dim, dim): the charge
    operator (CHARGE) or the oscillator lowering operator (LADDER_RWA)."""
    w = vecs[..., :kept]
    w_dag = np.swapaxes(w, -1, -2).conj()
    a = lowering_operator(vecs.shape[-2])
    if mode is CouplingMode.CHARGE:
        # n = -i (a - a^dag) / (sqrt(2) phi0)
        return (-1j / (math.sqrt(2.0) * params.phi0)) * (w_dag @ (a - a.T) @ w)
    return w_dag @ a @ w


def build_coupled_hamiltonian(params: EnergyParams, flux: FluxBias,
                              res: ResonatorParams,
                              mode: CouplingMode = DEFAULT_MODE,
                              dims: CoupledDims = CoupledDims(),
                              spec=None):
    """Fluxonium eigensolve at full dim, project the coupling operator onto
    the lowest kept levels, tensor with the resonator. spec is the bare
    Spectrum at this bias when the caller already has it."""
    if spec is None:
        spec = fluxonium_spectrum(params, flux, dims.dim)
    q_op = _coupling_operator(spec.eigenvectors, params, mode, dims.kept)
    return assemble_coupled(spec.eigenvalues[:dims.kept], q_op, res, mode,
                            dims.n_res)


@dataclass(frozen=True)
class DressedLevels:
    """Greedy bare-label assignment of a coupled eigensystem.

    assignment maps (qubit level, photon number) -> dressed eigenstate index;
    quality holds the squared overlap backing each assignment.
    """

    energies: np.ndarray
    assignment: dict
    quality: dict
    kept: int
    n_res: int
    warn: bool = field(default=False)

    def energy(self, i, n):
        return float(self.energies[self.assignment[(i, n)]])

    def quality_of(self, i, n):
        return float(self.quality[(i, n)])


def diagonalize(h):
    """Hermitian eigensolve with the shared failure wrapper and counter; a
    stack (..., n, n) is solved in one call and counted per matrix."""
    diagnostics.count_eigensolve(int(np.prod(h.shape[:-2])))
    try:
        vals, vecs = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"coupled eigensolve failed: {exc}",
                                    shape=h.shape) from exc
    return vals, vecs


def assign_dressed_levels(eigenvalues, eigenvectors, kept, n_res) -> DressedLevels:
    """Assign each bare product label to the dressed state with the largest
    remaining overlap (greedy, descending, unique). Low-quality assignments
    set the warn flag; they are never fatal here."""
    overlap = np.abs(eigenvectors) ** 2  # overlap[bare, dressed]
    flat_order = np.argsort(-overlap, axis=None, kind="stable")
    dim = overlap.shape[0]
    assignment = {}
    quality = {}
    used_bare = set()
    used_dressed = set()
    for flat in flat_order:
        b, d = divmod(int(flat), dim)
        if b in used_bare or d in used_dressed:
            continue
        used_bare.add(b)
        used_dressed.add(d)
        label = divmod(b, n_res)  # (qubit level, photon number)
        assignment[label] = d
        quality[label] = float(overlap[b, d])
        if len(used_bare) == dim:
            break
    warn = any(q < 0.5 for q in quality.values())
    return DressedLevels(np.asarray(eigenvalues, dtype=float), assignment,
                         quality, kept, n_res, warn)


def two_level_eigensystem(omega_q, res: ResonatorParams,
                          mode: CouplingMode = CouplingMode.LADDER_RWA,
                          n_res=8) -> DressedLevels:
    """Surrogate with a bare two-level qubit (energies 0, omega_q); the
    coupling operator is the two-level ladder for either mode."""
    h = assemble_coupled(np.array([0.0, omega_q]), lowering_operator(2), res,
                         mode, n_res)
    vals, vecs = diagonalize(h)
    return assign_dressed_levels(vals, vecs, 2, n_res)


MIN_ASSIGNMENT_QUALITY = 0.25
CHI_LABELS = ((0, 0), (0, 1), (1, 0), (1, 1))


def _require_quality(worst, flux_value):
    if worst < MIN_ASSIGNMENT_QUALITY:
        raise ResonanceRegionError(
            f"dressed assignment quality {worst:.3f} below "
            f"{MIN_ASSIGNMENT_QUALITY} at f={flux_value}; dispersive model invalid",
            flux=flux_value, worst_quality=worst,
        )


def dispersive_shift_from(dressed: DressedLevels, flux_value=None):
    """chi from dressed energies:
    2 chi = (w(1,1) - w(1,0)) - (w(0,1) - w(0,0))."""
    _require_quality(min(dressed.quality_of(*lbl) for lbl in CHI_LABELS),
                     flux_value)
    return 0.5 * ((dressed.energy(1, 1) - dressed.energy(1, 0))
                  - (dressed.energy(0, 1) - dressed.energy(0, 0)))


# ---------------------------------------------------------------------------
# Flux sweeps

# flux points per stacked eigensolve: bounds a sweep's working set whatever
# its length (peak about 2.6 MB at the default 40/8/8 truncation); larger
# blocks add memory, not speed
_SWEEP_BLOCK = 32


@dataclass(frozen=True)
class DressedSweep:
    """Dressed levels along a flux grid, point by point.

    bare holds the lowest kept bare eigenvalues (n, kept); energy and
    quality the dressed energy and the squared bare overlap backing it
    (n, len(labels)) for each (qubit level, photon number) label.
    """

    labels: tuple
    bare: np.ndarray
    energy: np.ndarray
    quality: np.ndarray

    def energy_of(self, i, n):
        return self.energy[:, self.labels.index((i, n))]

    def worst_quality(self, labels):
        cols = [self.labels.index(lbl) for lbl in labels]
        return np.min(self.quality[:, cols], axis=1)

    def chi(self):
        """2 chi = (w(1,1) - w(1,0)) - (w(0,1) - w(0,0)) at each point; NaN
        where the assignment quality is below MIN_ASSIGNMENT_QUALITY."""
        e = self.energy_of
        chi = 0.5 * ((e(1, 1) - e(1, 0)) - (e(0, 1) - e(0, 0)))
        return np.where(self.worst_quality(CHI_LABELS) < MIN_ASSIGNMENT_QUALITY,
                        math.nan, chi)

    def detuning(self, res: ResonatorParams, i, j):
        """Delta_ij: dressed qubit transition (photon vacuum) minus the bare
        resonator frequency at each point; NaN where resonant."""
        if not i > j:
            raise ValueError(f"transition requires i > j, got ({i}, {j})")
        delta = (self.energy_of(i, 0) - self.energy_of(j, 0)) - res.omega_r
        worst = self.worst_quality([(i, 0), (j, 0)])
        return np.where(worst < MIN_ASSIGNMENT_QUALITY, math.nan, delta)


def _label_levels(vals, vecs, rows, kept, n_res):
    """Dressed index and squared overlap of each bare product state in rows,
    at each point of the stacked eigensystem (vals, vecs).

    |U|^2 of a complete eigenbasis is doubly stochastic, so an overlap above
    1/2 is the strict maximum of its row and of its column, and the greedy
    descending assignment of `assign_dressed_levels` makes that pair whatever
    the order of the others: the row's argmax is its label. A point where a
    requested row's best overlap is not above 1/2, or (through rounding) not
    the strict maximum of its row and column, is assigned by
    `assign_dressed_levels` itself.
    """
    picked = np.abs(vecs[:, rows, :]) ** 2      # [point, label, dressed]
    index = np.argmax(picked, axis=2)
    best = np.take_along_axis(picked, index[..., None], axis=2)[..., 0]
    column = np.abs(np.take_along_axis(vecs, index[:, None, :], axis=2)) ** 2
    strict = (((picked >= best[..., None]).sum(axis=2) == 1)
              & ((column >= best[:, None, :]).sum(axis=1) == 1))
    for p in np.flatnonzero(~np.all(strict & (best > 0.5), axis=1)):
        dressed = assign_dressed_levels(vals[p], vecs[p], kept, n_res)
        for col, row in enumerate(rows):
            label = divmod(int(row), n_res)
            index[p, col] = dressed.assignment[label]
            best[p, col] = dressed.quality[label]
    return index, best


def _dressed_block(params, f_values, res, mode, dims, rows):
    """Lowest kept bare levels (n, kept), and the dressed energy and
    overlap quality (n, len(rows)) of the bare product states rows, from
    one stacked bare and one stacked coupled eigensolve."""
    vals, vecs = spectrum_sweep(params, f_values, dims.dim)
    bare = vals[:, :dims.kept]
    h = assemble_coupled(bare, _coupling_operator(vecs, params, mode, dims.kept),
                         res, mode, dims.n_res)
    del vecs  # not needed while the larger coupled stack is solved
    dvals, dvecs = diagonalize(h)
    index, quality = _label_levels(dvals, dvecs, rows, dims.kept, dims.n_res)
    return bare, np.take_along_axis(dvals, index, axis=1), quality


def sweep_dressed(params: EnergyParams, f_values, res: ResonatorParams,
                  mode: CouplingMode = DEFAULT_MODE,
                  dims: CoupledDims = CoupledDims(),
                  labels=CHI_LABELS) -> DressedSweep:
    """Dressed energies of the (qubit level, photon number) labels at each
    reduced flux, labelled as `assign_dressed_levels` labels them.

    Blocks of up to _SWEEP_BLOCK points share one stacked bare eigensolve
    and one stacked coupled eigensolve (real in LADDER_RWA mode, complex in
    CHARGE mode).
    """
    f = np.asarray(f_values, dtype=float).reshape(-1)
    if f.size == 0:
        raise ValueError("flux sweep needs at least one point")
    labels = tuple((int(i), int(n)) for i, n in labels)
    for i, n in labels:
        if not (0 <= i < dims.kept and 0 <= n < dims.n_res):
            raise InvalidDimensionError(
                f"label ({i}, {n}) outside {dims.kept} kept levels x "
                f"{dims.n_res} photon states")
    rows = np.array([i * dims.n_res + n for i, n in labels])
    parts = [_dressed_block(params, f[start:start + _SWEEP_BLOCK], res, mode,
                            dims, rows)
             for start in range(0, f.size, _SWEEP_BLOCK)]
    bare, energy, quality = (np.concatenate(p) for p in zip(*parts))
    return DressedSweep(labels, bare, energy, quality)


def dispersive_shift(params: EnergyParams, flux: FluxBias, res: ResonatorParams,
                     mode: CouplingMode = DEFAULT_MODE,
                     dims: CoupledDims = CoupledDims()):
    """Signed dispersive shift chi (angular) at one flux point."""
    sweep = sweep_dressed(params, [flux.f], res, mode, dims, CHI_LABELS)
    _require_quality(sweep.worst_quality(CHI_LABELS)[0], flux.f)
    return float(sweep.chi()[0])


def transition_detuning(params: EnergyParams, flux: FluxBias, res: ResonatorParams,
                        mode: CouplingMode, dims: CoupledDims, i, j):
    """Delta_ij: dressed qubit transition (photon vacuum) minus the bare
    resonator frequency (signed, angular)."""
    sweep = sweep_dressed(params, [flux.f], res, mode, dims, ((i, 0), (j, 0)))
    _require_quality(sweep.worst_quality(sweep.labels)[0], flux.f)
    return float(sweep.detuning(res, i, j)[0])


# ---------------------------------------------------------------------------
# Landscapes

DEFAULT_TRANSITIONS = ((1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2))
CHI_CLAMP = units.mhz(5.0)
DELTA_CLAMP = units.ghz(5.0)

STATUS_OK = "ok"
STATUS_RESONANT = "resonant"


def fill_and_clamp(vals, clamp, resonant=None):
    """Replace non-finite entries (and those marked resonant) by +-clamp
    with the sign of the nearest preceding valid nonzero entry in row-major
    order (the first one for a leading run, + when there is none), then clip
    everything to [-clamp, clamp]. An exact +-0.0 never sets the sign.
    Returns a new array; with clamp None, an unchanged copy."""
    out = np.array(vals, dtype=float)
    if clamp is None:
        return out
    flat = out.reshape(-1)
    bad = ~np.isfinite(flat)
    if resonant is not None:
        bad |= np.asarray(resonant, dtype=bool).reshape(-1)
    signed = ~bad & (flat != 0.0)
    source = np.maximum.accumulate(np.where(signed, np.arange(flat.size), -1))
    source[source < 0] = np.argmax(signed)
    sign = np.copysign(1.0, flat[source]) if signed.any() else np.ones(flat.size)
    flat[bad] = clamp * sign[bad]
    return np.clip(out, -clamp, clamp)


@dataclass(frozen=True)
class LandscapeGrid:
    """One scalar landscape over (E_J, f) with per-cell status.

    values holds the raw computed numbers (NaN where resonant); emission
    clamps to +-clamp and saturates resonant cells as `fill_and_clamp` does.
    """

    e_j_axis: np.ndarray
    f_axis: np.ndarray
    values: np.ndarray
    status: np.ndarray
    kind: str
    clamp: float | None

    def __post_init__(self):
        ej = np.asarray(self.e_j_axis, dtype=float)
        f = np.asarray(self.f_axis, dtype=float)
        if ej.size == 0 or f.size == 0:
            raise ValueError("landscape axes must be nonempty")
        if np.any(np.diff(ej) <= 0) or np.any(np.diff(f) <= 0):
            raise ValueError("landscape axes must be strictly increasing")
        if self.values.shape != (ej.size, f.size):
            raise ValueError("value matrix shape must match axis lengths")

    @classmethod
    def of(cls, e_j_axis, f_axis, values, kind):
        """The grid of one landscape kind: NaN cells are resonant, and the
        emission clamp is the kind's (none for omega_q)."""
        status = np.where(np.isnan(values), STATUS_RESONANT, STATUS_OK)
        clamp = {"omega_q": None, "chi": CHI_CLAMP}.get(kind, DELTA_CLAMP)
        return cls(e_j_axis, f_axis, values, status.astype(object), kind, clamp)

    def emitted_values(self):
        return fill_and_clamp(self.values, self.clamp,
                              resonant=self.status == STATUS_RESONANT)


def _landscape_row(params, f_values, res, mode, dims, transitions):
    """{kind: values along f_values} at one E_J, all from one dressed sweep;
    NaN marks resonant cells."""
    levels = sorted({i for ij in transitions for i in ij})
    labels = CHI_LABELS + tuple((i, 0) for i in levels if (i, 0) not in CHI_LABELS)
    sweep = sweep_dressed(params, f_values, res, mode, dims, labels)
    row = {"omega_q": sweep.bare[:, 1] - sweep.bare[:, 0], "chi": sweep.chi()}
    for (i, j) in transitions:
        row[f"delta_{i}{j}"] = sweep.detuning(res, i, j)
    return row


def _cell_values(params, flux, res, mode, dims, transitions):
    """All landscape quantities at one cell: {kind: (value, status)}."""
    row = _landscape_row(params, [flux.f], res, mode, dims, transitions)
    return {k: (float(v[0]), STATUS_RESONANT if np.isnan(v[0]) else STATUS_OK)
            for k, v in row.items()}


def compute_landscapes(e_j_axis, f_axis, e_c, e_l, res: ResonatorParams,
                       mode: CouplingMode = DEFAULT_MODE,
                       dims: CoupledDims = CoupledDims(),
                       transitions=DEFAULT_TRANSITIONS):
    """Sweep (E_J, f), one flux sweep per E_J; every grid cell equals the
    single-point operation with identical inputs. Resonance errors become
    per-cell status, never aborts. Returns {kind: LandscapeGrid}.
    """
    e_j_axis = np.asarray(e_j_axis, dtype=float)
    f_axis = np.asarray(f_axis, dtype=float)
    kinds = ["omega_q", "chi"] + [f"delta_{i}{j}" for (i, j) in transitions]
    values = {k: np.empty((e_j_axis.size, f_axis.size)) for k in kinds}
    for a, e_j in enumerate(e_j_axis):
        row = _landscape_row(EnergyParams(float(e_j), e_c, e_l), f_axis,
                             res, mode, dims, transitions)
        for k in kinds:
            values[k][a] = row[k]
    return {k: LandscapeGrid.of(e_j_axis, f_axis, values[k], k) for k in kinds}


# ---------------------------------------------------------------------------
# Anticrossing

@dataclass(frozen=True)
class Anticrossing:
    """Avoided-crossing summary: location, minimum gap, half-gap coupling,
    and the swap time pi / (2 g_ij)."""

    f_star: float
    gap: float
    g_ij: float
    t_swap: float


def _hybridized_gap(params, flux, res, mode, dims, i, j):
    """Energy gap between the two dressed levels hybridizing from the bare
    pair |i, 0> and |j, 1> (the two with the largest overlap on that span)."""
    h = build_coupled_hamiltonian(params, flux, res, mode, dims)
    vals, vecs = diagonalize(h)
    b_i0 = i * dims.n_res + 0
    b_j1 = j * dims.n_res + 1
    span = np.abs(vecs[b_i0, :]) ** 2 + np.abs(vecs[b_j1, :]) ** 2
    top = np.argsort(-span, kind="stable")[:2]
    return abs(float(vals[top[0]] - vals[top[1]]))


def find_anticrossing(params: EnergyParams, res: ResonatorParams,
                      mode: CouplingMode = DEFAULT_MODE,
                      dims: CoupledDims = CoupledDims(),
                      transition=(3, 1), window=(0.55, 0.60),
                      xtol=1e-6) -> Anticrossing:
    """Bounded scalar minimization (scipy) of the dressed-level gap over the
    flux window, to xtol in flux; the window must bracket exactly one
    interior gap minimum."""
    i, j = transition
    if not (0 <= i < dims.kept and 0 <= j < dims.kept):
        raise InvalidDimensionError(
            f"transition ({i}, {j}) outside the {dims.kept} kept levels")
    a, b = window
    if not b > a:
        raise BracketingError(f"empty search window [{a}, {b}]")

    def gap(f):
        return _hybridized_gap(params, FluxBias(f), res, mode, dims, i, j)

    opt = minimize_scalar(gap, bounds=(a, b), method="bounded",
                          options={"xatol": xtol})
    f_star, gap_min = float(opt.x), float(opt.fun)
    if f_star - a < 2 * xtol or b - f_star < 2 * xtol:
        raise BracketingError(f"minimum at {f_star} sits on the edge of "
                              f"[{a}, {b}]; no interior bracket")
    g_ij = 0.5 * gap_min
    t_swap = math.inf if g_ij == 0.0 else math.pi / (2.0 * g_ij)
    return Anticrossing(f_star, gap_min, g_ij, t_swap)


# ---------------------------------------------------------------------------
# Chi-vs-flux profile for the readout dynamics

def build_chi_profile(params: EnergyParams, res: ResonatorParams,
                      mode: CouplingMode = DEFAULT_MODE,
                      dims: CoupledDims = CoupledDims(),
                      f_min=0.40, f_max=0.70, step=1e-4,
                      clamp=units.mhz(50.0)) -> ChiProfile:
    """Tabulate chi on a uniform flux grid in one dressed sweep. Resonant
    points (assignment breakdown) are filled as `fill_and_clamp` fills
    them; all values are clipped to +-clamp.
    """
    n = int(round((f_max - f_min) / step))
    grid = f_min + step * np.arange(n + 1)
    vals = sweep_dressed(params, grid, res, mode, dims).chi()
    if np.all(np.isnan(vals)):
        raise NumericalFailureError("chi profile entirely resonant",
                                    f_min=f_min, f_max=f_max)
    return ChiProfile(grid, fill_and_clamp(vals, clamp), clamp)

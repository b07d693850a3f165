"""Coupled fluxonium-resonator spectrum.

Two-stage truncation (full HO-basis fluxonium eigensolve, then the lowest
kept levels tensored with resonator Fock states), dressed-state labeling by
bare-state overlap, dispersive shift, transition detunings, flux/E_J
landscapes, anticrossing extraction by bounded scalar minimization of the
dressed gap (scipy), and the flux grid of chi profiles and chi curves.

Labelled levels are one type, `DressedSweep`: chi, detunings, landscape
cells and the anticrossing gap come from `sweep_dressed` (blocks of flux
points in stacked eigensolves, on a thread pool when a set BLAS thread
count leaves CPUs free), and a single point, each gap evaluation and the
two-level surrogate are one-point sweeps. A sweep
folds every flux to its canonical flux in [0, 1/2]
(`qubit.canonical_flux`) and solves each distinct canonical flux once, so
f, 1 - f and f + 1 give bit-identical levels. The greedy
`assign_dressed_levels` returns (index, quality) arrays over bare product
states for the sweep's fallback and the gate space. Every eigensolve, bare
or coupled, is `qubit.diagonalize`, and every coupled Hamiltonian is
`build_coupled_hamiltonian` of a bare eigensystem. Values are returned as
computed, NaN where resonant: nothing here fills or clamps them.
"""

from __future__ import annotations

import enum
import math
import os
from dataclasses import dataclass

import numpy as np

from . import BLAS_THREAD_VARS, units
from .errors import (
    BracketingError,
    InvalidDimensionError,
    ResonanceRegionError,
    require_finite,
)
from .qubit import (
    _FLUX_LATTICE,
    DEFAULT_DIM,
    EnergyParams,
    FluxBias,
    build_ho_operators,
    canonical_flux,
    diagonalize,
    # not called here: perfbench/spans.py wraps it where this module has it
    fluxonium_spectrum,  # noqa: F401
    lowering_operator,
    spectrum_sweep,
)


@dataclass(frozen=True)
class ResonatorParams:
    """Readout resonator: frequency, linewidth, coupling (all angular, rad/ns)."""

    omega_r: float
    kappa: float
    g: float

    def __post_init__(self):
        require_finite(self, "omega_r", "kappa", "g")
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
    if mode is CouplingMode.CHARGE:
        _, _, n_op, _ = build_ho_operators(vecs.shape[-2], params.phi0)
        return w_dag @ n_op @ w
    return w_dag @ lowering_operator(vecs.shape[-2]) @ w


def build_coupled_hamiltonian(params: EnergyParams, spec,
                              res: ResonatorParams, mode: CouplingMode,
                              dims: CoupledDims):
    """Coupled Hamiltonian of the bare eigensystem spec = (eigenvalues,
    eigenvectors) at one flux, or stacked over a leading axis: the coupling
    operator projected onto the lowest kept levels, tensored with the
    resonator."""
    vals, vecs = spec
    q_op = _coupling_operator(vecs, params, mode, dims.kept)
    return assemble_coupled(vals[..., :dims.kept], q_op, res, mode, dims.n_res)


def assign_dressed_levels(eigenvectors):
    """Assign each bare product state i * n_res + n the dressed state with
    the largest remaining overlap (greedy, descending, unique). Returns the
    (index, quality) arrays over bare states: the dressed index and the
    squared overlap backing it. Low quality is never fatal here."""
    overlap = np.abs(eigenvectors) ** 2  # overlap[bare, dressed]
    dim = overlap.shape[0]
    index = np.full(dim, -1)
    quality = np.zeros(dim)
    free = np.ones(dim, dtype=bool)
    left = dim
    for flat in np.argsort(-overlap, axis=None, kind="stable"):
        b, d = divmod(int(flat), dim)
        if index[b] < 0 and free[d]:
            index[b], quality[b], free[d] = d, overlap[b, d], False
            left -= 1
            if not left:
                break
    return index, quality


MIN_ASSIGNMENT_QUALITY = 0.25
CHI_LABELS = ((0, 0), (0, 1), (1, 0), (1, 1))


# ---------------------------------------------------------------------------
# Flux sweeps

# flux points per stacked eigensolve: bounds a sweep's working set whatever
# its length (peak about 1.3 MB per block in flight, one per sweep thread,
# at the default 40/8/8 truncation); larger blocks add memory, not speed
_SWEEP_BLOCK = 16


def _sweep_workers():
    """Threads that solve a sweep's blocks: the CPUs this process may use,
    divided by the BLAS threads of each solve (the largest positive count
    set in BLAS_THREAD_VARS). With none set, BLAS may use every CPU, and
    the sweep runs serially."""
    threads = max((int(v) for v in map(os.environ.get, BLAS_THREAD_VARS)
                   if v and v.strip().isdigit()), default=0)
    if threads < 1:  # unset, or 0: BLAS's own default of every CPU
        return 1
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    return max(1, cpus // threads)


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


def _label_levels(vecs, rows):
    """Dressed index and squared overlap of each bare product state in rows,
    at each point of the stacked eigenvectors vecs.

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
        greedy = assign_dressed_levels(vecs[p])
        index[p], best[p] = (labels[rows] for labels in greedy)
    return index, best


def _dressed_levels(h, rows):
    """Dressed energy and quality (n, len(rows)) of the bare states rows."""
    vals, vecs = diagonalize(h)
    index, quality = _label_levels(vecs, rows)
    return np.take_along_axis(vals, index, axis=1), quality


def _dressed_block(params, f_values, res, mode, dims, rows):
    """Lowest kept bare levels (n, kept), and the dressed energy and
    overlap quality (n, len(rows)) of the bare product states rows, from
    one stacked bare and one stacked coupled eigensolve."""
    spec = spectrum_sweep(params, f_values, dims.dim)
    bare = spec[0][:, :dims.kept]
    h = build_coupled_hamiltonian(params, spec, res, mode, dims)
    del spec  # the bare vectors: not needed while the coupled stack is solved
    return (bare, *_dressed_levels(h, rows))


def sweep_dressed(params: EnergyParams, f_values, res: ResonatorParams,
                  mode: CouplingMode = DEFAULT_MODE,
                  dims: CoupledDims = CoupledDims(),
                  labels=CHI_LABELS) -> DressedSweep:
    """Dressed energies of the (qubit level, photon number) labels at each
    reduced flux, labelled as `assign_dressed_levels` labels them.

    Each distinct canonical flux is solved once: blocks of up to
    _SWEEP_BLOCK of them share one stacked bare eigensolve and one stacked
    coupled eigensolve (real in LADDER_RWA mode, complex in CHARGE mode),
    and every point reads the levels of its canonical flux. The blocks run
    on `_sweep_workers()` threads, serially when that is 1 or there is one
    block; they are joined in block order, so every point's bits and the
    exception a failing block raises are those of the serial run.
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
    g, inverse = np.unique(canonical_flux(f)[0], return_inverse=True)

    def block(start):
        return _dressed_block(params, g[start:start + _SWEEP_BLOCK], res,
                              mode, dims, rows)

    starts = range(0, g.size, _SWEEP_BLOCK)
    workers = min(_sweep_workers(), len(starts))
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        # map yields in block order and, on a block's exception, cancels
        # the blocks not yet started; leaving the pool joins its threads
        with ThreadPoolExecutor(workers) as pool:
            parts = list(pool.map(block, starts))
    else:
        parts = list(map(block, starts))
    bare, energy, quality = (np.concatenate(p)[inverse] for p in zip(*parts))
    return DressedSweep(labels, bare, energy, quality)


def dispersive_shift(params: EnergyParams, flux: FluxBias, res: ResonatorParams,
                     mode: CouplingMode = DEFAULT_MODE,
                     dims: CoupledDims = CoupledDims()):
    """Signed dispersive shift chi (angular) at one flux point; raises
    ResonanceRegionError where the chi labels are resonant."""
    sweep = sweep_dressed(params, [flux.f], res, mode, dims, CHI_LABELS)
    worst = float(sweep.worst_quality(CHI_LABELS)[0])
    if worst < MIN_ASSIGNMENT_QUALITY:
        raise ResonanceRegionError(
            f"dressed assignment quality {worst:.3f} below "
            f"{MIN_ASSIGNMENT_QUALITY} at f={flux.f}; dispersive model invalid",
            flux=flux.f, worst_quality=worst)
    return float(sweep.chi()[0])


# ---------------------------------------------------------------------------
# Landscapes

DEFAULT_TRANSITIONS = ((1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2))

STATUS_OK = "ok"
STATUS_RESONANT = "resonant"


def _landscape_row(params, f_values, res, mode, dims):
    """{kind: values along f_values} at one E_J, all from one dressed sweep;
    NaN marks resonant cells."""
    levels = sorted({i for ij in DEFAULT_TRANSITIONS for i in ij})
    labels = CHI_LABELS + tuple((i, 0) for i in levels if (i, 0) not in CHI_LABELS)
    sweep = sweep_dressed(params, f_values, res, mode, dims, labels)
    row = {"omega_q": sweep.bare[:, 1] - sweep.bare[:, 0], "chi": sweep.chi()}
    for (i, j) in DEFAULT_TRANSITIONS:
        row[f"delta_{i}{j}"] = sweep.detuning(res, i, j)
    return row


def _cell_values(params, flux, res, mode, dims):
    """All landscape quantities at one cell: {kind: (value, status)}."""
    row = _landscape_row(params, [flux.f], res, mode, dims)
    return {k: (float(v[0]), STATUS_RESONANT if np.isnan(v[0]) else STATUS_OK)
            for k, v in row.items()}


def compute_landscapes(e_j_axis, f_axis, e_c, e_l, res: ResonatorParams,
                       mode: CouplingMode = DEFAULT_MODE,
                       dims: CoupledDims = CoupledDims()):
    """Sweep (E_J, f), one flux sweep per E_J; every grid cell equals the
    single-point operation with identical inputs. Returns {kind: raw values
    (len(e_j_axis), len(f_axis))} for omega_q, chi and each delta_ij of
    DEFAULT_TRANSITIONS, NaN where resonant: resonance marks a cell, never
    aborts.
    """
    f_axis = np.asarray(f_axis, dtype=float)
    rows = [_landscape_row(EnergyParams(float(e_j), e_c, e_l), f_axis, res,
                           mode, dims)
            for e_j in np.asarray(e_j_axis, dtype=float)]
    return {k: np.array([row[k] for row in rows]) for k in rows[0]}


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


ANTICROSSING_XTOL = 1e-6  # flux tolerance of the anticrossing search


def find_anticrossing(params: EnergyParams, res: ResonatorParams,
                      mode: CouplingMode = DEFAULT_MODE,
                      dims: CoupledDims = CoupledDims(), *,
                      transition, window) -> Anticrossing:
    """Bounded scalar minimization (scipy), to ANTICROSSING_XTOL in flux, of
    the gap |E(i, 0) - E(j, 1)| between the dressed levels labelled |i, 0>
    and |j, 1>, each read from a one-point `sweep_dressed`; the window must
    bracket exactly one interior gap minimum."""
    # the package's only use of scipy.optimize: imported here, not at start-up
    from scipy.optimize import minimize_scalar

    i, j = transition
    a, b = window
    if not b > a:
        raise BracketingError(f"empty search window [{a}, {b}]")

    def gap(f):
        energy = sweep_dressed(params, [f], res, mode, dims,
                               ((i, 0), (j, 1))).energy[0]
        return abs(float(energy[0] - energy[1]))

    opt = minimize_scalar(gap, bounds=(a, b), method="bounded",
                          options={"xatol": ANTICROSSING_XTOL})
    f_star, gap_min = float(opt.x), float(opt.fun)
    if min(f_star - a, b - f_star) < 2 * ANTICROSSING_XTOL:
        raise BracketingError(f"minimum at {f_star} sits on the edge of "
                              f"[{a}, {b}]; no interior bracket")
    g_ij = 0.5 * gap_min
    t_swap = math.inf if g_ij == 0.0 else math.pi / (2.0 * g_ij)
    return Anticrossing(f_star, gap_min, g_ij, t_swap)


# ---------------------------------------------------------------------------
# Chi-vs-flux grid

def chi_grid(f_min, f_max, step):
    """The uniform flux grid f_min + k step, k = 0 .. round((f_max - f_min)
    / step), on which chi profiles and chi curves are tabulated; a last
    point within the flux lattice (1e-12) of f_max is f_max."""
    n = int(round((f_max - f_min) / step))
    grid = f_min + step * np.arange(n + 1)
    if abs(grid[-1] - f_max) <= 1.0 / _FLUX_LATTICE:
        grid[-1] = f_max
    return grid


"""Bare fluxonium in the harmonic-oscillator basis.

Operators, the flux-affine real Hamiltonian and stacked spectra over flux
grids with a deterministic eigenvector sign convention. All frequencies
are angular (rad/ns); see :mod:`fluxsim.units`.

`diagonalize` is the package's one Hamiltonian eigensolve: the bare
spectra here and the coupled ones of :mod:`fluxsim.coupled` and
:mod:`fluxsim.gates` share its counter and its NumericalFailureError.

The Hamiltonian is periodic in f and H(1 - f) = P H(f) P under the parity
phi -> -phi, P = diag((-1)^k) in the HO basis, so every spectrum is solved
at the canonical flux `canonical_flux(f)` in [0, 1/2] and mirrored
eigenvectors are mapped back by P: f, 1 - f and f + 1 share one eigensolve.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import diagnostics, units
from .errors import InvalidDimensionError, NumericalFailureError


@dataclass(frozen=True)
class EnergyParams:
    """Fluxonium energies E_J, E_C, E_L as angular frequencies (rad/ns)."""

    e_j: float
    e_c: float
    e_l: float

    def __post_init__(self):
        if not math.isfinite(self.e_j) or self.e_j < 0.0:
            raise ValueError(f"e_j must be finite and >= 0, got {self.e_j}")
        for name in ("e_c", "e_l"):
            v = getattr(self, name)
            if not math.isfinite(v) or v <= 0.0:
                raise ValueError(f"{name} must be finite and strictly positive, got {v}")

    @classmethod
    def from_ghz(cls, e_j_ghz, e_c_ghz, e_l_ghz):
        return cls(units.ghz(e_j_ghz), units.ghz(e_c_ghz), units.ghz(e_l_ghz))

    @property
    def phi0(self):
        """Zero-point phase scale (8 E_C / E_L)^(1/4)."""
        return (8.0 * self.e_c / self.e_l) ** 0.25


@dataclass(frozen=True)
class FluxBias:
    """Reduced external flux f = Phi_ext / Phi_0."""

    f: float

    def __post_init__(self):
        if not math.isfinite(self.f):
            raise ValueError(f"flux must be finite, got {self.f}")


DEFAULT_DIM = 40


def lowering_operator(dim):
    """Real dim x dim lowering operator, sqrt(n) on the first superdiagonal:
    the fluxonium's oscillator basis, the resonator and the qubit eigen-level
    ladder all use it."""
    a = np.zeros((dim, dim))
    idx = np.arange(1, dim)
    a[idx - 1, idx] = np.sqrt(idx)
    return a


def build_ho_operators(dim, phi0):
    """Dense (annihilation, creation, charge, flux) matrices on a dim-level
    oscillator with zero-point phase scale phi0. The charge operator is
    imaginary; the other three are real. Rejects a basis of fewer than 2
    levels and a zero-point phase scale that is not positive."""
    if dim < 2:
        raise InvalidDimensionError(f"HO basis needs dim >= 2, got {dim}")
    if not phi0 > 0.0:
        raise ValueError(f"phi0 must be positive, got {phi0}")
    a = lowering_operator(dim)
    adag = a.T
    n_op = (-1j / (math.sqrt(2.0) * phi0)) * (a - adag)
    phi_op = (phi0 / math.sqrt(2.0)) * (a + adag)
    return a, adag, n_op, phi_op


@functools.lru_cache(maxsize=16)
def _flux_affine_parts(e_c, e_l, dim):
    """(H0, C, S) with H(f) = H0 - E_J (cos phi_ext C + sin phi_ext S).

    H0 = 4 E_C n^2 + (1/2) E_L phi^2, C = cos(phi) and S = sin(phi), by
    spectral calculus on the flux operator (exact on the truncated space).
    n^2 = -(a - a^dag)^2 / (2 phi0^2) is real, so all three are real
    symmetric; they are symmetrized exactly and made read-only.
    """
    phi0 = EnergyParams(0.0, e_c, e_l).phi0
    a, adag, _, phi_op = build_ho_operators(dim, phi0)
    p = a - adag
    n_sq = (p @ p) * (-0.5 / phi0 ** 2)
    lam, v = np.linalg.eigh(phi_op)
    parts = tuple(0.5 * (m + m.T) for m in (
        4.0 * e_c * n_sq + 0.5 * e_l * (phi_op @ phi_op),
        (v * np.cos(lam)) @ v.T, (v * np.sin(lam)) @ v.T))
    for m in parts:
        m.flags.writeable = False
    return parts


def fluxonium_hamiltonians(params: EnergyParams, f_values, dim=DEFAULT_DIM):
    """Stack (n, dim, dim) of H = 4 E_C n^2 + (1/2) E_L phi^2
    - E_J cos(phi - phi_ext) at each reduced flux, real and exactly
    symmetric. Flux enters only through
    cos(phi - phi_ext) = cos(phi_ext) C + sin(phi_ext) S."""
    h0, c_op, s_op = _flux_affine_parts(params.e_c, params.e_l, dim)
    f = np.asarray(f_values, dtype=float).reshape(-1)
    if not np.all(np.isfinite(f)):
        raise ValueError(f"flux must be finite, got {f_values}")
    phi_ext = 2.0 * math.pi * f
    h = np.cos(phi_ext)[:, None, None] * c_op
    h += np.sin(phi_ext)[:, None, None] * s_op
    h *= -params.e_j
    h += h0
    return h


# canonical fluxes are snapped to multiples of 1 / _FLUX_LATTICE = 1e-12,
# 1000x finer than the configured minimum grid step of 1e-9, so that
# 1 - f of a grid point and its grid partner fold to the same double
_FLUX_LATTICE = 1e12


def canonical_flux(f_values):
    """(g, mirrored) elementwise: g in [0, 1/2] with H(f) = H(g) when not
    mirrored and H(f) = P H(g) P when mirrored, from r = f mod 1 (mirrored
    where r > 1/2, g = 1 - r) snapped to a 1e-12 lattice."""
    f = np.asarray(f_values, dtype=float)
    if not np.all(np.isfinite(f)):
        raise ValueError(f"flux must be finite, got {f_values}")
    r = np.mod(f, 1.0)
    mirrored = r > 0.5
    g = np.where(mirrored, 1.0 - r, r)
    return np.round(g * _FLUX_LATTICE) / _FLUX_LATTICE, mirrored


def _fix_signs(vecs):
    """Flip, in place, each eigenvector (column) so its largest-magnitude
    component is positive (ties broken by lowest index via argmax)."""
    pivot = np.take_along_axis(vecs, np.argmax(np.abs(vecs), axis=-2)[..., None, :],
                               axis=-2)
    vecs *= np.where(pivot < 0.0, -1.0, 1.0)
    return vecs


def diagonalize(h):
    """Hermitian eigensolve, the one of every bare and coupled spectrum: a
    stack (..., n, n) is solved in one call and counted per matrix, and a
    LAPACK failure raises NumericalFailureError."""
    diagnostics.count_eigensolve(int(np.prod(h.shape[:-2])))
    try:
        vals, vecs = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"eigensolve failed: {exc}",
                                    shape=h.shape) from exc
    return vals, vecs


def spectrum_sweep(params: EnergyParams, f_values, dim=DEFAULT_DIM):
    """Bare eigensystems at each reduced flux in one stacked real eigensolve:
    ascending eigenvalues (n, dim) and sign-fixed eigenvectors (n, dim, dim)
    of H(f). Each point is solved at its canonical flux; at mirrored points
    the parity P maps the vectors back to eigenvectors of H(f)."""
    g, mirrored = canonical_flux(np.reshape(f_values, -1))
    vals, vecs = diagonalize(fluxonium_hamiltonians(params, g, dim))
    vecs[mirrored] *= np.where(np.arange(dim) % 2, -1.0, 1.0)[:, None]
    return vals, _fix_signs(vecs)


def fluxonium_spectrum(params: EnergyParams, flux: FluxBias, dim=DEFAULT_DIM):
    """(eigenvalues, eigenvectors) of the fluxonium Hamiltonian at one
    flux: ascending angular frequencies (dim,) and the matching real
    orthonormal, sign-fixed columns (dim, dim) in the HO basis. A one-point
    `spectrum_sweep`."""
    vals, vecs = spectrum_sweep(params, [flux.f], dim)
    return vals[0], vecs[0]


def anharmonicity(eigenvalues):
    """alpha = (omega_2 - omega_1) - (omega_1 - omega_0) (angular) from
    ascending eigenvalues."""
    return ((eigenvalues[2] - eigenvalues[1])
            - (eigenvalues[1] - eigenvalues[0]))

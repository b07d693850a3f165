"""Bare fluxonium in the harmonic-oscillator basis.

Operators, the flux-affine real Hamiltonian, stacked spectra over flux
grids with a deterministic eigenvector sign convention, and charge matrix
elements. All frequencies
are angular (rad/ns); see :mod:`fluxsim.units`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import diagnostics, units
from .errors import IndexBoundError, InvalidDimensionError, NumericalFailureError


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


@dataclass(frozen=True)
class HoBasis:
    """Harmonic-oscillator basis truncation and zero-point scale."""

    dim: int
    phi0: float

    def __post_init__(self):
        if self.dim < 2:
            raise InvalidDimensionError(f"HO basis needs dim >= 2, got {self.dim}")
        if not self.phi0 > 0.0:
            raise ValueError(f"phi0 must be positive, got {self.phi0}")


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
    imaginary; the other three are real."""
    basis = HoBasis(dim, phi0)  # validates
    a = lowering_operator(dim)
    adag = a.T
    n_op = (-1j / (math.sqrt(2.0) * basis.phi0)) * (a - adag)
    phi_op = (basis.phi0 / math.sqrt(2.0)) * (a + adag)
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
    HoBasis(dim, params.phi0)  # validates
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


def _fix_signs(vecs):
    """Flip, in place, each eigenvector (column) so its largest-magnitude
    component is positive (ties broken by lowest index via argmax)."""
    pivot = np.take_along_axis(vecs, np.argmax(np.abs(vecs), axis=-2)[..., None, :],
                               axis=-2)
    vecs *= np.where(pivot < 0.0, -1.0, 1.0)
    return vecs


def spectrum_sweep(params: EnergyParams, f_values, dim=DEFAULT_DIM):
    """Bare eigensystems at each reduced flux in one stacked real eigensolve:
    ascending eigenvalues (n, dim) and sign-fixed eigenvectors (n, dim, dim)."""
    h = fluxonium_hamiltonians(params, f_values, dim)
    diagnostics.count_eigensolve(len(h))
    try:
        vals, vecs = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(
            f"fluxonium eigensolve failed: {exc}",
            params=params, flux=f_values, dim=dim,
        ) from exc
    return vals, _fix_signs(vecs)


@dataclass(frozen=True)
class Spectrum:
    """Eigensystem of the bare fluxonium with provenance metadata.

    eigenvalues are ascending angular frequencies; eigenvectors are the
    matching real orthonormal columns in the HO basis with fixed signs.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    params: EnergyParams
    flux: FluxBias
    dim: int

    def transition(self, i, j):
        """omega_i - omega_j (angular)."""
        return self.eigenvalues[i] - self.eigenvalues[j]


def fluxonium_spectrum(params: EnergyParams, flux: FluxBias, dim=DEFAULT_DIM) -> Spectrum:
    """Diagonalize the fluxonium Hamiltonian; ascending eigenvalues,
    deterministic eigenvector signs. A one-point `spectrum_sweep`."""
    vals, vecs = spectrum_sweep(params, [flux.f], dim)
    return Spectrum(vals[0], vecs[0], params, flux, dim)


def charge_matrix_element(spec: Spectrum, i, j):
    """<i| n |j> in the fixed-sign eigenbasis.

    Indices are restricted to the lower half of the truncated space, where
    eigenstates are trusted to be converged.
    """
    bound = spec.dim // 2
    if not (0 <= i < bound and 0 <= j < bound):
        raise IndexBoundError(
            f"levels ({i}, {j}) outside trusted range [0, {bound}) for dim={spec.dim}"
        )
    _, _, n_op, _ = build_ho_operators(spec.dim, spec.params.phi0)
    return complex(spec.eigenvectors[:, i].conj() @ n_op @ spec.eigenvectors[:, j])


def anharmonicity(params: EnergyParams, flux: FluxBias, dim=DEFAULT_DIM):
    """alpha = (omega_2 - omega_1) - (omega_1 - omega_0) (angular)."""
    spec = fluxonium_spectrum(params, flux, dim)
    return spec.transition(2, 1) - spec.transition(1, 0)

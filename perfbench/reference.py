"""Independent computations that the benchmark checks fluxsim's outputs against.

Nothing here imports fluxsim. The models are written from their physical
definitions in plain numpy/scipy, in plain frequency units (GHz, MHz) where
the program works in angular units (rad/ns), so a fault in the program's
operators, coupling, labelling, unit conversion or integrators shows up as a
disagreement rather than being reproduced.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import solve_ivp

TWO_PI = 2.0 * math.pi


def fluxonium_levels(e_j, e_c, e_l, f, dim=40):
    """Bare fluxonium in a dim-level harmonic-oscillator basis.

    H = 4 E_C n^2 + E_L phi^2 / 2 - E_J cos(phi - 2 pi f), with the products
    n n and phi phi taken on the truncated space and the cosine by spectral
    calculus on phi. Returns (eigenvalues, eigenvectors, n, a), all in the
    units of the energies.
    """
    phi0 = (8.0 * e_c / e_l) ** 0.25
    a = np.diag(np.sqrt(np.arange(1.0, dim)), k=1)
    n = (a - a.T) * (-1j / (math.sqrt(2.0) * phi0))
    phi = (a + a.T) * (phi0 / math.sqrt(2.0))
    lam, v = np.linalg.eigh(phi)
    cos = (v * np.cos(lam - TWO_PI * f)) @ v.T
    h = 4.0 * e_c * (n @ n) + 0.5 * e_l * (phi @ phi) - e_j * cos
    vals, vecs = np.linalg.eigh(0.5 * (h + h.conj().T))
    return vals, vecs, n, a


def dressed_levels(e_j, e_c, e_l, f, omega_r, g, dim=40, kept=8, n_res=8):
    """Ladder-RWA qubit-resonator spectrum: the lowest `kept` bare levels
    with the HO lowering operator projected onto them, times `n_res` Fock
    states, coupled by g (c^dag a + c a^dag). Each bare product label
    (level, photons) goes to the dressed state with the largest overlap.
    Returns {(level, photons): energy} for levels and photons 0 and 1.
    """
    vals, vecs, _, a = fluxonium_levels(e_j, e_c, e_l, f, dim)
    w = vecs[:, :kept]
    c = w.conj().T @ a @ w
    b = np.diag(np.sqrt(np.arange(1.0, n_res)), k=1)
    h = (np.kron(np.diag(vals[:kept]), np.eye(n_res))
         + np.kron(np.eye(kept), omega_r * (b.T @ b + 0.5 * np.eye(n_res)))
         + g * (np.kron(c.conj().T, b) + np.kron(c, b.T)))
    energies, states = np.linalg.eigh(0.5 * (h + h.conj().T))
    overlap = np.abs(states) ** 2
    return {(i, k): float(energies[np.argmax(overlap[i * n_res + k])])
            for i in (0, 1) for k in (0, 1)}


def dispersive_shift_mhz(e_j_ghz, e_c_ghz, e_l_ghz, f, omega_r_ghz, g_mhz):
    """chi = ((E11 - E10) - (E01 - E00)) / 2 in MHz, dims 40/8/8."""
    e = dressed_levels(e_j_ghz, e_c_ghz, e_l_ghz, f, omega_r_ghz, 1e-3 * g_mhz)
    return 0.5e3 * ((e[1, 1] - e[1, 0]) - (e[0, 1] - e[0, 0]))


def qubit_frequency_ghz(e_j_ghz, e_c_ghz, e_l_ghz, f):
    vals = fluxonium_levels(e_j_ghz, e_c_ghz, e_l_ghz, f)[0]
    return float(vals[1] - vals[0])


def static_output_field(chi_mhz, kappa_mhz, n_bar, sigma_z, times_ns):
    """Output field of a cavity driven from empty at constant chi.

    alpha' = -(kappa/2 + i chi sz) alpha + eps solves to
    alpha = eps (1 - exp(-(kappa/2 + i chi sz) t)) / (kappa/2 + i chi sz);
    alpha_out = -eps / sqrt(kappa) + sqrt(kappa) alpha, with the drive
    eps = sqrt(n_bar (kappa^2/4 + chi^2)) set for n_bar steady-state photons.
    """
    chi = TWO_PI * 1e-3 * chi_mhz
    kappa = TWO_PI * 1e-3 * kappa_mhz
    eps = math.sqrt(n_bar * (0.25 * kappa ** 2 + chi ** 2))
    rate = 0.5 * kappa + 1j * chi * sigma_z
    alpha = eps * (1.0 - np.exp(-rate * np.asarray(times_ns))) / rate
    return -eps / math.sqrt(kappa) + math.sqrt(kappa) * alpha


def flux_offsets(scale, n_draws, seed):
    """The documented noise draws: a Philox stream keyed (seed << 64) + k
    gives u1, u2 in [0, 1); delta_k = scale (sqrt(-2 ln(1 - u1)) cos(2 pi u2)),
    the normal variate formed before scaling."""
    out = []
    for k in range(n_draws):
        gen = np.random.Generator(np.random.Philox(key=(seed << 64) + k))
        u1, u2 = gen.random(2)
        out.append(scale * (math.sqrt(-2.0 * math.log1p(-u1))
                            * math.cos(TWO_PI * u2)))
    return np.array(out)


def bare_gate_errors(e_j_ghz, e_c_ghz, e_l_ghz, deltas, tau_g, eps_d, lam,
                     omega_d, levels=6, base=0.5):
    """Gate error of a frozen DRAG pulse on the bare fluxonium at the biases
    base + delta: the lowest `levels` levels, no resonator.

    The drive eps_d [2 s sin(omega_d t) + (lam / alpha) s' cos(omega_d t)],
    s = (1 - cos(2 pi t / tau_g)) / 2 and alpha the anharmonicity at `base`,
    couples through the charge operator. The lab-frame propagator is
    integrated by DOP853 (rtol 1e-11) for all offsets at once. The error is
    1 - F, F = (Tr M^dag M + |Tr M|^2) / 6 (Pedersen, Moller & Molmer 2007),
    M = X Z(phi) P U P on |0>, |1>, maximised over the virtual-Z phase phi.
    eps_d and omega_d are angular (rad/ns), tau_g in ns.
    """
    vals0 = fluxonium_levels(e_j_ghz, e_c_ghz, e_l_ghz, base)[0]
    alpha = TWO_PI * ((vals0[2] - vals0[1]) - (vals0[1] - vals0[0]))
    energies, charge = [], []
    for delta in deltas:
        vals, vecs, n, _ = fluxonium_levels(e_j_ghz, e_c_ghz, e_l_ghz,
                                            base + delta)
        v = vecs[:, :levels]
        energies.append(TWO_PI * (vals[:levels] - vals[0]))
        charge.append(v.conj().T @ n @ v)
    energies, charge = np.array(energies), np.array(charge)
    w = TWO_PI / tau_g

    def rhs(t, y):
        s = 0.5 * (1.0 - math.cos(w * t))
        ds = 0.5 * w * math.sin(w * t)
        u = eps_d * (2.0 * s * math.sin(omega_d * t)
                     + (lam / alpha) * ds * math.cos(omega_d * t))
        prop = y.reshape(charge.shape)
        return (-1j * (energies[:, :, None] * prop + u * (charge @ prop))).ravel()

    start = np.broadcast_to(np.eye(levels, dtype=complex), charge.shape).ravel()
    sol = solve_ivp(rhs, (0.0, tau_g), start, method="DOP853",
                    rtol=1e-11, atol=1e-12)
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    m = sol.y[:, -1].reshape(charge.shape)[:, :2, :2]
    tr_mm = np.einsum("kij,kij->k", m.conj(), m).real
    best_tr = np.abs(m[:, 0, 1]) + np.abs(m[:, 1, 0])
    return 1.0 - (tr_mm + best_tr ** 2) / 6.0

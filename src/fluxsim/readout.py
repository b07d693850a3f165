"""Langevin-equation readout dynamics.

Single-mode cavity driven by a coherent tone, qubit-state-dependent
dispersive shift chi (possibly time dependent through a flux ramp),
input-output boundary condition, demodulated measurement signal, SNR,
and assignment error.

chi(t), kappa and epsilon are real, so the sigma_z = -1 output field is the
exact conjugate of the sigma_z = +1 one: their separation is purely
imaginary, the contrast-maximising quadrature is exactly -pi/2, and
M_S,1 = -M_S,0. A record is the sigma_z = +1 trajectory alone, with
M_S = -2 sqrt(kappa eta) integral Im alpha_out dt and SNR = 2 |M_S| /
sqrt(2 kappa tau) (Blais et al., Rev. Mod. Phys. 93, 025005 (2021), sec. V).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import special, units
from .errors import (DomainError, NumericalFailureError, StepSizeError,
                     require_finite)


@dataclass(frozen=True)
class ReadoutConfig:
    """Drive / integration settings. kappa is angular (rad/ns)."""

    n_bar: float = 10.0
    eta: float = 1.0
    kappa: float = units.mhz(5.0)
    t_max: float = 1000.0
    dt: float = 0.05

    def __post_init__(self):
        require_finite(self, "n_bar", "kappa", "t_max", "dt")
        if self.n_bar < 0:
            raise ValueError(f"n_bar must be >= 0, got {self.n_bar}")
        if not 0.0 < self.eta <= 1.0:
            raise ValueError(f"eta must be in (0, 1], got {self.eta}")
        if self.kappa <= 0:
            raise ValueError(f"kappa must be positive, got {self.kappa}")
        if self.dt <= 0 or self.t_max < self.dt:
            raise ValueError(f"need dt > 0 and t_max >= dt, got dt={self.dt}, t_max={self.t_max}")


@dataclass(frozen=True)
class FluxRamp:
    """Linear flux ramp from f_start to f_end over t_rise ns, then constant."""

    f_start: float
    f_end: float
    t_rise: float

    def __post_init__(self):
        require_finite(self, "f_start", "f_end", "t_rise")
        if self.t_rise < 0:
            raise ValueError(f"t_rise must be >= 0, got {self.t_rise}")

    def flux_at(self, t):
        """Reduced flux at the times t."""
        t = np.asarray(t, dtype=float)
        if self.t_rise == 0.0:
            return np.where(t > 0, self.f_end, self.f_start)
        frac = np.clip(t / self.t_rise, 0.0, 1.0)
        return self.f_start + (self.f_end - self.f_start) * frac

    def held_from(self, t):
        """Index of the first of the increasing times t from which flux_at
        is constant: the first t >= t_rise, where t / t_rise clips to 1
        (the first t > 0 for a step)."""
        side = "right" if self.t_rise == 0.0 else "left"
        return int(np.searchsorted(t, self.t_rise, side=side))

    def shifted(self, delta):
        return FluxRamp(self.f_start + delta, self.f_end + delta, self.t_rise)


@dataclass(frozen=True)
class ChiProfile:
    """Dispersive shift tabulated on a strictly increasing flux grid.

    Interpolation is linear; values are clamped to +-clamp on evaluation.
    """

    flux_grid: np.ndarray
    chi_values: np.ndarray
    clamp: float = units.mhz(50.0)

    def __post_init__(self):
        grid = np.asarray(self.flux_grid, dtype=float)
        vals = np.asarray(self.chi_values, dtype=float)
        if grid.ndim != 1 or grid.size != vals.size:
            raise ValueError("flux grid and chi values must be 1-D and equal length")
        if not np.all(np.diff(grid) > 0):
            raise ValueError("flux grid must be strictly increasing")
        if not self.clamp > 0:
            raise ValueError(f"clamp must be positive, got {self.clamp}")
        object.__setattr__(self, "flux_grid", grid)
        object.__setattr__(self, "chi_values", vals)

    def chi_at(self, f):
        """Clamped, linearly interpolated chi at fluxes f; DomainError off-grid."""
        f = np.asarray(f, dtype=float)
        lo, hi = self.flux_grid[0], self.flux_grid[-1]
        if np.any(f < lo) or np.any(f > hi):
            raise DomainError(
                f"flux {f} outside chi profile domain [{lo}, {hi}]"
            )
        return np.clip(np.interp(f, self.flux_grid, self.chi_values),
                       -self.clamp, self.clamp)


def drive_amplitude(n_bar, kappa, chi):
    """Input drive amplitude targeting a steady-state mean photon number:
    epsilon = sqrt(n_bar (kappa^2/4 + chi^2))."""
    if n_bar < 0:
        raise ValueError(f"n_bar must be >= 0, got {n_bar}")
    return math.sqrt(n_bar * (kappa * kappa / 4.0 + chi * chi))


def time_grid(t_max, dt):
    """Uniform grid 0..t_max inclusive with step dt (t_max rounded to a
    whole number of steps)."""
    n = int(round(t_max / dt))
    return np.linspace(0.0, n * dt, n + 1)


# RK4 steps whose affine coefficients are built and scanned at once; bounds
# the temporaries at (_STEP_BLOCK x rows) whatever the trajectory length.
_STEP_BLOCK = 256


def _block_scan(chi_block, kappa, epsilon, dt, steps):
    """(C, cumsum(Q / C)) over the rows of a block of RK4 steps, C the
    prefix products of P (see integrate_langevin), from chi_block, chi on
    the steps' half grid, (rows, 2 steps + 1). Three samples, one step's,
    stand for a block whose chi is held: that step's P and Q are broadcast
    to every step, with the bits each step's own would have, since the
    stage algebra is elementwise."""
    h, hh = dt, 0.5 * dt
    a = np.empty(chi_block.shape[::-1], dtype=complex)
    a.real = -0.5 * kappa
    a.imag = -chi_block.T
    a1, a2, a4 = a[0:-1:2], a[1::2], a[2::2]
    p2 = a2 * (1.0 + hh * a1)
    q2 = 1.0 + hh * a2
    p3 = a2 * (1.0 + hh * p2)
    q3 = 1.0 + hh * a2 * q2
    p4 = a4 * (1.0 + h * p3)
    q4 = 1.0 + h * a4 * q3
    step_p = 1.0 + (h / 6.0) * (a1 + 2.0 * p2 + 2.0 * p3 + p4)
    step_q = (h / 6.0) * (1.0 + 2.0 * q2 + 2.0 * q3 + q4) * epsilon
    c = np.cumprod(np.broadcast_to(step_p, (steps, a.shape[1])), axis=0)
    return c, np.cumsum(step_q / c, axis=0)


def integrate_langevin(chi_half, kappa, epsilon, dt):
    """RK4 integration of alpha' = (-i chi(t) - kappa/2) alpha + epsilon from
    alpha(0) = 0 (the forcing is -sqrt(kappa) alpha_in with
    alpha_in = -epsilon/sqrt(kappa)) for every row of chi_half at once.

    chi_half is (rows, 2n + 1): chi of each trajectory on the half grid
    t_0, t_0 + dt/2, t_1, ...; epsilon is (rows,). A sigma_z = -1 row is
    the negated chi row, or the complex conjugate. The ODE is linear, so
    RK4 stage j of step s is k_j = p_j alpha + q_j epsilon (p_1 = a_1,
    q_1 = 1, a = -i chi - kappa/2 on the step's half grid) and the step is
    exactly the affine map alpha <- P_s alpha + Q_s with
    P_s = 1 + (dt/6)(p_1 + 2 p_2 + 2 p_3 + p_4) and
    Q_s = (dt/6)(q_1 + 2 q_2 + 2 q_3 + q_4) epsilon.

    A chain of affine maps is a prefix scan (Blelloch, "Prefix Sums and
    Their Applications", 1990): with C_s = P_lo+1 ... P_s,
    alpha_s = C_s (alpha_lo + sum_{lo < j <= s} Q_j / C_j). P and Q are
    built for _STEP_BLOCK steps at a time and each block is one cumprod and
    one cumsum over all rows. A block in which every row's chi is held
    builds them from its first step alone, with the same bits, and reuses
    the scan of a held block of its length just before it. This rounds
    differently from stepping alpha <- P alpha + Q one step at a time:
    against that loop (t_max up to 5 us, dt = 0.05 ns) alpha_out moves by
    at most 9.2e-14, SNR by 1.3e-13 of its peak and the error by 1.5e-14.

    The scan divides by C_s, so the step must keep P_s away from 0. For
    dt |kappa/2 + i chi| <= 1 on the half grid, 0.375 <= |P_s| < 1.31
    (<= 1 for constant chi), so a block's C_s stays within [9e-110, 7e29];
    beyond it lie the roots of the RK4 stability polynomial, where P_s = 0,
    so a larger step raises StepSizeError before integrating.

    Returns alpha time-major, (n + 1, rows).
    """
    epsilon = np.asarray(epsilon, dtype=float)
    # max and min, not max(abs): no temporary the size of chi_half
    chi_max = max(np.max(chi_half), -np.min(chi_half))
    reach = dt * math.hypot(0.5 * kappa, chi_max)
    if reach > 1.0:
        raise StepSizeError(
            f"Langevin step dt={dt} ns gives dt*max|kappa/2 + i chi| = "
            f"{reach:.3g} > 1; reduce the step size",
            dt=dt,
        )
    n = (chi_half.shape[1] - 1) // 2
    alpha = np.empty((n + 1, chi_half.shape[0]), dtype=complex)
    alpha[0] = 0.0
    scan = (False, None, None)  # (held, C, cumsum(Q / C)) of the last block
    for lo in range(0, n, _STEP_BLOCK):
        hi = min(lo + _STEP_BLOCK, n)
        block = chi_half[:, 2 * lo:2 * hi + 1]
        # where every row's chi is held, the block repeats one step's map;
        # consecutive blocks share an edge sample, so a held block after a
        # held block of its length repeats that block's whole scan
        held = bool(np.all(block == block[:, :1]))
        if not (held and scan[0] and len(scan[1]) == hi - lo):
            scan = (held, *_block_scan(block[:, :3] if held else block,
                                       kappa, epsilon, dt, hi - lo))
        alpha[lo + 1:hi + 1] = scan[1] * (alpha[lo] + scan[2])
    if not np.all(np.isfinite(alpha.view(float))):
        raise NumericalFailureError(
            "non-finite value during Langevin integration",
            kappa=kappa, dt=dt,
        )
    return alpha


def output_field(alpha, kappa, epsilon):
    """Input-output boundary condition alpha_out = alpha_in + sqrt(kappa) alpha."""
    alpha_in = -epsilon / math.sqrt(kappa)
    return alpha_in + math.sqrt(kappa) * np.asarray(alpha)


def measurement_signal(alpha_out, eta, times, kappa):
    """Accumulated measurement signal of one trajectory on the -pi/2
    quadrature: M_S(tau) = sqrt(kappa eta) integral_0^tau -2 Im alpha_out dt
    (trapezoidal accumulation, M_S(0) = 0)."""
    integrand = -2.0 * np.asarray(alpha_out).imag
    dt = np.diff(np.asarray(times, dtype=float))
    cum = np.cumsum(0.5 * dt * (integrand[:-1] + integrand[1:]))
    return math.sqrt(kappa * eta) * np.concatenate(([0.0], cum))


def optimal_demod_phase(alpha_out_0, alpha_out_1, times):
    """Quadrature angle maximizing the final-time signal contrast
    |Re(e^{-i theta} z)|, z = integral (alpha_out_0 - alpha_out_1) dt: the
    angle of z, folded by pi into (-pi, 0]. Every angle is optimal when
    z = 0; -pi/2 is returned there too."""
    d = np.asarray(alpha_out_0) - np.asarray(alpha_out_1)
    t = np.asarray(times, dtype=float)
    z = complex(np.sum(0.5 * np.diff(t) * (d[:-1] + d[1:])))
    if z == 0:
        return -0.5 * math.pi
    theta = math.atan2(z.imag, z.real)  # (-pi, pi], or -pi for z.imag = -0.0
    return theta - math.pi * math.ceil(theta / math.pi)


def snr_curve(m_s, kappa, times):
    """SNR(tau) = 2 |M_S| / sqrt(2 kappa tau) (M_S,1 = -M_S), SNR(0) = 0."""
    t = np.asarray(times, dtype=float)
    sig = 2.0 * np.abs(np.asarray(m_s))
    snr = np.zeros_like(t)
    pos = t > 0
    snr[pos] = sig[pos] / np.sqrt(2.0 * kappa * t[pos])
    return snr


def readout_error(snr):
    """Assignment error = (1/2) erfc(SNR / 2)."""
    return 0.5 * special.erfc(0.5 * np.asarray(snr, dtype=float))


@dataclass(frozen=True)
class ReadoutTrajectory:
    """Readout record of the sigma_z = +1 trajectory on one grid."""

    times: np.ndarray
    alpha_plus: np.ndarray
    alpha_out_plus: np.ndarray
    m_s_plus: np.ndarray
    snr: np.ndarray
    error: np.ndarray
    epsilon: float


def _record(times, alpha_plus, epsilon, cfg: ReadoutConfig) -> ReadoutTrajectory:
    """Readout record of one sigma_z = +1 trajectory (see the module
    docstring). The CLI writes the sigma_z = -1 columns as its mirror, the
    conjugate field and -M_S. Against demodulating both trajectories at
    e^{i pi/2} = 6.1e-17 + 1j, m_s, SNR and the error move by at most
    6.8e-16 of their column's peak, and the fields not at all."""
    out = output_field(alpha_plus, cfg.kappa, epsilon)
    m_s = measurement_signal(out, cfg.eta, times, cfg.kappa)
    snr = snr_curve(m_s, cfg.kappa, times)
    return ReadoutTrajectory(times, alpha_plus, out, m_s, snr,
                             readout_error(snr), epsilon)


def ramp_inside(ramp: FluxRamp, profile: ChiProfile) -> bool:
    """Whether the whole flux range of the ramp lies on the profile's grid."""
    return (profile.flux_grid[0] <= min(ramp.f_start, ramp.f_end)
            and max(ramp.f_start, ramp.f_end) <= profile.flux_grid[-1])


def ramp_rows(ramps, profile: ChiProfile, cfg: ReadoutConfig):
    """The readout rows of flux ramps, for readout_records: chi on the half
    grid of time_grid(cfg.t_max, cfg.dt) and the array of drive targets
    chi(f_end), all mapped through the profile in one chi_at call. A ramp
    held at f_start is static readout at chi(f_start). Raises DomainError
    if a ramp leaves the profile's domain.

    A row is mapped only up to the first point of its plateau
    (FluxRamp.held_from); the rest of the plateau takes that point's chi,
    the bits chi_at gives each of those equal fluxes."""
    for ramp in ramps:
        if not ramp_inside(ramp, profile):
            raise DomainError(
                f"ramp flux range [{min(ramp.f_start, ramp.f_end)}, "
                f"{max(ramp.f_start, ramp.f_end)}] outside chi profile domain "
                f"[{profile.flux_grid[0]}, {profile.flux_grid[-1]}]"
            )
    times = time_grid(cfg.t_max, cfg.dt)
    t_half = np.linspace(times[0], times[-1], 2 * times.size - 1)
    flux = [ramp.flux_at(t_half[:ramp.held_from(t_half) + 1])
            for ramp in ramps] + [[ramp.f_end for ramp in ramps]]
    chi = np.split(profile.chi_at(np.concatenate(flux)),
                   np.cumsum([len(part) for part in flux])[:-1])
    chi_half = np.empty((len(ramps), t_half.size))
    for row, part in zip(chi_half, chi):
        row[:part.size] = part
        row[part.size:] = part[-1]
    return chi_half, chi[-1]  # the drive targets, after every row's fluxes


def readout_records(chi_half, chi_targets, cfg: ReadoutConfig):
    """Readout record of each row of chi_half (chi on the half grid of
    time_grid(cfg.t_max, cfg.dt)) with the drive calibrated to its
    chi_target, yielded in order. All rows are integrated in one call, and
    a row's bits do not depend on the other rows."""
    times = time_grid(cfg.t_max, cfg.dt)
    epsilon = np.array([drive_amplitude(cfg.n_bar, cfg.kappa, chi)
                        for chi in chi_targets])
    alpha = integrate_langevin(chi_half, cfg.kappa, epsilon, times[1] - times[0])
    for alpha_p, eps in zip(np.ascontiguousarray(alpha.T), epsilon):
        yield _record(times, alpha_p, float(eps), cfg)


def run_readout(chi_half, chi_target, cfg: ReadoutConfig) -> ReadoutTrajectory:
    """Readout record of one row of chi on the half grid: the one-row case
    of readout_records."""
    (traj,) = readout_records(np.asarray(chi_half, float)[None, :],
                              [chi_target], cfg)
    return traj

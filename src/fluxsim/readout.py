"""Langevin-equation readout dynamics.

Single-mode cavity driven by a coherent tone, qubit-state-dependent
dispersive shift chi (possibly time dependent through a flux ramp),
input-output boundary condition, demodulated measurement signal, SNR,
and assignment error.

The demodulation quadrature is the closed-form maximiser of the pointer-state
contrast, the angle of the integrated output-field separation. chi(t),
kappa and epsilon are real, so the sigma_z = -1 output field is the exact
conjugate of the sigma_z = +1 one, the separation is purely imaginary, and
the quadrature is exactly -pi/2 for every trajectory simulated here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import special, units
from .errors import DomainError, NumericalFailureError


@dataclass(frozen=True)
class ReadoutConfig:
    """Drive / integration settings. kappa is angular (rad/ns)."""

    n_bar: float = 10.0
    eta: float = 1.0
    kappa: float = units.mhz(5.0)
    t_max: float = 1000.0
    dt: float = 0.05

    def __post_init__(self):
        for name in ("n_bar", "kappa", "t_max", "dt"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
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
        for name in ("f_start", "f_end", "t_rise"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.t_rise < 0:
            raise ValueError(f"t_rise must be >= 0, got {self.t_rise}")

    def flux_at(self, t):
        """Reduced flux at time t (array-friendly)."""
        t = np.asarray(t, dtype=float)
        if self.t_rise == 0.0:
            return np.where(t > 0, self.f_end, self.f_start) if t.ndim else \
                (self.f_end if t > 0 else self.f_start)
        frac = np.clip(t / self.t_rise, 0.0, 1.0)
        return self.f_start + (self.f_end - self.f_start) * frac

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
        """Clamped, linearly interpolated chi(f). Raises DomainError off-grid."""
        f_arr = np.asarray(f, dtype=float)
        lo, hi = self.flux_grid[0], self.flux_grid[-1]
        if np.any(f_arr < lo) or np.any(f_arr > hi):
            raise DomainError(
                f"flux {f} outside chi profile domain [{lo}, {hi}]"
            )
        out = np.interp(f_arr, self.flux_grid, self.chi_values)
        out = np.clip(out, -self.clamp, self.clamp)
        return float(out) if np.isscalar(f) or f_arr.ndim == 0 else out


def qubit_phase_shift(chi, kappa):
    """Output-field phase shift phi_qb = 2 arctan(2 chi / kappa)."""
    if kappa <= 0:
        raise ValueError(f"kappa must be positive, got {kappa}")
    return 2.0 * math.atan(2.0 * chi / kappa)


def drive_amplitude(n_bar, kappa, chi):
    """Input drive amplitude targeting a steady-state mean photon number:
    epsilon = sqrt(n_bar (kappa^2/4 + chi^2))."""
    if n_bar < 0:
        raise ValueError(f"n_bar must be >= 0, got {n_bar}")
    return math.sqrt(n_bar * (kappa * kappa / 4.0 + chi * chi))


def static_output_field(chi, kappa, epsilon, sigma_z, tau):
    """Closed-form output field for constant chi with the cavity starting
    empty. Equals alpha_in at tau = 0 and the steady-state output
    (epsilon/sqrt(kappa)) e^{-i phi_qb sigma_z} as tau -> infinity."""
    if tau < 0:
        raise ValueError(f"tau must be >= 0, got {tau}")
    phi = qubit_phase_shift(chi, kappa)
    sz = float(sigma_z)
    pref = (epsilon / math.sqrt(kappa)) * np.exp(-1j * phi * sz)
    decay = np.exp((-1j * chi * sz - 0.5 * kappa) * tau + 0.5j * phi * sz)
    return complex(pref * (1.0 - 2.0 * math.cos(0.5 * phi) * decay))


def time_grid(t_max, dt):
    """Uniform grid 0..t_max inclusive with step dt (t_max rounded to a
    whole number of steps)."""
    n = int(round(t_max / dt))
    return np.linspace(0.0, n * dt, n + 1)


# RK4 steps whose affine coefficients are built at once; bounds the
# temporaries at (_STEP_BLOCK x rows) whatever the trajectory length.
_STEP_BLOCK = 256


def _langevin_rows(chi_half, kappa, epsilon, dt):
    """RK4 integration of alpha' = (-i chi(t) - kappa/2) alpha + epsilon from
    alpha(0) = 0 for every row of chi_half at once.

    chi_half is (rows, 2n + 1): chi of each trajectory on the half grid
    t_0, t_0 + dt/2, t_1, ...; epsilon is (rows,). The ODE is linear, so
    RK4 stage j of step s is k_j = p_j alpha + q_j epsilon (p_1 = a_1,
    q_1 = 1, a = -i chi - kappa/2 on the step's half grid) and the step is
    exactly the affine map alpha <- P_s alpha + Q_s with
    P_s = 1 + (dt/6)(p_1 + 2 p_2 + 2 p_3 + p_4) and
    Q_s = (dt/6)(q_1 + 2 q_2 + 2 q_3 + q_4) epsilon. P and Q are built for
    _STEP_BLOCK steps at a time; the time loop advances all rows as one
    vector. Returns alpha, (rows, n + 1).
    """
    epsilon = np.asarray(epsilon, dtype=float)
    n = (chi_half.shape[1] - 1) // 2
    h, hh = dt, 0.5 * dt
    alpha = np.empty((n + 1, chi_half.shape[0]), dtype=complex)
    alpha[0] = 0.0
    y = alpha[0]
    for lo in range(0, n, _STEP_BLOCK):
        hi = min(lo + _STEP_BLOCK, n)
        a = np.empty((2 * (hi - lo) + 1, chi_half.shape[0]), dtype=complex)
        a.real = -0.5 * kappa
        a.imag = -chi_half[:, 2 * lo:2 * hi + 1].T
        a1, a2, a4 = a[0:-1:2], a[1::2], a[2::2]
        p2 = a2 * (1.0 + hh * a1)
        q2 = 1.0 + hh * a2
        p3 = a2 * (1.0 + hh * p2)
        q3 = 1.0 + hh * a2 * q2
        p4 = a4 * (1.0 + h * p3)
        q4 = 1.0 + h * a4 * q3
        step_p = 1.0 + (h / 6.0) * (a1 + 2.0 * p2 + 2.0 * p3 + p4)
        step_q = (h / 6.0) * (1.0 + 2.0 * q2 + 2.0 * q3 + q4) * epsilon
        for s, (p, q) in enumerate(zip(step_p, step_q), lo + 1):
            y = p * y + q
            alpha[s] = y
    if not np.all(np.isfinite(alpha.view(float))):
        raise NumericalFailureError(
            "non-finite value during Langevin integration",
            kappa=kappa, dt=dt,
        )
    return np.ascontiguousarray(alpha.T)


def _chi_half(chi_of_t, times):
    """chi(t) on the half grid t_0, t_0 + dt/2, t_1, ... of a uniform grid."""
    t_half = np.linspace(times[0], times[-1], 2 * (times.size - 1) + 1)
    return np.asarray(chi_of_t(t_half), dtype=float)


def integrate_langevin(chi_of_t, kappa, epsilon, sigma_z, times):
    """RK4 integration of alpha' = -i chi(t) sz alpha - kappa/2 alpha + epsilon
    from alpha(0) = 0 (the forcing is -sqrt(kappa) alpha_in with
    alpha_in = -epsilon/sqrt(kappa)).

    Returns the intracavity amplitude alpha(t) on the given uniform grid.
    """
    times = np.asarray(times, dtype=float)
    chi_half = _chi_half(chi_of_t, times) * float(sigma_z)
    return _langevin_rows(chi_half[None, :], kappa, [float(epsilon)],
                          times[1] - times[0])[0]


def output_field(alpha, kappa, epsilon):
    """Input-output boundary condition alpha_out = alpha_in + sqrt(kappa) alpha."""
    alpha_in = -epsilon / math.sqrt(kappa)
    return alpha_in + math.sqrt(kappa) * np.asarray(alpha)


def flux_ramp_profile(ramp: FluxRamp, profile: ChiProfile):
    """chi(t) callable: linear flux ramp mapped through the chi profile."""
    lo, hi = profile.flux_grid[0], profile.flux_grid[-1]
    f_min = min(ramp.f_start, ramp.f_end)
    f_max = max(ramp.f_start, ramp.f_end)
    if f_min < lo or f_max > hi:
        raise DomainError(
            f"ramp flux range [{f_min}, {f_max}] outside chi profile domain [{lo}, {hi}]"
        )

    def chi_of_t(t):
        return profile.chi_at(ramp.flux_at(t))

    return chi_of_t


def measurement_signal(alpha_out_0, alpha_out_1, eta, theta, times, kappa):
    """Accumulated measurement signal per qubit state:
    M_S(tau) = sqrt(kappa eta) * integral_0^tau 2 Re[e^{-i theta} alpha_out] dt
    (trapezoidal accumulation, M_S(0) = 0)."""
    rot = np.exp(-1j * theta)
    pref = math.sqrt(kappa * eta)
    out = []
    for traj in (alpha_out_0, alpha_out_1):
        integrand = 2.0 * np.real(rot * np.asarray(traj))
        dt = np.diff(np.asarray(times, dtype=float))
        cum = np.concatenate(([0.0], np.cumsum(0.5 * dt * (integrand[:-1] + integrand[1:]))))
        out.append(pref * cum)
    return out[0], out[1]


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


def snr_curve(m_s_0, m_s_1, kappa, times):
    """SNR(tau) = |M_S,0 - M_S,1| / sqrt(2 kappa tau), with SNR(0) = 0."""
    t = np.asarray(times, dtype=float)
    sig = np.abs(np.asarray(m_s_0) - np.asarray(m_s_1))
    snr = np.zeros_like(t)
    pos = t > 0
    snr[pos] = sig[pos] / np.sqrt(2.0 * kappa * t[pos])
    return snr


def readout_error(snr):
    """Assignment error = (1/2) erfc(SNR / 2)."""
    out = 0.5 * special.erfc(0.5 * np.asarray(snr, dtype=float))
    return float(out) if np.isscalar(snr) else out


@dataclass(frozen=True)
class ReadoutTrajectory:
    """Full readout record: fields, signals, SNR, and error on one grid."""

    times: np.ndarray
    alpha_plus: np.ndarray
    alpha_minus: np.ndarray
    alpha_out_plus: np.ndarray
    alpha_out_minus: np.ndarray
    m_s_plus: np.ndarray
    m_s_minus: np.ndarray
    snr: np.ndarray
    error: np.ndarray
    theta: float
    epsilon: float

    def at_time(self, tau):
        """(snr, error) at the grid point closest to tau."""
        i = int(np.argmin(np.abs(self.times - tau)))
        return float(self.snr[i]), float(self.error[i])


def _record(times, alpha_plus, epsilon, cfg: ReadoutConfig) -> ReadoutTrajectory:
    """Readout record of one sigma_z = +1 trajectory.

    chi(t), kappa and epsilon are real, so the sigma_z = -1 field is the
    complex conjugate of the sigma_z = +1 one.
    """
    alpha_minus = alpha_plus.conj()
    out_p = output_field(alpha_plus, cfg.kappa, epsilon)
    out_m = output_field(alpha_minus, cfg.kappa, epsilon)
    theta = optimal_demod_phase(out_p, out_m, times)
    m_p, m_m = measurement_signal(out_p, out_m, cfg.eta, theta, times, cfg.kappa)
    snr = snr_curve(m_p, m_m, cfg.kappa, times)
    return ReadoutTrajectory(times, alpha_plus, alpha_minus, out_p, out_m,
                             m_p, m_m, snr, readout_error(snr), theta, epsilon)


def run_readout(chi_of_t, chi_target, cfg: ReadoutConfig) -> ReadoutTrajectory:
    """Simulate both qubit states for one drive configuration.

    chi_target is the dispersive shift used to calibrate the drive amplitude
    (the plateau value for ramped readout, the static value otherwise).
    """
    times = time_grid(cfg.t_max, cfg.dt)
    epsilon = drive_amplitude(cfg.n_bar, cfg.kappa, chi_target)
    alpha_p = integrate_langevin(chi_of_t, cfg.kappa, epsilon, +1, times)
    return _record(times, alpha_p, epsilon, cfg)


def readout_snr_rows(chi_fns, chi_targets, cfg: ReadoutConfig):
    """(snr, error) curves, one row per (chi_of_t, chi_target) pair.

    Every trajectory is integrated in one call and only its SNR and error
    are kept; each row equals run_readout's on the same pair bit for bit.
    """
    times = time_grid(cfg.t_max, cfg.dt)
    epsilon = np.array([drive_amplitude(cfg.n_bar, cfg.kappa, chi)
                        for chi in chi_targets])
    chi_half = np.array([_chi_half(fn, times) for fn in chi_fns])
    alpha = _langevin_rows(chi_half, cfg.kappa, epsilon, times[1] - times[0])
    snr = np.empty(alpha.shape)
    error = np.empty(alpha.shape)
    for k, (alpha_p, eps) in enumerate(zip(alpha, epsilon)):
        traj = _record(times, alpha_p, eps, cfg)
        snr[k], error[k] = traj.snr, traj.error
    return snr, error


def run_static_readout(chi, cfg: ReadoutConfig) -> ReadoutTrajectory:
    """Constant-chi readout (no flux ramp)."""
    return run_readout(lambda t: np.full_like(np.asarray(t, dtype=float), chi),
                       chi, cfg)


def run_ramped_readout(ramp: FluxRamp, profile: ChiProfile,
                       cfg: ReadoutConfig) -> ReadoutTrajectory:
    """Flux-pulse-assisted readout: chi follows the ramp through the profile;
    the drive targets n_bar at the ramp's end-point chi."""
    chi_of_t = flux_ramp_profile(ramp, profile)
    chi_target = profile.chi_at(ramp.f_end)
    return run_readout(chi_of_t, chi_target, cfg)

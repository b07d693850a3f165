"""Quasi-static flux-noise Monte Carlo.

Each draw applies one constant reduced-flux offset delta = scale * x (x
standard normal) to the whole flux trajectory of a readout sequence, or to
the bias point of already-optimized gates, one gate space per draw, and
the per-draw curves are averaged in draw-index order.

The PRNG is pinned: a Philox counter-based generator keyed per draw index
from the master seed, with an explicit Box-Muller transform, so the offset
sequences are bitwise reproducible across platforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .coupled import DEFAULT_MODE, CoupledDims, CouplingMode, ResonatorParams
from .errors import DomainError, ResonanceRegionError
from .gates import (DEFAULT_GATE_DT, GATE_DIMS, GateResult, build_gate_space,
                    evaluate_gate)
from .qubit import EnergyParams, FluxBias, anharmonicity, fluxonium_spectrum
from .readout import (ChiProfile, FluxRamp, ReadoutConfig, ramp_inside,
                      ramp_rows, readout_records, time_grid)


@dataclass(frozen=True)
class NoiseSpec:
    """Gaussian quasi-static flux-noise model: offset scale in reduced flux,
    draw count, and the 64-bit master seed."""

    scale: float
    n_draws: int = 50
    seed: int = 1234

    def __post_init__(self):
        if not (math.isfinite(self.scale) and self.scale >= 0.0):
            raise ValueError(f"scale must be finite and >= 0, got {self.scale}")
        if self.n_draws < 1:
            raise ValueError(f"n_draws must be >= 1, got {self.n_draws}")
        if not (0 <= self.seed < 1 << 64):
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed}")


def standard_normal_draw(seed, index):
    """One standard-normal variate from a Philox stream keyed by
    (seed, draw index), via Box-Muller on two uniforms.

    log1p(-u1) keeps precision for u1 near 0 and avoids log(0) since the
    generator draws u from [0, 1).
    """
    gen = np.random.Generator(np.random.Philox(key=(int(seed) << 64) + int(index)))
    u1, u2 = gen.random(2)
    return math.sqrt(-2.0 * math.log1p(-u1)) * math.cos(2.0 * math.pi * u2)


def sample_flux_offsets(spec: NoiseSpec) -> np.ndarray:
    """Reduced-flux offsets delta_k = scale * x_k, reproducible from the seed.

    Draw k depends only on (seed, k), so any subset of draws can be
    regenerated on its own.
    """
    return np.array([spec.scale * standard_normal_draw(spec.seed, k)
                     for k in range(spec.n_draws)])


@dataclass(frozen=True)
class McCurve:
    """Monte Carlo aggregate of per-draw curves on a common axis.

    mean is the draw-index-ordered average over included draws; stderr the
    pointwise standard error (ddof=1, zero for a single draw). Excluded
    draws are counted, never silently dropped: n_effective + n_excluded
    equals the requested draw count.
    """

    axis: np.ndarray
    draws: np.ndarray
    included: np.ndarray
    mean: np.ndarray
    stderr: np.ndarray
    n_effective: int
    n_excluded: int
    scale: float
    seed: int


def _sum_in_draw_order(rows):
    """Sum over axis 0 in draw-index order from +0.0, one draw at a time;
    np.sum pairs terms up over a single column."""
    total = np.zeros(rows.shape[1:])
    for row in rows:
        total += row
    return total


def aggregate_curves(axis, draws, included, scale, seed) -> McCurve:
    """Draw-index-ordered reduction of per-draw curves into an McCurve."""
    axis = np.asarray(axis, dtype=float)
    draws = np.asarray(draws, dtype=float)
    included = np.asarray(included, dtype=bool)
    n_eff = int(np.count_nonzero(included))
    if n_eff == 0:
        raise DomainError("every Monte Carlo draw was excluded; "
                          "widen the chi profile or reduce the noise scale")
    rows = draws[included]
    mean = _sum_in_draw_order(rows) / n_eff
    if n_eff > 1:
        sq = _sum_in_draw_order((rows - mean) ** 2)
        stderr = np.sqrt(sq / (n_eff - 1)) / math.sqrt(n_eff)
    else:
        stderr = np.zeros_like(axis)
    return McCurve(axis, draws, included, mean, stderr,
                   n_eff, int(included.size - n_eff), scale, seed)


@dataclass(frozen=True)
class NoisyReadoutResult:
    """SNR(tau) and assignment-error(tau) Monte Carlo aggregates."""

    snr: McCurve
    error: McCurve


def readout_draw(delta, ramp: FluxRamp, profile: ChiProfile, cfg: ReadoutConfig):
    """One noisy readout draw: the whole flux trajectory is shifted by delta
    and the drive amplitude is recalibrated to the shifted plateau chi (the
    drive calibration tracks the biased operating point, as a tune-up run
    under the same quasi-static offset would).

    Returns (snr_curve, error_curve, included); a draw whose shifted
    trajectory leaves the chi-profile domain is flagged as excluded.
    """
    snr, error, included = _readout_draws([delta], ramp, profile, cfg)
    return snr[0], error[0], bool(included[0])


def _readout_draws(deltas, ramp: FluxRamp, profile: ChiProfile,
                   cfg: ReadoutConfig):
    """(snr rows, error rows, included) of readout_draw at each offset.

    An offset whose shifted ramp leaves the chi-profile domain is excluded
    with zero rows; all included draws go through the readout in one batch.
    """
    n_t = time_grid(cfg.t_max, cfg.dt).size
    snr = np.zeros((len(deltas), n_t))
    error = np.zeros((len(deltas), n_t))
    shifted = [ramp.shifted(delta) for delta in deltas]
    included = np.array([ramp_inside(r, profile) for r in shifted], dtype=bool)
    if included.any():
        rows = ramp_rows([r for r, ok in zip(shifted, included) if ok],
                         profile, cfg)
        for k, traj in zip(np.flatnonzero(included),
                           readout_records(*rows, cfg)):
            snr[k], error[k] = traj.snr, traj.error
    return snr, error, included


def noisy_readout_snr(ramp: FluxRamp, profile: ChiProfile, cfg: ReadoutConfig,
                      spec: NoiseSpec) -> NoisyReadoutResult:
    """Monte Carlo over flux offsets applied to flux-pulse-assisted readout.

    The draws are integrated as one batch; the reduction is draw-index
    ordered.
    """
    snr, error, included = _readout_draws(sample_flux_offsets(spec), ramp,
                                          profile, cfg)
    axis = time_grid(cfg.t_max, cfg.dt)
    return NoisyReadoutResult(
        snr=aggregate_curves(axis, snr, included, spec.scale, spec.seed),
        error=aggregate_curves(axis, error, included, spec.scale, spec.seed),
    )


def gate_draw(delta, params: EnergyParams, res: ResonatorParams, pulses,
              anharm, base_flux=0.5, mode: CouplingMode = DEFAULT_MODE,
              dims: CoupledDims = GATE_DIMS,
              dt=DEFAULT_GATE_DT) -> list[GateResult]:
    """Evaluate fixed, pre-optimized pulses at the offset flux bias, all on
    the one gate space built there; one GateResult per pulse.

    The applied waveform (amplitude, DRAG weight, drive frequency) is frozen
    at its delta=0 optimum; only the static Hamiltonian moves with the
    offset. The DRAG quadrature keeps anharm, the anharmonicity of the
    unshifted bias, since a quasi-static offset is unknown when the pulse is
    shaped. Raises ResonanceRegionError (from build_gate_space) where the
    offset bias leaves the computational states unlabelled, before any pulse
    is evaluated.
    """
    space = replace(build_gate_space(params, FluxBias(base_flux + delta), res,
                                     mode, dims), anharm=anharm)
    return [evaluate_gate(space, pulse, dt) for pulse in pulses]


def noisy_gate_error(params: EnergyParams, res: ResonatorParams,
                     pulses, spec: NoiseSpec, base_flux=0.5,
                     mode: CouplingMode = DEFAULT_MODE,
                     dims: CoupledDims = GATE_DIMS,
                     dt=DEFAULT_GATE_DT) -> McCurve:
    """Mean gate error versus gate time under quasi-static flux offsets.

    pulses is a sequence of PulseParams pre-optimized at delta=0, one per
    gate time; the axis of the returned curve is their tau_g values. Draws
    run in draw-index order, one gate_draw (one gate space) each; a draw
    whose offset bias leaves the computational states unlabelled
    (gate_draw's ResonanceRegionError) is excluded with a zero row.
    """
    anharm = anharmonicity(
        fluxonium_spectrum(params, FluxBias(base_flux), dims.dim)[0])
    offsets = sample_flux_offsets(spec)
    draws = np.zeros((offsets.size, len(pulses)))
    included = np.ones(offsets.size, dtype=bool)
    for k, delta in enumerate(offsets):
        try:
            draws[k] = [result.error for result in gate_draw(
                delta, params, res, pulses, anharm, base_flux, mode, dims, dt)]
        except ResonanceRegionError:
            included[k] = False
    axis = np.array([p.tau_g for p in pulses])
    return aggregate_curves(axis, draws, included, spec.scale, spec.seed)

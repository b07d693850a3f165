"""Helpers shared by the test modules.

`perfbench/` is a directory of scripts, not a package, so its modules are
loaded by path. `reference` is `perfbench/reference.py`: plain-numpy models
that import nothing from fluxsim and work in GHz where the program works in
rad/ns. It is the independent model the tests compare the program against.

Readout records are built as `cli.cmd_readout` builds them, through
`ramp_rows` and `readout_records`; static readout is the zero-height ramp,
and a bare chi is a flat profile. The Jaynes-Cummings surrogate is built
from the same `coupled` calls a dressed sweep makes.
"""

import base64
import importlib.util
from pathlib import Path

import numpy as np

from fluxsim import qubit
from fluxsim.coupled import (
    CoupledDims,
    CouplingMode,
    DressedSweep,
    _dressed_levels,
    assemble_coupled,
)
from fluxsim.readout import ChiProfile, FluxRamp, ramp_rows, readout_records

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name):
    """A fresh module object for `perfbench/<name>.py`."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


reference = load_perfbench("reference")


def unfolded_spectrum_sweep(params, f_values, dim=qubit.DEFAULT_DIM):
    """The bare solve without the parity fold: H(f) itself at every point."""
    vals, vecs = np.linalg.eigh(qubit.fluxonium_hamiltonians(params, f_values, dim))
    return vals, qubit._fix_signs(vecs)


def readout_batch(ramps, profile, cfg):
    """The readout records of the ramps, integrated as one batch."""
    return list(readout_records(*ramp_rows(ramps, profile, cfg), cfg))


# static readout at f = 0.5: the ramp held at its start flux
STATIC = FluxRamp(0.5, 0.5, 0.0)


def flat_profile(chi):
    """A two-point profile that is chi over the flux period [0, 1], with a
    clamp above |chi|: every flux maps to chi itself."""
    return ChiProfile(np.array([0.0, 1.0]), np.full(2, chi), abs(chi) + 1.0)


def two_level_eigensystem(omega_q, res):
    """Jaynes-Cummings surrogate: a bare two-level qubit (energies 0,
    omega_q) coupled by g (sigma^- a^dag + sigma^+ a), the two-level
    ladder-RWA coupling, as a one-point sweep over all 2 n_res labels at
    the default resonator truncation."""
    n_res = CoupledDims.n_res
    bare = np.array([[0.0, omega_q]])
    h = assemble_coupled(bare, qubit.lowering_operator(2), res,
                         CouplingMode.LADDER_RWA, n_res)
    rows = np.arange(2 * n_res)
    return DressedSweep(tuple(divmod(int(row), n_res) for row in rows), bare,
                        *_dressed_levels(h, rows))


def _nearest(axis, value):
    return int(np.argmin(np.abs(axis - value)))


def at_time(traj, tau):
    """(snr, error) of a readout record at the grid point closest to tau."""
    i = _nearest(traj.times, tau)
    return float(traj.snr[i]), float(traj.error[i])


def at_axis(curve, value):
    """(mean, stderr) of a Monte Carlo curve at the axis point closest to
    value."""
    i = _nearest(curve.axis, value)
    return float(curve.mean[i]), float(curve.stderr[i])


def b64(values):
    """An array as a cache entry holds it: the base64 text of its
    little-endian float64 bytes."""
    return base64.b64encode(np.array(values, "<f8").tobytes()).decode("ascii")

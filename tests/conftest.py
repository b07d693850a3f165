"""Helpers shared by the test modules.

`perfbench/` is a directory of scripts, not a package, so its modules are
loaded by path. `reference` is `perfbench/reference.py`: plain-numpy models
that import nothing from fluxsim and work in GHz where the program works in
rad/ns. It is the independent model the tests compare the program against.
"""

import importlib.util
from pathlib import Path

import numpy as np

from fluxsim import qubit

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

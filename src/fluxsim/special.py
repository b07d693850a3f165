"""Shared numerics: the complementary error function and golden-section search.

erfc is scipy.special.erfc, re-exported so the readout error path looks it
up in one place.
"""

import math

from scipy.special import erfc  # noqa: F401  (re-exported)

from .errors import BracketingError

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def golden_section_minimize(f, a, b, xtol=1e-6, require_interior=False):
    """Minimize a unimodal scalar function on [a, b].

    Returns (x_min, f_min). With require_interior=True, raises BracketingError
    if the minimum sits at (within xtol of) a window edge, i.e. the window did
    not bracket an interior minimum.
    """
    if not b > a:
        raise BracketingError(f"empty search window [{a}, {b}]")
    lo, hi = a, b
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1, f2 = f(x1), f(x2)
    while hi - lo > xtol:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = f(x2)
    x_min, f_min = (x1, f1) if f1 <= f2 else (x2, f2)
    if require_interior and (x_min - a < 2 * xtol or b - x_min < 2 * xtol):
        raise BracketingError(
            f"minimum at {x_min} sits on the edge of [{a}, {b}]; no interior bracket"
        )
    return x_min, f_min

"""Tests for the special functions and the golden-section search."""

import math

import numpy as np
import pytest

from fluxsim.errors import BracketingError
from fluxsim.special import erfc, golden_section_minimize


def test_erfc_matches_stdlib_reference():
    xs = np.concatenate([
        np.linspace(-6.0, 6.0, 1201),
        np.linspace(6.0, 30.0, 97),
        [0.0, 1e-12, -1e-12, 1.9999999, 2.0, 2.0000001],
    ])
    got = erfc(xs)
    worst = max(abs(g - math.erfc(x)) for g, x in zip(got, xs))
    assert worst < 1e-12


def test_erfc_limits_and_symmetry():
    assert erfc(0.0) == pytest.approx(1.0, abs=1e-15)
    assert erfc(40.0) == 0.0
    assert erfc(-40.0) == pytest.approx(2.0, abs=1e-15)
    for x in (0.3, 1.7, 2.4, 5.0):
        assert erfc(-x) == pytest.approx(2.0 - erfc(x), abs=1e-14)


def test_erfc_monotone_decreasing():
    xs = np.linspace(-8.0, 8.0, 400)
    vals = [erfc(float(x)) for x in xs]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_golden_section_finds_parabola_minimum():
    x_min, f_min = golden_section_minimize(lambda x: (x - 0.3) ** 2 + 1.0,
                                           -1.0, 2.0, xtol=1e-9)
    assert x_min == pytest.approx(0.3, abs=1e-7)
    assert f_min == pytest.approx(1.0, abs=1e-12)


def test_golden_section_interior_requirement():
    with pytest.raises(BracketingError):
        golden_section_minimize(lambda x: x, 0.0, 1.0, require_interior=True)

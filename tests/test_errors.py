"""The one finite-field check of the parameter classes."""

import math
from dataclasses import replace

import pytest

from fluxsim.coupled import ResonatorParams
from fluxsim.gates import PulseParams
from fluxsim.readout import FluxRamp, ReadoutConfig

# a valid instance of each class and the fields it checks, in check order
CHECKED = (
    (ResonatorParams(44.0, 0.03, 0.3), ("omega_r", "kappa", "g")),
    (PulseParams(10.0, 0.1, 0.0, 1.0), ("tau_g", "eps_d", "lam", "omega_d")),
    (ReadoutConfig(), ("n_bar", "kappa", "t_max", "dt")),
    (FluxRamp(0.5, 0.6, 50.0), ("f_start", "f_end", "t_rise")),
)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("valid, field", [
    pytest.param(valid, field, id=f"{type(valid).__name__}.{field}")
    for valid, fields in CHECKED for field in fields])
def test_a_non_finite_field_is_named_with_its_value(valid, field, bad):
    with pytest.raises(ValueError) as info:
        replace(valid, **{field: bad})
    assert str(info.value) == f"{field} must be finite, got {bad}"


@pytest.mark.parametrize("valid, fields", CHECKED,
                         ids=[type(valid).__name__ for valid, _ in CHECKED])
def test_the_first_non_finite_field_is_the_one_named(valid, fields):
    with pytest.raises(ValueError) as info:
        replace(valid, **{field: math.nan for field in fields})
    assert str(info.value) == f"{fields[0]} must be finite, got nan"

"""The complementary error function of the readout error curve.

erfc is scipy.special.erfc, re-exported so the readout error path looks it
up in one place.
"""

from scipy.special import erfc  # noqa: F401  (re-exported)

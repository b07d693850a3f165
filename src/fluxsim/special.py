"""The complementary error function of the readout error curve.

erfc is scipy.special.erfc, imported on the first call rather than with the
package: only the readout error curve needs it, and importing
scipy.special is most of the CLI's start-up.
"""


def erfc(x):
    """scipy.special.erfc(x), bit for bit."""
    from scipy.special import erfc as scipy_erfc

    return scipy_erfc(x)

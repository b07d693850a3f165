"""Lightweight counters used to verify cache behavior."""

_eigensolves = 0


def count_eigensolve(n=1):
    """Count n eigensolves: one per matrix of a stacked call."""
    global _eigensolves
    _eigensolves += n


def eigensolve_count():
    return _eigensolves


def reset_eigensolve_count():
    global _eigensolves
    _eigensolves = 0

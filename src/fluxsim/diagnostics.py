"""Lightweight counters used to verify cache behavior.

The eigensolve counter is shared by the threads of a sweep, so it is
updated under a lock and no count is lost."""

import threading

_eigensolves = 0
_lock = threading.Lock()


def count_eigensolve(n=1):
    """Count n eigensolves: one per matrix of a stacked call."""
    global _eigensolves
    with _lock:
        _eigensolves += n


def eigensolve_count():
    return _eigensolves

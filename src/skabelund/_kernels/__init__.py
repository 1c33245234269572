"""The brute-force oracle's inner loops (see pure.py).

Callers look the kernels up on this module at call time.
available_backends() names the kernel sets that can run, keyed by backend
name; the pure-Python kernels are the only one.
"""

from __future__ import annotations

from . import pure
from .pure import BACKEND_NAME, cm_subgroups, congruence_count, sigma_cm_iota_counts


def available_backends() -> dict[str, object]:
    """Kernel sets keyed by backend name, each holding the three kernels."""
    return {pure.BACKEND_NAME: pure}


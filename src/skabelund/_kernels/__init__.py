"""Kernel backend selection: compiled extension if importable, else pure Python.

Set SKABELUND_PURE=1 to force the pure-Python backend (used by the benchmark
and by CI to exercise both code paths).

The compiled extension holds values below m^2 in 64-bit integers, so it
serves the two counting kernels for m < COMPILED_M_LIMIT only; larger m
runs on the pure kernels.  Subgroup closure always runs on the pure kernel,
which is faster than a compiled loop over the same bitsets.
"""

from __future__ import annotations

import os
from types import SimpleNamespace

from . import pure

COMPILED_M_LIMIT = 1 << 20


def _compiled_module():
    try:
        from . import _speed
    except ImportError:
        return None
    return _speed


def _with_fallback(compiled) -> SimpleNamespace:
    """The kernels as this package runs them when the compiled extension is
    importable."""

    def sigma_cm_iota_counts(m, n1, n2, a, q_powers):
        impl = compiled if m < COMPILED_M_LIMIT else pure
        return impl.sigma_cm_iota_counts(m, n1, n2, a, q_powers)

    def congruence_count(m, n1, n2, rhs):
        impl = compiled if m < COMPILED_M_LIMIT else pure
        return impl.congruence_count(m, n1, n2, rhs)

    return SimpleNamespace(
        BACKEND_NAME=compiled.BACKEND_NAME,
        sigma_cm_iota_counts=sigma_cm_iota_counts,
        congruence_count=congruence_count,
        cm_subgroups=pure.cm_subgroups,
    )


def available_backends() -> dict[str, object]:
    """Importable kernel sets keyed by backend name, each holding the three
    kernels as they run on that backend."""
    backends: dict[str, object] = {pure.BACKEND_NAME: pure}
    compiled = _compiled_module()
    if compiled is not None:
        backends[compiled.BACKEND_NAME] = _with_fallback(compiled)
    return backends


_compiled = None if os.environ.get("SKABELUND_PURE") else _compiled_module()
_impl = pure if _compiled is None else _with_fallback(_compiled)

BACKEND_NAME: str = _impl.BACKEND_NAME
sigma_cm_iota_counts = _impl.sigma_cm_iota_counts
congruence_count = _impl.congruence_count
cm_subgroups = pure.cm_subgroups

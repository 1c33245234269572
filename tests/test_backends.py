"""Kernel backend selection, and cross-checks against the compiled backend.

The dispatch tests install a stub compiled module, so they run whether or
not the Cython extension is built; the cross-checks need the real one.
"""

import importlib
import sys
import types

import pytest

from skabelund import _kernels
from skabelund._kernels import available_backends, pure
from skabelund.catalog import enumerate_standard_exponents
from skabelund.curves import Family, make_params

BACKENDS = available_backends()

requires_compiled = pytest.mark.skipif(
    "compiled" not in BACKENDS, reason="compiled kernel extension not built"
)

LARGE_M = _kernels.COMPILED_M_LIMIT


def test_pure_backend_always_present():
    assert BACKENDS["pure"] is pure


@pytest.fixture
def stub_compiled(monkeypatch):
    """Reload skabelund._kernels with a stand-in compiled extension that
    refuses m >= 2^20 as the real one does, and record its calls."""
    calls = []

    def refusing(name):
        def kernel(m, *args):
            if m >= LARGE_M:
                raise ValueError(f"m={m} too large for the compiled kernel")
            calls.append(name)
            return getattr(pure, name)(m, *args)

        return kernel

    stub = types.ModuleType("skabelund._kernels._speed")
    stub.BACKEND_NAME = "compiled"
    stub.sigma_cm_iota_counts = refusing("sigma_cm_iota_counts")
    stub.congruence_count = refusing("congruence_count")
    monkeypatch.delenv("SKABELUND_PURE", raising=False)
    monkeypatch.setitem(sys.modules, "skabelund._kernels._speed", stub)
    try:
        yield importlib.reload(_kernels), calls
    finally:
        monkeypatch.undo()
        if hasattr(_kernels, "_speed"):
            del _kernels._speed
        importlib.reload(_kernels)


def test_compiled_backend_serves_small_m(stub_compiled):
    kernels, calls = stub_compiled
    assert kernels.BACKEND_NAME == "compiled"
    assert kernels.congruence_count(19, 1, 19, 3) == pure.congruence_count(19, 1, 19, 3)
    assert kernels.sigma_cm_iota_counts(19, 1, 19, 1, (1, 7)) == pure.sigma_cm_iota_counts(
        19, 1, 19, 1, (1, 7)
    )
    assert calls == ["congruence_count", "sigma_cm_iota_counts"]


def test_large_m_falls_back_to_pure(stub_compiled):
    kernels, calls = stub_compiled
    m = 1_592_137  # Ree s=6
    for module in (kernels, kernels.available_backends()["compiled"]):
        assert module.congruence_count(m, m, m, 5) == 1
        assert module.congruence_count(LARGE_M, LARGE_M // 2, LARGE_M, 0) == 2
        # m = 157 * 10141; with a = n1 every element off the identity row is special
        assert module.sigma_cm_iota_counts(m, 10141, m, 10141, (1,)) == (0, 156)
    assert calls == []


def test_closure_kernel_is_always_pure(stub_compiled):
    kernels, _ = stub_compiled
    assert kernels.cm_subgroups is pure.cm_subgroups
    assert kernels.available_backends()["compiled"].cm_subgroups is pure.cm_subgroups
    assert set(kernels.available_backends()) == {"pure", "compiled"}


def test_forced_pure_selection_ignores_the_compiled_module(stub_compiled, monkeypatch):
    monkeypatch.setenv("SKABELUND_PURE", "1")
    kernels = importlib.reload(_kernels)
    assert kernels.BACKEND_NAME == "pure"
    assert kernels.congruence_count is pure.congruence_count


def test_forced_pure_selection():
    import os
    import subprocess

    result = subprocess.run(
        [sys.executable, "-c", "import skabelund; print(skabelund.kernel_backend)"],
        env=dict(os.environ, SKABELUND_PURE="1"),
        capture_output=True,
        text=True,
    )
    assert result.stdout.strip() == "pure"


@requires_compiled
def test_sigma_cm_counts_agree():
    pure, compiled = BACKENDS["pure"], BACKENDS["compiled"]
    for family, s in ((Family.SUZUKI, 1), (Family.SUZUKI, 3), (Family.REE, 2)):
        params = make_params(family, s)
        for se in enumerate_standard_exponents(params.m)[::7]:
            args = (params.m, se.n1, se.n2, se.a, params.q_powers)
            assert pure.sigma_cm_iota_counts(*args) == compiled.sigma_cm_iota_counts(
                *args
            )


@requires_compiled
def test_congruence_counts_agree():
    pure, compiled = BACKENDS["pure"], BACKENDS["compiled"]
    params = make_params(Family.REE, 2)
    for se in enumerate_standard_exponents(params.m)[::11]:
        for rhs in (0, 1, 31, 216):
            assert pure.congruence_count(
                params.m, se.n1, se.n2, rhs
            ) == compiled.congruence_count(params.m, se.n1, se.n2, rhs)

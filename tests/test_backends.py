"""The pipebench shims of the kernel layer: available_backends() and
kernel_backend name the one kernel set, the pure-Python _kernels module."""

import subprocess
import sys

from skabelund import _kernels
from skabelund._kernels import available_backends


def test_pure_backend_always_present():
    assert available_backends() == {"pure": _kernels}


def test_pure_kernels_at_ree_s6_size():
    m = 1_592_137  # Ree s=6
    large = 1 << 20
    assert _kernels.congruence_count(m, m, m, 5) == 1
    assert _kernels.congruence_count(large, large // 2, large, 0) == 2
    # m = 157 * 10141; with a = n1 every element off the identity row is special
    assert _kernels.sigma_cm_iota_counts(m, 10141, m, 10141, (1,)) == (0, 156)
    # Ree s=7 size, m = 37 * 387631, one column, rows = m: the step 18*387631
    # sends row i to 0 exactly when 37 | 18*i, that is when 37 | i, so the
    # hit rows are 0, 37, ..., m - 37, m/37 = 387631 of them
    m = 37 * 387631
    assert _kernels.congruence_count(m, 1, m, 18 * 387631) == 387631


def test_kernel_backend_in_a_fresh_interpreter():
    result = subprocess.run(
        [sys.executable, "-c", "import skabelund; print(skabelund.kernel_backend)"],
        capture_output=True,
        text=True,
    )
    assert result.stdout.strip() == "pure"

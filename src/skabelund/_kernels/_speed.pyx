# cython: boundscheck=False, wraparound=False, cdivision=True
"""Compiled kernels for the brute-force oracle inner loops.

Same contracts as the counting kernels of skabelund._kernels.pure; the
loops run on C integers.  All quantities handled here are bounded by m^2
with m < 2^20, so 64-bit arithmetic is exact throughout; the package sends
larger m to the pure kernels.  Subgroup closure has no compiled version.
"""

BACKEND_NAME = "compiled"

DEF MAX_QPOWERS = 8

cdef long long _M_LIMIT = 1 << 20


def sigma_cm_iota_counts(m, n1, n2, a, q_powers):
    """(tau-power count, special-element count) over the non-identity
    elements of the subgroup with standard exponents (n1, n2, a)."""
    if m >= _M_LIMIT:
        raise ValueError(f"m={m} too large for the compiled kernel")
    cdef long long cm = m, cn1 = n1, cn2 = n2, ca = a
    cdef int nq = len(q_powers)
    if nq > MAX_QPOWERS:
        raise ValueError("too many q powers")
    cdef long long qd[MAX_QPOWERS]
    cdef long long sp[MAX_QPOWERS]
    cdef int d
    for d in range(nq):
        qd[d] = q_powers[d]
    cdef long long imax = cm // cn1, jmax = cm // cn2
    cdef long long tau_count = 0, special_count = 0
    cdef long long i, j, a_exp, b_exp
    cdef bint hit
    for i in range(imax):
        a_exp = (i * cn1) % cm
        b_exp = (i * ca) % cm
        if a_exp == 0:
            for j in range(jmax):
                if b_exp != 0:
                    tau_count += 1
                b_exp += cn2
                if b_exp >= cm:
                    b_exp -= cm
        else:
            for d in range(nq):
                sp[d] = (a_exp * qd[d]) % cm
            for j in range(jmax):
                hit = False
                for d in range(nq):
                    if sp[d] == b_exp:
                        hit = True
                        break
                if hit:
                    special_count += 1
                b_exp += cn2
                if b_exp >= cm:
                    b_exp -= cm
    return tau_count, special_count


def congruence_count(m, n1, n2, rhs):
    """Literal count of pairs (i, j) in the fundamental domain with
    j*n2 = i*rhs (mod m), including (0, 0)."""
    if m >= _M_LIMIT:
        raise ValueError(f"m={m} too large for the compiled kernel")
    cdef long long cm = m, cn1 = n1, cn2 = n2, crhs = rhs % m
    cdef long long imax = cm // cn1, jmax = cm // cn2
    cdef long long count = 0
    cdef long long i, j, target, jn2
    for i in range(imax):
        target = (i * crhs) % cm
        jn2 = 0
        for j in range(jmax):
            if jn2 == target:
                count += 1
            jn2 += cn2
            if jn2 >= cm:
                jn2 -= cm
    return count

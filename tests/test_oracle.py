import ast
from pathlib import Path

import pytest

import skabelund
from skabelund.catalog import (
    SigmaCm,
    enumerate_standard_exponents,
    standard_exponent_elements,
    subgroup_order_sigma,
)
from skabelund.curves import Family, make_params
from skabelund.iota import census
from skabelund.oracle import (
    BruteForceCapError,
    _f8_div,
    count_congruence_solutions,
    delta_b0_census,
    delta_census,
    delta_sigma_cm_bruteforce,
    delta_skew_census,
    enumerate_subgroups_bruteforce,
    f8_mul,
    realize_census,
)
from skabelund.singer import delta_sigma_cm

from references import delta_sigma_cm_direct, materialize_skew_subgroup

S1 = make_params(Family.SUZUKI, 1)
S2 = make_params(Family.SUZUKI, 2)
R1 = make_params(Family.REE, 1)
R2 = make_params(Family.REE, 2)


ORACLE_SOURCES = ("_kernels.py", "oracle.py", "iota.py")


def _imported_modules(tree):
    """Dotted names of every module and module member a tree imports, with
    relative imports resolved inside the skabelund package."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = "skabelund" + (f".{base}" if base else "")
            yield from (f"{base}.{alias.name}" for alias in node.names)


@pytest.mark.parametrize("source", ORACLE_SOURCES)
def test_oracle_takes_nothing_from_arith_and_names_no_gcd(source):
    """The oracle recomputes what arith's closed forms give; it must not
    import arith or reach for a gcd or an lcm (say m // gcd(x, m))."""
    tree = ast.parse((Path(skabelund.__file__).parent / source).read_text())
    arith = [
        name
        for name in _imported_modules(tree)
        if name == "skabelund.arith" or name.startswith("skabelund.arith.")
    ]
    assert not arith, arith
    identifiers = {
        value
        for node in ast.walk(tree)
        for field in ("id", "attr", "name", "asname", "arg")
        if isinstance(value := getattr(node, field, None), str)
    }
    named = sorted(i for i in identifiers if "gcd" in i.lower() or "lcm" in i.lower())
    assert not named, named


def test_delta_bruteforce_examples():
    assert delta_sigma_cm_bruteforce(S1, SigmaCm(1, 5, 1)) == 20
    assert delta_sigma_cm_bruteforce(S1, SigmaCm(5, 5, 0)) == 0
    assert delta_sigma_cm_bruteforce(R1, SigmaCm(1, 19, 1)) == 342


def test_delta_bruteforce_matches_direct_iota_summation():
    # pins the kernel loop to the per-element iota primitive
    for params in (S1, S2, R1):
        for se in enumerate_standard_exponents(params.m):
            assert delta_sigma_cm_bruteforce(params, se) == delta_sigma_cm_direct(
                params, se
            )


def test_congruence_count_examples():
    assert count_congruence_solutions(S1, SigmaCm(1, 5, 1), 0) == 5
    assert count_congruence_solutions(S1, SigmaCm(1, 5, 1), 1) == 1
    assert count_congruence_solutions(S2, SigmaCm(5, 5, 0), 2) == 5
    with pytest.raises(ValueError):
        count_congruence_solutions(S1, SigmaCm(1, 5, 1), 4)
    with pytest.raises(ValueError):
        count_congruence_solutions(R1, SigmaCm(1, 19, 1), 6)
    # a bad triple is reported before a bad d
    with pytest.raises(ValueError, match=r"a=7 out of range"):
        count_congruence_solutions(S1, SigmaCm(1, 5, 7), 4)


NON_INT_FIELDS = [
    SigmaCm(1.0, 5, 1),
    SigmaCm(1, 5.0, 1),
    SigmaCm(1, 5, 1.0),
    SigmaCm(True, 5, 1),
    SigmaCm(1, 5, True),
]
SINGER_ENTRY_POINTS = {
    "subgroup_order_sigma": lambda se: subgroup_order_sigma(S1.m, se),
    "standard_exponent_elements": lambda se: standard_exponent_elements(S1.m, se),
    "delta_sigma_cm": lambda se: delta_sigma_cm(S1, se),
    "delta_sigma_cm_bruteforce": lambda se: delta_sigma_cm_bruteforce(S1, se),
    "count_congruence_solutions": lambda se: count_congruence_solutions(S1, se, 0),
}


@pytest.mark.parametrize("se", NON_INT_FIELDS, ids=repr)
@pytest.mark.parametrize("entry", SINGER_ENTRY_POINTS)
def test_singer_entry_points_reject_non_int_fields(entry, se):
    """A float or bool field passes every arithmetic check of the triple
    (1.0 divides 5, True == 1), so SigmaCm.validate checks the types."""
    with pytest.raises(ValueError, match="descriptor fields must be int"):
        SINGER_ENTRY_POINTS[entry](se)


def test_congruence_count_includes_origin():
    for se in enumerate_standard_exponents(5):
        for d in range(4):
            assert count_congruence_solutions(S1, se, d) >= 1


def test_subgroup_closure_counts():
    assert len(enumerate_subgroups_bruteforce(1)) == 1
    assert len(enumerate_subgroups_bruteforce(5)) == 8
    assert len(enumerate_subgroups_bruteforce(25)) == 45
    counted = len(enumerate_subgroups_bruteforce(6))
    assert counted == len(enumerate_standard_exponents(6)) == 30


def test_subgroups_are_actual_subgroups():
    for m in (6, 12):
        for elements in enumerate_subgroups_bruteforce(m):
            assert (0, 0) in elements
            assert m * m % len(elements) == 0
            for x1, y1 in elements:
                for x2, y2 in elements:
                    assert ((x1 + x2) % m, (y1 + y2) % m) in elements


def test_closure_matches_standard_exponents_elementwise():
    for m in (5, 6, 12, 19, 25):
        closure = enumerate_subgroups_bruteforce(m)
        generated = {
            standard_exponent_elements(m, se) for se in enumerate_standard_exponents(m)
        }
        assert generated == closure
        assert len(generated) == len(enumerate_standard_exponents(m))


def test_closure_cap():
    with pytest.raises(BruteForceCapError):
        enumerate_subgroups_bruteforce(61)
    with pytest.raises(ValueError):
        enumerate_subgroups_bruteforce(0)


def test_element_cap(monkeypatch):
    monkeypatch.setenv("SKABELUND_MAX_ELEMENTS", "100")
    with pytest.raises(BruteForceCapError):
        delta_sigma_cm_bruteforce(R1, SigmaCm(1, 1, 0))  # |H| = 361
    with pytest.raises(BruteForceCapError, match="subgroup exceeds brute-force cap 100"):
        count_congruence_solutions(R1, SigmaCm(1, 1, 0), 0)
    assert delta_sigma_cm_bruteforce(R1, SigmaCm(1, 1, 0), max_elements=400)


def test_delta_census_values():
    assert delta_census("psl28", R1, 1) == 44548
    assert delta_census("n2_168", R1, 1) == 10948
    assert delta_census("n2_56", R1, 1) == 196  # 7 involutions x (q+1)
    with pytest.raises(ValueError):
        delta_census("n2_7", R1, 1)
    with pytest.raises(ValueError):
        delta_census("psl28", S1, 1)
    with pytest.raises(ValueError, match="delta_b0_census needs Suzuki parameters"):
        delta_b0_census(R1, 1, 1, False)


@pytest.mark.parametrize(
    "census_sum, args, message",
    [
        (delta_census, ("psl28", R1, -1), "n=-1 does not divide m=19"),
        (delta_census, ("n2_168", R1, -19), "n=-19 does not divide m=19"),
        (delta_census, ("n2_4", R1, 0), "n=0 does not divide m=19"),
        (delta_b0_census, (S1, -7, 5, False), r"invalid divisors \(d=-7, n=5\)"),
        (delta_b0_census, (S1, 0, 5, True), r"invalid divisors \(d=0, n=5\)"),
        (delta_b0_census, (S1, 7, -5, False), r"invalid divisors \(d=7, n=-5\)"),
        (delta_b0_census, (S1, -1, -1, True), r"invalid divisors \(d=-1, n=-1\)"),
        (delta_b0_census, (S1, 1, 0, False), r"invalid divisors \(d=1, n=0\)"),
    ],
)
def test_census_sums_reject_sizes_below_one(census_sum, args, message):
    # a negative divisor of m or q-1 still divides it: m % -n == 0
    with pytest.raises(ValueError, match=message):
        census_sum(*args)


def test_f8_multiplication_table():
    # nonzero elements form a cyclic group of order 7 generated by x
    seen = {1}
    v = 1
    for _ in range(6):
        v = f8_mul(v, 2)
        seen.add(v)
    assert seen == set(range(1, 8))
    assert f8_mul(v, 2) == 1
    assert _f8_div(f8_mul(5, 3), 3) == 5
    with pytest.raises(ZeroDivisionError):
        _f8_div(5, 0)


def test_skew_materialization_orders():
    for w, i in ((1, 1), (1, 4), (31, 2)):
        full = materialize_skew_subgroup(R2, "full", i, w)
        cyclic = materialize_skew_subgroup(R2, "cyclic", i, w)
        n = R2.m // (7 * w)
        assert len(full) == 56 * n
        assert len(cyclic) == 7 * n
        assert set(cyclic) <= set(full)


def test_skew_census_i_invariance():
    assert delta_skew_census(R2, "full", 1, 31) == delta_skew_census(R2, "full", 5, 31)
    with pytest.raises(ValueError):
        delta_skew_census(R1, "full", 1, 1)  # 7 does not divide m = 19
    with pytest.raises(ValueError):
        delta_skew_census(R2, "half", 1, 1)
    with pytest.raises(ValueError, match="skew subgroups need Ree parameters"):
        delta_skew_census(S2, "full", 1, 1)
    with pytest.raises(ValueError, match=r"w=2 violates 7w \| m"):
        delta_skew_census(R2, "full", 1, 2)  # m = 217 = 7 * 31
    with pytest.raises(ValueError, match=r"i=7 out of range 1\.\.6"):
        delta_skew_census(R2, "full", 7, 1)
    # w < 1: w = 0 would divide by zero, and -1, -31 pass 7w | m
    for w in (0, -1, -31):
        with pytest.raises(ValueError, match=rf"^w={w} violates 7w \| m for m=217$"):
            delta_skew_census(R2, "full", 1, w)


def test_permutation_censuses_match_tables():
    for tag in ("psl28", "n2_168", "n2_56", "n2_24", "n2_12", "n2_8", "n2_4"):
        table = census(tag)
        realized = realize_census(tag)
        assert realized == dict(table.counts), tag
        assert sum(realized.values()) == table.group_order


def test_n2_realization_census_value():
    assert realize_census("n2_168") == {1: 1, 2: 7, 3: 56, 6: 56, 7: 48}
    with pytest.raises(ValueError):
        realize_census("sporadic")


def test_a_caller_cannot_change_the_cached_census():
    first = realize_census("psl28")
    first[2] = -1
    first[99] = 1
    assert realize_census("psl28") == dict(census("psl28").counts)
    assert realize_census("psl28") is not realize_census("psl28")


def test_congruence_crt_law_small():
    # count * n1 * n2 = m * prod p^nu for every triple and power
    from skabelund.arith import valuation

    for params in (S1, S2, R1):
        for se in enumerate_standard_exponents(params.m):
            for d in range(len(params.q_powers)):
                x = se.n1 * params.q_powers[d] - se.a
                prod = 1
                for p, _e in params.m_factors:
                    prod *= p ** int(min(valuation(p, x), valuation(p, se.n2)))
                count = count_congruence_solutions(params, se, d)
                assert count * se.n1 * se.n2 == params.m * prod


def test_bruteforce_rejects_invalid_triple():
    with pytest.raises(ValueError):
        delta_sigma_cm_bruteforce(S1, SigmaCm(1, 5, 7))


def test_subgroup_orders_divide():
    for m in (12, 19):
        for se in enumerate_standard_exponents(m):
            assert (m * m) % subgroup_order_sigma(m, se) == 0

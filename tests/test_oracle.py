import ast
from pathlib import Path

import pytest

import skabelund
from skabelund.catalog import (
    B0Cyclic,
    B0Dihedral,
    N2NonSkew,
    N2SkewCyclic,
    N2SkewFull,
    Psl28,
    SigmaCm,
    enumerate_standard_exponents,
    standard_exponent_elements,
    subgroup_order_sigma,
)
from skabelund.curves import Family, make_params
from skabelund.iota import CENSUS_TABLE
from skabelund.oracle import (
    _PERM_GENERATORS,
    BruteForceCapError,
    _affine_perm,
    _f8_div,
    _perm_closure,
    _skew_generators,
    count_congruence_solutions,
    delta_b0_census,
    delta_census,
    delta_sigma_cm_bruteforce,
    delta_skew_census,
    enumerate_subgroups_bruteforce,
    f8_mul,
    realize_census,
)
from skabelund.settings import SettingError
from skabelund.spectrum import run_oracle_suite

from references import (
    bit_positions,
    capped_p_parts,
    delta_sigma_cm_direct,
    materialize_skew_subgroup,
)

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
    assert count_congruence_solutions(S1, SigmaCm(1, 5, 1))[0] == 5
    assert count_congruence_solutions(S1, SigmaCm(1, 5, 1))[1] == 1
    assert count_congruence_solutions(S2, SigmaCm(5, 5, 0))[2] == 5
    # one count per special power
    assert len(count_congruence_solutions(S1, SigmaCm(1, 5, 1))) == len(S1.q_powers) == 4
    assert len(count_congruence_solutions(R1, SigmaCm(1, 19, 1))) == len(R1.q_powers) == 6
    with pytest.raises(ValueError, match=r"a=7 out of range"):
        count_congruence_solutions(S1, SigmaCm(1, 5, 7))


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
    "delta_sigma_cm_bruteforce": lambda se: delta_sigma_cm_bruteforce(S1, se),
    "count_congruence_solutions": lambda se: count_congruence_solutions(S1, se),
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
        counts = count_congruence_solutions(S1, se)
        for d in range(4):
            assert counts[d] >= 1


def test_subgroup_closure_counts():
    assert len(enumerate_subgroups_bruteforce(1)) == 1
    assert len(enumerate_subgroups_bruteforce(5)) == 8
    assert len(enumerate_subgroups_bruteforce(25)) == 45
    counted = len(enumerate_subgroups_bruteforce(6))
    assert counted == len(enumerate_standard_exponents(6)) == 30


def test_subgroups_are_actual_subgroups():
    for m in (6, 12):
        for mask in enumerate_subgroups_bruteforce(m):
            elements = {divmod(code, m) for code in bit_positions(mask)}
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
    with pytest.raises(BruteForceCapError, match=r"^\|H\|=361 exceeds brute-force cap 100$"):
        delta_sigma_cm_bruteforce(R1, SigmaCm(1, 1, 0))
    with pytest.raises(BruteForceCapError, match=r"^\|H\|=361 exceeds brute-force cap 100$"):
        count_congruence_solutions(R1, SigmaCm(1, 1, 0))
    assert delta_sigma_cm_bruteforce(R1, SigmaCm(1, 1, 0), max_elements=400)


# the library entry points that take a max_elements override
CAP_ENTRY_POINTS = pytest.mark.parametrize(
    "run",
    [
        lambda cap: run_oracle_suite(Family.SUZUKI, 1, max_elements=cap),
        lambda cap: delta_sigma_cm_bruteforce(S1, SigmaCm(5, 5, 0), max_elements=cap),
        lambda cap: count_congruence_solutions(S1, SigmaCm(5, 5, 0), max_elements=cap),
    ],
    ids=["run_oracle_suite", "delta_sigma_cm_bruteforce", "count_congruence_solutions"],
)


@pytest.mark.parametrize("cap", [2.5, 400.0, True, "400"], ids=repr)
@CAP_ENTRY_POINTS
def test_an_element_cap_that_is_not_an_int_is_refused(run, cap):
    with pytest.raises(SettingError) as info:
        run(cap)
    assert str(info.value) == f"max_elements must be an integer, got {cap!r}"


@CAP_ENTRY_POINTS
def test_an_element_cap_below_zero_is_refused(run):
    """An override has the floor of SKABELUND_MAX_ELEMENTS and --max-elements."""
    with pytest.raises(SettingError) as info:
        run(-1)
    assert str(info.value) == "max_elements must be at least 0, got -1"


def test_delta_census_values():
    assert delta_census(R1, Psl28(1)) == 44548
    assert delta_census(R1, N2NonSkew(168, 1)) == 10948
    assert delta_census(R1, N2NonSkew(56, 1)) == 196  # 7 involutions x (q+1)
    with pytest.raises(ValueError):
        delta_census(R1, N2NonSkew(7, 1))
    with pytest.raises(ValueError):
        delta_census(S1, Psl28(1))
    with pytest.raises(ValueError, match="'b0-cyclic' is a suzuki kind, not a ree one"):
        delta_b0_census(R1, B0Cyclic(1, 1))


@pytest.mark.parametrize(
    "census_sum, args, message",
    [
        (delta_census, (R1, Psl28(-1)), "n=-1 does not divide m=19"),
        (delta_census, (R1, N2NonSkew(168, -19)), "n=-19 does not divide m=19"),
        (delta_census, (R1, N2NonSkew(4, 0)), "n=0 does not divide m=19"),
        (delta_b0_census, (S1, B0Cyclic(-7, 5)), "d=-7 does not divide q-1=7"),
        (delta_b0_census, (S1, B0Dihedral(0, 5)), "d=0 does not divide q-1=7"),
        (delta_b0_census, (S1, B0Cyclic(7, -5)), "n=-5 does not divide m=5"),
        (delta_b0_census, (S1, B0Dihedral(-1, -1)), "d=-1 does not divide q-1=7"),
        (delta_b0_census, (S1, B0Cyclic(1, 0)), "n=0 does not divide m=5"),
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


def test_f8_division_inverts_multiplication():
    for b in range(1, 8):
        for a in range(8):
            assert [k for k in range(8) if f8_mul(b, k) == a] == [_f8_div(a, b)]
    for a in (0, 5):
        with pytest.raises(ZeroDivisionError):
            _f8_div(a, 0)


@pytest.mark.parametrize("skew", [N2SkewFull, N2SkewCyclic])
def test_skew_generators_and_the_n2_realization_name_one_group(skew):
    """The affine parts of a skew subgroup's generators, as permutations of
    F8, close to N2's order-56 subgroup (N2SkewFull) or to an order-7
    subgroup of it (N2SkewCyclic): both read N2's generators from one table."""
    n2_56 = _perm_closure(_PERM_GENERATORS["n2_56"])
    assert len(n2_56) == 56
    for i in range(1, 7):
        for w in (1, 31):
            gens = _skew_generators(R2, skew(i, w))
            closed = _perm_closure([_affine_perm(a, b, 0) for a, b, _ in gens])
            if skew is N2SkewFull:
                assert closed == n2_56, (i, w)
            else:
                assert len(closed) == 7 and closed <= n2_56, (i, w)


def test_skew_materialization_orders():
    for w, i in ((1, 1), (1, 4), (31, 2)):
        full = materialize_skew_subgroup(R2, "full", i, w)
        cyclic = materialize_skew_subgroup(R2, "cyclic", i, w)
        n = R2.m // (7 * w)
        assert len(full) == 56 * n
        assert len(cyclic) == 7 * n
        assert set(cyclic) <= set(full)


def test_skew_census_i_invariance():
    assert delta_skew_census(R2, N2SkewFull(1, 31)) == delta_skew_census(R2, N2SkewFull(5, 31))
    with pytest.raises(ValueError):
        delta_skew_census(R1, N2SkewFull(1, 1))  # 7 does not divide m = 19
    with pytest.raises(ValueError, match=r"expected N2SkewFull or N2SkewCyclic, got N2NonSkew"):
        delta_skew_census(R2, N2NonSkew(56, 1))
    with pytest.raises(ValueError, match="'n2-skew-full' is a ree kind, not a suzuki one"):
        delta_skew_census(S2, N2SkewFull(1, 1))
    with pytest.raises(ValueError, match=r"w=2 violates 7w \| m"):
        delta_skew_census(R2, N2SkewFull(1, 2))  # m = 217 = 7 * 31
    with pytest.raises(ValueError, match=r"i=7 out of range 1\.\.6"):
        delta_skew_census(R2, N2SkewFull(7, 1))
    # w < 1: w = 0 would divide by zero, and -1, -31 pass 7w | m
    for w in (0, -1, -31):
        with pytest.raises(ValueError, match=rf"^w={w} violates 7w \| m for m=217$"):
            delta_skew_census(R2, N2SkewFull(1, w))


def test_permutation_censuses_match_tables():
    for tag in ("psl28", "n2_168", "n2_56", "n2_24", "n2_12", "n2_8", "n2_4"):
        table = CENSUS_TABLE[tag]
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
    assert realize_census("psl28") == dict(CENSUS_TABLE["psl28"].counts)
    assert realize_census("psl28") is not realize_census("psl28")


def test_congruence_crt_law_small():
    # count * n1 * n2 = m * prod p^nu for every triple and power
    for params in (S1, S2, R1):
        primes = [p for p, _e in params.m_factors]
        for se in enumerate_standard_exponents(params.m):
            for d in range(len(params.q_powers)):
                x = se.n1 * params.q_powers[d] - se.a
                prod = capped_p_parts(x, se.n2, primes)
                count = count_congruence_solutions(params, se)[d]
                assert count * se.n1 * se.n2 == params.m * prod


def test_bruteforce_rejects_invalid_triple():
    with pytest.raises(ValueError):
        delta_sigma_cm_bruteforce(S1, SigmaCm(1, 5, 7))


def test_subgroup_orders_divide():
    for m in (12, 19):
        for se in enumerate_standard_exponents(m):
            assert (m * m) % subgroup_order_sigma(m, se) == 0

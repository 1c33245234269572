"""The Singer-square class evaluator against per-subgroup evaluation."""

import math
import os
import pickle
import subprocess
import sys
from collections import Counter, defaultdict
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from skabelund import singer
from skabelund.arith import divisors, is_prime, valuation
from skabelund.catalog import (
    GenusRecord,
    SigmaCm,
    enumerate_descriptors,
    enumerate_standard_exponents,
    standard_exponent_blocks,
    subgroup_order_sigma,
)
from skabelund.curves import CurveParams, Family, make_params
from skabelund.singer import (
    ClassRuns,
    delta_sigma_cm,
    evaluate_singer_square,
    singer_block,
    square_blocks,
)
from skabelund.spectrum import compute_spectrum, evaluate_descriptor

# every (family, s) within the default caps of the CLI
WITHIN_CAPS = [(Family.SUZUKI, s) for s in range(1, 7)] + [(Family.REE, s) for s in range(1, 6)]


def class_key(block, a):
    return tuple(res.get(a % pe, 0) for pe, res in zip(block.moduli, block.residues))


@pytest.mark.parametrize("family,s", WITHIN_CAPS, ids=lambda x: getattr(x, "value", x))
def test_class_multiset_equals_per_subgroup_evaluation(family, s):
    params = make_params(family, s)
    expected = Counter(
        (subgroup_order_sigma(params.m, se), delta_sigma_cm(params, se))
        for se in enumerate_standard_exponents(params.m)
    )
    square = evaluate_singer_square(params)
    counts = Counter()
    for block, records in zip(square.blocks, square.class_records):
        for key, cls in block.classes.items():
            counts[records[key].order, records[key].delta] += cls.count
    assert counts == expected


@pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
@pytest.mark.parametrize("s", [1, 2, 3, 4])
def test_records_equal_per_descriptor_evaluation(family, s):
    params = make_params(family, s)
    expected = tuple(evaluate_descriptor(params, d) for d in enumerate_descriptors(params))
    assert compute_spectrum(family, s).records == expected
    sigma = tuple(r for r in expected if isinstance(r.descriptor, SigmaCm))
    assert compute_spectrum(family, s, "sigma-cm").records == sigma


def test_class_records_belong_to_their_class():
    # past the caps: Suzuki s=7 and s=9 have 512 classes, Ree s=6 has 100
    curves = WITHIN_CAPS + [(Family.SUZUKI, s) for s in (7, 8, 9)] + [(Family.REE, 6)]
    for family, s in curves:
        params = make_params(family, s)
        square = evaluate_singer_square(params)
        for block, records in zip(square.blocks, square.class_records):
            for key, cls in block.classes.items():
                assert class_key(block, cls.a) == key
                descriptor = SigmaCm(block.n1, block.n2, cls.a)
                assert records[key] == evaluate_descriptor(params, descriptor)
                assert type(records[key].descriptor) is SigmaCm


@pytest.mark.parametrize(
    "family,s,tables,records",
    [(Family.SUZUKI, 7, 15, 141), (Family.REE, 3, 11, 73)],
    ids=["suzuki-7", "ree-3"],
)
def test_square_builds_each_table_once_and_each_record_once_per_delta(
    monkeypatch, family, s, tables, records
):
    calls = Counter()

    def counted(name):
        f = getattr(singer, name)

        def wrapper(*args):
            calls[name] += 1
            return f(*args)

        return wrapper

    for name in ("_prime_classes", "make_record", "delta_sigma_cm"):
        monkeypatch.setattr(singer, name, counted(name))
    square = evaluate_singer_square(make_params(family, s))
    classes = sum(len(b.classes) for b in square.blocks)
    deltas = sum(len({r.delta for r in rs.values()}) for rs in square.class_records)
    assert deltas == records
    assert calls == {"_prime_classes": tables, "make_record": records, "delta_sigma_cm": classes}


@pytest.mark.parametrize(
    "n1,n2,message",
    [(5, 2, "n2=2"), (5, -5, "n2=-5"), (0, 5, "n1=0"), (2, 5, "n1=2")],
)
def test_singer_block_rejects_a_non_divisor(n1, n2, message):
    params = make_params(Family.SUZUKI, 2)
    assert params.m == 25
    with pytest.raises(ValueError) as info:
        singer_block(params, n1, n2)
    assert str(info.value) == f"{message} is not a positive divisor of m=25"


def delta_by_valuations(params, se):
    """delta_sigma_cm with the congruence count formed prime by prime, as
    prod_l p_l^min(v_{p_l}(n1*q^d - a), v_{p_l}(n2)): the reference for the
    one-gcd-per-power evaluation."""
    m, n1, n2, a = params.m, se.n1, se.n2, se.a
    total = (m // n2 - 1) * params.tau_iota
    for qd in params.q_powers:
        x = n1 * qd - a
        prod = 1
        for p, _e in params.m_factors:
            prod *= p ** int(min(valuation(p, x), valuation(p, n2)))
        assert m * prod % (n1 * n2) == 0
        total += (m * prod // (n1 * n2) - 1) * m
    return total


@pytest.mark.parametrize("family,s", WITHIN_CAPS, ids=lambda x: getattr(x, "value", x))
def test_class_members_match_valuation_reference(family, s):
    params = make_params(family, s)
    square = evaluate_singer_square(params)
    checked = 0
    for block, records in zip(square.blocks, square.class_records):
        for key, cls in block.classes.items():
            se = SigmaCm(block.n1, block.n2, cls.a)
            expected = delta_by_valuations(params, se)
            assert delta_sigma_cm(params, se) == expected
            assert records[key].delta == expected
            checked += 1
    assert checked > 0


@pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
@pytest.mark.parametrize("s", [1, 2, 3])
def test_every_triple_matches_valuation_reference(family, s):
    params = make_params(family, s)
    triples = list(enumerate_standard_exponents(params.m))
    assert triples
    for se in triples:
        assert delta_sigma_cm(params, se) == delta_by_valuations(params, se)


def test_indivisible_congruence_count_is_caught(monkeypatch):
    # the count m*gcd/(n1*n2) is an integer for every valid triple; a wrong
    # gcd must fail loudly instead of being floored into a plausible delta
    params = make_params(Family.SUZUKI, 1)
    m = params.m
    monkeypatch.setattr(singer, "gcd", lambda x, n: 1)
    with pytest.raises(AssertionError, match="not divisible"):
        delta_sigma_cm(params, SigmaCm(m, m, 0))


# the factorizations of m for Suzuki s <= 10 and Ree s <= 7
CURVE_M_FACTORS = [
    make_params(family, s).m_factors
    for family, s_max in ((Family.SUZUKI, 10), (Family.REE, 7))
    for s in range(1, s_max + 1)
]


@st.composite
def divisor_of_curve_m(draw):
    """(factorization of m, n2) with n2 | m for the m of one curve."""
    factors = draw(st.sampled_from(CURVE_M_FACTORS))
    n2 = 1
    for p, e in factors:
        n2 *= p ** draw(st.integers(min_value=0, max_value=e))
    return factors, n2


def around(n):
    """0, values up to 10^40 in size of either sign, and multiples of n."""
    return st.one_of(
        st.just(0),
        st.integers(min_value=-(10**40), max_value=10**40),
        st.integers(min_value=-1000, max_value=1000),
        st.integers(min_value=-(10**30), max_value=10**30).map(lambda k: k * n),
        st.integers(min_value=-1000, max_value=1000).map(lambda k: k * n),
    )


@given(st.data())
@settings(max_examples=500)
def test_gcd_is_the_product_of_capped_valuations(data):
    factors, n2 = data.draw(divisor_of_curve_m())
    x = data.draw(around(n2))
    prod = 1
    for p, _e in factors:
        prod *= p ** int(min(valuation(p, x), valuation(p, n2)))
    assert math.gcd(x, n2) == prod


PRIMES = [p for p in range(2, 200) if is_prime(p)] + sorted(
    {p for factors in CURVE_M_FACTORS for p, _e in factors}
)


@given(st.data())
@settings(max_examples=500)
def test_gcd_with_a_prime_power_is_its_p_part(data):
    p = data.draw(st.sampled_from(PRIMES))
    e = data.draw(st.integers(min_value=1, max_value=6))
    x = data.draw(around(p**e))
    assert math.gcd(x, p**e) == p ** min(valuation(p, x), e)


@st.composite
def synthetic_params(draw):
    """CurveParams with a random small m and q_powers drawn from the residues
    coprime to m; the rest of the fields are not read by the delta formula."""
    m = draw(st.integers(min_value=1, max_value=400))
    units = [x for x in range(m) if math.gcd(x, m) == 1]
    q_powers = draw(st.lists(st.sampled_from(units), min_size=1, max_size=6))
    return CurveParams(
        family=Family.SUZUKI,
        s=1,
        q0=2,
        q=8,
        m=m,
        field_exponent=4,
        ambient_degree=0,
        q_powers=tuple(q_powers),
        aut_order=1,
    )


@given(synthetic_params())
@settings(max_examples=100, deadline=None)
@example(CurveParams(Family.SUZUKI, 1, 2, 8, 360, 4, 0, (1, 7, 49, 343 % 360), 1))
def test_classes_match_delta_sigma_cm_on_synthetic_params(params):
    m = params.m
    members = defaultdict(list)
    for se in enumerate_standard_exponents(m):
        members[se.n1, se.n2].append(se)
    for n1 in divisors(m):
        for n2 in divisors(m):
            block = singer_block(params, n1, n2)
            for key, cls in block.classes.items():
                assert class_key(block, cls.a) == key
            for se in members[n1, n2]:
                cls = block.classes[class_key(block, se.a)]
                member = SigmaCm(n1, n2, cls.a)
                assert delta_sigma_cm(params, se) == delta_sigma_cm(params, member)
            counted = Counter(class_key(block, se.a) for se in members[n1, n2])
            assert counted == {key: c.count for key, c in block.classes.items()}


# curves whose primes synthetic m <= 400 share: m = 5^2 and m = 7^2 * 43
REAL_CURVES = [(Family.SUZUKI, 2), (Family.REE, 3)]


@pytest.fixture(scope="module")
def squares_alone() -> list:
    """evaluate_singer_square of each of REAL_CURVES in a fresh interpreter,
    where no other square was evaluated before."""
    code = (
        "import pickle, sys\n"
        "from skabelund import Family, make_params\n"
        "from skabelund.singer import evaluate_singer_square\n"
        f"curves = {[(f.value, s) for f, s in REAL_CURVES]!r}\n"
        "squares = [evaluate_singer_square(make_params(Family(f), s)) for f, s in curves]\n"
        "print(pickle.dumps(squares).hex())\n"
    )
    src = str(Path(singer.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    return pickle.loads(bytes.fromhex(done.stdout))


@given(params=synthetic_params())
@settings(max_examples=50, deadline=None)
@example(params=CurveParams(Family.SUZUKI, 1, 2, 8, 245, 4, 0, (1, 8, 64, 22), 1))
def test_no_state_leaks_between_squares(squares_alone, params):
    # the synthetic curves fail Riemann-Hurwitz, so only their blocks are
    # evaluated; those share prime tables, which must match fresh ones
    blocks = square_blocks(params)
    spec = standard_exponent_blocks(params.m)
    assert blocks == tuple(singer_block(params, n1, n2) for n1, n2, _step in spec)
    for (family, s), alone in zip(REAL_CURVES, squares_alone, strict=True):
        assert evaluate_singer_square(make_params(family, s)) == alone


def test_reports_compare_and_hash_by_value():
    a, b = compute_spectrum(Family.REE, 2), compute_spectrum(Family.REE, 2)
    assert a == b and hash(a) == hash(b)
    assert a != compute_spectrum(Family.REE, 2, "sigma-cm")


@pytest.mark.parametrize("family,s", [(Family.SUZUKI, 3), (Family.REE, 3)])
def test_walk_formats_each_class_once(family, s):
    square = evaluate_singer_square(make_params(family, s))
    calls = []

    def text_of(record):
        calls.append(record)
        return record

    rows = []
    for block, (values, texts) in zip(square.blocks, square.walk(text_of), strict=True):
        assert values == range(0, block.n2, block.step)
        for a, r in zip(values, texts, strict=True):
            assert r.descriptor[:2] == (block.n1, block.n2)
            rows.append(GenusRecord(SigmaCm(block.n1, block.n2, a), r.order, r.delta, r.genus))
    assert calls == [r for records in square.class_records for r in records.values()]
    # expand() is gated against per-descriptor evaluation above
    assert rows == square.expand()
    assert len(rows) == square.count()


@pytest.mark.parametrize("family,s", WITHIN_CAPS)
def test_sparse_blocks_walk_as_runs_of_one_class(family, s):
    """Exactly the blocks with one residue column and 2*len(residues)+1 <
    rows come as ClassRuns; their runs cover the block's a in order, each a
    under its own class's record, and no two adjacent runs share a class."""
    square = evaluate_singer_square(make_params(family, s))
    run_counts = []
    for block, records, (values, texts) in zip(
        square.blocks, square.class_records, square.walk(lambda r: r), strict=True
    ):
        sparse = len(block.residues) == 1 and 2 * len(block.residues[0]) + 1 < len(values)
        assert (type(texts) is ClassRuns) is sparse
        if not sparse:
            continue
        assert [a for run, _r in texts.runs for a in run] == list(values)
        keys = [class_key(block, run[0]) for run, _r in texts.runs]
        assert all(k != after for k, after in zip(keys, keys[1:]))
        for run, record in texts.runs:
            assert all(records[class_key(block, a)] is record for a in run)
        run_counts.append(len(texts.runs))
    if (family, s) == (Family.REE, 4):
        # m = 19441 is prime: one block holds 19,441 rows.  Its 6 listed
        # residues allow 13 runs; two pairs are adjacent and the last a is
        # listed, so no all-zero run sits between or after them
        assert run_counts == [10]

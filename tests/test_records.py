"""The record classes are plain NamedTuples: their equality, hashing,
immutability, repr text and ordering, the computed attributes of CurveParams
(m_factors, read through the factorize cache) and SpectrumReport (records,
expanded on each read), and what importing the package costs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from skabelund import arith
from skabelund.catalog import (
    B0Cyclic,
    B0Dihedral,
    GenusRecord,
    N2NonSkew,
    N2SkewCyclic,
    N2SkewFull,
    Psl28,
    SigmaCm,
    enumerate_descriptors,
    enumerate_standard_exponents,
)
from skabelund.curves import Family, make_params
from skabelund.iota import CENSUS_TABLE, OrderCensus
from skabelund.singer import SingerSquare
from skabelund.spectrum import (
    REFERENCE_TABLES,
    SpectrumReport,
    TableCheck,
    compute_spectrum,
    evaluate_descriptor,
    verify_tables,
)
from skabelund.suite import OracleCheck

SUZUKI_1 = (
    "CurveParams(family=<Family.SUZUKI: 'suzuki'>, s=1, q0=2, q=8, m=5, "
    "field_exponent=4, ambient_degree=390, q_powers=(1, 3, 4, 2), aut_order=145600)"
)


SRC = str(Path(arith.__file__).resolve().parents[1])


def loaded_in_a_fresh_interpreter(code: str, modules: tuple[str, ...]) -> list[str]:
    """Which of modules a fresh interpreter has loaded after running code."""
    found = f"sorted(set({modules!r}) & set(sys.modules))"
    script = f"import json, sys\n{code}\nprint(json.dumps({found}))"
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    return json.loads(done.stdout.splitlines()[-1])


def test_import_loads_neither_dataclasses_nor_inspect():
    for module in ("skabelund", "skabelund.cli"):
        assert loaded_in_a_fresh_interpreter(f"import {module}", ("dataclasses", "inspect")) == []


ORACLE_MODULES = ("skabelund._kernels", "skabelund.iota", "skabelund.oracle", "skabelund.suite")

# each CLI command in a fresh interpreter: its arguments, the oracle modules it loads
CLI_RUNS = {
    "genus": (["genus", "--family", "ree", "--s", "2", "--descriptor", "n2-skew-full:1,1"], []),
    "spectrum": (["spectrum", "--family", "suzuki", "--s", "1", "--format", "csv"], []),
    "verify-tables": (["verify-tables", "--s-max", "1"], []),
    "oracle": (["oracle", "--family", "suzuki", "--s", "1"], list(ORACLE_MODULES)),
}


@pytest.mark.parametrize("command", CLI_RUNS)
def test_only_the_oracle_command_loads_the_oracle(command):
    args, loaded = CLI_RUNS[command]
    code = f"import skabelund, skabelund.cli\nskabelund.cli.main({args!r})"
    assert loaded_in_a_fresh_interpreter(code, ORACLE_MODULES) == loaded


@pytest.mark.parametrize(
    "one, other",
    [
        (B0Cyclic(3, 5), B0Dihedral(3, 5)),
        (N2SkewFull(2, 7), N2SkewCyclic(2, 7)),
        (Psl28(7), (7,)),
        (SigmaCm(1, 5, 1), (1, 5, 1)),
    ],
)
def test_descriptors_of_different_kinds_are_unequal_and_hash_apart(one, other):
    assert tuple(one) == tuple(other)
    assert one != other and other != one
    assert not (one == other or other == one)
    assert hash(one) != hash(other)
    assert len({one, other}) == 2


def test_descriptors_of_one_kind_compare_by_their_fields():
    assert B0Cyclic(3, 5) == B0Cyclic(d=3, n=5)
    assert not B0Cyclic(3, 5) != B0Cyclic(3, 5)
    assert hash(B0Cyclic(3, 5)) == hash(B0Cyclic(3, 5))
    assert B0Cyclic(3, 5) != B0Cyclic(5, 3)
    assert SigmaCm(1, 5, 1) == SigmaCm(n1=1, n2=5, a=1)


@pytest.mark.parametrize(
    "family, s",
    [(Family.SUZUKI, s) for s in (1, 2, 3)] + [(Family.REE, s) for s in (1, 2, 3)],
)
def test_every_descriptor_of_a_curve_is_a_distinct_set_member(family, s):
    descriptors = enumerate_descriptors(make_params(family, s))
    assert len(set(descriptors)) == len(descriptors)


def _instances():
    params = make_params(Family.SUZUKI, 1)
    se = SigmaCm(1, 5, 1)
    return [
        se,
        B0Cyclic(1, 5),
        B0Dihedral(1, 5),
        Psl28(1),
        N2NonSkew(168, 1),
        N2SkewFull(1, 1),
        N2SkewCyclic(1, 1),
        evaluate_descriptor(params, se),
        CENSUS_TABLE["psl28"],
        REFERENCE_TABLES[0],
        verify_tables(s_max=1)[0],
        OracleCheck("x", True, "d"),
        params,
        compute_spectrum(Family.SUZUKI, 1),
    ]


def test_every_field_of_every_public_class_is_read_only():
    instances = _instances()
    assert len({type(x) for x in instances}) == 14
    for instance in instances:
        assert not hasattr(instance, "__dict__"), type(instance)
        for name in instance._fields:
            with pytest.raises(AttributeError):
                setattr(instance, name, None)
            with pytest.raises(AttributeError):
                delattr(instance, name)


@pytest.mark.parametrize("cached", ["m_factors", "records"])
def test_cached_values_and_new_names_cannot_be_assigned(cached):
    """CurveParams and SpectrumReport have no __dict__: neither a computed
    attribute nor a name that is not a field can be set, and the computed
    value reads the same afterwards."""
    instance = [x for x in _instances() if cached in dir(type(x))][0]
    value = getattr(instance, cached)
    for name in (cached, "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(instance, name, ())
        assert not hasattr(instance, "not_a_field")
    with pytest.raises(AttributeError):
        delattr(instance, cached)
    assert getattr(instance, cached) == value


def test_repr_text_is_unchanged():
    params = make_params(Family.SUZUKI, 1)
    se = SigmaCm(1, 5, 1)
    assert repr(se) == "SigmaCm(n1=1, n2=5, a=1)"
    assert repr(params) == SUZUKI_1
    assert repr(evaluate_descriptor(params, se)) == (
        "GenusRecord(descriptor=SigmaCm(n1=1, n2=5, a=1), "
        "order=5, delta=20, genus=38)"
    )
    assert repr(evaluate_descriptor(params, B0Dihedral(1, 5))) == (
        "GenusRecord(descriptor=B0Dihedral(d=1, n=5), order=10, delta=290, genus=6)"
    )
    # singer and other_records are left out
    report = compute_spectrum(Family.SUZUKI, 1)
    assert repr(report) == (
        f"SpectrumReport(params={SUZUKI_1}, "
        "genera=(0, 2, 6, 8, 14, 28, 38, 40, 92, 196), "
        "families_covered=('sigma-cm', 'b0-cyclic', 'b0-dihedral'), "
        f"completeness_note={report.completeness_note!r})"
    )
    assert repr(OracleCheck("x", True, "d")) == "OracleCheck(name='x', ok=True, detail='d')"


def test_standard_exponents_sort_as_tuples():
    shuffled = [SigmaCm(2, 1, 0), SigmaCm(1, 5, 3), SigmaCm(1, 5, 1)]
    assert sorted(shuffled) == [
        SigmaCm(1, 5, 1),
        SigmaCm(1, 5, 3),
        SigmaCm(2, 1, 0),
    ]
    triples = enumerate_standard_exponents(2107)  # Ree s=3
    assert sorted(reversed(triples)) == triples


def test_defaults_and_keyword_construction():
    assert OrderCensus(4, ((1, 1), (2, 3))).order3_central is None
    params = make_params(Family.SUZUKI, 1)
    report = SpectrumReport(params, (0,), (), "note")
    assert report.singer == SingerSquare((), ()) and report.other_records == ()
    assert report.records == () and report.record_count == 0
    record = GenusRecord(descriptor=Psl28(1), order=504, delta=0, genus=2)
    assert record == GenusRecord(Psl28(1), 504, 0, 2)
    assert TableCheck(REFERENCE_TABLES[0], (), ()).ok


def test_spectrum_report_hash_leaves_out_the_class_tables():
    one = compute_spectrum(Family.SUZUKI, 2)
    other = compute_spectrum(Family.SUZUKI, 2)
    empty = SingerSquare((), ())
    assert one.singer != empty and one == other
    assert hash(one) == hash(other) == hash(one._replace(singer=empty))
    assert one != one._replace(singer=empty)


def test_m_factors_is_computed_lazily_and_once():
    """make_params does not factor m, and reading m_factors any number of
    times, on the curve or on a _replace copy, trial-divides m once per
    process."""
    arith.factorize.cache_clear()
    params = make_params(Family.REE, 2)
    assert arith.factorize.cache_info().misses == 0
    assert params.m_factors == params.m_factors == ((7, 1), (31, 1))
    assert params._replace(s=2).m_factors == params.m_factors
    assert arith.factorize.cache_info().misses == 1


def test_spectrum_factors_m_and_q_minus_1_once_each():
    arith.factorize.cache_clear()
    compute_spectrum(Family.SUZUKI, 3)
    assert arith.factorize.cache_info().misses == 2  # m = 113 and q - 1 = 127


def test_records_are_expanded_lazily(expansions):
    report = compute_spectrum(Family.SUZUKI, 2)
    assert report.record_count == 57 and expansions == []
    assert len(report.records) == report.record_count and len(expansions) == 1

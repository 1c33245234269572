import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import skabelund

from skabelund.catalog import KINDS_BY_NAME, enumerate_descriptors, kind_of
from skabelund.cli import _parse_descriptor, main
from skabelund.curves import Family, make_params


def test_verify_tables_exit_code(capsys):
    assert main(["verify-tables"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 6 and "FAIL" not in out


def test_genus_single_descriptor(capsys):
    assert main(["genus", "--family", "suzuki", "--s", "1",
                 "--descriptor", "sigma-cm:1,5,1"]) == 0
    out = capsys.readouterr().out
    assert "genus=38" in out and "delta=20" in out


def test_genus_ree_descriptors(capsys):
    assert main(["genus", "--family", "ree", "--s", "1",
                 "--descriptor", "psl28:1"]) == 0
    assert "genus=445" in capsys.readouterr().out
    assert main(["genus", "--family", "ree", "--s", "2",
                 "--descriptor", "n2-skew-cyclic:2,31"]) == 0
    assert "order=7 " in capsys.readouterr().out


def test_spectrum_csv_to_file(tmp_path, capsys):
    out_file = tmp_path / "spectrum.csv"
    assert main(["spectrum", "--family", "suzuki", "--s", "1",
                 "--format", "csv", "--out", str(out_file)]) == 0
    lines = out_file.read_text().strip().split("\n")
    assert len(lines) == 17
    assert lines[0].startswith("family,s,q,m,")


@pytest.mark.parametrize("fmt", ["csv", "json", "table"])
def test_spectrum_out_counts_records_without_expanding_them(
    fmt, tmp_path, capsys, monkeypatch, expansions
):
    from skabelund import cli

    original = cli.compute_spectrum
    reports = []

    def capture(*args):
        reports.append(original(*args))
        return reports[-1]

    monkeypatch.setattr(cli, "compute_spectrum", capture)
    out_file = tmp_path / f"spectrum.{fmt}"
    assert main(["spectrum", "--family", "ree", "--s", "2",
                 "--format", fmt, "--out", str(out_file)]) == 0
    (report,) = reports
    assert expansions == []
    assert capsys.readouterr().out == f"wrote {len(report.records)} records to {out_file}\n"
    assert len(report.records) == 392


def test_spectrum_json_stdout(capsys):
    assert main(["spectrum", "--family", "ree", "--s", "1",
                 "--format", "json", "--subgroup-family", "psl28"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema_version"] == 1
    assert [r["genus"] for r in doc["records"]] == [445, 4]


def test_oracle_exit_code(capsys):
    assert main(["oracle", "--family", "suzuki", "--s", "1"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out and "PASS" in out


def test_oracle_max_elements_flag(capsys):
    assert main(["oracle", "--family", "ree", "--s", "1",
                 "--max-elements", "50"]) == 0


@pytest.mark.parametrize("command", ["spectrum", "genus", "oracle"])
def test_help_shows_the_family_names_users_type(command, capsys):
    with pytest.raises(SystemExit) as info:
        main([command, "--help"])
    assert info.value.code == 0
    out = capsys.readouterr().out
    assert "--family {suzuki,ree}" in out and "Family." not in out


@pytest.mark.parametrize("command", ["spectrum", "genus", "oracle"])
def test_an_unknown_family_is_named(command, capsys):
    with pytest.raises(SystemExit) as info:
        main([command, "--family", "SUZUKI", "--s", "1"])
    assert info.value.code == 2
    assert "argument --family: unknown family 'SUZUKI'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args",
    [
        ("genus", "--family", "suzuki", "--s", "1.5", "--descriptor", "sigma-cm:1,5,1"),
        ("spectrum", "--family", "ree", "--s", "1", "--format", "xml"),
        ("verify-tables", "--s-max", "x"),
        ("oracle", "--family", "ree"),
        ("frobnicate",),
        (),
    ],
    ids=["s-not-an-int", "unknown-format", "s-max-not-an-int", "missing-s", "unknown-command",
         "no-command"],
)
def test_argument_errors_are_one_line_without_usage(args, capsys):
    with pytest.raises(SystemExit) as info:
        main(list(args))
    assert info.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("skabelund") and ": error: " in err and "usage:" not in err


def test_s_cap_enforced():
    with pytest.raises(SystemExit):
        main(["spectrum", "--family", "suzuki", "--s", "7"])


def test_s_cap_override_env(monkeypatch, capsys):
    monkeypatch.setenv("SKABELUND_MAX_S", "7")
    assert main(["genus", "--family", "suzuki", "--s", "7",
                 "--descriptor", "b0-cyclic:1,1"]) == 0
    assert "order=1 " in capsys.readouterr().out


def run_cli(*args, **env):
    """The CLI in a fresh interpreter, as a shell would start it."""
    src = str(Path(skabelund.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "skabelund.cli", *args],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": path, **env},
    )


def assert_one_line_error(done, text):
    assert done.returncode != 0
    assert "Traceback" not in done.stderr
    assert done.stderr.strip().count("\n") == 0
    assert text in done.stderr


def test_bad_descriptor_kind():
    for spec, text in (
        ("weyl:1", "unknown descriptor kind 'weyl'"),
        ("sigma-cm:1", "bad parameter count for 'sigma-cm': expected 3 (n1,n2,a), got 1"),
        ("sigma-cm:a,b", "malformed descriptor parameters in 'sigma-cm:a,b'"),
    ):
        done = run_cli("genus", "--family", "suzuki", "--s", "1", "--descriptor", spec)
        assert_one_line_error(done, text)
        assert done.returncode == 1 and done.stdout == ""


def test_descriptor_text_round_trips_through_the_kind_table(capsys):
    """kind:params text of every descriptor parses back to that descriptor,
    and `genus` prints the same text for it."""
    seen = set()
    for family, s in ((Family.SUZUKI, 1), (Family.SUZUKI, 2), (Family.REE, 1), (Family.REE, 2)):
        for descriptor in enumerate_descriptors(make_params(family, s)):
            kind = kind_of(descriptor)
            text = f"{kind.name}:{','.join(map(str, descriptor))}"
            assert _parse_descriptor(text) == descriptor
            assert main(["genus", "--family", family.value, "--s", str(s),
                         "--descriptor", text]) == 0
            assert f" descriptor={text} " in capsys.readouterr().out
            seen.add(kind.name)
    assert seen == set(KINDS_BY_NAME)


@pytest.mark.parametrize(
    "module",
    sorted(m.name for m in pkgutil.walk_packages(skabelund.__path__, "skabelund.")),
)
def test_each_submodule_imports_first(module):
    """The submodule is the first package code a fresh interpreter runs: the
    package is stubbed, so its __init__ imports nothing beforehand."""
    code = (
        "import importlib, sys, types\n"
        "package = types.ModuleType('skabelund')\n"
        "package.__path__ = [sys.argv[1]]\n"
        "sys.modules['skabelund'] = package\n"
        "importlib.import_module(sys.argv[2])\n"
        "importlib.import_module('skabelund.cli')\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, skabelund.__path__[0], module],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr


def test_out_of_range_descriptor_is_a_one_line_error():
    done = run_cli("genus", "--family", "suzuki", "--s", "1", "--descriptor", "sigma-cm:1,5,7")
    assert_one_line_error(done, "a=7 out of range")
    with pytest.raises(SystemExit, match="does not divide q-1"):
        main(["genus", "--family", "suzuki", "--s", "1", "--descriptor", "b0-cyclic:2,1"])
    with pytest.raises(SystemExit, match="'psl28' is a ree kind, not a suzuki one"):
        main(["genus", "--family", "suzuki", "--s", "1", "--descriptor", "psl28:1"])


@pytest.mark.parametrize(
    "name", ["SKABELUND_MAX_S", "SKABELUND_MAX_ELEMENTS", "SKABELUND_MAX_CLOSURE_M"]
)
def test_non_integer_setting_is_a_one_line_error(name):
    done = run_cli("oracle", "--family", "suzuki", "--s", "1", **{name: "lots"})
    assert_one_line_error(done, f"{name} must be an integer, got 'lots'")


def test_oracle_runs_in_a_fresh_process():
    # the suite and the oracle load on the oracle command's first call
    done = run_cli("oracle", "--family", "ree", "--s", "2")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 5 and all(line.startswith("PASS ") for line in lines), lines


def test_zero_max_s_is_rejected(monkeypatch):
    monkeypatch.setenv("SKABELUND_MAX_S", "0")
    with pytest.raises(SystemExit, match="SKABELUND_MAX_S must be at least 1, got 0"):
        main(["spectrum", "--family", "suzuki", "--s", "1"])


def test_oracle_that_checks_nothing_exits_nonzero(capsys, monkeypatch):
    assert main(["oracle", "--family", "ree", "--s", "2", "--max-elements", "0"]) == 1
    out = capsys.readouterr().out
    assert "PASS singer-square" not in out
    assert out.count("FAIL") == 3
    assert out.count("(none within the element cap 0)") == 3
    # the environment's cap has the flag's floor: 0 is accepted
    monkeypatch.setenv("SKABELUND_MAX_ELEMENTS", "0")
    assert main(["oracle", "--family", "ree", "--s", "2"]) == 1
    assert capsys.readouterr().out == out


@pytest.mark.parametrize(
    "args, env, text",
    [
        (("--max-elements", "-1"), {}, "max_elements must be at least 0, got -1"),
        ((), {"SKABELUND_MAX_ELEMENTS": "-1"}, "SKABELUND_MAX_ELEMENTS must be at least 0, got -1"),
        ((), {"SKABELUND_MAX_CLOSURE_M": "-1"}, "SKABELUND_MAX_CLOSURE_M must be at least 0, got -1"),
    ],
    ids=["max-elements-flag", "max-elements-env", "max-closure-m-env"],
)
def test_negative_oracle_cap_is_a_one_line_error(args, env, text):
    done = run_cli("oracle", "--family", "suzuki", "--s", "1", *args, **env)
    assert_one_line_error(done, text)
    assert done.returncode == 1 and done.stdout == ""


@pytest.mark.parametrize(
    "args, text",
    [
        (("verify-tables", "--s-max", "0"), "no reference table has s <= 0"),
        (
            ("spectrum", "--family", "suzuki", "--s", "1", "--subgroup-family", "nope"),
            "unknown subgroup family 'nope'",
        ),
        (
            ("spectrum", "--family", "suzuki", "--s", "1", "--subgroup-family", "psl28"),
            "subgroup family 'psl28' is a ree kind, not a suzuki one",
        ),
        (
            ("spectrum", "--family", "ree", "--s", "1", "--subgroup-family", "b0-cyclic"),
            "subgroup family 'b0-cyclic' is a suzuki kind, not a ree one",
        ),
        (("spectrum", "--family", "suzuki", "--s", "0"), "--s must be at least 1, got 0"),
        (
            ("genus", "--family", "ree", "--s", "0", "--descriptor", "psl28:1"),
            "--s must be at least 1, got 0",
        ),
        (("oracle", "--family", "ree", "--s", "-1"), "--s must be at least 1, got -1"),
    ],
    ids=["verify-tables-s-max-0", "unknown-subgroup-family", "ree-kind-on-suzuki",
         "suzuki-kind-on-ree", "spectrum-s-0", "genus-s-0", "oracle-s-negative"],
)
def test_bad_run_arguments_are_one_line_errors(args, text):
    done = run_cli(*args)
    assert_one_line_error(done, text)
    assert done.returncode == 1 and done.stdout == ""


def test_spectrum_out_to_an_unwritable_path_is_a_one_line_error(tmp_path):
    target = tmp_path / "no-such-dir" / "x.csv"
    done = run_cli("spectrum", "--family", "suzuki", "--s", "1", "--out", str(target))
    assert_one_line_error(done, f"cannot write {target}")
    assert done.returncode == 1 and done.stdout == ""
    assert not target.parent.exists()


def test_an_invalid_singer_square_triple_is_named_as_a_sigma_cm():
    done = run_cli("genus", "--family", "suzuki", "--s", "1", "--descriptor", "sigma-cm:5,5,1")
    assert_one_line_error(done, "n1*n2 must divide a*m")
    assert done.stderr.rstrip("\n").endswith("SigmaCm(n1=5, n2=5, a=1)")
    assert done.stdout == ""

"""Command-line interface.

Subcommands:
  spectrum       compute genus records for one curve and export them
  verify-tables  check the embedded reference genera against computed spectra
  genus          evaluate a single descriptor, e.g. sigma-cm:1,5,1
  oracle         run every brute-force/closed-form equivalence for one curve

Exit status is 0 for success and 1 when a verification fails.  Default
curve-size caps (s <= 6 Suzuki, s <= 5 Ree) bound runtimes; override with
--allow-large-s or the SKABELUND_MAX_S environment variable.  A setting
that is not a valid integer, an s below 1, a negative oracle cap
(--max-elements, SKABELUND_MAX_ELEMENTS, SKABELUND_MAX_CLOSURE_M: the
settings module refuses each, and main prints its SettingError), a
--subgroup-family that is unknown or belongs to the other curve family, a
descriptor the curve does not have, or a verify-tables run that selects no
table ends the run with a one-line message and exit status 1.  An argument
argparse refuses (an unknown command, option or choice, a value that is not
an integer, a missing required option) is a one-line error with status 2.
"""

from __future__ import annotations

import argparse
import sys

from .catalog import KINDS_BY_NAME, kind_of
from .curves import Family, make_params
from .settings import SettingError, max_s
from .spectrum import (
    compute_spectrum,
    evaluate_descriptor,
    render_csv,
    render_json,
    render_table,
    run_oracle_suite,
    verify_tables,
)


def _family(name: str) -> Family:
    try:
        return Family(name)
    except ValueError:
        raise argparse.ArgumentTypeError(f"unknown family {name!r}") from None


def _check_s_cap(family: Family, s: int, allow_large: bool) -> None:
    if s < 1:
        raise SystemExit(f"--s must be at least 1, got {s}")
    cap = max_s(family)
    if s > cap and not allow_large:
        raise SystemExit(
            f"s={s} exceeds the default cap {cap} for {family.value}; "
            "pass --allow-large-s to proceed"
        )


def _parse_descriptor(spec: str):
    name, _, raw = spec.partition(":")
    try:
        values = [int(v) for v in raw.split(",")] if raw else []
    except ValueError:
        raise SystemExit(f"malformed descriptor parameters in {spec!r}") from None
    kind = KINDS_BY_NAME.get(name)
    if kind is None:
        raise SystemExit(f"unknown descriptor kind {name!r}")
    fields = kind.cls._fields
    if len(values) != len(fields):
        raise SystemExit(
            f"bad parameter count for {name!r}: expected {len(fields)} "
            f"({','.join(fields)}), got {len(values)}"
        )
    return kind.cls(*values)


def _cmd_spectrum(args) -> int:
    _check_s_cap(args.family, args.s, args.allow_large_s)
    try:
        report = compute_spectrum(args.family, args.s, args.subgroup_family)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    text = {"csv": render_csv, "json": render_json, "table": render_table}[args.format](report)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise SystemExit(f"cannot write {args.out}: {exc.strerror}") from None
        print(f"wrote {report.record_count} records to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_verify_tables(args) -> int:
    checks = verify_tables(s_max=args.s_max)
    if not checks:
        raise SystemExit(f"no reference table has s <= {args.s_max}")
    failed = False
    for check in checks:
        t = check.table
        label = f"table {t.source_table} ({t.family.value} s={t.s})"
        if check.ok:
            print(f"PASS {label}: all {len(t.expected_genera)} genera reproduced")
        else:
            failed = True
            for miss, near in zip(check.missing, check.nearest):
                print(f"FAIL {label}: genus {miss} missing (nearest computed: {near})")
    return 1 if failed else 0


def _cmd_genus(args) -> int:
    _check_s_cap(args.family, args.s, args.allow_large_s)
    params = make_params(args.family, args.s)
    descriptor = _parse_descriptor(args.descriptor)
    try:
        record = evaluate_descriptor(params, descriptor)
    except ValueError as exc:
        raise SystemExit(f"invalid descriptor {args.descriptor!r}: {exc}") from None
    ps = ",".join(map(str, descriptor))
    print(
        f"family={params.family.value} s={params.s} q={params.q} m={params.m} "
        f"descriptor={kind_of(descriptor).name}:{ps} "
        f"order={record.order} delta={record.delta} genus={record.genus}"
    )
    return 0


def _cmd_oracle(args) -> int:
    _check_s_cap(args.family, args.s, args.allow_large_s)
    checks = run_oracle_suite(args.family, args.s, max_elements=args.max_elements)
    failed = False
    for check in checks:
        status = "PASS" if check.ok else "FAIL"
        failed |= not check.ok
        print(f"{status} {check.name}: {check.detail}")
    return 1 if failed else 0


class _Parser(argparse.ArgumentParser):
    """Reports a bad argument in one line, without the usage text; exit status 2."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(  # add_subparsers gives its parsers this class too
        prog="skabelund",
        description="Genera of Galois subcovers of the Skabelund maximal curves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # the curve options of spectrum, genus and oracle
    curve = argparse.ArgumentParser(add_help=False)
    names = "{" + ",".join(f.value for f in Family) + "}"
    curve.add_argument("--family", type=_family, required=True, metavar=names)
    curve.add_argument("--s", type=int, required=True)
    curve.add_argument("--allow-large-s", action="store_true")

    sp = sub.add_parser("spectrum", parents=[curve], help="compute and export a genus spectrum")
    sp.add_argument("--subgroup-family", default=None, help="restrict to one kind")
    sp.add_argument("--format", choices=("csv", "json", "table"), default="table")
    sp.add_argument("--out", default=None, help="write to file instead of stdout")
    sp.set_defaults(func=_cmd_spectrum)

    vt = sub.add_parser("verify-tables", help="verify the embedded reference genera")
    vt.add_argument("--s-max", type=int, default=4)
    vt.set_defaults(func=_cmd_verify_tables)

    gn = sub.add_parser("genus", parents=[curve], help="evaluate one subgroup descriptor")
    gn.add_argument("--descriptor", required=True, help="kind:params, e.g. sigma-cm:1,5,1")
    gn.set_defaults(func=_cmd_genus)

    orc = sub.add_parser("oracle", parents=[curve], help="run brute-force equivalence checks")
    orc.add_argument("--max-elements", type=int, default=None)
    orc.set_defaults(func=_cmd_oracle)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SettingError as exc:
        raise SystemExit(str(exc)) from None


if __name__ == "__main__":
    sys.exit(main())

"""The rows of the CSV, JSON and table exports, and the records of the JSON
document, read from a SpectrumReport's class tables.

spectrum imports this module on the first export, so computing spectra and
verify_tables neither compile it nor build its decimal tables.

lines is the one row path of the three formats.  Every row, of any kind, is
before + str(last parameter of the descriptor) + after, (before, after)
being the renderer's text of the row's class; but no last parameter is
passed to str: decimals spells a range of them as chunks of one digit
count, each a prefix (the thousands) and one slice of a table of 1000
decimal suffixes.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from itertools import chain, islice, repeat, starmap
from typing import TYPE_CHECKING

from .catalog import GenusRecord, kind_of
from .singer import ClassRuns

if TYPE_CHECKING:
    from .spectrum import SpectrumReport

RowText = Callable[[GenusRecord], tuple[str, str]]

_SMALL = [str(i) for i in range(1000)]
_PADDED = [f"{i:03}" for i in range(1000)]


def decimals(values: range) -> Iterator[tuple[str, list[str]]]:
    """values in order as (prefix, suffixes) chunks, prefix + suffix being
    str(v) for each v, and every suffix of a chunk of one length.

    The values below 1000 come in chunks split at 10 and 100, each one slice
    of the table of str(0..999), under the prefix ""; those of each later
    thousand h come as one slice of the table of f"{i:03}", under str(h).
    """
    assert values.start >= 0 and values.step > 0, f"{values} has a negative value or step"
    at = values.start
    while at < values.stop:
        h, lo = divmod(at, 1000)
        # a chunk of the small table ends where the digit count grows
        prefix, table, top = (str(h), _PADDED, 1000) if h else ("", _SMALL, 10 ** len(_SMALL[lo]))
        suffixes = table[lo : min(top, lo + values.stop - at) : values.step]
        yield prefix, suffixes
        at += len(suffixes) * values.step


def lines(report: SpectrumReport, text_of: RowText, width: int = 0) -> Iterator[str]:
    """The rows in catalog order as strings, each ending in the row
    separator that ends every after of text_of, so that an export is one
    "".join; with width, before + str(v) is left-justified to width columns.

    The rows come as runs of (values, texts), row i being before + str(v) +
    after for the i-th v and text: one run per Singer block, its texts
    formatted once per class by SingerSquare.walk, and a run of one value
    per other record.  decimals gives each run's values as chunks of one
    digit count, so a chunk's pad to width is one string.  A chunk's rows
    are (prefix + suffix).join((before, after)) in map, so no Python frame
    runs per row; the rows of a run share one before length (a Singer
    block's kind and n1, n2), so the first row's before gives the pad.  A
    ClassRuns gives each run of one class as three pieces per chunk: before
    + prefix, the suffixes joined by pad + after + before + prefix, and pad
    + after.
    """

    def pieces(values, texts):
        if type(texts) is ClassRuns:
            for run, (before, after) in texts.runs:
                for prefix, suffixes in decimals(run):
                    lead = before + prefix
                    tail = " " * (width - len(lead) - len(suffixes[0])) + after
                    yield lead, (tail + lead).join(suffixes), tail
            return
        texts = iter(texts)
        first = next(texts)  # every run has a row
        texts = chain((first,), texts)
        for prefix, suffixes in decimals(values):
            seps = map(prefix.__add__, suffixes)
            pad = " " * (width - len(first[0]) - len(prefix) - len(suffixes[0]))
            if pad:  # only the table pads, and only its shorter values
                seps = map(str.__add__, seps, repeat(pad))
            yield map(str.join, seps, islice(texts, len(suffixes)))

    others = (
        (range(r.descriptor[-1], r.descriptor[-1] + 1), (text_of(r),))
        for r in report.other_records
    )
    runs = starmap(pieces, chain(report.singer.walk(text_of), others))
    return chain.from_iterable(chain.from_iterable(runs))


def records(report: SpectrumReport) -> list[dict]:
    """json.loads(render_json(report))["records"]: one dict per record, its
    keys in render_json's order, each Singer row's built from its class's
    fields, with no GenusRecord built per row."""

    def fields(r):
        return r.delta, r.genus, kind_of(r.descriptor).name, r.order

    singer = report.singer
    rows = chain(
        (
            ([b.n1, b.n2, a], f)
            for b, (values, texts) in zip(singer.blocks, singer.walk(fields))
            for a, f in zip(values, texts)
        ),
        (([*r.descriptor], fields(r)) for r in report.other_records),
    )
    return [
        {"delta": d, "genus": g, "kind": k, "order": o, "params": p} for p, (d, g, k, o) in rows
    ]

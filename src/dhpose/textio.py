"""The one line reader of every text format the program reads, and its one
error, ``ParseError``, naming the file and the line (rules: README "Data files")."""

from __future__ import annotations

import math
import re
from typing import Iterable, Iterator, NamedTuple, Optional


# what an int or float token may be: ASCII only, so Python's underscores and
# non-ASCII digits are refused, and inf/nan reach the non-finite check
_NUMBER = re.compile(r"[+-]?([0-9.eE+-]+|inf(inity)?|nan)", re.ASCII | re.IGNORECASE)


class ParseError(ValueError):
    """A malformed input file, located by line or, in a binary payload, by byte offset."""

    def __init__(self, source, line_no: Optional[int], reason: str, offset: Optional[int] = None):
        self.line_no = line_no
        self.offset = offset
        where = (f" at byte {offset}" if offset is not None
                 else f" at line {line_no}" if line_no is not None else "")
        super().__init__(f"{source}: parse error{where}: {reason}")


def decode(source, raw: bytes, line_no: int) -> str:
    """``raw`` as UTF-8 text; other bytes raise ``ParseError`` at ``line_no``."""
    try:
        return raw.decode()
    except UnicodeDecodeError as exc:
        raise ParseError(source, line_no, f"not UTF-8 text: byte {raw[exc.start]:#04x} "
                                          f"at column {exc.start + 1}") from exc


class Record(NamedTuple):
    """The tokens of one line, and where the line is."""

    source: object
    line_no: int
    tokens: list[str]

    def error(self, reason: str) -> ParseError:
        return ParseError(self.source, self.line_no, reason)

    def fields(self, *kinds) -> list:
        """One value per token: a type (``int``, ``float``, ``str``) converts
        its token, a string is a keyword the token must equal.  A wrong token
        count, a number that is not ASCII (``_NUMBER``), a failed conversion or
        a non-finite float raises ``ParseError``."""
        if len(self.tokens) != len(kinds):
            raise self.error(f"expected {len(kinds)} fields, got {len(self.tokens)}")
        out = []
        for i, (kind, tok) in enumerate(zip(kinds, self.tokens), start=1):
            if isinstance(kind, str) and tok != kind:
                raise self.error(f"expected {kind!r} in field {i}, got {tok!r}")
            if kind in (int, float) and not _NUMBER.fullmatch(tok):
                raise self.error(f"bad {kind.__name__} {tok!r} in field {i}")
            try:
                value = tok if isinstance(kind, str) else kind(tok)
            except ValueError as exc:
                raise self.error(f"bad {kind.__name__} {tok!r} in field {i}") from exc
            if kind is float and not math.isfinite(value):
                raise self.error(f"non-finite value {tok!r} in field {i}")
            out.append(value)
        return out


def records(lines: Iterable[str | bytes], source) -> Iterator[Record]:
    """A ``Record`` for each of ``lines`` (numbered from 1) with a token
    before any ``#``; lines of bytes are decoded first."""
    for line_no, line in enumerate(lines, start=1):
        if isinstance(line, bytes):
            line = decode(source, line, line_no)
        tokens = line.split("#", 1)[0].split()
        if tokens:
            yield Record(source, line_no, tokens)


def dense(entries: Iterable[tuple[Record, int, object]], what: str, source) -> list:
    """The values of ``(record, id, value)`` entries in id order.  Ids must
    run 0..N-1: a negative, repeated or skipped id raises ``ParseError`` at
    its record's line, and no entries raise one naming ``source``."""
    by_id: dict[int, tuple[Record, object]] = {}
    for rec, i, value in entries:
        if i < 0:
            raise rec.error(f"negative {what} id {i}")
        if i in by_id:
            raise rec.error(f"{what} {i} already given at line {by_id[i][0].line_no}")
        by_id[i] = (rec, value)
    if not by_id:
        raise ParseError(source, None, f"no {what} lines")
    for i in range(len(by_id)):
        if i not in by_id:
            after = min(k for k in by_id if k > i)
            raise by_id[after][0].error(f"{what} {after} given but {what} {i} is missing")
    return [by_id[i][1] for i in range(len(by_id))]

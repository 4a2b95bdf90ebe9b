"""Grammar and data model for SLURM general-resource (GRES) expressions.

A GRES expression is a comma-separated list of segments, each of the form
``name[:subtype][:count]``, as emitted by ``sinfo -o "%G"`` and accepted by
``--gres=`` requests.  Examples:

    gpu:k80ce:4,mps:no_consume:1,gpuexcl:no_consume:1
    gpu:v100:2
    hbm:16G
    hbm:0

Counts may carry a binary unit suffix (K, M, G, T, P; 1024-based, following
SLURM's memory-style convention), which is preserved verbatim so that
rendering reproduces the original text exactly.

:func:`surely_parses` accepts a well-formed line with one regular-expression
match built from the same grammar.  It is a sufficient check only: a line it
does not accept may still be valid, and :func:`parse_gres_expression` stays
the one source of verdicts for such lines and of every error message.
:func:`lines_satisfying` finds, with one scan of many lines, those that
hold a segment satisfying one requested entry, reading each segment as the
parser does.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from collections.abc import Iterable, Iterator, Sequence
from itertools import accumulate

from ._record import Record, set_field

__all__ = [
    "GresEntry",
    "GresList",
    "GresParseError",
    "EmptySegment",
    "MalformedCount",
    "TooManyFields",
    "lines_satisfying",
    "parse_gres_expression",
    "render_gres_expression",
    "surely_parses",
    "total_capacity",
]

_COUNT = "[0-9]+[KMGTP]?"
_COUNT_RE = re.compile(_COUNT)
_SEGMENT = f"[^,:]+(?::[^,:]+(?::{_COUNT})?)?"
_LINE_RE = re.compile(f"{_SEGMENT}(?:,{_SEGMENT})*")
# A segment's optional second and third tokens, up to the next "," or the end.
_TOKENS_AFTER_NAME = "(?::([^,:]+))?(?::([^,:]+))?(?![^,])"
# CPython's lowest int digit limit (``sys.set_int_max_str_digits``), so int()
# converts every count in a line of at most this many characters.
_SURE_CHARS = 640
_SUFFIX_RANK = {"K": 1, "M": 2, "G": 3, "T": 4, "P": 5}
# How the parser builds the entries it has already checked, skipping their re-parse.
_new = object.__new__


class GresParseError(ValueError):
    """A GRES expression violates the ``name[:subtype][:count]`` grammar."""

    def __init__(self, message: str, segment_index: int):
        super().__init__(f"segment {segment_index}: {message}")
        self.segment_index = segment_index


class EmptySegment(GresParseError):
    """A segment between commas, or a field between colons, is empty."""


class MalformedCount(GresParseError):
    """A count token does not match ``[0-9]+[KMGTP]?``."""


class TooManyFields(GresParseError):
    """A segment has more than three colon-separated tokens."""


def surely_parses(text: str) -> bool:
    """True only if :func:`parse_gres_expression` accepts ``text``.

    False means the parser must decide: the line is malformed, empty or
    longer than 640 characters.
    """
    return len(text) <= _SURE_CHARS and _LINE_RE.fullmatch(text) is not None


def lines_satisfying(want: GresEntry, lines: Sequence[str]) -> Iterator[str]:
    """Each line of ``lines``, once and in order, with a segment that alone
    satisfies ``want``: ``want``'s name, its subtype when it names one, and
    a count at least as large.  No line left out could satisfy ``want``.

    One compiled pattern scans the lines joined by ``,``.  A found segment
    runs from the text's start or a ``,`` to the next ``,`` or the text's
    end, so it never spans two lines, and its tokens are read as the parser
    reads them.  A segment with an empty token, more than three tokens, or
    a malformed or over-long count is skipped: its line does not parse.
    """
    text = ",".join(lines)
    ends = None
    last = -1
    for found in re.compile(re.escape(want.name) + _TOKENS_AFTER_NAME).finditer(text):
        start = found.start()
        if start != 0 and text[start - 1] != ",":
            continue
        subtype, literal = _read_tokens(*found.groups())
        if want.subtype is not None and subtype != want.subtype:
            continue
        try:
            count = 1 if literal is None else expand_count(literal)
        except ValueError:  # a malformed or over-long count: the line does not parse
            continue
        if count < want.count:
            continue
        if ends is None:
            ends = list(accumulate(map(len, lines)))
        # Line i ends at ends[i] + i in the joined text: one "," per line before it.
        index = bisect_left(range(len(lines)), start, key=lambda i: ends[i] + i)
        if index != last:
            last = index
            yield lines[index]


def _read_tokens(second: str | None, third: str | None = None) -> tuple[str | None, str | None]:
    # (subtype, count literal) of a segment's second and third tokens, by the
    # grammar's two-token rule: a lone second token that is a count literal
    # is the count, and any other is the subtype.
    if third is None and second is not None and _COUNT_RE.fullmatch(second):
        return None, second
    return second, third


def expand_count(literal: str) -> int:
    """Expand a count literal such as ``16G`` into its base-unit integer.

    The suffix multiplier is 1024 to the power of the suffix rank
    (K=1 ... P=5); a bare number has rank 0.
    """
    if not _COUNT_RE.fullmatch(literal):
        raise ValueError(f"not a count literal: {literal!r}")
    return _count_value(literal)


def _count_value(literal: str) -> int:
    # ``literal`` has already matched _COUNT_RE.
    if literal[-1] in _SUFFIX_RANK:
        return int(literal[:-1]) * 1024 ** _SUFFIX_RANK[literal[-1]]
    return int(literal)


class GresEntry(Record):
    """One parsed GRES segment.

    ``count_literal`` is the count token exactly as written (digits plus
    optional suffix), or ``None`` when the segment carried no count at all;
    an omitted count means 1.  Keeping the literal makes rendering lossless:
    ``gpu`` and ``gpu:1`` parse to distinct entries and render back to their
    original forms, as do suffixed counts like ``16G``.
    """

    __slots__ = __match_args__ = ("name", "subtype", "count", "count_literal")

    def __init__(self, name: str, subtype: str | None = None, count: int = 1, count_literal: str | None = None):
        set_field(self, "name", name)
        set_field(self, "subtype", subtype)
        set_field(self, "count", count)
        set_field(self, "count_literal", count_literal)
        # The parser builds its entries without this check, so this does not recurse.
        if parse_gres_expression(str(self)).entries != (self,):
            raise ValueError(f"{self!r} does not parse back from {str(self)!r}")

    @property
    def count_suffix(self) -> str | None:
        """Unit suffix of the count literal (one of K, M, G, T, P), if any."""
        if self.count_literal and self.count_literal[-1] in _SUFFIX_RANK:
            return self.count_literal[-1]
        return None

    def __str__(self) -> str:
        parts = [self.name]
        if self.subtype is not None:
            parts.append(self.subtype)
        if self.count_literal is not None:
            parts.append(self.count_literal)
        return ":".join(parts)


class GresList(Record):
    """An ordered list of GRES entries; order is preserved exactly as parsed."""

    __slots__ = __match_args__ = ("entries",)

    def __init__(self, entries: tuple[GresEntry, ...] = ()):
        set_field(self, "entries", entries)

    def __iter__(self) -> Iterator[GresEntry]:
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __str__(self) -> str:
        return ",".join(str(entry) for entry in self.entries)


def parse_gres_expression(text: str) -> GresList:
    """Parse a single-line GRES expression into a :class:`GresList`.

    Splits on ``,``; each segment splits on ``:`` into one to three tokens
    read as ``name[:subtype][:count]``.  In the two-token form the second
    token is a count when it matches ``[0-9]+[KMGTP]?`` and a subtype
    otherwise.  An omitted count defaults to 1.  The empty string parses to
    an empty list.

    Raises :class:`EmptySegment`, :class:`MalformedCount` or
    :class:`TooManyFields`; empty fields inside a segment (``gpu:`` or
    ``:v100``) report as :class:`EmptySegment`, and a count with more digits
    than ``int`` converts as :class:`MalformedCount`.
    """
    if text == "":
        return GresList()
    entries = []
    for index, segment in enumerate(text.split(",")):
        if segment == "":
            raise EmptySegment("empty segment", index)
        tokens = segment.split(":")
        if len(tokens) > 3:
            raise TooManyFields(f"{len(tokens)} fields in {segment!r}", index)
        name = tokens[0]
        if name == "":
            raise EmptySegment(f"empty name in {segment!r}", index)
        subtype: str | None = None
        literal: str | None = None
        if len(tokens) == 2:
            if tokens[1] == "":
                raise EmptySegment(f"empty field in {segment!r}", index)
            subtype, literal = _read_tokens(tokens[1])
        elif len(tokens) == 3:
            subtype = tokens[1]
            if subtype == "":
                raise EmptySegment(f"empty subtype in {segment!r}", index)
            literal = tokens[2]
            if not _COUNT_RE.fullmatch(literal):
                raise MalformedCount(f"bad count {literal!r} in {segment!r}", index)
        count = 1
        if literal is not None:
            try:
                count = _count_value(literal)
            except ValueError:  # more digits than int() will convert
                raise MalformedCount(
                    f"count of {len(literal)} characters in {name!r} is too long", index
                ) from None
        entry = _new(GresEntry)
        set_field(entry, "name", name)
        set_field(entry, "subtype", subtype)
        set_field(entry, "count", count)
        set_field(entry, "count_literal", literal)
        entries.append(entry)
    return GresList(tuple(entries))


def render_gres_expression(gres_list: GresList) -> str:
    """Render a :class:`GresList` back to its comma/colon joined wire form.

    Count literals are re-emitted verbatim, so rendering the result of
    :func:`parse_gres_expression` reproduces the input exactly.
    """
    return str(gres_list)


def total_capacity(
    lists: Iterable[GresList],
    resource_name: str,
    subtype_filter: str | None = None,
) -> int:
    """Sum the counts of all entries matching ``resource_name`` (and, when
    given, ``subtype_filter``) across a collection of GRES lists.

    Unmatched names yield 0.
    """
    return sum(
        entry.count
        for gres_list in lists
        for entry in gres_list
        if entry.name == resource_name
        and (subtype_filter is None or entry.subtype == subtype_filter)
    )

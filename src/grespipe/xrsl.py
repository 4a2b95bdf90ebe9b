"""Minimal XRSL job-description parser.

Only the conjunction form is supported:

    &(executable="hello.sh")(jobName="gpu-hello")(runTimeEnvironment="KGPU6")

Attribute values are double-quoted strings or bare words; ``(* ... *)``
comments are skipped between tokens and are plain text inside a quoted
string.  Recognized attributes: executable, arguments, jobName, count,
runTimeEnvironment, stdout, stderr (case-insensitive).  Repeated
runTimeEnvironment attributes accumulate in order; unknown attributes are
ignored with an :class:`UnknownAttributeWarning`.
"""

from __future__ import annotations

import re
import warnings

from ._record import Record, set_field
from ._text import ascii_int

__all__ = [
    "JobDescription",
    "XrslError",
    "XrslSyntaxError",
    "MissingExecutable",
    "UnknownAttributeWarning",
    "parse_xrsl",
]

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_BARE_WORD_RE = re.compile(r'[^ \t\r\n()"=]+')
_GAP_RE = re.compile(r"\s*")
# The single-valued attributes that are plain text, lower-cased, and the JobDescription field each sets.
_SINGLE_VALUED = {"executable": "executable", "jobname": "job_name", "stdout": "stdout_name", "stderr": "stderr_name"}


class XrslError(Exception):
    """Base class for job-description problems."""


class XrslSyntaxError(XrslError):
    """Malformed XRSL text; ``position`` is the character offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at offset {position}")
        self.position = position


class MissingExecutable(XrslError):
    """The description supplies no usable executable."""


class UnknownAttributeWarning(UserWarning):
    """An attribute outside the supported subset was skipped."""


class JobDescription(Record):
    __slots__ = __match_args__ = ("executable", "arguments", "job_name", "count", "runtime_environments",
                                  "stdout_name", "stderr_name")

    def __init__(
        self, executable: str, arguments: tuple[str, ...] = (), job_name: str | None = None, count: int = 1,
        runtime_environments: tuple[str, ...] = (), stdout_name: str | None = None, stderr_name: str | None = None,
    ):
        set_field(self, "executable", executable)
        set_field(self, "arguments", arguments)
        set_field(self, "job_name", job_name)
        set_field(self, "count", count)
        set_field(self, "runtime_environments", runtime_environments)
        set_field(self, "stdout_name", stdout_name)
        set_field(self, "stderr_name", stderr_name)
        if not self.executable:
            raise ValueError("executable must be non-empty")
        if self.count < 1:
            raise ValueError("count must be at least 1")


def _skip(text: str, pos: int) -> int:
    """Return the offset after the whitespace and ``(* ... *)`` comments at ``pos``."""
    pos = _GAP_RE.match(text, pos).end()
    while text.startswith("(*", pos):
        closing = text.find("*)", pos + 2)
        if closing == -1:
            raise XrslSyntaxError("unterminated comment", pos)
        pos = _GAP_RE.match(text, closing + 2).end()
    return pos


def _read_clauses(text: str) -> list[tuple[str, list[str], int]]:
    pos = _skip(text, 0)
    if not text.startswith("&", pos):
        raise XrslSyntaxError("expected '&'", pos)
    clauses = []
    pos = _skip(text, pos + 1)
    while pos < len(text):
        clause_start = pos
        if text[pos] != "(":
            raise XrslSyntaxError("expected '('", pos)
        pos = _skip(text, pos + 1)
        name = _NAME_RE.match(text, pos)
        if not name:
            raise XrslSyntaxError("expected attribute name", pos)
        pos = _skip(text, name.end())
        if not text.startswith("=", pos):
            raise XrslSyntaxError("expected '='", pos)
        values = []
        pos = _skip(text, pos + 1)
        while not text.startswith(")", pos):
            if pos == len(text):
                raise XrslSyntaxError("unbalanced parentheses", clause_start)
            if text[pos] == "(":
                raise XrslSyntaxError("unexpected '('", pos)
            if text[pos] == '"':
                closing = text.find('"', pos + 1)
                if closing == -1:
                    raise XrslSyntaxError("unterminated string", pos)
                values.append(text[pos + 1 : closing])
                pos = closing + 1
            else:
                word = _BARE_WORD_RE.match(text, pos)
                if not word:
                    raise XrslSyntaxError("expected a value", pos)
                values.append(word.group())
                pos = word.end()
            pos = _skip(text, pos)
        clauses.append((name.group(), values, clause_start))
        pos = _skip(text, pos + 1)
    return clauses


def _single(name: str, values: list[str], position: int) -> str:
    if len(values) != 1:
        raise XrslSyntaxError(f"attribute {name!r} takes exactly one value", position)
    return values[0]


def parse_xrsl(text: str) -> JobDescription:
    """Parse XRSL text into a :class:`JobDescription`.

    Raises :class:`XrslSyntaxError` (with position) for malformed input and
    :class:`MissingExecutable` when no executable attribute is supplied.
    """
    fields: dict = {}  # only what the description gives; JobDescription holds the defaults
    arguments, runtime_environments = [], []
    for name, values, position in _read_clauses(text):
        key = name.lower()
        if key in _SINGLE_VALUED:
            fields[_SINGLE_VALUED[key]] = _single(name, values, position)
        elif key == "arguments":
            if not values:
                raise XrslSyntaxError("attribute 'arguments' takes values", position)
            arguments += values
        elif key == "count":
            value = _single(name, values, position)
            count = ascii_int(value)
            if count is None or count < 1:
                raise XrslSyntaxError(f"count must be a positive integer, got {value!r}", position)
            fields["count"] = count
        elif key == "runtimeenvironment":
            runtime_environments.append(_single(name, values, position))
        else:
            warnings.warn(f"ignoring unknown attribute {name!r}", UnknownAttributeWarning, stacklevel=2)
    if not fields.get("executable"):
        raise MissingExecutable("job description supplies no executable")
    return JobDescription(arguments=tuple(arguments), runtime_environments=tuple(runtime_environments), **fields)

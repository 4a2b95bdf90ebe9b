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
from dataclasses import dataclass

__all__ = [
    "JobDescription",
    "XrslError",
    "XrslSyntaxError",
    "MissingExecutable",
    "UnknownAttributeWarning",
    "parse_xrsl",
]

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_BARE_WORD_END = set(' \t\r\n()"=')


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


@dataclass(frozen=True)
class JobDescription:
    executable: str
    arguments: tuple[str, ...] = ()
    job_name: str | None = None
    count: int = 1
    runtime_environments: tuple[str, ...] = ()
    stdout_name: str | None = None
    stderr_name: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "arguments", tuple(self.arguments))
        object.__setattr__(self, "runtime_environments", tuple(self.runtime_environments))
        if not self.executable:
            raise ValueError("executable must be non-empty")
        if self.count < 1:
            raise ValueError("count must be at least 1")


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        """Skip whitespace and ``(* ... *)`` comments."""
        while self.pos < len(self.text):
            if self.text[self.pos].isspace():
                self.pos += 1
            elif self.text.startswith("(*", self.pos):
                closing = self.text.find("*)", self.pos + 2)
                if closing == -1:
                    raise XrslSyntaxError("unterminated comment", self.pos)
                self.pos = closing + 2
            else:
                return

    def at_end(self) -> bool:
        return self.pos >= len(self.text)

    def peek(self) -> str:
        return self.text[self.pos]

    def expect(self, char: str, what: str) -> None:
        if self.at_end() or self.text[self.pos] != char:
            raise XrslSyntaxError(f"expected {what}", self.pos)
        self.pos += 1

    def read_name(self) -> str:
        match = _NAME_RE.match(self.text, self.pos)
        if not match:
            raise XrslSyntaxError("expected attribute name", self.pos)
        self.pos = match.end()
        return match.group()

    def read_value(self) -> str:
        if self.peek() == '"':
            closing = self.text.find('"', self.pos + 1)
            if closing == -1:
                raise XrslSyntaxError("unterminated string", self.pos)
            value = self.text[self.pos + 1 : closing]
            self.pos = closing + 1
            return value
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] not in _BARE_WORD_END:
            self.pos += 1
        if self.pos == start:
            raise XrslSyntaxError("expected a value", self.pos)
        return self.text[start : self.pos]


def _read_clauses(text: str) -> list[tuple[str, list[str], int]]:
    scanner = _Scanner(text)
    scanner.skip_ws()
    scanner.expect("&", "'&'")
    clauses = []
    while True:
        scanner.skip_ws()
        if scanner.at_end():
            return clauses
        clause_start = scanner.pos
        scanner.expect("(", "'('")
        scanner.skip_ws()
        name = scanner.read_name()
        scanner.skip_ws()
        scanner.expect("=", "'='")
        values = []
        while True:
            scanner.skip_ws()
            if scanner.at_end():
                raise XrslSyntaxError("unbalanced parentheses", clause_start)
            if scanner.peek() == ")":
                scanner.pos += 1
                break
            if scanner.peek() == "(":
                raise XrslSyntaxError("unexpected '('", scanner.pos)
            values.append(scanner.read_value())
        clauses.append((name, values, clause_start))


def _single(name: str, values: list[str], position: int) -> str:
    if len(values) != 1:
        raise XrslSyntaxError(f"attribute {name!r} takes exactly one value", position)
    return values[0]


def parse_xrsl(text: str) -> JobDescription:
    """Parse XRSL text into a :class:`JobDescription`.

    Raises :class:`XrslSyntaxError` (with position) for malformed input and
    :class:`MissingExecutable` when no executable attribute is supplied.
    """
    fields: dict = {
        "executable": None,
        "arguments": [],
        "job_name": None,
        "count": 1,
        "runtime_environments": [],
        "stdout_name": None,
        "stderr_name": None,
    }
    for name, values, position in _read_clauses(text):
        key = name.lower()
        if key == "executable":
            fields["executable"] = _single(name, values, position)
        elif key == "arguments":
            if not values:
                raise XrslSyntaxError("attribute 'arguments' takes values", position)
            fields["arguments"].extend(values)
        elif key == "jobname":
            fields["job_name"] = _single(name, values, position)
        elif key == "count":
            value = _single(name, values, position)
            if not (value.isascii() and value.isdigit()) or int(value) < 1:
                raise XrslSyntaxError(f"count must be a positive integer, got {value!r}", position)
            fields["count"] = int(value)
        elif key == "runtimeenvironment":
            fields["runtime_environments"].append(_single(name, values, position))
        elif key == "stdout":
            fields["stdout_name"] = _single(name, values, position)
        elif key == "stderr":
            fields["stderr_name"] = _single(name, values, position)
        else:
            warnings.warn(f"ignoring unknown attribute {name!r}", UnknownAttributeWarning, stacklevel=2)
    if not fields["executable"]:
        raise MissingExecutable("job description supplies no executable")
    return JobDescription(**fields)

"""Readers shared by the CLI, the XRSL parser and the fixture, config and manifest loaders."""

from __future__ import annotations

from pathlib import Path
from typing import Iterator


def ascii_int(text: str) -> int | None:
    """Return ``text`` as an int if it is ASCII digits ``int()`` converts, else ``None``."""
    try:
        return int(text) if text.isascii() and text.isdigit() else None
    except ValueError:  # more digits than int() will convert
        return None


def read_text(path: Path, error: type[Exception]) -> str:
    """Return the whole UTF-8 text of ``path``; raise ``error`` if the file
    cannot be read or is not UTF-8."""
    try:
        return path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {path}: {exc}") from exc


def content_lines(path: Path, error: type[Exception]) -> Iterator[tuple[int, str]]:
    """Yield ``(lineno, line)`` for each stripped line that is not blank or a
    ``#`` comment; raise ``error`` as :func:`read_text` does."""
    for lineno, raw in enumerate(read_text(path, error).splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line


def key_values(path: Path, error: type[Exception]) -> Iterator[tuple[int, str, str]]:
    """Yield ``(lineno, key, value)`` per ``key = value`` line, in file order
    (repeated keys included); raise ``error`` for a line without ``=``."""
    for lineno, line in content_lines(path, error):
        key, sep, value = line.partition("=")
        if not sep:
            raise error(f"{path}:{lineno}: expected key = value")
        yield lineno, key.strip(), value.strip()

"""Readers shared by the CLI, the XRSL parser, the client and the fixture, config and manifest
loaders: every input file and fetched body is read here, one ``read1`` at a time, so a socket
read waits no longer than its deadline allows.  HTTP header lines are read by ``_wire.header_lines``,
and ``lrms`` reads ``sinfo``'s output."""

from __future__ import annotations

from collections.abc import Container, Iterator
from io import BufferedIOBase
from pathlib import Path

# An input file or fetched body above this many bytes is refused rather than held in memory.
MAX_DOCUMENT_BYTES = 64 * 1024 * 1024
_CHUNK_BYTES = 1024 * 1024  # one read takes in a typical input file or info document


def ascii_int(text: str) -> int | None:
    """Return ``text`` as an int if it is ASCII digits ``int()`` converts, else ``None``."""
    try:
        return int(text) if text.isascii() and text.isdigit() else None
    except ValueError:  # more digits than int() will convert
        return None


def read_bounded(stream: BufferedIOBase, name: object, error: type[Exception], size: int | None = None) -> bytes:
    """Return the rest of ``stream``, or its first ``size`` bytes, in chunks of one ``read1`` each, so
    each wait on a pipe or socket is one raw read; raise ``error`` as soon as it passes
    :data:`MAX_DOCUMENT_BYTES`, and before any read if ``size`` does.  At the end of the
    stream fewer than ``size`` bytes are returned."""
    limit, chunks = MAX_DOCUMENT_BYTES, []
    if size is not None and size > limit:
        raise error(f"{name}: document exceeds {limit} bytes")
    left = limit + 1 if size is None else size  # one byte past the cap tells a document over it
    while left and (chunk := stream.read1(min(left, _CHUNK_BYTES))):
        chunks.append(chunk)
        left -= len(chunk)
    if size is None and not left:
        raise error(f"{name}: document exceeds {limit} bytes")
    return b"".join(chunks)


def read_text(path: Path, error: type[Exception]) -> str:
    """Return the whole UTF-8 text of ``path``, with ``\\r\\n`` and ``\\r`` read
    as ``\\n`` as :meth:`Path.read_text` reads them; raise ``error`` if the
    file cannot be read, is not UTF-8 or passes :data:`MAX_DOCUMENT_BYTES`."""
    try:
        with open(path, "rb") as stream:
            text = read_bounded(stream, path, error).decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {path}: {exc}") from exc
    # The test costs far less than two replaces on a text that holds no CR.
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def content_lines(path: Path, error: type[Exception]) -> Iterator[tuple[int, str]]:
    """Yield ``(lineno, line)`` for each stripped line that is not blank or a
    ``#`` comment; raise ``error`` as :func:`read_text` does."""
    for lineno, raw in enumerate(read_text(path, error).splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line


def key_values(
    path: Path, error: type[Exception], keys: Container[str] | None = None
) -> Iterator[tuple[int, str, str]]:
    """Yield ``(lineno, key, value)`` per ``key = value`` line, in file order
    (repeated keys included); raise ``error`` for a line without ``=`` or,
    if ``keys`` is given, for a key not in it."""
    for lineno, line in content_lines(path, error):
        key, sep, value = map(str.strip, line.partition("="))
        if not sep:
            raise error(f"{path}:{lineno}: expected key = value")
        if keys is not None and key not in keys:
            raise error(f"{path}:{lineno}: unknown key {key!r}")
        yield lineno, key, value

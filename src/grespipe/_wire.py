"""The reader of HTTP/1.0 header lines and the socket whose exchange ends by one deadline, shared by the info
endpoint (``_httpd``) and :func:`grespipe.client.fetch_info`, which import this module only when they run."""

from __future__ import annotations

import socket
import time
from typing import BinaryIO

MAX_LINE_BYTES = 65536  # http.server's and http.client's limit on the bytes in any line of a head
MAX_HEADERS = 100  # their limit on the lines after the first line of a head, the blank one included


def header_lines(stream: BinaryIO) -> list[bytes] | None:
    """Return the lines after a head's first line, up to the blank one (bare LF too) or the end of ``stream``;
    ``None`` once a line passes :data:`MAX_LINE_BYTES` or :data:`MAX_HEADERS` lines hold no end of the head."""
    lines = []
    while len(lines) < MAX_HEADERS and len(line := stream.readline(MAX_LINE_BYTES + 1)) <= MAX_LINE_BYTES:
        if line in (b"\r\n", b"\n", b""):
            return lines
        lines.append(line)
    return None


class DeadlineSocket(socket.socket):
    """A connected socket whose reads and writes end by one ``deadline``, so a drip cannot hold either end."""

    deadline: float  # on the time.monotonic() clock

    @classmethod
    def adopt(cls, sock: socket.socket, deadline: float) -> DeadlineSocket:
        """Take over ``sock``'s connection, which ``sock`` no longer holds."""
        adopted = cls(fileno=sock.detach())
        adopted.deadline = deadline
        return adopted

    def _by_deadline(self, call, *args):
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise TimeoutError("exchange deadline passed")
        self.settimeout(left)  # sendall's timeout, too, bounds the whole call
        return call(*args)

    def recv_into(self, *args) -> int:
        return self._by_deadline(super().recv_into, *args)

    def sendall(self, *args) -> None:
        return self._by_deadline(super().sendall, *args)
